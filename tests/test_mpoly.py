import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convkern import LaurentPoly, apply_poly_diff, falling_factorial, laurent_normalize
from convkern.mpoly import factorial

from conftest import const, random_poly, variables


class TestArithmetic:
    def test_binomial_square(self):
        z = LaurentPoly.variable(1, 0)
        f = (const(1, 1) - z) * (const(1, 1) - z)
        assert f == LaurentPoly(1, {(0,): 1, (1,): -2, (2,): 1})

    def test_times_zero(self):
        z = LaurentPoly.variable(1, 0)
        assert ((const(1, 1) - z) * LaurentPoly.zero(1)).is_zero

    def test_bivariate_product(self):
        z1, z2 = variables(2)
        f = (const(2, 1) - z1) * (const(2, 1) - z2)
        assert f == LaurentPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LaurentPoly.variable(1, 0) + LaurentPoly.variable(2, 0)

    def test_zero_terms_pruned(self):
        z = LaurentPoly.variable(1, 0)
        f = z - z
        assert f.terms == {}

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LaurentPoly(1, {(0,): float("nan")})


class TestEval:
    def test_simple_root(self):
        z = LaurentPoly.variable(1, 0)
        assert (const(1, 1) - z).evaluate([1.0]) == 0

    def test_negative_exponent(self):
        f = LaurentPoly(1, {(-1,): 1, (0,): -1})
        assert f.evaluate([2.0]) == pytest.approx(-0.5)

    def test_expanded_average(self):
        z = LaurentPoly.variable(1, 0)
        f = (const(1, 1) + z) * (const(1, 1) + z) * 0.5
        assert abs(f.evaluate([-1.0])) == 0

    def test_zero_coordinate_negative_exponent(self):
        f = LaurentPoly(1, {(-1,): 1})
        with pytest.raises(ZeroDivisionError):
            f.evaluate([0.0])

    def test_ring_homomorphism(self, rng):
        for _ in range(30):
            dim = int(rng.integers(1, 4))
            f = random_poly(rng, dim, 3, complex_coeffs=True, laurent=True)
            g = random_poly(rng, dim, 3, complex_coeffs=True, laurent=True)
            z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            z = z / np.abs(z) * rng.uniform(0.5, 2.0, size=dim)  # keep away from 0
            lhs = (f * g).evaluate(z)
            rhs = f.evaluate(z) * g.evaluate(z)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


class TestDiff:
    def test_partial(self):
        x, y = variables(2)
        assert (x * x * y).diff((1, 0)) == 2 * (x * y)

    def test_annihilated(self):
        x, y = variables(2)
        assert (x * x).diff((0, 1)).is_zero

    def test_mixed(self):
        x, y = variables(2)
        f = (x + y) * (x + y)
        assert f.diff((1, 1)) == const(2, 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.variable(1, 0).diff((-1,))

    def test_composition_exact(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            f = random_poly(rng, dim, 4)
            a = tuple(int(v) for v in rng.integers(0, 3, size=dim))
            b = tuple(int(v) for v in rng.integers(0, 3, size=dim))
            ab = tuple(x + y for x, y in zip(a, b))
            assert f.diff(a).diff(b) == f.diff(ab)


class TestApplyPolyDiff:
    def test_first_derivative(self):
        x = LaurentPoly.variable(1, 0)
        assert apply_poly_diff(x, x * x) == 2 * x

    def test_identity(self, rng):
        f = random_poly(rng, 2, 4)
        assert apply_poly_diff(const(2, 1), f) == f

    def test_gradient_sum(self):
        x, y = variables(2)
        assert apply_poly_diff(x + y, x * y) == x + y


class TestLeadingForm:
    def test_drops_lower_terms(self):
        x = LaurentPoly.variable(1, 0)
        assert (x * x + x).leading_form() == x * x

    def test_preserved_by_L(self):
        # leading form of L((t1 x + t2 y)^2) is (t1 x + t2 y)^2
        from convkern import L_op
        x, y = variables(2)
        ell = 1.0 * x + 2.0 * y
        f = ell * ell
        assert L_op(f).leading_form() == f

    def test_constant(self):
        assert const(1, 3).leading_form() == const(1, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero(2).leading_form()

    def test_multiplicative(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 3))
            f = random_poly(rng, dim, 3)
            g = random_poly(rng, dim, 3)
            lhs = (f * g).leading_form()
            rhs = f.leading_form() * g.leading_form()
            if not rhs.is_zero:
                assert (lhs - rhs).norm() <= 1e-10 * rhs.norm()


class TestScaleVars:
    def test_linear_square(self):
        x, y = variables(2)
        t1, t2 = 1.3, -0.7
        f = (x + y) * (x + y)
        ell = t1 * x + t2 * y
        assert (f.scale_vars([t1, t2]) - ell * ell).norm() < 1e-12

    def test_identity(self, rng):
        f = random_poly(rng, 3, 4)
        assert f.scale_vars([1.0, 1.0, 1.0]) == f

    def test_sigma_minus_parity(self):
        x = LaurentPoly.variable(1, 0)
        assert (x * x + x).sigma_minus() == x * x - x

    def test_composition_and_involution(self, rng):
        f = random_poly(rng, 2, 4)
        theta = [1.5, -0.5]
        eta = [2.0, 0.25]
        lhs = f.scale_vars(theta).scale_vars(eta)
        rhs = f.scale_vars([a * b for a, b in zip(theta, eta)])
        assert (lhs - rhs).norm() < 1e-10 * max(1.0, rhs.norm())
        assert f.sigma_minus().sigma_minus() == f

    def test_zero_component_rejected(self):
        with pytest.raises(ValueError):
            const(2, 1).scale_vars([1.0, 0.0])


class TestFallingFactorial:
    def test_univariate(self):
        x = LaurentPoly.variable(1, 0)
        assert falling_factorial((2,)) == x * x - x

    def test_empty_product(self):
        assert falling_factorial((0, 0)) == const(2, 1)

    def test_mixed(self):
        x, y = variables(2)
        assert falling_factorial((1, 1)) == x * y

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial((-1,))


class TestLaurentNormalize:
    def test_negative_shift(self):
        f = LaurentPoly(1, {(-1,): 1, (0,): -1})
        g, mu = laurent_normalize(f)
        assert mu == (-1,)
        assert g == LaurentPoly(1, {(0,): 1, (1,): -1})

    def test_monomial(self):
        g, mu = laurent_normalize(LaurentPoly.monomial(2, (1, 1)))
        assert mu == (1, 1)
        assert g == const(2, 1)

    def test_positive_shift(self):
        z = LaurentPoly.variable(1, 0)
        g, mu = laurent_normalize(z * z - z)
        assert mu == (1,)
        assert g == z - const(1, 1)

    def test_round_trip(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            f = random_poly(rng, dim, 3, laurent=True)
            g, mu = laurent_normalize(f)
            assert LaurentPoly.monomial(dim, mu) * g == f

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            laurent_normalize(LaurentPoly.zero(1))


def test_factorial_guard():
    assert factorial(5) == 120
    with pytest.raises(OverflowError):
        factorial(21)


# -- the trusted constructor against the validating one ----------------------
#
# Each reference below builds every result, intermediate ones included,
# through the validating public constructor LaurentPoly(dim, terms).  The
# library, which builds derived polynomials with the trusted LaurentPoly._of,
# must store the same terms, in the same order, with the same zero signs, and
# raise the same ValueError.


def ref_add(p, q):
    out = dict(p.terms)
    for exp, c in q.terms.items():
        out[exp] = out.get(exp, 0) + c
    return LaurentPoly(p.dim, out)


def ref_neg(p):
    return LaurentPoly(p.dim, {e: -c for e, c in p.terms.items()})


def ref_sub(p, q):
    return ref_add(p, ref_neg(q))


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return LaurentPoly(p.dim, out)


def ref_scale(p, c):
    c = complex(c)
    return LaurentPoly(p.dim, {e: c * v for e, v in p.terms.items()})


def ref_diff(p, alpha):
    out = {}
    for exp, c in p.terms.items():
        coeff = c
        new = list(exp)
        dead = False
        for j, a in enumerate(alpha):
            for _ in range(a):
                if new[j] == 0:
                    dead = True
                    break
                coeff *= new[j]
                new[j] -= 1
            if dead:
                break
        if not dead:
            out[tuple(new)] = out.get(tuple(new), 0) + coeff
    return LaurentPoly(p.dim, out)


def ref_scale_vars(p, theta):
    theta = [complex(t) for t in theta]
    out = {}
    for exp, c in p.terms.items():
        fac = c
        for t, e in zip(theta, exp):
            fac *= t ** e
        out[exp] = fac
    return LaurentPoly(p.dim, out)


def ref_conjugate(p):
    return LaurentPoly(p.dim, {e: c.conjugate() for e, c in p.terms.items()})


def ref_laurent_normalize(p):
    mu = tuple(min(exp[j] for exp in p.terms) for j in range(p.dim))
    return LaurentPoly(p.dim, {tuple(e - m for e, m in zip(exp, mu)): c
                               for exp, c in p.terms.items()}), mu


def ref_apply_poly_diff(q, f):
    out = LaurentPoly.zero(f.dim)
    for alpha, c in q.terms.items():
        out = ref_add(out, ref_scale(ref_diff(f, alpha), c))
    return out


def _bits(p):
    """The stored terms in order, each part as float.hex, which tells -0.0
    from 0.0 and keeps every bit."""
    return [(e, c.real.hex(), c.imag.hex()) for e, c in p.terms.items()]


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (ValueError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(out, tuple):  # laurent_normalize
        return (_bits(out[0]), out[1])
    return _bits(out)


def assert_same(fn, ref, *args):
    assert _outcome(fn, *args) == _outcome(ref, *args)


# Small exact parts make sums and products cancel exactly and produce -0.0
# parts; the huge ones overflow.
_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0]),
                   st.floats(-4, 4, allow_nan=False),
                   st.sampled_from([1e308, -1.5e308]))
coeffs = st.builds(complex, _parts, _parts)
scalars = st.one_of(coeffs, st.sampled_from([complex(-1.0, -0.0), complex(-0.0, 1.0), 10.0]))


@st.composite
def laurent(draw, dim, lo=-2, hi=3):
    exps = st.tuples(*[st.integers(lo, hi)] * dim)
    return LaurentPoly(dim, draw(st.dictionaries(exps, coeffs, max_size=6)))


@st.composite
def pairs(draw, lo=-2):
    """(p, q) of one dimension 1-3; q repeats some of p's terms negated, so
    p + q cancels them exactly."""
    dim = draw(st.integers(1, 3))
    p = draw(laurent(dim, lo))
    q = draw(laurent(dim, lo))
    shared = draw(st.lists(st.sampled_from(sorted(p.terms)), unique=True)) if p.terms else []
    q = LaurentPoly(dim, {**q.terms, **{e: -p.terms[e] for e in shared}})
    return p, q


TRUSTED = settings(max_examples=150, deadline=None)


class TestTrustedPathMatchesValidation:
    @TRUSTED
    @given(pairs())
    def test_add_sub_mul(self, pq):
        p, q = pq
        assert_same(lambda a, b: a + b, ref_add, p, q)
        assert_same(lambda a, b: a - b, ref_sub, p, q)
        assert_same(lambda a, b: a * b, ref_mul, p, q)

    @TRUSTED
    @given(st.integers(1, 3).flatmap(laurent), scalars)
    def test_scale_conjugate_normalize(self, p, c):
        assert_same(LaurentPoly.scale, ref_scale, p, c)
        assert_same(LaurentPoly.conjugate, ref_conjugate, p)
        if not p.is_zero:
            assert_same(laurent_normalize, ref_laurent_normalize, p)

    @TRUSTED
    @given(st.integers(1, 3).flatmap(
        lambda d: st.tuples(laurent(d), st.tuples(*[st.integers(0, 3)] * d))))
    def test_diff(self, case):
        p, alpha = case
        assert_same(LaurentPoly.diff, ref_diff, p, alpha)

    @TRUSTED
    @given(st.integers(1, 3).flatmap(
        lambda d: st.tuples(laurent(d, 0),
                            st.lists(st.sampled_from([1.0, -1.0, 2.0, complex(0, 1),
                                                      complex(-1.0, -0.0), 1e200]),
                                     min_size=d, max_size=d))))
    def test_scale_vars(self, case):
        """|theta| >= 1, so no term underflows (that case raises now, see
        TestScaleVarsUnderflow)."""
        p, theta = case
        assert_same(LaurentPoly.scale_vars, ref_scale_vars, p, theta)

    @TRUSTED
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(laurent(d, 0), laurent(d))))
    def test_apply_poly_diff(self, case):
        q, f = case
        assert_same(apply_poly_diff, ref_apply_poly_diff, q, f)

    def test_apply_poly_diff_cancels_exactly(self):
        x, y = variables(2)
        assert_same(apply_poly_diff, ref_apply_poly_diff, x - y, x + y)
        assert apply_poly_diff(x - y, x + y).is_zero

    def test_apply_poly_diff_keeps_term_order_after_a_cancellation(self):
        """q = 1 - D/2 + D^2 on z^3 + z^2 + z: the z term cancels at D and
        comes back at D^2, after the constant term."""
        q = LaurentPoly(1, {(0,): 1.0, (1,): -0.5, (2,): 1.0})
        f = LaurentPoly(1, {(3,): 1.0, (2,): 1.0, (1,): 1.0})
        assert_same(apply_poly_diff, ref_apply_poly_diff, q, f)
        assert list(apply_poly_diff(q, f).terms) == [(3,), (2,), (0,), (1,)]

    @pytest.mark.parametrize("fn, ref, args", [
        (LaurentPoly.scale, ref_scale, (const(1, 1e308), 10)),
        (lambda a, b: a + b, ref_add, (const(1, 1e308), const(1, 1e308))),
        (lambda a, b: a * b, ref_mul, (const(1, 1e200), const(1, 1e200))),
        (LaurentPoly.diff, ref_diff, (LaurentPoly(1, {(10,): 1e308}), (1,))),
        # apply_poly_diff overflowing in its diff, scale and sum steps
        (apply_poly_diff, ref_apply_poly_diff,
         (LaurentPoly(1, {(1,): 1.0}), LaurentPoly(1, {(10,): 1e308}))),
        (apply_poly_diff, ref_apply_poly_diff,
         (LaurentPoly(1, {(0,): 1e200}), LaurentPoly(1, {(0,): 1e200, (1,): -1e200}))),
        (apply_poly_diff, ref_apply_poly_diff,
         (LaurentPoly(1, {(0,): 1.0, (1,): 1.0}),
          LaurentPoly(1, {(0,): 1e308, (1,): 1e308, (2,): 1.0}))),
    ])
    def test_overflow_raises_the_same_error(self, fn, ref, args):
        with pytest.raises(ValueError) as got:
            fn(*args)
        with pytest.raises(ValueError) as want:
            ref(*args)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("non-finite coefficient")


class TestScaleVarsUnderflow:
    def test_underflow_to_zero_raises(self):
        f = LaurentPoly(1, {(k,): 1.0 for k in range(4)})
        with pytest.raises(OverflowError, match="underflows to 0"):
            f.scale_vars([1e-300])

    def test_subnormal_is_kept(self):
        f = LaurentPoly(1, {(2,): 1.0})
        assert f.scale_vars([1e-160]).terms[(2,)] != 0
