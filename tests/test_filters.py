import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convkern
from convkern import (ExpPolySeq, Impulse, LaurentPoly, Window, certified_window,
                      certify_eigen, convolve, eigen_residual, fat_point_space,
                      kernel_residual)
from convkern.filters import ORACLE_TOL

from conftest import const, random_poly, variables


def _impulse_1d(**taps):
    return Impulse(1, {(k,): v for k, v in taps.items()})


def delta_diff():
    # delta_0 - delta_1, symbol 1 - z
    return Impulse(1, {(0,): 1.0, (1,): -1.0})


def _convolve_seq(h, seq, w):
    """h * seq on the window as a dict keyed by window point: the sum of the
    rows of its terms."""
    return dict(zip(w.points(), convolve(h, seq.terms, w).sum(axis=0).tolist()))


class TestSymbol:
    def test_first_difference(self):
        z = LaurentPoly.variable(1, 0)
        assert delta_diff() == const(1, 1) - z

    def test_second_difference(self):
        z = LaurentPoly.variable(1, 0)
        h = Impulse(1, {(0,): 1.0, (1,): -2.0, (2,): 1.0})
        assert h == (const(1, 1) - z) * (const(1, 1) - z)

    def test_tensor_difference(self):
        z1, z2 = variables(2)
        h = Impulse(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
        assert h == (const(2, 1) - z1) * (const(2, 1) - z2)

    def test_multiplicative(self, rng):
        # the product of two filters' symbols has the taps of their
        # convolution, sum_beta g(beta) h(alpha - beta)
        for _ in range(10):
            dim = int(rng.integers(1, 3))
            g = random_poly(rng, dim, 3, laurent=True)
            h = random_poly(rng, dim, 3, laurent=True)
            taps = {}
            for beta, gb in g.taps.items():
                for gamma, hc in h.taps.items():
                    alpha = tuple(b + c for b, c in zip(beta, gamma))
                    taps[alpha] = taps.get(alpha, 0) + gb * hc
            direct = Impulse(dim, taps)
            assert (g * h - direct).norm() <= 1e-12 * max(1.0, direct.norm())


class TestImpulse:
    def test_a_filter_is_its_symbol(self):
        assert convkern.Impulse is convkern.LaurentPoly

    @pytest.mark.parametrize("taps", [{(): 1.0}, {}])
    def test_dimension_must_be_positive(self, taps):
        with pytest.raises(ValueError, match="dimension must be positive"):
            Impulse(0, taps)

    def test_non_finite_tap_refused_when_built(self):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            Impulse(1, {(0,): float("inf")})


def _value_by_sum_and_prod(seq, alpha):
    """ExpPolySeq.value as one sum over the terms of p(alpha) times a
    math.prod of the theta powers: the reference its loop must equal."""
    alpha = tuple(int(a) for a in alpha)
    return sum(p.evaluate(alpha) * math.prod((t ** a for t, a in zip(theta, alpha) if a),
                                             start=1 + 0j)
               for theta, p in seq.terms)


class TestExpPolySeqValue:
    def test_bit_identical_to_sum_and_prod(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            thetas = {tuple(complex(*rng.normal(size=2)) * float(rng.choice([1e-3, 1, 1e3]))
                            for _ in range(dim)) for _ in range(int(rng.integers(1, 4)))}
            seq = ExpPolySeq(tuple((theta, random_poly(rng, dim, 3, complex_coeffs=True))
                                   for theta in thetas))
            for _ in range(5):
                alpha = tuple(int(a) for a in rng.integers(-6, 7, size=dim))
                assert repr(seq.value(alpha)) == repr(_value_by_sum_and_prod(seq, alpha))

    def test_signed_zero_parts_as_the_sum_from_int_zero(self):
        seq = ExpPolySeq.single((1.0, -2.0), const(2, complex(-0.0, -0.0)))
        for alpha in [(0, 0), (0, 3), (-1, 2)]:
            assert repr(seq.value(alpha)) == repr(_value_by_sum_and_prod(seq, alpha))

    @pytest.mark.parametrize("theta, alpha", [((2.0, 1.0), (2000, 1)), ((1.0, 3j), (1, 1500)),
                                              ((1.0, 1e-300), (2, -5))])
    def test_power_out_of_range_raises_the_same_type(self, theta, alpha):
        seq = ExpPolySeq(((theta, variables(2)[0] + const(2, 1)),
                          ((0.5, 2j), const(2, 1.0))))
        with pytest.raises(Exception) as expected:
            _value_by_sum_and_prod(seq, alpha)
        with pytest.raises(expected.type):
            seq.value(alpha)

    def test_samples_are_values_in_window_order(self):
        seq = ExpPolySeq.single((0.5 + 1j, -2.0), variables(2)[1] - 3 * const(2, 1))
        w = Window((-1, 2), (1, 4))
        samples = seq.samples(w)
        assert samples.window == w
        assert samples.values == [seq.value(alpha) for alpha in w.points()]


class TestConvolve:
    def test_difference_kills_constants(self):
        vals = convolve(delta_diff(), [((1.0,), const(1, 1))], Window((-3,), (5,)))
        assert vals.shape == (1, 9) and not vals.any()

    def test_second_difference_of_square(self):
        h = Impulse(1, {(0,): 1.0, (1,): -2.0, (2,): 1.0})
        x = LaurentPoly.variable(1, 0)
        [vals] = convolve(h, [((1.0,), x * x)], Window((0,), (6,)))
        assert all(abs(v - 2) < 1e-12 for v in vals)

    def test_exponential_rule(self, rng):
        # h * e_theta = h*(theta^-1) e_theta
        for _ in range(10):
            dim = int(rng.integers(1, 3))
            h = random_poly(rng, dim, 3, laurent=True)
            theta = rng.uniform(0.5, 2.0, size=dim) * np.exp(
                2j * np.pi * rng.uniform(size=dim))
            seq = ExpPolySeq.single(tuple(theta), const(dim, 1.0))
            factor = h.evaluate(1.0 / theta)
            w = Window((0,) * dim, (2,) * dim)
            for alpha, v in _convolve_seq(h, seq, w).items():
                expect = factor * seq.value(alpha)
                assert abs(v - expect) <= 1e-10 * (1 + abs(expect))

    def test_sampled_sequence_and_associativity(self, rng):
        g = random_poly(rng, 1, 2)
        h = random_poly(rng, 1, 2)
        samples = {(k,): complex(rng.normal()) for k in range(-10, 11)}
        inner_w = Window((-5,), (5,))
        hc = convolve(h, samples, inner_w)
        w = Window((-1,), (1,))
        lhs = convolve(g, hc, w)
        rhs = convolve(g * h, samples, w)
        for alpha in w.points():
            assert abs(lhs[alpha] - rhs[alpha]) <= 1e-10

    def test_coverage_error(self):
        samples = {(0,): 1.0}
        with pytest.raises(ValueError):
            convolve(delta_diff(), samples, Window((0,), (3,)))


class TestCertifiedWindow:
    def test_constants(self):
        w = certified_window(2, const(2, 1).degree())
        assert w.lower == (0, 0) and w.upper == (0, 0)

    def test_linear(self):
        x = LaurentPoly.variable(1, 0)
        w = certified_window(1, (const(1, 1) + x).degree())
        assert w.lower == (0,) and w.upper == (1,)
        assert certified_window(1, 1, pad=2).upper == (3,)

    def test_quadratic_2d(self):
        x, y = variables(2)
        w = certified_window(2, ((x + y) * (x + y)).degree())
        assert w.upper == (2, 2)
        # the zero polynomial, degree -1, is checked on {0}^s
        assert certified_window(2, const(2, 0).degree()).upper == (0, 0)

    def test_soundness_outside_window(self, rng):
        # Sequences certified zero on the window stay zero at random
        # outside points.
        z = LaurentPoly.variable(1, 0)
        h = (const(1, 1) - 2 * z) * (const(1, 1) - 2 * z)
        x = LaurentPoly.variable(1, 0)
        for p in (const(1, 1), x):
            seq = ExpPolySeq.single((2.0,), p)
            res, = kernel_residual([h], seq.terms)
            assert res <= 1e-12
            for _ in range(100):
                alpha = (int(rng.integers(-20, 40)),)
                v = sum(c * seq.value((alpha[0] - k,))
                        for (k,), c in h.taps.items())
                assert abs(v) <= 1e-8 * (1 + abs(seq.value(alpha)))


class TestKernelResidual:
    def test_constants_in_difference_kernel(self):
        assert kernel_residual([delta_diff()], [((1.0,), const(1, 1))]) == [0.0]

    def test_linear_in_second_difference_kernel(self):
        h = Impulse(1, {(0,): 1.0, (1,): -2.0, (2,): 1.0})
        x = LaurentPoly.variable(1, 0)
        res, = kernel_residual([h], [((1.0,), x)])
        assert res <= 1e-12

    def test_square_not_in_kernel(self):
        h = Impulse(1, {(0,): 1.0, (1,): -2.0, (2,): 1.0})
        x = LaurentPoly.variable(1, 0)
        res, = kernel_residual([h], [((1.0,), x * x)])
        assert res == pytest.approx(1.0)  # |2| / (1 + 1)

    def test_kernel_1d_specialization(self):
        # h* = (z-2)^2 (z-3): kernel is (1/2)^a, a (1/2)^a, (1/3)^a
        z = LaurentPoly.variable(1, 0)
        two, three = const(1, 2), const(1, 3)
        h = (z - two) * (z - two) * (z - three)
        x = LaurentPoly.variable(1, 0)
        members = [((0.5,), const(1, 1)), ((0.5,), x), ((1 / 3,), const(1, 1))]
        assert all(res <= 1e-8 for res in kernel_residual([h], members))
        res, = kernel_residual([h], [((0.5,), x * x)])
        assert res >= 1e-3

    @pytest.mark.parametrize("theta", [1e155, 1e-155, 1e300, 1e-300])
    def test_out_of_range_power_is_nan(self, theta):
        """theta^2 past double range (1e155), or theta^-3 of an underflowed
        theta^3 (1e-155), reads NaN like the negative powers past range: the
        residual is not finite, with no exception and no RuntimeWarning."""
        h = Impulse(1, {(0,): 1.0, (3,): -1.0})
        x = LaurentPoly.variable(1, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res, = kernel_residual([h], [((theta,), x * x)])
        assert not math.isfinite(res)

    def test_zero_theta_refused(self):
        """A zero theta component is malformed input, not an out-of-range
        power: kernel_residual refuses it, and convolve still raises on its
        negative powers."""
        h = Impulse(1, {(0,): 1.0, (3,): -1.0})
        x = LaurentPoly.variable(1, 0)
        with pytest.raises(ValueError, match="C_x"):
            kernel_residual([h], [((0.0,), x * x)])
        with pytest.raises(ZeroDivisionError):
            convolve(h, [((0j,), x * x)], Window((0,), (2,)))


class TestEigen:
    def averaging(self):
        return Impulse(1, {(0,): 0.5, (1,): 0.5})

    def test_averaging_fixes_constants(self):
        Q = fat_point_space(1, 0)
        cert = certify_eigen(self.averaging(), (1.0,), Q, 1.0, (0,))
        assert cert["pass"]

    def test_averaging_fails_first_order(self):
        Q = fat_point_space(1, 1)
        cert = certify_eigen(self.averaging(), (1.0,), Q, 1.0, (0,))
        assert not cert["pass"] and cert["oracle"]["pass"]
        # the degree-1 condition carries the failure: (h* - 1)'(1) = 1/2
        failing = [r for r in cert["conditions"] if not r["pass"]]
        assert failing and all(Q.ortho_basis[r["q"]].degree() == 1 for r in failing)

    def test_shift_eigenvalue(self):
        h = Impulse(1, {(1,): 1.0})
        Q = fat_point_space(1, 0)
        theta = 2.0
        cert = certify_eigen(h, (theta,), Q, 1.0 / theta, (0,))
        assert cert["pass"]

    @pytest.mark.parametrize("alpha, passed", [(-1, True), (1, False)])
    def test_shift_alpha(self, alpha, passed):
        """delta_1 maps e_2 to e_2(. - 1): an eigen-sequence with lam = 1
        at alpha = -1, and not at alpha = 1, where both halves read
        |1/2 - 2| / 2 = 0.75."""
        cert = certify_eigen(Impulse(1, {(1,): 1.0}), (2.0,), fat_point_space(1, 0), 1.0,
                             (alpha,))
        [cond] = cert["conditions"]
        assert cond["pass"] == cert["oracle"]["pass"] == cert["pass"] == passed
        assert cond["residual"] == cert["oracle"]["residual"] == (0.0 if passed else 0.75)

    def test_zero_eigen_impulse_passes(self):
        """h = lam delta_{-alpha}: every sequence is an eigen-sequence, so
        every check reads 0 and passes, at tol for the conditions."""
        h = Impulse(2, {(1, -1): 0.5 - 2j})
        Q = fat_point_space(2, 2)
        cert = certify_eigen(h, (0.7, 2j), Q, 0.5 - 2j, (-1, 1), tol=1e-7)
        assert cert["pass"] and len(cert["conditions"]) == Q.size
        for rec in cert["conditions"]:
            assert (rec["residual"], rec["tolerance"], rec["pass"]) == (0.0, 1e-7, True)
        assert cert["oracle"] == {"residual": 0.0, "tolerance": 1e-7, "pass": True}

    def test_residual_constants(self):
        assert eigen_residual(self.averaging(), 1.0, (0,), [((1.0,), const(1, 1))]) == [0.0]

    def test_residual_shift(self):
        h = Impulse(1, {(1,): 1.0})
        theta = 2.0
        res, = eigen_residual(h, 1.0 / theta, (0,), [((theta,), const(1, 1))])
        assert res <= 1e-12

    def test_residual_linear_failure(self):
        x = LaurentPoly.variable(1, 0)
        res, = eigen_residual(self.averaging(), 1.0, (0,), [((1.0,), x)])
        assert res == pytest.approx(0.25)  # |1/2| / (1 + 1)


def _pointwise_eigen_residual(h, lam, alpha_h, seq, pad=0):
    """The per-point loop that eigen_residual ran before it became a
    kernel_residual, kept as a reference: max over the certified window of
    |h*seq - lam seq(. + alpha_h)| / (1 + sum |theta^alpha|), where Python's
    max skips a NaN point.  Returns (that max, whether a point was NaN)."""
    w = certified_window(seq.dim, max(p.degree() for _, p in seq.terms), pad=pad)
    worst, nan_seen = 0.0, False
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha, v in _convolve_seq(h, seq, w).items():
            shifted = seq.value(tuple(a + b for a, b in zip(alpha, alpha_h)))
            scale = 1.0 + sum(abs(math.prod((t ** a for t, a in zip(theta, alpha) if a),
                                            start=1 + 0j))
                              for theta, _ in seq.terms)
            point = abs(v - lam * shifted) / scale
            nan_seen = nan_seen or math.isnan(point)
            worst = max(worst, point)
    return worst, nan_seen


class TestEigenResidualAsKernelResidual:
    """eigen_residual is the kernel_residual of h - lam delta_{-alpha_h}; it
    agrees with the per-point loop it replaced, except that an overflowing
    point makes it NaN where the loop skipped that point."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3), pad=st.integers(0, 2))
    def test_agrees_with_pointwise_loop(self, seed, dim, pad):
        rng = np.random.default_rng(seed)
        theta = _random_theta(rng, dim, rng.uniform(0.3, 3.0))
        h = Impulse(dim, {tuple(int(v) for v in rng.integers(-2, 4, size=dim)):
                          complex(rng.normal(), rng.normal())
                          for _ in range(int(rng.integers(1, 6)))})
        alpha_h = tuple(int(v) for v in rng.integers(-2, 4, size=dim))
        lam = complex(rng.normal(), rng.normal())
        seq = ExpPolySeq.single(theta, const(dim, 1))
        reference, nan_seen = _pointwise_eigen_residual(h, lam, alpha_h, seq, pad)
        got, = eigen_residual(h, lam, alpha_h, seq.terms, pad)
        assert not nan_seen
        assert abs(got - reference) <= 1e-12 * (h.l1() + abs(lam))

    @settings(max_examples=50, deadline=None)
    @given(theta=st.floats(2.0, 3.0), size=st.floats(1.0, 4.0), pad=st.integers(12, 14))
    def test_overflow_is_nan(self, theta, size, pad):
        """h = a z - a theta^-2 z^-1 has e_theta as an eigen-sequence with
        eigenvalue 0; its two tap products pass 1e308 together, at window
        points where the loop skipped the NaN."""
        a = size * 1e306
        h = Impulse(1, {(1,): a, (-1,): -a / theta ** 2})
        seq = ExpPolySeq.single((theta,), const(1, 1))
        reference, nan_seen = _pointwise_eigen_residual(h, 0.0, (0,), seq, pad)
        assert nan_seen and math.isfinite(reference)
        assert math.isnan(eigen_residual(h, 0.0, (0,), seq.terms, pad)[0])

    def test_tap_at_minus_alpha_h_absorbs_lambda(self):
        """A tap of h at -alpha_h absorbs -lam: h = delta_1 + delta_{-1}
        maps e_2 to (1/2 + 2) e_2 = 1.25 e_2(. + 1), so with alpha_h = 1 and
        lam = 1.25 the impulse is delta_1 - 0.25 delta_{-1}; lam = 1 cancels
        the tap at -1 and leaves delta_1."""
        h = Impulse(1, {(1,): 1.0, (-1,): 1.0})
        terms = [((2.0,), const(1, 1))]
        assert eigen_residual(h, 1.25, (1,), terms, pad=3) == [0.0]
        res, = eigen_residual(h, 1.0, (1,), terms, pad=3)
        assert [res] == kernel_residual([Impulse(1, {(1,): 1.0})], terms, pad=3) and res > 0


class TestCertifyEigen:
    def averaging(self):
        return Impulse(1, {(0,): 0.5, (1,): 0.5})

    def test_records_share_one_shape(self):
        cert = certify_eigen(self.averaging(), (1.0,), fat_point_space(1, 1), 1.0, (0,))
        for rec in cert["conditions"] + [cert["oracle"]]:
            assert rec["pass"] == (rec["residual"] <= rec["tolerance"])
        assert not cert["pass"]
        assert cert["pass"] == all(r["pass"] for r in cert["conditions"] + [cert["oracle"]])

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_oracle_bound(self, tol):
        h = Impulse(1, {(0,): 3.0, (1,): -1.0})
        res, = eigen_residual(h, 2.0, (0,), [((1.0,), const(1, 1))], pad=2)
        cert = certify_eigen(h, (1.0,), fat_point_space(1, 0), 2.0, (0,), tol=tol, pad=2)
        # certify_kernel's bound for h - 2 delta = 1 - z: max(1, |1 - z|_1) = 2
        assert cert["oracle"] == {"residual": res,
                                  "tolerance": max(tol, ORACLE_TOL) * 2.0, "pass": True}
        assert cert["pass"]


def _scalar_convolve(h, c, w):
    """Reference: one ExpPolySeq.value per (window point, tap) pair."""
    out = {}
    for alpha in w.points():
        total = 0j
        for beta, hb in h.taps.items():
            total += hb * c.value(tuple(a - b for a, b in zip(alpha, beta)))
        out[alpha] = total
    return out


def _assert_matches_scalar(h, c, w, rtol=1e-12):
    got = _convolve_seq(h, c, w)
    ref = _scalar_convolve(h, c, w)
    assert list(got) == list(ref)  # same points, same order
    scale = max([abs(v) for v in ref.values()], default=0.0)
    for alpha, v in ref.items():
        assert abs(got[alpha] - v) <= rtol * scale


def _random_theta(rng, dim, radius):
    return tuple(radius * np.exp(2j * np.pi * rng.uniform(size=dim)))


class TestBlockConvolve:
    """The block-vectorized closed-form path against the scalar loop."""

    def test_laurent_taps_and_theta_moduli(self, rng):
        for radius in (0.3, 3.0):
            for _ in range(8):
                dim = int(rng.integers(1, 4))
                h = random_poly(rng, dim, 3, complex_coeffs=True, laurent=True)
                seq = ExpPolySeq.single(_random_theta(rng, dim, radius),
                                        random_poly(rng, dim, 4, complex_coeffs=True))
                _assert_matches_scalar(h, seq, Window((-2,) * dim, (3,) * dim))

    def test_negative_tap_indices(self):
        x, y = variables(2)
        h = Impulse(2, {(-3, 1): 1.0, (0, -2): -2.5j, (2, 2): 0.5, (-1, -1): 1 + 1j})
        seq = ExpPolySeq.single((0.3 + 0.1j, -3.0), const(2, 1) + x * y - 2 * y * y)
        _assert_matches_scalar(h, seq, Window((-1, 0), (4, 3)))

    def test_two_term_sequence(self, rng):
        for dim in (1, 2, 3):
            h = random_poly(rng, dim, 3, complex_coeffs=True, laurent=True)
            seq = ExpPolySeq(((_random_theta(rng, dim, 0.3), random_poly(rng, dim, 3)),
                              (_random_theta(rng, dim, 3.0), random_poly(rng, dim, 2))))
            _assert_matches_scalar(h, seq, Window((0,) * dim, (3,) * dim))

    def test_empty_filter(self):
        w = Window((-1, -1), (1, 2))
        vals = convolve(Impulse(2, {}), [((2.0, 0.5), const(2, 1))], w)
        assert vals.shape == (1, 12) and not vals.any()

    def test_window_spanning_several_blocks(self, rng):
        from convkern import filters
        h = random_poly(rng, 1, 4, complex_coeffs=True, laurent=True)
        seq = ExpPolySeq.single(_random_theta(rng, 1, 1.0), random_poly(rng, 1, 3))
        n = 3 * (filters.BLOCK_PAIRS // len(h.taps)) + 7
        _assert_matches_scalar(h, seq, Window((-n // 2,), (n - n // 2,)))

    def test_small_blocks_in_several_dimensions(self, rng, monkeypatch):
        from convkern import filters
        monkeypatch.setattr(filters, "BLOCK_PAIRS", 5)
        for dim in (2, 3):
            h = random_poly(rng, dim, 2, laurent=True)
            seq = ExpPolySeq.single(_random_theta(rng, dim, 3.0), random_poly(rng, dim, 3))
            _assert_matches_scalar(h, seq, Window((-1,) * dim, (2,) * dim))

    def test_sparse_far_taps(self):
        # the argument tables cover only the arguments that occur
        h = Impulse(2, {(0, 0): 1.0, (10 ** 7, -10 ** 7): 2.0})
        seq = ExpPolySeq.single((1j, -1.0), variables(2)[0] + const(2, 1))
        _assert_matches_scalar(h, seq, Window((0, 0), (2, 2)))

    def test_memory_does_not_grow_with_window_and_taps(self):
        import tracemalloc
        x = LaurentPoly.variable(1, 0)
        terms = [((np.exp(0.7j),), const(1, 1) + 0.5 * x)]
        h = Impulse(1, {(k - 8,): 1.0 / (k + 1) for k in range(16)})
        w = Window((0,), (99_999,))
        tracemalloc.start()
        try:
            vals = convolve(h, terms, w)
            result, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vals.shape == (1, 100_000)
        # beyond the returned array, the working memory stays far below the
        # 25.6 MB that one array over all (point, tap) pairs would need
        assert peak - result <= 8e6


def _random_stack(rng, dim, radius):
    """Terms sharing one theta with degrees 0..4, then terms of a second
    theta interleaved with the first, one of them the zero polynomial."""
    theta, other = _random_theta(rng, dim, radius), _random_theta(rng, dim, 1 / radius)
    stack = [(theta, random_poly(rng, dim, d, complex_coeffs=True)) for d in (2, 0, 4, 1, 3)]
    stack += [(other, random_poly(rng, dim, 2)),
              (theta, random_poly(rng, dim, 3, complex_coeffs=True)),
              (other, const(dim, 0)),
              (theta, random_poly(rng, dim, 1)),
              (other, random_poly(rng, dim, 4, complex_coeffs=True))]
    return stack


def _assert_rows_are_single_calls(h, stack, w):
    got = convolve(h, stack, w)
    assert got.shape == (len(stack), len(list(w.points())))
    for row, term in zip(got, stack):
        assert row.tolist() == convolve(h, [term], w)[0].tolist()  # exactly


class TestStackedConvolve:
    """convolve(h, [(theta, p), ...], w) is one row per term, each exactly
    the one-term result."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0.3, 3.0])
    def test_rows_equal_single_calls(self, rng, dim, radius):
        for _ in range(3):
            h = random_poly(rng, dim, 3, complex_coeffs=True, laurent=True)
            _assert_rows_are_single_calls(h, _random_stack(rng, dim, radius),
                                          Window((-2,) * dim, (3,) * dim))

    def test_empty_filter(self, rng):
        stack = _random_stack(rng, 2, 3.0)
        w = Window((-1, -1), (1, 2))
        vals = convolve(Impulse(2, {}), stack, w)
        assert vals.shape == (len(stack), 12) and not vals.any()
        assert convolve(Impulse(2, {}), [], w).shape == (0, 12)

    def test_several_blocks(self, rng, monkeypatch):
        from convkern import filters
        h = random_poly(rng, 1, 4, complex_coeffs=True, laurent=True)
        n = 3 * (filters.BLOCK_PAIRS // len(h.taps)) + 7
        _assert_rows_are_single_calls(h, _random_stack(rng, 1, 0.3)[:5],
                                      Window((0,), (n,)))
        monkeypatch.setattr(filters, "BLOCK_PAIRS", 5)
        for dim in (2, 3):
            h = random_poly(rng, dim, 2, laurent=True)
            _assert_rows_are_single_calls(h, _random_stack(rng, dim, 3.0),
                                          Window((-1,) * dim, (2,) * dim))

    def test_dimension_mismatch(self):
        stack = [((2.0,), const(1, 1)), ((2.0, 1.0), const(2, 1))]
        with pytest.raises(ValueError, match="dimensions differ"):
            convolve(Impulse(2, {(0, 0): 1.0}), stack, Window((0, 0), (1, 1)))

    @pytest.mark.parametrize("pad", [0, 2])
    def test_kernel_residual_of_a_list(self, rng, pad):
        for dim in (1, 2, 3):
            H = [random_poly(rng, dim, 3, complex_coeffs=True, laurent=True) for _ in range(3)]
            stack = _random_stack(rng, dim, 3.0)
            stack.append(stack[0])  # a repeated term shares its group
            got = kernel_residual(H, stack, pad=pad)
            assert got == [kernel_residual(H, [term], pad=pad)[0] for term in stack]

    def test_kernel_residual_one_convolve_per_window(self, monkeypatch):
        from convkern import filters
        calls = []
        real = filters.convolve

        def counting(bank, c, w):
            calls.append((len(bank.vectors), bank.taps, len(c), w.upper))
            return real(bank, c, w)

        monkeypatch.setattr(filters, "convolve", counting)
        x = LaurentPoly.variable(1, 0)
        H = [Impulse(1, {(1,): 1.0, (0,): -1.0}), Impulse(1, {(0,): 1.0, (1,): -2.0, (2,): 1.0})]
        stack = [((1.0,), p) for p in (const(1, 1), x, 2 * x, x * x)]
        kernel_residual(H, stack)
        # windows {0}, {0..1} and {0..2}, each stacked once for the whole of
        # H, whose union support keeps the order of first occurrence
        taps = ((1,), (0,), (2,))
        assert calls == [(2, taps, 1, (0,)), (2, taps, 2, (1,)), (2, taps, 1, (2,))]

    def test_memory_of_a_stack(self):
        import tracemalloc
        x = LaurentPoly.variable(1, 0)
        theta = (np.exp(0.7j),)
        stack = [(theta, const(1, 1) + (k / 8) * x if k % 2 else const(1, k)) for k in range(8)]
        h = Impulse(1, {(k - 8,): 1.0 / (k + 1) for k in range(16)})
        w = Window((0,), (99_999,))
        tracemalloc.start()
        try:
            vals = convolve(h, stack, w)
            result, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vals.shape == (8, 100_000)
        # beyond the returned array, the working memory (one shared table
        # per theta and one block at a time) stays far below the 8 x 25.6 MB
        # that arrays over all (point, tap) pairs would need
        assert peak - result <= 8e6

    @pytest.mark.parametrize("block", [None, 39])
    def test_several_blocks_of_a_bank(self, monkeypatch, block):
        """A bank cuts its window into blocks of BLOCK_PAIRS // |union taps|
        points, so on a window of several blocks a filter's blocks depend on
        the filters beside it.  With its one-filter blocks cut the same way,
        each filter's rows are the bank's bit for bit; with its own blocks
        they differ only by gemv rounding, a few ulp of the row's largest
        value (at most 2.2e-16 where measured, at the blocks of one to three
        points, whose gemv sums in another order)."""
        from convkern import filters
        from convkern.filters import FilterBank
        if block is not None:
            monkeypatch.setattr(filters, "BLOCK_PAIRS", block)
        rng = np.random.default_rng(11)
        H = [Impulse(1, {(k,): complex(rng.normal(), rng.normal()) for k in taus})
             for taus in (range(3), range(-2, 3), range(5, 13))]
        bank = FilterBank(H)
        assert len(bank.taps) == 13
        step = filters.BLOCK_PAIRS // len(bank.taps)
        w = Window((0,), (3 * step,))  # three full blocks and one of one point
        x = LaurentPoly.variable(1, 0)
        terms = [((np.exp(0.3j),), const(1, 1) + 0.25 * x), ((0.9 * np.exp(-1.1j),), x * x)]
        rows = convolve(bank, terms, w)
        for f, h in enumerate(H):
            alone = convolve(h, terms, w)
            assert np.max(np.abs(rows[f] - alone)) <= 1e-15 * np.max(np.abs(alone))
        for f, h in enumerate(H):
            monkeypatch.setattr(filters, "BLOCK_PAIRS", step * len(h.taps))
            assert np.array_equal(rows[f], convolve(h, terms, w))

    def test_bank_refuses_samples(self):
        from convkern.filters import FilterBank
        h = delta_diff()
        samples = {(k,): 1.0 for k in range(-2, 4)}
        with pytest.raises(TypeError, match="not samples"):
            convolve(FilterBank([h]), samples, Window((0,), (2,)))

    def test_memory_of_a_bank(self):
        """500 one-tap filters on a window of 10^4 points: each convolve's
        result holds at most MAX_WINDOW_PAIRS values, where one result for
        the whole bank would take 500 x 10^4 x 16 bytes = 80 MB."""
        import tracemalloc
        H = [Impulse(1, {(k % 3,): 1.0 + k}) for k in range(500)]
        terms = [((np.exp(0.7j),), const(1, 1))]
        tracemalloc.start()
        try:
            got = kernel_residual(H, terms, pad=9_999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # |theta| = 1, so the largest tap, 500, gives 500 / (1 + 1)
        assert got == [pytest.approx(250.0, rel=1e-12)]
        assert peak < 16e6


class TestEigenConditionsJets:
    """certify_eigen's conditions are the dual conditions of
    h - lam delta_{-alpha}: q(D) applied to the normalized symbol of
    h* - lam z^-alpha at theta^-1, by the apply_poly_diff reference, each
    at tol (1 + sum |c| |theta^-e|) over its terms c z^e, on Laurent
    filters, shifted eigen-monomials and |theta| away from 1."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0.3, 3.0])
    def test_against_apply_poly_diff(self, rng, dim, radius):
        from convkern.apolar import ortho_homog_basis
        from convkern.mpoly import apply_poly_diff, laurent_normalize
        Q = fat_point_space(dim, 2)
        for _ in range(3):
            g = random_poly(rng, dim, 4, complex_coeffs=True, laurent=True)
            theta = _random_theta(rng, dim, radius)
            alpha = tuple(int(v) for v in rng.integers(-2, 3, size=dim))
            lam = complex(rng.normal(), rng.normal())
            cert = certify_eigen(g, theta, Q, lam, alpha)
            shifted = g - LaurentPoly(dim, {tuple(-a for a in alpha): lam})
            normalized, _ = laurent_normalize(shifted)
            point = [1.0 / t for t in theta]
            jet_scale = 1.0 + sum(abs(c) * abs(LaurentPoly.monomial(dim, e).evaluate(point))
                                  for e, c in normalized.terms.items())
            basis = ortho_homog_basis(Q)
            assert len(cert["conditions"]) == len(basis)
            for qi, (q, rec) in enumerate(zip(basis, cert["conditions"])):
                ref = apply_poly_diff(q, normalized).evaluate(point)
                assert rec["q"] == qi
                assert abs(rec["value"] - ref) <= 1e-12 * jet_scale
                assert rec["residual"] == abs(rec["value"])
                assert rec["tolerance"] == pytest.approx(1e-9 * jet_scale, rel=1e-14)


class TestEigenHalvesAgree:
    """The conditions and the oracle of certify_eigen read one impulse,
    h - lam delta_{-alpha}: at the eigenvalue lam = h*(theta^-1) theta^-alpha
    both pass, and at lam (1 + 1e-3) both fail, whatever the shift alpha."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3))
    def test_both_halves_decide_alike(self, seed, dim):
        rng = np.random.default_rng(seed)
        g = random_poly(rng, dim, 4, complex_coeffs=True, laurent=True)
        theta = _random_theta(rng, dim, rng.uniform(0.3, 3.0))
        alpha = tuple(int(v) for v in rng.integers(-2, 3, size=dim))
        lam = g.evaluate([1 / t for t in theta]) * math.prod(t ** -a for t, a in zip(theta, alpha))
        for factor, passed in ((1.0, True), (1 + 1e-3, False)):
            cert = certify_eigen(g, theta, fat_point_space(dim, 0),
                                 lam * factor, alpha)
            assert [rec["pass"] for rec in cert["conditions"]] == [passed]
            assert cert["oracle"]["pass"] == passed


def _same(a, b):
    """Equal floats, NaN equal to NaN."""
    return a == b or (np.isnan(a) and np.isnan(b))


def _sequence_residual_reference(H, seqs, pad=0):
    """kernel_residual as it was when it took sequences, kept as a
    reference: per sequence, (overall, {theta: residual}), each term split
    off into a one-term sequence and stacked theta-major with the terms that
    share its window, over tables gathered per block for the theta of each
    row."""
    from convkern.filters import BLOCK_PAIRS, _arguments, _window_powers

    def closed_form(h, stack, w):
        sides = tuple(u - l + 1 for l, u in zip(w.lower, w.upper))
        n = math.prod(sides)
        out = np.zeros((len(stack), n), dtype=complex)
        if not h.taps:
            return out
        taus = np.array(list(h.taps), dtype=np.int64)
        hvec = np.array(list(h.taps.values()), dtype=complex)
        axes = [_arguments(l, u, taus[:, j].tolist())
                for j, (l, u) in enumerate(zip(w.lower, w.upper))]
        degree = {}
        for c in stack:
            for theta, p in c.terms:
                degree[theta] = max(degree.get(theta, 0), p.degree())
        tables = {theta: [np.fromiter(map(t.__pow__, axis.tolist()), complex, len(axis))
                          * axis.astype(float) ** np.arange(top + 1)[:, None]
                          for t, axis in zip(theta, axes)]
                  for theta, top in degree.items()}
        step = max(1, BLOCK_PAIRS // len(taus))
        for start in range(0, n, step):
            points = np.unravel_index(np.arange(start, min(n, start + step)), sides)
            idx = [np.searchsorted(axis, (x + l)[:, None] - taus[None, :, j])
                   for j, (axis, x, l) in enumerate(zip(axes, points, w.lower))]
            for r, c in enumerate(stack):
                values = np.zeros((len(points[0]), len(taus)), dtype=complex)
                for theta, p in c.terms:
                    g0, *rest = [table[:, i] for table, i in zip(tables[theta], idx)]
                    for exp, coeff in p.terms.items():
                        mono = coeff * g0[exp[0]]
                        for g, k in zip(rest, exp[1:]):
                            mono = mono * g[k]  # numpy's vector loop at every size
                        values += mono
                out[r, start:start + len(points[0])] = values @ hvec
        return out

    groups = {}
    for r, c in enumerate(seqs):
        for i, (theta, p) in enumerate(c.terms):
            term = ExpPolySeq.single(theta, p)
            side = max(p.degree(), 0) + pad
            groups.setdefault(Window((0,) * c.dim, (side,) * c.dim), {}) \
                .setdefault(theta, []).append(((r, i), term))
    found = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for w, by_theta in groups.items():
            entries = [entry for same in by_theta.values() for entry in same]
            stack = [term for _, term in entries]
            scale = np.concatenate([np.tile(1.0 + np.abs(_window_powers(theta, w)),
                                            (len(same), 1))
                                    for theta, same in by_theta.items()])
            worst = np.zeros(len(stack))
            for h in H:
                residual = np.abs(closed_form(h, stack, w)) / scale
                worst = np.maximum(worst, np.max(residual, axis=1, initial=0.0))
            found.update(zip((position for position, _ in entries), worst.tolist()))
    out = []
    for r, c in enumerate(seqs):
        per_theta = {theta: found[r, i] for i, (theta, _) in enumerate(c.terms)}
        out.append((float(np.max(list(per_theta.values()), initial=0.0)), per_theta))
    return out


class TestResidualAcrossTheta:
    """kernel_residual stacks the terms of every theta that share a window;
    each result is exactly that of the one-term call, and the terms of a
    sequence give the per-theta residuals that the sequence gave when
    kernel_residual took sequences."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3),
           pad=st.integers(0, 2), nan_theta=st.booleans())
    def test_equals_per_theta_calls(self, seed, dim, pad, nan_theta):
        rng = np.random.default_rng(seed)
        thetas = [tuple(complex(t) for t in rng.uniform(0.3, 3.0, size=dim)
                        * np.exp(2j * np.pi * rng.uniform(size=dim)))
                  for _ in range(int(rng.integers(1, 5)))]
        if nan_theta:
            # a NaN theta is keyed by identity: every term reuses its component objects
            thetas[-1] = (complex(float("nan"), 0.0),) + thetas[-1][1:]
        H = [random_poly(rng, dim, 2, complex_coeffs=True, laurent=True)
             for _ in range(int(rng.integers(1, 3)))]
        # a random term stack: theta repeated across terms, degrees 0..4
        stack = [(thetas[int(rng.integers(len(thetas)))],
                  random_poly(rng, dim, int(rng.integers(0, 5)), complex_coeffs=True))
                 for _ in range(int(rng.integers(1, 12)))]
        stack.append((thetas[-1], random_poly(rng, dim, 3)))
        got = kernel_residual(H, stack, pad=pad)
        assert len(got) == len(stack)
        for value, term in zip(got, stack):
            assert _same(value, kernel_residual(H, [term], pad=pad)[0])
        # sequences of distinct theta: their .terms reproduce the per-theta
        # residuals of the sequence reference bit for bit
        seqs = []
        for _ in range(int(rng.integers(1, 5))):
            picks = rng.choice(len(thetas), size=int(rng.integers(1, len(thetas) + 1)),
                               replace=False)
            seqs.append(ExpPolySeq(tuple(
                (thetas[i], random_poly(rng, dim, int(rng.integers(0, 5)), complex_coeffs=True))
                for i in picks)))
        reference = _sequence_residual_reference(H, seqs, pad)
        for seq, (overall, per) in zip(seqs, reference):
            values = kernel_residual(H, seq.terms, pad=pad)
            assert len(values) == len(per)
            assert all(_same(a, b) for a, b in zip(values, per.values()))
            assert _same(overall, float(np.max(values)))

    def test_memory_across_theta(self):
        """Twelve theta stacked on the windows of Pi_4 need at most 3x the
        working memory of the largest single-theta stack: per block, only the
        table columns of one theta stay gathered."""
        import tracemalloc
        from convkern.linalg import monomials_upto
        rng = np.random.default_rng(7)
        h = Impulse(3, {exp: complex(rng.normal(), rng.normal())
                        for exp in monomials_upto(3, 5)})
        assert len(h.taps) == 56
        thetas = [tuple(rng.uniform(0.8, 1.25, size=3)
                        * np.exp(2j * np.pi * rng.uniform(size=3))) for _ in range(12)]
        per_theta = [[(theta, LaurentPoly.monomial(3, exp)) for exp in monomials_upto(3, 4)]
                     for theta in thetas]

        def peak(terms):
            tracemalloc.start()
            try:
                kernel_residual([h], terms)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        single = max(peak(terms) for terms in per_theta)
        stacked = peak([term for terms in per_theta for term in terms])
        assert stacked <= 3 * single, (stacked, single)


def _bank_case(data, dim):
    """1-6 filters drawn from a random filter, its copy far off (disjoint
    support), a repeat and the zero filter, and a stack of degree 0-3 terms
    over a shared theta, a second theta, a NaN theta and one whose (point,
    tap) values overflow."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    far = LaurentPoly.monomial(dim, (9,) + (0,) * (dim - 1))
    H = []
    for kind in data.draw(st.lists(st.sampled_from(["random", "far", "repeat", "zero"]),
                                   min_size=1, max_size=6), label="filters"):
        h = random_poly(rng, dim, 2, complex_coeffs=True, laurent=True)
        if kind == "far":
            h = (H[-1] if H else h) * far
        if kind == "repeat" and H:
            h = H[int(rng.integers(len(H)))]
        H.append(Impulse(dim, {}) if kind == "zero" else h)
    thetas = [_random_theta(rng, dim, rng.uniform(0.8, 1.25)) for _ in range(2)]
    thetas.append((complex(float("nan"), 0.0),) + thetas[0][1:])
    # theta^x stays finite up to the largest argument, 5, but the products
    # over two or three coordinates overflow
    thetas.append((complex(1e60, 0.0),) * dim)
    picks = data.draw(st.lists(st.integers(0, len(thetas) - 1), min_size=1, max_size=8),
                      label="thetas")
    terms = [(thetas[i], random_poly(rng, dim, int(rng.integers(0, 4)), complex_coeffs=True))
             for i in picks]
    return H, terms


def _max_over_filters(H, terms):
    """Per term, the max over h in H of kernel_residual([h], terms), NaN
    when any is NaN."""
    alone = np.array([kernel_residual([h], terms) for h in H])
    return np.max(alone, axis=0, initial=0.0).tolist()


class TestFilterBank:
    """kernel_residual reads H as one FilterBank, one convolve per window:
    with single-block windows each residual is bit for bit the max over the
    filters alone; with smaller blocks it agrees to rounding."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_single_blocks_are_exact(self, data, dim):
        from convkern.filters import FilterBank
        H, terms = _bank_case(data, dim)
        got = kernel_residual(H, terms)
        assert all(_same(a, b) for a, b in zip(got, _max_over_filters(H, terms)))
        # and the bank's rows are the one-filter rows, value for value
        w = certified_window(dim, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = convolve(FilterBank(H), terms, w)
            for f, h in enumerate(H):
                assert np.array_equal(rows[f], convolve(h, terms, w), equal_nan=True)
        # stacking more terms never changes a residual
        more = terms + _bank_case(data, dim)[1]
        assert all(_same(a, b) for a, b in zip(kernel_residual(H, more), got))
        for value, term in zip(got, terms):
            assert _same(value, kernel_residual(H, [term])[0])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), block=st.sampled_from([7, 64]))
    def test_small_blocks_agree(self, data, dim, block):
        """The (point, tap) values do not depend on the blocks, but a gemv
        row's rounding may depend on the block's row count, and so may
        whether an overflowed residual comes out inf or NaN; neither passes
        a tolerance."""
        from convkern import filters
        H, terms = _bank_case(data, dim)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "BLOCK_PAIRS", block)
            got = kernel_residual(H, terms)
            expected = _max_over_filters(H, terms)
        h_scale = max(1.0, max(h.l1() for h in H))
        for a, b, (_, p) in zip(got, expected, terms):
            if math.isfinite(a) or math.isfinite(b):
                # relative above 1: theta = 1e60 in one variable leaves
                # residuals near 1e120
                bound = 1e-10 * h_scale * max(1.0, p.norm()) * max(1.0, abs(b))
                assert abs(a - b) <= bound

    @pytest.mark.parametrize("pairs, slices", [(None, [(0, 4)]),
                                               (50, [(0, 2), (2, 4), (0, 3), (3, 4)])])
    def test_each_slice_is_built_once_per_call(self, pairs, slices):
        """Three windows: with the default cap they share one bank of all of
        H.  With a cap of 50 values the two-row 9-point window and the
        25-point window share two-filter slices, and the 16-point window
        takes slices of three filters and one.  The residuals are those of
        each term alone."""
        from convkern import filters
        H = [Impulse(2, {(0, 0): 1.0, (1, 0): -2.0 + k, (0, k): 0.5}) for k in range(4)]
        x, y = variables(2)
        terms = [((0.5, 2j), const(2, 1)), ((0.5, 2j), x), ((1.5j, 0.7), x * y),
                 ((1.5j, 0.7), const(2, 1))]
        built = []

        class Counting(filters.FilterBank):
            def __init__(self, H):
                built.append(H)
                super().__init__(H)

        with pytest.MonkeyPatch.context() as mp:
            if pairs:
                mp.setattr(filters, "MAX_WINDOW_PAIRS", pairs)
            expected = [kernel_residual(H, [term], pad=2) for term in terms]
            mp.setattr(filters, "FilterBank", Counting)
            got = kernel_residual(H, terms, pad=2)
        assert [(H.index(b[0]), H.index(b[-1]) + 1) for b in built] == slices
        assert all(_same(a, b) for a, (b,) in zip(got, expected))


def test_every_check_defaults_to_one_tolerance():
    import inspect
    from convkern import filters, spectrum, subdivision
    for check in (spectrum.certify_eigen, spectrum.verify_zero_dim, spectrum.certify_kernel,
                  spectrum.kernel_basis, subdivision.is_symmetric_zero,
                  subdivision.symmetric_zero_order, subdivision.subdivision_kernel_check):
        assert inspect.signature(check).parameters["tol"].default is filters.DEFAULT_TOL
    assert spectrum.DEFAULT_TOL is filters.DEFAULT_TOL == 1e-9


class TestWindowCap:
    """require_window_pairs counts sum rows (deg + pad + 1)^s and refuses a
    count above MAX_WINDOW_PAIRS before any window is built."""

    def test_count(self):
        from convkern.filters import require_window_pairs
        assert require_window_pairs(2, 1, [(0, 3), (2, 1)]) == 3 * 2 ** 2 + 4 ** 2
        assert require_window_pairs(5, 0, []) == 0

    def test_at_and_above_the_cap(self):
        from convkern.filters import MAX_WINDOW_PAIRS, require_window_pairs
        assert require_window_pairs(1, MAX_WINDOW_PAIRS - 1, [(0, 1)]) == MAX_WINDOW_PAIRS
        with pytest.raises(ValueError, match=f"cover {MAX_WINDOW_PAIRS + 1} "):
            require_window_pairs(1, 0, [(0, MAX_WINDOW_PAIRS + 1)])
        with pytest.raises(ValueError, match=r"more than 2\*\*64"):
            require_window_pairs(10 ** 6, 1, [(0, 1)])

    def test_library_checks_refuse_before_building(self):
        from convkern import Dilation, Spectrum, Zero, certify_kernel
        from convkern.subdivision import subdivision_kernel_check
        x = Impulse(3, {(0, 0, 0): 1.0, (1, 0, 0): -1.0})
        Xi = Dilation(((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        with pytest.raises(ValueError, match="certified windows cover"):
            subdivision_kernel_check(x, Xi, [((1.0, 1.0, 1.0), 20)])
        spec = Spectrum((Zero((1.0, 1.0, 1.0), fat_point_space(3, 0)),))
        with pytest.raises(ValueError, match="certified windows cover"):
            certify_kernel([x], spec, pad=100)
        with pytest.raises(ValueError, match="certified windows cover"):
            certify_eigen(x, (1.0, 1.0, 1.0), spec.zeros[0].mult, 1.0, (0, 0, 0), pad=100)
