from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convkern import (DInvariantSpace, LaurentPoly, adjoint_check, bombieri,
                      bombieri_norm, is_d_invariant,
                      ortho_expansion_residual, ortho_homog_basis,
                      taylor_identity_residual)
from convkern import apolar
from convkern.apolar import ORTHO_DROP_TOL, SPAN_TOL
from convkern.linalg import coeff_matrix, joint_support, nullspace, numerical_rank, span_residual

from conftest import const, random_poly, variables


class TestBombieri:
    def test_square_monomial(self):
        x = LaurentPoly.variable(1, 0)
        assert bombieri(x * x, x * x) == pytest.approx(2)

    def test_mixed_monomial(self):
        x, y = variables(2)
        assert bombieri(x * y, x * y) == pytest.approx(1)

    def test_disjoint_supports(self):
        x, y = variables(2)
        assert bombieri(x, y) == 0

    def test_hermitian(self, rng):
        f = random_poly(rng, 2, 4, complex_coeffs=True)
        g = random_poly(rng, 2, 4, complex_coeffs=True)
        assert bombieri(f, g) == pytest.approx(bombieri(g, f).conjugate())

    def test_positive_definite(self, rng):
        for _ in range(10):
            f = random_poly(rng, 2, 4, complex_coeffs=True)
            assert bombieri(f, f).real > 0

    def test_degree_orthogonal(self):
        x, y = variables(2)
        f = (x + y) * (x + y)   # homogeneous degree 2
        g = x + 2 * y           # homogeneous degree 1
        assert bombieri(f, g) == 0


class TestAdjoint:
    def test_worked_example(self):
        x = LaurentPoly.variable(1, 0)
        assert adjoint_check(x, x * x, x) == pytest.approx(0)

    def test_constant_multiplier(self, rng):
        f = random_poly(rng, 2, 4)
        g = random_poly(rng, 2, 4)
        assert adjoint_check(const(2, 1), f, g) <= 1e-12

    def test_random_triples(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            p = random_poly(rng, dim, 4)
            f = random_poly(rng, dim, 4)
            g = random_poly(rng, dim, 4)
            scale = f.norm() * (p * g).norm() + 1
            assert adjoint_check(p, f, g) <= 1e-10 * scale


class TestDInvariance:
    def test_lower_set(self):
        x, y = variables(2)
        ok, witness = is_d_invariant([const(2, 1), x, y])
        assert ok and witness is None

    def test_missing_constant(self):
        x = LaurentPoly.variable(1, 0)
        ok, witness = is_d_invariant([x])
        assert not ok
        q, j, rel = witness
        assert q == x and j == 0 and rel > SPAN_TOL

    def test_linear_powers(self):
        x, y = variables(2)
        ell = x + y
        ok, _ = is_d_invariant([const(2, 1), ell, ell * ell])
        assert ok

    def test_dependent_basis_rejected(self):
        x = LaurentPoly.variable(1, 0)
        with pytest.raises(ValueError):
            is_d_invariant([x, 2 * x])

    def test_space_constructor_rejects(self):
        x = LaurentPoly.variable(1, 0)
        with pytest.raises(ValueError):
            DInvariantSpace((x,))


class TestOrthoHomogBasis:
    def test_two_elements(self):
        x, y = variables(2)
        space = DInvariantSpace((const(2, 1), x + y))
        Q = ortho_homog_basis(space)
        assert len(Q) == 2
        assert Q[0] == const(2, 1)
        assert (Q[1] - (x + y).scale(1 / np.sqrt(2))).norm() < 1e-12

    def test_already_orthonormal(self):
        x, y = variables(2)
        space = DInvariantSpace((const(2, 1), x, y))
        Q = ortho_homog_basis(space)
        assert Q == [const(2, 1), x, y]

    def test_linear_square_norm(self):
        x, y = variables(2)
        ell = x + y
        space = DInvariantSpace((const(2, 1), ell, ell * ell))
        Q = ortho_homog_basis(space)
        # ((x+y)^2, (x+y)^2) = 2 + 4 + 2 = 8
        assert bombieri(ell * ell, ell * ell) == pytest.approx(8)
        assert (Q[2] - (ell * ell).scale(1 / np.sqrt(8))).norm() < 1e-12

    def test_pairwise_orthonormal(self, rng):
        x, y = variables(2)
        ell = 1.0 * x - 3.0 * y
        space = DInvariantSpace((const(2, 1), ell, ell * ell))
        Q = ortho_homog_basis(space)
        for i, qi in enumerate(Q):
            for j, qj in enumerate(Q):
                target = 1.0 if i == j else 0.0
                assert abs(bombieri(qi, qj) - target) < 1e-12

    def test_spans_input(self):
        x, y = variables(2)
        ell = x + 2 * y
        space = DInvariantSpace((const(2, 1), ell, ell * ell))
        Q = ortho_homog_basis(space)
        A, _ = coeff_matrix(list(space.basis) + Q)
        assert np.linalg.matrix_rank(A, tol=1e-10) == 3

    def test_inhomogeneous_space_rejected(self):
        x, y = variables(2)
        # span{1, x, x^2 + y} is D-invariant but not homogeneously generated
        space = DInvariantSpace((const(2, 1), x, x * x + y))
        with pytest.raises(ValueError, match="homogeneous"):
            ortho_homog_basis(space)


class TestExpansionIdentities:
    def test_ortho_expansion(self):
        x, y = variables(2)
        ell = x + y
        space = DInvariantSpace((const(2, 1), ell, ell * ell))
        f = 0.3 * const(2, 1) + 1.7 * ell - 2.1 * (ell * ell)
        assert ortho_expansion_residual(space, f) <= 1e-10

    def test_taylor_constant(self):
        space = DInvariantSpace((const(2, 1),))
        assert taylor_identity_residual(space, const(2, 1), [0.3, -1], [2, 5]) == 0

    def test_taylor_linear(self, rng):
        x = LaurentPoly.variable(1, 0)
        space = DInvariantSpace((const(1, 1), x))
        for _ in range(5):
            pt = rng.normal(size=1)
            qt = rng.normal(size=1)
            assert taylor_identity_residual(space, x, pt, qt) <= 1e-12

    def test_taylor_quadratic(self, rng):
        x, y = variables(2)
        ell = x + y
        space = DInvariantSpace((const(2, 1), ell, ell * ell))
        for _ in range(10):
            pt = rng.normal(size=2)
            qt = rng.normal(size=2)
            assert taylor_identity_residual(space, ell * ell, pt, qt) <= 1e-10

    def test_taylor_outside_span(self):
        x, y = variables(2)
        space = DInvariantSpace((const(2, 1), x + y))
        with pytest.raises(ValueError):
            taylor_identity_residual(space, x, [0, 0], [1, 1])


class TestPerpIdealProperty:
    def test_multiples_stay_orthogonal(self, rng):
        # For D-invariant Q, f orthogonal to Q implies g*f orthogonal to Q
        # (restricted to the degrees we can check).
        x, y = variables(2)
        ell = x + y
        space = DInvariantSpace((const(2, 1), ell, ell * ell))
        Q = ortho_homog_basis(space)
        from convkern.linalg import from_coeff_vector, monomials_upto
        monos = monomials_upto(2, 2)
        A = np.array([[bombieri(LaurentPoly.monomial(2, m), q) for m in monos]
                      for q in Q])
        perp = nullspace(A)
        assert perp.shape[1] == len(monos) - 3
        for k in range(perp.shape[1]):
            f = from_coeff_vector(2, perp[:, k], monos)
            for _ in range(5):
                g = random_poly(rng, 2, 2)
                gf = g * f
                for q in Q:
                    assert abs(bombieri(gf, q)) <= 1e-10 * (gf.norm() + 1)


def reference_span_residual(f, basis):
    """span_residual of one polynomial with a vector right-hand side."""
    support = joint_support(list(basis) + [f])
    A, _ = coeff_matrix(basis, support)
    b = coeff_matrix([f], support)[0][:, 0]
    coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
    res = np.linalg.norm(A @ coeffs - b)
    scale = np.linalg.norm(b)
    return float(res / scale if scale > 0 else res)


def reference_is_d_invariant(basis):
    """is_d_invariant as one span_residual per (q, j): (ok, (q, j))."""
    basis = list(basis)
    A, _ = coeff_matrix(basis)
    if numerical_rank(A) < len(basis):
        raise ValueError("basis is linearly dependent")
    dim = basis[0].dim
    for q in basis:
        for j in range(dim):
            dq = q.diff(tuple(int(i == j) for i in range(dim)))
            if dq.is_zero:
                continue
            if reference_span_residual(dq, basis) > SPAN_TOL:
                return False, (q, j)
    return True, None


def reference_ortho_homog_basis(space):
    """ortho_homog_basis with homogeneous_component scans and every
    Gram-Schmidt step taken."""
    components = []
    for p in space.basis:
        for d in range(p.degree() + 1):
            comp = p.homogeneous_component(d)
            if not comp.is_zero:
                components.append(comp)
    A, _ = coeff_matrix(components)
    if numerical_rank(A) != space.size:
        raise ValueError("space is not spanned by homogeneous polynomials")
    by_degree = {}
    for comp in components:
        by_degree.setdefault(comp.degree(), []).append(comp)
    out = []
    for d in sorted(by_degree):
        block = []
        for cand in by_degree[d]:
            q = cand
            for _ in range(2):
                for e in block:
                    q = q - e.scale(bombieri(q, e))
            nrm = bombieri_norm(q)
            if nrm > ORTHO_DROP_TOL * max(1.0, bombieri_norm(cand)):
                block.append(q.scale(1.0 / nrm))
        out.extend(block)
    if len(out) != space.size:
        raise ValueError("orthogonalization lost rank; basis ill-conditioned")
    return out


def _independent(polys):
    """A maximal linearly independent prefix-greedy subset of polys."""
    chosen = []
    for p in polys:
        if numerical_rank(coeff_matrix(chosen + [p])[0]) == len(chosen) + 1:
            chosen.append(p)
    return chosen


@st.composite
def derivative_spans(draw):
    """An independent basis of span{D^alpha f} for a random f of degree <= 5
    in 1-3 variables, homogeneous or not."""
    dim = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 5))
    homogeneous = draw(st.booleans())
    exps = [e for e in product(range(degree + 1), repeat=dim)
            if (sum(e) == degree if homogeneous else sum(e) <= degree)]
    picked = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=6, unique=True))
    coeffs = draw(st.lists(st.integers(-9, 9).filter(bool).map(float),
                           min_size=len(picked), max_size=len(picked)))
    f = LaurentPoly(dim, dict(zip(picked, coeffs)))
    partials = [f.diff(a) for a in product(range(degree + 1), repeat=dim)]
    return _independent([p for p in partials if not p.is_zero])


@st.composite
def lower_set_spans(draw):
    """Scaled monomials of a lower set in 1-3 variables, degree <= 5."""
    dim = draw(st.integers(1, 3))
    tops = draw(st.lists(st.tuples(*[st.integers(0, 5)] * dim).filter(lambda e: sum(e) <= 5),
                         min_size=1, max_size=4))
    exps = sorted({e for top in tops for e in product(*[range(t + 1) for t in top])})
    scales = draw(st.lists(st.floats(0.25, 4.0), min_size=len(exps), max_size=len(exps)))
    return [LaurentPoly.monomial(dim, e, c) for e, c in zip(exps, scales)]


@st.composite
def spans(draw):
    """A derivative or lower-set span, possibly with one element dropped."""
    basis = draw(st.one_of(derivative_spans(), lower_set_spans()))
    if len(basis) > 1 and draw(st.booleans()):
        del basis[draw(st.integers(0, len(basis) - 1))]
    return basis


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestAgainstReferences:
    """One batched span_residual for D-invariance and the one-pass split
    without exact-zero Gram-Schmidt steps give today's results exactly."""

    @settings(max_examples=200, deadline=None)
    @given(spans())
    def test_matches_reference(self, basis):
        ok, witness = is_d_invariant(basis)
        ref_ok, ref_witness = reference_is_d_invariant(basis)
        assert ok == ref_ok
        if ok:
            assert witness is None and ref_witness is None
        else:
            q, j, rel = witness
            index = [i for i, b in enumerate(basis) if b is q]
            assert (index, j) == ([i for i, b in enumerate(basis) if b is ref_witness[0]],
                                  ref_witness[1])
            assert rel > SPAN_TOL

        space = DInvariantSpace(tuple(basis), _checked=True)
        got = _outcome(ortho_homog_basis, space)
        want = _outcome(reference_ortho_homog_basis, space)
        if isinstance(want, str):
            assert got == want
        else:
            assert got == want
            assert [list(p.terms) for p in got] == [list(p.terms) for p in want]

        dim = basis[0].dim
        partials = [q.diff(tuple(int(i == j) for i in range(dim)))
                    for q in basis for j in range(dim)]
        partials = [p for p in partials if not p.is_zero]
        if partials:
            batch = span_residual(partials, basis)
            single = [span_residual([p], basis)[0] for p in partials]
            reference = [reference_span_residual(p, basis) for p in partials]
            assert np.allclose(batch, single, rtol=0, atol=1e-12)
            assert np.allclose(batch, reference, rtol=0, atol=1e-12)


class TestRepeatedWork:
    @pytest.fixture
    def residual_calls(self, monkeypatch):
        calls = []
        real = apolar.span_residual

        def counting(f, basis):
            calls.append(f)
            return real(f, basis)

        monkeypatch.setattr(apolar, "span_residual", counting)
        return calls

    def test_one_span_residual_per_space(self, residual_calls):
        x, y, z = variables(3)
        DInvariantSpace((const(3, 1), x, y, z, x * y, (x + z) * (x + z)))
        assert len(residual_calls) == 1

    def test_no_span_residual_for_constants(self, residual_calls):
        DInvariantSpace((const(2, 3.5),))
        assert residual_calls == []

    def test_monomial_span_needs_no_subtraction(self, monkeypatch):
        from convkern import fat_point_space
        calls = []
        real = LaurentPoly.__sub__
        monkeypatch.setattr(LaurentPoly, "__sub__",
                            lambda self, other: calls.append(1) or real(self, other))
        Q = ortho_homog_basis(fat_point_space(3, 3))
        assert len(Q) == 20 and calls == []


class TestOverflow:
    """Magnitudes whose norms overflow raise OverflowError instead of
    passing a NaN residual or dropping a basis element."""

    def test_span_residual_overflow(self):
        x = LaurentPoly.variable(1, 0)
        with pytest.raises(OverflowError):
            span_residual([x.scale(2e200)], [const(1, 1e200), (x * x).scale(1e200)])
        with pytest.raises(OverflowError):
            span_residual([const(1, 1e200)], [const(1, 1e200), x.scale(1e200)])

    def test_bombieri_norm_overflow(self):
        with pytest.raises(OverflowError):
            bombieri_norm(const(2, 1e160))
        with pytest.raises(OverflowError):
            ortho_homog_basis(DInvariantSpace((const(2, 1e160),)))

    def test_d_invariance_error_names_residual_and_tolerance(self):
        x = LaurentPoly.variable(1, 0)
        with pytest.raises(ValueError, match=r"^not D-invariant: partial 0 of .* leaves the "
                                             r"span with relative residual 1\.000e\+00 > "
                                             r"SPAN_TOL = 1e-08$"):
            DInvariantSpace((x,))
