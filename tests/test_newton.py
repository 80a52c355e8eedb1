import numpy as np
import pytest

from convkern import (DInvariantSpace, L_inv, L_op, LaurentPoly,
                      build_p_theta,
                      falling_factorial, fat_point_space, forward_difference,
                      lower_set_space, newton_coeffs, shift_matrix)
from convkern.linalg import coeff_matrix, span_residual

from conftest import const, random_poly, variables


class TestForwardDifference:
    def test_square(self):
        x = LaurentPoly.variable(1, 0)
        assert forward_difference(x * x, (1,)) == 2 * x + const(1, 1)

    def test_mixed(self):
        x, y = variables(2)
        assert forward_difference(x * y, (1, 1)) == const(2, 1)

    def test_degree_drop(self):
        x = LaurentPoly.variable(1, 0)
        assert forward_difference(x, (2,)).is_zero

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            forward_difference(const(1, 1), (-1,))


class TestNewtonCoeffs:
    def test_square(self):
        x = LaurentPoly.variable(1, 0)
        assert newton_coeffs(x * x) == {(1,): 1, (2,): 1}

    def test_scaled_linear_square(self):
        x, y = variables(2)
        t1, t2 = 1.0, 2.0
        ell = t1 * x + t2 * y
        coeffs = newton_coeffs(ell * ell)
        expected = {(1, 0): t1 ** 2, (0, 1): t2 ** 2,
                    (2, 0): t1 ** 2, (1, 1): 2 * t1 * t2, (0, 2): t2 ** 2}
        assert set(coeffs) == set(expected)
        for k, v in expected.items():
            assert coeffs[k] == pytest.approx(v)

    def test_constant(self):
        assert newton_coeffs(const(2, 3.5)) == {(0, 0): 3.5}

    def test_reconstruction(self, rng):
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            f = random_poly(rng, dim, 4)
            recon = LaurentPoly.zero(dim)
            for gamma, c in newton_coeffs(f).items():
                recon = recon + falling_factorial(gamma).scale(c)
            assert (recon - f).norm() <= 1e-12 * max(1.0, f.norm())


class TestLOperator:
    def test_identity_on_constants(self):
        assert L_op(const(2, 1)) == const(2, 1)

    def test_identity_on_linear(self):
        x, y = variables(2)
        ell = 1.0 * x + 2.0 * y
        assert (L_op(ell) - ell).norm() < 1e-12

    def test_worked_square(self):
        # L((t1 x + t2 y)^2) = (t1 x + t2 y)^2 + t1^2 x + t2^2 y
        x, y = variables(2)
        t1, t2 = 1.0, 2.0
        ell = t1 * x + t2 * y
        expected = ell * ell + t1 ** 2 * x + t2 ** 2 * y
        assert (L_op(ell * ell) - expected).norm() < 1e-12

    def test_inverse_roundtrip(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            f = random_poly(rng, dim, 6)
            # scale by the intermediate coefficient mass, which grows with
            # the Newton-basis change for degree-6 terms
            scale = max(1.0, sum(abs(c) for c in L_op(f).terms.values()))
            assert (L_inv(L_op(f)) - f).norm() <= 1e-12 * scale
            assert (L_op(L_inv(f)) - f).norm() <= 1e-12 * scale

    def test_inverse_of_square(self):
        x, y = variables(2)
        t1, t2 = 1.0, 2.0
        ell = t1 * x + t2 * y
        expected = ell * ell - (t1 ** 2 * x + t2 ** 2 * y)
        assert (L_inv(ell * ell) - expected).norm() < 1e-12

    def test_identity_on_degree_one(self):
        x = LaurentPoly.variable(1, 0)
        assert L_inv(x) == x

    def test_preserves_degree_and_leading_form(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            f = random_poly(rng, dim, 5)
            lf = L_op(f)
            assert lf.degree() == f.degree()
            assert (lf.leading_form() - f.leading_form()).norm() <= 1e-12 * max(1.0, f.norm())


def _span_equal(polys_a, polys_b, tol=1e-9):
    A, _ = coeff_matrix(list(polys_a) + list(polys_b))
    return (np.linalg.matrix_rank(A, tol=tol) == len(polys_a) == len(polys_b))


class TestBuildPTheta:
    def test_lower_set_fixed(self):
        space = lower_set_space(2, [(0, 0), (1, 0), (0, 1)])
        P = build_p_theta(space, (1.5, -0.5))
        assert _span_equal(P.elements, space.basis)

    def test_worked_example_without_sigma(self):
        x, y = variables(2)
        ell = x + y
        space = DInvariantSpace((const(2, 1), ell, ell * ell))
        # L^-1 sigma_theta Q, before the final sign flip of P_theta
        elements = [L_inv(q.scale_vars((1.0, 2.0))) for q in space.ortho_basis]
        scaled = x + 2 * y
        target = [const(2, 1), scaled, scaled * scaled - (x + 4 * y)]
        assert _span_equal(elements, target)

    def test_univariate_fat_point(self):
        space = fat_point_space(1, 2)
        P = build_p_theta(space, (0.5,))
        assert _span_equal(P.elements, space.basis)

    def test_zero_theta_rejected(self):
        space = fat_point_space(2, 0)
        with pytest.raises(ValueError):
            build_p_theta(space, (1.0, 0.0))

    def test_shift_invariance(self, rng):
        x, y = variables(2)
        ell = x + y
        space = DInvariantSpace((const(2, 1), ell, ell * ell))
        P = build_p_theta(space, (1.0, 2.0))
        for _ in range(10):
            shift = [float(v) for v in rng.integers(-3, 4, size=2)]
            for p in P.elements:
                rel, = span_residual([p.shift(shift)], P.elements)
                assert rel <= 1e-9


class TestShiftMatrix:
    def test_univariate_pair(self):
        from convkern.newton import PThetaBasis
        x = LaurentPoly.variable(1, 0)
        P = PThetaBasis((1.0,), (const(1, 1), x))
        G = shift_matrix(P, [3.0])
        assert np.allclose(G, [[1, 0], [3, 1]])
        assert np.linalg.det(G) == pytest.approx(1)

    def test_zero_shift_identity(self):
        space = fat_point_space(2, 1)
        P = build_p_theta(space, (2.0, 0.5))
        G = shift_matrix(P, [0.0, 0.0])
        assert np.allclose(G, np.eye(P.size), atol=1e-12)

    def test_unimodular_worked_example(self, rng):
        x, y = variables(2)
        ell = x + y
        space = DInvariantSpace((const(2, 1), ell, ell * ell))
        P = build_p_theta(space, (1.0, 2.0))
        for _ in range(10):
            yv = rng.normal(size=2)
            assert abs(np.linalg.det(shift_matrix(P, yv)) - 1) <= 1e-9

    def test_cocycle(self, rng):
        x, y = variables(2)
        ell = 2.0 * x - y
        space = DInvariantSpace((const(2, 1), ell, ell * ell))
        P = build_p_theta(space, (0.5, 1.5))
        for _ in range(5):
            a = rng.normal(size=2)
            b = rng.normal(size=2)
            lhs = shift_matrix(P, a + b)
            rhs = shift_matrix(P, b) @ shift_matrix(P, a)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestClosedFormL:
    """L in closed form against the difference-based Newton coefficients."""

    def test_matches_newton_coeffs(self, rng):
        for _ in range(60):
            dim = int(rng.integers(1, 4))
            f = random_poly(rng, dim, 6, complex_coeffs=True)
            reference = LaurentPoly(dim, newton_coeffs(f))
            assert (L_op(f) - reference).norm() <= 1e-12 * max(1.0, reference.norm())

    def test_inverse_exact_on_integer_coefficients(self, rng):
        # integer coefficients stay exact in floating point, so the Neumann
        # series must reproduce f bit for bit
        for _ in range(30):
            dim = int(rng.integers(1, 4))
            terms = {tuple(int(v) for v in rng.integers(0, 7, size=dim)):
                     float(rng.integers(-9, 10)) for _ in range(5)}
            f = LaurentPoly(dim, {e: c for e, c in terms.items() if sum(e) <= 6})
            assert L_inv(L_op(f)) == f
            assert L_op(L_inv(f)) == f

    def test_stirling_rows_match_sympy(self):
        from sympy.functions.combinatorial.numbers import stirling
        from convkern.newton import stirling2_row
        for n in range(21):
            assert stirling2_row(n) == tuple(int(stirling(n, k)) for k in range(n + 1))

    def test_touchard_univariate(self):
        # L x^3 = x^3 + 3 x^2 + x, since x^3 = (x)_3 + 3 (x)_2 + (x)_1
        x = LaurentPoly.variable(1, 0)
        assert L_op(x * x * x) == x * x * x + 3 * x * x + x

    def test_laurent_rejected(self):
        with pytest.raises(ValueError):
            L_op(LaurentPoly.monomial(1, (-1,)))
