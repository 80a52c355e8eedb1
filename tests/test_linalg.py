"""diff_tables, alone and as dual rows Q^T T, against the LaurentPoly
reference path (diff, apply_poly_diff, evaluate)."""

import cmath
import math
from itertools import product

import numpy as np
import pytest

from convkern import (DInvariantSpace, Dilation, LaurentPoly, fat_point_space,
                      modulation_points, ortho_homog_basis)
from convkern.linalg import coeff_matrix, diff_tables, monomials_upto
from convkern.mpoly import grlex_key
from convkern.spectrum import dual_apply

from conftest import dual_rows, random_poly


def _point(rng, dim, radius):
    return tuple(radius * np.exp(2j * np.pi * rng.uniform(size=dim)))


def _abs_jet(g, beta, point):
    """sum_e |g_e| |(D^beta z^e)(point)|: the scale of one derivative value."""
    return sum(abs(c) * abs(LaurentPoly.monomial(g.dim, e).diff(beta).evaluate(point))
               for e, c in g.terms.items())


class TestDiffTable:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0.3, 3.0])
    def test_laurent_monomials(self, rng, dim, radius):
        support = [tuple(int(v) for v in rng.integers(-4, 5, size=dim)) for _ in range(12)]
        orders = monomials_upto(dim, 3)
        point = _point(rng, dim, radius)
        T = diff_tables(orders, support, [point])[0]
        assert T.shape == (len(orders), len(support))
        for i, beta in enumerate(orders):
            for k, e in enumerate(support):
                ref = LaurentPoly.monomial(dim, e).diff(beta).evaluate(point)
                assert abs(T[i, k] - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0.3, 3.0])
    def test_derivatives_of_random_laurent_polys(self, rng, dim, radius):
        orders = monomials_upto(dim, 2)
        for _ in range(10):
            g = random_poly(rng, dim, 5, complex_coeffs=True, laurent=True)
            point = _point(rng, dim, radius)
            coeffs, support = coeff_matrix([g])
            values = diff_tables(orders, support, [point])[0] @ coeffs[:, 0]
            for beta, v in zip(orders, values):
                ref = g.diff(beta).evaluate(point)
                assert abs(v - ref) <= 1e-12 * _abs_jet(g, beta, point)

    def test_falling_factorial_vanishes_below_the_order(self):
        # D^3 z^2 = 0 and D^2 z^-1 = 2 z^-3
        T = diff_tables([(3,), (2,)], [(2,), (-1,)], [(0.5,)])[0]
        assert T[0, 0] == 0
        assert T[1, 1] == pytest.approx(2 * 0.5 ** -3, rel=1e-15)

    def test_zero_coordinate(self):
        # nonnegative exponents evaluate at the origin, as LaurentPoly does
        T = diff_tables([(0, 0), (1, 0)], [(0, 2), (1, 0), (2, 1)], [(0.0, 2.0)])[0]
        assert np.array_equal(T, [[4, 0, 0], [0, 1, 0]])
        # a dead term may carry a negative exponent at a zero coordinate ...
        assert diff_tables([(1,)], [(0,)], [(0.0,)])[0][0, 0] == 0
        # ... a live one may not
        with pytest.raises(ZeroDivisionError):
            diff_tables([(0,)], [(-1,)], [(0.0,)])[0]

    def test_empty_support_and_orders(self):
        assert diff_tables([(0, 0)], [], [(1.0, 2.0)])[0].shape == (1, 0)
        assert diff_tables([], [(1, 1)], [(1.0, 2.0)])[0].shape == (0, 1)

    @pytest.mark.parametrize("point", [1e-155, -1e-155, 1e-200j])
    def test_dead_powers_out_of_range(self, point):
        """z^(e - a) whose falling factorial (e)_a is 0 is not taken: at
        |z| = 1e-155 the dead z^-2 would overflow; every entry is the
        reference jet, a dead one 0."""
        orders = support = monomials_upto(1, 2)
        T = diff_tables(orders, support, [(point,)])[0]
        for i, beta in enumerate(orders):
            for k, e in enumerate(support):
                assert T[i, k] == LaurentPoly.monomial(1, e).diff(beta).evaluate((point,))

    def test_dead_powers_that_come_back_nan(self):
        """At z = -1e70 (with the rounding residue of e^(i pi) in its
        imaginary part) complex ** returns nan+nanj for z^-5 instead of
        raising; z^-5 is dead in D^5 of 1, so the entry is 0, not NaN."""
        point = 1e70 * cmath.exp(1j * cmath.pi)
        assert math.isnan((point ** -5).real)
        orders, support = monomials_upto(1, 5), [(0,), (1,)]
        T = diff_tables(orders, support, [(point,)])[0]
        for i, beta in enumerate(orders):
            for k, e in enumerate(support):
                assert T[i, k] == LaurentPoly.monomial(1, e).diff(beta).evaluate((point,))

    def test_live_power_out_of_range_raises(self):
        with pytest.raises(OverflowError):
            diff_tables([(0,), (1,)], [(0,), (3,)], [(1e155,)])


# the six benchmark dilations, one more with negative determinant and one
# more in three dimensions
STACK_DILATIONS = [((2, 0), (0, 2)), ((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((1, 1), (1, -1)),
                   ((2, 0), (0, 3)), ((2, 1), (0, 2)), ((5, 2), (-1, 4)),
                   ((0, 2), (3, 0)), ((0, 0, 2), (1, 0, 0), (0, 1, 0))]


class TestDiffTables:
    """The stacked table over the modulation points of a dilation, against
    a one-point table per point and against diff(beta).evaluate."""

    @pytest.mark.parametrize("Xi", STACK_DILATIONS, ids=str)
    def test_modulation_points(self, rng, Xi):
        Xi = Dilation(Xi)
        dim = Xi.dim
        points = modulation_points(Xi, _point(rng, dim, rng.uniform(0.5, 2.0)))
        orders = monomials_upto(dim, 2)
        g = random_poly(rng, dim, 4, complex_coeffs=True, laurent=True)
        coeffs, support = coeff_matrix([g])
        support = support + [tuple(int(v) for v in rng.integers(-4, 5, size=dim))
                             for _ in range(6)]
        T = diff_tables(orders, support, points)
        assert T.shape == (len(points), len(orders), len(support))
        values = T[:, :, :len(coeffs)] @ coeffs[:, 0]
        for T_p, point, vals in zip(T, points, values):
            # one code path: bit-identical to the one-point table
            assert np.array_equal(T_p, diff_tables(orders, support, [point])[0])
            for i, beta in enumerate(orders):
                for k, e in enumerate(support):
                    ref = LaurentPoly.monomial(dim, e).diff(beta).evaluate(point)
                    assert abs(T_p[i, k] - ref) <= 1e-12 * abs(ref)
                ref = g.diff(beta).evaluate(point)
                assert abs(vals[i] - ref) <= 1e-12 * _abs_jet(g, beta, point)

    def test_zero_coordinate_in_one_point(self):
        points = [(1.0, 2.0), (0.0, 2.0)]
        T = diff_tables([(0, 0), (1, 0)], [(0, 2), (2, 1)], points)
        assert np.array_equal(T[1], [[4, 0], [0, 0]])
        with pytest.raises(ZeroDivisionError):
            diff_tables([(0, 0)], [(-1, 0)], points)

    def test_empty_support_and_orders(self):
        points = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
        assert diff_tables([(0, 0)], [], points).shape == (3, 1, 0)
        assert diff_tables([], [(1, 1)], points).shape == (3, 0, 1)


class TestDualRows:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0.3, 3.0])
    def test_against_dual_apply(self, rng, dim, radius):
        x = [LaurentPoly.variable(dim, j) for j in range(dim)]
        ell = sum(x[1:], x[0])
        spaces = [fat_point_space(dim, 2),
                  DInvariantSpace((LaurentPoly.constant(dim, 1.0), ell, ell * ell))]
        for space in spaces:
            basis = ortho_homog_basis(space)
            for _ in range(5):
                g = random_poly(rng, dim, 5, complex_coeffs=True, laurent=True)
                point = _point(rng, dim, radius)
                coeffs, support = coeff_matrix([g])
                values = dual_rows(basis, support, point) @ coeffs[:, 0]
                for q, v in zip(basis, values):
                    ref = dual_apply(q, g, [point])[0]
                    scale = sum(abs(c) * _abs_jet(g, alpha, point)
                                for alpha, c in q.terms.items())
                    assert abs(v - ref) <= 1e-12 * scale

    def test_empty_basis(self):
        R = dual_rows([], [(0, 0), (1, 2)], (1.0, 2.0))
        assert R.shape == (0, 2)
        assert (R @ np.ones(2)).shape == (0,)


def _box_monomials(dim, degree):
    """monomials_upto as it was, kept as a reference: the box
    {0..degree}^dim filtered to |gamma| <= degree, sorted graded-lex."""
    out = [exp for exp in product(range(degree + 1), repeat=dim) if sum(exp) <= degree]
    out.sort(key=grlex_key)
    return out


class TestMonomialsUpto:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
    def test_matches_box_filter(self, dim):
        for degree in range(-1, 7):
            assert monomials_upto(dim, degree) == _box_monomials(dim, degree)

    def test_walks_no_box(self):
        """Degree 1 in 24 and 40 variables: the 25 and 41 exponents, where
        the box holds 2^24 and 2^40 tuples."""
        import time
        start = time.perf_counter()
        for dim in (24, 40):
            exps = monomials_upto(dim, 1)
            assert exps[0] == (0,) * dim and len(exps) == dim + 1
            assert exps[1:] == sorted(exps[1:]) and all(sum(e) == 1 for e in exps[1:])
        assert len(monomials_upto(12, 4)) == 1820  # C(16, 4)
        assert time.perf_counter() - start < 1.0
