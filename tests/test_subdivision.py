import cmath
import json
import os
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convkern import (Dilation, ExpPolySeq, Impulse, LaurentPoly, Window,
                      canonical_zero_representative, convolve, coset_reps,
                      is_expanding, is_symmetric_zero, modulation_points,
                      subdivide, subdivision_kernel_check, subsymbols,
                      symmetric_zero_order, z_pow_Xi)
from convkern.mpoly import grlex_key
from convkern.serialize import dilation_from_json, impulse_from_json
from convkern.subdivision import _coset_decompose, int_adjugate

from conftest import FIXTURES, const, run_cli, scan_coset_reps, variables


def dil(*rows):
    return Dilation(tuple(tuple(row) for row in rows))


QUINCUNX = dil((1, 1), (1, -1))
TWO_I = dil((2, 0), (0, 2))
DIAG_23 = dil((2, 0), (0, 3))
TWO = dil((2,))

# the six dilations of the subdivision-mix benchmark workload
BENCHMARK_DILATIONS = [TWO_I, dil((2, 0, 0), (0, 2, 0), (0, 0, 2)), QUINCUNX, DIAG_23,
                       dil((2, 1), (0, 2)), dil((5, 2), (-1, 4))]

DECOMPOSE_DILATIONS = [dil((5, 2), (-1, 4)), QUINCUNX, DIAG_23, dil((2, 1), (0, 2)),
                       dil((0, 2), (3, 0)), dil((2, 0, 0), (0, 2, 0), (0, 0, 2)),
                       dil((0, 0, 2), (1, 0, 0), (0, 1, 0)), TWO]


def fixture_dilation(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return dilation_from_json(json.load(fh))


# every dilation of this suite and of the fixture corpus, once each
SUITE_DILATIONS = list(dict.fromkeys(
    BENCHMARK_DILATIONS + DECOMPOSE_DILATIONS +
    [fixture_dilation(f"dilation_{name}.json")
     for name in ("2", "quincunx", "det_minus6", "shear25", "nonexpanding")]))


def mask_1d(*coeffs):
    """Mask with taps coeffs[k] at k."""
    return Impulse(1, {(k,): c for k, c in enumerate(coeffs) if c != 0})


def random_mask(rng, dim, max_taps=25, span=3):
    taps = {}
    for _ in range(int(rng.integers(3, max_taps + 1))):
        idx = tuple(int(v) for v in rng.integers(-span, span + 1, size=dim))
        taps[idx] = taps.get(idx, 0) + complex(rng.normal(), rng.normal())
    return Impulse(dim, taps)


def mask_from_subsymbols(Xi, subs):
    """Assemble the mask whose coset decimations have the given symbols."""
    taps = {}
    for xi, p in subs.items():
        for alpha, c in p.terms.items():
            tap = tuple(x + v for x, v in zip(xi, Xi.apply(alpha)))
            taps[tap] = taps.get(tap, 0) + c
    return Impulse(Xi.dim, taps)


def random_point(rng, dim):
    return tuple(rng.uniform(0.5, 2.0) * cmath.exp(2j * cmath.pi * rng.uniform())
                 for _ in range(dim))


def laplace_det(M):
    """Reference: det by Laplace expansion along the first row."""
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * laplace_det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)) if M[0][j])


def laplace_adjugate(M):
    """Reference: adj(M)[j][i] = (-1)^(i+j) times the (i, j) minor."""
    n = len(M)
    if n == 1:
        return [[1]]
    return [[(-1) ** (i + j) * laplace_det([row[:j] + row[j + 1:]
                                            for r, row in enumerate(M) if r != i])
             for i in range(n)] for j in range(n)]


def matvec(M, v):
    return tuple(sum(r * x for r, x in zip(row, v)) for row in M)


def scan_dual_residues(Xi):
    """Reference: adj(Xi^T) xi' over the scanned representatives xi' of
    Xi^T [0,1)^s."""
    _, adjT = int_adjugate(Xi.transpose())
    return {matvec(adjT, xi_p) for xi_p in scan_coset_reps(Xi, transpose=True)}


def square_matrices(max_dim, lo, hi):
    return st.integers(1, max_dim).flatmap(lambda n: st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n))


class TestExpanding:
    def test_two_i(self):
        assert is_expanding(TWO_I)

    def test_quincunx(self):
        # eigenvalues are +/- sqrt(2)
        assert is_expanding(QUINCUNX)

    def test_unit_eigenvalue(self):
        assert not is_expanding(dil((1, 0), (0, 2)))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            dil((1, 1), (1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dil()


class TestExactElimination:
    """int_adjugate (one fraction-free Gauss-Jordan elimination of [M | I])
    gives the determinant and adjugate of the Laplace expansions exactly, and
    refuses every singular matrix."""

    @settings(max_examples=300, deadline=None)
    @given(square_matrices(5, -6, 6))
    def test_matches_laplace(self, M):
        det = laplace_det(M)
        if not det:
            with pytest.raises(ValueError, match="singular"):
                int_adjugate(M)
            return
        d, adj = int_adjugate(M)
        assert d == det
        assert adj == laplace_adjugate(M)
        n = len(M)
        assert [[sum(M[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[det * (i == j) for j in range(n)] for i in range(n)]

    def test_singular_adjugate_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            int_adjugate([[1, 2], [2, 4]])

    def test_large_entries(self):
        M = [[10 ** 20, 1], [3, 10 ** 20 + 7]]
        assert int_adjugate(M) == (laplace_det(M), laplace_adjugate(M))


class TestCosetReps:
    def test_two_i(self):
        reps = coset_reps(TWO_I)
        assert set(reps) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert reps == sorted(reps, key=grlex_key)

    def test_quincunx(self):
        assert coset_reps(QUINCUNX) == [(0, 0), (1, 0)]

    def test_univariate(self):
        assert coset_reps(TWO) == [(0,), (1,)]

    def test_diag_2_3(self):
        reps = coset_reps(DIAG_23)
        assert len(reps) == 6
        assert set(reps) == {(i, j) for i in range(2) for j in range(3)}

    def test_distinct_mod_lattice(self):
        for Xi in (TWO_I, QUINCUNX, DIAG_23, dil((2, 1), (0, 2))):
            reps = coset_reps(Xi)
            d = Xi.det
            _, adj = int_adjugate(Xi.Xi)
            for i, a in enumerate(reps):
                for b in reps[i + 1:]:
                    diff = [x - y for x, y in zip(a, b)]
                    v = [sum(row[j] * diff[j] for j in range(Xi.dim))
                         for row in adj]
                    assert any(val % d != 0 for val in v)

    def test_transpose_variant(self):
        # the cosets of Xi^T, carried as their dual residues, zero first
        residues = QUINCUNX.dual_residues
        assert len(residues) == 2 and residues[0] == (0, 0)
        assert set(residues) == scan_dual_residues(QUINCUNX)

    @settings(max_examples=300, deadline=None)
    @given(square_matrices(3, -4, 4))
    def test_closure_matches_scan(self, rows):
        try:
            Xi = Dilation(rows)
        except ValueError:
            assume(False)  # singular
        assert coset_reps(Xi) == scan_coset_reps(Xi)
        # one dual residue per representative of Xi^T, zero first
        residues = Xi.dual_residues
        assert residues[0] == (0,) * Xi.dim and len(set(residues)) == len(residues)
        assert set(residues) == scan_dual_residues(Xi)

    def test_shear_needs_no_box(self):
        # |det| 4, in a bounding box of 3 x 1000003 points
        Xi = dil((2, 1000000), (0, 2))
        assert coset_reps(Xi) == [(0, 0), (1, 0), (500000, 1), (500001, 1)]
        # adj(Xi^T) times the representatives (0, 0), (0, 1), (1, 500000)
        # and (1, 500001) of Xi^T
        assert set(Xi.dual_residues) == {(0, 0), (0, 2), (2, 0), (2, 2)}


class TestSubsymbols:
    def test_even_odd_split(self):
        z = LaurentPoly.variable(1, 0)
        a = mask_1d(1, 0, -1)  # symbol 1 - z^2
        subs = subsymbols(a, TWO)
        assert subs[(0,)] == const(1, 1) - z
        assert subs[(1,)].is_zero

    def test_hat_mask(self):
        z = LaurentPoly.variable(1, 0)
        a = mask_1d(0.5, 1.0, 0.5)  # symbol (1+z)^2 / 2
        subs = subsymbols(a, TWO)
        assert (subs[(0,)] - (const(1, 0.5) + 0.5 * z)).norm() < 1e-15
        assert subs[(1,)] == const(1, 1)

    def test_delta_quincunx(self):
        a = Impulse(2, {(0, 0): 1.0})
        subs = subsymbols(a, QUINCUNX)
        assert subs[(0, 0)] == const(2, 1)
        assert subs[(1, 0)].is_zero

    def test_reconstruction_identity(self, rng):
        # a*(z) = sum_xi z^xi a_xi*(z^Xi)
        for Xi in (TWO, TWO_I, QUINCUNX, DIAG_23):
            a = random_mask(rng, Xi.dim)
            subs = subsymbols(a, Xi)
            for _ in range(50):
                z = random_point(rng, Xi.dim)
                zXi = z_pow_Xi(z, Xi)
                lhs = a.evaluate(z)
                rhs = sum(np.prod([zv ** e for zv, e in zip(z, xi)]) *
                          p.evaluate(zXi) for xi, p in subs.items())
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_modulation_identity(self, rng):
        # z^xi a_xi*(z^Xi) = (1/m) sum_xi' e^{+2 pi i xi . Xi^-T xi'}
        #                              a*(e^{-2 pi i Xi^-T xi'} z)
        # (the conjugate phase is required once the modulation group has
        # elements of order > 2, e.g. diag(2,3))
        for Xi in (TWO, TWO_I, QUINCUNX, DIAG_23):
            a = random_mask(rng, Xi.dim)
            subs = subsymbols(a, Xi)
            m = Xi.coset_count
            d, adjT = int_adjugate(Xi.transpose())
            primes = scan_coset_reps(Xi, transpose=True)
            for _ in range(20):
                z = random_point(rng, Xi.dim)
                zXi = z_pow_Xi(z, Xi)
                for xi, p in subs.items():
                    zxi = np.prod([zv ** e for zv, e in zip(z, xi)])
                    lhs = zxi * p.evaluate(zXi)
                    rhs = 0j
                    for xi_p in primes:
                        w = [sum(row[j] * xi_p[j] for j in range(Xi.dim))
                             for row in adjT]
                        phase = cmath.exp(2j * cmath.pi *
                                          sum(x * wi for x, wi in zip(xi, w)) / d)
                        modz = tuple(cmath.exp(-2j * cmath.pi * wi / d) * zv
                                     for wi, zv in zip(w, z))
                        rhs += phase * a.evaluate(modz)
                    rhs /= m
                    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


class TestZPowXi:
    def test_two_i(self):
        assert z_pow_Xi((2.0, 3.0), TWO_I) == (4.0, 9.0)

    def test_quincunx_columns(self):
        z1, z2 = 2.0 + 0j, 0.5 + 0j
        assert z_pow_Xi((z1, z2), QUINCUNX) == (z1 * z2, z1 / z2)

    def test_ones(self):
        assert z_pow_Xi((1.0, 1.0), QUINCUNX) == (1.0, 1.0)

    def test_zero_component_rejected(self):
        with pytest.raises(ValueError):
            z_pow_Xi((0.0, 1.0), TWO_I)

    def test_unit_root_identity(self):
        # z^Xi = 1 at every modulation vector e^{-2 pi i Xi^-T xi'}
        for Xi in (TWO, TWO_I, QUINCUNX, DIAG_23, dil((2, 1), (0, 2))):
            ones = tuple(1.0 for _ in range(Xi.dim))
            for point in modulation_points(Xi, ones):
                res = z_pow_Xi(point, Xi)
                assert max(abs(v - 1) for v in res) <= 1e-12


class TestModulationPoints:
    def test_univariate(self):
        pts = modulation_points(TWO, (1.0,))
        assert pts[0] == (1.0,)
        assert abs(pts[1][0] + 1.0) < 1e-15

    def test_two_i_sign_patterns(self):
        pts = modulation_points(TWO_I, (1.0, 1.0))
        got = {tuple(round(v.real) for v in p) for p in pts}
        assert got == set(product((1, -1), repeat=2))

    def test_quincunx(self):
        pts = modulation_points(QUINCUNX, (1.0, 1.0))
        assert len(pts) == 2
        assert max(abs(v - 1) for v in pts[0]) < 1e-15
        assert max(abs(v + 1) for v in pts[1]) < 1e-12

    @pytest.mark.parametrize("Xi", SUITE_DILATIONS, ids=lambda X: str(X.Xi))
    def test_matches_scan_reference(self, rng, Xi):
        """The points e^{-2 pi i Xi^-T xi'} zeta over the scanned
        representatives xi' of Xi^T, with Xi^-T xi' = adj(Xi^T) xi' / det;
        the first is zeta."""
        zeta = random_point(rng, Xi.dim)
        _, adjT = int_adjugate(Xi.transpose())
        expected = {tuple(cmath.exp(-2j * cmath.pi * wi / Xi.det) * zv
                          for wi, zv in zip(matvec(adjT, xi_p), zeta))
                    for xi_p in scan_coset_reps(Xi, transpose=True)}
        points = modulation_points(Xi, zeta)
        assert points[0] == zeta
        assert len(points) == len(expected) == Xi.coset_count
        assert set(points) == expected

    def test_scales_by_zeta(self, rng):
        zeta = random_point(rng, 2)
        base = modulation_points(QUINCUNX, (1.0, 1.0))
        shifted = modulation_points(QUINCUNX, zeta)
        for b, s in zip(base, shifted):
            for bv, sv, zv in zip(b, s, zeta):
                assert abs(sv - bv * zv) <= 1e-12


class TestIsSymmetricZero:
    def test_difference_squared_symbol(self):
        a = mask_1d(1, 0, -1)  # 1 - z^2 vanishes at +/-1
        [(ok, _)] = is_symmetric_zero(a, TWO, (1.0,), [0])
        assert ok

    def test_hat_mask_fails(self):
        a = mask_1d(0.5, 1.0, 0.5)  # (1+z)^2/2, a*(1) = 2
        [(ok, violation)] = is_symmetric_zero(a, TWO, (-1.0,), [0])
        assert not ok and violation > 1e-3

    def test_order_one(self):
        z = LaurentPoly.variable(1, 0)
        f = (const(1, 1) - z * z)
        a = f * f  # (1 - z^2)^2
        [(ok, _)] = is_symmetric_zero(a, TWO, (1.0,), [1])
        assert ok
        [(ok2, _)] = is_symmetric_zero(a, TWO, (1.0,), [2])
        assert not ok2

    def test_order_detection(self):
        z = LaurentPoly.variable(1, 0)
        f = const(1, 1) - z * z
        a = f * f * f
        assert symmetric_zero_order(a, TWO, (1.0,)) == 2
        b = mask_1d(0.5, 1.0, 0.5)
        assert symmetric_zero_order(b, TWO, (1.0,)) == -1

    def test_spurious_origin_factor_ignored(self):
        # z^3 (1 - z^2) carries the same zero data as 1 - z^2
        a = Impulse(1, {(3,): 1.0, (5,): -1.0})
        [(ok, _)] = is_symmetric_zero(a, TWO, (1.0,), [0])
        assert ok

    def test_tiny_zeta_takes_no_dead_power(self):
        """At zeta = 1e-155 the jets of 1 - z^2 at +-zeta are 1, about 0 and
        -2; the dead powers zeta^-1 and zeta^-2 are not taken."""
        a = mask_1d(1, 0, -1)
        assert is_symmetric_zero(a, TWO, (1e-155,), [0, 1, 2]) == \
            [(False, 0.5), (False, 0.5), (False, 1.0)]

    def test_huge_zeta_takes_no_dead_power(self):
        """At zeta = 1e70 the order-5 jets of 1 - z read no NaN from the dead
        power (-zeta)^-5, which complex ** returns as nan+nanj."""
        a = Impulse(1, {(0,): 1, (1,): -1})
        assert is_symmetric_zero(a, TWO, (1e70,), [0, 1, 5]) == [(False, 0.5)] * 3

    def test_overflowing_mask_warns_nothing(self):
        with open(os.path.join(FIXTURES, "mask_overflow.json"), encoding="utf-8") as fh:
            a = impulse_from_json(json.load(fh))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(ok, worst)] = is_symmetric_zero(a, TWO, (1.0,), [0])
        assert not ok and np.isnan(worst)


class TestSubdivide:
    def test_hat_reproduces_constants(self):
        a = mask_1d(0.5, 1.0, 0.5)
        seq = ExpPolySeq.single((1.0,), const(1, 1))
        vals = subdivide(a, TWO, seq, Window((-4,), (4,)))
        assert all(abs(v - 1) < 1e-14 for v in vals.values())

    def test_difference_kills_constants(self):
        a = mask_1d(1, 0, -1)
        seq = ExpPolySeq.single((1.0,), const(1, 1))
        vals = subdivide(a, TWO, seq, Window((-4,), (4,)))
        assert all(abs(v) < 1e-14 for v in vals.values())

    def test_delta_upsamples(self):
        a = Impulse(2, {(0, 0): 1.0})
        samples = {(i, j): complex(10 * i + j)
                   for i in range(-2, 3) for j in range(-2, 3)}
        vals = subdivide(a, TWO_I, samples, Window((-4, -4), (4, 4)))
        for alpha, v in vals.items():
            if all(x % 2 == 0 for x in alpha):
                assert v == samples[(alpha[0] // 2, alpha[1] // 2)]
            else:
                assert v == 0

    def test_coset_reduction(self, rng):
        # (S_a c)(xi + Xi alpha) = (a_xi * c)(alpha)
        for Xi in (TWO, QUINCUNX, DIAG_23):
            a = random_mask(rng, Xi.dim, max_taps=12, span=2)
            subs = subsymbols(a, Xi)
            theta = random_point(rng, Xi.dim)
            p = const(Xi.dim, 1.0)
            for j in range(Xi.dim):
                p = p + (j + 1.0) * LaurentPoly.variable(Xi.dim, j)
            seq = ExpPolySeq.single(theta, p)
            w = Window((-3,) * Xi.dim, (3,) * Xi.dim)
            full = subdivide(a, Xi, seq, w)
            inner = Window((-1,) * Xi.dim, (1,) * Xi.dim)
            for xi, sub in subs.items():
                if sub.is_zero:
                    continue
                [decimated] = convolve(sub, seq.terms, inner)
                for alpha, v in zip(inner.points(), decimated.tolist()):
                    point = tuple(x + y for x, y in zip(xi, Xi.apply(alpha)))
                    if point in full:
                        assert abs(full[point] - v) <= 1e-10 * (1 + abs(v))

    def test_coverage_failure(self):
        a = mask_1d(1.0, 1.0)
        with pytest.raises(ValueError):
            subdivide(a, TWO, {(0,): 1.0}, Window((0,), (4,)))


class TestCanonicalRepresentative:
    def test_univariate(self):
        (zeta,) = canonical_zero_representative(TWO, (0.25,))
        assert abs(zeta - 2.0) < 1e-12  # zeta^2 = 4 = theta^-1

    def test_defining_equation(self, rng):
        for Xi in (TWO, TWO_I, QUINCUNX, DIAG_23):
            theta = random_point(rng, Xi.dim)
            zeta = canonical_zero_representative(Xi, theta)
            back = z_pow_Xi(zeta, Xi)
            for b, t in zip(back, theta):
                assert abs(b - 1.0 / t) <= 1e-10

    def test_zero_theta_rejected(self):
        with pytest.raises(ValueError):
            canonical_zero_representative(TWO, (0.0,))


class TestKernelCheck:
    def test_difference_constants(self):
        a = mask_1d(1, 0, -1)  # 1 - z^2
        report = subdivision_kernel_check(a, TWO, [((1.0,), 0)])
        assert report["pass"]

    def test_squared_difference_order_one(self):
        z = LaurentPoly.variable(1, 0)
        f = const(1, 1) - z * z
        a = f * f
        report = subdivision_kernel_check(a, TWO, [((1.0,), 1)])
        assert report["pass"]

    def test_hat_rejected(self):
        a = mask_1d(0.5, 1.0, 0.5)
        report = subdivision_kernel_check(a, TWO, [((1.0,), 0)])
        assert not report["pass"]
        assert not report["candidates"][0]["pass"]

    def test_scaled_exponential(self):
        # 1 - (z/2)^2 vanishes at z = +/-2, i.e. theta = 1/4
        a = Impulse(1, {(0,): 1.0, (2,): -0.25})
        report = subdivision_kernel_check(a, TWO, [((0.25,), 0), ((1.0,), 0)])
        cands = {c["theta"]: c["pass"] for c in report["candidates"]}
        assert cands[(0.25,)] and not cands[(1.0,)]

    def test_quincunx_tensor_difference(self):
        z1, z2 = variables(2)
        a = (const(2, 1) - z1 * z1) * (const(2, 1) - z2 * z2)
        report = subdivision_kernel_check(a, QUINCUNX, [((1.0, 1.0), 0)])
        assert report["pass"]

    def test_diag_2_3(self):
        z1, z2 = variables(2)
        # first factor kills the z1 modulations of Xi=diag(2,3); the z2
        # factors vanish at all cube roots of unity
        a = (const(2, 1) - z1 * z1) * (const(2, 1) + z2 + z2 * z2) * \
            (const(2, 1) - z2 * z2 * z2)
        report = subdivision_kernel_check(a, DIAG_23, [((1.0, 1.0), 0)])
        assert report["pass"]

    @pytest.mark.parametrize("theta", [(1.0,), (1.0, 1.0, 1.0)])
    def test_theta_dimension_mismatch_rejected(self, theta):
        a = Impulse(2, {(0, 0): 1.0, (1, 1): -1.0})
        with pytest.raises(ValueError, match="candidate theta has wrong dimension"):
            subdivision_kernel_check(a, QUINCUNX, [((1.0, 1.0), 0), (theta, 1)])

    def test_nonexpanding_rejected(self):
        a = Impulse(2, {(0, 0): 1.0})
        with pytest.raises(ValueError, match="not expanding"):
            subdivision_kernel_check(a, dil((1, 0), (0, 2)), [((1.0, 1.0), 0)])


class TestCommonSymmetricZeroAgreement:
    """Symmetric zeros of the symbol coincide with common zeros of the
    subsymbols, checked both ways on synthesized masks."""

    def _corpus(self, rng):
        cases = []
        for i in range(50):
            Xi = (TWO, TWO_I, QUINCUNX)[i % 3]
            dim = Xi.dim
            zeta = random_point(rng, dim)
            target = z_pow_Xi(zeta, Xi)
            subs = {}
            vanish_all = i % 2 == 0
            reps = coset_reps(Xi)
            for j, xi in enumerate(reps):
                p = const(dim, 0)
                for exp in product(range(3), repeat=dim):
                    if sum(exp) > 2:
                        continue
                    p = p + complex(rng.normal(), rng.normal()) * \
                        LaurentPoly.monomial(dim, exp)
                make_zero = vanish_all or j != 0
                if make_zero:
                    p = p - const(dim, p.evaluate(target))
                else:
                    # narrowly miss: leave a small but resolvable value
                    p = p - const(dim, p.evaluate(target)) + const(dim, 1e-3)
                subs[xi] = p
            cases.append((Xi, zeta, subs, vanish_all))
        return cases

    def test_agreement(self, rng):
        disagreements = 0
        for Xi, zeta, subs, expect in self._corpus(rng):
            a = mask_from_subsymbols(Xi, subs)
            [(sym_ok, _)] = is_symmetric_zero(a, Xi, zeta, [0])
            target = z_pow_Xi(zeta, Xi)
            scale = max(1.0, a.l1())
            sub_ok = all(abs(p.evaluate(target)) <= 1e-9 * scale
                         for p in subs.values())
            if sym_ok != sub_ok or sym_ok != expect:
                disagreements += 1
        assert disagreements == 0


class TestOrderEquivalence:
    """Order-k symmetric zeros versus the per-coset convolution oracle for
    polynomial-times-exponential spaces, k <= 2, dimensions 1 and 2."""

    def _check(self, a, Xi, theta, k, expect):
        report = subdivision_kernel_check(a, Xi, [(theta, k)])
        assert report["candidates"][0]["pass"] == expect

    def test_univariate_orders(self):
        z = LaurentPoly.variable(1, 0)
        f = const(1, 1) - z * z
        for k in range(3):
            a = const(1, 1)
            for _ in range(k + 1):
                a = a * f
            self._check(a, TWO, (1.0,), k, True)
            self._check(a, TWO, (1.0,), k + 1, False)

    def test_bivariate_orders(self):
        # (1-z1^2)^(j+1) (1-z2^2)^(j+1): each modulation point is a zero of
        # total order 2(j+1), i.e. an order 2j+1 symmetric zero exactly
        z1, z2 = variables(2)
        f = (const(2, 1) - z1 * z1) * (const(2, 1) - z2 * z2)
        for j in range(2):
            a = const(2, 1)
            for _ in range(j + 1):
                a = a * f
            self._check(a, TWO_I, (1.0, 1.0), 2 * j + 1, True)
            self._check(a, TWO_I, (1.0, 1.0), 2 * j + 2, False)

    def test_bivariate_anisotropic_order(self):
        # (1-z1^2)^2 (1-z2^2): mixed order; symmetric zero of order exactly 2
        z1, z2 = variables(2)
        f = (const(2, 1) - z1 * z1)
        g = (const(2, 1) - z2 * z2)
        a = f * f * g
        self._check(a, TWO_I, (1.0, 1.0), 2, True)
        self._check(a, TWO_I, (1.0, 1.0), 3, False)

    def test_oracle_matches_direct_application(self):
        # order-1 zero means S_a annihilates linears times e_theta;
        # verify by applying the operator
        z = LaurentPoly.variable(1, 0)
        f = const(1, 1) - z * z
        a = f * f
        x = LaurentPoly.variable(1, 0)
        for p in (const(1, 1), x):
            seq = ExpPolySeq.single((1.0,), p)
            vals = subdivide(a, TWO, seq, Window((-6,), (6,)))
            assert all(abs(v) <= 1e-12 for v in vals.values())
        probe = ExpPolySeq.single((1.0,), x * x)
        vals = subdivide(a, TWO, probe, Window((-6,), (6,)))
        assert max(abs(v) for v in vals.values()) > 1e-3


def _scalar_symmetric_zero(a, Xi, zeta, order, tol=1e-9):
    """Reference: one g.diff(beta).evaluate(point) per (point, beta)."""
    from convkern.linalg import monomials_upto
    from convkern.mpoly import laurent_normalize
    g, _ = laurent_normalize(a)
    scale = max(1.0, a.l1())
    worst = 0.0
    for point in modulation_points(Xi, zeta):
        point_scale = scale * max(1.0, max(abs(v) for v in point) ** max(g.degree(), 0))
        for beta in monomials_upto(a.dim, order):
            val = abs(g.diff(beta).evaluate(point))
            worst = max(worst, val / point_scale)
    return worst <= tol, worst


def planted_mask(rng, Xi, theta, k):
    """b(z) f(z^Xi) with f(w) = sum_j c_j (w_j - 1/theta_j)^(k+1): theta is
    a symmetric zero of order exactly k."""
    s = Xi.dim
    f = LaurentPoly.zero(s)
    for j in range(s):
        wj = LaurentPoly.variable(s, j) - const(s, 1 / theta[j])
        term = const(s, complex(rng.normal(), rng.normal()))
        for _ in range(k + 1):
            term = term * wj
        f = f + term
    cols = Xi.transpose()
    lifted = LaurentPoly(s, {tuple(sum(cols[j][v] * exp[j] for j in range(s))
                                   for v in range(s)): c for exp, c in f.terms.items()})
    b = LaurentPoly(s, {e: complex(rng.normal(), rng.normal())
                        for e in product((0, 1), repeat=s)})
    return lifted * b


class TestSymmetricZeroJets:
    """is_symmetric_zero and the subsymbol test use linalg.diff_tables; the
    scalar diff/evaluate loop is the reference."""

    DILATIONS = [dil((5, 2), (-1, 4)), QUINCUNX, DIAG_23, dil((2, 1), (0, 2)),
                 dil((2, 0, 0), (0, 2, 0), (0, 0, 2)), TWO]

    @pytest.mark.parametrize("Xi", DILATIONS, ids=lambda X: str(X.Xi))
    def test_matches_scalar_loop(self, rng, Xi):
        for k in (0, 1, 2):
            theta = random_point(rng, Xi.dim)
            a = planted_mask(rng, Xi, theta, k)
            zeta = canonical_zero_representative(Xi, theta)
            for order in (k, k + 1):
                [(ok, worst)] = is_symmetric_zero(a, Xi, zeta, [order])
                ref_ok, ref_worst = _scalar_symmetric_zero(a, Xi, zeta, order)
                assert ok == ref_ok == (order == k)
                assert worst == pytest.approx(ref_worst, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("Xi", DILATIONS, ids=lambda X: str(X.Xi))
    def test_subsymbol_violation_matches_scalar_loop(self, rng, Xi):
        from convkern.linalg import monomials_upto
        from convkern.mpoly import laurent_normalize
        k = 1
        theta = random_point(rng, Xi.dim)
        a = planted_mask(rng, Xi, theta, k)
        report = subdivision_kernel_check(a, Xi, [(theta, k), (theta, k + 1)])
        assert [c["pass"] for c in report["candidates"]] == [True, False]
        subs = [laurent_normalize(p)[0] for p in subsymbols(a, Xi).values()
                if not p.is_zero]
        point = tuple(1 / t for t in theta)
        for cand in report["candidates"]:
            scale = max(1.0, a.l1()) * max(1.0, max(abs(v) for v in point) **
                                           max(p.degree() for p in subs))
            ref = max(abs(p.diff(beta).evaluate(point)) / scale for p in subs
                      for beta in monomials_upto(Xi.dim, cand["order"]))
            assert cand["subsymbol_violation"] == pytest.approx(ref, rel=1e-12, abs=1e-15)


class TestSharedCandidates:
    """subdivision_kernel_check shares the subsymbol and oracle tests between
    candidates with the same theta; each candidate reads as if run alone."""

    @pytest.mark.parametrize("Xi", [dil((5, 2), (-1, 4)), QUINCUNX, TWO],
                             ids=lambda X: str(X.Xi))
    def test_matches_each_candidate_alone(self, rng, Xi):
        theta = random_point(rng, Xi.dim)
        other = random_point(rng, Xi.dim)
        a = planted_mask(rng, Xi, theta, 1)
        # repeated, unsorted and duplicate candidates over two thetas
        candidates = [(theta, 2), (other, 0), (theta, 0), (theta, 1), (theta, 0),
                      (other, 1), (theta, 2)]
        report = subdivision_kernel_check(a, Xi, candidates)
        assert [c["pass"] for c in report["candidates"]] == \
            [False, False, True, True, True, False, False]
        for cand, rec in zip(candidates, report["candidates"]):
            alone = subdivision_kernel_check(a, Xi, [cand])["candidates"][0]
            assert rec["pass"] == alone["pass"] and rec["order"] == alone["order"]
            assert rec["oracle_residual"] == alone["oracle_residual"]
            assert rec["symmetric_zero_violation"] == alone["symmetric_zero_violation"]
            assert rec["subsymbol_violation"] == alone["subsymbol_violation"]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BENCHMARK_DILATIONS), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
    def test_every_value_equals_the_candidate_alone(self, Xi, k, seed):
        """Orders 0..k+1 of one planted theta and one random theta, batched:
        each of the three values equals that of the candidate run alone."""
        rng = np.random.default_rng(seed)
        theta, other = random_point(rng, Xi.dim), random_point(rng, Xi.dim)
        a = planted_mask(rng, Xi, theta, k)
        candidates = [(theta, j) for j in range(k + 2)] + [(other, 0)]
        report = subdivision_kernel_check(a, Xi, candidates)
        for cand, rec in zip(candidates, report["candidates"]):
            alone = subdivision_kernel_check(a, Xi, [cand])["candidates"][0]
            assert rec == alone

    @pytest.fixture
    def residual_calls(self, monkeypatch):
        from convkern import subdivision
        seen = []
        real = subdivision.kernel_residual

        def counting(H, terms, *args, **kwargs):
            seen.append(terms)
            return real(H, terms, *args, **kwargs)

        monkeypatch.setattr(subdivision, "kernel_residual", counting)
        return seen

    def test_one_oracle_residual_per_check(self, rng, residual_calls):
        Xi = dil((2, 1), (0, 2))
        theta, other = random_point(rng, 2), random_point(rng, 2)
        a = planted_mask(rng, Xi, theta, 2)
        subdivision_kernel_check(a, Xi, [(theta, 1), (other, 0), (theta, 3), (theta, 0)])
        # one call over the monomials of Pi_{K_theta} for every theta,
        # theta-major: dim Pi_3 and dim Pi_0 in two variables
        [terms] = residual_calls
        assert len(terms) == 10 + 1
        assert [t for t, _ in terms] == \
            [tuple(complex(t) for t in theta)] * 10 + [tuple(complex(t) for t in other)]
        assert [p.degree() for _, p in terms] == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 0]

    def test_cli_one_convolve_per_window(self, monkeypatch):
        """subdivide mask_quincunx_k3 over candidates of orders 0..3: one
        convolve per distinct window {0..d}^2, each for every nonzero
        subsymbol at once."""
        from convkern import filters
        calls = []
        real = filters.convolve

        def counting(bank, c, w):
            calls.append((len(bank.vectors), w))
            return real(bank, c, w)

        monkeypatch.setattr(filters, "convolve", counting)
        code, out = run_cli("subdivide", "mask_quincunx_k3.json", "dilation_quincunx.json",
                            "candidates_2d_k0to3.json")
        assert code == 1
        subs = [rec for rec in json.loads(out)["subsymbols"] if rec["symbol"]]
        assert len(subs) == 2
        assert sorted(calls, key=repr) == [(2, Window((0, 0), (d, d))) for d in range(4)]

    def test_nan_oracle_residual_fails(self, rng, monkeypatch):
        from convkern import subdivision
        monkeypatch.setattr(subdivision, "kernel_residual",
                            lambda H, terms, *args, **kwargs: [float("nan")] * len(terms))
        theta = (1.0,)
        z = LaurentPoly.variable(1, 0)
        a = const(1, 1) - z * z
        # the other two tests pass, so a NaN oracle is a disagreement, which
        # fails the candidate with all three values recorded ...
        rec = subdivision_kernel_check(a, TWO, [(theta, 0)])["candidates"][0]
        assert not rec["pass"] and np.isnan(rec["oracle_residual"])
        assert rec["symmetric_zero_violation"] <= 1e-9 and rec["subsymbol_violation"] <= 1e-9
        # ... and where they fail, it fails with them
        rec = subdivision_kernel_check(a, TWO, [(theta, 1)])["candidates"][0]
        assert not rec["pass"] and np.isnan(rec["oracle_residual"])


def _per_candidate_check(a, Xi, candidates, tol=1e-9):
    """Reference: subdivision_kernel_check as it was before the per-theta
    tables, with one is_symmetric_zero call and one subsymbol jet table per
    (candidate, subsymbol), at the candidate's order."""
    from convkern.filters import ORACLE_TOL, kernel_residual
    from convkern.linalg import coeff_matrix, diff_tables, monomials_upto
    with np.errstate(over="ignore", invalid="ignore"):
        subs = subsymbols(a, Xi)
        sub_filters = [p for p in subs.values() if not p.is_zero]
        sub_degree = max((h.normalized_symbol.degree() for h in sub_filters), default=0)
        sub_coeffs = [coeff_matrix([h.normalized_symbol]) for h in sub_filters]
        l1 = max(1.0, a.l1())
        candidates = [(tuple(complex(t) for t in theta), k) for theta, k in candidates]
        top = {}
        for theta, k in candidates:
            top[theta] = max(k, top.get(theta, k))
        orders = {theta: monomials_upto(a.dim, K) for theta, K in top.items()}
        oracle = {theta: np.zeros(len(exps)) for theta, exps in orders.items()}
        if sub_filters:
            residuals = iter(kernel_residual(sub_filters, [
                (theta, LaurentPoly.monomial(a.dim, exp))
                for theta, exps in orders.items() for exp in exps]))
            for theta, exps in orders.items():
                oracle[theta] = np.array([next(residuals) / l1 for _ in exps])
        results, overall = [], True
        for theta, k in candidates:
            zeta = canonical_zero_representative(Xi, theta)
            [(_, sym_violation)] = is_symmetric_zero(a, Xi, zeta, [k], tol=tol)
            exps = monomials_upto(a.dim, k)
            n = len(exps)
            point = tuple(1.0 / t for t in theta)
            scale = l1 * max(1.0, max(abs(v) for v in point) ** sub_degree)
            sub_vals = np.zeros(n)
            for coeffs, support in sub_coeffs:
                vals = np.abs(diff_tables(exps, support, [point])[0] @ coeffs[:, 0])
                sub_vals = np.maximum(sub_vals, vals / scale)
            sub_worst = float(np.max(sub_vals, initial=0.0))
            oracle_worst = float(np.max(oracle[theta][:n], initial=0.0))
            tests = [(sym_violation, tol), (sub_worst, tol),
                     (oracle_worst, max(tol, ORACLE_TOL))]
            failed = [test for test in tests if not test[0] <= test[1]]
            value, bound = failed[0] if failed else max(
                tests, key=lambda test: test[0] / test[1] if test[1] else 0.0)
            overall = overall and not failed
            results.append({"theta": theta, "order": k, "pass": not failed,
                            "symmetric_zero_violation": sym_violation,
                            "subsymbol_violation": sub_worst,
                            "oracle_residual": oracle_worst,
                            "residual": value, "tolerance": bound})
        return {"pass": overall, "candidates": results, "subsymbols": subs}


class TestPerThetaTables:
    """subdivision_kernel_check decides each distinct theta once: one
    is_symmetric_zero call (one symmetric-zero jet table at the top order
    asked for theta) and one subsymbol jet table over the union of the
    subsymbol supports.  Every record equals the per-candidate reference."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(BENCHMARK_DILATIONS), st.integers(0, 3),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=7),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_per_candidate_reference(self, Xi, k, picks, seed):
        rng = np.random.default_rng(seed)
        thetas = [random_point(rng, Xi.dim) for _ in range(3)]
        a = planted_mask(rng, Xi, thetas[0], k)
        # repeated, unsorted and duplicate (theta, order) pairs
        candidates = [(thetas[i], order) for i, order in picks]
        for tol in (1e-9, 1e-6):
            assert subdivision_kernel_check(a, Xi, candidates, tol=tol) == \
                _per_candidate_check(a, Xi, candidates, tol=tol)

    @pytest.mark.parametrize("Xi", BENCHMARK_DILATIONS, ids=lambda X: str(X.Xi))
    def test_order_sequence_matches_each_order(self, rng, Xi):
        theta = random_point(rng, Xi.dim)
        a = planted_mask(rng, Xi, theta, 1)
        zeta = canonical_zero_representative(Xi, theta)
        orders = [2, 0, 3, 0, 1]
        assert is_symmetric_zero(a, Xi, zeta, orders) == \
            [is_symmetric_zero(a, Xi, zeta, [k])[0] for k in orders]
        assert is_symmetric_zero(a, Xi, zeta, []) == []
        with pytest.raises(ValueError):
            is_symmetric_zero(a, Xi, zeta, [1, -1])

    @pytest.fixture
    def calls(self, monkeypatch):
        """Names of the is_symmetric_zero, modulation_points and diff_tables
        calls; a jet table is named with its number of points, one for the
        subsymbols at theta^-1 and |det Xi| for a symmetric zero."""
        from convkern import subdivision
        seen = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                seen.append((name, len(args[2])) if name == "diff_tables" else name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("is_symmetric_zero", "modulation_points", "diff_tables"):
            monkeypatch.setattr(subdivision, name, counting(name, getattr(subdivision, name)))
        return seen

    def test_kernel_check_once_per_theta(self, calls, rng):
        Xi = dil((5, 2), (-1, 4))
        theta, other = random_point(rng, 2), random_point(rng, 2)
        a = planted_mask(rng, Xi, theta, 2)
        candidates = [(theta, 1), (other, 0), (theta, 3), (theta, 0), (other, 2), (theta, 1)]
        report = subdivision_kernel_check(a, Xi, candidates)
        assert [c["pass"] for c in report["candidates"]] == \
            [True, False, False, True, False, True]
        for name in ("is_symmetric_zero", "modulation_points",
                     ("diff_tables", 1), ("diff_tables", Xi.det)):
            assert calls.count(name) == 2, name
        assert len(calls) == 8

    def test_symmetric_zero_order_builds_one_table(self, calls, rng):
        Xi = dil((2, 1), (0, 2))
        theta = random_point(rng, 2)
        a = planted_mask(rng, Xi, theta, 2)
        zeta = canonical_zero_representative(Xi, theta)
        assert symmetric_zero_order(a, Xi, zeta, max_order=5) == 2
        assert calls == ["is_symmetric_zero", "modulation_points", ("diff_tables", Xi.det)]


def _scan_decompose(d, adj, alpha, reps):
    """Reference: alpha = xi + Xi beta found by trying every representative."""
    for xi in reps:
        diff = [a - x for a, x in zip(alpha, xi)]
        v = [sum(row[j] * diff[j] for j in range(len(diff))) for row in adj]
        if all(val % d == 0 for val in v):
            return tuple(xi), tuple(val // d for val in v)
    raise AssertionError(f"no coset representative matched {alpha}")


class TestCosetDecompose:
    @pytest.mark.parametrize("Xi", DECOMPOSE_DILATIONS, ids=lambda X: str(X.Xi))
    def test_closed_form_matches_scan(self, rng, Xi):
        d, adj = int_adjugate(Xi.Xi)
        reps = scan_coset_reps(Xi)
        # the coset of alpha modulo Xi^T Z^s is named by the dual residue
        # adj(Xi^T) alpha mod det, that of its representative
        _, adjT = int_adjugate(Xi.transpose())
        reps_T, residues = scan_coset_reps(Xi, transpose=True), set(Xi.dual_residues)
        for _ in range(200):
            alpha = tuple(int(v) for v in rng.integers(-40, 41, size=Xi.dim))
            assert _coset_decompose(Xi, alpha) == _scan_decompose(d, adj, alpha, reps)
            xi_p, _ = _scan_decompose(d, adjT, alpha, reps_T)
            residue = tuple(v % d for v in matvec(adjT, alpha))
            assert matvec(adjT, xi_p) == residue and residue in residues

    @pytest.mark.parametrize("Xi", DECOMPOSE_DILATIONS, ids=lambda X: str(X.Xi))
    def test_stored_adjugate(self, Xi):
        # Xi adj = det I, and Xi^T adj^T = det I for the transposed variant
        n = Xi.dim
        identity = [[Xi.det * (i == j) for j in range(n)] for i in range(n)]
        for M, adj in ((Xi.Xi, Xi.adj), (Xi.transpose(), Xi.adj_transpose())):
            assert [[sum(M[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)] == identity
        assert Xi.det == int_adjugate(Xi.Xi)[0] == int_adjugate(Xi.transpose())[0]


class TestAdjugateOncePerCall:
    """A Dilation computes its determinant and adjugate once, by one
    int_adjugate call when it is made; coset_reps, subsymbols, subdivide,
    modulation_points and canonical_zero_representative read the stored
    values."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Names of the int_adjugate calls."""
        from convkern import subdivision
        seen = []
        real = subdivision.int_adjugate

        def counting(M):
            seen.append("int_adjugate")
            return real(M)

        monkeypatch.setattr(subdivision, "int_adjugate", counting)
        return seen

    @pytest.mark.parametrize("rows", [((5, 2), (-1, 4)), ((0, 2), (3, 0)),
                                      ((0, 0, 2), (1, 0, 0), (0, 1, 0)), ((2,),)])
    def test_dilation(self, calls, rows):
        Xi = dil(*rows)
        assert calls == ["int_adjugate"]
        assert abs(Xi.det) == Xi.coset_count and len(Xi.adj) == Xi.dim
        assert len(calls) == 1  # reading the stored values computes nothing

    def test_coset_reps(self, calls):
        Xi = dil((5, 2), (-1, 4))
        calls.clear()
        assert len(coset_reps(Xi)) == 22 and len(Xi.dual_residues) == 22
        assert calls == []

    def test_subsymbols(self, calls, rng):
        Xi = dil((5, 2), (-1, 4))
        calls.clear()
        subsymbols(random_mask(rng, 2), Xi)
        assert calls == []

    def test_subdivide(self, calls):
        a = mask_1d(0.5, 1.0, 0.5)
        seq = ExpPolySeq.single((1.0,), const(1, 1))
        calls.clear()
        subdivide(a, TWO, seq, Window((-3,), (3,)))
        assert calls == []

    def test_modulation_points(self, calls):
        Xi = dil((5, 2), (-1, 4))
        calls.clear()
        zeta = canonical_zero_representative(Xi, (0.5, 2.0))
        assert len(modulation_points(Xi, zeta)) == 22
        assert calls == []


class TestDerivedDataOwned:
    """A Dilation computes its coset representatives and its dual residues
    once, an Impulse its normalized symbol once; every reader shares them."""

    @pytest.fixture
    def coset_calls(self, monkeypatch):
        """The Dilation of each coset_reps call, and the number of closures
        walked (coset_reps walks one, the dual residues another)."""
        from convkern import subdivision
        seen = {"coset_reps": [], "closures": 0}
        real_reps, real_closure = subdivision.coset_reps, subdivision._closure

        def counting_reps(Xi):
            seen["coset_reps"].append(Xi)
            return real_reps(Xi)

        def counting_closure(d, steps):
            seen["closures"] += 1
            return real_closure(d, steps)

        monkeypatch.setattr(subdivision, "coset_reps", counting_reps)
        monkeypatch.setattr(subdivision, "_closure", counting_closure)
        return seen

    @pytest.fixture
    def normalize_calls(self, monkeypatch):
        from convkern import mpoly
        seen = []
        real = mpoly.laurent_normalize
        monkeypatch.setattr(mpoly, "laurent_normalize", lambda f: seen.append(f) or real(f))
        return seen

    def test_coset_reps_once_per_dilation(self, coset_calls, rng):
        Xi = dil((5, 2), (-1, 4))
        zeta = canonical_zero_representative(Xi, (0.5, 2.0))
        subs = subsymbols(random_mask(rng, 2), Xi)
        points = [modulation_points(Xi, zeta) for _ in range(5)]
        subsymbols(random_mask(rng, 2), Xi)
        assert coset_calls == {"coset_reps": [Xi], "closures": 2}
        assert list(subs) == coset_reps(Xi) and all(p == points[0] for p in points)
        assert Xi.reps == tuple(coset_reps(Xi))

    def test_kernel_check_walks_each_closure_once(self, coset_calls, rng):
        Xi = dil((2, 1), (0, 2))
        theta, other = random_point(rng, 2), random_point(rng, 2)
        a = planted_mask(rng, Xi, theta, 1)
        subdivision_kernel_check(a, Xi, [(theta, 0), (theta, 1), (other, 0)])
        assert coset_calls == {"coset_reps": [Xi], "closures": 2}

    def test_normalized_symbol_once_per_impulse(self, normalize_calls, rng):
        Xi = dil((2, 1), (0, 2))
        theta = random_point(rng, 2)
        a = planted_mask(rng, Xi, theta, 1)
        zeta = canonical_zero_representative(Xi, theta)
        assert [is_symmetric_zero(a, Xi, zeta, [k])[0][0] for k in range(3)] == \
            [True, True, False]
        assert symmetric_zero_order(a, Xi, zeta) == 1
        assert len(normalize_calls) == 1

    def test_kernel_check_normalizes_each_symbol_once(self, normalize_calls, rng):
        Xi = dil((2, 1), (0, 2))
        theta, other = random_point(rng, 2), random_point(rng, 2)
        a = planted_mask(rng, Xi, theta, 1)
        report = subdivision_kernel_check(a, Xi, [(theta, 0), (theta, 1), (other, 0),
                                                  (other, 1)])
        live = sum(not p.is_zero for p in report["subsymbols"].values())
        # the mask once, and each nonzero subsymbol once
        assert len(normalize_calls) == 1 + live


class TestToleranceOverride:
    """The oracle test decides at max(tol, ORACLE_TOL), so raising tol above
    ORACLE_TOL moves all three tests together.  With taps {0: 1, 2: -1 +
    2e-7} the symmetric test reads 1.0e-7 and the oracle 5.0e-8: both pass
    at tol = 1e-6, where a fixed oracle tolerance of 1e-8 disagreed."""

    MASK = Impulse(1, {(0,): 1.0, (2,): -1.0 + 2e-7})

    def test_oracle_follows_tol(self):
        report = subdivision_kernel_check(self.MASK, TWO, [((1.0,), 0)], tol=1e-6)
        [rec] = report["candidates"]
        assert report["pass"] and rec["pass"]
        assert rec["symmetric_zero_violation"] == pytest.approx(1e-7, rel=1e-6)
        assert rec["oracle_residual"] == pytest.approx(5e-8, rel=1e-6)

    def test_default_tol_fails_all_three(self):
        [rec] = subdivision_kernel_check(self.MASK, TWO, [((1.0,), 0)])["candidates"]
        assert not rec["pass"]


class TestDecidingTest:
    """Each candidate record carries the residual and tolerance of the test
    that decides it: the first failed test (symmetric zero, subsymbol,
    oracle), else the one with the largest value/tolerance."""

    @staticmethod
    def check(mask, candidates, **kw):
        report = subdivision_kernel_check(mask, TWO, candidates, **kw)
        for rec in report["candidates"]:
            assert rec["pass"] == (rec["residual"] <= rec["tolerance"])
        return report["candidates"]

    def test_passing_candidate_reports_its_tightest_test(self):
        # symmetric zero and subsymbol read 8e-10 against 1e-9, the oracle
        # 1.6e-9 against 1e-8: the symmetric-zero test is nearest its bound
        [rec] = self.check(Impulse(1, {(0,): 1.0, (2,): -0.249999999}), [((0.25,), 0)])
        assert rec["pass"] and rec["oracle_residual"] > 1e-9
        assert (rec["residual"], rec["tolerance"]) == (rec["symmetric_zero_violation"], 1e-9)

    def test_passing_candidate_may_report_the_oracle(self):
        # at tol 1e-6 all three share one tolerance and the oracle is largest
        [rec] = self.check(Impulse(1, {(0,): 1.0, (2,): -0.249999999}), [((0.25,), 0)],
                           tol=1e-6)
        assert (rec["residual"], rec["tolerance"]) == (rec["oracle_residual"], 1e-6)

    def test_failed_candidate_reports_its_first_failed_test(self):
        [rec] = self.check(mask_1d(0.5, 1.0, 0.5), [((1.0,), 0)])
        assert not rec["pass"]
        assert (rec["residual"], rec["tolerance"]) == (rec["symmetric_zero_violation"], 1e-9)

    def test_zero_tolerance(self, monkeypatch):
        # 1 - z^2 gives subsymbol and oracle values of exactly 0 on the
        # constants; with the symmetric-zero test (1.2e-16 at the rounded
        # modulation point -1) read as 0 too, all three pass at tol 0, and
        # the choice among them divides by no zero tolerance
        from convkern import subdivision
        # the check asks once per theta, for a sequence of orders
        monkeypatch.setattr(subdivision, "is_symmetric_zero",
                            lambda a, Xi, zeta, orders, tol: [(True, 0.0) for _ in orders])
        [rec] = self.check(mask_1d(1, 0, -1), [((1.0,), 0)], tol=0.0)
        assert rec["pass"] and (rec["residual"], rec["tolerance"]) == (0.0, 0.0)
