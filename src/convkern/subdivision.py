"""Stationary subdivision operators with expanding integer dilation matrices.

Coset membership has one rule, the exact integer floor map
rho(alpha) = alpha - M floor(adj alpha / det) onto M [0,1)^s, M = Xi or Xi^T.
A Dilation owns its determinant and adjugate, from O(s^3) exact elimination,
and (lazily, per orientation) its coset representatives, the closure of {0}
under alpha -> rho(alpha + e_j); subsymbols, modulation points and subdivide
read them, with adj(Xi^T) = adj(Xi)^T, and split a tap by the same map.
Kernel questions reduce to convolution kernels of the subsymbols, one per
coset.  The derivative tests take jet tables from linalg times the symbol's
coefficients, each symbol taken as its Impulse.normalized_symbol: one
stacked table over all modulation points for a symmetric zero, which serves
every order asked at once, and one table at theta^-1 over the union of
the subsymbol supports, from which each subsymbol reads its columns.
subdivision_kernel_check decides each distinct theta once: one
is_symmetric_zero call and one subsymbol table at the top order asked for
theta, and one oracle call over the terms x^beta e_theta of every theta;
every candidate (theta, k) reads its rows.  The row values of a matrix
product depend on its row count, so the derivative tests multiply, per
order k asked, the first dim Pi_k rows of their table and a symbol's
columns, copied contiguous; each value is then bit-identical to that of a
check of the candidate alone.  The oracle test decides at
max(tol, ORACLE_TOL), like every other oracle.  Each candidate record
carries the residual and tolerance of the test that decides it, which the
subdivide command prints.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .filters import (DEFAULT_TOL, ORACLE_TOL, ExpPolySeq, Impulse, Window, kernel_residual,
                      require_window_pairs)
from .linalg import coeff_matrix, diff_tables, joint_support, monomials_upto
from .mpoly import Exponent, LaurentPoly, grlex_key


def _int_matrix(rows) -> Tuple[Tuple[int, ...], ...]:
    out = tuple(tuple(int(v) for v in row) for row in rows)
    if not out or any(len(row) != len(out) for row in out):
        raise ValueError("dilation matrix must be square and nonempty")
    return out


def _matvec(M: Sequence[Sequence[int]], v: Sequence[int]) -> Tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in M])


def int_det(M: Sequence[Sequence[int]]) -> int:
    """det(M) by Bareiss's fraction-free elimination: O(s^3) operations on
    integers, each division exact."""
    A = [list(row) for row in M]
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap], sign = A[swap], A[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


def int_adjugate(M: Sequence[Sequence[int]]) -> List[List[int]]:
    """adj(M) = det(M) M^-1 of a nonsingular M, with M @ adj(M) = det(M) I:
    Gauss-Jordan elimination over the rationals, O(s^3) exact operations."""
    n = len(M)
    A = [[Fraction(v) for v in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(M)]
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if A[i][k]), None)
        if p is None:
            raise ValueError("matrix is singular")
        if p != k:
            A[k], A[p], det = A[p], A[k], -det
        pivot = A[k][k]
        det *= pivot
        A[k] = [v / pivot for v in A[k]]
        for i in range(n):
            if i != k and A[i][k]:
                f = A[i][k]
                A[i] = [a - f * b for a, b in zip(A[i], A[k])]
    return [[int(det * v) for v in row[n:]] for row in A]


@dataclass(frozen=True)
class Dilation:
    """Integer dilation matrix; expanding means every eigenvalue has
    modulus > 1.  det and adj (Xi adj = det I) are exact and computed once;
    Xi^T has the same determinant and the adjugate adj^T.  reps and
    transposed_reps, E_Xi and E'_Xi from coset_reps, are computed on first
    use; serialize caps their number, |det|."""

    Xi: Tuple[Tuple[int, ...], ...]
    det: int = field(init=False, repr=False, compare=False)
    adj: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M = _int_matrix(self.Xi)
        object.__setattr__(self, "Xi", M)
        det = int_det(M)
        if det == 0:
            raise ValueError("dilation matrix is singular")
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "adj", tuple(map(tuple, int_adjugate(M))))

    @property
    def dim(self) -> int:
        return len(self.Xi)

    @property
    def coset_count(self) -> int:
        return abs(self.det)

    def transpose(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(zip(*self.Xi))

    def adj_transpose(self) -> Tuple[Tuple[int, ...], ...]:
        """adj(Xi^T) = adj(Xi)^T."""
        return tuple(zip(*self.adj))

    @cached_property
    def reps(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(coset_reps(self))

    @cached_property
    def transposed_reps(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(coset_reps(self, transpose=True))

    def apply(self, alpha: Sequence[int]) -> Tuple[int, ...]:
        return _matvec(self.Xi, alpha)


# is_expanding asks every eigenvalue modulus to exceed 1 + EXPANDING_MARGIN.
EXPANDING_MARGIN = 1e-9


class NotExpandingError(ValueError):
    """A dilation matrix with an eigenvalue of modulus at most 1."""


def is_expanding(Xi: Dilation) -> bool:
    """Every eigenvalue of Xi has modulus above 1 + EXPANDING_MARGIN."""
    eigvals = np.linalg.eigvals(np.array(Xi.Xi, dtype=float))
    return bool(np.min(np.abs(eigvals)) > 1.0 + EXPANDING_MARGIN)


def _coset_decompose(Xi: Dilation, alpha: Sequence[int], transpose: bool = False
                     ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Write alpha = xi + M beta with xi = rho(alpha) in M [0,1)^s, the
    representative coset_reps lists, for M = Xi (or Xi^T); exact.

    beta = floor(M^-1 alpha) = floor(adj alpha / det), by floor division,
    which rounds down for either sign of det.
    """
    M, adj = (Xi.transpose(), Xi.adj_transpose()) if transpose else (Xi.Xi, Xi.adj)
    beta = tuple(v // Xi.det for v in _matvec(adj, alpha))
    return tuple(t - v for t, v in zip(alpha, _matvec(M, beta))), beta


def coset_reps(Xi: Dilation, transpose: bool = False) -> List[Tuple[int, ...]]:
    """E_Xi = Xi [0,1)^s cap Z^s (or the transpose variant), graded-lex sorted:
    the closure of {0} under alpha -> rho(alpha + e_j), rho the floor map of
    _coset_decompose, since the e_j generate Z^s / M Z^s.  Each xi is carried
    as adj xi, where rho reads adj rho(xi + e_j) = (adj xi + adj e_j) mod det,
    so |det| s steps cost O(s) each; xi = M (adj xi) / det at the end."""
    M, adj = (Xi.transpose(), Xi.adj_transpose()) if transpose else (Xi.Xi, Xi.adj)
    d, steps, origin = Xi.det, list(zip(*adj)), (0,) * Xi.dim  # steps: adj e_j
    seen, found = {origin}, [origin]
    for v in found:  # breadth first; the loop reaches what it appends
        for step in steps:
            w = tuple([(x + y) % d for x, y in zip(v, step)])
            if w not in seen:
                seen.add(w)
                found.append(w)
    return sorted([tuple([sum(map(mul, row, v)) // d for row in M]) for v in found],
                  key=grlex_key)


def subsymbols(a: Impulse, Xi: Dilation) -> Dict[Tuple[int, ...], LaurentPoly]:
    """a_xi*(z) = sum_alpha a(xi + Xi alpha) z^alpha for every representative xi."""
    if a.dim != Xi.dim:
        raise ValueError("mask / dilation dimension mismatch")
    terms: Dict[Tuple[int, ...], Dict[Exponent, complex]] = {xi: {} for xi in Xi.reps}
    for tap, c in a.taps.items():
        xi, beta = _coset_decompose(Xi, tap)
        terms[xi][beta] = terms[xi].get(beta, 0) + c
    return {xi: LaurentPoly._of(a.dim, t) for xi, t in terms.items()}


def z_pow_Xi(z: Sequence[complex], Xi: Dilation) -> Tuple[complex, ...]:
    """z^Xi = (z^{xi_1}, ..., z^{xi_s}) with the columns of Xi as exponents."""
    z = [complex(v) for v in z]
    if any(v == 0 for v in z):
        raise ValueError("point must lie in C_x^s")
    cols = Xi.transpose()  # row i of transpose = column i of Xi
    out = []
    for col in cols:
        val = 1 + 0j
        for v, e in zip(z, col):
            val *= v ** e
        out.append(val)
    return tuple(out)


def modulation_points(Xi: Dilation, zeta: Sequence[complex]) -> List[Tuple[complex, ...]]:
    """The points e^{-2 pi i Xi^-T xi'} zeta over xi' in E'_Xi; the first
    (xi' = 0) is zeta itself."""
    zeta = tuple(complex(v) for v in zeta)
    if any(v == 0 for v in zeta):
        raise ValueError("zeta must lie in C_x^s")
    adjT = Xi.adj_transpose()
    points = []
    for xi_p in Xi.transposed_reps:
        # Xi^-T xi' as exact rationals adj(Xi^T) xi' / det
        mod = tuple(cmath.exp(-2j * cmath.pi * wi / Xi.det) for wi in _matvec(adjT, xi_p))
        points.append(tuple(m * zv for m, zv in zip(mod, zeta)))
    return points


def is_symmetric_zero(a: Impulse, Xi: Dilation, zeta: Sequence[complex],
                      orders: Sequence[int], tol: float = DEFAULT_TOL) -> List[Tuple[bool, float]]:
    """Per order k in orders, (ok, worst): ok iff every derivative D^beta a*,
    |beta| <= k, vanishes at all modulation translates of zeta, and worst
    the maximal normalized violation.

    Every order reads one jet table at the top order: order k takes the
    first dim Pi_k rows (graded-lex), copied contiguous so that its product
    equals that of a table built at order k alone.
    """
    orders = list(orders)
    if any(k < 0 for k in orders):
        raise ValueError("order must be nonnegative")
    g = a.normalized_symbol
    coeffs, support = coeff_matrix([g])
    points = modulation_points(Xi, zeta)
    scale, degree = max(1.0, a.l1()), max(g.degree(), 0)
    point_scales = np.array([scale * max(1.0, max(abs(v) for v in point) ** degree)
                             for point in points])
    table = diff_tables(monomials_upto(a.dim, max(orders, default=0)), support, points)
    out = []
    for k in orders:
        rows = np.ascontiguousarray(table[:, :math.comb(a.dim + k, k)])
        vals = np.abs(rows @ coeffs[:, 0])
        worst = float(np.max(vals / point_scales[:, None], initial=0.0))  # propagates NaN
        out.append((worst <= tol, worst))
    return out


def symmetric_zero_order(a: Impulse, Xi: Dilation, zeta: Sequence[complex],
                         max_order: int = 10, tol: float = DEFAULT_TOL) -> int:
    """Largest k <= max_order such that zeta is a symmetric zero of order k;
    -1 if not even a symmetric zero of order 0.  One jet table at max_order
    serves every k."""
    best = -1
    for ok, _ in is_symmetric_zero(a, Xi, zeta, range(max_order + 1), tol=tol):
        if not ok:
            break
        best += 1
    return best


def subdivide(a: Impulse, Xi: Dilation, c, w: Window) -> Dict[Exponent, complex]:
    """(S_a c)(alpha) = sum_beta a(alpha - Xi beta) c(beta) on the window."""
    if a.dim != Xi.dim:
        raise ValueError("mask / dilation dimension mismatch")
    closed_form = isinstance(c, ExpPolySeq)
    out: Dict[Exponent, complex] = {}
    for alpha in w.points():
        total = 0j
        for tap, av in a.taps.items():
            # only taps with alpha - tap in Xi Z^s, the coset of 0, contribute
            xi, beta = _coset_decompose(Xi, [x - t for x, t in zip(alpha, tap)])
            if any(xi):
                continue
            if closed_form:
                total += av * c.value(beta)
            else:
                if beta not in c:
                    raise ValueError(f"sample coverage missing point {beta}")
                total += av * c[beta]
        out[alpha] = total
    return out


def canonical_zero_representative(Xi: Dilation, theta: Sequence[complex]) -> Tuple[complex, ...]:
    """The principal-branch zeta with zeta^Xi = theta^-1.

    All valid branches are modulation translates of each other, so symmetric
    zero tests do not depend on the choice.
    """
    theta = [complex(t) for t in theta]
    if any(t == 0 for t in theta):
        raise ValueError("theta must lie in C_x^s")
    logs = [cmath.log(t) for t in theta]
    # -(Xi^-T log theta)_i with the exact rational inverse
    return tuple(cmath.exp(-acc / Xi.det) for acc in _matvec(Xi.adj_transpose(), logs))


def subdivision_kernel_check(a: Impulse, Xi: Dilation,
                             candidates: Sequence[Tuple[Sequence[complex], int]],
                             tol: float = DEFAULT_TOL) -> Dict:
    """Per candidate (theta, k): three equivalent tests of
    Pi_k e_theta <= ker S_a, reported side by side.

    (i) the canonical representative of theta is a symmetric zero of order k;
    (ii) all subsymbols have an order-k zero at theta^-1;
    (iii) the per-coset convolution oracle certifies every monomial of Pi_k
    times e_theta, against max(tol, ORACLE_TOL).  A candidate passes when
    all three pass; where they disagree (numerically, inside the band
    between tol and ORACLE_TOL for instance) it fails, with all three
    values in its record.  The record's "residual" and "tolerance" are those
    of the test that decides it: the first failed test in the order (i),
    (ii), (iii), or when all pass the one with the largest value/tolerance,
    so that residual <= tolerance exactly when the candidate passes.

    Each test is computed once per distinct theta, per monomial x^beta up to
    the top order K requested for that theta: (i) is one is_symmetric_zero
    call over the orders asked for theta, from one jet table at K; (ii) is
    one jet table at theta^-1 over the union of the subsymbol supports, each
    order k asked reading its first dim Pi_k rows and each subsymbol its own
    columns (copied contiguous, so that the product equals that of the
    candidate's own table); (iii) is one kernel_residual call over the
    monomials of every theta, theta-major.  The graded monomials of
    Pi_k are a prefix of those of Pi_K, so a candidate of order k reads the
    first dim Pi_k values.  The report also carries the subsymbols, keyed by
    coset representative.  A dilation that is not expanding raises
    NotExpandingError, and oracle windows over more than MAX_WINDOW_PAIRS
    (row, window point) pairs raise WindowLimitError before any Pi_K is
    enumerated.  Overflowing input yields NaN values, which fail,
    without numpy's overflow and invalid-value warnings.
    """
    if not is_expanding(Xi):
        raise NotExpandingError("dilation matrix is not expanding")
    with np.errstate(over="ignore", invalid="ignore"):
        subs = subsymbols(a, Xi)
        sub_impulses = [Impulse(a.dim, dict(p.terms)) for p in subs.values() if not p.is_zero]
        # a monomial factor is a unit away from the origin, so normalizing
        # each subsymbol leaves its vanishing order at theta^-1 unchanged
        sub_symbols = [h.normalized_symbol for h in sub_impulses]
        sub_degree = max((g.degree() for g in sub_symbols), default=0)
        # every subsymbol's coefficients and its columns of the union support
        union = joint_support(sub_symbols)
        column = {exp: i for i, exp in enumerate(union)}
        sub_coeffs = [(coeffs[:, 0], [column[exp] for exp in support])
                      for coeffs, support in (coeff_matrix([g]) for g in sub_symbols)]
        l1 = max(1.0, a.l1())
        # one theta object per candidate keys the dicts below, so that even
        # a NaN theta (hashed by identity) finds its entries
        candidates = [(tuple(complex(t) for t in theta), k) for theta, k in candidates]
        asked: Dict[Tuple[complex, ...], set] = {}
        for theta, k in candidates:
            asked.setdefault(theta, set()).add(k)
        # the oracle checks each of the C(d+s-1, d) monomials of degree d over
        # {0..d}^s; counted, since monomials_upto walks (K+1)^s tuples
        require_window_pairs(a.dim, 0, ((d, math.comb(d + a.dim - 1, d))
                                        for ks in asked.values() for d in range(max(ks) + 1)))
        orders = {theta: monomials_upto(a.dim, max(ks)) for theta, ks in asked.items()}
        # theta -> order -> the subsymbol violation
        sub_violation: Dict[Tuple[complex, ...], Dict[int, float]] = {}
        # theta -> oracle residual per monomial of Pi_{K_theta}; one stack
        # over every theta, theta-major
        oracle: Dict[Tuple[complex, ...], np.ndarray] = {}
        for theta, exps in orders.items():
            point = tuple(1.0 / t for t in theta)
            scale = l1 * max(1.0, max(abs(v) for v in point) ** sub_degree)
            table = diff_tables(exps, union, [point])[0]
            sub_violation[theta] = {}
            for k in asked[theta]:
                rows = table[:math.comb(a.dim + k, k)]
                sub_vals = np.zeros(len(rows))
                for coeffs, cols in sub_coeffs:
                    vals = np.abs(np.ascontiguousarray(rows[:, cols]) @ coeffs)
                    sub_vals = np.maximum(sub_vals, vals / scale)  # propagates NaN
                sub_violation[theta][k] = float(np.max(sub_vals, initial=0.0))
            oracle[theta] = np.zeros(len(exps))
        if sub_impulses:
            residuals = iter(kernel_residual(sub_impulses, [
                (theta, LaurentPoly.monomial(a.dim, exp))
                for theta, exps in orders.items() for exp in exps]))
            for theta, exps in orders.items():
                oracle[theta] = np.array([next(residuals) / l1 for _ in exps])
        # theta -> order -> the symmetric-zero violation, one call per theta
        sym_violation: Dict[Tuple[complex, ...], Dict[int, float]] = {}
        for theta, ks in asked.items():
            ks = sorted(ks)
            zeta = canonical_zero_representative(Xi, theta)
            found = is_symmetric_zero(a, Xi, zeta, ks, tol=tol)
            sym_violation[theta] = {k: worst for k, (_, worst) in zip(ks, found)}
        results = []
        overall = True
        for theta, k in candidates:
            n = math.comb(a.dim + k, k)  # dim Pi_k
            sym_worst = sym_violation[theta][k]
            sub_worst = sub_violation[theta][k]
            oracle_worst = float(np.max(oracle[theta][:n], initial=0.0))  # propagates NaN
            # (value, tolerance) of the three tests, in report order
            tests = [(sym_worst, tol), (sub_worst, tol),
                     (oracle_worst, max(tol, ORACLE_TOL))]
            failed = [test for test in tests if not test[0] <= test[1]]
            # the first failed test, else the one nearest its tolerance; a
            # test at tolerance 0 passes only at value 0
            value, bound = failed[0] if failed else max(
                tests, key=lambda test: test[0] / test[1] if test[1] else 0.0)

            passed = not failed
            overall = overall and passed
            results.append({"theta": theta, "order": k, "pass": passed,
                            "symmetric_zero_violation": sym_worst,
                            "subsymbol_violation": sub_worst,
                            "oracle_residual": oracle_worst,
                            "residual": value, "tolerance": bound})
        return {"pass": overall, "candidates": results, "subsymbols": subs}
