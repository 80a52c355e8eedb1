"""Stationary subdivision operators with expanding integer dilation matrices.

Coset membership is decided in exact integer arithmetic (adjugate over
determinant), so the half-open fundamental cell [0,1)^s never suffers from
floating boundary effects.  A Dilation owns its determinant, adjugate and
(lazily, per orientation) coset representatives; subsymbols, modulation
points and subdivide read them, with adj(Xi^T) = adj(Xi)^T.  A tap or an
index difference splits into its coset representative and lattice point in
closed form, beta = floor(Xi^-1 alpha).  Kernel questions
reduce to convolution kernels of the subsymbols, one per coset.  The
derivative tests take jet tables from linalg times the symbol's
coefficients: one stacked table over all modulation points for a symmetric
zero, and one table per subsymbol at theta^-1, each symbol taken as its
Impulse.normalized_symbol.  subdivision_kernel_check shares the subsymbol and
oracle tests between candidates with the same theta, and makes one oracle
call for all of its theta; its oracle test decides at max(tol, ORACLE_TOL),
like every other oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .filters import DEFAULT_TOL, ORACLE_TOL, ExpPolySeq, Impulse, Window, kernel_residual
from .linalg import coeff_matrix, diff_table, diff_tables, monomials_upto
from .mpoly import Exponent, LaurentPoly, grlex_key


# coset_reps scans the bounding box of Xi [0,1)^s point by point; the input
# contract caps the box so that a dilation cannot make it run without bound.
MAX_COSET_SCAN = 10 ** 5


def _int_matrix(rows) -> Tuple[Tuple[int, ...], ...]:
    out = tuple(tuple(int(v) for v in row) for row in rows)
    n = len(out)
    if any(len(row) != n for row in out):
        raise ValueError("dilation matrix must be square")
    return out


def int_det(M: Sequence[Sequence[int]]) -> int:
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = [[M[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * M[0][j] * int_det(minor)
    return total


def int_adjugate(M: Sequence[Sequence[int]]) -> List[List[int]]:
    """adj(M) with M @ adj(M) = det(M) I, exact over the integers."""
    n = len(M)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[M[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * int_det(minor)
    return adj


@dataclass(frozen=True)
class Dilation:
    """Integer dilation matrix; expanding means every eigenvalue has
    modulus > 1.  det and adj (Xi adj = det I) are exact and computed once;
    Xi^T has the same determinant and the adjugate adj^T.  reps and
    transposed_reps, E_Xi and E'_Xi from coset_reps, are computed on first
    use, after serialize has bounded the coset scan."""

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
        return tuple(sum(row[j] * alpha[j] for j in range(self.dim)) for row in self.Xi)


class NotExpandingError(ValueError):
    """A dilation matrix with an eigenvalue of modulus at most 1."""


def is_expanding(Xi: Dilation) -> bool:
    """Every eigenvalue of Xi has modulus above 1 + 1e-9."""
    eigvals = np.linalg.eigvals(np.array(Xi.Xi, dtype=float))
    return bool(np.min(np.abs(eigvals)) > 1.0 + 1e-9)


def _in_unit_cell(d: int, adj: Sequence[Sequence[int]], alpha: Sequence[int]) -> bool:
    """Exact test for M^-1 alpha in [0,1)^s: componentwise 0 <= v_i/d < 1
    with v = adj(M) alpha and d = det M."""
    for row in adj:
        v = sum(row[j] * alpha[j] for j in range(len(alpha)))
        if d > 0:
            if not (0 <= v < d):
                return False
        else:
            if not (d < v <= 0):
                return False
    return True


def _scan_box(M: Sequence[Sequence[int]]) -> List[range]:
    """Bounding box of the parallelepiped M [0,1)^s, from the vertices M v,
    v in {0,1}^s."""
    n = len(M)
    vertices = [tuple(sum(M[i][j] * v[j] for j in range(n)) for i in range(n))
                for v in product((0, 1), repeat=n)]
    return [range(min(v[i] for v in vertices), max(v[i] for v in vertices) + 1)
            for i in range(n)]


def coset_scan_size(Xi: Dilation) -> int:
    """Points coset_reps scans, over both orientations of Xi."""
    return max(math.prod(len(r) for r in _scan_box(M))
               for M in (Xi.Xi, Xi.transpose()))


def coset_reps(Xi: Dilation, transpose: bool = False) -> List[Tuple[int, ...]]:
    """E_Xi = Xi [0,1)^s cap Z^s (or the transpose variant), graded-lex sorted."""
    M, adj = (Xi.transpose(), Xi.adj_transpose()) if transpose else (Xi.Xi, Xi.adj)
    reps = [alpha for alpha in product(*_scan_box(M)) if _in_unit_cell(Xi.det, adj, alpha)]
    reps.sort(key=grlex_key)
    if len(reps) != Xi.coset_count:
        raise AssertionError(
            f"found {len(reps)} coset representatives, expected {Xi.coset_count}")
    return reps


def _coset_decompose(Xi: Dilation,
                     alpha: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Write alpha = xi + Xi beta with xi in Xi [0,1)^s, the representative
    coset_reps lists; exact.

    beta = floor(Xi^-1 alpha) = floor(adj alpha / det), by floor division,
    which rounds down for either sign of det.
    """
    beta = tuple(sum(r * t for r, t in zip(row, alpha)) // Xi.det for row in Xi.adj)
    return tuple(t - v for t, v in zip(alpha, Xi.apply(beta))), beta


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
        w = [sum(row[j] * xi_p[j] for j in range(Xi.dim)) for row in adjT]
        mod = tuple(cmath.exp(-2j * cmath.pi * wi / Xi.det) for wi in w)
        points.append(tuple(m * zv for m, zv in zip(mod, zeta)))
    return points


def is_symmetric_zero(a: Impulse, Xi: Dilation, zeta: Sequence[complex],
                      order: int = 0, tol: float = DEFAULT_TOL) -> Tuple[bool, float]:
    """True iff every derivative D^beta a*, |beta| <= order, vanishes at all
    modulation translates of zeta.  Returns the maximal normalized
    violation alongside."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    g = a.normalized_symbol
    coeffs, support = coeff_matrix([g])
    points = modulation_points(Xi, zeta)
    scale, degree = max(1.0, a.l1()), max(g.degree(), 0)
    point_scales = np.array([scale * max(1.0, max(abs(v) for v in point) ** degree)
                             for point in points])
    vals = np.abs(diff_tables(monomials_upto(a.dim, order), support, points) @ coeffs[:, 0])
    worst = float(np.max(vals / point_scales[:, None], initial=0.0))  # propagates NaN
    return worst <= tol, worst


def symmetric_zero_order(a: Impulse, Xi: Dilation, zeta: Sequence[complex],
                         max_order: int = 10, tol: float = DEFAULT_TOL) -> int:
    """Largest k <= max_order such that zeta is a symmetric zero of order k;
    -1 if not even a symmetric zero of order 0."""
    best = -1
    for k in range(max_order + 1):
        ok, _ = is_symmetric_zero(a, Xi, zeta, order=k, tol=tol)
        if not ok:
            break
        best = k
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
    zeta = []
    for row in Xi.adj_transpose():
        # -(Xi^-T log theta)_i with the exact rational inverse
        acc = -sum(row[j] * logs[j] for j in range(Xi.dim)) / Xi.det
        zeta.append(cmath.exp(acc))
    return tuple(zeta)


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
    values in its record.

    Tests (ii) and (iii) are computed once per distinct theta, per monomial
    x^beta up to the top order K requested for that theta; the oracle is one
    kernel_residual call over the monomials of every theta, theta-major.
    The graded monomials of Pi_k are a prefix of those of Pi_K, so a
    candidate of order k reads the first dim Pi_k values.  The report also
    carries the subsymbols, keyed by coset representative.  A dilation that is not expanding raises
    NotExpandingError.  Overflowing input yields NaN values, which fail,
    without numpy's overflow and invalid-value warnings.
    """
    if not is_expanding(Xi):
        raise NotExpandingError("dilation matrix is not expanding")
    with np.errstate(over="ignore", invalid="ignore"):
        subs = subsymbols(a, Xi)
        sub_impulses = [Impulse(a.dim, dict(p.terms)) for p in subs.values() if not p.is_zero]
        # a monomial factor is a unit away from the origin, so normalizing
        # each subsymbol leaves its vanishing order at theta^-1 unchanged
        sub_degree = max((h.normalized_symbol.degree() for h in sub_impulses), default=0)
        sub_coeffs = [coeff_matrix([h.normalized_symbol]) for h in sub_impulses]
        l1 = max(1.0, a.l1())
        # one theta object per candidate keys the dicts below, so that even
        # a NaN theta (hashed by identity) finds its entries
        candidates = [(tuple(complex(t) for t in theta), k) for theta, k in candidates]
        top: Dict[Tuple[complex, ...], int] = {}
        for theta, k in candidates:
            top[theta] = max(k, top.get(theta, k))
        orders = {theta: monomials_upto(a.dim, K) for theta, K in top.items()}
        # theta -> subsymbol violation and oracle residual per monomial of
        # Pi_{K_theta}; the oracle is one stack over every theta, theta-major
        sub_violation: Dict[Tuple[complex, ...], np.ndarray] = {}
        oracle: Dict[Tuple[complex, ...], np.ndarray] = {}
        for theta, exps in orders.items():
            point = tuple(1.0 / t for t in theta)
            scale = l1 * max(1.0, max(abs(v) for v in point) ** sub_degree)
            sub_vals = np.zeros(len(exps))
            for coeffs, support in sub_coeffs:
                vals = np.abs(diff_table(exps, support, point) @ coeffs[:, 0])
                sub_vals = np.maximum(sub_vals, vals / scale)  # propagates NaN
            sub_violation[theta] = sub_vals
            oracle[theta] = np.zeros(len(exps))
        if sub_impulses:
            residuals = iter(kernel_residual(sub_impulses, [
                ExpPolySeq.single(theta, LaurentPoly.monomial(a.dim, exp))
                for theta, exps in orders.items() for exp in exps]))
            for theta, exps in orders.items():
                oracle[theta] = np.array([next(residuals)[0] / l1 for _ in exps])
        results = []
        overall = True
        for theta, k in candidates:
            zeta = canonical_zero_representative(Xi, theta)
            sym_ok, sym_violation = is_symmetric_zero(a, Xi, zeta, order=k, tol=tol)

            n = math.comb(a.dim + k, k)  # dim Pi_k
            sub_worst = float(np.max(sub_violation[theta][:n], initial=0.0))
            sub_ok = sub_worst <= tol
            oracle_worst = float(np.max(oracle[theta][:n], initial=0.0))  # propagates NaN
            oracle_ok = oracle_worst <= max(tol, ORACLE_TOL)

            passed = sym_ok and sub_ok and oracle_ok
            overall = overall and passed
            results.append({"theta": theta, "order": k, "pass": passed,
                            "symmetric_zero_violation": sym_violation,
                            "subsymbol_violation": sub_worst,
                            "oracle_residual": oracle_worst})
        return {"pass": overall, "candidates": results, "subsymbols": subs}
