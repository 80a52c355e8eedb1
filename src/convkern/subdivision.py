"""Stationary subdivision operators with expanding integer dilation matrices.

Coset membership has one rule, the exact integer floor map
rho(alpha) = alpha - Xi floor(adj alpha / det) onto Xi [0,1)^s.  A Dilation
owns its determinant and adjugate, both from one O(s^3) fraction-free
elimination (int_adjugate), and (lazily) two closures of {0} under
v -> (v + step) mod det: the coset representatives of E_Xi, carried as
adj xi, and the dual residues adj(Xi^T) Z^s mod det, the vectors
det Xi^-T xi' over xi' in E'_Xi, from which the modulation points
e^{-2 pi i Xi^-T xi'} zeta are read.  Subsymbols and subdivide split a tap
by the floor map.  Kernel questions reduce to convolution kernels of the
subsymbols, one per coset.

A mask is its symbol a*(z), a LaurentPoly whose terms are its taps, and
its nonzero subsymbols are the filters of the per-coset oracle.  Both
derivative tests are one jet routine: symbols (each a normalized_symbol)
laid out once over their union support, at groups of points, each group
one jet table at its top order, scaled by max(1, ||a||_1)
max(1, |z|_inf^deg); a symmetric zero puts the mask's symbol at every
modulation point, the subsymbol test every subsymbol at each theta^-1.
The row values of a matrix product depend on its row count, so order k
multiplies the first dim Pi_k rows of the table and a symbol's columns,
copied contiguous: each value is bit-identical to that of a table built
for that order and symbol alone.  The oracle test decides at
max(tol, ORACLE_TOL), like every other oracle.
Each candidate record carries the residual and tolerance of the test that
decides it, which the subdivide command prints.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .filters import (DEFAULT_TOL, ORACLE_TOL, ExpPolySeq, Window, kernel_residual,
                      require_window_pairs)
from .linalg import diff_tables, joint_support, monomials_upto
from .mpoly import Exponent, LaurentPoly, grlex_key


def _int_matrix(rows) -> Tuple[Tuple[int, ...], ...]:
    out = tuple(tuple(int(v) for v in row) for row in rows)
    if not out or any(len(row) != len(out) for row in out):
        raise ValueError("dilation matrix must be square and nonempty")
    return out


def _matvec(M: Sequence[Sequence[int]], v: Sequence[int]) -> Tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in M])


def int_adjugate(M: Sequence[Sequence[int]]) -> Tuple[int, List[List[int]]]:
    """(det M, adj M), M adj M = det M I, of a nonsingular integer M, from
    one fraction-free (Bareiss) Gauss-Jordan elimination of [M | I]: each
    pivot step updates every other row by (a_kk a_ij - a_ik a_kj) / p, p
    the previous pivot, a division that is exact.  The left block ends as
    d I and the right block as d M^-1, both up to the sign of the row
    swaps.  O(s^3) integer operations; raises ValueError for a singular M."""
    n = len(M)
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if A[i][k]), None)
        if p is None:
            raise ValueError("dilation matrix is singular")
        if p != k:
            A[k], A[p], sign = A[p], A[k], -sign
        pivot = A[k]
        akk = pivot[k]
        for i, row in enumerate(A):
            if i != k:
                aik = row[k]
                A[i] = [(akk * a - aik * b) // prev for a, b in zip(row, pivot)]
        prev = akk
    return sign * prev, [[sign * v for v in row[n:]] for row in A]


@dataclass(frozen=True)
class Dilation:
    """Integer dilation matrix; expanding means every eigenvalue has
    modulus > 1.  det and adj (Xi adj = det I) are exact and computed once;
    Xi^T has the same determinant and the adjugate adj^T.  reps, E_Xi from
    coset_reps, and dual_residues are computed on first use; serialize caps
    their number, |det|."""

    Xi: Tuple[Tuple[int, ...], ...]
    det: int = field(init=False, repr=False, compare=False)
    adj: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M = _int_matrix(self.Xi)
        object.__setattr__(self, "Xi", M)
        det, adj = int_adjugate(M)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "adj", tuple(map(tuple, adj)))

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
    def dual_residues(self) -> Tuple[Tuple[int, ...], ...]:
        """adj(Xi^T) Z^s mod det, zero first: exactly the vectors adj(Xi^T) xi'
        = det Xi^-T xi' over xi' in E'_Xi = Xi^T [0,1)^s cap Z^s.  The steps
        adj(Xi^T) e_j are the rows of adj."""
        return tuple(_closure(self.det, self.adj))

    def apply(self, alpha: Sequence[int]) -> Tuple[int, ...]:
        return _matvec(self.Xi, alpha)


# is_expanding asks every eigenvalue modulus to exceed 1 + EXPANDING_MARGIN.
EXPANDING_MARGIN = 1e-9


def is_expanding(Xi: Dilation) -> bool:
    """Every eigenvalue of Xi has modulus above 1 + EXPANDING_MARGIN."""
    eigvals = np.linalg.eigvals(np.array(Xi.Xi, dtype=float))
    return bool(np.min(np.abs(eigvals)) > 1.0 + EXPANDING_MARGIN)


def _coset_decompose(Xi: Dilation, alpha: Sequence[int]
                     ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Write alpha = xi + Xi beta with xi = rho(alpha) in Xi [0,1)^s, the
    representative coset_reps lists; exact.

    beta = floor(Xi^-1 alpha) = floor(adj alpha / det), by floor division,
    which rounds down for either sign of det.
    """
    beta = tuple(v // Xi.det for v in _matvec(Xi.adj, alpha))
    return tuple(t - v for t, v in zip(alpha, _matvec(Xi.Xi, beta))), beta


def _closure(d: int, steps: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """The closure of {0} under v -> (v + step) mod d, breadth first from 0,
    each step O(s)."""
    origin = (0,) * len(steps)
    seen, found = {origin}, [origin]
    for v in found:  # breadth first; the loop reaches what it appends
        for step in steps:
            w = tuple([(x + y) % d for x, y in zip(v, step)])
            if w not in seen:
                seen.add(w)
                found.append(w)
    return found


def coset_reps(Xi: Dilation) -> List[Tuple[int, ...]]:
    """E_Xi = Xi [0,1)^s cap Z^s, graded-lex sorted: the closure of {0}
    under alpha -> rho(alpha + e_j), rho the floor map of _coset_decompose,
    since the e_j generate Z^s / Xi Z^s.  Each xi is carried as adj xi,
    where rho reads adj rho(xi + e_j) = (adj xi + adj e_j) mod det, so
    |det| s steps cost O(s) each; xi = Xi (adj xi) / det at the end."""
    d = Xi.det  # the steps adj e_j are the rows of adj^T
    return sorted([tuple([sum(map(mul, row, v)) // d for row in Xi.Xi])
                   for v in _closure(d, Xi.adj_transpose())], key=grlex_key)


def subsymbols(a: LaurentPoly, Xi: Dilation) -> Dict[Tuple[int, ...], LaurentPoly]:
    """a_xi*(z) = sum_alpha a(xi + Xi alpha) z^alpha for every representative xi."""
    if a.dim != Xi.dim:
        raise ValueError("mask / dilation dimension mismatch")
    terms: Dict[Tuple[int, ...], Dict[Exponent, complex]] = {xi: {} for xi in Xi.reps}
    for tap, c in a.terms.items():
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
    """The points e^{-2 pi i Xi^-T xi'} zeta over xi' in E'_Xi, read from the
    dual residues w = adj(Xi^T) xi' as e^{-2 pi i w / det} zeta; the first
    (w = 0) is zeta itself."""
    zeta = tuple(complex(v) for v in zeta)
    if any(v == 0 for v in zeta):
        raise ValueError("zeta must lie in C_x^s")
    return [tuple(cmath.exp(-2j * cmath.pi * wi / Xi.det) * zv for wi, zv in zip(w, zeta))
            for w in Xi.dual_residues]


def _jet_violations(symbols: Sequence[LaurentPoly], scale: float,
                    groups: Sequence[Tuple[Sequence[Sequence[complex]], Sequence[int]]]
                    ) -> List[List[float]]:
    """Per group (points, orders) and order k in orders, the largest
    |D^beta g(z)| / (scale max(1, |z|_inf^deg)) over |beta| <= k, g in
    symbols and z in points, deg the top degree of the symbols; NaN
    propagates, without numpy's warnings.  The symbols are laid out once
    over their union support; one jet table per group, at its top order,
    serves every order and symbol (see the module docstring)."""
    union = joint_support(symbols)
    column = {exp: i for i, exp in enumerate(union)}
    stacks = []
    for g in symbols:
        cols = sorted(column[exp] for exp in g.terms)  # g's support, graded-lex
        coeffs = np.array([g.terms[union[i]] for i in cols], dtype=complex)
        # a symbol over the whole union reads a slice, not a gather
        stacks.append((coeffs, slice(None) if len(cols) == len(union) else cols))
    degree = max((g.degree() for g in symbols), default=0)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for points, orders in groups:
            dim = len(points[0])
            point_scales = np.array([scale * max(1.0, max(abs(v) for v in point) ** degree)
                                     for point in points])
            table = diff_tables(monomials_upto(dim, max(orders, default=0)), union, points)
            worst = []
            for k in orders:
                rows = table[:, :math.comb(dim + k, k)]
                vals = np.zeros(rows.shape[:2])
                for coeffs, cols in stacks:
                    # propagates NaN
                    vals = np.maximum(vals, np.abs(np.ascontiguousarray(rows[:, :, cols])
                                                   @ coeffs) / point_scales[:, None])
                worst.append(float(np.max(vals, initial=0.0)))
            out.append(worst)
    return out


def is_symmetric_zero(a: LaurentPoly, Xi: Dilation, zeta: Sequence[complex],
                      orders: Sequence[int], tol: float = DEFAULT_TOL) -> List[Tuple[bool, float]]:
    """Per order k in orders, (ok, worst): ok iff every derivative D^beta a*,
    |beta| <= k, vanishes at all modulation translates of zeta, and worst
    the maximal normalized violation, from one jet table at the top order."""
    orders = list(orders)
    if any(k < 0 for k in orders):
        raise ValueError("order must be nonnegative")
    [worst] = _jet_violations([a.normalized_symbol], max(1.0, a.l1()),
                              [(modulation_points(Xi, zeta), orders)])
    return [(w <= tol, w) for w in worst]


def symmetric_zero_order(a: LaurentPoly, Xi: Dilation, zeta: Sequence[complex],
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


def subdivide(a: LaurentPoly, Xi: Dilation, c, w: Window) -> Dict[Exponent, complex]:
    """(S_a c)(alpha) = sum_beta a(alpha - Xi beta) c(beta) on the window."""
    if a.dim != Xi.dim:
        raise ValueError("mask / dilation dimension mismatch")
    closed_form = isinstance(c, ExpPolySeq)
    out: Dict[Exponent, complex] = {}
    for alpha in w.points():
        total = 0j
        for tap, av in a.terms.items():
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


def subdivision_kernel_check(a: LaurentPoly, Xi: Dilation,
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

    One loop over the distinct theta fills a theta -> order -> (i, ii,
    iii) table from work done once at K, the top order asked for theta: one
    is_symmetric_zero call, one subsymbol jet table at theta^-1, and its
    rows of one kernel_residual call over the monomials of Pi_K of every
    theta (those of Pi_k are a prefix); each value equals that of the
    candidate alone.  The report also carries the subsymbols, keyed by
    coset representative.  A ValueError refuses, in this order, a mask and
    dilation of different dimensions, a theta of the wrong length, a
    dilation that is not expanding and oracle windows over more than
    MAX_WINDOW_PAIRS (row, window point) pairs, before any Pi_K is
    enumerated.  Overflowing input yields NaN values, which fail, without
    numpy's warnings.
    """
    if a.dim != Xi.dim:
        raise ValueError("mask and dilation dimensions differ")
    # one theta object per candidate keys the table below, so that even a
    # NaN theta (hashed by identity) finds its entries
    candidates = [(tuple(complex(t) for t in theta), k) for theta, k in candidates]
    if any(len(theta) != a.dim for theta, _ in candidates):
        raise ValueError("candidate theta has wrong dimension")
    if not is_expanding(Xi):
        raise ValueError("dilation matrix is not expanding")
    subs = subsymbols(a, Xi)
    # the nonzero subsymbols are the oracle's filters; a monomial factor is a
    # unit away from the origin, so normalizing each subsymbol leaves its
    # vanishing order at theta^-1 unchanged
    sub_filters = [p for p in subs.values() if not p.is_zero]
    sub_symbols = [p.normalized_symbol for p in sub_filters]
    l1 = max(1.0, a.l1())
    asked: Dict[Tuple[complex, ...], set] = {}
    for theta, k in candidates:
        asked.setdefault(theta, set()).add(k)
    # the oracle checks each of the C(d+s-1, d) monomials of degree d over
    # {0..d}^s; counted, since monomials_upto walks (K+1)^s tuples
    require_window_pairs(a.dim, 0, ((d, math.comb(d + a.dim - 1, d))
                                    for ks in asked.values() for d in range(max(ks) + 1)))
    orders = {theta: sorted(ks) for theta, ks in asked.items()}
    subsymbol_tests = _jet_violations(sub_symbols, l1, [
        ([tuple(1.0 / t for t in theta)], ks) for theta, ks in orders.items()])
    residuals = iter(kernel_residual(sub_filters, [
        (theta, LaurentPoly.monomial(a.dim, exp))
        for theta, ks in orders.items() for exp in monomials_upto(a.dim, ks[-1])]))
    # theta -> order -> (symmetric zero, subsymbol, oracle) violations
    table: Dict[Tuple[complex, ...], Dict[int, Tuple[float, float, float]]] = {}
    for (theta, ks), sub in zip(orders.items(), subsymbol_tests):
        dims = [math.comb(a.dim + k, k) for k in ks]  # dim Pi_k
        oracle = np.array([next(residuals) / l1 for _ in range(dims[-1])])
        sym = is_symmetric_zero(a, Xi, canonical_zero_representative(Xi, theta), ks, tol=tol)
        # np.max propagates NaN
        table[theta] = {k: (sym_k, sub_k, float(np.max(oracle[:n], initial=0.0)))
                        for k, n, (_, sym_k), sub_k in zip(ks, dims, sym, sub)}
    results = []
    for theta, k in candidates:
        sym_worst, sub_worst, oracle_worst = table[theta][k]
        # (value, tolerance) of the three tests, in report order
        tests = [(sym_worst, tol), (sub_worst, tol),
                 (oracle_worst, max(tol, ORACLE_TOL))]
        failed = [test for test in tests if not test[0] <= test[1]]
        # the first failed test, else the one nearest its tolerance; a
        # test at tolerance 0 passes only at value 0
        value, bound = failed[0] if failed else max(
            tests, key=lambda test: test[0] / test[1] if test[1] else 0.0)
        results.append({"theta": theta, "order": k, "pass": not failed,
                        "symmetric_zero_violation": sym_worst,
                        "subsymbol_violation": sub_worst,
                        "oracle_residual": oracle_worst,
                        "residual": value, "tolerance": bound})
    return {"pass": all(rec["pass"] for rec in results), "candidates": results,
            "subsymbols": subs}
