"""Coefficient-vector plumbing shared by the analysis modules.

Every derivative condition of the library is a value (q(D) g)(z).  diff_tables
tabulates the jets (D^alpha z^e)(z) of a monomial support at a stack of
points with numpy, from per-coordinate tables of falling factorials (shared
by the points) and integer powers (per point), so such a value is one matrix
product with g's coefficients; diff_table is its one-point case, and
dual_rows applies the coefficients of a basis of q's on the other side.
"""

from __future__ import annotations

from itertools import product
from typing import List, Sequence, Tuple

import numpy as np

from .mpoly import Exponent, LaurentPoly, grlex_key

# Relative singular-value threshold of every numerical rank and nullspace.
RANK_TOL = 1e-10


def monomials_upto(dim: int, degree: int) -> List[Exponent]:
    """All exponents with |gamma| <= degree, in graded-lex order."""
    out = [exp for exp in product(range(degree + 1), repeat=dim) if sum(exp) <= degree]
    out.sort(key=grlex_key)
    return out


def joint_support(polys: Sequence[LaurentPoly]) -> List[Exponent]:
    support = set()
    for p in polys:
        support.update(p.terms)
    return sorted(support, key=grlex_key)


def coeff_matrix(polys: Sequence[LaurentPoly],
                 support: Sequence[Exponent] | None = None) -> Tuple[np.ndarray, List[Exponent]]:
    """Stack coefficient vectors as columns over a common monomial support."""
    if support is None:
        support = joint_support(polys)
    index = {exp: i for i, exp in enumerate(support)}
    A = np.zeros((len(support), len(polys)), dtype=complex)
    for k, p in enumerate(polys):
        for exp, c in p.terms.items():
            A[index[exp], k] = c
    return A, list(support)


def from_coeff_vector(dim: int, vec: np.ndarray, support: Sequence[Exponent]) -> LaurentPoly:
    """The polynomial with coefficient vec[i] at support[i]; support holds
    distinct exponents of length dim."""
    return LaurentPoly._of(dim, {exp: complex(vec[i]) for i, exp in enumerate(support)})


def diff_table(orders: Sequence[Exponent], support: Sequence[Exponent],
               point: Sequence[complex]) -> np.ndarray:
    """T[i, k] = (D^orders[i] z^support[k])(point): the one-point case of
    diff_tables."""
    return diff_tables(orders, support, [point])[0]


def diff_tables(orders: Sequence[Exponent], support: Sequence[Exponent],
                points: Sequence[Sequence[complex]]) -> np.ndarray:
    """T[p, i, k] = (D^orders[i] z^support[k])(points[p]).

    Per coordinate, D^a z^e = (e)_a z^(e-a) with the falling factorial
    (e)_a = prod_{i<a} (e - i); exponents may be negative (Laurent
    monomials), as in LaurentPoly.diff.  The falling factorials are shared
    by all points; powers are taken with integer exponents, one per point
    and distinct exponent.
    """
    points = [[complex(v) for v in p] for p in points]
    dim = len(points[0])
    # float64 holds these integer exponents exactly
    a_all = np.array(orders, dtype=float).reshape(len(orders), dim)
    e_all = np.array(support, dtype=float).reshape(len(support), dim)
    T = np.ones((len(points), len(a_all), len(e_all)), dtype=complex)
    for j in range(dim):
        a, e = a_all[:, j, None], e_all[None, :, j]
        ff = np.ones(T.shape[1:])
        for i in range(int(a.max(initial=0))):
            ff *= np.where(i < a, e - i, 1)
        k = e - a
        coords = [p[j] for p in points]
        if 0 in coords and np.any((ff != 0) & (k < 0)):
            raise ZeroDivisionError("zero coordinate with negative exponent")
        exps = sorted(set(k.ravel().tolist()))
        ints = [int(x) for x in exps]
        # a zero ff masks the stand-in 0 for 0^(negative)
        powers = np.array([[c ** x if c != 0 or x >= 0 else 0j for x in ints]
                           for c in coords], dtype=complex).reshape(len(coords), len(ints))
        # in place: one (points, orders, support) temporary, not two
        factor = powers[:, np.searchsorted(exps, k)]
        factor *= ff
        T *= factor
    return T


def dual_rows(qs: Sequence[LaurentPoly], support: Sequence[Exponent],
              point: Sequence[complex]) -> np.ndarray:
    """R[i, k] = (qs[i](D) z^support[k])(point); R @ g_coeffs over the same
    support gives every (q(D) g)(point) at once."""
    Q, orders = coeff_matrix(qs)
    return Q.T @ diff_table(orders, support, point)


def span_residual(f: LaurentPoly, basis: Sequence[LaurentPoly]) -> Tuple[float, np.ndarray]:
    """Relative least-squares residual of f against span(basis)."""
    support = joint_support(list(basis) + [f])
    A, _ = coeff_matrix(basis, support)
    b, _ = coeff_matrix([f], support)
    b = b[:, 0]
    coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
    res = np.linalg.norm(A @ coeffs - b)
    scale = np.linalg.norm(b)
    rel = res / scale if scale > 0 else res
    return float(rel), coeffs


def numerical_rank(A: np.ndarray) -> int:
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the (numerical) nullspace, columns."""
    if A.shape[0] == 0:
        return np.eye(A.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(A)
    tol = RANK_TOL * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    return vh[rank:].conj().T
