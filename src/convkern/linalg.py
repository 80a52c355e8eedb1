"""Coefficient-vector plumbing shared by the analysis modules.

Every derivative condition of the library is a value (q(D) g)(z).  diff_table
tabulates the jets (D^alpha z^e)(z) of a monomial support with numpy, from
per-coordinate tables of falling factorials and integer powers, so such a
value is one matrix product with g's coefficients; dual_rows applies the
coefficients of a basis of q's on the other side.
"""

from __future__ import annotations

from itertools import product
from typing import List, Sequence, Tuple

import numpy as np

from .mpoly import Exponent, LaurentPoly, grlex_key


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
    return LaurentPoly(dim, {exp: complex(vec[i]) for i, exp in enumerate(support)})


def diff_table(orders: Sequence[Exponent], support: Sequence[Exponent],
               point: Sequence[complex]) -> np.ndarray:
    """T[i, k] = (D^orders[i] z^support[k])(point).

    Per coordinate, D^a z^e = (e)_a z^(e-a) with the falling factorial
    (e)_a = prod_{i<a} (e - i); exponents may be negative (Laurent
    monomials), as in LaurentPoly.diff.  Powers are taken with integer
    exponents, one per distinct exponent.
    """
    point = [complex(p) for p in point]
    # float64 holds these integer exponents exactly
    a_all = np.array(orders, dtype=float).reshape(len(orders), len(point))
    e_all = np.array(support, dtype=float).reshape(len(support), len(point))
    T = np.ones((len(a_all), len(e_all)), dtype=complex)
    for j, p in enumerate(point):
        a, e = a_all[:, j, None], e_all[None, :, j]
        ff = np.ones(T.shape)
        for i in range(int(a.max(initial=0))):
            ff *= np.where(i < a, e - i, 1)
        k = e - a
        if p == 0 and np.any((ff != 0) & (k < 0)):
            raise ZeroDivisionError("zero coordinate with negative exponent")
        exps = sorted(set(k.ravel().tolist()))
        # a zero ff masks the stand-in 0 for 0^(negative)
        powers = np.array([p ** int(x) if p != 0 or x >= 0 else 0j for x in exps])
        T *= ff * powers[np.searchsorted(exps, k)]
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


def numerical_rank(A: np.ndarray, rel_threshold: float = 1e-10) -> int:
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rel_threshold * s[0]))


def nullspace(A: np.ndarray, rel_threshold: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the (numerical) nullspace, columns."""
    if A.shape[0] == 0:
        return np.eye(A.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(A)
    tol = rel_threshold * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    return vh[rank:].conj().T
