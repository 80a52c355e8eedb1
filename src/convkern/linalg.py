"""Coefficient-vector plumbing shared by the analysis modules.

Every derivative condition of the library is a value (q(D) g)(z).  diff_tables
tabulates the jets (D^alpha z^e)(z) of a monomial support at a stack of
points with numpy, from per-coordinate tables of falling factorials (shared
by the points) and integer powers (per point), so such a value is one matrix
product with g's coefficients, and the coefficients of a basis of q's apply
on the other side.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .mpoly import Exponent, LaurentPoly, grlex_key

# Relative singular-value threshold of every numerical rank and nullspace.
RANK_TOL = 1e-10


def monomials_upto(dim: int, degree: int) -> List[Exponent]:
    """All exponents with |gamma| <= degree, in graded-lex order: C(degree +
    dim, dim) of them, enumerated coordinate by coordinate within the budget
    left, so no box (degree + 1)^dim is walked."""
    if degree < 0:
        return []
    out = [()]
    for _ in range(dim):
        out = [exp + (k,) for exp in out for k in range(degree + 1 - sum(exp))]
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


def diff_tables(orders: Sequence[Exponent], support: Sequence[Exponent],
                points: Sequence[Sequence[complex]]) -> np.ndarray:
    """T[p, i, k] = (D^orders[i] z^support[k])(points[p]).

    Per coordinate, D^a z^e = (e)_a z^(e-a) with the falling factorial
    (e)_a = prod_{i<a} (e - i); exponents may be negative (Laurent
    monomials), as in LaurentPoly.diff.  The falling factorials are shared
    by all points; powers are taken with integer exponents, one per point
    and distinct exponent.  A power that complex ** cannot represent
    raises, or comes back non-finite (a negative power whose positive
    counterpart overflows reads nan+nanj), unless every falling factorial
    that multiplies it is 0: then, and only after the power of some
    exponent has raised or come back non-finite, the table takes the powers
    of the live exponents alone.
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
        try:
            # a zero ff masks the stand-in 0 for 0^(negative)
            powers = np.array([[c ** x if c != 0 or x >= 0 else 0j for x in ints]
                               for c in coords], dtype=complex)
            representable = np.isfinite(powers).all()
        except (OverflowError, ZeroDivisionError):
            representable = False
        if not representable:
            live = set(k[ff != 0].tolist())  # a dead power stands in as 0
            powers = np.array([[c ** x if y in live else 0j for y, x in zip(exps, ints)]
                               for c in coords], dtype=complex)
        powers = powers.reshape(len(coords), len(ints))
        # in place: one (points, orders, support) temporary, not two
        factor = powers[:, np.searchsorted(exps, k)]
        factor *= ff
        T *= factor
    return T


def span_residual(fs: Sequence[LaurentPoly], basis: Sequence[LaurentPoly]) -> List[float]:
    """Relative least-squares residual of each f in fs against span(basis).

    One lstsq with a matrix right-hand side over the joint support of fs
    and the basis.  A residual whose norms overflow raises OverflowError:
    NaN would pass every tolerance test.
    """
    fs = list(fs)
    support = joint_support(list(basis) + fs)
    A, _ = coeff_matrix(basis, support)
    B, _ = coeff_matrix(fs, support)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, *_ = np.linalg.lstsq(A, B, rcond=None)
        res = np.linalg.norm(A @ coeffs - B, axis=0)
        scale = np.linalg.norm(B, axis=0)
    if not (np.all(np.isfinite(res)) and np.all(np.isfinite(scale))):
        raise OverflowError("span residual overflows")
    rel = np.divide(res, scale, out=res.copy(), where=scale > 0)
    return rel.tolist()


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
