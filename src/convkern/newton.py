"""Forward differences, the Newton-to-monomial operator L, and the
shift-invariant spaces P_theta with their unimodular shift matrices G(y).

L rewrites the falling-factorial (Newton) coefficients of a polynomial as
monomial coefficients.  It is computed exactly in closed form: since
x^n = sum_k S(n, k) (x)_k with S the Stirling numbers of the second kind,
L x^beta = prod_j T_{beta_j}(x_j) with T_n(x) = sum_k S(n, k) x^k.  L is the
identity plus a strictly degree-lowering part, so its inverse is the finite
Neumann series, which ends after at most deg f steps.  forward_difference and
newton_coeffs compute the same coefficients from differences and stay as an
independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .apolar import DInvariantSpace
from .linalg import coeff_matrix, from_coeff_vector, joint_support, monomials_upto
from .mpoly import (Exponent, LaurentPoly, falling_factorial, grlex_key,
                    multi_factorial)

WITH_SIGMA_MINUS = "with_sigma_minus"
WITHOUT_SIGMA_MINUS = "without_sigma_minus"


def forward_difference(f: LaurentPoly, gamma: Sequence[int]) -> LaurentPoly:
    """Delta^gamma f via repeated f(. + e_j) - f."""
    gamma = tuple(int(g) for g in gamma)
    if min(gamma, default=0) < 0:
        raise ValueError("difference order must be nonnegative")
    f._require_poly()
    out = f
    for j, g in enumerate(gamma):
        step = [0.0] * f.dim
        step[j] = 1.0
        for _ in range(g):
            out = out.shift(step) - out
    return out


def newton_coeffs(f: LaurentPoly) -> Dict[Exponent, complex]:
    """Coefficients Delta^gamma f(0) / gamma! over |gamma| <= deg f.

    Reconstruction sum_gamma c_gamma (x)_gamma recovers f (Newton formula).
    """
    f._require_poly()
    out: Dict[Exponent, complex] = {}
    if f.is_zero:
        return out
    origin = [0.0] * f.dim
    deg = f.degree()
    for gamma in monomials_upto(f.dim, deg):
        val = forward_difference(f, gamma).evaluate(origin)
        if val != 0:
            out[gamma] = val / multi_factorial(gamma)
    return out


@lru_cache(maxsize=None)
def stirling2_row(n: int) -> Tuple[int, ...]:
    """(S(n, 0), ..., S(n, n)), Stirling numbers of the second kind, by
    S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    if n < 0:
        raise ValueError("Stirling row of negative order")
    if n == 0:
        return (1,)
    prev = stirling2_row(n - 1) + (0,)
    return (0,) + tuple(k * prev[k] + prev[k - 1] for k in range(1, n + 1))


@lru_cache(maxsize=None)
def _touchard(dim: int, j: int, n: int) -> LaurentPoly:
    """T_n(x_j) = sum_k S(n, k) x_j^k = L x_j^n."""
    terms = {}
    for k, c in enumerate(stirling2_row(n)):
        exp = [0] * dim
        exp[j] = k
        terms[tuple(exp)] = complex(c)
    return LaurentPoly._of(dim, terms)


def L_op(f: LaurentPoly) -> LaurentPoly:
    """L f = sum_gamma Delta^gamma f(0)/gamma! x^gamma, as
    sum_beta f_beta prod_j T_{beta_j}(x_j)."""
    f._require_poly()
    out: Dict[Exponent, complex] = {}
    one = (0,) * f.dim
    for beta, c in f.terms.items():
        image = LaurentPoly._of(f.dim, {one: c})
        for j, b in enumerate(beta):
            if b:
                image = image * _touchard(f.dim, j, b)
        for exp, v in image.terms.items():
            out[exp] = out.get(exp, 0) + v
    return LaurentPoly._of(f.dim, out)


def L_inv(f: LaurentPoly) -> LaurentPoly:
    """Unique g with L g = f, by the finite Neumann series of L - I.

    N = L - I strictly lowers total degree, and the top-degree terms of
    L c - c cancel exactly, so g = sum_k (-N)^k f terminates after at most
    deg f steps.
    """
    f._require_poly()
    g = f
    correction = f
    while not correction.is_zero:
        correction = -(L_op(correction) - correction)
        g = g + correction
    return g


@dataclass(frozen=True)
class PThetaBasis:
    """Basis of P_theta = sigma_- L^-1 sigma_theta Q_theta (or the variant
    without the final sign flip), tracking the exponential base theta."""

    theta: Tuple[complex, ...]
    elements: Tuple[LaurentPoly, ...]
    convention: str = WITH_SIGMA_MINUS

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @property
    def size(self) -> int:
        return len(self.elements)


def build_p_theta(Q: DInvariantSpace, theta: Sequence[complex],
                  convention: str = WITH_SIGMA_MINUS) -> PThetaBasis:
    """Image of the orthonormal basis of Q under sigma_theta, L^-1 and
    (depending on the convention) the sign flip sigma_-."""
    theta = tuple(complex(t) for t in theta)
    if len(theta) != Q.dim:
        raise ValueError("theta has wrong length")
    if any(t == 0 for t in theta):
        raise ValueError("theta must lie in C_x^s")
    if convention not in (WITH_SIGMA_MINUS, WITHOUT_SIGMA_MINUS):
        raise ValueError(f"unknown convention {convention!r}")
    elements = []
    for q in Q.ortho_basis:
        p = L_inv(q.scale_vars(theta))
        if convention == WITH_SIGMA_MINUS:
            p = p.sigma_minus()
        elements.append(p)
    return PThetaBasis(theta, tuple(elements), convention)


def shift_matrix(P: PThetaBasis, y: Sequence[complex]) -> np.ndarray:
    """G(y) with P(. + y) = G(y) P, i.e. G[i, j] = coefficient of P_j in
    P_i(. + y).  Solved by column-pivoted least squares on the coefficient
    vectors; a rank-deficient basis raises."""
    polys = list(P.elements)
    shifted = [p.shift(y) for p in polys]
    support = joint_support(polys + shifted)
    A, _ = coeff_matrix(polys, support)
    B, _ = coeff_matrix(shifted, support)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-12 * sv[0]:
        raise ValueError("P_theta basis is numerically dependent")
    G, *_ = np.linalg.lstsq(A, B, rcond=None)
    return G.T
