"""Apolar (Bombieri) inner product and D-invariant multiplicity spaces.

The inner product (f, g) = sum_alpha alpha! f_alpha conj(g_alpha) makes
multiplication adjoint to differentiation and is degree-orthogonal on
homogeneous polynomials, which is what makes degree-graded Gram-Schmidt
work.  On real inputs the conjugation is a no-op and the form is the usual
bilinear one.

DInvariantSpace.ortho_basis is ortho_homog_basis, computed once, on first
use; every reader of the orthonormal basis shares it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .linalg import coeff_matrix, monomials_upto, numerical_rank, span_residual
from .mpoly import LaurentPoly, apply_poly_diff, multi_factorial

SPAN_TOL = 1e-8

# ortho_homog_basis drops a candidate whose re-orthogonalized Bombieri norm is
# at most ORTHO_DROP_TOL max(1, its own norm): it lies in the span so far.
ORTHO_DROP_TOL = 1e-12


def bombieri(f: LaurentPoly, g: LaurentPoly) -> complex:
    """(f, g) = sum_alpha alpha! f_alpha conj(g_alpha)."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    f._require_poly()
    g._require_poly()
    total = 0j
    small, large = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
    for exp, c in small.items():
        other = large.get(exp)
        if other is not None:
            fa = f.terms[exp]
            ga = g.terms[exp]
            total += multi_factorial(exp) * fa * ga.conjugate()
    return total


def bombieri_norm(f: LaurentPoly) -> float:
    return float(bombieri(f, f).real) ** 0.5


def adjoint_check(p: LaurentPoly, f: LaurentPoly, g: LaurentPoly) -> float:
    """|(p(D)f, g) - (f, conj(p) g)|; zero in exact arithmetic."""
    lhs = bombieri(apply_poly_diff(p, f), g)
    rhs = bombieri(f, p.conjugate() * g)
    return abs(lhs - rhs)


def is_d_invariant(basis: Sequence[LaurentPoly]) -> Tuple[bool, Optional[Tuple[LaurentPoly, int]]]:
    """Check closure of span(basis) under all first partials, to SPAN_TOL.

    Returns (True, None) on success, else (False, (q, j)) for a basis
    element q whose j-th partial leaves the span.  Requires a linearly
    independent basis.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("empty basis")
    A, _ = coeff_matrix(basis)
    if numerical_rank(A) < len(basis):
        raise ValueError("basis is linearly dependent")
    dim = basis[0].dim
    for q in basis:
        for j in range(dim):
            alpha = [0] * dim
            alpha[j] = 1
            dq = q.diff(alpha)
            if dq.is_zero:
                continue
            rel, _ = span_residual(dq, basis)
            if rel > SPAN_TOL:
                return False, (q, j)
    return True, None


@dataclass(frozen=True)
class DInvariantSpace:
    """A finite-dimensional polynomial space closed under differentiation."""

    basis: Tuple[LaurentPoly, ...]
    _checked: bool = field(default=False, compare=False)

    def __post_init__(self):
        basis = tuple(self.basis)
        if not basis:
            raise ValueError("empty basis")
        dims = {p.dim for p in basis}
        if len(dims) != 1:
            raise ValueError("mixed dimensions in basis")
        for p in basis:
            p._require_poly()
            if p.is_zero:
                raise ValueError("zero polynomial in basis")
        object.__setattr__(self, "basis", basis)
        if not self._checked:
            ok, witness = is_d_invariant(basis)
            if not ok:
                q, j = witness
                raise ValueError(f"not D-invariant: partial {j} of {q!r} leaves the span")

    @property
    def dim(self) -> int:
        return self.basis[0].dim

    @property
    def size(self) -> int:
        return len(self.basis)

    def degree(self) -> int:
        return max(p.degree() for p in self.basis)

    def contains(self, f: LaurentPoly) -> bool:
        rel, _ = span_residual(f, self.basis)
        return rel <= SPAN_TOL

    @cached_property
    def ortho_basis(self) -> Tuple[LaurentPoly, ...]:
        """The Bombieri-orthonormal homogeneous basis, computed once."""
        return tuple(ortho_homog_basis(self))


def lower_set_space(dim: int, exponents: Sequence[Sequence[int]]) -> DInvariantSpace:
    """Monomial span of a lower (divisibility-closed) exponent set."""
    basis = [LaurentPoly.monomial(dim, exp) for exp in exponents]
    return DInvariantSpace(tuple(basis))


def fat_point_space(dim: int, order: int) -> DInvariantSpace:
    """Pi_k: every polynomial of total degree <= order."""
    basis = [LaurentPoly.monomial(dim, exp) for exp in monomials_upto(dim, order)]
    return DInvariantSpace(tuple(basis), _checked=True)


def ortho_homog_basis(space: DInvariantSpace) -> List[LaurentPoly]:
    """Bombieri-orthonormal homogeneous basis of a D-invariant space.

    Splits the basis elements into homogeneous components, checks that the
    components do not enlarge the span (a D-invariant multiplicity space is
    homogeneously generated), and orthonormalizes degree by degree with
    two-pass Gram-Schmidt.
    """
    components: List[LaurentPoly] = []
    for p in space.basis:
        for d in range(p.degree() + 1):
            comp = p.homogeneous_component(d)
            if not comp.is_zero:
                components.append(comp)
    A, _ = coeff_matrix(components)
    if numerical_rank(A) != space.size:
        raise ValueError("space is not spanned by homogeneous polynomials")

    by_degree: dict[int, List[LaurentPoly]] = {}
    for comp in components:
        by_degree.setdefault(comp.degree(), []).append(comp)

    out: List[LaurentPoly] = []
    for d in sorted(by_degree):
        block: List[LaurentPoly] = []
        for cand in by_degree[d]:
            q = cand
            for _ in range(2):  # two-pass re-orthogonalization
                for e in block:
                    q = q - e.scale(bombieri(q, e))
            nrm = bombieri_norm(q)
            if nrm > ORTHO_DROP_TOL * max(1.0, bombieri_norm(cand)):
                block.append(q.scale(1.0 / nrm))
        out.extend(block)
    if len(out) != space.size:
        raise ValueError("orthogonalization lost rank; basis ill-conditioned")
    return out


def ortho_expansion_residual(space: DInvariantSpace, f: LaurentPoly) -> float:
    """Residual of the reconstruction f = sum_q (q(D)f)(0) q over the orthonormal basis."""
    origin = [0.0] * space.dim
    recon = LaurentPoly.zero(space.dim)
    for q in space.ortho_basis:
        recon = recon + q.scale(apply_poly_diff(q.conjugate(), f).evaluate(origin))
    return (recon - f).norm()


def taylor_identity_residual(space: DInvariantSpace, f: LaurentPoly,
                             x: Sequence[complex], y: Sequence[complex]) -> float:
    """|f(x+y) - sum_q (q(D)f)(y) q(x)| over the orthonormal basis."""
    if not space.contains(f):
        raise ValueError("f is not in the span of the space")
    xy = [complex(a) + complex(b) for a, b in zip(x, y)]
    total = 0j
    for q in space.ortho_basis:
        total += apply_poly_diff(q.conjugate(), f).evaluate(y) * q.evaluate(x)
    return abs(f.evaluate(xy) - total)
