"""Apolar (Bombieri) inner product and D-invariant multiplicity spaces.

The inner product (f, g) = sum_alpha alpha! f_alpha conj(g_alpha) makes
multiplication adjoint to differentiation and is degree-orthogonal on
homogeneous polynomials, which is what makes degree-graded Gram-Schmidt
work.  On real inputs the conjugation is a no-op and the form is the usual
bilinear one.

DInvariantSpace.ortho_basis is ortho_homog_basis, computed once, on first
use; every reader of the orthonormal basis shares it.  It exists only for a
space spanned by homogeneous polynomials, which not every D-invariant space
is: span{1, x1, x1^2 + x2} is accepted on construction, and the library
refuses it, with a ValueError, wherever its orthonormal basis is read.

A space is checked once, on construction: is_d_invariant tests every
nonzero first partial of the basis in one span_residual call, a single
least-squares solve with one right-hand side column per partial, and names
the first partial, in basis order, whose relative residual exceeds
SPAN_TOL.  ortho_homog_basis splits each basis polynomial by total degree in
one pass over its terms and skips the Gram-Schmidt steps whose inner product
is exactly 0, which leave the candidate's terms as they are.  A residual or
Bombieri norm that overflows raises OverflowError: as NaN it would pass
every tolerance test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

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
    return _bombieri(f, g)


def _bombieri(f: LaurentPoly, g: LaurentPoly) -> complex:
    """bombieri without its checks, for polynomials of one dimension with
    nonnegative exponents; sums over the terms of the shorter of the two."""
    total = 0j
    f_small = len(f.terms) <= len(g.terms)
    small, large = (f.terms, g.terms) if f_small else (g.terms, f.terms)
    for exp, a in small.items():
        b = large.get(exp)
        if b is not None:
            fa, ga = (a, b) if f_small else (b, a)
            total += multi_factorial(exp) * fa * ga.conjugate()
    return total


def _norm(square: complex) -> float:
    """sqrt of a Bombieri square (f, f); OverflowError when it is not finite."""
    nrm = float(square.real) ** 0.5
    if not math.isfinite(nrm):
        raise OverflowError("Bombieri norm overflows")
    return nrm


def bombieri_norm(f: LaurentPoly) -> float:
    return _norm(bombieri(f, f))


def adjoint_check(p: LaurentPoly, f: LaurentPoly, g: LaurentPoly) -> float:
    """|(p(D)f, g) - (f, conj(p) g)|; zero in exact arithmetic."""
    lhs = bombieri(apply_poly_diff(p, f), g)
    rhs = bombieri(f, p.conjugate() * g)
    return abs(lhs - rhs)


def is_d_invariant(basis: Sequence[LaurentPoly]
                   ) -> Tuple[bool, Optional[Tuple[LaurentPoly, int, float]]]:
    """Check closure of span(basis) under all first partials, to SPAN_TOL.

    Returns (True, None) on success, else (False, (q, j, rel)) for the first
    basis element q, in basis order, whose j-th partial leaves the span with
    relative residual rel > SPAN_TOL.  Every nonzero first partial is tested
    in one span_residual call.  Requires a linearly independent basis.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("empty basis")
    A, _ = coeff_matrix(basis)
    if numerical_rank(A) < len(basis):
        raise ValueError("basis is linearly dependent")
    dim = basis[0].dim
    partials, origins = [], []
    for q in basis:
        for j in range(dim):
            alpha = [0] * dim
            alpha[j] = 1
            dq = q.diff(alpha)
            if not dq.is_zero:
                partials.append(dq)
                origins.append((q, j))
    if partials:
        for (q, j), rel in zip(origins, span_residual(partials, basis)):
            if rel > SPAN_TOL:
                return False, (q, j, rel)
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
                q, j, rel = witness
                raise ValueError(f"not D-invariant: partial {j} of {q!r} leaves the span "
                                 f"with relative residual {rel:.3e} > SPAN_TOL = {SPAN_TOL:g}")

    @property
    def dim(self) -> int:
        return self.basis[0].dim

    @property
    def size(self) -> int:
        return len(self.basis)

    def degree(self) -> int:
        return max(p.degree() for p in self.basis)

    def contains(self, f: LaurentPoly) -> bool:
        rel, = span_residual([f], self.basis)
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
    components do not enlarge the span, and orthonormalizes degree by degree
    with two-pass Gram-Schmidt.  A D-invariant space need not be spanned by
    homogeneous polynomials (span{1, x1, x1^2 + x2} is not); such a space is
    refused with a ValueError.

    Each basis element is split in one pass over its terms, its components
    in ascending degree, each keeping the element's term order.  A step
    q - (q, e) e whose inner product is exactly 0 leaves q's terms as they
    are, so it is skipped, and so is the second pass when the first changed
    nothing: a monomial span is orthogonalized without one subtraction.
    The components come from a validated space, so the inner products are
    unchecked.
    """
    dim = space.dim
    components: List[LaurentPoly] = []
    by_degree: Dict[int, List[LaurentPoly]] = {}
    for p in space.basis:
        parts: Dict[int, Dict] = {}
        for exp, c in p.terms.items():
            parts.setdefault(sum(exp), {})[exp] = c
        for d in sorted(parts):
            comp = LaurentPoly._of(dim, parts[d])
            components.append(comp)
            by_degree.setdefault(d, []).append(comp)
    A, _ = coeff_matrix(components)
    if numerical_rank(A) != space.size:
        raise ValueError("space is not spanned by homogeneous polynomials")

    out: List[LaurentPoly] = []
    for d in sorted(by_degree):
        block: List[LaurentPoly] = []
        for cand in by_degree[d]:
            q = cand
            for _ in range(2):  # two-pass re-orthogonalization
                changed = False
                for e in block:
                    b = _bombieri(q, e)
                    if b:
                        q = q - e.scale(b)
                        changed = True
                if not changed:
                    break
            nrm = _norm(_bombieri(q, q))
            if nrm > ORTHO_DROP_TOL * max(1.0, _norm(_bombieri(cand, cand))):
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
