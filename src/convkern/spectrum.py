"""Zeros with D-invariant multiplicity spaces, dual-condition verification,
Hermite fundamental polynomials, and kernel assembly.

The central object is a spectrum: finitely many exponential bases theta with
multiplicity spaces Q_theta.  A filter set is annihilating-compatible with a
spectrum when every dual condition q(D) h*(theta^-1) vanishes; the kernel of
the filter set is then assembled as the direct sum of the spaces
P_theta e_theta and certified against the filters by the window oracle.
certify_kernel is the one place that decides this certificate, dual
conditions at tol and the oracle at max(tol, ORACLE_TOL); the verify command
reports its records and kernel_basis raises on them.

The collocation matrix of the Hermite problem and the dual matrix of the
fundamentals are built block by block, one block per zero, from the jet
tables of linalg.diff_table; verify_zero_dim evaluates its conditions one by
one through dual_apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .apolar import DInvariantSpace, ortho_homog_basis
from .filters import ORACLE_TOL, ExpPolySeq, Impulse, kernel_residual, symbol
from .linalg import (coeff_matrix, dual_rows, from_coeff_vector, monomials_upto,
                     numerical_rank, nullspace)
from .mpoly import LaurentPoly, apply_poly_diff, laurent_normalize

DEFAULT_TOL = 1e-9
RANK_TOL = 1e-10
# The fundamentals' dual matrix must be the identity to this accuracy.
KRONECKER_TOL = 1e-8

# Fixed by the annihilation calibration on the worked triple-zero example
# (see tests/test_calibration.py): the convention with the final sign flip
# is the one under which the annihilation equivalence holds.
DEFAULT_CONVENTION = "with_sigma_minus"


@dataclass(frozen=True)
class Zero:
    """An exponential base theta with its multiplicity space Q_theta.

    Dual conditions attached to the zero are evaluated at the componentwise
    inverse theta^-1.
    """

    theta: Tuple[complex, ...]
    mult: DInvariantSpace

    def __post_init__(self):
        theta = tuple(complex(t) for t in self.theta)
        if any(t == 0 for t in theta):
            raise ValueError("theta must lie in C_x^s")
        if len(theta) != self.mult.dim:
            raise ValueError("theta / multiplicity dimension mismatch")
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return self.mult.dim

    @property
    def point(self) -> Tuple[complex, ...]:
        return tuple(1.0 / t for t in self.theta)


@dataclass(frozen=True)
class Spectrum:
    """Finitely many zeros with pairwise distinct theta."""

    zeros: Tuple[Zero, ...]

    def __post_init__(self):
        zeros = tuple(self.zeros)
        dims = {z.dim for z in zeros}
        if len(dims) > 1:
            raise ValueError("mixed dimensions in spectrum")
        for i in range(len(zeros)):
            for j in range(i + 1, len(zeros)):
                dist = max(abs(a - b) for a, b in zip(zeros[i].theta, zeros[j].theta))
                if dist <= 1e-12:
                    raise ValueError(f"duplicate theta at positions {i} and {j}")
        object.__setattr__(self, "zeros", zeros)

    @property
    def dim(self) -> int:
        if not self.zeros:
            raise ValueError("empty spectrum has no dimension")
        return self.zeros[0].dim

    @property
    def total_multiplicity(self) -> int:
        return sum(z.mult.size for z in self.zeros)

    def max_degree(self) -> int:
        return max((z.mult.degree() for z in self.zeros), default=0)


def dual_apply(q: LaurentPoly, f: LaurentPoly, point: Sequence[complex]) -> complex:
    """(q(D) f)(point)."""
    return apply_poly_diff(q, f).evaluate(point)


def _normalized_symbol(h: Impulse) -> LaurentPoly:
    g, _ = laurent_normalize(symbol(h))
    return g


def _dual_scale(g: LaurentPoly, point: Sequence[complex]) -> float:
    """1 + Σ |c| |point^exp| over the terms of g.  Each power product starts
    from 1 and skips zero exponents, as LaurentPoly.evaluate of the monomial
    does, so the scale is bit-identical without building the monomial."""
    z = [complex(v) for v in point]
    return 1.0 + sum(abs(c) * abs(math.prod(v ** e for v, e in zip(z, exp) if e))
                     for exp, c in g.terms.items())


def _ortho_bases(spec: Spectrum) -> List[List[LaurentPoly]]:
    """The orthonormal homogeneous basis of every zero's space, in order."""
    return [ortho_homog_basis(zero.mult) for zero in spec.zeros]


def verify_zero_dim(H: Sequence[Impulse], spec: Spectrum,
                    tol: float = DEFAULT_TOL) -> Dict:
    """Check q(D) h*(theta^-1) = 0 over all filters, zeros, and orthonormal
    basis elements.  Symbols are Laurent-normalized first so that spurious
    zeros at the origin cannot interfere."""
    dims = {h.dim for h in H}
    if len(dims) != 1 or (spec.zeros and spec.dim not in dims):
        raise ValueError("filters and spectrum must share one dimension")
    bases = _ortho_bases(spec)
    records = []
    ok = True
    for hi, h in enumerate(H):
        g = _normalized_symbol(h)
        for zi, zero in enumerate(spec.zeros):
            scale = _dual_scale(g, zero.point)
            for qi, q in enumerate(bases[zi]):
                val = dual_apply(q, g, zero.point)
                passed = abs(val) <= tol * scale
                ok = ok and passed
                records.append({"filter": hi, "zero": zi, "q": qi,
                                "value": val, "residual": abs(val),
                                "tolerance": tol * scale, "pass": passed})
    return {"pass": ok, "conditions": records}


def _functional_rows(spec: Spectrum, bases: List[List[LaurentPoly]],
               support: Sequence) -> np.ndarray:
    """Rows: dual functionals (zero, q) with q from bases, one block per
    zero; columns: the monomials of support."""
    if not spec.zeros:
        return np.zeros((0, len(support)), dtype=complex)
    return np.vstack([dual_rows(basis, support, zero.point)
                      for zero, basis in zip(spec.zeros, bases)])


def _collocation_matrix(spec: Spectrum, degree: int,
                        bases: List[List[LaurentPoly]]) -> Tuple[np.ndarray, list]:
    """Rows: dual functionals (zero, q) with q from bases; columns: monomials
    of Pi_degree."""
    monos = monomials_upto(spec.dim, degree)
    return _functional_rows(spec, bases, monos), monos


@dataclass(frozen=True)
class FundamentalSystem:
    """Hermite fundamental polynomials f_(theta,q) dual to the spectrum's
    orthonormal conditions: q'(D) f_(theta,q)(theta'^-1) = delta delta."""

    spec: Spectrum
    polys: Tuple[Tuple[int, int, LaurentPoly], ...]  # (zero index, q index, poly)

    def poly(self, zero_index: int, q_index: int) -> LaurentPoly:
        for zi, qi, p in self.polys:
            if zi == zero_index and qi == q_index:
                return p
        raise KeyError((zero_index, q_index))

    def dual_matrix(self) -> np.ndarray:
        """Evaluations of all dual functionals on all fundamentals; identity
        up to numerical error.  The jets of the fundamentals' joint support
        times their coefficient matrix."""
        C, support = coeff_matrix([p for _, _, p in self.polys])
        return _functional_rows(self.spec, _ortho_bases(self.spec), support) @ C


def hermite_fundamentals(spec: Spectrum) -> FundamentalSystem:
    """Minimal-degree fundamentals via the collocation matrix, increasing the
    degree until the dual functionals become independent; minimum-norm
    solutions break ties."""
    if not spec.zeros:
        return FundamentalSystem(spec, ())
    n = spec.total_multiplicity
    d0 = spec.max_degree()
    bases = _ortho_bases(spec)
    for d in range(d0, d0 + n + 1):
        V, monos = _collocation_matrix(spec, d, bases)
        if numerical_rank(V, RANK_TOL) == n:
            pinv = np.linalg.pinv(V, rcond=RANK_TOL)
            polys = []
            idx = 0
            for zi, zero in enumerate(spec.zeros):
                for qi in range(zero.mult.size):
                    coeffs = pinv[:, idx]
                    polys.append((zi, qi, from_coeff_vector(spec.dim, coeffs, monos)))
                    idx += 1
            return FundamentalSystem(spec, tuple(polys))
    raise ValueError("dual functionals never reached full rank; "
                     "spectrum is inconsistent (duplicate or degenerate zeros)")


def ideal_complement_filters(spec: Spectrum, count: int, max_degree: int) -> List[Impulse]:
    """Filters whose symbols are annihilated by every dual functional of the
    spectrum, drawn from the nullspace of the collocation matrix over
    Pi_max_degree."""
    V, monos = _collocation_matrix(spec, max_degree, _ortho_bases(spec))
    if len(monos) <= spec.total_multiplicity:
        raise ValueError("max_degree leaves no room beyond the multiplicity")
    null = nullspace(V, RANK_TOL)
    if null.shape[1] < count:
        raise ValueError(f"nullspace dimension {null.shape[1]} < requested {count}")
    out = []
    for k in range(count):
        f = from_coeff_vector(spec.dim, null[:, k], monos)
        out.append(Impulse(spec.dim, dict(f.terms)))
    return out


def certify_kernel(H: Sequence[Impulse], spec: Spectrum,
                   convention: Optional[str] = None,
                   tol: float = DEFAULT_TOL, pad: int = 0) -> Dict:
    """Decide ker H >= direct sum of P_theta e_theta for the spectrum.

    Returns the dual-condition records of verify_zero_dim under
    "conditions".  When they all pass, "oracle" holds one window-oracle
    record per element p of every P_theta (theta, degree, residual,
    tolerance, pass), checked against max(tol, ORACLE_TOL) times
    max(1, |h|_1 over H) max(1, |p|), and "kernel" the (theta, P_theta)
    bases; otherwise both are empty.
    """
    from .newton import build_p_theta

    convention = convention or DEFAULT_CONVENTION
    report = verify_zero_dim(H, spec, tol=tol)
    oracle, kernel = [], []
    if report["pass"]:
        h_scale = max(1.0, max(h.l1() for h in H))
        for zero in spec.zeros:
            P = build_p_theta(zero.mult, zero.theta, convention)
            residuals = kernel_residual(
                H, [ExpPolySeq.single(zero.theta, p) for p in P.elements], pad=pad)
            for p, (res, _) in zip(P.elements, residuals):
                bound = max(tol, ORACLE_TOL) * (h_scale * max(1.0, p.norm()))
                oracle.append({"theta": zero.theta, "degree": p.degree(),
                               "residual": res, "tolerance": bound,
                               "pass": res <= bound})
            kernel.append((zero.theta, P))
    return {"pass": report["pass"] and all(r["pass"] for r in oracle),
            "conditions": report["conditions"], "oracle": oracle, "kernel": kernel}


def kernel_basis(H: Sequence[Impulse], spec: Spectrum,
                 convention: Optional[str] = None,
                 tol: float = DEFAULT_TOL):
    """Assemble ker H = direct sum of P_theta e_theta with certify_kernel and
    return its (theta, P_theta) bases; raises unless every check passes."""
    cert = certify_kernel(H, spec, convention, tol)
    bad = [r for r in cert["conditions"] if not r["pass"]]
    if bad:
        raise ValueError(f"dual conditions fail for {len(bad)} (filter, zero, q) triples")
    for rec in cert["oracle"]:
        if not rec["pass"]:
            raise ValueError(f"kernel certificate failed at theta={rec['theta']}: "
                             f"residual {rec['residual']:.3e}")
    return cert["kernel"]


def quotient_dim_estimate(H: Sequence[Impulse], d: int) -> int:
    """dim Pi_d minus the rank of the degree-<=d monomial multiples of the
    normalized symbols; stabilizes at the total multiplicity for zero
    dimensional filter sets."""
    if not H:
        raise ValueError("empty filter set")
    dim = H[0].dim
    # Lift negative exponents but keep positive monomial factors: the
    # estimate works on the symbols as given.
    gens = []
    for h in H:
        f = symbol(h)
        shift = tuple(-min(0, min((exp[j] for exp in f.terms), default=0))
                      for j in range(dim))
        gens.append(LaurentPoly.monomial(dim, shift) * f)
    if any(g.degree() > d for g in gens):
        raise ValueError("degree bound below a symbol degree")
    monos = monomials_upto(dim, d)
    products = []
    for g in gens:
        room = d - g.degree()
        for gamma in monomials_upto(dim, room):
            products.append(LaurentPoly.monomial(dim, gamma) * g)
    A, _ = coeff_matrix(products, monos)
    return len(monos) - numerical_rank(A, RANK_TOL)
