"""Zeros with D-invariant multiplicity spaces, dual-condition verification,
Hermite fundamental polynomials, and kernel assembly.

The central object is a spectrum: finitely many exponential bases theta with
multiplicity spaces Q_theta.  A filter set is annihilating-compatible with a
spectrum when every dual condition q(D) h*(theta^-1) vanishes; the kernel of
the filter set is then assembled as the direct sum of the spaces
P_theta e_theta and certified against the filters by the window oracle.
certify_kernel is the one place that decides this certificate, dual
conditions at tol and the oracle at max(tol, ORACLE_TOL); the verify command
reports its records and kernel_basis raises on them.  certify_eigen decides
the eigen command as the same certificate for the one impulse
h - lam delta_{-alpha_h}: its dual conditions from verify_zero_dim and the
oracle of e_theta at certify_kernel's tolerance.  certify_hermite likewise
decides the Kronecker check of the Hermite fundamentals, at KRONECKER_TOL,
for the hermite command.

The collocation matrix of the Hermite problem and the dual matrix of the
fundamentals are built block by block, one block per zero, from one jet
table (linalg.diff_tables) per distinct multiplicity space over the points
of its zeros; the Hermite degree search starts at the first degree with
enough monomials and refuses a degree whose matrix would have more than
MAX_COLLOCATION_ENTRIES entries with a ValueError, an input error like
every other.  A search that never reaches full rank is a verdict, not an
error: hermite_fundamentals returns None and certify_hermite a failed
record.  The fundamentals keep the collocation matrix they were solved
from, and their dual matrix is that matrix times their coefficients.
verify_zero_dim builds one q(D) h per (filter, shared multiplicity space,
q) through dual_apply and evaluates it at the points of every zero of that
space; its tolerances read |theta^-e| from one moduli table per zero,
filled once per exponent of the filters' joint support.  certify_kernel
checks the P_theta of every zero in one oracle call.  The dual functionals
come from each zero's DInvariantSpace.ortho_basis and the symbols from each
filter's normalized_symbol (a filter is its symbol, a LaurentPoly), each
computed once by the object that owns it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .apolar import DInvariantSpace
from .filters import (DEFAULT_TOL, ORACLE_TOL, eigen_impulse, eigen_residual,
                      kernel_residual, require_window_pairs)
from .linalg import (RANK_TOL, coeff_matrix, diff_tables, from_coeff_vector,
                     monomials_upto, numerical_rank, nullspace)
from .mpoly import Exponent, LaurentPoly, apply_poly_diff

# The fundamentals' dual matrix must be the identity to this accuracy.
KRONECKER_TOL = 1e-8

# Most entries n dim Pi_d of the Hermite collocation matrix at degree d, n
# the total multiplicity; the degree search refuses a degree above it
# before building that matrix.
MAX_COLLOCATION_ENTRIES = 10 ** 5


# Two zeros of a Spectrum whose theta differ by at most this much in every
# component are duplicates.
DUPLICATE_THETA_TOL = 1e-12


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
                if dist <= DUPLICATE_THETA_TOL:
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


def dual_apply(q: LaurentPoly, f: LaurentPoly,
               points: Sequence[Sequence[complex]]) -> List[complex]:
    """[(q(D) f)(p) for p in points], with q(D) f built once."""
    qf = apply_poly_diff(q, f)
    return [qf.evaluate(p) for p in points]


def _shared_spaces(spec: Spectrum) -> List[Tuple[DInvariantSpace, List[int]]]:
    """The zeros grouped by their DInvariantSpace object: (space, indices of
    its zeros), in order of first occurrence.  Equal Q_basis share one
    object in a parsed spectrum."""
    shared: Dict[int, Tuple[DInvariantSpace, List[int]]] = {}
    for zi, zero in enumerate(spec.zeros):
        shared.setdefault(id(zero.mult), (zero.mult, []))[1].append(zi)
    return list(shared.values())


def verify_zero_dim(H: Sequence[LaurentPoly], spec: Spectrum,
                    tol: float = DEFAULT_TOL) -> Dict:
    """Check q(D) h*(theta^-1) = 0 over all filters, zeros, and orthonormal
    basis elements, each at tol (1 + sum |c| |theta^-e|) over the terms
    c z^e of the normalized symbol.  Symbols are Laurent-normalized first so that
    spurious zeros at the origin cannot interfere; a zero filter annihilates
    every sequence, and its conditions read 0.

    |theta^-e| is computed once per (zero, exponent), when the first filter
    with that exponent reaches the zero, so no power is taken before the
    filters ahead of it have been evaluated; its power product starts from 1
    and skips zero exponents, as LaurentPoly.evaluate of the monomial does,
    and the sum runs over the terms in order."""
    if not H:
        raise ValueError("empty filter set")
    dims = {h.dim for h in H}
    if len(dims) != 1:
        raise ValueError("filters have mixed dimensions")
    if spec.zeros and spec.dim not in dims:
        raise ValueError("filter and spectrum dimensions differ")
    points = [zero.point for zero in spec.zeros]
    shared = _shared_spaces(spec)
    moduli: List[Dict] = [{} for _ in points]  # moduli[zi][exp] = |theta_zi^-exp|
    records = []
    ok = True
    for hi, h in enumerate(H):
        g = h.normalized_symbol if h.terms else h
        # values[zi][qi]: one q(D) g per (shared space, q), at all its points
        values: List[List[complex]] = [[] for _ in points]
        for space, indices in shared:
            at = [points[zi] for zi in indices]
            for q in space.ortho_basis:
                for zi, val in zip(indices, dual_apply(q, g, at)):
                    values[zi].append(val)
        weights = [abs(c) for c in g.terms.values()]
        for zi, point in enumerate(points):
            table = moduli[zi]
            for exp in g.terms.keys() - table.keys():
                table[exp] = abs(math.prod(v ** e for v, e in zip(point, exp) if e))
            bound = tol * (1.0 + sum(map(mul, weights, map(table.__getitem__, g.terms))))
            for qi, val in enumerate(values[zi]):
                residual = abs(val)
                passed = residual <= bound
                ok = ok and passed
                records.append({"filter": hi, "zero": zi, "q": qi, "value": val,
                                "residual": residual, "tolerance": bound, "pass": passed})
    return {"pass": ok, "conditions": records}


def _functional_rows(spec: Spectrum, support: Sequence) -> np.ndarray:
    """Rows: dual functionals (zero, q) with q from the zero's ortho_basis,
    one block per zero, in zero order; columns: the monomials of support.

    Zeros that share a DInvariantSpace share one jet table over their
    points; each block is the 2-D product Q^T T[point], exactly that of a
    table built for its zero alone."""
    if not spec.zeros:
        return np.zeros((0, len(support)), dtype=complex)
    blocks: List[np.ndarray] = [None] * len(spec.zeros)
    for space, indices in _shared_spaces(spec):
        Q, orders = coeff_matrix(space.ortho_basis)
        T = diff_tables(orders, support, [spec.zeros[zi].point for zi in indices])
        for zi, table in zip(indices, T):
            blocks[zi] = Q.T @ table
    return np.vstack(blocks)


@dataclass(frozen=True)
class FundamentalSystem:
    """Hermite fundamental polynomials f_(theta,q) dual to the spectrum's
    orthonormal conditions: q'(D) f_(theta,q)(theta'^-1) = delta delta.

    V is the collocation matrix the fundamentals were solved from: one row
    per dual functional, in zero order, and one column per monomial of
    monos, the exponents of total degree at most the solved degree."""

    spec: Spectrum
    polys: Tuple[Tuple[int, int, LaurentPoly], ...]  # (zero index, q index, poly)
    monos: Tuple[Exponent, ...]
    V: np.ndarray = field(compare=False, repr=False)

    def poly(self, zero_index: int, q_index: int) -> LaurentPoly:
        for zi, qi, p in self.polys:
            if zi == zero_index and qi == q_index:
                return p
        raise KeyError((zero_index, q_index))

    def dual_matrix(self) -> np.ndarray:
        """Evaluations of all dual functionals on all fundamentals; identity
        up to numerical error.  The stored collocation matrix V times the
        fundamentals' coefficient matrix over monos."""
        C, _ = coeff_matrix([p for _, _, p in self.polys], self.monos)
        return self.V @ C


def hermite_fundamentals(spec: Spectrum) -> Optional[FundamentalSystem]:
    """Minimal-degree fundamentals via the collocation matrix, increasing the
    degree until the dual functionals become independent; minimum-norm
    solutions break ties.  The search starts at the first degree d >= max
    deg Q_theta with dim Pi_d >= n, the total multiplicity, and ends at
    max deg Q_theta + n; None when no degree reaches rank n.  A degree whose
    collocation matrix has more than MAX_COLLOCATION_ENTRIES entries
    n dim Pi_d raises ValueError before it is built."""
    if not spec.zeros:
        return FundamentalSystem(spec, (), (), np.zeros((0, 0), dtype=complex))
    n = spec.total_multiplicity
    d0 = spec.max_degree()
    # rank V <= dim Pi_d = comb(d + s, s), so no degree below the first with
    # at least n monomials can reach rank n
    start = d0
    while math.comb(start + spec.dim, spec.dim) < n:
        start += 1
    for d in range(start, d0 + n + 1):
        entries = n * math.comb(d + spec.dim, spec.dim)
        if entries > MAX_COLLOCATION_ENTRIES:
            raise ValueError(
                f"the Hermite collocation matrix at degree {d} has {entries} entries, "
                f"above the limit of {MAX_COLLOCATION_ENTRIES}")
        monos = monomials_upto(spec.dim, d)
        V = _functional_rows(spec, monos)
        if numerical_rank(V) == n:
            pinv = np.linalg.pinv(V, rcond=RANK_TOL)
            polys = []
            idx = 0
            for zi, zero in enumerate(spec.zeros):
                for qi in range(zero.mult.size):
                    coeffs = pinv[:, idx]
                    polys.append((zi, qi, from_coeff_vector(spec.dim, coeffs, monos)))
                    idx += 1
            return FundamentalSystem(spec, tuple(polys), tuple(monos), V)
    return None


def certify_hermite(spec: Spectrum) -> Dict:
    """Decide that the Hermite fundamentals of the spectrum are dual to its
    conditions: the largest entry of |dual_matrix - I| against
    KRONECKER_TOL.

    Returns the FundamentalSystem under "system", its dual matrix under
    "dual" and one record (residual, tolerance, pass) under "kronecker";
    when hermite_fundamentals finds none, only "error", why, and "pass",
    False.  A ValueError, the input refused, is raised.
    """
    system = hermite_fundamentals(spec)
    if system is None:
        return {"pass": False, "error": "dual functionals never reached full rank; "
                "spectrum is inconsistent (duplicate or degenerate zeros)"}
    dual = system.dual_matrix()
    worst = float(np.max(np.abs(dual - np.eye(dual.shape[0])), initial=0.0))
    kronecker = {"residual": worst, "tolerance": KRONECKER_TOL, "pass": worst <= KRONECKER_TOL}
    return {"pass": kronecker["pass"], "system": system, "dual": dual, "kronecker": kronecker}


def ideal_complement_filters(spec: Spectrum, count: int, max_degree: int) -> List[LaurentPoly]:
    """Filters whose symbols are annihilated by every dual functional of the
    spectrum, drawn from the nullspace of the collocation matrix over
    Pi_max_degree."""
    monos = monomials_upto(spec.dim, max_degree)
    V = _functional_rows(spec, monos)
    if len(monos) <= spec.total_multiplicity:
        raise ValueError("max_degree leaves no room beyond the multiplicity")
    null = nullspace(V)
    if null.shape[1] < count:
        raise ValueError(f"nullspace dimension {null.shape[1]} < requested {count}")
    return [from_coeff_vector(spec.dim, null[:, k], monos) for k in range(count)]


def require_kernel_windows(spec: Spectrum, pad: int = 0) -> int:
    """The (row, window point) count of the spectrum's kernel windows: one
    row per orthonormal basis element q of every zero, the P_theta element
    built from it having q's degree; raises ValueError above
    MAX_WINDOW_PAIRS."""
    if not spec.zeros:
        return 0
    rows = Counter(q.degree() for zero in spec.zeros for q in zero.mult.ortho_basis)
    return require_window_pairs(spec.dim, pad, rows.items())


def certify_kernel(H: Sequence[LaurentPoly], spec: Spectrum,
                   tol: float = DEFAULT_TOL, pad: int = 0) -> Dict:
    """Decide ker H >= direct sum of P_theta e_theta for the spectrum.

    Returns the dual-condition records of verify_zero_dim under
    "conditions".  When they all pass, "oracle" holds one window-oracle
    record per element p of every P_theta (theta, degree, residual,
    tolerance, pass), checked against max(tol, ORACLE_TOL) times
    max(1, |h|_1 over H) max(1, |p|), and "kernel" the (theta, P_theta)
    bases; otherwise both are empty.  Kernel windows over more than
    MAX_WINDOW_PAIRS (row, window point) pairs raise ValueError before any
    window is built.
    """
    from .newton import build_p_theta

    report = verify_zero_dim(H, spec, tol=tol)
    require_kernel_windows(spec, pad)
    oracle, kernel = [], []
    if report["pass"]:
        h_scale = max(1.0, max(h.l1() for h in H))
        kernel = [(zero.theta, build_p_theta(zero.mult, zero.theta)) for zero in spec.zeros]
        # one oracle stack over the elements of every zero's P_theta
        elements = [(theta, p) for theta, P in kernel for p in P.elements]
        for (theta, p), res in zip(elements, kernel_residual(H, elements, pad=pad)):
            bound = max(tol, ORACLE_TOL) * (h_scale * max(1.0, p.norm()))
            oracle.append({"theta": theta, "degree": p.degree(),
                           "residual": res, "tolerance": bound, "pass": res <= bound})
    return {"pass": report["pass"] and all(r["pass"] for r in oracle),
            "conditions": report["conditions"], "oracle": oracle, "kernel": kernel}


def certify_eigen(h: LaurentPoly, theta: Sequence[complex], Q: DInvariantSpace, lam: complex,
                  alpha_h: Sequence[int], tol: float = DEFAULT_TOL, pad: int = 0) -> Dict:
    """Decide that e_theta is an eigen-sequence of h with eigenvalue lam and
    shift alpha_h, as the kernel certificate of h' = eigen_impulse(h, lam,
    alpha_h).

    Returns the verify_zero_dim records of h' at (theta, Q) under
    "conditions", and under "oracle" one record (residual, tolerance, pass)
    of the eigen_residual of e_theta, at certify_kernel's oracle tolerance
    for h'.  The oracle checks e_theta only, not every element of P_theta,
    and runs whether or not the conditions pass.  A window {0..pad}^s of
    more than MAX_WINDOW_PAIRS points raises ValueError.
    """
    require_window_pairs(h.dim, pad, [(0, 1)])
    shifted = eigen_impulse(h, lam, alpha_h)
    zero = Zero(theta, Q)
    conditions = verify_zero_dim([shifted], Spectrum((zero,)), tol)["conditions"]
    res, = eigen_residual(h, lam, alpha_h, [(zero.theta, LaurentPoly.constant(h.dim, 1.0))], pad)
    # certify_kernel's bound at p = 1, whose norm is 1
    bound = max(tol, ORACLE_TOL) * max(1.0, shifted.l1())
    oracle = {"residual": res, "tolerance": bound, "pass": res <= bound}
    return {"pass": all(r["pass"] for r in conditions) and oracle["pass"],
            "conditions": conditions, "oracle": oracle}


def kernel_basis(H: Sequence[LaurentPoly], spec: Spectrum, tol: float = DEFAULT_TOL):
    """Assemble ker H = direct sum of P_theta e_theta with certify_kernel and
    return its (theta, P_theta) bases; raises unless every check passes."""
    cert = certify_kernel(H, spec, tol)
    bad = [r for r in cert["conditions"] if not r["pass"]]
    if bad:
        raise ValueError(f"dual conditions fail for {len(bad)} (filter, zero, q) triples")
    for rec in cert["oracle"]:
        if not rec["pass"]:
            raise ValueError(f"kernel certificate failed at theta={rec['theta']}: "
                             f"residual {rec['residual']:.3e}")
    return cert["kernel"]


def quotient_dim_estimate(H: Sequence[LaurentPoly], d: int) -> int:
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
        shift = tuple(-min(0, min((exp[j] for exp in h.terms), default=0))
                      for j in range(dim))
        gens.append(LaurentPoly.monomial(dim, shift) * h)
    if any(g.degree() > d for g in gens):
        raise ValueError("degree bound below a symbol degree")
    monos = monomials_upto(dim, d)
    products = []
    for g in gens:
        room = d - g.degree()
        for gamma in monomials_upto(dim, room):
            products.append(LaurentPoly.monomial(dim, gamma) * g)
    A, _ = coeff_matrix(products, monos)
    return len(monos) - numerical_rank(A)
