"""Discrete convolution by finitely supported filters, exponential-polynomial
sequences, and the certified-window annihilation oracle.

A filter is its symbol: Impulse is another name for mpoly.LaurentPoly, whose
terms are the taps h(alpha), and the product g * h of two filters is their
convolution.

The oracle rests on the identity h * (p e_theta) = e_theta * r with r a
polynomial of degree <= deg p: a residual that vanishes on the tensor grid
{0..deg p}^s therefore vanishes everywhere, which turns kernel membership
into a finite check.

Convolving an exponential-polynomial term p e_theta evaluates it at every
(window point, tap) pair with numpy, from per-coordinate tables of
x^e theta^x, in blocks of at most BLOCK_PAIRS pairs so that memory does not
grow with the window; each block is then one matrix product per filter with
its tap vector.

The oracle works on terms (theta, p), one row each, and on filter banks: a
FilterBank reads filters h_1..h_m as one vector-valued impulse whose taps
are the union of their supports.  convolve(bank, [(theta, p), ...], w)
builds the argument axes, the tables (once per distinct theta), the table
indices and each row's (point, tap) values once over that union, gathering
a theta's columns when its run of rows starts, and takes each filter's
product over its own columns; a single filter is the one-filter case.
kernel_residual(H, [(theta, p), ...]) stacks the terms that share a
certified window, whatever their theta, with one normalization row per
theta, makes one convolve per window for the whole of H (H split into
consecutive banks when one result would hold more than MAX_WINDOW_PAIRS
values) and returns one residual per term.  Each row of each filter gets
exactly the arithmetic of that filter and term alone, within one block, so
a residual does not depend on what is stacked with it.  A sequence of
several terms is checked through its .terms.

kernel_residual is the library's one window oracle.  An eigen-sequence c of
h with eigenvalue lam and shift alpha_h is a kernel element of the filter
eigen_impulse(h, lam, alpha_h) = h - lam delta_{-alpha_h}, so
eigen_residual is that filter's kernel_residual.  spectrum.certify_eigen
(whose conditions are that filter's dual conditions),
spectrum.certify_kernel and subdivision.subdivision_kernel_check all decide
their oracle checks through it, each at max(tol, ORACLE_TOL) times its
scale.  Each of them first counts the (row, window point) pairs of its
windows with require_window_pairs and refuses more than MAX_WINDOW_PAIRS,
before any window is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .mpoly import Exponent, LaurentPoly


# A filter (impulse, mask) is stored as its symbol h*(z): its taps are the
# polynomial's terms (see mpoly).
Impulse = LaurentPoly


# One exponential-polynomial term (theta, p): the sequence alpha -> p(alpha) theta^alpha.
Term = Tuple[Tuple[complex, ...], LaurentPoly]


@dataclass(frozen=True)
class ExpPolySeq:
    """Formal sum over terms (theta, p) of the sequence alpha -> p(alpha) theta^alpha."""

    terms: Tuple[Term, ...]

    def __post_init__(self):
        norm = []
        for theta, p in self.terms:
            theta = tuple(complex(t) for t in theta)
            if any(t == 0 for t in theta):
                raise ValueError("theta must lie in C_x^s")
            p._require_poly()
            if len(theta) != p.dim:
                raise ValueError("theta / polynomial dimension mismatch")
            norm.append((theta, p))
        thetas = [t for t, _ in norm]
        if len(set(thetas)) != len(thetas):
            raise ValueError("duplicate theta in ExpPolySeq")
        object.__setattr__(self, "terms", tuple(norm))

    @classmethod
    def single(cls, theta: Sequence[complex], p: LaurentPoly) -> "ExpPolySeq":
        return cls(((tuple(theta), p),))

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim

    def value(self, alpha: Sequence[int]) -> complex:
        alpha = tuple(int(a) for a in alpha)
        return sum(p.evaluate(alpha) * math.prod((t ** a for t, a in zip(theta, alpha) if a),
                                                 start=1 + 0j)
                   for theta, p in self.terms)


@dataclass(frozen=True)
class Window:
    """Integer box [lower, upper] in Z^s, both corners inclusive."""

    lower: Exponent
    upper: Exponent

    def __post_init__(self):
        lower = tuple(int(v) for v in self.lower)
        upper = tuple(int(v) for v in self.upper)
        if len(lower) != len(upper):
            raise ValueError("corner dimension mismatch")
        if any(l > u for l, u in zip(lower, upper)):
            raise ValueError("lower corner exceeds upper corner")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def points(self) -> Iterable[Exponent]:
        ranges = [range(l, u + 1) for l, u in zip(self.lower, self.upper)]
        return product(*ranges)


SequenceSamples = Mapping[Exponent, complex]

# Default tolerance of every check: the dual conditions of verify and eigen
# and the subdivision tests; the CLI's --tol overrides it.
DEFAULT_TOL = 1e-9

# Largest tolerance the CLI accepts: --tol scales bounds that are finite for
# finite input, and a tolerance above 1 would pass violations as large as
# the values they are measured against.
MAX_TOL = 1.0

# Floor of every window-oracle tolerance: an oracle check passes when its
# residual is at most max(tol, ORACLE_TOL) times its scale, so tol moves the
# oracle only above this floor.
ORACLE_TOL = 1e-8

# (window point, tap) pairs evaluated at once by convolve; bounds its working
# memory independently of the window size and the number of taps.
BLOCK_PAIRS = 1 << 13

# Most (row, window point) pairs that the certified windows of one request
# may cover, sum over its rows of (deg + pad + 1)^s: the window oracle of
# verify, eigen and subdivide, and the window samples of build-kernel.  The
# samples are the costlier, about 200 bytes of report and 2 KB of peak
# memory per pair; the oracle holds about 40 bytes per pair.
MAX_WINDOW_PAIRS = 2 * 10 ** 5


def window_side(degree: int, pad: int) -> int:
    """Points per axis of the certified window {0..degree+pad}^s of a row
    of that degree: certified_window and require_window_pairs share it."""
    return max(degree, 0) + max(pad, 0) + 1


def require_window_pairs(dim: int, pad: int, rows_by_degree: Iterable[Tuple[int, int]]) -> int:
    """The (row, window point) count sum rows (degree + pad + 1)^dim over the
    (degree, rows) pairs given, each row of degree d checked over its own
    certified window {0..d+pad}^dim; raises ValueError above
    MAX_WINDOW_PAIRS.  A window of 2^64 points or more is not counted."""
    count = 0
    for degree, rows in rows_by_degree:
        side = window_side(degree, pad)
        if rows and side > 1 and dim * (side.bit_length() - 1) >= 64:
            count = None
            break
        count += rows * side ** dim
    if count is None or count > MAX_WINDOW_PAIRS:
        told = "more than 2**64" if count is None else str(count)
        raise ValueError(f"the certified windows cover {told} (row, window point) "
                         f"pairs, above the limit of {MAX_WINDOW_PAIRS}")
    return count


def _arguments(lower: int, upper: int, shifts) -> np.ndarray:
    """Sorted distinct x - t over lower <= x <= upper and t in shifts: a
    union of equal-length ranges, so sparse taps cost no more than dense."""
    parts, end = [], None
    for t in sorted(set(shifts), reverse=True):
        start = lower - t if end is None else max(lower - t, end + 1)
        parts.append(np.arange(start, upper - t + 1))
        end = upper - t
    return np.concatenate(parts)


class FilterBank:
    """Filters h_1..h_m read as one vector-valued impulse.

    .taps is the union of their supports in order of first occurrence; each
    filter keeps the columns of its taps in that union and its tap vector,
    both in its own tap order, so that its product with a block of (point,
    tap) values is the one it would get alone.
    """

    def __init__(self, H: Sequence[LaurentPoly]):
        dims = {h.dim for h in H if h.terms}
        if len(dims) > 1:
            raise ValueError("filter dimensions differ")
        self.dim = dims.pop() if dims else None
        index: Dict[Exponent, int] = {}
        self.columns = [np.array([index.setdefault(tau, len(index)) for tau in h.terms],
                                 dtype=np.intp) for h in H]
        self.taps: Tuple[Exponent, ...] = tuple(index)
        self.vectors = [np.fromiter(h.terms.values(), complex, len(h.terms)) for h in H]


def _convolve_closed_form(bank: FilterBank, terms: Sequence[Term], w: Window) -> np.ndarray:
    """(h * p e_theta) at w.points(), in that order, for each filter h of
    the bank and each term (theta, p): shape (filters, terms, points),
    block by block.

    Per coordinate j a term factors through the tables
    G[e, i] = x_i^e theta_j^x_i over the distinct arguments x_i, so each
    (point, tap) pair costs one table lookup per coordinate and monomial.
    The arguments depend only on the union taps and w, so the rows and the
    filters share them: per distinct theta the tables are built once, up to
    the top degree, and per block a theta's table columns are gathered when
    its run of rows starts, so the working memory does not grow with the
    number of theta.  Each table entry and (point, tap) value is computed
    on its own, and each filter's product reads its own columns, copied
    contiguous, so every (filter, row) equals its one-filter, one-term
    result exactly whenever the blocks have the same points.
    """
    sides = tuple(u - l + 1 for l, u in zip(w.lower, w.upper))
    n = math.prod(sides)
    out = np.zeros((len(bank.vectors), len(terms), n), dtype=complex)
    if not bank.taps or not terms:
        return out
    if bank.dim != w.dim or any(len(theta) != w.dim or p.dim != w.dim for theta, p in terms):
        raise ValueError("filter, term and window dimensions differ")
    taus = np.array(bank.taps, dtype=np.int64)
    axes = [_arguments(l, u, taus[:, j].tolist())
            for j, (l, u) in enumerate(zip(w.lower, w.upper))]
    degree: Dict[Tuple[complex, ...], int] = {}
    for theta, p in terms:
        degree[theta] = max(degree.get(theta, 0), p.degree())
    tables = {theta: [_powers(t, axis.tolist())
                      * axis.astype(float) ** np.arange(top + 1)[:, None]
                      for t, axis in zip(theta, axes)]
              for theta, top in degree.items()}
    step = max(1, BLOCK_PAIRS // len(taus))
    for start in range(0, n, step):
        points = np.unravel_index(np.arange(start, min(n, start + step)), sides)
        stop = start + len(points[0])
        # table column of every (point, tap) pair, per coordinate
        idx = [np.searchsorted(axis, (x + l)[:, None] - taus[None, :, j])
               for j, (axis, x, l) in enumerate(zip(axes, points, w.lower))]
        current = gathered = None
        for r, (theta, p) in enumerate(terms):
            if theta != current:
                current = theta
                gathered = [table[:, i] for table, i in zip(tables[theta], idx)]
            g0, *rest = gathered
            values = np.zeros((len(points[0]), len(taus)), dtype=complex)
            for exp, coeff in p.terms.items():
                mono = coeff * g0[exp[0]]
                for g, k in zip(rest, exp[1:]):
                    # not in place: numpy multiplies one element in place as
                    # Python does, not as its vector loop, so a pair would
                    # round differently in a one-element block
                    mono = mono * g[k]
                values += mono
            for f, (cols, hvec) in enumerate(zip(bank.columns, bank.vectors)):
                out[f, r, start:stop] = np.ascontiguousarray(values[:, cols]) @ hvec
    return out


def convolve(h: "LaurentPoly | FilterBank", c: "Sequence[Term] | SequenceSamples", w: Window):
    """(h * c)(alpha) = sum_beta h(beta) c(alpha - beta) on the window.

    A list of terms (theta, p) gives an array with one row per term, the
    values of h * (p e_theta), its columns in w.points() order; for a
    FilterBank, one such array per filter, stacked (filters, terms,
    points), from one pass over the union of their taps.  A sampled input
    gives a dict keyed by window point; it must cover the window dilated by
    the support of the impulse h, and a FilterBank does not take one.
    """
    if isinstance(h, FilterBank):
        if isinstance(c, Mapping):
            raise TypeError("a FilterBank convolves terms (theta, p), not samples")
        return _convolve_closed_form(h, c, w)
    if not isinstance(c, Mapping):
        return _convolve_closed_form(FilterBank([h]), c, w)[0]
    out: Dict[Exponent, complex] = {}
    for alpha in w.points():
        total = 0j
        for beta, hb in h.terms.items():
            arg = tuple(a - b for a, b in zip(alpha, beta))
            if arg not in c:
                raise ValueError(f"sample coverage missing point {arg}")
            total += hb * c[arg]
        out[alpha] = total
    return out


def _powers(t: complex, exps: List[int]) -> np.ndarray:
    """t ** e for each e in exps, NaN where complex ** cannot represent the
    power: it raises OverflowError past double range and ZeroDivisionError
    for e < 0 once t^|e| underflows, while other negative powers past range
    already come out NaN.  A negative power of t = 0 still raises.  The
    per-element path runs only after the fast one raises."""
    t = complex(t)
    try:
        return np.fromiter(map(t.__pow__, exps), complex, len(exps))
    except (OverflowError, ZeroDivisionError):
        return np.array([_power_or_nan(t, e) for e in exps], dtype=complex)


def _power_or_nan(t: complex, e: int) -> complex:
    try:
        return t ** e
    except (OverflowError, ZeroDivisionError):
        if t == 0:
            raise
        return complex("nan+nanj")


def _window_powers(theta: Sequence[complex], w: Window) -> np.ndarray:
    """theta^alpha at w.points(), in that order; NaN where a power is out of
    range (_powers)."""
    out = np.ones(1, dtype=complex)
    for t, l, u in zip(theta, w.lower, w.upper):
        out = np.multiply.outer(out, _powers(t, list(range(l, u + 1)))).ravel()
    return out


def certified_window(dim: int, degree: int, pad: int = 0) -> Window:
    """{0..degree+pad}^dim.

    The residual of h * (p e_theta) with deg p <= degree is a polynomial of
    degree <= degree times e_theta, so vanishing on this tensor grid
    certifies global vanishing.
    """
    D = window_side(degree, pad) - 1
    return Window((0,) * dim, (D,) * dim)


def kernel_residual(H: Sequence[LaurentPoly], terms: Sequence[Term], pad: int = 0) -> List[float]:
    """Normalized annihilation residual of each term p e_theta under every h
    in H, one per term.

    Convolution maps p e_theta into e_theta-multiples, so each term is
    checked on its own (a summed check could hide failures by
    cancellation), over its own certified window.  Pointwise values are
    normalized by 1 + |theta^alpha|.  A residual that overflows is reported
    as inf or NaN, neither of which passes a tolerance, without numpy's
    overflow and invalid-value warnings.  The terms that share a window are
    convolved as one stack, theta-major, by one convolve for the whole of H
    read as a FilterBank; H is split into consecutive banks so that one
    call's result holds at most MAX_WINDOW_PAIRS (filter and row, point)
    values, and each result is reduced to its row maxima as it comes.
    Within one block, each result equals that of its filter and term
    alone.
    """
    # window -> theta -> the rows of its terms there
    groups: Dict[Window, Dict[Tuple[complex, ...], List[int]]] = {}
    for r, (theta, p) in enumerate(terms):
        if 0 in theta:
            raise ValueError("theta must lie in C_x^s")
        groups.setdefault(certified_window(p.dim, p.degree(), pad), {}) \
            .setdefault(theta, []).append(r)
    out = [0.0] * len(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        for w, by_theta in groups.items():
            # theta-major, one normalization row per theta repeated over its terms
            rows = [r for same in by_theta.values() for r in same]
            scale = np.concatenate([np.tile(1.0 + np.abs(_window_powers(theta, w)),
                                            (len(same), 1))
                                    for theta, same in by_theta.items()])
            stack = [terms[r] for r in rows]
            worst = np.zeros(len(rows))
            # consecutive banks of H, each result at most MAX_WINDOW_PAIRS values
            size = max(1, MAX_WINDOW_PAIRS // scale.size)
            for lo in range(0, len(H), size):
                residual = np.abs(convolve(FilterBank(H[lo:lo + size]), stack, w)) / scale
                # propagates NaN
                worst = np.maximum(worst, np.max(residual, axis=(0, 2), initial=0.0))
            for r, value in zip(rows, worst.tolist()):
                out[r] = value
    return out


def eigen_impulse(h: LaurentPoly, lam: complex, alpha_h: Sequence[int]) -> LaurentPoly:
    """h - lam delta_{-alpha_h}, whose convolution with any c is
    h*c - lam c(. + alpha_h): its kernel is the eigen-sequences of h with
    eigenvalue lam and shift alpha_h."""
    return h - LaurentPoly.monomial(h.dim, [-int(a) for a in alpha_h], lam)


def eigen_residual(h: LaurentPoly, lam: complex, alpha_h: Sequence[int],
                   terms: Sequence[Term], pad: int = 0) -> List[float]:
    """Per term c = p e_theta, the max over its certified window of
    |h*c - lam c(. + alpha_h)|: the kernel_residual of eigen_impulse(h,
    lam, alpha_h), normalized the same way and NaN when it overflows."""
    return kernel_residual([eigen_impulse(h, lam, alpha_h)], terms, pad)
