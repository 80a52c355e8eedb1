"""Seeded input generators for the three benchmark workloads.

Each workload is a fixed list of request classes (dimension, multiplicity
spaces, filter sizes, dilations, orders), so the cost structure of a workload
is the same for every seed.  The seed draws the values: every theta, every
filter and mask coefficient, every eigenvalue.  The expected exit code and
per-check verdicts of each request follow from the construction and are fixed
here, before the program runs.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from convkern import (Dilation, LaurentPoly, Spectrum, Zero, fat_point_space,
                      ideal_complement_filters, lower_set_space)
from convkern import serialize as ser
from convkern.filters import Impulse

WORKLOADS = ("kernel-highorder", "spectrum-manyzeros", "subdivision-mix")

# |theta| is drawn from this annulus.  Order-10 fat points in dimension 1 fail
# the oracle tolerance by a factor of 2-4 at this commit, so dimension 1 stops
# at order 8, where the residual stays about 100x below the tolerance.
THETA_RADIUS = (0.8, 1.25)


@dataclass
class Request:
    """One CLI invocation with the outcome fixed at generation time."""

    command: str
    files: List[str]
    expected_exit: int
    expected_checks: Tuple[bool, ...]
    props: Dict = field(default_factory=dict)

    def argv(self, root: Path) -> List[str]:
        return [self.command] + [str(root / f) for f in self.files]


# -- request classes ---------------------------------------------------------
#
# A multiplicity space is ("fat", order) for Pi_order or ("lower", exponents)
# for the monomial span of a lower set.  Classes are listed cheap to heavy and
# the cycle visits them round-robin, so any prefix of a run has the same mix.

_L5 = [(i, 0) for i in range(6)] + [(0, 1), (1, 1), (2, 1)]
_L6 = [(i, 0) for i in range(7)] + [(0, 1), (1, 1), (0, 2)]

# (dim, multiplicity spaces of the zeros, filter max_degree, filter count).
# The costs are spread so that the median and the 90th percentile of a cycle
# fall inside clusters of similar requests, not on a gap between classes; the
# two mid-cost spectra appear twice, with different theta, to make the
# cluster around the median dense.
KERNEL_CLASSES = [
    (1, [("fat", 4)], 9, 2),
    (2, [("fat", 3), ("fat", 0)], 5, 2),
    (3, [("fat", 2), ("fat", 0)], 3, 2),
    (1, [("fat", 6), ("fat", 0)], 10, 2),
    (2, [("lower", _L5)], 6, 2),
    (2, [("lower", _L5)], 6, 2),
    (1, [("fat", 8)], 11, 2),
    (1, [("fat", 8)], 11, 2),
    (2, [("fat", 4)], 5, 2),
    (2, [("lower", _L6)], 7, 2),
    (3, [("fat", 3)], 4, 2),
    (3, [("fat", 3), ("fat", 0)], 4, 2),
    (2, [("fat", 5)], 6, 2),
]

# (dim, number of zeros, how many of them have order 1; the rest order 0)
SPECTRUM_CLASSES = [
    (2, 9, 4), (3, 9, 3), (2, 12, 6), (3, 12, 4),
    (3, 6, 6), (2, 12, 9), (3, 9, 6), (3, 12, 6),
]
SPECTRUM_FILTERS = 3

DILATIONS = {
    "dyadic2": ((2, 0), (0, 2)),
    "dyadic3": ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
    "quincunx": ((1, 1), (1, -1)),
    "aniso23": ((2, 0), (0, 3)),
    "shear": ((2, 1), (0, 2)),
    "det22": ((5, 2), (-1, 4)),
}

# (dilation, k): theta is a symmetric zero of order exactly k
SUBDIVISION_CLASSES = [
    ("dyadic3", 0), ("dyadic2", 2), ("shear", 2), ("aniso23", 2),
    ("det22", 1), ("quincunx", 2), ("quincunx", 3), ("det22", 2),
    ("shear", 3), ("dyadic2", 3), ("aniso23", 3), ("dyadic3", 1),
    ("det22", 3), ("dyadic3", 1), ("aniso23", 3), ("det22", 3),
]

# Smoke mode keeps the first classes of each list (the cheap ones).
SMOKE_CLASSES = 2


def _space(dim: int, spec):
    kind, arg = spec
    if kind == "fat":
        return fat_point_space(dim, arg)
    return lower_set_space(dim, arg)


def _space_key(dim: int, spec) -> Tuple:
    kind, arg = spec
    return (dim, kind, arg if kind == "fat" else tuple(map(tuple, arg)))


def _degrees(dim: int, spec) -> List[int]:
    """Degrees of the orthonormal homogeneous basis of the space, which are
    the degrees of its P_theta elements."""
    kind, arg = spec
    if kind == "fat":
        return [d for d in range(arg + 1) for _ in range(math.comb(d + dim - 1, dim - 1))]
    return sorted(sum(e) for e in arg)


def _theta(rng: np.random.Generator, dim: int) -> Tuple[complex, ...]:
    r = rng.uniform(*THETA_RADIUS, size=dim)
    phase = rng.uniform(-math.pi, math.pi, size=dim)
    return tuple(complex(v) for v in r * np.exp(1j * phase))


def _distinct_thetas(rng, dim: int, count: int, min_dist: float = 0.05):
    """Thetas pairwise at least min_dist apart, so no spectrum is degenerate."""
    out: List[Tuple[complex, ...]] = []
    while len(out) < count:
        t = _theta(rng, dim)
        if all(max(abs(a - b) for a, b in zip(t, u)) >= min_dist for u in out):
            out.append(t)
    return out


def _complex(rng) -> complex:
    return complex(rng.normal(), rng.normal())


class _Writer:
    """Writes JSON inputs under one directory, named by request index."""

    def __init__(self, root: Path, rel_dir: Path):
        self.root = root
        self.rel_dir = rel_dir
        (root / rel_dir).mkdir(parents=True, exist_ok=True)

    def write(self, name: str, obj) -> str:
        rel = self.rel_dir / name
        (self.root / rel).write_text(json.dumps(obj), encoding="utf-8")
        return str(rel)


def _window_points(dim: int, degrees: Sequence[int]) -> int:
    return sum((d + 1) ** dim for d in degrees)


def _kernel_requests(rng, classes, out: _Writer) -> List[Request]:
    requests = []
    for i, (dim, spaces, max_degree, count) in enumerate(classes):
        thetas = _distinct_thetas(rng, dim, len(spaces))
        spec = Spectrum(tuple(Zero(t, _space(dim, s)) for t, s in zip(thetas, spaces)))
        H = ideal_complement_filters(spec, count, max_degree)
        sfile = out.write(f"{i:03d}-spectrum.json", ser.spectrum_to_json(spec))
        ffile = out.write(f"{i:03d}-filters.json", ser.filters_to_json(H))
        degrees = [d for s in spaces for d in _degrees(dim, s)]
        m = len(degrees)
        props = {"dim": dim, "orders": [max(_degrees(dim, s)) for s in spaces],
                 "q_keys": [_space_key(dim, s) for s in spaces],
                 "taps": max(len(h.taps) for h in H),
                 "window_points": _window_points(dim, degrees)}
        # verify: one dual check per (filter, zero, q), then one oracle check
        # per P_theta element; build-kernel reports no checks.
        requests.append(Request("verify", [ffile, sfile], 0,
                                (True,) * (count * m + m), dict(props)))
        requests.append(Request("build-kernel", [sfile], 0, (), dict(props)))
    return requests


def _spectrum_requests(rng, classes, out: _Writer) -> List[Request]:
    requests = []
    for i, (dim, nzeros, n_order1) in enumerate(classes):
        thetas = _distinct_thetas(rng, dim, nzeros, min_dist=0.2)
        orders = [1 if j < n_order1 else 0 for j in range(nzeros)]
        spaces = [("fat", o) for o in orders]
        spec = Spectrum(tuple(Zero(t, _space(dim, s)) for t, s in zip(thetas, spaces)))
        mult = spec.total_multiplicity
        max_degree = 1
        while math.comb(max_degree + dim, dim) < mult + SPECTRUM_FILTERS + 1:
            max_degree += 1
        H = ideal_complement_filters(spec, SPECTRUM_FILTERS, max_degree)
        sfile = out.write(f"{i:03d}-spectrum.json", ser.spectrum_to_json(spec))
        ffile = out.write(f"{i:03d}-filters.json", ser.filters_to_json(H))
        # h = g + lambda delta with g annihilating the whole spectrum, so every
        # zero of the spectrum is an eigen-exponential with eigenvalue lambda.
        lam = _complex(rng)
        taps = dict(H[0].taps)
        origin = (0,) * dim
        taps[origin] = taps.get(origin, 0) + lam
        zero = spec.zeros[0]
        hfile = out.write(f"{i:03d}-eigen-filter.json",
                          ser.impulse_to_json(Impulse(dim, taps)))
        efile = out.write(f"{i:03d}-eigen-spec.json", {
            "theta": [ser.complex_to_json(t) for t in zero.theta],
            "lambda": ser.complex_to_json(lam),
            "Q_basis": [ser.poly_to_json(p) for p in zero.mult.basis]})
        degrees = [d for s in spaces for d in _degrees(dim, s)]
        props = {"dim": dim, "orders": orders,
                 "q_keys": [_space_key(dim, s) for s in spaces],
                 "taps": max(len(h.taps) for h in H),
                 "window_points": _window_points(dim, degrees)}
        eig_props = dict(props, orders=[orders[0]], q_keys=[props["q_keys"][0]],
                         taps=len(taps), window_points=1)
        requests.append(Request("hermite", [sfile], 0, (True,), dict(props)))
        requests.append(Request("verify", [ffile, sfile], 0,
                                (True,) * (SPECTRUM_FILTERS * mult + mult), dict(props)))
        # eigen: one condition per q of Q_theta, then the residual of e_theta
        requests.append(Request("eigen", [hfile, efile], 0,
                                (True,) * (zero.mult.size + 1), eig_props))
    return requests


def subdivision_mask(Xi: Sequence[Sequence[int]], theta: Sequence[complex],
                     c: Sequence[complex], b: Dict[Tuple[int, ...], complex],
                     k: int) -> LaurentPoly:
    """a*(z) = b(z) f(z^Xi) with f(w) = sum_j c_j (w_j - 1/theta_j)^(k+1).

    Every subsymbol is b_xi(w) f(w), and f vanishes at theta^-1 with all
    derivatives of order <= k but not k+1 (the (k+1)-th derivative along w_j
    is c_j (k+1)!), so theta is a symmetric zero of order exactly k whenever
    b does not vanish at theta^-1.
    """
    s = len(Xi)
    f = LaurentPoly.zero(s)
    for j in range(s):
        wj = LaurentPoly.variable(s, j) - LaurentPoly.constant(s, 1 / theta[j])
        term = LaurentPoly.constant(s, c[j])
        for _ in range(k + 1):
            term = term * wj
        f = f + term
    # w_j -> z^(column j of Xi)
    terms: Dict[Tuple[int, ...], complex] = {}
    for exp, coef in f.terms.items():
        e = tuple(sum(Xi[v][j] * exp[j] for j in range(s)) for v in range(s))
        terms[e] = terms.get(e, 0) + coef
    return LaurentPoly(s, terms) * LaurentPoly(s, b)


def _subdivision_requests(rng, classes, out: _Writer) -> List[Request]:
    requests = []
    for i, (name, k) in enumerate(classes):
        Xi = DILATIONS[name]
        s = len(Xi)
        theta = _theta(rng, s)
        c = [_complex(rng) for _ in range(s)]
        b = {e: _complex(rng) for e in product((0, 1), repeat=s)}
        a = subdivision_mask(Xi, theta, c, b, k)
        # a random theta with f(1/theta) far from 0 fails every test
        while True:
            other = _theta(rng, s)
            fval = sum(cj * (1 / t - 1 / th) ** (k + 1)
                       for cj, t, th in zip(c, other, theta))
            if abs(fval) > 0.1:
                break
        cands = [(theta, kk) for kk in range(k + 2)] + [(other, 0)]
        mfile = out.write(f"{i:03d}-mask.json", ser.impulse_to_json(Impulse(s, a.terms)))
        dfile = out.write(f"{i:03d}-dilation.json", {"Xi": [list(r) for r in Xi]})
        cfile = out.write(f"{i:03d}-candidates.json", {"candidates": [
            {"theta": [ser.complex_to_json(t) for t in th], "order": kk}
            for th, kk in cands]})
        verdicts = tuple(kk <= k for kk in range(k + 2)) + (False,)
        # the oracle checks every monomial of Pi_k' times e_theta, per candidate
        props = {"dim": s, "orders": [k], "q_keys": [_space_key(s, ("fat", k))],
                 "taps": len(a.terms), "det": Dilation(Xi).coset_count,
                 "window_points": sum(_window_points(s, _degrees(s, ("fat", kk)))
                                      for _, kk in cands)}
        # the k+1 and random candidates fail, so the command exits 1
        requests.append(Request("subdivide", [mfile, dfile, cfile], 1, verdicts, props))
    return requests


_BUILDERS = {
    "kernel-highorder": (_kernel_requests, KERNEL_CLASSES),
    "spectrum-manyzeros": (_spectrum_requests, SPECTRUM_CLASSES),
    "subdivision-mix": (_subdivision_requests, SUBDIVISION_CLASSES),
}


def generate(workload: str, seed: int, root: Path, rel_dir: Path,
             smoke: bool = False) -> List[Request]:
    """Write the workload's inputs under root/rel_dir and return its request
    cycle.  The same (workload, seed) always gives the same bytes."""
    build, classes = _BUILDERS[workload]
    if smoke:
        classes = classes[:SMOKE_CLASSES]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return build(rng, classes, _Writer(root, rel_dir))


def properties(requests: Sequence[Request]) -> Dict:
    """Input properties of a request cycle, as recorded with every result."""
    seen = set()
    repeats = 0
    for r in requests:
        keys = set(r.props["q_keys"])
        if keys & seen:
            repeats += 1
        seen |= keys
    props = [r.props for r in requests]
    out = {
        "requests_per_cycle": len(requests),
        "commands": dict(Counter(r.command for r in requests)),
        "dims": sorted({p["dim"] for p in props}),
        "orders": sorted({o for p in props for o in p["orders"]}),
        "taps": [min(p["taps"] for p in props), max(p["taps"] for p in props)],
        "window_points": [min(p["window_points"] for p in props),
                          max(p["window_points"] for p in props)],
        "distinct_q_spaces": len(seen),
        "q_repeat_share": repeats / len(requests),
    }
    dets = sorted({p["det"] for p in props if "det" in p})
    if dets:
        out["abs_det"] = dets
    return out
