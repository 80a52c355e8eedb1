"""Per-layer tracing of convkern from outside the package.

Tracer.install() replaces public functions and methods of convkern with
wrappers.  A function is replaced in every convkern module namespace that
holds it, so names bound by ``from ... import`` are traced too.  Span
wrappers record (name, request, parent, start, end) in memory; count
wrappers, used on hot leaf methods, only increment a counter.  A span's self
time is its duration minus the durations of its direct child spans.
uninstall() puts every original object back.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

MARK = "__bench_traced__"

# (module, qualified name, kind, metric prefix).  "span" records timed spans,
# "count" only counts calls.  L_op is counted, not spanned, so the Neumann
# iterations stay in L_inv's self time.
TARGETS = [
    ("convkern.cli", "main", "span", "cli"),
    ("convkern.cli", "_read_json", "span", "serialize.parse"),
    ("convkern.serialize", "filters_from_json", "span", "serialize.parse"),
    ("convkern.serialize", "spectrum_from_json", "span", "serialize.parse"),
    ("convkern.serialize", "impulse_from_json", "span", "serialize.parse"),
    ("convkern.serialize", "poly_from_json", "span", "serialize.parse"),
    ("convkern.serialize", "dilation_from_json", "span", "serialize.parse"),
    ("convkern.serialize", "candidates_from_json", "span", "serialize.parse"),
    ("convkern.serialize", "dumps", "span", "serialize.dumps"),
    ("convkern.newton", "L_inv", "span", "newton.L_inv"),
    ("convkern.newton", "L_op", "count", "newton.L_op"),
    ("convkern.newton", "build_p_theta", "span", "newton.build_p_theta"),
    ("convkern.filters", "kernel_residual", "span", "filters.kernel_residual"),
    ("convkern.filters", "convolve", "span", "filters.convolve"),
    ("convkern.filters", "eigen_residual", "span", "filters.eigen_residual"),
    ("convkern.filters", "ExpPolySeq.value", "count", "filters.ExpPolySeq.value"),
    ("convkern.apolar", "ortho_homog_basis", "span", "apolar.ortho_homog_basis"),
    ("convkern.apolar", "is_d_invariant", "span", "apolar.is_d_invariant"),
    ("convkern.spectrum", "verify_zero_dim", "span", "spectrum.verify_zero_dim"),
    ("convkern.spectrum", "hermite_fundamentals", "span", "spectrum.hermite_fundamentals"),
    ("convkern.spectrum", "FundamentalSystem.dual_matrix", "span", "spectrum.dual_matrix"),
    ("convkern.spectrum", "dual_apply", "count", "spectrum.dual_apply"),
    ("convkern.linalg", "numerical_rank", "span", "linalg.numerical_rank"),
    ("convkern.linalg", "nullspace", "span", "linalg.nullspace"),
    ("convkern.linalg", "span_residual", "span", "linalg.span_residual"),
    ("convkern.mpoly", "apply_poly_diff", "span", "mpoly.apply_poly_diff"),
    ("convkern.mpoly", "LaurentPoly.evaluate", "count", "mpoly.LaurentPoly.evaluate"),
    ("convkern.mpoly", "LaurentPoly.__mul__", "count", "mpoly.LaurentPoly.mul"),
    ("convkern.subdivision", "subdivision_kernel_check", "span",
     "subdivision.subdivision_kernel_check"),
    ("convkern.subdivision", "is_symmetric_zero", "span", "subdivision.is_symmetric_zero"),
    ("convkern.subdivision", "modulation_points", "count", "subdivision.modulation_points"),
    ("convkern.subdivision", "coset_reps", "span", "subdivision.coset_reps"),
    ("convkern.subdivision", "int_adjugate", "count", "subdivision.int_adjugate"),
    ("convkern.subdivision", "subsymbols", "span", "subdivision.subsymbols"),
    ("convkern.subdivision", "is_expanding", "count", "subdivision.is_expanding"),
]

# Per-layer metrics, in the order they are reported.  Timings and counts are
# means per request; ratios are formed from the totals.
PER_LAYER = [
    ("newton.L_inv.calls", "count"), ("newton.L_inv.self_s", "s"),
    ("newton.L_op.calls", "count"), ("newton.L_op_per_L_inv", "ratio"),
    ("newton.build_p_theta.self_s", "s"),
    ("filters.kernel_residual.calls", "count"), ("filters.kernel_residual.self_s", "s"),
    ("filters.convolve.self_s", "s"), ("filters.eigen_residual.self_s", "s"),
    ("filters.ExpPolySeq.value.calls", "count"),
    ("filters.window_points", "count"), ("filters.tap_evals", "count"),
    ("filters.window_useful_ratio", "ratio"),
    ("apolar.ortho_homog_basis.calls", "count"), ("apolar.ortho_homog_basis.self_s", "s"),
    ("apolar.ortho_homog_basis.repeat_ratio", "ratio"),
    ("apolar.is_d_invariant.self_s", "s"),
    ("spectrum.verify_zero_dim.self_s", "s"), ("spectrum.hermite_fundamentals.self_s", "s"),
    ("spectrum.dual_matrix.self_s", "s"), ("spectrum.dual_conditions", "count"),
    ("linalg.numerical_rank.calls", "count"), ("linalg.nullspace.calls", "count"),
    ("linalg.span_residual.calls", "count"), ("linalg.self_s", "s"),
    ("mpoly.apply_poly_diff.calls", "count"), ("mpoly.apply_poly_diff.self_s", "s"),
    ("mpoly.LaurentPoly.evaluate.calls", "count"), ("mpoly.LaurentPoly.mul.calls", "count"),
    ("subdivision.subdivision_kernel_check.self_s", "s"),
    ("subdivision.is_symmetric_zero.self_s", "s"),
    ("subdivision.modulation_points.calls", "count"),
    ("subdivision.coset_reps.calls", "count"), ("subdivision.coset_reps.self_s", "s"),
    ("subdivision.int_adjugate.calls", "count"), ("subdivision.subsymbols.calls", "count"),
    ("subdivision.is_expanding.calls", "count"),
    ("serialize.parse_s", "s"), ("serialize.dumps_s", "s"),
    ("serialize.report_bytes", "bytes"), ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _resolve(owner, qualname: str):
    """(object holding the attribute, attribute name) for a dotted name."""
    parts = qualname.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def _convkern_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "convkern" or name.startswith("convkern."))]


def installed_wrappers() -> int:
    """Number of distinct traced wrappers bound anywhere in convkern."""
    found = set()
    for mod in _convkern_modules():
        for value in vars(mod).values():
            members = vars(value).values() if isinstance(value, type) else [value]
            found.update(id(v) for v in members if getattr(v, MARK, False))
    return len(found)


def _window_stats(args) -> Tuple[int, int, int]:
    """(box points, simplex points, taps) of one convolve(h, c, w) call."""
    h, _, w = args[:3]
    sides = [u - l + 1 for l, u in zip(w.lower, w.upper)]
    box = math.prod(sides)
    D = min(sides) - 1  # certified windows are cubes {0..D}^s
    simplex = math.comb(D + len(sides), len(sides))
    return box, simplex, len(h.taps)


def _space_key(space) -> Tuple:
    return tuple(tuple(sorted(p.terms.items())) for p in space.basis)


class Tracer:
    """Spans and counters collected while installed; one instance per run."""

    def __init__(self):
        self.spans: List[Tuple[str, int, int, float, float]] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._spaces_seen: set = set()
        self._factors: List[float] = [1.0]  # speed factor per request id

    # -- request boundaries --------------------------------------------------

    def begin_request(self, speed_factor: float) -> None:
        """Start a request; its span times are rescaled by speed_factor."""
        self.request += 1
        self.counts["requests"] += 1
        self._factors.append(speed_factor)
        self._spaces_seen = set()

    # -- hooks on call arguments and results ---------------------------------

    def _on_convolve(self, args, kwargs) -> None:
        box, simplex, taps = _window_stats(args)
        self.counts["filters.window_points"] += box
        self.counts["filters.window_simplex_points"] += simplex
        self.counts["filters.tap_evals"] += box * taps

    def _on_ortho(self, args, kwargs) -> None:
        key = _space_key(args[0])
        if key not in self._spaces_seen:
            self._spaces_seen.add(key)
            self.counts["apolar.ortho_homog_basis.distinct"] += 1

    def _on_dumps(self, result) -> None:
        self.counts["serialize.report_bytes"] += len(result.encode("utf-8"))

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name: str, on_call=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, self.request, parent, t0, t1)
            if on_result is not None:
                on_result(result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _convkern_modules()
        for module_name, qualname, kind, name in TARGETS:
            owner, attr = _resolve(sys.modules[module_name], qualname)
            original = vars(owner)[attr]
            if kind == "count":
                wrapper = self._count(original, name)
            else:
                hooks = {"filters.convolve": (self._on_convolve, None),
                         "apolar.ortho_homog_basis": (self._on_ortho, None),
                         "serialize.dumps": (None, self._on_dumps)}.get(name, (None, None))
                wrapper = self._span(original, name, *hooks)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name over all recorded spans, in
        reference-speed seconds."""
        child = [0.0] * len(self.spans)
        for name, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Dict[str, float] = {}
        for i, (name, request, _, t0, t1) in enumerate(self.spans):
            self_s = ((t1 - t0) - child[i]) * self._factors[request]
            out[name] = out.get(name, 0.0) + self_s
        return out

    def layer_shares(self) -> Dict[str, float]:
        """Share of all self time per layer (the first part of a span name)."""
        layers: Dict[str, float] = {}
        for name, t in self.self_times().items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + t
        total = sum(layers.values()) or 1.0
        return {k: v / total for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}

    def metrics(self, overhead_ratio: Optional[float]) -> Dict[str, float]:
        """Every PER_LAYER metric; per-request means and total-based ratios."""
        n = max(self.counts["requests"], 1)
        c = self.counts
        st = self.self_times()

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        values: Dict[str, float] = {}
        for name, unit in PER_LAYER:
            if name.endswith(".calls") or unit == "count":
                values[name] = c[name] / n
            elif name.endswith(".self_s"):
                values[name] = st.get(name[:-len(".self_s")], 0.0) / n
        values["newton.L_op_per_L_inv"] = ratio(c["newton.L_op.calls"],
                                                c["newton.L_inv.calls"])
        values["filters.window_useful_ratio"] = ratio(c["filters.window_simplex_points"],
                                                      c["filters.window_points"])
        values["spectrum.dual_conditions"] = c["spectrum.dual_apply.calls"] / n
        values["apolar.ortho_homog_basis.repeat_ratio"] = ratio(
            c["apolar.ortho_homog_basis.calls"], c["apolar.ortho_homog_basis.distinct"])
        values["linalg.self_s"] = sum(t for k, t in st.items() if k.startswith("linalg.")) / n
        values["serialize.parse_s"] = st.get("serialize.parse", 0.0) / n
        values["serialize.dumps_s"] = st.get("serialize.dumps", 0.0) / n
        values["serialize.report_bytes"] = c["serialize.report_bytes"] / n
        values["cli.self_s"] = st.get("cli", 0.0) / n
        values["trace.overhead_ratio"] = overhead_ratio if overhead_ratio is not None else 0.0
        return values
