"""convkern benchmark: closed-loop CLI request latency, one workload per run.

Usage (from the repository root):

    python3 bench/run.py --workload kernel-highorder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One process, one client: each request is an in-process call to
convkern.cli.main(argv), issued after the previous one returns, with stdout
captured in memory.  Inputs are JSON files generated from --seed during
set-up.  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run.  The last stdout line is the result object; the line
before it holds the details (environment, input properties, tail percentile,
gate outcome).  The exit code is nonzero when any request fails the gate.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ".bench_work"
SETUP_REPEATS = 5
# Tail percentiles tried from the top; the first with >= 10 requests beyond it
# is reported.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
SMOKE_BUDGET_S = 5.0


class SetupError(RuntimeError):
    """The program under test cannot be loaded from this checkout."""


def load_program():
    """Import convkern from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        cli = importlib.import_module("convkern.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import convkern from {src}: {exc}") from exc
    import_s = time.perf_counter() - t0
    path = Path(cli.__file__).resolve()
    if src.resolve() not in path.parents:
        raise SetupError(f"convkern was imported from {path}, not from {src}")
    return cli, import_s


# -- one request and the correctness gate ------------------------------------

@dataclass
class Gate:
    """Checks every response: exit code, per-check verdicts, byte identity
    with the first repetition of the same request."""

    requests: list
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    _first: Dict[int, tuple] = field(default_factory=dict)  # i -> (digest, report)
    _passed: Dict[int, int] = field(default_factory=dict)   # i -> attempts passed

    def record(self, i: int, rc: Optional[int], out: str, err: str,
               raised: Optional[BaseException]) -> None:
        """Check one response; its verdicts are checked by finish()."""
        self.attempted += 1
        req = self.requests[i]
        if raised is not None:
            return self._fail(i, f"raised {raised!r}")
        if rc != req.expected_exit:
            return self._fail(i, f"exit {rc}, expected {req.expected_exit}: {err.strip()}")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        first = self._first.setdefault(i, (digest, out))
        if digest != first[0]:
            return self._fail(i, "report differs from the first repetition")
        self._passed[i] = self._passed.get(i, 0) + 1

    def _fail(self, i: int, why: str, attempts: int = 1) -> None:
        req = self.requests[i]
        self.failed += attempts
        self.failures.append(f"request {i} ({req.command} {' '.join(req.files)}): {why}")

    def finish(self) -> None:
        """Check the per-check verdicts of each distinct request once: its
        passing repetitions are byte-identical to the first, so they share
        its verdicts and fail with it."""
        for i, (_, out) in sorted(self._first.items()):
            req = self.requests[i]
            try:
                report = json.loads(out)
            except json.JSONDecodeError as exc:
                self._fail(i, f"report is not JSON: {exc}", self._passed.get(i, 0))
                continue
            key = "candidates" if req.command == "subdivide" else "checks"
            verdicts = tuple(c["pass"] for c in report.get(key, []))
            if verdicts != req.expected_checks:
                self._fail(i, f"verdicts {verdicts}, expected {req.expected_checks}",
                           self._passed.get(i, 0))
        self._first.clear()


def call(main, argv: Sequence[str]):
    """(seconds, exit code, stdout, stderr, exception) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(list(argv))
        except Exception as exc:  # a request that raises is a failed request
            raised = exc
        elapsed = time.perf_counter() - t0
    return elapsed, rc, out.getvalue(), err.getvalue(), raised


# -- set-up ------------------------------------------------------------------

def setup(cli, workload: str, seed: int, run_dir: Path, smoke: bool = False):
    """Generate and write the inputs, then warm up with the first request of
    each command.  Returns (requests, seconds)."""
    from workloads import generate
    t0 = time.perf_counter()
    if (ROOT / run_dir).exists():
        shutil.rmtree(ROOT / run_dir)
    requests = generate(workload, seed, ROOT, run_dir, smoke=smoke)
    warmed = set()
    for req in requests:
        if req.command not in warmed:
            warmed.add(req.command)
            call(cli.main, req.argv(ROOT))
    return requests, time.perf_counter() - t0


def timed_setup(cli, import_s: float, probe, workload: str, seed: int, base: Path,
                repeats: int):
    """Set up `repeats` times.  setup_s is the import time plus the median
    set-up time, each rescaled by the speed probe taken just before it."""
    import_ref = import_s * probe.factor()
    times = []
    requests = None
    for r in range(repeats):
        f = probe.factor()
        requests, t = setup(cli, workload, seed, base / f"setup{r}")
        times.append(t * f)
    return requests, import_ref + statistics.median(times), times


# -- measurement -------------------------------------------------------------

def tail_percentile(latencies: Sequence[float]):
    """(percentile, value): the highest ladder percentile that has at least
    ten requests beyond it, by the nearest-rank rule."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50.0, statistics.median(xs)


def closed_loop(cli, requests, gate: Gate, probe, seconds: float):
    """Issue requests round-robin for `seconds`, each right after a speed
    probe.  Returns raw latencies, their speed factors and the wall time."""
    argvs = [r.argv(ROOT) for r in requests]
    latencies, factors = [], []
    i = 0
    t_start = time.perf_counter()
    while True:
        k = i % len(requests)
        factors.append(probe.factor())
        elapsed, rc, out, err, raised = call(cli.main, argvs[k])
        gate.record(k, rc, out, err, raised)
        latencies.append(elapsed)
        i += 1
        if time.perf_counter() - t_start >= seconds:
            break
    return latencies, factors, time.perf_counter() - t_start


def run_cycle(cli, argvs, gate: Gate, tracer=None, probe=None) -> float:
    """One pass over the cycle; returns the summed request time."""
    busy = 0.0
    for k, argv in enumerate(argvs):
        if tracer is not None:
            tracer.begin_request(probe.factor())
        elapsed, rc, out, err, raised = call(cli.main, argv)
        busy += elapsed
        gate.record(k, rc, out, err, raised)
    return busy


def traced_loop(cli, requests, gate: Gate, probe, seconds: float):
    """Alternate untraced and traced passes over the whole request cycle until
    `seconds` have passed (one pair at least).  Returns the tracer and the
    traced-over-untraced ratio of request time."""
    from tracing import Tracer
    argvs = [r.argv(ROOT) for r in requests]
    tracer = Tracer()
    plain = traced = 0.0
    t_start = time.perf_counter()
    while True:
        plain += run_cycle(cli, argvs, gate)
        tracer.install()
        try:
            traced += run_cycle(cli, argvs, gate, tracer, probe)
        finally:
            tracer.uninstall()
        if time.perf_counter() - t_start >= seconds:
            break
    return tracer, traced / plain


# -- environment -------------------------------------------------------------

def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> Dict:
    import numpy
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": cpus, "commit": git_commit(ROOT),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "seed": seed, "machine": platform.machine()}


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


# -- entry points --------------------------------------------------------------

def run(cli, import_s: float, workload: str, seed: int, seconds: float,
        trace: bool) -> int:
    import workloads
    from speed import SpeedProbe
    from tracing import PER_LAYER, installed_wrappers
    probe = SpeedProbe()
    base = Path(WORK_DIR) / f"{workload}-{seed}-{os.getpid()}"
    try:
        requests, setup_s, setup_times = timed_setup(cli, import_s, probe, workload,
                                                     seed, base, SETUP_REPEATS)
        gate = Gate(requests)
        detail = {"workload": workload, "seconds": seconds, "env": environment(seed),
                  "inputs": workloads.properties(requests),
                  "setup": {"import_s": import_s, "repeats_s": setup_times}}
        if not trace:
            detail["wrappers_installed"] = installed_wrappers()
            raw, factors, wall = closed_loop(cli, requests, gate, probe, seconds)
            gate.finish()
            latencies = [t * f for t, f in zip(raw, factors)]
            p, tail = tail_percentile(latencies)
            n = len(latencies)
            metrics = {
                "latency_p50_s": _metric(statistics.median(latencies), "s"),
                "latency_tail_s": _metric(tail, "s"),
                "requests_per_s": _metric(n / sum(latencies), "1/s"),
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            detail.update({"tail_percentile": p, "samples": n, "timed_wall_s": wall,
                           "speed_factor": {"median": statistics.median(factors),
                                            "min": min(factors), "max": max(factors)},
                           "raw": {"latency_p50_s": statistics.median(raw),
                                   "latency_tail_s": tail_percentile(raw)[1],
                                   "requests_per_s": n / wall}})
        else:
            tracer, overhead = traced_loop(cli, requests, gate, probe, seconds)
            gate.finish()
            values = tracer.metrics(overhead)
            metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER}
            shares = tracer.layer_shares()
            detail.update({"traced_requests": tracer.counts["requests"],
                           "spans": len(tracer.spans),
                           "layer_self_time_shares": shares,
                           "separation": separation(workload, values, shares)})
        detail["fail_ratio"] = _metric(gate.failed / gate.attempted, "ratio")
        detail["failures"] = gate.failures[:20]
    finally:
        shutil.rmtree(ROOT / base, ignore_errors=True)
        _remove_if_empty(ROOT / WORK_DIR)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


def separation(workload: str, values: Dict[str, float], shares: Dict[str, float]) -> Dict:
    """The layer separation each workload was chosen for, as measured."""
    sub_calls = sum(v for k, v in values.items()
                    if k.startswith("subdivision.") and k.endswith(".calls"))
    top2 = list(shares)[:2]
    if workload == "kernel-highorder":
        return {"newton_and_filters_top_self_time": sorted(top2) == ["filters", "newton"],
                "subdivision_calls_zero": sub_calls == 0}
    if workload == "spectrum-manyzeros":
        return {"subdivision_calls_zero": sub_calls == 0}
    return {"L_inv_calls_zero": values["newton.L_inv.calls"] == 0}


def _remove_if_empty(path: Path) -> None:
    with contextlib.suppress(OSError):
        path.rmdir()


def smoke(cli) -> int:
    """Every workload once, on its smallest classes, with the gate."""
    import workloads
    t0 = time.perf_counter()
    failed = 0
    base = Path(WORK_DIR) / f"smoke-{os.getpid()}"
    try:
        for w in workloads.WORKLOADS:
            requests, _ = setup(cli, w, 1, base / w, smoke=True)
            gate = Gate(requests)
            run_cycle(cli, [r.argv(ROOT) for r in requests], gate)
            gate.finish()
            failed += gate.failed
            print(json.dumps({"workload": w, "attempted": gate.attempted,
                              "failed": gate.failed, "failures": gate.failures}))
    finally:
        shutil.rmtree(ROOT / base, ignore_errors=True)
        _remove_if_empty(ROOT / WORK_DIR)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"smoke_s": elapsed, "failed": failed}))
    return 0 if failed == 0 and elapsed < SMOKE_BUDGET_S else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cli, import_s = load_program()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads  # imports convkern, so only after load_program()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once, small, and exit")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(cli)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return run(cli, import_s, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
