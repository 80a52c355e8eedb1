"""The benchmark under bench/ drives convkern from outside; these checks keep
the names and the smoke run it relies on working, so that a renamed traced
function fails here rather than in a benchmark run."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tracing_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, qualname",
                         [(t[0], t[1]) for t in _tracing_targets()],
                         ids=lambda v: v)
def test_traced_target_resolves(module, qualname):
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        assert part in vars(owner), f"{module}.{qualname} is gone"
        owner = vars(owner)[part]
    assert callable(owner)


def test_smoke_run_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["kernel-highorder", "spectrum-manyzeros",
                                      "subdivision-mix"])
def test_full_cycle_passes(workload):
    """One untraced and one traced pass over every request class of the
    workload, through the correctness gate; the smoke run covers only the
    first classes."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_bench_suite_passes():
    """The benchmark's own tests pin nonzero call counts on traced names
    (EXPECTED_NONZERO); a refactor that drops one fails here, not only in a
    benchmark run."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "bench/tests", "-q",
                           "-p", "no:cacheprovider"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
