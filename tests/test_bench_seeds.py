"""The benchmark's correctness gate over more seeds than the benchmark's own
smoke and full-cycle runs: every request class of every workload, seeds 2-4,
run twice in one process.  The gate's rules apply: the expected exit code,
the expected per-check verdicts, and a second pass byte-identical to the
first, so that state which outlives a request cannot change a report."""

import contextlib
import gc
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # bench/ is a folder of scripts, not a package

from convkern.cli import main


def _run(req, root):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(req.argv(root))
    return code, out.getvalue()


@pytest.mark.parametrize("seed", [2, 3, 4])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_passes_twice(workload, seed, tmp_path):
    requests = workloads.generate(workload, seed, tmp_path, Path(workload))
    first = [_run(req, tmp_path) for req in requests]
    gc.collect()
    second = [_run(req, tmp_path) for req in requests]
    for req, (code, out), again in zip(requests, first, second):
        name = f"{req.command} {' '.join(req.files)}"
        assert code == req.expected_exit, name
        key = "candidates" if req.command == "subdivide" else "checks"
        verdicts = tuple(check["pass"] for check in json.loads(out).get(key, []))
        assert verdicts == req.expected_checks, name
        assert again == (code, out), name
