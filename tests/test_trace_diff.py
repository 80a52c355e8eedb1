"""tools/trace_diff.py runs one traced benchmark per checkout and prints
each per-layer metric of BENCHMARK.json as parent, change and ratio; a stub
runner stands in for bench/run.py, so no benchmark process starts."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import trace_diff  # tools/ is a folder of scripts, not a package

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


class Stub:
    """A traced runner: the parent reads 2.0 for every metric, the change
    1.0, except where a side's overrides say otherwise (None drops the
    metric); it records its calls."""

    def __init__(self, parent=None, change=None, correct=True):
        self.overrides = {"parent": parent or {}, "change": change or {}}
        self.correct = correct
        self.calls = []

    def __call__(self, checkout, workload, seed, seconds, trace=0):
        side = checkout.name
        self.calls.append((side, workload, seed, seconds, trace))
        values = {name: 2.0 if side == "parent" else 1.0 for name in PER_LAYER}
        values.update(self.overrides[side])
        return {"correct": self.correct or side == "parent",
                "metrics": {name: {"value": v} for name, v in values.items() if v is not None}}


def _main(stub):
    return trace_diff.main(["parent", "change", "--workload", "kernel-highorder",
                            "--seed", "7"], runner=stub)


def test_one_traced_run_per_checkout_at_the_benchmarks_run_length(capsys):
    stub = Stub()
    assert _main(stub) == 0
    assert stub.calls == [("parent", "kernel-highorder", 7, BENCHMARK["run_seconds"], 1),
                          ("change", "kernel-highorder", 7, BENCHMARK["run_seconds"], 1)]


def test_every_per_layer_metric_as_parent_change_and_ratio(capsys):
    stub = Stub(parent={"cli.self_s": 0.0, "serialize.dumps_s": None},
                change={"filters.ExpPolySeq.value.calls": 121.0})
    assert _main(stub) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(":")[0].strip() for line in lines] == PER_LAYER
    by_name = {line.split(":")[0].strip(): line.split(": ", 1)[1] for line in lines}
    assert by_name["newton.L_inv.calls"] == "2, 1, 0.500"
    assert by_name["filters.ExpPolySeq.value.calls"] == "2, 121, 60.500"
    assert by_name["cli.self_s"] == "0, 1, -"
    assert by_name["serialize.dumps_s"] == "absent, 1, -"


def test_an_incorrect_run_exits_nonzero(capsys):
    assert _main(Stub(correct=False)) == 1
    assert capsys.readouterr().out == "not correct: change: no comparison\n"
