"""tools/bench_pairs.py alternates parent and change runs, reads each
metric's direction and bound from BENCHMARK.json, and flags gains and
regressions; a stub runner stands in for bench/run.py, so no benchmark
process starts."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # tools/ is a folder of scripts, not a package

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


class Stub:
    """A runner whose change side reads values[pair] and whose parent side
    reads 100 for every metric; it records the order of the runs."""

    def __init__(self, change_values, correct=True):
        self.change_values = change_values
        self.correct = correct
        self.calls = []

    def __call__(self, checkout, workload, seed, seconds):
        self.calls.append((checkout.name, workload, seed, seconds))
        side = checkout.name
        pair = sum(1 for c in self.calls if c[0] == side) - 1
        value = 100.0 if side == "parent" else self.change_values[pair]
        return {"correct": self.correct if side == "change" else True,
                "metrics": {name: {"value": value} for name in METRICS}}


def _main(stub, tmp_path):
    out = tmp_path / "runs.json"
    code = bench_pairs.main(["parent", "change", "--workload", "spectrum-manyzeros",
                             "--seed", "13", "--out", str(out)], runner=stub)
    return code, json.loads(out.read_text())


def test_ten_pairs_at_the_benchmarks_run_length_alternate_which_side_runs_first(tmp_path):
    stub = Stub([100.0] * 10)
    code, data = _main(stub, tmp_path)
    assert code == 0
    assert [c[0] for c in stub.calls] == ["parent", "change", "change", "parent"] * 5
    assert {c[1:] for c in stub.calls} == \
        {("spectrum-manyzeros", 13, BENCHMARK["run_seconds"])}
    assert data["seconds"] == BENCHMARK["run_seconds"]


def test_wins_follow_each_metrics_direction(tmp_path):
    # nine pairs at 120 and one tie at 100: nine wins where higher is better
    code, data = _main(Stub([120.0] * 9 + [100.0]), tmp_path)
    summary = data["summary"]
    assert code == 0 and set(summary) == set(METRICS)
    rps, p50 = summary["requests_per_s"], summary["latency_p50_s"]
    assert rps["wins"] == 9 and rps["gain"] and not rps["worse_beyond_bound"]
    assert p50["wins"] == 0 and not p50["gain"]
    assert rps["parent"] == [100.0, 100.0, 100.0] and rps["change"][1] == 120.0
    # 120 against 100 is 20 % worse for a lower-is-better metric: inside 0.25, beyond 0.1
    assert not p50["worse_beyond_bound"]
    assert summary["peak_rss_mb"]["worse_beyond_bound"]


def test_gain_needs_nine_in_ten_wins(tmp_path):
    _, data = _main(Stub([120.0] * 8 + [90.0, 90.0]), tmp_path)
    assert data["summary"]["requests_per_s"]["wins"] == 8
    assert not data["summary"]["requests_per_s"]["gain"]


def test_gain_needs_a_gap_beyond_the_parents_spread():
    parent = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    change = [v + 1.0 for v in parent]
    summary = bench_pairs.compare(parent, change, "higher", 0.25)
    assert summary["wins"] == 10 and not summary["gain"]


@pytest.mark.parametrize("change, worse", [(74.0, True), (76.0, False)])
def test_worse_beyond_bound(change, worse):
    summary = bench_pairs.compare([100.0] * 3, [change] * 3, "higher", 0.25)
    assert summary["worse_beyond_bound"] is worse


def test_an_incorrect_run_exits_nonzero(tmp_path):
    code, data = _main(Stub([120.0] * 10, correct=False), tmp_path)
    assert code == 1 and data["summary"] == {}
