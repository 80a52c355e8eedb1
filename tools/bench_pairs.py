"""Time two checkouts of the benchmark in alternating pairs of runs.

Usage: python tools/bench_pairs.py PARENT CHANGE --workload W [--seed S]
                                   [--out RUNS.json]

Each of the ten pairs is one untraced run of

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

in each checkout, one process after another: the parent first in odd pairs
(1, 3, ...), the change first in even pairs.  T is BENCHMARK.json's
run_seconds, the run length the benchmark is judged at.  Every end-to-end
metric of BENCHMARK.json is then compared, with its `better` direction and
its relative `bound` read from that file (this repository's): each side's
median and quartiles, and the pairs the change won (a tie counts for
neither side).  A metric is flagged

    gain                the change won at least 9 of the 10 pairs and the
                        medians differ by more than the parent's
                        interquartile range;
    worse_beyond_bound  the change's median is worse than the parent's by
                        more than bound times the parent's median.

The exit code is 1 when any run is not `correct: true` (or printed no
result), else 0.  --out writes every run's result object and the summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int = 0) -> dict:
    """The result object, the last stdout line, of one benchmark run in
    checkout, untraced or traced; {"correct": False} when it printed none."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "error": proc.stderr.strip()[-500:]}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Summary of one metric over paired runs, parent[i] against change[i]."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3], "wins": wins,
            "pairs": len(parent),
            "gain": wins >= 9 and sign * (cm - pm) > p3 - p1,
            "worse_beyond_bound": sign * (pm - cm) > bound * abs(pm)}


def main(argv=None, runner=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    runs = {"parent": [], "change": []}
    for pair in range(1, PAIRS + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = runner(getattr(args, side), args.workload, args.seed, seconds)
            runs[side].append(result)
            print(f"pair {pair} {side}: correct={result.get('correct')}", file=sys.stderr)
    correct = all(r.get("correct") is True for side in runs.values() for r in side)
    summary = {}
    if correct:
        for m in metrics:
            values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                      for side, rs in runs.items()}
            summary[m["name"]] = compare(values["parent"], values["change"],
                                         m["better"], m["bound"])
    print(f"{args.workload} seed {args.seed}, {PAIRS} pairs of {seconds:g} s: "
          f"median [quartiles], parent -> change")
    for name, s in summary.items():
        flags = [flag for flag in ("gain", "worse_beyond_bound") if s[flag]]
        (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
        print(f"  {name}: {pm:.6g} [{p1:.6g}, {p3:.6g}] -> {cm:.6g} [{c1:.6g}, {c3:.6g}], "
              f"change won {s['wins']}/{s['pairs']}" + (f" ({', '.join(flags)})" if flags else ""))
    if not correct:
        print("  a run was not correct: no comparison")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                        "seconds": seconds, "runs": runs,
                                        "summary": summary}, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
