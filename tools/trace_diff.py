"""Compare the per-layer metrics of one traced benchmark run per checkout.

Usage: python tools/trace_diff.py PARENT CHANGE --workload W [--seed S]

Runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 1

once in PARENT, then once in CHANGE, T being BENCHMARK.json's run_seconds,
and prints every per_layer metric of BENCHMARK.json (this
repository's) as its parent value, its change value and their ratio,
change over parent ("-" when a run lacks it or the parent reads 0), so that a change's saving
can be located in the layer that was meant to save it.  A metric that a run
does not report reads "absent".  The exit code is 1 when either run is not
`correct: true` (or printed no result), else 0.
"""

import argparse
import json
import sys
from pathlib import Path

from bench_pairs import ROOT, run_bench


def _text(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def rows(parent: dict, change: dict, names: list) -> list:
    """(name, parent value, change value, ratio) per metric name; a value
    the run did not report is None, and so is a ratio without a nonzero
    parent value."""
    out = []
    for name in names:
        p, c = (run["metrics"].get(name, {}).get("value") for run in (parent, change))
        ratio = c / p if p and c is not None else None
        out.append((name, p, c, ratio))
    return out


def main(argv=None, runner=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    runs = {side: runner(getattr(args, side), args.workload, args.seed, seconds, trace=1)
            for side in ("parent", "change")}
    bad = [side for side, run in runs.items() if run.get("correct") is not True]
    if bad:
        print(f"not correct: {', '.join(bad)}: no comparison")
        return 1
    print(f"{args.workload} seed {args.seed}, one traced {seconds:g} s run each: "
          "parent, change, change/parent")
    names = [m["name"] for m in benchmark["per_layer"]]
    for name, p, c, ratio in rows(runs["parent"], runs["change"], names):
        print(f"  {name}: {_text(p)}, {_text(c)}, "
              f"{'-' if ratio is None else f'{ratio:.3f}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
