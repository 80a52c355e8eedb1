"""Run the benchmark's correctness gate over many seeds, untimed.

Usage: python tools/gate_seeds.py [--workloads W [W ...]] [--seeds 1-20]

For every workload and seed given, runs

    python3 bench/run.py --workload W --seed S --seconds 0 --trace 1

in its own process, one run after another: five set-up passes, then one
untraced and one traced pass over the seed's whole request cycle, each
response checked by the gate.  Every failing (workload, seed, exit code) is
printed with the first gate failures of its run; the exit code is 1 when
any run failed.  --seeds takes a range A-B or a comma-separated list.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("kernel-highorder", "spectrum-manyzeros", "subdivision-mix")


def seeds(text: str) -> list:
    """'1-20' or '3,9,11' as a list of ints."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def gate(workload: str, seed: int):
    """(exit code, gate failure lines) of one full-cycle run."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        failures = json.loads(lines[-2])["failures"]
    except (IndexError, ValueError, KeyError):
        failures = proc.stderr.splitlines()[-3:]
    return proc.returncode, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-20"))
    args = parser.parse_args(argv)
    runs = [(w, s) for w in args.workloads for s in args.seeds]
    results = [gate(workload, seed) for workload, seed in runs]
    failed = 0
    for (workload, seed), (code, failures) in zip(runs, results):
        if code != 0:
            failed += 1
            print(f"FAIL {workload} seed {seed}: exit {code}")
            for line in failures[:5]:
                print(f"    {line}")
    print(f"{len(runs) - failed} of {len(runs)} runs passed the gate")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
