"""Byte-identity manifest of the benchmark's and the fixture corpus's CLI reports.

Usage: python tools/report_manifest.py OUT.json [CHECKOUT]

Generates the inputs of seeds 1, 9 and 11 for every benchmark workload with
bench/workloads.generate, and runs every request in-process with the default
flags, with --window-pad 3 and with --tol 1e-6; then runs every CLI_CORPUS
invocation of tests/conftest.py with the same three flag sets.  It writes
one record [argv, exit code, sha256(stdout), sha256(stderr)] per run.
Before hashing, the fixtures directory and the temporary input directory
are replaced by the placeholders <fixtures> and <inputs>, so a refusal that
names its input file gives one digest wherever the checkout lives.
convkern and the generators are imported from CHECKOUT (default: this
repository); the fixture corpus, its list and its files, is always this
repository's, so the outputs of two checkouts diff to exactly the runs whose
bytes or exit codes differ, refusals' stderr included.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 9, 11)
FLAGS = ((), ("--window-pad", "3"), ("--tol", "1e-6"))
TESTS = Path(__file__).resolve().parents[1] / "tests"


def _sha(text: str, directory: str, placeholder: str) -> str:
    """sha256 of text with every occurrence of directory read as placeholder."""
    return hashlib.sha256(text.replace(directory, placeholder).encode("utf-8")).hexdigest()


def _record(main, argv, run_argv, directory: str, placeholder: str) -> list:
    """Run main(run_argv), whose input files lie in directory, and record it
    under argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(run_argv)
    return [argv, code, _sha(out.getvalue(), directory, placeholder),
            _sha(err.getvalue(), directory, placeholder)]


def manifest(checkout: Path) -> list:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as the benchmark pins them, before numpy loads
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from convkern.cli import main
    from workloads import WORKLOADS, generate
    sys.path.append(str(TESTS))
    from conftest import CLI_CORPUS, FIXTURES
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                for req in generate(workload, seed, Path(tmp), Path(f"{workload}-{seed}")):
                    for flags in FLAGS:
                        argv = [*flags, req.command, *req.files]  # recorded relative
                        records.append(_record(main, argv, [*flags, *req.argv(Path(tmp))],
                                               tmp, "<inputs>"))
    for flags in FLAGS:
        for argv, _ in CLI_CORPUS:
            files = [os.path.join(FIXTURES, a) if a.endswith(".json") else a for a in argv]
            records.append(_record(main, [*flags, *argv], [*flags, *files],
                                   FIXTURES, "<fixtures>"))
    return records


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    root = Path(sys.argv[2] if len(sys.argv) == 3 else Path(__file__).resolve().parents[1])
    records = manifest(root.resolve())
    lines = ",\n".join(json.dumps(r) for r in records)  # one run per line diffs cleanly
    Path(sys.argv[1]).write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"{len(records)} runs written to {sys.argv[1]}")
