"""tools/report_manifest.py hashes a run's output with its input directory
replaced by a placeholder, so one output gives one digest wherever the
checkout lives."""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

from convkern.cli import main

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import report_manifest  # tools/ is a folder of scripts, not a package

FILES = ("malformed.json", "spectrum_theta1_const.json")


def test_refusal_naming_its_file_has_one_digest(tmp_path):
    records = []
    for root in ("one", "two/deeper"):
        directory = tmp_path / root
        directory.mkdir(parents=True)
        for name in FILES:
            shutil.copy(os.path.join(FIXTURES, name), directory)
        run_argv = ["verify", *(str(directory / name) for name in FILES)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            main(run_argv)
        assert str(directory) in err.getvalue()  # the stderr does name the path
        records.append(report_manifest._record(main, ["verify", *FILES], run_argv,
                                               str(directory), "<fixtures>"))
    assert records[0] == records[1]
    assert records[0][1] == 2
