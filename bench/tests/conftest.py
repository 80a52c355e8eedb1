import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

# puts the checkout's src/ on sys.path before the test modules import convkern
CLI, _ = run.load_program()


@pytest.fixture(scope="session")
def cli():
    return CLI
