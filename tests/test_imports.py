"""No module of the package, the tests or the demos imports a name it never
uses.  No linter is assumed: an ast scan collects each module's imported
names and the names it reads, counting those inside string annotations.
The package's __init__.py files are exempt, since their imports are its
re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(p for folder in ("src/convkern", "tests", "demos")
                 for p in (ROOT / folder).glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) of every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Every name the module reads, including those of string annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    source = ("from typing import List, Sequence\nimport numpy as np\nimport os.path\n"
              "def f(x: 'Sequence[int]') -> None:\n    return os.path.join(x)\n")
    assert unused_imports(source) == [("List", 1), ("np", 2)]
