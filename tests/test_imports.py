"""No module of the package, the tests or the demos imports a name it never
uses, and no private helper of the package goes unread.  No linter is
assumed: an ast scan collects each module's imported names and the names it
reads, counting those inside string annotations.  The package's
__init__.py files are exempt from the import check, since their imports
are its re-exports.  A private function or method (_name, not a dunder)
defined in src/convkern must be read, as a name or as an attribute, by some
file under src, tests, demos, bench or tools."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(p for folder in ("src/convkern", "tests", "demos")
                 for p in (ROOT / folder).glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src/convkern").rglob("*.py"))
READERS = sorted(p for folder in ("src", "tests", "demos", "bench", "tools")
                 for p in (ROOT / folder).rglob("*.py"))


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


def _private_defs(tree):
    """(name, line) of every function or method named _name, not __name__."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.name.startswith("_") and not node.name.endswith("__"):
            yield node.name, node.lineno


def _reads(tree):
    """Every name the module reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def names_read(sources):
    """Every name the sources read, bare or as an attribute."""
    return set().union(*(_reads(ast.parse(source)) for source in sources))


def unread_private_helpers(source, read):
    """(name, line) of the private helpers source defines whose names are
    not in read."""
    return sorted((name, line) for name, line in _private_defs(ast.parse(source))
                  if name not in read)


def test_every_private_helper_is_read():
    read = names_read(path.read_text(encoding="utf-8") for path in READERS)
    dead = {path.relative_to(ROOT).as_posix():
            unread_private_helpers(path.read_text(encoding="utf-8"), read) for path in PACKAGE}
    assert {path: names for path, names in dead.items() if names} == {}


def test_scan_flags_an_unread_private_helper():
    source = ("class A:\n    def _used(self):\n        return 1\n"
              "    def _dead(self):\n        return self._used()\n"
              "    def __repr__(self):\n        return ''\n"
              "def _orphan():\n    pass\n"
              "def _called():\n    pass\n")
    assert unread_private_helpers(source, names_read([source, "_called()\n"])) == \
        [("_dead", 4), ("_orphan", 8)]
