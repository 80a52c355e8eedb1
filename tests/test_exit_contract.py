"""The CLI's exit contract over seeded mutations of the fixture corpus.

Exit 0 prints a report whose "pass" is true, exit 1 one whose "pass" is
false, and exit 2 nothing on standard output and one "error:" line on
standard error (or argparse's usage text); no exception escapes main and no
warning is emitted.  Every CLI_CORPUS invocation runs as given and on
MUTANTS copies of its JSON inputs, each with one random edit drawn from a
fixed seed: a number, string or container replaced by an out-of-range or
ill-typed value, an entry deleted, or a list entry repeated.
"""

import copy
import json
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np

from conftest import CLI_CORPUS, FIXTURES
from convkern.cli import main

SEED = 20261020
MUTANTS = 40

# replacements for a leaf or a container: out of range, tiny, huge, ill-typed
VALUES = [0, -1, 1, 2, 7, 10 ** 6, 0.0, 0.5, -2.5, 1e-155, 1e155, 1e-308, 1e308,
          -1e308, True, None, "x", [], {}, [0], {"re": 0.0}]


def _nodes(obj, path=()):
    """Every (path, value) of a JSON tree, the root first."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutate(obj, rng):
    """A copy of obj with one random edit."""
    obj = copy.deepcopy(obj)
    nodes = list(_nodes(obj))[1:]
    if not nodes:
        return VALUES[rng.integers(len(VALUES))]
    path, value = nodes[rng.integers(len(nodes))]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    edit = rng.integers(3)
    if edit == 0:
        parent[key] = copy.deepcopy(VALUES[rng.integers(len(VALUES))])
    elif edit == 1:
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    else:
        parent[key] = [copy.deepcopy(value)] * 2
    return obj


def _run(argv):
    out, err = StringIO(), StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:  # the contract lets no exception escape
            return f"raised {type(exc).__name__}: {exc}"
    if caught:
        return f"warned {caught[0].category.__name__}: {caught[0].message}"
    out, err = out.getvalue(), err.getvalue()
    if code in (0, 1):
        try:
            passed = json.loads(out)["pass"]
        except (ValueError, KeyError, TypeError):
            return f"exit {code} without a report"
        if passed is not (code == 0):
            return f"exit {code} with a report whose pass is {passed}"
    elif code == 2:
        if out or not (err.startswith("error: ") and err.count("\n") == 1
                       or err.startswith("usage: ")):
            return f"exit 2 with stdout {out[:80]!r} and stderr {err[:200]!r}"
    else:
        return f"exit {code}"
    return None


def _cases(rng):
    """(argv, inputs): each corpus invocation, then its mutants; inputs
    maps an argument position to the JSON it reads."""
    for argv, _ in CLI_CORPUS:
        inputs = {}
        for i, arg in enumerate(argv):
            if arg.endswith(".json"):
                with open(os.path.join(FIXTURES, arg), encoding="utf-8") as fh:
                    text = fh.read()
                try:
                    inputs[i] = json.loads(text)
                except ValueError:  # malformed on purpose: passed through as is
                    inputs[i] = text
        yield argv, inputs
        parsed = [i for i, v in inputs.items() if not isinstance(v, str)]
        for _ in range(MUTANTS if parsed else 0):
            i = parsed[rng.integers(len(parsed))]
            yield argv, {**inputs, i: _mutate(inputs[i], rng)}


def test_exit_codes_follow_the_reports(tmp_path):
    rng = np.random.default_rng(SEED)
    violations = []
    for n, (argv, inputs) in enumerate(_cases(rng)):
        args = list(argv)
        for i, obj in inputs.items():
            path = tmp_path / f"{n}-{i}.json"
            path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
            args[i] = str(path)
        problem = _run(args)
        if problem:
            violations.append(f"{' '.join(argv)}: {problem}, on {inputs}")
    assert not violations, f"{len(violations)} runs break the contract:\n" + \
        "\n".join(v[:600] for v in violations[:10])
