"""serialize.dumps writes the bytes of json.dumps(obj, indent=2,
allow_nan=False) + "\\n" directly; json.dumps stays here as the reference."""

import importlib.util
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convkern import serialize as ser
from convkern.cli import main

ROOT = Path(__file__).resolve().parents[1]


def reference(obj):
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


class _Int(int):
    pass


class _Str(str):
    pass


finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200), st.integers().map(_Int),
    finite, finite.map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, 1e16, 1e22, 1.7976931348623157e308]),
    st.text(), st.text().map(_Str),
    st.sampled_from(["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "θ⁻¹", "😀", "\ud800"]),
)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               st.dictionaries(st.text(max_size=8), children, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_matches_json_dumps(obj):
    assert ser.dumps(obj) == reference(obj)


@pytest.mark.parametrize("obj", [{}, [], (), {"a": {}}, {"a": [[], {}]}, [()], "", 0, None],
                         ids=repr)
def test_empty_containers_and_top_level_scalars(obj):
    assert ser.dumps(obj) == reference(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                 np.float64("-inf")], ids=repr)
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1.0, v], lambda v: {"a": {"b": v}},
                                  lambda v: ({"a": (v,)},)],
                         ids=["top", "list", "dict", "tuple"])
def test_non_finite_raises_value_error(bad, wrap):
    with pytest.raises(ValueError):
        reference(wrap(bad))
    with pytest.raises(ValueError):
        ser.dumps(wrap(bad))


def test_non_finite_names_its_path():
    obj = {"checks": [{"value": 1.0, "tolerance": 2.0},
                      {"value": math.nan, "tolerance": math.inf}]}
    with pytest.raises(ValueError,
                       match=r"^checks\[1\]\.value is nan: input magnitudes overflow"):
        ser.dumps(obj)


@pytest.mark.parametrize("bad", [{1: 2}, {None: 0}, {(1,): 0}, [1j], [{1, 2}],
                                 pytest.param([object()], id="[object()]"),
                                 [b"bytes"], {"a": np.int64(1)}, np.bool_(True)],
                         ids=repr)
def test_other_types_raise_type_error(bad):
    with pytest.raises(TypeError):
        ser.dumps(bad)


def _smoke_reports(tmp_path, monkeypatch):
    """The report object of every request of the benchmark's smoke cycles."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    reports = []
    dumps = ser.dumps
    monkeypatch.setattr(ser, "dumps", lambda obj: reports.append(obj) or dumps(obj))
    for name in workloads.WORKLOADS:
        for req in workloads.generate(name, 1, tmp_path, Path(name), smoke=True):
            main(req.argv(tmp_path))
    return reports


def _peak(fn, obj):
    tracemalloc.start()
    try:
        fn(obj)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_peak_on_largest_smoke_report(tmp_path, monkeypatch, capsys):
    reports = _smoke_reports(tmp_path, monkeypatch)
    monkeypatch.undo()
    capsys.readouterr()
    largest = max(reports, key=lambda obj: len(reference(obj)))
    assert ser.dumps(largest) == reference(largest)
    assert _peak(ser.dumps, largest) <= 1.1 * _peak(reference, largest)
