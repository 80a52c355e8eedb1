"""serialize.dumps writes the bytes of json.dumps(plain(obj), indent=2,
allow_nan=False) + "\\n" directly, where plain maps each complex and
LaurentPoly leaf through complex_to_json and poly_to_json; json.dumps stays
here as the reference."""

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

from convkern import LaurentPoly
from convkern import serialize as ser
from convkern.cli import main

ROOT = Path(__file__).resolve().parents[1]


def reference(obj):
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def plain(obj):
    """obj with every complex and LaurentPoly leaf in its JSON form."""
    if isinstance(obj, complex):
        return ser.complex_to_json(obj)
    if isinstance(obj, LaurentPoly):
        return ser.poly_to_json(obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


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
finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)
polys = st.integers(1, 3).flatmap(
    lambda dim: st.dictionaries(st.tuples(*[st.integers(-3, 3)] * dim), finite_complex,
                                max_size=5).map(lambda terms: LaurentPoly(dim, terms)))
leaves = st.one_of(scalars, finite_complex, finite_complex.map(np.complex128),
                   st.sampled_from([0j, complex(-0.0, -0.0), 5e-324j, complex(1e22, -0.1)]),
                   polys, st.just(LaurentPoly.zero(2)))
trees = st.recursive(
    leaves,
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               st.dictionaries(st.text(max_size=8), children, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_matches_json_dumps(obj):
    assert ser.dumps(obj) == reference(plain(obj))


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


@pytest.mark.parametrize("obj, path", [
    ({"dual_matrix": [[1j, complex(math.nan, 0.0)]]}, r"dual_matrix\[0\]\[1\]\.re is nan"),
    ({"kernel": [{"window_samples": [[{"value": 1j}, {"value": complex(1.0, math.inf)}]]}]},
     r"kernel\[0\]\.window_samples\[0\]\[1\]\.value\.im is inf"),
    (({"theta": (np.complex128(complex(0.0, -math.inf)),)},), r"\[0\]\.theta\[0\]\.im is -inf"),
    (complex(math.nan, 1.0), r"re is nan"),
], ids=["in-list", "in-dict", "np.complex128", "top"])
def test_non_finite_complex_names_its_path(obj, path):
    """A complex is walked in its written form, so a part names its path
    as .re or .im."""
    with pytest.raises(ValueError, match=f"^{path}: input magnitudes overflow"):
        ser.dumps(obj)


@pytest.mark.parametrize("bad", [{1: 2}, {None: 0}, {(1,): 0}, [np.complex64(1j)], [{1, 2}],
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
    for report in reports:
        assert ser.dumps(report) == reference(plain(report))
    largest = max(reports, key=lambda obj: len(ser.dumps(obj)))
    plain_largest = plain(largest)
    assert _peak(ser.dumps, largest) <= 1.1 * _peak(reference, plain_largest)
