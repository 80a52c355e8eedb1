"""JSON schemas for polynomials, impulses, filter sets, spectra, dilations,
subdivision candidates and eigen specs.

All emitters order their output canonically (graded-lex term order, fixed key
order), so serialized bytes are reproducible across runs.

Parsers enforce the input contract and raise FormatError otherwise: every
real is a finite JSON number, every exponent, index, dimension, order and
matrix entry is a JSON integer (not a float or a bool), multiplicity spaces
have total degree and candidates order at most MAX_FACTORIAL, and a
dilation's coset search box holds at most MAX_COSET_SCAN points.

dumps writes a report as exactly the bytes of json.dumps(obj, indent=2,
allow_nan=False) followed by a newline: 2-space indent, "," and ": "
separators, "[]" and "{}" for empty containers, tuples as lists, strings and
keys through json.encoder.encode_basestring_ascii, floats and ints through
float.__repr__ and int.__repr__ (subclasses such as np.float64 included).
json.dumps with an indent runs the pure-Python generator encoder, because the
C encoder does not indent; a direct recursive writer that appends one
fragment per member is about twice as fast, at no more peak memory.  A
non-finite float cannot be written: dumps raises FormatError naming its path,
found by a second walk only after the writer hits it.  Other types and
non-str keys raise TypeError.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Sequence, Tuple

from .apolar import DInvariantSpace
from .filters import Impulse
from .mpoly import MAX_FACTORIAL, LaurentPoly
from .spectrum import Spectrum, Zero
from .subdivision import MAX_COSET_SCAN, Dilation, coset_scan_size


class FormatError(ValueError):
    """Malformed or inconsistent JSON payload."""


def _real(v: Any, what: str) -> float:
    try:
        if isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v):
            return float(v)
    except OverflowError:  # an integer too large for a float
        pass
    raise FormatError(f"{what} must be a finite number, got {v!r}")


def _integer(v: Any, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise FormatError(f"{what} must be an integer, got {v!r}")
    return v


def _array(obj: Any, what: str) -> list:
    if not isinstance(obj, list):
        raise FormatError(f"{what} must be a JSON array")
    return obj


def _integers(obj: Any, what: str) -> Tuple[int, ...]:
    return tuple(_integer(v, what) for v in _array(obj, what))


def _parts(entry: Dict[str, Any]) -> complex:
    """The complex number held in the "re" and "im" fields of an object."""
    return complex(_real(entry.get("re", 0.0), "re"), _real(entry.get("im", 0.0), "im"))


def complex_to_json(c: complex) -> Dict[str, float]:
    return {"re": float(c.real), "im": float(c.imag)}


def complex_from_json(obj: Any) -> complex:
    if not isinstance(obj, dict) or set(obj) - {"re", "im"}:
        raise FormatError(f"expected {{re, im}}, got {obj!r}")
    return _parts(obj)


def _thetas(obj: Any) -> Tuple[complex, ...]:
    return tuple(complex_from_json(t) for t in _array(obj, "theta"))


def poly_to_json(f: LaurentPoly) -> List[Dict[str, Any]]:
    return [{"exp": list(exp), "re": float(c.real), "im": float(c.imag)}
            for exp, c in f.sorted_terms()]


def poly_from_json(obj: Any, dim: int | None = None) -> LaurentPoly:
    terms = {}
    for entry in _array(obj, "polynomial"):
        if not isinstance(entry, dict) or "exp" not in entry:
            raise FormatError(f"bad polynomial term {entry!r}")
        exp = _integers(entry["exp"], "exponent")
        if dim is None:
            dim = len(exp)
        elif len(exp) != dim:
            raise FormatError("inconsistent exponent dimensions")
        terms[exp] = terms.get(exp, 0) + _parts(entry)
    if dim is None:
        raise FormatError("cannot infer dimension of an empty polynomial")
    if dim < 1:
        raise FormatError("polynomial dimension must be positive")
    return LaurentPoly(dim, terms)


def _basis_from_json(obj: Any, dim: int) -> Tuple[LaurentPoly, ...]:
    basis = tuple(poly_from_json(p, dim) for p in _array(obj, "Q_basis"))
    for p in basis:
        if p.is_poly and p.degree() > MAX_FACTORIAL:
            raise FormatError(f"Q_basis polynomial of total degree {p.degree()} "
                              f"exceeds the degree guard {MAX_FACTORIAL}")
    return basis


def _space(basis: Tuple[LaurentPoly, ...]) -> DInvariantSpace:
    try:
        return DInvariantSpace(basis)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def space_from_json(obj: Any, dim: int) -> DInvariantSpace:
    """A D-invariant space from a JSON array of basis polynomials."""
    return _space(_basis_from_json(obj, dim))


def impulse_to_json(h: Impulse) -> Dict[str, Any]:
    return {"dim": h.dim,
            "taps": [{"index": list(idx), "re": float(c.real), "im": float(c.imag)}
                     for idx, c in h.sorted_taps()]}


def impulse_from_json(obj: Any) -> Impulse:
    if not isinstance(obj, dict) or "dim" not in obj or "taps" not in obj:
        raise FormatError("impulse must be {dim, taps}")
    dim = _integer(obj["dim"], "dim")
    if dim < 1:
        raise FormatError("impulse dimension must be positive")
    taps = {}
    for entry in _array(obj["taps"], "taps"):
        if not isinstance(entry, dict) or "index" not in entry:
            raise FormatError(f"bad tap {entry!r}")
        idx = _integers(entry["index"], "tap index")
        if len(idx) != dim:
            raise FormatError("tap index has wrong dimension")
        taps[idx] = _parts(entry)
    return Impulse(dim, taps)


def filters_to_json(H: Sequence[Impulse]) -> Dict[str, Any]:
    return {"filters": [impulse_to_json(h) for h in H]}


def filters_from_json(obj: Any) -> List[Impulse]:
    if not isinstance(obj, dict) or "filters" not in obj:
        raise FormatError("filter file must be {filters: [...]}")
    out = [impulse_from_json(entry) for entry in _array(obj["filters"], "filters")]
    if not out:
        raise FormatError("empty filter list")
    if len({h.dim for h in out}) != 1:
        raise FormatError("filters have mixed dimensions")
    return out


def spectrum_to_json(spec: Spectrum) -> Dict[str, Any]:
    dim = spec.zeros[0].dim if spec.zeros else 0
    return {"dim": dim,
            "zeros": [{"theta": [complex_to_json(t) for t in z.theta],
                       "Q_basis": [poly_to_json(p) for p in z.mult.basis]}
                      for z in spec.zeros]}


def spectrum_from_json(obj: Any) -> Spectrum:
    if not isinstance(obj, dict) or "zeros" not in obj:
        raise FormatError("spectrum must be {dim, zeros}")
    dim = _integer(obj.get("dim", 0), "dim")
    if dim < 0:
        raise FormatError("spectrum dimension must be nonnegative")
    zeros = []
    # Zeros with equal bases share one space, so its D-invariance check and
    # orthonormal basis run once.  The key keeps each polynomial's term order,
    # on which the floating-point sums over its terms depend.
    spaces: Dict[Tuple, DInvariantSpace] = {}
    for entry in _array(obj["zeros"], "zeros"):
        if not isinstance(entry, dict) or not {"theta", "Q_basis"} <= set(entry):
            raise FormatError("zero must be {theta, Q_basis}")
        theta = _thetas(entry["theta"])
        if dim and len(theta) != dim:
            raise FormatError("theta has wrong dimension")
        basis = _basis_from_json(entry["Q_basis"], dim or len(theta))
        key = (dim or len(theta), tuple(tuple(p.terms.items()) for p in basis))
        if key not in spaces:
            spaces[key] = _space(basis)
        space = spaces[key]
        try:
            zeros.append(Zero(theta, space))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    # duplicate theta and similar violations are mathematical preconditions,
    # not format errors, so the Spectrum constructor's ValueError propagates
    return Spectrum(tuple(zeros))


def dilation_from_json(obj: Any) -> Dilation:
    if not isinstance(obj, dict) or "Xi" not in obj:
        raise FormatError("dilation must be {Xi}")
    rows = tuple(_integers(row, "dilation entry") for row in _array(obj["Xi"], "Xi"))
    try:
        Xi = Dilation(rows)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if coset_scan_size(Xi) > MAX_COSET_SCAN:
        raise FormatError(f"dilation's coset search box exceeds {MAX_COSET_SCAN} points")
    return Xi


def candidates_from_json(obj: Any) -> List:
    if not isinstance(obj, dict) or "candidates" not in obj:
        raise FormatError("candidates must be {candidates}")
    out = []
    for entry in _array(obj["candidates"], "candidates"):
        if not isinstance(entry, dict) or "theta" not in entry:
            raise FormatError("candidate must be {theta, order}")
        order = _integer(entry.get("order", 0), "candidate order")
        if not 0 <= order <= MAX_FACTORIAL:
            raise FormatError(f"candidate order must lie in 0..{MAX_FACTORIAL}, got {order}")
        out.append((_thetas(entry["theta"]), order))
    return out


def eigenspec_from_json(obj: Any, dim: int):
    """(theta, lambda, alpha, Q) of an eigen spec for a filter in dim
    variables; lambda defaults to 1, alpha to 0 and Q to the constants."""
    if not isinstance(obj, dict) or "theta" not in obj:
        raise FormatError("eigen spec must contain theta")
    theta = _thetas(obj["theta"])
    if len(theta) != dim:
        raise FormatError("theta has wrong dimension")
    lam = complex_from_json(obj.get("lambda", {"re": 1.0, "im": 0.0}))
    alpha = _integers(obj.get("alpha", [0] * dim), "eigen alpha")
    if len(alpha) != dim:
        raise FormatError("alpha has wrong dimension")
    basis = obj.get("Q_basis")
    if basis:
        Q = space_from_json(basis, dim)
    else:
        Q = DInvariantSpace((LaurentPoly.constant(dim, 1.0),))
    return theta, lam, alpha, Q


_string = json.encoder.encode_basestring_ascii
_float = float.__repr__
_int = int.__repr__


class _NonFinite(Exception):
    """A float that JSON cannot hold; dumps names it in a FormatError."""


def _scalar(v: Any) -> str | None:
    """JSON text of a scalar, None for a container; checked as json.dumps does."""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    if isinstance(v, str):
        return _string(v)
    if isinstance(v, int):
        return _int(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise _NonFinite
        return _float(v)
    if isinstance(v, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _write(obj: Any, parts: List[str], indent: str) -> None:
    """Append the text of a list, tuple or dict whose closing bracket sits at
    indent (a newline and spaces).  Exact floats, strs and ints take the
    inline paths.  Each member with a scalar value is one fragment: separate
    separator, key and value fragments raise the peak memory above
    json.dumps's."""
    inner = indent + "  "
    more = "," + inner
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            t = type(value)
            if t is float:
                if value - value:  # NaN for ±inf and NaN, 0.0 for every finite value
                    raise _NonFinite
                parts.append(f"{sep}{_string(key)}: {_float(value)}")
            elif t is str:
                parts.append(f"{sep}{_string(key)}: {_string(value)}")
            elif t is int:
                parts.append(f"{sep}{_string(key)}: {_int(value)}")
            elif t is list or t is dict or (text := _scalar(value)) is None:
                parts.append(f"{sep}{_string(key)}: ")
                _write(value, parts, inner)
            else:
                parts.append(f"{sep}{_string(key)}: {text}")
            sep = more
        parts.append(indent + "}")
    else:
        if not obj:
            parts.append("[]")
            return
        sep = "[" + inner
        for value in obj:
            t = type(value)
            if t is float:
                if value - value:
                    raise _NonFinite
                parts.append(sep + _float(value))
            elif t is int:
                parts.append(sep + _int(value))
            elif t is list or t is dict or (text := _scalar(value)) is None:
                parts.append(sep)
                _write(value, parts, inner)
            else:
                parts.append(sep + text)
            sep = more
        parts.append(indent + "]")


def _non_finite(obj: Any, path: str = "") -> Tuple[str, float] | None:
    """(path, value) of the first float in obj that is not finite, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for sub, value in items:
        found = _non_finite(value, sub)
        if found:
            return found
    return None


def dumps(obj: Any) -> str:
    """The bytes of json.dumps(obj, indent=2, allow_nan=False) + "\n", written
    directly; a non-finite float raises FormatError naming its path."""
    try:
        text = _scalar(obj)
        if text is None:
            parts: List[str] = []
            _write(obj, parts, "\n")
            text = "".join(parts)
    except _NonFinite:
        path, value = _non_finite(obj)
        raise FormatError(f"{path or 'report'} is {value!r}: input magnitudes "
                          "overflow double precision") from None
    return text + "\n"
