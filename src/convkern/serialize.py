"""JSON schemas for polynomials, impulses, filter sets, spectra, dilations,
subdivision candidates and eigen specs.  An impulse {dim, taps} is read as
its symbol, a LaurentPoly whose terms are the taps, and written from its
graded-lex sorted_terms.

All emitters order their output canonically (graded-lex term order, fixed key
order), so serialized bytes are reproducible across runs.

Parsers enforce the input contract and raise ValueError otherwise: every
real is a finite JSON number, every exponent, index, dimension, order and
matrix entry is a JSON integer (not a float or a bool), every theta lies in
C_x^s (no zero component), the zeros of a spectrum have pairwise distinct
theta (DUPLICATE_THETA_TOL), no impulse repeats a tap index, every filter of
a filter file has a nonzero tap, multiplicity spaces have total degree and
candidates order at most MAX_FACTORIAL, and a dilation has at most
MAX_DILATION_DIM rows, checked before any entry is read, and at most
MAX_COSETS cosets, |det Xi|.  The constructors the parsers call (Zero,
Spectrum, DInvariantSpace, Dilation) raise their own ValueError, which
passes through unchanged.

dumps writes a report as exactly the bytes of json.dumps(obj, indent=2,
allow_nan=False) followed by a newline: 2-space indent, "," and ": "
separators, "[]" and "{}" for empty containers, tuples as lists, strings and
keys through json.encoder.encode_basestring_ascii, floats and ints through
float.__repr__ and int.__repr__ (subclasses such as np.float64 included).
This module owns the JSON form of the report's three leaf types, and dumps
writes them itself: a complex (np.complex128 included) as the bytes of
complex_to_json, {"re", "im"}; a LaurentPoly as the bytes of poly_to_json,
its graded-lex term list [{"exp", "re", "im"}, ...]; and a
filters.WindowSamples as the bytes of samples_to_json, one
{"alpha": [...], "value": {"re", "im"}} per window point in
window.points() order; each is rendered in one pass with no intermediate
dict.  A polynomial's terms and a window's samples each fill one cached
%-template per (dimension, indent) with the exponents or the point (%d) and
the float.__repr__ text of the real and imaginary parts (%s, never %r,
which would write an np.float64 part as np.float64(...)); a sample's value
is checked for non-finite parts as a complex is.  A plain complex member of
a list or dict goes to its writer without the leaf dispatch.
json.dumps with an indent runs the pure-Python generator encoder, because
the C encoder does not indent; a direct recursive writer that appends one
fragment per member is about twice as fast, at no more peak memory.  A
non-finite float or complex part cannot be written: dumps raises ValueError
naming its path (a complex part as ".re" or ".im", a sample's as
"[k].value.re"), found by a second walk of the written form only after the
writer hits it.  Other types and non-str keys raise TypeError.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any, Dict, List, Sequence, Tuple

from .apolar import DInvariantSpace
from .filters import WindowSamples
from .mpoly import MAX_FACTORIAL, LaurentPoly
from .spectrum import Spectrum, Zero
from .subdivision import Dilation

MAX_COSETS = 10 ** 5  # cosets of Z^s / Xi Z^s, |det Xi|, that a dilation may have
# Rows of a dilation: its exact elimination, which the det cap needs, costs
# O(s^3) big-integer steps, and |det| cannot bound s (x^s - 2 has a
# companion matrix of |det| 2).
MAX_DILATION_DIM = 128


def _real(v: Any, what: str) -> float:
    try:
        if isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v):
            return float(v)
    except OverflowError:  # an integer too large for a float
        pass
    raise ValueError(f"{what} must be a finite number, got {v!r}")


def _integer(v: Any, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def _array(obj: Any, what: str) -> list:
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a JSON array")
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
        raise ValueError(f"expected {{re, im}}, got {obj!r}")
    return _parts(obj)


def _thetas(obj: Any) -> Tuple[complex, ...]:
    theta = tuple(complex_from_json(t) for t in _array(obj, "theta"))
    if 0 in theta:
        raise ValueError("theta must lie in C_x^s")
    return theta


def poly_to_json(f: LaurentPoly) -> List[Dict[str, Any]]:
    return [{"exp": list(exp), "re": float(c.real), "im": float(c.imag)}
            for exp, c in f.sorted_terms()]


def samples_to_json(s: WindowSamples) -> List[Dict[str, Any]]:
    return [{"alpha": list(alpha), "value": complex_to_json(v)}
            for alpha, v in zip(s.window.points(), s.values)]


def poly_from_json(obj: Any, dim: int | None = None) -> LaurentPoly:
    terms = {}
    for entry in _array(obj, "polynomial"):
        if not isinstance(entry, dict) or "exp" not in entry:
            raise ValueError(f"bad polynomial term {entry!r}")
        exp = _integers(entry["exp"], "exponent")
        if dim is None:
            dim = len(exp)
        elif len(exp) != dim:
            raise ValueError("inconsistent exponent dimensions")
        terms[exp] = terms.get(exp, 0) + _parts(entry)
    if dim is None:
        raise ValueError("cannot infer dimension of an empty polynomial")
    if dim < 1:
        raise ValueError("polynomial dimension must be positive")
    return LaurentPoly(dim, terms)


def _basis_from_json(obj: Any, dim: int) -> Tuple[LaurentPoly, ...]:
    basis = tuple(poly_from_json(p, dim) for p in _array(obj, "Q_basis"))
    for p in basis:
        if p.is_poly and p.degree() > MAX_FACTORIAL:
            raise ValueError(f"Q_basis polynomial of total degree {p.degree()} "
                             f"exceeds the degree guard {MAX_FACTORIAL}")
    return basis


def space_from_json(obj: Any, dim: int) -> DInvariantSpace:
    """A D-invariant space from a JSON array of basis polynomials."""
    return DInvariantSpace(_basis_from_json(obj, dim))


def impulse_to_json(h: LaurentPoly) -> Dict[str, Any]:
    return {"dim": h.dim,
            "taps": [{"index": list(idx), "re": float(c.real), "im": float(c.imag)}
                     for idx, c in h.sorted_terms()]}


def impulse_from_json(obj: Any) -> LaurentPoly:
    if not isinstance(obj, dict) or "dim" not in obj or "taps" not in obj:
        raise ValueError("impulse must be {dim, taps}")
    dim = _integer(obj["dim"], "dim")
    if dim < 1:
        raise ValueError("impulse dimension must be positive")
    taps = {}
    for entry in _array(obj["taps"], "taps"):
        if not isinstance(entry, dict) or "index" not in entry:
            raise ValueError(f"bad tap {entry!r}")
        idx = _integers(entry["index"], "tap index")
        if len(idx) != dim:
            raise ValueError("tap index has wrong dimension")
        if idx in taps:
            raise ValueError(f"repeated tap index {list(idx)}")
        taps[idx] = _parts(entry)
    return LaurentPoly(dim, taps)


def filters_to_json(H: Sequence[LaurentPoly]) -> Dict[str, Any]:
    return {"filters": [impulse_to_json(h) for h in H]}


def filters_from_json(obj: Any) -> List[LaurentPoly]:
    if not isinstance(obj, dict) or "filters" not in obj:
        raise ValueError("filter file must be {filters: [...]}")
    out = [impulse_from_json(entry) for entry in _array(obj["filters"], "filters")]
    if not out:
        raise ValueError("empty filter list")
    for i, h in enumerate(out):
        if h.is_zero:
            raise ValueError(f"filter {i} has no nonzero tap")
    if len({h.dim for h in out}) != 1:
        raise ValueError("filters have mixed dimensions")
    return out


def spectrum_to_json(spec: Spectrum) -> Dict[str, Any]:
    dim = spec.zeros[0].dim if spec.zeros else 0
    return {"dim": dim,
            "zeros": [{"theta": [complex_to_json(t) for t in z.theta],
                       "Q_basis": [poly_to_json(p) for p in z.mult.basis]}
                      for z in spec.zeros]}


def spectrum_from_json(obj: Any) -> Spectrum:
    if not isinstance(obj, dict) or "zeros" not in obj:
        raise ValueError("spectrum must be {dim, zeros}")
    dim = _integer(obj.get("dim", 0), "dim")
    if dim < 0:
        raise ValueError("spectrum dimension must be nonnegative")
    zeros = []
    # Zeros with equal bases share one space, so its D-invariance check and
    # orthonormal basis run once.  The key keeps each polynomial's term order,
    # on which the floating-point sums over its terms depend.
    spaces: Dict[Tuple, DInvariantSpace] = {}
    # A Q_basis repeated verbatim is parsed once: its repr tells apart every
    # two values the parser reads differently (true from 1, 1 from 1.0, -0.0
    # from 0.0, a list from a tuple), and only a basis that parsed is kept.
    parsed: Dict[Tuple[int, str], DInvariantSpace] = {}
    for entry in _array(obj["zeros"], "zeros"):
        if not isinstance(entry, dict) or not {"theta", "Q_basis"} <= set(entry):
            raise ValueError("zero must be {theta, Q_basis}")
        theta = _thetas(entry["theta"])
        if dim and len(theta) != dim:
            raise ValueError("theta has wrong dimension")
        raw = (dim or len(theta), repr(entry["Q_basis"]))
        if raw not in parsed:
            basis = _basis_from_json(entry["Q_basis"], raw[0])
            key = (raw[0], tuple(tuple(p.terms.items()) for p in basis))
            if key not in spaces:
                spaces[key] = DInvariantSpace(basis)
            parsed[raw] = spaces[key]
        zeros.append(Zero(theta, parsed[raw]))
    return Spectrum(tuple(zeros))


def dilation_from_json(obj: Any) -> Dilation:
    if not isinstance(obj, dict) or "Xi" not in obj:
        raise ValueError("dilation must be {Xi}")
    rows = _array(obj["Xi"], "Xi")
    if len(rows) > MAX_DILATION_DIM:
        raise ValueError(f"dilation has {len(rows)} rows, above the limit of {MAX_DILATION_DIM}")
    Xi = Dilation(tuple(_integers(row, "dilation entry") for row in rows))
    if Xi.coset_count > MAX_COSETS:
        raise ValueError(f"dilation has |det Xi| = {Xi.coset_count} cosets, "
                         f"above the limit of {MAX_COSETS}")
    return Xi


def candidates_from_json(obj: Any) -> List:
    if not isinstance(obj, dict) or "candidates" not in obj:
        raise ValueError("candidates must be {candidates}")
    out = []
    for entry in _array(obj["candidates"], "candidates"):
        if not isinstance(entry, dict) or "theta" not in entry:
            raise ValueError("candidate must be {theta, order}")
        order = _integer(entry.get("order", 0), "candidate order")
        if not 0 <= order <= MAX_FACTORIAL:
            raise ValueError(f"candidate order must lie in 0..{MAX_FACTORIAL}, got {order}")
        out.append((_thetas(entry["theta"]), order))
    return out


def eigenspec_from_json(obj: Any, dim: int):
    """(theta, lambda, alpha, Q) of an eigen spec for a filter in dim
    variables; lambda defaults to 1, alpha to 0 and Q to the constants."""
    if not isinstance(obj, dict) or "theta" not in obj:
        raise ValueError("eigen spec must contain theta")
    theta = _thetas(obj["theta"])
    if len(theta) != dim:
        raise ValueError("theta has wrong dimension")
    lam = complex_from_json(obj.get("lambda", {"re": 1.0, "im": 0.0}))
    alpha = _integers(obj.get("alpha", [0] * dim), "eigen alpha")
    if len(alpha) != dim:
        raise ValueError("alpha has wrong dimension")
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
    """A float that JSON cannot hold; dumps names it in a ValueError."""


@functools.lru_cache(maxsize=None)
def _term_template(dim: int, indent: str) -> str:
    """The %-template of one term of a polynomial in dim variables whose
    closing bracket sits at indent: dim %d for the exponent, then %s for
    the real and the imaginary part."""
    i1 = indent + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    exp = ("," + i3).join(["%d"] * dim)
    return f'{{{i2}"exp": [{i3}{exp}{i2}],{i2}"re": %s,{i2}"im": %s{i1}}}'


def _poly(p: LaurentPoly, indent: str) -> str:
    """The text of poly_to_json(p) whose closing bracket sits at indent.  An
    exponent is never empty (dim >= 1) and a coefficient is always a finite
    complex (LaurentPoly checks it), so neither needs the writer's checks;
    its parts are floats, np.float64 included, written by float.__repr__."""
    if not p.terms:
        return "[]"
    template = _term_template(p.dim, indent)
    terms = [template % (*exp, _float(c.real), _float(c.imag)) for exp, c in p.sorted_terms()]
    i1 = indent + "  "
    return "[" + i1 + ("," + i1).join(terms) + indent + "]"


@functools.lru_cache(maxsize=None)
def _sample_template(dim: int, indent: str) -> str:
    """The %-template of one sample of a dim-variate window whose closing
    bracket sits at indent: dim %d for the point, then %s for the real and
    the imaginary part of the value."""
    i1 = indent + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    alpha = f"[{i3}" + ("," + i3).join(["%d"] * dim) + f"{i2}]" if dim else "[]"
    return f'{{{i2}"alpha": {alpha},{i2}"value": {{{i3}"re": %s,{i3}"im": %s{i2}}}{i1}}}'


def _samples(s: WindowSamples, indent: str) -> str:
    """The text of samples_to_json(s) whose closing bracket sits at indent:
    one template per sample, filled with the window point and the
    float.__repr__ text of the value's parts, checked as _complex checks
    them.  A window has at least one point, so the list is never empty."""
    template = _sample_template(s.window.dim, indent)
    texts = []
    for alpha, z in zip(s.window.points(), s.values):
        re, im = float(z.real), float(z.imag)
        if re - re or im - im:
            raise _NonFinite
        texts.append(template % (*alpha, _float(re), _float(im)))
    i1 = indent + "  "
    return "[" + i1 + ("," + i1).join(texts) + indent + "]"


def _complex(z: complex, indent: str) -> str:
    """The text of complex_to_json(z) whose closing brace sits at indent."""
    re, im = float(z.real), float(z.imag)
    if re - re or im - im:
        raise _NonFinite
    inner = indent + "  "
    return f'{{{inner}"re": {_float(re)},{inner}"im": {_float(im)}{indent}}}'


def _scalar(v: Any, indent: str) -> str | None:
    """JSON text of a leaf whose closing bracket, if it has one, sits at
    indent; None for a container; checked as json.dumps does."""
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
    if isinstance(v, complex):
        return _complex(v, indent)
    if isinstance(v, LaurentPoly):
        return _poly(v, indent)
    if isinstance(v, WindowSamples):
        return _samples(v, indent)
    if isinstance(v, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _write(obj: Any, parts: List[str], indent: str) -> None:
    """Append the text of a list, tuple or dict whose closing bracket sits at
    indent (a newline and spaces).  Exact floats, strs and ints take the
    inline paths.  Each member with a leaf value is one fragment: separate
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
            elif t is complex:
                parts.append(f"{sep}{_string(key)}: {_complex(value, inner)}")
            elif t is list or t is dict or (text := _scalar(value, inner)) is None:
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
            elif t is complex:
                parts.append(sep + _complex(value, inner))
            elif t is list or t is dict or (text := _scalar(value, inner)) is None:
                parts.append(sep)
                _write(value, parts, inner)
            else:
                parts.append(sep + text)
            sep = more
        parts.append(indent + "]")


def _non_finite(obj: Any, path: str = "") -> Tuple[str, float] | None:
    """(path, value) of the first float in obj that is not finite, or None;
    a complex, LaurentPoly or WindowSamples is walked in its written form."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, complex):
        obj = complex_to_json(obj)
    elif isinstance(obj, LaurentPoly):
        obj = poly_to_json(obj)
    elif isinstance(obj, WindowSamples):
        obj = samples_to_json(obj)
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
    """The bytes of json.dumps(plain(obj), indent=2, allow_nan=False) + "\n",
    where plain maps each complex through complex_to_json, each LaurentPoly
    through poly_to_json and each WindowSamples through samples_to_json,
    written directly; a non-finite float or complex part raises ValueError
    naming its path."""
    try:
        text = _scalar(obj, "\n")
        if text is None:
            parts: List[str] = []
            _write(obj, parts, "\n")
            text = "".join(parts)
    except _NonFinite:
        path, value = _non_finite(obj)
        raise ValueError(f"{path or 'report'} is {value!r}: input magnitudes "
                         "overflow double precision") from None
    return text + "\n"
