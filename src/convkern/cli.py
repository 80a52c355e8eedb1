"""Command-line front end: verify | build-kernel | hermite | subdivide | eigen.

All commands read JSON files (or "-" for standard input) and write a JSON
report to standard output.  Exit codes: 0 when the report passes, 1 exactly
when the report's "pass" is false, 2 on malformed input or usage errors.
Each cmd_* reads its inputs with _read_inputs and returns its report; main
alone writes it with serialize.dumps and picks the exit code from its
"pass".

The CLI parses, names and prints: each verdict is a library certifier's
record (residual, tolerance, pass), and every oracle is kernel_residual.
Reports hold the library's own objects (theta tuples, complex values,
LaurentPoly bases and subsymbols) and serialize.dumps writes their JSON form.
Every ValueError, from a parser or the library, refuses the input: main
prints "error: <message>" and exits 2, as it does for a magnitude that
overflows double precision.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from . import serialize as ser
from .filters import MAX_TOL, ExpPolySeq, certified_window
from .newton import WITH_SIGMA_MINUS, build_p_theta
from .spectrum import (DEFAULT_TOL, certify_eigen, certify_hermite, certify_kernel,
                       require_kernel_windows)
from .subdivision import subdivision_kernel_check

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _read_json(path: str) -> Any:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text), text
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc


def _read_inputs(*paths: str) -> Tuple[List[Any], str]:
    """The parsed JSON of each path, all read before any is interpreted, and
    the inputs_digest, sha256 over their texts in order."""
    digest, objs = hashlib.sha256(), []
    for path in paths:
        obj, text = _read_json(path)
        objs.append(obj)
        digest.update(text.encode("utf-8"))
    return objs, digest.hexdigest()


def _check(name: str, rec: Mapping[str, Any]) -> Dict[str, Any]:
    """A report check from a library record's residual, tolerance and pass."""
    return {"name": name, "value": rec["residual"], "tolerance": rec["tolerance"],
            "pass": rec["pass"]}


def cmd_verify(args) -> Dict[str, Any]:
    (filters_obj, spec_obj), digest = _read_inputs(args.filters, args.spectrum)
    H = ser.filters_from_json(filters_obj)
    spec = ser.spectrum_from_json(spec_obj)
    cert = certify_kernel(H, spec, tol=args.tol, pad=args.window_pad)
    checks = [_check(f"dual[h={rec['filter']},zero={rec['zero']},q={rec['q']}]", rec)
              for rec in cert["conditions"]]
    for rec in cert["oracle"]:
        theta = [ser.complex_to_json(t) for t in rec["theta"]]
        checks.append(_check(f"oracle[theta={theta},deg={rec['degree']}]", rec))
    kernel = [{"theta": theta, "P_basis": P.elements} for theta, P in cert["kernel"]]
    return {"command": "verify", "inputs_digest": digest,
            "convention": WITH_SIGMA_MINUS, "checks": checks,
            "kernel": kernel, "pass": cert["pass"]}


def cmd_build_kernel(args) -> Dict[str, Any]:
    (spec_obj,), digest = _read_inputs(args.spectrum)
    spec = ser.spectrum_from_json(spec_obj)
    require_kernel_windows(spec, args.window_pad)
    kernel = []
    for zero in spec.zeros:
        P = build_p_theta(zero.mult, zero.theta)
        samples = []
        for p in P.elements:
            seq = ExpPolySeq.single(zero.theta, p)
            w = certified_window(spec.dim, p.degree(), args.window_pad)
            samples.append([{"alpha": alpha, "value": seq.value(alpha)}
                            for alpha in w.points()])
        kernel.append({"theta": zero.theta, "P_basis": P.elements,
                       "window_samples": samples})
    return {"command": "build-kernel", "inputs_digest": digest,
            "convention": WITH_SIGMA_MINUS, "kernel": kernel, "pass": True}


def cmd_hermite(args) -> Dict[str, Any]:
    (spec_obj,), digest = _read_inputs(args.spectrum)
    spec = ser.spectrum_from_json(spec_obj)
    cert = certify_hermite(spec)
    out: Dict[str, Any] = {"command": "hermite", "inputs_digest": digest}
    if "error" in cert:
        out["error"] = cert["error"]
    else:
        out.update(fundamentals=[{"zero": zi, "q": qi, "poly": p}
                                 for zi, qi, p in cert["system"].polys],
                   dual_matrix=cert["dual"].tolist(),
                   checks=[_check("kronecker_dual", cert["kronecker"])])
    out["pass"] = cert["pass"]
    return out


def cmd_subdivide(args) -> Dict[str, Any]:
    (mask_obj, dil_obj, cand_obj), digest = _read_inputs(args.mask, args.dilation,
                                                         args.candidates)
    a = ser.impulse_from_json(mask_obj)
    if a.is_zero:
        raise ValueError("mask has no nonzero tap")
    Xi = ser.dilation_from_json(dil_obj)
    candidates = ser.candidates_from_json(cand_obj)
    report = subdivision_kernel_check(a, Xi, candidates, tol=args.tol)
    checks = []
    for rec in report["candidates"]:
        theta = [ser.complex_to_json(t) for t in rec["theta"]]
        checks.append(_check(f"candidate[theta={theta},k={rec['order']}]", rec))
    return {"command": "subdivide", "inputs_digest": digest,
            "subsymbols": [{"coset": xi, "symbol": p}
                           for xi, p in sorted(report["subsymbols"].items())],
            "candidates": [{"theta": rec["theta"],
                            "order": rec["order"],
                            "symmetric_zero_violation": rec["symmetric_zero_violation"],
                            "subsymbol_violation": rec["subsymbol_violation"],
                            "oracle_residual": rec["oracle_residual"],
                            "pass": rec["pass"]}
                           for rec in report["candidates"]],
            "checks": checks, "pass": report["pass"]}


def cmd_eigen(args) -> Dict[str, Any]:
    (filt_obj, eig_obj), digest = _read_inputs(args.filter, args.eigenspec)
    h = ser.impulse_from_json(filt_obj)
    theta, lam, alpha_h, Q = ser.eigenspec_from_json(eig_obj, h.dim)
    cert = certify_eigen(h, theta, Q, lam, alpha_h, tol=args.tol, pad=args.window_pad)
    checks = [_check(f"eigen_condition[q={i}]", rec)
              for i, rec in enumerate(cert["conditions"])]
    checks.append(_check("eigen_residual[e_theta]", cert["oracle"]))
    return {"command": "eigen", "inputs_digest": digest,
            "checks": checks, "pass": cert["pass"]}


def _nonnegative(kind: type, upper: Optional[float] = None):
    """An argparse type: a finite, nonnegative value of kind, at most upper
    when one is given."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = -1
        # an int is finite, and one past float range must not be converted
        if not (value >= 0 and (isinstance(value, int) or math.isfinite(value))):
            raise argparse.ArgumentTypeError(f"must be a finite nonnegative {kind.__name__}, "
                                             f"got {text!r}")
        if upper is not None and value > upper:
            raise argparse.ArgumentTypeError(f"must be at most {upper:g}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convkern",
        description="Analyze and certify kernels of discrete convolution and "
                    "subdivision operators.")
    parser.add_argument("--tol", type=_nonnegative(float, MAX_TOL), default=DEFAULT_TOL,
                        help=f"uniform tolerance override, at most {MAX_TOL:g} "
                             "(default %(default)g)")
    parser.add_argument("--window-pad", type=_nonnegative(int), default=0,
                        help="extra padding of certification windows, nonnegative")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check dual conditions and certify the kernel")
    p.add_argument("filters")
    p.add_argument("spectrum")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("build-kernel", help="emit the P_theta bases of a spectrum")
    p.add_argument("spectrum")
    p.set_defaults(func=cmd_build_kernel)

    p = sub.add_parser("hermite", help="Hermite fundamental polynomials of a spectrum")
    p.add_argument("spectrum")
    p.set_defaults(func=cmd_hermite)

    p = sub.add_parser("subdivide", help="subdivision kernel analysis of a mask")
    p.add_argument("mask")
    p.add_argument("dilation")
    p.add_argument("candidates")
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("eigen", help="eigen-sequence conditions of a filter")
    p.add_argument("filter")
    p.add_argument("eigenspec")
    p.set_defaults(func=cmd_eigen)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args leaves it unchanged, so every
    main call reuses it instead of rebuilding the subcommands."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        return int(exc.code or 0)
    try:
        report = args.func(args)
        sys.stdout.write(ser.dumps(report))
    except ValueError as exc:  # the input is refused; a failed check is a report
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, ZeroDivisionError) as exc:  # a huge or tiny |theta|
        print(f"error: {exc}: input magnitudes overflow double precision",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS if report["pass"] else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
