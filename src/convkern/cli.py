"""Command-line front end: verify | build-kernel | hermite | subdivide | eigen.

All commands read JSON files (or "-" for standard input) and write a JSON
report to standard output.  Exit codes: 0 when every check passes, 1 when a
mathematical check fails, 2 on malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from . import serialize as ser
from .filters import ORACLE_TOL, ExpPolySeq, certified_window, eigen_conditions, eigen_residual
from .mpoly import LaurentPoly
from .newton import WITH_SIGMA_MINUS, WITHOUT_SIGMA_MINUS, build_p_theta
from .serialize import FormatError
from .spectrum import (DEFAULT_CONVENTION, DEFAULT_TOL, KRONECKER_TOL, certify_kernel,
                       hermite_fundamentals)
from .subdivision import NotExpandingError, subdivision_kernel_check

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
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text), text
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
    return h.hexdigest()


def _c(z: complex) -> Dict[str, float]:
    return ser.complex_to_json(z)


def _resolve_convention(flag: str) -> str:
    return {"auto": DEFAULT_CONVENTION,
            "with-sigma": WITH_SIGMA_MINUS,
            "without-sigma": WITHOUT_SIGMA_MINUS}[flag]


def cmd_verify(args) -> int:
    (filters_obj, ftext) = _read_json(args.filters)
    (spec_obj, stext) = _read_json(args.spectrum)
    H = ser.filters_from_json(filters_obj)
    spec = ser.spectrum_from_json(spec_obj)
    if spec.zeros and spec.dim != H[0].dim:
        raise FormatError("filter and spectrum dimensions differ")
    convention = _resolve_convention(args.convention)
    cert = certify_kernel(H, spec, convention, tol=args.tol, pad=args.window_pad)
    checks: List[Dict[str, Any]] = [
        {"name": f"dual[h={rec['filter']},zero={rec['zero']},q={rec['q']}]",
         "value": rec["residual"], "tolerance": rec["tolerance"], "pass": rec["pass"]}
        for rec in cert["conditions"]]
    checks += [{"name": f"oracle[theta={[_c(t) for t in rec['theta']]},deg={rec['degree']}]",
                "value": rec["residual"], "tolerance": rec["tolerance"], "pass": rec["pass"]}
               for rec in cert["oracle"]]
    kernel = [{"theta": [_c(t) for t in theta],
               "P_basis": [ser.poly_to_json(p) for p in P.elements]}
              for theta, P in cert["kernel"]]

    out = {"command": "verify", "inputs_digest": _digest(ftext, stext),
           "convention": convention, "checks": checks,
           "kernel": kernel, "pass": cert["pass"]}
    sys.stdout.write(ser.dumps(out))
    return EXIT_PASS if cert["pass"] else EXIT_FAIL


def cmd_build_kernel(args) -> int:
    (spec_obj, stext) = _read_json(args.spectrum)
    spec = ser.spectrum_from_json(spec_obj)
    convention = _resolve_convention(args.convention)
    kernel = []
    for zero in spec.zeros:
        P = build_p_theta(zero.mult, zero.theta, convention)
        samples = []
        for p in P.elements:
            seq = ExpPolySeq.single(zero.theta, p)
            w = certified_window(seq, pad=args.window_pad)
            samples.append([{"alpha": list(alpha), "value": _c(seq.value(alpha))}
                            for alpha in w.points()])
        kernel.append({"theta": [_c(t) for t in zero.theta],
                       "P_basis": [ser.poly_to_json(p) for p in P.elements],
                       "window_samples": samples})
    out = {"command": "build-kernel", "inputs_digest": _digest(stext),
           "convention": convention, "kernel": kernel, "pass": True}
    sys.stdout.write(ser.dumps(out))
    return EXIT_PASS


def cmd_hermite(args) -> int:
    (spec_obj, stext) = _read_json(args.spectrum)
    spec = ser.spectrum_from_json(spec_obj)
    try:
        system = hermite_fundamentals(spec)
    except ValueError as exc:
        sys.stdout.write(ser.dumps({"command": "hermite",
                                    "inputs_digest": _digest(stext),
                                    "error": str(exc), "pass": False}))
        return EXIT_FAIL
    dual = system.dual_matrix()
    n = dual.shape[0]
    max_off = float(np.max(np.abs(dual - np.eye(n)), initial=0.0))
    passed = max_off <= KRONECKER_TOL
    out = {"command": "hermite", "inputs_digest": _digest(stext),
           "fundamentals": [{"zero": zi, "q": qi, "poly": ser.poly_to_json(p)}
                            for zi, qi, p in system.polys],
           "dual_matrix": [[_c(dual[i, j]) for j in range(n)] for i in range(n)],
           "checks": [{"name": "kronecker_dual", "value": max_off,
                       "tolerance": KRONECKER_TOL, "pass": passed}],
           "pass": passed}
    sys.stdout.write(ser.dumps(out))
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_subdivide(args) -> int:
    (mask_obj, mtext) = _read_json(args.mask)
    (dil_obj, dtext) = _read_json(args.dilation)
    (cand_obj, ctext) = _read_json(args.candidates)
    a = ser.impulse_from_json(mask_obj)
    if a.is_zero:
        raise FormatError("mask has no nonzero tap")
    Xi = ser.dilation_from_json(dil_obj)
    candidates = ser.candidates_from_json(cand_obj)
    if a.dim != Xi.dim:
        raise FormatError("mask and dilation dimensions differ")
    try:
        report = subdivision_kernel_check(a, Xi, candidates, tol=args.tol)
    except NotExpandingError as exc:
        raise FormatError(str(exc)) from exc
    checks = [{"name": f"candidate[theta={[_c(t) for t in rec['theta']]},k={rec['order']}]",
               "value": max(rec["symmetric_zero_violation"],
                            rec["subsymbol_violation"], rec["oracle_residual"]),
               "tolerance": args.tol, "pass": rec["pass"]}
              for rec in report["candidates"]]
    out = {"command": "subdivide", "inputs_digest": _digest(mtext, dtext, ctext),
           "subsymbols": [{"coset": list(xi), "symbol": ser.poly_to_json(p)}
                          for xi, p in sorted(report["subsymbols"].items())],
           "candidates": [{"theta": [_c(t) for t in rec["theta"]],
                           "order": rec["order"],
                           "symmetric_zero_violation": rec["symmetric_zero_violation"],
                           "subsymbol_violation": rec["subsymbol_violation"],
                           "oracle_residual": rec["oracle_residual"],
                           "pass": rec["pass"]}
                          for rec in report["candidates"]],
           "checks": checks, "pass": report["pass"]}
    sys.stdout.write(ser.dumps(out))
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def cmd_eigen(args) -> int:
    (filt_obj, ftext) = _read_json(args.filter)
    (eig_obj, etext) = _read_json(args.eigenspec)
    h = ser.impulse_from_json(filt_obj)
    theta, lam, alpha_h, Q = ser.eigenspec_from_json(eig_obj, h.dim)
    cond = eigen_conditions(h, theta, Q, lam, alpha_h, tol=args.tol)
    seq = ExpPolySeq.single(theta, LaurentPoly.constant(h.dim, 1.0))
    res = eigen_residual(h, lam, alpha_h, seq, pad=args.window_pad)
    res_tol = max(args.tol, ORACLE_TOL) * max(1.0, h.l1())
    res_pass = res <= res_tol
    checks = [{"name": f"eigen_condition[q={i}]", "value": rec["residual"],
               "tolerance": rec["tolerance"], "pass": rec["pass"]}
              for i, rec in enumerate(cond["conditions"])]
    checks.append({"name": "eigen_residual[e_theta]", "value": res,
                   "tolerance": res_tol, "pass": res_pass})
    overall = cond["pass"] and res_pass
    out = {"command": "eigen", "inputs_digest": _digest(ftext, etext),
           "checks": checks, "pass": overall}
    sys.stdout.write(ser.dumps(out))
    return EXIT_PASS if overall else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convkern",
        description="Analyze and certify kernels of discrete convolution and "
                    "subdivision operators.")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="uniform tolerance override (default %(default)g)")
    parser.add_argument("--window-pad", type=int, default=0,
                        help="extra padding of certification windows")
    parser.add_argument("--convention", choices=["auto", "with-sigma", "without-sigma"],
                        default="auto", help="P_theta sign convention")
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
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, ZeroDivisionError) as exc:  # a huge or tiny |theta|
        print(f"error: {exc}: input magnitudes overflow double precision",
              file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
