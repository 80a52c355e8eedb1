import json
import os

import numpy as np
import pytest

from convkern import (Dilation, Impulse, LaurentPoly, Spectrum,
                      Zero, fat_point_space)
from convkern import serialize as ser
from convkern.cli import main

from conftest import const, random_poly

FX = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FX, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_simple_difference(self, capsys):
        code, out = run(capsys, "verify", fx("filters_diff1.json"),
                        fx("spectrum_theta1_const.json"))
        assert code == 0
        report = json.loads(out)
        assert report["pass"]
        assert len(report["kernel"]) == 1
        basis = report["kernel"][0]["P_basis"]
        assert len(basis) == 1 and basis[0][0]["exp"] == [0]

    def test_factored_univariate(self, capsys):
        code, out = run(capsys, "verify", fx("filters_kernel1d.json"),
                        fx("spectrum_kernel1d.json"))
        assert code == 0
        report = json.loads(out)
        n_seqs = sum(len(k["P_basis"]) for k in report["kernel"])
        assert n_seqs == 3

    def test_mixed_condition_fails(self, capsys):
        code, out = run(capsys, "verify", fx("filters_grid.json"),
                        fx("spectrum_fat_point_2d.json"))
        assert code == 1
        report = json.loads(out)
        assert not report["pass"]
        assert any(not c["pass"] for c in report["checks"])

    def test_malformed_input(self, capsys):
        code, _ = run(capsys, "verify", fx("malformed.json"),
                      fx("spectrum_theta1_const.json"))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "verify", fx("does_not_exist.json"),
                      fx("spectrum_theta1_const.json"))
        assert code == 2

    def test_dimension_mismatch(self, capsys):
        code, _ = run(capsys, "verify", fx("filters_diff1.json"),
                      fx("spectrum_dim_mismatch.json"))
        assert code == 2


class TestBuildKernel:
    def test_linear_square_space(self, capsys):
        code, out = run(capsys, "build-kernel", fx("spectrum_qpspaces.json"))
        assert code == 0
        report = json.loads(out)
        assert len(report["kernel"]) == 1
        assert len(report["kernel"][0]["P_basis"]) == 3
        # degrees 0, 1, 2 appear
        degs = sorted(max(sum(t["exp"]) for t in p)
                      for p in report["kernel"][0]["P_basis"])
        assert degs == [0, 1, 2]

    def test_fat_point_is_fixed(self, capsys):
        code, out = run(capsys, "build-kernel", fx("spectrum_pi2.json"))
        assert code == 0
        report = json.loads(out)
        polys = [ser.poly_from_json(p, 1)
                 for p in report["kernel"][0]["P_basis"]]
        from convkern.linalg import coeff_matrix
        A, _ = coeff_matrix(polys)
        assert np.linalg.matrix_rank(A, tol=1e-10) == 3
        assert max(p.degree() for p in polys) == 2

    def test_empty_spectrum(self, capsys):
        code, out = run(capsys, "build-kernel", fx("spectrum_empty.json"))
        assert code == 0
        report = json.loads(out)
        assert report["kernel"] == [] and report["pass"]

    def test_convention_flag(self, capsys):
        code, out = run(capsys, "--convention", "without-sigma",
                        "build-kernel", fx("spectrum_qpspaces.json"))
        assert code == 0
        assert json.loads(out)["convention"] == "without_sigma_minus"


class TestHermite:
    def test_two_points_lagrange(self, capsys):
        code, out = run(capsys, "hermite", fx("spectrum_two_points.json"))
        assert code == 0
        report = json.loads(out)
        polys = [ser.poly_from_json(rec["poly"], 1)
                 for rec in report["fundamentals"]]
        x = LaurentPoly.variable(1, 0)
        assert (polys[0] - (const(1, 2) - x)).norm() < 1e-8
        assert (polys[1] - (x - const(1, 1))).norm() < 1e-8

    def test_fat_point_dual_identity(self, capsys):
        code, out = run(capsys, "hermite", fx("spectrum_fat_point_2d.json"))
        assert code == 0
        report = json.loads(out)
        dual = report["dual_matrix"]
        n = len(dual)
        for i in range(n):
            for j in range(n):
                target = 1.0 if i == j else 0.0
                assert abs(dual[i][j]["re"] - target) <= 1e-8
                assert abs(dual[i][j]["im"]) <= 1e-8

    def test_duplicate_theta(self, capsys):
        code, _ = run(capsys, "hermite", fx("spectrum_duplicate.json"))
        assert code == 1


class TestSubdivide:
    def test_even_difference_passes(self, capsys):
        code, out = run(capsys, "subdivide", fx("mask_diff2.json"),
                        fx("dilation_2.json"), fx("candidates_1d_k0.json"))
        assert code == 0
        report = json.loads(out)
        assert report["pass"]
        assert report["candidates"][0]["pass"]

    def test_order_one(self, capsys):
        code, out = run(capsys, "subdivide", fx("mask_diff2_sq.json"),
                        fx("dilation_2.json"), fx("candidates_1d_k1.json"))
        assert code == 0

    def test_hat_rejected(self, capsys):
        code, out = run(capsys, "subdivide", fx("mask_hat.json"),
                        fx("dilation_2.json"), fx("candidates_1d_k0.json"))
        assert code == 1
        report = json.loads(out)
        assert not report["candidates"][0]["pass"]

    def test_quincunx_delta(self, capsys):
        code, out = run(capsys, "subdivide", fx("mask_delta_2d.json"),
                        fx("dilation_quincunx.json"), fx("candidates_2d_k0.json"))
        assert code == 1
        report = json.loads(out)
        subs = {tuple(rec["coset"]): rec["symbol"] for rec in report["subsymbols"]}
        assert subs[(0, 0)] == [{"exp": [0, 0], "re": 1.0, "im": 0.0}]
        assert subs[(1, 0)] == []
        assert not report["candidates"][0]["pass"]

    def test_nonexpanding(self, capsys):
        code, _ = run(capsys, "subdivide", fx("mask_delta_2d.json"),
                      fx("dilation_nonexpanding.json"), fx("candidates_2d_k0.json"))
        assert code == 2

    @staticmethod
    def count_calls(monkeypatch, name):
        """Calls of subdivision.<name>, through every binding of the name,
        as the CLI may import it too."""
        from convkern import cli, subdivision
        calls = []
        real = getattr(subdivision, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        for module in (cli, subdivision):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
        return calls

    def test_subsymbols_computed_once(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, "subsymbols")
        code, out = run(capsys, "subdivide", fx("mask_hat.json"),
                        fx("dilation_2.json"), fx("candidates_1d_k0.json"))
        assert code == 1 and len(calls) == 1
        assert [rec["coset"] for rec in json.loads(out)["subsymbols"]] == [[0], [1]]

    def test_is_expanding_called_once(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, "is_expanding")
        code, _ = run(capsys, "subdivide", fx("mask_hat.json"),
                      fx("dilation_2.json"), fx("candidates_1d_k0.json"))
        assert code == 1 and len(calls) == 1
        code = main(["subdivide", fx("mask_delta_2d.json"),
                     fx("dilation_nonexpanding.json"), fx("candidates_2d_k0.json")])
        assert code == 2 and len(calls) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dilation matrix is not expanding\n"

    @staticmethod
    def one_tap_pair(tmp_path, far_tap):
        """Mask {0: 1, 2: far_tap}, dilation 2 and the candidate (1, k=0)."""
        inputs = {"mask": {"dim": 1, "taps": [
                      {"index": [0], "re": 1.0, "im": 0.0},
                      {"index": [2], "re": far_tap, "im": 0.0}]},
                  "dilation": {"Xi": [[2]]},
                  "candidates": {"candidates": [{"theta": [ONE], "order": 0}]}}
        paths = []
        for name, obj in inputs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(obj))
            paths.append(str(path))
        return paths

    def test_tol_override_reaches_the_oracle(self, capsys, tmp_path):
        # symmetric test 1.0e-7, oracle 5.0e-8: both pass at --tol 1e-6
        code, out = run(capsys, "--tol", "1e-6", "subdivide",
                        *self.one_tap_pair(tmp_path, -1.0 + 2e-7))
        assert code == 0
        report = json.loads(out)
        assert report["pass"] and report["candidates"][0]["oracle_residual"] > 1e-8

    def test_disagreement_is_a_failed_candidate(self, capsys, tmp_path):
        # at the default tol the symmetric and subsymbol tests read 5.0e-9 and
        # fail, while the oracle reads 2.5e-9 and passes against ORACLE_TOL:
        # the report still prints, with the candidate failed
        code, out = run(capsys, "subdivide", *self.one_tap_pair(tmp_path, -1.0 + 1e-8))
        assert code == 1
        report = json.loads(out)
        [rec] = report["candidates"]
        assert not report["pass"] and not rec["pass"]
        assert rec["symmetric_zero_violation"] == pytest.approx(5e-9, rel=1e-6)
        assert rec["subsymbol_violation"] == pytest.approx(5e-9, rel=1e-6)
        assert rec["oracle_residual"] == pytest.approx(2.5e-9, rel=1e-6)
        assert [c["pass"] for c in report["checks"]] == [False]


class TestEigen:
    def test_averaging_constants(self, capsys):
        code, out = run(capsys, "eigen", fx("filter_avg.json"),
                        fx("eigen_const.json"))
        assert code == 0
        assert json.loads(out)["pass"]

    def test_averaging_linear_fails(self, capsys):
        code, out = run(capsys, "eigen", fx("filter_avg.json"),
                        fx("eigen_linear.json"))
        assert code == 1

    def test_shift(self, capsys):
        code, out = run(capsys, "eigen", fx("filter_delta1.json"),
                        fx("eigen_shift.json"))
        assert code == 0


class TestDeterminism:
    CASES = [
        ("verify", "filters_kernel1d.json", "spectrum_kernel1d.json"),
        ("build-kernel", "spectrum_qpspaces.json"),
        ("hermite", "spectrum_two_points.json"),
        ("subdivide", "mask_diff2.json", "dilation_2.json",
         "candidates_1d_k0.json"),
        ("eigen", "filter_avg.json", "eigen_const.json"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_identical_bytes(self, capsys, case):
        argv = [case[0]] + [fx(name) for name in case[1:]]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second
        json.loads(first)  # valid JSON

    def test_digest_tracks_inputs(self, capsys):
        _, a = run(capsys, "hermite", fx("spectrum_two_points.json"))
        _, b = run(capsys, "hermite", fx("spectrum_fat_point_2d.json"))
        assert json.loads(a)["inputs_digest"] != json.loads(b)["inputs_digest"]


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        import io
        with open(fx("spectrum_two_points.json")) as fh:
            payload = fh.read()
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out = run(capsys, "hermite", "-")
        assert code == 0
        assert json.loads(out)["pass"]


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestParserOnce:
    """main builds its argparse parser once per process and reuses it."""

    ARGV = ("verify", "filters_kernel1d.json", "spectrum_kernel1d.json")
    FLAGS = [(), ("--tol", "1e-6"), ("--window-pad", "3")]

    def _run(self, capsys, flags):
        return run(capsys, *flags, self.ARGV[0], *[fx(name) for name in self.ARGV[1:]])

    def test_built_once(self, capsys, monkeypatch):
        from convkern import cli
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        cli._parser.cache_clear()
        try:
            for flags in self.FLAGS * 2:
                assert self._run(capsys, flags)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1

    def test_alternating_flags_match_each_alone(self, capsys):
        from convkern import cli
        alone = {}
        for flags in self.FLAGS:
            cli._parser.cache_clear()
            alone[flags] = self._run(capsys, flags)
        assert len({out for _, out in alone.values()}) == len(self.FLAGS)
        for flags in [self.FLAGS[i] for i in (1, 2, 0, 1, 0, 2, 2, 1)]:
            assert self._run(capsys, flags) == alone[flags]

    def test_usage_error_and_help_leave_the_parser_usable(self, capsys):
        expected = self._run(capsys, ())
        assert main(["--window-pad", "x", "verify"]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["--help"]) == 0
        assert main(["verify", "--help"]) == 0
        capsys.readouterr()
        assert self._run(capsys, ()) == expected


class TestNonFiniteReport:
    """Finite inputs whose report values overflow to inf or NaN exit 2 with an
    empty stdout and name the first such field, instead of exiting 1."""

    CASES = {
        "verify": (("verify", "filters_overflow.json", "spectrum_theta1_const.json"),
                   "checks[0].tolerance is inf"),
        "subdivide": (("subdivide", "mask_overflow.json", "dilation_2.json",
                       "candidates_1d_k0.json"),
                      "candidates[0].symmetric_zero_violation is nan"),
        "eigen": (("eigen", "filter_overflow.json", "eigen_theta_minus1.json"),
                  "checks[0].tolerance is inf"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_field(self, case, capsys):
        argv, field = self.CASES[case]
        code = main([argv[0]] + [fx(name) for name in argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: {field}: input magnitudes overflow "
                                "double precision\n")


    @pytest.mark.parametrize("command", ["build-kernel", "hermite"])
    def test_large_theta_exits_2(self, command, tmp_path, capsys):
        """theta = 1e300 with Q = Pi_3: build-kernel overflows scaling Q by
        theta, hermite divides by zero at theta^-1 = 1e-300."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spectrum({"re": 1e300, "im": 0.0},
                                             [[_mono([k])] for k in range(4)])))
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(": input magnitudes overflow double precision\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["build-kernel", "verify"])
    def test_tiny_theta_exits_2(self, command, tmp_path, capsys):
        """theta = 1e-300 with Q = Pi_3: theta^2 and theta^3 underflow to 0
        when Q is scaled by theta, which dropped half of P_theta's basis and
        passed.  The filter z - 1e300 vanishes at theta^-1, so verify's dual
        conditions pass and it reaches the same scaling."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_spectrum({"re": 1e-300, "im": 0.0},
                                             [[_mono([k])] for k in range(4)])))
        argv = [command, str(spec)]
        if command == "verify":
            filters = tmp_path / "filters.json"
            filters.write_text(json.dumps({"filters": [{"dim": 1, "taps": [
                {"index": [0], "re": -1e300, "im": 0.0},
                {"index": [1], "re": 1.0, "im": 0.0}]}]}))
            argv.insert(1, str(filters))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: scaling the z^(2,) term by theta underflows to 0: "
                                "input magnitudes overflow double precision\n")

    def test_subdivide_writes_one_stderr_line(self):
        """No numpy RuntimeWarning precedes the error line."""
        import subprocess
        import sys
        argv, field = self.CASES["subdivide"]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "convkern.cli", argv[0]]
                              + [fx(name) for name in argv[1:]],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"error: {field}: input magnitudes overflow "
                               "double precision\n")


class TestSerializationRoundTrip:
    def test_poly(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            p = random_poly(rng, dim, 4, complex_coeffs=True, laurent=True)
            back = ser.poly_from_json(json.loads(json.dumps(ser.poly_to_json(p))), dim)
            assert (back - p).norm() == 0

    def test_impulse(self, rng):
        h = Impulse(2, {(0, 1): 1 + 2j, (-1, 3): -0.5})
        back = ser.impulse_from_json(json.loads(json.dumps(ser.impulse_to_json(h))))
        assert back.taps == h.taps and back.dim == 2

    def test_spectrum(self):
        spec = Spectrum((Zero((1.0, 2.0), fat_point_space(2, 1)),))
        back = ser.spectrum_from_json(
            json.loads(json.dumps(ser.spectrum_to_json(spec))))
        assert back.zeros[0].theta == spec.zeros[0].theta
        assert [p.terms for p in back.zeros[0].mult.basis] == \
               [p.terms for p in spec.zeros[0].mult.basis]

    def test_dilation(self):
        back = ser.dilation_from_json(json.loads('{"Xi": [[1, 1], [1, -1]]}'))
        assert back == Dilation(((1, 1), (1, -1)))
        assert back.det == -2 and back.adj == ((-1, -1), (-1, 1))


def _mono(exp, re=1.0):
    return {"exp": list(exp), "re": re, "im": 0.0}


def _spectrum(theta, basis=None):
    return {"dim": 1, "zeros": [{"theta": [theta],
                                 "Q_basis": basis or [[_mono([0])]]}]}


def _filters(index=(1,), dim=1):
    return {"filters": [{"dim": dim, "taps": [{"index": [0] * len(index), "re": 1.0,
                                                 "im": 0.0},
                                                {"index": list(index), "re": -1.0,
                                                 "im": 0.0}]}]}


ONE = {"re": 1.0, "im": 0.0}
NAN_ONE = {"re": float("nan"), "im": 0.0}
INF_ONE = {"re": 1.0, "im": float("-inf")}
CANDIDATES = {"candidates": [{"theta": [ONE], "order": 0}]}


class TestInputContract:
    """Malformed input exits 2 with a message, never 1 and never a traceback."""

    CASES = {
        "nan_theta": ("verify", _filters(), _spectrum(NAN_ONE)),
        "inf_theta": ("build-kernel", _spectrum(INF_ONE)),
        "overflowing_real": ("build-kernel", _spectrum({"re": 10 ** 400, "im": 0})),
        "nan_tap": ("eigen", {"dim": 1, "taps": [{"index": [0], "re": float("inf")}]},
                    {"theta": [ONE]}),
        "nan_lambda": ("eigen", _filters()["filters"][0],
                       {"theta": [ONE], "lambda": NAN_ONE}),
        "float_exponent": ("build-kernel", _spectrum(ONE, [[_mono([0])], [_mono([1.5])]])),
        "bool_exponent": ("build-kernel", _spectrum(ONE, [[_mono([True])]])),
        "float_tap_index": ("verify", _filters(index=(1.7,)), _spectrum(ONE)),
        "bool_tap_index": ("verify", _filters(index=(True,)), _spectrum(ONE)),
        "float_dim": ("verify", _filters(dim=1.0), _spectrum(ONE)),
        "bool_spectrum_dim": ("build-kernel", dict(_spectrum(ONE), dim=True)),
        "float_order": ("subdivide", _filters()["filters"][0], {"Xi": [[2]]},
                        {"candidates": [{"theta": [ONE], "order": 1.5}]}),
        "bool_order": ("subdivide", _filters()["filters"][0], {"Xi": [[2]]},
                       {"candidates": [{"theta": [ONE], "order": False}]}),
        "float_alpha": ("eigen", _filters()["filters"][0],
                        {"theta": [ONE], "alpha": [0.5]}),
        "float_dilation": ("subdivide", _filters()["filters"][0], {"Xi": [[2.0]]},
                           CANDIDATES),
        "bool_dilation": ("subdivide", _filters()["filters"][0], {"Xi": [[True]]},
                          CANDIDATES),
        "degree_above_guard": ("build-kernel",
                               _spectrum(ONE, [[_mono([k])] for k in range(22)])),
        "eigen_degree_above_guard": ("eigen", _filters()["filters"][0],
                                     {"theta": [ONE],
                                      "Q_basis": [[_mono([k])] for k in range(22)]}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_message(self, case, tmp_path, capsys):
        command, *payloads = self.CASES[case]
        paths = []
        for i, obj in enumerate(payloads):
            path = tmp_path / f"in{i}.json"
            path.write_text(json.dumps(obj))
            paths.append(str(path))
        code = main([command] + paths)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_degree_at_guard_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spectrum(ONE, [[_mono([k])] for k in range(3)])))
        assert main(["build-kernel", str(path)]) == 0

    def test_undecodable_bytes(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        assert main(["build-kernel", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestUnboundedInputs:
    """Inputs that used to run without bound exit 2 with a message.  Each runs
    in a subprocess under a timeout, so a regression fails instead of
    hanging the suite."""

    CASES = {
        "order_above_guard": (_filters()["filters"][0], {"Xi": [[2]]},
                              {"candidates": [{"theta": [ONE], "order": 100000000}]}),
        "coset_scan_box": (_filters(index=(1, 0), dim=2)["filters"][0],
                           {"Xi": [[2, 1000000], [0, 2]]},
                           {"candidates": [{"theta": [ONE, ONE], "order": 0}]}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_within_timeout(self, case, tmp_path):
        import subprocess
        import sys
        paths = []
        for i, obj in enumerate(self.CASES[case]):
            path = tmp_path / f"in{i}.json"
            path.write_text(json.dumps(obj))
            paths.append(str(path))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "convkern.cli", "subdivide"] + paths,
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stdout == ""

    def test_order_at_guard_is_accepted(self):
        from convkern.mpoly import MAX_FACTORIAL
        obj = {"candidates": [{"theta": [ONE], "order": MAX_FACTORIAL}]}
        assert ser.candidates_from_json(obj)[0][1] == MAX_FACTORIAL
