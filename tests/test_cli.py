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
        # a spectrum with two equal theta is malformed input, not a failed check
        code = main(["hermite", fx("spectrum_duplicate.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: duplicate theta at positions 0 and 1\n"


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

    @pytest.mark.parametrize("flag, value", [("--tol", "-1"), ("--tol", "inf"),
                                             ("--tol", "nan"), ("--window-pad", "-5")])
    def test_out_of_range_flag_is_a_usage_error(self, capsys, flag, value):
        """A negative or non-finite --tol and a negative --window-pad exit 2
        at parse time, with a usage message naming the flag."""
        code = main([flag, value, "eigen", fx("filter_avg.json"), fx("eigen_const.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("usage: convkern")
        assert f"error: argument {flag}: must be a finite nonnegative" in captured.err
        assert captured.err.endswith(f"got '{value}'\n")

    def test_zero_tol_is_accepted(self, capsys):
        assert main(["--tol", "0", "eigen", fx("filter_avg.json"), fx("eigen_const.json")]) == 0

    @pytest.mark.parametrize("value", ["1e308", "1.0000001"])
    def test_tol_above_max_is_a_usage_error(self, capsys, value):
        """A finite --tol above MAX_TOL exits 2 at parse time naming the flag,
        instead of overflowing the bounds it scales and blaming the input
        files."""
        code = main(["--tol", value, "verify", fx("filters_kernel1d.json"),
                     fx("spectrum_kernel1d.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("usage: convkern")
        assert captured.err.endswith(f"error: argument --tol: must be at most 1, got '{value}'\n")

    def test_max_tol_is_accepted(self, capsys):
        from convkern.filters import MAX_TOL
        assert main(["--tol", repr(MAX_TOL), "verify", fx("filters_kernel1d.json"),
                     fx("spectrum_kernel1d.json")]) == 0


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
        # the oracle's tap products overflow to inf - inf from window point 7
        "eigen_oracle": (("--window-pad", "8", "eigen", "filter_eigen_overflow.json",
                          "eigen_theta2_lambda0.json"),
                         "checks[1].value is nan"),
    }

    @staticmethod
    def argv(case):
        argv, field = TestNonFiniteReport.CASES[case]
        return [fx(a) if a.endswith(".json") else a for a in argv], field

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_field(self, case, capsys):
        argv, field = self.argv(case)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: {field}: input magnitudes overflow "
                                "double precision\n")


    @pytest.mark.parametrize("command", ["build-kernel"])
    def test_large_theta_exits_2(self, command, tmp_path, capsys):
        """theta = 1e300 with Q = Pi_3: build-kernel overflows scaling Q by
        theta."""
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

    def test_large_theta_hermite_is_certified(self, tmp_path, capsys):
        """theta = 1e300 with Q = Pi_3: the jets at theta^-1 = 1e-300 read
        only powers that exist, and the fundamentals dual to the orthonormal
        q_k = x^k / sqrt(k!) at that point are the q_k themselves, up to
        terms of order 1e-300."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spectrum({"re": 1e300, "im": 0.0},
                                             [[_mono([k])] for k in range(4)])))
        code = main(["hermite", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["pass"]
        assert report["checks"][0]["value"] <= 1e-299
        for rec, q in zip(report["fundamentals"], fat_point_space(1, 3).ortho_basis,
                          strict=True):
            assert (ser.poly_from_json(rec["poly"], 1) - q).norm() <= 1e-15

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
        self.assert_one_stderr_line("subdivide")

    def test_eigen_oracle_writes_one_stderr_line(self):
        self.assert_one_stderr_line("eigen_oracle")

    def assert_one_stderr_line(self, case):
        import subprocess
        import sys
        argv, field = self.argv(case)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "convkern.cli"] + argv,
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (f"error: {field}: input magnitudes overflow "
                               "double precision\n")


class TestSerializationRoundTrip:
    def test_poly(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            p = random_poly(rng, dim, 4, complex_coeffs=True, laurent=True)
            for text in (json.dumps(ser.poly_to_json(p)), ser.dumps(p)):
                back = ser.poly_from_json(json.loads(text), dim)
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

    def test_repeated_tap_index_is_refused(self):
        """A repeated tap would overwrite the one before it."""
        taps = [{"index": [0], "re": 1.0}, {"index": [1], "re": -1.0},
                {"index": [1], "re": 5.0}]
        with pytest.raises(ValueError, match=r"^repeated tap index \[1\]$"):
            ser.impulse_from_json({"dim": 1, "taps": taps})
        with pytest.raises(ValueError, match=r"^repeated tap index \[1\]$"):
            ser.filters_from_json({"filters": [{"dim": 1, "taps": taps}]})

    def test_repeated_exponents_sum(self):
        """Polynomial terms keep LaurentPoly's rule: repeated exponents add."""
        p = ser.poly_from_json([_mono([1]), _mono([0]), _mono([1], 2.0)])
        assert p.terms == {(1,): 3.0, (0,): 1.0}


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
ZERO = {"re": 0.0, "im": 0.0}
NAN_ONE = {"re": float("nan"), "im": 0.0}
INF_ONE = {"re": 1.0, "im": float("-inf")}
CANDIDATES = {"candidates": [{"theta": [ONE], "order": 0}]}
# the index [1] twice: read as 1 + 5z, the tap -1 silently lost, before it
# was refused
REPEATED_TAP = {"dim": 1, "taps": [{"index": [0], "re": 1.0}, {"index": [1], "re": -1.0},
                                   {"index": [1], "re": 5.0}]}


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
        "filter_without_taps": ("verify", {"filters": [{"dim": 1, "taps": []}]},
                                _spectrum(ONE)),
        "filter_with_zero_tap": ("verify",
                                 {"filters": [_filters()["filters"][0],
                                              {"dim": 1, "taps": [{"index": [0], "re": 0.0}]}]},
                                 _spectrum(ONE)),
        "mask_without_taps": ("subdivide", {"dim": 1, "taps": []}, {"Xi": [[2]]}, CANDIDATES),
        "zero_theta_spectrum": ("verify", _filters(), _spectrum(ZERO)),
        "zero_theta_candidate": ("subdivide", _filters(index=(1, 0), dim=2)["filters"][0],
                                 {"Xi": [[2, 0], [0, 2]]},
                                 {"candidates": [{"theta": [ZERO, ONE], "order": 0}]}),
        "zero_theta_eigen": ("eigen", _filters()["filters"][0], {"theta": [ZERO]}),
        "short_theta_candidate": ("subdivide", _filters(index=(1, 0), dim=2)["filters"][0],
                                  {"Xi": [[2, 0], [0, 2]]},
                                  {"candidates": [{"theta": [ONE], "order": 1}]}),
        "long_theta_candidate": ("subdivide", _filters()["filters"][0], {"Xi": [[2]]},
                                 {"candidates": [{"theta": [ONE, ONE], "order": 0}]}),
        "repeated_tap_filter": ("verify", {"filters": [REPEATED_TAP]}, _spectrum(ONE)),
        "repeated_tap_mask": ("subdivide", REPEATED_TAP, {"Xi": [[2]]}, CANDIDATES),
        "repeated_tap_eigen": ("eigen", REPEATED_TAP, {"theta": [ONE]}),
        "mask_dilation_dimensions": ("subdivide", _filters()["filters"][0],
                                     {"Xi": [[2, 0], [0, 2]]}, CANDIDATES),
        "filter_spectrum_dimensions": ("verify", _filters(index=(1, 0), dim=2),
                                       _spectrum(ONE)),
    }

    def _run(self, case, tmp_path, capsys):
        command, *payloads = self.CASES[case]
        paths = []
        for i, obj in enumerate(payloads):
            path = tmp_path / f"in{i}.json"
            path.write_text(json.dumps(obj))
            paths.append(str(path))
        code = main([command] + paths)
        return code, capsys.readouterr()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_message(self, case, tmp_path, capsys):
        code, captured = self._run(case, tmp_path, capsys)
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("case, message", [
        ("filter_without_taps", "filter 0 has no nonzero tap"),
        ("filter_with_zero_tap", "filter 1 has no nonzero tap"),
        ("mask_without_taps", "mask has no nonzero tap")])
    def test_zero_filter_is_named(self, case, message, tmp_path, capsys):
        assert self._run(case, tmp_path, capsys)[1].err == f"error: {message}\n"

    @pytest.mark.parametrize("case", ["zero_theta_spectrum", "zero_theta_candidate",
                                      "zero_theta_eigen"])
    def test_zero_theta_is_named(self, case, tmp_path, capsys):
        assert self._run(case, tmp_path, capsys)[1].err == "error: theta must lie in C_x^s\n"

    @pytest.mark.parametrize("case", ["short_theta_candidate", "long_theta_candidate"])
    def test_candidate_dimension_is_named(self, case, tmp_path, capsys):
        assert self._run(case, tmp_path, capsys)[1].err == \
            "error: candidate theta has wrong dimension\n"

    @pytest.mark.parametrize("case, message", [
        ("repeated_tap_filter", "repeated tap index [1]"),
        ("repeated_tap_mask", "repeated tap index [1]"),
        ("repeated_tap_eigen", "repeated tap index [1]"),
        ("mask_dilation_dimensions", "mask and dilation dimensions differ"),
        ("filter_spectrum_dimensions", "filter and spectrum dimensions differ")])
    def test_library_refusal_is_named(self, case, message, tmp_path, capsys):
        assert self._run(case, tmp_path, capsys)[1].err == f"error: {message}\n"

    def test_eigen_reports_a_zero_filter(self, tmp_path, capsys):
        """eigen takes one filter, not a filter set: a zero filter fails its
        checks with a report."""
        paths = [tmp_path / "filter.json", tmp_path / "eigen.json"]
        paths[0].write_text(json.dumps({"dim": 1, "taps": []}))
        paths[1].write_text(json.dumps({"theta": [ONE]}))
        assert main(["eigen"] + [str(p) for p in paths]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["pass"] and not report["checks"][0]["pass"]

    def test_degree_at_guard_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spectrum(ONE, [[_mono([k])] for k in range(3)])))
        assert main(["build-kernel", str(path)]) == 0

    def test_undecodable_bytes(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        assert main(["build-kernel", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def _window_case(order, dim=6):
    return (_filters(index=(1,) + (0,) * (dim - 1), dim=dim)["filters"][0],
            {"Xi": [[2 * (i == j) for j in range(dim)] for i in range(dim)]},
            {"candidates": [{"theta": [ONE] * dim, "order": order}]})


def _window_pairs(dim, pad, degrees):
    """sum over rows of (deg + pad + 1)^dim, one row per degree listed."""
    return sum((d + pad + 1) ** dim for d in degrees)


def _window_error(count):
    from convkern.filters import MAX_WINDOW_PAIRS
    return (f"error: the certified windows cover {count} (row, window point) pairs, "
            f"above the limit of {MAX_WINDOW_PAIRS}\n")


def _dense_dilation(n):
    """5 on the diagonal and 1 elsewhere: |det| = 4^(n-1) (n + 4)."""
    return {"Xi": [[5 if i == j else 1 for j in range(n)] for i in range(n)]}


def _bidiagonal_dilation(n):
    """2 on the diagonal and 1 above it: det = 2^n, whose adjugate has
    entries up to 2^(n-1); its exact elimination must not outlast the
    timeout before the det cap refuses it."""
    return {"Xi": [[2 if j == i else int(j == i + 1) for j in range(n)] for i in range(n)]}


class TestUnboundedInputs:
    """Inputs that used to run without bound exit 2 with a message.  Each runs
    in a subprocess under a timeout, so a regression fails instead of
    hanging the suite."""

    CASES = {
        "order_above_guard": (_filters()["filters"][0], {"Xi": [[2]]},
                              {"candidates": [{"theta": [ONE], "order": 100000000}]}),
        "det_above_cap": (_filters(index=(1, 0), dim=2)["filters"][0],
                          {"Xi": [[400, 0], [0, 400]]},
                          {"candidates": [{"theta": [ONE, ONE], "order": 0}]}),
        "dilation_12x12": (_filters(index=(1,) + (0,) * 11, dim=12)["filters"][0],
                           _dense_dilation(12),
                           {"candidates": [{"theta": [ONE] * 12, "order": 0}]}),
        "dilation_bidiagonal_120": (_filters(index=(1,) + (0,) * 119, dim=120)["filters"][0],
                                    _bidiagonal_dilation(120),
                                    {"candidates": [{"theta": [ONE] * 120, "order": 0}]}),
        # mask 1 - z_1, dilation 2 I_6, theta = 1: Pi_8 stacks 1287 degree-8
        # rows over 9^6 window points; Pi_20 walks 21^6 exponents
        "window_order_8": _window_case(8),
        "window_order_20": _window_case(20),
    }

    @staticmethod
    def _subdivide(payloads, tmp_path):
        import subprocess
        import sys
        paths = []
        for i, obj in enumerate(payloads):
            path = tmp_path / f"in{i}.json"
            path.write_text(json.dumps(obj))
            paths.append(str(path))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "convkern.cli", "subdivide"] + paths,
                              capture_output=True, text=True, timeout=60, env=env)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_within_timeout(self, case, tmp_path):
        proc = self._subdivide(self.CASES[case], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stdout == ""

    @pytest.mark.parametrize("case, det", [("det_above_cap", 160000),
                                           ("dilation_12x12", 4 ** 11 * 16),
                                           ("dilation_bidiagonal_120", 2 ** 120)])
    def test_det_cap_is_named(self, case, det, tmp_path):
        proc = self._subdivide(self.CASES[case], tmp_path)
        assert proc.stderr == (f"error: dilation has |det Xi| = {det} cosets, "
                               "above the limit of 100000\n")

    @pytest.mark.parametrize("order", [8, 20])
    def test_window_cap_is_named(self, order, tmp_path):
        from math import comb
        count = _window_pairs(6, 0, [d for d in range(order + 1)
                                     for _ in range(comb(d + 5, 5))])
        proc = self._subdivide(_window_case(order), tmp_path)
        assert proc.stderr == _window_error(count)

    def test_sheared_dilation_with_small_det_runs(self, tmp_path):
        """|det| 4, in a bounding box of 3 x 1000003 points."""
        proc = self._subdivide((_filters(index=(1, 0), dim=2)["filters"][0],
                                {"Xi": [[2, 1000000], [0, 2]]},
                                {"candidates": [{"theta": [ONE, ONE], "order": 0}]}),
                               tmp_path)
        assert proc.returncode in (0, 1), proc.stderr
        assert [rec["coset"] for rec in json.loads(proc.stdout)["subsymbols"]] == \
            [[0, 0], [1, 0], [500000, 1], [500001, 1]]

    def test_det_at_cap_is_accepted(self):
        assert ser.dilation_from_json({"Xi": [[100000]]}).coset_count == ser.MAX_COSETS
        with pytest.raises(ValueError, match=r"\|det Xi\| = 100001 cosets"):
            ser.dilation_from_json({"Xi": [[-100001]]})

    def test_order_at_guard_is_accepted(self):
        from convkern.mpoly import MAX_FACTORIAL
        obj = {"candidates": [{"theta": [ONE], "order": MAX_FACTORIAL}]}
        assert ser.candidates_from_json(obj)[0][1] == MAX_FACTORIAL


class TestWindowCap:
    """The certified windows of a request cover at most MAX_WINDOW_PAIRS
    (row, window point) pairs; above that, every command that builds them
    exits 2 naming the count before it enumerates a window."""

    def _run(self, capsys, tmp_path, flags, command, *payloads):
        paths = []
        for i, obj in enumerate(payloads):
            path = tmp_path / f"in{i}.json"
            path.write_text(json.dumps(obj))
            paths.append(str(path))
        code = main([*flags, command, *paths])
        return code, capsys.readouterr()

    @staticmethod
    def _spectrum(dim, degrees):
        """theta = 1 with the monomials x_1^d of the given degrees."""
        return {"dim": dim, "zeros": [{"theta": [ONE] * dim, "Q_basis": [
            [_mono((d,) + (0,) * (dim - 1))] for d in degrees]}]}

    @pytest.mark.parametrize("command", ["verify", "build-kernel", "eigen"])
    def test_huge_window_pad(self, command, capsys, tmp_path):
        payloads = {"verify": (_filters(index=(1, 0), dim=2), self._spectrum(2, [0])),
                    "build-kernel": (self._spectrum(2, [0]),),
                    "eigen": (_filters(index=(1, 0), dim=2)["filters"][0], {"theta": [ONE, ONE]})}
        pad = 10 ** 6
        code, captured = self._run(capsys, tmp_path, ["--window-pad", str(pad)], command,
                                   *payloads[command])
        assert code == 2 and captured.out == ""
        assert captured.err == _window_error(_window_pairs(2, pad, [0]))

    def test_astronomical_count_is_not_formed(self, capsys, tmp_path):
        code, captured = self._run(capsys, tmp_path, ["--window-pad", "9" * 4000],
                                   "build-kernel", self._spectrum(2, [0]))
        assert code == 2 and captured.err == _window_error("more than 2**64")

    def test_high_degree_space_in_dimension_4(self, capsys, tmp_path):
        degrees = range(21)
        code, captured = self._run(capsys, tmp_path, [], "verify",
                                   {"filters": [{"dim": 4, "taps": [
                                       {"index": [0, 0, 0, 0], "re": 1.0}]}]},
                                   self._spectrum(4, degrees))
        assert code == 2 and captured.out == ""
        assert captured.err == _window_error(_window_pairs(4, 0, degrees))

    def test_count_at_the_cap_runs(self, capsys, tmp_path):
        from convkern.filters import MAX_WINDOW_PAIRS
        # 1 - z annihilates e_1: eigenvalue 0
        eigen = (_filters()["filters"][0], {"theta": [ONE], "lambda": ZERO})
        for pad, code in ((MAX_WINDOW_PAIRS - 1, 0), (MAX_WINDOW_PAIRS, 2)):
            assert self._run(capsys, tmp_path, ["--window-pad", str(pad)], "eigen",
                             *eigen)[0] == code


class TestOverflowingSpan:
    """A Q_basis whose span residual overflows exits 2 as overflowing input,
    not 1 with a NaN residual passed as D-invariant."""

    @pytest.mark.parametrize("top", [1, 2])
    def test_exits_2(self, top, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spectrum(ONE, [[_mono([0], 1e200)],
                                                   [_mono([top], 1e200)]])))
        assert main(["build-kernel", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: span residual overflows: input magnitudes "
                                "overflow double precision\n")


class TestCollocationCap:
    """hermite refuses a degree whose collocation matrix has more than
    MAX_COLLOCATION_ENTRIES entries n dim Pi_d, with exit 2 and a message
    naming the count, before it builds that matrix; a spectrum in many
    variables runs without walking a (d + 1)^s box of exponents."""

    def _hermite(self, capsys, tmp_path, spectrum):
        import time
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spectrum))
        start = time.perf_counter()
        code = main(["hermite", str(path)])
        return code, capsys.readouterr(), time.perf_counter() - start

    @staticmethod
    def _chain(dim, order):
        """theta = 1 with Q = span{x_1^j : j <= order}."""
        return {"dim": dim, "zeros": [{"theta": [ONE] * dim, "Q_basis": [
            [_mono((j,) + (0,) * (dim - 1))] for j in range(order + 1)]}]}

    @pytest.mark.parametrize("dim, order", [(5, 20), (6, 16)])
    def test_chain_exits_2(self, dim, order, capsys, tmp_path):
        from math import comb
        from convkern.spectrum import MAX_COLLOCATION_ENTRIES
        code, captured, elapsed = self._hermite(capsys, tmp_path, self._chain(dim, order))
        # n = order + 1 conditions; the search starts at degree order
        count = (order + 1) * comb(order + dim, dim)
        assert code == 2 and captured.out == "" and elapsed < 1.0
        assert captured.err == (f"error: the Hermite collocation matrix at degree {order} "
                                f"has {count} entries, above the limit of "
                                f"{MAX_COLLOCATION_ENTRIES}\n")

    def test_count_at_the_cap_runs(self, capsys, tmp_path, monkeypatch):
        from convkern import spectrum
        # Q = span{1, x_1} in two variables: 2 conditions times dim Pi_1 = 3
        for cap, code in ((6, 0), (5, 2)):
            monkeypatch.setattr(spectrum, "MAX_COLLOCATION_ENTRIES", cap)
            assert self._hermite(capsys, tmp_path, self._chain(2, 1))[0] == code

    def test_two_zeros_in_dimension_40(self, capsys, tmp_path):
        spectrum = {"dim": 40, "zeros": [{"theta": [{"re": t, "im": 0.0}] * 40,
                                          "Q_basis": [[_mono((0,) * 40)]]} for t in (1.0, 2.0)]}
        code, captured, elapsed = self._hermite(capsys, tmp_path, spectrum)
        assert code == 0 and elapsed < 1.0
        assert len(json.loads(captured.out)["fundamentals"]) == 2
