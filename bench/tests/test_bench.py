"""Tests of the benchmark itself: inputs, correctness gate, tracing, smoke.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import sys

import pytest

import run
import speed
import tracing
import workloads
from convkern import Dilation, Impulse
from convkern.subdivision import subdivision_kernel_check

# Every target must be reached by at least one smoke request of its workload;
# a from-import binding the tracer missed leaves its count at zero.
EXPECTED_NONZERO = {
    "kernel-highorder": [
        "newton.L_inv.calls", "newton.L_op.calls", "newton.build_p_theta.self_s",
        "filters.kernel_residual.calls", "filters.convolve.self_s",
        "filters.ExpPolySeq.value.calls", "filters.window_points", "filters.tap_evals",
        "apolar.ortho_homog_basis.calls", "apolar.is_d_invariant.self_s",
        "spectrum.verify_zero_dim.self_s", "spectrum.dual_conditions",
        "linalg.numerical_rank.calls", "linalg.span_residual.calls",
        "mpoly.apply_poly_diff.calls", "mpoly.LaurentPoly.evaluate.calls",
        "mpoly.LaurentPoly.mul.calls", "serialize.parse_s", "serialize.dumps_s",
        "serialize.report_bytes", "cli.self_s"],
    "spectrum-manyzeros": [
        "spectrum.hermite_fundamentals.self_s", "spectrum.dual_matrix.self_s",
        "filters.eigen_residual.self_s", "apolar.ortho_homog_basis.repeat_ratio"],
    "subdivision-mix": [
        "subdivision.subdivision_kernel_check.self_s",
        "subdivision.is_symmetric_zero.self_s", "subdivision.modulation_points.calls",
        "subdivision.coset_reps.calls", "subdivision.coset_reps.self_s",
        "subdivision.int_adjugate.calls", "subdivision.subsymbols.calls",
        "subdivision.is_expanding.calls"],
}


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*.json"))}


def _smoke(workload, tmp_path):
    return workloads.generate(workload, 3, tmp_path, workloads.Path(workload), smoke=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a = workloads.generate(workload, 7, tmp_path / "a", workloads.Path("in"))
    b = workloads.generate(workload, 7, tmp_path / "b", workloads.Path("in"))
    c = workloads.generate(workload, 8, tmp_path / "c", workloads.Path("in"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [(r.command, r.files, r.expected_exit, r.expected_checks) for r in a] == \
           [(r.command, r.files, r.expected_exit, r.expected_checks) for r in b]
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    # the seed draws values only: the request structure is the same
    assert workloads.properties(a) == workloads.properties(c)


@pytest.mark.parametrize("name", sorted(workloads.DILATIONS))
def test_mask_has_symmetric_zero_of_exact_order(name):
    rng = workloads.np.random.default_rng(11)
    Xi = workloads.DILATIONS[name]
    s = len(Xi)
    for k in range(3 if s == 2 else 2):
        theta = workloads._theta(rng, s)
        c = [workloads._complex(rng) for _ in range(s)]
        b = {e: workloads._complex(rng) for e in workloads.product((0, 1), repeat=s)}
        a = workloads.subdivision_mask(Xi, theta, c, b, k)
        report = subdivision_kernel_check(Impulse(s, dict(a.terms)), Dilation(Xi),
                                          [(theta, k), (theta, k + 1)])
        ok, bad = report["candidates"]
        # all three tests pass at order k ...
        assert ok["pass"]
        assert ok["symmetric_zero_violation"] <= 1e-9
        assert ok["subsymbol_violation"] <= 1e-9
        assert ok["oracle_residual"] <= 1e-8
        # ... and all three fail at k + 1
        assert not bad["pass"]
        assert bad["symmetric_zero_violation"] > 1e-9
        assert bad["subsymbol_violation"] > 1e-9
        assert bad["oracle_residual"] > 1e-8


def _run_quiet(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.run(*args)
    lines = out.getvalue().splitlines()
    return rc, json.loads(lines[-2]), json.loads(lines[-1])


def test_untraced_run_has_no_wrappers_and_reports_every_metric(cli):
    rc, detail, result = _run_quiet(cli, 0.0, "subdivision-mix", 1, 0.01, False)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert detail["wrappers_installed"] == 0
    assert set(result["metrics"]) == {"latency_p50_s", "latency_tail_s",
                                      "requests_per_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_replaces_every_binding_and_restores_them(cli):
    originals = {}
    for module, qualname, _, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(sys.modules[module], qualname)
        originals[(module, qualname)] = vars(owner)[attr]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.installed_wrappers() == len(tracing.TARGETS)
        for mod in tracing._convkern_modules():
            for value in vars(mod).values():
                assert not any(value is o for o in originals.values())
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == 0
    for (module, qualname), original in originals.items():
        owner, attr = tracing._resolve(sys.modules[module], qualname)
        assert vars(owner)[attr] is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_are_nonzero_where_expected(workload, cli, tmp_path):
    requests = _smoke(workload, tmp_path)
    gate = run.Gate(requests)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_cycle(cli, [r.argv(tmp_path) for r in requests], gate, tracer,
                      speed.SpeedProbe())
    finally:
        tracer.uninstall()
    gate.finish()
    assert gate.failed == 0, gate.failures
    values = tracer.metrics(1.0)
    assert set(values) == {name for name, _ in tracing.PER_LAYER}
    for name in EXPECTED_NONZERO[workload]:
        assert values[name] > 0, name
    sub_calls = [v for k, v in values.items()
                 if k.startswith("subdivision.") and k.endswith(".calls")]
    if workload == "subdivision-mix":
        assert values["newton.L_inv.calls"] == 0
    else:
        assert not any(sub_calls)


def test_gate_fails_on_a_wrong_expected_verdict(cli, monkeypatch):
    real = workloads.generate

    def wrong(*args, **kwargs):
        requests = real(*args, **kwargs)
        checks = requests[0].expected_checks
        requests[0].expected_checks = (not checks[0],) + checks[1:]
        return requests

    monkeypatch.setattr(workloads, "generate", wrong)
    rc, detail, result = _run_quiet(cli, 0.0, "subdivision-mix", 1, 0.01, False)
    assert rc != 0
    assert not result["correct"] and result["failed"] >= 1
    assert detail["failures"]


def test_gate_fails_on_exit_code_and_changed_report(cli, tmp_path):
    requests = _smoke("subdivision-mix", tmp_path)
    gate = run.Gate(requests)
    gate.record(0, 0, "{}", "", None)  # subdivide is expected to exit 1
    gate.record(1, 1, "a", "", None)
    gate.record(1, 1, "b", "", None)  # not byte-identical to the first
    gate.record(1, None, "", "", ValueError("boom"))
    assert gate.attempted == 4 and gate.failed == 3


def test_speed_factor_is_reference_over_probe_time(monkeypatch):
    probe = speed.SpeedProbe()
    monkeypatch.setattr(speed.SpeedProbe, "_best", staticmethod(lambda fn: 0.0032))
    assert probe.factor() == pytest.approx(speed.REFERENCE_S / 0.0032)


def test_tail_percentile_keeps_ten_requests_beyond():
    assert run.tail_percentile(list(range(65)))[0] == 50.0
    assert run.tail_percentile(list(range(100)))[0] == 90.0
    assert run.tail_percentile(list(range(999)))[0] == 90.0
    p, value = run.tail_percentile(list(range(1, 1001)))
    assert p == 99.0 and value == 990


def test_smoke_runs_every_workload_quickly(cli):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.smoke(cli)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert rc == 0
    assert [line["workload"] for line in lines[:-1]] == list(workloads.WORKLOADS)
    assert lines[-1]["failed"] == 0 and lines[-1]["smoke_s"] < run.SMOKE_BUDGET_S
