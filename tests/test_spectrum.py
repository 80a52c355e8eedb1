import json
import math
import os
import re

import numpy as np
import pytest

from convkern import (DInvariantSpace, ExpPolySeq, Impulse, LaurentPoly,
                      Spectrum, Zero, certify_hermite, certify_kernel, dual_apply,
                      fat_point_space,
                      hermite_fundamentals, ideal_complement_filters,
                      kernel_basis, kernel_residual,
                      lower_set_space, quotient_dim_estimate, verify_zero_dim)
from convkern import serialize as ser
from convkern import spectrum
from convkern.linalg import span_residual
from convkern.spectrum import KRONECKER_TOL

from conftest import FIXTURES, const, dual_rows, random_poly, run_cli, variables


def reference_scale(g, point):
    """1 + sum |c| |point^exp| over the terms of g, each power product
    starting from 1 and skipping zero exponents, as LaurentPoly.evaluate of
    the monomial does: verify_zero_dim's tolerance over tol, bit for bit."""
    z = [complex(v) for v in point]
    return 1.0 + sum(abs(c) * abs(math.prod(v ** e for v, e in zip(z, exp) if e))
                     for exp, c in g.terms.items())


def tensor_difference():
    # symbol (1 - z1)(1 - z2)
    return Impulse(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


class TestDualApply:
    def test_value_functional(self):
        x, y = variables(2)
        f = x * x + 3 * y
        assert dual_apply(const(2, 1), f, [(2.0, 1.0)])[0] == pytest.approx(7.0)

    def test_first_derivative(self):
        z = LaurentPoly.variable(1, 0)
        f = (const(1, 1) - z) * (const(1, 1) - z)
        assert dual_apply(z, f, [(1.0,)])[0] == 0

    def test_second_derivative(self):
        z = LaurentPoly.variable(1, 0)
        f = (const(1, 1) - z) * (const(1, 1) - z)
        assert dual_apply(z * z, f, [(1.0,)])[0] == pytest.approx(2.0)

    def test_no_points(self):
        z = LaurentPoly.variable(1, 0)
        assert dual_apply(z, const(1, 1) - z, []) == []


class TestSharedSpaces:
    """verify_zero_dim builds q(D) g once per (filter, shared space, q) and
    evaluates it at every zero of the space; its records are those of the
    per-condition loop, bit for bit."""

    @staticmethod
    def _case(rng):
        A = fat_point_space(2, 1)
        B = lower_set_space(2, [(0, 0), (1, 0)])
        # A and B interleave; the last zero's space equals A but is its own object
        spaces = (A, B, A, B, A, fat_point_space(2, 1))
        thetas = ((1.0, 1.0), (0.5, 2j), (-1.5, 0.8), (1.25j, -0.7), (2.0, 0.4 + 0.3j),
                  (0.9, -1.1))
        spec = Spectrum(tuple(Zero(t, q) for t, q in zip(thetas, spaces)))
        H = [tensor_difference(), random_poly(rng, 2, 3, complex_coeffs=True, laurent=True),
             LaurentPoly(2, {})]
        return H, spec

    def test_records_match_per_condition_loop(self, rng):
        from convkern.mpoly import apply_poly_diff
        H, spec = self._case(rng)
        tol = 1e-9
        ref = []
        for hi, h in enumerate(H):
            g = h.normalized_symbol if h.terms else h
            for zi, zero in enumerate(spec.zeros):
                bound = tol * reference_scale(g, zero.point)
                for qi, q in enumerate(zero.mult.ortho_basis):
                    val = apply_poly_diff(q, g).evaluate(zero.point)
                    ref.append({"filter": hi, "zero": zi, "q": qi, "value": val,
                                "residual": abs(val), "tolerance": bound,
                                "pass": abs(val) <= bound})
        report = verify_zero_dim(H, spec, tol)
        assert report["conditions"] == ref
        assert {r["pass"] for r in ref} == {True, False}
        assert report["pass"] is False

    def test_one_build_per_shared_space_and_q(self, rng, monkeypatch):
        H, spec = self._case(rng)
        calls = []
        build = spectrum.apply_poly_diff
        monkeypatch.setattr(spectrum, "apply_poly_diff",
                            lambda q, f: calls.append(q) or build(q, f))
        verify_zero_dim(H, spec)
        distinct = {id(zero.mult): zero.mult for zero in spec.zeros}
        assert len(distinct) == 3
        assert len(calls) == len(H) * sum(len(q.ortho_basis) for q in distinct.values())


class TestVerifyZeroDim:
    def test_tensor_difference_passes(self):
        spec = Spectrum((Zero((1.0, 1.0), lower_set_space(2, [(0, 0), (1, 0), (0, 1)])),))
        assert verify_zero_dim([tensor_difference()], spec)["pass"]

    def test_mixed_condition_fails(self):
        space = lower_set_space(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        spec = Spectrum((Zero((1.0, 1.0), space),))
        report = verify_zero_dim([tensor_difference()], spec)
        assert not report["pass"]
        failing = [r for r in report["conditions"] if not r["pass"]]
        # exactly the mixed-partial condition fails, with value 1
        assert len(failing) == 1
        assert abs(abs(failing[0]["value"]) - 1.0) < 1e-12

    def test_simple_zero(self):
        z = LaurentPoly.variable(1, 0)
        h = const(1, 1) - z
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),))
        assert verify_zero_dim([h], spec)["pass"]

    def test_spurious_origin_zero_ignored(self):
        # z (1 - z) has the same kernel data as 1 - z
        z = LaurentPoly.variable(1, 0)
        h = z * (const(1, 1) - z)
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),))
        assert verify_zero_dim([h], spec)["pass"]

    def test_dimension_mismatch(self):
        z = LaurentPoly.variable(1, 0)
        h = const(1, 1) - z
        spec = Spectrum((Zero((1.0, 1.0), fat_point_space(2, 0)),))
        with pytest.raises(ValueError):
            verify_zero_dim([h], spec)

    def test_dual_scale_matches_monomial_evaluation(self, rng):
        tol = 1e-9
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            h = random_poly(rng, dim, 6, complex_coeffs=True, laurent=True)
            theta = tuple(complex(*rng.normal(size=2)) for _ in range(dim))
            zero = Zero(theta, fat_point_space(dim, 0))
            g, point = h.normalized_symbol, zero.point
            reference = 1.0 + sum(abs(c) * abs(LaurentPoly.monomial(dim, exp).evaluate(point))
                                  for exp, c in g.terms.items())
            assert reference_scale(g, point) == reference
            record, = verify_zero_dim([h], Spectrum((zero,)), tol)["conditions"]
            assert record["tolerance"] == tol * reference


class TestHermiteFundamentals:
    def test_two_simple_points(self):
        # theta in {1, 1/2} means interpolation points {1, 2}
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),
                         Zero((0.5,), fat_point_space(1, 0))))
        system = hermite_fundamentals(spec)
        x = LaurentPoly.variable(1, 0)
        assert (system.poly(0, 0) - (const(1, 2) - x)).norm() < 1e-10
        assert (system.poly(1, 0) - (x - const(1, 1))).norm() < 1e-10

    def test_fat_point_2d(self):
        spec = Spectrum((Zero((1.0, 1.0), lower_set_space(2, [(0, 0), (1, 0), (0, 1)])),))
        system = hermite_fundamentals(spec)
        x, y = variables(2)
        # duals: value and both first partials at (1,1); the minimum-norm
        # fundamental for the value functional is the constant 1
        dual = system.dual_matrix()
        assert np.max(np.abs(dual - np.eye(3))) <= 1e-10
        assert (system.poly(0, 0) - const(2, 1)).norm() < 1e-10
        assert (system.poly(0, 1) - (x - const(2, 1))).norm() < 1e-10
        assert (system.poly(0, 2) - (y - const(2, 1))).norm() < 1e-10

    def test_single_point_constant(self):
        spec = Spectrum((Zero((2.0,), fat_point_space(1, 0)),))
        system = hermite_fundamentals(spec)
        assert (system.poly(0, 0) - const(1, 1)).norm() < 1e-10

    def test_kronecker_property(self):
        x, y = variables(2)
        ell = x + y
        spec = Spectrum((
            Zero((1.0, 2.0), DInvariantSpace((const(2, 1), ell, ell * ell))),
            Zero((0.5, 0.5), fat_point_space(2, 1)),
        ))
        system = hermite_fundamentals(spec)
        dual = system.dual_matrix()
        assert np.max(np.abs(dual - np.eye(dual.shape[0]))) <= 1e-8

    def test_duplicate_theta_rejected(self):
        with pytest.raises(ValueError):
            Spectrum((Zero((1.0,), fat_point_space(1, 0)),
                      Zero((1.0,), fat_point_space(1, 1))))


class TestCertifyHermite:
    def test_kronecker_record(self):
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 1)),
                         Zero((0.5,), fat_point_space(1, 0))))
        cert = certify_hermite(spec)
        worst = float(np.max(np.abs(cert["dual"] - np.eye(3))))
        assert cert["kronecker"] == {"residual": worst, "tolerance": KRONECKER_TOL,
                                     "pass": True}
        assert cert["pass"] and len(cert["system"].polys) == 3
        assert np.array_equal(cert["dual"], cert["system"].dual_matrix())

    def test_failed_kronecker_check(self, monkeypatch):
        spec = Spectrum((Zero((2.0,), fat_point_space(1, 0)),))
        monkeypatch.setattr(spectrum.FundamentalSystem, "dual_matrix",
                            lambda self: np.array([[1.0 + 2 * KRONECKER_TOL]]))
        cert = certify_hermite(spec)
        assert not cert["pass"] and not cert["kronecker"]["pass"]
        assert cert["kronecker"]["residual"] > cert["kronecker"]["tolerance"]

    def test_error(self, monkeypatch):
        monkeypatch.setattr(spectrum, "hermite_fundamentals", lambda spec: None)
        spec = Spectrum((Zero((2.0,), fat_point_space(1, 0)),))
        assert certify_hermite(spec) == {
            "pass": False, "error": "dual functionals never reached full rank; "
            "spectrum is inconsistent (duplicate or degenerate zeros)"}

    def test_rank_never_reached_is_a_verdict(self):
        """Pi_5 at theta = 1 and at theta = 2/3: no degree up to 5 + 12
        reaches numerical rank 12 on the monomials (a limit of that basis,
        since interpolation on two distinct points is solvable), so there
        are no fundamentals and the record fails."""
        spec = Spectrum(tuple(Zero((t,), fat_point_space(1, 5)) for t in (1.0, 2.0 / 3.0)))
        assert hermite_fundamentals(spec) is None
        cert = certify_hermite(spec)
        assert not cert["pass"] and cert["error"].startswith(
            "dual functionals never reached full rank")

    def test_space_without_homogeneous_basis_is_refused(self):
        """span{1, x1, x1^2 + x2} is D-invariant, but its homogeneous
        components span more: an input the library refuses, not a verdict."""
        x1, x2 = variables(2)
        space = DInvariantSpace((const(2, 1), x1, x1 * x1 + x2))
        with pytest.raises(ValueError, match="not spanned by homogeneous polynomials"):
            certify_hermite(Spectrum((Zero((1.0, 1.0), space),)))


class TestIdealComplementFilters:
    def test_single_simple_zero(self):
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),))
        (h,) = ideal_complement_filters(spec, 1, 1)
        z = LaurentPoly.variable(1, 0)
        f = LaurentPoly(1, dict(h.taps))
        rel, = span_residual([f], [const(1, 1) - z])
        assert rel <= 1e-10

    def test_double_zero(self):
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 1)),))
        (h,) = ideal_complement_filters(spec, 1, 2)
        z = LaurentPoly.variable(1, 0)
        target = (const(1, 1) - z) * (const(1, 1) - z)
        f = LaurentPoly(1, dict(h.taps))
        rel, = span_residual([f], [target])
        assert rel <= 1e-10

    def test_bivariate_value_functional(self):
        spec = Spectrum((Zero((1.0, 1.0), fat_point_space(2, 0)),))
        H = ideal_complement_filters(spec, 2, 1)
        z1, z2 = variables(2)
        basis = [const(2, 1) - z1, const(2, 1) - z2]
        for h in H:
            f = LaurentPoly(2, dict(h.taps))
            rel, = span_residual([f], basis)
            assert rel <= 1e-10

    def test_every_filter_verifies(self):
        x, y = variables(2)
        ell = x - y
        spec = Spectrum((Zero((1.0, 2.0), DInvariantSpace((const(2, 1), ell, ell * ell))),))
        H = ideal_complement_filters(spec, 5, 4)
        assert verify_zero_dim(H, spec)["pass"]

    def test_insufficient_nullspace(self):
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),))
        with pytest.raises(ValueError):
            ideal_complement_filters(spec, 10, 1)


class TestKernelBasis:
    def test_simple_difference(self):
        z = LaurentPoly.variable(1, 0)
        h = const(1, 1) - z
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),))
        [(theta, P)] = kernel_basis([h], spec)
        assert P.size == 1
        assert P.elements[0].degree() == 0

    def test_one_dimensional_factored_symbol(self):
        z = LaurentPoly.variable(1, 0)
        h = (z - const(1, 2)) * (z - const(1, 2)) * (z - const(1, 3))
        spec = Spectrum((Zero((0.5,), fat_point_space(1, 1)),
                         Zero((1 / 3,), fat_point_space(1, 0))))
        kb = kernel_basis([h], spec)
        assert [P.size for _, P in kb] == [2, 1]

    def test_bivariate_tensor(self):
        z1, z2 = variables(2)
        H = [const(2, 1) - z1, const(2, 1) - z2]
        spec = Spectrum((Zero((1.0, 1.0), fat_point_space(2, 0)),))
        [(theta, P)] = kernel_basis(H, spec)
        assert P.size == 1

    def test_verification_failure_raises(self):
        z = LaurentPoly.variable(1, 0)
        h = const(1, 1) - z
        spec = Spectrum((Zero((2.0,), fat_point_space(1, 0)),))
        with pytest.raises(ValueError):
            kernel_basis([h], spec)

    def test_independent_on_window(self):
        z = LaurentPoly.variable(1, 0)
        h = (z - const(1, 2)) * (z - const(1, 2)) * (z - const(1, 3))
        spec = Spectrum((Zero((0.5,), fat_point_space(1, 1)),
                         Zero((1 / 3,), fat_point_space(1, 0))))
        kb = kernel_basis([h], spec)
        seqs = [ExpPolySeq.single(theta, p) for theta, P in kb for p in P.elements]
        window = range(0, 8)
        A = np.array([[s.value((a,)) for a in window] for s in seqs])
        s = np.linalg.svd(A, compute_uv=False)
        assert np.sum(s > 1e-8 * s[0]) == 3


def _fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return json.load(fh)


class TestCertifyKernel:
    """certify_kernel is the one certificate behind verify and kernel_basis."""

    @pytest.mark.parametrize("filters, spectrum", [
        ("filters_diff1.json", "spectrum_theta1_const.json"),
        ("filters_kernel1d.json", "spectrum_kernel1d.json"),
        ("filters_grid.json", "spectrum_fat_point_2d.json")])
    @pytest.mark.parametrize("tol, pad", [(1e-9, 0), (1e-9, 3), (1e-6, 0)])
    def test_matches_verify_and_kernel_basis(self, filters, spectrum, tol, pad):
        H = ser.filters_from_json(_fixture(filters))
        spec = ser.spectrum_from_json(_fixture(spectrum))
        cert = certify_kernel(H, spec, tol=tol, pad=pad)
        code, out = run_cli("--tol", repr(tol), "--window-pad", str(pad), "verify",
                            filters, spectrum)
        report = json.loads(out)
        assert [(c["value"], c["tolerance"], c["pass"]) for c in report["checks"]] == \
               [(r["residual"], r["tolerance"], r["pass"])
                for r in cert["conditions"] + cert["oracle"]]
        assert report["pass"] == cert["pass"] and code == (0 if cert["pass"] else 1)
        if cert["pass"]:
            basis = [(theta, P.elements) for theta, P in kernel_basis(H, spec, tol=tol)]
            assert basis == [(theta, P.elements) for theta, P in cert["kernel"]]
        else:
            assert not cert["oracle"] and not cert["kernel"]
            with pytest.raises(ValueError, match="dual conditions fail for 2 "):
                kernel_basis(H, spec, tol=tol)

    def test_oracle_failure_raises(self, monkeypatch):
        from convkern import spectrum
        monkeypatch.setattr(spectrum, "kernel_residual",
                            lambda H, terms, pad=0: [1.0] * len(terms))
        z = LaurentPoly.variable(1, 0)
        h = const(1, 1) - z
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),))
        cert = certify_kernel([h], spec)
        assert all(r["pass"] for r in cert["conditions"]) and not cert["pass"]
        assert [(r["degree"], r["pass"]) for r in cert["oracle"]] == [(0, False)]
        with pytest.raises(ValueError, match=r"kernel certificate failed at "
                                             r"theta=\(\(1\+0j\),\): residual 1\.000e\+00"):
            kernel_basis([h], spec)


class TestQuotientDimEstimate:
    def test_coordinate_axes(self):
        z1, z2 = variables(2)
        H = [z1, z2]
        assert quotient_dim_estimate(H, 3) == 1

    def test_thick_origin(self):
        z1, z2 = variables(2)
        H = [z1 * z1, z2]
        assert quotient_dim_estimate(H, 4) == 2

    def test_single_simple_zero(self):
        z = LaurentPoly.variable(1, 0)
        H = [const(1, 1) - z]
        assert quotient_dim_estimate(H, 5) == 1

    def test_stabilizes_on_synthesized_spectra(self):
        x, y = variables(2)
        ell = x + y
        spec = Spectrum((
            Zero((1.0, 2.0), DInvariantSpace((const(2, 1), ell, ell * ell))),
            Zero((0.5, -1.0), fat_point_space(2, 0)),
        ))
        D = spec.max_degree() + 2
        from convkern.linalg import monomials_upto
        total = spec.total_multiplicity
        n_null = len(monomials_upto(2, D)) - total
        H = ideal_complement_filters(spec, n_null, D)
        dims = [quotient_dim_estimate(H, d) for d in range(D, D + 5)]
        assert all(d == total for d in dims)


class TestMultAnnihil:
    def _spectrum(self):
        x, y = variables(2)
        ell = x + y
        return Spectrum((Zero((1.0, 2.0),
                              DInvariantSpace((const(2, 1), ell, ell * ell))),))

    def test_forward(self):
        spec = self._spectrum()
        H = ideal_complement_filters(spec, 4, 4)
        kb = kernel_basis(H, spec)
        for theta, P in kb:
            for p, res in zip(P.elements, kernel_residual(H, [(theta, p) for p in P.elements])):
                assert res <= 1e-8 * max(h.l1() for h in H) * max(1.0, p.norm())

    def test_converse_perturbation(self):
        spec = self._spectrum()
        H = ideal_complement_filters(spec, 3, 4)
        system = hermite_fundamentals(spec)
        kb = kernel_basis(H, spec)
        eps = 1e-2
        for qi in range(3):
            f = system.poly(0, qi)
            bad = H[0] + f.scale(eps)
            worst = 0.0
            for theta, P in kb:
                worst = max([worst] + kernel_residual([bad], [(theta, p) for p in P.elements]))
            assert worst >= 1e-4


class TestOrthobasesOncePerZero:
    """Each zero's space computes its orthonormal basis once, however many
    filters, fundamentals and P_theta constructions read it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from convkern import apolar
        seen = []
        real = apolar.ortho_homog_basis

        def counting(space):
            seen.append(space)
            return real(space)

        monkeypatch.setattr(apolar, "ortho_homog_basis", counting)
        return seen

    def _spec(self):
        return Spectrum((Zero((1.0, 1.0), fat_point_space(2, 1)),
                         Zero((0.5, 2.0), fat_point_space(2, 0)),
                         Zero((-1.0, 0.5), fat_point_space(2, 1))))

    @staticmethod
    def _once_per_space(calls, spec):
        assert sorted(map(id, calls)) == sorted(id(zero.mult) for zero in spec.zeros)

    def test_verify_zero_dim(self, calls):
        """Across verify_zero_dim and build_p_theta."""
        from convkern import build_p_theta
        H = ideal_complement_filters(self._spec(), 3, 4)
        spec = self._spec()
        calls.clear()
        assert verify_zero_dim(H, spec)["pass"]
        for zero in spec.zeros:
            build_p_theta(zero.mult, zero.theta)
        self._once_per_space(calls, spec)

    def test_dual_matrix(self, calls):
        """Across hermite_fundamentals and dual_matrix."""
        spec = self._spec()
        system = hermite_fundamentals(spec)
        D = system.dual_matrix()
        self._once_per_space(calls, spec)
        assert np.allclose(D, np.eye(D.shape[0]), atol=1e-8)

    def test_basis_is_an_immutable_tuple(self):
        space = fat_point_space(2, 1)
        assert isinstance(space.ortho_basis, tuple)
        assert space.ortho_basis is space.ortho_basis


class TestSharedSpaces:
    """spectrum_from_json gives zeros with equal Q_basis one DInvariantSpace,
    so its D-invariance check and orthonormal basis run once."""

    THETAS = [0.5, 0.8, 1.25, 2.0, -1.0]

    @staticmethod
    def _zero(theta, basis):
        return {"theta": [{"re": theta, "im": 0.0}],
                "Q_basis": [[{"exp": [e], "re": c, "im": 0.0} for e, c in p]
                            for p in basis]}

    def _obj(self, bases):
        return {"dim": 1, "zeros": [self._zero(t, b) for t, b in zip(self.THETAS, bases)]}

    @pytest.fixture
    def counts(self, monkeypatch):
        from convkern import apolar
        seen = {"is_d_invariant": 0, "ortho_homog_basis": 0}
        for name in seen:
            real = getattr(apolar, name)

            def counting(*args, _real=real, _name=name):
                seen[_name] += 1
                return _real(*args)

            monkeypatch.setattr(apolar, name, counting)
        return seen

    def test_equal_bases_share_one_space(self, counts):
        linear = [[(0, 1.0)], [(1, 2.0), (0, 1.0)]]
        spec = ser.spectrum_from_json(self._obj([linear] * 5))
        assert all(zero.mult is spec.zeros[0].mult for zero in spec.zeros)
        H = [Impulse(1, {(0,): 1.0, (1,): -2.0, (2,): 1.0})]
        verify_zero_dim(H, spec)
        hermite_fundamentals(spec)
        assert counts == {"is_d_invariant": 1, "ortho_homog_basis": 1}

    def test_different_bases_stay_distinct(self):
        const_ = [[(0, 1.0)]]
        linear = [[(0, 1.0)], [(1, 1.0)]]
        spec = ser.spectrum_from_json(self._obj([const_, linear, const_, linear]))
        a, b, c, d = (zero.mult for zero in spec.zeros)
        assert a is c and b is d and a is not b

    def test_term_order_is_part_of_the_key(self):
        """Equal polynomials written in another term order keep their own
        space, whose sums run over the terms in that order."""
        spec = ser.spectrum_from_json(self._obj([[[(0, 1.0)], [(1, 1.0), (0, 1.0)]],
                                                 [[(0, 1.0)], [(0, 1.0), (1, 1.0)]]]))
        first, second = (zero.mult for zero in spec.zeros)
        assert first.basis == second.basis and first is not second

    def test_a_repeated_basis_is_parsed_once(self, monkeypatch):
        calls = []
        parse = ser._basis_from_json
        monkeypatch.setattr(ser, "_basis_from_json",
                            lambda obj, dim: calls.append(obj) or parse(obj, dim))
        const_ = [[(0, 1.0)]]
        linear = [[(0, 1.0)], [(1, 1.0)]]
        spec = ser.spectrum_from_json(self._obj([const_, linear, const_, linear, const_]))
        assert len(calls) == 2
        assert [zero.mult for zero in spec.zeros[2:]] == [zero.mult for zero in spec.zeros[:3]]

    @pytest.mark.parametrize("path, value", [((0, "exp", 0), True), ((0, "exp", 0), 1.0),
                                             ((0, "re"), True)])
    def test_a_repeat_that_parses_differently_is_still_refused(self, path, value):
        """The first basis is accepted; a copy with 1 written as true or
        1.0 is refused as it would be alone."""
        obj = self._obj([[[(1, 1.0)], [(0, 1.0)]]] * 2)
        entry = obj["zeros"][1]["Q_basis"]
        for key in (0,) + path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        alone = self._obj([[[(1, 1.0)], [(0, 1.0)]]])
        alone["zeros"][0]["Q_basis"] = obj["zeros"][1]["Q_basis"]
        with pytest.raises(ValueError) as single:
            ser.spectrum_from_json(alone)
        with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
            ser.spectrum_from_json(obj)

    def test_signed_zero_parts_parse_on_their_own(self):
        """-0.0 and 0.0 are parsed one by one; their equal terms still share
        the first zero's space, as equal parsed terms do."""
        obj = self._obj([[[(0, 1.0)]]] * 3)
        obj["zeros"][1]["Q_basis"][0][0]["im"] = -0.0
        spec = ser.spectrum_from_json(obj)
        assert all(zero.mult is spec.zeros[0].mult for zero in spec.zeros)
        assert math.copysign(1.0, spec.zeros[0].mult.basis[0].terms[(0,)].imag) == 1.0

    def test_duplicate_theta_is_a_format_error(self):
        """Two zeros whose theta agree to DUPLICATE_THETA_TOL make malformed
        input, as the Spectrum constructor's ValueError says."""
        obj = self._obj([[[(0, 1.0)]]] * 2)
        obj["zeros"][1]["theta"][0]["re"] = self.THETAS[0] + 1e-13
        with pytest.raises(ValueError, match="duplicate theta at positions 0 and 1"):
            ser.spectrum_from_json(obj)

    def test_repeated_non_invariant_basis_exits_2(self, tmp_path, capsys):
        from convkern.cli import main
        messages = []
        for n in (1, 3):
            path = tmp_path / f"spec{n}.json"
            path.write_text(json.dumps(self._obj([[[(1, 1.0)]]] * n)))
            assert main(["build-kernel", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            messages.append(captured.err)
        assert messages[0] == messages[1]
        assert messages[0].startswith("error: not D-invariant")


def _random_spectrum(rng, dim, nzeros, max_order):
    thetas = []
    while len(thetas) < nzeros:
        t = tuple(rng.uniform(0.8, 1.25, size=dim) * np.exp(2j * np.pi * rng.uniform(size=dim)))
        if all(max(abs(a - b) for a, b in zip(t, u)) >= 0.2 for u in thetas):
            thetas.append(t)
    return Spectrum(tuple(Zero(t, fat_point_space(dim, int(rng.integers(0, max_order + 1))))
                          for t in thetas))


class TestJetTables:
    """The collocation and dual matrices come from linalg.diff_tables; the
    per-entry dual_apply loop is the reference."""

    @pytest.mark.parametrize("dim, nzeros, max_order", [(1, 4, 2), (2, 6, 1), (3, 5, 1)])
    def test_dual_matrix_matches_dual_apply(self, rng, dim, nzeros, max_order):
        from convkern.apolar import ortho_homog_basis
        spec = _random_spectrum(rng, dim, nzeros, max_order)
        system = hermite_fundamentals(spec)
        D = system.dual_matrix()
        assert np.max(np.abs(D - np.eye(D.shape[0]))) <= 1e-8
        ref = np.array([[dual_apply(q, p, [zero.point])[0] for _, _, p in system.polys]
                        for zero in spec.zeros for q in ortho_homog_basis(zero.mult)])
        assert np.max(np.abs(D - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_collocation_matrix_matches_dual_apply(self, rng):
        from convkern.apolar import ortho_homog_basis
        from convkern.linalg import monomials_upto
        from convkern.spectrum import _functional_rows
        spec = _random_spectrum(rng, 2, 4, 2)
        monos = monomials_upto(2, 4)
        V = _functional_rows(spec, monos)
        ref = np.array([[dual_apply(q, LaurentPoly.monomial(2, beta), [zero.point])[0]
                         for beta in monos]
                        for zero in spec.zeros for q in ortho_homog_basis(zero.mult)])
        assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_empty_spectrum(self):
        assert hermite_fundamentals(Spectrum(())).dual_matrix().shape == (0, 0)


def _hermite_from_d0(spec):
    """The Hermite search as it was before it started at its first feasible
    degree: every degree from max deg Q_theta up, polynomials in zero order."""
    from convkern.linalg import RANK_TOL, from_coeff_vector, monomials_upto, numerical_rank
    from convkern.spectrum import _functional_rows
    n = spec.total_multiplicity
    d0 = spec.max_degree()
    for d in range(d0, d0 + n + 1):
        monos = monomials_upto(spec.dim, d)
        V = _functional_rows(spec, monos)
        if numerical_rank(V) == n:
            pinv = np.linalg.pinv(V, rcond=RANK_TOL)
            return [from_coeff_vector(spec.dim, pinv[:, i], monos) for i in range(n)]
    raise AssertionError("no full-rank degree")


class TestSharedAcrossZeros:
    """Work shared by the zeros of a spectrum: one oracle stack in
    certify_kernel, one jet table per distinct space, and the Hermite search
    from its first feasible degree; each result is exactly the per-zero one."""

    @pytest.fixture
    def manyzeros(self):
        return (ser.filters_from_json(_fixture("filters_manyzeros_2d.json")),
                ser.spectrum_from_json(_fixture("spectrum_manyzeros_2d.json")))

    def test_certify_kernel_one_convolve_per_window(self, manyzeros, monkeypatch):
        from convkern import filters, spectrum
        from convkern.filters import certified_window
        H, spec = manyzeros
        residual_calls, convolve_calls = [], []
        real_residual, real_convolve = spectrum.kernel_residual, filters.convolve

        def counting_residual(H, terms, pad=0):
            residual_calls.append(len(terms))
            return real_residual(H, terms, pad)

        def counting_convolve(bank, c, w):
            convolve_calls.append((len(bank.vectors), w))
            return real_convolve(bank, c, w)

        monkeypatch.setattr(spectrum, "kernel_residual", counting_residual)
        monkeypatch.setattr(filters, "convolve", counting_convolve)
        cert = certify_kernel(H, spec)
        assert cert["pass"]
        terms = [(theta, p) for theta, P in cert["kernel"] for p in P.elements]
        windows = {certified_window(p.dim, p.degree()) for _, p in terms}
        assert residual_calls == [len(terms)] == [4 * 1 + 4 * 3]
        assert len(windows) == 2
        # one convolve per window for the whole of H
        assert sorted(convolve_calls, key=repr) == sorted(
            ((len(H), w) for w in windows), key=repr)
        # the residuals are those of one call per zero, exactly
        monkeypatch.undo()
        alone = []
        for theta, P in cert["kernel"]:
            alone += kernel_residual(H, [(theta, p) for p in P.elements])
        assert [rec["residual"] for rec in cert["oracle"]] == alone

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
    def test_one_jet_table_per_space(self, rng, monkeypatch, shared):
        from convkern import spectrum
        from convkern.linalg import monomials_upto
        spaces = [fat_point_space(2, 0), fat_point_space(2, 1)]
        thetas = [tuple(complex(t) for t in rng.uniform(0.8, 1.25, size=2)
                        * np.exp(2j * np.pi * rng.uniform(size=2))) for _ in range(8)]
        spec = Spectrum(tuple(
            Zero(theta, spaces[i % 2] if shared else fat_point_space(2, i % 2))
            for i, theta in enumerate(thetas)))
        calls = []
        real = spectrum.diff_tables

        def counting(orders, support, points):
            calls.append(len(points))
            return real(orders, support, points)

        monkeypatch.setattr(spectrum, "diff_tables", counting)
        support = monomials_upto(2, 4) + [(-1, 2), (3, -2)]
        V = spectrum._functional_rows(spec, support)
        assert calls == ([4, 4] if shared else [1] * 8)
        ref = np.vstack([dual_rows(zero.mult.ortho_basis, support, zero.point)
                         for zero in spec.zeros])
        assert np.array_equal(V, ref)

    @pytest.mark.parametrize("dim, nzeros, max_order", [(1, 4, 2), (2, 6, 1), (3, 5, 1),
                                                        (2, 3, 3)])
    def test_hermite_search_starts_at_its_bound(self, rng, monkeypatch, dim, nzeros,
                                                max_order):
        from convkern import spectrum
        for _ in range(3):
            spec = _random_spectrum(rng, dim, nzeros, max_order)
            ref = _hermite_from_d0(spec)
            columns = []
            real = spectrum.numerical_rank

            def recording(V, _real=real):
                columns.append(V.shape[1])
                return _real(V)

            monkeypatch.setattr(spectrum, "numerical_rank", recording)
            system = hermite_fundamentals(spec)
            monkeypatch.undo()
            n = spec.total_multiplicity
            assert columns and min(columns) >= n
            assert [(zi, qi) for zi, qi, _ in system.polys] == \
                [(zi, qi) for zi, zero in enumerate(spec.zeros) for qi in range(zero.mult.size)]
            assert [list(p.terms.items()) for _, _, p in system.polys] == \
                [list(p.terms.items()) for p in ref]


class TestFilterSetRefusals:
    """An empty or mixed filter set is refused for what it is, by every
    entry point that reads the dual conditions."""

    CHECKS = [verify_zero_dim, certify_kernel, kernel_basis]

    @staticmethod
    def _spec(dim):
        return Spectrum((Zero((1.0,) * dim, fat_point_space(dim, 0)),))

    @pytest.mark.parametrize("check", CHECKS, ids=lambda f: f.__name__)
    def test_empty_filter_set(self, check):
        with pytest.raises(ValueError, match="^empty filter set$"):
            check([], self._spec(1))

    @pytest.mark.parametrize("check", CHECKS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("spec_dim", [1, 2, None], ids=["1d", "2d", "empty"])
    def test_mixed_dimensions(self, check, spec_dim):
        z = LaurentPoly.variable(1, 0)
        spec = Spectrum(()) if spec_dim is None else self._spec(spec_dim)
        with pytest.raises(ValueError, match="^filters have mixed dimensions$"):
            check([const(1, 1) - z, tensor_difference()], spec)

    @pytest.mark.parametrize("check", CHECKS, ids=lambda f: f.__name__)
    def test_spectrum_of_another_dimension(self, check):
        with pytest.raises(ValueError, match="^filter and spectrum dimensions differ$"):
            check([tensor_difference()], self._spec(1))


class TestModuliTable:
    """verify_zero_dim reads each |theta^-e| from one table per zero, shared
    by the filters; every tolerance is tol times the per-filter formula, bit
    for bit, whatever the filters' supports."""

    def test_tolerances_over_different_supports(self, rng):
        noise = lambda: complex(*rng.normal(size=2))
        big = LaurentPoly(2, {(0, 0): 1.0 + noise(), (1, 0): noise(), (0, 1): noise(),
                              (2, 1): noise(), (1, 3): noise()})
        sub = LaurentPoly(2, {(0, 0): noise(), (2, 1): noise(), (1, 3): noise()})
        laurent = random_poly(rng, 2, 3, complex_coeffs=True, laurent=True)
        H = [sub, laurent, LaurentPoly(2, {}), big]
        symbols = [h.normalized_symbol if h.terms else h for h in H]
        assert symbols[0].terms.keys() < symbols[3].terms.keys()
        A = fat_point_space(2, 1)
        B = lower_set_space(2, [(0, 0), (1, 0)])
        spaces = (A, B, A, fat_point_space(2, 1))  # the last equals A, as its own object
        thetas = ((1.0, 1.0), (3.0, 0.2j), (-0.4, 1.5 + 0.5j), (0.9j, -2.5))
        spec = Spectrum(tuple(Zero(t, q) for t, q in zip(thetas, spaces)))
        tol = 1e-9
        records = verify_zero_dim(H, spec, tol)["conditions"]
        assert len(records) == len(H) * sum(q.size for q in spaces)
        for rec in records:
            scale = reference_scale(symbols[rec["filter"]], spec.zeros[rec["zero"]].point)
            assert rec["tolerance"] == tol * scale
            assert rec["residual"] == abs(rec["value"])
            assert rec["pass"] == (rec["residual"] <= rec["tolerance"])
        assert {rec["tolerance"] for rec in records if rec["filter"] == 2} == {tol}


class TestStoredCollocation:
    """The fundamentals keep the collocation matrix they were solved from;
    their dual matrix is that matrix times their coefficients, and no
    degree's matrix is built twice."""

    @pytest.mark.parametrize("dim, nzeros, max_order", [(1, 4, 2), (2, 6, 1), (3, 5, 1)])
    def test_dual_matrix_from_the_solved_matrix(self, rng, dim, nzeros, max_order):
        from convkern.linalg import coeff_matrix, monomials_upto
        from convkern.spectrum import _functional_rows
        for _ in range(3):
            spec = _random_spectrum(rng, dim, nzeros, max_order)
            system = hermite_fundamentals(spec)
            monos = monomials_upto(dim, max(sum(exp) for exp in system.monos))
            assert list(system.monos) == monos
            V = _functional_rows(spec, monos)
            assert np.array_equal(system.V, V)
            C, _ = coeff_matrix([p for _, _, p in system.polys], monos)
            assert np.array_equal(system.dual_matrix(), V @ C)

    def test_one_collocation_matrix_per_degree(self, monkeypatch):
        # three collinear points: degree 1 has rank 2, degree 2 reaches 3
        spec = Spectrum(tuple(Zero((t, t), fat_point_space(2, 0)) for t in (1.0, 0.5, 0.25)))
        rows, ranks = [], []
        real_rows, real_rank = spectrum._functional_rows, spectrum.numerical_rank
        monkeypatch.setattr(spectrum, "_functional_rows",
                            lambda spec, support: rows.append(len(support))
                            or real_rows(spec, support))
        monkeypatch.setattr(spectrum, "numerical_rank",
                            lambda V: ranks.append(V.shape[1]) or real_rank(V))
        cert = certify_hermite(spec)
        assert cert["pass"]
        assert ranks == [3, 6]
        assert rows == ranks
