import json
import os

import numpy as np
import pytest

from convkern import (DInvariantSpace, ExpPolySeq, Impulse, LaurentPoly,
                      Spectrum, Zero, certify_kernel, dual_apply, fat_point_space,
                      hermite_fundamentals, ideal_complement_filters,
                      impulse_from_symbol, kernel_basis, kernel_residual,
                      lower_set_space, quotient_dim_estimate, verify_zero_dim)
from convkern import serialize as ser
from convkern.linalg import span_residual

from conftest import FIXTURES, const, random_poly, run_cli, variables


def tensor_difference():
    # symbol (1 - z1)(1 - z2)
    return Impulse(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})


class TestDualApply:
    def test_value_functional(self):
        x, y = variables(2)
        f = x * x + 3 * y
        assert dual_apply(const(2, 1), f, (2.0, 1.0)) == pytest.approx(7.0)

    def test_first_derivative(self):
        z = LaurentPoly.variable(1, 0)
        f = (const(1, 1) - z) * (const(1, 1) - z)
        assert dual_apply(z, f, (1.0,)) == 0

    def test_second_derivative(self):
        z = LaurentPoly.variable(1, 0)
        f = (const(1, 1) - z) * (const(1, 1) - z)
        assert dual_apply(z * z, f, (1.0,)) == pytest.approx(2.0)


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
        h = impulse_from_symbol(const(1, 1) - z)
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),))
        assert verify_zero_dim([h], spec)["pass"]

    def test_spurious_origin_zero_ignored(self):
        # z (1 - z) has the same kernel data as 1 - z
        z = LaurentPoly.variable(1, 0)
        h = impulse_from_symbol(z * (const(1, 1) - z))
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),))
        assert verify_zero_dim([h], spec)["pass"]

    def test_dimension_mismatch(self):
        z = LaurentPoly.variable(1, 0)
        h = impulse_from_symbol(const(1, 1) - z)
        spec = Spectrum((Zero((1.0, 1.0), fat_point_space(2, 0)),))
        with pytest.raises(ValueError):
            verify_zero_dim([h], spec)

    def test_dual_scale_matches_monomial_evaluation(self, rng):
        from convkern.spectrum import _dual_scale
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            g = random_poly(rng, dim, 6, complex_coeffs=True, laurent=True)
            point = tuple(complex(*rng.normal(size=2)) for _ in range(dim))
            reference = 1.0 + sum(abs(c) * abs(LaurentPoly.monomial(dim, exp).evaluate(point))
                                  for exp, c in g.terms.items())
            assert _dual_scale(g, point) == reference


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


class TestIdealComplementFilters:
    def test_single_simple_zero(self):
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),))
        (h,) = ideal_complement_filters(spec, 1, 1)
        z = LaurentPoly.variable(1, 0)
        f = LaurentPoly(1, dict(h.taps))
        rel, _ = span_residual(f, [const(1, 1) - z])
        assert rel <= 1e-10

    def test_double_zero(self):
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 1)),))
        (h,) = ideal_complement_filters(spec, 1, 2)
        z = LaurentPoly.variable(1, 0)
        target = (const(1, 1) - z) * (const(1, 1) - z)
        f = LaurentPoly(1, dict(h.taps))
        rel, _ = span_residual(f, [target])
        assert rel <= 1e-10

    def test_bivariate_value_functional(self):
        spec = Spectrum((Zero((1.0, 1.0), fat_point_space(2, 0)),))
        H = ideal_complement_filters(spec, 2, 1)
        z1, z2 = variables(2)
        basis = [const(2, 1) - z1, const(2, 1) - z2]
        for h in H:
            f = LaurentPoly(2, dict(h.taps))
            rel, _ = span_residual(f, basis)
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
        h = impulse_from_symbol(const(1, 1) - z)
        spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),))
        [(theta, P)] = kernel_basis([h], spec)
        assert P.size == 1
        assert P.elements[0].degree() == 0

    def test_one_dimensional_factored_symbol(self):
        z = LaurentPoly.variable(1, 0)
        h = impulse_from_symbol((z - const(1, 2)) * (z - const(1, 2)) * (z - const(1, 3)))
        spec = Spectrum((Zero((0.5,), fat_point_space(1, 1)),
                         Zero((1 / 3,), fat_point_space(1, 0))))
        kb = kernel_basis([h], spec)
        assert [P.size for _, P in kb] == [2, 1]

    def test_bivariate_tensor(self):
        z1, z2 = variables(2)
        H = [impulse_from_symbol(const(2, 1) - z1), impulse_from_symbol(const(2, 1) - z2)]
        spec = Spectrum((Zero((1.0, 1.0), fat_point_space(2, 0)),))
        [(theta, P)] = kernel_basis(H, spec)
        assert P.size == 1

    def test_verification_failure_raises(self):
        z = LaurentPoly.variable(1, 0)
        h = impulse_from_symbol(const(1, 1) - z)
        spec = Spectrum((Zero((2.0,), fat_point_space(1, 0)),))
        with pytest.raises(ValueError):
            kernel_basis([h], spec)

    def test_independent_on_window(self):
        z = LaurentPoly.variable(1, 0)
        h = impulse_from_symbol((z - const(1, 2)) * (z - const(1, 2)) * (z - const(1, 3)))
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
                            lambda H, seqs, pad=0: [(1.0, {})] * len(seqs))
        z = LaurentPoly.variable(1, 0)
        h = impulse_from_symbol(const(1, 1) - z)
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
        H = [impulse_from_symbol(z1), impulse_from_symbol(z2)]
        assert quotient_dim_estimate(H, 3) == 1

    def test_thick_origin(self):
        z1, z2 = variables(2)
        H = [impulse_from_symbol(z1 * z1), impulse_from_symbol(z2)]
        assert quotient_dim_estimate(H, 4) == 2

    def test_single_simple_zero(self):
        z = LaurentPoly.variable(1, 0)
        H = [impulse_from_symbol(const(1, 1) - z)]
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
            for p in P.elements:
                res, _ = kernel_residual(H, ExpPolySeq.single(theta, p))
                assert res <= 1e-8 * max(h.l1() for h in H) * max(1.0, p.norm())

    def test_converse_perturbation(self):
        spec = self._spectrum()
        H = ideal_complement_filters(spec, 3, 4)
        system = hermite_fundamentals(spec)
        kb = kernel_basis(H, spec)
        eps = 1e-2
        for qi in range(3):
            f = system.poly(0, qi)
            bad = Impulse(2, {**{k: v for k, v in H[0].taps.items()}})
            bad_sym = LaurentPoly(2, dict(bad.taps)) + f.scale(eps)
            bad = impulse_from_symbol(bad_sym)
            worst = 0.0
            for theta, P in kb:
                for p in P.elements:
                    res, _ = kernel_residual([bad], ExpPolySeq.single(theta, p))
                    worst = max(worst, res)
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
    """The collocation and dual matrices come from linalg.diff_table; the
    per-entry dual_apply loop is the reference."""

    @pytest.mark.parametrize("dim, nzeros, max_order", [(1, 4, 2), (2, 6, 1), (3, 5, 1)])
    def test_dual_matrix_matches_dual_apply(self, rng, dim, nzeros, max_order):
        from convkern.apolar import ortho_homog_basis
        spec = _random_spectrum(rng, dim, nzeros, max_order)
        system = hermite_fundamentals(spec)
        D = system.dual_matrix()
        assert np.max(np.abs(D - np.eye(D.shape[0]))) <= 1e-8
        ref = np.array([[dual_apply(q, p, zero.point) for _, _, p in system.polys]
                        for zero in spec.zeros for q in ortho_homog_basis(zero.mult)])
        assert np.max(np.abs(D - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_collocation_matrix_matches_dual_apply(self, rng):
        from convkern.apolar import ortho_homog_basis
        from convkern.linalg import monomials_upto
        from convkern.spectrum import _functional_rows
        spec = _random_spectrum(rng, 2, 4, 2)
        monos = monomials_upto(2, 4)
        V = _functional_rows(spec, monos)
        ref = np.array([[dual_apply(q, LaurentPoly.monomial(2, beta), zero.point)
                         for beta in monos]
                        for zero in spec.zeros for q in ortho_homog_basis(zero.mult)])
        assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_empty_spectrum(self):
        assert hermite_fundamentals(Spectrum(())).dual_matrix().shape == (0, 0)
