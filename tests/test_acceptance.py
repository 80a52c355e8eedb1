"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line on the real stdout so the result
summary survives pytest's capture, then asserts.
"""

import cmath
import json
import sys
import time
from itertools import product

import numpy as np
import pytest

from convkern import (DInvariantSpace, Dilation, ExpPolySeq, Impulse,
                      LaurentPoly, L_inv, L_op, Spectrum,
                      Zero, adjoint_check, build_p_theta,
                      coset_reps, fat_point_space, hermite_fundamentals,
                      ideal_complement_filters,
                      is_symmetric_zero, kernel_basis, kernel_residual,
                      lower_set_space, modulation_points,
                      ortho_expansion_residual, quotient_dim_estimate,
                      shift_matrix, subdivision_kernel_check, subsymbols,
                      taylor_identity_residual, z_pow_Xi)
from convkern.linalg import monomials_upto
from convkern.mpoly import laurent_normalize
from convkern.subdivision import int_adjugate

from conftest import (CLI_CORPUS, acceptance_log, const, random_poly, run_cli,
                      scan_coset_reps, variables)


def report(num, description, passed):
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} - {description}"
    acceptance_log.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def _random_theta(rng, dim):
    return tuple(rng.uniform(0.5, 2.0) * cmath.exp(2j * cmath.pi * rng.uniform())
                 for _ in range(dim))


def _random_lower_set(rng, dim, max_size=6):
    exps = {(0,) * dim}
    target = int(rng.integers(1, max_size + 1))
    while len(exps) < target:
        candidates = []
        for e in exps:
            for j in range(dim):
                succ = tuple(v + (1 if i == j else 0) for i, v in enumerate(e))
                if succ in exps:
                    continue
                preds = [tuple(v - (1 if i == jj else 0) for i, v in enumerate(succ))
                         for jj in range(dim) if succ[jj] > 0]
                if all(p in exps for p in preds):
                    candidates.append(succ)
        if not candidates:
            break
        exps.add(candidates[int(rng.integers(len(candidates)))])
    return lower_set_space(dim, sorted(exps))


def _random_space(rng, dim):
    if dim >= 2 and rng.uniform() < 0.4:
        ell = const(dim, 0)
        for j in range(dim):
            ell = ell + float(rng.normal()) * LaurentPoly.variable(dim, j)
        return DInvariantSpace((const(dim, 1), ell, ell * ell))
    return _random_lower_set(rng, dim)


def _randomized_cases(rng, n_cases=51):
    """Single-zero spectra with annihilating filters, reused by two tests."""
    cases = []
    while len(cases) < n_cases:
        dim = int(rng.integers(1, 4))
        theta = _random_theta(rng, dim)
        space = _random_space(rng, dim)
        spec = Spectrum((Zero(theta, space),))
        D = spec.max_degree() + 2
        n_null = len(monomials_upto(dim, D)) - spec.total_multiplicity
        count = min(dim + 2, n_null)
        if count < 1:
            continue
        H = ideal_complement_filters(spec, count, D)
        cases.append((spec, H))
    return cases


@pytest.fixture(scope="module")
def randomized_cases():
    return _randomized_cases(np.random.default_rng(7151823))


@pytest.fixture(scope="module")
def bivariate_spectra():
    """Spectra with 2-3 zeros in two variables, total multiplicity <= 6."""
    rng = np.random.default_rng(424242)
    x, y = variables(2)
    specs = []
    menus = [
        [fat_point_space(2, 1), fat_point_space(2, 0)],
        [lower_set_space(2, [(0, 0), (1, 0), (0, 1)]),
         fat_point_space(2, 0), fat_point_space(2, 0)],
        [DInvariantSpace((const(2, 1), x + y, (x + y) * (x + y))),
         lower_set_space(2, [(0, 0), (1, 0)])],
        [fat_point_space(2, 0), fat_point_space(2, 0), fat_point_space(2, 0)],
    ]
    for spaces in menus:
        zeros = []
        for space in spaces:
            while True:
                theta = _random_theta(rng, 2)
                if all(max(abs(t - u) for t, u in zip(theta, z.theta)) > 0.1
                       for z in zeros):
                    break
            zeros.append(Zero(theta, space))
        specs.append(Spectrum(tuple(zeros)))
    return specs


def test_criterion_01_newton_operator_worked_example():
    start = time.perf_counter()
    x, y = variables(2)
    t1, t2 = 1.0, 2.0
    ell = t1 * x + t2 * y
    ok = (L_op(const(2, 1)) - const(2, 1)).norm() <= 1e-12
    ok = ok and (L_op(ell) - ell).norm() <= 1e-12
    expected = ell * ell + t1 ** 2 * x + t2 ** 2 * y
    ok = ok and (L_op(ell * ell) - expected).norm() <= 1e-12

    # the multiplicity space is generated by the unscaled linear form;
    # the construction itself applies the theta-scaling
    ell0 = x + y
    space = DInvariantSpace((const(2, 1), ell0, ell0 * ell0))
    # L^-1 sigma_theta Q, before the final sign flip of P_theta
    elements = [L_inv(q.scale_vars((t1, t2))) for q in space.ortho_basis]
    scaled = x + 2 * y
    target = [const(2, 1), scaled, scaled * scaled - (x + 4 * y)]
    from convkern.linalg import coeff_matrix
    A, _ = coeff_matrix(elements + target)
    ok = ok and np.linalg.matrix_rank(A, tol=1e-9) == 3 == len(elements)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, "scaled linear-power space: operator identities and basis span "
              f"(elapsed {elapsed:.3f}s)", ok)


def test_criterion_02_randomized_annihilation(randomized_cases):
    start = time.perf_counter()
    worst = 0.0
    for spec, H in randomized_cases:
        zero = spec.zeros[0]
        kb = kernel_basis(H, spec)
        scale = max(h.l1() for h in H)
        for theta, P in kb:
            for p, res in zip(P.elements, kernel_residual(H, [(theta, p) for p in P.elements])):
                worst = max(worst, res / (scale * max(1.0, p.norm())))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report(2, f"{len(randomized_cases)} random single-zero cases annihilated "
              f"(worst {worst:.2e}, elapsed {elapsed:.1f}s)", ok)


def test_criterion_03_perturbation_detected(randomized_cases):
    eps = 1e-2
    worst_detection = float("inf")
    for spec, H in randomized_cases:
        system = hermite_fundamentals(spec)
        f = system.poly(0, 0)
        bad = H[0] + f.scale(eps)
        kb = kernel_basis(H, spec)
        case_worst = 0.0
        for theta, P in kb:
            for res in kernel_residual([bad], [(theta, p) for p in P.elements]):
                case_worst = max(case_worst, res)
        worst_detection = min(worst_detection, case_worst)
    ok = worst_detection >= 1e-4
    report(3, f"1e-2 dual perturbation always detected "
              f"(weakest signal {worst_detection:.2e})", ok)


def test_criterion_04_univariate_factored_symbol():
    z = LaurentPoly.variable(1, 0)
    two, three = const(1, 2), const(1, 3)
    h = (z - two) * (z - two) * (z - three)
    x = z
    members = [((0.5,), const(1, 1)), ((0.5,), x), ((1 / 3,), const(1, 1))]
    ok = all(res <= 1e-8 for res in kernel_residual([h], members))
    seqs = [ExpPolySeq.single(theta, p) for theta, p in members]
    res, = kernel_residual([h], [((0.5,), x * x)])
    ok = ok and res >= 1e-3
    window = range(0, 8)
    A = np.array([[s.value((a,)) for a in window] for s in seqs])
    svals = np.linalg.svd(A, compute_uv=False)
    ok = ok and int(np.sum(svals > 1e-8 * svals[0])) == 3
    report(4, "univariate (z-2)^2(z-3): members pass, square probe fails, "
              "rank 3 on window", ok)


def test_criterion_05_kernel_dimension(bivariate_spectra):
    ok = True
    details = []
    for spec in bivariate_spectra:
        total = spec.total_multiplicity
        D = spec.max_degree() + 2
        n_null = len(monomials_upto(2, D)) - total
        H = ideal_complement_filters(spec, min(6, n_null), D)
        kb = kernel_basis(H, spec)  # raises unless every element certifies
        count = sum(P.size for _, P in kb)
        ok = ok and count == total
        seqs = [ExpPolySeq.single(theta, p) for theta, P in kb
                for p in P.elements]
        grid = list(product(range(6), repeat=2))
        A = np.array([[s.value(alpha) for alpha in grid] for s in seqs])
        svals = np.linalg.svd(A, compute_uv=False)
        ok = ok and int(np.sum(svals > 1e-8 * svals[0])) == total
        deg = max(laurent_normalize(h)[0].degree() for h in H)
        dims = [quotient_dim_estimate(H, d) for d in range(deg + 1, deg + 5)]
        ok = ok and all(d == total for d in dims)
        details.append(f"{count}/{total}")
    report(5, "kernel dimension equals total multiplicity with stabilized "
              f"quotient estimate ({', '.join(details)})", ok)


def test_criterion_06_hermite_duality(bivariate_spectra):
    worst = 0.0
    for spec in bivariate_spectra:
        system = hermite_fundamentals(spec)
        dual = system.dual_matrix()
        worst = max(worst, float(np.max(np.abs(dual - np.eye(dual.shape[0])))))
    ok = worst <= 1e-8
    report(6, f"Hermite fundamentals dual to identity (worst {worst:.2e})", ok)


def test_criterion_07_unimodular_shift_matrices():
    rng = np.random.default_rng(99)
    x, y = variables(2)
    ell = x + 2 * y
    bases = [
        build_p_theta(DInvariantSpace((const(2, 1), ell, ell * ell)), (1.0, 2.0)),
        build_p_theta(_random_lower_set(rng, 2), _random_theta(rng, 2)),
    ]
    ok = True
    worst = 0.0
    for P in bases:
        G0 = shift_matrix(P, [0.0] * 2)
        ok = ok and np.max(np.abs(G0 - np.eye(P.size))) <= 1e-9
        for _ in range(20):
            yv = rng.normal(size=2)
            dev = abs(np.linalg.det(shift_matrix(P, yv)) - 1)
            worst = max(worst, float(dev))
    ok = ok and worst <= 1e-9
    report(7, f"shift matrices unimodular, G(0)=I (worst |det-1| {worst:.2e})",
           ok)


def _random_mask(rng, dim, max_taps=25, span=3):
    taps = {}
    for _ in range(int(rng.integers(5, max_taps + 1))):
        idx = tuple(int(v) for v in rng.integers(-span, span + 1, size=dim))
        taps[idx] = taps.get(idx, 0) + complex(rng.normal(), rng.normal())
    return Impulse(dim, taps)


def _random_point(rng, dim):
    return tuple(rng.uniform(0.5, 2.0) * cmath.exp(2j * cmath.pi * rng.uniform())
                 for _ in range(dim))


def test_criterion_08_subdivision_suite():
    rng = np.random.default_rng(31337)
    ok = True

    # (a) subsymbol reconstruction and modulation identities
    dilations = [Dilation(((2, 0), (0, 2))), Dilation(((1, 1), (1, -1))),
                 Dilation(((2, 0), (0, 3)))]
    worst_a = 0.0
    for Xi in dilations:
        a = _random_mask(rng, Xi.dim)
        subs = subsymbols(a, Xi)
        m = Xi.coset_count
        d, adjT = int_adjugate(Xi.transpose())
        primes = scan_coset_reps(Xi, transpose=True)
        for _ in range(50):
            zpt = _random_point(rng, Xi.dim)
            zXi = z_pow_Xi(zpt, Xi)
            lhs = a.evaluate(zpt)
            rhs = sum(np.prod([zv ** e for zv, e in zip(zpt, xi)]) *
                      p.evaluate(zXi) for xi, p in subs.items())
            worst_a = max(worst_a, abs(lhs - rhs) / (1 + abs(lhs)))
            for xi, p in subs.items():
                zxi = np.prod([zv ** e for zv, e in zip(zpt, xi)])
                lhs2 = zxi * p.evaluate(zXi)
                rhs2 = 0j
                for xi_p in primes:
                    w = [sum(row[j] * xi_p[j] for j in range(Xi.dim))
                         for row in adjT]
                    phase = cmath.exp(2j * cmath.pi *
                                      sum(x * wi for x, wi in zip(xi, w)) / d)
                    modz = tuple(cmath.exp(-2j * cmath.pi * wi / d) * zv
                                 for wi, zv in zip(w, zpt))
                    rhs2 += phase * a.evaluate(modz)
                rhs2 /= m
                worst_a = max(worst_a, abs(lhs2 - rhs2) / (1 + abs(lhs2)))
    ok = ok and worst_a <= 1e-10

    # (b) modulation vectors are unit roots of the power map
    worst_b = 0.0
    for Xi in dilations + [Dilation(((2,),))]:
        ones = tuple(1.0 for _ in range(Xi.dim))
        for point in modulation_points(Xi, ones):
            res = z_pow_Xi(point, Xi)
            worst_b = max(worst_b, max(abs(v - 1) for v in res))
    ok = ok and worst_b <= 1e-12

    # (c) the three univariate mask cases
    TWO = Dilation(((2,),))
    z = LaurentPoly.variable(1, 0)
    diff2 = Impulse(1, {(0,): 1.0, (2,): -1.0})
    rep1 = subdivision_kernel_check(diff2, TWO, [((1.0,), 0)])
    sq = (const(1, 1) - z * z)
    diff2sq = sq * sq
    rep2 = subdivision_kernel_check(diff2sq, TWO, [((1.0,), 1)])
    hat = Impulse(1, {(0,): 0.5, (1,): 1.0, (2,): 0.5})
    rep3 = subdivision_kernel_check(hat, TWO, [((1.0,), 0)])
    ok = ok and rep1["pass"] and rep2["pass"] and not rep3["pass"]

    # (d) symmetric zeros of the symbol versus common subsymbol zeros on a
    # synthesized corpus, both directions
    disagreements = 0
    corpus_dils = [TWO, Dilation(((2, 0), (0, 2))), Dilation(((1, 1), (1, -1)))]
    for i in range(50):
        Xi = corpus_dils[i % 3]
        dim = Xi.dim
        zeta = _random_point(rng, dim)
        target = z_pow_Xi(zeta, Xi)
        subs = {}
        vanish_all = i % 2 == 0
        for j, xi in enumerate(coset_reps(Xi)):
            p = const(dim, 0)
            for exp in product(range(3), repeat=dim):
                if sum(exp) > 2:
                    continue
                p = p + complex(rng.normal(), rng.normal()) * \
                    LaurentPoly.monomial(dim, exp)
            if vanish_all or j != 0:
                p = p - const(dim, p.evaluate(target))
            else:
                p = p - const(dim, p.evaluate(target)) + const(dim, 1e-3)
            subs[xi] = p
        taps = {}
        for xi, p in subs.items():
            for alpha, c in p.terms.items():
                tap = tuple(v + w for v, w in zip(xi, Xi.apply(alpha)))
                taps[tap] = taps.get(tap, 0) + c
        a = Impulse(dim, taps)
        [(sym_ok, _)] = is_symmetric_zero(a, Xi, zeta, [0])
        scale = max(1.0, a.l1())
        sub_ok = all(abs(p.evaluate(target)) <= 1e-9 * scale
                     for p in subs.values())
        if sym_ok != sub_ok or sym_ok != vanish_all:
            disagreements += 1
    ok = ok and disagreements == 0

    report(8, "subdivision suite: identities "
              f"(a: {worst_a:.1e}, b: {worst_b:.1e}), mask cases, "
              f"{disagreements} corpus disagreements", ok)


def test_criterion_09_apolar_identities():
    rng = np.random.default_rng(2718)
    worst_adj = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        p = random_poly(rng, dim, 4)
        f = random_poly(rng, dim, 4)
        g = random_poly(rng, dim, 4)
        scale = 1.0 + f.norm() * (p * g).norm()
        worst_adj = max(worst_adj, adjoint_check(p, f, g) / scale)
    ok = worst_adj <= 1e-10

    x, y = variables(2)
    spaces = [
        fat_point_space(2, 1),
        lower_set_space(2, [(0, 0), (1, 0), (0, 1), (2, 0)]),
        DInvariantSpace((const(2, 1), x + y, (x + y) * (x + y))),
        DInvariantSpace((const(2, 1), 2 * x - y, (2 * x - y) * (2 * x - y))),
    ]
    worst_exp = 0.0
    worst_taylor = 0.0
    for space in spaces:
        f = const(2, 0)
        for c, q in zip(rng.normal(size=space.size), space.basis):
            f = f + float(c) * q
        worst_exp = max(worst_exp, ortho_expansion_residual(space, f))
        for _ in range(5):
            pt = rng.normal(size=2)
            qt = rng.normal(size=2)
            worst_taylor = max(worst_taylor,
                               taylor_identity_residual(space, f, pt, qt))
    ok = ok and worst_exp <= 1e-10 and worst_taylor <= 1e-10
    report(9, "apolar adjunction, orthogonal expansion, and two-point Taylor "
              f"identities (worst {max(worst_adj, worst_exp, worst_taylor):.1e})",
           ok)


def test_criterion_10_cli_corpus():
    ok = True
    for argv, expected in CLI_CORPUS:
        code1, out1 = run_cli(*argv)
        code2, out2 = run_cli(*argv)
        ok = ok and code1 == expected and code2 == expected
        ok = ok and out1 == out2
        if expected in (0, 1) and out1:
            json.loads(out1)  # reports are valid JSON
    report(10, f"CLI corpus of {len(CLI_CORPUS)} invocations: documented exit "
               "codes and byte-identical reruns", ok)
