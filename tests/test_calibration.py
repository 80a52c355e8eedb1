"""Pins the sign convention in the kernel-space construction.

Two algebraically plausible readings of the construction differ by a final
sign flip of the variables.  Only one of them produces spaces annihilated by
the dual filters; this test certifies numerically which one, and that
build_p_theta, the library's one construction, is it.
"""

from convkern import (DInvariantSpace, L_inv, Spectrum, WITH_SIGMA_MINUS, Zero,
                      build_p_theta, ideal_complement_filters, kernel_residual)

from conftest import const, variables


def _worked_case():
    x, y = variables(2)
    ell = x + y
    space = DInvariantSpace((const(2, 1), ell, ell * ell))
    spec = Spectrum((Zero((1.0, 2.0), space),))
    H = ideal_complement_filters(spec, 4, 4)
    return space, spec, H


def _without_sigma_minus(space, theta):
    """L^-1 sigma_theta q per orthonormal q: P_theta without its sign flip."""
    return [L_inv(q.scale_vars(theta)) for q in space.ortho_basis]


def _worst_residual(H, theta, elements):
    residuals = kernel_residual(H, [(theta, p) for p in elements])
    return max(res / max(1.0, p.norm()) for p, res in zip(elements, residuals))


def test_with_sigma_minus_annihilates():
    space, spec, H = _worked_case()
    theta = spec.zeros[0].theta
    P = build_p_theta(space, theta)
    assert _worst_residual(H, theta, P.elements) <= 1e-9


def test_without_sigma_minus_does_not():
    space, spec, H = _worked_case()
    theta = spec.zeros[0].theta
    assert _worst_residual(H, theta, _without_sigma_minus(space, theta)) >= 1e-3


def test_default_matches_calibration():
    """build_p_theta applies the flip, exactly, and reports name it."""
    space, spec, _ = _worked_case()
    theta = spec.zeros[0].theta
    assert list(build_p_theta(space, theta).elements) == \
        [p.sigma_minus() for p in _without_sigma_minus(space, theta)]
    assert WITH_SIGMA_MINUS == "with_sigma_minus"


def test_conventions_differ_only_by_sign_flip():
    space, _, _ = _worked_case()
    theta = (1.0, 2.0)
    Pw = build_p_theta(space, theta)
    for pw, po in zip(Pw.elements, _without_sigma_minus(space, theta)):
        flipped = po.scale_vars([-1.0] * 2)
        assert (pw - flipped).norm() <= 1e-12 * max(1.0, po.norm())
