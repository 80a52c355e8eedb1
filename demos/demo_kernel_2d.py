"""Bivariate kernel construction: from a spectrum of zeros with multiplicity
spaces to certified exponential-polynomial kernel sequences.

Starting from a prescribed spectrum, the demo synthesizes filters whose
symbols vanish on it, rebuilds the kernel with its shift-invariant polynomial
spaces, and checks the unimodular change-of-basis matrices under shifts.

Run with:  python3 demos/demo_kernel_2d.py
"""

import numpy as np

from convkern import (DInvariantSpace, L_inv, LaurentPoly, Spectrum,
                      Zero, build_p_theta, fat_point_space,
                      ideal_complement_filters, kernel_basis,
                      kernel_residual, shift_matrix)

x = LaurentPoly.variable(2, 0)
y = LaurentPoly.variable(2, 1)
one = LaurentPoly.constant(2, 1.0)
ell = x + y

spec = Spectrum((
    Zero((1.0, 2.0), DInvariantSpace((one, ell, ell * ell))),
    Zero((0.5, -1.0), fat_point_space(2, 0)),
))
print("total multiplicity:", spec.total_multiplicity)

H = ideal_complement_filters(spec, 4, 4)
print("synthesized", len(H), "filters of degree <= 4 vanishing on the spectrum")

print()
print("== kernel basis (certified) ==")
kb = kernel_basis(H, spec)
for theta, P in kb:
    print(f"theta = ({theta[0]:.3g}, {theta[1]:.3g})")
    # one stacked oracle call per theta, one residual per element of P_theta
    residuals = kernel_residual(H, [(theta, p) for p in P.elements])
    for p, res in zip(P.elements, residuals):
        print(f"   p = {p}   residual = {res:.2e}")

print()
print("== shift-invariance of P_theta ==")
theta, P = kb[0]
rng = np.random.default_rng(1)
for _ in range(3):
    yv = rng.normal(size=2)
    G = shift_matrix(P, yv)
    print(f"  y = ({yv[0]:+.3f}, {yv[1]:+.3f})  det G(y) = "
          f"{np.linalg.det(G):.12f}")
G0 = shift_matrix(P, [0.0, 0.0])
print("  G(0) == I:", bool(np.allclose(G0, np.eye(P.size))))

print()
print("== the construction behind P_theta ==")
space = DInvariantSpace((one, ell, ell * ell))
theta = (1.0, 2.0)
for q, p in zip(space.ortho_basis, build_p_theta(space, theta).elements):
    print(f"  q = {q}")
    print(f"     L^-1 sigma_theta q = {L_inv(q.scale_vars(theta))}")
    print(f"     p = its sign flip sigma_- = {p}")
