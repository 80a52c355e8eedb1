"""Hermite fundamental polynomials: a basis dual to the point-evaluation and
derivative conditions of a spectrum.

Run with:  python3 demos/demo_hermite.py
"""

import numpy as np

from convkern import (Impulse, Spectrum, Zero, certify_eigen, fat_point_space,
                      hermite_fundamentals, lower_set_space)

print("== two simple interpolation points ==")
# theta = 1 and 1/2 put the dual evaluations at the points 1 and 2
spec = Spectrum((Zero((1.0,), fat_point_space(1, 0)),
                 Zero((0.5,), fat_point_space(1, 0))))
system = hermite_fundamentals(spec)
for zi, qi, p in system.polys:
    print(f"  f[zero {zi}] = {p}   (Lagrange basis at points 1 and 2)")

print()
print("== a fat point: value + both first derivatives at (1,1) ==")
spec2 = Spectrum((Zero((1.0, 1.0),
                       lower_set_space(2, [(0, 0), (1, 0), (0, 1)])),))
system2 = hermite_fundamentals(spec2)
for zi, qi, p in system2.polys:
    print(f"  f[condition {qi}] = {p}")
dual = system2.dual_matrix()
print("  dual matrix deviation from identity:",
      f"{np.max(np.abs(dual - np.eye(dual.shape[0]))):.2e}")
print("  (the minimum-norm fundamental for the value condition is the")
print("   constant 1: it already has value 1 and vanishing gradient)")

print()
print("== eigen-sequences of the averaging filter ==")
# e_1 is an eigen-sequence with eigenvalue 1 exactly when it lies in the
# kernel of h - delta: certify_eigen checks its dual conditions and oracle
avg = Impulse(1, {(0,): 0.5, (1,): 0.5})
cert = certify_eigen(avg, (1.0,), fat_point_space(1, 0), 1.0, (0,))
print("  constants are fixed by averaging:", cert["pass"])
cert = certify_eigen(avg, (1.0,), fat_point_space(1, 1), 1.0, (0,))
print("  linear polynomials are not:", not cert["pass"])
