"""Sparse Laurent polynomials, the apolar inner product, and D-invariant
multiplicity spaces.

Run with:  python3 demos/demo_apolar_spaces.py
"""

import numpy as np

from convkern import (DInvariantSpace, LaurentPoly, adjoint_check, bombieri,
                      is_d_invariant, lower_set_space, ortho_homog_basis)

x = LaurentPoly.variable(2, 0)
y = LaurentPoly.variable(2, 1)
one = LaurentPoly.constant(2, 1.0)

print("== polynomial arithmetic ==")
f = (x + 2 * y) * (x + 2 * y)
print("f = (x + 2y)^2 =", f)
print("f(1, 1) =", f.evaluate([1.0, 1.0]))
print("df/dx   =", f.diff((1, 0)))

print()
print("== apolar (Bombieri) inner product ==")
print("(x^2, x^2) =", bombieri(x * x, x * x), " (alpha! weight: 2! = 2)")
print("(xy,  xy ) =", bombieri(x * y, x * y))
print("((x+y)^2, x+2y) =", bombieri((x + y) * (x + y), x + 2 * y),
      " (degrees differ => orthogonal)")
rng = np.random.default_rng(0)
p, g, h = x + y, x * x + y, 2 * x - y * y
print("adjunction |(p(D)f, g) - (f, p g)| =", adjoint_check(p, g, h))

print()
print("== D-invariant spaces ==")
ell = x + y
space = DInvariantSpace((one, ell, ell * ell))
print("span{1, l, l^2} with l = x + y is D-invariant:",
      is_d_invariant(space.basis)[0])
ok, witness = is_d_invariant([x])
print("span{x} is D-invariant:", ok, " witness (q, direction, residual):", witness)

print()
print("== orthonormal homogeneous basis ==")
for q in ortho_homog_basis(space):
    print("  ", q)

print()
print("== lower sets ==")
staircase = lower_set_space(2, [(0, 0), (1, 0), (0, 1), (2, 0)])
print("monomial staircase basis:", [str(q) for q in staircase.basis])
