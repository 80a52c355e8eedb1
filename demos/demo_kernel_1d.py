"""Kernel of a univariate FIR filter from the factorization of its symbol.

A filter is its symbol: the polynomial h = (z-2)^2 (z-3), built by
multiplying LaurentPoly factors, is itself the filter, its coefficients the
taps.  It annihilates exactly the span of (1/2)^a, a (1/2)^a and (1/3)^a: a
double symbol zero at z = 2 contributes the exponential with base 1/2 times
linear polynomials, the simple zero at z = 3 the plain exponential with base
1/3.

Run with:  python3 demos/demo_kernel_1d.py
"""

from convkern import (ExpPolySeq, LaurentPoly, Spectrum, Zero, fat_point_space,
                      kernel_basis, kernel_residual)

z = LaurentPoly.variable(1, 0)
two = LaurentPoly.constant(1, 2.0)
three = LaurentPoly.constant(1, 3.0)

h = (z - two) * (z - two) * (z - three)
print("filter taps:", dict(h.taps))

spec = Spectrum((
    Zero((0.5,), fat_point_space(1, 1)),    # double zero at z = 2
    Zero((1 / 3,), fat_point_space(1, 0)),  # simple zero at z = 3
))

print()
print("== certified kernel basis ==")
for theta, P in kernel_basis([h], spec):
    for p, res in zip(P.elements, kernel_residual([h], [(theta, p) for p in P.elements])):
        print(f"  theta = {theta[0]:.4f}  p = {p}  residual = {res:.2e}")

print()
print("== a sequence outside the kernel ==")
res, = kernel_residual([h], [((0.5,), z * z)])
print(f"  a^2 (1/2)^a residual = {res:.2e}  (clearly nonzero)")

print()
print("== spot check by direct convolution ==")
seq = ExpPolySeq.single((0.5,), z)        # a (1/2)^a
for alpha in range(4):
    val = sum(c * seq.value((alpha - k,)) for (k,), c in h.taps.items())
    print(f"  (h * seq)({alpha}) = {val:.2e}")
