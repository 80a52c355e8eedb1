"""Stationary subdivision: cosets, subsymbols, symmetric zeros, and kernels.

A mask a, stored as its symbol a*(z) (Impulse is another name for
LaurentPoly), and an expanding integer dilation matrix Xi define the operator
(S_a c)(alpha) = sum_beta a(alpha - Xi beta) c(beta).  Which polynomial-times-
exponential sequences S_a annihilates is decided by symmetric zeros of the
mask symbol, or equivalently by common zeros of its per-coset subsymbols.

Run with:  python3 demos/demo_subdivision.py
"""

from convkern import (Dilation, ExpPolySeq, Impulse, LaurentPoly, Window,
                      coset_reps, is_symmetric_zero, modulation_points,
                      subdivide, subdivision_kernel_check, subsymbols,
                      symmetric_zero_order)

TWO = Dilation(((2,),))
QUINCUNX = Dilation(((1, 1), (1, -1)))

print("== coset structure ==")
print("dyadic 1-D cosets:      ", coset_reps(TWO))
print("quincunx cosets (det -2):", coset_reps(QUINCUNX))
print("quincunx modulations of (1,1):",
      [tuple(f"{v:.0f}" for v in p) for p in modulation_points(QUINCUNX, (1.0, 1.0))])

print()
print("== subsymbols of the hat mask (1+z)^2/2 ==")
hat = Impulse(1, {(0,): 0.5, (1,): 1.0, (2,): 0.5})
for xi, p in subsymbols(hat, TWO).items():
    print(f"  coset {xi}: {p}")

print()
print("== applying the operators ==")
seq_const = ExpPolySeq.single((1.0,), LaurentPoly.constant(1, 1.0))
w = Window((-3,), (3,))
print("hat mask reproduces constants:",
      sorted(subdivide(hat, TWO, seq_const, w).items())[:3], "...")
diff2 = Impulse(1, {(0,): 1.0, (2,): -1.0})  # symbol 1 - z^2
print("difference mask kills them:  ",
      sorted(subdivide(diff2, TWO, seq_const, w).items())[:3], "...")

print()
print("== symmetric zeros ==")
[(ok, _)] = is_symmetric_zero(diff2, TWO, (1.0,), [0])
print("1 - z^2 has a symmetric zero at 1:", ok)
z = LaurentPoly.variable(1, 0)
f = LaurentPoly.constant(1, 1.0) - z * z
diff2sq = f * f  # a product of symbols is the convolved mask
print("(1 - z^2)^2 maximal symmetric zero order at 1:",
      symmetric_zero_order(diff2sq, TWO, (1.0,)))

print()
print("== kernel certification: three equivalent tests side by side ==")
for name, mask, k in (("1 - z^2", diff2, 0),
                      ("(1 - z^2)^2", diff2sq, 1),
                      ("(1+z)^2/2", hat, 0)):
    report = subdivision_kernel_check(mask, TWO, [((1.0,), k)])
    rec = report["candidates"][0]
    print(f"  {name:12s} Pi_{k} in kernel: {rec['pass']}  "
          f"(sym {rec['symmetric_zero_violation']:.1e}, "
          f"sub {rec['subsymbol_violation']:.1e}, "
          f"oracle {rec['oracle_residual']:.1e})")
