"""Sparse multivariate (Laurent) polynomials with complex coefficients.

A polynomial is a finite map from integer exponent tuples to complex
coefficients.  Negative exponents are allowed (Laurent polynomials); most
calculus operations (differentiation, shifting, leading forms) require all
exponents to be nonnegative and raise otherwise, except differentiation,
which extends verbatim to negative exponents and is needed when evaluating
derivative conditions on Laurent symbols away from the coordinate axes.

Terms with coefficient exactly zero are never stored, so two polynomials are
equal iff their term maps are equal.  Tolerance-based comparisons belong to
the verification layer, not here.

Polynomials are validated once, where they enter: the public constructor
LaurentPoly(dim, terms) converts every exponent with int(), checks its
length, merges repeated exponents and rejects non-finite coefficients.
Polynomials derived from valid ones (sums, products, derivatives, scalings)
are built by the private LaurentPoly._of, which trusts that every exponent
is a tuple of ints of length dim occurring once and every coefficient is a
Python complex.  It still rejects a non-finite coefficient, since arithmetic
can overflow, with the same ValueError, and still drops zero terms and turns
-0.0 parts into +0.0, so both constructors store the same terms.

A finitely supported filter h: Z^s -> C is stored as its symbol
h*(z) = sum_alpha h(alpha) z^alpha, so filters.Impulse is another name for
LaurentPoly: a tap h(alpha) is the coefficient of z^alpha, .taps reads
.terms, a filter product g * h is the product of symbols and a filter with
a non-finite tap is refused when it is built.  normalized_symbol, the
symbol without its monomial factor (laurent_normalize), is computed once
per polynomial and kept in a slot.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, Iterator, Mapping, Sequence, Tuple

Exponent = Tuple[int, ...]
Complex = complex

# Factorials enter Bombieri products and Newton coefficients; degrees past
# this are far outside the regime where double-precision coefficients are
# meaningful.
MAX_FACTORIAL = 20


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    if n > MAX_FACTORIAL:
        raise OverflowError(f"factorial({n}) exceeds the degree guard ({MAX_FACTORIAL}!)")
    return math.factorial(n)


def multi_factorial(gamma: Sequence[int]) -> int:
    """gamma! = prod_j gamma_j!"""
    out = 1
    for g in gamma:
        out *= factorial(g)
    return out


def grlex_key(exp: Exponent) -> Tuple[int, Exponent]:
    return (sum(exp), exp)


def _check_finite(c: complex) -> complex:
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"non-finite coefficient {c!r}")
    return complex(c)


def _require_finite(values) -> None:
    """Raise _check_finite's ValueError for the first non-finite value of a
    re-iterable collection; one C-level pass when all are finite."""
    if not all(map(cmath.isfinite, values)):
        for c in values:
            _check_finite(c)


def _diff_terms(terms: Mapping[Exponent, Complex],
                alpha: Exponent) -> Dict[Exponent, Complex]:
    """The terms of D^alpha of a polynomial's terms, zeros included, each
    coefficient 0 + the product of the falling factors taken in order.
    D^alpha is injective on the exponents it keeps."""
    out: Dict[Exponent, Complex] = {}
    for exp, c in terms.items():
        coeff = c
        new = list(exp)
        dead = False
        for j, a in enumerate(alpha):
            for k in range(a):
                if new[j] == 0:
                    dead = True
                    break
                coeff *= new[j]
                new[j] -= 1
            if dead:
                break
        if not dead:
            out[tuple(new)] = 0 + coeff
    return out


class LaurentPoly:
    """Immutable sparse Laurent polynomial in ``dim`` variables."""

    __slots__ = ("dim", "terms", "_normalized")

    def __init__(self, dim: int, terms: Mapping[Exponent, Complex] | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        clean: Dict[Exponent, Complex] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != dim:
                    raise ValueError(f"exponent {exp} has length {len(exp)}, expected {dim}")
                c = _check_finite(complex(coeff))
                if c != 0:
                    clean[exp] = clean.get(exp, 0) + c
                    if clean[exp] == 0:
                        del clean[exp]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, dim: int, terms: Mapping[Exponent, Complex]) -> "LaurentPoly":
        """Trusted constructor for terms derived from valid polynomials of
        this dim: each exponent a tuple of dim ints occurring once, each
        coefficient a complex.  Keeps __init__'s finiteness check, zero
        dropping and -0.0 normalisation (0 + c), skips the rest."""
        _require_finite(terms.values())
        out = object.__new__(cls)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "terms", {e: 0 + c for e, c in terms.items() if c})
        return out

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "LaurentPoly":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, c: Complex) -> "LaurentPoly":
        return cls(dim, {(0,) * dim: c})

    @classmethod
    def variable(cls, dim: int, j: int) -> "LaurentPoly":
        if not 0 <= j < dim:
            raise ValueError(f"variable index {j} out of range for dim {dim}")
        exp = [0] * dim
        exp[j] = 1
        return cls(dim, {tuple(exp): 1.0})

    @classmethod
    def monomial(cls, dim: int, exp: Sequence[int], c: Complex = 1.0) -> "LaurentPoly":
        return cls(dim, {tuple(exp): c})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_poly(self) -> bool:
        """True iff all exponents are nonnegative."""
        return all(min(exp, default=0) >= 0 for exp in self.terms)

    def degree(self) -> int:
        """Total degree; requires a genuine polynomial, -1 for zero."""
        if not self.terms:
            return -1
        self._require_poly()
        return max(sum(exp) for exp in self.terms)

    def _require_poly(self) -> None:
        if not self.is_poly:
            raise ValueError("operation requires nonnegative exponents")

    def sorted_terms(self) -> Iterator[Tuple[Exponent, Complex]]:
        """Terms in ascending graded-lexicographic order."""
        for exp in sorted(self.terms, key=grlex_key):
            yield exp, self.terms[exp]

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return math.sqrt(sum(abs(c) ** 2 for c in self.terms.values()))

    def l1(self) -> float:
        """Sum of the coefficient moduli, the l1 norm of a filter's taps."""
        return sum(abs(c) for c in self.terms.values())

    @property
    def taps(self) -> Mapping[Exponent, Complex]:
        """The terms read as a filter's taps h(alpha), keyed by alpha."""
        return self.terms

    @property
    def normalized_symbol(self) -> "LaurentPoly":
        """The polynomial without its monomial factor (laurent_normalize),
        computed on first use and kept."""
        try:
            return self._normalized
        except AttributeError:
            g = laurent_normalize(self)[0]
            object.__setattr__(self, "_normalized", g)
            return g

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"z{j}^{e}" if e != 1 else f"z{j}"
                for j, e in enumerate(exp) if e != 0
            )
            cs = f"{c.real:g}" if c.imag == 0 else f"({c:g})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    # -- ring operations ---------------------------------------------------

    def _check_dim(self, other: "LaurentPoly") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_dim(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly._of(self.dim, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of(self.dim, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            self._check_dim(other)
            out: Dict[Exponent, Complex] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
            return LaurentPoly._of(self.dim, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Complex) -> "LaurentPoly":
        c = complex(c)
        return LaurentPoly._of(self.dim, {e: c * v for e, v in self.terms.items()})

    # -- evaluation and calculus -------------------------------------------

    def __call__(self, z: Sequence[Complex]) -> Complex:
        return self.evaluate(z)

    def evaluate(self, z: Sequence[Complex]) -> Complex:
        """Evaluate at a point of C^s (C_x^s if negative exponents occur)."""
        z = [complex(v) for v in z]
        if len(z) != self.dim:
            raise ValueError(f"point has length {len(z)}, expected {self.dim}")
        total = 0j
        for exp, c in self.terms.items():
            val = c
            for v, e in zip(z, exp):
                if e == 0:
                    continue
                if v == 0 and e < 0:
                    raise ZeroDivisionError("zero coordinate with negative exponent")
                val *= v ** e
            total += val
        return total

    def diff(self, alpha: Sequence[int]) -> "LaurentPoly":
        """Partial derivative D^alpha; alpha must be nonnegative."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim:
            raise ValueError("order multi-index has wrong length")
        if min(alpha) < 0:
            raise ValueError("derivative order must be nonnegative")
        return LaurentPoly._of(self.dim, _diff_terms(self.terms, alpha))

    def leading_form(self) -> "LaurentPoly":
        """Homogeneous component of top total degree."""
        if not self.terms:
            raise ValueError("leading form of the zero polynomial")
        self._require_poly()
        d = self.degree()
        return self.homogeneous_component(d)

    def homogeneous_component(self, d: int) -> "LaurentPoly":
        return LaurentPoly._of(self.dim, {e: c for e, c in self.terms.items() if sum(e) == d})

    def scale_vars(self, theta: Sequence[Complex]) -> "LaurentPoly":
        """sigma_theta f = f(theta_1 z_1, ..., theta_s z_s); theta in C_x^s."""
        theta = [complex(t) for t in theta]
        if len(theta) != self.dim:
            raise ValueError("scaling vector has wrong length")
        if any(t == 0 for t in theta):
            raise ValueError("scaling vector must have nonzero components")
        out: Dict[Exponent, Complex] = {}
        for exp, c in self.terms.items():
            fac = c
            for t, e in zip(theta, exp):
                fac *= t ** e
            if not fac:
                raise OverflowError(f"scaling the z^{exp} term by theta underflows to 0")
            out[exp] = fac
        return LaurentPoly._of(self.dim, out)

    def sigma_minus(self) -> "LaurentPoly":
        return self.scale_vars([-1.0] * self.dim)

    def shift(self, y: Sequence[Complex]) -> "LaurentPoly":
        """f(. + y), via binomial expansion; requires a polynomial."""
        self._require_poly()
        y = [complex(v) for v in y]
        if len(y) != self.dim:
            raise ValueError("shift vector has wrong length")
        out = LaurentPoly.zero(self.dim)
        for exp, c in self.terms.items():
            term = LaurentPoly.constant(self.dim, c)
            for j, e in enumerate(exp):
                # (z_j + y_j)^e
                binom = {}
                for k in range(e + 1):
                    ex = [0] * self.dim
                    ex[j] = k
                    binom[tuple(ex)] = math.comb(e, k) * y[j] ** (e - k)
                term = term * LaurentPoly(self.dim, binom)
            out = out + term
        return out

    def conjugate(self) -> "LaurentPoly":
        return LaurentPoly._of(self.dim, {e: c.conjugate() for e, c in self.terms.items()})


def apply_poly_diff(q: LaurentPoly, f: LaurentPoly) -> LaurentPoly:
    """q(D) f = sum_alpha q_alpha D^alpha f; q must be a polynomial."""
    if q.dim != f.dim:
        raise ValueError(f"dimension mismatch: {q.dim} vs {f.dim}")
    q._require_poly()
    out: Dict[Exponent, Complex] = {}
    for alpha, c in q.terms.items():
        # the checks, in order, of f.diff(alpha), .scale(c) and out + that
        diffed = _diff_terms(f.terms, alpha)
        _require_finite(diffed.values())
        scaled = {e: c * v for e, v in diffed.items()}
        _require_finite(scaled.values())
        for e, v in scaled.items():
            if v:
                total = out.get(e, 0) + v
                if total:
                    out[e] = total
                else:
                    del out[e]
        _require_finite(out.values())
    return LaurentPoly._of(f.dim, out)


def falling_factorial(gamma: Sequence[int]) -> LaurentPoly:
    """(x)_gamma = prod_j prod_{k=0}^{gamma_j - 1} (x_j - k); empty product is 1."""
    gamma = tuple(int(g) for g in gamma)
    if min(gamma, default=0) < 0:
        raise ValueError("falling factorial requires nonnegative multi-index")
    dim = len(gamma)
    out = LaurentPoly.constant(dim, 1.0)
    for j, g in enumerate(gamma):
        for k in range(g):
            out = out * (LaurentPoly.variable(dim, j) - LaurentPoly.constant(dim, float(k)))
    return out


def laurent_normalize(f: LaurentPoly) -> Tuple[LaurentPoly, Exponent]:
    """Factor f = z^mu * g with g a polynomial touching every coordinate plane.

    mu is the componentwise minimum exponent; stripping it removes the
    "spurious" zeros of a symbol at the origin.
    """
    if f.is_zero:
        raise ValueError("cannot normalize the zero polynomial")
    mu = tuple(min(exp[j] for exp in f.terms) for j in range(f.dim))
    g = LaurentPoly._of(f.dim, {tuple(e - m for e, m in zip(exp, mu)): c
                                for exp, c in f.terms.items()})
    return g, mu
