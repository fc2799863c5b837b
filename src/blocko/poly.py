"""Sparse multivariate polynomials over the rationals.

Monomials are exponent tuples; coefficients are Fraction.  Only what the
graded lattice computations need: ring operations, homogeneous degree
bookkeeping, restriction to the zero set of a linear form, and evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .linalg import frac


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = frac(c)
                if c:
                    self.terms[tuple(mono)] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: frac(c)})

    @classmethod
    def variable(cls, nvars, i):
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, {tuple(mono): Fraction(1)})

    @classmethod
    def linear(cls, coeffs):
        """Linear form sum c_i x_i from a coefficient vector."""
        n = len(coeffs)
        p = cls(n)
        for i, c in enumerate(coeffs):
            c = frac(c)
            if c:
                mono = [0] * n
                mono[i] = 1
                p.terms[tuple(mono)] = c
        return p

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = Poly(self.nvars)
        p.terms = out
        return p

    def __neg__(self):
        p = Poly(self.nvars)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        p = Poly(self.nvars)
        p.terms = out
        return p

    __rmul__ = __mul__

    def scale(self, c):
        c = frac(c)
        p = Poly(self.nvars)
        if c:
            p.terms = {m: c * x for m, x in self.terms.items()}
        return p

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), Fraction(0))

    def evaluate(self, point):
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, point):
                if e:
                    v *= frac(x) ** e
            total += v
        return total

    def substitute(self, var, replacement):
        """Substitute a Poly for variable `var`."""
        out = Poly.zero(self.nvars)
        powers = {0: Poly.const(self.nvars, 1)}
        for m, c in self.terms.items():
            e = m[var]
            if e not in powers:
                p = powers[max(powers)]
                for _ in range(max(powers), e):
                    p = p * replacement
                    powers[max(powers) + 1] = p
            rest = list(m)
            rest[var] = 0
            out = out + Poly(self.nvars, {tuple(rest): c}) * powers[e]
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (sum(m), m), reverse=True):
            c = self.terms[m]
            names = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m)
                if e
            )
            parts.append(f"{c}" + (f":{names}" if names else ""))
        return " + ".join(parts)

    __repr__ = __str__


@lru_cache(maxsize=None)
def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in a fixed order."""
    if nvars == 0:
        return ((),) if d == 0 else ()
    out = []
    # stars and bars, lexicographic in exponents
    for bars in combinations(range(d + nvars - 1), nvars - 1):
        prev = -1
        mono = []
        for b in bars:
            mono.append(b - prev - 1)
            prev = b
        mono.append(d + nvars - 2 - prev)
        out.append(tuple(mono))
    out.sort(reverse=True)
    return tuple(out)


def poly_to_coeffs(p, d):
    """Coefficient vector of a degree-d homogeneous polynomial."""
    monos = monomials_of_degree(p.nvars, d)
    return [p.terms.get(m, Fraction(0)) for m in monos]


def coeffs_to_poly(nvars, d, coeffs):
    monos = monomials_of_degree(nvars, d)
    return Poly(nvars, dict(zip(monos, coeffs)))


def restrict_to_hyperplane(p, h):
    """Restriction of p to the zero set of the linear form h.

    Eliminates one variable of h by substitution; p is divisible by h iff the
    result is zero.
    """
    var, coeff = next(
        (i, c)
        for m, c in h.terms.items()
        for i, e in enumerate(m)
        if e == 1
    )
    # replacement: x_var = -(h - coeff*x_var)/coeff
    rest = Poly(p.nvars)
    for m, c in h.terms.items():
        if m[var] == 0:
            rest.terms[m] = c
    replacement = rest.scale(Fraction(-1, 1) / coeff)
    return p.substitute(var, replacement)


def divisible_by_linear(p, h):
    return restrict_to_hyperplane(p, h).is_zero()
