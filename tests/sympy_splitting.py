"""Reference idempotent splitting through sympy.

The characteristic-polynomial factorisation and CRT idempotent that
`blocko.zmod.decompose` used before its exact `Fraction` code.  Slow to
import, but independent of the new code, so the tests compare the two.
"""

from fractions import Fraction

import sympy


def charpoly_factors(mat):
    sm = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in mat]
    )
    x = sympy.Symbol("x")
    cp = sm.charpoly(x).as_expr()
    _, factors = sympy.factor_list(sympy.Poly(cp, x))
    return [(sympy.Poly(f, x), mult) for f, mult in factors]


def charpoly_coeffs(mat):
    """Characteristic polynomial of mat, coefficients ascending."""
    x = sympy.Symbol("x")
    sm = sympy.Matrix(
        [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in mat]
    )
    return [Fraction(str(c)) for c in reversed(sm.charpoly(x).all_coeffs())]


def splitting_poly(mat):
    """Coefficients of a polynomial p with p(mat) a nontrivial idempotent,
    from a coprime factorization of the characteristic polynomial."""
    factors = charpoly_factors(mat)
    if len(factors) < 2:
        return None
    x = sympy.Symbol("x")
    f, mult = factors[0]
    g = f ** mult
    h = sympy.Poly(1, x)
    for f, mult in factors[1:]:
        h = h * f ** mult
    u, v, gcd = sympy.gcdex(g.as_expr(), h.as_expr(), x)
    gp = sympy.Poly(gcd, x)
    if gp.degree() != 0:
        return None
    scale = sympy.Rational(1) / gp.coeffs()[0]
    vh = sympy.Poly(sympy.expand(v * h.as_expr() * scale), x)
    return [Fraction(str(c)) for c in reversed(vh.all_coeffs())]
