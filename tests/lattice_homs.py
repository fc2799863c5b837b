"""Lattice homomorphisms and graded characters, compared by the tests.

A homomorphism of graded lattices is the matrix of `Poly` that `hom_graded`
and `compose` use, in the generator bases.  The library builds no scalar
or identity matrix and compares none, so these live with the tests.
"""

from blocko.poly import Poly
from blocko.zmod import ZLattice, graded_char


def scalar_hom(M: ZLattice, p: Poly):
    """Multiplication by p on M."""
    n = len(M.generators)
    return [[p if i == j else Poly.zero(p.nvars) for j in range(n)] for i in range(n)]


def identity_hom(M: ZLattice):
    return scalar_hom(M, Poly.const(M.graph.nvars, 1))


def homs_equal(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def chars_equal(a: ZLattice, b: ZLattice) -> bool:
    return graded_char(a) == graded_char(b)
