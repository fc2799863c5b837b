"""Idempotent splitting of `zmod.decompose` against the sympy reference.

`tests/sympy_splitting.py` keeps the sympy factorisation that `decompose`
used before its `Fraction` code; both run on random conjugates of rational
Jordan matrices, whose eigenvalues are chosen to give ties in
multiplicity, non-integer roots and the zero eigenvalue.  The reference's
CRT polynomial, evaluated at the matrix, must give the idempotent matrix
`decompose` splits with.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from blocko import zmod
from blocko.linalg import invert, mat_mul

pytest.importorskip("sympy")
import sympy_splitting as ref  # noqa: E402

EIGENVALUES = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def _jordan(blocks):
    """Block diagonal Jordan matrix of (eigenvalue, size) blocks."""
    n = sum(size for _, size in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for lam, size in blocks:
        for i in range(k, k + size):
            out[i][i] = Fraction(lam)
            if i + 1 < k + size:
                out[i][i + 1] = Fraction(1)
        k += size
    return out


def _conjugate(mat, lower, upper):
    """P mat P^-1 for P = L U, L and U unitriangular with the given
    entries below and above the diagonal."""
    n = len(mat)
    lo = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    up = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lo[i][j] = Fraction(lower[(i * n + j) % len(lower)])
            up[j][i] = Fraction(upper[(i * n + j) % len(upper)])
    p = mat_mul(lo, up)
    return mat_mul(mat_mul(p, mat), invert(p))


def _evaluate(coeffs, mat):
    n = len(mat)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(coeffs):
        out = mat_mul(out, mat)
        for i in range(n):
            out[i][i] += c
    return out


jordan_blocks = st.lists(
    st.tuples(st.sampled_from(EIGENVALUES), st.integers(1, 3)),
    min_size=1,
    max_size=4,
)
entries = st.lists(st.integers(-2, 2), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(jordan_blocks, entries, entries)
@example([(2, 2), (-1, 2)], [1, -1], [2])  # tied multiplicities
@example([(Fraction(1, 2), 1), (3, 1), (Fraction(1, 3), 1)], [1], [1, 0])
@example([(0, 3), (Fraction(-2, 3), 2), (0, 1)], [0], [0])  # zero, split
@example([(5, 1)], [1], [1])  # one eigenvalue: no split
def test_splitting_matches_sympy(blocks, lower, upper):
    mat = _conjugate(_jordan(blocks), lower, upper)
    cp, roots = zmod._charpoly_factors(mat)
    assert cp == ref.charpoly_coeffs(mat)
    # the linear factors q x - p come first, in the reference's order
    linear = []
    for f, mult in ref.charpoly_factors(mat):
        if f.degree() == 1:
            q, c = (Fraction(str(x)) for x in f.all_coeffs())
            linear.append((-c / q, mult))
    assert roots == linear
    e = zmod._splitting_poly(mat)
    coeffs = ref.splitting_poly(mat)
    assert e == (None if coeffs is None else _evaluate(coeffs, mat))
    if e is not None:
        assert mat_mul(e, e) == e
        assert any(any(row) for row in e) and e != _evaluate([1], mat)


def test_irrational_split_is_the_one_difference():
    # (x^2 - 2)(x^2 - 3): sympy splits it over its quadratic factors, the
    # Fraction code finds no rational root and leaves it to the next trial
    mat = [[Fraction(x) for x in row] for row in
           [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]]]
    assert zmod._splitting_poly(mat) is None
    assert ref.splitting_poly(mat) is not None
