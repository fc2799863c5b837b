"""The integer elimination kernel against Gaussian elimination over Fraction."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_linalg as ref
from blocko import linalg
from blocko.linalg import Echelon, SingularMatrixError

ZERO = Fraction(0)


def rationals():
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def matrices(draw, ncols=None, nrows=None):
    """Rational matrices, often rank-deficient: a row is random, zero, or a
    rational combination of the rows before it."""
    if ncols is None:
        ncols = draw(st.integers(0, 6))
    if nrows is None:
        nrows = draw(st.integers(0, 6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            rows.append([ZERO] * ncols)
        elif kind == "combination" and rows:
            cs = draw(st.lists(rationals(), min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(cs, rows)), ZERO)
                         for j in range(ncols)])
        else:
            rows.append(draw(st.lists(rationals(), min_size=ncols, max_size=ncols)))
    return ncols, rows


def _mat_vec(rows, x):
    return [sum((a * b for a, b in zip(r, x)), ZERO) for r in rows]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_reference(m):
    ncols, rows = m
    assert linalg.rref(rows, ncols) == ref.rref(rows, ncols)
    assert linalg.rref(rows) == ref.rref(rows)
    assert linalg.rank(rows) == len(ref.rref(rows)[0])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_basis_matches_reference(m):
    ncols, rows = m
    red, pivots = ref.rref(rows, ncols)
    want = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = Fraction(1)
        for r, p in zip(red, pivots):
            v[p] = -r[f]
        want.append(v)
    got = linalg.kernel_basis(rows, ncols)
    assert got == want
    assert all(not any(_mat_vec(rows, v)) for v in got)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_many_matches_reference(data):
    ncols, rows = data.draw(matrices(nrows=data.draw(st.integers(1, 6))))
    n = len(rows)
    rhs = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):
            # consistent: the image of a random x
            x = data.draw(st.lists(rationals(), min_size=ncols, max_size=ncols))
            rhs.append(_mat_vec(rows, x))
        else:
            rhs.append(data.draw(st.lists(rationals(), min_size=n, max_size=n)))
    got = linalg.solve_many(rows, rhs)
    assert got == ref.solve_many(rows, rhs)
    for b, x in zip(rhs, got):
        assert x is None or _mat_vec(rows, x) == b
        assert linalg.solve(rows, b) == x


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: matrices(ncols=n, nrows=n)))
def test_invert_matches_reference(m):
    n, rows = m
    if len(ref.rref(rows, n)[0]) < n:
        with pytest.raises(SingularMatrixError):
            linalg.invert(rows)
        return
    inv = linalg.invert(rows)
    cols = ref.solve_many(rows, [[Fraction(int(i == j)) for i in range(n)] for j in range(n)])
    assert inv == [[col[i] for col in cols] for i in range(n)]
    assert linalg.mat_mul(rows, inv) == [[Fraction(int(i == j)) for j in range(n)]
                                         for i in range(n)]


def test_singular_matrix_error_is_arithmetic():
    with pytest.raises(ArithmeticError):
        linalg.invert([[1, 2], [2, 4]])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_echelon_add_matches_span_membership(m):
    ncols, rows = m
    span = Echelon()
    for i, v in enumerate(rows):
        outside = not ref.in_span(ref.rref(rows[:i], ncols)[0], v)
        assert linalg.in_span(rows[:i], v) is not outside
        # Echelon takes integer rows: clear the denominators on the way in
        assert span.add(linalg.integral(v)[0]) is outside
    # rows are primitive integers with distinct leading pivots
    assert len(set(span.pivots)) == len(span.pivots) == len(ref.rref(rows)[0])
    for row, p in zip(span.rows, span.pivots):
        assert all(type(x) is int for x in row) and gcd(*row) == 1
        assert next(c for c, x in enumerate(row) if x) == p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices())
def test_pivots_inside_a_column_block_give_it_full_rank(m):
    """The rows of an Echelon whose pivots lie in a column block are
    triangular on those pivot columns (each row is zero at the pivots of
    the rows added before it), so when they are as many as the block's
    columns, the rows sliced to the block have full rank.  The
    Braden-MacPherson edge check counts pivots before it computes a rank."""
    ncols, rows = m
    span = Echelon(linalg.integral(v)[0] for v in rows)
    for start in range(ncols + 1):
        for stop in range(start, ncols + 1):
            if sum(start <= p < stop for p in span.pivots) == stop - start:
                assert linalg.rank([row[start:stop] for row in span.rows]) == stop - start
                assert linalg.rank([row[start:stop] for row in rows]) == stop - start


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mat_mul_matches_fraction_product(data):
    inner, a = data.draw(matrices())
    _, b = data.draw(matrices(nrows=inner))
    width = len(b[0]) if b else 0
    want = [[sum((x * b[k][j] for k, x in enumerate(row)), ZERO) for j in range(width)]
            for row in a]
    assert linalg.mat_mul(a, b) == want


def _random_symmetric(rng):
    """A symmetric rational matrix of size 1 to 6: random, zero, or
    B D B^T of rank below its size with D of mixed signs."""
    n = rng.randint(1, 6)
    kind = rng.choice(["random", "zero", "singular"])
    if kind == "zero":
        return [[ZERO] * n for _ in range(n)]
    if kind == "random":
        m = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return m
    r = rng.randint(0, n - 1)
    b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r)]
         for _ in range(n)]
    d = [rng.choice([-2, -1, 1, 3]) for _ in range(r)]
    return [[sum((b[i][k] * d[k] * b[j][k] for k in range(r)), ZERO)
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("seed", range(10))
def test_congruence_inertia_matches_symmetric_elimination(seed):
    rng = random.Random(seed)
    for _ in range(60):
        m = _random_symmetric(rng)
        assert linalg.congruence_inertia(m) == ref.congruence_inertia(m)


@pytest.mark.parametrize("sym, inertia", [
    ([[0]], (0, 1, 0)),
    ([[Fraction(5, 2)]], (1, 0, 0)),
    ([[-1]], (0, 0, 1)),
    ([[0] * 3 for _ in range(3)], (0, 3, 0)),
    ([[0, 1], [1, 0]], (1, 0, 1)),
    ([[1, 1, 0], [1, 1, 0], [0, 0, -3]], (1, 1, 1)),
], ids=["zero-1x1", "positive-1x1", "negative-1x1", "zero-3x3",
        "indefinite", "singular-indefinite"])
def test_congruence_inertia_small_cases(sym, inertia):
    assert linalg.congruence_inertia(sym) == inertia == ref.congruence_inertia(sym)
