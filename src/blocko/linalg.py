"""Exact linear algebra over the rationals.

Vectors are lists of Fraction (ints are accepted), matrices are lists of
rows.  Every elimination goes through one fraction-free kernel, `Echelon`.
It takes integer rows: a row enters as a primitive integer vector (content
divided out), is reduced against the rows before it by integer
cross-multiplication, and stays primitive.  The rational entry points
(`rref`, `rank`, `kernel_basis`, `solve_many`, `in_span`, `extend_basis`)
clear each row's denominators on the way in, so Fractions appear only in
their results, by one division per pivot.  Reduced row echelon forms, kernel
bases, free-variables-zero solutions and span membership are canonical, so
they do not depend on how the elimination is carried out.

`kernel_incremental` keeps its own loop: the order of the basis it returns
is part of its output.  It takes sparse integer rows, lists of (column,
integer) pairs, and returns integer vectors.  `charpoly` reduces to
Hessenberg form over Fraction, and `congruence_inertia` is read off its
result.
"""

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


class SingularMatrixError(ArithmeticError):
    """`invert` was given a singular matrix."""


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(n):
    return [_ZERO] * n


def identity_matrix(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _scaled(v, den):
    """The integers den * v, for a multiple den of every denominator."""
    return [x.numerator * (den // x.denominator) for x in v]


def integral(v):
    """A rational vector as (integers, denominator): v = integers / den with
    den the least common denominator of its entries."""
    den = lcm(*(x.denominator for x in v))
    return _scaled(v, den), den


def mat_mul(a, b):
    """Product of rational matrices, as one integer product over the common
    denominators."""
    da = lcm(*(x.denominator for row in a for x in row))
    db = lcm(*(x.denominator for row in b for x in row))
    ia = [_scaled(row, da) for row in a]
    bt = list(zip(*(_scaled(row, db) for row in b)))
    den = da * db
    return [[Fraction(sum(map(int.__mul__, ra, cb)), den) for cb in bt] for ra in ia]


def _primitive(w):
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def _integer_rows(rows):
    """Rational rows with their denominators cleared, for `Echelon`."""
    return (integral(v)[0] for v in rows)


class Echelon:
    """The row span of integer vectors, held as primitive integer rows.

    Each row has a pivot, its first nonzero column, that no other row
    shares, and is zero at the pivots of the rows added before it.
    """

    def __init__(self, rows=()):
        self.rows = []
        self.pivots = []
        for v in rows:
            self.add(v)

    def reduce(self, v):
        """An integer multiple of the integer vector v minus an element of
        the span, zero at every pivot: the zero vector exactly when v is in
        the span."""
        w = _primitive(v)
        for row, p in zip(self.rows, self.pivots):
            b = w[p]
            if b:
                a = row[p]
                g = gcd(a, b)
                a, b = a // g, b // g
                if a == 1:
                    w = [x - b * y for x, y in zip(w, row)]
                else:
                    w = _primitive([a * x - b * y for x, y in zip(w, row)])
        return w

    def add(self, v):
        """Insert v; True when it was outside the span."""
        w = self.reduce(v)
        p = next((c for c, x in enumerate(w) if x), None)
        if p is None:
            return False
        self.rows.append(_primitive(w))
        self.pivots.append(p)
        return True

    def reduced(self):
        """(integer rows, pivots) of the reduced echelon form, in pivot order:
        each row is zero at every other pivot.  Dividing a row by its pivot
        entry gives the row of the reduced row echelon form."""
        back = Echelon()
        for p, row in sorted(zip(self.pivots, self.rows), reverse=True):
            back.rows.append(_primitive(back.reduce(row)))
            back.pivots.append(p)
        return back.rows[::-1], back.pivots[::-1]


def rref(rows, ncols=None):
    """Reduced row echelon form.  Returns (rows, pivot_columns); pivots are
    sought in the first ncols columns only."""
    red, pivots = Echelon(_integer_rows(rows)).reduced()
    if ncols is not None:
        keep = [i for i, p in enumerate(pivots) if p < ncols]
        red, pivots = [red[i] for i in keep], [pivots[i] for i in keep]
    return [
        [Fraction(x, row[p]) if x else _ZERO for x in row]
        for row, p in zip(red, pivots)
    ], pivots


def rank(rows):
    return len(Echelon(_integer_rows(rows)).rows)


def kernel_basis(rows, ncols):
    """Basis of {x : A x = 0} for the matrix with the given rows."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = zeros(ncols)
        v[f] = Fraction(1)
        for r, p in zip(red, pivots):
            v[p] = -r[f]
        basis.append(v)
    return basis


def kernel_incremental(rows, ncols):
    """Kernel basis computed by intersecting one constraint at a time.

    Much faster than kernel_basis when the kernel is small compared to the
    number of rows.  Rows are sparse: lists of (column, integer) pairs.  The
    basis is primitive integer vectors; a row scaled by a positive factor
    gives the same basis."""
    basis = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for row in rows:
        dots = [sum(c * v[i] for i, c in row) for v in basis]
        piv = next((i for i, d in enumerate(dots) if d), None)
        if piv is None:
            continue
        pv, pd = basis[piv], dots[piv]
        new_basis = []
        for i, (v, d) in enumerate(zip(basis, dots)):
            if i == piv:
                continue
            if d:
                new_basis.append(_primitive([pd * a - d * b for a, b in zip(v, pv)]))
            else:
                new_basis.append(v)
        basis = new_basis
    return basis


def solve_many(rows, rhs_cols):
    """Solve A x = b for several right-hand sides sharing the matrix A, by
    one elimination of [A | b_1 ... b_k].

    rhs_cols: list of column vectors.  Returns, per column, the solution
    whose free variables are zero, or None if the system is inconsistent."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [col[i] for col in rhs_cols] for i, r in enumerate(rows)]
    red, pivots = Echelon(_integer_rows(aug)).reduced()
    solved = [(row, p) for row, p in zip(red, pivots) if p < ncols]
    residues = [row for row, p in zip(red, pivots) if p >= ncols]
    out = []
    for j in range(ncols, ncols + len(rhs_cols)):
        if any(row[j] for row in residues):
            out.append(None)
            continue
        x = zeros(ncols)
        for row, p in solved:
            if row[j]:
                x[p] = Fraction(row[j], row[p])
        out.append(x)
    return out


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent."""
    return solve_many(rows, [rhs])[0]


def invert(mat):
    n = len(mat)
    cols = solve_many(mat, identity_matrix(n))
    if None in cols:
        raise SingularMatrixError("matrix is singular")
    return [[col[i] for col in cols] for i in range(n)]


def in_span(basis_rows, v):
    """Is v in the row span of basis_rows?"""
    return not any(Echelon(_integer_rows(basis_rows)).reduce(integral(v)[0]))


def extend_basis(rref_rows, candidates):
    """Greedily extend an rref basis by independent candidate vectors.

    Returns (new_rref_rows, chosen_indices).
    """
    span = Echelon(_integer_rows(rref_rows))
    chosen = [idx for idx, v in enumerate(candidates) if span.add(integral(v)[0])]
    return rref(span.rows)[0], chosen


def charpoly(mat):
    """Characteristic polynomial det(x - mat), by reduction to upper
    Hessenberg form with similarity transforms."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if a[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            a[piv], a[j + 1] = a[j + 1], a[piv]
            for row in a:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        top = a[j + 1]
        for i in range(j + 2, n):
            if not a[i][j]:
                continue
            t = a[i][j] / top[j]
            row = a[i]
            for k in range(j, n):
                if top[k]:
                    row[k] -= t * top[k]
            for other in a:
                if other[i]:
                    other[j + 1] += t * other[i]
    # p_m = (x - h_mm) p_{m-1} - sum_i h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
    polys = [[Fraction(1)]]
    for m in range(n):
        p = [Fraction(0)] + polys[m]
        for k, c in enumerate(polys[m]):
            p[k] -= a[m][m] * c
        sub = Fraction(1)
        for i in range(m - 1, -1, -1):
            sub *= a[i + 1][i]
            if not sub:
                break
            if a[i][m]:
                for k, c in enumerate(polys[i]):
                    p[k] -= a[i][m] * sub * c
        polys.append(p)
    return polys[n]


def congruence_inertia(sym):
    """Inertia (n_pos, n_zero, n_neg) of a symmetric rational matrix.

    Its characteristic polynomial has only real roots, so Descartes' rule of
    signs counts the positive eigenvalues exactly; the zero eigenvalues are
    the order of vanishing at 0.
    """
    cp = charpoly(sym)
    zero = next(k for k, c in enumerate(cp) if c)
    signs = [c > 0 for c in cp if c]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return pos, zero, len(sym) - zero - pos
