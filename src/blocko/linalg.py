"""Exact linear algebra over the rationals.

Vectors are lists of Fraction, matrices are lists of rows.  Everything here
is plain Gaussian elimination; sizes in this package are small (a few hundred
unknowns at most), so no attempt is made at fraction-free pivoting.
"""

from fractions import Fraction

Vec = list
Mat = list


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(n):
    return [Fraction(0)] * n


def identity_matrix(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum((c * x for c, x in zip(row, v) if c), Fraction(0)) for row in a]


def rref(rows, ncols=None):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m = [list(map(frac, r)) for r in rows]
    if not m:
        return [], []
    if ncols is None:
        ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows, ncols=None):
    return len(rref(rows, ncols)[0])


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

    Equivalent to kernel_basis but much faster when the kernel is small
    compared to the number of rows.  Internally integer arithmetic with gcd
    reduction; input entries may be Fraction."""
    from math import gcd

    basis = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for row in rows:
        den = 1
        for x in row:
            if x:
                d = frac(x).denominator
                den = den * d // gcd(den, d)
        irow = [(i, int(x * den)) for i, x in enumerate(row) if x]
        if not irow:
            continue
        dots = [sum(c * v[i] for i, c in irow) for v in basis]
        piv = next((i for i, d in enumerate(dots) if d), None)
        if piv is None:
            continue
        pv, pd = basis[piv], dots[piv]
        new_basis = []
        for i, (v, d) in enumerate(zip(basis, dots)):
            if i == piv:
                continue
            if d:
                w = [pd * a - d * b for a, b in zip(v, pv)]
                g = 0
                for x in w:
                    g = gcd(g, x)
                    if g == 1:
                        break
                if g > 1:
                    w = [x // g for x in w]
                new_basis.append(w)
            else:
                new_basis.append(v)
        basis = new_basis
    return [[Fraction(x) for x in v] for v in basis]


def solve_many(rows, rhs_cols):
    """Solve A x = b for several right-hand sides sharing the matrix A.

    rhs_cols: list of column vectors.  Returns one solution (or None) per
    column."""
    ncols = len(rows[0]) if rows else 0
    k = len(rhs_cols)
    m = [
        list(map(frac, r)) + [frac(col[i]) for col in rhs_cols]
        for i, r in enumerate(rows)
    ]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    out = []
    for j in range(k):
        col = ncols + j
        # rows past the rank are zero in the coefficient part
        if any(m[i][col] for i in range(r, len(m))):
            out.append(None)
            continue
        x = zeros(ncols)
        for row_i, p in enumerate(pivots):
            x[p] = m[row_i][col]
        out.append(x)
    return out


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(map(frac, r)) + [frac(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = zeros(ncols)
    for r, p in zip(red, pivots):
        x[p] = r[ncols]
    return x


def invert(mat):
    n = len(mat)
    aug = [list(map(frac, row)) + identity_matrix(n)[i] for i, row in enumerate(mat)]
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def in_span(basis_rows, v):
    """Is v in the row span of basis_rows?  basis_rows must be in rref."""
    w = list(map(frac, v))
    for row in basis_rows:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is not None and w[p]:
            f = w[p]
            w = [a - f * b for a, b in zip(w, row)]
    return not any(w)


def extend_basis(rref_rows, candidates):
    """Greedily extend an rref basis by independent candidate vectors.

    Returns (new_rref_rows, chosen_indices).
    """
    rows = [list(r) for r in rref_rows]
    chosen = []
    for idx, v in enumerate(candidates):
        if not in_span(rows, v):
            rows.append(list(map(frac, v)))
            rows, _ = rref(rows)
            chosen.append(idx)
    return rows, chosen


def congruence_inertia(sym):
    """Inertia (n_pos, n_zero, n_neg) of a symmetric rational matrix.

    Uses symmetric Gaussian elimination (congruence transformations only).
    """
    n = len(sym)
    m = [list(map(frac, row)) for row in sym]
    pos = neg = 0
    used = [False] * n
    for _ in range(n):
        k = next(
            (i for i in range(n) if not used[i] and m[i][i]),
            None,
        )
        if k is None:
            # look for an off-diagonal entry among unused rows
            pair = next(
                (
                    (i, j)
                    for i in range(n)
                    if not used[i]
                    for j in range(n)
                    if not used[j] and m[i][j]
                ),
                None,
            )
            if pair is None:
                break
            i, j = pair
            # congruence: add row/col j to row/col i, creating a diagonal entry
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            k = i
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        used[k] = True
        for i in range(n):
            if i != k and not used[i] and m[i][k]:
                f = m[i][k] / d
                for c in range(n):
                    m[i][c] -= f * m[k][c]
                for r in range(n):
                    m[r][i] -= f * m[r][k]
    zero = n - pos - neg
    return pos, zero, neg
