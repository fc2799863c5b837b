"""Reference exact linear algebra by Gaussian elimination over Fraction.

The elimination routines that `blocko.linalg` used before its integer
kernel: dense row reduction with a division per pivot.  Slow, but
independent of the integer code, so the tests compare the two.  The
symmetric elimination here computed `congruence_inertia` before it was
read off the characteristic polynomial.
"""

from fractions import Fraction


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(n):
    return [Fraction(0)] * n


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


def in_span(basis_rows, v):
    """Is v in the row span of basis_rows?  basis_rows must be in rref."""
    w = list(map(frac, v))
    for row in basis_rows:
        p = next((j for j, x in enumerate(row) if x), None)
        if p is not None and w[p]:
            f = w[p]
            w = [a - f * b for a, b in zip(w, row)]
    return not any(w)


def congruence_inertia(sym):
    """Inertia (n_pos, n_zero, n_neg) of a symmetric rational matrix, by
    symmetric Gaussian elimination (congruence transformations only)."""
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
