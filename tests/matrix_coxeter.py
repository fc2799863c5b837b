"""Reference Coxeter arithmetic by integer matrix products.

The matrix normal form that `blocko.coxeter` used before its orbit-vector
rewrite: the word acts on the root lattice through the generators'
reflection matrices, and s_i is a left descent of w exactly when w^-1(alpha_i)
is a negative root.  Slow, but independent of the orbit-vector code, so the
tests compare the two.
"""


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _reflection(system, i):
    n = system.generator_count
    m = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for j in range(n):
        m[i][j] -= system.cartan[i][j]
    return tuple(tuple(row) for row in m)


def word_matrices(system, word):
    """(W, W^-1) for the product s_{word[0]} ... s_{word[-1]}."""
    n = system.generator_count
    w = winv = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    for i in word:
        g = _reflection(system, i)
        w = _mat_mul(w, g)
        winv = _mat_mul(g, winv)
    return w, winv


def _negative_column(m, i):
    column = [row[i] for row in m]
    return all(x <= 0 for x in column) and any(column)


def normal_form(system, word):
    """ShortLex normal form: peel the least left descent until none is left."""
    n = system.generator_count
    w, winv = word_matrices(system, word)
    out = []
    while True:
        i = next((i for i in range(n) if _negative_column(winv, i)), None)
        if i is None:
            return tuple(out)
        out.append(i)
        g = _reflection(system, i)
        w = _mat_mul(g, w)
        winv = _mat_mul(winv, g)


def right_descents(system, word):
    """{i : w(alpha_i) < 0} for the element spelled by `word`."""
    w = word_matrices(system, word)[0]
    return {i for i in range(system.generator_count) if _negative_column(w, i)}
