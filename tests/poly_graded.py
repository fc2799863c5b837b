"""Reference graded pieces on `Poly` dictionaries and dense Fraction rows.

The route `blocko.zmod` took before its graded pieces became integer
vectors over monomial index tables: monomial multiples formed as `Poly`
products and read back with `poly_to_coeffs`, congruence rows from
`restrict_to_hyperplane` on every edge, and `hom_graded` constraint rows as
dense Fraction lists of the full width, intersected one at a time.  Slow,
but independent of the index tables, so the tests compare the two.
"""

from fractions import Fraction
from math import gcd, lcm

from blocko.linalg import solve_many
from blocko.poly import (
    Poly,
    coeffs_to_poly,
    monomials_of_degree,
    poly_to_coeffs,
    restrict_to_hyperplane,
)
from blocko.zmod import structure_algebra


def flatten(tup, d):
    """The degree-d coefficient vectors of a tuple of polynomials, joined."""
    return [c for p in tup for c in poly_to_coeffs(p, d)]


def multiples(nvars, gens, d):
    """(index, monomial m, flattened m * gen) for every generator (tuple,
    polynomial degree) and every monomial m that makes the degree d."""
    for i, (gen, dg) in enumerate(gens):
        if dg <= d:
            for m in monomials_of_degree(nvars, d - dg):
                mono = Poly(nvars, {m: 1})
                yield i, m, flatten(tuple(mono * p for p in gen), d)


def graded(M):
    """M's generators with their polynomial degrees."""
    return [(g, gd // 2) for g, gd in zip(M.generators, M.degrees)]


def congruence_rows(graph, vertex_words, d):
    """Constraint rows (flattened slot-major, degree-d coefficients) imposing
    all edge congruences inside the vertex subset."""
    nv = graph.nvars
    monos = monomials_of_degree(nv, d)
    width = len(monos)
    vset = list(vertex_words)
    index = {w: i for i, w in enumerate(vset)}
    rows = []
    for key, h in graph.edges.items():
        pair = tuple(key)
        if pair[0] not in index or pair[1] not in index:
            continue
        a, b = index[pair[0]], index[pair[1]]
        restricted = [
            restrict_to_hyperplane(Poly(nv, {m: 1}), h) for m in monos
        ]
        target_monos = sorted({m for r in restricted for m in r.terms})
        for tm in target_monos:
            row = [Fraction(0)] * (len(vset) * width)
            for j, r in enumerate(restricted):
                c = r.terms.get(tm, Fraction(0))
                if c:
                    row[a * width + j] += c
                    row[b * width + j] -= c
            rows.append(row)
    return rows


def expand_many(M, tups, pd):
    """Coefficients of degree-pd homogeneous slot tuples in M's generator
    basis, as Poly; None per tuple outside the lattice."""
    nv = M.graph.nvars
    mults = list(multiples(nv, graded(M), pd))
    rows = list(zip(*(vec for _, _, vec in mults)))
    rhs_cols = [flatten(tup, pd) for tup in tups]
    if not mults:
        return [
            None if any(rhs) else [Poly.zero(nv) for _ in M.generators]
            for rhs in rhs_cols
        ]
    out = []
    for x in solve_many(rows, rhs_cols):
        if x is None:
            out.append(None)
            continue
        coeffs = [Poly.zero(nv) for _ in M.generators]
        for (j, m, _), c in zip(mults, x):
            if c:
                coeffs[j] = coeffs[j] + Poly(nv, {m: c})
        out.append(coeffs)
    return out


def action_matrices(M, algebra):
    """For each algebra generator z, F[j][i] = coefficient of g_j in z * g_i."""
    index = {w: i for i, w in enumerate(algebra.slots)}
    n = len(M.generators)
    by_pd = {}
    for t, (z, zd) in enumerate(zip(algebra.generators, algebra.degrees)):
        for i, (g, gd) in enumerate(zip(M.generators, M.degrees)):
            tup = tuple(z[index[w]] * g[k] for k, w in enumerate(M.slots))
            by_pd.setdefault(zd // 2 + gd // 2, []).append((t, i, tup))
    cols = [[None] * n for _ in algebra.generators]
    for pd, items in by_pd.items():
        expanded = expand_many(M, [tup for _, _, tup in items], pd)
        for (t, i, _), coeffs in zip(items, expanded):
            assert coeffs is not None, "lattice is not stable under the algebra"
            cols[t][i] = coeffs
    return [[[c[i][j] for i in range(n)] for j in range(n)] for c in cols]


def kernel_incremental(rows, ncols):
    """Kernel basis of dense Fraction rows, intersecting one at a time."""
    basis = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    for row in rows:
        cols = [i for i, x in enumerate(row) if x]
        den = lcm(*(row[i].denominator for i in cols))
        irow = [(i, row[i].numerator * (den // row[i].denominator)) for i in cols]
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
                g = gcd(*w)
                new_basis.append([x // g for x in w] if g > 1 else w)
            else:
                new_basis.append(v)
        basis = new_basis
    return [[Fraction(x) for x in v] for v in basis]


def hom_graded(M, N, d, algebra=None):
    """Basis of degree-d maps M -> N commuting with the structure-algebra
    action, as generator-basis matrices (rows: N generators, cols: M)."""
    if d < 0 or d % 2:
        return []
    k = d // 2
    nv = M.graph.nvars
    if algebra is None:
        algebra = structure_algebra(M.graph)
    fm = action_matrices(M, algebra)
    fn = fm if N is M else action_matrices(N, algebra)
    m_deg = [gd // 2 for gd in M.degrees]
    n_deg = [gd // 2 for gd in N.degrees]
    nm, nn = len(m_deg), len(n_deg)
    offsets = {}
    total = 0
    for l in range(nn):
        for j in range(nm):
            dd = k + m_deg[j] - n_deg[l]
            if dd < 0:
                continue
            monos = monomials_of_degree(nv, dd)
            offsets[(l, j)] = (total, dd, monos)
            total += len(monos)
    if total == 0:
        return []

    def is_scalar(F):
        diag = F[0][0]
        for a, row in enumerate(F):
            for b, p in enumerate(row):
                if a == b:
                    if not (p - diag).is_zero():
                        return None
                elif not p.is_zero():
                    return None
        return diag

    def rows():
        # U . F^M_t = F^N_t . U, entrywise in each target monomial
        for t, (FM, FN) in enumerate(zip(fm, fn)):
            zp = algebra.degrees[t] // 2
            cm = is_scalar(FM)
            if cm is not None:
                cn = is_scalar(FN)
                if cn is not None and (cm - cn).is_zero():
                    continue
            for l in range(nn):
                for i in range(nm):
                    td = k + zp + m_deg[i] - n_deg[l]
                    if td < 0:
                        continue
                    target = monomials_of_degree(nv, td)
                    tindex = {m: a for a, m in enumerate(target)}
                    acc = [[Fraction(0)] * total for _ in range(len(target))]
                    for j in range(nm):
                        off = offsets.get((l, j))
                        if off is not None and not FM[j][i].is_zero():
                            base, _, monos = off
                            for a, em in enumerate(monos):
                                for gm, c in FM[j][i].terms.items():
                                    prod = tuple(x + y for x, y in zip(em, gm))
                                    acc[tindex[prod]][base + a] += c
                    for j in range(nn):
                        off = offsets.get((j, i))
                        if off is not None and not FN[l][j].is_zero():
                            base, _, monos = off
                            for a, em in enumerate(monos):
                                for gm, c in FN[l][j].terms.items():
                                    prod = tuple(x + y for x, y in zip(em, gm))
                                    acc[tindex[prod]][base + a] -= c
                    for row in acc:
                        if any(row):
                            yield row

    out = []
    for v in kernel_incremental(rows(), total):
        U = [[Poly.zero(nv) for _ in range(nm)] for _ in range(nn)]
        for (l, j), (base, dd, monos) in offsets.items():
            U[l][j] = coeffs_to_poly(nv, dd, v[base : base + len(monos)])
        out.append(U)
    return out
