"""Graded structure algebra of a block and graded lattices over it.

A block's orbit carries a moment graph: vertices are orbit elements, an edge
joins w and s_beta.w whenever both lie in the truncation, labeled by the
linear form h_beta = (beta, -).  The structure algebra Z is the set of
vertex-tuples (z_w) with z_w congruent to z_{s_beta w} mod h_beta on every
edge.  Modules over Z are presented as graded lattices: finitely many
vertex-labeled slots plus homogeneous generator tuples, everything degreewise
linear algebra over the rationals.

Degrees: one polynomial variable per fundamental weight (plus one for delta
in affine type), each of graded degree 2.  `degree_bound` always refers to
the graded (q-) degree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import sympy

from .blocks import BlockData, dot_reflect
from .errors import TruncationError, UnsupportedError
from .linalg import (
    frac,
    in_span,
    kernel_basis,
    kernel_incremental,
    rank,
    rref,
    solve,
    solve_many,
)
from .poly import (
    Poly,
    coeffs_to_poly,
    monomials_of_degree,
    poly_to_coeffs,
    restrict_to_hyperplane,
)
from .rootdata import Weight, form

DEFAULT_DEGREE_BOUND = 10

# generic evaluation point; primes keep distinct linear forms distinct
_GENERIC_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _nvars(cartan):
    return cartan.rank + (1 if cartan.is_affine else 0)


def root_form(cartan, beta) -> Poly:
    """The linear form h_beta(mu) = (beta, mu) in weight coordinates."""
    n = cartan.rank
    nv = _nvars(cartan)
    coeffs = []
    for k in range(n):
        unit = Weight(cartan, tuple(1 if j == k else 0 for j in range(n)))
        coeffs.append(form(beta, unit))
    if cartan.is_affine:
        coeffs.append(form(beta, Weight(cartan, (0,) * n, 1)))
    p = Poly.linear(coeffs)
    assert p.nvars == nv
    return p


@dataclass
class MomentGraphBlock:
    block: BlockData
    vertices: list  # orbit words (tuples), sorted by (length, word)
    weights: dict  # word -> Weight
    edges: dict  # frozenset({word, word}) -> Poly (h_beta)
    nvars: int

    def vertex_weight(self, word):
        return self.weights[word]


def moment_graph(block: BlockData) -> MomentGraphBlock:
    """Edges (w, s_beta.w) for every positive integral root beta with both
    endpoints inside the truncated orbit."""
    words = [v.word for v in block.orbit]
    weights = {v.word: v.weight for v in block.orbit}
    by_weight = {v.weight: v.word for v in block.orbit}
    nv = _nvars(block.cartan)
    edges = {}
    for v in block.orbit:
        for beta in block.integral_positive:
            other = dot_reflect(beta, v.weight)
            if other == v.weight or other not in by_weight:
                continue
            key = frozenset({v.word, by_weight[other]})
            label = root_form(block.cartan, beta)
            if label.is_zero():
                raise ValueError("degenerate edge label")
            edges[key] = label
    return MomentGraphBlock(block, words, weights, edges, nv)


def _vertex_key(word):
    return (len(word), word)


@dataclass
class ZLattice:
    graph: MomentGraphBlock
    slots: tuple  # vertex word per slot
    generators: list  # tuples of Poly, homogeneous
    degrees: list  # graded degree (= 2 * polynomial degree) per generator

    @property
    def rank(self):
        return len(self.slots)

    def vertex_multiset(self):
        out = {}
        for w in self.slots:
            out[w] = out.get(w, 0) + 1
        return out


# ---------------------------------------------------------------------------
# structure algebra


def _congruence_rows(graph, vertex_words, d):
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
        # z_a - z_b must vanish on h = 0: restrict each monomial and read
        # off the coefficients of the restricted polynomial
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


def _congruence_kernel(graph, vertex_words, d):
    nv = graph.nvars
    width = len(monomials_of_degree(nv, d))
    n = len(list(vertex_words)) * width
    rows = _congruence_rows(graph, vertex_words, d)
    if not rows:
        from .linalg import identity_matrix

        return identity_matrix(n)
    return kernel_basis(rows, n)


def _generic_point(nvars):
    return [Fraction(p) for p in _GENERIC_PRIMES[:nvars]]


def _generic_matrix(slots, generators, nvars):
    point = _generic_point(nvars)
    return [[g.evaluate(point) for g in gen] for gen in generators]


def minimal_generators(nvars, nslots, candidates):
    """Minimal homogeneous generating set of the S-span of the candidates.

    candidates: list of (tuple-of-Poly, polynomial degree).  Processes
    degrees in increasing order, keeping a candidate iff it lies outside the
    span of monomial multiples of the ones already kept.
    """
    by_degree = {}
    for gen, d in candidates:
        by_degree.setdefault(d, []).append(gen)
    chosen = []
    for d in sorted(by_degree):
        monos = monomials_of_degree(nvars, d)
        width = len(monos)

        def flatten(gen):
            out = []
            for p in gen:
                out.extend(poly_to_coeffs(p, d) if not p.is_zero() else [Fraction(0)] * width)
            return out

        span = []
        for gen, dg in chosen:
            if dg > d:
                continue
            for m in monomials_of_degree(nvars, d - dg):
                mono = Poly(nvars, {m: 1})
                span.append(flatten(tuple(mono * p for p in gen)))
        span_rref, _ = rref(span, nslots * width) if span else ([], [])
        for gen in by_degree[d]:
            v = flatten(gen)
            if not in_span(span_rref, v):
                chosen.append((gen, d))
                span.append(v)
                span_rref, _ = rref(span, nslots * width)
    return chosen


def structure_algebra(
    graph: MomentGraphBlock,
    vertex_words=None,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
) -> ZLattice:
    """An S-basis of the congruence algebra on the vertex subset.

    Fails loudly if the degree bound does not exhibit exactly one generator
    per vertex with generically independent rows.
    """
    if vertex_words is None:
        vertex_words = list(graph.vertices)
    vertex_words = sorted(vertex_words, key=_vertex_key)
    nv = graph.nvars
    nslots = len(vertex_words)
    candidates = []
    for d in range(degree_bound // 2 + 1):
        width = len(monomials_of_degree(nv, d))
        for vec in _congruence_kernel(graph, vertex_words, d):
            gen = tuple(
                coeffs_to_poly(nv, d, vec[i * width : (i + 1) * width])
                for i in range(nslots)
            )
            candidates.append((gen, d))
    chosen = minimal_generators(nv, nslots, candidates)
    if len(chosen) != nslots:
        raise TruncationError(
            f"structure algebra on {nslots} vertices produced "
            f"{len(chosen)} generators within degree {degree_bound}"
        )
    gens = [g for g, _ in chosen]
    degs = [2 * d for _, d in chosen]
    if rank(_generic_matrix(vertex_words, gens, nv)) != nslots:
        raise TruncationError("structure algebra rank certificate failed")
    return ZLattice(graph, tuple(vertex_words), gens, degs)


# ---------------------------------------------------------------------------
# lattices


def verma_zmodule(graph: MomentGraphBlock, w) -> ZLattice:
    """Rank-1 lattice concentrated at the vertex w."""
    word = tuple(w)
    if word not in graph.weights:
        raise ValueError("vertex outside the truncated orbit")
    one = Poly.const(graph.nvars, 1)
    return ZLattice(graph, (word,), [(one,)], [0])


def lattice_contains(M: ZLattice, tup, d) -> bool:
    """Is the degree-d homogeneous tuple in the S-span of M's generators?"""
    nv = M.graph.nvars
    monos = monomials_of_degree(nv, d)
    width = len(monos)

    def flatten(gen):
        out = []
        for p in gen:
            out.extend(poly_to_coeffs(p, d))
        return out

    span = []
    for gen, gd in zip(M.generators, M.degrees):
        pd = gd // 2
        if pd > d:
            continue
        for m in monomials_of_degree(nv, d - pd):
            mono = Poly(nv, {m: 1})
            span.append(flatten(tuple(mono * p for p in gen)))
    if not span:
        return all(p.is_zero() for p in tup)
    span_rref, _ = rref(span, M.rank * width)
    return in_span(span_rref, flatten(tup))


def theta_s(M: ZLattice, s: int, degree_bound: int = DEFAULT_DEGREE_BOUND) -> ZLattice:
    """Translation through the s-wall and back: the lattice generated by
    structure-algebra multiples of diagonally doubled generators.

    New slot count at vertex w is n_w + n_{ws}; total rank doubles.
    """
    graph = M.graph
    system = graph.block.coxeter_system
    if graph.block.stab_order != 1:
        raise UnsupportedError("translation combinatorics needs a regular block")

    def times_s(w):
        return system.normal_form(w + (s,))

    support = sorted({w for w in M.slots}, key=_vertex_key)
    closure = sorted(
        {w for w in support} | {times_s(w) for w in support}, key=_vertex_key
    )
    for w in closure:
        if w not in graph.weights:
            raise TruncationError(
                "orbit truncation is not closed under the wall reflection"
            )

    # new slots: per vertex w, one per old slot at w, then one per old
    # slot at ws
    new_slots = []
    sources = []  # old slot index feeding each new slot
    for w in closure:
        for j, wv in enumerate(M.slots):
            if wv == w:
                new_slots.append(w)
                sources.append(j)
        for j, wv in enumerate(M.slots):
            if wv == times_s(w):
                new_slots.append(w)
                sources.append(j)
    assert len(new_slots) == 2 * M.rank

    z_alg = structure_algebra(graph, closure, degree_bound)
    z_index = {w: i for i, w in enumerate(z_alg.slots)}
    candidates = []
    for g, gd in zip(M.generators, M.degrees):
        diag = tuple(g[j] for j in sources)
        for z, zd in zip(z_alg.generators, z_alg.degrees):
            cand = tuple(
                z[z_index[w]] * diag[k] for k, w in enumerate(new_slots)
            )
            candidates.append((cand, (gd + zd) // 2))
    chosen = minimal_generators(graph.nvars, len(new_slots), candidates)
    gens = [g for g, _ in chosen]
    degs = [2 * d for _, d in chosen]
    if len(gens) != len(new_slots) or rank(
        _generic_matrix(new_slots, gens, graph.nvars)
    ) != len(new_slots):
        raise TruncationError("translated lattice failed its rank certificate")
    return ZLattice(graph, tuple(new_slots), gens, degs)


def bott_samelson(
    graph: MomentGraphBlock, word, degree_bound: int = DEFAULT_DEGREE_BOUND
) -> ZLattice:
    """theta_{s_n} ... theta_{s_1} applied to the lattice at the identity
    vertex; rank 2^n."""
    M = verma_zmodule(graph, ())
    for s in word:
        M = theta_s(M, s, degree_bound)
    return M




# ---------------------------------------------------------------------------
# graded Hom and decomposition
#
# Every lattice in scope is free over S with its minimal generators as a
# basis (generator count equals generic rank, certified on construction).
# A map of lattices is therefore recorded in the generator bases: a matrix U
# with U[l][j] = coefficient of the l-th target generator in the image of
# the j-th source generator.  Slot matrices are avoided on purpose: on slot
# coordinates a perfectly good lattice map can pick up denominators.


def _default_algebra(graph, degree_bound=DEFAULT_DEGREE_BOUND):
    cache = getattr(graph, "_algebra_cache", None)
    if cache is None:
        cache = {}
        graph._algebra_cache = cache
    key = ("full", degree_bound)
    if key not in cache:
        cache[key] = structure_algebra(graph, None, degree_bound)
    return cache[key]


def _expand_system(M: ZLattice, pd):
    """Column description (generator index, multiplier monomial) and the
    coefficient matrix of all degree-pd lattice elements in M's basis."""
    nv = M.graph.nvars
    cols = []  # (generator index, multiplier monomial)
    col_vecs = []
    for j, (g, gd) in enumerate(zip(M.generators, M.degrees)):
        dj = gd // 2
        if dj > pd:
            continue
        for m in monomials_of_degree(nv, pd - dj):
            mono = Poly(nv, {m: 1})
            vec = []
            for p in g:
                vec.extend(poly_to_coeffs(mono * p, pd))
            cols.append((j, m))
            col_vecs.append(vec)
    rows = [
        [col[r] for col in col_vecs] for r in range(len(col_vecs[0]))
    ] if cols else []
    return cols, rows


def expand_many(M: ZLattice, tups, pd):
    """Coefficients of degree-pd homogeneous slot tuples in M's generator
    basis; None per tuple outside the lattice."""
    nv = M.graph.nvars
    cols, rows = _expand_system(M, pd)
    rhs_cols = []
    for tup in tups:
        rhs = []
        for p in tup:
            rhs.extend(poly_to_coeffs(p, pd))
        rhs_cols.append(rhs)
    if not cols:
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
        for (j, m), c in zip(cols, x):
            if c:
                coeffs[j] = coeffs[j] + Poly(nv, {m: c})
        out.append(coeffs)
    return out


def _action_matrices(M: ZLattice, algebra: ZLattice):
    """For each algebra generator z, the matrix F with F[j][i] = coefficient
    of g_j in z * g_i.  Cached on the lattice, batched by target degree."""
    cache = getattr(M, "_action_cache", None)
    if cache is None:
        cache = {}
        M._action_cache = cache
    key = id(algebra)
    if key in cache:
        return cache[key]
    index = {w: i for i, w in enumerate(algebra.slots)}
    n = len(M.generators)
    out = []
    for z, zd in zip(algebra.generators, algebra.degrees):
        zp = zd // 2
        by_pd = {}
        for i, (g, gd) in enumerate(zip(M.generators, M.degrees)):
            tup = tuple(
                z[index[w]] * g[k] for k, w in enumerate(M.slots)
            )
            by_pd.setdefault(zp + gd // 2, []).append((i, tup))
        cols = [None] * n
        for pd, items in by_pd.items():
            expanded = expand_many(M, [t for _, t in items], pd)
            for (i, _), coeffs in zip(items, expanded):
                if coeffs is None:
                    raise TruncationError(
                        "lattice is not stable under the structure algebra"
                    )
                cols[i] = coeffs
        out.append([[cols[i][j] for i in range(n)] for j in range(n)])
    cache[key] = out
    return out


def hom_graded(M: ZLattice, N: ZLattice, d: int, algebra: ZLattice = None):
    """Basis of degree-d maps M -> N commuting with the structure-algebra
    action, as generator-basis matrices (rows: N generators, cols: M)."""
    if M.graph is not N.graph:
        raise ValueError("lattices over different graphs")
    if d < 0 or d % 2:
        return []
    k = d // 2
    nv = M.graph.nvars
    if algebra is None:
        algebra = _default_algebra(M.graph)
    fm = _action_matrices(M, algebra)
    fn = _action_matrices(N, algebra)
    m_deg = [gd // 2 for gd in M.degrees]
    n_deg = [gd // 2 for gd in N.degrees]
    nm, nn = len(m_deg), len(n_deg)
    # unknowns: entries U[l][j] of degree k + m_deg[j] - n_deg[l]
    entries = []
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
            entries.append((l, j))
    if total == 0:
        return []

    def _is_scalar(F):
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
            # a generator acting as the same scalar on both sides (always
            # true for the constant generator) constrains nothing
            cm = _is_scalar(FM)
            if cm is not None:
                cn = _is_scalar(FN)
                if cn is not None and (cm - cn).is_zero():
                    continue
            for l in range(nn):
                for i in range(nm):
                    td = k + zp + m_deg[i] - n_deg[l]
                    if td < 0:
                        continue
                    target = monomials_of_degree(nv, td)
                    tindex = {m: a for a, m in enumerate(target)}
                    acc = [
                        [Fraction(0)] * total for _ in range(len(target))
                    ]
                    used = False
                    for j in range(nm):
                        off = offsets.get((l, j))
                        if off is not None and not FM[j][i].is_zero():
                            base, dd, monos = off
                            for a, em in enumerate(monos):
                                for gm, c in FM[j][i].terms.items():
                                    prod = tuple(
                                        x + y for x, y in zip(em, gm)
                                    )
                                    acc[tindex[prod]][base + a] += c
                            used = True
                    for j in range(nn):
                        off = offsets.get((j, i))
                        if off is not None and not FN[l][j].is_zero():
                            base, dd, monos = off
                            for a, em in enumerate(monos):
                                for gm, c in FN[l][j].terms.items():
                                    prod = tuple(
                                        x + y for x, y in zip(em, gm)
                                    )
                                    acc[tindex[prod]][base + a] -= c
                            used = True
                    if used:
                        for row in acc:
                            if any(row):
                                yield row

    kern = kernel_incremental(rows(), total)
    out = []
    for v in kern:
        U = [[Poly.zero(nv) for _ in range(nm)] for _ in range(nn)]
        for (l, j), (base, dd, monos) in offsets.items():
            U[l][j] = coeffs_to_poly(
                nv, dd, v[base : base + len(monos)]
            )
        out.append(U)
    return out


def apply_hom(U, M: ZLattice, N: ZLattice):
    """Slot tuples of the images of M's generators under U."""
    nv = M.graph.nvars
    out = []
    for i in range(len(M.generators)):
        img = [Poly.zero(nv) for _ in range(N.rank)]
        for l, h in enumerate(N.generators):
            c = U[l][i]
            if c.is_zero():
                continue
            for s, p in enumerate(h):
                if not p.is_zero():
                    img[s] = img[s] + c * p
        out.append(tuple(img))
    return out


def compose(U2, U1, nvars):
    """Matrix product U2 . U1 in the generator bases."""
    rows, mid = len(U2), len(U1)
    cols = len(U1[0]) if U1 else 0
    out = [[Poly.zero(nvars) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = Poly.zero(nvars)
            for t in range(mid):
                if not U2[i][t].is_zero() and not U1[t][j].is_zero():
                    acc = acc + U2[i][t] * U1[t][j]
            out[i][j] = acc
    return out


def identity_hom(M: ZLattice):
    nv = M.graph.nvars
    n = len(M.generators)
    return [
        [Poly.const(nv, 1) if i == j else Poly.zero(nv) for j in range(n)]
        for i in range(n)
    ]


def scalar_hom(M: ZLattice, p: Poly):
    n = len(M.generators)
    return [
        [p if i == j else Poly.zero(p.nvars) for j in range(n)]
        for i in range(n)
    ]


def _hom_add(a, b, scale_b=1):
    nv = a[0][0].nvars if a else 0
    return [
        [x + y.scale(scale_b) for x, y in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]


def homs_equal(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# faithful finite-dimensional representation of degree-0 endomorphisms:
# action on the top graded piece of the lattice


def _top_basis(M: ZLattice):
    nv = M.graph.nvars
    D = max(gd // 2 for gd in M.degrees)
    monos = monomials_of_degree(nv, D)
    width = len(monos)

    def flatten(tup):
        out = []
        for p in tup:
            out.extend(poly_to_coeffs(p, D))
        return out

    labels = []
    vecs = []
    for i, (g, gd) in enumerate(zip(M.generators, M.degrees)):
        for m in monomials_of_degree(nv, D - gd // 2):
            mono = Poly(nv, {m: 1})
            labels.append((m, i))
            vecs.append(flatten(tuple(mono * p for p in g)))
    chosen = []
    span = []
    for lab, v in zip(labels, vecs):
        if not in_span(span, v):
            chosen.append((lab, v))
            span, _ = rref([c[1] for c in chosen], M.rank * width)
    return D, flatten, chosen


def _rep_matrix(M: ZLattice, U, top):
    """Matrix of the endomorphism U on the top graded piece."""
    nv = M.graph.nvars
    D, flatten, chosen = top
    cols = [list(v) for _, v in chosen]
    rows = [[c[r] for c in cols] for r in range(len(cols[0]))]
    images = apply_hom(U, M, M)
    vecs = [
        flatten(tuple(Poly(nv, {m: 1}) * p for p in images[i]))
        for (m, i), _ in chosen
    ]
    mat = solve_many(rows, vecs)
    if any(coords is None for coords in mat):
        raise TruncationError("endomorphism does not preserve the lattice")
    # mat rows are images in basis coordinates; transpose to act on columns
    n = len(chosen)
    return [[mat[j][i] for j in range(n)] for i in range(n)]


def _int_scaled(mat):
    """(integer matrix, common denominator) with mat = int / den."""
    from math import gcd

    den = 1
    for row in mat:
        for x in row:
            d = x.denominator
            den = den * d // gcd(den, d)
    return [[int(x * den) for x in row] for row in mat], den


def _mat_mul_frac(a, b):
    # big-int products are much cheaper than Fraction products
    m, p = len(b), len(b[0]) if b else 0
    ia, da = _int_scaled(a)
    ib, db = _int_scaled(b)
    bt = [[ib[k][j] for k in range(m)] for j in range(p)]
    den = da * db
    return [
        [Fraction(sum(x * y for x, y in zip(ra, cb)), den) for cb in bt]
        for ra in ia
    ]


def _trace_product(a, b):
    n = len(a)
    return sum(a[i][k] * b[k][i] for i in range(n) for k in range(n))


def _radical_dim(rep_basis):
    """dim of the radical of the span, via the trace form (char 0)."""
    n = len(rep_basis)
    rows = [
        [_trace_product(rep_basis[i], rep_basis[j]) for j in range(n)]
        for i in range(n)
    ]
    return len(kernel_basis(rows, n))


def _charpoly_factors(mat):
    sm = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in mat]
    )
    x = sympy.Symbol("x")
    cp = sm.charpoly(x).as_expr()
    _, factors = sympy.factor_list(sympy.Poly(cp, x))
    return [(sympy.Poly(f, x), mult) for f, mult in factors]


def _poly_of_matrix(coeffs, mat):
    """sum coeffs[i] * mat^i (coefficients ascending)."""
    n = len(mat)
    out = [[Fraction(0)] * n for _ in range(n)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in coeffs:
        if c:
            out = [
                [out[i][j] + c * power[i][j] for j in range(n)]
                for i in range(n)
            ]
        power = _mat_mul_frac(power, mat)
    return out


def _splitting_poly(mat):
    """Coefficients of a polynomial p with p(mat) a nontrivial idempotent,
    from a coprime factorization of the characteristic polynomial."""
    factors = _charpoly_factors(mat)
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


def _poly_of_hom(coeffs, U, M):
    nv = M.graph.nvars
    n = len(U)
    out = [[Poly.zero(nv) for _ in range(n)] for _ in range(n)]
    power = identity_hom(M)
    for c in coeffs:
        if c:
            out = _hom_add(out, [[p.scale(c) for p in row] for row in power])
        power = compose(power, U, nv)
    return out


def _slot_idempotent(M: ZLattice, U):
    """The vertex-block slot matrix of U at a generic point."""
    nv = M.graph.nvars
    point = _generic_point(nv)
    gm = [[p.evaluate(point) for p in g] for g in M.generators]
    gt = [[gm[j][i] for j in range(len(gm))] for i in range(M.rank)]
    up = [[p.evaluate(point) for p in row] for row in U]
    from .linalg import invert

    return _mat_mul_frac(_mat_mul_frac(gt, up), invert(gt))


def _project_summand(M: ZLattice, U):
    """The image lattice of the idempotent U, re-coordinatized onto a
    vertex-labeled slot subset of the right generic rank."""
    nv = M.graph.nvars
    images = apply_hom(U, M, M)
    a = _slot_idempotent(M, U)
    by_vertex = {}
    for i, w in enumerate(M.slots):
        by_vertex.setdefault(w, []).append(i)
    chosen_slots = []
    for w in sorted(by_vertex, key=_vertex_key):
        idx = by_vertex[w]
        block = [[a[r][c] for c in idx] for r in idx]
        r_w = rank(block)
        # greedy independent rows: projection onto them stays injective on
        # the image of the block
        span = []
        for r, row in zip(idx, block):
            if len(span) == r_w:
                break
            trial = span + [row]
            if rank(trial) > len(span):
                span.append(row)
                chosen_slots.append(r)
    candidates = []
    for img, gd in zip(images, M.degrees):
        cut = tuple(img[s] for s in chosen_slots)
        if all(p.is_zero() for p in cut):
            continue
        candidates.append((cut, gd // 2))
    chosen = minimal_generators(nv, len(chosen_slots), candidates)
    gens = [g for g, _ in chosen]
    degs = [2 * d for _, d in chosen]
    new_slots = tuple(M.slots[s] for s in chosen_slots)
    if len(gens) != len(new_slots) or (
        gens and rank(_generic_matrix(new_slots, gens, nv)) != len(new_slots)
    ):
        raise TruncationError("summand failed its rank certificate")
    return ZLattice(M.graph, new_slots, gens, degs)


def decompose(M: ZLattice, algebra: ZLattice = None, attempts: int = 60):
    """Complete list of indecomposable direct summands, by idempotent
    splitting of the degree-0 endomorphism algebra."""
    if M.rank == 0:
        return []
    if algebra is None:
        algebra = _default_algebra(M.graph)
    basis = hom_graded(M, M, 0, algebra)
    top = _top_basis(M)
    reps = [_rep_matrix(M, U, top) for U in basis]
    if len(basis) - _radical_dim(reps) == 1:
        return [M]
    nv = M.graph.nvars
    rng = random.Random(20230823)
    trials = list(zip(basis, reps))
    for (ua, ra) in list(trials):
        for (ub, rb) in list(trials):
            trials.append((compose(ua, ub, nv), _mat_mul_frac(ra, rb)))
    split = None
    for t in range(attempts):
        if t < len(trials):
            u, r = trials[t]
        else:
            cs = [Fraction(rng.randint(-9, 9)) for _ in basis]
            u = basis[0]
            u = [[Poly.zero(nv)] * len(u) for _ in range(len(u))]
            r = [[Fraction(0)] * len(reps[0]) for _ in range(len(reps[0]))]
            for c, ub, rb in zip(cs, basis, reps):
                u = _hom_add(u, ub, c)
                r = [
                    [x + c * y for x, y in zip(rr, rbr)]
                    for rr, rbr in zip(r, rb)
                ]
        coeffs = _splitting_poly(r)
        if coeffs is None:
            continue
        e_rep = _poly_of_matrix(coeffs, r)
        n = len(e_rep)
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        if e_rep == ident or not any(any(row) for row in e_rep):
            continue
        split = _poly_of_hom(coeffs, u, M)
        break
    if split is None:
        raise TruncationError(
            "endomorphism algebra is not local but no splitting idempotent "
            "was found"
        )
    comp = _hom_add(identity_hom(M), split, -1)
    out = []
    for idem in (split, comp):
        out.extend(decompose(_project_summand(M, idem), algebra, attempts))
    return sorted(
        out,
        key=lambda S: (
            sorted(_vertex_key(w) for w in S.slots),
            sorted(S.degrees),
        ),
    )


def graded_char(M: ZLattice):
    """Vertex -> list of graded degrees, one per generator, assigning each
    generator a pivot slot by Gaussian elimination at a generic point
    (generators in increasing degree, slots in vertex order)."""
    nv = M.graph.nvars
    point = _generic_point(nv)
    order = sorted(
        range(len(M.generators)), key=lambda i: (M.degrees[i], i)
    )
    slot_order = sorted(
        range(M.rank), key=lambda i: (_vertex_key(M.slots[i]), i)
    )
    pivots = []  # (slot, vector)
    out = {}
    for gi in order:
        vec = [frac(p.evaluate(point)) for p in M.generators[gi]]
        for slot, pv in pivots:
            if vec[slot]:
                c = vec[slot] / pv[slot]
                vec = [a - c * b for a, b in zip(vec, pv)]
        slot = next((s for s in slot_order if vec[s]), None)
        if slot is None:
            raise TruncationError("generator set is generically dependent")
        pivots.append((slot, vec))
        out.setdefault(M.slots[slot], []).append(M.degrees[gi])
    return {w: sorted(ds) for w, ds in out.items()}


def ungraded_char(M: ZLattice):
    return {w: len(ds) for w, ds in graded_char(M).items()}


def chars_equal(a: ZLattice, b: ZLattice) -> bool:
    return graded_char(a) == graded_char(b)


def _shift_normalized(char):
    if not char:
        return {}
    m = min(d for ds in char.values() for d in ds)
    return {w: [d - m for d in ds] for w, ds in char.items()}


def isomorphic_up_to_shift(a: ZLattice, b: ZLattice) -> bool:
    """Graded characters agree after aligning the lowest degree; used as the
    isomorphism test within one block's identified family."""
    return _shift_normalized(graded_char(a)) == _shift_normalized(
        graded_char(b)
    )


# ---------------------------------------------------------------------------
# projectives


def identify_projective(
    graph: MomentGraphBlock,
    w,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    _memo=None,
):
    """The summand of the Bott-Samelson lattice for a reduced word of w that
    does not match any shorter projective, by induction on length."""
    word = tuple(w)
    if _memo is None:
        _memo = getattr(graph, "_projective_cache", None)
        if _memo is None:
            _memo = {}
            graph._projective_cache = _memo
    if word in _memo:
        return _memo[word]
    if not word:
        out = verma_zmodule(graph, ())
        _memo[word] = out
        return out
    shorter = [
        identify_projective(graph, v, degree_bound, _memo)
        for v in graph.vertices
        if len(v) < len(word)
    ]
    summands = decompose(bott_samelson(graph, word, degree_bound))
    matches = [
        S
        for S in summands
        if not any(isomorphic_up_to_shift(S, P) for P in shorter)
    ]
    distinct = []
    for S in matches:
        if not any(isomorphic_up_to_shift(S, T) for T in distinct):
            distinct.append(S)
    if len(distinct) != 1:
        raise TruncationError(
            f"projective identification ambiguous: {len(distinct)} candidate "
            "summands"
        )
    _memo[word] = distinct[0]
    return distinct[0]


def invariant_structure_algebra(
    graph: MomentGraphBlock,
    vertex_words,
    s: int,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
) -> ZLattice:
    """Generators of the coset-invariant subalgebra Z^s on an s-closed
    vertex set: congruence tuples constant on right cosets {w, ws}."""
    system = graph.block.coxeter_system
    vertex_words = sorted(vertex_words, key=_vertex_key)
    index = {w: i for i, w in enumerate(vertex_words)}
    cosets = set()
    for w in vertex_words:
        ws = system.normal_form(w + (s,))
        if ws not in index:
            raise TruncationError("vertex set is not closed under the wall")
        cosets.add(min((w, ws), key=_vertex_key))
    nv = graph.nvars
    nslots = len(vertex_words)
    candidates = []
    for d in range(degree_bound // 2 + 1):
        monos = monomials_of_degree(nv, d)
        width = len(monos)
        rows = []
        for w in vertex_words:
            ws = system.normal_form(w + (s,))
            if _vertex_key(w) >= _vertex_key(ws):
                continue
            a, b = index[w], index[ws]
            for j in range(width):
                row = [Fraction(0)] * (nslots * width)
                row[a * width + j] = Fraction(1)
                row[b * width + j] = Fraction(-1)
                rows.append(row)
        rows.extend(_congruence_rows(graph, vertex_words, d))
        for vec in kernel_basis(rows, nslots * width):
            gen = tuple(
                coeffs_to_poly(nv, d, vec[i * width : (i + 1) * width])
                for i in range(nslots)
            )
            candidates.append((gen, d))
    chosen = minimal_generators(nv, nslots, candidates)
    if len(chosen) != len(cosets):
        raise TruncationError(
            f"invariant subalgebra on {len(cosets)} cosets produced "
            f"{len(chosen)} generators within degree {degree_bound}"
        )
    gens = [g for g, _ in chosen]
    degs = [2 * d for _, d in chosen]
    return ZLattice(graph, tuple(vertex_words), gens, degs)


def singular_reduce(graph: MomentGraphBlock, M: ZLattice, stab_gens):
    """Translate a regular projective image onto a wall: view it over the
    coset-invariant subalgebra, relabel slots to minimal coset
    representatives, decompose, and return the summand class appearing
    exactly #Stab' times."""
    stab_gens = tuple(stab_gens)
    if not stab_gens:
        return [M]
    if len(stab_gens) != 1:
        raise UnsupportedError("wall crossing supports one simple reflection")
    s = stab_gens[0]
    system = graph.block.coxeter_system
    stab_order = 2

    def rep(w):
        ws = system.normal_form(w + (s,))
        return min((w, ws), key=_vertex_key)

    closure = sorted(
        {w for w in M.slots}
        | {system.normal_form(w + (s,)) for w in M.slots},
        key=_vertex_key,
    )
    algebra = invariant_structure_algebra(graph, closure, s)
    merged = ZLattice(
        graph, tuple(rep(w) for w in M.slots), M.generators, M.degrees
    )
    summands = decompose(merged, algebra)
    classes = []
    for S in summands:
        for cls in classes:
            if isomorphic_up_to_shift(S, cls[0]):
                cls.append(S)
                break
        else:
            classes.append([S])
    for cls in classes:
        if len(cls) == stab_order:
            return cls
    raise TruncationError(
        "no summand class with the expected wall multiplicity "
        f"{stab_order}; class sizes {[len(c) for c in classes]}"
    )


# ---------------------------------------------------------------------------
# serialization


def zlattice_to_json(M: ZLattice):
    return {
        "slots": [
            " ".join(str(i + 1) for i in w) if w else "e" for w in M.slots
        ],
        "generators": [
            {"degree": d, "entries": [str(p) for p in g]}
            for g, d in zip(M.generators, M.degrees)
        ],
    }
