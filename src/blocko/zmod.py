"""Graded structure algebra of a block and graded lattices over it.

A block's orbit carries a moment graph: vertices are orbit elements, an edge
joins w and s_beta.w whenever both lie in the truncation, labeled by the
linear form h_beta = (beta, -).  The structure algebra Z is the set of
vertex-tuples (z_w) with z_w congruent to z_{s_beta w} mod h_beta on every
edge.  Modules over Z are presented as graded lattices: finitely many
vertex-labeled slots plus homogeneous generator tuples, everything degreewise
linear algebra over the rationals.

Degrees: one polynomial variable per fundamental weight (plus one for delta
in affine type), each of graded degree 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .blocks import BlockData, dot_reflect
from .errors import TruncationError, UnsupportedError
from .linalg import (
    Echelon,
    charpoly,
    invert,
    kernel_basis,
    kernel_incremental,
    mat_mul,
    rank,
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

# endomorphisms `decompose` tries for a splitting idempotent
_SPLIT_TRIALS = 60

# generic evaluation point; primes keep distinct linear forms distinct
_GENERIC_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _nvars(cartan):
    return cartan.rank + (1 if cartan.is_affine else 0)


def root_form(cartan, beta) -> Poly:
    """The linear form h_beta(mu) = (beta, mu) in weight coordinates."""
    n = cartan.rank
    coeffs = []
    for k in range(n):
        unit = Weight(cartan, tuple(1 if j == k else 0 for j in range(n)))
        coeffs.append(form(beta, unit))
    if cartan.is_affine:
        coeffs.append(form(beta, Weight(cartan, (0,) * n, 1)))
    return Poly.linear(coeffs)


@dataclass
class MomentGraphBlock:
    block: BlockData
    vertices: list  # orbit words (tuples), sorted by (length, word)
    weights: dict  # word -> Weight
    edges: dict  # frozenset({word, word}) -> Poly (h_beta)
    nvars: int
    # sorted vertex words -> structure algebra on them (structure_algebra)
    algebras: dict = field(default_factory=dict, repr=False, compare=False)


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


def _generic_point(nvars):
    return [Fraction(p) for p in _GENERIC_PRIMES[:nvars]]


def _flatten(tup, d):
    """The degree-d coefficient vectors of a tuple of polynomials, joined."""
    return [c for p in tup for c in poly_to_coeffs(p, d)]


def _multiples(nvars, gens, d):
    """(index, monomial m, flattened m * gen) for every generator (tuple,
    polynomial degree) and every monomial m that makes the degree d."""
    for i, (gen, dg) in enumerate(gens):
        if dg <= d:
            for m in monomials_of_degree(nvars, d - dg):
                mono = Poly(nvars, {m: 1})
                yield i, m, _flatten(tuple(mono * p for p in gen), d)


def _graded(M: ZLattice):
    """M's generators with their polynomial degrees."""
    return [(g, gd // 2) for g, gd in zip(M.generators, M.degrees)]


def minimal_generators(nvars, candidates):
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
        span = Echelon(v for _, _, v in _multiples(nvars, chosen, d))
        chosen.extend(
            (gen, d) for gen in by_degree[d] if span.add(_flatten(gen, d))
        )
    return chosen


def _certified_lattice(graph, slots, chosen, count, what):
    """The lattice on the slots with the chosen minimal generators (tuple,
    polynomial degree), certified free of rank `count`: exactly `count`
    generators, generically independent.  `what` names the lattice in the
    TruncationError raised otherwise."""
    gens = [g for g, _ in chosen]
    if len(gens) != count:
        raise TruncationError(f"{what} produced {len(gens)} generators, not {count}")
    point = _generic_point(graph.nvars)
    if rank([[p.evaluate(point) for p in g] for g in gens]) != count:
        raise TruncationError(f"{what} failed its rank certificate")
    return ZLattice(graph, tuple(slots), gens, [2 * d for _, d in chosen])


def _grown_algebra(graph, vertex_words, count, edge_count, what, equal_pairs=()):
    """The tuples on the sorted vertex subset that satisfy every edge
    congruence and agree on the slots a, b of each pair in `equal_pairs`,
    certified free of rank `count`.

    Degree by degree, each vector of the congruence kernel outside the
    S-span of the generators kept so far is kept, until there are `count`.
    Their polynomial degrees must then add up to `edge_count`.  The edges
    with one label h form a matching, so localising at h shows that every
    full-rank sublattice has h^(number of h-edges) dividing its determinant;
    a full-rank sublattice of degree sum `edge_count` has determinant
    c * prod_e h_e, and is the whole algebra.  Raises UnsupportedError once
    the generators still missing cannot fit under `edge_count`."""
    nv = graph.nvars
    nslots = len(vertex_words)
    chosen = []
    d = 0
    while len(chosen) < count:
        missing = count - len(chosen)
        if sum(dg for _, dg in chosen) + missing * d > edge_count:
            raise UnsupportedError(
                f"{what} is not free: {missing} generators of degree {d} or "
                f"more do not fit under {edge_count} edges"
            )
        width = len(monomials_of_degree(nv, d))
        rows = _congruence_rows(graph, vertex_words, d)
        for a, b in equal_pairs:
            for j in range(width):
                row = [Fraction(0)] * (nslots * width)
                row[a * width + j] = Fraction(1)
                row[b * width + j] = Fraction(-1)
                rows.append(row)
        span = Echelon(v for _, _, v in _multiples(nv, chosen, d))
        for vec in kernel_basis(rows, nslots * width):
            if span.add(vec):
                gen = tuple(
                    coeffs_to_poly(nv, d, vec[i * width : (i + 1) * width])
                    for i in range(nslots)
                )
                chosen.append((gen, d))
                if len(chosen) == count:
                    break
        d += 1
    lattice = _certified_lattice(graph, vertex_words, chosen, count, what)
    total = sum(dg for _, dg in chosen)
    if total != edge_count:
        raise UnsupportedError(
            f"{what} is not free: its generator degrees add up to {total}, "
            f"not {edge_count} edges"
        )
    return lattice


def structure_algebra(graph: MomentGraphBlock, vertex_words=None) -> ZLattice:
    """An S-basis of the congruence algebra on the vertex subset (every
    vertex by default), computed once per graph and vertex subset.

    Certified by the generator count, the generic rank and the degree sum;
    fails loudly when the algebra is not free.
    """
    if vertex_words is None:
        vertex_words = graph.vertices
    vertex_words = sorted(vertex_words, key=_vertex_key)
    key = tuple(vertex_words)
    if key not in graph.algebras:
        vset = set(vertex_words)
        edge_count = sum(1 for edge in graph.edges if edge <= vset)
        what = f"structure algebra on {len(key)} vertices"
        graph.algebras[key] = _grown_algebra(
            graph, vertex_words, len(key), edge_count, what
        )
    return graph.algebras[key]


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
    span = Echelon(v for _, _, v in _multiples(M.graph.nvars, _graded(M), d))
    return not any(span.reduce(_flatten(tup, d)))


def theta_s(M: ZLattice, s: int) -> ZLattice:
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

    closure = sorted(set(M.slots) | {times_s(w) for w in M.slots}, key=_vertex_key)
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
        for v in (w, times_s(w)):
            for j, wv in enumerate(M.slots):
                if wv == v:
                    new_slots.append(w)
                    sources.append(j)

    z_alg = structure_algebra(graph, closure)
    z_index = {w: i for i, w in enumerate(z_alg.slots)}
    candidates = []
    for g, gd in zip(M.generators, M.degrees):
        diag = tuple(g[j] for j in sources)
        for z, zd in zip(z_alg.generators, z_alg.degrees):
            cand = tuple(
                z[z_index[w]] * diag[k] for k, w in enumerate(new_slots)
            )
            candidates.append((cand, (gd + zd) // 2))
    n = len(new_slots)
    chosen = minimal_generators(graph.nvars, candidates)
    what = f"translated lattice on {n} slots"
    return _certified_lattice(graph, new_slots, chosen, n, what)


def bott_samelson(graph: MomentGraphBlock, word) -> ZLattice:
    """theta_{s_n} ... theta_{s_1} applied to the lattice at the identity
    vertex; rank 2^n."""
    M = verma_zmodule(graph, ())
    for s in word:
        M = theta_s(M, s)
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


def expand_many(M: ZLattice, tups, pd):
    """Coefficients of degree-pd homogeneous slot tuples in M's generator
    basis; None per tuple outside the lattice."""
    nv = M.graph.nvars
    # one unknown per degree-pd multiple m * g_j of a generator
    multiples = list(_multiples(nv, _graded(M), pd))
    rows = list(zip(*(vec for _, _, vec in multiples)))
    rhs_cols = [_flatten(tup, pd) for tup in tups]
    if not multiples:
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
        for (j, m, _), c in zip(multiples, x):
            if c:
                coeffs[j] = coeffs[j] + Poly(nv, {m: c})
        out.append(coeffs)
    return out


def _action_matrices(M: ZLattice, algebra: ZLattice):
    """For each algebra generator z, the matrix F with F[j][i] = coefficient
    of g_j in z * g_i.  One expand_many per target degree covers the
    products of every generator."""
    index = {w: i for i, w in enumerate(algebra.slots)}
    n = len(M.generators)
    by_pd = {}
    for t, (z, zd) in enumerate(zip(algebra.generators, algebra.degrees)):
        for i, (g, gd) in enumerate(zip(M.generators, M.degrees)):
            tup = tuple(
                z[index[w]] * g[k] for k, w in enumerate(M.slots)
            )
            by_pd.setdefault(zd // 2 + gd // 2, []).append((t, i, tup))
    cols = [[None] * n for _ in algebra.generators]
    for pd, items in by_pd.items():
        expanded = expand_many(M, [tup for _, _, tup in items], pd)
        for (t, i, _), coeffs in zip(items, expanded):
            if coeffs is None:
                raise TruncationError(
                    "lattice is not stable under the structure algebra"
                )
            cols[t][i] = coeffs
    return [[[c[i][j] for i in range(n)] for j in range(n)] for c in cols]


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
        algebra = structure_algebra(M.graph)
    fm = _action_matrices(M, algebra)
    fn = fm if N is M else _action_matrices(N, algebra)
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
    return [
        [x + y.scale(scale_b) for x, y in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]


def homs_equal(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# faithful finite-dimensional representation of degree-0 endomorphisms:
# action on the top graded piece of the lattice


def _rep_matrices(M: ZLattice, endos):
    """Matrices of the endomorphisms on the top graded piece, from one
    solve of a basis of that piece against all their images."""
    nv = M.graph.nvars
    D = max(gd // 2 for gd in M.degrees)
    span = Echelon()
    chosen = [
        ((m, i), v) for i, m, v in _multiples(nv, _graded(M), D) if span.add(v)
    ]
    n = len(chosen)
    rows = list(zip(*(v for _, v in chosen)))
    vecs = []
    for U in endos:
        images = apply_hom(U, M, M)
        vecs.extend(
            _flatten(tuple(Poly(nv, {m: 1}) * p for p in images[i]), D)
            for (m, i), _ in chosen
        )
    mat = solve_many(rows, vecs)
    if any(coords is None for coords in mat):
        raise TruncationError("endomorphism does not preserve the lattice")
    # mat rows are images in basis coordinates; transpose to act on columns
    return [
        [[mat[k + j][i] for j in range(n)] for i in range(n)]
        for k in range(0, len(mat), n)
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


# idempotents from the characteristic polynomial: univariate polynomials
# are dense Fraction coefficient lists, lowest degree first


def _trim(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


def _upoly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _upoly_sub(p, q):
    out = list(p) + [Fraction(0)] * (len(q) - len(p))
    for i, b in enumerate(q):
        out[i] -= b
    return _trim(out)


def _upoly_divmod(p, d):
    """(quotient, remainder) of p by the nonzero polynomial d."""
    r = list(p)
    q = [Fraction(0)] * max(len(p) - len(d) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(d) - 1] / d[-1]
        q[k] = c
        if c:
            for i, b in enumerate(d):
                r[k + i] -= c * b
    return q, _trim(r[: len(d) - 1])


def _iroot_ceil(c, k):
    """The least t >= 0 with t**k >= c."""
    lo, hi = 0, 1 << (c.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k >= c:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _rational_roots(cp):
    """Rational roots of a monic polynomial, with their multiplicities.

    With D the common denominator of the coefficients, D^m p(y/D) is monic
    with integer coefficients, so its rational roots are integers dividing
    its constant term; they are searched up to Fujiwara's bound on the
    absolute value of a root."""
    k = next(i for i, c in enumerate(cp) if c)
    roots = [(Fraction(0), k)] if k else []
    g = cp[k:]
    m = len(g) - 1
    den = 1
    for c in g:
        den = lcm(den, c.denominator)
    h = [int(c * den ** (m - i)) for i, c in enumerate(g)]
    bound = 2 * max(
        (_iroot_ceil(abs(h[m - i]), i) for i in range(1, m + 1)), default=0
    )
    d = 1
    while len(h) > 1 and d <= min(bound, abs(h[0])):
        if h[0] % d == 0:
            for r in (d, -d):
                mult = 0
                while len(h) > 1:
                    # synthetic division by (y - r), highest degree first
                    quot = [h[-1]]
                    for c in reversed(h[1:-1]):
                        quot.append(c + r * quot[-1])
                    if h[0] + r * quot[-1]:
                        break
                    h = quot[::-1]
                    mult += 1
                if mult:
                    roots.append((Fraction(r, den), mult))
        d += 1
    return roots


def _charpoly_factors(mat):
    """The characteristic polynomial of mat and its rational roots with
    multiplicities, ordered as a factorisation over the integers sorts the
    primitive linear factors q x - p: by multiplicity, then by (q, -p)."""
    cp = charpoly(mat)
    roots = _rational_roots(cp)
    roots.sort(key=lambda rm: (rm[1], rm[0].denominator, -rm[0].numerator))
    return cp, roots


def _splitting_poly(mat):
    """Coefficients of the polynomial e with e(mat) the projection onto the
    generalized eigenspace of the first rational root lam (multiplicity m)
    of the characteristic polynomial p along the others: e = 1 mod
    (x - lam)^m, e = 0 mod p/(x - lam)^m, deg e < deg p.  None when p has
    no rational root or no other root."""
    cp, roots = _charpoly_factors(mat)
    if not roots or roots[0][1] == len(cp) - 1:
        return None
    lam, mult = roots[0]
    g = [Fraction(1)]
    for _ in range(mult):
        g = _upoly_mul(g, [-lam, Fraction(1)])
    h, _ = _upoly_divmod(cp, g)
    # extended Euclid: v h = 1 mod g, since h(lam) != 0
    r0, r1 = g, _upoly_divmod(h, g)[1]
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _upoly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _upoly_sub(s0, _upoly_mul(q, s1))
    v = [c / r0[0] for c in s0]
    return _trim(_upoly_mul(v, h))


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
    return mat_mul(mat_mul(gt, up), invert(gt))


def _project_summand(M: ZLattice, U):
    """The image lattice of the idempotent U, re-coordinatized onto a
    vertex-labeled slot subset of the right generic rank."""
    images = apply_hom(U, M, M)
    a = _slot_idempotent(M, U)
    by_vertex = {}
    for i, w in enumerate(M.slots):
        by_vertex.setdefault(w, []).append(i)
    chosen_slots = []
    for w in sorted(by_vertex, key=_vertex_key):
        idx = by_vertex[w]
        # greedy independent rows: projection onto them stays injective on
        # the image of the block
        span = Echelon()
        chosen_slots.extend(
            r for r in idx if span.add([a[r][c] for c in idx])
        )
    candidates = []
    for img, gd in zip(images, M.degrees):
        cut = tuple(img[s] for s in chosen_slots)
        if all(p.is_zero() for p in cut):
            continue
        candidates.append((cut, gd // 2))
    slots = [M.slots[s] for s in chosen_slots]
    n = len(slots)
    chosen = minimal_generators(M.graph.nvars, candidates)
    return _certified_lattice(M.graph, slots, chosen, n, f"summand on {n} slots")


def _trial_endos(M: ZLattice, basis, reps):
    """Endomorphisms with their matrices to try for a splitting idempotent:
    the basis, then for each basis element its products with every trial
    listed before that element's turn, then random combinations."""
    nv = M.graph.nvars
    trials = list(zip(basis, reps))
    yield from trials
    for ua, ra in zip(basis, reps):
        for j in range(len(trials)):
            ub, rb = trials[j]
            trials.append((compose(ua, ub, nv), mat_mul(ra, rb)))
            yield trials[-1]
    rng = random.Random(20230823)
    n = len(reps[0])
    while True:
        cs = [Fraction(rng.randint(-9, 9)) for _ in basis]
        u = [[Poly.zero(nv)] * len(basis[0]) for _ in range(len(basis[0]))]
        r = [[Fraction(0)] * n for _ in range(n)]
        for c, ub, rb in zip(cs, basis, reps):
            u = _hom_add(u, ub, c)
            r = [[x + c * y for x, y in zip(rr, rbr)] for rr, rbr in zip(r, rb)]
        yield u, r


def decompose(M: ZLattice, algebra: ZLattice = None):
    """Complete list of indecomposable direct summands, by idempotent
    splitting of the degree-0 endomorphism algebra, trying the first
    _SPLIT_TRIALS endomorphisms of _trial_endos."""
    if M.rank == 0:
        return []
    if algebra is None:
        algebra = structure_algebra(M.graph)
    basis = hom_graded(M, M, 0, algebra)
    reps = _rep_matrices(M, basis)
    if len(basis) - _radical_dim(reps) == 1:
        return [M]
    # e(r) projects onto the generalized eigenspace of a root whose
    # multiplicity is below dim r, so it is neither 0 nor 1: the first trial
    # whose charpoly splits gives a nontrivial idempotent
    split = None
    for _, (u, r) in zip(range(_SPLIT_TRIALS), _trial_endos(M, basis, reps)):
        coeffs = _splitting_poly(r)
        if coeffs is not None:
            split = _poly_of_hom(coeffs, u, M)
            break
    if split is None:
        raise TruncationError(
            "endomorphism algebra is not local but no splitting idempotent "
            f"was found in {_SPLIT_TRIALS} trial endomorphisms: no trial's "
            "characteristic polynomial has a rational root splitting it"
        )
    comp = _hom_add(identity_hom(M), split, -1)
    out = []
    for idem in (split, comp):
        out.extend(decompose(_project_summand(M, idem), algebra))
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
    # coordinates in slot order, so that a pivot is the first such slot
    span = Echelon()
    out = {}
    for gi in order:
        gen = M.generators[gi]
        if not span.add([gen[s].evaluate(point) for s in slot_order]):
            raise TruncationError("generator set is generically dependent")
        slot = slot_order[span.pivots[-1]]
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
    """Graded characters agree after aligning the lowest degree; used by
    `singular_reduce` as the isomorphism test among the summands of a wall
    translation."""
    return _shift_normalized(graded_char(a)) == _shift_normalized(
        graded_char(b)
    )


# ---------------------------------------------------------------------------
# projectives


def projective_summand(summands, w):
    """The one summand whose slots contain the vertex w.  Among the summands
    of a Bott-Samelson lattice for a reduced word of w, which has rank 1 at
    w, that is P(w)."""
    word = tuple(w)
    over = [S for S in summands if word in S.slots]
    if len(over) != 1:
        raise TruncationError(
            f"{len(over)} summands have a slot at the vertex, expected 1"
        )
    return over[0]


def identify_projective(graph: MomentGraphBlock, w):
    """P(w), the summand over w of the Bott-Samelson lattice for the reduced
    word w; its other summands are shifted P(y) with y < w (Fiebig, Adv.
    Math. 217, 2008)."""
    return projective_summand(decompose(bott_samelson(graph, w)), w)


def invariant_structure_algebra(
    graph: MomentGraphBlock, vertex_words, s: int
) -> ZLattice:
    """Generators of the coset-invariant subalgebra Z^s on an s-closed
    vertex set: congruence tuples constant on right cosets {w, ws}.  It is
    the structure algebra of the graph on the cosets, whose edges are the
    edges joining different cosets, paired up by w - x <-> ws - xs."""
    system = graph.block.coxeter_system
    vertex_words = sorted(vertex_words, key=_vertex_key)
    index = {w: i for i, w in enumerate(vertex_words)}
    pairs = []  # (w, ws) slot indices, one per coset
    coset = {}
    for w in vertex_words:
        ws = system.normal_form(w + (s,))
        if ws not in index:
            raise TruncationError("vertex set is not closed under the wall")
        coset[w] = min(w, ws, key=_vertex_key)
        if coset[w] == w:
            pairs.append((index[w], index[ws]))
    cross = sum(
        1 for a, b in map(tuple, graph.edges)
        if a in coset and b in coset and coset[a] != coset[b]
    )
    n = len(pairs)
    what = f"invariant subalgebra on {n} cosets"
    return _grown_algebra(graph, vertex_words, n, cross // 2, what, pairs)


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

    closure = set(M.slots) | {system.normal_form(w + (s,)) for w in M.slots}
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
