"""Graded structure algebra of a block and graded lattices over it.

A non-critical block's orbit carries a moment graph: vertices are orbit
elements, and an edge joins w and s_beta.w for a positive integral root
beta, found from Billey's roots of a word (so no root height is cut),
labeled by the linear form h_beta = (beta, -).  A critical block, which
Fiebig's theorem leaves out, is refused.  The structure algebra Z is the set
of vertex-tuples (z_w) with z_w congruent to z_{s_beta w} mod h_beta on
every edge.  Modules over Z are presented as graded lattices: finitely many
vertex-labeled slots plus homogeneous generators.  A generator, like any
degree-d slot tuple, is a slot-major integer vector over one denominator,
indexed by monomial tables the moment graph builds on demand, so that
multiplying by a monomial is an index map; `Poly` tuples are built only
when a lattice's generators are read.

Degrees: one polynomial variable per fundamental weight (plus one for delta
in affine type), each of graded degree 2.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import compress, count, islice
from math import gcd, lcm, prod
from operator import add, mul, sub

from .blocks import BlockData, chamber_walk, dot_reflect, is_critical, outside_the_length_bound
from .coxeter import demazure_product, lower_cone, word_str
from .errors import CriticalityError, TruncationError, UnsupportedError
from .linalg import (
    Echelon,
    charpoly,
    integral,
    invert,
    kernel_basis,
    kernel_incremental,
    mat_mul,
    solve_many,
)
from .poly import Poly, monomials_of_degree
from .rootdata import form, reflect_root, rho

# endomorphisms `decompose` tries for a splitting idempotent
_SPLIT_TRIALS = 60

# generic evaluation point; primes keep distinct linear forms distinct
_GENERIC_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _nvars(cartan):
    return cartan.rank + (1 if cartan.is_affine else 0)


def root_form(cartan, beta) -> Poly:
    """The linear form h_beta(mu) = (beta, mu) in weight coordinates: for
    beta = sum m_k alpha_k its coefficient at x_k is (beta, Lambda_k) =
    d_k m_k, and at delta it is (beta, delta) = 0."""
    coeffs = [d * m for d, m in zip(cartan.symmetrizer, beta.simple_coords)]
    return Poly.linear(coeffs + [0] * (_nvars(cartan) - cartan.rank))


class MomentGraphBlock:
    # a cache on a graph is one of the stores declared here
    __slots__ = ("block", "vertices", "edges", "billey", "nvars", "algebra",
                 "edges_up", "monomials", "shifts", "quotients")

    def __init__(self, block, edges, billey):
        self.block = block
        self.vertices = list(block.orbit)  # orbit words, sorted by (length, word)
        self.edges = edges  # frozenset({word, word}) -> Poly (h_beta)
        # word -> (its Billey word a_1 ... a_l, the roots r_1, ..., r_l)
        self.billey = billey
        self.nvars = _nvars(block.cartan)
        self.algebra = None  # its structure algebra (structure_algebra)
        self.edges_up = None  # per vertex, its edges up (_edges_up)
        # tables of _monomials and _shifts, and of _quotient_rows keyed by
        # the integer `_label` of an edge label; each is filled on first use
        self.monomials, self.shifts, self.quotients = {}, {}, {}


def moment_graph(block: BlockData) -> MomentGraphBlock:
    """The moment graph on the truncated orbit: an edge joins two vertices
    when a positive integral root beta reflects one onto the other, labeled
    h_beta.  Its edges are `_billey_edges`, found without a height cut.
    Refuses a critical block, which Fiebig's theorem leaves out: it has
    no chamber, and translations can fix its weights."""
    if is_critical(block):
        raise CriticalityError("moment graphs need a non-critical block")
    return MomentGraphBlock(block, *_billey_edges(block))


def _billey_edges(block: BlockData):
    """Billey's edges (Duke Math. J. 96, 1999): for a reduced word
    a_1 ... a_l, the roots r_j = s_{a_1} ... s_{a_{j-1}}(alpha_{a_j}) over
    the integral simple roots are the l positive roots its element makes
    negative, and the edges down from a vertex y go to s_{r_j} . y.
    Returns the edges and, per vertex, its Billey word and roots.

    The Billey word of y is chosen here, once, by the base weight's side:

    - On a regular block, or with the base in a closed chamber (dominant or
      antidominant, regular or singular), it is y's own ShortLex word.  It
      spells the minimal coset representative, whose inversions lie on
      that chamber's side.  Certified: the l(y) endpoints are distinct
      vertices shorter than y.
    - With a singular base interior to its orbit, it is `chamber_walk`'s
      for y's weight, so the r_j are the positive integral roots with
      y + rho on the far side of the chamber.  The two ends of an edge lie
      on opposite sides of its root, so this finds every edge once, also
      when the stabilizer is not a standard parabolic subgroup.  Certified:
      the r_j are on the far side and their endpoints distinct; an endpoint
      outside the truncated orbit has no edge.
    """
    simples = block.integral_simples
    by_weight = {mu: y for y, mu in block.orbit.items()}
    own = block.stab_order == 1 or block.position != "interior"
    side = 1 if block.has_dominant else -1
    shift = rho(block.cartan)
    roots, edges, billey = {(): []}, {}, {}  # word -> r_1, ..., r_l; edge -> label
    for y, mu in block.orbit.items():
        word = y if own else chamber_walk(block, mu, side > 0)[0]
        for j in range(len(word)):
            if word[: j + 1] not in roots:
                root = simples[word[j]]
                for a in reversed(word[:j]):
                    root = reflect_root(simples[a], root)
                roots[word[: j + 1]] = roots[word[:j]] + [root]
        ends = [dot_reflect(r, mu) for r in roots[word]]
        if own:
            ok = all(e in by_weight and len(by_weight[e]) < len(y) for e in ends)
        else:
            shifted = mu + shift
            ok = all(side * form(shifted, r) < 0 for r in roots[word])
        if not ok or len(set(ends)) < len(word):
            raise TruncationError(
                f"moment graph: Billey's roots of the word {word_str(word)} are "
                f"not {len(word)} inversions of vertex {word_str(y)}"
            )
        billey[y] = (word, roots[word])
        for r, e in zip(roots[word], ends):
            if e in by_weight:
                edges[frozenset({by_weight[e], y})] = root_form(block.cartan, r)
    return edges, billey


def _vertex_key(word):
    return (len(word), word)


class ZLattice:
    """Slots labeled by vertices, and generators held as (integers,
    denominator, polynomial degree).  Built from slot tuples of Poly of the
    given graded degrees, which `generators` rebuilds on first read."""

    _generators = None  # the Poly tuples, once read

    def __init__(self, graph, slots, generators, degrees):
        self.graph = graph
        self.slots = slots  # vertex word per slot
        self.vectors = [_vector(graph, g, d // 2) + (d // 2,)
                        for g, d in zip(generators, degrees)]

    @classmethod
    def from_vectors(cls, graph, slots, vectors):
        """The lattice on the slots generated by the given vectors."""
        lattice = cls.__new__(cls)
        lattice.graph, lattice.slots, lattice.vectors = graph, slots, vectors
        return lattice

    @property
    def rank(self):
        return len(self.slots)

    @property
    def degrees(self):
        return [2 * d for _, _, d in self.vectors]

    @property
    def generators(self):
        if self._generators is None:
            self._generators = [_poly_tuple(self.graph, *v) for v in self.vectors]
        return self._generators


# ---------------------------------------------------------------------------
# integer graded pieces: a degree-d slot tuple is a slot-major vector of
# integers over one denominator, indexed by monomial position


def _monomials(graph, d):
    """(degree-d monomials, monomial -> position, their integer values at
    the generic point), built once per graph."""
    if d not in graph.monomials:
        monos = monomials_of_degree(graph.nvars, d)
        values = [prod(map(pow, _GENERIC_PRIMES, m)) for m in monos]
        graph.monomials[d] = (monos, {m: i for i, m in enumerate(monos)}, values)
    return graph.monomials[d]


def _generic_values(graph, vec, d):
    """The values at the generic point of a degree-d slot vector's slots."""
    at = _monomials(graph, d)[2]
    return [sum(map(mul, vec[s : s + len(at)], at)) for s in range(0, len(vec), len(at))]


def _width(graph, d):
    return len(_monomials(graph, d)[0])


def _shifts(graph, e, d):
    """Multiplication by a degree-e monomial m as an index map: per m, the
    positions of m * a for the degree-d monomials a."""
    if (e, d) not in graph.shifts:
        index = _monomials(graph, d + e)[1]
        graph.shifts[e, d] = [
            [index[tuple(map(add, m, a))] for a in _monomials(graph, d)[0]]
            for m in _monomials(graph, e)[0]
        ]
    return graph.shifts[e, d]


def _vector(graph, tup, d):
    """A degree-d slot tuple of Poly as (integers, denominator)."""
    index, width = _monomials(graph, d)[1], _width(graph, d)
    flat = [0] * (len(tup) * width)
    for s, p in enumerate(tup):
        for m, c in p.terms.items():
            flat[s * width + index[m]] = c
    return integral(flat)


def _poly_tuple(graph, vec, den, d):
    """The slot tuple of Poly with slot-major coefficients vec / den."""
    monos = _monomials(graph, d)[0]
    return tuple(
        Poly(graph.nvars, {m: Fraction(x, den)
                           for m, x in zip(monos, vec[s : s + len(monos)]) if x})
        for s in range(0, len(vec), len(monos))
    )


def _slot_product(graph, a, da, amap, b, db, bmap):
    """The integer slot vector whose slot k is the product of slot amap[k]
    of a (degree da) and slot bmap[k] of b (degree db)."""
    wa, wb, w = _width(graph, da), _width(graph, db), _width(graph, da + db)
    shifts = _shifts(graph, da, db)
    out = [0] * (len(amap) * w)
    for k, (sa, sb) in enumerate(zip(amap, bmap)):
        bslot = [(q, y) for q, y in enumerate(b[sb * wb : (sb + 1) * wb]) if y]
        for p, x in enumerate(a[sa * wa : (sa + 1) * wa]):
            if x:
                for q, y in bslot:
                    out[k * w + shifts[p][q]] += x * y
    return out


def _multiples(graph, gens, d):
    """(index, monomial position p, integer vector of m_p * gen) for every
    generator (integers, denominator, polynomial degree) and every monomial
    m_p that makes the degree d."""
    width = _width(graph, d)
    for i, (vec, _, dg) in enumerate(gens):
        if dg > d:
            continue
        w0 = _width(graph, dg)
        nonzero = [(k // w0 * width, k % w0, x) for k, x in enumerate(vec) if x]
        for p, sh in enumerate(_shifts(graph, d - dg, dg)):
            out = [0] * (len(vec) // w0 * width)
            for base, q, x in nonzero:
                out[base + sh[q]] = x
            yield i, p, out


# ---------------------------------------------------------------------------
# structure algebra


def _label(graph, h):
    """The integer key of an edge label h: its coefficient per variable,
    denominators cleared.  The tables of a label are keyed by it."""
    return tuple(_vector(graph, (h,), 1)[0])


def _restriction_rows(graph, label, d):
    """Per degree-d monomial f free of x, the label's first variable with a
    nonzero coefficient, in monomial order: the coefficients at f of the
    restrictions to h = 0 of the degree-d monomials, as a primitive integer
    row positive at f.  Their common kernel is h times the degree-(d - 1)
    polynomials.  Stored by column in `_quotient_rows`, its one caller.

    For h = c x + r, restricting sets x = -r / c, so c^d times the
    restriction of x^e m, m free of x, is c^(d - e) m (-r)^e.  The row of f
    takes these integers' coefficients at f, whose entry at f itself is
    c^d, and divides them by their gcd times the sign of c^d."""
    var = next(i for i, c in enumerate(label) if c)
    c = label[var]
    monos = _monomials(graph, d)[0]
    rows = {f: [0] * len(monos) for f in monos if not f[var]}
    powers = [{(0,) * len(label): 1}]  # (-r)^e, monomial -> integer
    for _ in range(d):
        power = {}
        for m, a in powers[-1].items():
            for i, b in enumerate(label):
                if b and i != var:
                    t = m[:i] + (m[i] + 1,) + m[i + 1 :]
                    power[t] = power.get(t, 0) - a * b
        powers.append(power)
    for j, m in enumerate(monos):
        e = m[var]
        rest = m[:var] + (0,) + m[var + 1 :]
        scale = c ** (d - e)
        for t, a in powers[e].items():
            if a:
                rows[tuple(map(add, rest, t))][j] = scale * a
    sign = -1 if c ** d < 0 else 1
    table = []
    for row in rows.values():
        g = sign * gcd(*row)
        table.append([x // g for x in row])
    return table


def minimal_generators(graph, candidates):
    """Minimal homogeneous generating set of the S-span of the candidates.

    candidates: list of (integers, denominator, polynomial degree).
    Processes degrees in increasing order, keeping a candidate iff it lies
    outside the span of monomial multiples of the ones already kept.
    """
    by_degree = {}
    for cand in candidates:
        by_degree.setdefault(cand[2], []).append(cand)
    chosen = []
    for d in sorted(by_degree):
        chosen += _kept(graph, chosen, by_degree[d], d)
    return chosen


def _kept(graph, chosen, candidates, d):
    """The degree-d candidates outside the S-span of the chosen generators
    of lower degree and of the candidates kept before them."""
    span = Echelon(v for _, _, v in _multiples(graph, chosen, d))
    return [c for c in candidates if span.add(c[0])]


def _certificate(graph, chosen):
    """(count, generic rank, polynomial degree sum) of the generators
    (integers, denominator, polynomial degree)."""
    rank = len(Echelon(_generic_values(graph, vec, d) for vec, _, d in chosen).rows)
    return len(chosen), rank, sum(d for _, _, d in chosen)


def _certified_lattice(graph, slots, chosen, count, what, edge_count=None):
    """The lattice on the slots with the chosen minimal generators
    (integers, denominator, polynomial degree), certified free of rank
    `count`: exactly `count` generators, generically independent.  `what`
    names the lattice in the TruncationError raised otherwise.

    With `edge_count`, the lattice is a congruence algebra on the sorted
    vertex slots, and its polynomial degrees must add up to `edge_count`.
    The edges with one label h form a matching, so localising at h shows
    that every full-rank sublattice has h^(number of h-edges) dividing its
    determinant; a full-rank sublattice of degree sum `edge_count` has
    determinant c * prod_e h_e, and is the whole algebra."""
    found, rank, total = _certificate(graph, chosen)
    if found != count:
        raise TruncationError(f"{what} produced {found} generators, not {count}")
    if rank != count:
        raise TruncationError(f"{what} failed its rank certificate")
    if edge_count is not None and total != edge_count:
        raise UnsupportedError(
            f"{what} is not free: its generator degrees add up to {total}, "
            f"not {edge_count} edges"
        )
    return ZLattice.from_vectors(graph, tuple(slots), chosen)


def _not_a_lower_set(graph, what):
    """The refusal of a truncated orbit whose Billey endpoints leave it,
    naming the first vertex that has one outside and the chamber base
    weight of the orbit, whose truncations are lower sets."""
    block = graph.block
    inside = set(block.orbit.values())
    y = next(y for y, (_, roots) in graph.billey.items()
             if any(dot_reflect(r, block.orbit[y]) not in inside for r in roots))
    base = chamber_walk(block, block.base_weight, block.has_dominant)[1] - rho(block.cartan)
    text = ",".join(map(str, base.coords)) + (f";delta={base.delta}" if base.delta else "")
    return UnsupportedError(
        f"{what}: the orbit cut at length bound {block.length_bound} is not a lower "
        f"set, as vertex {word_str(y)} has an edge out of it; the chamber base "
        f"weight {text} of the same orbit passes"
    )


def _schubert_algebra(graph, what):
    """The equivariant Schubert classes xi^v restricted to the vertices
    (Billey, Duke Math. J. 96, 1999; Kostant-Kumar, Adv. Math. 62, 1986),
    one per vertex, in vertex order: on a singular block Z is their
    pullback along G/B -> G/P, spanned by the classes of the minimal coset
    representatives.

    Each vertex y has its Billey word a_1 ... a_l (`_billey_edges`), with
    roots r_j = s_{a_1} ... s_{a_{j-1}}(alpha_{a_j}); m(y) is the element
    it spells.  xi^v(m(y)) is the sum of h_{r_{j_1}} ... h_{r_{j_k}} over
    the reduced subwords a_{j_1} ... a_{j_k} of v.  Along the prefixes of
    the word, the sums for a prefix are those for the one a letter shorter,
    u, plus, for every v with v s_{a_l} > v, the sum for v times h_{r_l}
    at v s_{a_l}.  The class of the vertex v is xi^{m(v)}, of degree
    2 l(m(v)).

    Refuses, with UnsupportedError, a truncated orbit whose Billey
    endpoints leave it (sum_v l(m(v)) is not the edge count), where the
    classes do not span Z.  Certified by exact membership, every edge
    congruence on every generator through its label's `_quotient_rows` at
    k = 0, then by count, generic rank and degree sum (`_certified_lattice`)."""
    vertices, system = graph.vertices, graph.block.coxeter_system
    if sum(len(word) for word, _ in graph.billey.values()) != len(graph.edges):
        raise _not_a_lower_set(graph, what)
    # prefix -> h_{r_l} for its last letter, parents before children
    labels = {}
    for word, roots in graph.billey.values():
        for j, r in enumerate(roots):
            if word[: j + 1] not in labels:
                labels[word[: j + 1]] = _vector(graph, (root_form(graph.block.cartan, r),), 1)
    den = lcm(*(d for _, d in labels.values()))  # common denominator
    sums = {(): {0: [1]}}  # prefix u -> {id of v: den^l(v) * xi^v(u)}
    for u, (label, d) in labels.items():
        label, a = [x * (den // d) for x in label], u[-1]
        sums[u] = step = dict(sums[u[:-1]])
        for v, vec in sums[u[:-1]].items():
            if not system.rdesc[v] >> a & 1:
                term = _slot_product(graph, label, 1, [0], vec, system.length[v], [0])
                up = system.right(v, a)
                step[up] = list(map(add, step[up], term)) if up in step else term
    chosen = []
    for v in vertices:
        word = graph.billey[v][0]
        k, vid = len(word), system.element(word).id
        zero = [0] * _width(graph, k)
        vec = [x for w in vertices for x in sums[graph.billey[w][0]].get(vid, zero)]
        g = gcd(*vec, den**k)
        chosen.append(([x // g for x in vec], den**k // g, k))
    index = {w: i for i, w in enumerate(vertices)}
    edges = [(*sorted(e, key=_vertex_key), _label(graph, h)) for e, h in graph.edges.items()]
    for v, (vec, _, k) in zip(vertices, chosen):
        width = _width(graph, k)
        for a, b, label in edges:
            ia, ib = index[a] * width, index[b] * width
            diff = list(map(sub, vec[ia : ia + width], vec[ib : ib + width]))
            if not any(diff):
                continue
            n, table = _quotient_rows(graph, label, k, 0)
            if any(_image([0] * width, table, n, diff)):
                raise TruncationError(
                    f"{what}: the Schubert class at {word_str(v)} breaks the "
                    f"congruence on the edge {word_str(a)} - {word_str(b)}"
                )
    return _certified_lattice(graph, vertices, chosen, len(vertices), what, len(graph.edges))


def structure_algebra(graph: MomentGraphBlock) -> ZLattice:
    """An S-basis of the structure algebra Z of the moment graph, computed
    once per graph: the equivariant Schubert classes (`_schubert_algebra`),
    certified by every edge congruence, the generator count, the generic
    rank and the degree sum; fails loudly when they do not span Z.
    """
    if graph.algebra is None:
        what = f"structure algebra on {len(graph.vertices)} vertices"
        graph.algebra = _schubert_algebra(graph, what)
    return graph.algebra


def _restrict(graph, vec, d, slots):
    """The listed slots, in that order, of a degree-d slot vector."""
    width = _width(graph, d)
    return [x for i in slots for x in vec[i * width : (i + 1) * width]]


# ---------------------------------------------------------------------------
# lattices


def verma_zmodule(graph: MomentGraphBlock, w) -> ZLattice:
    """Rank-1 lattice concentrated at the vertex w."""
    word = tuple(w)
    if word not in graph.block.orbit:
        raise ValueError("vertex outside the truncated orbit")
    one = Poly.const(graph.nvars, 1)
    return ZLattice(graph, (word,), [(one,)], [0])


def lattice_contains(M: ZLattice, tup, d) -> bool:
    """Is the degree-d homogeneous tuple in the S-span of M's generators?"""
    span = Echelon(v for _, _, v in _multiples(M.graph, M.vectors, d))
    return not any(span.reduce(_vector(M.graph, tup, d)[0]))


def _outside_the_orbit(block, w):
    return TruncationError("orbit truncation is not closed under the wall "
                           f"reflection: {outside_the_length_bound(block, w)}")


def theta_s(M: ZLattice, s: int) -> ZLattice:
    """Translation through the s-wall and back, Z (x)_{Z^s} M: the lattice
    generated by the diagonally doubled generators times the classes of Z
    (`structure_algebra`) that do not vanish on the wall closure of M's
    vertices.

    New slot count at vertex w is n_w + n_{ws}; total rank doubles.
    """
    graph = M.graph
    system = graph.block.coxeter_system
    if graph.block.stab_order != 1:
        raise UnsupportedError("translation combinatorics needs a regular block")

    closure = sorted(set(M.slots) | {system.word_times(w, s) for w in M.slots},
                     key=_vertex_key)
    for w in closure:
        if w not in graph.block.orbit:
            raise _outside_the_orbit(graph.block, w)

    # new slots: per vertex w, one per old slot at w, then one per old
    # slot at ws
    new_slots = []
    sources = []  # old slot index feeding each new slot
    for w in closure:
        for v in (w, system.word_times(w, s)):
            for j, wv in enumerate(M.slots):
                if wv == v:
                    new_slots.append(w)
                    sources.append(j)

    algebra = structure_algebra(graph)
    index = {w: i for i, w in enumerate(algebra.slots)}
    z_slots = [index[w] for w in new_slots]  # every vertex of the closure
    classes = [z for z in algebra.vectors if any(_restrict(graph, z[0], z[2], z_slots))]
    candidates = [
        (_slot_product(graph, z, zd, z_slots, g, gd, sources), gden * zden, gd + zd)
        for g, gden, gd in M.vectors
        for z, zden, zd in classes
    ]
    n = len(new_slots)
    chosen = minimal_generators(graph, candidates)
    what = f"translated lattice on {n} slots"
    return _certified_lattice(graph, new_slots, chosen, n, what)


def bott_samelson(graph: MomentGraphBlock, word) -> ZLattice:
    """theta_{s_n} ... theta_{s_1} applied to the lattice at the identity
    vertex; rank 2^n.  Its vertices lie below the Demazure product of the
    word, whose length is the length bound that passes."""
    block = graph.block
    top = demazure_product(block.coxeter_system, word)
    if block.stab_order == 1 and len(top) > block.length_bound:
        raise _outside_the_orbit(block, top)
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


def expand_many(M: ZLattice, vectors, pd):
    """Coefficients in M's generator basis of degree-pd slot vectors, given
    as (integers, denominator): per vector None when it lies outside the
    lattice, else per generator {monomial position: Fraction}."""
    gens = M.vectors
    # one unknown per multiple m * g_j; its vector is scaled by den_j, so a
    # solution x gives the coefficient x * den_j / den
    multiples = list(_multiples(M.graph, gens, pd))
    if not multiples:
        return [None if any(vec) else [{} for _ in gens] for vec, _ in vectors]
    rows = list(zip(*(vec for _, _, vec in multiples)))
    out = []
    for (_, den), x in zip(vectors, solve_many(rows, [vec for vec, _ in vectors])):
        coeffs = None if x is None else [{} for _ in gens]
        for (j, p, _), c in zip(multiples, x or ()):
            if c:
                coeffs[j][p] = c * gens[j][1] / den
        out.append(coeffs)
    return out


def _action_matrices(M: ZLattice, algebra: ZLattice):
    """For each algebra generator z, the matrix F with F[j][i] = coefficient
    of g_j in z * g_i, as {monomial position: Fraction}.  One expand_many
    per target degree covers the products of every generator."""
    index = {w: i for i, w in enumerate(algebra.slots)}
    z_slots = [index[w] for w in M.slots]
    n = len(M.vectors)
    by_pd = {}
    for t, (z, zden, zd) in enumerate(algebra.vectors):
        for i, (g, gden, gd) in enumerate(M.vectors):
            vec = _slot_product(M.graph, z, zd, z_slots, g, gd, range(M.rank))
            by_pd.setdefault(zd + gd, []).append((t, i, (vec, zden * gden)))
    cols = [[None] * n for _ in algebra.vectors]
    for pd, items in by_pd.items():
        expanded = expand_many(M, [vec for _, _, vec in items], pd)
        for (t, i, _), coeffs in zip(items, expanded):
            if coeffs is None:
                raise TruncationError(
                    "lattice is not stable under the structure algebra"
                )
            cols[t][i] = coeffs
    return [[[c[i][j] for i in range(n)] for j in range(n)] for c in cols]


def hom_graded(M: ZLattice, N: ZLattice, d: int, algebra: ZLattice = None):
    """Basis of degree-d maps M -> N commuting with the structure-algebra
    action, as generator-basis matrices (rows: N generators, cols: M).  Any
    even degree is computed, negative ones too; an odd degree has none."""
    if M.graph is not N.graph:
        raise ValueError("lattices over different graphs")
    if d % 2:
        return []
    k = d // 2
    graph = M.graph
    if algebra is None:
        algebra = structure_algebra(graph)
    fm = _action_matrices(M, algebra)
    fn = fm if N is M else _action_matrices(N, algebra)
    m_deg = [gd for _, _, gd in M.vectors]
    n_deg = [gd for _, _, gd in N.vectors]
    nm, nn = len(m_deg), len(n_deg)
    # unknowns: entries U[l][j] of degree k + m_deg[j] - n_deg[l]
    offsets = {}
    total = 0
    for l in range(nn):
        for j in range(nm):
            dd = k + m_deg[j] - n_deg[l]
            if dd >= 0:
                offsets[(l, j)] = (total, dd)
                total += _width(graph, dd)
    if total == 0:
        return []

    def rows():
        # U . F^M_t = F^N_t . U, entrywise in each target monomial, as
        # sparse integer rows [(column, value)]: both sides times the least
        # common denominator of the entries of F^M_t and F^N_t
        for t, (FM, FN) in enumerate(zip(fm, fn)):
            entries = [c for F in (FM, FN) for r in F for p in r for c in p.values()]
            den = lcm(*(c.denominator for c in entries))
            zp = algebra.vectors[t][2]
            for l in range(nn):
                for i in range(nm):
                    td = k + zp + m_deg[i] - n_deg[l]
                    terms = [(offsets.get((l, j)), FM[j][i], den) for j in range(nm)]
                    terms += [(offsets.get((j, i)), FN[l][j], -den) for j in range(nn)]
                    acc = {}
                    for unknown, entry, scale in terms:
                        if unknown is None or not entry:
                            continue
                        base, dd = unknown
                        shifts = _shifts(graph, td - dd, dd)
                        for q, c in entry.items():
                            c = c.numerator * (scale // c.denominator)
                            for col, pos in enumerate(shifts[q], base):
                                row = acc.setdefault(pos, {})
                                row[col] = row.get(col, 0) + c
                    for pos in sorted(acc):
                        row = [(col, c) for col, c in acc[pos].items() if c]
                        if row:
                            yield row

    out = []
    for v in kernel_incremental(rows(), total):
        U = [[Poly.zero(graph.nvars) for _ in range(nm)] for _ in range(nn)]
        for (l, j), (base, dd) in offsets.items():
            monos = _monomials(graph, dd)[0]
            U[l][j] = Poly(graph.nvars, dict(zip(monos, v[base : base + len(monos)])))
        out.append(U)
    return out


def apply_hom(U, M: ZLattice, N: ZLattice):
    """Slot tuples of the images of M's generators under U."""
    nv = M.graph.nvars
    out = []
    for i in range(len(M.vectors)):
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
    zero = Poly.zero(nvars)

    def entry(row, col):
        return sum((a * b for a, b in zip(row, col) if a.terms and b.terms), zero)

    return [[entry(row, col) for col in zip(*U1)] for row in U2]


# faithful finite-dimensional representation of degree-0 endomorphisms:
# action on the top graded piece of the lattice


def _top_index(M: ZLattice):
    """The top degree D of M's generators and {(i, p): position} of the
    multiples m_p * g_i of degree D, in the order `_multiples` yields them."""
    gens = M.vectors
    D = max(dg for _, _, dg in gens)
    pairs = [(i, p) for i, (_, _, dg) in enumerate(gens)
             for p in range(_width(M.graph, D - dg))]
    return D, {ip: k for k, ip in enumerate(pairs)}


def _rep_matrices(M: ZLattice, endos):
    """Matrices of the degree-0 endomorphisms on the top graded piece, in
    the basis of multiples m_p * g_i ordered by `_top_index`.  Every lattice
    is certified free on its generators when it is built, so these multiples
    are a basis, and a term t of U[l][i] sends m_p * g_i to t * m_p * g_l."""
    graph, gens = M.graph, M.vectors
    D, index = _top_index(M)
    reps = []
    for U in endos:
        rep = [[Fraction(0)] * len(index) for _ in index]
        for (i, p), col in index.items():
            for l, (_, _, dl) in enumerate(gens):
                e = gens[i][2] - dl
                for mono, c in U[l][i].terms.items():
                    m = _monomials(graph, e)[1][mono]
                    q = _shifts(graph, e, D - gens[i][2])[m][p]
                    rep[index[l, q]][col] = c
        reps.append(rep)
    return reps


def _radical_dim(rep_basis):
    """dim of the radical of the span, via the trace form (char 0).  Scaling
    each matrix to integers scales rows and columns of the Gram matrix and
    keeps its rank."""
    flat = [integral([x for row in a for x in row])[0] for a in rep_basis]
    flat_t = [integral([x for col in zip(*a) for x in col])[0] for a in rep_basis]
    return len(rep_basis) - len(Echelon([sum(map(mul, a, b)) for b in flat_t]
                                        for a in flat).rows)


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
    """The idempotent matrix projecting onto the generalized eigenspace of
    the first rational root lam (multiplicity m) of the characteristic
    polynomial along the others: onto the kernel of (mat - lam)^k along its
    image, for the first k whose kernel has dimension m, as (mat - lam)^m
    has.  None when the characteristic polynomial has no rational root or
    no other root."""
    cp, roots = _charpoly_factors(mat)
    if not roots or roots[0][1] == len(cp) - 1:
        return None
    lam, mult = roots[0]
    shifted = [[x - lam if i == j else x for j, x in enumerate(r)]
               for i, r in enumerate(mat)]
    power, kernel = shifted, kernel_basis(shifted, len(mat))
    while len(kernel) < mult:
        power = mat_mul(power, shifted)
        kernel = kernel_basis(power, len(mat))
    # columns: a kernel basis (m vectors), then an image basis
    columns = kernel + Echelon(integral(col)[0] for col in zip(*power)).rows
    basis = [list(r) for r in zip(*columns)]
    return mat_mul([r[:mult] for r in basis], invert(basis)[:mult])


def _project_summand(M: ZLattice, E):
    """The image lattice of the idempotent e with matrix E on the top graded
    piece, re-coordinatized onto a vertex-labeled slot subset of the right
    generic rank.  e maps m_0 * g_i to m_0 * e(g_i), so for m_0 the first
    monomial of degree D - deg g_i the coefficient of t * g_l in e(g_i) is
    E[(l, t * m_0), (i, m_0)]."""
    graph, gens = M.graph, M.vectors
    D, index = _top_index(M)
    images, values = [], []  # values: per image, its slot values at the point
    for i, (_, _, di) in enumerate(gens):
        img = [Fraction(0)] * (M.rank * _width(graph, di))
        for l, t, vec in _multiples(graph, gens, di):
            c = E[index[l, _shifts(graph, di - gens[l][2], D - di)[t][0]]][index[i, 0]]
            if c:
                c /= gens[l][1]
                for k, x in enumerate(vec):
                    if x:
                        img[k] += c * x
        images.append(img)
        values.append(_generic_values(graph, img, di))
    by_vertex = {}
    for i, w in enumerate(M.slots):
        by_vertex.setdefault(w, []).append(i)
    chosen_slots = []
    for w in sorted(by_vertex, key=_vertex_key):
        # greedy independent rows, so projection onto them stays injective
        # on the image: e commutes with Z, whose values at the point split
        # M's vertices, so e's slot matrix is block-diagonal by vertex and
        # rows of one vertex are dependent as the images' values there are
        span = Echelon()
        chosen_slots.extend(
            r for r in by_vertex[w] if span.add(integral([v[r] for v in values])[0])
        )
    candidates = []
    for img, (_, _, d) in zip(images, gens):
        w = _width(graph, d)
        cut = [x for s in chosen_slots for x in img[s * w : (s + 1) * w]]
        if any(cut):
            candidates.append(integral(cut) + (d,))
    slots = [M.slots[s] for s in chosen_slots]
    n = len(slots)
    chosen = minimal_generators(graph, candidates)
    return _certified_lattice(graph, slots, chosen, n, f"summand on {n} slots")


def _trial_endos(reps):
    """Matrices of the endomorphisms to try for a splitting idempotent: the
    basis, then for each basis element its products with every trial
    listed before that element's turn, then random combinations."""
    trials = list(reps)
    yield from trials
    for ra in reps:
        for j in range(len(trials)):
            trials.append(mat_mul(ra, trials[j]))
            yield trials[-1]
    rng = random.Random(20230823)
    n = len(reps[0])
    while True:
        cs = [Fraction(rng.randint(-9, 9)) for _ in reps]
        r = [[Fraction(0)] * n for _ in range(n)]
        for c, rb in zip(cs, reps):
            r = [[x + c * y for x, y in zip(rr, rbr)] for rr, rbr in zip(r, rb)]
        yield r


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
    # the projection onto the generalized eigenspace of a root whose
    # multiplicity is below dim r is neither 0 nor 1: the first trial whose
    # charpoly splits gives a nontrivial idempotent
    split = None
    for r in islice(_trial_endos(reps), _SPLIT_TRIALS):
        split = _splitting_poly(r)
        if split is not None:
            break
    if split is None:
        raise TruncationError(
            "endomorphism algebra is not local but no splitting idempotent "
            f"was found in {_SPLIT_TRIALS} trial endomorphisms: no trial's "
            "characteristic polynomial has a rational root splitting it"
        )
    comp = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(split)]
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
    slot_order = sorted(
        range(M.rank), key=lambda i: (_vertex_key(M.slots[i]), i)
    )
    # coordinates in slot order, so that a pivot is the first such slot
    span = Echelon()
    out = {}
    for vec, _, d in sorted(M.vectors, key=lambda g: g[2]):
        values = _generic_values(M.graph, vec, d)
        if not span.add([values[s] for s in slot_order]):
            raise TruncationError("generator set is generically dependent")
        slot = slot_order[span.pivots[-1]]
        out.setdefault(M.slots[slot], []).append(2 * d)
    return {w: sorted(ds) for w, ds in out.items()}


def ungraded_char(M: ZLattice):
    return {w: len(ds) for w, ds in graded_char(M).items()}


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
# projectives: global sections of the Braden-MacPherson sheaf
#
# P(w) is built on the lower cone [e, w], walked from w down.  The sections
# over the walked upper set U are kept as an S-basis: each section is a
# polynomial degree and its slot vectors at the vertices of U.  A stalk
# generator of degree k at x is the slot value x_1^k in one slot at x; that
# embedding is injective, S-linear and commutes with Z, so the result is an
# ordinary ZLattice.


def _quotient_rows(graph, label, d, k):
    """The sparse integer rows, over a degree-d slot, of the coordinates in
    S / h S (the `_restriction_rows` of the label key) of c, for the slot
    value c * x_1^k, held by column: (number of rows, per position of the
    slot the (row, integer) pairs it adds to).  Built once per label key
    and degrees."""
    if (label, d, k) not in graph.quotients:
        table = [[] for _ in range(_width(graph, d))]
        rows = _restriction_rows(graph, label, d - k) if d >= k else []
        if rows:
            lift = _shifts(graph, k, d - k)[0]  # positions of x_1^k * a
            for r, row in enumerate(rows):
                for q, x in enumerate(row):
                    if x:
                        table[lift[q]].append((r, x))
        graph.quotients[label, d, k] = (len(rows), table)
    return graph.quotients[label, d, k]


def _section_vector(graph, values, vertices, stalks, d):
    """A degree-d section's slot vector over the stalk slots of the
    vertices, zero where it has no value."""
    vec = []
    for y in vertices:
        vec.extend(values.get(y) or [0] * (len(stalks[y]) * _width(graph, d)))
    return vec


def _image_map(graph, up, stalks, d, width):
    """The map of a degree-d slot vector over the stalk slots of the
    vertices above, in `up`'s order, to the product of the quotients
    B^y / h_E B^y, each target slot's by its `_quotient_rows`: per position
    of the vector, the first row of its slot and the (row, integer) pairs;
    the number of rows; and per edge E up to y, (y, its first row, the row
    after its last)."""
    bases, cols, spans, nq = [], [], [], 0
    for y, label in up:
        start = nq
        for k in stalks[y]:
            n, table = _quotient_rows(graph, label, d, k)
            bases += [nq] * width
            cols += table
            nq += n
        spans.append((y, start, nq))
    return bases, cols, nq, spans


def _image(bases, cols, nq, vec):
    """A slot vector through an `_image_map`, by its nonzero entries."""
    out = [0] * nq
    for pos in compress(count(), vec):
        x, base = vec[pos], bases[pos]
        for r, c in cols[pos]:
            out[base + r] += c * x
    return out


def _in_slots(place, coords, size):
    """The slot vector of size `size` over the stalk at x with the given
    coordinates, the one at column j placed at place[j] (None: no slot)."""
    out = [0] * size
    for pos, c in zip(place, coords):
        if c and pos is not None:
            out[pos] = c
    return out


def _glue(graph, x, up, stalks, sections, bound):
    """The sections over U and x, from those over U: B^x is free on the
    minimal generators of M_x, and a section over U with image m glues to
    the element of B^x with image m.  `up` holds, per edge E from x up to
    y, the pair of y and the `_label` of h_E.  Sets stalks[x].

    One elimination per degree d, of the rows [image | B^x coordinates] of
    the multiples m_p * b_t of the generators found in lower degrees, the
    images through one `_image_map` per degree.  Each section of degree d,
    with a coordinate column of its own, is reduced against them once: an
    image left nonzero makes it the next generator b_t (its row is added,
    stalks[x] grows, and the slot vectors at x made before get b_t's zero
    slots), otherwise c times the section glues to minus the B^x
    coordinates of its reduced row.  So every section over U glues, and
    B^x maps onto M_x, by construction.

    Certified within the polynomial degree bound: (a) on every edge E from
    x up to y, B^x -> B^y / h_E B^y is onto in every degree; (b) the kernel
    K_x of B^x -> M_x (the rows with a zero image) has exactly r_x = rank
    B^x minimal generators, generically independent, with degrees adding up
    to the degrees of B^x plus the ranks r_y over the edges.  Localised at
    h_E, (a) gives K_x index h_E^(r_y) in B^x, so by (b) K_x is generated
    within the bound, and the new sections are the old ones glued plus K_x
    at x.

    (a) is checked in the degrees of B^y's generators only: the image of
    B^x in B^y / h_E B^y is an S-submodule, so once it holds the classes of
    B^y's generators it is onto in every degree.  The rows of the
    elimination whose pivots lie in E's columns are triangular on those
    pivot columns, so as many such pivots as columns is full rank; with
    fewer, the rank is computed.  K_x's minimal generators are found degree
    by degree, and the degrees stop at the first D that is at least every
    section degree and every stalk degree of the y above x and at which the
    generators found so far pass (b).  The localisation argument holds for
    any submodule N of K_x that passes (b): its determinant, nonzero of
    degree sum_E r_y, is a multiple of K_x's, which prod_E h_E^(r_y)
    divides, so the two differ by a unit, N = K_x and no later degree adds
    a generator."""
    where = f"Braden-MacPherson stalk at {word_str(x)} (degree bound {bound})"
    above = [y for y, _ in up]
    stalk, stalks[x] = [], []  # B^x's generators, over the target slots
    glued = {}
    last = max([d for d, _ in sections] + [k for y in above for k in stalks[y]])
    edge_ranks = sum(len(stalks[y]) for y in above)  # the r_y over the edges
    kgens = []  # K_x's minimal generators, in increasing degree
    by_degree = {}  # degree -> its sections
    for i, (d, _) in enumerate(sections):
        by_degree.setdefault(d, []).append(i)

    for d in range(bound + 1):
        width = _width(graph, d)
        bases, cols, nq, spans = _image_map(graph, up, stalks, d, width)
        basis = list(_multiples(graph, stalk, d))  # m_p * b_t
        own = by_degree.get(d, [])
        ncols = len(basis) + len(own)
        # coordinate columns: m_p * b_t, then one per section of degree d;
        # place[j] is column j's slot position at x, once it has one
        place = [t * width + shift[0] for t, dt in enumerate(stalks[x])
                 for shift in _shifts(graph, d - dt, dt)] + [None] * len(own)
        aug = Echelon()
        for j, (_, _, vec) in enumerate(basis):
            row = _image(bases, cols, nq, vec) + [0] * ncols
            row[nq + j] = 1
            aug.add(row)

        for j, i in enumerate(own, len(basis)):
            values = sections[i][1]
            vec = _section_vector(graph, values, above, stalks, d)
            row = _image(bases, cols, nq, vec) + [0] * ncols
            row[nq + j] = 1
            rest = aug.reduce(row)
            if any(rest[:nq]):  # the next generator b_t glues to b_t
                aug.add(rest)
                place[j] = len(stalk) * width
                stalk.append((vec, 1, d))
                stalks[x].append(d)
                # slot-major: K_x's generators get b_t's zero slot last
                kgens = [(v + [0] * _width(graph, dg), 1, dg) for v, _, dg in kgens]
                c, coords = 1, row[nq:]
            else:  # c * section i glues to minus rest's coordinates
                c, coords = rest[nq + j], [-a for a in rest[nq:]]
            lifted = {y: [c * a for a in v] for y, v in values.items()}
            lifted[x] = _in_slots(place, coords, len(stalk) * width)
            g = gcd(*(a for v in lifted.values() for a in v))
            glued[i] = {y: [a // g for a in v] for y, v in lifted.items()} if g > 1 else lifted

        for y, start, stop in spans:  # (a): each edge's columns have full rank
            if d in stalks[y] and sum(start <= p < stop for p in aug.pivots) < stop - start:
                found = len(Echelon(row[start:stop] for row in aug.rows).rows)
                if found != stop - start:
                    raise TruncationError(
                        f"{where}: B^x has rank {found} in B^y / h B^y for the edge "
                        f"up to {word_str(y)} in degree {d}, expected {stop - start}"
                    )

        r = len(stalk)
        kernel = [_in_slots(place, row[nq:], r * width)
                  for row, p in zip(aug.rows, aug.pivots) if p >= nq]
        if kernel:
            kgens += _kept(graph, kgens, [(vec, 1, d) for vec in kernel], d)
        expected = (r, r, sum(stalks[x]) + edge_ranks)
        if d >= last and len(kgens) == r and _certificate(graph, kgens) == expected:
            break
    else:  # (b) never closed
        raise TruncationError(
            f"{where}: the kernel of B^x -> M_x has (generators, generic rank, "
            f"degree sum) {_certificate(graph, kgens)}, expected {expected}"
        )
    out = [(d, {**glued[i], x: _padded(graph, glued[i][x], d, r)})
           for i, (d, _) in enumerate(sections)]
    return out + [(d, {x: vec}) for vec, _, d in kgens]


def _padded(graph, vec, d, r):
    """A degree-d slot vector at x with zero slots appended up to r."""
    return vec + [0] * (r * _width(graph, d) - len(vec))


def _edges_up(graph):
    """Per vertex x, its edges up as (y, the `_label` of h_E), sorted by
    `_vertex_key` of y; built once per graph."""
    if graph.edges_up is None:
        table = {x: [] for x in graph.vertices}
        for edge, h in graph.edges.items():
            x, y = sorted(edge, key=_vertex_key)
            table[x].append((y, _label(graph, h)))
        for up in table.values():
            up.sort(key=lambda yh: _vertex_key(yh[0]))
        graph.edges_up = table
    return graph.edges_up


def identify_projective(graph: MomentGraphBlock, w) -> ZLattice:
    """P(w), the global sections of the Braden-MacPherson sheaf on [e, w]
    (Braden-MacPherson, Math. Ann. 321, 2001; Fiebig, Adv. Math. 217, 2008).

    Walks the vertices from w down in reverse (length, ShortLex) order.  The
    stalk at w is S; at x < w, M_x is the image of the sections over the
    vertices walked so far in the quotients B^y / h_E B^y over the edges E
    from x up to y, the stalk B^x is free on its minimal homogeneous
    generators, and `_glue` adds x to the sections, certified within the
    polynomial degree bound l(w).  The sections are an S-basis, hence
    minimal; sorted by degree they are the generators, and the lattice is
    certified free of rank sum_x rank B^x."""
    block = graph.block
    if block.stab_order != 1:
        raise UnsupportedError("Braden-MacPherson sections need a regular block")
    top = block.coxeter_system.element(w)
    if top.word not in block.orbit:
        raise TruncationError(outside_the_length_bound(block, top.word))
    cone = sorted((x.word for x in lower_cone(top)), key=_vertex_key)
    inside, table = set(cone), _edges_up(graph)
    stalks = {top.word: [0]}
    sections = [(0, {top.word: [1]})]
    for x in reversed(cone[:-1]):
        up = [(y, label) for y, label in table[x] if y in inside]
        sections = _glue(graph, x, up, stalks, sections, top.length)
    gens = sorted(
        ((_section_vector(graph, v, cone, stalks, d), 1, d) for d, v in sections),
        key=lambda g: g[2],
    )
    slots = [x for x in cone for _ in stalks[x]]
    what = f"P({word_str(top.word)}) on {len(slots)} slots"
    return _certified_lattice(graph, slots, gens, len(slots), what)


def invariant_structure_algebra(
    graph: MomentGraphBlock, vertex_words, s: int
) -> ZLattice:
    """The coset-invariant subalgebra Z^s on an s-closed vertex set: the
    classes of Z (`structure_algebra`) that are nonzero and constant on
    every right coset {w, ws} there, restricted to it.  On a lower Bruhat
    ideal of a regular block these are the Schubert classes xi^v with
    vs > v, pulled back from G/P_s.

    Z^s is the structure algebra of the graph on the cosets, whose edges
    are the edges joining different cosets, paired up by w - x <-> ws - xs.
    The classes' minimal generators are certified by count, generic rank
    and degree sum (see `_certified_lattice`), so a vertex set on which they do
    not span Z^s fails loudly."""
    system = graph.block.coxeter_system
    vertex_words = sorted(vertex_words, key=_vertex_key)
    coset = {w: frozenset({w, system.word_times(w, s)}) for w in vertex_words}
    if not all(c <= coset.keys() for c in coset.values()):
        raise TruncationError("vertex set is not closed under the wall")
    cosets = set(coset.values())
    cross = sum(1 for edge in graph.edges
                if edge <= coset.keys() and len({coset[w] for w in edge}) == 2)
    algebra = structure_algebra(graph)
    index = {w: i for i, w in enumerate(algebra.slots)}
    kept = []
    for vec, den, k in algebra.vectors:
        values = {w: _restrict(graph, vec, k, [index[w]]) for w in vertex_words}
        if any(map(any, values.values())) and all(
            values[a] == values[b] for a, b in map(tuple, cosets)
        ):
            kept.append(([x for w in vertex_words for x in values[w]], den, k))
    n = len(cosets)
    what = f"invariant subalgebra on {n} cosets"
    return _certified_lattice(graph, vertex_words, minimal_generators(graph, kept), n,
                              what, cross // 2)


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
        ws = system.word_times(w, s)
        return min((w, ws), key=_vertex_key)

    closure = set(M.slots) | {system.word_times(w, s) for w in M.slots}
    algebra = invariant_structure_algebra(graph, closure, s)
    merged = ZLattice.from_vectors(graph, tuple(rep(w) for w in M.slots), M.vectors)
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
        "slots": [word_str(w) for w in M.slots],
        "generators": [
            {"degree": d, "entries": [str(p) for p in g]}
            for g, d in zip(M.generators, M.degrees)
        ],
    }
