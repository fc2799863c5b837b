"""Structure algebra, graded lattices, translation, decomposition."""

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import poly_graded
from congruence_algebra import congruence_rows, grown_algebra
from blocko import blocks, coxeter, kl, linalg, poly, rootdata, zmod
from blocko.errors import CriticalityError, TruncationError, UnsupportedError
from blocko.poly import Poly, divisible_by_linear
from blocko.zmod import (
    ZLattice,
    bott_samelson,
    compose,
    decompose,
    graded_char,
    hom_graded,
    identify_projective,
    invariant_structure_algebra,
    isomorphic_up_to_shift,
    lattice_contains,
    moment_graph,
    singular_reduce,
    structure_algebra,
    theta_s,
    ungraded_char,
    verma_zmodule,
    zlattice_to_json,
)

from bs_projectives import projective_summand, reference_projective
from lattice_homs import chars_equal, homs_equal, identity_hom
from height_cut_graph import form_root_form, height_cut_edges
from conftest import A1_AFFINE, A2, A2_AFFINE, A3, A4, B2, B3, G2, weight


@pytest.fixture(scope="module")
def a1_graph():
    cartan = rootdata.cartan_datum([[2]])
    return moment_graph(blocks.block_data(cartan, weight(cartan, 0)))


@pytest.fixture(scope="module")
def a2_graph():
    cartan = rootdata.cartan_datum([[2, -1], [-1, 2]])
    return moment_graph(blocks.block_data(cartan, weight(cartan, 0, 0)))


def test_a1_moment_graph_shape(a1_graph):
    assert a1_graph.vertices == [(), (0,)]
    assert len(a1_graph.edges) == 1


def test_a1_structure_algebra_basis(a1_graph):
    z = structure_algebra(a1_graph)
    assert z.degrees == [0, 2]
    const, top = z.generators
    assert [str(p) for p in const] == ["1", "1"]
    # degree-2 generator is (h, 0) up to unimodular change over the constants
    assert top[0] != top[1]
    (edge_label,) = a1_graph.edges.values()
    assert divisible_by_linear(top[0] - top[1], edge_label)


def test_structure_algebra_rank_equals_vertex_count(a1_graph, a2_graph):
    assert structure_algebra(a1_graph).rank == 2
    assert len(structure_algebra(a1_graph).generators) == 2
    z = structure_algebra(a2_graph)
    assert z.rank == 6
    assert len(z.generators) == 6


def test_structure_algebra_edge_divisibility(a2_graph):
    z = structure_algebra(a2_graph)
    index = {w: i for i, w in enumerate(z.slots)}
    for key, label in a2_graph.edges.items():
        a, b = tuple(key)
        for gen in z.generators:
            assert divisible_by_linear(gen[index[a]] - gen[index[b]], label)


def test_structure_algebra_closed_under_products(a2_graph):
    z = structure_algebra(a2_graph)
    for g, dg in zip(z.generators, z.degrees):
        for h, dh in zip(z.generators, z.degrees):
            prod = tuple(p * q for p, q in zip(g, h))
            assert lattice_contains(z, prod, (dg + dh) // 2)


def _graph(matrix, *coords, length_bound=blocks.DEFAULT_LENGTH_BOUND):
    cartan = rootdata.cartan_datum(matrix)
    block = blocks.block_data(
        cartan, weight(cartan, *coords), length_bound=length_bound
    )
    return moment_graph(block)


# (Cartan matrix, weight, length bound) of blocks whose graphs the height-cut
# reference finds whole at height bound 60, regular and singular
REFERENCE_BLOCKS = {
    "A2": (A2, (0, 0), 8),
    "B2": (B2, (0, 0), 8),
    "G2": (G2, (0, 0), 8),
    "A3": (A3, (0, 0, 0), 8),
    "B3": (B3, (0, 0, 0), 9),
    "A1~": (A1_AFFINE, (0, 0), 8),
    "A2~": (A2_AFFINE, (0, 0, 0), 6),
    "G2(1/3,0)": (G2, ("1/3", 0), 8),
    "A3(0,-1,0)": (A3, (0, -1, 0), 8),
    "A3(-1,0,-1)": (A3, (-1, 0, -1), 8),
    "A3(-1,-1,0)": (A3, (-1, -1, 0), 8),
    "B2(-1,0)": (B2, (-1, 0), 8),
    "G2(0,-1)": (G2, (0, -1), 8),
    "B3(0,-1,0)": (B3, (0, -1, 0), 9),
}
# blocks without sum l(v) edges: singular blocks whose stabilizer is not a
# standard parabolic subgroup of W(lambda) (A2 (0, -2) has the vertices e, 1
# and 2, and an edge 1 - 2)
OTHER_BLOCKS = {
    "A2(0,-2)": (A2, (0, -2), 8),
    "B2(1,-3)": (B2, (1, -3), 8),
    "G2(1,-3)": (G2, (1, -3), 8),
    "A3(0,-2,1)": (A3, (0, -2, 1), 8),
    "A1~(2,-3)": (A1_AFFINE, (2, -3), 8),
    "A2~(1,-3,0)": (A2_AFFINE, (1, -3, 0), 6),
}
# critical blocks, which Fiebig's theorem leaves out: no chamber, and
# translations can fix their weights (A2~ (2, -3, -2) has an infinite
# stabilizer, and 64 elements of length 6 or less reach 56 weights)
CRITICAL_BLOCKS = {
    "A1~(-1,-1)": (A1_AFFINE, (-1, -1), 4),
    "A1~(0,-2)": (A1_AFFINE, (0, -2), 5),
    "A2~(0,-2,-1)": (A2_AFFINE, (0, -2, -1), 4),
    "A2~(2,-3,-2)": (A2_AFFINE, (2, -3, -2), 4),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_BLOCKS) + sorted(OTHER_BLOCKS))
def test_moment_graph_matches_the_height_cut_reference(case):
    matrix, coords, length_bound = {**REFERENCE_BLOCKS, **OTHER_BLOCKS}[case]
    cartan = rootdata.cartan_datum(matrix)
    block = blocks.block_data(cartan, weight(cartan, *coords), length_bound=length_bound)
    graph = moment_graph(block)
    assert graph.edges == height_cut_edges(block, 60)
    if case in REFERENCE_BLOCKS:
        # each vertex v has l(v) edges down
        assert len(graph.edges) == sum(map(len, graph.vertices))


@pytest.mark.parametrize("case", sorted(CRITICAL_BLOCKS))
def test_moment_graph_refuses_a_critical_block(case):
    matrix, coords, length_bound = CRITICAL_BLOCKS[case]
    cartan = rootdata.cartan_datum(matrix)
    block = blocks.block_data(cartan, weight(cartan, *coords), length_bound=length_bound)
    # the block itself is still reported, as critical
    assert blocks.is_critical(block)
    assert blocks.block_to_json(block)["critical"] is True
    with pytest.raises(CriticalityError, match="^moment graphs need a non-critical"):
        moment_graph(block)


@pytest.mark.parametrize("matrix", [
    A2, B2, G2, B3, A1_AFFINE, A2_AFFINE,
    [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],  # C2~
    [[2, -4], [-1, 2]],  # A2^(2)
    [[2, -2, 0], [-1, 2, -1], [0, -2, 2]],  # D3^(2)
], ids=["A2", "B2", "G2", "B3", "A1~", "A2~", "C2~", "A2^(2)", "D3^(2)"])
def test_root_form_agrees_with_the_invariant_form(matrix):
    cartan = rootdata.cartan_datum(matrix)
    for beta in rootdata.build_root_system(cartan, 12).positive_roots:
        assert zmod.root_form(cartan, beta) == form_root_form(cartan, beta)


def _restriction_rows(graph, h, d):
    """Per degree-d monomial m free of h's first variable, the coefficients
    at m of `poly.restrict_to_hyperplane` of every degree-d monomial."""
    monos = zmod._monomials(graph, d)[0]
    images = [poly.restrict_to_hyperplane(Poly(graph.nvars, {m: Fraction(1)}), h)
              for m in monos]
    var = next(i for m in h.terms for i, e in enumerate(m) if e)
    return [linalg.integral([p.terms.get(m, 0) for p in images])[0]
            for m in monos if not m[var]]


# the reference blocks and non-integral blocks, whose labels are other roots
LABEL_BLOCKS = {
    **REFERENCE_BLOCKS,
    "B2(0,1/2)": (B2, (0, "1/2"), 8),
    "A1~(1/3,0)": (A1_AFFINE, ("1/3", 0), 8),
}


@pytest.mark.parametrize("case", ["A2", "B2", "G2", "A3", "B3", "A1~", "A2~", "G2(1/3,0)",
                                  "B2(0,1/2)", "A1~(1/3,0)"])
def test_annihilator_rows_are_the_restriction_to_the_label(case):
    matrix, coords, length_bound = LABEL_BLOCKS[case]
    graph = _graph(matrix, *coords, length_bound=length_bound)
    for h in set(graph.edges.values()):
        for d in range(9):
            label = zmod._label(graph, h)
            assert zmod._restriction_rows(graph, label, d) == _restriction_rows(graph, h, d)


@pytest.mark.parametrize("case", sorted(LABEL_BLOCKS))
def test_quotient_rows_are_the_restriction_rows_by_column(case):
    """`_quotient_rows(graph, label, d, k)` holds the restriction rows of
    degree d - k by column, each at the position of x_1^k a for the
    degree-(d - k) monomial a of its entry."""
    matrix, coords, length_bound = LABEL_BLOCKS[case]
    graph = _graph(matrix, *coords, length_bound=length_bound)
    for h in set(graph.edges.values()):
        label = zmod._label(graph, h)
        for d, k in itertools.product(range(7), range(3)):
            rows = _restriction_rows(graph, h, d - k) if d >= k else []
            index = zmod._monomials(graph, d)[1]
            want = [[] for _ in index]
            for r, row in enumerate(rows):
                for a, x in zip(zmod._monomials(graph, d - k)[0], row):
                    if x:
                        want[index[(a[0] + k,) + a[1:]]].append((r, x))
            assert zmod._quotient_rows(graph, label, d, k) == (len(rows), want)


@pytest.mark.parametrize(
    "matrix, coords, length_bound, count",
    [
        (A1_AFFINE, ("1/3", 0), 6, 42),
        (A1_AFFINE, ("1/2", 0), 8, 72),
        (A2_AFFINE, ("1/2", 0, 0), 8, 612),
    ],
    ids=["A1~(1/3,0)", "A1~(1/2,0)", "A2~(1/2,0,0)"],
)
def test_moment_graph_keeps_the_edges_the_default_height_bound_cut(
    matrix, coords, length_bound, count
):
    # the height-cut reference at height bound 20 finds 33, 60 and 593
    graph = _graph(matrix, *coords, length_bound=length_bound)
    cut = height_cut_edges(graph.block, 20)
    assert len(graph.edges) == sum(map(len, graph.vertices)) == count > len(cut)
    assert graph.edges.items() >= cut.items()


def _random_subset(matrix, seed):
    graph = _graph(matrix, 0, 0)
    rng = random.Random(seed)
    return graph, rng.sample(graph.vertices, rng.randint(2, len(graph.vertices)))


# (graph, vertex subset for the kernel route or None for Z of the graph)
CERTIFIED = {
    "A2": lambda: (_graph(A2, 0, 0), None),
    "B2": lambda: (_graph(B2, 0, 0), None),
    "G2": lambda: (_graph(G2, 0, 0), None),
    "A3": lambda: (_graph(A3, 0, 0, 0), None),
    # words of length <= 1, but a generator of degree 4
    "A2-singular(0,-2)": lambda: (_graph(A2, 0, -2), None),
    "G2(1/3,0)": lambda: (_graph(G2, Fraction(1, 3), 0), None),
    "B2(0,1/2)": lambda: (_graph(B2, 0, Fraction(1, 2)), None),
    "A1~-length3": lambda: (_graph(A1_AFFINE, 0, 0, length_bound=3), None),
    "A1~-length5": lambda: (_graph(A1_AFFINE, 0, 0, length_bound=5), None),
    **{
        f"{name}-subset{seed}": lambda m=m, seed=seed: _random_subset(m, seed)
        for name, m in (("A2", A2), ("B2", B2))
        for seed in (1, 2, 3)
    },
}


def _generic_rank(lattice):
    point = [Fraction(p) for p in (7, 11, 13)[: lattice.graph.nvars]]
    return linalg.rank([[p.evaluate(point) for p in g] for g in lattice.generators])


def _subset_algebra(graph, words):
    """The kernel route's congruence algebra on a vertex subset."""
    words = sorted(words, key=lambda w: (len(w), w))
    edges = sum(1 for e in graph.edges if e <= set(words))
    return grown_algebra(graph, words, len(words), edges, "subset")


@pytest.mark.parametrize("case", sorted(CERTIFIED))
def test_structure_algebra_degrees_add_up_to_the_edge_count(case):
    graph, words = CERTIFIED[case]()
    z = structure_algebra(graph) if words is None else _subset_algebra(graph, words)
    vertices = set(z.slots)
    edges = [e for e in graph.edges if e <= vertices]
    assert len(z.generators) == len(vertices) == _generic_rank(z)
    assert sum(z.degrees) == 2 * len(edges)


def _check_invariant_subalgebra(graph, words, s):
    """Z^s on the s-closed vertex set: one generator per coset {w, ws},
    generically independent, of degrees adding up to the edges between
    different cosets (two per edge of the graph on the cosets)."""
    system = graph.block.coxeter_system
    z = invariant_structure_algebra(graph, words, s)
    coset = {w: frozenset({w, system.normal_form(w + (s,))}) for w in words}
    cross = [e for e in graph.edges
             if e <= coset.keys() and len({coset[w] for w in e}) == 2]
    assert len(z.generators) == len(set(coset.values())) == _generic_rank(z)
    assert sum(z.degrees) == len(cross)


@pytest.mark.parametrize("matrix", [A2, B2, G2], ids=["A2", "B2", "G2"])
@pytest.mark.parametrize("s", [0, 1])
def test_invariant_subalgebra_degrees_add_up_to_the_cross_coset_edges(matrix, s):
    graph = _graph(matrix, 0, 0)
    _check_invariant_subalgebra(graph, graph.vertices, s)


def test_invariant_subalgebra_of_a3_adds_up_to_the_cross_coset_edges():
    graph = _graph(A3, 0, 0, 0)
    for s in range(3):
        _check_invariant_subalgebra(graph, graph.vertices, s)


def test_invariant_subalgebra_on_affine_lower_ideals():
    # [e, x] is s-closed when xs < x: its closure is [e, x * s] = [e, x]
    graph = _graph(A1_AFFINE, 0, 0, length_bound=6)
    system = graph.block.coxeter_system
    for x in graph.vertices[1:]:
        cone = [y.word for y in coxeter.lower_cone(system.element(x))]
        _check_invariant_subalgebra(graph, cone, x[-1])


def test_invariant_subalgebra_fails_loudly_where_the_classes_do_not_span():
    # an s-closed set of A3 that is no lower ideal: it has 4 cosets, but the
    # classes of Z constant on them have 5 minimal generators, so they span
    # a lattice that is not Z^s
    graph = _graph(A3, 0, 0, 0)
    words = [(1, 2), (2, 1), (0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 1, 0, 2),
             (0, 1, 0, 2, 1), (0, 1, 0, 2, 1, 0)]
    with pytest.raises(TruncationError, match="^invariant subalgebra on 4 cosets "
                       "produced 5 generators, not 4$"):
        invariant_structure_algebra(graph, words, 0)


@pytest.mark.parametrize("off", [-1, 1])
def test_an_edge_count_off_by_one_is_not_certified(a2_graph, off):
    words = a2_graph.vertices
    gens = structure_algebra(a2_graph).vectors
    edges = len(a2_graph.edges)
    with pytest.raises(UnsupportedError, match="not free"):
        zmod._certified_lattice(a2_graph, words, gens, len(words), "A2", edges + off)


def test_structure_algebra_is_stored_on_the_graph(a2_graph):
    z = structure_algebra(a2_graph)
    assert structure_algebra(a2_graph) is z is a2_graph.algebra
    assert z.slots == tuple(a2_graph.vertices)


# ---------------------------------------------------------------------------
# Schubert classes against the kernel route (tests/congruence_algebra.py)

SCHUBERT_GRAPHS = {
    "A2": lambda: _graph(A2, 0, 0),
    "B2": lambda: _graph(B2, 0, 0),
    "G2": lambda: _graph(G2, 0, 0),
    "A3": lambda: _graph(A3, 0, 0, 0),
    "B3-length5": lambda: _graph(B3, 0, 0, 0, length_bound=5),
    "A1~-length6": lambda: _graph(A1_AFFINE, 0, 0, length_bound=6),
    "A2~-length4": lambda: _graph(A2_AFFINE, 0, 0, 0, length_bound=4),
    "G2(1/3,0)": lambda: _graph(G2, Fraction(1, 3), 0),
    "B2(0,1/2)": lambda: _graph(B2, 0, Fraction(1, 2)),
    # singular: dominant, antidominant and interior bases, whole or cut
    "A2(0,-1)": lambda: _graph(A2, 0, -1),
    "A2(0,-2)": lambda: _graph(A2, 0, -2),
    "A2(-2,-1)": lambda: _graph(A2, -2, -1),
    "B2(-1,0)": lambda: _graph(B2, -1, 0),
    "G2(0,-1)": lambda: _graph(G2, 0, -1),
    "G2(1,-3)": lambda: _graph(G2, 1, -3),
    "A3(0,-1,0)": lambda: _graph(A3, 0, -1, 0),
    "A3(-1,0,-1)": lambda: _graph(A3, -1, 0, -1),
    "A3(0,-2,1)": lambda: _graph(A3, 0, -2, 1),
    "A1~(2,-3)-length6": lambda: _graph(A1_AFFINE, 2, -3, length_bound=6),
    "A1~(-2,-1)-length6": lambda: _graph(A1_AFFINE, -2, -1, length_bound=6),
    "A2~(0,-1,0)-length4": lambda: _graph(A2_AFFINE, 0, -1, 0, length_bound=4),
    # stabilizer order 6
    "A2~(-2,-1,-1)-length4": lambda: _graph(A2_AFFINE, -2, -1, -1, length_bound=4),
    "A3(-2,-1,-2)-length3": lambda: _graph(A3, -2, -1, -2, length_bound=3),
    "B2(-3,-1)-length2": lambda: _graph(B2, -3, -1, length_bound=2),
}


def _contains(M, N):
    """Does the lattice M contain every generator of N?"""
    by_degree = {}
    for vec, _, d in N.vectors:
        by_degree.setdefault(d, []).append(vec)
    for d, vecs in by_degree.items():
        span = linalg.Echelon(v for _, _, v in zmod._multiples(M.graph, M.vectors, d))
        if any(any(span.reduce(vec)) for vec in vecs):
            return False
    return True


@pytest.mark.parametrize("case", sorted(SCHUBERT_GRAPHS))
def test_schubert_classes_and_the_kernel_route_contain_each_other(case):
    graph = SCHUBERT_GRAPHS[case]()
    z = structure_algebra(graph)
    ref = grown_algebra(graph, graph.vertices, len(graph.vertices), len(graph.edges), case)
    assert z.slots == ref.slots
    assert _contains(z, ref) and _contains(ref, z)


def _schubert_route_calls(monkeypatch):
    calls = []
    schubert = zmod._schubert_algebra

    def counted(graph, what):
        calls.append(graph)
        return schubert(graph, what)

    monkeypatch.setattr(zmod, "_schubert_algebra", counted)
    return calls


def test_a_lower_ideal_takes_the_schubert_classes(monkeypatch):
    calls = _schubert_route_calls(monkeypatch)
    z = structure_algebra(_graph(G2, 0, 0))
    # xi^v in (length, ShortLex) order of v, of degree 2 l(v)
    assert z.degrees == [2 * len(v) for v in z.slots]
    assert [str(p) for p in z.generators[0]] == ["1"] * z.rank
    assert len(calls) == 1


def test_an_interior_singular_graph_takes_the_schubert_classes(monkeypatch):
    """A2 (0, -2) is interior to its orbit: the vertices e, 1 and 2 have
    the chamber-walk words 2, 1 2 and e, and each class xi^{m(v)} has
    degree 2 l(m(v))."""
    graph = _graph(A2, 0, -2)
    calls = _schubert_route_calls(monkeypatch)
    z = structure_algebra(graph)
    assert calls == [graph]
    assert [graph.billey[v][0] for v in z.slots] == [(1,), (0, 1), ()]
    assert z.degrees == [2, 4, 0]
    assert len(z.generators) == z.rank == _generic_rank(z)
    assert sum(z.degrees) == 2 * len(graph.edges)


def test_simple_roots_in_place_of_the_inversion_roots_fail(monkeypatch):
    """With r_j replaced by alpha_{a_j}, the G2 vertex s1 s2 would have an
    edge up to s2 s1 s2 in place of its edge down to s1."""
    monkeypatch.setattr(zmod, "reflect_root", lambda beta, gamma: gamma)
    with pytest.raises(TruncationError, match="Billey's roots of the word 1 2 "
                       "are not 2 inversions of vertex 1 2$"):
        _graph(G2, 0, 0)


def test_simple_roots_in_place_of_the_chamber_walk_roots_fail(monkeypatch):
    """On A2 (0, -2) the chamber walk from the vertex 1 has the word 1 2;
    alpha_2 in place of s_1(alpha_2) lies on the near side."""
    monkeypatch.setattr(zmod, "reflect_root", lambda beta, gamma: gamma)
    with pytest.raises(TruncationError, match="Billey's roots of the word 1 2 "
                       "are not 2 inversions of vertex 1$"):
        _graph(A2, 0, -2)


def test_a_wrong_edge_label_breaks_a_schubert_congruence():
    """The Schubert classes read h_{r_l} from the Billey roots of each word;
    with alpha_2 in place of r_2 for the G2 word 1 2, they keep their count,
    generic rank and degree sum, and the edge congruences catch them.  The
    congruences read the labels of the graph's edges: h_{alpha_2} on the
    edge 1 2 - 1 breaks them too."""
    graph = _graph(G2, 0, 0)
    word, roots = graph.billey[(0, 1)]
    graph.billey[(0, 1)] = (word, [roots[0], graph.block.integral_simples[1]])
    with pytest.raises(TruncationError, match="Schubert class at 2 breaks the "
                       "congruence on the edge 1 - 1 2$"):
        structure_algebra(graph)
    graph = _graph(G2, 0, 0)
    graph.edges[frozenset({(0, 1), (0,)})] = graph.edges[frozenset({(1,), ()})]
    with pytest.raises(TruncationError, match="Schubert class at 2 breaks the "
                       "congruence on the edge 1 - 1 2$"):
        structure_algebra(graph)


def test_verma_zmodule_is_rank_one(a2_graph):
    m = verma_zmodule(a2_graph, (0,))
    assert m.slots == ((0,),)
    assert m.degrees == [0]


def test_theta_on_verma_gives_interval_algebra(a1_graph):
    m = verma_zmodule(a1_graph, ())
    t = theta_s(m, 0)
    z = structure_algebra(a1_graph)
    assert sorted(t.slots) == sorted(z.slots)
    assert sorted(t.degrees) == sorted(z.degrees)
    # mutual containment: same lattice, not only same character
    for gen, d in zip(t.generators, t.degrees):
        assert lattice_contains(z, gen, d // 2)
    for gen, d in zip(z.generators, z.degrees):
        assert lattice_contains(t, gen, d // 2)


def _check_theta_rank_and_vertex_law(graph, word):
    system = graph.block.coxeter_system
    for s in (0, 1):
        m = verma_zmodule(graph, word)
        t = theta_s(m, s)
        assert t.rank == 2 * m.rank
        n_old = Counter(m.slots)
        n_new = Counter(t.slots)
        for w in set(n_new):
            ws = system.normal_form(w + (s,))
            assert n_new[w] == n_old.get(w, 0) + n_old.get(ws, 0)


@pytest.mark.parametrize("word", [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)])
def test_theta_rank_and_vertex_law(a2_graph, word):
    _check_theta_rank_and_vertex_law(a2_graph, word)


@pytest.mark.parametrize("matrix", [B2, G2], ids=["B2", "G2"])
def test_theta_rank_and_vertex_law_on_b2_and_g2(matrix):
    graph = _graph(matrix, 0, 0)
    for word in graph.vertices:
        _check_theta_rank_and_vertex_law(graph, word)


THETA_GRAPHS = {
    "A2": lambda: _graph(A2, 0, 0),
    "B2": lambda: _graph(B2, 0, 0),
    "G2": lambda: _graph(G2, 0, 0),
    "A1~": lambda: _graph(A1_AFFINE, 0, 0, length_bound=5),
    "G2(1/3,0)": lambda: _graph(G2, Fraction(1, 3), 0),
}


@pytest.mark.parametrize("case", sorted(THETA_GRAPHS))
def test_theta_is_stable_under_the_kernel_route_algebra_of_its_wall_closure(case):
    """theta_s M multiplies the doubled M by the classes of the graph's Z.
    Against the congruence algebra of the wall closure, from the kernel
    route: theta_s M contains the doubled M and is stable under that
    algebra, for the Verma lattice at every vertex (whose closure {w, ws}
    is no lower ideal) and for the Bott-Samelson lattices of words of
    length at most 3."""
    graph = THETA_GRAPHS[case]()
    system = graph.block.coxeter_system
    letters = range(len(graph.block.integral_simples))
    lattices = [verma_zmodule(graph, w) for w in graph.vertices] + [
        bott_samelson(graph, word) for k in range(3)
        for word in itertools.product(letters, repeat=k)
    ]
    for M, s in itertools.product(lattices, letters):
        closure = sorted(set(M.slots) | {system.word_times(w, s) for w in M.slots},
                         key=lambda w: (len(w), w))
        if not graph.block.orbit.keys() >= set(closure):
            continue  # the top of a truncated orbit
        T = theta_s(M, s)
        gens = T.vectors
        spans = {}

        def contains(vec, d):
            if d not in spans:
                spans[d] = linalg.Echelon(v for _, _, v in zmod._multiples(graph, gens, d))
            return not any(spans[d].reduce(vec))

        sources = [j for w in closure for v in (w, system.word_times(w, s))
                   for j, u in enumerate(M.slots) if u == v]
        for vec, _, d in M.vectors:
            assert contains(zmod._restrict(graph, vec, d, sources), d)
        at = [closure.index(w) for w in T.slots]
        for z, _, zd in _subset_algebra(graph, closure).vectors:
            for t, _, td in gens:
                product = zmod._slot_product(graph, z, zd, at, t, td, range(T.rank))
                assert contains(product, zd + td)


def test_theta_rejects_bad_wall(a2_graph):
    cartan = a2_graph.block.cartan
    singular = blocks.block_data(cartan, weight(cartan, 0, -1))
    graph = moment_graph(singular)
    with pytest.raises(UnsupportedError):
        theta_s(verma_zmodule(graph, ()), 0)


def test_bott_samelson_ranks(a2_graph):
    assert bott_samelson(a2_graph, (0,)).rank == 2
    assert bott_samelson(a2_graph, (0, 1)).rank == 4
    assert bott_samelson(a2_graph, (0, 1, 0)).rank == 8


@pytest.mark.parametrize("k", [-1, 2])
def test_bott_samelson_refuses_a_letter_outside_the_generators(a2_graph, k):
    with pytest.raises(ValueError, match=f"generator index {k} out of range"):
        bott_samelson(a2_graph, (0, k))


def test_graded_char_of_interval_algebra(a1_graph):
    z = structure_algebra(a1_graph)
    assert graded_char(z) == {(): [0], (0,): [2]}


def test_hom_identity_and_composition(a2_graph):
    b = bott_samelson(a2_graph, (0, 1))
    endos = hom_graded(b, b, 0)
    assert len(endos) == 1  # BS(st) is indecomposable
    ident = identity_hom(b)
    u = endos[0]
    assert homs_equal(
        compose(u, ident, a2_graph.nvars), u
    )


def test_hom_graded_computes_negative_degrees():
    # A3, lambda = 0: P(2 1 3 2) has generators above those of P(2), and
    # maps into it start in degree -2
    graph = _graph(A3, 0, 0, 0)
    big, small = (identify_projective(graph, w) for w in ((1, 0, 2, 1), (1,)))
    assert [len(hom_graded(big, small, d)) for d in (-4, -2, 0)] == [0, 1, 5]
    assert hom_graded(big, small, -1) == []
    m, n = verma_zmodule(graph, ()), verma_zmodule(graph, (0,))
    for d in (-4, -2):
        assert hom_graded(m, n, d) == hom_graded(n, m, d) == []


def test_hom_between_distinct_vermas_vanishes(a2_graph):
    m = verma_zmodule(a2_graph, ())
    n = verma_zmodule(a2_graph, (0,))
    for d in range(0, 8, 2):
        assert hom_graded(m, n, d) == []
        assert hom_graded(n, m, d) == []


def test_decompose_bott_samelson_sts(a2_graph):
    b = bott_samelson(a2_graph, (0, 1, 0))
    summands = decompose(b)
    chars = sorted(
        (graded_char(s) for s in summands), key=lambda c: len(c)
    )
    assert len(summands) == 2
    assert chars[0] == {(): [2], (0,): [4]}
    assert chars[1] == {
        (): [0],
        (0,): [2],
        (1,): [2],
        (0, 1): [4],
        (1, 0): [4],
        (0, 1, 0): [6],
    }


def test_decompose_direct_sum_of_vermas(a2_graph):
    m = verma_zmodule(a2_graph, ())
    double = ZLattice(
        a2_graph,
        m.slots + m.slots,
        [g + (Poly.zero(a2_graph.nvars),) for g in m.generators]
        + [(Poly.zero(a2_graph.nvars),) + g for g in m.generators],
        m.degrees + m.degrees,
    )
    summands = decompose(double)
    assert len(summands) == 2
    assert all(graded_char(s) == graded_char(m) for s in summands)


def test_identify_projective_matches_multiplicities(a2_graph):
    block = a2_graph.block
    for word in block.orbit:
        p = identify_projective(a2_graph, word)
        got = ungraded_char(p)
        want = kl.projective_multiplicities(
            block, block.coxeter_system.element(word)
        )
        assert got == {w: n for w, n in want.items() if n}


@pytest.mark.parametrize("matrix", [A2, B2, G2], ids=["A2", "B2", "G2"])
def test_projective_is_the_one_summand_new_in_its_length(matrix):
    """The summand of BS(w) over w is the only one not isomorphic up to shift
    to a projective of smaller length (w up to length 3)."""
    cartan = rootdata.cartan_datum(matrix)
    graph = moment_graph(blocks.block_data(cartan, weight(cartan, 0, 0)))
    found = {}
    for w in graph.vertices:
        if len(w) > 3:
            break
        summands = decompose(bott_samelson(graph, w))
        shorter = [P for v, P in found.items() if len(v) < len(w)]
        new = [
            S
            for S in summands
            if not any(isomorphic_up_to_shift(S, P) for P in shorter)
        ]
        found[w] = projective_summand(summands, w)
        assert len(new) == 1 and new[0] is found[w]


@pytest.mark.parametrize(
    "matrix, max_length", [(A2, 3), (B2, 4), (G2, 3)], ids=["A2", "B2", "G2"]
)
def test_decompose_matches_the_kl_peel_of_the_bott_samelson_character(
    matrix, max_length
):
    """Every summand of BS(w) is a shifted P(y), whose graded character is
    2 l(x) + 2 i + k at x for each q^i in P_{x,y}; and the (y, k) are the
    ones that peel BS(w)'s graded character top-down by these KL columns."""
    graph = _graph(matrix, 0, 0)
    system = graph.block.coxeter_system
    table = kl.KLTable(system)

    def shifted_projective(y, k):
        char = {}
        for x in graph.vertices:
            p = table.poly(system.element(x), system.element(y))
            degrees = [
                2 * len(x) + 2 * i + k for i, c in enumerate(p) for _ in range(c)
            ]
            if degrees:
                char[x] = degrees
        return char

    for w in graph.vertices:
        if len(w) > max_length:
            continue
        M = bott_samelson(graph, w)
        got = []
        for S in decompose(M):
            char = graded_char(S)
            top = max(len(x) for x in char)
            (y,) = [x for x in char if len(x) == top]
            got.append((y, char[y][0] - 2 * len(y)))
            assert char == shifted_projective(*got[-1])
        rest = graded_char(M)
        peeled = []
        for y in reversed(graph.vertices):
            for degree in list(rest.get(y, ())):
                peeled.append((y, degree - 2 * len(y)))
                for x, degrees in shifted_projective(*peeled[-1]).items():
                    for d in degrees:
                        rest[x].remove(d)
        assert not any(rest.values())
        assert sorted(got) == sorted(peeled)


def _invertible_at_the_generic_point(U, nvars):
    point = [Fraction(p) for p in zmod._GENERIC_PRIMES[:nvars]]
    return linalg.rank([[p.evaluate(point) for p in row] for row in U]) == len(U)


@pytest.mark.parametrize("matrix", [A2, B2, G2], ids=["A2", "B2", "G2"])
def test_projectives_match_the_bott_samelson_reference(matrix):
    """Up to length 3, the Braden-MacPherson P(w) and the summand over w of
    BS(w) have one graded character, and degree-0 Homs both ways compose to
    an endomorphism of P(w) that is invertible at the generic point, so the
    two are isomorphic (End^0 of an indecomposable is local)."""
    graph = _graph(matrix, 0, 0)
    for w in graph.vertices:
        if len(w) > 3:
            break
        P, R = identify_projective(graph, w), reference_projective(graph, w)
        assert graded_char(P) == graded_char(R)
        there, back = hom_graded(P, R, 0), hom_graded(R, P, 0)
        assert any(
            _invertible_at_the_generic_point(compose(b, a, graph.nvars), graph.nvars)
            for a in there
            for b in back
        )


@pytest.mark.parametrize("matrix", [A2, B2, G2, A3], ids=["A2", "B2", "G2", "A3"])
def test_projective_of_w0_is_the_structure_algebra(matrix):
    """On a finite group, w0 is smooth and [e, w0] is every vertex: P(w0)
    and Z contain each other."""
    graph = _graph(matrix, *[0] * len(matrix))
    P, Z = identify_projective(graph, graph.vertices[-1]), structure_algebra(graph)
    assert P.slots == Z.slots
    for M, N in ((P, Z), (Z, P)):
        for gen, d in zip(M.generators, M.degrees):
            assert lattice_contains(N, gen, d // 2)


@pytest.mark.parametrize("matrix", [A2, B2, G2], ids=["A2", "B2", "G2"])
def test_sheaf_off_an_antidominant_base_is_the_tilting_module(matrix):
    """Off an antidominant base the Braden-MacPherson sheaf on [e, w] is
    T(w.lambda), and (T(w.lambda) : M(y.lambda)) = P_{y,w}(1) (Soergel,
    Represent. Theory 2, 1998): the BGG multiplicities of P(w.0) in the
    dominant block of the same W."""
    graph = _graph(matrix, *[-2] * len(matrix))
    assert graph.block.position == "antidominant"
    dominant = _graph(matrix, *[0] * len(matrix)).block
    system = dominant.coxeter_system
    for w in graph.vertices:
        assert ungraded_char(identify_projective(graph, w)) == (
            kl.projective_multiplicities(dominant, system.element(w))
        )


def _integer_route_calls(monkeypatch):
    """Count kernel_basis calls and record the entry types of every row
    Echelon.reduce receives."""
    calls, types = [], set()
    original_kernel, original_reduce = linalg.kernel_basis, linalg.Echelon.reduce

    def kernel_basis(*args):
        calls.append(args)
        return original_kernel(*args)

    def reduce(self, v):
        v = list(v)
        types.update(type(x) for x in v)
        return original_reduce(self, v)

    monkeypatch.setattr(linalg, "kernel_basis", kernel_basis)
    monkeypatch.setattr(zmod, "kernel_basis", kernel_basis)
    monkeypatch.setattr(linalg.Echelon, "reduce", reduce)
    return calls, types


@pytest.mark.parametrize("case", ["B2 P(w0)", "A1~ Z to length 3"])
def test_stalks_and_schubert_classes_run_on_integer_rows(case, monkeypatch):
    # fresh graphs: the restriction rows are built on first use
    if case == "B2 P(w0)":
        graph = _graph(B2, 0, 0)
        calls, types = _integer_route_calls(monkeypatch)
        assert identify_projective(graph, graph.vertices[-1]).rank == 8
    else:
        graph = _graph(A1_AFFINE, 0, 0, length_bound=3)
        calls, types = _integer_route_calls(monkeypatch)
        assert structure_algebra(graph).rank == 7
    assert graph.quotients
    assert calls == []
    assert types == {int}


def test_a_moment_graph_holds_only_its_declared_stores():
    graph = _graph(A2, 0, 0)
    with pytest.raises(AttributeError):
        graph.restrictions = {}
    assert not hasattr(graph, "__dict__")


def test_identify_projective_builds_no_bott_samelson_lattice(monkeypatch):
    calls = []
    for name in ("bott_samelson", "decompose", "hom_graded"):
        original = getattr(zmod, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(zmod, name, counted)
    graph = _graph(A3, 0, 0, 0)
    P = identify_projective(graph, (1, 0, 2, 1))
    assert P.rank == 16
    assert calls == []


def test_identify_projective_names_a_length_bound_that_passes():
    with pytest.raises(TruncationError) as err:
        identify_projective(_graph(A2, 0, 0, length_bound=2), (0, 1, 0))
    assert str(err.value) == (
        "vertex 1 2 1 of length 3 lies outside length bound 2; "
        "length bound 3 passes"
    )
    assert identify_projective(_graph(A2, 0, 0, length_bound=3), (0, 1, 0)).rank == 6


def test_identify_projective_gets_no_graph_of_a_critical_block():
    # at the critical level translations fix weights: in affine A2 at
    # (2, -3, -2), the element 2 3 1 2 1 reaches the weight of an earlier one,
    # so the cone of 2 3 1 2 3 1 has no vertex of its own for it
    cartan = rootdata.cartan_datum(A2_AFFINE)
    block = blocks.block_data(cartan, weight(cartan, 2, -3, -2), length_bound=6)
    top = block.coxeter_system.element((1, 2, 0, 1, 2, 0))
    assert [x.word for x in coxeter.lower_cone(top) if x.word not in block.orbit] == [
        (1, 2, 0, 1, 0)
    ]
    # block_data reports that stabilizer infinite; were it reported trivial,
    # the block would still be refused, before any cone is walked
    block.stab_order = 1
    with pytest.raises(CriticalityError, match="need a non-critical block"):
        identify_projective(moment_graph(block), top.word)


@pytest.mark.parametrize(
    "matrix, w, length_bound",
    [
        (B2, (0, 1, 0, 1), blocks.DEFAULT_LENGTH_BOUND),
        (A3, (0, 1, 0, 2, 1, 0), blocks.DEFAULT_LENGTH_BOUND),
        (A1_AFFINE, (0, 1, 0, 1), 4),
    ],
    ids=["B2 w0", "A3 w0", "A1~ 1 2 1 2"],
)
def test_stalk_degrees_stop_once_the_certificate_closes(matrix, w, length_bound,
                                                        monkeypatch):
    """At every vertex x, the degree loop eliminates no degree above the
    sections' degrees, the stalk degrees of the vertices above x and the
    degrees of K_x's generators: the loop stops once (b) holds."""
    glue, multiples = zmod._glue, zmod._multiples
    degrees, limits = [], {}

    def counted(graph, gens, d):
        degrees.append(d)
        return multiples(graph, gens, d)

    def glue_at(graph, x, up, stalks, sections, bound):
        degrees.clear()
        out = glue(graph, x, up, stalks, sections, bound)
        kernel = [d for d, _ in out[len(sections):]]
        limits[x] = max([d for d, _ in sections] + kernel
                        + [k for y, _ in up for k in stalks[y]])
        assert max(degrees) <= limits[x], x
        return out

    monkeypatch.setattr(zmod, "_multiples", counted)
    monkeypatch.setattr(zmod, "_glue", glue_at)
    graph = _graph(matrix, *[0] * len(matrix), length_bound=length_bound)
    identify_projective(graph, w)
    top = graph.block.coxeter_system.element(w)
    assert len(limits) == len(coxeter.lower_cone(top)) - 1
    assert min(limits.values()) < len(w)  # some vertex stops below the bound


def _drop_a_stalk_generator(rank, monkeypatch):
    """At the first vertex whose stalk has the given rank, zero through
    `_section_vector` the slot vector of the section that is the stalk's
    first generator in an unsabotaged run, so that the stalk misses a
    generator of M_x.  Returns the list of the vertices struck."""
    glue, section_vector = zmod._glue, zmod._section_vector
    struck, target = [], []

    def glue_at(graph, x, up, stalks, sections, bound):
        if not struck:
            trial = dict(stalks)
            out = glue(graph, x, up, trial, sections, bound)
            if len(trial[x]) == rank:
                # the first generator is the first section, by degree, with a
                # nonzero slot vector at x
                _, i = min((d, i) for i, (d, v) in enumerate(out) if any(v[x]))
                struck.append(x)
                target.append(sections[i][1])
        return glue(graph, x, up, stalks, sections, bound)

    def zeroed(graph, values, vertices, stalks, d):
        vec = section_vector(graph, values, vertices, stalks, d)
        return [0] * len(vec) if target and values is target[0] else vec

    monkeypatch.setattr(zmod, "_glue", glue_at)
    monkeypatch.setattr(zmod, "_section_vector", zeroed)
    return struck


def _zero_a_generic_value(rank, monkeypatch):
    """At the first vertex whose stalk has the given rank, zero the first
    slot of the generic values of K_x's generators, so that their generic
    rank falls short.  Returns the list of the vertices hit."""
    glue, generic_values = zmod._glue, zmod._generic_values
    hit, gluing = [], []

    def glue_at(graph, x, up, stalks, sections, bound):
        gluing.append((x, stalks))
        try:
            return glue(graph, x, up, stalks, sections, bound)
        finally:
            gluing.pop()

    def short(graph, vec, d):
        values = generic_values(graph, vec, d)
        if gluing:
            x, stalks = gluing[-1]
            if not hit and len(stalks[x]) == rank:
                hit.append(x)
            if hit == [x]:
                values[0] = 0
        return values

    monkeypatch.setattr(zmod, "_glue", glue_at)
    monkeypatch.setattr(zmod, "_generic_values", short)
    return hit


@pytest.mark.parametrize(
    "matrix, w, rank, error, sabotage",
    [
        (A2, (0, 1, 0), 1, "B\\^x has rank 0 in B\\^y / h B\\^y for the edge up to "
         "1 2 1 in degree 0, expected 1", _drop_a_stalk_generator),
        (A3, (1, 0, 2, 1), 2, "B\\^x has rank 0 in B\\^y / h B\\^y for the edge up to "
         "1 2 in degree 0, expected 1", _drop_a_stalk_generator),
        (A3, (1, 0, 2, 1), 2, "the kernel of B\\^x -> M_x has \\(generators, generic "
         "rank, degree sum\\) \\(2, 1, 5\\), expected \\(2, 2, 5\\)",
         _zero_a_generic_value),
    ],
    ids=["A2 rank-1 stalk", "A3 rank-2 stalk", "A3 short generic rank"],
)
def test_stalk_certificate_fails_loudly(matrix, w, rank, error, sabotage, monkeypatch):
    """A stalk that misses a generator of M_x, or a kernel K_x whose
    generators fall short of generic rank, fails the vertex's certificate
    instead of returning a lattice: here the sabotage strikes the first
    vertex whose stalk has the given rank.  The stalk's degree loop may stop
    early only once (b) holds, so a short generic rank still raises."""
    struck = sabotage(rank, monkeypatch)
    graph = _graph(matrix, *[0] * len(matrix))
    result = None
    with pytest.raises(TruncationError, match=f"degree bound {len(w)}\\): {error}"):
        result = identify_projective(graph, w)
    assert struck and result is None


def test_isomorphic_up_to_shift(a2_graph):
    # x_1^2 * M: a copy of M, its generator two polynomial degrees higher
    m = verma_zmodule(a2_graph, ())
    x1 = Poly(a2_graph.nvars, {(2, 0): 1})
    shifted = ZLattice(a2_graph, m.slots, [tuple(x1 * p for p in g) for g in m.generators],
                       [d + 4 for d in m.degrees])
    assert isomorphic_up_to_shift(m, shifted)
    assert not chars_equal(m, shifted)


def test_invariant_subalgebra_generator_count(a2_graph):
    closure = [(), (0,)]
    inv = invariant_structure_algebra(a2_graph, closure, 0)
    assert len(inv.generators) == 1  # one coset {e, s}
    g = inv.generators[0]
    assert g[0] == g[1]


def test_singular_reduce_splits_in_two(a2_graph):
    p = identify_projective(a2_graph, (0,))
    copies = singular_reduce(a2_graph, p, (0,))
    assert len(copies) == 2
    assert isomorphic_up_to_shift(copies[0], copies[1])
    assert all(c.rank == 1 for c in copies)


def test_zlattice_json(a1_graph):
    z = structure_algebra(a1_graph)
    report = zlattice_to_json(z)
    assert report["slots"] == ["e", "1"]
    assert [g["degree"] for g in report["generators"]] == [0, 2]


def test_the_structure_algebra_of_a4_keeps_its_digest():
    """Z of A4 at weight 0, all 120 vertices and 600 edges: its canonical
    JSON (838 KB, too large for the golden file) pinned by its sha256."""
    graph = _graph(A4, 0, 0, 0, 0, length_bound=10)
    assert (len(graph.vertices), len(graph.edges)) == (120, 600)
    text = json.dumps(zlattice_to_json(structure_algebra(graph)), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "15df594b2485fd8ffbdb2f5f64d165fd74dc355275831e2662095beebf25c19e")


def test_hom_graded_computes_action_matrices_once(a2_graph, monkeypatch):
    """End(M) reuses M's action matrices for the target; a copy of M that
    is another object gets its own, and the same Hom."""
    b = bott_samelson(a2_graph, (0,))
    calls = []
    action = zmod._action_matrices

    def counted(M, algebra):
        calls.append(M)
        return action(M, algebra)

    monkeypatch.setattr(zmod, "_action_matrices", counted)
    ends = hom_graded(b, b, 0)
    assert calls == [b]
    copy = ZLattice(a2_graph, b.slots, b.generators, b.degrees)
    assert hom_graded(b, copy, 0) == ends
    assert len(calls) == 3


def test_splitting_poly_needs_a_rational_root():
    # charpoly (x^2 - 2)(x^2 - 3): reducible, but without a rational root
    mat = [[Fraction(x) for x in row] for row in
           [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]]]
    assert zmod._charpoly_factors(mat) == ([6, 0, -5, 0, 1], [])
    assert zmod._splitting_poly(mat) is None


def test_splitting_poly_is_the_crt_idempotent():
    # diag(0, 0, -1, 2): roots ordered by multiplicity, then (q, -p) of
    # q x - p, so 2 (factor x - 2) comes before -1 (factor x + 1)
    mat = [[Fraction(int(i == j) * d) for j in range(4)]
           for i, d in enumerate((0, 0, -1, 2))]
    cp, roots = zmod._charpoly_factors(mat)
    assert cp == [0, 0, -2, -1, 1]
    assert roots == [(2, 1), (-1, 1), (0, 2)]
    # the projection onto the eigenspace of 2 along the others
    assert zmod._splitting_poly(mat) == [
        [int(i == j == 3) for j in range(4)] for i in range(4)
    ]


def test_decompose_names_its_trial_bound(a2_graph, monkeypatch):
    m = verma_zmodule(a2_graph, ())
    double = ZLattice(
        a2_graph,
        m.slots + m.slots,
        [g + (Poly.zero(a2_graph.nvars),) for g in m.generators]
        + [(Poly.zero(a2_graph.nvars),) + g for g in m.generators],
        m.degrees + m.degrees,
    )
    calls = []
    monkeypatch.setattr(zmod, "_splitting_poly", lambda r: calls.append(r))
    with pytest.raises(TruncationError, match="in 60 trial endomorphisms"):
        decompose(double)
    assert len(calls) == zmod._SPLIT_TRIALS == 60


# ---------------------------------------------------------------------------
# integer graded pieces against the Poly route (tests/poly_graded.py)

ROUTE_GRAPHS = {
    "A2": lambda: _graph(A2, 0, 0),
    "B2": lambda: _graph(B2, 0, 0),
    "G2": lambda: _graph(G2, 0, 0),
    "A1~": lambda: _graph(A1_AFFINE, 0, 0, length_bound=3),
}
_ROUTE_CACHE = {}


def _route_graph(name):
    if name not in _ROUTE_CACHE:
        _ROUTE_CACHE[name] = ROUTE_GRAPHS[name]()
    return _ROUTE_CACHE[name]


@st.composite
def _lattices(draw, graph):
    """The kernel route's algebra on a random vertex subset, or a
    Bott-Samelson lattice of a word of length at most 3."""
    if draw(st.booleans()):
        words = draw(
            st.lists(st.sampled_from(graph.vertices), min_size=1, unique=True)
        )
        try:
            return _subset_algebra(graph, words)
        except UnsupportedError:
            assume(False)
    return bott_samelson(graph, tuple(draw(st.lists(st.integers(0, 1), max_size=3))))


@st.composite
def _route_cases(draw):
    graph = _route_graph(draw(st.sampled_from(sorted(ROUTE_GRAPHS))))
    return graph, draw(_lattices(graph)), draw(_lattices(graph))


def _normalized_rows(rows):
    """Each row divided by its first nonzero entry, sorted."""
    out = []
    for row in rows:
        lead = next(x for x in row if x)
        out.append(tuple(Fraction(x) / lead for x in row))
    return sorted(out)


def _rows_into_kernel(module, call):
    """call()'s result and the rows it passed to module.kernel_incremental."""
    rows = []
    kernel = module.kernel_incremental

    def capture(gen, ncols):
        captured = list(gen)
        rows.extend(captured)
        return kernel(captured, ncols)

    module.kernel_incremental = capture
    try:
        return call(), rows
    finally:
        module.kernel_incremental = kernel


def _positive_multiple(sparse, dense):
    """Is the sparse integer row a positive multiple of the dense row?"""
    row = dict(sparse)
    ref = {col: y for col, y in enumerate(dense) if y}
    if row.keys() != ref.keys():
        return False
    lead = min(ref)
    scale = row[lead] / ref[lead]
    return scale > 0 and all(row[col] == scale * y for col, y in ref.items())


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(_route_cases())
def test_integer_graded_pieces_match_the_poly_route(case):
    graph, M, N = case
    nv = graph.nvars
    algebra = structure_algebra(graph)
    # generator vectors and their monomial multiples, as Fractions
    gens = M.vectors
    for (vec, den, d), g in zip(gens, M.generators):
        assert [Fraction(x, den) for x in vec] == poly_graded.flatten(g, d)
    for d in range(max(dg for _, _, dg in gens) + 2):
        got = [
            (i, zmod._monomials(graph, d - gens[i][2])[0][p],
             [Fraction(x, gens[i][1]) for x in v])
            for i, p, v in zmod._multiples(graph, gens, d)
        ]
        assert got == list(poly_graded.multiples(nv, poly_graded.graded(M), d))
    # congruence rows on the lattice's vertices, up to a factor per row
    words = sorted(set(M.slots), key=lambda w: (len(w), w))
    for d in range(4):
        assert _normalized_rows(congruence_rows(graph, words, d)) == (
            _normalized_rows(poly_graded.congruence_rows(graph, words, d))
        )
    # expand_many on the products z * g, and on x1^d at the first slot
    index = {w: i for i, w in enumerate(algebra.slots)}
    by_pd = {}
    for z, zd in zip(algebra.generators, algebra.degrees):
        for g, gd in zip(M.generators, M.degrees):
            tup = tuple(z[index[w]] * g[k] for k, w in enumerate(M.slots))
            by_pd.setdefault((zd + gd) // 2, []).append(tup)
    for pd, tups in by_pd.items():
        corner = Poly(nv, {(pd,) + (0,) * (nv - 1): 1})
        tups.append((corner,) + (Poly.zero(nv),) * (M.rank - 1))
        got = zmod.expand_many(M, [zmod._vector(graph, t, pd) for t in tups], pd)
        want = poly_graded.expand_many(M, tups, pd)
        for coeffs, ref in zip(got, want):
            assert (coeffs is None) == (ref is None)
            if coeffs is not None:
                assert [
                    Poly(nv, {zmod._monomials(graph, pd - dg)[0][p]: c
                              for p, c in entry.items()})
                    for entry, (_, _, dg) in zip(coeffs, gens)
                ] == ref
    # hom_graded: the same bases in the same order, from rows that are
    # positive multiples of the dense Fraction rows, in the same order
    for target in (M, N):
        for d in (0, 2):
            got, rows = _rows_into_kernel(
                zmod, lambda: hom_graded(M, target, d, algebra)
            )
            want, ref_rows = _rows_into_kernel(
                poly_graded, lambda: poly_graded.hom_graded(M, target, d, algebra)
            )
            assert got == want
            assert len(rows) == len(ref_rows)
            assert all(map(_positive_multiple, rows, ref_rows))


def test_structure_algebra_and_hom_form_no_poly_products(monkeypatch):
    """Z, the degree-0 Homs and the decomposition of a Bott-Samelson lattice
    are computed on integer graded pieces: no Poly product, no coefficient
    vector read back from a Poly or turned into one by coeffs_to_poly, no
    restriction through Poly.substitute.  Z and a projective evaluate no
    Poly and build none until their generators are read, then one Poly
    tuple per generator."""
    graph = _graph(B2, 0, 0)
    # on a graph of its own: translation computes that graph's Z
    M = bott_samelson(_graph(B2, 0, 0), (0, 1, 0))
    calls = {}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Poly, "__mul__", counting("Poly.__mul__", Poly.__mul__))
    monkeypatch.setattr(Poly, "__rmul__", counting("Poly.__mul__", Poly.__rmul__))
    for name in ("poly_to_coeffs", "coeffs_to_poly", "restrict_to_hyperplane"):
        wrapped = counting(name, getattr(poly, name))
        monkeypatch.setattr(poly, name, wrapped)
        monkeypatch.setattr(zmod, name, wrapped, raising=False)
    monkeypatch.setattr(Poly, "evaluate", counting("Poly.evaluate", Poly.evaluate))
    monkeypatch.setattr(zmod, "_poly_tuple", counting("_poly_tuple", zmod._poly_tuple))
    for build in (lambda: structure_algebra(graph),
                  lambda: identify_projective(graph, (0, 1, 0, 1))):
        lattice = build()
        assert calls == {}
        assert lattice.generators is lattice.generators
        assert calls == {"_poly_tuple": len(lattice.vectors)}
        calls.clear()
    assert hom_graded(M, M, 0)
    assert len(decompose(M)) == 2
    assert calls.keys() <= {"_poly_tuple"}
