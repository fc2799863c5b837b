"""End-to-end acceptance checks.

Each test prints exactly one pass/fail line (run with -s to see them all);
the assertions carry the same condition, so pytest status and the printed
verdict always agree.
"""

from collections import Counter
from fractions import Fraction

import pytest

from blocko import blocks, coxeter, kl, rootdata, zmod
from blocko.coxeter import INFINITY, CoxeterSystem, bruhat_leq
from blocko.kl import KLTable, ONE, ZERO
from blocko.poly import Poly, divisible_by_linear
from blocko.zmod import (
    bott_samelson,
    compose,
    decompose,
    graded_char,
    hom_graded,
    identify_projective,
    lattice_contains,
    moment_graph,
    root_form,
    singular_reduce,
    structure_algebra,
    theta_s,
    ungraded_char,
    verma_zmodule,
)

import fraction_roots
from congruence_algebra import grown_algebra
from conftest import weight
from lattice_homs import homs_equal, scalar_hom
from shapovalov import WordBasis, character_dimensions


def verdict(number, description):
    def wrap(body):
        def test():
            try:
                body()
            except BaseException:
                print(f"acceptance {number}: FAIL - {description}")
                raise
            print(f"acceptance {number}: PASS - {description}")

        test.__name__ = f"test_acceptance_{number}"
        return test

    return wrap


# shared moment graphs, built lazily (the verdict wrapper takes no fixtures)
_CACHE = {}


def _graph(key):
    if key not in _CACHE:
        matrix = {"a1": [[2]], "a2": [[2, -1], [-1, 2]], "b2": [[2, -2], [-1, 2]]}[key]
        cartan = rootdata.cartan_datum(matrix)
        coords = (0,) * cartan.rank
        _CACHE[key] = moment_graph(
            blocks.block_data(cartan, weight(cartan, *coords))
        )
    return _CACHE[key]


def _scalar_ratio(p, q):
    """c with p = c * q, for nonzero proportional polynomials."""
    m, coeff = next(iter(q.terms.items()))
    c = p.terms.get(m, Fraction(0)) / coeff
    assert p == q.scale(c)
    return c


@verdict(1, "structure algebra rank, edge divisibility, A1 basis")
def test_acceptance_1():
    # A1 on {e, s} and A2 on all six vertices
    for key, expected in (("a1", 2), ("a2", 6)):
        graph = _graph(key)
        z = structure_algebra(graph)
        assert z.rank == expected and len(z.generators) == expected
        index = {w: i for i, w in enumerate(z.slots)}
        for edge, label in graph.edges.items():
            a, b = tuple(edge)
            for gen in z.generators:
                assert divisible_by_linear(gen[index[a]] - gen[index[b]], label)
    # A1 basis is {(1,1), (h,0)} up to unimodular change of basis
    graph = _graph("a1")
    z = structure_algebra(graph)
    nv = graph.nvars
    h = root_form(graph.block.cartan, graph.block.integral_simples[0])
    target = [
        (Poly.const(nv, 1), Poly.const(nv, 1)),
        (h, Poly.zero(nv)),
    ]
    for gen, d in zip(z.generators, z.degrees):
        assert lattice_contains(
            zmod.ZLattice(graph, z.slots, target, [0, 2]), gen, d // 2
        )
    for gen, d in zip(target, (0, 2)):
        assert lattice_contains(z, gen, d // 2)


@verdict(2, "subgeneric wall-crossing relations and vanishing Homs")
def test_acceptance_2():
    graph = _graph("a1")
    nv = graph.nvars
    h = root_form(graph.block.cartan, graph.block.integral_simples[0])
    me = verma_zmodule(graph, ())
    ms = verma_zmodule(graph, (0,))
    p = theta_s(me, 0)

    (a,) = hom_graded(me, p, 2)
    (b,) = hom_graded(p, me, 0)
    (c,) = hom_graded(ms, p, 2)
    (d,) = hom_graded(p, ms, 0)
    # hom bases are only defined up to scalars; normalize the two units
    sb = 1 / _scalar_ratio(compose(b, a, nv)[0][0], h)
    b = [[q.scale(sb) for q in row] for row in b]
    sd = 1 / _scalar_ratio(compose(d, c, nv)[0][0], h)
    d = [[q.scale(sd) for q in row] for row in d]

    zero = [[Poly.zero(nv)]]
    assert homs_equal(compose(d, a, nv), zero)
    assert homs_equal(compose(b, c, nv), zero)
    assert homs_equal(compose(b, a, nv), [[h]])
    assert homs_equal(compose(d, c, nv), [[h]])
    ab_plus_cd = [
        [x + y for x, y in zip(rx, ry)]
        for rx, ry in zip(compose(a, b, nv), compose(c, d, nv))
    ]
    assert homs_equal(ab_plus_cd, scalar_hom(p, h))
    # the two rank-one vertex modules admit no maps in low degrees
    for deg in range(0, 7):
        assert hom_graded(me, ms, deg) == []
        assert hom_graded(ms, me, deg) == []


@verdict(3, "translation doubles rank and adds vertex multiplicities")
def test_acceptance_3():
    graph = _graph("a2")
    system = graph.block.coxeter_system
    lattices = [verma_zmodule(graph, v.word) for v in graph.block.orbit]
    lattices.append(bott_samelson(graph, (0,)))
    lattices.append(bott_samelson(graph, (0, 1)))
    for m in lattices:
        for s in (0, 1):
            t = theta_s(m, s)
            assert t.rank == 2 * m.rank
            n_old = Counter(m.slots)
            n_new = Counter(t.slots)
            for w in set(n_new) | set(n_old):
                ws = system.normal_form(w + (s,))
                assert n_new.get(w, 0) == n_old.get(w, 0) + n_old.get(ws, 0)
    # theta_s applied to the smallest Verma recovers the interval algebra
    t = theta_s(verma_zmodule(graph, ()), 0)
    z = grown_algebra(graph, [(), (0,)], 2, 1, "the interval [e, s]")
    assert sorted(t.slots) == sorted(z.slots)
    for gen, d in zip(t.generators, t.degrees):
        assert lattice_contains(z, gen, d // 2)
    for gen, d in zip(z.generators, z.degrees):
        assert lattice_contains(t, gen, d // 2)


@verdict(4, "projective summands match BGG multiplicities (A2 and B2)")
def test_acceptance_4():
    for key in ("a2", "b2"):
        graph = _graph(key)
        block = graph.block
        for v in block.orbit:
            p = identify_projective(graph, v.word)
            got = ungraded_char(p)
            want = kl.projective_multiplicities(
                block, block.coxeter_system.element(v.word)
            )
            assert got == {w: n for w, n in want.items() if n}


# (Cartan matrix, weight, length bound, words of length above max_length to
# add, max_length); the non-integral weights have W(lambda) smaller than W
_KL_GRADED_CASES = {
    "A2": ([[2, -1], [-1, 2]], (0, 0), 8, (), 3),
    "B2": ([[2, -2], [-1, 2]], (0, 0), 8, (), 4),
    "G2": ([[2, -1], [-3, 2]], (0, 0), 8, (), 6),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], (0, 0, 0), 8, (), 6),
    "A1~": ([[2, -2], [-2, 2]], (0, 0), 4, (), 4),
    "A2~": (
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], (0, 0, 0), 4,
        ("1 2 3 1", "1 3 2 1", "2 1 3 2", "2 3 1 2", "3 1 2 3", "3 2 1 3"), 3,
    ),
    "G2 (1/3, 0)": ([[2, -1], [-3, 2]], ("1/3", 0), 8, (), 6),
    "B2 (0, 1/2)": ([[2, -2], [-1, 2]], (0, "1/2"), 8, (), 4),
    "B3 (1/2, 0, 0)": (
        [[2, -1, 0], [-1, 2, -2], [0, -1, 2]], ("1/2", 0, 0), 8, (), 9,
    ),
    "A1~ (1/3, 0)": ([[2, -2], [-2, 2]], ("1/3", 0), 6, (), 6),
    "A2^(2)": ([[2, -4], [-1, 2]], (0, 0), 5, (), 5),
    "A2^(2) (1/2, 0)": ([[2, -4], [-1, 2]], ("1/2", 0), 5, (), 5),
    "A2^(2) (0, 1/3)": ([[2, -4], [-1, 2]], (0, "1/3"), 5, (), 5),
    "D4^(3)": ([[2, -1, 0], [-1, 2, -3], [0, -1, 2]], (0, 0, 0), 4, (), 4),
    "C2~ (1/2, 0, 0)": ([[2, -1, 0], [-2, 2, -2], [0, -1, 2]], ("1/2", 0, 0), 4, (), 4),
    # W(lambda) has four simple roots: it is A1~ x A1~
    "G2~ (0, 1/2, 0)": ([[2, -1, 0], [-1, 2, -1], [0, -3, 2]], (0, "1/2", 0), 4, (), 4),
}


def test_graded_projectives_match_kl_polynomials():
    """The graded rank of P(w) at y: 2 l(y) + 2 i, as often as q^i occurs
    in P_{y,w}, with P the KL polynomials of W(lambda), not of W (every
    vertex of A2, B2, G2 and A3, w0 included; Ã1 up to length 4; Ã2 up to
    length 3 and its six length-4 elements with P_{e,w} = 1 + q; the
    non-integral blocks G2 (1/3, 0), B2 (0, 1/2), B3 (1/2, 0, 0) and Ã1
    (1/3, 0) to length 6, whose W(lambda) has the simple roots (0, 1) and
    (3, 2); the twisted affine A2^(2) at 0, (1/2, 0) and (0, 1/3) to length
    5; and to length 4 the twisted affine D4^(3) at 0 and the affine C̃2
    (1/2, 0, 0) and G̃2 (0, 1/2, 0).
    Acceptance 4 checks only the ungraded counts."""
    for matrix, coords, length_bound, extra, max_length in _KL_GRADED_CASES.values():
        cartan = rootdata.cartan_datum(matrix)
        block = blocks.block_data(
            cartan, weight(cartan, *coords), length_bound=length_bound
        )
        graph = moment_graph(block)
        system = block.coxeter_system
        table = KLTable(system)
        words = [w for w in graph.vertices if len(w) <= max_length]
        for text in extra:
            w = tuple(int(c) - 1 for c in text.split())
            assert table.poly(system.element(()), system.element(w)) == (1, 1)
            words.append(w)
        for w in words:
            got = graded_char(identify_projective(graph, w))
            for y in graph.vertices:
                p = table.poly(system.element(y), system.element(w))
                want = [2 * len(y) + 2 * i for i, c in enumerate(p) for _ in range(c)]
                assert sorted(got.get(y, [])) == want


@verdict(5, "Kazhdan-Lusztig recursion and signed inversion")
def test_acceptance_5():
    # every dihedral polynomial is 1 on comparable pairs, up to length 6
    for bond in (3, 4, 6, INFINITY):
        system = CoxeterSystem(((1, bond), (bond, 1)))
        table = KLTable(system)
        elems = coxeter.elements_up_to(system, 6)
        for x in elems:
            for w in elems:
                expected = ONE if bruhat_leq(x, w) else ZERO
                assert table.poly(x, w) == expected
    # first nontrivial polynomial in S4
    s4 = CoxeterSystem(((1, 3, 2), (3, 1, 3), (2, 3, 1)))
    table = KLTable(s4)
    assert table.poly(
        s4.element((1,)), s4.element((1, 0, 2, 1))
    ) == (1, 1)
    # signed P and Q matrices are mutually inverse on every interval
    elems = coxeter.all_elements(s4)
    for w in elems:
        for y in elems:
            if not bruhat_leq(w, y):
                continue
            acc = ZERO
            for z in coxeter.interval(w, y):
                sign = -1 if (z.length - w.length) % 2 else 1
                acc = kl.poly_add(
                    acc,
                    kl.poly_scale(
                        kl._poly_mul(table.inverse_poly(w, z), table.poly(z, y)),
                        sign,
                    ),
                )
            assert acc == (ONE if w.word == y.word else ZERO)


@verdict(6, "character formulas and weight dimensions")
def test_acceptance_6():
    # A1, lambda = 0 dominant: ch L(0) = ch M(0) - ch M(-alpha)
    cartan = rootdata.cartan_datum([[2]])
    block = blocks.block_data(cartan, weight(cartan, 0))
    char = kl.simple_character(block, block.coxeter_system.element(()))
    assert char.coefficients == {(): 1, (0,): -1}
    s_weight = blocks.dot_action(block, (0,), block.base_weight)
    alpha = fraction_roots.root_to_weight(block.integral_simples[0])
    assert s_weight == block.base_weight - alpha
    dims = character_dimensions(block, char.coefficients, (), WordBasis(cartan, 8))
    assert sum(dims.values()) == 1
    # A2 antidominant: ch L(w0) has six coefficients, all +-1
    a2 = rootdata.cartan_datum([[2, -1], [-1, 2]])
    anti = blocks.block_data(a2, weight(a2, -2, -2))
    w0 = anti.coxeter_system.element((0, 1, 0))
    c2 = kl.simple_character(anti, w0).coefficients
    assert len(c2) == 6
    assert sorted(c2.values()) == [-1, -1, -1, 1, 1, 1]


@verdict(7, "integral Weyl groups, criticality, block equivalence")
def test_acceptance_7():
    a2 = rootdata.cartan_datum([[2, -1], [-1, 2]])
    half = blocks.block_data(a2, weight(a2, 0, "-1/2"))
    assert [list(b.simple_coords) for b in half.integral_simples] == [[1, 0]]
    assert half.coxeter_system.matrix == ((1,),)
    antihalf = blocks.block_data(a2, weight(a2, "-1/2", "-1/2"))
    assert [list(b.simple_coords) for b in antihalf.integral_simples] == [[1, 1]]
    # affine A1 is critical exactly at level -2
    aff = rootdata.cartan_datum([[2, -2], [-2, 2]])
    delta = rootdata.Root(aff, aff.marks)
    for a in (-3, -2, -1, 0, 1):
        lam = weight(aff, a, a)
        block = blocks.block_data(aff, lam, length_bound=2)
        level = rootdata.form(lam, delta)
        assert blocks.is_critical(block) == (level == -2)
    a1 = rootdata.cartan_datum([[2]])
    sl2 = blocks.block_data(a1, weight(a1, 0))
    assert blocks.equivalence_check(half, sl2) == "equivalent"


@verdict(8, "tilting involution and Verma embedding dimensions")
def test_acceptance_8():
    a2 = rootdata.cartan_datum([[2, -1], [-1, 2]])
    block = blocks.block_data(a2, weight(a2, 1, -3))
    assert blocks.tilt(blocks.tilt(block)).base_weight == block.base_weight
    regular = blocks.block_data(a2, weight(a2, 0, 0))
    tilted = blocks.tilt(regular)
    r2 = rootdata.rho(a2).scale(2)
    for v in regular.orbit:
        assert (v.weight + r2).scale(-1) == blocks.dot_action(
            tilted, v.word, tilted.base_weight
        )
    anti = blocks.block_data(a2, weight(a2, -2, -2))
    elems = coxeter.all_elements(anti.coxeter_system)
    assert len(elems) == 6
    for x in elems:
        for w in elems:
            expected = 1 if bruhat_leq(x, w) else 0
            assert kl.verma_hom_dim(anti, x, w) == expected


@verdict(9, "wall restriction splits into stabilizer-many copies")
def test_acceptance_9():
    graph = _graph("a2")
    p = identify_projective(graph, (0,))
    copies = singular_reduce(graph, p, (0,))
    assert len(copies) == 2
    assert zmod.isomorphic_up_to_shift(copies[0], copies[1])
    # each copy is indecomposable
    for c in copies:
        assert len(decompose(c)) == 1
