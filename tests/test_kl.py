"""Kazhdan-Lusztig polynomials, character formulas, multiplicities."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from blocko import blocks, cli, coxeter, kl
from blocko.coxeter import INFINITY, CoxeterSystem, bruhat_leq
from blocko.errors import TruncationError, UnsupportedError
from blocko.kl import KLTable, ONE, ZERO, poly_eval_one, poly_str

from conftest import A1_AFFINE, A2, A3, A4, B3, G2, weight
from blocko import rootdata
from shapovalov import root_offset
from unitriangular_decomposition import UnitriangularInverse
from word_kl import WordKL

S4_COX = ((1, 3, 2), (3, 1, 3), (2, 3, 1))


def test_poly_str():
    assert poly_str(ZERO) == "0"
    assert poly_str(ONE) == "1"
    assert poly_str((1, 1)) == "1+q"
    assert poly_str((0, -2, 1)) == "-2q+q^2"
    assert poly_str((0, -1)) == "-q"


@pytest.mark.parametrize("bond", [3, 4, 6, INFINITY])
def test_dihedral_kl_all_one(bond):
    system = CoxeterSystem(((1, bond), (bond, 1)))
    table = KLTable(system)
    elems = coxeter.elements_up_to(system, 6)
    for x in elems:
        for w in elems:
            expected = ONE if bruhat_leq(x, w) else ZERO
            assert table.poly(x, w) == expected


def test_s4_first_nontrivial_polynomial():
    system = CoxeterSystem(S4_COX)
    table = KLTable(system)
    x = system.element((1,))
    w = system.element((1, 0, 2, 1))
    assert table.poly(x, w) == (1, 1)


def test_s4_signed_inversion_identity():
    # sum_z (-1)^{l(z)-l(w)} Q_{w,z} P_{z,y} = delta_{w,y}
    system = CoxeterSystem(S4_COX)
    table = KLTable(system)
    elems = coxeter.all_elements(system)
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
                        kl._poly_mul(
                            table.inverse_poly(w, z), table.poly(z, y)
                        ),
                        sign,
                    ),
                )
            assert acc == (ONE if w.word == y.word else ZERO)


def test_kl_zero_when_incomparable():
    system = CoxeterSystem(((1, 3), (3, 1)))
    table = KLTable(system)
    assert table.poly(system.element((0,)), system.element((1,))) == ZERO


@pytest.fixture(scope="module")
def a2_anti():
    cartan = rootdata.cartan_datum(A2)
    return blocks.block_data(cartan, weight(cartan, -2, -2))


@pytest.fixture(scope="module")
def a2_dom():
    cartan = rootdata.cartan_datum(A2)
    return blocks.block_data(cartan, weight(cartan, 0, 0))


def test_simple_character_antidominant_w0(a2_anti):
    w0 = a2_anti.coxeter_system.element((0, 1, 0))
    char = kl.simple_character(a2_anti, w0)
    assert len(char.coefficients) == 6
    assert sorted(char.coefficients.values()) == [-1, -1, -1, 1, 1, 1]
    assert not char.truncated


def test_simple_character_dominant_base(a2_dom):
    e = a2_dom.coxeter_system.element(())
    char = kl.simple_character(a2_dom, e)
    # dominant simple at the top: alternating sum over the upper cone
    assert char.coefficients[()] == 1
    assert sorted(char.coefficients.values()) == [-1, -1, -1, 1, 1, 1]


def test_character_rejects_singular_block():
    cartan = rootdata.cartan_datum(A2)
    singular = blocks.block_data(cartan, weight(cartan, 0, -1))
    with pytest.raises(UnsupportedError):
        kl.simple_character(singular, singular.coxeter_system.element(()))


def test_decomposition_matrix_unitriangular(a2_anti):
    out = kl.decomposition_matrix(a2_anti)
    elems = coxeter.all_elements(a2_anti.coxeter_system)
    for y in elems:
        assert out[(y.word, y.word)] == 1
    # all multiplicities for regular A2 are 0 or 1
    assert set(out.values()) <= {0, 1}


def test_decomposition_inverts_characters(a2_anti):
    # C[y][z] = ch M(z)-coefficient of ch L(y); D[z][w] = [M(z):L(w)];
    # the two matrices are mutually inverse
    elems = coxeter.all_elements(a2_anti.coxeter_system)
    table = KLTable(a2_anti.coxeter_system)
    chars = {z.word: kl.simple_character(a2_anti, z, table) for z in elems}
    d = kl.decomposition_matrix(a2_anti, table=table)
    for y in elems:
        for w in elems:
            total = sum(
                chars[y.word].coefficients.get(z.word, 0)
                * d.get((z.word, w.word), 0)
                for z in elems
            )
            assert total == (1 if y.word == w.word else 0)


@pytest.mark.parametrize("matrix", [A3, B3, G2, A4], ids=["A3", "B3", "G2", "A4"])
def test_inverse_polynomials_by_kl_inversion(matrix):
    """On a finite Weyl group `inverse_poly` reads Q_{z,w} = P_{w0 w, w0 z}
    off the P store (Kazhdan-Lusztig, Invent. Math. 53, 1979); checked by
    the signed identity sum_z (-1)^{l(z)-l(x)} P_{x,z} Q_{z,w} =
    delta_{x,w} on every pair, with P on the left, where `_q` inverts with
    Q on the left."""
    cartan = rootdata.cartan_datum(matrix)
    block = blocks.block_data(cartan, weight(cartan, *(0,) * cartan.rank))
    system = block.coxeter_system
    elems = coxeter.all_elements(system)
    table = KLTable(system)
    for w in elems:
        below = coxeter.lower_cone(w)
        q = {z.id: table.inverse_poly(z, w) for z in below}
        for x in elems:
            acc = ZERO
            for z in below:
                if bruhat_leq(x, z):
                    sign = -1 if (z.length - x.length) % 2 else 1
                    term = kl._poly_mul(table.poly(x, z), q[z.id])
                    acc = kl.poly_add(acc, kl.poly_scale(term, sign))
            assert acc == (ONE if x == w else ZERO), (x, w)
    assert table.q_memo == {}


def test_a_warm_finite_kl_query_computes_no_q():
    """With the P store filled as the disk cache fills it, a B3 Q query
    computes nothing: no P, and no Q by the interval inversion."""
    system = CoxeterSystem(((1, 3, 2), (3, 1, 4), (2, 4, 1)))
    x, w = system.element(()), system.element((0, 1, 0, 2, 1, 0, 2, 1, 2))
    cold = KLTable(system)
    q = cold.inverse_poly(x, w), cold.inverse_poly(system.element((1,)), w)
    warm = KLTable(system)
    warm.memo.update(cold.memo)
    assert (warm.inverse_poly(x, w), warm.inverse_poly(system.element((1,)), w)) == q
    assert warm.memo == cold.memo
    assert warm.q_memo == cold.q_memo == {}
    assert q == tuple(WordKL(system).inverse_poly(v.word, w.word)
                      for v in (x, system.element((1,))))


def _e6_coxeter():
    """E6 (51,840 elements): the chain 0-2-3-4-5, with 1 on 3."""
    m = [[1 if i == j else 2 for j in range(6)] for i in range(6)]
    for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
        m[i][j] = m[j][i] = 3
    return tuple(map(tuple, m))


def test_a_short_finite_kl_query_numbers_no_element_longer_than_w():
    """Before w0 is numbered, Q is inverted over [x, w]: a short query on
    E6, as the `kl` command makes it, numbers nothing longer than w."""
    system = CoxeterSystem(_e6_coxeter())
    x, w = system.element(()), system.element((0, 2, 3, 1))
    table = KLTable(system)
    p, q = table.poly(x, w), table.inverse_poly(x, w)
    assert system.length[-1] == w.length
    assert table.q_memo
    ref = WordKL(system)
    assert (p, q) == (ref.poly(x.word, w.word), ref.inverse_poly(x.word, w.word))
    assert system.length[-1] == w.length


class WordTable:
    """The two readers of a `KLTable`, on the word route: a reference that
    shares no code with the column readers."""

    def __init__(self, system):
        self.ref = WordKL(system)

    def poly(self, x, w):
        return self.ref.poly(x.word, w.word)

    def inverse_poly(self, w, y):
        return self.ref.inverse_poly(w.word, y.word)


@pytest.mark.parametrize("side, coords", [("antidominant", -2), ("dominant", 0)])
@pytest.mark.parametrize(
    "matrix, length_bound",
    [(A3, None), (B3, None), (G2, None), (A1_AFFINE, 6)],
    ids=["A3", "B3", "G2", "A1~"],
)
def test_decomposition_matches_unitriangular_inversion(matrix, length_bound, side, coords):
    # P(1) and Q(1) against the entrywise inverse of the character matrix,
    # and the simple characters against that matrix, all on the word route
    cartan = rootdata.cartan_datum(matrix)
    bounds = {} if length_bound is None else {"length_bound": length_bound}
    block = blocks.block_data(cartan, weight(cartan, *(coords,) * len(matrix)), **bounds)
    assert kl.base_weight_position(block) == side
    system = block.coxeter_system
    if length_bound is None:
        elems = coxeter.all_elements(system)
    else:
        elems = coxeter.elements_up_to(system, length_bound)
    table = KLTable(system)
    inverse = UnitriangularInverse(WordTable(system), side)
    related = {
        (y.word, w.word)
        for y in elems
        for w in elems
        if (bruhat_leq(y, w) if side == "dominant" else bruhat_leq(w, y))
    }
    want = {(y.word, w.word): inverse.entry(y, w) for y in elems for w in elems}
    assert kl.decomposition_matrix(block, table=table) == {
        key: want[key] for key in related
    }
    assert all(not n for key, n in want.items() if key not in related)
    for w in elems:
        assert kl.simple_character(block, w, table).coefficients == {
            y.word: c for y in elems if (c := inverse.char_coeff(w, y))
        }
    if not block.has_dominant:
        return
    for w in elems:
        assert kl.projective_multiplicities(block, w, table) == {
            y.word: want[(y.word, w.word)] for y in elems if want[(y.word, w.word)]
        }


def test_multiplicities_reject_an_interior_base():
    # lambda = (-2, 1) = s_1.0 is neither dominant nor antidominant; read
    # from it, the dominant formula would give P(s_1.lambda) two Vermas,
    # but s_1.lambda = 0 is dominant, so P(0) = M(0)
    cartan = rootdata.cartan_datum(A2)
    block = blocks.block_data(cartan, weight(cartan, -2, 1))
    assert kl.base_weight_position(block) == "interior"
    assert block.stab_order == 1
    with pytest.raises(UnsupportedError, match="neither dominant nor antidominant"):
        kl.projective_multiplicities(block, block.coxeter_system.element((0,)))
    with pytest.raises(UnsupportedError, match="neither dominant nor antidominant"):
        kl.decomposition_matrix(block)


def test_projective_multiplicities_bgg(a2_dom):
    system = a2_dom.coxeter_system
    w0 = system.element((0, 1, 0))
    # P(w0.lambda) is the big projective: every Verma once
    mult = kl.projective_multiplicities(a2_dom, w0)
    assert mult == {y.word: 1 for y in coxeter.all_elements(system)}
    e = system.element(())
    assert kl.projective_multiplicities(a2_dom, e) == {(): 1}


def test_dominant_formulas_refuse_w_beyond_the_length_bound():
    # on an infinite W(lambda) the dominant-base sums run over the elements
    # up to the length bound: for w beyond it L(w) would get no term and
    # P(w) would lose its M(w), so both name the bound that passes
    cartan = rootdata.cartan_datum(A1_AFFINE)
    block = blocks.block_data(cartan, weight(cartan, 0, 0), length_bound=4)
    assert kl.base_weight_position(block) == "dominant"
    message = ("^vertex 1 2 1 2 1 of length 5 lies outside length bound 4; "
               "length bound 5 passes$")
    w = block.coxeter_system.element((0, 1, 0, 1, 0))
    with pytest.raises(TruncationError, match=message):
        kl.simple_character(block, w)
    with pytest.raises(TruncationError, match=message):
        kl.projective_multiplicities(block, w)
    within = blocks.block_data(cartan, weight(cartan, 0, 0), length_bound=5)
    assert kl.projective_multiplicities(within, w)[w.word] == 1
    char = kl.simple_character(within, w)
    assert char.coefficients == {w.word: 1} and char.truncated


def test_projective_multiplicities_need_dominant_side():
    # negative-level affine block: no dominant weight in the class
    from conftest import A1_AFFINE

    cartan = rootdata.cartan_datum(A1_AFFINE)
    block = blocks.block_data(
        cartan, weight(cartan, -2, -2), length_bound=3
    )
    assert blocks.block_to_json(block)["level_class"] == "antidominant-containing"
    with pytest.raises(UnsupportedError):
        kl.projective_multiplicities(block, block.coxeter_system.element(()))


def test_verma_hom_dim_matches_bruhat(a2_anti):
    elems = coxeter.all_elements(a2_anti.coxeter_system)
    for x in elems:
        for w in elems:
            expected = 1 if bruhat_leq(x, w) else 0
            assert kl.verma_hom_dim(a2_anti, x, w) == expected


def test_verma_hom_dim_is_not_the_weight_order():
    # x.lambda <= w.lambda in the weight order, but x is not below w in the
    # Bruhat order, so M(x.lambda) does not embed in M(w.lambda)
    cartan = rootdata.cartan_datum(A3)
    anti = blocks.block_data(cartan, weight(cartan, -2, -2, -2))
    x = anti.coxeter_system.element((1, 0))  # "2 1"
    w = anti.coxeter_system.element((0, 1, 2))  # "1 2 3"
    # w.lambda - x.lambda = (lambda - x.lambda) - (lambda - w.lambda)
    gap = [a - b for a, b in zip(root_offset(anti, x.word), root_offset(anti, w.word))]
    assert all(c.denominator == 1 and c >= 0 for c in gap)
    assert kl.verma_hom_dim(anti, x, w) == 0


@pytest.mark.parametrize("side, coords", [("antidominant", -2), ("dominant", 0)])
@pytest.mark.parametrize("matrix", [A3, B3], ids=["A3", "B3"])
def test_verma_hom_dim_is_bruhat_order(matrix, side, coords):
    cartan = rootdata.cartan_datum(matrix)
    block = blocks.block_data(cartan, weight(cartan, *(coords,) * 3))
    assert kl.base_weight_position(block) == side
    elems = coxeter.all_elements(block.coxeter_system)
    for x in elems:
        for w in elems:
            below = bruhat_leq(x, w) if side == "antidominant" else bruhat_leq(w, x)
            assert kl.verma_hom_dim(block, x, w) == int(below)


def test_verma_hom_dim_on_a_singular_block():
    # lambda = (0, -1) is dominant with stabilizer <s_2>: Hom depends only
    # on the weights, and is nonzero both ways exactly when they agree
    cartan = rootdata.cartan_datum(A2)
    block = blocks.block_data(cartan, weight(cartan, 0, -1))
    elems = coxeter.all_elements(block.coxeter_system)
    wt = {x.word: blocks.dot_action(block, x.word, block.base_weight) for x in elems}
    for x in elems:
        for w in elems:
            there = kl.verma_hom_dim(block, x, w)
            back = kl.verma_hom_dim(block, w, x)
            assert (there and back) == (wt[x.word] == wt[w.word])
    s1, s2 = (block.coxeter_system.element((i,)) for i in (0, 1))
    # M(s_1.lambda) is the Verma below M(lambda) = M(s_2.lambda)
    assert kl.verma_hom_dim(block, s1, s2) == 1
    assert kl.verma_hom_dim(block, s2, s1) == 0


WORD_ROUTE_SYSTEMS = {
    "A3": (S4_COX, None),
    "B3": (((1, 3, 2), (3, 1, 4), (2, 4, 1)), None),
    "G2": (((1, 6), (6, 1)), None),
    "A4": (((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)), None),
    "A1~": (((1, INFINITY), (INFINITY, 1)), 8),
    "A2~": (((1, 3, 3), (3, 1, 3), (3, 3, 1)), 5),
}


def _stored_words(store, system):
    """An id-keyed store's pairs, as pairs of words."""
    words = system.words
    return {(words[x], words[w]) for x, w in store}


def _nonzero_below(ref_store):
    """The word route's stored pairs (x, w) with x != w and a nonzero value:
    the pairs x < w, the only ones the id Q store keeps."""
    return {(x, w) for (x, w), val in ref_store.items() if x != w and val}


def _reduced(ref, x, w):
    """The pair (x, w) of words reduces to, by the word route's normal
    forms: x raised by each left descent of w that it lacks, then by each
    such right descent.  It is extremal, or x = w."""
    nf = ref.normal_form
    for times in (lambda s, u: nf((s,) + u), lambda s, u: nf(u + (s,))):
        down = [s for s in range(ref.n) if len(times(s, w)) < len(w)]
        while up := [s for s in down if len(times(s, x)) > len(x)]:
            x = times(up[0], x)
    return x, w


def _extremal_store(table, system, ref):
    """Check every pair of the id P store: extremal, x < w, P nonzero, and
    the reduction of a pair x < w the word route stores, with its P.
    Returns the stored pairs and those reductions, as pairs of words."""
    reductions = {}
    for (x, w), p in ref.memo.items():
        if x != w and p and (pair := _reduced(ref, x, w))[0] != pair[1]:
            reductions[pair] = p
    words = system.words
    stored = {(words[x], words[w]): p for (x, w), p in table.memo.items()}
    for (x, w), p in stored.items():
        assert _reduced(ref, x, w) == (x, w), (x, w)
        assert x != w and ref.leq(x, w) and p, (x, w)
        assert reductions.get((x, w)) == p, (x, w)
    return stored.keys(), reductions.keys()


# extremal pairs x < w of the full tables (to the length bound if affine)
EXTREMAL_PAIRS = {"A3": 6, "B3": 64, "G2": 8, "A4": 122, "A1~": 24, "A2~": 69}


@pytest.mark.parametrize("name", sorted(WORD_ROUTE_SYSTEMS))
def test_id_core_matches_the_word_route(name):
    """Every P and every Q of the id-indexed recursion equals the word-keyed
    recursion's.  The P store holds exactly the extremal pairs x < w that
    the word route's pairs reduce to, and the Q store the word route's
    pairs x < w."""
    matrix, bound = WORD_ROUTE_SYSTEMS[name]
    system = CoxeterSystem(matrix)
    if bound is None:
        elems = coxeter.all_elements(system)
    else:
        elems = coxeter.elements_up_to(system, bound)
    table, ref = KLTable(system), WordKL(system)
    for w in elems:
        for x in elems:
            assert table.poly(x, w) == ref.poly(x.word, w.word), (x, w)
    for w in elems:
        for y in elems:
            assert table.inverse_poly(w, y) == ref.inverse_poly(w.word, y.word), (w, y)
    stored, reductions = _extremal_store(table, system, ref)
    assert stored == reductions
    assert len(stored) == EXTREMAL_PAIRS[name]
    # a finite group reads Q off the P store
    want_q = set() if system.finite else _nonzero_below(ref.q_memo)
    assert _stored_words(table.q_memo, system) == want_q


# (P store, reductions of the word route's pairs) after the twelve queries:
# the two recursions walk different routes, so the store may hold fewer
SINGLE_QUERY_PAIRS = {"B3": (14, 22), "A4": (1, 6), "A2~": (7, 7)}


@pytest.mark.parametrize("name", ["B3", "A4", "A2~"])
def test_single_queries_store_the_pairs_of_the_word_route(name):
    """A lone query with x != e leaves the mu-lists partly read; every pair
    the P store (and so the disk cache) gets is still the reduction of a
    pair the word route stores, and the Q store gets exactly the word
    route's pairs.  On a finite group Q_{x,w} is the word route's
    P_{w0 w, w0 x}, checked against a second word route that inverts."""
    matrix, bound = WORD_ROUTE_SYSTEMS[name]
    system = CoxeterSystem(matrix)
    elems = coxeter.elements_up_to(system, bound or 64)
    w0 = elems[-1] if system.finite else None
    rng = random.Random(7)
    table, ref, ref_q = KLTable(system), WordKL(system), WordKL(system)
    for _ in range(12):
        x, w = rng.choice(elems), rng.choice(elems)
        assert table.poly(x, w) == ref.poly(x.word, w.word)
        assert table.inverse_poly(x, w) == ref_q.inverse_poly(x.word, w.word)
        if w0 is None:
            ref.inverse_poly(x.word, w.word)
        else:
            ref.poly((w0 * w).word, (w0 * x).word)
        stored, reductions = _extremal_store(table, system, ref)
        assert stored <= reductions
        assert _stored_words(table.q_memo, system) == _nonzero_below(ref.q_memo)
    assert (len(stored), len(reductions)) == SINGLE_QUERY_PAIRS[name]


def test_p_table_makes_no_normal_form_call(monkeypatch):
    """The recursion runs on the tables: once the elements are numbered,
    the whole B3 P-table needs no word normal form."""
    system = CoxeterSystem(((1, 3, 2), (3, 1, 4), (2, 4, 1)))
    elems = coxeter.all_elements(system)
    calls = []
    original = CoxeterSystem.normal_form

    def counted(self, word):
        calls.append(word)
        return original(self, word)

    monkeypatch.setattr(CoxeterSystem, "normal_form", counted)
    table = KLTable(system)
    got = {(x.word, w.word): table.poly(x, w) for w in elems for x in elems}
    assert len(calls) == 0
    ref = WordKL(system)
    assert got == {pair: ref.poly(*pair) for pair in got}
    stored, reductions = _extremal_store(table, system, ref)
    assert stored == reductions
    assert len(table.memo) == 64  # the extremal pairs x < w of B3, of 799 x < w


def _below(system, x, w):
    return x != w and system.cone(w) >> x & 1


def test_p_store_keeps_only_pairs_below():
    """The full B4 P-table stores its 2,076 extremal pairs x < w (of its
    39,865 pairs x < w), each P nonzero and the word route's, and nothing
    for x = w, x not <= w or a pair that is not extremal."""
    system = CoxeterSystem(((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 4), (2, 2, 4, 1)))
    elems = coxeter.all_elements(system)
    table = KLTable(system)
    for w in elems:
        for x in elems:
            table.poly(x, w)
    assert len(elems) == 384
    assert len(table.memo) == 2076
    ldesc, rdesc = system.ldesc, system.rdesc
    extremal = {(x.id, w.id) for w in elems for x in elems if _below(system, x.id, w.id)
                and not ldesc[w.id] & ~ldesc[x.id] and not rdesc[w.id] & ~rdesc[x.id]}
    assert table.memo.keys() == extremal
    ref = WordKL(system)
    for (x, w), p in table.memo.items():
        assert p and ref.poly(system.words[x], system.words[w]) == p


def test_q_store_keeps_only_pairs_below():
    """After the affine A2 Q-table to length 4, `q_memo` holds one nonzero
    Q_{w,y} per pair w < y: no diagonal ONE and no ZERO off the cone."""
    system = CoxeterSystem(WORD_ROUTE_SYSTEMS["A2~"][0])
    elems = coxeter.elements_up_to(system, 4)
    table = KLTable(system)
    for w in elems:
        for y in elems:
            table.inverse_poly(w, y)
    pairs = {(w.id, y.id) for w in elems for y in elems
             if _below(system, w.id, y.id)}
    assert table.q_memo.keys() == pairs
    assert ZERO not in table.q_memo.values()


def test_warm_antidominant_readers_make_no_right_product(monkeypatch):
    """Q_{w,y} on a finite group reads the column of w0 w at w0 y, off a
    table of w0 x built once: a warm B3 antidominant decomposition matrix
    and its projectives form no product w s."""
    cartan = rootdata.cartan_datum(B3)
    block = blocks.block_data(cartan, weight(cartan, -2, -2, -2))
    assert kl.base_weight_position(block) == "antidominant"
    table = KLTable(block.coxeter_system)
    elems = coxeter.all_elements(block.coxeter_system)
    cold = kl.decomposition_matrix(block, table)
    calls = []
    original = CoxeterSystem.right

    def counted(self, w, k):
        calls.append((w, k))
        return original(self, w, k)

    monkeypatch.setattr(CoxeterSystem, "right", counted)
    assert kl.decomposition_matrix(block, table) == cold
    for w in elems:
        kl.projective_multiplicities(block, w, table)
    assert calls == []


def test_readers_take_a_table_over_an_equal_system():
    """A table may serve blocks of an equal system numbered less far, as
    one table serves a dominant and an antidominant B3 block; the words
    come from the table's own numbering."""
    cartan = rootdata.cartan_datum(B3)
    dom = blocks.block_data(cartan, weight(cartan, 0, 0, 0))
    table = KLTable(dom.coxeter_system)
    elems = coxeter.all_elements(dom.coxeter_system)
    anti = blocks.block_data(cartan, weight(cartan, -2, -2, -2))
    assert anti.coxeter_system is not dom.coxeter_system
    for w in elems:
        own = anti.coxeter_system.element(w.word)
        assert (kl.simple_character(anti, w, table).coefficients
                == kl.simple_character(anti, own).coefficients)
        assert (kl.projective_multiplicities(anti, w, table)
                == kl.projective_multiplicities(anti, own))


def _finite_or_bounded(name):
    matrix, bound = WORD_ROUTE_SYSTEMS[name]
    system = CoxeterSystem(matrix)
    if bound is None:
        return system, coxeter.all_elements(system)
    return system, coxeter.elements_up_to(system, bound)


@pytest.mark.parametrize("name", sorted(WORD_ROUTE_SYSTEMS))
def test_the_column_pass_ends_where_the_walk_does(name):
    """For every w and every x, the column of w maps x to the x of the
    extremal pair that `_p` walks (x, w) to (w when P = 1), and to -1 when
    x is not <= w."""
    system, elems = _finite_or_bounded(name)
    table, walk = KLTable(system), KLTable(system)
    walk._extremal = lambda x, w: x  # the walk's end, in place of its P
    for w in elems:
        ext = table._reduce(w.id)
        for x in elems:
            end = walk._p(x.id, w.id)
            want = w.id if end == ONE else -1 if end == ZERO else end
            assert (ext[x.id] if x.id <= w.id else -1) == want, (x, w)


def test_a_column_is_built_once_per_w(monkeypatch):
    """Reading the full B3 P-table column by column builds 48 columns, one
    per w, and so does a dominant decomposition matrix on a fresh table."""
    built = []
    original = KLTable._reduce

    def counted(self, w):
        built.append(w)
        return original(self, w)

    monkeypatch.setattr(KLTable, "_reduce", counted)
    cartan = rootdata.cartan_datum(B3)
    block = blocks.block_data(cartan, weight(cartan, 0, 0, 0))
    system = block.coxeter_system
    elems = coxeter.all_elements(system)
    table = KLTable(system)
    for w in elems:
        for x in elems:
            table.poly(x, w)
    assert len(built) == len(elems) == 48
    assert len(table.memo) == EXTREMAL_PAIRS["B3"]
    built.clear()
    kl.decomposition_matrix(block, KLTable(system))
    assert len(built) == 48


@pytest.fixture(scope="module")
def kl_cache_dir(tmp_path_factory):
    """A KL disk cache holding, for each group of WORD_ROUTE_SYSTEMS, what
    reading columns from its last listed element down stores, up to the
    first column that stores a pair."""
    root = tmp_path_factory.mktemp("kl-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("BLOCKO_CACHE", str(root))
        for name in WORD_ROUTE_SYSTEMS:
            system, elems = _finite_or_bounded(name)
            table = KLTable(system)
            for w in reversed(elems):
                table.column(w)
                if table.memo:
                    break
            cli._store_kl_cache(table, (0, set()))
    return root


@pytest.fixture(scope="module")
def word_routes():
    """name -> (system, elements, WordKL), filled as used, so that the
    examples of a property test share one reference."""
    return {}


@pytest.mark.parametrize("name", sorted(WORD_ROUTE_SYSTEMS))
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_the_one_column_cache_reads_like_the_walk(name, kl_cache_dir, word_routes, data):
    """`poly` read in any interleaving of a few w, with the disk cache
    loaded once between reads, gives the word route's P, and its store gets
    the keys of the per-pair walk `_p` over the same reads.  Read in full
    afterwards, the store holds the table's extremal pairs."""
    if name not in word_routes:
        system, elems = _finite_or_bounded(name)
        word_routes[name] = system, elems, WordKL(system)
    system, elems, ref = word_routes[name]
    ws = data.draw(st.lists(st.sampled_from(elems), min_size=1, max_size=3))
    reads = data.draw(st.lists(st.tuples(st.sampled_from(elems), st.sampled_from(ws)),
                               min_size=2, max_size=24))
    load_at = data.draw(st.integers(1, len(reads) - 1))
    table, walk = KLTable(system), KLTable(system)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("BLOCKO_CACHE", str(kl_cache_dir))
        for i, (x, w) in enumerate(reads):
            if i == load_at:
                cli._load_kl_cache(table)
                cli._load_kl_cache(walk)
            assert table.poly(x, w) == ref.poly(x.word, w.word), (x, w)
            walk._p(x.id, w.id)
    assert table.memo.keys() == walk.memo.keys()
    for w in elems:
        table.column(w)
    assert len(table.memo) == EXTREMAL_PAIRS[name]
