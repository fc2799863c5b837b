"""Coxeter systems: normal forms, Bruhat order, cones and finiteness."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from blocko import coxeter
from blocko.coxeter import INFINITY, CoxeterSystem, bruhat_leq
from blocko.errors import TruncationError

import matrix_coxeter
import orbit_walks

A2_COX = ((1, 3), (3, 1))
B2_COX = ((1, 4), (4, 1))
INF_COX = ((1, INFINITY), (INFINITY, 1))
S4_COX = ((1, 3, 2), (3, 1, 3), (2, 3, 1))
B3_COX = ((1, 3, 2), (3, 1, 4), (2, 4, 1))
G2_COX = ((1, 6), (6, 1))
A2_AFFINE_COX = ((1, 3, 3), (3, 1, 3), (3, 3, 1))
A4_COX = ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1))


@pytest.fixture(scope="module")
def a2():
    return CoxeterSystem(A2_COX)


@pytest.fixture(scope="module")
def s4():
    return CoxeterSystem(S4_COX)


def test_infinity_spellings():
    for spelling in (None, 0, "inf"):
        system = CoxeterSystem(((1, spelling), (spelling, 1)))
        assert system.matrix == INF_COX


def test_group_orders():
    assert len(coxeter.all_elements(CoxeterSystem(A2_COX))) == 6
    assert len(coxeter.all_elements(CoxeterSystem(B2_COX))) == 8
    assert len(coxeter.all_elements(CoxeterSystem(S4_COX))) == 24
    assert len(coxeter.all_elements(CoxeterSystem(B3_COX))) == 48
    assert len(coxeter.all_elements(CoxeterSystem(G2_COX))) == 12
    assert len(coxeter.all_elements(CoxeterSystem(A4_COX))) == 120


def test_all_elements_are_distinct_normal_forms():
    system = CoxeterSystem(B3_COX)
    elems = coxeter.all_elements(system)
    assert len({x.word for x in elems}) == len(elems)
    assert all(system.normal_form(x.word) == x.word for x in elems)
    assert elems == sorted(elems, key=lambda x: (x.length, x.word))


def test_infinite_group_refuses_enumeration():
    with pytest.raises(TruncationError):
        coxeter.all_elements(CoxeterSystem(INF_COX))


def test_is_finite():
    assert coxeter.is_finite(CoxeterSystem(B2_COX))
    assert not coxeter.is_finite(CoxeterSystem(INF_COX))
    assert not coxeter.is_finite(CoxeterSystem(A2_AFFINE_COX))


LABELS = (2, 3, 4, 6, INFINITY)


def _coxeter_matrices(rank):
    pairs = list(itertools.combinations(range(rank), 2))
    for labels in itertools.product(LABELS, repeat=len(pairs)):
        matrix = [[1] * rank for _ in range(rank)]
        for (i, j), m in zip(pairs, labels):
            matrix[i][j] = matrix[j][i] = m
        yield matrix


def test_finiteness_matches_a_capped_walk_on_every_matrix_of_rank_at_most_3():
    # every finite crystallographic Coxeter group of rank <= 3 has a
    # longest element of length <= 9 (B3), and an infinite group has
    # elements of every length, so closing within 10 decides finiteness
    count = 0
    for rank in range(4):
        for matrix in _coxeter_matrices(rank):
            system = CoxeterSystem(matrix)
            assert coxeter.is_finite(system) == orbit_walks.closes_within(system, 10)
            count += 1
    assert count == 1 + 1 + 5 + 125


def test_hyperbolic_system_is_infinite_without_a_walk():
    # labels 3, 3, inf: a hyperbolic triangle group, whose orbit vectors
    # grow exponentially with the length
    system = CoxeterSystem(((1, 3, 3), (3, 1, INFINITY), (3, INFINITY, 1)))
    assert not coxeter.is_finite(system)
    with pytest.raises(TruncationError):
        coxeter.all_elements(system)
    assert system.words == [()]


def test_element_carries_its_id():
    system = CoxeterSystem(B3_COX)
    for i, x in enumerate(coxeter.all_elements(system)):
        assert x.id == i and system.elements[i] is x
        assert system.element(x.word[::-1]) is x.inverse()


@pytest.mark.parametrize("k", [-1, 2])
def test_a_letter_outside_the_generators_is_refused(k):
    # a negative letter must not wrap round to the last generator
    system = CoxeterSystem(A2_COX)
    message = f"generator index {k} out of range"
    with pytest.raises(ValueError, match=message):
        system.word_times((), k)
    with pytest.raises(ValueError, match=message):
        coxeter.demazure_product(system, (0, k))


REFERENCE_SYSTEMS = {
    "A3": CoxeterSystem(S4_COX),
    "B3": CoxeterSystem(B3_COX),
    "G2": CoxeterSystem(G2_COX),
    "A1~": CoxeterSystem(INF_COX),
    "A2~": CoxeterSystem(A2_AFFINE_COX),
}
# the property tests also draw B2
PROPERTY_SYSTEMS = {**REFERENCE_SYSTEMS, "B2": CoxeterSystem(B2_COX)}


@st.composite
def system_words(draw, count=1, systems=REFERENCE_SYSTEMS):
    """A system and `count` words in its generators."""
    system = systems[draw(st.sampled_from(sorted(systems)))]
    letters = st.integers(min_value=0, max_value=system.generator_count - 1)
    return (system, *(tuple(draw(st.lists(letters, max_size=14))) for _ in range(count)))


@settings(max_examples=200)
@given(system_words())
def test_normal_form_matches_matrix_reference(case):
    system, word = case
    nf = system.normal_form(word)
    assert nf == matrix_coxeter.normal_form(system, word)
    assert coxeter.descents(system.element(nf)) == matrix_coxeter.right_descents(
        system, word
    )


@given(system_words(systems=PROPERTY_SYSTEMS))
def test_normal_form_idempotent(case):
    system, word = case
    nf = system.normal_form(word)
    assert system.normal_form(nf) == nf


@given(system_words(systems=PROPERTY_SYSTEMS), st.data())
def test_normal_form_absorbs_double_letters(case, data):
    system, word = case
    letter = data.draw(st.integers(min_value=0, max_value=system.generator_count - 1))
    pos = data.draw(st.integers(min_value=0, max_value=len(word)))
    padded = word[:pos] + (letter, letter) + word[pos:]
    assert system.normal_form(padded) == system.normal_form(word)


@given(system_words(systems=PROPERTY_SYSTEMS))
def test_element_inverse(case):
    system, word = case
    x = system.element(word)
    assert (x * x.inverse()).word == ()
    assert x.inverse().length == x.length


@given(system_words(2, PROPERTY_SYSTEMS))
def test_length_subadditive(case):
    system, u, v = case
    x, y = system.element(u), system.element(v)
    assert (x * y).length <= x.length + y.length
    assert ((x * y).length - x.length - y.length) % 2 == 0


def test_descents(a2):
    sts = a2.element((0, 1, 0))
    assert coxeter.descents(sts) == {0, 1}
    st_ = a2.element((0, 1))
    assert coxeter.descents(st_) == {1}


def test_bruhat_order_a2(a2):
    e = a2.element(())
    s, t = a2.element((0,)), a2.element((1,))
    st_ = a2.element((0, 1))
    w0 = a2.element((0, 1, 0))
    assert bruhat_leq(e, w0)
    assert bruhat_leq(s, st_)
    assert bruhat_leq(t, st_)
    assert not bruhat_leq(st_, s)
    assert not bruhat_leq(a2.element((1, 0)), st_)


def test_bruhat_antisymmetry_on_s4(s4):
    elems = coxeter.all_elements(s4)
    for x in elems:
        for y in elems:
            if bruhat_leq(x, y) and bruhat_leq(y, x):
                assert x.word == y.word


def test_lower_cone_is_bruhat_interval(a2):
    w0 = a2.element((0, 1, 0))
    cone = coxeter.lower_cone(w0)
    assert len(cone) == 6  # all of A2
    st_ = a2.element((0, 1))
    assert {x.word for x in coxeter.lower_cone(st_)} == {
        (), (0,), (1,), (0, 1)
    }


def test_interval(a2):
    s = a2.element((0,))
    w0 = a2.element((0, 1, 0))
    names = {x.word for x in coxeter.interval(s, w0)}
    assert names == {(0,), (0, 1), (1, 0), (0, 1, 0)}


def test_elements_up_to_infinite_dihedral():
    system = CoxeterSystem(INF_COX)
    elems = coxeter.elements_up_to(system, 5)
    # 1 + 2 per positive length
    assert len(elems) == 11
    assert all(x.length <= 5 for x in elems)


def test_coset_min_reps(a2):
    reps = coxeter.coset_min_reps(a2, (0,), 3)
    words = {x.word for x in reps}
    assert words == {(), (1,), (0, 1)}


TABLE_BOUNDS = {"A3": None, "B3": None, "G2": None, "A1~": 8, "A2~": 5}


@pytest.mark.parametrize("name", sorted(TABLE_BOUNDS))
def test_tables_match_matrix_reference(name):
    """Words, lengths, products, inverses and descent masks of the id tables
    against integer matrix products, and every cone against the subword
    property: x <= w iff x is the product of a subword of a reduced word
    of w."""
    system = CoxeterSystem(REFERENCE_SYSTEMS[name].matrix)
    bound = TABLE_BOUNDS[name]
    elems = (coxeter.all_elements(system) if bound is None
             else coxeter.elements_up_to(system, bound))
    count = len(elems)
    assert system.words[:count] == sorted(system.words[:count], key=lambda u: (len(u), u))
    normal = {}

    def nf(word):
        if word not in normal:
            normal[word] = matrix_coxeter.normal_form(system, word)
        return normal[word]

    def mask(indices):
        return sum(1 << k for k in indices)

    n = system.generator_count
    for i, x in enumerate(elems):
        word = x.word
        assert system.ids[word] == i and nf(word) == word
        assert system.length[i] == len(word)
        assert system.inv[i] == system.ids[nf(word[::-1])]
        assert system.rdesc[i] == mask(matrix_coxeter.right_descents(system, word))
        assert system.ldesc[i] == mask(matrix_coxeter.right_descents(system, word[::-1]))
        for k in range(n):
            for table, product in ((system.lmul, (k,) + word), (system.rmul, word + (k,))):
                if table[k][i] is not None:
                    assert system.words[table[k][i]] == nf(product)
                else:  # only an upward product of the longest numbered length
                    assert len(nf(product)) == len(word) + 1 == system.length[-1] + 1
        below = set()
        for picks in itertools.product((0, 1), repeat=len(word)):
            below.add(system.ids[nf(tuple(a for a, p in zip(word, picks) if p))])
        assert coxeter.members(system.cone(i)) == sorted(below)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 4000), st.sampled_from([0, 1, 2, 5, 10, 12, 13, 20, 50, 100]),
       st.integers(0, 2**32))
@example(0, 0, 0)  # the empty mask
@example(4000, 100, 0)  # all ones
@example(1920, 1, 0)  # a sparse mask of D5's numbering
def test_members_lists_the_set_bits(bits, percent, seed):
    """`members` gives the set bits in increasing order, at every density
    from 0 to all-ones."""
    rng = random.Random(seed)
    ids = [i for i in range(bits) if rng.random() * 100 < percent]
    assert coxeter.members(sum(1 << i for i in ids)) == ids


@pytest.mark.parametrize("name", ["A1~", "A2~"])
def test_growing_keeps_the_ids_of_shorter_elements(name):
    matrix = REFERENCE_SYSTEMS[name].matrix
    stepwise, at_once = CoxeterSystem(matrix), CoxeterSystem(matrix)
    seen = []
    for length in range(7):
        words = [x.word for x in coxeter.elements_up_to(stepwise, length)]
        assert words[: len(seen)] == seen
        assert all(stepwise.ids[u] == i for i, u in enumerate(words))
        seen = words
    assert [x.word for x in coxeter.elements_up_to(at_once, 6)] == seen
    # a lookup grows the numbering only up to the word's length
    fresh = CoxeterSystem(matrix)
    assert fresh.index(seen[-1]) == len(seen) - 1
    assert len(fresh.words) == len(seen)
