"""Coxeter systems: normal forms, Bruhat order, cones and finiteness."""

import pytest
from hypothesis import given, settings, strategies as st

from blocko import coxeter
from blocko.coxeter import INFINITY, CoxeterSystem, Element, bruhat_leq
from blocko.errors import TruncationError

import matrix_coxeter

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
        coxeter.all_elements(CoxeterSystem(INF_COX), safety_bound=32)


def test_is_finite():
    assert coxeter.is_finite(CoxeterSystem(B2_COX))
    assert not coxeter.is_finite(CoxeterSystem(INF_COX))
    assert not coxeter.is_finite(CoxeterSystem(A2_AFFINE_COX))


def test_finiteness_needs_closure_within_the_bound():
    # the longest element of B3 has length 9: the group closes within a
    # bound of 10, not within 9
    system = CoxeterSystem(B3_COX)
    assert not coxeter.is_finite(system, safety_bound=9)
    assert coxeter.is_finite(system, safety_bound=10)
    assert not coxeter.is_finite(system, safety_bound=9)
    with pytest.raises(TruncationError):
        coxeter.all_elements(system, safety_bound=9)


REFERENCE_SYSTEMS = {
    "A3": CoxeterSystem(S4_COX),
    "B3": CoxeterSystem(B3_COX),
    "G2": CoxeterSystem(G2_COX),
    "A1~": CoxeterSystem(INF_COX),
    "A2~": CoxeterSystem(A2_AFFINE_COX),
}


@st.composite
def system_words(draw):
    name = draw(st.sampled_from(sorted(REFERENCE_SYSTEMS)))
    system = REFERENCE_SYSTEMS[name]
    letters = st.integers(min_value=0, max_value=system.generator_count - 1)
    return system, tuple(draw(st.lists(letters, max_size=14)))


@settings(max_examples=200)
@given(system_words())
def test_normal_form_matches_matrix_reference(case):
    system, word = case
    nf = system.normal_form(word)
    assert nf == matrix_coxeter.normal_form(system, word)
    assert coxeter.descents(Element(system, nf)) == matrix_coxeter.right_descents(
        system, word
    )


words = st.lists(st.integers(min_value=0, max_value=1), max_size=8).map(tuple)


@given(words)
def test_normal_form_idempotent(word):
    system = CoxeterSystem(B2_COX)
    nf = system.normal_form(word)
    assert system.normal_form(nf) == nf


@given(words, st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=8))
def test_normal_form_absorbs_double_letters(word, letter, pos):
    system = CoxeterSystem(B2_COX)
    pos = min(pos, len(word))
    padded = word[:pos] + (letter, letter) + word[pos:]
    assert system.normal_form(padded) == system.normal_form(word)


@given(words)
def test_element_inverse(word):
    system = CoxeterSystem(B2_COX)
    x = system.element(word)
    assert (x * x.inverse()).word == ()
    assert x.inverse().length == x.length


@given(words, words)
def test_length_subadditive(u, v):
    system = CoxeterSystem(B2_COX)
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
