"""Cartan data, the invariant form, roots and weights."""

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from blocko import blocks
from blocko.errors import CartanError
from blocko.rootdata import (
    Root,
    Weight,
    build_root_system,
    cartan_datum,
    cartan_from_json,
    cartan_to_json,
    coroot_pairing,
    form,
    reflect,
    reflect_root,
    rho,
    simple_root,
    weight_from_json,
    weight_to_json,
)

import fraction_roots
from conftest import A1_AFFINE, A2, A2_AFFINE, A3, B2, B3, G2, weight

rationals = st.fractions(
    max_denominator=6, min_value=Fraction(-5), max_value=Fraction(5)
)


def test_kind_detection():
    assert cartan_datum([[2]]).kind == "finite"
    assert cartan_datum(A2).kind == "finite"
    assert cartan_datum(B2).kind == "finite"
    assert cartan_datum(A1_AFFINE).kind == "affine"
    assert cartan_datum([[2, -3], [-3, 2]]).kind == "indefinite"


def _small_gcms():
    """Every 2x2 and 3x3 GCM with off-diagonal entries in 0..-4 and a
    symmetric zero pattern."""
    pairs = [(0, 0)] + [(a, b) for a in range(-1, -5, -1) for b in range(-1, -5, -1)]
    for n in (2, 3):
        spots = list(itertools.combinations(range(n), 2))
        for choice in itertools.product(pairs, repeat=len(spots)):
            m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), (a, b) in zip(spots, choice):
                m[i][j], m[j][i] = a, b
            yield m


def test_every_small_gcm_is_typed_and_affine_ones_delete_node_0():
    kinds = Counter()
    for m in _small_gcms():
        try:
            cartan = cartan_datum(m)
        except CartanError:
            kinds["not symmetrizable"] += 1
            continue
        kinds[cartan.kind] += 1
        if cartan.kind == "affine":
            marks = cartan.marks
            assert all(x > 0 for x in marks) and math.gcd(*marks) == 1
            assert all(sum(map(operator.mul, row, marks)) == 0 for row in m)
            rest = [row[1:] for row in m[1:]]
            assert cartan_datum(rest).kind == "finite"
    assert kinds == {"finite": 37, "affine": 28, "indefinite": 1109,
                     "not symmetrizable": 3756}


def test_bad_gcm_rejected():
    with pytest.raises(CartanError):
        cartan_datum([[2, -1], [0, 2]])  # zero pattern not symmetric
    with pytest.raises(CartanError):
        cartan_datum([[1]])
    with pytest.raises(CartanError):
        cartan_datum(B2, symmetrizer=[1, 1])
    with pytest.raises(CartanError, match="must be <= 0"):
        cartan_datum([[2, 1], [1, 2]])
    with pytest.raises(CartanError, match="must be positive"):
        cartan_datum(A2, symmetrizer=[1, 0])


def test_b2_symmetrizer():
    cartan = cartan_datum(B2)
    d = cartan.symmetrizer
    for i in range(2):
        for j in range(2):
            assert d[i] * cartan.matrix[i][j] == d[j] * cartan.matrix[j][i]


PROPERTY_CARTANS = {
    name: cartan_datum(matrix)
    for name, matrix in (("A2", A2), ("B2", B2), ("A3", A3), ("B3", B3), ("G2", G2),
                         ("A1~", A1_AFFINE), ("A2~", A2_AFFINE))
}


@st.composite
def cartan_weights(draw, count):
    """A Cartan datum of PROPERTY_CARTANS and `count` weights of it, with a
    delta coefficient on the affine ones."""
    cartan = PROPERTY_CARTANS[draw(st.sampled_from(sorted(PROPERTY_CARTANS)))]
    coords = st.lists(rationals, min_size=cartan.rank, max_size=cartan.rank)
    deltas = rationals if cartan.is_affine else st.just(0)
    return cartan, [Weight(cartan, tuple(draw(coords)), draw(deltas)) for _ in range(count)]


@given(cartan_weights(2))
def test_form_symmetric(case):
    _, (x, y) = case
    assert form(x, y) == form(y, x)


@given(cartan_weights(1))
def test_reflect_involution(case):
    cartan, (x,) = case
    for i in range(cartan.rank):
        beta = simple_root(cartan, i)
        assert reflect(beta, reflect(beta, x)) == x


def test_symmetrizer_rescaling_changes_form_not_integrality():
    # the form scales, coroot pairings do not
    a = cartan_datum(A2)
    b = cartan_datum(A2, symmetrizer=[3, 3])
    for i in range(2):
        for j in range(2):
            assert coroot_pairing(
                simple_root(a, j), simple_root(a, i)
            ) == coroot_pairing(simple_root(b, j), simple_root(b, i))
    assert form(simple_root(b, 0), simple_root(b, 0)) == 3 * form(
        simple_root(a, 0), simple_root(a, 0)
    )


def test_rho_pairings_are_one():
    for matrix in (A2, B2):
        cartan = cartan_datum(matrix)
        r = rho(cartan)
        for i in range(cartan.rank):
            assert coroot_pairing(r, simple_root(cartan, i)) == 1


def test_positive_root_counts():
    assert len(build_root_system(cartan_datum(A2), 10).positive_roots) == 3
    assert len(build_root_system(cartan_datum(B2), 10).positive_roots) == 4


def test_affine_root_system_has_imaginary_layer():
    cartan = cartan_datum(A1_AFFINE)
    system = build_root_system(cartan, 8)
    imaginary = [r for r in system.positive_roots if not r.is_real]
    assert imaginary
    delta = Root(cartan, cartan.marks)
    assert all(form(r, r) == 0 for r in imaginary)
    assert imaginary[0].simple_coords == delta.simple_coords


def test_reflect_root_permutes_positives_minus_alpha():
    cartan = cartan_datum(B2)
    system = build_root_system(cartan, 10)
    for i in range(2):
        alpha = simple_root(cartan, i)
        others = [
            r
            for r in system.positive_roots
            if r.simple_coords != alpha.simple_coords
        ]
        images = [reflect_root(alpha, r) for r in others]
        assert all(r.sign > 0 for r in images)


def test_weight_json_round_trip():
    cartan = cartan_datum(A1_AFFINE)
    w = Weight(cartan, (Fraction(1, 2), Fraction(-3)), Fraction(2, 5))
    again = weight_from_json(weight_to_json(w), cartan)
    assert again == w


@pytest.mark.parametrize("obj", [{"coords": [True, 0]}, {"coords": [0, 0], "delta": False}],
                         ids=["coordinate", "delta"])
def test_weight_json_refuses_a_boolean(obj):
    with pytest.raises(ValueError, match="is a boolean, not a number"):
        weight_from_json(obj, cartan_datum(A1_AFFINE))


def test_cartan_json_round_trip():
    cartan = cartan_datum(B2)
    again = cartan_from_json(cartan_to_json(cartan))
    assert again.matrix == cartan.matrix
    assert again.symmetrizer == cartan.symmetrizer


TYPES = {
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "G2": [[2, -1], [-3, 2]],
    "A1~": A1_AFFINE,
    "A2~": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "C2~": [[2, -2, 0], [-1, 2, -1], [0, -2, 2]],
    "A2(2)": [[2, -1], [-4, 2]],
}


@lru_cache(maxsize=None)
def _positive_roots(name):
    return build_root_system(cartan_datum(TYPES[name]), 6).positive_roots


@pytest.mark.parametrize("name", sorted(TYPES))
@settings(max_examples=40)
@given(data=st.data())
def test_root_pairing_matches_weight_gram(name, data):
    """A root pairs through its simple coordinates; the same value comes
    from the root as a weight and the Gram matrix of the weight basis."""
    roots = _positive_roots(name)
    cartan = roots[0].cartan
    beta, gamma = (data.draw(st.sampled_from(roots)) for _ in range(2))
    beta = beta if data.draw(st.booleans()) else -beta
    lam = Weight(
        cartan,
        tuple(data.draw(rationals) for _ in range(cartan.rank)),
        data.draw(rationals) if cartan.is_affine else 0,
    )
    as_weight = fraction_roots.root_to_weight
    assert form(beta, lam) == form(lam, beta) == form(as_weight(beta), lam)
    assert form(beta, gamma) == form(as_weight(beta), as_weight(gamma))
    assert isinstance(form(beta, gamma), Fraction)


@pytest.mark.parametrize("name", sorted(TYPES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_root_arithmetic_matches_the_fraction_route(name, data):
    """The form on roots, coroot pairings and reflections from the datum's
    integer table equal the Fraction route's, on non-integral weights with
    any delta coefficient; an imaginary root is refused alike."""
    roots = _positive_roots(name)
    cartan = roots[0].cartan
    beta, gamma = (data.draw(st.sampled_from(roots)) for _ in range(2))
    beta = beta if data.draw(st.booleans()) else -beta
    lam = Weight(
        cartan,
        tuple(data.draw(rationals) for _ in range(cartan.rank)),
        data.draw(rationals) if cartan.is_affine else 0,
    )
    for x in (gamma, lam):
        assert form(beta, x) == form(x, beta) == fraction_roots.form(beta, x)
    assert beta.is_real == fraction_roots.is_real(beta)
    calls = [(coroot_pairing, (lam, beta)), (coroot_pairing, (gamma, beta)),
             (reflect, (beta, lam)), (blocks.dot_reflect, (beta, lam)),
             (reflect_root, (beta, gamma))]
    for func, args in calls:
        ref = getattr(fraction_roots, func.__name__)
        if beta.is_real:
            assert func(*args) == ref(*args)
            continue
        with pytest.raises(ValueError) as got:
            func(*args)
        with pytest.raises(ValueError, match=f"^{got.value}$"):
            ref(*args)
    if cartan.is_affine and beta.is_real:
        # a delta shift pairs to 0 with every root and is fixed by s_beta
        shift = Weight(cartan, (0,) * cartan.rank, data.draw(rationals))
        assert coroot_pairing(lam + shift, beta) == coroot_pairing(lam, beta)
        assert reflect(beta, lam + shift) == reflect(beta, lam) + shift


@pytest.mark.parametrize("factor", ["2", "3/2"])
@pytest.mark.parametrize("name", sorted(TYPES))
def test_a_scaled_symmetrizer_scales_the_form_and_nothing_else(name, factor):
    """A JSON symmetrizer scaled by 2 or 3/2 scales the form on roots, and
    leaves pairings, reflections and the block report (bar the symmetrizer
    it echoes) as they were."""
    base = cartan_datum(TYPES[name])
    k = Fraction(factor)
    scaled = cartan_from_json(
        {"matrix": TYPES[name], "symmetrizer": [str(k * d) for d in base.symmetrizer]}
    )
    coords = [r.simple_coords for r in _positive_roots(name)][:10]
    lam = (Fraction(1, 2),) + (Fraction(-2, 3),) * (base.rank - 1)
    for a in coords:
        ra, sa = Root(base, a), Root(scaled, a)
        la, ls = Weight(base, lam, 1), Weight(scaled, lam, 1)
        assert form(sa, ls) == k * form(ra, la)
        for b in coords:
            rb, sb = Root(base, b), Root(scaled, b)
            assert form(sa, sb) == k * form(ra, rb)
            if ra.is_real:
                assert coroot_pairing(sb, sa) == coroot_pairing(rb, ra)
                assert reflect_root(sa, sb).simple_coords == reflect_root(ra, rb).simple_coords
        if ra.is_real:
            assert coroot_pairing(ls, sa) == coroot_pairing(la, ra)
            assert reflect(sa, ls).full_coords() == reflect(ra, la).full_coords()
    for coords in [(0,) * base.rank, (-1,) * base.rank, lam]:
        reports = [
            blocks.block_to_json(blocks.block_data(c, weight(c, *coords), length_bound=3))
            for c in (base, scaled)
        ]
        assert reports[1]["cartan"].pop("symmetrizer") == [
            str(k * d) for d in base.symmetrizer
        ]
        reports[0]["cartan"].pop("symmetrizer")
        assert reports[0] == reports[1]


def test_indefinite_form_on_roots_rejected():
    cartan = cartan_datum([[2, -3], [-3, 2]])
    alpha = simple_root(cartan, 0)
    with pytest.raises(CartanError):
        form(alpha, alpha)
    with pytest.raises(CartanError):
        form(alpha, Weight(cartan, (1, 0)))
    with pytest.raises(CartanError):
        form(Weight(cartan, (0, 1)), Weight(cartan, (1, 0)))


def test_value_types_built_separately_are_equal_and_hash_alike():
    a, b = cartan_datum(B2), cartan_datum([[2, -2], [-1, 2]])
    assert a is not b
    # the integer form table is derived, and left out of equality and hash
    assert a._fields(a) == (a.matrix, a.symmetrizer, a.kind, a.marks)
    pairs = [
        (a, b),
        (Weight(a, (1, Fraction(-1, 2)), 3), Weight(b, [Fraction(1), "-1/2"], "3")),
        (Root(a, (1, 2)), Root(b, [Fraction(1), 2.0])),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert Weight(a, (0, 1)) != Weight(a, (0, 1), 1)
    assert Root(a, (1, 0)) != Root(cartan_datum(A2), (1, 0))


def test_weight_and_root_normalise_their_coordinates():
    cartan = cartan_datum(A2)
    lam = Weight(cartan, [1, 2])
    assert lam.coords == (1, 2) and lam.delta == 0
    assert all(type(c) is Fraction for c in lam.coords + (lam.delta,))
    beta = Root(cartan, [Fraction(1), 1.0])
    assert beta.simple_coords == (1, 1)
    assert all(type(m) is int for m in beta.simple_coords)


def test_a_weight_equals_no_root_or_tuple():
    cartan = cartan_datum(A2)
    lam, beta = Weight(cartan, (1, 0)), Root(cartan, (1, 0))
    for other in (beta, (cartan, (1, 0), 0), (cartan, lam.coords, lam.delta), None):
        assert lam != other and other != lam
    assert beta != (cartan, (1, 0))


def test_elements_of_two_coxeter_systems_are_never_equal():
    from blocko.coxeter import CoxeterSystem

    a2, b2 = CoxeterSystem([[1, 3], [3, 1]]), CoxeterSystem([[1, 4], [4, 1]])
    again = CoxeterSystem([[1, 3], [3, 1]])  # equal to a2: the same matrix
    for word in [(), (0,), (1, 0)]:
        x, y, z = a2.element(word), b2.element(word), again.element(word)
        assert (x.word, x.id) == (y.word, y.id) == (z.word, z.id)
        assert x != y and y != x
        assert x == z and hash(x) == hash(z)
    with pytest.raises(ValueError):
        a2.element((0,)) * b2.element((0,))
