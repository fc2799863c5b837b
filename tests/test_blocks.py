"""Integral root data of a weight, stabilizers, criticality, equivalence."""

from fractions import Fraction

import pytest

from blocko import blocks, rootdata
from blocko.coxeter import INFINITY
from blocko.errors import CriticalityError, UnsupportedError
from blocko.rootdata import rho

from conftest import A1, A1_AFFINE, A2, B2, weight


@pytest.fixture(scope="module")
def a2():
    return rootdata.cartan_datum(A2)


@pytest.fixture(scope="module")
def a1_affine():
    return rootdata.cartan_datum(A1_AFFINE)


def test_regular_integral_block_has_full_weyl_group(a2):
    block = blocks.block_data(a2, weight(a2, 0, 0))
    assert len(block.integral_simples) == 2
    assert block.coxeter_matrix == ((1, 3), (3, 1))
    assert block.stab_order == 1
    assert len(block.orbit) == 6


def test_half_integral_weight_gives_type_a1(a2):
    block = blocks.block_data(a2, weight(a2, 0, "-1/2"))
    assert [list(b.simple_coords) for b in block.integral_simples] == [[1, 0]]
    assert block.coxeter_matrix == ((1,),)


def test_antihalf_weight_gives_highest_root_wall(a2):
    block = blocks.block_data(a2, weight(a2, "-1/2", "-1/2"))
    assert [list(b.simple_coords) for b in block.integral_simples] == [[1, 1]]


def test_singular_block_stabilizer(a2):
    block = blocks.block_data(a2, weight(a2, 0, -1))
    assert block.stab_order == 2
    assert block.stab_simple_indices == (1,)
    assert len(block.orbit) == 3  # cosets of the stabilizer


def test_orbit_words_are_shortlex_minimal(a2):
    block = blocks.block_data(a2, weight(a2, 0, 0))
    system = block.coxeter_system
    for v in block.orbit:
        assert system.normal_form(v.word) == v.word
    words = [v.word for v in block.orbit]
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_orbit_weights_consistent_with_dot_action(a2):
    block = blocks.block_data(a2, weight(a2, 0, 0))
    for v in block.orbit:
        assert blocks.dot_action(block, v.word, block.base_weight) == v.weight


def test_finite_type_never_critical(a2):
    block = blocks.block_data(a2, weight(a2, "-7/3", 5))
    assert not blocks.is_critical(block)


def test_affine_criticality_exactly_at_minus_two(a1_affine):
    for a in (-4, -3, -2, -1, 0, 1):
        w = weight(a1_affine, a, a)
        block = blocks.block_data(
            a1_affine, w, height_bound=6, length_bound=2
        )
        # (lambda, delta) = 2a; critical iff (lambda + rho, delta) = 0
        assert blocks.is_critical(block) == (a == -1)


def test_affine_positive_level_class(a1_affine):
    block = blocks.block_data(
        a1_affine, weight(a1_affine, 0, 0), height_bound=6, length_bound=2
    )
    assert blocks.classify_level(block) == "dominant-containing"
    assert block.has_dominant and not block.has_antidominant


def test_affine_integral_coxeter_is_infinite_dihedral(a1_affine):
    block = blocks.block_data(
        a1_affine, weight(a1_affine, 0, 0), height_bound=8, length_bound=3
    )
    assert len(block.integral_simples) == 2
    assert block.coxeter_matrix[0][1] is INFINITY


def test_indefinite_type_rejected_at_construction():
    from blocko.errors import CartanError

    cartan = rootdata.cartan_datum([[2, -3], [-3, 2]])
    assert cartan.kind == "indefinite"
    with pytest.raises(CartanError):
        blocks.block_data(
            cartan, weight(cartan, 0, 0), height_bound=4, length_bound=2
        )


def test_tilt_is_an_involution(a2):
    block = blocks.block_data(a2, weight(a2, 1, -3))
    double = blocks.tilt(blocks.tilt(block))
    assert double.base_weight == block.base_weight


def test_tilt_orbit_identity(a2):
    # -w.lambda - 2 rho = w.(-lambda - 2 rho)
    block = blocks.block_data(a2, weight(a2, 0, 0))
    tilted = blocks.tilt(block)
    r2 = rho(a2).scale(2)
    for v in block.orbit:
        lhs = (v.weight + r2).scale(-1)
        rhs = blocks.dot_action(tilted, v.word, tilted.base_weight)
        assert lhs == rhs


def test_equivalence_a2_wall_vs_sl2(a2):
    a1 = rootdata.cartan_datum(A1)
    block_a = blocks.block_data(a2, weight(a2, 0, "-1/2"))
    block_b = blocks.block_data(a1, weight(a1, 0))
    assert blocks.equivalence_check(block_a, block_b) == "equivalent"


def test_equivalence_distinguishes_singular_blocks(a2):
    regular = blocks.block_data(a2, weight(a2, 0, 0))
    singular = blocks.block_data(a2, weight(a2, 0, -1))
    assert blocks.equivalence_check(regular, singular) == "not-determined"


def test_equivalence_rejects_critical(a1_affine):
    crit = blocks.block_data(
        a1_affine, weight(a1_affine, -1, -1), height_bound=6, length_bound=2
    )
    with pytest.raises(CriticalityError):
        blocks.equivalence_check(crit, crit)


def test_block_json_shape(a2):
    block = blocks.block_data(a2, weight(a2, 0, 0))
    report = blocks.block_to_json(block)
    assert report["critical"] is False
    assert report["stabilizer_order"] == 1
    assert len(report["orbit"]) == 6
    assert report["orbit"][0]["word"] == "e"


@pytest.mark.parametrize(
    "pairings",
    [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(-1))],
    ids=["quarter", "negative"],
)
def test_coxeter_matrix_rejects_a_non_coxeter_bond(pairings, a2, monkeypatch):
    # the product of the two pairings is no Coxeter bond; the guard is a
    # raise, not an assert, so it also holds under python -O
    simples = [rootdata.simple_root(a2, i) for i in range(2)]
    monkeypatch.setattr(
        blocks, "coroot_pairing", lambda x, beta: pairings[simples.index(x)]
    )
    with pytest.raises(UnsupportedError, match="not a Coxeter bond"):
        blocks._coxeter_matrix(simples)
