"""Integral root data of a weight, stabilizers, criticality, equivalence."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from blocko import blocks, coxeter, kl, rootdata, zmod
from blocko.coxeter import INFINITY
from blocko.errors import CriticalityError, UnsupportedError
from blocko.rootdata import rho

import fraction_roots
import orbit_walks
from conftest import A1, A1_AFFINE, A2, A2_AFFINE, A3, B2, B3, G2, weight


@pytest.fixture(scope="module")
def a2():
    return rootdata.cartan_datum(A2)


@pytest.fixture(scope="module")
def a1_affine():
    return rootdata.cartan_datum(A1_AFFINE)


@pytest.mark.parametrize("matrix, coords, simples, stab_order", [
    (A1_AFFINE, ("1/11", 0), [(0, 1), (11, 10)], 1),
    (A1_AFFINE, (-11, 10), [(1, 0), (0, 1)], 2),  # fixed by (11, 10)
    (G2, ("1/2", 0), [(0, 1), (2, 3)], 1),
], ids=["A1~(1/11,0)", "A1~(-11,10)", "G2(1/2,0)"])
def test_a_height_bound_below_a_simple_root_names_one_that_passes(
    matrix, coords, simples, stab_order
):
    # simple roots of height 21, 21 and 5, found with no height bound
    cartan = rootdata.cartan_datum(matrix)
    block = blocks.block_data(cartan, weight(cartan, *coords), length_bound=1)
    assert [b.simple_coords for b in block.integral_simples] == simples
    assert block.stab_order == stab_order


# finite, untwisted affine and twisted affine (A2^(2), D3^(2)) Cartan data
_HEIGHT_TYPES = {
    "B2": B2, "G2": G2, "A3": A3, "A1~": A1_AFFINE, "A2~": A2_AFFINE,
    "C2~": [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
    "G2~": [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
    "A2^(2)": [[2, -4], [-1, 2]],
    "D3^(2)": [[2, -2, 0], [-1, 2, -1], [0, -2, 2]],
}
_HEIGHT_COORDS = st.sampled_from(
    [-3, -2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4),
     Fraction(-2, 3)]
)


def _height_cut_simples(cartan, lam, height_bound):
    """The simple roots of W(lambda) and of the stabilizer found among the
    positive integral roots of height <= height_bound."""
    roots = blocks.integral_roots(cartan, lam, height_bound)
    positive = [b for b in roots if b.sign > 0]
    shifted = lam + rho(cartan)
    fixed = [b for b in positive if rootdata.form(shifted, b) == 0]
    return blocks._integral_simples(positive), blocks._integral_simples(fixed)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_height_bound_named_is_the_least_that_finds_the_simple_roots(data):
    name = data.draw(st.sampled_from(sorted(_HEIGHT_TYPES)))
    cartan = rootdata.cartan_datum(_HEIGHT_TYPES[name])
    lam = weight(cartan, *data.draw(st.tuples(*[_HEIGHT_COORDS] * cartan.rank)))
    block = blocks.block_data(cartan, lam, length_bound=1)
    # the simple roots of the stabilizer, as block_data finds them
    shifted = lam + rho(cartan)
    stab_simples = blocks._integral_simples([
        b for b in blocks._integral_candidates(cartan, lam)
        if rootdata.form(shifted, b) == 0
    ])
    need = max((b.height for b in block.integral_simples + stab_simples), default=1)
    simples, fixed = _height_cut_simples(cartan, lam, max(need, 48))
    assert block.integral_simples == simples
    stabilizer = coxeter.CoxeterSystem(blocks.coxeter_matrix(fixed))
    finite = coxeter.is_finite(stabilizer)
    if blocks.is_critical(block) and not fixed:
        # the translations fixing lambda + rho: see the test below
        finite = len(simples) - _components(block.coxeter_system.matrix) < 2
    assert (block.stab_order is not None) == finite
    if finite:
        assert block.stab_order == len(coxeter.all_elements(stabilizer))
    if need > 1:
        assert _height_cut_simples(cartan, lam, need - 1) != (simples, fixed)


def _components(matrix):
    """The number of connected components of a Coxeter graph."""
    seen, count = set(), 0
    for start in range(len(matrix)):
        count += start not in seen
        stack = [start]
        while stack:
            i = stack.pop()
            if i not in seen:
                seen.add(i)
                stack.extend(j for j, m in enumerate(matrix[i]) if m != 2)
    return count


@pytest.mark.parametrize("matrix, coords, length_bound, elements, weights", [
    (A2_AFFINE, (2, -3, -2), 6, 64, 56),
    (_HEIGHT_TYPES["C2~"], (1, 5, -9), 9, 121, 118),
    (A1_AFFINE, (0, -2), 10, 21, 21),
], ids=["A2~(2,-3,-2)", "C2~(1,5,-9)", "A1~(0,-2)"])
def test_a_translation_fixing_a_critical_weight_makes_its_stabilizer_infinite(
    matrix, coords, length_bound, elements, weights
):
    # At the critical level W(lambda) is a product of affine Weyl groups, and
    # its translations orthogonal to lambda + rho fix it.  No reflection
    # fixes these weights, so a repeated orbit weight is such a translation.
    # The lattice of translations has rank (simples - components): when it is
    # 2 or more, some fix lambda + rho, and the stabilizer is infinite at
    # every length bound, also where the orbit is too short to show it.
    cartan = rootdata.cartan_datum(matrix)
    lam = weight(cartan, *coords)
    shifted = lam + rho(cartan)
    assert [b for b in blocks._integral_candidates(cartan, lam)
            if rootdata.form(shifted, b) == 0] == []
    block = blocks.block_data(cartan, lam, length_bound)
    assert blocks.is_critical(block)
    system = block.coxeter_system
    assert len(coxeter.elements_up_to(system, length_bound)) == elements
    assert len(block.orbit) == weights
    infinite = weights < elements
    rank = len(block.integral_simples) - _components(block.coxeter_system.matrix)
    assert infinite == (rank >= 2)
    for bound in (1, 2, length_bound):
        short = blocks.block_data(cartan, lam, bound)
        assert short.stab_order == (None if infinite else 1)
        assert blocks.block_to_json(short)["stabilizer_order"] == short.stab_order


def test_regular_integral_block_has_full_weyl_group(a2):
    block = blocks.block_data(a2, weight(a2, 0, 0))
    assert len(block.integral_simples) == 2
    assert block.coxeter_system.matrix == ((1, 3), (3, 1))
    assert block.stab_order == 1
    assert len(block.orbit) == 6


def test_half_integral_weight_gives_type_a1(a2):
    block = blocks.block_data(a2, weight(a2, 0, "-1/2"))
    assert [list(b.simple_coords) for b in block.integral_simples] == [[1, 0]]
    assert block.coxeter_system.matrix == ((1,),)


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


@pytest.mark.parametrize("matrix, coords", [(A2, ("1/2", "1/3")), (G2, ("1/2", "-1/3"))],
                         ids=["A2", "G2"])
def test_weight_without_integral_roots_has_trivial_weyl_group(matrix, coords):
    cartan = rootdata.cartan_datum(matrix)
    block = blocks.block_data(cartan, weight(cartan, *coords))
    assert block.integral_simples == [] and block.coxeter_system.matrix == ()
    system = block.coxeter_system
    assert coxeter.is_finite(system)
    assert [x.word for x in coxeter.all_elements(system)] == [()]
    assert block.stab_order == 1
    assert block.orbit == [blocks.OrbitVertex((), block.base_weight)]
    assert blocks.block_to_json(block)["orbit"] == [
        {"word": "e", "weight": rootdata.weight_to_json(block.base_weight)}
    ]


ORBIT_TYPES = {  # name -> (Cartan matrix, length bound)
    "A2": (A2, 8), "B2": (B2, 8), "G2": (G2, 8), "A3": (A3, 8),
    "B3": (B3, 8), "A1~": (A1_AFFINE, 6), "A2~": (A2_AFFINE, 4),
}


def _orbit_block(name, coords):
    matrix, length_bound = ORBIT_TYPES[name]
    cartan = rootdata.cartan_datum(matrix)
    return blocks.block_data(cartan, weight(cartan, *coords), length_bound)


@pytest.mark.parametrize("name, coords, stab_order, position", [
    ("A2", (0, 0), 1, "dominant"),
    ("A2", (-2, -2), 1, "antidominant"),
    ("A2", (2, -3), 1, "interior"),
    ("A2", (0, -1), 2, "dominant"),
    ("A2", (-1, -1), 6, "dominant"),
    ("B2", (0, 0), 1, "dominant"),
    ("B2", (0, "1/2"), 1, "dominant"),
    ("B2", (1, -3), 2, "interior"),
    ("G2", ("1/3", 0), 1, "dominant"),
    ("G2", (-2, -2), 1, "antidominant"),
    ("G2", (-1, 0), 2, "dominant"),
    ("A3", (0, 0, 0), 1, "dominant"),
    ("A3", (-1, 0, -1), 4, "dominant"),
    ("A3", (-1, -1, 0), 6, "dominant"),
    ("A3", (1, -3, 1), 4, "interior"),
    ("B3", (-2, -2, -2), 1, "antidominant"),
    ("B3", (0, -1, 0), 2, "dominant"),
    ("B3", (-1, 0, -1), 4, "dominant"),
    ("B3", (-1, -1, 0), 6, "dominant"),
    ("A1~", (0, 0), 1, "dominant"),
    ("A1~", (-2, -2), 1, "antidominant"),
    ("A1~", (-1, 0), 2, "dominant"),
    ("A1~", (1, -4), 2, "interior"),
    ("A2~", (0, 0, 0), 1, "dominant"),
    ("A2~", (-2, -2, -2), 1, "antidominant"),
    ("A2~", (-1, -1, 0), 6, "dominant"),
    ("A2~", (2, -3, 0), 2, "interior"),
])
def test_orbit_matches_the_weight_bfs(name, coords, stab_order, position):
    block = _orbit_block(name, coords)
    assert (block.stab_order, kl.base_weight_position(block)) == (stab_order, position)
    assert block.orbit == orbit_walks.weight_bfs(block)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbit_matches_the_weight_bfs_on_drawn_weights(data):
    name = data.draw(st.sampled_from(sorted(ORBIT_TYPES)))
    rank = len(ORBIT_TYPES[name][0])
    coords = data.draw(st.tuples(*[st.sampled_from(
        [-3, -2, -1, 0, 1, Fraction(1, 2), Fraction(-1, 3)])] * rank))
    block = _orbit_block(name, coords)
    assert block.orbit == orbit_walks.weight_bfs(block)


def test_finite_type_never_critical(a2):
    block = blocks.block_data(a2, weight(a2, "-7/3", 5))
    assert not blocks.is_critical(block)


def test_affine_criticality_exactly_at_minus_two(a1_affine):
    for a in (-4, -3, -2, -1, 0, 1):
        w = weight(a1_affine, a, a)
        block = blocks.block_data(
            a1_affine, w, length_bound=2
        )
        # (lambda, delta) = 2a; critical iff (lambda + rho, delta) = 0
        assert blocks.is_critical(block) == (a == -1)


def test_affine_positive_level_class(a1_affine):
    block = blocks.block_data(
        a1_affine, weight(a1_affine, 0, 0), length_bound=2
    )
    assert blocks.block_to_json(block)["level_class"] == "dominant-containing"
    assert block.has_dominant and not block.has_antidominant


def test_affine_integral_coxeter_is_infinite_dihedral(a1_affine):
    block = blocks.block_data(
        a1_affine, weight(a1_affine, 0, 0), length_bound=3
    )
    assert len(block.integral_simples) == 2
    assert block.coxeter_system.matrix[0][1] is INFINITY


def test_indefinite_type_rejected_at_construction():
    from blocko.errors import CartanError

    cartan = rootdata.cartan_datum([[2, -3], [-3, 2]])
    assert cartan.kind == "indefinite"
    with pytest.raises(CartanError):
        blocks.block_data(
            cartan, weight(cartan, 0, 0), length_bound=2
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


def test_equivalence_tells_short_from_long_walls():
    # both stabilizers have order 2 and no simple index in the base weight,
    # but one wall is short and the other long
    cartan = rootdata.cartan_datum(B3)
    short_wall = blocks.block_data(cartan, weight(cartan, -4, -3, 0))
    long_wall = blocks.block_data(cartan, weight(cartan, -4, -3, 1))
    assert short_wall.stab_order == long_wall.stab_order == 2
    assert blocks.equivalence_check(short_wall, long_wall) == "not-determined"


_CLASS_CARTANS = {"A2": A2, "B2": B2, "B3": B3}
_COORDS = st.sampled_from([-3, -2, -1, 0, 1, Fraction(-1, 2)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equivalence_verdict_is_a_class_invariant(data):
    """The verdict does not depend on which weight of the class is passed."""
    matrix = _CLASS_CARTANS[data.draw(st.sampled_from(sorted(_CLASS_CARTANS)))]
    cartan = rootdata.cartan_datum(matrix)
    coords = st.tuples(*[_COORDS] * cartan.rank)
    block_a = blocks.block_data(cartan, weight(cartan, *data.draw(coords)))
    block_b = blocks.block_data(cartan, weight(cartan, *data.draw(coords)))
    vertex = data.draw(st.sampled_from(block_a.orbit))
    moved = blocks.block_data(cartan, vertex.weight)
    verdict = blocks.equivalence_check(block_a, block_b)
    assert blocks.equivalence_check(moved, block_b) == verdict
    assert blocks.equivalence_check(block_b, moved) == verdict


def test_equivalence_rejects_critical(a1_affine):
    crit = blocks.block_data(
        a1_affine, weight(a1_affine, -1, -1), length_bound=2
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
        blocks.coxeter_matrix(simples)


@pytest.mark.parametrize("matrix, coords, position, critical", [
    (A2, (0, 0), "dominant", False),
    (A2, (-2, -2), "antidominant", False),
    (A2, (1, -3), "interior", False),
    (A2, (Fraction(1, 2), -1), "dominant", False),
    (B2, (-1, -2), "antidominant", False),
    (B2, (1, -3), "interior", False),
    (G2, (-2, -2), "antidominant", False),
    (G2, (Fraction(1, 3), 0), "dominant", False),
    (A1_AFFINE, (0, 0), "dominant", False),
    (A1_AFFINE, (-2, -2), "antidominant", False),
    (A1_AFFINE, (1, -4), "interior", False),
    (A1_AFFINE, (0, -2), "interior", True),
    (A1_AFFINE, (-1, -1), "dominant", True),
])
def test_stored_position_and_criticality_match_a_recomputation(
    matrix, coords, position, critical
):
    """`block_data` pairs lambda + rho with the integral simple roots once;
    the position it stores, and the criticality `is_critical` reads off the
    level class, equal the Fraction route's pairings made afresh."""
    cartan = rootdata.cartan_datum(matrix)
    block = blocks.block_data(cartan, weight(cartan, *coords), length_bound=3)
    assert (block.position, blocks.is_critical(block)) == (position, critical)
    assert block.position == fraction_roots.base_weight_position(block)
    assert fraction_roots.is_critical(block) == critical
    assert kl.base_weight_position(block) == position


def _count_root_pairings(monkeypatch):
    """Route every module's `form` and `coroot_pairing` through a counter."""
    calls = []
    for name in ("form", "coroot_pairing"):
        original = getattr(rootdata, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        for module in (rootdata, blocks, kl, zmod):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("matrix, coords, bound", [
    (A2, (0, 0), 8),
    (A2, (-2, -2), 8),
    (B2, (-2, -2), 8),
    (G2, (0, 0), 8),
    (A1_AFFINE, (0, 0), 4),
    (A1_AFFINE, (-2, -2), 4),
])
def test_character_queries_make_no_root_pairing(matrix, coords, bound, monkeypatch):
    """After `block_data`, characters, multiplicities and Verma Hom
    dimensions read the stored position and criticality: no `form` or
    `coroot_pairing` call."""
    cartan = rootdata.cartan_datum(matrix)
    block = blocks.block_data(cartan, weight(cartan, *coords), length_bound=bound)
    calls = _count_root_pairings(monkeypatch)
    elems = coxeter.elements_up_to(block.coxeter_system, 2)
    for w in elems:
        kl.simple_character(block, w)
        if block.has_dominant:  # else tilt first
            kl.projective_multiplicities(block, w)
        for w2 in elems:
            kl.verma_hom_dim(block, w, w2)
    kl.decomposition_matrix(block)
    assert calls == []
    # and the counter does count: a chamber walk pairs
    blocks.chamber_walk(block, block.base_weight, block.has_dominant)
    assert "form" in calls


@pytest.mark.parametrize("coords, dominant", [
    ((-2, -2), True),  # negative level: only the antidominant chamber
    ((0, -2), True),  # critical: neither chamber
    ((0, -2), False),
], ids=["A1~(-2,-2) dominant", "A1~(0,-2) dominant", "A1~(0,-2) antidominant"])
def test_chamber_walk_refuses_a_chamber_the_block_lacks(coords, dominant, monkeypatch):
    cartan = rootdata.cartan_datum(A1_AFFINE)
    block = blocks.block_data(cartan, weight(cartan, *coords), length_bound=3)
    # a walk toward a missing chamber never ends: fail after 100 steps
    steps, reflect = [], blocks.reflect

    def bounded(*args):
        steps.append(args)
        assert len(steps) < 100, "the chamber walk does not end"
        return reflect(*args)

    monkeypatch.setattr(blocks, "reflect", bounded)
    side = "dominant" if dominant else "antidominant"
    with pytest.raises(UnsupportedError, match=f"^the block has no {side} chamber"):
        blocks.chamber_walk(block, block.base_weight, dominant)
    assert steps == []
    if not blocks.is_critical(block):  # the chamber the block has is walked into
        shifted = block.base_weight + rho(cartan)
        assert blocks.chamber_walk(block, block.base_weight, not dominant) == ((), shifted)


# (Cartan matrix, weight coordinates, length bound): a block of each level
# class, an `inf` bond, an infinite stabilizer (a reflection's and a critical
# translation's), a singular finite stabilizer and a non-integral weight
_REPORT_BLOCKS = [
    (A2, (0, 0), 8),  # dominant-containing
    (A1_AFFINE, (-2, -2), 4),  # antidominant-containing, an inf bond
    (A1_AFFINE, (-1, -1), 4),  # critical, fixed by all of W: neither-detected
    (A2_AFFINE, (-1, -1, -1), 3),  # critical, a stabilizer of infinite order
    (B2, (0, -1), 8),  # singular, a stabilizer of order 2
    (G2, ("1/3", 0), 8),  # non-integral
    (A2_AFFINE, (2, -3, -2), 2),  # a translation fixes it
]


def test_the_block_report_keeps_its_digest():
    """`block_to_json` of each block above, pinned by the sha256 of its
    canonical JSON."""
    reports = []
    for matrix, coords, bound in _REPORT_BLOCKS:
        cartan = rootdata.cartan_datum(matrix)
        block = blocks.block_data(cartan, weight(cartan, *coords), bound)
        reports.append(blocks.block_to_json(block))
    assert [r["level_class"] for r in reports] == [
        "dominant-containing", "antidominant-containing", "neither-detected",
        "neither-detected", "dominant-containing", "dominant-containing",
        "neither-detected"]
    assert [r["stabilizer_order"] for r in reports] == [1, 1, None, None, 2, 1, None]
    assert reports[1]["coxeter_matrix"] == [[1, "inf"], ["inf", 1]]
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "60539d72564c9471d339ff63b0e837431f53715521187dd12abece67757f7692")
