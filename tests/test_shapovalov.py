"""Every printed character checked from the Lie algebra: the rank of the
Shapovalov form of M(w.lambda) in each weight is dim L(w.lambda) there, and
`kl.simple_character` writes ch L(w.lambda) as sum_y c_y ch M(y.lambda), whose
dimension at w.lambda - nu is sum_y c_y K(nu - (w.lambda - y.lambda)).  The
KL side reads only W(lambda); the form reads only the Cartan matrix, so this
is the Kazhdan-Lusztig conjecture for non-integral blocks, checked weight
space by weight space."""

from fractions import Fraction

import pytest

from blocko import blocks, coxeter, kl, rootdata

from conftest import A1, A1_AFFINE, A2, A2_AFFINE, A3, B2, B3, G2, weight
from shapovalov import WordBasis, character_dimensions, kac_kazhdan_hits

A2_TWISTED = [[2, -4], [-1, 2]]
C2_AFFINE = [[2, -1, 0], [-2, 2, -2], [0, -1, 2]]
G2_AFFINE = [[2, -1, 0], [-1, 2, -1], [0, -3, 2]]

# name: (Cartan matrix, base weight, length bound, depth).  On an infinite
# W(lambda) over a dominant base, `simple_character` sums over y >= w of
# length at most the bound; each length step lowers the weight by a positive
# root, so the terms it leaves out lie deeper than bound - l(w), and only the
# vertices with l(w) + depth <= bound are checked.  Ten of the eighteen
# blocks are non-integral.
CASES = {
    "A1": (A1, (0,), 8, 8),
    "A2": (A2, (0, 0), 8, 6),
    "B2": (B2, (0, 0), 8, 8),
    "G2": (G2, (0, 0), 8, 8),
    "A3": (A3, (0, 0, 0), 8, 5),
    "A2 (-2, -2)": (A2, (-2, -2), 8, 6),
    "G2 (1/3, 0)": (G2, ("1/3", 0), 8, 6),
    "B2 (0, 1/2)": (B2, (0, "1/2"), 8, 6),
    "B3 (1/2, 0, 0)": (B3, ("1/2", 0, 0), 9, 4),
    "A3 (1/2, 0, 1/2)": (A3, ("1/2", 0, "1/2"), 8, 4),
    "A2 (1/2, 1/2)": (A2, ("1/2", "1/2"), 8, 6),
    "A1~": (A1_AFFINE, (0, 0), 10, 7),
    "A1~ (1/3, 0)": (A1_AFFINE, ("1/3", 0), 10, 7),
    "A2~": (A2_AFFINE, (0, 0, 0), 7, 4),
    "C2~ (1/2, 0, 0)": (C2_AFFINE, ("1/2", 0, 0), 7, 4),
    "G2~ (0, 1/2, 0)": (G2_AFFINE, (0, "1/2", 0), 7, 4),
    "A2^(2) (1/2, 0)": (A2_TWISTED, ("1/2", 0), 10, 7),
    "A2^(2) (0, 1/3)": (A2_TWISTED, (0, "1/3"), 10, 7),
}

_CHECKED = {}  # name -> (weight spaces, simple mismatches, Verma mismatches)


def _checked_vertices(block, depth):
    if block.position == "dominant" and not coxeter.is_finite(block.coxeter_system):
        return [v for v in block.orbit if len(v.word) + depth <= block.length_bound]
    return block.orbit


def _check(name):
    """Compare the Gram ranks at every checked orbit weight with the simple
    character and, as a mutation, with the Verma character."""
    if name not in _CHECKED:
        matrix, coords, length_bound, depth = CASES[name]
        cartan = rootdata.cartan_datum(matrix)
        block = blocks.block_data(cartan, weight(cartan, *coords), length_bound)
        words = WordBasis(cartan, depth)
        table = kl.KLTable(block.coxeter_system)
        spaces = simple_bad = verma_bad = 0
        for v in _checked_vertices(block, depth):
            w = block.coxeter_system.element(v.word)
            simple = kl.simple_character(block, w, table).coefficients
            ranks = words.ranks(v.weight.coords)
            want = character_dimensions(block, simple, v.word, words)
            verma = character_dimensions(block, {v.word: 1}, v.word, words)
            spaces += len(ranks)
            simple_bad += sum(ranks[nu] != want[nu] for nu in ranks)
            verma_bad += sum(ranks[nu] != verma[nu] for nu in ranks)
        _CHECKED[name] = spaces, simple_bad, verma_bad
    return _CHECKED[name]


@pytest.mark.parametrize("name", CASES)
def test_simple_characters_are_the_shapovalov_ranks(name):
    spaces, simple_bad, _ = _check(name)
    assert spaces and simple_bad == 0


@pytest.mark.parametrize("name", CASES)
def test_verma_characters_fail_the_shapovalov_ranks(name):
    # the mutation: ch M(w.lambda) in place of ch L(w.lambda)
    assert _check(name)[2] > 0


def test_half_the_blocks_are_non_integral():
    non_integral = [name for name, (_, coords, _, _) in CASES.items()
                    if any(Fraction(c).denominator > 1 for c in coords)]
    assert 2 * len(non_integral) >= len(CASES)


@pytest.mark.parametrize("name", CASES)
def test_the_generic_weight_is_off_every_kac_kazhdan_hyperplane(name):
    matrix, _, _, depth = CASES[name]
    cartan = rootdata.cartan_datum(matrix)
    assert kac_kazhdan_hits(cartan, (depth,) * cartan.rank, depth) == []
    # one step deeper f_i^(depth + 1) v is a singular vector
    assert kac_kazhdan_hits(cartan, (depth,) * cartan.rank, depth + 1)


def test_zero_meets_the_hyperplane_of_its_simple_root():
    # 0 meets 2 (rho, alpha) = (alpha, alpha) at height 1
    cartan = rootdata.cartan_datum(A1)
    assert kac_kazhdan_hits(cartan, (0,), 1) == [((1,), 1)]


@pytest.mark.parametrize("matrix, counts", [
    # A2: K(a1 + a2) counts {a1 + a2} and {a1, a2}
    (A2, {(1, 0): 1, (1, 1): 2, (2, 1): 2, (2, 2): 3, (3, 3): 4}),
    # affine A1: delta is a root, of multiplicity one
    (A1_AFFINE, {(1, 1): 2, (2, 1): 3, (2, 2): 6}),
    # G2: six positive roots, so K(a1 + a2) = 2 and K(a1 + 2 a2) = 3
    (G2, {(1, 1): 2, (1, 2): 3, (2, 1): 2}),
])
def test_partition_counts(matrix, counts):
    words = WordBasis(rootdata.cartan_datum(matrix), 6)
    assert {nu: words.partition_count(nu) for nu in counts} == counts
    assert words.partition_count((-1, 0)) == 0
