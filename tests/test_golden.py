"""Golden outputs of the structure-algebra layer.

`golden_zmod.json` holds the canonical JSON of a few `zmod` results,
`golden_bott_samelson.json` the `zlattice_to_json` of the Bott-Samelson
lattices of every word of length at most 4 over six blocks, and
`golden_projectives.json` the `zlattice_to_json` and `graded_char` of every
projective of four of those blocks and of five more; all three are written by
`PYTHONPATH=src python tests/test_golden.py --write`.  Any
change to the exact linear algebra underneath, or to the structure algebra
that translation multiplies by, must leave them byte-identical: reduced
echelon forms, kernel bases, free-variables-zero solutions and span
membership are all canonical, so a correct kernel cannot change them.
"""

import io
import itertools
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from blocko import blocks, cli, rootdata, zmod

from conftest import A1_AFFINE, A2, A2_AFFINE, A3, B2, weight

G2 = [[2, -1], [-3, 2]]
GOLDEN = Path(__file__).with_name("golden_zmod.json")
BS_GOLDEN = Path(__file__).with_name("golden_bott_samelson.json")
PROJECTIVE_GOLDEN = Path(__file__).with_name("golden_projectives.json")


def _canon(lattice):
    return {
        "lattice": zmod.zlattice_to_json(lattice),
        "graded_char": sorted(
            (cli.word_str(w), ds) for w, ds in zmod.graded_char(lattice).items()
        ),
    }


def _graph(matrix, length_bound=blocks.DEFAULT_LENGTH_BOUND):
    cartan = rootdata.cartan_datum(matrix)
    lam = weight(cartan, *([0] * cartan.rank))
    return zmod.moment_graph(blocks.block_data(cartan, lam, length_bound=length_bound))


def _projectives(matrix, max_length):
    graph = _graph(matrix)
    return {
        cli.word_str(w): _canon(zmod.identify_projective(graph, w))
        for w in graph.vertices
        if len(w) <= max_length
    }


def _affine_algebra():
    return _canon(zmod.structure_algebra(_graph(A1_AFFINE, length_bound=3)))


def _g2_center():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g2.json"
        path.write_text(json.dumps({"rank": 2, "matrix": G2}))
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["center", "--cartan", str(path), "--weight", "0,0",
                             "--degree-bound", "12"])
    assert code == 0
    return out.getvalue()


CASES = {
    "A2.projectives": lambda: _projectives(A2, 3),
    "B2.projectives.length<=2": lambda: _projectives(B2, 2),
    "A1~.structure_algebra.length3": _affine_algebra,
    "G2.center.degree12.stdout": _g2_center,
}


def _lattices():
    """The lattices behind CASES: the A2 and B2 projectives, and Z of A1~
    at length 3 and of G2."""
    for matrix, max_length in ((A2, 3), (B2, 2)):
        graph = _graph(matrix)
        for w in graph.vertices:
            if len(w) <= max_length:
                yield zmod.identify_projective(graph, w)
    yield zmod.structure_algebra(_graph(A1_AFFINE, length_bound=3))
    yield zmod.structure_algebra(_graph(G2))


def test_generic_values_match_poly_evaluation():
    # the certificates evaluate integer slot vectors; the generators handed
    # out, evaluated as Poly at the same point, give the same values
    for lattice in _lattices():
        point = zmod._GENERIC_PRIMES[: lattice.graph.nvars]
        for gen, (vec, den, d) in zip(lattice.generators, lattice.vectors):
            assert (zmod._generic_values(lattice.graph, vec, d)
                    == [den * p.evaluate(point) for p in gen])


# (Cartan matrix, weight, length bound) of the Bott-Samelson golden blocks
BS_BLOCKS = {
    "A2": (A2, (0, 0), blocks.DEFAULT_LENGTH_BOUND),
    "B2": (B2, (0, 0), blocks.DEFAULT_LENGTH_BOUND),
    "G2": (G2, (0, 0), blocks.DEFAULT_LENGTH_BOUND),
    "A3": (A3, (0, 0, 0), blocks.DEFAULT_LENGTH_BOUND),
    "A1~": (A1_AFFINE, (0, 0), 5),
    "G2(1/3,0)": (G2, ("1/3", 0), blocks.DEFAULT_LENGTH_BOUND),
}


# the blocks of BS_BLOCKS whose every projective is in the projective golden
PROJECTIVE_BLOCKS = ("A1~", "A3", "B2", "G2(1/3,0)")

# (Cartan matrix, weight, length bound) of the further blocks whose every
# projective is in the projective golden: antidominant bases (where the
# projectives are the tilting sheaves), a regular interior base, affine A2
# and a block whose W(lambda) is not W
PROJECTIVE_ONLY_BLOCKS = {
    "A2(-2,-2)": (A2, (-2, -2), blocks.DEFAULT_LENGTH_BOUND),
    "A1~(-2,-2)": (A1_AFFINE, (-2, -2), 5),
    "A2(2,-2)": (A2, (2, -2), blocks.DEFAULT_LENGTH_BOUND),
    "A2~": (A2_AFFINE, (0, 0, 0), 4),
    "B2(0,1/2)": (B2, (0, "1/2"), blocks.DEFAULT_LENGTH_BOUND),
}


def _block_graph(name):
    matrix, coords, length_bound = {**BS_BLOCKS, **PROJECTIVE_ONLY_BLOCKS}[name]
    cartan = rootdata.cartan_datum(matrix)
    block = blocks.block_data(cartan, weight(cartan, *coords), length_bound=length_bound)
    return zmod.moment_graph(block)


def _bott_samelson_lattices(name):
    """word -> zlattice_to_json of its Bott-Samelson lattice, for every word
    of length at most 4 in W(lambda)'s generators.  Each lattice is theta_s
    of the lattice of its prefix, as in `zmod.bott_samelson`, so the prefixes
    are computed once."""
    graph = _block_graph(name)
    lattices = {(): zmod.verma_zmodule(graph, ())}
    out = {"e": zmod.zlattice_to_json(lattices[()])}
    for k in range(1, 5):
        for word in itertools.product(range(len(graph.block.integral_simples)), repeat=k):
            lattices[word] = zmod.theta_s(lattices[word[:-1]], word[-1])
            out[cli.word_str(word)] = zmod.zlattice_to_json(lattices[word])
    return out


def _block_projectives(name):
    """word -> canonical JSON of P(word), for every vertex of the block."""
    graph = _block_graph(name)
    return {cli.word_str(w): _canon(zmod.identify_projective(graph, w))
            for w in graph.vertices}


def _dump(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert _dump(CASES[name]()) == _dump(golden[name])


@pytest.mark.parametrize("name", sorted(BS_BLOCKS))
def test_bott_samelson_golden(name):
    golden = json.loads(BS_GOLDEN.read_text())
    assert _dump(_bott_samelson_lattices(name)) == _dump(golden[name])


@pytest.mark.parametrize("name", PROJECTIVE_BLOCKS + tuple(PROJECTIVE_ONLY_BLOCKS))
def test_projective_golden(name):
    golden = json.loads(PROJECTIVE_GOLDEN.read_text())
    assert _dump(_block_projectives(name)) == _dump(golden[name])


def _write_per_lattice(path, names, lattices_of):
    """Write {name: {word: value}} with one line per lattice."""
    blocks_json = []
    for name in names:
        lattices = lattices_of(name)
        lines = [f"{json.dumps(w)}:{_dump(lattices[w])}" for w in sorted(lattices)]
        blocks_json.append(f"{json.dumps(name)}:{{\n" + ",\n".join(lines) + "\n}")
    path.write_text("{\n" + ",\n".join(blocks_json) + "\n}\n")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    data = {name: case() for name, case in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    _write_per_lattice(BS_GOLDEN, sorted(BS_BLOCKS), _bott_samelson_lattices)
    _write_per_lattice(PROJECTIVE_GOLDEN, PROJECTIVE_BLOCKS + tuple(PROJECTIVE_ONLY_BLOCKS),
                       _block_projectives)
