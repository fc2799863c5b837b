"""Inputs each layer refuses, one test per refusal: malformed Coxeter and
Cartan data, blocks outside a function's scope, vertices outside the
truncated orbit, and the CLI's exit codes on bad input (1) and on a
mathematical rejection (2)."""

import json

import pytest

from blocko import blocks, cli, kl, rootdata
from blocko.coxeter import CoxeterSystem
from blocko.errors import CartanError, CriticalityError, TruncationError, UnsupportedError
from blocko.zmod import (
    hom_graded,
    identify_projective,
    invariant_structure_algebra,
    moment_graph,
    singular_reduce,
    theta_s,
    verma_zmodule,
)

from conftest import A1_AFFINE, A2, weight

A9 = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(9)] for i in range(9)]


def _block(matrix, *coords, length_bound=blocks.DEFAULT_LENGTH_BOUND):
    cartan = rootdata.cartan_datum(matrix)
    return blocks.block_data(cartan, weight(cartan, *coords), length_bound)


# ---------------------------------------------------------------------------
# coxeter and rootdata


@pytest.mark.parametrize("matrix, error, text", [
    ([[1, 3], [3]], ValueError, "must be square"),
    ([[1, 3], [2, 1]], ValueError, "must be symmetric"),
    ([[2, 3], [3, 1]], ValueError, "diagonal must be 1"),
    ([[1, 5], [5, 1]], UnsupportedError, "bond label 5"),
], ids=["non-square", "non-symmetric", "diagonal", "bond-5"])
def test_coxeter_system_refuses_a_bad_matrix(matrix, error, text):
    with pytest.raises(error, match=text):
        CoxeterSystem(matrix)


@pytest.mark.parametrize("build, error, text", [
    (lambda: rootdata.cartan_from_json({"rank": 3, "matrix": A2}), CartanError,
     "rank does not match"),
    (lambda: rootdata.weight_from_json({"coords": ["0"]}, rootdata.cartan_datum(A2)),
     ValueError, "coordinate count"),
    (lambda: rootdata.build_root_system(rootdata.cartan_datum(A2), 0), ValueError,
     "height_bound must be >= 1"),
    (lambda: rootdata.Root(rootdata.cartan_datum(A2), (1, -1)).sign, ValueError,
     "mixed-sign"),
], ids=["rank", "weight-coordinates", "height-bound-0", "mixed-sign-root"])
def test_rootdata_refuses(build, error, text):
    with pytest.raises(error, match=text):
        build()


# ---------------------------------------------------------------------------
# blocks and kl


def test_equivalence_is_not_determined_across_ranks():
    verdict = blocks.equivalence_check(_block(A2, 0, 0), _block(A2, "1/2", 0))
    assert verdict == "not-determined"


def test_equivalence_search_stops_above_eight_generators():
    block = _block(A9, *[0] * 9, length_bound=1)
    with pytest.raises(UnsupportedError, match="capped at 8"):
        blocks.equivalence_check(block, block)


@pytest.mark.parametrize("matrix, coords, error", [
    (A1_AFFINE, (-1, -1), CriticalityError),
    (A2, (2, -2), UnsupportedError),
], ids=["critical", "interior"])
def test_verma_hom_dim_refuses(matrix, coords, error):
    block = _block(matrix, *coords, length_bound=2)
    e = block.coxeter_system.element()
    with pytest.raises(error):
        kl.verma_hom_dim(block, e, e)


# ---------------------------------------------------------------------------
# zmod


@pytest.fixture(scope="module")
def a2_short():
    return moment_graph(_block(A2, 0, 0, length_bound=1))


def test_verma_zmodule_refuses_a_word_outside_the_orbit(a2_short):
    with pytest.raises(ValueError, match="outside the truncated orbit"):
        verma_zmodule(a2_short, (0, 1))


def test_theta_s_refuses_to_leave_the_truncation(a2_short):
    with pytest.raises(TruncationError, match="not closed under the wall"):
        theta_s(verma_zmodule(a2_short, (0,)), 1)


def test_hom_graded_refuses_two_graphs(a2_short):
    other = moment_graph(_block(A2, 0, 0, length_bound=1))
    with pytest.raises(ValueError, match="different graphs"):
        hom_graded(verma_zmodule(a2_short, ()), verma_zmodule(other, ()), 0)


def test_identify_projective_refuses_a_singular_block():
    graph = moment_graph(_block(A2, 0, -1))
    with pytest.raises(UnsupportedError, match="regular block"):
        identify_projective(graph, ())


def test_invariant_structure_algebra_refuses_a_set_open_under_the_wall(a2_short):
    with pytest.raises(TruncationError, match="not closed under the wall"):
        invariant_structure_algebra(a2_short, [(), (0,), (1,)], 1)


def test_singular_reduce_without_a_wall_returns_the_lattice(a2_short):
    M = verma_zmodule(a2_short, ())
    assert singular_reduce(a2_short, M, ()) == [M]


def test_singular_reduce_refuses_two_walls(a2_short):
    M = verma_zmodule(a2_short, ())
    with pytest.raises(UnsupportedError, match="one simple reflection"):
        singular_reduce(a2_short, M, (0, 1))


# ---------------------------------------------------------------------------
# the CLI


@pytest.mark.parametrize("matrix, argv, code, text", [
    (A1_AFFINE, ["block", "--weight", "0,0;foo=1"], 1, "unrecognized weight suffix"),
    (A2, ["kl", "--x", "0", "--w", "1"], 1, "1-based"),
    (A2, ["kl", "--x", "1"], 1, "kl requires --x and --w"),
    (A2, ["character", "--weight", "0,0"], 1, "character requires --w"),
    (A2, ["bs", "--weight", "0,0"], 1, "bs requires --word"),
    (A1_AFFINE, ["character", "--weight=-1,-1", "--w", "e"], 2, "non-critical"),
], ids=["weight-suffix", "letter-0", "kl-without-w", "character-without-w",
        "bs-without-word", "critical-character"])
def test_cli_exit_code(matrix, argv, code, text, cartan_file, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKO_CACHE", str(tmp_path / "cache"))
    command, *options = argv
    assert cli.main([command, "--cartan", cartan_file(matrix), *options]) == code
    assert text in json.loads(capsys.readouterr().out)["error"]


def test_cli_equiv_refuses_one_weight(cartan_file, capsys):
    path = cartan_file(A2)
    argv = ["equiv", "--cartan", path, "--cartan", path, "--weight", "0,0"]
    assert cli.main(argv) == 1
    assert "two --weight" in json.loads(capsys.readouterr().out)["error"]
