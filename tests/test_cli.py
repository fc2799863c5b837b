"""Command-line interface: parsing, exit codes, determinism, KL cache."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blocko import cli, kl, linalg, rootdata, zmod
from blocko.errors import TruncationError

from conftest import A1, A1_AFFINE, A2, A2_AFFINE, A3, B2, B3, G2


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_block_report(cartan_file, capsys):
    path = cartan_file(A2)
    code, out = run(capsys, ["block", "--cartan", path, "--weight", "0,-1/2"])
    assert code == 0
    report = json.loads(out)
    assert report["integral_simples"] == [[1, 0]]
    assert report["critical"] is False
    assert report["stabilizer_order"] == 1


def test_missing_cartan_file_is_usage_error(capsys):
    code, out = run(capsys, ["block", "--cartan", "/no/such.json", "--weight", "0"])
    assert code == 1
    assert "error" in json.loads(out)


def test_bad_weight_is_usage_error(cartan_file, capsys):
    path = cartan_file(A1)
    code, out = run(capsys, ["block", "--cartan", path, "--weight", "x"])
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize(
    "data, problem",
    [
        ({"rank": 2, "matrix": [[2, -1.5], [-1, 2]]}, "entries must be integers"),
        ({"rank": 2}, '"matrix"'),
        ([[2, -1], [-1, 2]], "JSON object"),
        ({"rank": 0, "matrix": []}, "Cartan matrix must not be empty"),
        ({"rank": 2, "matrix": [2, 2]}, "Cartan matrix must be square"),
        ({"rank": 2, "matrix": A2, "symmetrizer": [1]}, "one entry per row"),
        ({"rank": 2, "matrix": A2, "symmetrizer": 1}, "symmetrizer must be a list"),
        # JSON's true and false read as the Python ints 1 and 0
        ({"matrix": A2, "symmetrizer": [True, True]}, "true is a boolean, not a number"),
        ({"matrix": A2, "symmetrizer": [1, False]}, "false is a boolean, not a number"),
        ({"rank": True, "matrix": A2}, "rank must be an integer"),
    ],
    ids=["fractional-entry", "no-matrix", "list", "empty", "flat-rows",
         "short-symmetrizer", "scalar-symmetrizer", "true-symmetrizer",
         "false-symmetrizer", "boolean-rank"],
)
def test_bad_cartan_file_is_usage_error(data, problem, tmp_path, capsys):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, ["block", "--cartan", str(path), "--weight", "0,0"])
    assert code == 1
    assert problem in json.loads(out)["error"]


@pytest.mark.parametrize("text", ["1/0,0", "0,0;delta=1/0"], ids=["coordinate", "delta"])
def test_zero_denominator_in_a_weight_is_usage_error(text, cartan_file, capsys):
    path = cartan_file(A1_AFFINE)
    code, out = run(capsys, ["block", "--cartan", path, "--weight", text])
    assert code == 1
    assert "'1/0'" in json.loads(out)["error"]


def test_zero_denominator_in_a_symmetrizer_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"matrix": A2, "symmetrizer": ["1/0", 1]}))
    code, out = run(capsys, ["block", "--cartan", str(path), "--weight", "0,0"])
    assert code == 1
    assert "'1/0'" in json.loads(out)["error"]


def test_wrong_coordinate_count(cartan_file, capsys):
    path = cartan_file(A2)
    code, out = run(capsys, ["block", "--cartan", path, "--weight", "0"])
    assert code == 1


def test_weight_delta_suffix(cartan_file, capsys):
    path = cartan_file(A1_AFFINE)
    code, out = run(
        capsys,
        [
            "block", "--cartan", path, "--weight=0,0;delta=1/3",
            "--length-bound", "2",
        ],
    )
    assert code == 0
    assert json.loads(out)["base_weight"]["delta"] == "1/3"


def test_a_delta_suffix_on_finite_data_is_usage_error(cartan_file, capsys):
    path = cartan_file(A2)
    code, out = run(capsys, ["block", "--cartan", path, "--weight", "0,0;delta=1/3"])
    assert code == 1
    assert json.loads(out)["error"] == "a delta coordinate needs affine Cartan data"


def test_require_noncritical_rejects_critical(cartan_file, capsys):
    path = cartan_file(A1_AFFINE)
    code, out = run(
        capsys,
        [
            "block", "--cartan", path, "--weight=-1,-1",
            "--length-bound", "2",
            "--require-noncritical",
        ],
    )
    assert code == 2
    assert json.loads(out) == {"error": "block is critical"}


_CRITICAL_WEIGHTS = [(A1_AFFINE, "-1,-1"), (A1_AFFINE, "0,-2"),
                     (A2_AFFINE, "0,-2,-1"), (A2_AFFINE, "2,-3,-2")]


@pytest.mark.parametrize("matrix, coords", _CRITICAL_WEIGHTS,
                         ids=[f"A{len(m) - 1}~({c})" for m, c in _CRITICAL_WEIGHTS])
def test_center_and_bs_refuse_a_critical_block(matrix, coords, cartan_file, capsys):
    block = ["--cartan", cartan_file(matrix), f"--weight={coords}", "--length-bound", "3"]
    code, out = run(capsys, ["block"] + block)
    assert code == 0
    assert json.loads(out)["critical"] is True
    for argv in (["center"] + block, ["bs"] + block + ["--word", "1"]):
        code, out = run(capsys, argv)
        assert code == 2
        assert json.loads(out) == {"error": "moment graphs need a non-critical block"}
    # the refusal needs no flag, and `center` takes none
    with pytest.raises(SystemExit) as err:
        cli.main(["center"] + block + ["--require-noncritical"])
    assert err.value.code == 1


def test_nonpositive_bound_is_usage_error(cartan_file, capsys):
    path = cartan_file(A1)
    code, _ = run(
        capsys, ["block", "--cartan", path, "--weight", "0", "--length-bound", "0"]
    )
    assert code == 1


def test_kl_command(cartan_file, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKO_CACHE", str(tmp_path / "cache"))
    path = cartan_file(A3)
    code, out = run(
        capsys, ["kl", "--cartan", path, "--x", "2", "--w", "2 1 3 2"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["p"] == "1+q"
    assert report["p_coefficients"] == [1, 1]


def test_kl_cache_warm_equals_cold(cartan_file, capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("BLOCKO_CACHE", str(cache))
    path = cartan_file(A3)
    argv = ["kl", "--cartan", path, "--x", "2", "--w", "2 1 3 2"]
    _, cold = run(capsys, argv)
    files = list(cache.glob("kl-*.json"))
    assert files  # cache was populated
    stored = json.loads(files[0].read_text())
    assert stored["2|2 1 3 2"] == [1, 1]
    _, warm = run(capsys, argv)
    assert warm == cold


@pytest.mark.parametrize(
    "forged",
    [[7], [], [1, 0], [1, 1, 1, 1], [1.0], "1"],
    ids=["constant", "zero", "trailing-zero", "degree", "float", "string"],
)
def test_kl_cache_forged_entry_is_recomputed(
    forged, cartan_file, capsys, tmp_path, monkeypatch
):
    cache = tmp_path / "cache"
    monkeypatch.setenv("BLOCKO_CACHE", str(cache))
    path = cartan_file(A3)
    # an extremal pair: the store keeps no other, so a forged value of any
    # other pair is dropped before it is read
    argv = ["kl", "--cartan", path, "--x", "2", "--w", "2 1 3 2"]
    _, cold = run(capsys, argv)
    (file,) = cache.glob("kl-*.json")
    assert cli.CACHE_FORMAT in file.name
    data = json.loads(file.read_text())
    data["2|2 1 3 2"] = forged
    file.write_text(json.dumps(data))
    code, warm = run(capsys, argv)
    assert code == 0
    assert warm == cold


def test_kl_cache_load_keeps_only_possible_entries(cartan_file, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKO_CACHE", str(tmp_path / "cache"))
    system = cli._integral_coxeter(cli.load_cartan(cartan_file(A3)))
    path = cli._coxeter_cache_path(system)
    path.parent.mkdir(parents=True)
    # one key can appear once per file: the second file holds the pairs
    # x = w and x not <= w with their true values, which are not stored
    for rejected in ({"1 2 1 3 2 1|e": [1],  # nonzero off the Bruhat cone
                      "2|2": [1, 1]},  # P_{w,w} is 1
                     {"1 2 1 3 2 1|e": [], "2|2": [1]}):
        path.write_text(json.dumps({
            "2|2 1 3 2": [1, 1],  # a true entry
            "e|2 1 2": [1],  # "2 1 2" is not a normal form
            "e|1 4": [1],  # no generator 4
            "e": [1],  # no separator
            "x|e": [1],  # not a word
            **rejected,
        }))
        table = kl.KLTable(system)
        cli._load_kl_cache(table)
        assert table.memo == {(system.ids[(1,)], system.ids[(1, 0, 2, 1)]): (1, 1)}


def test_kl_cache_load_numbers_no_further_than_a_word_read(
    cartan_file, tmp_path, monkeypatch
):
    # a long word that is not a normal form must not grow an affine group's
    # numbering to its length: growth stops at its first non-normal prefix
    monkeypatch.setenv("BLOCKO_CACHE", str(tmp_path / "cache"))
    system = cli._integral_coxeter(cli.load_cartan(cartan_file(A1_AFFINE)))
    path = cli._coxeter_cache_path(system)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({
        "1|1 2 1": [1],
        "e|" + " ".join(["1"] * 500): [1],
    }))
    table = kl.KLTable(system)
    cli._load_kl_cache(table)
    assert table.memo == {(system.ids[(0,)], system.ids[(0, 1, 0)]): (1,)}
    assert max(system.length) == 3


def test_kl_cache_warm_run_writes_nothing(cartan_file, capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("BLOCKO_CACHE", str(cache))
    argv = ["kl", "--cartan", cartan_file(A3), "--x", "2", "--w", "2 1 3 2"]
    run(capsys, argv)
    (file,) = cache.glob("kl-*.json")
    before = file.stat()
    run(capsys, argv)
    after = file.stat()
    # a rewrite replaces the file by a new one (new inode)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_kl_cache_store_drops_rejected_keys(cartan_file, capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("BLOCKO_CACHE", str(cache))
    argv = ["kl", "--cartan", cartan_file(A3), "--x", "2", "--w", "2 1 3 2"]
    run(capsys, argv)
    (file,) = cache.glob("kl-*.json")
    data = json.loads(file.read_text())
    data["e|2 1 2"] = [5]  # "2 1 2" is not a normal form
    file.write_text(json.dumps(data))
    _, out = run(capsys, argv)
    stored = json.loads(file.read_text())
    assert "e|2 1 2" not in stored
    assert stored["2|2 1 3 2"] == [1, 1]
    assert json.loads(out)["p"] == "1+q"


def test_kl_cache_drops_a_pair_that_is_not_extremal(
    cartan_file, capsys, tmp_path, monkeypatch
):
    # P_{e,w} = P_{s2,w} = 1+q for w = s2 s1 s3 s2, whose left descent s2 e
    # lacks: a true value, but the store keeps only the extremal pair
    cache = tmp_path / "cache"
    monkeypatch.setenv("BLOCKO_CACHE", str(cache))
    path = cartan_file(A3)
    argv = ["kl", "--cartan", path, "--x", "2", "--w", "2 1 3 2"]
    _, cold = run(capsys, argv)
    (file,) = cache.glob("kl-*.json")
    data = json.loads(file.read_text())
    data["e|2 1 3 2"] = [1, 1]
    file.write_text(json.dumps(data))
    system = cli._integral_coxeter(cli.load_cartan(path))
    table = kl.KLTable(system)
    _, dropped = cli._load_kl_cache(table)
    assert dropped == {"e|2 1 3 2"}
    assert (system.ids[()], system.ids[(1, 0, 2, 1)]) not in table.memo
    _, warm = run(capsys, argv)
    assert warm == cold
    stored = json.loads(file.read_text())
    assert "e|2 1 3 2" not in stored
    assert stored["2|2 1 3 2"] == [1, 1]


def _singular_invert(args):
    return linalg.invert([[1, 2], [2, 4]])


def _mixed_cartan(args):
    # a fault of the program that the library reports as a ValueError
    a1, a2 = rootdata.cartan_datum(A1), rootdata.cartan_datum(A2)
    return rootdata.Weight(a1, (0,)) + rootdata.Weight(a2, (0, 0))


def _raiser(exc):
    def command(args):
        raise exc

    return command


@pytest.mark.parametrize(
    "command, code",
    [
        (_raiser(cli.UsageError("bad flag")), 1),
        (_raiser(TruncationError("bound too small")), 2),
        (_singular_invert, 3),
        (_mixed_cartan, 3),
        (_raiser(KeyError("slot")), 3),
        (_raiser(RuntimeError("bug")), 3),
    ],
    ids=["usage", "rejection", "singular-invert", "library-value-error", "key-error",
         "runtime-error"],
)
def test_exit_code_separates_faults_from_input(command, code, cartan_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_block", command)
    got = cli.main(["block", "--cartan", cartan_file(A1), "--weight", "0"])
    out, err = capsys.readouterr()
    assert got == code
    assert set(json.loads(out)) == {"error"}
    # only an internal fault prints its traceback, on stderr
    assert ("Traceback" in err) == (code == 3)


def test_character_command_tsv(cartan_file, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKO_CACHE", str(tmp_path / "cache"))
    path = cartan_file(A2)
    code, out = run(
        capsys,
        [
            "character", "--cartan", path, "--weight=-2,-2",
            "--w", "1 2 1", "--format", "tsv",
        ],
    )
    assert code == 0
    lines = dict(
        line.split("\t", 1) for line in out.strip().splitlines()
    )
    assert lines["coefficients.e"] == "-1"
    assert lines["coefficients.1 2 1"] == "1"
    assert lines["truncated"] == "false"


def test_bs_command(cartan_file, capsys):
    path = cartan_file(A2)
    code, out = run(
        capsys,
        ["bs", "--cartan", path, "--weight", "0,0", "--word", "1 2 1"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 8
    sizes = sorted(len(s) for s in report["summands"])
    assert sizes == [2, 6]
    assert len(report["projective"]["graded_character"]) == 6


@pytest.mark.parametrize("word, top", [("1 1", "1"), ("1 2 2", "1 2"),
                                       ("1 2 1 1", "1 2 1")])
def test_bs_names_the_projective_of_the_demazure_product(word, top, cartan_file,
                                                         capsys):
    # the top summand of BS(word) is P of the word's Demazure product, not
    # of its normal form (e, 1 and 1 2 for these words)
    path = cartan_file(A2)
    code, out = run(capsys, ["bs", "--cartan", path, "--weight", "0,0", "--word", word])
    assert code == 0
    report = json.loads(out)
    assert report["projective"]["word"] == top
    assert report["projective"]["graded_character"] in report["summands"]


def test_bs_refuses_a_letter_outside_the_generators_as_kl_does(
    cartan_file, capsys, tmp_path, monkeypatch
):
    # A2 has the generators 1 and 2; a letter 3 is bad input, not a fault
    monkeypatch.setenv("BLOCKO_CACHE", str(tmp_path / "cache"))
    path = cartan_file(A2)
    block = ["--cartan", path, "--weight", "0,0"]
    code, out = run(capsys, ["bs"] + block + ["--word", "1 3"])
    assert code == 1
    assert json.loads(out) == {"error": "generator index 2 out of range"}
    assert run(capsys, ["character"] + block + ["--w", "3"]) == (code, out)
    assert run(capsys, ["kl", "--cartan", path, "--x", "e", "--w", "3"]) == (code, out)


def test_character_names_the_length_bound_beyond_w(
    cartan_file, capsys, tmp_path, monkeypatch
):
    # affine A1 at lambda = 0 has an infinite W(lambda); with length bound
    # 4 the dominant formula would sum over no y >= w
    monkeypatch.setenv("BLOCKO_CACHE", str(tmp_path / "cache"))
    path = cartan_file(A1_AFFINE)
    argv = ["character", "--cartan", path, "--weight", "0,0", "--w", "1 2 1 2 1",
            "--length-bound"]
    code, out = run(capsys, argv + ["4"])
    assert code == 2
    assert json.loads(out) == {"error": "vertex 1 2 1 2 1 of length 5 lies outside "
                               "length bound 4; length bound 5 passes"}
    code, out = run(capsys, argv + ["5"])
    assert code == 0
    assert json.loads(out)["coefficients"] == {"1 2 1 2 1": 1}


def test_bs_names_the_length_bound_it_outgrows(cartan_file, capsys):
    path = cartan_file(A2)
    code, out = run(
        capsys,
        ["bs", "--cartan", path, "--weight", "0,0", "--word", "1 2 1",
         "--length-bound", "2"],
    )
    assert code == 2
    assert json.loads(out)["error"] == (
        "orbit truncation is not closed under the wall reflection: "
        "vertex 1 2 1 of length 3 lies outside length bound 2; "
        "length bound 3 passes"
    )


def test_bs_builds_one_bott_samelson_lattice(cartan_file, capsys, monkeypatch):
    # bs decomposes the one Bott-Samelson lattice it prints; P(w) comes from
    # the Braden-MacPherson sections, which build no Bott-Samelson lattice
    calls = []
    original = zmod.bott_samelson

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(zmod, "bott_samelson", counted)
    path = cartan_file(A2)
    code, _ = run(
        capsys,
        ["bs", "--cartan", path, "--weight", "0,0", "--word", "1 2 1"],
    )
    assert code == 0
    assert calls == [(0, 1, 0)]


@pytest.mark.parametrize("coords, name", [("0,0", "projective"), ("-2,-2", "tilting")])
def test_bs_names_the_sheaf_by_the_position_of_the_base(coords, name, cartan_file, capsys):
    # off a dominant base the sheaf on [e, 1] is P(s1.lambda), off an
    # antidominant one T(s1.lambda) (Soergel, Represent. Theory 2, 1998)
    path = cartan_file(A2)
    code, out = run(capsys, ["bs", "--cartan", path, f"--weight={coords}", "--word", "1"])
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == sorted(["word", "rank", "summands", name])
    assert report[name] == {"word": "1", "graded_character": {"e": [0], "1": [2]}}


def test_bs_refuses_an_interior_base_as_character_does(cartan_file, capsys):
    # lambda = (2, -2) is regular and neither dominant nor antidominant
    path = cartan_file(A2)
    block = ["--cartan", path, "--weight=2,-2"]
    code, out = run(capsys, ["bs"] + block + ["--word", "1"])
    assert code == 2
    assert json.loads(out) == {
        "error": "base weight is neither dominant nor antidominant in its class"
    }
    assert run(capsys, ["character"] + block + ["--w", "1"]) == (code, out)


def test_bs_decomposes_at_the_given_degree_bound(cartan_file, capsys):
    # the G2 structure algebra needs degree 12 = 2 l(w0), which the
    # splitting of the Bott-Samelson lattice reaches with no degree bound
    path = cartan_file(G2)
    code, out = run(
        capsys, ["bs", "--cartan", path, "--weight", "0,0", "--word", "1"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["summands"] == [{"e": [0], "1": [2]}]
    assert report["projective"]["graded_character"] == {"e": [0], "1": [2]}


def test_g2_center_needs_no_degree_bound(cartan_file, capsys):
    golden = json.loads(
        (Path(__file__).with_name("golden_zmod.json")).read_text()
    )
    path = cartan_file(G2)
    code, out = run(capsys, ["center", "--cartan", path, "--weight", "0,0"])
    assert code == 0
    assert out == golden["G2.center.degree12.stdout"]


def test_b3_center_reaches_the_whole_group(cartan_file, capsys):
    # 48 elements, each w with l(w) edges down to tw < w: 216 edges
    path = cartan_file(B3)
    code, out = run(
        capsys,
        ["center", "--cartan", path, "--weight", "0,0,0", "--length-bound", "9"],
    )
    assert code == 0
    degrees = [g["degree"] for g in json.loads(out)["generators"]]
    assert len(degrees) == 48
    assert sum(degrees) == 2 * 216


def test_affine_a1_center_has_every_edge(cartan_file, capsys):
    # W(lambda) has the simple roots (0, 1) and (3, 2); at height bound 20
    # the height-cut graph lost 9 of the 42 edges, and Z had degrees
    # [0, 2, 2, 4, 4, 6, 6, 6, 6, 6, 8, 8, 8]
    path = cartan_file(A1_AFFINE)
    code, out = run(
        capsys,
        ["center", "--cartan", path, "--weight", "1/3,0", "--length-bound", "6"],
    )
    assert code == 0
    degrees = [g["degree"] for g in json.loads(out)["generators"]]
    assert degrees == [0, 2, 2, 4, 4, 6, 6, 8, 8, 10, 10, 12, 12]


def test_singular_center_prints_the_schubert_basis(cartan_file, capsys):
    # A2 (0, -1) is dominant with stabilizer {e, s2}: one class per minimal
    # coset representative, of degree 2 l(v)
    path = cartan_file(A2)
    code, out = run(capsys, ["center", "--cartan", path, "--weight", "0,-1"])
    assert code == 0
    report = json.loads(out)
    assert report["slots"] == ["e", "1", "2 1"]
    assert [g["degree"] for g in report["generators"]] == [0, 2, 4]


def test_singular_center_refuses_a_cut_that_is_not_a_lower_set(cartan_file, capsys):
    # A3 (0, -2, 1) is interior to its orbit; cut at length 2, a vertex has
    # an edge out of the cut, and the chamber base (-1, 0, 0) is named
    path = cartan_file(A3)
    block = ["--cartan", path, "--weight", "0,-2,1"]
    code, out = run(capsys, ["center"] + block + ["--length-bound", "2"])
    assert code == 2
    error = json.loads(out)["error"]
    assert "length bound 2 is not a lower set" in error
    assert "chamber base weight -1,0,0 of the same orbit passes" in error
    code, out = run(capsys, ["center"] + block)  # the whole orbit
    assert code == 0
    assert len(json.loads(out)["slots"]) == 12


def test_block_names_a_height_bound_that_passes(cartan_file, capsys):
    # the simple root (2, 3) of W(lambda) has height 5; block finds it with
    # no height bound, and a bound below it is no longer an option at all
    path = cartan_file(G2)
    argv = ["block", "--cartan", path, "--weight", "1/2,0"]
    code, out = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["integral_simples"] == [[0, 1], [2, 3]]
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--height-bound", "3"])
    assert err.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bs_names_the_length_bound_of_the_whole_word(cartan_file, capsys):
    # the Demazure product of 1 2 1 2 in B2 has length 4
    path = cartan_file(B2)
    argv = ["bs", "--cartan", path, "--weight", "0,0", "--word", "1 2 1 2",
            "--length-bound"]
    code, out = run(capsys, argv + ["2"])
    assert code == 2
    assert json.loads(out)["error"].endswith(
        "vertex 1 2 1 2 of length 4 lies outside length bound 2; "
        "length bound 4 passes"
    )
    code, out = run(capsys, argv + ["4"])
    assert code == 0
    assert json.loads(out)["rank"] == 16


def test_g2_bs_needs_no_degree_bound(cartan_file, capsys):
    path = cartan_file(G2)
    code, out = run(
        capsys, ["bs", "--cartan", path, "--weight", "0,0", "--word", "1 2 1"]
    )
    assert code == 0
    assert json.loads(out)["rank"] == 8


def test_affine_a1_bs_reaches_the_projective(cartan_file, capsys):
    # P_{y, s1 s2} = 1 for every y <= s1 s2
    path = cartan_file(A1_AFFINE)
    code, out = run(
        capsys,
        ["bs", "--cartan", path, "--weight", "0,0", "--word", "1 2",
         "--length-bound", "6"],
    )
    assert code == 0
    assert json.loads(out)["projective"]["graded_character"] == {
        "e": [0], "1": [2], "2": [2], "1 2": [4]
    }


def test_degree_bound_is_checked_and_ignored(cartan_file, capsys):
    path = cartan_file(A2)
    argv = ["center", "--cartan", path, "--weight", "0,0"]
    code, plain = run(capsys, argv)
    assert code == 0
    assert run(capsys, argv + ["--degree-bound", "2"]) == (0, plain)
    assert run(capsys, argv + ["--degree-bound", "0"])[0] == 1


def test_center_command(cartan_file, capsys):
    path = cartan_file(A1)
    code, out = run(capsys, ["center", "--cartan", path, "--weight", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["slots"] == ["e", "1"]
    assert [g["degree"] for g in report["generators"]] == [0, 2]


def test_equiv_command(cartan_file, capsys):
    a2 = cartan_file(A2, "a2.json")
    a1 = cartan_file(A1, "a1.json")
    code, out = run(
        capsys,
        [
            "equiv", "--cartan", a2, "--cartan", a1,
            "--weight", "0,-1/2", "--weight", "0",
        ],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "equivalent"


def test_equiv_requires_two_blocks(cartan_file, capsys):
    a2 = cartan_file(A2)
    code, _ = run(capsys, ["equiv", "--cartan", a2, "--weight", "0,0"])
    assert code == 1


def test_repeated_runs_byte_identical(cartan_file, capsys):
    path = cartan_file(A2)
    argv = ["block", "--cartan", path, "--weight", "0,0"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_json_report_reparses(cartan_file, capsys):
    from blocko import rootdata

    path = cartan_file(A2)
    _, out = run(capsys, ["block", "--cartan", path, "--weight", "0,0"])
    report = json.loads(out)
    cartan = rootdata.cartan_from_json(report["cartan"])
    assert cartan.matrix == ((2, -1), (-1, 2))
    rootdata.weight_from_json(report["base_weight"], cartan)


def test_cli_import_does_not_load_sympy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, blocko.cli; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


# small runs of each command on A2 data, after `--cartan FILE`
_SMALL_RUNS = {
    "block": ["--weight", "0,0"],
    "kl": ["--x", "e", "--w", "1 2"],
    "character": ["--weight", "0,0", "--w", "1"],
    "bs": ["--weight", "0,0", "--word", "1"],
    "center": ["--weight", "0,0"],
    "equiv": ["--cartan", "{path}", "--weight", "0,0", "--weight", "0,-1"],
}


def _small_run(command, path):
    return [command, "--cartan", path] + [
        a.format(path=path) for a in _SMALL_RUNS[command]
    ]


def _declared_dests(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


@pytest.mark.parametrize("command", sorted(cli.COMMAND_OPTIONS))
def test_each_command_reads_every_option_it_declares(
    command, cartan_file, capsys, tmp_path, monkeypatch
):
    monkeypatch.setenv("BLOCKO_CACHE", str(tmp_path / "cache"))
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parse_args = cli._Parser.parse_args

    def recorded(self, args=None, namespace=None):
        parsed = parse_args(self, args, Recording())
        reads.clear()  # argparse's own reads while parsing
        return parsed

    monkeypatch.setattr(cli._Parser, "parse_args", recorded)
    assert run(capsys, _small_run(command, cartan_file(A2)))[0] == 0
    assert _declared_dests(command) <= reads


@pytest.mark.parametrize(
    "command, option", [("kl", "--x"), ("kl", "--w"), ("character", "--w"), ("bs", "--word")]
)
def test_a_repeated_word_option_is_usage_error(
    command, option, cartan_file, capsys, tmp_path, monkeypatch
):
    # as a repeated --cartan or --weight is: the last value does not win
    monkeypatch.setenv("BLOCKO_CACHE", str(tmp_path / "cache"))
    code, out = run(capsys, _small_run(command, cartan_file(A2)) + [option, "2"])
    assert code == 1
    assert json.loads(out) == {"error": f"exactly one {option} required"}


_UNREAD_OPTIONS = [("kl", ["--weight", "0,0"]), ("bs", ["--degree-bound", "12"])] + [
    (command, ["--height-bound", "20"]) for command in sorted(_SMALL_RUNS)
] + [(command, ["--require-noncritical"]) for command in ("bs", "center", "character")]


@pytest.mark.parametrize("command, extra", _UNREAD_OPTIONS,
                         ids=[f"{c} {e[0]}" for c, e in _UNREAD_OPTIONS])
def test_an_option_the_command_does_not_read_is_a_usage_error(
    command, extra, cartan_file, capsys
):
    with pytest.raises(SystemExit) as err:
        cli.main(_small_run(command, cartan_file(A2)) + extra)
    assert err.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_center_prints_the_same_with_a_degree_bound(cartan_file, capsys):
    argv = _small_run("center", cartan_file(A2))
    assert run(capsys, argv + ["--degree-bound", "12"]) == run(capsys, argv)
