"""Command-line interface: parsing, exit codes, determinism, KL cache."""

import json

import pytest

from blocko import cli, kl

from conftest import A1, A1_AFFINE, A2, A3


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
            "--height-bound", "6", "--length-bound", "2",
        ],
    )
    assert code == 0
    assert json.loads(out)["base_weight"]["delta"] == "1/3"


def test_require_noncritical_rejects_critical(cartan_file, capsys):
    path = cartan_file(A1_AFFINE)
    code, out = run(
        capsys,
        [
            "block", "--cartan", path, "--weight=-1,-1",
            "--height-bound", "6", "--length-bound", "2",
            "--require-noncritical",
        ],
    )
    assert code == 2
    assert json.loads(out) == {"error": "block is critical"}


def test_nonpositive_bound_is_usage_error(cartan_file, capsys):
    path = cartan_file(A1)
    code, _ = run(
        capsys, ["block", "--cartan", path, "--weight", "0", "--height-bound", "0"]
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
    argv = ["kl", "--cartan", path, "--x", "e", "--w", "1 2 1 3 2 1"]
    _, cold = run(capsys, argv)
    (file,) = cache.glob("kl-*.json")
    assert cli.CACHE_FORMAT in file.name
    data = json.loads(file.read_text())
    data["e|1 2 1 3 2 1"] = forged
    file.write_text(json.dumps(data))
    code, warm = run(capsys, argv)
    assert code == 0
    assert warm == cold


def test_kl_cache_load_keeps_only_possible_entries(cartan_file, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKO_CACHE", str(tmp_path / "cache"))
    system = cli._integral_coxeter(cli.load_cartan(cartan_file(A3)))
    path = cli._coxeter_cache_path(system)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({
        "2|2 1 3 2": [1, 1],  # a true entry
        "e|2 1 2": [1],  # "2 1 2" is not a normal form
        "1 2 1 3 2 1|e": [1],  # nonzero off the Bruhat cone
        "2|2": [1, 1],  # P_{w,w} is 1
        "e|1 4": [1],  # no generator 4
        "e": [1],  # no separator
        "x|e": [1],  # not a word
    }))
    table = kl.KLTable(system)
    cli._load_kl_cache(table)
    assert table.memo == {((1,), (1, 0, 2, 1)): (1, 1)}


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
