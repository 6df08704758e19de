"""Command-line interface: JSON output, exit codes, determinism."""

import json

import pytest

from g2gaudin import cli


def run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_tensor(capsys):
    rc, out = run(["tensor", "--left", "0,1", "--right", "0,1"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert len(data["summands"]) == 4
    assert {"weight": [0, 0], "multiplicity": 1} in data["summands"]


def test_invdim(capsys):
    rc, out = run(["invdim", "--weights", "0,1;0,1;0,1;0,1"], capsys)
    assert rc == 0
    assert json.loads(out)["invariant_dim"] == 4


def test_bae_printed_case(capsys):
    rc, out = run(["bae", "--lambda", "1,1", "--case", "1"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["y2"] == ["-1/2", "1"]
    assert data["y2_str"] == "x - 1/2"


def test_bae_verify(capsys):
    rc, out = run(["bae-verify", "--lambda", "2,1", "--case", "5"], capsys)
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_bae_verify_inadmissible(capsys):
    rc = cli.main(["bae-verify", "--lambda", "0,0", "--case", "1"])
    capsys.readouterr()
    assert rc == 1


def test_reproduce(capsys):
    rc, out = run(["reproduce", "--lambda", "1,1", "--case", "0",
                   "--direction", "2"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["l"] == [0, 1]


def test_kernel_and_exponents(capsys):
    rc, out = run(["kernel", "--lambda", "0,1", "--case", "1"], capsys)
    assert rc == 0
    assert json.loads(out)["dimension"] == 7
    rc, out = run(["exponents", "--lambda", "0,1", "--case", "1",
                   "--point", "inf"], capsys)
    assert rc == 0
    assert json.loads(out)["exponents"] == [-8, -6, -5, -3, -1, 0, 2]


def test_h2check(capsys):
    rc, out = run(["h2check", "--lambda", "0,1", "--case", "6"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["residue_side"] == data["casimir_side"] == "12"


def test_ssd_check_from_case(capsys):
    rc, out = run(["ssd-check", "--lambda", "0,1", "--case", "1"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["self_dual"] is True and data["ssd_witness"] is True


def test_ssd_check_files(tmp_path, capsys):
    rc, out = run(["kernel", "--lambda", "0,1", "--case", "1"], capsys)
    basis = json.loads(out)["basis"]
    sp = tmp_path / "space.json"
    sp.write_text(json.dumps(basis))
    ram = tmp_path / "ram.json"
    ram.write_text(json.dumps({
        "points": ["0", "1"],
        "partitions": [[2, 2, 1, 1, 1, 0, 0], [2, 2, 1, 1, 1, 0, 0]]}))
    rc, out = run(["ssd-check", "--space", str(sp), "--ram", str(ram)],
                  capsys)
    assert rc == 0
    assert json.loads(out)["self_dual"] is True


def test_wronski(capsys):
    rc, out = run(["wronski", "--lambda", "1,0", "--case", "2", "--reduced"],
                  capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["reduced_str"] == "x^3 - x^2"


def test_strata_json_d7(capsys):
    rc, out = run(["strata", "--d", "7", "--format", "json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["nodes"] == ["()"] and data["edges"] == []


def test_strata_dot_byte_stable(capsys):
    rc1, out1 = run(["strata", "--d", "11"], capsys)
    rc2, out2 = run(["strata", "--d", "11"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.count("->") == 29


def test_verify_single_suite(capsys):
    rc, out = run(["verify", "--suite", "chevalley"], capsys)
    assert rc == 0
    assert out.startswith("PASS chevalley")


def test_verify_unknown_suite(capsys):
    rc = cli.main(["verify", "--suite", "nope"])
    capsys.readouterr()
    assert rc == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_parser_built_once_and_reused(capsys):
    """main() reuses one parser; successive queries with different
    subcommands, a usage error among them, answer as fresh calls do."""
    argvs = [["wronski", "--lambda", "1,0", "--case", "2", "--reduced"],
             ["tensor", "--left", "0,1", "--right", "1,0"],
             ["wronski", "--lambda", "1,0", "--case", "2"],
             ["exponents", "--lambda", "0,1", "--case", "1", "--point=-1/2"],
             ["ssd-check", "--lambda", "0,1", "--case", "1"],
             ["bae", "--lambda", "1,1", "--case", "1"]]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run(argv, capsys))
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit):
        cli.main(["ssd-check"])
    capsys.readouterr()
    assert [run(argv, capsys) for argv in argvs] == fresh
    assert [run(argv, capsys) for argv in reversed(argvs)] == fresh[::-1]
