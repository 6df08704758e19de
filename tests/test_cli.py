"""Command-line interface: JSON output, exit codes, determinism."""

import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import g2gaudin
import oracles
from g2gaudin import bethe, cli, diffop, exact, polycodec, sgrass, verify
from g2gaudin import rootdata as rd
from g2gaudin.exact import Poly, zadd, zclear


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


def test_bae_verify_reports_residual_without_tol(capsys):
    """The exact certificate decides ok, and bae-verify reports no float
    residual; the tolerance of the former residual gate and the numeric
    roots of `bae` are gone."""
    rc, out = run(["bae-verify", "--lambda", "3,2", "--case", "6"], capsys)
    data = json.loads(out)
    assert rc == 0 and data["ok"] is True and "residual" not in data
    case = ["--lambda", "2,1", "--case", "5"]
    for argv in (["bae-verify"] + case + ["--tol", "1"],
                 ["bae"] + case + ["--numeric"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        capsys.readouterr()
        assert exc.value.code == 2


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


def test_case_commands_build_each_object_once(tmp_path, monkeypatch,
                                             capsys):
    """Every case command on one case in one process, as an exploring user
    runs them: the conjugate of D_y is built once (one operator product),
    neither D_y itself nor a nullspace kernel is built, and the three
    ssd-checks (on the case, and on files of its kernel with the flag and
    the swapped flag) build the dual space once (one call of the
    leave-one-out Wronskians).  The 11 queries make 75 zwr calls: 4 for
    bae-verify's fertility and exact Bethe checks, 55 for the kernel's
    prefix levels (20) and the dual's minors (35), whose levels also give
    the flag's y's, 1 for the space Wronskian past those levels, and 15
    for the swapped flag's own leading Wronskians."""
    lam, i = (2, 1), 5
    _, _, gamma = sgrass.bethe_kernel_instance(lam, i)
    flag = [oracles.poly_json(p) for p in gamma]
    ram = {"points": ["0", "1"],
           "partitions": [rd.partition_from_weight(lam, 0),
                          rd.partition_from_weight(rd.OMEGA2, 0)]}
    files = {}
    for role, content in (("space", flag), ("ram", ram), ("witness", flag),
                          ("swapped", [flag[1], flag[0]] + flag[2:])):
        files[role] = str(tmp_path / f"{role}.json")
        with open(files[role], "w") as fh:
            json.dump(content, fh)
    counts = collections.Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for module, name in ((diffop, "_log_factor_product"),
                         (diffop, "polynomial_kernel"),
                         (sgrass, "zwronski_minors"), (exact, "zwr"),
                         (bethe, "zwr")):
        monkeypatch.setattr(module, name, counted(module, name))
    diffop.case.cache_clear()
    for cached in (sgrass.dual_space, sgrass._levels):
        cached.cache_clear()
    case = ["--lambda", "2,1", "--case", "5"]
    files_argv = ["ssd-check", "--space", files["space"], "--ram", files["ram"]]
    queries = [(["bae-verify"] + case, 0), (["diffop", "--conjugated"] + case, 0),
               (["kernel"] + case, 0)]
    queries += [(["exponents", "--point", p] + case, 0)
                for p in ("0", "1", "inf")]
    queries += [(["h2check"] + case, 0), (["ssd-check"] + case, 0),
                (["wronski", "--reduced"] + case, 0),
                (files_argv + ["--witness", files["witness"]], 0),
                (files_argv + ["--witness", files["swapped"]], 1)]
    for argv, rc in queries:
        assert run(argv, capsys)[0] == rc, argv
    assert counts["polynomial_kernel"] == 0
    assert counts == {"_log_factor_product": 1, "zwronski_minors": 1,
                      "zwr": 75}


def test_wronskian_suite_fails_on_a_wrong_exponent(monkeypatch, capsys):
    """The wronskian suite compares with x^(7(2 l1 + l2)) (x - 1)^7 built
    by zlinear_power: one more power of x there is a FAIL line naming the
    first case."""
    real = bethe.zlinear_power
    monkeypatch.setenv("G2_LMAX", "1")
    # the fault is in the reference alone: the first case, with its
    # ramification, is built and kept before zlinear_power is patched
    diffop.case.cache_clear()
    diffop.case((0, 0), 0).ramification
    monkeypatch.setattr(bethe, "zlinear_power", lambda pairs: real(
        [(p, e + (p == 0)) for p, e in pairs]))
    assert run(["verify", "--suite", "wronskian"], capsys) == (
        1, "FAIL wronskian: space Wronskian wrong at (0, 0), case 0\n")


def test_a_perturbed_kernel_row_fails_every_wronskian_reader(
        tmp_path, monkeypatch, capsys):
    """1 added to the constant coefficient of one row of the kernel basis of
    (2,1)/5 takes the space off the case's ramification, so the divided
    recursion raises at its first inexact level in each reader: ssd-check
    on a --space file of it exits 1, and with the case's kernel so planted,
    wronski --lambda exits 1 and the wronskian suite prints a FAIL line
    naming the case.  sgrass.dual_space on it fails in test_sgrass."""
    good = diffop.case((2, 1), 5)
    rows = [list(r) for r in good.space.basis]
    rows[3][0] += 1
    bad = sgrass.PolySpace(rows)
    planted = diffop.Case(good.data, good.y)
    planted.__dict__["space"] = bad  # what the cached property would hold
    real = diffop.case
    files = _case_files(tmp_path, (2, 1), 5, space=[
        polycodec.row_json(r, r[-1]) for r in bad.basis])
    failed = (1, ("", "error: inexact polynomial division\n"))
    assert (cli.main(["ssd-check"] + files), capsys.readouterr()) == failed
    monkeypatch.setattr(diffop, "case", lambda lam, i: planted if (
        lam, i) == ((2, 1), 5) else real(lam, i))
    assert (cli.main(["wronski", "--lambda", "2,1", "--case", "5"]),
            capsys.readouterr()) == failed
    assert run(["wronski", "--lambda", "2,1", "--case", "6"], capsys)[0] == 0
    monkeypatch.setenv("G2_LMAX", "2")
    assert run(["verify", "--suite", "wronskian"], capsys) == (
        1, "FAIL wronskian: inexact polynomial division at (2, 1), case 5\n")


@pytest.mark.parametrize("cmd", [["diffop"], ["kernel"], ["h2check"],
                                 ["exponents", "--point", "0"],
                                 ["ssd-check"], ["wronski"], ["bae"],
                                 ["bae-verify"],
                                 ["reproduce", "--direction", "1"]])
def test_inadmissible_case_is_one_error(cmd, capsys):
    """Every case command rejects an inadmissible case with the message of
    bethe.closed_form."""
    rc = cli.main(cmd + ["--lambda", "0,0", "--case", "3"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == "error: l_3 is not admissible for (0, 0)\n"


@pytest.mark.parametrize("argv", [
    ["ssd-check", "--space", "s.json"],
    ["ssd-check", "--lambda", "1,1"],
    ["wronski", "--lambda", "1,1"],
    ["ssd-check", "--lambda", "1,1", "--case", "1", "--space", "s.json"],
    ["wronski", "--lambda", "1,1", "--case", "1", "--space", "s.json"],
    ["ssd-check", "--lambda", "1,1", "--case", "1", "--ram", "r.json"],
    ["ssd-check", "--lambda", "1,1", "--case", "1", "--witness", "w.json"],
    ["ssd-check", "--space", "s.json", "--ram", "r.json", "--case", "1"],
    ["wronski", "--space", "s.json", "--case", "1"],
    ["ssd-check", "--witness", "w.json"],
    ["wronski"]])
def test_input_modes_are_usage_errors(argv, capsys):
    """A case needs --lambda and --case, a space file excludes them, and
    ssd-check reads a space only with its --ram; the files are never read."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["exponents", "--lambda", "1,1", "--case", "2", "--point", "1/0"],
    ["exponents", "--lambda", "1,1", "--case", "2", "--point", "x"],
    ["invdim", "--weights", "0,1;x"],
    ["invdim", "--weights", "0,x"],
    ["invdim", "--weights", ""],
    ["invdim", "--weights=-1,0;0,1"],
    ["kernel", "--lambda", "0,x", "--case", "0"],
    ["kernel", "--lambda=-1,0", "--case", "0"],
    ["bae", "--lambda", "1,2,3", "--case", "0"],
    ["tensor", "--left=-1,0", "--right", "0,1"],
    ["tensor", "--left", "0,1", "--right=0,-2"],
    ["strata", "--d", "6"],
    ["strata", "--d", "15"]] + [
    # a point is read by the file grammar, "p" or "p/q" with q > 0
    ["exponents", "--lambda", "1,1", "--case", "2", "--point", p]
    for p in ("0.5", "1e0", " 1", "+1", "1_0", "-1.5")])
def test_malformed_values_are_usage_errors(argv, capsys):
    """A point, a weight or a weight list that does not parse, a weight
    that is not dominant and a d outside 7..14 are rejected by the parser,
    with exit 2 and no traceback, before any command runs; the message
    names the option, not the parsing function."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "error: argument --" in captured.err
    assert "Traceback" not in captured.err and "_parse" not in captured.err
    if "--point" in argv:
        assert "point must be a rational or 'inf'" in captured.err


def _case_files(tmp_path, lam, i, **replaced):
    """The --space, --ram and --witness files of the closed-form case
    (lam, i): its kernel basis, its ramification data and its flag, with
    the roles in replaced written as given instead (a str verbatim)."""
    X, _, gamma = sgrass.bethe_kernel_instance(lam, i)
    contents = {"space": [oracles.poly_json(p) for p in X.flag_basis],
                "ram": {"points": ["0", "1"],
                        "partitions": [rd.partition_from_weight(lam, 0),
                                       rd.partition_from_weight(rd.OMEGA2,
                                                                0)]},
                "witness": [oracles.poly_json(p) for p in gamma]}
    contents.update(replaced)
    files = {}
    for role, content in contents.items():
        files[role] = tmp_path / f"{role}.json"
        files[role].write_text(content if isinstance(content, str)
                               else json.dumps(content))
    return [a for role, path in files.items() for a in (f"--{role}",
                                                        str(path))]


_PARTITIONS = [[3, 2, 2, 1, 1, 0, 0], [1, 1, 1, 1, 1, 0, 0]]


@pytest.mark.parametrize("role, content", [
    ("space", [["1/0"]] + [["0", "1"]] * 6),
    ("space", "[[\"1\"], "),
    ("witness", [["1", "1/0"]] * 7),
    ("witness", {"basis": []}),
    ("ram", {"points": ["1/0", "1"], "partitions": _PARTITIONS}),
    ("ram", {"partitions": _PARTITIONS}),
    ("ram", [["0", "1"], _PARTITIONS]),
    ("ram", {"points": ["0", "1"], "partitions": [[1, 2, 0, 0, 0, 0, 0],
                                                   _PARTITIONS[1]]}),
    ("ram", {"points": ["0", "1"], "partitions": [[1, 1], [1, 1]]}),
    ("ram", {"points": ["0", "0"], "partitions": _PARTITIONS}),
    ("ram", {"points": ["inf", "inf"], "partitions": _PARTITIONS}),
    ("space", [["0"] * k + ["1"] for k in range(6)]),
    ("space", [["0"] * k + ["1"] for k in range(6)] + [["2", "3"]]),
    ("witness", [["0"] * k + ["1"] for k in range(6)]),
    ("witness", [["0"] * k + ["1"] for k in range(8)]),
    ("space", [["0"]] + [["0"] * k + ["1"] for k in range(1, 7)]),
    ("space", [["0"] * k + ["1"] for k in range(6)] + [["0", "1", "0"]]),
    ("space", [["0.5"]] + [["0"] * k + ["1"] for k in range(1, 7)]),
    ("space", [[1.5]] + [["0"] * k + ["1"] for k in range(1, 7)]),
    ("space", [["1e3"]] + [["0"] * k + ["1"] for k in range(1, 7)]),
    ("witness", [["1", "1/-2"]] + [["0"] * k + ["1"] for k in range(2, 8)]),
    ("space", [[" 1 / 2"]] + [["0"] * k + ["1"] for k in range(1, 7)]),
    ("space", [["1/+2"]] + [["0"] * k + ["1"] for k in range(1, 7)]),
    ("ram", {"points": ["0.5", "1"], "partitions": _PARTITIONS})])
def test_malformed_files_are_usage_errors(role, content, tmp_path, capsys):
    """A --space, --ram or --witness file that is not JSON, lacks a key,
    has the wrong shape, a coefficient or point other than "p" or "p/q"
    with q > 0 (a decimal, a sign or space where none belongs, or a zero or
    negative denominator), a partition that is not one, a space that is not
    7 independent polynomials (a zero row, or a row equal to another but
    for a trailing zero), a witness that is not 7 polynomials or repeated
    points is rejected with exit 2, a message naming the option and no
    traceback, by ssd-check and, for a space, by wronski."""
    files = _case_files(tmp_path, (1, 0), 2, **{role: content})
    argvs = [["ssd-check"] + files]
    if role == "space":
        argvs.append(["wronski"] + files[:2])
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"error: argument --{role}: malformed file " in captured.err
        assert "Traceback" not in captured.err


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=9),
       st.integers(1, 10**4), st.integers(1, 12))
@example([0, 0], 3, 2)
@example([-4, 6, 0, -2], 4, 3)
def test_row_renderer_matches_the_fraction_oracle(row, den, f):
    """row / den printed from the integer row, with the denominator sharing
    the factor f with every coefficient, equals the Fraction renderers of
    the Poly row / den, and reads back as the Poly's cleared row."""
    row, den = [f * c for c in row], f * den
    while row and not row[-1]:
        row.pop()
    p = Poly([Fraction(c, den) for c in row])
    assert polycodec.row_json(row, den) == oracles.poly_json(p)
    assert polycodec.text(polycodec.row_json(row, den)) == oracles.poly_str(p)
    assert polycodec.read_row(polycodec.row_json(row, den)) == \
        zclear(p.coeffs)[0]


def test_reader_reduces_each_coefficient():
    """Each coefficient is read in lowest terms before the row is cleared:
    2/4 reads as 1/2, and a JSON integer or a trailing zero as before."""
    assert polycodec.read_row(["2/4", "1"]) == polycodec.read_row(["1/2", 1])
    assert polycodec.read_row(["2/4", "1"]) == [1, 2]
    assert polycodec.read_row(["-6/4", "0", "1/6", "0/5"]) == [-9, 0, 1]
    assert polycodec.read_row(["0", "0/3"]) == []


def _regex_read_row(cs):
    """Reference reader: every coefficient through polycodec.rational's
    regex, the row cleared by the lcm of the denominators and reduced."""
    pqs = [polycodec.rational(c) for c in cs]
    den = math.lcm(*(q for _, q in pqs))
    out = [p * (den // q) for p, q in pqs]
    while out and not out[-1]:
        out.pop()
    g = math.gcd(den, *out)
    return [v // g for v in out]


_codec_texts = st.one_of(
    st.integers(-10**4, 10**4).map(str),
    st.text(alphabet="0123456789-/+_ .e١²", max_size=6),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-99, 99),
              st.integers(0, 30)))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_codec_texts, st.integers(-10**6, 10**6),
                          st.booleans(), st.floats(-3, 3)), max_size=8))
@example(["0.5"])
@example(["1e3"])
@example([" 1"])
@example(["+1"])
@example(["1_0"])
@example(["١"])
@example(["1/0"])
@example(["-", "1"])
@example(["3", "-0", "007", 0])
@example(["0", "0", "4851/10240", "-861/608", "1"])
@example(["0", "1/2", "x", "1"])
def test_one_pass_reader_matches_the_regex_reader(cs):
    """read_row, which reads a coefficient "p" with int() and sends only the
    others through the regex, returns what the regex reader returns, or
    raises ValueError where it does: "0.5", "1e3", " 1", "+1", "1_0",
    non-ASCII digits and "1/0" among them."""
    try:
        want = _regex_read_row(cs)
    except ValueError:
        with pytest.raises(ValueError):
            polycodec.read_row(cs)
        return
    assert polycodec.read_row(cs) == want


def _count_fractions(monkeypatch):
    """A Counter whose "built" counts the Fractions built from now on in
    this test."""
    count, new = collections.Counter(), Fraction.__new__

    def counted(cls, *args, **kwargs):
        count["built"] += 1
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", counted)
    return count


def _coefficients(out):
    """The number of coefficients in a command's JSON output."""
    if isinstance(out, dict):
        return sum(_coefficients(v) for k, v in out.items()
                   if not k.endswith("_str"))
    if isinstance(out, list):
        return sum(map(_coefficients, out))
    return isinstance(out, str)


def test_polynomials_cross_the_codec_as_integer_rows(tmp_path, monkeypatch,
                                                      capsys):
    """kernel, diffop and wronski print from integer rows: on a case not
    yet built, each builds fewer Fractions than it prints coefficients (a
    Poly or RatFunc carrying them would build one per coefficient, on top
    of those the case builds), and reading a --space file builds none."""
    args = _case_files(tmp_path, (3, 3), 6)
    count = _count_fractions(monkeypatch)
    for argv in (["kernel"], ["diffop", "--conjugated"],
                 ["wronski", "--reduced"]):
        diffop.case.cache_clear()
        count.clear()
        rc = cli.main(argv + ["--lambda", "3,3", "--case", "6"])
        printed = _coefficients(json.loads(capsys.readouterr().out))
        assert rc == 0 and count["built"] < printed, (argv, count, printed)
    count.clear()
    X = cli._load_polys("space", args[args.index("--space") + 1],
                        sgrass.PolySpace)
    assert count["built"] == 0 and X == diffop.case((3, 3), 6).space


def test_valid_files_of_a_space_that_is_not_self_dual_fail(tmp_path, capsys):
    """Well-formed files whose space is not self-dual for the given data
    are a failed check, exit 1: the monomials of degree < 7 with one point
    whose T-pattern is not symmetric, or at the points of (1, 0), case 2,
    where a dual Wronskian does not divide."""
    monomials = [["0"] * k + ["1"] for k in range(7)]
    files = _case_files(tmp_path, (1, 0), 2, space=monomials,
                        ram={"points": ["0"],
                             "partitions": [[1, 0, 0, 0, 0, 0, 0]]})
    rc, out = run(["ssd-check"] + files, capsys)
    assert rc == 1 and json.loads(out)["self_dual"] is False
    files = _case_files(tmp_path, (1, 0), 2, space=monomials)
    assert cli.main(["ssd-check"] + files) == 1
    assert capsys.readouterr().err == "error: inexact polynomial division\n"


def test_a_witness_of_another_space_fails(tmp_path, capsys):
    """The flag of (1, 1), case 0 is no witness for the space of (1, 1),
    case 6, whose own flag is; both spaces are self-dual at the same
    points, so only the witness check fails.  A trailing zero coefficient
    changes no row; a zero row fails the check instead of raising."""
    _, _, other = sgrass.bethe_kernel_instance((1, 1), 0)
    _, _, own = sgrass.bethe_kernel_instance((1, 1), 6)
    flag = [oracles.poly_json(p) for p in own]
    for witness, ok in ((None, True),
                        ([oracles.poly_json(p) for p in other], False),
                        (flag[:3] + [flag[3] + ["0", "0"]] + flag[4:], True),
                        (flag[:3] + [["0"]] + flag[4:], False),
                        (flag[:3] + [[]] + flag[4:], False)):
        files = _case_files(tmp_path, (1, 1), 6,
                            **({} if witness is None else {"witness": witness}))
        rc, out = run(["ssd-check"] + files, capsys)
        assert (rc, json.loads(out)) == (0 if ok else 1, {
            "self_dual": True, "ssd_witness": ok})


def test_witness_wronskians_are_computed_once_per_flag(tmp_path,
                                                        monkeypatch, capsys):
    """ssd-check on a case and on a witness file of its flag, in one
    process, read the flag's leading Wronskians off the kernel's prefix
    levels, computed once: the flag has the kernel's degrees, so its y's
    are the space's, cached on (X, R).  The swapped flag is another
    witness, takes its own Wronskians, and still fails."""
    lam, i = (2, 1), 5
    _, R, gamma = sgrass.bethe_kernel_instance(lam, i)
    flag = [oracles.poly_json(p) for p in gamma]
    calls = collections.Counter()

    def counted(name):
        fn = getattr(sgrass, name)

        def wrapper(fs, ts):
            calls[name] += 1
            assert ts == R.T[::-1]  # the divided recursion
            return fn(fs, ts)
        monkeypatch.setattr(sgrass, name, wrapper)

    counted("zwronskians")
    counted("zprefix_levels")
    for cached in (sgrass.dual_space, sgrass._levels):
        cached.cache_clear()
    want = {"self_dual": True, "ssd_witness": True}
    rc, out = run(["ssd-check", "--lambda", "2,1", "--case", "5"], capsys)
    assert (rc, json.loads(out)) == (0, want)
    assert calls == {"zprefix_levels": 1}
    files = _case_files(tmp_path, lam, i)
    rc, out = run(["ssd-check"] + files, capsys)
    assert (rc, json.loads(out)) == (0, want)
    assert calls == {"zprefix_levels": 1}
    files = _case_files(tmp_path, lam, i,
                        witness=[flag[1], flag[0]] + flag[2:])
    rc, out = run(["ssd-check"] + files, capsys)
    assert (rc, json.loads(out)) == (
        1, {"self_dual": True, "ssd_witness": False})
    assert calls == {"zprefix_levels": 1, "zwronskians": 1}


@pytest.mark.parametrize("point", ["-1/2", "-3/2", "-1", "-6/4", "-2/1"])
def test_a_negative_point_takes_either_spelling(point, capsys):
    """--point followed by a negative rational as its own token answers as
    --point=<rational> does, and prints the point in lowest terms."""
    case = ["exponents", "--lambda", "1,1", "--case", "2"]
    split = run(case + ["--point", point], capsys)
    joined = run(case + [f"--point={point}"], capsys)
    assert split == joined and split[0] == 0
    got = json.loads(split[1])
    assert got["exponents"] == [0, 1, 2, 3, 4, 5, 6]
    assert got["point"] == str(Fraction(point))


def _plant_fertility_solve(plant, monkeypatch, capsys):
    """bae-verify and the 1-grid bae-grid suite fail, on their fertility
    stage, with bethe.fertility_solve's (G, c) replaced by plant(G, c)."""
    real = bethe.fertility_solve

    def planted(*args):
        sol = real(*args)
        return None if sol is None else plant(*sol)
    monkeypatch.setattr(bethe, "fertility_solve", planted)
    rc, out = run(["bae-verify", "--lambda", "1,1", "--case", "2"], capsys)
    assert rc == 1
    assert json.loads(out) == {"lambda": [1, 1], "case": 2, "generic": True,
                               "fertile": False, "ok": False}
    monkeypatch.setenv("G2_LMAX", "1")
    assert verify.check_bae_grid() == (False,
                                       "fertility fails at (0, 0), case 0")


def test_one_certificate_gates_bae_verify_and_bae_grid(monkeypatch, capsys):
    """bae-verify and the bae-grid suite read one certificate,
    bethe.certify: a fertility solve planted to return g + 1 for the
    witness g = G / c fails both, since the witness identity
    Wr(y_j, x^a G) = c F_j no longer holds."""
    _plant_fertility_solve(lambda G, c: (zadd(G, [c]), c), monkeypatch,
                           capsys)


def test_the_witness_scalar_is_part_of_the_certificate(monkeypatch, capsys):
    """A fertility solve planted to return its witness G with the scalar c
    doubled fails the certificate too: c is checked, not trusted."""
    _plant_fertility_solve(lambda G, c: (G, 2 * c), monkeypatch, capsys)


def test_a_case_that_fails_to_build_is_a_named_fail_line(monkeypatch,
                                                         capsys):
    """A ValueError raised while a grid suite builds or checks one case is
    that suite's FAIL line, naming the case, and the other suites still
    run."""
    def broken(*args):
        raise ValueError("planted fault")
    monkeypatch.setenv("G2_LMAX", "1")
    monkeypatch.setattr(diffop, "exponents_at", broken)
    monkeypatch.setattr(sgrass, "_seventh_root", broken)
    for suite in ("kernels", "wronskian"):
        assert run(["verify", "--suite", suite], capsys) == (
            1, f"FAIL {suite}: planted fault at (0, 0), case 0\n")
    results = verify.run_suite("all")
    assert list(results) == list(verify.SUITES)
    assert [k for k, (ok, _) in results.items() if not ok] == \
        ["kernels", "wronskian"]


@pytest.mark.parametrize("value", ["abc", "", "-1"])
def test_malformed_grid_bound_runs_no_suite(value, monkeypatch, capsys):
    monkeypatch.setenv("G2_LMAX", value)
    rc = cli.main(["verify", "--suite", "kernels"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == ("error: G2_LMAX must be a non-negative integer, "
                            f"got {value!r}\n")


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(
        "g2: error: argument --suite: invalid choice: 'nope' (choose from "
        + ", ".join(map(repr, [*verify.SUITES, "all"])) + ")\n")


def test_unknown_suite_is_a_usage_error_in_a_fresh_process():
    """`g2 verify --suite nope` in a fresh interpreter: the usage line and
    the invalid-choice error on stderr, nothing on stdout, exit 2.  The
    check runs in cmd_verify: the command table passes any --suite value
    and loads no verify."""
    src = os.path.dirname(os.path.dirname(g2gaudin.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "g2gaudin.cli", "verify", "--suite", "nope"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    choices = ", ".join(map(repr, [*verify.SUITES, "all"]))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "usage: g2 COMMAND [OPTIONS]\ng2: error: argument --suite: "
        f"invalid choice: 'nope' (choose from {choices})\n")
    assert _fresh_python(
        "import json, sys\n"
        "from g2gaudin import cli\n"
        "args = cli.parse_args(['verify', '--suite', 'nope'])\n"
        "print(json.dumps([args.suite, sorted(m for m in sys.modules\n"
        "                                     if m.startswith('g2gaudin.'))]))"
    ) == ["nope", ["g2gaudin.cli"]]


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


def _parsed(parse, argv):
    """vars() of parse(argv), or its exit code, with (stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = vars(parse(argv))
    except SystemExit as exc:
        got = exc.code
    return got, out.getvalue(), err.getvalue()


def _mostly(good, bad):
    """good nine times in ten, else bad."""
    return st.sampled_from([good] * 9 + [bad]).flatmap(lambda s: s)


def _ints(lo, hi):
    """Integers strictly between lo and hi (most draws), lo or hi, or
    text."""
    return _mostly(st.integers(lo + 1, hi - 1).map(str), st.one_of(
        st.sampled_from([lo, hi]).map(str), st.text("-+0123x ", max_size=3)))


_WEIGHT = _mostly(st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda w: f"{w[0]},{w[1]}"), st.text("-0123,;x ", max_size=5))
_FILE = st.sampled_from(["f.json", "-f.json", ""])
# a value of each dest of the reference parser, well-formed or not
_VALUES = {
    "left": _WEIGHT, "right": _WEIGHT, "lam": _WEIGHT,
    "weights": st.lists(_WEIGHT, min_size=1, max_size=3).map(";".join),
    "case": _ints(-1, 7), "direction": _ints(0, 3), "d": _ints(6, 15),
    "format": _mostly(st.sampled_from(["dot", "json"]),
                      st.sampled_from(["svg", "", "-dot", "DOT"])),
    "point": _mostly(st.sampled_from(["0", "1", "inf", "-1/2", "2/4"]),
                     st.one_of(st.sampled_from(["1/0", "-x", "", "-inf",
                                                "-1.5", "0.5"]),
                               st.text("-0123/.inf", max_size=4))),
    "suite": st.sampled_from(["all", "kernels", "nope", "", "-x"]),
    "space": _FILE, "ram": _FILE, "witness": _FILE}
# options no command has, and none an abbreviation of one
_UNKNOWN = ["--tol", "--numeric", "-q", "--bogus=1", "--x", "--spaces",
            "--LEFT", "--lambda2"]


@st.composite
def _argvs(draw):
    """An argv of the g2 grammar: a command or an unknown one, then each of
    its options absent, present or repeated, each value split from its
    option or joined by '=', a flag sometimes given a value, and unknown
    options or those of other commands, the groups in any order."""
    commands = oracles.cli_options()
    command = draw(st.sampled_from(sorted(commands) + ["frobnicate",
                                                       "Tensor", ""]))
    options = commands.get(command, {})
    groups = []
    for opt, (dest, takes) in options.items():
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            if not takes:
                groups.append([draw(_mostly(st.just(opt),
                                            st.just(f"{opt}=1")))])
                continue
            # the argparse of Python 3.11 strips an option's value "--" and
            # stores [] without calling the type; the table parser reads it
            # as the value (test_an_option_value_of_two_dashes_is_that_value)
            value = draw(_VALUES[dest].filter(lambda v: v != "--"))
            groups.append(draw(st.sampled_from([[opt, value],
                                                [f"{opt}={value}"]])))
    foreign = sorted({o for opts in commands.values() for o in opts
                      if o not in options
                      and not any(p.startswith(o) for p in options)})
    for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):
        opt = draw(st.sampled_from(_UNKNOWN + foreign))
        groups.append(draw(st.sampled_from([[opt], [opt, "1"]])))
    groups = draw(st.permutations(groups))
    return [command] + [t for g in groups for t in g]


@settings(max_examples=500, deadline=None)
@given(_argvs())
@example([])
@example(["exponents", "--lambda", "1,1", "--case", "2", "--point", "-1/2",
          "--point", "-3/2"])
@example(["ssd-check", "--lambda", "1,1", "--space", "s.json"])
@example(["wronski", "--space", "--reduced"])
@example(["kernel", "--lambda", "-0,1", "--case", "06"])
def test_table_parser_matches_the_argparse_reference(argv):
    """The table parser and the argparse parser it replaced (tests/oracles,
    with main()'s --point join applied to every option) either both exit 2,
    the table parser with "g2: error: " on stderr and nothing on stdout,
    or both accept argv with equal values for every dest."""
    got, out, err = _parsed(cli.parse_args, argv)
    assert got == _parsed(oracles.parse_args, argv)[0], argv
    if got == 2:
        assert out == "" and "g2: error: " in err, (argv, out, err)


@pytest.mark.parametrize("joined", [False, True])
def test_an_option_value_of_two_dashes_is_that_value(capsys, joined):
    """An option's value "--", split from the option or joined by '=', is
    read by the option's type like any other value: --lambda -- is a usage
    error naming --lambda, and --space -- names the file "--".  The
    reference parser differs here: Python 3.11's argparse drops the "--"
    and stores [] for --lambda, so the differential test draws no "--"."""
    def argv(opt, value):
        return [f"{opt}={value}"] if joined else [opt, value]

    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["bae", "--lambda", "0,0", *argv("--lambda", "--"),
                        "--case", "0"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(
        "g2: error: argument --lambda: weight must be 'a,b', got '--'\n")
    args = cli.parse_args(["ssd-check", *argv("--space", "--"),
                           "--ram", "r.json"])
    assert (args.space, args.ram, args.lam) == ("--", "r.json", None)


def test_help_and_abbreviations(capsys):
    """-h lists every command with its options, COMMAND -h that command
    alone, each exiting 0; argparse's prefix abbreviations of an option
    (--lam for --lambda) are usage errors."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for name in cli.build_parser():
        assert f"\ng2 {name} " in out
    with pytest.raises(SystemExit) as exc:
        cli.main(["exponents", "--lambda", "1,1", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("g2 exponents --lambda")
    assert "--point POINT [--raw]" in out and "g2 tensor" not in out
    for argv, abbreviation in (
            (["bae", "--lam", "1,1", "--case", "1"], "--lam"),
            (["diffop", "--lambda", "1,1", "--case", "1", "--conj"], "--conj"),
            (["strata", "--d", "9", "--form", "json"], "--form")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"g2: error: unrecognized arguments: {abbreviation}\n")


def _fresh_python(code, **env):
    """Run code in a fresh interpreter with the package on its path; its
    last line of output, read as JSON."""
    src = os.path.dirname(os.path.dirname(g2gaudin.__file__))
    env = dict(os.environ, PYTHONPATH=src, **env)
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


# modules whose load the import tests watch besides g2gaudin's layers;
# argparse, gettext and locale would be about a third of a cold start,
# dataclasses (with inspect) about 10 ms and fractions about 3 ms of one
_WATCHED = ("numpy", "sympy", "dataclasses", "inspect", "fractions", "json",
            "argparse", "gettext", "locale")


def _run_fresh(*argvs):
    """(exit codes, loaded modules) of a fresh interpreter that imports
    g2gaudin.cli and runs each argv through cli.main, its output dropped
    and a usage error's or help's exit caught: the g2gaudin layers and the
    _WATCHED modules loaded at the end."""
    rcs, loaded = _fresh_python(
        "import contextlib, io, json, sys, g2gaudin.cli\n"
        "rcs = []\n"
        f"for argv in {list(argvs)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            rcs.append(g2gaudin.cli.main(argv))\n"
        "        except SystemExit as exc:\n"
        "            rcs.append(exc.code)\n"
        "print(json.dumps([rcs, [m.split('.')[-1] for m in sys.modules if\n"
        "    m.startswith('g2gaudin.') or m in %r]]))\n" % (_WATCHED,))
    return rcs, set(loaded)


def _loaded_after(argv):
    """The g2gaudin layers and _WATCHED modules loaded by a fresh
    interpreter after `import g2gaudin.cli` and, if argv is given, one
    query, which must exit 0."""
    rcs, loaded = _run_fresh(*([argv] if argv else []))
    assert rcs in ([], [0]), (argv, rcs)
    return loaded


def test_commands_import_only_their_layers():
    # exact and linalg load only where a command eliminates or builds a
    # Poly, and no command, help or usage error loads argparse, gettext or
    # locale.  cli loads json (its codec) and nothing else watched
    assert _loaded_after(None) == {"cli", "json"}
    # the weight layer is integer: no fractions, and no dataclasses (with
    # inspect) in any layer a cold combinatorial query loads
    repn_only = {"cli", "json", "repn", "rootdata"}
    assert _loaded_after(["tensor", "--left", "1,0", "--right", "0,1"]) == \
        repn_only
    assert _loaded_after(["invdim", "--weights", "0,1;0,1"]) == repn_only
    strata = repn_only | {"strat"}
    assert _loaded_after(["strata", "--d", "12"]) == strata
    # the covering suite reads the admissible cases from repn: no bethe
    for suite in ("strata", "covering"):
        assert _loaded_after(["verify", "--suite", suite]) == \
            strata | {"verify"}
    # exact loads fractions: it builds Polys over Q
    for suite in ("chevalley", "casimir"):
        assert _loaded_after(["verify", "--suite", suite]) == \
            repn_only | {"linalg", "exact", "fractions", "verify"}
    for suite in ("bae-grid", "reproduction"):
        loaded = _loaded_after(["verify", "--suite", suite])
        assert "bethe" in loaded, suite
        assert not loaded & {"numpy", "dataclasses", "inspect"}, suite
    case = ["--lambda", "1,1", "--case", "2"]
    # each alone: the h2check command builds D_y and loads sgrass with it
    # by design (the comment above cli._load); the h2 suite reads no space
    # and does not load it
    assert "sgrass" in _loaded_after(["h2check"] + case)
    assert "sgrass" not in _loaded_after(["verify", "--suite", "h2"])
    argvs = [["bae"] + case, ["bae-verify"] + case,
             ["reproduce", "--direction", "1"] + case,
             ["diffop", "--conjugated"] + case, ["kernel"] + case,
             ["exponents", "--point", "-1/2"] + case, ["h2check"] + case,
             ["ssd-check"] + case, ["wronski", "--reduced"] + case,
             ["tensor", "--left", "1,0", "--right", "0,1"],
             ["invdim", "--weights", "0,1;0,1"], ["strata", "--d", "9"],
             ["verify", "--suite", "chevalley"], ["-h"], ["kernel", "-h"],
             ["kernel", "--lam", "1,1", "--case", "2"], ["frobnicate"]]
    rcs, loaded = _run_fresh(*argvs)
    assert rcs == [0] * (len(argvs) - 2) + [2, 2]
    assert not loaded & {"argparse", "gettext", "locale"}, loaded
    # only the chevalley and casimir suites eliminate: the case commands
    # and the grid suites load no linalg (polynomial_kernel, the nullspace
    # reference, imports it when it runs)
    argvs = [["kernel"] + case, ["diffop", "--conjugated"] + case,
             ["ssd-check"] + case, ["wronski", "--reduced"] + case,
             ["exponents", "--point", "-1/2"] + case,
             ["verify", "--suite", "h2"], ["verify", "--suite", "kernels"]]
    rcs, loaded = _run_fresh(*argvs)
    assert rcs == [0] * len(argvs) and "linalg" not in loaded, loaded


def test_every_command_runs_without_numpy_or_sympy(tmp_path):
    """A fresh interpreter in which importing numpy or sympy fails answers
    every subcommand, the file inputs of ssd-check and wronski and all nine
    suites (on the 1-grid) with the usual exit codes."""
    lam, i = (2, 1), 5
    X, _, gamma = sgrass.bethe_kernel_instance(lam, i)
    polys = {"space": X.flag_basis, "witness": gamma,
             "swapped": (gamma[1], gamma[0]) + gamma[2:]}
    contents = {role: [oracles.poly_json(p) for p in ps]
                for role, ps in polys.items()}
    contents["ram"] = {"points": ["0", "1"],
                       "partitions": [rd.partition_from_weight(lam, 0),
                                      rd.partition_from_weight(rd.OMEGA2, 0)]}
    files = {role: str(tmp_path / f"{role}.json") for role in contents}
    for role, content in contents.items():
        with open(files[role], "w") as fh:
            json.dump(content, fh)
    case = ["--lambda", "2,1", "--case", "5"]
    space = ["--space", files["space"]]
    queries = [
        (["tensor", "--left", "1,0", "--right", "0,1"], 0),
        (["invdim", "--weights", "0,1;0,1;0,1;0,1"], 0),
        (["bae"] + case, 0), (["bae-verify"] + case, 0),
        (["reproduce", "--direction", "1"] + case, 0),
        (["diffop", "--conjugated"] + case, 0), (["kernel"] + case, 0),
        (["exponents", "--point", "inf"] + case, 0),
        (["h2check"] + case, 0), (["ssd-check"] + case, 0),
        (["ssd-check", "--ram", files["ram"], "--witness", files["witness"]]
         + space, 0),
        (["ssd-check", "--ram", files["ram"], "--witness", files["swapped"]]
         + space, 1),
        (["wronski", "--reduced"] + case, 0), (["wronski"] + space, 0),
        (["strata", "--d", "11"], 0), (["verify", "--suite", "all"], 0)]
    code = ("import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = sys.modules['sympy'] = None\n"
            "from g2gaudin import cli\n"
            "rcs = []\n"
            f"for argv in {[argv for argv, _ in queries]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rcs.append(cli.main(argv))\n"
            "print(json.dumps(rcs))\n")
    assert _fresh_python(code, G2_LMAX="1") == [rc for _, rc in queries]


def test_a_suite_that_raises_is_its_fail_line():
    """With rootdata.pair_size planted one too small, a fresh `g2 verify`
    on the 1-grid reports the strata suite (enumerate_nontrivial meets a
    pair of size 0 and raises before it recurses) and the covering suite
    (a zero pair in a stratum label) as FAIL lines, exit 1, with nothing
    on stderr; under `all` every suite still reports one line."""
    code = ("import contextlib, io, json\n"
            "from g2gaudin import cli, rootdata\n"
            "size = rootdata.pair_size\n"
            "rootdata.pair_size = lambda mu, k: size(mu, k) - 1\n"
            "out, err = io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(out), "
            "contextlib.redirect_stderr(err):\n"
            "    rc = cli.main(['verify', '--suite', %r])\n"
            "print(json.dumps([rc, out.getvalue(), err.getvalue()]))\n")
    for suite, message in (
            ("strata", "a pair of size <= 0 in the pool of d-labels"),
            ("covering", "zero pair in a stratum label")):
        assert _fresh_python(code % suite, G2_LMAX="1") == [
            1, f"FAIL {suite}: {message}\n", ""]
    rc, out, err = _fresh_python(code % "all", G2_LMAX="1")
    lines = out.splitlines()
    assert (rc, err, len(lines)) == (1, "", len(verify.SUITES))
    assert [line.split(":")[0] for line in lines] == [
        f"{'FAIL' if name in ('strata', 'covering') else 'PASS'} {name}"
        for name in verify.SUITES]


def test_a_reproduction_error_is_a_named_fail_line(monkeypatch, capsys):
    """A ValueError from bethe.reproduce (no fertility witness) is the
    reproduction suite's FAIL line, naming the case, and all nine suites
    still report; bae-grid, whose fertility cross-check uses the same
    solve, fails too, and so does kernels, whose case_failure certifies
    each case first."""
    solve = bethe.fertility_solve

    def planted(Y, R, a):
        return None if len(Y) > 1 else solve(Y, R, a)

    monkeypatch.setenv("G2_LMAX", "1")
    monkeypatch.setattr(bethe, "fertility_solve", planted)
    rc, out = run(["verify", "--suite", "reproduction"], capsys)
    # the planted solve fails on the step back from the trivial pair, in
    # direction 2 at a = <Lambda_1 + rho, coroot_2> = -1
    assert (rc, out) == (1, "FAIL reproduction: no reproduction step in "
                            "direction 2: a = <Lambda_1 + rho, coroot_2> = "
                            "-1 <= 0 and no fertility witness at (0, 0), "
                            "case 0\n")
    results = verify.run_suite("all")
    assert list(results) == list(verify.SUITES)
    assert [k for k, (ok, _) in results.items() if not ok] == \
        ["bae-grid", "reproduction", "kernels"]
