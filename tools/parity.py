"""Hash the output of a fixed set of g2 commands, to show that a change
leaves every answer as it was.

    PYTHONPATH=src python3 tools/parity.py

runs each command in this process through `g2gaudin.cli.main`, then the
file-input commands of every admissible case on the grid, then reads the
flag `diffop.case(lam, i).flag_rows` of every admissible case, which no
command prints, and prints the number of commands and of flags and one
SHA-256 over the argv, exit code, stdout and stderr of each command and
the monic coefficients of each flag, as the codec prints them.  g2gaudin
is imported from PYTHONPATH, so pointing PYTHONPATH at the `src/` of
another checkout hashes that checkout with the same script; equal digests
mean equal output.

The commands: for every weight lam on the G2_LMAX grid (default 5) and
every case i in 0..6, admissible or not, bae, bae-verify, reproduce in
both directions, diffop with and without --conjugated, kernel, h2check,
ssd-check, wronski with and without --reduced, and exponents at 0, 1,
inf and -1/2 with and without --raw; then strata for d = 7..14 in json
and dot, tensor for every pair of grid weights, invdim on 0,1 repeated 1
to 5 times, and `verify --suite NAME` for each of the nine suites, whose
grid suites run on the same G2_LMAX grid.  The file-input commands, for
each admissible case, read files written from the case's kernel, its
ramification data at z = (0, 1) and its flag: ssd-check with the kernel
space, the data and the flag as witness, the same with the first two
flag elements swapped, and wronski on the space with and without
--reduced.  Their argv is hashed with each file named by its role and the
case, not by its path.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from g2gaudin import cli
from g2gaudin.polycodec import row_json

# the nine suites of `g2 verify`, listed here so that every checkout is
# hashed on the same commands
SUITES = ("chevalley", "casimir", "bae-grid", "reproduction", "kernels", "h2",
          "strata", "covering", "wronskian")


def commands(lmax):
    grid = [f"{a},{b}" for a in range(lmax + 1) for b in range(lmax + 1)]
    for lam in grid:
        for i in range(7):
            case = ["--lambda", lam, "--case", str(i)]
            yield ["bae"] + case
            yield ["bae-verify"] + case
            for d in ("1", "2"):
                yield ["reproduce"] + case + ["--direction", d]
            yield ["diffop"] + case
            yield ["diffop"] + case + ["--conjugated"]
            yield ["kernel"] + case
            yield ["h2check"] + case
            yield ["ssd-check"] + case
            yield ["wronski"] + case
            yield ["wronski"] + case + ["--reduced"]
            for p in ("0", "1", "inf", "-1/2"):
                # joined to its option, as in every earlier digest: the
                # argv is hashed, so the split spelling would move it
                yield ["exponents"] + case + [f"--point={p}"]
                yield ["exponents"] + case + [f"--point={p}", "--raw"]
    for d in range(7, 15):
        for fmt in ("json", "dot"):
            yield ["strata", "--d", str(d), "--format", fmt]
    for left in grid:
        for right in grid:
            yield ["tensor", "--left", left, "--right", right]
    for n in range(1, 6):
        yield ["invdim", "--weights", ";".join(["0,1"] * n)]
    for suite in SUITES:
        yield ["verify", "--suite", suite]


def _admissible(lmax):
    from g2gaudin import bethe
    for a in range(lmax + 1):
        for b in range(lmax + 1):
            for i in bethe.admissible_ls((a, b)):
                yield (a, b), i


def file_commands(lmax, tmp):
    """(argv, argv as hashed) of the file-input commands of every admissible
    case on the grid, the files written to the directory tmp just before
    the case's commands are yielded."""
    from g2gaudin import diffop
    from g2gaudin import rootdata as rd
    for lam, i in _admissible(lmax):
        c = diffop.case(lam, i)
        flag = [row_json(v, v[-1]) for v in c.flag_rows]
        contents = {
            "space": [row_json(v, v[-1]) for v in c.space.basis],
            "ram": {"points": ["0", "1"],
                    "partitions": [rd.partition_from_weight(w, 0)
                                   for w in (lam, rd.OMEGA2)]},
            "witness": flag, "swapped": [flag[1], flag[0]] + flag[2:]}
        paths = {}
        for role, content in contents.items():
            paths[role] = os.path.join(tmp, f"{role}.json")
            with open(paths[role], "w") as fh:
                json.dump(content, fh)
        ssd = ["ssd-check", "--space", "space", "--ram", "ram", "--witness"]
        for roles in (ssd + ["witness"], ssd + ["swapped"],
                      ["wronski", "--space", "space"],
                      ["wronski", "--space", "space", "--reduced"]):
            yield ([paths.get(t, t) for t in roles],
                   [f"{lam[0]},{lam[1]}", str(i)] + roles)


def flags(lmax):
    """(lam, i, monic coefficients of each flag element) for every
    admissible case on the grid."""
    from g2gaudin import diffop
    for lam, i in _admissible(lmax):
        yield lam, i, [row_json(v, v[-1])
                       for v in diffop.case(lam, i).flag_rows]


def run(argv):
    """(exit code, stdout, stderr) of one cli.main(argv) call; a crash is
    recorded by its exception type and message, without the traceback."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # a usage error exits with code 2
        rc = exc.code
    except Exception as exc:
        rc = f"crash: {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def main():
    digest, n, lmax = hashlib.sha256(), 0, int(os.environ.get("G2_LMAX", "5"))
    for argv in commands(lmax):
        rc, out, err = run(argv)
        digest.update(json.dumps([argv, rc, out, err]).encode() + b"\n")
        n += 1
    with tempfile.TemporaryDirectory() as tmp:
        for argv, named in file_commands(lmax, tmp):
            rc, out, err = run(argv)
            out, err = out.replace(tmp, "TMP"), err.replace(tmp, "TMP")
            digest.update(json.dumps([named, rc, out, err]).encode() + b"\n")
            n += 1
    m = 0
    for lam, i, flag in flags(lmax):
        digest.update(json.dumps([lam, i, flag]).encode() + b"\n")
        m += 1
    print(f"{n} commands, {m} flags")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    sys.exit(main())
