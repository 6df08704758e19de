"""Hash the output of a fixed set of g2 commands, to show that a change
leaves every answer as it was.

    PYTHONPATH=src python3 tools/parity.py

runs each command in this process through `g2gaudin.cli.main` and prints
the number of commands and one SHA-256 over the argv, exit code, stdout
and stderr of each.  g2gaudin is imported from PYTHONPATH, so pointing
PYTHONPATH at the `src/` of another checkout hashes that checkout with the
same script; equal digests mean equal output.

The commands: for every weight lam on the G2_LMAX grid (default 5) and
every case i in 0..6, admissible or not, bae, bae-verify, reproduce in
both directions, diffop with and without --conjugated, kernel, h2check,
ssd-check, wronski with and without --reduced, and exponents at 0, 1,
inf and -1/2 with and without --raw; then strata for d = 7..14 in json
and dot, tensor for every pair of grid weights, invdim on 0,1 repeated 1
to 5 times, and `verify --suite NAME` for each of the nine suites, whose
grid suites run on the same G2_LMAX grid.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from g2gaudin import cli

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
                # one token: argparse would read "-1/2" alone as an option
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


def run(argv):
    """(exit code, stdout, stderr) of one cli.main(argv) call; a crash is
    recorded by its exception type and message, without the traceback."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage by exiting
        rc = exc.code
    except Exception as exc:
        rc = f"crash: {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def main():
    digest, n = hashlib.sha256(), 0
    for argv in commands(int(os.environ.get("G2_LMAX", "5"))):
        rc, out, err = run(argv)
        digest.update(json.dumps([argv, rc, out, err]).encode() + b"\n")
        n += 1
    print(f"{n} commands")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    sys.exit(main())
