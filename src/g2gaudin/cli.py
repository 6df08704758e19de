"""Command-line front end: JSON in/out, deterministic output, exit code 0 on
success, 1 on a failed mathematical check, 2 on usage errors.

This module owns the JSON codec: a rational is the string "p" or "p/q" in
lowest terms, the point at infinity the string "inf"; polycodec reads the
rationals of a file and reads and prints polynomials, as integers."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction


def _parse_weight(s):
    """A dominant weight 'a,b': two non-negative integers."""
    try:
        a, b = (int(t) for t in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"weight must be 'a,b', got {s!r}")
    if a < 0 or b < 0:
        raise argparse.ArgumentTypeError(
            f"weight must be dominant (a, b >= 0), got {s!r}")
    return (a, b)


def _parse_weights(s):
    return [_parse_weight(t) for t in s.split(";")]


def _parse_point(s):
    """A rational, or "inf" for the point at infinity."""
    if s == "inf":
        return s
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"point has denominator 0: {s!r}")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"point must be a rational or 'inf', got {s!r}")


def _poly_json(p: Poly):
    from .exact import zclear
    from .polycodec import row_json
    return row_json(*zclear(p.coeffs))


def _poly_str(p: Poly) -> str:
    from .polycodec import text
    return text(_poly_json(p))


def _emit(obj) -> int:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    return 0


# Each command imports the layers it uses, and this module imports none at
# load time (Poly appears only in annotations, which are strings here): a
# one-shot process without a bytecode cache compiles only what its command
# runs.  The commands that build D_y import sgrass (which imports diffop)
# even where they use only diffop: a many-query process then compiles both
# up front, not midway through a case sweep, where without a bytecode cache
# it raised peak RSS by about 1 MB.


def _load(option, path, build):
    """build(the JSON content of the file given to --option).  A file that
    does not parse as JSON or that build rejects is a usage error naming
    the option."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            build_parser().error(f"argument --{option}: malformed file "
                                 f"{path}: {type(exc).__name__}: {exc}")


def _load_polys(option, path, build=tuple):
    """build(the 7 integer rows of a JSON array of coefficient arrays), by
    _load: a space (sgrass.PolySpace) or an ordered basis, each row read by
    polycodec.read_row, so a zero polynomial is [] (zprimitive divides by
    the content of [0])."""
    from .polycodec import read_row

    def read(content):
        rows = tuple(map(read_row, content))
        if len(rows) != 7:
            raise ValueError(f"need 7 polynomials, got {len(rows)}")
        return build(rows)
    return _load(option, path, read)


def _load_ram(path):
    """{"points": [...], "partitions": [...]}: sgrass.RamificationData,
    each point "inf" or a rational read by polycodec.rational."""
    from . import sgrass
    from .polycodec import rational

    def build(data):
        pts = tuple(p if p == "inf" else Fraction(*rational(p))
                    for p in data["points"])
        return sgrass.RamificationData(pts, tuple(tuple(p) for p in
                                                  data["partitions"]))
    return _load("ram", path, build)


def _bethe_instance(args):
    """(X, R, gamma) from --lam/--case, or from --space/--ram files."""
    from . import sgrass
    if args.lam is not None:
        return sgrass.bethe_kernel_instance(args.lam, args.case)
    X = _load_polys("space", args.space, sgrass.PolySpace)
    R = _load_ram(args.ram)
    gamma = (None if args.witness is None
             else _load_polys("witness", args.witness))
    return X, R, gamma


def cmd_tensor(args):
    from . import repn
    dec = repn.tensor_decompose(args.left, args.right)
    summands = [{"weight": list(mu), "multiplicity": m}
                for mu, m in sorted(dec.items())]
    return _emit({"left": list(args.left), "right": list(args.right),
                  "summands": summands})


def cmd_invdim(args):
    from . import repn
    return _emit({"weights": [list(w) for w in args.weights],
                  "invariant_dim": repn.invariant_dim(args.weights)})


def cmd_bae(args):
    from . import bethe
    y = bethe.appendix_solution(args.lam, args.case)
    return _emit({"lambda": list(args.lam), "case": args.case,
                  "y1": _poly_json(y.y1), "y2": _poly_json(y.y2),
                  "y1_str": _poly_str(y.y1), "y2_str": _poly_str(y.y2)})


def cmd_bae_verify(args):
    from . import bethe
    data = bethe.closed_form(args.lam, args.case)
    cert = bethe.certify(bethe.closed_form_pair(args.lam, args.case), data)
    ok = all(cert.values())
    _emit({"lambda": list(args.lam), "case": args.case,
           "generic": cert["generic"], "fertile": cert["fertile"], "ok": ok})
    return 0 if ok else 1


def cmd_reproduce(args):
    from . import bethe
    data = bethe.closed_form(args.lam, args.case)
    out = bethe.reproduce(bethe.closed_form_pair(args.lam, args.case),
                          args.direction, data)
    if out is None:
        _emit({"result": "absent"})
        return 1
    ynew, dnew = out
    return _emit({"y1": _poly_json(ynew.y1), "y2": _poly_json(ynew.y2),
                  "lambda_1": list(dnew.Lambda[0]), "l": list(dnew.l)})


def cmd_diffop(args):
    from . import diffop, polycodec, sgrass
    D = diffop.appendix_operator(args.lam, args.case,
                                 conjugated=args.conjugated)
    return _emit({"order": D.order, "coefficients": [
        {"num": polycodec.row_json(p, q[-1]),
         "den": polycodec.row_json(q, q[-1])}
        for p, q in D.lowest_terms]})


def cmd_kernel(args):
    from . import polycodec, sgrass
    rows = sgrass.kernel_space(args.lam, args.case).basis
    return _emit({"dimension": len(rows),
                  "basis": [polycodec.row_json(r, r[-1]) for r in rows]})


def cmd_exponents(args):
    from . import diffop, sgrass
    D = diffop.appendix_operator(args.lam, args.case,
                                 conjugated=not args.raw)
    e = diffop.exponents_at(D, args.point)
    return _emit({"point": str(e.point),
                  "exponents": list(e.exponents)})


def cmd_h2check(args):
    from . import diffop, sgrass
    got, expected = diffop.h2_casimir_values(args.lam, args.case)
    ok = got == expected
    _emit({"lambda": list(args.lam), "case": args.case,
           "residue_side": str(got), "casimir_side": str(expected),
           "ok": ok})
    return 0 if ok else 1


def cmd_ssd_check(args):
    from . import sgrass
    X, R, gamma = _bethe_instance(args)
    sd = sgrass.is_self_dual(X, R)
    out = {"self_dual": sd, "ssd_witness": None}
    ok = sd
    if gamma is not None:
        w = sgrass.ssd_witness_check(X, R, gamma)
        out["ssd_witness"] = w
        ok = ok and w
    _emit(out)
    return 0 if ok else 1


def cmd_wronski(args):
    from . import polycodec, sgrass
    from .exact import zprimitive, zwronskians
    X = (sgrass.kernel_space(args.lam, args.case) if args.lam is not None
         else _load_polys("space", args.space, sgrass.PolySpace))
    w = zprimitive(zwronskians(X.basis)[-1])
    out = {"wronskian": polycodec.row_json(w, w[-1])}
    out["wronskian_str"] = polycodec.text(out["wronskian"])
    if args.reduced:
        out["reduced"] = polycodec.row_json(*sgrass._seventh_root(w))
        out["reduced_str"] = polycodec.text(out["reduced"])
    return _emit(out)


def cmd_strata(args):
    from . import strat
    H = strat.hasse_diagram(args.d)
    if args.format == "dot":
        sys.stdout.write(strat.to_dot(H))
        return 0
    return _emit({"d": args.d,
                  "nodes": [n.name() for n in H.nodes],
                  "edges": [[a.name(), b.name()] for a, b in H.edges],
                  "covering_degrees": {n.name(): strat.covering_degree(n)
                                       for n in H.nodes}})


def cmd_verify(args):
    from . import verify as verify_mod
    if args.suite != "all" and args.suite not in verify_mod.SUITES:
        print(f"unknown suite {args.suite!r}; choose from "
              f"{', '.join(verify_mod.SUITES)} or 'all'", file=sys.stderr)
        return 2
    try:
        verify_mod.lmax()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = verify_mod.run_suite(args.suite)
    ok_all = True
    for name, (ok, detail) in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        ok_all = ok_all and ok
    return 0 if ok_all else 1


def _add_case_args(p):
    p.add_argument("--lambda", dest="lam", type=_parse_weight, required=True,
                   metavar="a,b")
    p.add_argument("--case", type=int, required=True, choices=range(7))


def _add_input_args(p):
    """A closed-form case (--lambda with --case) or a space file (--space);
    argparse keeps --lambda and --space apart, _check_inputs the pairings."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--lambda", dest="lam", type=_parse_weight,
                        metavar="a,b", help="build from a closed-form case")
    source.add_argument("--space", help="JSON file: 7 coefficient arrays")
    p.add_argument("--case", type=int, choices=range(7))


def _check_inputs(ap, args):
    """--case goes with --lambda and only with it, every file with --space,
    and ssd-check reads --space only together with --ram."""
    if args.lam is not None:
        if args.case is None:
            ap.error("--lambda needs --case")
        for name in ("ram", "witness"):
            if getattr(args, name, None) is not None:
                ap.error(f"--{name} needs --space")
    elif args.case is not None:
        ap.error("--case needs --lambda")
    elif hasattr(args, "ram") and args.ram is None:
        ap.error("--space needs --ram")


@functools.cache
def build_parser():
    """The parser, built once per process: main() may run many queries."""
    ap = argparse.ArgumentParser(prog="g2", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tensor", help="decompose a tensor product")
    p.add_argument("--left", type=_parse_weight, required=True)
    p.add_argument("--right", type=_parse_weight, required=True)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("invdim", help="invariant dimension of a product")
    p.add_argument("--weights", type=_parse_weights, required=True,
                   help="semicolon-separated weights, e.g. '0,1;0,1'")
    p.set_defaults(func=cmd_invdim)

    p = sub.add_parser("bae", help="closed-form Bethe solution")
    _add_case_args(p)
    p.set_defaults(func=cmd_bae)

    p = sub.add_parser("bae-verify",
                       help="genericity/exact Bethe equations/fertility")
    _add_case_args(p)
    p.set_defaults(func=cmd_bae_verify)

    p = sub.add_parser("reproduce", help="one reproduction step")
    _add_case_args(p)
    p.add_argument("--direction", type=int, required=True, choices=(1, 2))
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("diffop", help="the order-7 operator")
    _add_case_args(p)
    p.add_argument("--conjugated", action="store_true")
    p.set_defaults(func=cmd_diffop)

    p = sub.add_parser("kernel", help="polynomial kernel basis")
    _add_case_args(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("exponents", help="indicial exponents")
    _add_case_args(p)
    p.add_argument("--point", type=_parse_point, required=True,
                   help="a rational, or 'inf'")
    p.add_argument("--raw", action="store_true",
                   help="use the unconjugated operator")
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("h2check", help="residue vs Casimir cross-check")
    _add_case_args(p)
    p.set_defaults(func=cmd_h2check)

    p = sub.add_parser("ssd-check", help="self-(self-)duality checks")
    _add_input_args(p)
    p.add_argument("--ram", help="JSON file: points + partitions")
    p.add_argument("--witness", help="JSON file: ordered basis")
    p.set_defaults(func=cmd_ssd_check)

    p = sub.add_parser("wronski", help="space Wronskian")
    _add_input_args(p)
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=cmd_wronski)

    p = sub.add_parser("strata", help="stratification of SGr_d")
    # strat.MAX_D = 14; strat loads only when the command runs
    p.add_argument("--d", type=int, required=True, choices=range(7, 15),
                   metavar="7..14")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a point such as -1/2 as an option: join it to --point
    for k in range(len(argv) - 1):
        if argv[k] == "--point" and argv[k + 1].startswith("-"):
            argv[k:k + 2] = [f"--point={argv[k + 1]}"]
            break
    args = ap.parse_args(argv)
    if hasattr(args, "space"):
        _check_inputs(ap, args)
    try:
        rc = args.func(args)
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return rc


if __name__ == "__main__":
    sys.exit(main())
