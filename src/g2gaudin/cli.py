"""Command-line front end: JSON in/out, deterministic output, exit code 0 on
success, 1 on a failed mathematical check, 2 on usage errors.

This module owns the JSON codec: a rational is the string "p" or "p/q" in
lowest terms, the point at infinity the string "inf"; polycodec reads the
rationals of a file and reads and prints polynomials, as integers."""

from __future__ import annotations

import functools
import json
import sys
import types


def _parse_weight(s):
    """A dominant weight 'a,b': two non-negative integers."""
    try:
        a, b = (int(t) for t in s.split(","))
    except ValueError:
        raise ValueError(f"weight must be 'a,b', got {s!r}") from None
    if a < 0 or b < 0:
        raise ValueError(f"weight must be dominant (a, b >= 0), got {s!r}")
    return (a, b)


def _parse_weights(s):
    return [_parse_weight(t) for t in s.split(";")]


def _parse_point(s):
    """A rational of the file grammar (polycodec.rational), or "inf" for
    the point at infinity."""
    if s == "inf":
        return s
    from fractions import Fraction

    from .polycodec import rational
    try:
        return Fraction(*rational(s))
    except ValueError:
        raise ValueError(
            f"point must be a rational or 'inf', got {s!r}") from None


def _emit(obj) -> int:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    return 0


# Each command imports the layers it uses, and this module imports none at
# load time, nor argparse with its gettext and locale: parse_args reads one
# command table, build_parser(), and a one-shot process compiles only what
# its command runs.  Of the standard library it loads json, the codec every
# command prints with, and not fractions: a rational is built only where a
# --point or a --ram file is read, so tensor, invdim and strata load none.
# The commands that build D_y import sgrass (which imports diffop) even
# where they use only diffop: a many-query process then compiles both up
# front, not midway through a case sweep, where without a bytecode cache it
# raised peak RSS by about 1 MB.


def _load(option, path, build):
    """build(the JSON content of the file given to --option).  A file that
    does not parse as JSON or that build rejects is a usage error naming
    the option."""
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            error(f"argument --{option}: malformed file {path}: "
                  f"{type(exc).__name__}: {exc}")


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
    from fractions import Fraction

    from . import sgrass
    from .polycodec import rational

    def build(data):
        pts = tuple(p if p == "inf" else Fraction(*rational(p))
                    for p in data["points"])
        return sgrass.RamificationData(pts, tuple(tuple(p) for p in
                                                  data["partitions"]))
    return _load("ram", path, build)


def _bethe_instance(args):
    """(X, R, gamma) from --lam/--case, gamma the case's flag as integer
    rows, or from --space/--ram files."""
    from . import diffop, sgrass
    if args.lam is not None:
        c = diffop.case(args.lam, args.case)
        return c.space, c.ramification, c.flag_rows
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
    from .polycodec import row_json, text
    y = bethe.appendix_solution(args.lam, args.case)
    y1, y2 = (row_json(r, r[-1]) for r in (y.y1, y.y2))
    return _emit({"lambda": list(args.lam), "case": args.case,
                  "y1": y1, "y2": y2, "y1_str": text(y1), "y2_str": text(y2)})


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
    from .polycodec import row_json
    data = bethe.closed_form(args.lam, args.case)
    out = bethe.reproduce(bethe.closed_form_pair(args.lam, args.case),
                          args.direction, data)
    if out is None:
        _emit({"result": "absent"})
        return 1
    ynew, dnew = out
    return _emit({"y1": row_json(ynew.y1, ynew.y1[-1]),
                  "y2": row_json(ynew.y2, ynew.y2[-1]),
                  "lambda_1": list(dnew.Lambda[0]), "l": list(dnew.l)})


def cmd_diffop(args):
    from . import diffop, polycodec, sgrass
    c = diffop.case(args.lam, args.case)
    D = c.conjugated if args.conjugated else c.operator
    return _emit({"order": D.order, "coefficients": [
        {"num": polycodec.row_json(p, q[-1]),
         "den": polycodec.row_json(q, q[-1])}
        for p, q in D.lowest_terms]})


def cmd_kernel(args):
    from . import diffop, polycodec, sgrass
    rows = diffop.case(args.lam, args.case).space.basis
    return _emit({"dimension": len(rows),
                  "basis": [polycodec.row_json(r, r[-1]) for r in rows]})


def cmd_exponents(args):
    from . import diffop, sgrass
    c = diffop.case(args.lam, args.case)
    D = c.operator if args.raw else c.conjugated
    return _emit({"point": str(args.point),
                  "exponents": list(diffop.exponents_at(D, args.point))})


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
    from .exact import zprimitive
    if args.lam is None:
        X, R = _load_polys("space", args.space, sgrass.PolySpace), None
    else:
        X, R, _ = _bethe_instance(args)
    w = zprimitive(sgrass.wronskian_row(X, R))
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
    # the suite names live in verify, which the command table does not load
    choices = (*verify_mod.SUITES, "all")
    if args.suite not in choices:
        error(f"argument --suite: invalid choice: {args.suite!r} "
              f"(choose from {', '.join(map(repr, choices))})")
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


# an option maps to (dest, parser, default): the parser reads the value, or
# is the tuple or range of its choices, or is None for a flag
REQUIRED = object()


@functools.cache
def build_parser():
    """The command table, built once per process: main() may run many
    queries.  A command maps to (handler, help line, options by name)."""
    case = {"--lambda": ("lam", _parse_weight, REQUIRED),
            "--case": ("case", range(7), REQUIRED)}
    source = {"--lambda": ("lam", _parse_weight, None),
              "--space": ("space", str, None),
              "--case": ("case", range(7), None)}
    return {
        "tensor": (cmd_tensor, "decompose a tensor product",
                   {"--left": ("left", _parse_weight, REQUIRED),
                    "--right": ("right", _parse_weight, REQUIRED)}),
        "invdim": (cmd_invdim, "invariant dimension of a product",
                   {"--weights": ("weights", _parse_weights, REQUIRED)}),
        "bae": (cmd_bae, "closed-form Bethe solution", case),
        "bae-verify": (cmd_bae_verify,
                       "genericity/exact Bethe equations/fertility", case),
        "reproduce": (cmd_reproduce, "one reproduction step", {
            **case, "--direction": ("direction", range(1, 3), REQUIRED)}),
        "diffop": (cmd_diffop, "the order-7 operator",
                   {**case, "--conjugated": ("conjugated", None, False)}),
        "kernel": (cmd_kernel, "polynomial kernel basis", case),
        "exponents": (cmd_exponents, "indicial exponents",
                      {**case, "--point": ("point", _parse_point, REQUIRED),
                       "--raw": ("raw", None, False)}),
        "h2check": (cmd_h2check, "residue vs Casimir cross-check", case),
        "ssd-check": (cmd_ssd_check, "self-(self-)duality checks",
                      {**source, "--ram": ("ram", str, None),
                       "--witness": ("witness", str, None)}),
        "wronski": (cmd_wronski, "space Wronskian",
                    {**source, "--reduced": ("reduced", None, False)}),
        # strat.MAX_D = 14; strat loads only when the command runs
        "strata": (cmd_strata, "stratification of SGr_d",
                   {"--d": ("d", range(7, 15), REQUIRED),
                    "--format": ("format", ("dot", "json"), "dot")}),
        "verify": (cmd_verify, "run a verification suite",
                   {"--suite": ("suite", str, "all")})}


def error(message):
    """A usage error: "g2: error: <message>" on stderr, then exit 2."""
    print("usage: g2 COMMAND [OPTIONS]", f"g2: error: {message}", sep="\n",
          file=sys.stderr)
    sys.exit(2)


def _help(command=None):
    """The usage and help line of every command, or of one; then exit 0."""
    lines = [] if command else [__doc__, ""]
    for name, (_, doc, options) in build_parser().items():
        if command in (None, name):
            words = [f"g2 {name}"]
            for opt, (dest, parse, default) in options.items():
                if parse is not None:
                    opt += " " + (dest.upper() if callable(parse) else
                                  "|".join(map(str, parse)))
                words.append(opt if default is REQUIRED else f"[{opt}]")
            lines += [" ".join(words), f"    {doc}"]
    print("\n".join(lines))
    sys.exit(0)


def _value(opt, parse, s):
    """s read by opt's parser or as one of its choices; else a usage error."""
    try:
        if callable(parse):
            return parse(s)
        v = int(s) if isinstance(parse, range) else s
        if v not in parse:
            raise ValueError(f"{s!r} not in {'|'.join(map(str, parse))}")
        return v
    except ValueError as exc:
        error(f"argument {opt}: {exc}")


def parse_args(argv):
    """The namespace of argv: command, func (its handler) and a dest for
    each of the command's options.  An option's value is the rest of its
    token after "=" or else the next token, whatever it begins with; the
    last of a repeated option wins."""
    if argv[:1] in (["-h"], ["--help"]):
        _help()
    if not argv or argv[0] not in build_parser():
        error(f"choose a command from {', '.join(build_parser())}")
    command, tokens = argv[0], iter(argv[1:])
    func, _, options = build_parser()[command]
    args = {dest: None if default is REQUIRED else default
            for dest, _, default in options.values()}
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        opt, eq, value = token.partition("=")
        if opt not in options:
            error(f"unrecognized arguments: {token}")
        dest, parse, _ = options[opt]
        if parse is None and eq:
            error(f"argument {opt}: takes no value")
        if parse is not None and not eq:
            value = next(tokens, None)
            if value is None:
                error(f"argument {opt}: expected one argument")
        args[dest] = True if parse is None else _value(opt, parse, value)
    # no parser returns None
    missing = [opt for opt, (dest, _, default) in options.items()
               if default is REQUIRED and args[dest] is None]
    if missing:
        error("the following arguments are required: " + ", ".join(missing))
    args = types.SimpleNamespace(command=command, func=func, **args)
    if "--space" in options:
        _check_inputs(args)
    return args


def _check_inputs(args):
    """ssd-check and wronski read a case (--lambda) or a space file (--space),
    not both; --case goes with --lambda and only with it, every file with
    --space, and ssd-check reads --space only together with --ram."""
    if (args.lam is None) == (args.space is None):
        error("give one of the arguments --lambda and --space")
    if args.lam is not None:
        if args.case is None:
            error("--lambda needs --case")
        for name in ("ram", "witness"):
            if getattr(args, name, None) is not None:
                error(f"--{name} needs --space")
    elif args.case is not None:
        error("--case needs --lambda")
    elif hasattr(args, "ram") and args.ram is None:
        error("--space needs --ram")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        rc = args.func(args)
    except (ValueError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
