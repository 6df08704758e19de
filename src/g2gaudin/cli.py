"""Command-line front end: JSON in/out, deterministic output, exit code 0 on
success, 1 on a failed mathematical check, 2 on usage errors."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import rootdata as rd
from .exact import Poly, scalar_from_str, scalar_to_str, zpoly


def _parse_weight(s):
    parts = s.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"weight must be 'a,b', got {s!r}")
    return (int(parts[0]), int(parts[1]))


def _parse_point(s):
    if s == "inf":
        return "inf"
    return Fraction(s)


def _poly_json(p: Poly):
    return [scalar_to_str(c) for c in p.coeffs]


def _poly_from_json(coeffs) -> Poly:
    return Poly([scalar_from_str(str(c)) for c in coeffs])


def _poly_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if not c:
            continue
        mag = scalar_to_str(abs(c)) if isinstance(c, Fraction) \
            else scalar_to_str(c)
        neg = isinstance(c, Fraction) and c < 0
        if k == 0:
            body = mag
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == "1" else f"{mag}*{xs}"
        if not terms:
            terms.append(("-" if neg else "") + body)
        else:
            terms.append(("- " if neg else "+ ") + body)
    return " ".join(terms)


def _ratfunc_json(r):
    return {"num": _poly_json(r.num), "den": _poly_json(r.den)}


def _emit(obj) -> int:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    return 0


# Each command imports the layers it uses.  The commands that build D_y
# import sgrass (which imports diffop) even where they use only diffop: a
# many-query process then compiles both up front, not midway through a case
# sweep, where without a bytecode cache it raised peak RSS by about 1 MB.


def _load_space(path):
    from . import sgrass
    with open(path) as fh:
        data = json.load(fh)
    return sgrass.PolySpace(tuple(_poly_from_json(c) for c in data))


def _load_ram(path):
    from . import sgrass
    with open(path) as fh:
        data = json.load(fh)
    pts = tuple("inf" if p == "inf" else Fraction(str(p))
                for p in data["points"])
    return sgrass.RamificationData(pts, tuple(tuple(p)
                                              for p in data["partitions"]))


def _bethe_instance(args):
    """(X, R, gamma) from --lam/--case, or from --space/--ram files."""
    from . import sgrass
    if args.lam is not None:
        return sgrass.bethe_kernel_instance(args.lam, args.case)
    X = _load_space(args.space)
    R = _load_ram(args.ram)
    gamma = None
    if getattr(args, "witness", None):
        with open(args.witness) as fh:
            gamma = tuple(_poly_from_json(c) for c in json.load(fh))
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
    ws = [_parse_weight(s) for s in args.weights.split(";")]
    return _emit({"weights": [list(w) for w in ws],
                  "invariant_dim": repn.invariant_dim(ws)})


def cmd_bae(args):
    from . import bethe
    y = bethe.appendix_solution(args.lam, args.case)
    out = {"lambda": list(args.lam), "case": args.case,
           "y1": _poly_json(y.y1), "y2": _poly_json(y.y2),
           "y1_str": _poly_str(y.y1), "y2_str": _poly_str(y.y2)}
    if args.numeric:
        import numpy as np
        out["roots_numeric"] = {
            "y1": sorted(complex(r).real if abs(complex(r).imag) < 1e-12
                         else str(r) for r in
                         np.roots([float(c) for c in
                                   reversed(y.y1.coeffs)])) if y.y1.degree
            else [],
            "y2": [str(r) for r in
                   np.roots([float(c) for c in reversed(y.y2.coeffs)])]
            if y.y2.degree else [],
        }
    return _emit(out)


def cmd_bae_verify(args):
    from . import bethe
    z = [Fraction(0), Fraction(1)]
    Lam = [args.lam, rd.OMEGA2]
    if args.case not in bethe.admissible_ls(args.lam):
        print(f"case {args.case} not admissible for {args.lam}",
              file=sys.stderr)
        return 1
    y = bethe.appendix_solution(args.lam, args.case)
    T = bethe.zcalT(Lam, z)
    generic = bethe.is_generic(y, Lam, z)
    # fertility is a cross-check: on a generic pair it agrees with bae_exact
    exact = bethe.bae_exact(y, *T)
    F = bethe.fertility_rhs(y, *T)
    fertile = all(bethe.fertility_solve(yj, zpoly(Fj), a + 1) is not None
                  for yj, Fj, a in zip((y.y1, y.y2), F, args.lam))
    res = float(bethe.bae_residual(y, Lam, z))
    ok = generic and exact and fertile
    _emit({"lambda": list(args.lam), "case": args.case, "generic": generic,
           "fertile": fertile, "residual": res, "ok": ok})
    return 0 if ok else 1


def cmd_reproduce(args):
    from . import bethe
    y = bethe.appendix_solution(args.lam, args.case)
    data = bethe.BetheData((args.lam, rd.OMEGA2),
                           (Fraction(0), Fraction(1)),
                           bethe.L_LIST[args.case])
    out = bethe.reproduce(y, args.direction, data)
    if out is None:
        _emit({"result": "absent"})
        return 1
    ynew, dnew = out
    return _emit({"y1": _poly_json(ynew.y1), "y2": _poly_json(ynew.y2),
                  "lambda_1": list(dnew.Lambda[0]), "l": list(dnew.l)})


def cmd_diffop(args):
    from . import diffop, sgrass
    D = diffop.appendix_operator(args.lam, args.case,
                                 conjugated=args.conjugated)
    return _emit({"order": D.order,
                  "coefficients": [_ratfunc_json(c) for c in D.coeffs]})


def cmd_kernel(args):
    from . import diffop, sgrass
    ker = diffop.kernel_for_case(args.lam, args.case)
    return _emit({"dimension": len(ker),
                  "basis": [_poly_json(p) for p in ker]})


def cmd_exponents(args):
    from . import diffop, sgrass
    D = diffop.appendix_operator(args.lam, args.case,
                                 conjugated=not args.raw)
    e = diffop.exponents_at(D, args.point)
    return _emit({"point": "inf" if e.point == "inf" else str(e.point),
                  "exponents": list(e.exponents)})


def cmd_h2check(args):
    from . import diffop, sgrass
    got, expected = diffop.h2_casimir_values(args.lam, args.case)
    ok = got == expected
    _emit({"lambda": list(args.lam), "case": args.case,
           "residue_side": scalar_to_str(got),
           "casimir_side": scalar_to_str(expected), "ok": ok})
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
    from . import diffop, sgrass
    if args.lam is not None:
        ker = diffop.kernel_for_case(args.lam, args.case)
        X = sgrass.PolySpace(tuple(ker))
    else:
        X = _load_space(args.space)
    w = sgrass.space_wronskian(X)
    out = {"wronskian": _poly_json(w), "wronskian_str": _poly_str(w)}
    if args.reduced:
        r = sgrass._seventh_root(w)
        out["reduced"] = _poly_json(r)
        out["reduced_str"] = _poly_str(r)
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
    try:
        results = verify_mod.run_suite(args.suite)
    except KeyError:
        print(f"unknown suite {args.suite!r}; choose from "
              f"{', '.join(verify_mod.SUITES)} or 'all'", file=sys.stderr)
        return 2
    ok_all = True
    for name, (ok, detail) in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        ok_all = ok_all and ok
    return 0 if ok_all else 1


def _add_case_args(p, case_required=True):
    p.add_argument("--lambda", dest="lam", type=_parse_weight, required=True,
                   metavar="a,b")
    p.add_argument("--case", type=int, required=case_required,
                   choices=range(7))


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
    p.add_argument("--weights", required=True,
                   help="semicolon-separated weights, e.g. '0,1;0,1'")
    p.set_defaults(func=cmd_invdim)

    p = sub.add_parser("bae", help="closed-form Bethe solution")
    _add_case_args(p)
    p.add_argument("--numeric", action="store_true")
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
    p.add_argument("--space", help="JSON file: 7 coefficient arrays")
    p.add_argument("--ram", help="JSON file: points + partitions")
    p.add_argument("--witness", help="JSON file: ordered basis")
    p.add_argument("--lambda", dest="lam", type=_parse_weight,
                   metavar="a,b", help="build from a closed-form case")
    p.add_argument("--case", type=int, choices=range(7))
    p.set_defaults(func=cmd_ssd_check)

    p = sub.add_parser("wronski", help="space Wronskian")
    p.add_argument("--space", help="JSON file: 7 coefficient arrays")
    p.add_argument("--lambda", dest="lam", type=_parse_weight, metavar="a,b")
    p.add_argument("--case", type=int, choices=range(7))
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=cmd_wronski)

    p = sub.add_parser("strata", help="stratification of SGr_d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "lam", "absent") is None and \
            getattr(args, "space", None) is None:
        ap.error("provide either --lambda/--case or --space/--ram")
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
