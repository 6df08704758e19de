"""Run g2 queries through `g2gaudin.cli.main` in this process, optionally
under cProfile, and attribute the profile to the program's layers.

As a script it is the child process of a timed in-process run and of a
traced run:

    python3 perfbench/worker.py SPEC.json OUT.json

SPEC holds {"src": directory holding g2gaudin, "profile": bool,
"calibrate": bool, "seconds": cap on the query loop or null, "warmup":
[argv, ...], "queries": [argv, ...]}.  The profiler runs over the import
of g2gaudin.cli and over each query, not over the warm-up or the
bookkeeping between queries.  With "calibrate", the calibration kernel
(calib.py) runs before the first query and after each one.  Queries start
until the list ends or "seconds" have passed since the first.  OUT
receives {"import_s", "warmup": [{"rc", "out", "err"}, ...], "results":
[{"rc", "out", "err", "start_s", "end_s", "kernel_s"}, ...], "kernel0_s",
"peak_rss_mb", "layers"}, where "kernel0_s" and "kernel_s" are the kernel
times before the first query and after each (null without calibration)
and "layers" is the table of `layer_table` (null without profiling).
"""

import contextlib
import cProfile
import io
import json
import os
import pstats
import resource
import sys
import time
import traceback

import calib

# the program's modules, each one layer, and `fractions`: the stdlib
# Fraction arithmetic that exact, linalg and repn run on
LAYERS = ("exact", "linalg", "rootdata", "repn", "bethe", "diffop", "sgrass",
          "strat", "verify", "cli", "fractions")

# named functions: metric prefix -> (module, attribute path, fields)
FUNCS = {
    "exact.poly_det": ("exact", "poly_det", ("busy_s", "calls")),
    "exact.poly_gcd": ("exact", "poly_gcd", ("calls",)),
    "exact.Poly.mul": ("exact", "Poly.__mul__", ("calls",)),
    "exact.Poly.divmod": ("exact", "Poly.divmod", ("calls",)),
    "fractions.Fraction.new": ("fractions", "Fraction.__new__", ("calls",)),
    "linalg.rref": ("linalg", "rref", ("busy_s", "calls")),
    "bethe.fertility_solve": ("bethe", "fertility_solve", ("busy_s",)),
    "bethe.bae_residual": ("bethe", "bae_residual", ("busy_s",)),
    "diffop.build_Dy": ("diffop", "build_Dy", ("busy_s", "calls")),
    "diffop.conjugate": ("diffop", "conjugate", ("busy_s",)),
    "diffop.polynomial_kernel": ("diffop", "polynomial_kernel",
                                 ("busy_s", "calls")),
    "diffop.kernel_for_case": ("diffop", "kernel_for_case", ("calls",)),
    "diffop.exponents_at": ("diffop", "exponents_at", ("busy_s",)),
    "diffop.h2_casimir_values": ("diffop", "h2_casimir_values", ("busy_s",)),
    "sgrass.dual_space": ("sgrass", "dual_space", ("busy_s",)),
    "sgrass.flag_from_factorization": ("sgrass", "flag_from_factorization",
                                       ("busy_s",)),
    "sgrass.ssd_witness_check": ("sgrass", "ssd_witness_check", ("busy_s",)),
    "sgrass.space_wronskian": ("sgrass", "space_wronskian", ("busy_s",)),
    "sgrass.reduced_wronski": ("sgrass", "reduced_wronski", ("busy_s",)),
    "repn.build_G": ("repn", "build_G", ("busy_s",)),
    "repn.dual_basis_G": ("repn", "dual_basis_G", ("busy_s",)),
    "repn.casimir_blocks": ("repn", "casimir_blocks", ("busy_s",)),
    "repn.tensor_decompose": ("repn", "tensor_decompose",
                              ("busy_s", "calls")),
    "repn.weyl_dim": ("repn", "weyl_dim", ("calls",)),
    "strat.enumerate_nontrivial": ("strat", "enumerate_nontrivial",
                                   ("busy_s",)),
    "strat.simple_degenerations": ("strat", "simple_degenerations",
                                   ("busy_s",)),
}


def table_names():
    """Every key of a layer table, in a fixed order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
    for prefix, (_, _, fields) in FUNCS.items():
        names += [f"{prefix}.{f}" for f in fields]
    return names


def run_cli(main, argv):
    """(exit code, stdout, stderr) of one `main(argv)` call; the exit code
    is None when the call raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects bad usage by exiting
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed query, not a failed benchmark
        err.write(traceback.format_exc())
        rc = None
    return rc, out.getvalue(), err.getvalue()


def _module(name):
    if name == "fractions":
        import fractions
        return fractions
    return __import__(f"g2gaudin.{name}", fromlist=[name])


def _code(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    return getattr(obj, "__wrapped__", obj).__code__  # see through lru_cache


def layer_table(stats):
    """Attribute pstats entries {(file, line, name): (cc, nc, tt, ct, _)}:
    self time and calls per layer file, inclusive time and calls of the
    named functions."""
    layer_of = {os.path.abspath(_module(m).__file__): m for m in LAYERS}
    table = dict.fromkeys(table_names(), 0)
    for (filename, _, _), (_, nc, tt, _, _) in stats.items():
        layer = layer_of.get(os.path.abspath(filename))
        if layer:
            table[f"{layer}.self_s"] += tt
            table[f"{layer}.calls"] += nc
    for prefix, (module, path, fields) in FUNCS.items():
        code = _code(_module(module), path)
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        _, nc, _, ct, _ = stats.get(key, (0, 0, 0.0, 0.0, None))
        if "busy_s" in fields:
            table[f"{prefix}.busy_s"] = ct
        if "calls" in fields:
            table[f"{prefix}.calls"] = nc
    return table


def main(spec_path, out_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    prof = cProfile.Profile() if spec["profile"] else None
    t0 = time.perf_counter()
    if prof:
        prof.enable()
    from g2gaudin import cli
    if prof:
        prof.disable()
    import_s = time.perf_counter() - t0
    warmup = [dict(zip(("rc", "out", "err"), run_cli(cli.main, argv)))
              for argv in spec["warmup"]]
    calibrate = spec.get("calibrate", False)
    cap = spec.get("seconds")
    kernel0 = calib.kernel_s() if calibrate else None
    results = []
    first = time.perf_counter()
    for argv in spec["queries"]:
        if cap is not None and time.perf_counter() - first >= cap:
            break
        if prof:
            prof.enable()
        start = time.perf_counter()
        rc, out, err = run_cli(cli.main, argv)
        end = time.perf_counter()
        if prof:
            prof.disable()
        results.append({"rc": rc, "out": out, "err": err,
                        "start_s": start - t0, "end_s": end - t0,
                        "kernel_s": calib.kernel_s() if calibrate else None})
    layers = layer_table(pstats.Stats(prof).stats) if prof else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "warmup": warmup,
                   "results": results,
                   "kernel0_s": kernel0, "peak_rss_mb": rss_mb,
                   "layers": layers}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
