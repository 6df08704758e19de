"""Record suite times and benchmark pairs in one BENCH_<n>.json, so that a
speed claim can be read off two such files.

    python3 tools/bench_suites.py suites OUT.json --parent DIR

times the kernels, h2, wronskian, bae-grid and reproduction suites of
`g2 verify` four times on the 3-, the 5- and the 7-grid (reproduction caps
itself at the 3-grid), each run in a fresh process with G2_LMAX set to the
grid, and the chevalley and casimir suites, the two that reach linalg,
four times with no G2_LMAX, since they read no grid.  The time is the
suite call alone, without the import of sgrass and verify, so on the
3-grid bae-grid times closed_form_pair and certify on the 84 cases; a
layer those do not load, linalg for chevalley and casimir, is imported
inside the timed call.  One more fresh run of each
suite and grid under cProfile counts the calls of
`Fraction.__new__`, of `exact.Poly.__init__`, every Poly built, of
`exact.zpoly`, the Fraction Polys built from integer lists, of
`exact.zclear`, the rational lists cleared to integer ones, of the
integer kernels `exact.zmul`, `exact.zquo` and `exact.zwr`, the 2x2
Wronskian of each Jacobi step, of `exact.zsolve1`, one per integral of a
flag or fertility witness, and `exact.zsub`, of the gcds `exact.zgcd` and
`exact.zlcm`, and of `bethe.RamificationData.__init__`, the ramification
data built.
A copy of DIR (a git checkout of the parent commit) is the parent side
and a copy of this checkout the change side, as in `pairs`: the two sides
alternate on every run of each suite and grid, the parent first in even
runs, so drift of a shared machine falls on both, and the record holds
both sides' times and calls and the ratio of the median times, change
over parent.

    python3 tools/bench_suites.py pairs OUT.json --parent DIR --seed0 N

runs `perfbench/run.py` alternately in a copy of DIR (a git checkout of
the parent commit) and in a copy of this checkout on every workload, ten
pairs per workload, one per seed N, N+1, ..., the parent first in even
pairs and second in odd ones.  As on the benchmark's host, each run has
PYTHONDONTWRITEBYTECODE=1 in a checkout that holds no bytecode, so every
cold process compiles the program's modules and reads the standard
library's installed bytecode; a copy that holds a __pycache__ is refused.
Both copies are made the same way, for every subcommand but `parity`:
each holds its checkout's tracked and untracked files, not the ignored
ones (build output, caches), in a temporary directory beside DIR, so
that the two sides differ only in their files and not in where or how
they were made.  For every end-to-end
metric it records each pair, the medians and quartiles of both sides, the
ratio of the medians and the number of pairs the change wins; the same for
two raw readings of each run, taken from the run record that the run
leaves in its side's perfbench/out/run-<workload>-<seed>.json: setup_s
unscaled (raw_setup_s) and the median process-kernel time
(process_kernel_s) by which setup_s and cold-cli are scaled, so a moved
setup_s can be told from a moved kernel.

    python3 tools/bench_suites.py probe OUT.json --parent DIR

times the Wronskian layer alone over the kernels of the 5-grid (210
cases): per case, with sgrass's caches cleared, the dual space (the
recursion's prefix levels and the leave-one-out minors) and the y's, those
of the case's flag (off the levels) and those of the flag with its first
two elements swapped (its own recursion).  It does so at the cases' points
z = (0, 1) and with the kernel, the flag and the points moved to z = (3,
4) by a Taylor shift, where no Wronskian's power of x - z is free.  Each
run is a fresh process that builds the inputs untimed, then times them;
the two sides alternate as in `suites`, PROBE_RUNS runs a side.

    python3 tools/bench_suites.py cold OUT.json --parent DIR

times one-shot `python -m g2gaudin.cli` processes, one per query kind of
the benchmark's cold-cli workload (the first query of each of its ten
kinds, from perfbench/workloads.py at seed COLD_SEED), COLD_RUNS runs a
side.  Each run is timed raw, as the wall time of the child, with no
process-kernel scaling, and its output is checked against the query's
expectation.  The two sides alternate on every run of each kind, the
parent first in even runs, as in `suites`.  One more fresh process per
kind and side runs the query through cli.main and records the g2gaudin
layers and the COLD_WATCHED standard-library modules it loaded.  The
record holds both sides' times, their medians and quartiles, the median
gap, change minus parent, and the quartiles of the paired gaps, the
change's run minus the parent's run beside it, which a slow phase of a
shared machine shifts on both sides.

    python3 tools/bench_suites.py parity OUT.json

runs tools/parity.py in a fresh process on the 1-, 3- and 5-grids and
records each digest line, to show that the change moved no answer.

Each subcommand writes its section of OUT.json, beside the machine it ran
on.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITES = ("kernels", "h2", "wronskian", "bae-grid", "reproduction")
# the suites that read no G2_LMAX, run once rather than once per grid
GRIDLESS_SUITES = ("chevalley", "casimir")
WORKLOADS = ("case-sweep", "case-explore", "cold-cli")
# end-to-end metrics of BENCHMARK.json and whether higher is better
METRICS = {"ops_per_s": True, "op_p50_s": False, "op_tail_s": False,
           "setup_s": False, "peak_rss_mb": False}
# raw readings of a run record beside them, all lower-is-better
RAW = {"raw_setup_s": False, "process_kernel_s": False}
RUN_SECONDS = 45
GRIDS = (3, 5, 7)
PARITY_GRIDS = (1, 3, 5)
SUITE_RUNS = 4
PROBE_RUNS = 4
PROBE_SHIFTS = (0, 3)
PAIRS = 10
COLD_RUNS = 30
COLD_SEED = 7000
# standard-library modules whose load `cold` records beside the layers:
# dataclasses pulls in inspect, ast, dis and tokenize; fractions pulls in
# decimal and numbers
COLD_WATCHED = ("dataclasses", "inspect", "ast", "dis", "tokenize",
                "fractions", "decimal", "numbers", "json", "argparse",
                "gettext", "locale", "numpy", "sympy")

# the suites import their layers when they run; sgrass loads every layer
# they use (and dataclasses), so the time is the suite call alone
SUITE_SNIPPET = """\
import json, sys, time
from g2gaudin import sgrass, verify
t = time.perf_counter()
ok, detail = verify.SUITES[sys.argv[1]]()
print(json.dumps({"ok": ok, "detail": detail,
                  "seconds": time.perf_counter() - t}))
"""

PROFILE_SNIPPET = """\
import cProfile, json, pstats, sys
from g2gaudin import sgrass, verify
from g2gaudin.bethe import RamificationData
from g2gaudin.exact import Poly
prof = cProfile.Profile()
ok, detail = prof.runcall(verify.SUITES[sys.argv[1]])
# (file, function, first line or None for any): RatFunc has an __init__
# in exact.py too, and PolyPair one in bethe.py
calls = {"Fraction.__new__": ("fractions.py", "__new__", None),
         "exact.Poly.__init__": ("exact.py", "__init__",
                                 Poly.__init__.__code__.co_firstlineno),
         "exact.zpoly": ("exact.py", "zpoly", None),
         "exact.zclear": ("exact.py", "zclear", None),
         "exact.zmul": ("exact.py", "zmul", None),
         "exact.zquo": ("exact.py", "zquo", None),
         "exact.zwr": ("exact.py", "zwr", None),
         "exact.zsolve1": ("exact.py", "zsolve1", None),
         "exact.zsub": ("exact.py", "zsub", None),
         "exact.zgcd": ("exact.py", "zgcd", None),
         "exact.zlcm": ("exact.py", "zlcm", None),
         "RamificationData.__init__": (
             "bethe.py", "__init__",
             RamificationData.__init__.__code__.co_firstlineno)}
stats = pstats.Stats(prof).stats
print(json.dumps({"ok": ok, "detail": detail, "calls": {
    name: sum(v[1] for (path, first, fn), v in stats.items()
              if path.endswith(f) and fn == func and line in (None, first))
    for name, (f, func, line) in calls.items()}}))
"""

# argv[1] = the shift: every point z and every polynomial p(x) moved to
# z + shift and p(x - shift); the snippet reaches only names that the
# parent has too
PROBE_SNIPPET = """\
import json, sys, time
from g2gaudin import bethe, diffop, sgrass
from g2gaudin.exact import zadd, zmul, zscale
shift = int(sys.argv[1])

def moved(row):
    out, power = [], [1]
    for c in row:
        out, power = zadd(out, zscale(c, power)), zmul(power, [-shift, 1])
    return out

inputs = []
for lam in [(a, b) for a in range(6) for b in range(6)]:
    for i in bethe.admissible_ls(lam):
        c = diffop.case(lam, i)
        flag = [moved(r) for r in c.flag_rows]
        R = bethe.RamificationData(
            tuple(z if z == bethe.INF else z + shift for z in c.data.z),
            c.ramification.partitions)
        inputs.append((sgrass.PolySpace(flag), R,
                       [flag[1], flag[0]] + flag[2:]))
dual = ys = 0.0
for X, R, swapped in inputs:
    for cached in (sgrass._levels, sgrass.dual_space):
        cached.cache_clear()
    t0 = time.perf_counter()
    sgrass.dual_space(X, R)
    t1 = time.perf_counter()
    sgrass._space_ys(X, R)
    sgrass.y_from_basis(swapped, R)
    dual, ys = dual + t1 - t0, ys + time.perf_counter() - t1
print(json.dumps({"cases": len(inputs), "dual_s": dual, "ys_s": ys}))
"""


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg": list(os.getloadavg())}


def run_suite(snippet, name, grid, checkout):
    """The record of one suite run in a fresh process, on the grid G2_LMAX
    = grid, or with G2_LMAX unset for grid None."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(checkout, "src"))
    env.pop("G2_LMAX", None)
    if grid is not None:
        env["G2_LMAX"] = str(grid)
    proc = subprocess.run([sys.executable, "-c", snippet, name],
                          env=env, capture_output=True, text=True, check=True)
    r = json.loads(proc.stdout.splitlines()[-1])
    if not r["ok"]:
        raise SystemExit(f"{checkout}: suite {name} failed with G2_LMAX "
                         f"{grid}: {r['detail']}")
    return r


def suites(sides):
    """The suite times and profiled calls of each side, a dict from "parent"
    and "change" to a checkout."""
    out = []
    runs = [(name, grid) for grid in GRIDS for name in SUITES]
    for name, grid in runs + [(name, None) for name in GRIDLESS_SUITES]:
        times = {side: [] for side in sides}
        for k in range(SUITE_RUNS):
            for side in sorted(sides, reverse=k % 2 == 0):
                r = run_suite(SUITE_SNIPPET, name, grid, sides[side])
                times[side].append(round(r["seconds"], 4))
        profiled = {side: run_suite(PROFILE_SNIPPET, name, grid, path)
                    for side, path in sides.items()}
        calls = {side: r["calls"] for side, r in profiled.items()}
        out.append({"suite": name, "G2_LMAX": grid, "seconds": times,
                    "detail": profiled["change"]["detail"],
                    "profiled_calls": calls,
                    "median_ratio": (statistics.median(times["change"])
                                     / statistics.median(times["parent"]))})
        print(f"{name} with G2_LMAX {grid}: {times}, {calls}",
              file=sys.stderr)
    return out


def probe(sides):
    """The Wronskian-layer times of each side at each shift, a dict from
    "parent" and "change" to a checkout."""
    out = []
    for shift in PROBE_SHIFTS:
        runs = {side: [] for side in sides}
        for k in range(PROBE_RUNS):
            for side in sorted(sides, reverse=k % 2 == 0):
                env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                           PYTHONPATH=os.path.join(sides[side], "src"))
                proc = subprocess.run(
                    [sys.executable, "-c", PROBE_SNIPPET, str(shift)],
                    env=env, capture_output=True, text=True, check=True)
                r = json.loads(proc.stdout.splitlines()[-1])
                r["total_s"] = r["dual_s"] + r["ys_s"]
                runs[side].append({m: round(v, 4) if isinstance(v, float)
                                   else v for m, v in r.items()})
        ratios = {m: statistics.median(r[m] for r in runs["change"])
                  / statistics.median(r[m] for r in runs["parent"])
                  for m in ("dual_s", "ys_s", "total_s")}
        out.append({"points": [shift, shift + 1], "runs": runs,
                    "median_ratio": ratios})
        print(f"probe at z = ({shift}, {shift + 1}): {ratios}",
              file=sys.stderr)
    return out


# argv[1] = the query's argv and argv[2] = the watched modules, as JSON;
# the g2gaudin and watched modules loaded after the query
LOADED_SNIPPET = """\
import contextlib, io, json, sys
import g2gaudin.cli
with contextlib.redirect_stdout(io.StringIO()):
    g2gaudin.cli.main(json.loads(sys.argv[1]))
watched = set(json.loads(sys.argv[2]))
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("g2gaudin.") or m in watched)))
"""


def cold_env(checkout):
    """The environment of a benchmark child: the checkout's source, no
    bytecode written, fixed hashing, the verify grids at their defaults."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env.pop("G2_LMAX", None)
    return env


def cold_queries():
    """perfbench's workloads module and the first cold-cli query of each
    kind; its import writes no bytecode into perfbench/."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    return workloads, workloads.one_of_each(workloads.cold_cli(COLD_SEED))


def cold(sides):
    """The raw wall times and loaded modules of one-shot queries of each
    side, a dict from "parent" and "change" to a checkout."""
    workloads, queries = cold_queries()
    out = []
    for q in queries:
        times = {side: [] for side in sides}
        for k in range(COLD_RUNS):
            for side in sorted(sides, reverse=k % 2 == 0):
                t = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "g2gaudin.cli"] + q["argv"],
                    cwd=sides[side], env=cold_env(sides[side]),
                    capture_output=True, text=True)
                times[side].append(round(time.perf_counter() - t, 4))
                problem = workloads.check(q["expect"], proc.returncode,
                                          proc.stdout)
                if problem:
                    raise SystemExit(f"{sides[side]}: {q['cmd']}: {problem}")
        loaded = {}
        for side, path in sides.items():
            proc = subprocess.run(
                [sys.executable, "-c", LOADED_SNIPPET, json.dumps(q["argv"]),
                 json.dumps(COLD_WATCHED)], cwd=path, env=cold_env(path),
                capture_output=True, text=True, check=True)
            loaded[side] = json.loads(proc.stdout.splitlines()[-1])
        stats = {side: quartiles(t) for side, t in times.items()}
        gap = stats["change"]["median"] - stats["parent"]["median"]
        paired = quartiles([c - p for p, c in zip(times["parent"],
                                                  times["change"])])
        out.append({"cmd": q["cmd"], "argv": q["argv"], "seconds": times,
                    "quartiles": stats, "median_gap_s": gap,
                    "paired_gap_s": paired, "loaded": loaded})
        print(f"{q['cmd']}: {stats['parent']['median']:.4f} -> "
              f"{stats['change']['median']:.4f} s ({gap * 1e3:+.1f} ms; "
              f"paired {paired['median'] * 1e3:+.1f} ms)", file=sys.stderr)
    return out


def parity():
    out = []
    for grid in PARITY_GRIDS:
        env = dict(os.environ, G2_LMAX=str(grid),
                   PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "parity.py")],
            env=env, capture_output=True, text=True, check=True)
        counts, digest = proc.stdout.splitlines()[-2:]
        out.append({"G2_LMAX": grid, "counts": counts,
                    "sha256": digest.split()[-1]})
        print(f"parity on the {grid}-grid: {counts}, {digest}",
              file=sys.stderr)
    return out


def bench_run(checkout, workload, seed):
    # no bytecode written: the run's first child would spare the later ones
    # the compile and move setup_s and cold-cli.  No PYTHONPYCACHEPREFIX
    # either: it hides the installed standard-library bytecode too, and
    # the compile of argparse, json and fractions would dilute setup_s
    proc = subprocess.run([sys.executable, "perfbench/run.py",
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(RUN_SECONDS)], cwd=checkout,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.splitlines()[-1])
    if not line["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} has "
                         f"{line['failed']} failed queries")
    path = os.path.join(checkout, "perfbench", "out",
                        f"run-{workload}-{seed}.json")
    with open(path) as fh:
        record = json.load(fh)
    return {**{k: v["value"] for k, v in line["metrics"].items()},
            "raw_setup_s": record["raw_metrics"]["setup_s"],
            "process_kernel_s": record["process_kernel_s"]}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def copy_checkout(checkout, dest):
    """Copy the tracked and untracked files of the git checkout, without the
    ignored ones, into dest."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "-c", "-o", "--exclude-standard"],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    for name in filter(None, names.split("\0")):
        src, dst = os.path.join(checkout, name), os.path.join(dest, name)
        if os.path.isfile(src):  # -c still lists a deleted tracked file
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)


def pairs(sides, seed0):
    out = {}
    for workload in WORKLOADS:
        runs = []
        for k in range(PAIRS):
            seed = seed0 + k
            order = [(side, sides[side]) for side in ("parent", "change")]
            if k % 2:
                order.reverse()
            pair = {side: bench_run(path, workload, seed)
                    for side, path in order}
            runs.append({"seed": seed, "first": order[0][0], **pair})
            print(f"{workload} seed {seed}: ops_per_s "
                  f"{pair['parent']['ops_per_s']:.4g} -> "
                  f"{pair['change']['ops_per_s']:.4g}", file=sys.stderr)
        summary = {}
        for metric, higher in {**METRICS, **RAW}.items():
            before = [r["parent"][metric] for r in runs]
            after = [r["change"][metric] for r in runs]
            wins = sum((a > b) if higher else (a < b)
                       for b, a in zip(before, after))
            pq, cq = quartiles(before), quartiles(after)
            summary[metric] = {"higher_is_better": higher, "parent": pq,
                               "change": cq,
                               "median_ratio": cq["median"] / pq["median"],
                               "change_wins": wins, "pairs": PAIRS}
        out[workload] = {"runs": runs, "summary": summary}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("suites")
    p.add_argument("out")
    p.add_argument("--parent", required=True)
    p = sub.add_parser("parity")
    p.add_argument("out")
    p = sub.add_parser("probe")
    p.add_argument("out")
    p.add_argument("--parent", required=True)
    p = sub.add_parser("cold")
    p.add_argument("out")
    p.add_argument("--parent", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("out")
    p.add_argument("--parent", required=True)
    p.add_argument("--seed0", type=int, required=True)
    args = ap.parse_args(argv)
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    if args.command == "parity":
        record["parity"] = {"machine": machine(), "digests": parity()}
    else:
        parent = os.path.abspath(args.parent)
        beside = os.path.dirname(parent)
        with tempfile.TemporaryDirectory(dir=beside) as parent_copy, \
                tempfile.TemporaryDirectory(dir=beside) as change:
            sides = {"parent": parent_copy, "change": change}
            for side, checkout in (("parent", parent), ("change", ROOT)):
                copy_checkout(checkout, sides[side])
                cached = [d for d, _, _ in os.walk(sides[side])
                          if os.path.basename(d) == "__pycache__"]
                if cached:
                    raise SystemExit(f"{checkout}: its bytecode would spare "
                                     f"the {side} side the compile; remove "
                                     "it")
            if args.command == "suites":
                record["suites"] = {"machine": machine(),
                                    "times": suites(sides)}
            elif args.command == "cold":
                record["cold"] = {"machine": machine(),
                                  "runs_per_side": COLD_RUNS,
                                  "seed": COLD_SEED, "times": cold(sides)}
            elif args.command == "probe":
                record["probe"] = {"machine": machine(),
                                   "runs_per_side": PROBE_RUNS,
                                   "times": probe(sides)}
            else:
                record["benchmark_pairs"] = {
                    "machine": machine(), "run_seconds": RUN_SECONDS,
                    "workloads": pairs(sides, args.seed0)}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
