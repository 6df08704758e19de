"""Benchmark of g2gaudin, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): case-sweep and
case-explore call `g2gaudin.cli.main(argv)` in one worker process
(worker.py); cold-cli starts one `python -m g2gaudin.cli` child per query,
one at a time.  Each is a closed loop with one client: a fixed, seeded
list of queries run in order, until the list ends or S seconds have
passed.  Every answer is checked against closed forms (oracle.py).
Child processes run with PYTHONHASHSEED=0, so each query does the same
work in every run.

--trace 0 prints the end-to-end metrics.  Every time among them is scaled
to a reference host speed by calibration kernels measured in the same run:
in-process queries one by one by a compute kernel, import and cold-cli
times by the run's median of a process kernel (calib.py says why and how).
The raw times are printed beside them and kept in the run record.
  ops_per_s    queries completed per second of query time
  op_p50_s     median query latency
  op_tail_s    the highest percentile with at least ten samples beyond it
               (its percentile and sample count are printed beside it)
  setup_s      median over child processes of `import g2gaudin.cli` plus
               building the parser
  peak_rss_mb  peak RSS of the process that runs the queries; in cold-cli
               this process plus its largest child
fail_ratio (failed over attempted queries) is printed beside them and
carried by "attempted"/"failed" in the result line.

--trace 1 runs the first queries of the same list twice in fresh
processes, without and with cProfile, and prints the per-layer metrics:
self time and calls of each module, time and calls of named functions,
two ratios, trace_overhead_ratio (traced over untraced query time: use the
traced times to attribute, not as timings) and the micro.* primitives.
Spans and the layer table go to perfbench/out/trace-<workload>-<seed>.json,
and a timed run's record with its spans to perfbench/out/run-<...>.json.

Predicted movers, per layer metric: fractions.*, exact.*, linalg.rref over
Q, diffop.* and sgrass.* move ops_per_s and op_p50_s on case-sweep and
case-explore; diffop.build_Dy.per_case and kernel_for_case.calls move only
case-explore ops_per_s; repn.dual_basis_G, repn.casimir_blocks, Q(sqrt2)
linalg, repn.weyl_dim/tensor_decompose and strat.* move cold-cli (its
ops_per_s and op_tail_s) but not case-*, where they are lru-warm; import
cost moves setup_s everywhere and cold-cli op_p50_s.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A human summary goes to stderr.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
FIXTURES = os.path.join(HERE, "fixtures")
FILES = os.path.join(OUT, "files")  # inputs of the file-input queries
sys.path.insert(0, HERE)

import calib  # noqa: E402
import micro  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("case-sweep", "case-explore", "cold-cli")
END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
RATIOS = ("diffop.build_Dy.per_case", "diffop.kernel_retry_ratio",
          "trace_overhead_ratio")
SETUP_SAMPLES = 9
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import g2gaudin.cli as c;"
                 " c.build_parser(); print(time.perf_counter() - t)")
# queries of the traced run in case-*, the first of the workload's list:
# two rounds of the sweep, two explore cases; cold-cli traces one query
# of each command
TRACE_QUERIES = {"case-sweep": 2 * len(workloads.SWEEP_CMDS),
                 "case-explore": 2 * len(workloads.EXPLORE_CMDS)}
# no child may outlive this many seconds after the benchmark started
DEADLINE_S = 170


def per_layer_names():
    return worker.table_names() + list(RATIOS) + list(micro.NAMES)


def unit(name):
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith(".calls") else "ratio"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context(seed):
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "seed": seed,
            "loadavg_start": list(os.getloadavg())}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"  # fixed set order, so call counts repeat
    env.pop("G2_LMAX", None)     # the verify grids at their defaults
    return env


class Clock:
    """Seconds since the benchmark started, and what remains of the
    deadline for a child process."""

    def __init__(self):
        self.t0 = time.perf_counter()

    def remaining(self):
        return max(1.0, DEADLINE_S - (time.perf_counter() - self.t0))


def run_child(argv, clock):
    """(exit code, stdout, stderr, start, end) of a child process run in the
    checkout; a child past the deadline is killed and counts as failed."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=clock.remaining())
        rc, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        rc, out, err = None, "", "killed at the benchmark deadline"
    return rc, out, err, start, time.perf_counter()


def process_kernel(clock):
    """Seconds of one process-kernel child (calib.py)."""
    rc, out, err, _, _ = run_child(calib.PROCESS_ARGV, clock)
    if rc != 0:
        raise RuntimeError(f"the process kernel failed: {err}")
    return float(out)


def measure_setup(clock):
    """The import of g2gaudin.cli plus building the parser, timed inside
    each of SETUP_SAMPLES child processes, and a process kernel run before
    each child."""
    imports, kernels = [], []
    for _ in range(SETUP_SAMPLES):
        kernels.append(process_kernel(clock))
        rc, out, err, _, _ = run_child([sys.executable, "-c", SETUP_SNIPPET],
                                       clock)
        if rc != 0:
            raise RuntimeError(f"importing g2gaudin.cli failed: {err}")
        imports.append(float(out))
    return imports, kernels


def build_queries(workload, seed):
    if workload == "case-sweep":
        return workloads.case_sweep(seed)
    if workload == "case-explore":
        return workloads.case_explore(seed, FILES)
    return workloads.cold_cli(seed)


def timed_in_process(queries, seconds, clock, tmp):
    """The untimed warm-up queries and the timed queries, run through
    cli.main in one worker process, the latter until done or out of time,
    each followed by a calibration kernel; and the worker's peak RSS.
    Outputs are checked after the timed phase."""
    warmup = workloads.warmup_queries()
    spec = {"src": SRC, "profile": False, "calibrate": True,
            "seconds": seconds, "queries": [q["argv"] for q in queries],
            "warmup": [q["argv"] for q in warmup]}
    res, _, _ = _worker(spec, clock, tmp, "timed")
    warm = [(q, r["rc"], r["out"], r["err"])
            for q, r in zip(warmup, res["warmup"])]
    before = res["kernel0_s"]
    done = []
    for q, r in zip(queries, res["results"]):
        took = r["end_s"] - r["start_s"]
        done.append((q, r["rc"], r["out"], r["err"], r["start_s"], r["end_s"],
                     calib.scaled(took, before, r["kernel_s"])))
        before = r["kernel_s"]
    return warm, done, res["peak_rss_mb"]


def timed_cold(queries, seconds, clock):
    """One child per query, every third followed by a process kernel; and
    the peak RSS of this process plus its largest child."""
    done, kernels = [], []
    t0 = time.perf_counter()
    for n, q in enumerate(queries):
        if time.perf_counter() - t0 >= seconds:
            break
        rc, out, err, start, end = run_child(
            [sys.executable, "-m", "g2gaudin.cli"] + q["argv"], clock)
        done.append((q, rc, out, err, start, end, end - start))
        if n % 3 == 2:
            kernels.append(process_kernel(clock))
    return [], done, peak_rss_mb(True), kernels


def judge(done):
    """Failure messages of (query, rc, out, err, ...) tuples."""
    failures = []
    for q, rc, out, err, *_ in done:
        problem = workloads.check(q["expect"], rc, out)
        if problem:
            failures.append(f"{' '.join(q['argv'])}: {problem}"
                            + (f" [{err.strip()[-300:]}]" if err else ""))
    return failures


def repeat_share(queries, in_process):
    """Share of queries on a case an earlier query of the same process
    already used."""
    if not in_process or not queries:
        return 0.0
    seen, repeats = set(), 0
    for q in queries:
        if q["case"] in seen:
            repeats += 1
        seen.add(q["case"])
    return repeats / len(queries)


def tail(latencies):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than 11 samples."""
    s = sorted(latencies)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(with_children):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def latency_metrics(latencies):
    """ops_per_s, op_p50_s and op_tail_s of per-query latencies, and the
    percentile of op_tail_s."""
    tail_s, tail_pct = tail(latencies)
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s}, tail_pct


def timed_run(workload, queries, seconds, clock):
    imports, kernels = measure_setup(clock)
    cold = workload == "cold-cli"
    if cold:
        warm, done, rss_mb, more = timed_cold(queries, seconds, clock)
        kernels += more
    else:
        os.makedirs(OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            warm, done, rss_mb = timed_in_process(queries, seconds, clock, tmp)
    if not done:
        raise RuntimeError("no query completed")
    # in-process queries were scaled one by one by the compute kernel;
    # the import and cold-cli queries are scaled by the process kernel
    factor = calib.REF_PROCESS_S / statistics.median(kernels)
    if cold:
        done = [(*d[:-1], d[-1] * factor) for d in done]
    metrics, tail_pct = latency_metrics([d[-1] for d in done])
    metrics.update(setup_s=statistics.median(imports) * factor,
                   peak_rss_mb=rss_mb)
    raw, _ = latency_metrics([end - start for *_, start, end, _ in done])
    raw["setup_s"] = statistics.median(imports)
    failures = judge(warm + done)
    attempted = len(warm) + len(done)
    t0 = done[0][4]
    return {"metrics": metrics, "raw_metrics": raw, "attempted": attempted,
            "failed": len(failures),
            "fail_ratio": len(failures) / attempted,
            "tail_percentile": tail_pct, "samples": len(done),
            "process_kernel_s": statistics.median(kernels),
            "repeat_share": repeat_share([d[0] for d in done], not cold),
            "elapsed_s": done[-1][5] - t0, "failures": failures,
            "spans": [{"op": n, "cmd": q["cmd"], "case": q["case"],
                       "start_s": start - t0, "end_s": end - t0,
                       "scaled_s": scaled}
                      for n, (q, _, _, _, start, end, scaled)
                      in enumerate(done)]}


def _worker(spec, clock, tmp, name):
    spec_path = os.path.join(tmp, f"{name}.spec.json")
    out_path = os.path.join(tmp, f"{name}.out.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    rc, _, err, start, end = run_child(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, out_path],
        clock)
    if rc != 0:
        raise RuntimeError(f"worker failed: {err.strip()[-2000:]}")
    with open(out_path) as fh:
        return json.load(fh), start, end


def _sum_tables(tables):
    total = dict.fromkeys(worker.table_names(), 0)
    for table in tables:
        for k, v in table.items():
            total[k] += v
    return total


def traced_pass(workload, subset, profile, clock, tmp):
    """[(query, rc, out, err, start, end)] and the summed layer table of
    one pass over subset in fresh processes."""
    tag = "traced" if profile else "plain"
    argvs = [q["argv"] for q in subset]
    if workload != "cold-cli":
        spec = {"src": SRC, "profile": profile, "queries": argvs,
                "warmup": [q["argv"] for q in workloads.warmup_queries()]}
        res, _, _ = _worker(spec, clock, tmp, tag)
        done = [(q, r["rc"], r["out"], r["err"], r["start_s"], r["end_s"])
                for q, r in zip(subset, res["results"])]
        return done, res["layers"]
    done, tables = [], []
    for n, q in enumerate(subset):
        spec = {"src": SRC, "profile": profile, "queries": [q["argv"]],
                "warmup": []}
        res, start, end = _worker(spec, clock, tmp, f"{tag}{n}")
        r = res["results"][0]
        done.append((q, r["rc"], r["out"], r["err"], start - clock.t0,
                     end - clock.t0))
        tables.append(res["layers"] or {})
    return done, _sum_tables(tables) if profile else None


def _busy(done):
    return sum(end - start for *_, start, end in done)


def traced_run(workload, queries, seed, clock):
    subset = (workloads.one_of_each(queries) if workload == "cold-cli"
              else queries[:TRACE_QUERIES[workload]])
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        plain, _ = traced_pass(workload, subset, False, clock, tmp)
        traced, layers = traced_pass(workload, subset, True, clock, tmp)
    cases = {q["case"] for q in subset if q["case"]}
    metrics = dict(layers)
    metrics["diffop.build_Dy.per_case"] = (
        layers["diffop.build_Dy.calls"] / len(cases) if cases else 0.0)
    kfc = layers["diffop.kernel_for_case.calls"]
    metrics["diffop.kernel_retry_ratio"] = (
        layers["diffop.polynomial_kernel.calls"] / kfc if kfc else 0.0)
    metrics["trace_overhead_ratio"] = _busy(traced) / _busy(plain)
    sys.path.insert(0, SRC)
    micro_metrics, micro_errors = micro.run(seed, FIXTURES)
    metrics.update(micro_metrics)
    failures = judge(plain) + judge(traced) + micro_errors
    spans = [{"op": n, "pass": label, "cmd": q["cmd"], "case": q["case"],
              "argv": q["argv"], "start_s": start, "end_s": end,
              "ok": workloads.check(q["expect"], rc, out) is None}
             for label, done in (("plain", plain), ("traced", traced))
             for n, (q, rc, out, err, start, end) in enumerate(done)]
    attempted = len(plain) + len(traced) + len(micro.NAMES)
    return {"metrics": metrics, "attempted": attempted,
            "failed": len(failures), "fail_ratio": len(failures) / attempted,
            "repeat_share": repeat_share(subset, workload != "cold-cli"),
            "failures": failures, "spans": spans}


def summary(workload, seed, trace, record):
    lines = [f"g2gaudin benchmark: workload {workload}, seed {seed}, "
             f"trace {trace}"]
    raw = record.get("raw_metrics", {})
    for name, value in record["metrics"].items():
        u = END_TO_END.get(name) or unit(name)
        extra = f"  (raw {raw[name]:.6g} {u})" if name in raw else ""
        if name == "op_tail_s":
            extra += (f"  (p{record['tail_percentile']:.1f} of "
                      f"{record['samples']} samples)")
        lines.append(f"  {name:40s} {value:.6g} {u}{extra}")
    lines.append(f"  {'fail_ratio':40s} {record['failed']}/"
                 f"{record['attempted']} = {record['fail_ratio']:.4g}")
    lines.append(f"  {'repeat_share':40s} {record['repeat_share']:.3f}")
    ctx = record["context"]
    lines.append(f"  nproc {ctx['nproc']}, {ctx['cpu']}, Python "
                 f"{ctx['python']}, load {ctx['loadavg_start']} -> "
                 f"{ctx['loadavg_end']}")
    lines += [f"  FAIL {f}" for f in record["failures"][:20]]
    return "\n".join(lines)


def run(workload, seed, seconds, trace, queries=None):
    """The record of one run; `queries` replaces the workload's own list."""
    clock = Clock()
    ctx = context(seed)
    if queries is None:
        queries = build_queries(workload, seed)
    with open(os.path.join(FIXTURES, "flags.json")) as fh:
        workloads.write_files(FILES, queries, json.load(fh))
    record = (traced_run(workload, queries, seed, clock) if trace
              else timed_run(workload, queries, seconds, clock))
    ctx["loadavg_end"] = list(os.getloadavg())
    record.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  context=ctx)
    os.makedirs(OUT, exist_ok=True)
    kind = "trace" if trace else "run"
    with open(os.path.join(OUT, f"{kind}-{workload}-{seed}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def result_line(record, names):
    units = {n: END_TO_END.get(n) or unit(n) for n in names}
    return json.dumps({
        "correct": record["failed"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": units[n]}
                    for n in names}})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "g2gaudin", "cli.py")):
        print(f"no g2gaudin sources under {SRC}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, args.trace)
    print(summary(args.workload, args.seed, args.trace, record),
          file=sys.stderr)
    names = per_layer_names() if args.trace else list(END_TO_END)
    print(result_line(record, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
