"""Self-test of the benchmark on one-case inputs.  For each workload it
checks that a run emits every end-to-end metric of BENCHMARK.json and
fails nothing, and that a wrong expectation planted in one query is
counted in fail_ratio; traced runs must emit every per-layer metric.

    python3 perfbench/selftest.py      (about a minute; exit code 0 = pass)
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

CASE = ((0, 0), 0)
ONE_CASE = {
    "case-sweep": [workloads.case_query("kernel", CASE)],
    "case-explore": [workloads.case_query(
        cmd, CASE, workloads.case_files(run.FILES, workloads.case_key(CASE)))
        for cmd in workloads.EXPLORE_CMDS],
    "cold-cli": [workloads.tensor_query(CASE[0])],
}


def plant(queries):
    """A copy of queries whose first expectation is wrong."""
    planted = copy.deepcopy(queries)
    fields = planted[0]["expect"]["fields"]
    path = next(iter(fields))
    fields[path] = ["planted wrong value", fields[path]]
    return planted


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = {kind: [m["name"] for m in bench[kind]]
             for kind in ("end_to_end", "per_layer")}
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, file=sys.stderr)
        if not ok:
            problems.append(what)

    for workload, queries in ONE_CASE.items():
        warmups = 0 if workload == "cold-cli" else len(
            workloads.warmup_queries())
        rec = run.run(workload, seed=0, seconds=60, trace=0, queries=queries)
        line = json.loads(run.result_line(rec, names["end_to_end"]))
        expect(set(line) == {"correct", "attempted", "failed", "metrics"}
               and list(line["metrics"]) == names["end_to_end"]
               and set(rec["metrics"]) == set(names["end_to_end"]),
               f"{workload}: emits every end-to-end metric")
        expect(line["correct"] and rec["fail_ratio"] == 0
               and line["attempted"] == len(queries) + warmups,
               f"{workload}: one-case run passes its checks "
               f"{rec['failures']}")
        bad = run.run(workload, seed=0, seconds=60, trace=0,
                      queries=plant(queries))
        expect(bad["failed"] == 1
               and bad["fail_ratio"] == 1 / (len(queries) + warmups)
               and not json.loads(run.result_line(
                   bad, names["end_to_end"]))["correct"],
               f"{workload}: a planted wrong expectation counts in fail_ratio")
    for workload in ("case-sweep", "cold-cli"):
        rec = run.run(workload, seed=0, seconds=60, trace=1,
                      queries=ONE_CASE[workload])
        expect(list(json.loads(run.result_line(
                   rec, names["per_layer"]))["metrics"]) == names["per_layer"]
               and set(rec["metrics"]) == set(names["per_layer"])
               and run.per_layer_names() == names["per_layer"],
               f"{workload}: traced run emits every per-layer metric")
        expect(rec["failed"] == 0,
               f"{workload}: traced run passes its checks {rec['failures']}")
        path = os.path.join(run.OUT, f"trace-{workload}-0.json")
        with open(path) as fh:
            trace = json.load(fh)
        expect(len(trace["spans"]) == 2 * len(ONE_CASE[workload])
               and trace["metrics"]["trace_overhead_ratio"] > 0,
               f"{workload}: trace file holds the spans and the layer table")
    print(f"{len(problems)} problem(s)", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
