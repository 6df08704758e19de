"""Run every workload once and print each end-to-end metric by name with
its unit, plus fail_ratio and the percentile of op_tail_s:

    python3 perfbench/report.py [--seed N] [--seconds S]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    args = ap.parse_args(argv)
    rows = []
    for workload in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        with open(os.path.join(run.OUT,
                               f"run-{workload}-{args.seed}.json")) as fh:
            rec = json.load(fh)
        for name, unit in run.END_TO_END.items():
            note = (f"p{rec['tail_percentile']:.1f} of {rec['samples']}"
                    if name == "op_tail_s" else "")
            rows.append((workload, name, f"{rec['metrics'][name]:.6g}", unit,
                         note))
        rows.append((workload, "fail_ratio", f"{rec['fail_ratio']:.4g}", "1",
                     f"{rec['failed']} of {rec['attempted']}"))
    for row in rows:
        print("{:14s} {:12s} {:>12s} {:4s} {}".format(*row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
