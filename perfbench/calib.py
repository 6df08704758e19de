"""Host-speed calibration of the end-to-end times.

The host gives this benchmark a share of a CPU whose speed drifts.  A fixed
loop of big-integer Fraction arithmetic runs 1.7 times slower in some
stretches than in others; the stretches last from under a second to tens
of seconds, and the slowdown shows in CPU time as well as in wall time.
Process start and import drift too, less and not always in step.  So each
kind of work is scaled by a fixed kernel of the same kind, measured in the
same run:

- The compute kernel (`kernel_s`): stdlib Fraction and int arithmetic
  with dict and list operations, the kind of work a g2gaudin query does
  in process.  case-sweep and case-explore run it before the first query
  and after each query, in the process that runs the queries.  A query
  that took t seconds is reported as t * REF_S / c, where c is the mean
  kernel time just before and after it.
- The process kernel (PROCESS_ARGV): a fresh `python -I` that imports
  numpy and a few stdlib modules.  numpy is most of the time of
  `import g2gaudin.cli`, and its import speed drifts by up to 1.6 times
  between stretches of a minute.  The kernel runs before each setup
  sample and, in cold-cli, after every third query's process.  Import
  times and cold-cli query times t are reported as t * REF_PROCESS_S / p,
  where p is the median process-kernel time of the run.  One sample is
  too noisy to scale one query by.  Over 8-sample windows the g2gaudin
  import followed this kernel with correlation 0.94, a kernel of stdlib
  imports alone with 0.68; the compute kernel moved twice as far as
  cold-cli's queries.

Each reported time is then the seconds it would take on a host on which
the kernels take REF_S and REF_PROCESS_S.  Neither kernel imports
g2gaudin, so a change to the program cannot move them; garbage collection
is off while the compute kernel runs, so the program's heap does not slow
it.  The raw times are kept in the run record and printed beside the
scaled ones.

Measured on a 2-vCPU Intel Xeon virtual machine, ten runs of each
workload with seeds 101-110, the spread of a metric (distance between its
quartiles over its median), raw and scaled:

    case-sweep    ops_per_s 0.11 -> 0.03   op_tail_s 0.20 -> 0.04
    case-explore  ops_per_s 0.26 -> 0.04   op_p50_s  0.29 -> 0.08
    cold-cli      ops_per_s 0.21 -> 0.09   op_tail_s 0.23 -> 0.07
    setup_s       0.12-0.32 -> 0.06-0.15

A second set (seeds 201-210) gave cold-cli op_tail_s 0.28 raw and 0.19
scaled, and every scaled spread at most 0.19.
"""

import gc
import sys
import time
from fractions import Fraction

# kernel seconds on the host the benchmark was tuned on, an Intel Xeon vCPU
# in its usual, slower state
REF_S = 0.0025  # compute kernel, best of REPEATS
REF_PROCESS_S = 0.085
REPEATS = 3

PROCESS_ARGV = [
    sys.executable, "-I", "-c",
    "import time; t = time.perf_counter(); import numpy, json, decimal,"
    " argparse, fractions, statistics, typing;"
    " print(time.perf_counter() - t)"]


def _kernel():
    s = Fraction(0)
    counts = {}
    residues = []
    for k in range(1, 320):
        s = s + Fraction(k, k + 7) * Fraction(3, 2 * k + 1)
        counts[k % 31] = counts.get(k % 31, 0) + k * k
        residues.append(s.numerator % 1009)
    return len(residues) + len(counts)


def kernel_s():
    """Seconds of one compute-kernel run, the best of REPEATS, with the
    garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            _kernel()
            took = time.perf_counter() - start
            best = took if best is None else min(best, took)
        return best
    finally:
        if enabled:
            gc.enable()


def scaled(seconds, before, after):
    """seconds, scaled to the reference host by the compute-kernel times
    measured just before and just after them."""
    return seconds * REF_S / ((before + after) / 2)
