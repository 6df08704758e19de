"""Regenerate perfbench/fixtures/flags.json: for every case of the
case-explore grid, the ordered basis (flag) of the kernel of D_y that the
file-input `g2 ssd-check --space --ram --witness` queries read.

The flags are inputs, not expectations: the benchmark expects the correct
flag to pass and the flag with its first two elements swapped to fail.

Run from the repository root:  python3 perfbench/make_fixtures.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
from g2gaudin import sgrass  # noqa: E402


def main():
    flags = {}
    for lam, i in oracle.cases(workloads.GRID):
        _, _, gamma = sgrass.bethe_kernel_instance(lam, i)
        flags[f"{lam[0]},{lam[1]},{i}"] = [[oracle.render(c) for c in p.coeffs]
                                           for p in gamma]
        print(lam, i, file=sys.stderr, flush=True)
    os.makedirs(os.path.join(HERE, "fixtures"), exist_ok=True)
    with open(os.path.join(HERE, "fixtures", "flags.json"), "w") as fh:
        json.dump(flags, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
