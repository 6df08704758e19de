"""The output digest of tools/parity.py on the 1-grid is pinned, so a change
that moves any answer of a case command, a suite or a flag fails here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# tools/parity.py with G2_LMAX=1: 634 commands and the flags of 14 cases
PINNED = ("634 commands, 14 flags",
          "sha256 1bf2d77f5e41bfe794b5e8c5422c88e5cd2ad0250b2cf7b943099203aa11a540")


def test_parity_digest_on_1_grid():
    env = dict(os.environ, G2_LMAX="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "parity.py")],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert tuple(proc.stdout.splitlines()[-2:]) == PINNED
