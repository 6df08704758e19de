"""The benchmark under perfbench/ reaches the package by name: worker.FUNCS
names the functions its profile attributes time to, and micro.run calls
library functions directly.  A renamed or deleted name crashes a benchmark
run, so each is resolved here."""

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _perfbench(name, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module(name)


def test_every_profiled_function_resolves(monkeypatch):
    """Each FUNCS path resolves to code through worker's own lookup."""
    worker = _perfbench("worker", monkeypatch)
    for prefix, (module, path, _) in worker.FUNCS.items():
        code = worker._code(worker._module(module), path)
        assert code.co_name == path.split(".")[-1], prefix


def test_micro_times_every_name(monkeypatch):
    """One micro.run gives a timing for each of micro.NAMES.  Its verdicts
    are not asserted: the poly_mul checker compares against an unnormalised
    product and fails on some seeds at every commit."""
    micro = _perfbench("micro", monkeypatch)
    metrics, _ = micro.run(0, os.path.join(PERFBENCH, "fixtures"))
    assert set(metrics) == set(micro.NAMES)
    assert all(t > 0 for t in metrics.values())
