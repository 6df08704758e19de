"""The benchmark under perfbench/ reaches the package by name: worker.FUNCS
names the functions its profile attributes time to, and micro.run calls
library functions directly.  A renamed or deleted name crashes a benchmark
run, so each is resolved here."""

import importlib
import json
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
    """One micro.run gives a timing for each of micro.NAMES, and every
    verdict is clean but poly_mul's: its checker compares against an
    unnormalised product and fails on some seeds at every commit.  The
    Wronskian, operator, self-duality, flag and h2 verdicts check the
    library's answers on the (3,3)/case-6 kernel."""
    micro = _perfbench("micro", monkeypatch)
    metrics, errors = micro.run(0, os.path.join(PERFBENCH, "fixtures"))
    assert set(metrics) == set(micro.NAMES)
    assert all(t > 0 for t in metrics.values())
    assert [e for e in errors if not e.startswith("micro.poly_mul_")] == []


def test_fixture_flag_is_the_case_flag(monkeypatch):
    """sgrass.bethe_kernel_instance's flag, rendered as make_fixtures.py
    renders it, is the recorded flag of fixtures/flags.json."""
    from g2gaudin import sgrass
    oracle = _perfbench("oracle", monkeypatch)
    with open(os.path.join(PERFBENCH, "fixtures", "flags.json")) as fh:
        flags = json.load(fh)
    for lam, i in (((2, 1), 5), ((3, 3), 6)):
        _, _, gamma = sgrass.bethe_kernel_instance(lam, i)
        assert [[oracle.render(c) for c in p.coeffs] for p in gamma] == \
            flags[f"{lam[0]},{lam[1]},{i}"], (lam, i)
