"""Acceptance gate: the nine primary criteria, one test each, with the
stated runtime budgets, on the 7-grid.  Every test prints a [PASS]/[FAIL]
line."""

import time

import pytest

from g2gaudin import verify


@pytest.fixture(scope="module", autouse=True)
def grid_7():
    """G2_LMAX = 7 for this module's tests only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("G2_LMAX", "7")
        yield


def _run(name, budget_seconds):
    t0 = time.time()
    ok, detail = verify.SUITES[name]()
    dt = time.time() - t0
    line = (f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
            f"({dt:.1f}s / budget {budget_seconds}s)")
    print(line)
    assert ok, line
    assert dt < budget_seconds, f"{name} exceeded budget: {dt:.1f}s"


def test_criterion_1_chevalley():
    _run("chevalley", 1)


def test_criterion_2_casimir_blocks():
    _run("casimir", 30)


def test_criterion_3_bae_grid():
    _run("bae-grid", 60)


def test_criterion_4_reproduction_chain():
    _run("reproduction", 60)


def test_criterion_5_kernel_self_self_duality():
    _run("kernels", 300)


def test_criterion_6_hamiltonian_cross_check():
    _run("h2", 120)


def test_criterion_7_stratification_golden():
    _run("strata", 10)


def test_criterion_8_covering_degree():
    _run("covering", 10)


def test_criterion_9_wronskian_formula():
    _run("wronskian", 300)
