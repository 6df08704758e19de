"""Microbenchmarks of the primitives that take the time: Poly mul at three
degrees, and the (3,3)/case-6 Wronskian, operator, self-duality, flag and
h2 check, plus one 49x49 Q(sqrt2) nullspace.  Each result is checked.

These call library functions directly; g2gaudin must be importable.
"""

import json
import math
import os
import random
import statistics
import time
from fractions import Fraction

import oracle

CASE = ((3, 3), 6)
NAMES = ("micro.poly_mul_deg10_s", "micro.poly_mul_deg40_s",
         "micro.poly_mul_deg80_s", "micro.wronskian_33_6_s",
         "micro.nullspace_qsqrt2_49_s", "micro.from_log_factors_33_6_s",
         "micro.is_self_dual_33_6_s", "micro.flag_from_factorization_33_6_s",
         "micro.h2_casimir_values_33_6_s")


def _time(fn):
    """Seconds per call of fn() and its last result: a single call when
    that takes over 0.2 s, else the median of 5 batches of at least 20 ms."""
    start = time.perf_counter()
    result = fn()
    once = time.perf_counter() - start
    if once > 0.2:
        return once, result
    reps = max(1, math.ceil(0.02 / max(once, 1e-6)))
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(reps):
            result = fn()
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples), result


def _naive_product(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def run(seed, fixtures_dir):
    """({metric: seconds}, [error, ...]) for every name in NAMES."""
    from g2gaudin import bethe, diffop, exact, linalg, repn, sgrass

    metrics, errors = {}, []

    def record(name, fn, verdict):
        seconds, result = _time(fn)
        metrics[name] = seconds
        problem = verdict(result)
        if problem:
            errors.append(f"{name}: {problem}")

    rng = random.Random(seed)
    for deg in (10, 40, 80):
        a, b = ([Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                 for _ in range(deg + 1)] for _ in range(2))
        want = _naive_product(a, b)
        pa, pb = exact.Poly(a), exact.Poly(b)
        record(f"micro.poly_mul_deg{deg}_s", lambda: pa * pb,
               lambda p: None if list(p.coeffs) == want else "wrong product")

    lam, i = CASE
    ker = diffop.kernel_for_case(lam, i)
    want = [Fraction(c) for c in oracle.wronskian_coeffs(lam)]
    record("micro.wronskian_33_6_s", lambda: exact.wronskian(ker),
           lambda w: None if list(w.monic().coeffs) == want
           else "Wronskian is not x^63 (x-1)^7")

    omega = repn.casimir_on_pair()
    shifted = [[omega[r][s] - (2 if r == s else 0) for s in range(49)]
               for r in range(49)]
    record("micro.nullspace_qsqrt2_49_s", lambda: linalg.nullspace(shifted),
           lambda ns: None if len(ns) == oracle.V7_SQUARE_DIMS[(0, 2)]
           else f"eigenvalue-2 block has dimension {len(ns)}, expected 27")

    y = bethe.appendix_solution(lam, i)
    T1, T2 = bethe.build_calT([lam, oracle.OMEGA2], [Fraction(0), Fraction(1)])
    gs = diffop.dy_factor_functions(y, T1, T2)

    def d6_term(D):
        # the d^6 coefficient is -ln'(T1^14 T2^7) = -63/x - 7/(x-1) here
        c = D.coeffs[0]
        for x in (Fraction(2), Fraction(3), Fraction(5)):
            if c.num(x) / c.den(x) != -63 / x - 7 / (x - 1):
                return f"d^6 coefficient wrong at x = {x}"
        return None if D.order == 7 else f"order {D.order}"
    record("micro.from_log_factors_33_6_s", lambda: diffop.from_log_factors(gs),
           d6_term)

    X = sgrass.PolySpace(tuple(ker))
    R = sgrass.RamificationData((Fraction(0), Fraction(1)),
                                (oracle.partition(lam),
                                 oracle.partition(oracle.OMEGA2)))
    record("micro.is_self_dual_33_6_s", lambda: sgrass.is_self_dual(X, R),
           lambda sd: None if sd is True else "kernel space not self-dual")

    with open(os.path.join(fixtures_dir, "flags.json")) as fh:
        flag = json.load(fh)[f"{lam[0]},{lam[1]},{i}"]
    record("micro.flag_from_factorization_33_6_s",
           lambda: sgrass.flag_from_factorization(ker, y, T1, T2),
           lambda g: None if [[oracle.render(c) for c in p.coeffs]
                              for p in g] == flag
           else "flag differs from the recorded one")

    diffop.h2_casimir_values((0, 1), 0)  # fills the normalisation cache
    want_h2 = oracle.h2_value(lam, i)
    record("micro.h2_casimir_values_33_6_s",
           lambda: diffop.h2_casimir_values(lam, i),
           lambda v: None if v == (want_h2, want_h2)
           else f"h2 sides {v}, expected {want_h2}")
    return metrics, errors
