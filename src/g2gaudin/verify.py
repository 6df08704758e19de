"""End-to-end verification suites.  Each suite returns (ok, detail) and is
exposed both to the CLI (`g2 verify --suite NAME`) and to the test harness.
Each suite imports the layers it uses, so a one-shot `g2 verify` loads
only those."""

from __future__ import annotations

import os
from fractions import Fraction

from . import repn
from . import rootdata as rd
from .exact import Poly, QSqrt2, zclear, zpoly, zscale, zwr
from .repn import bracket, mat_eq, mat_scale, mat_sub, mat_zero


def lmax():
    """The grid bound G2_LMAX (default 5); ValueError unless it is a
    non-negative integer, since an empty grid would pass every sweep."""
    raw = os.environ.get("G2_LMAX", "5")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"G2_LMAX must be a non-negative integer, "
                         f"got {raw!r}")
    return int(raw)


def _grid(hi):
    return [(a, b) for a in range(hi + 1) for b in range(hi + 1)]


def check_chevalley():
    """Chevalley relations over Q(sqrt2) and the G-matrix identities."""
    e1, e2, f1, f2, h1, h2 = repn.chevalley_matrices()
    es, fs, hs = (e1, e2), (f1, f2), (h1, h2)
    for i in range(2):
        for j in range(2):
            delta = hs[i] if i == j else mat_zero()
            if not mat_eq(bracket(es[i], fs[j]), delta):
                return False, f"[e{i+1}, f{j+1}] != delta*h"
            a = rd.CARTAN[i][j]
            if not mat_eq(bracket(hs[i], es[j]), mat_scale(QSqrt2(a), es[j])):
                return False, f"[h{i+1}, e{j+1}] != a_ij e{j+1}"
            if not mat_eq(bracket(hs[i], fs[j]), mat_scale(QSqrt2(-a), fs[j])):
                return False, f"[h{i+1}, f{j+1}] != -a_ij f{j+1}"
    G = repn.build_G()  # internally asserts skew + proportionality
    for i in range(1, 8):
        for j in range(1, 8):
            sign = QSqrt2((-1) ** (i + j))
            if not mat_eq(mat_sub(G[(i, j)],
                                  mat_scale(QSqrt2(-1) * sign,
                                            G[(8 - j, 8 - i)])),
                          mat_zero()):
                return False, f"skew relation fails at G[{i},{j}]"
    # dual basis identity ties G to the invariant form
    dual = repn.dual_basis_G()
    for i in range(1, 8):
        for j in range(1, 8):
            if not mat_eq(G[(i, j)], dual[(i, j)]):
                return False, f"dual-basis identity fails at G[{i},{j}]"
    return True, "Chevalley + G-matrix relations exact over Q(sqrt2)"


def check_casimir():
    """49x49 pair Casimir: 4 eigenvalues, multiplicities (27, 14, 7, 1)."""
    blocks = repn.casimir_blocks()
    expected = {}
    for mu, m in repn.tensor_decompose(rd.OMEGA2, rd.OMEGA2).items():
        eig = Fraction(repn.casimir_eigenvalue(mu)
                       - 2 * repn.casimir_eigenvalue(rd.OMEGA2), 2)
        expected[eig] = expected.get(eig, 0) + m * repn.weyl_dim(mu)
    if blocks != expected:
        return False, f"blocks {blocks} != {expected}"
    if sorted(blocks.values(), reverse=True) != [27, 14, 7, 1]:
        return False, f"multiplicities {sorted(blocks.values())}"
    return True, f"eigenvalue blocks {dict(sorted(blocks.items()))}"


def check_bae_grid():
    """Closed-form grid: genericity, the exact Bethe equations, and exact
    fertility with each identity checked on Z[x], a cross-check: on a
    generic pair fertility decides the same thing as bethe.bae_exact."""
    from . import bethe
    z = (Fraction(0), Fraction(1))
    hi = lmax()
    count = 0
    for lam in _grid(hi):
        Lam = [lam, rd.OMEGA2]
        T = bethe.zcalT(Lam, z)
        for i in bethe.admissible_ls(lam):
            y = bethe.appendix_solution(lam, i)
            if not bethe.is_generic(y, Lam, z):
                return False, f"genericity fails at {lam}, case {i}"
            if not bethe.bae_exact(y, *T):
                return False, f"Bethe equations fail at {lam}, case {i}"
            for j, (yj, F) in enumerate(zip((y.y1, y.y2),
                                            bethe.fertility_rhs(y, *T))):
                g = bethe.fertility_solve(yj, zpoly(F), lam[j] + 1)
                if g is None:
                    return False, f"fertility fails at {lam}, case {i}"
                (a, da), (b, db) = zclear(yj.coeffs), zclear(g.coeffs)
                if zwr(a, [0] * (lam[j] + 1) + b) != zscale(da * db, F):
                    return False, (f"fertility identity {j + 1} fails at "
                                   f"{lam}, {i}")
            count += 1
    return True, f"{count} cases on the {hi}-grid; Bethe equations exact"


def check_reproduction():
    """Reproduction chains from the trivial pair reach the closed forms."""
    from . import bethe
    hi = min(3, lmax())
    cases = {1: (2,), 2: (2, 1), 4: (2, 1, 2), 5: (2, 1, 2, 1),
             6: (2, 1, 2, 1, 2)}
    z = (Fraction(0), Fraction(1))
    n = 0
    for lam in _grid(hi):
        for i, chain in cases.items():
            if i not in bethe.admissible_ls(lam):
                continue
            theta = rd.shifted_action_word(chain, lam)
            data = bethe.BetheData((theta, rd.OMEGA2), z, (0, 0))
            y = bethe.PolyPair(Poly([1]), Poly([1]))
            for d in chain:
                out = bethe.reproduce(y, d, data)
                if out is None:
                    return False, f"chain stalls at {lam}, case {i}, dir {d}"
                y, data = out
            if data.Lambda[0] != lam or data.l != bethe.L_LIST[i]:
                return False, f"chain lands at wrong data for {lam}, {i}"
            if not y.proportional(bethe.appendix_solution(lam, i)):
                return False, f"chain mismatch at {lam}, case {i}"
            n += 1
        # involution
        for i in bethe.admissible_ls(lam):
            y = bethe.appendix_solution(lam, i)
            data = bethe.BetheData((lam, rd.OMEGA2), z, bethe.L_LIST[i])
            for d in (1, 2):
                out = bethe.reproduce(y, d, data)
                if out is None:
                    continue
                back = bethe.reproduce(out[0], d, out[1])
                if back is None or not back[0].proportional(y):
                    return False, f"involution fails at {lam}, {i}, dir {d}"
    return True, f"{n} chains reproduce the closed forms; involution holds"


def _exp_finite(a, b):
    return tuple(sorted((-2 * a - b, -a - b + 1, -a + 2, 3,
                         a + 4, a + b + 5, 2 * a + b + 6)))


def _exp_infinity(a, b):
    return tuple(sorted((-2 * a - b - 6, -a - b - 5, -a - 4, -3,
                         a - 2, a + b - 1, 2 * a + b)))


def check_kernels():
    """7-dimensional kernels, self-duality, ssd witness, exponents."""
    from . import bethe, diffop, sgrass
    hi = lmax()
    n = 0
    for lam in _grid(hi):
        for i in bethe.admissible_ls(lam):
            # the case's kernel raises unless it has dimension 7
            X, R, gamma = sgrass.bethe_kernel_instance(lam, i)
            if not sgrass.is_self_dual(X, R):
                return False, f"not self-dual at {lam}, case {i}"
            if not sgrass.ssd_witness_check(X, R, gamma):
                return False, f"ssd witness fails at {lam}, case {i}"
            D = diffop.case(lam, i).conjugated
            mu = bethe.summand_weight(lam, i)
            if diffop.exponents_at(D, Fraction(0)).exponents != \
                    _exp_finite(*lam):
                return False, f"exponents at 0 wrong for {lam}, case {i}"
            if diffop.exponents_at(D, Fraction(1)).exponents != \
                    _exp_finite(*rd.OMEGA2):
                return False, f"exponents at 1 wrong for {lam}, case {i}"
            if diffop.exponents_at(D, "inf").exponents != _exp_infinity(*mu):
                return False, f"exponents at inf wrong for {lam}, case {i}"
            n += 1
    return True, f"{n} kernels: dim 7, self-dual, ssd witness, exponents"


def check_h2():
    from . import bethe, diffop
    hi = lmax()
    n = 0
    for lam in _grid(hi):
        for i in bethe.admissible_ls(lam):
            got, expected = diffop.h2_casimir_values(lam, i)
            if got != expected:
                return False, (f"h2 mismatch at {lam}, case {i}: "
                               f"{got} != {expected}")
            n += 1
    return True, f"{n} residue/Casimir cross-checks exact"


# frozen golden arrow set for d = 11 (29 simple degenerations)
_D11_EDGES = """
((0,1),(0,1),(0,1),(0,1)) -> ((0,2),(0,1),(0,1))
((0,1),(0,1),(0,1),(0,1)) -> ((1,0),(0,1),(0,1))
((0,1),(0,1),(0,1),(0,1)) -> ((0,1)_1,(0,1),(0,1))
((0,1),(0,1),(0,1),(0,1)) -> ((0,0)_2,(0,1),(0,1))
((0,0)_1,(0,1),(0,1),(0,1)) -> ((0,1)_1,(0,1),(0,1))
((0,0)_1,(0,1),(0,1),(0,1)) -> ((0,1)_1,(0,0)_1,(0,1))
((0,0)_1,(0,0)_1,(0,1),(0,1)) -> ((0,0)_2,(0,1),(0,1))
((0,0)_1,(0,0)_1,(0,1),(0,1)) -> ((0,1)_1,(0,0)_1,(0,1))
((0,0)_1,(0,0)_1,(0,1),(0,1)) -> ((0,0)_2,(0,0)_1,(0,0)_1)
((0,0)_1,(0,0)_1,(0,0)_1,(0,0)_1) -> ((0,0)_2,(0,0)_1,(0,0)_1)
((0,2),(0,1),(0,1)) -> ((0,2),(0,2))
((0,2),(0,1),(0,1)) -> ((0,1)_2,(0,1))
((1,0),(0,1),(0,1)) -> ((1,0),(1,0))
((1,0),(0,1),(0,1)) -> ((0,1)_2,(0,1))
((0,1)_1,(0,1),(0,1)) -> ((0,1)_2,(0,1))
((0,1)_1,(0,1),(0,1)) -> ((0,1)_1,(0,1)_1)
((0,0)_2,(0,1),(0,1)) -> ((0,1)_2,(0,1))
((0,0)_2,(0,1),(0,1)) -> ((0,0)_2,(0,0)_2)
((0,1)_1,(0,0)_1,(0,1)) -> ((0,1)_2,(0,1))
((0,1)_1,(0,0)_1,(0,1)) -> ((0,1)_1,(0,1)_1)
((0,1)_1,(0,0)_1,(0,1)) -> ((0,0)_3,(0,0)_1)
((0,0)_2,(0,0)_1,(0,0)_1) -> ((0,0)_2,(0,0)_2)
((0,0)_2,(0,0)_1,(0,0)_1) -> ((0,0)_3,(0,0)_1)
((0,2),(0,2)) -> ((0,0)_4)
((1,0),(1,0)) -> ((0,0)_4)
((0,1)_2,(0,1)) -> ((0,0)_4)
((0,1)_1,(0,1)_1) -> ((0,0)_4)
((0,0)_2,(0,0)_2) -> ((0,0)_4)
((0,0)_3,(0,0)_1) -> ((0,0)_4)
""".strip().splitlines()


def check_strata():
    from . import strat
    H = strat.hasse_diagram(11)
    if len(H.nodes) != 17:
        return False, f"{len(H.nodes)} nodes at d=11"
    layers = {}
    for nd in H.nodes:
        layers[nd.dim] = layers.get(nd.dim, 0) + 1
    if [layers.get(k, 0) for k in (4, 3, 2, 1)] != [4, 6, 6, 1]:
        return False, f"layer sizes {layers}"
    got = {(a.name(), b.name()) for a, b in H.edges}
    want = set()
    for line in _D11_EDGES:
        a, b = line.split(" -> ")
        want.add((a.strip(), b.strip()))
    if got != want:
        return False, (f"arrow set differs: extra {sorted(got - want)}, "
                       f"missing {sorted(want - got)}")
    d1 = strat.to_dot(H)
    d2 = strat.to_dot(strat.hasse_diagram(11))
    if d1 != d2:
        return False, "DOT output not byte-stable"
    if len(strat.enumerate_nontrivial(7)) != 1:
        return False, "d=7 node count != 1"
    if len(strat.enumerate_nontrivial(8)) != 1:
        return False, "d=8 node count != 1"
    return True, "d=11: 17 nodes (layers 4,6,6,1), 29 golden arrows; d=7,8 ok"


def check_covering():
    from . import bethe, strat
    for n, want in ((2, 1), (3, 1), (4, 4)):
        A = strat.StratumLabel(tuple(((0, 1), 0) for _ in range(n)))
        deg = strat.covering_degree(A)
        inv = repn.invariant_dim(A.weights)
        if deg != want or deg != inv:
            return False, f"covering degree {deg} != {want} at n={n}"
    if len(bethe.admissible_ls((0, 1))) != 4:
        return False, "admissible-case count at the n=2 anchor != 4"
    if len(repn.tensor_decompose(rd.OMEGA2, rd.OMEGA2)) != 4:
        return False, "summand count of the omega2 square != 4"
    return True, "covering degrees 1,1,4 match; n=2 anchor has 4 fibers"


def check_wronskian():
    from . import bethe, diffop, sgrass
    hi = lmax()
    x = Poly([0, 1])
    n = 0
    for lam in _grid(hi):
        for i in bethe.admissible_ls(lam):
            X = sgrass.PolySpace(diffop.kernel_for_case(lam, i))
            w = sgrass.space_wronskian(X)
            l1, l2 = lam
            want = (x ** (7 * (2 * l1 + l2)) * (x - 1) ** 7).monic()
            if w != want:
                return False, f"space Wronskian wrong at {lam}, case {i}"
            r = sgrass._seventh_root(w)
            if r ** 7 != w:
                return False, f"reduced Wronski wrong at {lam}, case {i}"
            n += 1
    return True, f"{n} spaces match the Wronskian formula with exact 7th roots"


SUITES = {
    "chevalley": check_chevalley,
    "casimir": check_casimir,
    "bae-grid": check_bae_grid,
    "reproduction": check_reproduction,
    "kernels": check_kernels,
    "h2": check_h2,
    "strata": check_strata,
    "covering": check_covering,
    "wronskian": check_wronskian,
}


def run_suite(name):
    if name == "all":
        results = {}
        for k, fn in SUITES.items():
            results[k] = fn()
        return results
    if name not in SUITES:
        raise KeyError(name)
    return {name: SUITES[name]()}
