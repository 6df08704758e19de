"""End-to-end verification suites.  Each suite returns (ok, detail) and is
exposed both to the CLI (`g2 verify --suite NAME`) and to the test harness.
This module loads repn and rootdata only; each suite imports what it uses.
chevalley and casimir (the module, the pair Casimir) add linalg and exact;
strata and covering add strat; bae-grid (certify on the closed forms) and
reproduction (chains to them) add bethe and exact and build no Poly.
kernels runs case_failure, the one per-case check of a Bethe pair at any
points with z_1 = 0, on the closed forms, and h2 and wronskian its residue
and Wronskian stages: they add diffop and dataclasses, and kernels and
wronskian sgrass.  Fraction is imported where a suite builds one
(check_casimir), so strata and covering load no fractions."""

from __future__ import annotations

import os
from itertools import permutations

from . import repn
from . import rootdata as rd
from .repn import bracket, mat_eq, mat_scale, mat_zero


def lmax():
    """The grid bound G2_LMAX (default 5); ValueError unless it is a
    non-negative integer, since an empty grid would pass every sweep."""
    raw = os.environ.get("G2_LMAX", "5")
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"G2_LMAX must be a non-negative integer, "
                         f"got {raw!r}")
    return int(raw)


def _cases(hi):
    """The closed-form cases (lam, i) with lam on the hi-grid, in order."""
    return [((a, b), i) for a in range(hi + 1) for b in range(hi + 1)
            for i in repn.admissible_ls((a, b))]


def _sweep(passed):
    """A suite from check(lam, i), which returns a failure message or None:
    check runs on every case of the G2_LMAX grid.  The first failure, or a
    ValueError raised while building or checking a case, gives (False,
    "<message> at <lam>, case <i>"); else (True, passed with its {n} and
    {hi} filled in)."""
    def suite(check):
        def run():
            hi = lmax()
            cases = _cases(hi)
            for lam, i in cases:
                try:
                    failure = check(lam, i)
                except ValueError as exc:
                    failure = str(exc)
                if failure:
                    return False, f"{failure} at {lam}, case {i}"
            return True, passed.format(n=len(cases), hi=hi)
        return run
    return suite


def check_chevalley():
    """Chevalley relations and the G-matrix identities of the printed
    matrices, checked exactly on the module conjugated by D over Q: each
    printed G_ij = s sqrt2 G_kl holds when eps_ij = eps_kl + 1 and
    Ĝ_ij = s Ĝ_kl."""
    e1, e2, f1, f2, h1, h2 = repn.chevalley_matrices()
    es, fs, hs = (e1, e2), (f1, f2), (h1, h2)
    for i in range(2):
        for j in range(2):
            delta = hs[i] if i == j else mat_zero()
            if not mat_eq(bracket(es[i], fs[j]), delta):
                return False, f"[e{i+1}, f{j+1}] != delta*h"
            a = rd.CARTAN[i][j]
            if not mat_eq(bracket(hs[i], es[j]), mat_scale(a, es[j])):
                return False, f"[h{i+1}, e{j+1}] != a_ij e{j+1}"
            if not mat_eq(bracket(hs[i], fs[j]), mat_scale(-a, fs[j])):
                return False, f"[h{i+1}, f{j+1}] != -a_ij f{j+1}"
    G = repn.build_G()
    for i in range(1, 8):
        for j in range(1, 8):
            if not mat_eq(G[(i, j)],
                          mat_scale(-(-1) ** (i + j), G[(8 - j, 8 - i)])):
                return False, f"skew relation fails at G[{i},{j}]"
    for ij, kl, s in repn.PROPORTIONALITIES:
        if (repn.sqrt2_power(*ij) != repn.sqrt2_power(*kl) + 1
                or not mat_eq(G[ij], mat_scale(s, G[kl]))):
            return False, f"proportionality G{ij} = {s}*sqrt2*G{kl} fails"
    # dual basis identity ties G to the invariant form
    dual = repn.dual_basis_G()
    for i in range(1, 8):
        for j in range(1, 8):
            if not mat_eq(G[(i, j)], dual[(i, j)]):
                return False, f"dual-basis identity fails at G[{i},{j}]"
    return True, "Chevalley + G-matrix relations exact over Q(sqrt2)"


def check_casimir():
    """49x49 pair Casimir: 4 eigenvalues, multiplicities (27, 14, 7, 1)."""
    from fractions import Fraction
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


def _certify_failure(y, data):
    """The first stage of bethe.certify that fails on y and data, named:
    genericity, the exact Bethe equations, then fertility; or None."""
    from . import bethe
    cert = bethe.certify(y, data)
    return next((msg for stage, msg in (
        ("generic", "genericity fails"), ("exact", "Bethe equations fail"),
        ("fertile", "fertility fails")) if not cert[stage]), None)


@_sweep("{n} cases on the {hi}-grid; Bethe equations exact")
def check_bae_grid(lam, i):
    """_certify_failure on the closed-form pair of (lam, i)."""
    from . import bethe
    return _certify_failure(bethe.closed_form_pair(lam, i),
                            bethe.closed_form(lam, i))


# the reproduction directions from the trivial pair to each case that has
# a chain
_CHAINS = {1: (2,), 2: (2, 1), 4: (2, 1, 2), 5: (2, 1, 2, 1),
           6: (2, 1, 2, 1, 2)}


def _reproduction_failure(lam, i):
    """The chain of case i, if it has one, lands on the closed form and
    data of (lam, i), and each direction is an involution on it; a failure
    message or None."""
    from . import bethe
    target = bethe.closed_form(lam, i)
    y0 = bethe.closed_form_pair(lam, i)
    if i in _CHAINS:
        theta = rd.shifted_action_word(_CHAINS[i], lam)
        data = bethe.BetheData((theta,) + target.Lambda[1:], target.z, (0, 0))
        y = bethe.PolyPair([1], [1])
        for d in _CHAINS[i]:
            out = bethe.reproduce(y, d, data)
            if out is None:
                return f"chain stalls at {lam}, case {i}, dir {d}"
            y, data = out
        if data != target:
            return f"chain lands at wrong data for {lam}, {i}"
        if y != y0:
            return f"chain mismatch at {lam}, case {i}"
    for d in (1, 2):
        out = bethe.reproduce(y0, d, target)
        if out is None:
            continue
        back = bethe.reproduce(out[0], d, out[1])
        if back is None or back[0] != y0:
            return f"involution fails at {lam}, {i}, dir {d}"


def check_reproduction():
    """Reproduction chains from the trivial pair reach the closed forms, on
    the 3-grid at most; a ValueError raised on a case is a failure naming
    it, as in the grid suites."""
    n = 0
    for lam, i in _cases(min(3, lmax())):
        try:
            failure = _reproduction_failure(lam, i)
        except ValueError as exc:
            failure = f"{exc} at {lam}, case {i}"
        if failure:
            return False, failure
        n += i in _CHAINS
    return True, f"{n} chains reproduce the closed forms; involution holds"


def _exp_finite(a, b):
    """The exponents of the conjugated operator at a point of weight (a, b);
    at infinity, those of mu less 6."""
    return tuple(sorted((-2 * a - b, -a - b + 1, -a + 2, 3,
                         a + 4, a + b + 5, 2 * a + b + 6)))


def kernel_failure(c):
    """The kernel of the Case c has dimension 7 (c.space raises unless it
    does), is self-dual, has its flag as ssd witness, and the conjugated
    operator has the exponents of Lambda at each z_s and of c.mu at
    infinity; a failure message or None."""
    from . import bethe, diffop, sgrass
    X, R = c.space, c.ramification
    if not sgrass.is_self_dual(X, R):
        return "not self-dual"
    if not sgrass.ssd_witness_check(X, R, c.flag_rows):
        return "ssd witness fails"
    for w, p in zip(c.data.Lambda, c.data.z):
        if diffop.exponents_at(c.conjugated, p) != _exp_finite(*w):
            return f"exponents at {p} wrong"
    if diffop.exponents_at(c.conjugated, bethe.INF) != tuple(
            e - 6 for e in _exp_finite(*c.mu)):
        return "exponents at inf wrong"


def _wronskian_failure(c):
    """The primitive space Wronskian of the Case c, on Z[x], is the 7th power
    prod_s (x - z_s)^(7(2 Lambda_s,1 + Lambda_s,2)); a failure or None."""
    from . import bethe, sgrass
    from .exact import zprimitive
    w = zprimitive(sgrass.wronskian_row(c.space, c.ramification))
    if w != bethe.zlinear_power([(p, 7 * (2 * a + b)) for (a, b), p
                                 in zip(c.data.Lambda, c.data.z)]):
        return "space Wronskian wrong"
    sgrass._seventh_root(w)  # raises unless w is a 7th power


def _residue_failure(c):
    """The residues r_s = diffop.h2_residue(c.conjugated, z_s) of the Case
    c meet the sum rules sum r_s = 0 and sum z_s r_s = c.casimir_value; a
    failure message or None."""
    from . import diffop
    z, e = c.data.z, c.casimir_value
    r = [diffop.h2_residue(c.conjugated, p) for p in z]
    if sum(r) or sum(p * rp for p, rp in zip(z, r)) != e:
        return f"h2 sum rules fail: r = ({', '.join(map(str, r))}), e = {e}"


def case_failure(c):
    """The one per-case check of the diffop.Case c, at finite points with
    z_1 = 0: the first failure message of its stages, each reading c.data,
    c.y and what c builds, or None."""
    return (_certify_failure(c.y, c.data) or kernel_failure(c)
            or _wronskian_failure(c) or _residue_failure(c))


def _case_sweep(passed, stage):
    """The _sweep suite of stage on each closed-form Case."""
    def check(lam, i):
        from . import diffop
        return stage(diffop.case(lam, i))
    return _sweep(passed)(check)


check_kernels = _case_sweep(
    "{n} kernels: dim 7, self-dual, ssd witness, exponents", case_failure)
check_h2 = _case_sweep("{n} residue/Casimir cross-checks exact",
                       _residue_failure)


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


def _closure_mismatch(H):
    """(n, extra, missing): the transitive closure of H's edges has n
    relations; extra and missing name the pairs (upper, lower) in it and not
    in the strict `strat.stratum_leq` on H's nodes, and the other way."""
    from . import strat
    below = {a: set() for a in H.nodes}
    # an edge lowers the dimension by one, and H.edges is in node order, so
    # in reverse every edge below b has been read before an edge into b
    for a, b in reversed(H.edges):
        below[a] |= below[b] | {b}
    closure = {(a, b) for a in H.nodes for b in below[a]}
    leq = {(a, b) for a in H.nodes for b in H.nodes
           if a != b and strat.stratum_leq(a, b)}

    def names(pairs):
        return sorted((a.name(), b.name()) for a, b in pairs)
    return len(closure), names(closure - leq), names(leq - closure)


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
    _, extra, missing = _closure_mismatch(H)
    if extra or missing:
        return False, (f"edge closure differs from stratum_leq: extra "
                       f"{extra}, missing {missing}")
    arrows = [ln for ln in strat.to_dot(H).splitlines() if " -> " in ln]
    if arrows != [f'  "{a.name()}" -> "{b.name()}";' for a, b in H.edges]:
        return False, "DOT edges differ from the Hasse edges"
    if len(strat.enumerate_nontrivial(7)) != 1:
        return False, "d=7 node count != 1"
    if len(strat.enumerate_nontrivial(8)) != 1:
        return False, "d=8 node count != 1"
    return True, "d=11: 17 nodes (layers 4,6,6,1), 29 golden arrows; d=7,8 ok"


# the d = 11 nodes whose symmetry coefficient is above 1 (6, 4 and 2)
_COVERING_ANCHORS = (
    (((0, 0), 1), ((0, 0), 1), ((0, 1), 0), ((0, 1), 0)),
    (((0, 0), 1), ((0, 1), 0), ((0, 1), 0), ((0, 1), 0)),
    (((0, 1), 1), ((0, 0), 1), ((0, 1), 0)),
)


def _orderings(pairs):
    """The number of distinct orderings of pairs within each size class."""
    n = 1
    for size in {rd.pair_size(*p) for p in pairs}:
        n *= len(set(permutations(p for p in pairs
                                  if rd.pair_size(*p) == size)))
    return n


def check_covering():
    from . import strat
    for n, want in ((2, 1), (3, 1), (4, 4)):
        A = strat.StratumLabel(tuple(((0, 1), 0) for _ in range(n)))
        deg = strat.covering_degree(A)
        inv = repn.invariant_dim(A.weights)
        if deg != want or deg != inv:
            return False, f"covering degree {deg} != {want} at n={n}"
    for pairs in _COVERING_ANCHORS:
        A = strat.StratumLabel(pairs)
        # the invariant dimension is 1 at each of these anchors
        deg, want = strat.covering_degree(A), _orderings(A.pairs)
        if deg != want:
            return False, f"covering degree {deg} != {want} at {A.name()}"
    if len(repn.admissible_ls((0, 1))) != 4:
        return False, "admissible-case count at the n=2 anchor != 4"
    if len(repn.tensor_decompose(rd.OMEGA2, rd.OMEGA2)) != 4:
        return False, "summand count of the omega2 square != 4"
    return True, "covering degrees 1,1,4 match; n=2 anchor has 4 fibers"


check_wronskian = _case_sweep(
    "{n} spaces match the Wronskian formula with exact 7th roots",
    _wronskian_failure)


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
    """{suite: (ok, detail)} for the suite name (KeyError if none), or for
    each under "all"; a ValueError a suite raises is its failure."""
    results = {}
    for k in SUITES if name == "all" else (name,):
        try:
            results[k] = SUITES[k]()
        except ValueError as exc:
            results[k] = (False, str(exc))
    return results
