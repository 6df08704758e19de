"""Stratification of the self-self-dual Grassmannian SGr_d: d-nontrivial
labels, the degeneration order, simple degenerations, symmetry coefficients,
covering degrees, and Hasse diagrams."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial

from . import repn
from . import rootdata as rd

MAX_D = 14


def _pair_key(pair):
    (l1, l2), k = pair
    return (-rd.pair_size((l1, l2), k), l1, l2, k)


class StratumLabel(namedtuple("StratumLabel", "pairs")):
    """Unordered multiset of nonzero (dominant weight, k) pairs, held in
    canonical order: size descending, then weight, then k."""
    __slots__ = ()

    def __new__(cls, pairs):
        pairs = tuple(sorted((((p[0][0], p[0][1]), p[1]) for p in pairs),
                             key=_pair_key))
        for (lam, k) in pairs:
            if not rd.is_dominant(lam) or k < 0:
                raise ValueError(f"bad pair ({lam}, {k})")
            if rd.pair_size(lam, k) == 0:
                raise ValueError("zero pair in a stratum label")
        return super().__new__(cls, pairs)

    @property
    def weights(self):
        return tuple(p[0] for p in self.pairs)

    @property
    def dim(self):
        """Stratum dimension: the number of marked points."""
        return len(self.pairs)

    def budget(self) -> int:
        return sum(rd.pair_size(lam, k) for lam, k in self.pairs)

    def name(self) -> str:
        def one(p):
            (l1, l2), k = p
            return f"({l1},{l2})" + (f"_{k}" if k else "")
        return "(" + ",".join(one(p) for p in self.pairs) + ")"


def _pairs_of_size(s):
    """All (weight, k) pairs with pair_size == s, canonically ordered."""
    out = []
    for l1 in range(s // 2 + 1):
        for l2 in range(s - 2 * l1 + 1):
            out.append(((l1, l2), s - 2 * l1 - l2))
    return sorted(out, key=_pair_key)


def is_nontrivial(label: StratumLabel) -> bool:
    return repn.invariant_dim(label.weights) > 0


def enumerate_nontrivial(d: int):
    """All d-nontrivial labels: nonzero pairs, total size d - 7, invariant
    vectors present; canonical order, dimension descending."""
    if d < 7:
        raise ValueError("d must be at least 7")
    budget = d - 7
    pool = []
    for s in range(1, budget + 1):
        pool.extend(_pairs_of_size(s))
    if any(rd.pair_size(*p) <= 0 for p in pool):  # rec would not end
        raise ValueError("a pair of size <= 0 in the pool of d-labels")
    labels = []

    def rec(start, remaining, acc):
        if remaining == 0:
            labels.append(StratumLabel(tuple(acc)))
            return
        for idx in range(start, len(pool)):
            lam, k = pool[idx]
            s = rd.pair_size(lam, k)
            if s <= remaining:
                rec(idx, remaining - s, acc + [pool[idx]])

    rec(0, budget, [])
    out = [L for L in labels if is_nontrivial(L)]
    out.sort(key=lambda L: (-L.dim, tuple(_pair_key(p) for p in L.pairs)))
    return out


@lru_cache(maxsize=None)
def _hom_nonzero(xi, weights) -> bool:
    return repn.hom_multiplicity(xi, list(weights)) > 0


def stratum_leq(A: StratumLabel, B: StratumLabel) -> bool:
    """Whether B is a degeneration of A (A above B): some set partition of
    A's pairs into |B| blocks matches B's pairs in size and admits a
    nonvanishing Hom into each block's tensor product."""
    n, m = A.dim, B.dim
    if m > n or A.budget() != B.budget():
        return False
    bpairs = list(B.pairs)

    def rec(i, blocks):
        # blocks[j] = list of A-indices assigned to B pair j
        if i == n:
            for j, (xi, r) in enumerate(bpairs):
                sizes = sum(rd.pair_size(*A.pairs[t]) for t in blocks[j])
                if sizes != rd.pair_size(xi, r):
                    return False
                ws = tuple(sorted(A.pairs[t][0] for t in blocks[j]))
                if not _hom_nonzero(xi, ws):
                    return False
            return True
        seen = set()
        for j in range(m):
            key = (tuple(blocks[j]), bpairs[j])
            if key in seen:
                continue
            seen.add(key)
            blocks[j].append(i)
            # prune: block size must not exceed its target size
            sz = sum(rd.pair_size(*A.pairs[t]) for t in blocks[j])
            if sz <= rd.pair_size(*bpairs[j]) and rec(i + 1, blocks):
                blocks[j].pop()
                return True
            blocks[j].pop()
        return False

    return rec(0, [[] for _ in range(m)])


def simple_degenerations(A: StratumLabel):
    """Labels obtained by merging exactly two pairs of A, trivial or not."""
    out = set()
    n = A.dim
    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            (l1, k1), (l2, k2) = A.pairs[j1], A.pairs[j2]
            total = rd.pair_size(l1, k1) + rd.pair_size(l2, k2)
            rest = [A.pairs[t] for t in range(n) if t not in (j1, j2)]
            for xi in repn.tensor_decompose(l1, l2):
                r = total - rd.pair_size(xi, 0)
                if r < 0 or total == 0:
                    continue
                out.add(StratumLabel(tuple(rest + [(xi, r)])))
    return sorted(out, key=lambda L: (-L.dim,
                                      tuple(_pair_key(p) for p in L.pairs)))


# the nodes, and the edges as ordered (upper, lower) pairs
HasseDiagram = namedtuple("HasseDiagram", "nodes edges")


def hasse_diagram(d: int) -> HasseDiagram:
    """The d-nontrivial labels, with an edge from A to each simple
    degeneration of A that is itself a node."""
    if d > MAX_D:
        raise ValueError(f"d > {MAX_D} not supported")
    nodes = enumerate_nontrivial(d)
    pos = {n: i for i, n in enumerate(nodes)}
    edges = []
    for A in nodes:
        for B in simple_degenerations(A):
            if B in pos:
                edges.append((A, B))
    edges.sort(key=lambda e: (pos[e[0]], pos[e[1]]))
    return HasseDiagram(tuple(nodes), tuple(edges))


def to_dot(H: HasseDiagram) -> str:
    """H in DOT, its edges as they are: each merges two points, so it lowers
    the dimension by exactly one and no longer path joins its ends."""
    lines = ["digraph strata {"]
    for n in H.nodes:
        lines.append(f'  "{n.name()}";')
    for a, b in H.edges:
        lines.append(f'  "{a.name()}" -> "{b.name()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def symmetry_coefficient(A: StratumLabel) -> int:
    """Product over size classes of the multinomial coefficient of the
    multiplicities of the distinct pairs in that class."""
    by_size = {}
    for p in A.pairs:
        by_size.setdefault(rd.pair_size(*p), []).append(p)
    b = 1
    for group in by_size.values():
        counts = {}
        for p in group:
            counts[p] = counts.get(p, 0) + 1
        num = factorial(sum(counts.values()))
        for c in counts.values():
            num //= factorial(c)
        b *= num
    return b


def covering_degree(A: StratumLabel) -> int:
    """Degree of the covering by the reduced Wronski map."""
    return symmetry_coefficient(A) * repn.invariant_dim(A.weights)
