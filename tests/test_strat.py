"""Stratification combinatorics: labels, order, degenerations, coverings."""

from math import factorial
from types import SimpleNamespace

import pytest

from g2gaudin import repn, strat, verify
from g2gaudin import rootdata as rd
from g2gaudin.strat import StratumLabel as S


def test_label_canonical_form():
    a = S((((0, 1), 0), ((1, 0), 0)))
    b = S((((1, 0), 0), ((0, 1), 0)))
    assert a == b
    assert a.pairs[0] == ((1, 0), 0)  # larger size first


def test_label_rejects_zero_pair():
    with pytest.raises(ValueError):
        S((((0, 0), 0),))


def test_label_and_diagram_are_immutable_values():
    a = S((((0, 1), 0), ((1, 0), 1)))
    b = S([[[1, 0], 1], [[0, 1], 0]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != S((((0, 1), 0),))
    with pytest.raises(AttributeError):
        a.pairs = ()
    H = strat.hasse_diagram(9)
    assert H == strat.hasse_diagram(9) and hash(H) == hash(
        strat.hasse_diagram(9))
    with pytest.raises(AttributeError):
        H.nodes = ()


def test_enumerate_counts():
    assert len(strat.enumerate_nontrivial(7)) == 1
    assert strat.enumerate_nontrivial(7)[0].pairs == ()
    d8 = strat.enumerate_nontrivial(8)
    assert len(d8) == 1 and d8[0].name() == "((0,0)_1)"
    assert len(strat.enumerate_nontrivial(11)) == 17


def test_enumerate_budget_invariant():
    for L in strat.enumerate_nontrivial(10):
        assert L.budget() == 3
        assert strat.is_nontrivial(L)


def test_enumerate_no_duplicates():
    nodes = strat.enumerate_nontrivial(11)
    assert len(set(nodes)) == len(nodes)


def test_stratum_leq_examples():
    A = S((((0, 1), 0),) * 4)
    B = S((((1, 0), 0), ((0, 1), 0), ((0, 1), 0)))
    assert strat.stratum_leq(A, B)
    A2 = S((((0, 2), 0), ((0, 1), 0), ((0, 1), 0)))
    B2 = S((((1, 0), 0), ((1, 0), 0)))
    assert not strat.stratum_leq(A2, B2)
    assert strat.stratum_leq(A, A)


@pytest.mark.parametrize("d, relations", [(11, 53), (12, 227), (13, 1123)])
def test_edge_closure_is_the_strict_order(d, relations):
    # the check_strata comparison, at its d = 11 and the next two d
    assert verify._closure_mismatch(strat.hasse_diagram(d)) == \
        (relations, [], [])


def test_strata_check_fails_on_a_dropped_tensor_summand(monkeypatch):
    # simple_degenerations loses the omega2 summand of V_omega2 (x) V_omega2;
    # stratum_leq, through Hom multiplicities, keeps it
    def dropped(lam, mu):
        dec = dict(repn.tensor_decompose(lam, mu))
        if tuple(lam) == tuple(mu) == (0, 1):
            del dec[(0, 1)]
        return dec

    monkeypatch.setattr(strat, "repn", SimpleNamespace(
        **dict(vars(repn), tensor_decompose=dropped)))
    n, extra, missing = verify._closure_mismatch(strat.hasse_diagram(11))
    assert not extra and n < 53
    assert ("((0,1),(0,1),(0,1),(0,1))", "((0,1)_1,(0,1),(0,1))") in missing
    assert not verify.check_strata()[0]


def _unclassed_multinomial(A):
    """The multinomial over all pairs, not per size class."""
    counts = {}
    for p in A.pairs:
        counts[p] = counts.get(p, 0) + 1
    num = factorial(len(A.pairs))
    for c in counts.values():
        num //= factorial(c)
    return num


@pytest.mark.parametrize("wrong", [lambda A: 1, _unclassed_multinomial])
def test_covering_check_fails_on_a_wrong_multinomial(monkeypatch, wrong):
    # both agree with symmetry_coefficient when all pairs are equal, as at
    # the (0,1)^n anchors
    for n in (2, 3, 4):
        assert wrong(S((((0, 1), 0),) * n)) == 1
    monkeypatch.setattr(strat, "symmetry_coefficient", wrong)
    assert not verify.check_covering()[0]


def test_strata_check_fails_on_an_off_by_one_pair_size(monkeypatch):
    # every pair one larger: the budget d = 11 holds 3 labels, not 17
    size = rd.pair_size
    monkeypatch.setattr(rd, "pair_size", lambda mu, k: size(mu, k) + 1)
    assert verify.check_strata() == (False, "3 nodes at d=11")


def test_strata_check_fails_when_dot_drops_an_edge(monkeypatch):
    # to_dot planted to leave out the first edge line; the arrow set, read
    # off H itself, still matches the golden list
    real = strat.to_dot

    def planted(H):
        lines = real(H).splitlines(keepends=True)
        first = next(k for k, ln in enumerate(lines) if " -> " in ln)
        return "".join(lines[:first] + lines[first + 1:])

    assert verify.check_strata()[0]
    monkeypatch.setattr(strat, "to_dot", planted)
    assert verify.check_strata() == (
        False, "DOT edges differ from the Hasse edges")


@pytest.mark.parametrize("off", [1, -1])
def test_covering_check_fails_on_an_off_by_one_invariant_dim(monkeypatch,
                                                             off):
    # covering_degree reads invariant_dim too, so the two still agree: the
    # n = 2 anchor's known degree 1 is what fails
    dim = repn.invariant_dim
    monkeypatch.setattr(repn, "invariant_dim", lambda ws: dim(ws) + off)
    assert verify.check_covering() == (
        False, f"covering degree {1 + off} != 1 at n=2")


def test_covering_anchors():
    # symmetry coefficients 6, 4 and 2, each with one invariant
    for pairs, b in zip(verify._COVERING_ANCHORS, (6, 4, 2)):
        A = S(pairs)
        assert strat.symmetry_coefficient(A) == verify._orderings(pairs) == b
        assert repn.invariant_dim(A.weights) == 1
        assert A in strat.enumerate_nontrivial(11)


def test_simple_degenerations_d9():
    A = S((((0, 1), 0), ((0, 1), 0)))
    got = {x.name() for x in strat.simple_degenerations(A)}
    assert got == {"((0,2))", "((1,0))", "((0,1)_1)", "((0,0)_2)"}


def test_simple_degenerations_trivial_merge():
    A = S((((0, 0), 1), ((0, 0), 1)))
    got = [x.name() for x in strat.simple_degenerations(A)]
    assert got == ["((0,0)_2)"]


def test_simple_degenerations_xin3():
    A = S((((0, 1), 1), ((0, 1), 0), ((0, 1), 0)))
    got = {x.name() for x in strat.simple_degenerations(A)
           if strat.is_nontrivial(x)}
    assert got == {"((0,1)_2,(0,1))", "((0,1)_1,(0,1)_1)"}


def test_hasse_d11_shape():
    H = strat.hasse_diagram(11)
    assert len(H.nodes) == 17 and len(H.edges) == 29
    layers = {}
    for n in H.nodes:
        layers[n.dim] = layers.get(n.dim, 0) + 1
    assert layers == {4: 4, 3: 6, 2: 6, 1: 1}
    # unique minimal node
    uppers = {a for a, _ in H.edges}
    minimal = [n for n in H.nodes if n not in uppers and n.dim == 1]
    assert [n.name() for n in minimal] == ["((0,0)_4)"]


@pytest.mark.parametrize("d, nodes, edges", [(12, 38, 101), (13, 101, 377)])
def test_hasse_counts_d12_d13(d, nodes, edges):
    H = strat.hasse_diagram(d)
    assert (len(H.nodes), len(H.edges)) == (nodes, edges)
    assert len(set(H.nodes)) == nodes and len(set(H.edges)) == edges
    pos = {n: i for i, n in enumerate(H.nodes)}
    assert all(a.dim == b.dim + 1 for a, b in H.edges)
    assert list(H.edges) == sorted(H.edges, key=lambda e: (pos[e[0]], pos[e[1]]))


@pytest.mark.parametrize("d", range(7, 15))
def test_hasse_edges_lower_the_dimension_by_one(d):
    """Each edge merges two points, so no longer path joins its ends and
    the diagram is its own transitive reduction."""
    assert all(a.dim == b.dim + 1 for a, b in strat.hasse_diagram(d).edges)


@pytest.mark.parametrize("d", range(9, 14))
def test_dot_edges_are_the_hasse_edges(d):
    H = strat.hasse_diagram(d)
    lines = [ln for ln in strat.to_dot(H).splitlines() if " -> " in ln]
    assert lines == [f'  "{a.name()}" -> "{b.name()}";' for a, b in H.edges]


def test_hasse_maximal_nodes_d11():
    H = strat.hasse_diagram(11)
    lowers = {b for _, b in H.edges}
    for n in H.nodes:
        if n not in lowers:
            assert all(p in (((0, 1), 0), ((0, 0), 1)) for p in n.pairs)


def test_dot_deterministic():
    d1 = strat.to_dot(strat.hasse_diagram(11))
    d2 = strat.to_dot(strat.hasse_diagram(11))
    assert d1 == d2
    assert d1.startswith("digraph")


def test_symmetry_coefficient():
    assert strat.symmetry_coefficient(
        S((((0, 1), 0),) * 3 + (((0, 0), 1),))) == 4
    assert strat.symmetry_coefficient(S((((0, 1), 0),) * 4)) == 1
    assert strat.symmetry_coefficient(
        S((((1, 0), 0), ((0, 1), 0)))) == 1


def test_covering_degree():
    for n, want in ((2, 1), (3, 1), (4, 4)):
        assert strat.covering_degree(S((((0, 1), 0),) * n)) == want
