"""The 7-dimensional representation, Casimir, and character combinatorics."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from g2gaudin import repn
from g2gaudin import rootdata as rd
from g2gaudin import verify
from g2gaudin.exact import QSqrt2
from g2gaudin.repn import bracket, mat_eq, mat_scale, mat_zero


def test_chevalley_relations():
    e1, e2, f1, f2, h1, h2 = repn.chevalley_matrices()
    es, fs, hs = (e1, e2), (f1, f2), (h1, h2)
    for i in range(2):
        for j in range(2):
            target = hs[i] if i == j else mat_zero()
            assert mat_eq(bracket(es[i], fs[j]), target)
            a = rd.CARTAN[i][j]
            assert mat_eq(bracket(hs[i], es[j]),
                          mat_scale(QSqrt2(a), es[j]))
            assert mat_eq(bracket(hs[i], fs[j]),
                          mat_scale(QSqrt2(-a), fs[j]))


def test_serre_like_brackets():
    e1, e2, f1, f2, h1, h2 = repn.chevalley_matrices()
    assert mat_eq(bracket(h1, h2), mat_zero())


def test_basis_spans_14_dimensions():
    assert len(repn.g2_basis()) == 14


def test_G_relations():
    G = repn.build_G()  # raises internally if the printed relations fail
    for i in range(1, 8):
        assert mat_eq(G[(i, 8 - i)], mat_zero())
    with pytest.raises(TypeError):
        G[(2, 3)] = mat_zero()


def test_dual_basis_identity():
    # G_ij = sum_a (x_a)_{ji} x^a exactly, on all 49 entries
    G, dual = repn.build_G(), repn.dual_basis_G()
    assert set(G) == set(dual) and len(G) == 49
    for ij in G:
        assert mat_eq(G[ij], dual[ij]), ij


def test_chevalley_rejects_corrupted_G(monkeypatch):
    # scale G[2,3] and its skew partner G[5,6] by 2: the skew relation still
    # holds, so only the dual-basis identity can catch it
    good = repn.build_G()
    bad = dict(good)
    for ij in ((2, 3), (5, 6)):
        bad[ij] = mat_scale(QSqrt2(2), good[ij])
    repn.g2_basis.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(repn, "build_G", lambda: bad)
            ok, detail = verify.check_chevalley()
    finally:
        repn.g2_basis.cache_clear()  # it may have cached the corrupted entries
    assert not ok
    assert detail == "dual-basis identity fails at G[2,3]"
    assert repn.build_G() is good and verify.check_chevalley()[0]


def test_weyl_dims():
    assert repn.weyl_dim((0, 0)) == 1
    assert repn.weyl_dim(rd.OMEGA2) == 7
    assert repn.weyl_dim(rd.OMEGA1) == 14
    assert repn.weyl_dim((0, 2)) == 27
    assert repn.weyl_dim((1, 1)) == 64
    assert repn.weyl_dim((2, 0)) == 77
    assert repn.weyl_dim((0, 3)) == 77


def _weyl_dim_reference(lam):
    """The Weyl product over the positive roots in Fractions, with the
    invariant form of rootdata."""
    lr = rd.add(lam, rd.RHO)
    num = Fraction(1)
    for c1, c2 in rd.POSITIVE_ROOTS:
        beta = rd.from_alpha(c1, c2)
        num *= rd.bilinear(lr, beta) / rd.bilinear(rd.RHO, beta)
    return num


def test_integer_weyl_dim_matches_fraction_product():
    for l1 in range(7):
        for l2 in range(7):
            assert repn.weyl_dim((l1, l2)) == _weyl_dim_reference((l1, l2))


def _brauer_klimyk_reference(lam, mu):
    """V_lam (x) V_mu from the weights of V_lam shifted by mu + rho: the
    other factor than repn uses, with the Weyl element found by search over
    the whole group."""
    group = rd.weyl_group()
    out = {}
    for nu, m in repn.weight_multiplicities(lam).items():
        xi = rd.add(rd.add(mu, nu), rd.RHO)
        for sigma in group:
            dom = sigma(xi)
            if dom[0] > 0 and dom[1] > 0:
                target = rd.sub(dom, rd.RHO)
                out[target] = out.get(target, 0) + sigma.sign() * m
                break
    return {k: v for k, v in out.items() if v}


def test_tensor_decompose_matches_uncached_reference():
    weights = [(a, b) for a in range(4) for b in range(4)]
    for lam in weights:
        for mu in weights:
            assert repn.tensor_decompose(lam, mu) == \
                _brauer_klimyk_reference(lam, mu)


def test_tensor_decompose_is_cached_and_read_only():
    dec = repn.tensor_decompose([0, 1], [0, 1])
    assert dec is repn.tensor_decompose((0, 1), (0, 1))
    with pytest.raises(TypeError):
        dec[(0, 0)] = 2
    assert dec[(0, 0)] == 1


def test_tensor_decompose_checks_dimension_once_per_pair(monkeypatch):
    weyl_dim = repn.weyl_dim

    def wrong(lam):
        return 28 if tuple(lam) == (0, 2) else weyl_dim(lam)

    repn._tensor_decompose.cache_clear()
    weyl_dim.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(repn, "weyl_dim", wrong)
            with pytest.raises(AssertionError):
                repn.tensor_decompose(rd.OMEGA2, rd.OMEGA2)
    finally:
        repn._tensor_decompose.cache_clear()
        weyl_dim.cache_clear()
    assert repn.tensor_decompose(rd.OMEGA2, rd.OMEGA2)[(0, 2)] == 1


def test_casimir_eigenvalues():
    assert repn.casimir_eigenvalue(rd.OMEGA2) == 12
    assert repn.casimir_eigenvalue(rd.OMEGA1) == 24
    assert repn.casimir_eigenvalue((0, 2)) == 28
    assert repn.casimir_eigenvalue((0, 0)) == 0


def test_tensor_square_of_omega2():
    dec = repn.tensor_decompose(rd.OMEGA2, rd.OMEGA2)
    assert dec == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (0, 2): 1}


def test_casimir_blocks():
    blocks = repn.casimir_blocks()
    assert blocks == {Fraction(2): 27, Fraction(0): 14,
                      Fraction(-6): 7, Fraction(-12): 1}


def test_invariant_dims():
    assert repn.invariant_dim([(0, 1), (0, 1)]) == 1
    assert repn.invariant_dim([(0, 1), (1, 0)]) == 0
    assert repn.invariant_dim([(0, 1)] * 4 ) == 4
    assert repn.invariant_dim([]) == 1


def test_invariant_dim_ignores_order():
    for ws in ([(0, 1), (1, 0), (0, 2), (1, 1)],
               [(0, 1), (0, 1), (1, 0), (0, 3)],
               [(2, 0), (0, 1), (0, 1), (0, 1), (1, 0)]):
        dims = {repn.invariant_dim(list(p)) for p in permutations(ws)}
        # decompose_sequence sorts before its cache; the uncached product
        # in each order is what shows the order does not matter
        refs = {_decompose_left_to_right(p).get((0, 0), 0)
                for p in permutations(ws)}
        assert len(dims) == 1 and dims == refs


def _decompose_left_to_right(weights):
    """The iterated decomposition, uncached, in the order given."""
    acc = {(0, 0): 1}
    for w in weights:
        nxt = {}
        for lam, m in acc.items():
            for mu, m2 in repn.tensor_decompose(lam, w).items():
                nxt[mu] = nxt.get(mu, 0) + m * m2
        acc = nxt
    return acc


def test_decompose_sequence_matches_left_to_right_reference():
    small = [(0, 0), (0, 1), (1, 0), (1, 1)]
    n = 0
    for k in range(5):
        for ws in product(small, repeat=k):
            assert dict(repn.decompose_sequence(list(ws))) == \
                _decompose_left_to_right(ws), ws
            n += 1
    assert n == 341


def test_decompose_sequence_is_cached_and_read_only():
    a = repn.decompose_sequence([(0, 1), [1, 0], (0, 1)])
    assert repn.decompose_sequence([[1, 0], (0, 1), (0, 1)]) is a
    with pytest.raises(TypeError):
        a[(0, 0)] = 5
    with pytest.raises(ValueError):  # raised on every call, not cached
        repn.decompose_sequence([(0, 1), (-1, 1)])
    with pytest.raises(ValueError):
        repn.decompose_sequence([(-1, 1), (0, 1)])


def test_decompose_sequence_of_a_long_list():
    # far more factors than the interpreter's recursion limit
    assert dict(repn.decompose_sequence([(0, 0)] * 3000)) == {(0, 0): 1}
    assert repn.invariant_dim([(0, 0)] * 2999 + [(1, 0)]) == 0


def test_hom_multiplicity():
    assert repn.hom_multiplicity((0, 2), [(0, 1), (0, 1)]) == 1
    assert repn.hom_multiplicity((2, 0), [(0, 1), (0, 1)]) == 0


def test_weight_multiplicities_of_adjoint():
    mults = repn.weight_multiplicities(rd.OMEGA1)
    assert mults[(0, 0)] == 2
    assert sum(mults.values()) == 14


def test_tensor_rejects_nondominant():
    with pytest.raises(ValueError):
        repn.tensor_decompose((-1, 0), (0, 1))
    with pytest.raises(ValueError):  # raised on every call, not cached
        repn.tensor_decompose((-1, 0), (0, 1))
    with pytest.raises(ValueError):
        repn.weyl_dim((0, -1))
