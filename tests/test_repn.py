"""The 7-dimensional representation, Casimir, and character combinatorics."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from g2gaudin import repn
from g2gaudin import rootdata as rd
from g2gaudin import verify
from g2gaudin.repn import bracket, mat_eq, mat_scale, mat_zero
import oracles
from oracles import D, SQRT2, conjugate_by_D, printed_chevalley, printed_G


def test_chevalley_relations():
    e1, e2, f1, f2, h1, h2 = repn.chevalley_matrices()
    es, fs, hs = (e1, e2), (f1, f2), (h1, h2)
    for i in range(2):
        for j in range(2):
            target = hs[i] if i == j else mat_zero()
            assert mat_eq(bracket(es[i], fs[j]), target)
            a = rd.CARTAN[i][j]
            assert mat_eq(bracket(hs[i], es[j]), mat_scale(a, es[j]))
            assert mat_eq(bracket(hs[i], fs[j]), mat_scale(-a, fs[j]))


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
        bad[ij] = mat_scale(2, good[ij])
    assert _chevalley_with(monkeypatch, bad) == \
        (False, "dual-basis identity fails at G[2,3]")
    assert repn.build_G() is good and verify.check_chevalley()[0]


def _chevalley_with(monkeypatch, G):
    """check_chevalley with build_G returning G."""
    repn.g2_basis.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(repn, "build_G", lambda: G)
            return verify.check_chevalley()
    finally:
        repn.g2_basis.cache_clear()  # it may have cached the corrupted entries


def _with_entry(m, r, s, v):
    return tuple(tuple(v if (a, b) == (r, s) else x for b, x in enumerate(row))
                 for a, row in enumerate(m))


def test_chevalley_rejects_one_wrong_sqrt2_graded_entry(monkeypatch):
    # Ĝ_24 = 2 e_24 - e_46 - e_13 + e_57; its (2, 4) entry made 3
    good = repn.build_G()
    bad = dict(good)
    bad[(2, 4)] = _with_entry(good[(2, 4)], 1, 3, 3)
    assert good[(2, 4)][1][3] == 2 and repn.sqrt2_power(2, 4) == 1
    assert _chevalley_with(monkeypatch, bad) == \
        (False, "skew relation fails at G[2,4]")
    # with its skew partner Ĝ_46 = -Ĝ_24 changed to match, the printed
    # G_24 = -sqrt2 G_13 catches it
    bad[(4, 6)] = mat_scale(-1, bad[(2, 4)])
    assert _chevalley_with(monkeypatch, bad) == \
        (False, "proportionality G(2, 4) = -1*sqrt2*G(1, 3) fails")
    assert verify.check_chevalley()[0]


def test_wrong_sqrt2_grading_fails_chevalley_and_casimir(monkeypatch):
    repn._six_casimir.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(repn, "sqrt2_power", lambda i, j: 0)
            assert not verify.check_chevalley()[0]
            assert not verify.check_casimir()[0]
    finally:
        repn._six_casimir.cache_clear()
    assert verify.check_casimir()[0]


def test_module_is_the_printed_one_conjugated_by_D():
    # D^-1 X D for the printed Chevalley generators, and D^-1 G_ij D =
    # sqrt2^eps_ij Ĝ_ij for all 49 printed G_ij, entry by entry
    for printed, ours in zip(printed_chevalley(), repn.chevalley_matrices()):
        assert mat_eq(conjugate_by_D(printed), ours)
    G, graded = repn.build_G(), 0
    for (i, j), m in printed_G().items():
        eps = repn.sqrt2_power(i, j)
        assert eps == repn.sqrt2_power(j, i)
        assert mat_eq(conjugate_by_D(m),
                      mat_scale(SQRT2 if eps else 1, G[(i, j)])), (i, j)
        graded += eps
    assert graded == 12


def test_casimir_is_the_printed_one_conjugated_by_D():
    # (D (x) D)^-1 Omega (D (x) D), Omega from the printed G over Q(sqrt2)
    G, n = printed_G(), repn.N
    omega = [[0] * n * n for _ in range(n * n)]
    for (i, j), gij in G.items():
        for r1, row1 in enumerate(G[(j, i)]):
            for s1, x in enumerate(row1):
                if not x:
                    continue
                for r2, row2 in enumerate(gij):
                    for s2, y in enumerate(row2):
                        if y:
                            omega[n * r1 + r2][n * s1 + s2] += x * y
    d = [a * b for a in D for b in D]
    ours = repn.casimir_on_pair()
    assert all(omega[r][s] * d[s] / d[r] == 6 * ours[r][s]
               for r in range(n * n) for s in range(n * n))
    assert sum(1 for row in ours for v in row if v) == 156


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
        num *= Fraction(rd.bilinear(lr, beta), rd.bilinear(rd.RHO, beta))
    return num


def test_integer_weyl_dim_matches_fraction_product():
    for l1 in range(7):
        for l2 in range(7):
            assert repn.weyl_dim((l1, l2)) == _weyl_dim_reference((l1, l2))


# the simple reflections as integer matrices on fundamental-weight
# coordinates, s_i(w) = w - w_i alpha_i with alpha1 = (2, -3), alpha2 = (-1, 2)
_S1 = ((-1, 0), (3, 1))
_S2 = ((1, 1), (0, -1))


def _weyl_group_matrices():
    """The 12 elements of W as matrices, products of _S1 and _S2."""
    mul = lambda a, b: tuple(tuple(sum(a[r][k] * b[k][c] for k in range(2))
                                   for c in range(2)) for r in range(2))
    group, frontier = {((1, 0), (0, 1))}, [((1, 0), (0, 1))]
    while frontier:
        g = frontier.pop()
        for s in (_S1, _S2):
            h = mul(s, g)
            if h not in group:
                group.add(h)
                frontier.append(h)
    assert len(group) == 12
    return sorted(group)


def _brauer_klimyk_reference(lam, mu, mults=None):
    """V_lam (x) V_mu from the weights of V_lam shifted by mu + rho: the
    other factor than repn uses, with the Weyl element found by search over
    the whole group, built here from the reflection matrices.  The weights
    are mults if given, else repn's."""
    group = [(g, g[0][0] * g[1][1] - g[0][1] * g[1][0])
             for g in _weyl_group_matrices()]
    out = {}
    for nu, m in (mults or repn.weight_multiplicities(lam)).items():
        xi = rd.add(rd.add(mu, nu), rd.RHO)
        for g, det in group:
            dom = (g[0][0] * xi[0] + g[0][1] * xi[1],
                   g[1][0] * xi[0] + g[1][1] * xi[1])
            if dom[0] > 0 and dom[1] > 0:
                target = rd.sub(dom, rd.RHO)
                out[target] = out.get(target, 0) + det * m
                break
    return {k: v for k, v in out.items() if v}


GRID7 = [(a, b) for a in range(8) for b in range(8)]


def test_integer_freudenthal_matches_the_fraction_recursion_on_7_grid():
    """The integer recursion of repn gives the multiplicities, and hence
    the decompositions (in either order of the factors), of the Fraction
    recursion kept in oracles, on the 7-grid; its multiplicities are
    ints."""
    oracle_mults = {lam: oracles.weight_multiplicities(lam) for lam in GRID7}
    for lam in GRID7:
        got = repn.weight_multiplicities(lam)
        assert got == oracle_mults[lam], lam
        assert all(type(m) is int for m in got.values())
    for lam in GRID7:
        for mu in GRID7:
            if lam <= mu:  # the product is symmetric: one reference each
                want = _brauer_klimyk_reference(lam, mu, oracle_mults[lam])
                assert repn.tensor_decompose(lam, mu) == want, (lam, mu)
                assert repn.tensor_decompose(mu, lam) == want, (mu, lam)


def test_weight_layer_is_integer():
    for lam in GRID7:
        assert type(repn.casimir_eigenvalue(lam)) is int
        assert type(rd.bilinear(lam, rd.RHO)) is int


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


def test_casimir_blocks_match_field_elimination():
    """Each block's dimension, 49 minus the rank of the shifted pair
    Casimir, is 49 minus the pivots of its rref by field operations."""
    omega = repn.casimir_on_pair()
    want = {}
    for ev in map(Fraction, (2, 0, -6, -12)):
        shifted = [[v - ev if r == s else v for s, v in enumerate(row)]
                   for r, row in enumerate(omega)]
        want[ev] = 49 - len(oracles.rref_field(shifted)[1])
    assert repn.casimir_blocks() == want


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
