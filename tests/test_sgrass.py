"""Spaces of polynomials: Wronskians, duality, kappa, self-self-duality."""

from fractions import Fraction

import pytest

from g2gaudin import bethe
from g2gaudin import diffop
from g2gaudin import rootdata as rd
from g2gaudin import sgrass as sg
from g2gaudin.exact import (Poly, wronskian, zadd, zclear, zderiv, zpoly,
                            zscale)
from g2gaudin.linalg import nullspace, rank, solve

X0 = sg.monomial_space()
R0 = sg.trivial_ramification()


def _mono(k):
    return Poly([Fraction(0)] * k + [Fraction(1)])


def _span_equal(polys_a, polys_b):
    """Reference span equality by three rational ranks."""
    d = max(max(p.degree for p in polys_a), max(p.degree for p in polys_b))
    rows = lambda ps: [[p[i] for i in range(d + 1)] for p in ps]
    ra = rank(rows(polys_a))
    rb = rank(rows(polys_b))
    rab = rank(rows(list(polys_a) + list(polys_b)))
    return ra == rb == rab


def _solved_coordinates(X, p):
    """Reference coordinates of p in the flag basis by a rational solve."""
    d = max(X.degrees[-1], p.degree)
    return solve([[u[i] for u in X.flag_basis] for i in range(d + 1)],
                 [p[i] for i in range(d + 1)])


def test_polyspace_validation():
    with pytest.raises(ValueError):
        sg.PolySpace(tuple(_mono(k) for k in range(6)))
    with pytest.raises(ValueError):
        sg.PolySpace((_mono(0), _mono(0)) + tuple(_mono(k) for k in range(5)))


def test_flag_basis_degrees():
    X = sg.PolySpace(tuple(_mono(k) + _mono(0) for k in range(7)))
    assert X.degrees == (0, 1, 2, 3, 4, 5, 6)


def test_space_wronskian_examples():
    assert sg.space_wronskian(X0) == Poly([1])
    X = sg.PolySpace(tuple(_mono(k) for k in (0, 1, 2, 3, 4, 5, 7)))
    w = sg.space_wronskian(X)
    assert w.valuation() == 1 and w.degree == 1


def test_wronskian_basis_independent():
    mixed = (X0.basis[0] + X0.basis[3], X0.basis[1] * 2, X0.basis[2],
             X0.basis[3], X0.basis[4] + X0.basis[6], X0.basis[5],
             X0.basis[6])
    assert sg.space_wronskian(sg.PolySpace(mixed)) == sg.space_wronskian(X0)


def test_divided_wronskian_trivial():
    gs = [_mono(0), _mono(1), _mono(3)]
    assert sg.divided_wronskian(gs, R0) == wronskian(gs)
    assert sg.divided_wronskian([_mono(2)], R0) == _mono(2)


def test_divided_wronskian_inexact_raises():
    R = sg.RamificationData((Fraction(0),),
                            (rd.partition_from_weight((0, 0), 1),))
    assert R.T[6] == _mono(1)  # T7 = x
    with pytest.raises(ValueError):
        sg.divided_wronskian([_mono(0)], R)


def test_dependent_duals_are_rejected(monkeypatch):
    """dual_space checks independence once, through PolySpace: a dual
    family with two equal members raises ValueError."""
    divide, duals = sg._divide, []

    def planted(w, scale, R, i):
        duals.append(divide(w, scale, R, i))
        return duals[0] if len(duals) == 2 else duals[-1]

    monkeypatch.setattr(sg, "_divide", planted)
    with pytest.raises(ValueError, match="linearly dependent"):
        sg.dual_space(X0, R0)
    assert len(duals) == 7


def test_dual_space_monomials():
    Xd = sg.dual_space(X0, R0)
    assert _span_equal(list(Xd.basis), list(X0.basis))


def test_self_dual():
    assert sg.is_self_dual(X0, R0)
    bad = sg.PolySpace(tuple(_mono(k) for k in (0, 1, 2, 3, 4, 5, 7)))
    assert not sg.is_self_dual(bad, R0)


def test_self_dual_t_symmetry_fast_path():
    R = sg.RamificationData((Fraction(0),), ((1, 0, 0, 0, 0, 0, 0),))
    assert R.T[0] != R.T[5]  # asymmetric T-data
    assert not sg.is_self_dual(X0, R)


def test_kappa_monomials():
    g = sg.kappa_form(X0, R0)
    for a in range(7):
        for b in range(7):
            assert (g[a][b] == 0) == (a + b != 6)
            assert g[a][b] == g[b][a]


def test_ssd_witness_monomials():
    assert sg.ssd_witness_check(X0, R0, X0.flag_basis)


def test_ssd_witness_rejects_bad_order():
    gamma = (_mono(2), _mono(0), _mono(1), _mono(3), _mono(4), _mono(5),
             _mono(6))
    assert not sg.ssd_witness_check(X0, R0, gamma)


def test_bethe_kernel_instance():
    X, R, gamma = sg.bethe_kernel_instance((0, 1), 1)
    assert sg.is_self_dual(X, R)
    assert sg.ssd_witness_check(X, R, gamma)
    y = bethe.appendix_solution((0, 1), 1)
    ys = sg.y_from_basis(gamma, R)
    m = lambda p: p.monic()
    assert tuple(m(p) for p in ys) == (m(y.y1), m(y.y2), m(y.y1 ** 2),
                                       m(y.y1 ** 2), m(y.y2), m(y.y1))


def test_the_case_owns_its_flag():
    """bethe_kernel_instance reads the flag built once on the case, and
    sgrass.flag_from_factorization is the same construction."""
    *_, gamma = sg.bethe_kernel_instance((2, 1), 5)
    assert sg.bethe_kernel_instance((2, 1), 5)[2] is gamma
    c = diffop.case((2, 1), 5)
    assert c.flag is gamma
    assert sg.flag_from_factorization(c.kernel, c.y, *c.T) == gamma


def test_dual_involution_on_bethe_instance():
    X, R, _ = sg.bethe_kernel_instance((1, 0), 2)
    Xdd = sg.dual_space(sg.dual_space(X, R), R)
    assert _span_equal(list(Xdd.basis), list(X.basis))


def test_space_wronskian_formula():
    X, R, _ = sg.bethe_kernel_instance((1, 1), 3)
    x = _mono(1)
    assert sg.space_wronskian(X) == \
        (x ** 21 * (x - Poly([1])) ** 7).monic()


def test_isotropic_examples():
    f = _mono(3)
    U = [_mono(0), _mono(4), _mono(5)]
    assert sg.isotropic_definition_check(X0, R0, f, U)
    assert not sg.isotropic_definition_check(X0, R0, f,
                                             [_mono(0), _mono(1), _mono(2)])
    # right isotropy, wrong Wronskian
    assert not sg.isotropic_definition_check(X0, R0, f,
                                             [_mono(0), _mono(4), _mono(6)])


def test_reduced_wronski():
    assert sg._seventh_root(_mono(14)) == _mono(2)
    x = _mono(1)
    assert sg._seventh_root((x ** 7 * (x - Poly([1])) ** 7)) == \
        x * (x - Poly([1]))
    with pytest.raises(ValueError):
        sg._seventh_root(_mono(3))
    with pytest.raises(ValueError):
        sg._seventh_root((_mono(7) + Poly([1])))


# the 84 closed-form cases with lambda in {0..3}^2
GRID3 = [((a, b), i) for a in range(4) for b in range(4)
         for i in bethe.admissible_ls((a, b))]


def _factorization_data(lam, i):
    y = bethe.appendix_solution(lam, i)
    T1, T2 = bethe.build_calT([lam, rd.OMEGA2], [Fraction(0), Fraction(1)])
    return diffop.kernel_for_case(lam, i), y, T1, T2


def _flag_by_wronskian_search(kernel_basis, y, T1, T2):
    """Reference flag: at step i, the kernel element u with
    Wr(u_1..u_{i-1}, u) = W_i, the product of the rightmost i factor
    functions, read off the nullspace of [Wr(flag, b_1) .. Wr(flag, b_7) |
    -W_i] at its last column (49 Wronskians in all)."""
    y1, y2 = y.y1, y.y2
    W = (y1, T1 * y2, T1 ** 2 * T2 * y1 ** 2, T1 ** 4 * T2 ** 2 * y1 ** 2,
         T1 ** 7 * T2 ** 3 * y2, T1 ** 10 * T2 ** 5 * y1, T1 ** 14 * T2 ** 7)
    flag = []
    for i in range(7):
        wrs = [wronskian(flag + [b]) for b in kernel_basis]
        d = max(max(p.degree for p in wrs), W[i].degree)
        A = [[wrs[k][r] for k in range(7)] + [-W[i][r]]
             for r in range(d + 1)]
        picked = next(v for v in nullspace(A) if v[7])
        u = sum((Poly([picked[k]]) * kernel_basis[k] for k in range(7)),
                Poly())
        flag.append(u.monic())
    return tuple(flag)


def _flag_by_nullspaces(kernel_basis, y, T1, T2):
    """Reference flag: step i applies L_m, m = 8 - i, to the images of the
    kernel basis under L_(m+1)...L_7, in Z[x], and takes one nullspace;
    u_i is the monic combination at the free column new at step i (the
    construction before the integrated flag)."""
    Q, Ws, _ = diffop.dy_log_factors(y, T1, T2)
    dQ, n = zderiv(Q), len(kernel_basis)
    basis = [zclear(b.coeffs)[0] for b in kernel_basis]
    images, free, flag = basis, set(), []
    for i, W in enumerate(reversed(Ws), 1):
        images = [diffop.apply_log_factor(Q, dQ, W, p, i - 1) for p in images]
        ns = nullspace([[p[r] if r < len(p) else 0 for p in images]
                        for r in range(max(map(len, images)))], ncols=n)
        at = {max(k for k in range(n) if v[k]): v for v in ns}
        new = at.keys() - free
        assert len(ns) == i and len(new) == 1
        free |= new
        u = []
        for c, b in zip(zclear(at[new.pop()])[0], basis):
            u = zadd(u, zscale(c, b))
        flag.append(zpoly(u, u[-1]))
    return tuple(flag)


def test_flag_matches_nullspace_flag_on_3_grid():
    """The integrated flag, on the case and through flag_from_factorization,
    equals the nullspace flag of the nullspace kernel coefficient for
    coefficient on all 84 cases, and for a reversed kernel basis on every
    sixth."""
    for k, (lam, i) in enumerate(GRID3):
        _, y, T1, T2 = _factorization_data(lam, i)
        ker = diffop.polynomial_kernel(diffop.build_Dy(y, T1, T2),
                                       diffop.default_degree_bound(lam, i))
        want = [p.coeffs for p in _flag_by_nullspaces(ker, y, T1, T2)]
        assert [p.coeffs for p in diffop.case(lam, i).flag] == want, (lam, i)
        assert [p.coeffs for p in sg.flag_from_factorization(
            ker, y, T1, T2)] == want, (lam, i)
        if k % 6 == 0:
            ker = ker[::-1]
            assert sg.flag_from_factorization(ker, y, T1, T2) == \
                _flag_by_nullspaces(ker, y, T1, T2), (lam, i)


def _divided_by_division(gs, R):
    """Reference divided Wronskian: Wr(gs) divided by each T_{8-j}, j <= i,
    i + 1 - j times, by long division over Q."""
    i, w = len(gs), wronskian(list(gs))
    for j in range(1, i + 1):
        for _ in range(i + 1 - j):
            w = w.exact_div(R.T[7 - j])
    return w


# x - 1/2 times the polynomials of degree < 7, with its ramification at
# 1/2: T_7 = x - 1/2 has a non-integer coefficient
_HALF = Poly([Fraction(-1, 2), 1])
X_HALF = sg.PolySpace(tuple(_HALF ** k for k in range(1, 8)))
R_HALF = sg.RamificationData((Fraction(1, 2),), ((1,) * 7,))


def test_flag_matches_wronskian_search_on_3_grid():
    assert len(GRID3) == 84
    for lam, i in GRID3:
        data = _factorization_data(lam, i)
        got = sg.flag_from_factorization(*data)
        want = _flag_by_wronskian_search(*data)
        assert [p.coeffs for p in got] == [p.coeffs for p in want], (lam, i)
    # the flag depends on the order of the kernel basis; so must the search
    for lam, i in GRID3[::6]:
        ker, y, T1, T2 = _factorization_data(lam, i)
        ker = ker[::-1]
        assert sg.flag_from_factorization(ker, y, T1, T2) == \
            _flag_by_wronskian_search(ker, y, T1, T2)


def test_bethe_flag_is_isotropic_witness():
    """The definition of a self-self-dual space holds with the witness the
    factorization flag gives: f = u_1, proportional to y_1, and U = <u_1,
    u_2, u_3>, whose Wronskian is proportional to T1^2 T2 y_1^2.  With u_4
    in place of u_3 it fails."""
    for lam, i in GRID3:
        X, R, gamma = sg.bethe_kernel_instance(lam, i)
        y1 = bethe.appendix_solution(lam, i).y1
        assert sg.isotropic_definition_check(X, R, y1, gamma[:3]), (lam, i)
        assert not sg.isotropic_definition_check(
            X, R, y1, gamma[:2] + gamma[3:4]), (lam, i)
    assert sg.isotropic_definition_check(X0, R0, _mono(0),
                                         [_mono(0), _mono(1), _mono(2)])


def test_isotropic_check_rejects_a_non_isotropic_u(monkeypatch):
    """f = 1 and U = <1, x, x^2> on the monomial space: f is orthogonal to U
    and Wr(U) = T1^2 T2 f^2 up to a constant, but under a form with
    kappa(x, x) = 1 U is not isotropic, so only that condition fails."""
    gram = [[Fraction(0)] * 7 for _ in range(7)]
    gram[1][1] = Fraction(1)
    monkeypatch.setattr(sg, "kappa_form", lambda X, R: gram)
    assert not sg.isotropic_definition_check(X0, R0, _mono(0),
                                             [_mono(0), _mono(1), _mono(2)])


def test_dual_space_is_the_subset_divided_wronskians():
    spaces = [(X0, R0), (X_HALF, R_HALF)]
    for lam, i in GRID3:
        X, R, _ = sg.bethe_kernel_instance(lam, i)
        spaces.append((X, R))
    for X, R in spaces:
        u = X.flag_basis
        want = [_divided_by_division([u[j] for j in range(7) if j != omit], R)
                for omit in range(7)]
        got = sg.dual_space(X, R).basis
        assert [p.coeffs for p in got] == [p.coeffs for p in want]
        for k in range(8):
            assert sg.divided_wronskian(u[:k], R) == \
                _divided_by_division(u[:k], R)


def test_y_from_basis_matches_divided_wronskians():
    X, R, gamma = sg.bethe_kernel_instance((2, 2), 4)
    for basis, ram in ((gamma, R), (X_HALF.basis, R_HALF)):
        want = tuple(_divided_by_division(basis[:k], ram)
                     for k in range(6, 0, -1))
        assert sg.y_from_basis(basis, ram) == want
    # a dependent prefix: every later divided Wronskian vanishes
    ys = sg.y_from_basis((_mono(0), _mono(0)) + X0.basis[2:], R0)
    assert ys[-1] == _mono(0) and all(p.is_zero() for p in ys[:-1])


def test_self_dual_factor_is_the_wronskian_ratio_root():
    cases = [(X0, R0), (X_HALF, R_HALF)]
    for lam, i in GRID3[::4]:
        X, R, _ = sg.bethe_kernel_instance(lam, i)
        cases.append((X, R))
    for X, R in cases:
        Xd = sg.dual_space(X, R)
        q = sg.space_wronskian(X).exact_div(sg.space_wronskian(Xd))
        g = sg.self_dual_factor(X, R)
        assert g is not None and g == sg._seventh_root(q.monic())
    assert sg.self_dual_factor(X_HALF, R_HALF) == _HALF
    assert sg.is_self_dual(X_HALF, R_HALF)


def test_flag_rejects_perturbed_kernel_basis():
    for lam, i in (((0, 1), 1), ((2, 2), 4), ((3, 3), 6)):
        ker, y, T1, T2 = _factorization_data(lam, i)
        for k in (0, 6):
            bad = list(ker)
            bad[k] = bad[k] + _mono(1)
            with pytest.raises(ValueError):
                sg.flag_from_factorization(bad, y, T1, T2)


def test_ssd_witness_rejects_swapped_bethe_flag():
    for lam, i in (((0, 1), 1), ((1, 1), 3), ((3, 2), 5)):
        X, R, gamma = sg.bethe_kernel_instance(lam, i)
        assert sg.ssd_witness_check(X, R, gamma)
        swapped = (gamma[1], gamma[0]) + gamma[2:]
        assert not sg.ssd_witness_check(X, R, swapped)


def test_perturbed_bethe_kernel_is_not_self_dual():
    """Adding x^K (x-1)^K, K above every exponent, to the top flag element
    keeps the ramification at 0 and 1, so every division stays exact, but
    moves the Wronskian off {0, 1}."""
    x = _mono(1)
    for lam, i in (((0, 1), 1), ((1, 0), 2), ((2, 2), 4)):
        X, R, _ = sg.bethe_kernel_instance(lam, i)
        assert sg.is_self_dual(X, R)
        u = X.flag_basis
        K = u[-1].degree + 1
        bad = sg.PolySpace(u[:-1] + (u[-1] + x ** K * (x - _mono(0)) ** K,))
        assert not sg.is_self_dual(bad, R)


def test_membership_matches_rank_oracle_on_3_grid():
    """X = g * dual(X) by reducing each g d_i against the flag basis of X,
    as the three-rank span equality decides it, with the coordinates a
    rational solve finds; a planted term at a degree missing from the flag
    makes both reject."""
    for lam, i in GRID3:
        X, R, _ = sg.bethe_kernel_instance(lam, i)
        Xd = sg.dual_space(X, R)
        g = sg.self_dual_factor(X, R)
        assert g is not None, (lam, i)
        gd = [g * v for v in Xd.basis]
        for p in gd + list(X.basis):
            c = X.coordinates(p)
            assert c is not None and c == _solved_coordinates(X, p)
        assert _span_equal(gd, list(X.basis))
        gap = next(d for d in range(X.degrees[-1]) if d not in X.degrees)
        k = (lam[0] + i) % 7
        planted = gd[:k] + [gd[k] + _mono(gap) * Fraction(1, 7)] + gd[k + 1:]
        assert X.coordinates(planted[k]) is None
        assert _solved_coordinates(X, planted[k]) is None
        assert not _span_equal(planted, list(X.basis)), (lam, i)


def test_bethe_kernel_instance_accepts_a_weight_list():
    X, R, gamma = sg.bethe_kernel_instance((1, 0), 2)
    assert sg.bethe_kernel_instance([1, 0], 2) == (X, R, gamma)


def _T_by_fraction_powers(z, partitions):
    """Reference T_i: products of Poly powers (x - z_s)^e over Q."""
    T = []
    for i in range(7):
        t = Poly([Fraction(1)])
        for zs, p in zip(z, partitions):
            if zs == bethe.INF:
                continue
            nxt = p[i + 1] if i + 1 < 7 else 0
            t = t * Poly([-zs, 1]) ** (p[i] - nxt)
        T.append(t)
    return tuple(T)


def test_ramification_T_matches_fraction_powers():
    part = rd.partition_from_weight
    data = [((Fraction(0), Fraction(1)), (part(lam, 0), part(rd.OMEGA2, 0)))
            for lam in ((0, 0), (1, 0), (2, 3), (5, 4))]
    data += [((Fraction(1, 2), "inf"), (part((1, 2), 0), part((3, 0), 0))),
             ((Fraction(-2, 3), Fraction(5), bethe.INF),
              ((4, 4, 3, 1, 1, 0, 0), (2, 1, 1, 1, 1, 1, 1),
               (9, 0, 0, 0, 0, 0, -3))),
             ((), ())]
    for z, parts in data:
        got = sg.RamificationData(z, parts).T
        assert repr(got) == repr(_T_by_fraction_powers(z, parts)), z
        assert all(t.leading() == 1 for t in got)
    with pytest.raises(ValueError):
        sg.RamificationData((Fraction(0),), ((0,) * 6 + (-1,),))
