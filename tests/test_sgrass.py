"""Spaces of polynomials: Wronskians, duality, kappa, self-self-duality."""

from fractions import Fraction
from math import prod

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2gaudin import bethe
from g2gaudin import diffop
from g2gaudin import rootdata as rd
from g2gaudin import sgrass as sg
from g2gaudin.exact import (Poly, poly_det, wronskian, zadd, zclear, zderiv,
                            zmul, zpoly, zprefix_levels, zprimitive, zquo,
                            zscale, zwronski_minors, zwronskian_past,
                            zwronskians)
from g2gaudin.linalg import nullspace, rank, rref
import oracles
from oracles import (coordinates, default_degree_bound,
                     isotropic_definition_check, kappa_form, monic, solve)

# the kernel of d^7, the polynomials of degree < 7, and no ramification
X0 = sg.PolySpace([[0] * k + [1] for k in range(7)])
R0 = sg.RamificationData((), ())


def _mono(k):
    return Poly([Fraction(0)] * k + [Fraction(1)])


def _monic(ts):
    """Integer lists as monic Polys, as RamificationData held its T's."""
    return tuple(zpoly(t, t[-1]) for t in ts)


def _primitive(p):
    """The primitive integer list on the line of the Poly p."""
    return zprimitive(zclear(p.coeffs)[0])


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
    assert oracles.valuation(w) == 1 and w.degree == 1


def test_wronskian_basis_independent():
    u = X0.flag_basis
    mixed = (u[0] + u[3], u[1] * 2, u[2], u[3], u[4] + u[6], u[5], u[6])
    assert sg.space_wronskian(sg.PolySpace(mixed)) == sg.space_wronskian(X0)


def _divided_wronskian(gs, R):
    """Wr(g_1..g_i) divided by prod_{j=1}^i T_{8-j}^{i+1-j}, the T_j monic,
    for integer lists g_j: the divided recursion's Wr / t_i times t_i's
    leading coefficient; errors if a division is inexact."""
    return zscale(R.divisors[len(gs)][-1], zwronskians(gs, R.T[::-1])[-1])


def test_divided_wronskian_trivial():
    gs = [[1], [0, 1], [0, 0, 0, 1]]
    assert zpoly(_divided_wronskian(gs, R0)) == wronskian(map(Poly, gs))
    assert _divided_wronskian([[0, 0, 1]], R0) == [0, 0, 1]


def test_divided_wronskian_inexact_raises():
    R = sg.RamificationData((Fraction(0),),
                            (rd.partition_from_weight((0, 0), 1),))
    assert R.T[6] == [0, 1]  # T7 = x
    with pytest.raises(ValueError):
        _divided_wronskian([[1]], R)


def test_dependent_duals_are_rejected(monkeypatch):
    """dual_space checks independence once, through PolySpace: a dual
    family with two equal members raises ValueError.  The fault is planted
    in the divided minors, which the dual takes as its rows."""
    minors, duals = sg.zwronski_minors, []

    def planted(fs, levels, ts):
        duals.extend(minors(fs, levels, ts))
        return [duals[0]] + duals[:1] + duals[2:]

    monkeypatch.setattr(sg, "zwronski_minors", planted)
    # a cached dual of (X0, R0) would hide the planted fault, and a planted
    # dual that got cached would leak into later tests
    sg.dual_space.cache_clear()
    try:
        with pytest.raises(ValueError, match="linearly dependent"):
            sg.dual_space(X0, R0)
        assert len(duals) == 7
    finally:
        monkeypatch.undo()
        sg.dual_space.cache_clear()


def test_equal_spaces_hash_alike():
    """A space hashes on its canonical basis: two bases of one span give
    equal spaces with equal hashes, and one dict entry."""
    u = X0.flag_basis
    mixed = sg.PolySpace((u[0] + u[3], u[1] * 2, u[2], u[3], u[4] + u[6],
                          u[5], u[6]))
    assert mixed == X0 and hash(mixed) == hash(X0)
    monomials = sg.PolySpace([_mono(k) for k in range(7)])
    assert len({X0: 0, mixed: 1, monomials: 2}) == 1
    X, R, gamma = sg.bethe_kernel_instance((2, 1), 5)
    again = sg.PolySpace(list(reversed(gamma)))
    assert again == X and hash(again) == hash(X)
    assert hash(X) != hash(X0)


def test_dual_space_is_kept_per_space_and_ramification(monkeypatch):
    """dual_space computes the leave-one-out Wronskians once for the most
    recently used (X, R): an equal space rebuilt from another basis hits
    the cache, and the same X with another R is computed again and has
    another dual.  Each computation continues the prefix levels of X
    divided by R's T's, T_7 first, which are kept per (X, R): another R
    takes its own, and so does R again once R0 has replaced it."""
    calls, minors = [], sg.zwronski_minors
    levels, prefix, made = [], sg.zprefix_levels, []

    def counted(fs, given, ts):
        calls.append(fs)
        assert given is made[-1] and ts == levels[-1][1]
        return minors(fs, given, ts)

    def counted_levels(fs, ts):
        levels.append((fs, ts))
        made.append(prefix(fs, ts))
        return made[-1]
    monkeypatch.setattr(sg, "zwronski_minors", counted)
    monkeypatch.setattr(sg, "zprefix_levels", counted_levels)
    sg.dual_space.cache_clear()
    sg._levels.cache_clear()
    try:
        assert sg.dual_space.cache_info().maxsize == diffop.CASE_CACHE_SIZE
        assert sg._levels.cache_info().maxsize == diffop.CASE_CACHE_SIZE
        X, R, gamma = sg.bethe_kernel_instance((2, 1), 5)
        Xd = sg.dual_space(X, R)
        assert sg.dual_space(sg.PolySpace(gamma), R) is Xd
        assert len(calls) == 1 and levels == [(X.basis, R.T[::-1])]
        assert R.T[::-1][0] == R.T[6] and len(R.T[::-1]) == 7
        plain = sg.dual_space(X, R0)
        assert len(calls) == 2 and plain != Xd
        assert sg.dual_space(X, R0) is plain and len(calls) == 2
        assert sg.dual_space(X, R) == Xd and len(calls) == 3
        assert levels == [(X.basis, R.T[::-1]), (X.basis, R0.T[::-1]),
                          (X.basis, R.T[::-1])]
    finally:
        monkeypatch.undo()
        sg.dual_space.cache_clear()
        sg._levels.cache_clear()


def test_dual_space_monomials():
    Xd = sg.dual_space(X0, R0)
    assert _span_equal(list(Xd.flag_basis), list(X0.flag_basis))
    assert Xd == X0


def test_self_dual():
    assert sg.is_self_dual(X0, R0)
    bad = sg.PolySpace(tuple(_mono(k) for k in (0, 1, 2, 3, 4, 5, 7)))
    assert not sg.is_self_dual(bad, R0)


def test_self_dual_t_symmetry_fast_path():
    R = sg.RamificationData((Fraction(0),), ((1, 0, 0, 0, 0, 0, 0),))
    assert R.T[0] != R.T[5]  # asymmetric T-data
    assert not sg.is_self_dual(X0, R)


def test_kappa_monomials():
    g = kappa_form(X0, R0)
    for a in range(7):
        for b in range(7):
            assert (g[a][b] == 0) == (a + b != 6)
            assert g[a][b] == g[b][a]


def test_kappa_constants_match_the_monic_divided_wronskians():
    """The kappa_form oracle, whose divided Wronskians are over the
    primitive t_i and which rescales its constants once by their leading
    coefficients, gives the Gram matrix built from the divided Wronskians
    over the monic T products, on two Bethe kernels moved to the points
    (1/2, 3), where the T's at 1/2 are powers of 2x - 1."""
    spaces = []
    for lam, i in (((1, 0), 2), ((2, 1), 5)):
        c = diffop.case(lam, i)
        R = sg.RamificationData((Fraction(1, 2), Fraction(3), bethe.INF)[
            :len(c.data.z)], c.ramification.partitions)
        spaces.append((sg.PolySpace([_moved(r, 2, -1, 5)
                                     for r in c.flag_rows]), R))
    for X, R in spaces:
        r = X.basis
        w7 = _divided_wronskian(r, R)
        w = [_divided_wronskian(r[:j] + r[j + 1:], R) for j in range(7)]
        d = max(map(len, w + list(r)))
        pad = lambda p: [p[k] if k < len(p) else 0 for k in range(d)]
        A = [list(col) for col in zip(*map(pad, w))]
        C = [solve(A, pad(v)) for v in r]
        assert kappa_form(X, R) == [
            [C[b][a] * Fraction((-1) ** a * w7[0], r[a][-1] * r[b][-1])
             for b in range(7)] for a in range(7)]
    assert R.divisors[7][-1] != R.divisors[6][-1]


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
    sq = zmul(y.y1, y.y1)
    assert sg.y_from_basis(gamma, R) == (y.y1, y.y2, sq, sq, y.y2, y.y1)


def test_the_case_owns_its_flag():
    """bethe_kernel_instance reads the flag built once on the case, and
    sgrass.flag_from_factorization is the same construction."""
    *_, gamma = sg.bethe_kernel_instance((2, 1), 5)
    assert sg.bethe_kernel_instance((2, 1), 5)[2] is gamma
    c = diffop.case((2, 1), 5)
    assert c.flag is gamma
    T1, T2 = _monic(c.ramification.T[:2])
    assert sg.flag_from_factorization(c.space.flag_basis, c.y, T1, T2) == gamma


def test_dual_involution_on_bethe_instance():
    X, R, _ = sg.bethe_kernel_instance((1, 0), 2)
    Xdd = sg.dual_space(sg.dual_space(X, R), R)
    assert _span_equal(list(Xdd.flag_basis), list(X.flag_basis))
    assert Xdd == X


def test_space_wronskian_formula():
    X, R, _ = sg.bethe_kernel_instance((1, 1), 3)
    x = _mono(1)
    assert sg.space_wronskian(X) == \
        (x ** 21 * (x - Poly([1])) ** 7).monic()


def test_isotropic_examples():
    f = _mono(3)
    U = [_mono(0), _mono(4), _mono(5)]
    assert isotropic_definition_check(X0, R0, f, U)
    assert not isotropic_definition_check(X0, R0, f,
                                          [_mono(0), _mono(1), _mono(2)])
    # right isotropy, wrong Wronskian
    assert not isotropic_definition_check(X0, R0, f,
                                          [_mono(0), _mono(4), _mono(6)])


def _root(p):
    """The monic 7th root of the Poly p, from its integer row."""
    return zpoly(*sg._seventh_root(zclear(p.coeffs)[0]))


def test_reduced_wronski():
    assert _root(_mono(14)) == _mono(2)
    x = _mono(1)
    assert _root(x ** 7 * (x - Poly([1])) ** 7) == x * (x - Poly([1]))
    # an integer list stands for its monic multiple, whose root has
    # denominators: the root of (2x - 1)^14 is (x - 1/2)^2
    assert _root(prod([Poly([-1, 2])] * 14, start=Poly([1]))) == \
        Poly([Fraction(1, 4), -1, 1])
    assert sg.reduced_wronski(X0) == Poly([1])
    with pytest.raises(ValueError):
        _root(_mono(3))
    with pytest.raises(ValueError):
        _root(_mono(7) + Poly([1]))


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
    y1, y2 = monic(y.y1), monic(y.y2)
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
        # at least one row, zero once every image is: n columns all free
        ns = nullspace([[p[r] if r < len(p) else 0 for p in images]
                        for r in range(max(1, *map(len, images)))])
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
                                       default_degree_bound(lam, i))
        want = [p.coeffs for p in _flag_by_nullspaces(ker, y, T1, T2)]
        assert [p.coeffs for p in diffop.case(lam, i).flag] == want, (lam, i)
        assert [p.coeffs for p in sg.flag_from_factorization(
            ker, y, T1, T2)] == want, (lam, i)
        if k % 6 == 0:
            ker = ker[::-1]
            assert sg.flag_from_factorization(ker, y, T1, T2) == \
                _flag_by_nullspaces(ker, y, T1, T2), (lam, i)


def _wronski_det(gs):
    """Reference Wronskian of Polys: poly_det of the Wronski matrix, which
    shares nothing with the Jacobi recursion of sgrass."""
    rows = [list(gs)]
    for _ in range(len(gs) - 1):
        rows.append([p.derivative() for p in rows[-1]])
    return poly_det(rows if gs else [])


def _divided_by_division(gs, R):
    """Reference divided Wronskian: Wr(gs) divided by each T_{8-j}, j <= i,
    i + 1 - j times, by long division over Q."""
    i, w, T = len(gs), _wronski_det(list(gs)), _monic(R.T)
    for j in range(1, i + 1):
        for _ in range(i + 1 - j):
            w = w.exact_div(T[7 - j])
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
    # a reversed kernel basis: the flag and the search both stay the same
    for lam, i in GRID3[::6]:
        ker, y, T1, T2 = _factorization_data(lam, i)
        ker = ker[::-1]
        assert sg.flag_from_factorization(ker, y, T1, T2) == \
            _flag_by_wronskian_search(ker, y, T1, T2)


def test_bethe_flag_is_isotropic_witness():
    """The definition of a self-self-dual space holds with the witness the
    factorization flag gives: f = u_1, proportional to y_1, and U = <u_1,
    u_2, u_3>, whose Wronskian is proportional to T1^2 T2 y_1^2.  With u_4
    in place of u_3 it fails.  ssd_witness_check, which decides by the
    y-pattern instead, agrees on the flag and on the flag with u_3 and u_4
    exchanged."""
    for lam, i in GRID3:
        X, R, gamma = sg.bethe_kernel_instance(lam, i)
        y1 = monic(bethe.appendix_solution(lam, i).y1)
        assert isotropic_definition_check(X, R, y1, gamma[:3]), (lam, i)
        assert not isotropic_definition_check(
            X, R, y1, gamma[:2] + gamma[3:4]), (lam, i)
        assert sg.ssd_witness_check(X, R, gamma), (lam, i)
        exchanged = gamma[:2] + (gamma[3], gamma[2]) + gamma[4:]
        assert not sg.ssd_witness_check(X, R, exchanged), (lam, i)
    assert isotropic_definition_check(X0, R0, _mono(0),
                                      [_mono(0), _mono(1), _mono(2)])


def _planted_gram(monkeypatch, *entries):
    """kappa_form replaced by the symmetric form whose only nonzero entries
    are 1 at the given (a, b) and (b, a)."""
    gram = [[Fraction(0)] * 7 for _ in range(7)]
    for a, b in entries:
        gram[a][b] = gram[b][a] = Fraction(1)
    monkeypatch.setattr(oracles, "kappa_form", lambda X, R: gram)


def test_isotropic_check_rejects_a_non_isotropic_u(monkeypatch):
    """f = 1 and U = <1, x, x^2> on the monomial space: f is orthogonal to U
    and Wr(U) = T1^2 T2 f^2 up to a constant, but under a form with
    kappa(x, x) = 1 U is not isotropic, so only that condition fails."""
    _planted_gram(monkeypatch, (1, 1))
    assert not isotropic_definition_check(X0, R0, _mono(0),
                                          [_mono(0), _mono(1), _mono(2)])


def test_isotropic_check_rejects_f_not_perpendicular_to_u(monkeypatch):
    """f = x^3 and U = <1, x^4, x^5> on the monomial space pass under kappa;
    under a form whose only entry is kappa(x^3, x^4) = 1, U is still
    isotropic and Wr(U) = T1^2 T2 f^2, but f is not orthogonal to U, so
    only that condition fails."""
    U = [_mono(0), _mono(4), _mono(5)]
    assert isotropic_definition_check(X0, R0, _mono(3), U)
    _planted_gram(monkeypatch, (3, 4))
    assert not isotropic_definition_check(X0, R0, _mono(3), U)
    _planted_gram(monkeypatch, (2, 4))
    assert isotropic_definition_check(X0, R0, _mono(3), U)


def test_kappa_rejects_a_wrong_sign_on_one_dual_minor(monkeypatch):
    """With the sign of the divided Wronskian omitting u_1 flipped, the
    coordinates of every basis element in the dual basis change sign at
    that minor, so kappa(u_1, u_7) changes sign and kappa(u_7, u_1) does
    not: the form is not symmetric and kappa_form raises."""
    minors = oracles.zwronski_minors

    def planted(fs, levels, ts):
        w = minors(fs, levels, ts)
        return [zscale(-1, w[0])] + w[1:]
    assert kappa_form(X0, R0)
    monkeypatch.setattr(oracles, "zwronski_minors", planted)
    with pytest.raises(ValueError, match="not symmetric"):
        kappa_form(X0, R0)


def test_dual_space_is_the_subset_divided_wronskians():
    """dual_space is the span of the divided Wronskians of the 6-element
    subsets of a basis; _divided_wronskian is each of them exactly, for the
    integer rows of X, and its primitive part for the monic flag basis."""
    spaces = [(X0, R0), (X_HALF, R_HALF)]
    for lam, i in GRID3:
        X, R, _ = sg.bethe_kernel_instance(lam, i)
        spaces.append((X, R))
    for X, R in spaces:
        u, r = X.flag_basis, X.basis
        want = [_divided_by_division([u[j] for j in range(7) if j != omit], R)
                for omit in range(7)]
        assert sg.dual_space(X, R) == sg.PolySpace(want)
        for k in range(8):
            ref = _divided_by_division(u[:k], R)
            got = _divided_wronskian(r[:k], R)
            assert zpoly(got) == ref * prod(v[-1] for v in r[:k])


def test_y_from_basis_matches_divided_wronskians():
    X, R, gamma = sg.bethe_kernel_instance((2, 2), 4)
    for basis, ram in ((gamma, R), (X_HALF.flag_basis, R_HALF),
                       (X_HALF.basis, R_HALF)):
        polys = [p if isinstance(p, Poly) else Poly(p) for p in basis]
        want = tuple(_primitive(_divided_by_division(polys[:k], ram))
                     for k in range(6, 0, -1))
        assert sg.y_from_basis(basis, ram) == want
    # a dependent prefix: every later divided Wronskian vanishes
    ys = sg.y_from_basis((_mono(0), _mono(0)) + X0.flag_basis[2:], R0)
    assert ys[-1] == [1] and not any(ys[:-1])


def test_self_dual_factor_is_the_wronskian_ratio_root():
    cases = [(X0, R0), (X_HALF, R_HALF)]
    for lam, i in GRID3[::4]:
        X, R, _ = sg.bethe_kernel_instance(lam, i)
        cases.append((X, R))
    for X, R in cases:
        Xd = sg.dual_space(X, R)
        q = sg.space_wronskian(X).exact_div(sg.space_wronskian(Xd))
        g = sg.self_dual_factor(X, R)
        assert g is not None and g == _primitive(_root(q))
    assert sg.self_dual_factor(X_HALF, R_HALF) == [-1, 2]
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


GRID5 = [((a, b), i) for a in range(6) for b in range(6)
         for i in bethe.admissible_ls((a, b))]


def test_cached_levels_match_fresh_recursions_on_5_grid():
    """On every case of the 5-grid the space's cached levels give what each
    reader took from its own recursion before: the leave-one-out
    Wronskians, the full Wronskian and the y's of the case's flag
    (y_from_basis).  A random basis adapted to the space's
    degrees (row k times a nonzero integer plus integer multiples of the
    rows below) has the space's y's and passes as a witness; with its
    first two elements exchanged it takes its own y's and fails."""
    rng = random.Random(30)
    for lam, i in GRID5:
        c = diffop.case(lam, i)
        X, R = c.space, c.ramification
        r = X.basis
        assert zwronski_minors(r, sg._levels(X)) == zwronski_minors(r)
        assert sg.wronskian_row(X) == zwronskians(r)[-1]
        ys = sg._space_ys(X, R)
        assert ys == sg.y_from_basis(c.flag_rows, R)
        adapted = []
        for k in range(7):
            row = zscale(rng.choice((-3, -2, -1, 1, 2, 3)), r[k])
            for j in range(k):
                row = zadd(row, zscale(rng.randint(-3, 3), r[j]))
            adapted.append(row)
        assert sg.y_from_basis(adapted, R) == ys, (lam, i)
        assert sg.ssd_witness_check(X, R, adapted)
        swapped = [adapted[1], adapted[0]] + adapted[2:]
        assert not sg.ssd_witness_check(X, R, swapped), (lam, i)


def _divide(w, R, i):
    """Reference divided Wronskian of i elements from the undivided w: one
    exact division by t_i = R.divisors[i] made monic."""
    t = R.divisors[i]
    return zscale(t[-1], zquo(w, t))


def _moved(row, a, b, den):
    """den^d p((a x + b) / den) for the integer row of p of degree d: p with
    each point z taken to (den z - b) / a."""
    out, power, d = [], [1], len(row) - 1
    for k, c in enumerate(row):
        out = zadd(out, zscale(c * den ** (d - k), power))
        power = zmul(power, [b, a])
    return out


# the points (0, 1) kept, moved to (3, 4) and to (1/2, 3): (a, b, den)
MOVES = ((1, 0, 1), (1, -3, 1), (2, -1, 5))


def test_divided_recursion_matches_dividing_the_undivided_one():
    """On every case of the 5-grid, at its points (0, 1) and with the
    kernel and the flag moved to (3, 4) and to (1/2, 3), where the T's are
    not monic: each divided level entry, minor, y and the space Wronskian
    is the undivided recursion's followed by one exact division by t_i,
    up to t_i's leading coefficient, which the divided one leaves out."""
    for lam, i in GRID5:
        c = diffop.case(lam, i)
        for a, b, den in MOVES:
            flag = [_moved(r, a, b, den) for r in c.flag_rows]
            R = sg.RamificationData(
                tuple(z if z == bethe.INF else Fraction(den * z - b, a)
                      for z in c.data.z), c.ramification.partitions)
            X, ts = sg.PolySpace(flag), R.T[::-1]
            lead = [t[-1] for t in R.divisors]
            plain = zprefix_levels(X.basis)
            levels = sg._levels(X, R)
            assert len(levels) == len(plain) == 6
            for k, ((p, gs), (q, hs)) in enumerate(zip(levels, plain)):
                assert zscale(lead[k], p) == _divide(q, R, k)
                assert [zscale(lead[k + 1], g) for g in gs] == \
                    [_divide(h, R, k + 1) for h in hs], (lam, i, k)
            minors = zwronski_minors(X.basis, levels, ts)
            assert [zscale(lead[6], m) for m in minors] == \
                [_divide(m, R, 6) for m in zwronski_minors(X.basis, plain)]
            ws = [q for q, _ in plain] + [plain[-1][1][0]]
            assert sg._space_ys(X, R) == tuple(
                zprimitive(_divide(ws[k], R, k)) for k in range(6, 0, -1))
            swapped = [flag[1], flag[0]] + flag[2:]
            ws_swapped = zwronskians(swapped[:6])
            assert sg.y_from_basis(swapped, R) == tuple(
                zprimitive(_divide(ws_swapped[k], R, k))
                for k in range(6, 0, -1))
            w = zprimitive(zwronskian_past(plain))
            assert zprimitive(sg.wronskian_row(X, R)) == w
            assert w == zprimitive(R.divisors[7]), (lam, i, a, b, den)


def test_a_perturbed_basis_row_fails_the_dual_space():
    """One coefficient added to one row of the kernel basis takes the space
    off its ramification: dual_space raises at the first inexact level."""
    X, R, _ = sg.bethe_kernel_instance((2, 1), 5)
    rows = [list(r) for r in X.basis]
    rows[3][0] += 1
    bad = sg.PolySpace(rows)
    sg.dual_space.cache_clear()
    with pytest.raises(ValueError, match="inexact polynomial division"):
        sg.dual_space(bad, R)
    assert sg.dual_space(X, R)


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
        gd = [zpoly(zmul(g, v)) for v in Xd.basis]
        for p in gd + list(X.flag_basis):
            c = coordinates(X, p)
            assert c is not None and c == _solved_coordinates(X, p)
        assert _span_equal(gd, list(X.flag_basis))
        gap = next(d for d in range(X.degrees[-1]) if d not in X.degrees)
        k = (lam[0] + i) % 7
        planted = gd[:k] + [gd[k] + _mono(gap) * Fraction(1, 7)] + gd[k + 1:]
        assert coordinates(X, planted[k]) is None
        assert _solved_coordinates(X, planted[k]) is None
        assert not _span_equal(planted, list(X.flag_basis)), (lam, i)


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
        assert repr(_monic(got)) == repr(_T_by_fraction_powers(z, parts)), z
        assert all(t == zprimitive(t) and t[-1] > 0 for t in got)
    with pytest.raises(ValueError):
        sg.RamificationData((Fraction(0),), ((0,) * 6 + (-1,),))


def test_ramification_rejects_repeated_points():
    """Repeated points, infinite ones included, are rejected as BetheData
    rejects them."""
    part = rd.partition_from_weight((1, 1), 0)
    for z in ((Fraction(0), Fraction(0)), (bethe.INF, bethe.INF)):
        with pytest.raises(ValueError, match="distinct"):
            sg.RamificationData(z, (part, part))


def _flag_adapted(basis):
    """Reference echelon basis over Q (the construction before the integer
    one): by increasing degree, each leading term removed by the monic
    element of that degree until the degree is new; strictly increasing
    degrees, monic, not reduced below the leading terms."""
    out = {}
    for q in sorted(basis, key=lambda p: p.degree):
        while q and q.degree in out:
            q = q - out[q.degree] * q.leading()  # out[d] monic
        if q.is_zero():
            raise ValueError("basis is linearly dependent")
        out[q.degree] = q.monic()
    return tuple(out[d] for d in sorted(out))


def _fraction_coordinates(flag, p):
    """Reference coordinates of p in a monic basis with strictly increasing
    degrees, or None if p is not in its span: p reduced over Q one leading
    term at a time."""
    slot = {u.degree: k for k, u in enumerate(flag)}
    coords = [Fraction(0)] * len(flag)
    while p:
        k = slot.get(p.degree)
        if k is None:
            return None
        coords[k] = p.leading()
        p = p - flag[k] * coords[k]
    return coords


def _rref_basis(basis):
    """Reference reduced echelon basis: the rational rref of the coefficient
    matrix with the highest degree first, as monic Polys by increasing
    degree; None if the rank is below len(basis)."""
    d = max(p.degree for p in basis)
    red, pivots = rref([[p[d - c] for c in range(d + 1)] for p in basis])
    if len(pivots) < len(basis):
        return None
    return tuple(Poly(row[::-1]) for row in red[::-1])


_small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_unit = _small.filter(bool)


@st.composite
def _bases(draw):
    """7 polynomials with rational coefficients and degrees below 9, drawn
    so that equal degrees are common; in about half the draws one of them
    is a rational combination of the others."""
    polys = [Poly(draw(st.lists(_small, min_size=d, max_size=d))
                  + [draw(_unit)])
             for d in draw(st.lists(st.integers(0, 8), min_size=7,
                                    max_size=7))]
    if draw(st.booleans()):
        k = draw(st.integers(0, 6))
        polys[k] = sum((c * p for j, (c, p) in enumerate(
            zip(draw(st.lists(_small, min_size=7, max_size=7)), polys))
            if j != k), Poly())
    return polys


@given(_bases(), st.lists(_small, min_size=7, max_size=7),
       st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_integer_space_matches_fraction_oracles(basis, combo, extra):
    """PolySpace on Z[x] spans what the Fraction echelon spans, with the same
    degrees, holds the monic rows of the rational rref as its flag basis,
    is equal for the two bases, and decides membership and coordinates as
    the Fraction reduction does; a dependent set raises in all three."""
    want = _rref_basis(basis)
    if want is None:
        with pytest.raises(ValueError, match="linearly dependent"):
            _flag_adapted(basis)
        with pytest.raises(ValueError, match="linearly dependent"):
            sg.PolySpace(basis)
        return
    flag = _flag_adapted(basis)
    X = sg.PolySpace(basis)
    assert X.flag_basis == want
    assert X.degrees == tuple(u.degree for u in flag)
    assert sg.PolySpace(flag) == X
    assert all(r == zprimitive(r) and r[-1] > 0 for r in X.basis)
    member = sum((c * u for c, u in zip(combo, flag)), Poly())
    for p in (member, member + _mono(extra)):
        got = coordinates(X, p)
        assert got == _fraction_coordinates(X.flag_basis, p)
        assert (got is None) == (_fraction_coordinates(flag, p) is None)
    assert coordinates(X, member) is not None


def test_ssd_witness_must_span_the_space():
    """A witness is an ordered basis of X: the flag of another space with
    the same ramification, the flag with an eighth element or with one
    left out, and a flag with a dependent element all fail; the flag
    itself and the flag as integer lists pass."""
    _, R0, other = sg.bethe_kernel_instance((1, 1), 0)
    X, R, gamma = sg.bethe_kernel_instance((1, 1), 6)
    assert R0 == R and sg.is_self_dual(X, R)
    for bad in (other, gamma + gamma[:1], gamma[:6],
                gamma[:6] + (gamma[0] * 2,)):
        assert not sg.ssd_witness_check(X, R, bad)
    assert sg.ssd_witness_check(X, R, gamma)
    assert sg.ssd_witness_check(X, R, diffop.case((1, 1), 6).flag_rows)


def _unimodular_mix(basis, rng):
    """The basis under a random integer matrix of determinant +-1: a product
    of row additions with multipliers in -3..3 and row exchanges."""
    rows = list(basis)
    for _ in range(12):
        i, j = rng.sample(range(len(rows)), 2)
        if rng.random() < 0.2:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = rows[i] + rows[j] * rng.randint(-3, 3)
    return rows


def test_flag_is_independent_of_the_kernel_basis_on_3_grid():
    """flag_from_factorization is Case.flag for a random unimodular mix of
    the kernel basis, on every case of the 3-grid."""
    rng = random.Random(15)
    for lam, i in GRID3:
        ker, y, T1, T2 = _factorization_data(lam, i)
        mixed = _unimodular_mix(ker, rng)
        assert sg.flag_from_factorization(mixed, y, T1, T2) == \
            diffop.case(lam, i).flag, (lam, i)
