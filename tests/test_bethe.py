"""Closed-form Bethe solutions, fertility, and reproduction."""

from fractions import Fraction

import pytest

from g2gaudin import bethe, verify
from g2gaudin import rootdata as rd
from g2gaudin.bethe import INF, L_LIST, BetheData, PolyPair
from g2gaudin.exact import Poly, poly_gcd, wronskian, zpoly
from g2gaudin.linalg import solve

Z = (Fraction(0), Fraction(1))
X = Poly([0, 1])


def _grid(hi):
    return [((a, b), i) for a in range(hi + 1) for b in range(hi + 1)
            for i in bethe.admissible_ls((a, b))]


# The Fraction Poly implementations that the integer Bethe layer replaced,
# kept as oracles.

def _solve_cleared_ref(y, r, a):
    dy = y.degree
    D = max(r.degree - dy, dy - a, 0)
    xy = X * y
    xyp = X * y.derivative()
    ay = y * Fraction(a)
    nrows = max(dy + D + 1, r.degree + 1)
    cols = []
    for k in range(D + 1):
        g = Poly([Fraction(0)] * k + [Fraction(1)])
        img = ay * g + xy * g.derivative() - xyp * g
        cols.append([img[row] for row in range(nrows)])
    A = [[cols[k][row] for k in range(D + 1)] for row in range(nrows)]
    sol = solve(A, [r[row] for row in range(nrows)])
    if sol is None:
        return None
    g = Poly(sol)
    if a <= 0 or y.valuation() >= a:
        ker = Poly(([Fraction(0)] * (-a) + list(y.coeffs)) if a <= 0
                   else list(y.coeffs[a:]))
        dk = ker.degree
        if dk >= 0 and g[dk]:
            g = g - ker * (g[dk] / ker.leading())
    return g


def _is_generic_ref(y, Lambda, z):
    for j, yj in enumerate((y.y1, y.y2)):
        if poly_gcd(yj, yj.derivative()).degree > 0:
            return False
        sing = Poly([Fraction(1)])
        for lam, p in zip(Lambda, z):
            if p != INF and lam[j] != 0:
                sing = sing * Poly([-Fraction(p), Fraction(1)])
        if poly_gcd(yj, sing).degree > 0:
            return False
    return poly_gcd(y.y1, y.y2).degree <= 0


def _affine_map_poly(p, c, s):
    """Monic image of p under x -> (x - c)/s (roots move by t -> c + s t)."""
    c, s = Fraction(c), Fraction(s)
    q = Poly([-c / s, 1 / s])
    acc = Poly()
    for coef in reversed(p.coeffs):
        acc = acc * q + Poly([coef])
    return acc.monic() if not acc.is_zero() else acc


def translate_pair(y, z1, z2):
    """Move a solution normalized at z = (0, 1) to points (z1, z2)."""
    s = Fraction(z2) - Fraction(z1)
    return PolyPair(_affine_map_poly(y.y1, Fraction(z1), s),
                    _affine_map_poly(y.y2, Fraction(z1), s))


def _same(got, want):
    """Equal polynomial coefficients, or both None."""
    return (got is None) == (want is None) and (
        got is None or got.coeffs == want.coeffs)


def _fertility_inputs(y, Lambda, z):
    """(y_j, r, a) of the two solves behind fertility_solve(y_j, F_j, a)
    for F_1 = T_1 y_2 and F_2 = T_2 y_1^3, a = <lambda^(1), coroot_j> + 1;
    at z_1 = 0 the rhs is divisible by x^(a - 1), elsewhere a = 0."""
    T1, T2 = bethe.build_calT(Lambda, z)
    out = []
    for j, (yj, F) in enumerate(((y.y1, T1 * y.y2), (y.y2, T2 * y.y1 ** 3))):
        e = Lambda[0][j] if z[0] == 0 else -1
        out.append((yj, Poly(F.coeffs[e:]) if e >= 0 else F * X, e + 1))
    return out


def test_l_list_and_alpha():
    assert L_LIST[0] == (0, 0) and L_LIST[6] == (2, 4)
    for l in L_LIST:
        assert bethe.l_of_alpha(bethe.alpha_of_l(l)) == l


def test_admissible_cases():
    assert bethe.admissible_ls((0, 0)) == [0]
    assert bethe.admissible_ls((0, 1)) == [0, 1, 3, 6]
    assert bethe.admissible_ls((2, 2)) == [0, 1, 2, 3, 4, 5, 6]


def test_calT():
    T1, T2 = bethe.build_calT([(1, 1), rd.OMEGA2], Z)
    assert T1 == Poly([0, 1])
    assert T2 == Poly([0, 1]) * Poly([-1, 1])
    # weight at infinity contributes no factor
    T1i, _ = bethe.build_calT([(1, 1), (2, 0)], [Fraction(0), INF])
    assert T1i == Poly([0, 1])


def test_appendix_case1_printed_value():
    y = bethe.appendix_solution((1, 1), 1)
    assert y.y1 == Poly([1])
    assert y.y2.monic() == Poly([Fraction(-1, 2), 1])


def test_appendix_degrees_match_l():
    for lam in ((1, 1), (2, 3)):
        for i in bethe.admissible_ls(lam):
            y = bethe.appendix_solution(lam, i)
            assert (max(y.y1.degree, 0), max(y.y2.degree, 0)) == L_LIST[i]


def test_inadmissible_raises():
    with pytest.raises(ValueError):
        bethe.appendix_solution((0, 0), 1)


def test_genericity():
    lam = (1, 1)
    Lam = [lam, rd.OMEGA2]
    for i in bethe.admissible_ls(lam):
        assert bethe.is_generic(bethe.appendix_solution(lam, i), Lam, Z)
    # a pair sharing a root with T is not generic
    bad = PolyPair(Poly([0, 1]), Poly([1]))
    assert not bethe.is_generic(bad, Lam, Z)


def test_fertility_solve_examples():
    x = Poly([0, 1])
    # antiderivative case
    g = bethe.fertility_solve(Poly([1]), Poly([0, 2]), 0)
    assert g == x * x
    # first-order case with kernel canonicalized away
    g = bethe.fertility_solve(x, x * x, 0)
    assert g == x * x
    # constant right-hand side: the witness -1 satisfies x*g' - g = 1
    g = bethe.fertility_solve(x, Poly([1]), 0)
    assert g == Poly([-1])
    assert wronskian([x, g]) == Poly([1])


def test_fertility_identities():
    lam = (2, 1)
    T1, T2 = bethe.build_calT([lam, rd.OMEGA2], Z)
    x = Poly([0, 1])
    for i in bethe.admissible_ls(lam):
        y = bethe.appendix_solution(lam, i)
        g1 = bethe.fertility_solve(y.y1, T1 * y.y2, lam[0] + 1)
        g2 = bethe.fertility_solve(y.y2, T2 * y.y1 ** 3, lam[1] + 1)
        assert wronskian([y.y1, x ** (lam[0] + 1) * g1]) == T1 * y.y2
        assert wronskian([y.y2, x ** (lam[1] + 1) * g2]) == T2 * y.y1 ** 3


def test_bae_residual():
    lam = (1, 2)
    for i in bethe.admissible_ls(lam):
        y = bethe.appendix_solution(lam, i)
        assert bethe.bae_residual(y, [lam, rd.OMEGA2], list(Z)) < 1e-9
    # a wrong pair has a large residual
    wrong = bethe.appendix_solution(lam, 6)
    data_l = L_LIST[5]
    r = bethe.bae_residual(PolyPair(wrong.y1, wrong.y2 + Poly([1])),
                           [lam, rd.OMEGA2], list(Z))
    assert r > 1e-6


def test_reproduction_chain_case2():
    lam = (1, 1)
    chain = (2, 1)
    theta = rd.shifted_action_word(chain, lam)
    data = BetheData((theta, rd.OMEGA2), Z, (0, 0))
    y = PolyPair(Poly([1]), Poly([1]))
    for d in chain:
        y, data = bethe.reproduce(y, d, data)
    assert data.Lambda[0] == lam and data.l == L_LIST[2]
    assert y.proportional(bethe.appendix_solution(lam, 2))


def test_reproduction_involution():
    lam = (2, 1)
    i = 3
    y = bethe.appendix_solution(lam, i)
    data = BetheData((lam, rd.OMEGA2), Z, L_LIST[i])
    for d in (1, 2):
        out = bethe.reproduce(y, d, data)
        if out is None:
            continue
        back = bethe.reproduce(out[0], d, out[1])
        assert back is not None
        assert back[0].proportional(y)
        assert back[1].l == data.l and back[1].Lambda == data.Lambda


def test_translate_pair():
    y = bethe.appendix_solution((1, 1), 1)
    moved = translate_pair(y, Fraction(2), Fraction(5))
    assert bethe.bae_residual(moved, [(1, 1), rd.OMEGA2],
                              [Fraction(2), Fraction(5)]) < 1e-9


def test_calT_at_rational_points():
    half = Poly([Fraction(-1, 2), 1])
    T1, T2 = bethe.build_calT([(2, 1), (0, 3)],
                              [Fraction(1, 2), Fraction(-2, 3)])
    assert T1 == half ** 2
    assert T2 == half * Poly([Fraction(2, 3), 1]) ** 3
    with pytest.raises(ValueError):
        bethe.build_calT([(1, -1), rd.OMEGA2], Z)


def test_solve_cleared_matches_oracle_on_5_grid():
    n = 0
    for lam, i in _grid(5):
        y = bethe.appendix_solution(lam, i)
        for yj, r, a in _fertility_inputs(y, [lam, rd.OMEGA2], Z):
            got = bethe._solve_cleared(yj, r, a)
            assert got is not None and _same(got, _solve_cleared_ref(yj, r, a))
            # a right-hand side off by one: no witness, or the same one
            r1 = r + Poly([1])
            assert _same(bethe._solve_cleared(yj, r1, a),
                         _solve_cleared_ref(yj, r1, a)), (lam, i)
            n += 1
    assert n == 420


def test_solve_cleared_matches_oracle_on_reproduction_chains(monkeypatch):
    calls, real = [], bethe._solve_cleared

    def record(y, r, a):
        calls.append((y, r, a))
        return real(y, r, a)
    monkeypatch.setenv("G2_LMAX", "3")
    monkeypatch.setattr(bethe, "_solve_cleared", record)
    assert verify.check_reproduction()[0]
    monkeypatch.undo()
    assert any(a <= 0 for _, _, a in calls)
    for y, r, a in calls:
        assert _same(real(y, r, a), _solve_cleared_ref(y, r, a)), (y, r, a)


NONGENERIC = [
    # (pair, points, generic): the first weight is (1, 1), the second omega2
    (PolyPair((X - 2) ** 2, Poly([1])), Z, False),          # repeated root
    (PolyPair(Poly([1]), (X - 3) * (X - 2) ** 2), Z, False),
    (PolyPair(X, X - 2), Z, False),                         # root at z_1
    # a double root at z_1: valuation(y_1) >= a = 2, so the homogeneous
    # solution y_1 / x^2 is polynomial
    (PolyPair(X ** 2, X - 2), Z, False),
    (PolyPair(X - 2, X - 1), Z, False),                     # root at z_2
    (PolyPair(X - 1, X - 2), Z, True),  # <omega2, coroot_1> = 0: no pole
    (PolyPair(X - 3, (X - 3) * (X + 1)), Z, False),         # shared root
    (PolyPair(X - 2, X + 1), Z, True),
    (PolyPair(X - 2, X - Fraction(1, 2)), (0, Fraction(1, 2)), False),
    (PolyPair(X - Fraction(1, 2), X - 2), (0, Fraction(1, 2)), True),
    (PolyPair(2 * X - 1, X * X - 3), (0, Fraction(1, 2)), True),
    (PolyPair(X - 2, (2 * X - 1) * (X + 4)), (0, Fraction(1, 2)), False),
]


@pytest.mark.parametrize("y, z, generic", NONGENERIC)
def test_genericity_and_solve_match_oracles(y, z, generic):
    Lam = [(1, 1), rd.OMEGA2]
    assert bethe.is_generic(y, Lam, z) is _is_generic_ref(y, Lam, z) is generic
    for yj, r, a in _fertility_inputs(y, Lam, z):
        assert _same(bethe._solve_cleared(yj, r, a),
                     _solve_cleared_ref(yj, r, a))


def test_translated_pairs_match_oracles():
    z = (Fraction(2), Fraction(5))
    for i in bethe.admissible_ls((2, 1)):
        Lam = [(2, 1), rd.OMEGA2]
        moved = translate_pair(bethe.appendix_solution((2, 1), i), *z)
        assert bethe.is_generic(moved, Lam, z)
        assert _is_generic_ref(moved, Lam, z)
        assert bethe.bae_exact(moved, *bethe.zcalT(Lam, z))
        for yj, r, a in _fertility_inputs(moved, Lam, z):
            got = bethe._solve_cleared(yj, r, a)
            assert got is not None and _same(got, _solve_cleared_ref(yj, r, a))


def _fertile(y, Lambda):
    """Both fertility witnesses exist, at z = (0, 1)."""
    F = bethe.fertility_rhs(y, *bethe.zcalT(Lambda, Z))
    return all(bethe.fertility_solve(yj, zpoly(Fj), Lambda[0][j] + 1)
               is not None for j, (yj, Fj) in enumerate(zip((y.y1, y.y2), F)))


def test_exact_gate_rejects_every_perturbed_coefficient():
    # +1 on one coefficient of a nonconstant y_j; a constant y_j is left
    # alone, since a multiple of a solution is the same solution.  On a
    # generic pair the exact gate and fertility decide the same thing.
    rejected = {"generic": 0, "exact": 0}
    for lam, i in _grid(3):
        Lam = [lam, rd.OMEGA2]
        T = bethe.zcalT(Lam, Z)
        y = bethe.appendix_solution(lam, i)
        assert bethe.bae_exact(y, *T) and _fertile(y, Lam)
        for j, yj in enumerate((y.y1, y.y2)):
            for k in range(yj.degree + 1 if yj.degree > 0 else 0):
                cs = list(yj.coeffs)
                cs[k] += 1
                bad = (PolyPair(Poly(cs), y.y2) if j == 0
                       else PolyPair(y.y1, Poly(cs)))
                if not bethe.is_generic(bad, Lam, Z):
                    rejected["generic"] += 1
                    continue
                assert not bethe.bae_exact(bad, *T), (lam, i, j, k)
                assert not _fertile(bad, Lam), (lam, i, j, k)
                assert bethe.bae_residual(bad, Lam, Z) > 1e-6, (lam, i, j, k)
                rejected["exact"] += 1
    assert rejected == {"generic": 5, "exact": 355}


def test_exact_gate_follows_the_weights():
    # a solution for lambda fails the equations of a neighbouring weight
    # wherever that weight enters them: through y_1 for lambda_1, y_2 for
    # lambda_2
    lam = (2, 1)
    for i in bethe.admissible_ls(lam):
        y = bethe.appendix_solution(lam, i)
        for yj, other in ((y.y1, (3, 1)), (y.y2, (2, 2))):
            T = bethe.zcalT([other, rd.OMEGA2], Z)
            assert bethe.bae_exact(y, *T) is (yj.degree < 1), (i, other)


def test_bae_grid_suite_gates_on_exact_equations(monkeypatch):
    monkeypatch.setenv("G2_LMAX", "1")
    assert verify.check_bae_grid() == (True, "14 cases on the 1-grid; "
                                              "Bethe equations exact")
    # a planted wrong pair: y_2 + 1 for (1, 1), case 1
    real = bethe.appendix_solution

    def planted(lam, i):
        y = real(lam, i)
        return PolyPair(y.y1, y.y2 + Poly([1])) if (lam, i) == ((1, 1), 1) \
            else y
    monkeypatch.setattr(bethe, "appendix_solution", planted)
    assert verify.check_bae_grid() == (
        False, "Bethe equations fail at (1, 1), case 1")
