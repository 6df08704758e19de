"""Closed-form Bethe solutions, fertility, and reproduction."""

import random
import re
from fractions import Fraction

import pytest

from g2gaudin import bethe, diffop, repn, verify
from g2gaudin import rootdata as rd
from g2gaudin.bethe import INF, L_LIST, BetheData, PolyPair
from g2gaudin.exact import (Poly, wronskian, zadd, zmul, zpoly, zrow, zscale,
                            zwr)
from oracles import (fraction_closed_form_pair, is_generic_by_gcd, monic,
                     solve, valuation, zcalT)

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
    if a <= 0 or valuation(y) >= a:
        ker = Poly(([Fraction(0)] * (-a) + list(y.coeffs)) if a <= 0
                   else list(y.coeffs[a:]))
        dk = ker.degree
        if dk >= 0 and g[dk]:
            g = g - ker * (g[dk] / ker.leading())
    return g


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
    return PolyPair(_affine_map_poly(monic(y.y1), Fraction(z1), s),
                    _affine_map_poly(monic(y.y2), Fraction(z1), s))


def _same(got, want):
    """Equal polynomial coefficients, or both None."""
    return (got is None) == (want is None) and (
        got is None or got.coeffs == want.coeffs)


def _solve(Y, R, a):
    """fertility_solve(Y, R, a) as the Poly G / c, or None, after checking
    c > 0 and a Y G + x (Y G' - Y' G) = c R on Z[x]."""
    sol = bethe.fertility_solve(Y, R, a)
    if sol is None:
        return None
    G, c = sol
    assert c > 0 and zadd(zscale(a, zmul(Y, G)), [0] + zwr(Y, G)) == \
        zscale(c, R), (Y, R, a)
    return zpoly(G, c)


def _solve_ref(Y, R, a):
    return _solve_cleared_ref(zpoly(Y), zpoly(R), a)


def _fertility_inputs(y, Lambda, z):
    """(Y_j, R, a) of the two solves behind the fertility witnesses of
    Wr(y_j, x^a g) = F_j for F_1 = T_1 y_2 and F_2 = T_2 y_1^3, a =
    <lambda^(1), coroot_j> + 1, as integer lists: at z_1 = 0, R is F_j
    divided by x^(a - 1); elsewhere a = 0 and R is x F_j."""
    T1, T2 = bethe.build_calT(Lambda, z)
    y1, y2 = monic(y.y1), monic(y.y2)
    out = []
    for j, (yj, F) in enumerate(((y1, T1 * y2), (y2, T2 * y1 ** 3))):
        e = Lambda[0][j] if z[0] == 0 else -1
        r = Poly(F.coeffs[e:]) if e >= 0 else F * X
        out.append((zrow(yj), zrow(r), e + 1))
    return out


def test_l_list_and_alpha():
    assert L_LIST[0] == (0, 0) and L_LIST[6] == (2, 4)
    for l in L_LIST:
        assert bethe.l_of_alpha(rd.from_alpha(*l)) == l


def test_admissible_cases():
    assert bethe.admissible_ls((0, 0)) == [0]
    assert bethe.admissible_ls((0, 1)) == [0, 1, 3, 6]
    assert bethe.admissible_ls((2, 2)) == [0, 1, 2, 3, 4, 5, 6]
    # each admissible case is one summand of V_lam (x) V_omega2
    for lam in ((0, 0), (0, 1), (1, 0), (2, 2)):
        assert {repn.summand_weight(lam, i)
                for i in bethe.admissible_ls(lam)} == \
            set(repn.tensor_decompose(lam, rd.OMEGA2))


def test_calT():
    T1, T2 = bethe.build_calT([(1, 1), rd.OMEGA2], Z)
    assert T1 == Poly([0, 1])
    assert T2 == Poly([0, 1]) * Poly([-1, 1])
    # weight at infinity contributes no factor
    T1i, _ = bethe.build_calT([(1, 1), (2, 0)], [Fraction(0), INF])
    assert T1i == Poly([0, 1])
    # but it must be dominant there too, as at a finite point
    for z in ([0, INF], [0, 1]):
        with pytest.raises(ValueError, match="not dominant"):
            bethe.ramification([(1, 1), (1, -1)], z)


def test_appendix_case1_printed_value():
    y = bethe.appendix_solution((1, 1), 1)
    assert (y.y1, y.y2) == ([1], [-1, 2])
    assert monic(y.y2) == Poly([Fraction(-1, 2), 1])


def test_appendix_degrees_match_l():
    for lam in ((1, 1), (2, 3)):
        for i in bethe.admissible_ls(lam):
            y = bethe.appendix_solution(lam, i)
            assert (len(y.y1) - 1, len(y.y2) - 1) == L_LIST[i]


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
    # antiderivative case, Wr(1, g) = 2x: at a = 0 the equation is x g' = 2x^2
    assert _solve([1], [0, 0, 2], 0) == x * x
    # first-order case with kernel canonicalized away: Wr(x, g) = x^2
    assert _solve([0, 1], [0, 0, 0, 1], 0) == x * x
    # constant right-hand side: the witness -1 satisfies x*g' - g = 1
    g = _solve([0, 1], [0, 1], 0)
    assert g == Poly([-1])
    assert wronskian([x, g]) == Poly([1])
    # a = 2, y = 2x - 1: Wr(y, x^2) = x (2x - 2), and of the solutions
    # x^2 + C y of Wr(y, H) = x (2x - 2) only C = 0 is divisible by x^2
    assert _solve([-1, 2], [-2, 2], 2) == Poly([1])
    # a = 1, y = x: Wr(x, x g) = x^2 g'; x^(-1) y = 1 is polynomial, so the
    # canonical g has no constant term, and x^2 g' = 1 has no solution
    assert _solve([0, 1], [0, 0, 1], 1) == x
    assert bethe.fertility_solve([0, 1], [1], 1) is None


def test_fertility_identities():
    """The witnesses (G_j, c_j) of (2, 1) satisfy Wr(y_j, x^a G_j) = c_j F_j
    on Z[x], and over Q by the Fraction Wronskian of the Polys."""
    lam = (2, 1)
    T = zcalT([lam, rd.OMEGA2], Z)
    x = Poly([0, 1])
    for i in bethe.admissible_ls(lam):
        y = bethe.appendix_solution(lam, i)
        for Y, F, a in zip((y.y1, y.y2), bethe.fertility_rhs(y, *T),
                           (lam[0] + 1, lam[1] + 1)):
            G, c = bethe.fertility_solve(Y, F[a - 1:], a)
            assert c > 0 and zwr(Y, [0] * a + G) == zscale(c, F)
            assert wronskian([zpoly(Y), x ** a * zpoly(G, c)]) == zpoly(F)


def test_bae_residual():
    lam = (1, 2)
    for i in bethe.admissible_ls(lam):
        y = bethe.appendix_solution(lam, i)
        assert bethe.bae_residual(y, [lam, rd.OMEGA2], list(Z)) < 1e-9
    # a wrong pair has a large residual
    wrong = bethe.appendix_solution(lam, 6)
    data_l = L_LIST[5]
    r = bethe.bae_residual(PolyPair(wrong.y1, monic(wrong.y2) + 1),
                           [lam, rd.OMEGA2], list(Z))
    assert r > 1e-6


def test_reproduction_chain_case2():
    lam = (1, 1)
    chain = (2, 1)
    theta = rd.shifted_action_word(chain, lam)
    data = BetheData((theta, rd.OMEGA2), Z, (0, 0))
    y = PolyPair([1], [1])
    for d in chain:
        y, data = bethe.reproduce(y, d, data)
    assert data.Lambda[0] == lam and data.l == L_LIST[2]
    assert y == bethe.appendix_solution(lam, 2)
    # == compares lines: any nonzero multiples, not a shifted pair
    assert y == PolyPair(monic(y.y1) * 3, monic(y.y2) * Fraction(-1, 2))
    assert y != PolyPair(y.y1, monic(y.y2) + 1)


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
        assert back[0] == y
        assert back[1].l == data.l and back[1].Lambda == data.Lambda


def test_reproduce_names_an_undefined_step():
    """The trivial pair at Lambda_1 = (1, -2): a step in direction 1 (a = 2)
    exists, and direction 2, at a = <Lambda_1 + rho, coroot_2> = -1, has
    no witness and raises naming the direction and a.  The step back of a
    reproduced pair, also at a <= 0, still exists."""
    one = PolyPair([1], [1])
    data = BetheData(((1, -2), rd.OMEGA2), Z, (0, 0))
    assert bethe.reproduce(one, 1, data) is not None
    with pytest.raises(ValueError) as exc:
        bethe.reproduce(one, 2, data)
    assert str(exc.value) == ("no reproduction step in direction 2: a = "
                              "<Lambda_1 + rho, coroot_2> = -1 <= 0 and no "
                              "fertility witness")
    y, out = bethe.reproduce(bethe.appendix_solution((1, 1), 2), 2,
                             BetheData(((1, 1), rd.OMEGA2), Z, L_LIST[2]))
    assert out.Lambda[0][1] + 1 == -2
    assert bethe.reproduce(y, 2, out)[0] == \
        bethe.appendix_solution((1, 1), 2)


@pytest.mark.parametrize("j", [1, 2])
def test_reproduce_rejects_a_pair_that_is_not_a_solution(j):
    """+1 on y_j of the case (1, 1)/2, a step at a = 2 in direction j: no
    witness, and the message says the input is not a solution."""
    y = bethe.appendix_solution((1, 1), 2)
    ys = [monic(y.y1), monic(y.y2)]
    ys[j - 1] = ys[j - 1] + 1
    with pytest.raises(ValueError) as exc:
        bethe.reproduce(PolyPair(*ys), j, bethe.closed_form((1, 1), 2))
    assert str(exc.value) == ("no fertility witness; input does not "
                              "represent a solution")


def test_value_classes_are_immutable_and_compare_by_value():
    """PolyPair, BetheData and RamificationData: fields fixed at
    construction, == and hash by value and class, and RamificationData
    compares its points and partitions (which determine its T's).  A
    PolyPair holds the lines of y1 and y2, as primitive integer rows with
    positive leading coefficient: it equals and hashes like any rescaled
    copy, given as Polys or as integer lists, and differs from a pair with
    +1 on the constant coefficient of monic y2."""
    y = bethe.appendix_solution((1, 1), 2)
    data = bethe.closed_form((1, 1), 2)
    parts = (rd.partition_from_weight((1, 1), 0),
             rd.partition_from_weight(rd.OMEGA2, 0))
    R = bethe.RamificationData(list(Z), [list(p) for p in parts])
    assert (R.z, R.partitions) == (Z, parts)
    rescaled = PolyPair(monic(y.y1) * 3, monic(y.y2) * Fraction(-2, 5))
    for a, b in ((y, PolyPair(list(y.y1), list(y.y2))), (y, rescaled),
                 (y, PolyPair(zscale(-4, y.y1), y.y2)),
                 (data, BetheData(((1, 1), rd.OMEGA2), Z, L_LIST[2])),
                 (R, bethe.RamificationData(Z, parts))):
        assert a == b and hash(a) == hash(b) and a is not b
        assert len({a, b}) == 1
        field = {PolyPair: "y1", BetheData: "z"}.get(type(a), "T")
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert (rescaled.y1, rescaled.y2) == (y.y1, y.y2) == ([-7, 16], [-7, 8])
    R.divisors  # a cached attribute is still written once
    assert "divisors" in vars(R)
    assert y != PolyPair(y.y2, y.y1) and y != PolyPair(y.y1, monic(y.y2) + 1)
    assert y != (y.y1, y.y2) and R != (R.z, R.partitions)
    assert data != BetheData(data.Lambda, data.z, (0, 0))
    assert R != bethe.RamificationData(Z, parts[::-1])
    for zero in (Poly(), []):
        with pytest.raises(ValueError, match="must be nonzero"):
            PolyPair(zero, y.y2)
    with pytest.raises(ValueError, match="must be distinct"):
        BetheData(data.Lambda, (Z[0], Z[0]), data.l)
    with pytest.raises(ValueError, match="equal length"):
        BetheData(data.Lambda[:1], Z, data.l)


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


def test_zlinear_power_is_the_product_of_linear_factors():
    """A point 0 enters as a shift; the result is the product of the
    factors s x - r, one zmul each, at 0, 1 and -2/3."""
    pts = [(Fraction(0), 4), (Fraction(1), 3), (Fraction(-2, 3), 2)]
    for k in range(len(pts) + 1):
        for pairs in (pts[:k], pts[k:], pts[k:] + pts[:k]):
            want = [1]
            for p, e in pairs:
                for _ in range(e):
                    want = zmul(want, [-p.numerator, p.denominator])
            assert bethe.zlinear_power(pairs) == want, pairs
    assert bethe.zlinear_power([(0, 3)]) == [0, 0, 0, 1]
    assert bethe.zlinear_power([(0, 0), (1, 0)]) == [1]


def test_solve_cleared_matches_oracle_on_5_grid():
    n = 0
    for lam, i in _grid(5):
        y = bethe.appendix_solution(lam, i)
        for Y, R, a in _fertility_inputs(y, [lam, rd.OMEGA2], Z):
            got = _solve(Y, R, a)
            assert got is not None and _same(got, _solve_ref(Y, R, a))
            # a right-hand side off by one: no witness, or the same one
            R1 = zadd(R, [1])
            assert _same(_solve(Y, R1, a), _solve_ref(Y, R1, a)), (lam, i)
            n += 1
    assert n == 420


def test_solve_cleared_matches_oracle_on_reproduction_chains(monkeypatch):
    calls, real = [], bethe.fertility_solve

    def record(Y, R, a):
        calls.append((Y, R, a))
        return real(Y, R, a)
    monkeypatch.setenv("G2_LMAX", "3")
    monkeypatch.setattr(bethe, "fertility_solve", record)
    assert verify.check_reproduction()[0]
    monkeypatch.undo()
    assert any(a <= 0 for _, _, a in calls)
    for Y, R, a in calls:
        assert _same(_solve(Y, R, a), _solve_ref(Y, R, a)), (Y, R, a)


def test_solve_cleared_matches_oracle_on_random_inputs():
    """400 seeded (y, r, a), deg y <= 5, val y <= 3, -3 <= a <= 4, half of
    them with r the image of a random g (sometimes off by a monomial),
    cleared to integer lists: the triangular solve gives the oracle's
    answer, solvable or not."""
    rng = random.Random(20)

    def rand(deg, val):
        cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(deg + 1)]
        cs[:val] = [0] * min(val, deg + 1)
        return Poly(cs[:-1] + [cs[-1] or 1])

    solvable = 0
    for n in range(400):
        v = rng.randint(0, 3)
        y, a = rand(max(rng.randint(0, 5), v), v), rng.randint(-3, 4)
        if n % 2:
            r = rand(rng.randint(0, 8), rng.randint(0, 3))
        else:
            g = rand(rng.randint(0, 5), rng.randint(0, 2))
            r = (y * g * Fraction(a) + X * y * g.derivative()
                 - X * y.derivative() * g)
            if n % 3 == 0:
                r = r + Poly([0] * rng.randint(0, 4) + [1])
        Y, R = zrow(y), zrow(r)
        want = _solve_ref(Y, R, a)
        assert _same(_solve(Y, R, a), want), (y, r, a)
        solvable += want is not None
    assert 100 < solvable < 300


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
    assert bethe.is_generic(y, Lam, z) is is_generic_by_gcd(y, Lam, z) is generic
    for Y, R, a in _fertility_inputs(y, Lam, z):
        assert _same(_solve(Y, R, a), _solve_ref(Y, R, a))


def test_translated_pairs_match_oracles():
    z = (Fraction(2), Fraction(5))
    for i in bethe.admissible_ls((2, 1)):
        Lam = [(2, 1), rd.OMEGA2]
        moved = translate_pair(bethe.appendix_solution((2, 1), i), *z)
        assert bethe.is_generic(moved, Lam, z)
        assert is_generic_by_gcd(moved, Lam, z)
        assert bethe.bae_exact(moved, *zcalT(Lam, z))
        for Y, R, a in _fertility_inputs(moved, Lam, z):
            got = _solve(Y, R, a)
            assert got is not None and _same(got, _solve_ref(Y, R, a))


def _fertile(y, Lambda):
    """Both fertility witnesses exist, at z = (0, 1)."""
    F = bethe.fertility_rhs(y, *zcalT(Lambda, Z))
    return all(bethe.fertility_solve(Y, Fj[a - 1:], a) is not None
               for Y, Fj, a in zip((y.y1, y.y2), F,
                                   (lam + 1 for lam in Lambda[0])))


def test_exact_gate_rejects_every_perturbed_coefficient():
    # +1 on one coefficient of a nonconstant y_j; a constant y_j is left
    # alone, since a multiple of a solution is the same solution.  On a
    # generic pair the exact gate and fertility decide the same thing.
    rejected = {"generic": 0, "exact": 0}
    for lam, i in _grid(3):
        Lam = [lam, rd.OMEGA2]
        T = zcalT(Lam, Z)
        y = bethe.appendix_solution(lam, i)
        assert bethe.bae_exact(y, *T) and _fertile(y, Lam)
        for j, yj in enumerate((monic(y.y1), monic(y.y2))):
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
            T = zcalT([other, rd.OMEGA2], Z)
            assert bethe.bae_exact(y, *T) is (len(yj) < 2), (i, other)


def test_bethe_suites_build_no_poly(monkeypatch):
    """A Bethe pair is two integer rows, and the closed forms, certify and
    reproduce work on them: on the 2-grid the bae-grid and reproduction
    suites pass without constructing one exact.Poly, and, since the
    appendix coefficients are integer pairs and the points the integers 0
    and 1, one Fraction."""
    built, init = [], Poly.__init__
    fractions, new = [], Fraction.__new__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    def counted_fraction(cls, *args, **kwargs):
        fractions.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setenv("G2_LMAX", "2")
    monkeypatch.setattr(Poly, "__init__", counted)
    monkeypatch.setattr(Fraction, "__new__", counted_fraction)
    for suite in (verify.check_bae_grid, verify.check_reproduction):
        assert suite()[0], suite
    monkeypatch.undo()
    assert len(built) == 0
    assert len(fractions) == 0


def test_closed_form_pair_matches_the_fraction_transcription_on_7_grid():
    """The integer pairs of closed_form_pair, each component cleared over
    the lcm of its denominators, give the rows of the appendix formulas
    transcribed over Fractions and cleared by zclear, on all 392 cases of
    the 7-grid."""
    cases = _grid(7)
    assert len(cases) == 392
    for lam, i in cases:
        y, want = bethe.closed_form_pair(lam, i), fraction_closed_form_pair(
            lam, i)
        assert (y.y1, y.y2) == (want.y1, want.y2), (lam, i)


def test_bae_grid_suite_gates_on_exact_equations(monkeypatch):
    monkeypatch.setenv("G2_LMAX", "1")
    assert verify.check_bae_grid() == (True, "14 cases on the 1-grid; "
                                              "Bethe equations exact")
    # a planted wrong pair: y_2 + 1 for (1, 1), case 1
    real = bethe.closed_form_pair

    def planted(lam, i):
        y = real(lam, i)
        return PolyPair(y.y1, monic(y.y2) + 1) if (lam, i) == ((1, 1), 1) \
            else y
    monkeypatch.setattr(bethe, "closed_form_pair", planted)
    assert verify.check_bae_grid() == (
        False, "Bethe equations fail at (1, 1), case 1")


def test_closed_form_is_the_one_admissibility_test():
    """closed_form is the data of every closed-form case, (lam, omega2) at
    z = (0, 1) with l_i; it, appendix_solution and diffop.case reject an
    inadmissible case with its one message."""
    for lam, i in _grid(2):
        assert bethe.closed_form(lam, i) == \
            BetheData((lam, rd.OMEGA2), Z, L_LIST[i])
    assert bethe.closed_form([1, 0], 2) == bethe.closed_form((1, 0), 2)
    for build in (bethe.closed_form, bethe.appendix_solution, diffop.case):
        with pytest.raises(ValueError, match=re.escape(
                "l_3 is not admissible for (0, 0)")):
            build((0, 0), 3)
    assert diffop.case((2, 1), 5).data == bethe.closed_form((2, 1), 5)


def test_certify_names_each_failing_stage():
    """certify holds on the closed forms; a repeated root fails genericity,
    a perturbed coefficient the Bethe equations and fertility alike."""
    for lam, i in _grid(2):
        cert = bethe.certify(bethe.appendix_solution(lam, i),
                             bethe.closed_form(lam, i))
        assert cert == {"generic": True, "exact": True, "fertile": True}
    data = bethe.closed_form((2, 1), 5)
    y = bethe.appendix_solution((2, 1), 5)
    square = (X - Poly([2])) ** 2
    assert not bethe.certify(PolyPair(square, y.y2), data)["generic"]
    bad = PolyPair(y.y1, monic(y.y2) + 1)
    assert bethe.certify(bad, data) == {"generic": True, "exact": False,
                                        "fertile": False}
    with pytest.raises(ValueError, match="z1 = 0"):
        bethe.certify(y, BetheData(data.Lambda, (Fraction(2), Fraction(5)),
                                   data.l))
