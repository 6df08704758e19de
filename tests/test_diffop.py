"""Order-7 operators: factorization, conjugation, kernels, exponents."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2gaudin import bethe
from g2gaudin import diffop
from g2gaudin import rootdata as rd
from g2gaudin import sgrass
from g2gaudin.bethe import PolyPair
from g2gaudin.exact import (Poly, RatFunc, zclear, zechelon, zmul, zpoly,
                            zprem, zprimitive, zquo, zrow)
import oracles
from oracles import default_degree_bound, full, monic


def _T_polys(c):
    """T1 and T2 of the case c as monic Polys, as build_calT gives them."""
    return tuple(zpoly(t, t[-1]) for t in c.ramification.T[:2])


def _coeffs(cs):
    """The coefficients of d^(n-1) .. d^0 of a full oracle list, as
    DiffOp.coeffs orders them."""
    return tuple(reversed(cs[:-1]))


def test_trivial_factorization_is_d7():
    y = PolyPair([1], [1])
    D = diffop.build_Dy(y, Poly([1]), Poly([1]))
    assert all(c.is_zero() for c in D.coeffs)
    assert D.order == 7
    # kernel of d^7 is the polynomials of degree < 7
    ker = diffop.polynomial_kernel(D, 9)
    assert len(ker) == 7


def test_apply_and_kernel_membership():
    D = diffop.case((0, 1), 1).operator
    for p in diffop.kernel_for_case((0, 1), 1):
        assert oracles.apply(full(D), p).is_zero()


def _conjugate_matches_oracle(D, f):
    """diffop.conjugate(D, f), checked against the RatFunc substitution."""
    got = diffop.conjugate(D, f)
    assert got.coeffs == _coeffs(oracles.conjugate(full(D), f))
    return got


def test_conjugate_group_action():
    D = diffop.case((0, 1), 0).operator
    x = Poly([0, 1])
    f = RatFunc(x)
    g = RatFunc(x - Poly([1]))
    assert _conjugate_matches_oracle(D, f * g) == \
        _conjugate_matches_oracle(_conjugate_matches_oracle(D, f), g)
    assert _conjugate_matches_oracle(D, f * g) != D


def test_conjugation_roundtrip():
    D = diffop.case((1, 1), 2).operator
    f = RatFunc(Poly([0, 1]) ** 2 * Poly([1, 3])) / Poly([Fraction(2, 3), 1])
    E = _conjugate_matches_oracle(D, f)
    assert E != D
    assert _conjugate_matches_oracle(E, RatFunc(Poly([1])) / f) == D
    assert diffop.conjugate(D, Poly([5])) == D


def test_conjugate_by_t_gives_the_conjugated_case():
    """conjugate over lcm(Q, R) takes D_y to the conjugated operator, and
    conjugating that back by 1 / (T1^2 T2) gives D_y as (Q, P), on all 84
    cases of the 3-grid.  == compares lowest_terms, and decides as the
    RatFunc coefficients do, on that pair and on D_y against its
    conjugate."""
    for lam, i in GRID3:
        c = diffop.case(lam, i)
        T1, T2 = _T_polys(c)
        T = RatFunc(T1 ** 2 * T2)
        conj = diffop.conjugate(c.operator, T)
        for a, b in ((conj, c.conjugated), (c.operator, c.conjugated)):
            assert (a == b) is (a.coeffs == b.coeffs), (lam, i)
        assert conj == c.conjugated != c.operator, (lam, i)
        back = diffop.conjugate(c.conjugated, 1 / T)
        assert (back.Q, back.P) == (c.operator.Q, c.operator.P), (lam, i)


def _reference_operator(lam, i, conjugated):
    """D_y as the plain RatFunc product, conjugated by substitution."""
    y = bethe.appendix_solution(lam, i)
    T1, T2 = bethe.build_calT([lam, rd.OMEGA2], [Fraction(0), Fraction(1)])
    cs = oracles.product(diffop.dy_factor_functions(y, T1, T2))
    return _coeffs(oracles.conjugate(cs, RatFunc(T1 ** 2 * T2))
                   if conjugated else cs)


def test_common_denominator_product_matches_reference():
    cases = [((a, b), i) for a in range(3) for b in range(3 - a)
             for i in bethe.admissible_ls((a, b))]
    assert len(cases) == 22 and {i for _, i in cases} == set(range(7))
    for lam, i in cases:
        for conjugated in (False, True):
            want = _reference_operator(lam, i, conjugated)
            c = diffop.case(lam, i)
            got = c.conjugated if conjugated else c.operator
            for k, (g, w) in enumerate(zip(got.coeffs, want)):
                assert (g.num, g.den) == (w.num, w.den), (lam, i, conjugated, k)


_x = Poly([0, 1])
# (y, T1, T2) on which x, x - 1, y1 and y2 are not coprime and squarefree
NONGENERIC = {
    "y1 shares a root with x": (PolyPair(_x * (_x - 2), _x - 3),
                                _x, _x * (_x - 1)),
    "y1 has a repeated root": (PolyPair((_x - 2) ** 2 * (_x + 1), _x - 3),
                               _x, _x * (_x - 1)),
    "y2 shares a root with y1": (PolyPair((_x - 2) * (_x + 3),
                                          (_x - 2) * (_x - 5)),
                                 _x, _x * (_x - 1)),
    "T exponents above 1": (PolyPair(_x * 3 - Fraction(1, 2), _x - 4),
                            _x ** 3 * (_x - 1) ** 2, _x ** 2 * (_x - 1) ** 3),
    "all at once, rational": (PolyPair(_x ** 2 * (_x - 1) * Fraction(2, 3),
                                       (_x - 1) ** 2 * (_x + Fraction(1, 5))),
                              _x ** 2, _x ** 2 * (_x - 1)),
}


# y2 meets its Bethe equation for y1 and T2, (T2 y1^3)'(2) = 0, and y1 does
# not: y2's part of Q leaves B exactly, y1's does not leave -B* d B, and the
# conjugated operator is put back over all of Q
HALF_BETHE = {"y2 Bethe for y1, y1 not": (PolyPair(_x - 4, _x - 2),
                                          _x, _x * (_x - 1))}
# a marked point of weight 0 at x = 0 and no Bethe pair: the case's base
# x occurs in no g_k, so in no Q, and the y-part does not divide out
ZERO_WEIGHT = {"no weight at 0, no Bethe pair": (PolyPair(_x - 2, _x - 3),
                                                 Poly([1]), _x - 1)}
# the weights at z = (0, 1) that give each input above its T1 and T2
LAMBDA = {"T exponents above 1": ((3, 2), (2, 3)),
          "all at once, rational": ((2, 2), (0, 1)),
          "no weight at 0, no Bethe pair": ((0, 0), (0, 1))}


def _sequential_conjugated(y, T1, T2):
    """The conjugated operator as the seven conjugated factors multiplied
    out over Q, the reference for diffop._conjugated."""
    return diffop._log_factor_product(
        *oracles.conjugated_log_factors(y, T1, T2))


def _factor_base_path(y, T1, T2):
    """(D_y, its conjugate, the factored form) from _factor_base of T1,
    T2, y1 and y2, the path of input given unfactored."""
    fb = diffop._factor_base([zrow(T1), zrow(T2), y.y1, y.y2])
    return diffop.build_Dy(y, T1, T2), diffop._conjugated(*fb), fb


@pytest.mark.parametrize("name", sorted(NONGENERIC) + sorted(HALF_BETHE)
                         + sorted(ZERO_WEIGHT))
def test_direct_factor_product_on_nongeneric_inputs(name):
    """The entry points that take unfactored input give the RatFunc
    products on inputs that are no generic pair or no Bethe pair.  As a
    Case at z = (0, 1), with Lambda read off T1 and T2, a pair that is not
    squarefree, coprime and free of the points raises, and the others give
    build_Dy and the sequential conjugated product."""
    y, T1, T2 = {**NONGENERIC, **HALF_BETHE, **ZERO_WEIGHT}[name]
    Lambda = LAMBDA.get(name, ((1, 1), (0, 1)))
    assert bethe.ramification(Lambda, (0, 1)).T[:2] == (zrow(T1), zrow(T2))
    c = diffop.Case(bethe.BetheData(Lambda, (0, 1), (len(y.y1) - 1,
                                                     len(y.y2) - 1)), y)
    gs = diffop.dy_factor_functions(y, T1, T2)
    f = RatFunc(T1 ** 2 * T2)
    want = oracles.product(gs)
    want_conj = _coeffs(oracles.conjugate(want, f))
    want = _coeffs(want)
    D, conj, _ = _factor_base_path(y, T1, T2)
    seq = _sequential_conjugated(y, T1, T2)
    assert (conj.Q, conj.P) == (seq.Q, seq.P)
    if name in NONGENERIC and name != "T exponents above 1":
        for attr in ("factored", "operator", "conjugated", "flag_rows"):
            with pytest.raises(ValueError, match="not a generic pair"):
                getattr(c, attr)
    else:
        assert (c.operator.Q, c.operator.P) == (D.Q, D.P)
        assert (c.conjugated.Q, c.conjugated.P) == (seq.Q, seq.P)
        if name in ZERO_WEIGHT:
            assert D.Q == seq.Q == zmul([-1, 1], zmul(y.y1, y.y2))
    for got, ref in ((D, want), (diffop.from_log_factors(gs), want),
                     (conj, want_conj), (seq, want_conj),
                     (diffop.from_log_factors([g / f for g in gs]),
                      want_conj),
                     (diffop.conjugate(diffop.build_Dy(y, T1, T2), f),
                      want_conj)):
        assert got.order == 7
        for k, (g, w) in enumerate(zip(got.coeffs, ref)):
            assert (g.num, g.den) == (w.num, w.den), (name, k)


def test_zero_input_has_no_factored_form():
    """_factor_base rejects the zero polynomial, so an entry point given a
    zero g or T raises rather than take it for a constant."""
    y = PolyPair(_x - 2, [1])
    for build in (lambda: diffop.from_log_factors([_x, Poly([0])]),
                  lambda: diffop.build_Dy(y, Poly([0]), _x)):
        with pytest.raises(ValueError, match="the zero polynomial"):
            build()


def _recorded_moduli(monkeypatch, build):
    """The moduli _reduce_over_power is called with while build() runs."""
    seen, reduce_over_power = [], diffop._reduce_over_power

    def record(P, Q, *rest):
        seen.append(Q)
        return reduce_over_power(P, Q, *rest)

    monkeypatch.setattr(diffop, "_reduce_over_power", record)
    try:
        build()
    finally:
        monkeypatch.undo()
    return seen


def test_bethe_pair_reduces_over_the_marked_points_only(monkeypatch):
    """On a Bethe pair the y-part Y of Q divides the d^k numerator Y^(7-k)
    times, so D_y and its conjugate are held over Q / Y, whose roots are the
    marked points 0 and 1, and all 14 coefficients are reduced over it."""
    cases = [((a, b), i) for a in range(4) for b in range(4)
             for i in bethe.admissible_ls((a, b))]
    assert len(cases) == 84
    for lam, i in cases:
        y = bethe.appendix_solution(lam, i)
        T1, T2 = bethe.build_calT([lam, rd.OMEGA2], [Fraction(0), Fraction(1)])
        marked = [factors(y, T1, T2) for factors in (
            diffop.dy_log_factors, oracles.conjugated_log_factors)]
        want = [zquo(Q, Y) for Q, _, Y in marked for _ in range(7)]
        assert all(len(m) <= 3 and not zprem(zclear((T1 * T2).coeffs)[0], m)
                   for m in want), (lam, i)
        ops = _factor_base_path(y, T1, T2)[:2]
        assert [D.Q for D in ops] == want[::7], (lam, i)
        got = _recorded_moduli(monkeypatch,
                               lambda: [D.coeffs for D in ops])
        assert got == want, (lam, i)


def _perturbed_pair():
    y = bethe.appendix_solution((1, 1), 2)
    T = bethe.build_calT([(1, 1), rd.OMEGA2], [Fraction(0), Fraction(1)])
    return (PolyPair(monic(y.y1) + Fraction(1, 7), y.y2), *T)


@pytest.mark.parametrize("name", sorted(NONGENERIC) + ["perturbed"])
def test_non_bethe_input_reduces_over_all_of_q(name, monkeypatch):
    """Off a Bethe pair the division by a power of Y is inexact for some
    coefficient, so no numerator is divided: the operator is held over all
    of Q, and every coefficient is reduced over it."""
    y, T1, T2 = NONGENERIC[name] if name in NONGENERIC else _perturbed_pair()
    Q, _, Y = diffop.dy_log_factors(y, T1, T2)
    assert len(Y) > 1
    D = diffop.build_Dy(y, T1, T2)
    assert D.Q == Q
    assert _recorded_moduli(monkeypatch, lambda: D.coeffs) == [Q] * 7


def test_exponents_regular_point():
    y = PolyPair([1], [1])
    D = diffop.build_Dy(y, Poly([1]), Poly([1]))
    assert diffop.exponents_at(D, Fraction(0)) == (0, 1, 2, 3, 4, 5, 6)
    assert diffop.exponents_at(D, "inf") == (-6, -5, -4, -3, -2, -1, 0)


def test_exponents_printed_example():
    # conjugated operator for lambda=(0,1), case 1: resulting weight (1,0)
    D = diffop.case((0, 1), 1).conjugated
    assert diffop.exponents_at(D, "inf") == (-8, -6, -5, -3, -1, 0, 2)


def test_exponents_finite_formula():
    lam = (1, 1)
    D = diffop.case(lam, 3).conjugated
    a, b = lam
    want = tuple(sorted((-2 * a - b, -a - b + 1, -a + 2, 3,
                         a + 4, a + b + 5, 2 * a + b + 6)))
    assert diffop.exponents_at(D, Fraction(0)) == want


def test_kernel_dimension():
    for lam, i in (((0, 0), 0), ((1, 0), 2), ((2, 2), 4)):
        assert len(diffop.kernel_for_case(lam, i)) == 7


def test_kernel_rejects_perturbed_solution(monkeypatch):
    exact = bethe.closed_form_pair

    def perturbed(lam, i):
        y = exact(lam, i)
        if (lam, i) == ((1, 1), 2):
            return PolyPair(monic(y.y1) + Fraction(1, 7), y.y2)
        return y

    # a cached good case would hide the fault; a cached faulty case would
    # leak into later tests
    diffop.case.cache_clear()
    monkeypatch.setattr(bethe, "closed_form_pair", perturbed)
    try:
        for _ in range(2):  # a failed kernel is not cached
            with pytest.raises(ValueError, match="residue: not a Bethe pair"):
                diffop.kernel_for_case((1, 1), 2)
    finally:
        monkeypatch.undo()
        diffop.case.cache_clear()


CASES = (((0, 0), 0), ((0, 1), 1), ((1, 1), 3), ((2, 1), 5), ((3, 3), 6))


def test_case_matches_fresh_build():
    for lam, i in CASES:
        c = diffop.case(lam, i)
        assert diffop.case(lam, i) is c
        y = bethe.appendix_solution(lam, i)
        T1, T2 = bethe.build_calT([lam, rd.OMEGA2], [Fraction(0), Fraction(1)])
        D = diffop.build_Dy(y, T1, T2)
        assert (c.y, _T_polys(c), c.operator) == (y, (T1, T2), D)
        ref = _sequential_conjugated(y, T1, T2)
        assert (c.conjugated.Q, c.conjugated.P) == (ref.Q, ref.P)
        bound = default_degree_bound(lam, i)
        assert c.space.flag_basis == tuple(diffop.polynomial_kernel(D, bound))
        assert diffop.kernel_for_case(lam, i) is c.space.flag_basis


def test_case_readers_accept_a_weight_list():
    """The public readers hash lam as a tuple, so a list still works."""
    lam, i = (1, 0), 2
    assert diffop.kernel_for_case([1, 0], i) is diffop.kernel_for_case(lam, i)
    assert diffop.h2_casimir_values([1, 0], i) == \
        diffop.h2_casimir_values(lam, i)


def test_case_cache_is_bounded_and_caches_no_error():
    diffop.case.cache_clear()
    assert diffop.case.cache_info().maxsize == diffop.CASE_CACHE_SIZE
    for a in range(3):
        for b in range(4):
            diffop.case((a, b), 0)
    assert diffop.case.cache_info().currsize == diffop.CASE_CACHE_SIZE
    misses = diffop.case.cache_info().misses
    for _ in range(2):
        with pytest.raises(ValueError,
                           match=r"^l_3 is not admissible for \(0, 0\)$"):
            diffop.case((0, 0), 3)
    info = diffop.case.cache_info()
    assert (info.misses, info.currsize) == (misses + 2,
                                            diffop.CASE_CACHE_SIZE)


def test_h2_examples():
    got, expected = diffop.h2_casimir_values((0, 0), 0)
    assert got == expected == 0
    got, expected = diffop.h2_casimir_values((0, 1), 0)
    assert got == expected
    assert expected == -Fraction(repn_c((0, 2)) - 2 * repn_c((0, 1)), 2)
    got, expected = diffop.h2_casimir_values((0, 1), 6)
    assert got == expected
    assert expected == -Fraction(repn_c((0, 0)) - repn_c((0, 1))
                                 - repn_c((0, 1)), 2)


def test_h2_normalization_is_not_calibrated(monkeypatch):
    got, expected = diffop.h2_casimir_values((0, 1), 0)
    assert got == expected != 0
    monkeypatch.setattr(diffop, "_H2_NORMALIZATION", Fraction(1))
    got, expected = diffop.h2_casimir_values((0, 1), 0)
    assert got == 2 * expected != expected


def repn_c(mu):
    from g2gaudin import repn
    return repn.casimir_eigenvalue(mu)


def test_h2_rejects_inadmissible():
    with pytest.raises(ValueError):
        diffop.h2_casimir_values((0, 0), 3)


def test_laurent_coeff_matches_taylor_shift():
    """The pole coefficients read off the integer form equal the Laurent
    coefficients of the RatFunc coefficients by Taylor shifts (and their
    x^-i coefficients at infinity), on products of log-factors with poles
    at integer and non-integer points and on their conjugates."""
    x = Poly([0, 1])
    ps = [Fraction(0), Fraction(1), Fraction(-3), Fraction(1, 2),
          Fraction(-2, 3)]
    ops = []
    for p in ps:
        xp = x - Poly([p])
        gs = [xp ** 3 * (x + Poly([7])), RatFunc(Poly([5, -1, 2]), xp),
              RatFunc(x - Poly([2]), Poly([Fraction(2, 9), 0, 1])), xp]
        D = diffop.from_log_factors(gs)
        ops += [D, diffop.conjugate(D, RatFunc(xp ** 2, Poly([1, 3])))]
    checked = 0
    for D in ops:
        cs = full(D)
        for p in ps + ["inf"]:
            got = [Fraction(*b) for b in diffop._pole_coeffs(D, p)]
            want = [oracles.infinity_coeff(cs[4 - i], i) if p == "inf"
                    else oracles.laurent_coeff(cs[4 - i], p, i)
                    for i in range(1, 5)]
            assert got == want, (D, p)
            checked += sum(w != 0 for w in want)
    assert checked >= 60


def test_exponents_at_rational_points():
    D = diffop.case((1, 2), 5).conjugated
    for p in (Fraction(1, 2), Fraction(-7, 3)):
        assert diffop.exponents_at(D, p) == tuple(range(7))
    with pytest.raises(ValueError, match="non-integer root"):
        diffop._integer_roots([-1, 0, 4])
    assert diffop._integer_roots([0, 0, -6, 1, 1]) == [-3, 0, 0, 2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-12, 12), max_size=7),
       st.sampled_from([[1, 2], [3, 0, 2], [2, 0, 1], [-2, 0, 1], [1, 0, 1]]))
def test_integer_roots_round_trip(roots, other):
    """A product of s - r over an integer multiset, zeros and repeats
    included, gives back its roots; times a primitive factor with a root
    that is not an integer (2s + 1, 2s^2 + 3, s^2 + 2, s^2 - 2, s^2 + 1),
    it raises."""
    a = [1]
    for r in roots:
        a = zmul(a, [-r, 1])
    assert diffop._integer_roots(a) == sorted(roots)
    with pytest.raises(ValueError, match="non-integer root"):
        diffop._integer_roots(zprimitive(zmul(a, other)))


def test_exponent_checks_can_fail():
    """d - x decays too slowly at infinity; d - 1/(x^2 - 1) has the
    exponent 1/2 at 1."""
    with pytest.raises(ValueError, match="decay too slow"):
        diffop.exponents_at(diffop._log_factor_product([1], [[0, 1]]), "inf")
    D = diffop._log_factor_product([-1, 0, 1], [[1]])
    assert diffop.exponents_at(D, "inf") == (0,)
    with pytest.raises(ValueError, match="non-integer root"):
        diffop.exponents_at(D, Fraction(1))


def test_falling_factorials():
    s = Poly([0, 1])
    for n, f in enumerate(diffop._FALLING):
        want = Poly([1])
        for k in range(n):
            want = want * (s - k)
        assert Poly(f) == want and all(isinstance(c, int) for c in f)


def test_exponents_parity_on_3_grid():
    # SHA-256 of the exponent lists of the raw and conjugated operators of
    # all 84 cases at 0, 1, inf, 1/2 and -3/2, as computed by the Fraction
    # Poly indicial polynomial that the integer falling factorials replaced
    h = hashlib.sha256()
    for a in range(4):
        for b in range(4):
            for i in bethe.admissible_ls((a, b)):
                for conj in (False, True):
                    c = diffop.case((a, b), i)
                    D = c.conjugated if conj else c.operator
                    for p in (Fraction(0), Fraction(1), "inf",
                              Fraction(1, 2), Fraction(-3, 2)):
                        h.update(repr(diffop.exponents_at(D, p))
                                 .encode())
    assert h.hexdigest() == ("3757f74922c2146722118e41e48eb034"
                             "f159e4ad560794ba8df5890b01339209")


GRID5 = [((a, b), i) for a in range(6) for b in range(6)
         for i in bethe.admissible_ls((a, b))]


def test_exponents_and_h2_match_ratfunc_oracles_on_5_grid():
    """On all 210 cases of the 5-grid, for D_y and its conjugate: Q divides
    T1 T2, of degree at most 2; the exponents at 0, 1, inf, -1/2 and 2 are
    the roots of the indicial polynomial that the RatFunc Laurent oracle
    builds; and the h2 residue side is the oracle's residue at z1 of the
    d^5 coefficient of the conjugate."""
    assert len(GRID5) == 210
    s = Poly([0, 1])
    for lam, i in GRID5:
        c = diffop.case(lam, i)
        T12 = zmul(*c.ramification.T[:2])
        for D in (c.operator, c.conjugated):
            assert len(D.Q) <= 3 and not zprem(T12, D.Q), (lam, i)
            for p in (Fraction(0), Fraction(1), "inf", Fraction(-1, 2),
                      Fraction(2)):
                got = Poly([1])
                for e in diffop.exponents_at(D, p):
                    got = got * (s - e)
                assert got == oracles.indicial(full(D), p), (lam, i, p)
        want = -oracles.residue_at(c.conjugated.coeffs[1], c.data.z[0])
        assert diffop.h2_casimir_values(lam, i)[0] == \
            want * diffop._H2_NORMALIZATION, (lam, i)


def test_conjugated_is_the_sequential_product():
    """diffop._conjugated, -B* d B over the smaller Q_B, holds each
    operator as (Q, P) exactly as the seven conjugated factors multiplied
    out over Q do: Case.conjugated on all 210 cases of the 5-grid, and on
    each pair of the 3-grid five inputs that are no Bethe pair or are not
    squarefree (y1 + 1, y2 + 3 x^(deg y2 - 1), y1 (x + 1), y1 x^2, y2 y1),
    on which the divisions of some cases fail and the operator is kept
    over a larger Q."""
    for lam, i in GRID5:
        c = diffop.case(lam, i)
        ref = _sequential_conjugated(c.y, *c.ramification.T[:2])
        assert (c.conjugated.Q, c.conjugated.P) == (ref.Q, ref.P), (lam, i)
    kept = 0
    for lam, i in GRID3:
        c = diffop.case(lam, i)
        T1, T2 = c.ramification.T[:2]
        y1, y2 = monic(c.y.y1), monic(c.y.y2)
        bump = Poly([0] * max(y2.degree - 1, 0) + [3])
        for y in (PolyPair(y1 + Poly([1]), y2), PolyPair(y1, y2 + bump),
                  PolyPair(y1 * (_x + 1), y2), PolyPair(y1 * _x ** 2, y2),
                  PolyPair(y1, y2 * y1)):
            got, ref = (_factor_base_path(y, T1, T2)[1],
                        _sequential_conjugated(y, T1, T2))
            assert (got.Q, got.P) == (ref.Q, ref.P), (lam, i, y)
            kept += len(got.Q) > len(c.conjugated.Q)
    assert kept == 329


def test_conjugated_operands_stay_small(monkeypatch):
    """Building the conjugated operator of (3, 3), case 6 multiplies no
    integer list longer than 20 coefficients or with a coefficient wider
    than 160 bits: y2 leaves after three factors and y1 is raised to at
    most the seventh power of Q_B.  Multiplying the seven factors out over
    all of Q reaches 43 coefficients and 351 bits."""
    sizes, zmul_ = [], diffop.zmul

    def record(a, b):
        sizes.extend((len(v), max((abs(c).bit_length() for c in v), default=0))
                     for v in (a, b))
        return zmul_(a, b)

    c = diffop.case.__wrapped__((3, 3), 6)
    monkeypatch.setattr(diffop, "zmul", record)
    D = c.conjugated
    monkeypatch.undo()
    assert D == _sequential_conjugated(c.y, *c.ramification.T[:2])
    assert max(n for n, _ in sizes) <= 20
    assert max(b for _, b in sizes) <= 160


def test_case_ramification_is_the_certified_T_on_5_grid():
    """On all 210 cases of the 5-grid the case's one RamificationData, the
    bethe.ramification that certify and reproduce read, holds as T1, T2 the
    products the weights give (oracles.zcalT), and it is the data the
    self-duality checks receive."""
    for lam, i in GRID5:
        c = diffop.case(lam, i)
        assert c.ramification.T[:2] == oracles.zcalT(c.data.Lambda, c.data.z)
        assert c.ramification == bethe.ramification(c.data.Lambda, c.data.z)
        assert sgrass.bethe_kernel_instance(lam, i)[1] is c.ramification


def test_operator_queries_build_no_ramification_data(monkeypatch):
    """D_y, its conjugate, their exponents and the h2 check read
    Case.factored, so none of them builds a bethe.RamificationData."""
    built, init = [], bethe.RamificationData.__init__

    def record(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(bethe.RamificationData, "__init__", record)
    diffop.case.cache_clear()
    for lam, i in (((0, 1), 1), ((2, 1), 5), ((3, 3), 6)):
        c = diffop.case(lam, i)
        for D in (c.operator, c.conjugated):
            diffop.exponents_at(D, bethe.INF)
        diffop.h2_casimir_values(lam, i)
    assert built == []
    c.ramification
    assert len(built) == 1


GRID3 = [((a, b), i) for a in range(4) for b in range(4)
         for i in bethe.admissible_ls((a, b))]


def test_kernel_is_the_nullspace_kernel_on_3_grid():
    """The reduced echelon basis of the integrated flag is, Poly for Poly,
    the nullspace basis of the expanded D_y below the degree bound."""
    assert len(GRID3) == 84
    for lam, i in GRID3:
        c = diffop.case(lam, i)
        D = diffop.build_Dy(c.y, *_T_polys(c))
        assert c.space.flag_basis == tuple(diffop.polynomial_kernel(
            D, default_degree_bound(lam, i))), (lam, i)


def _chains(z):
    """{(lam, word): (data, y)} for the reproduction chains from the trivial
    pair at the points z, Lambda = (word . lam, omega2, ...), l = (0, 0),
    for lam on the 3-grid and the alternating words of length 1-6: those
    that end at Lambda_1 = lam with a non-constant pair.  A chain stops at
    a step that is not generic, or where reproduce finds no fertility
    witness (only at steps j with <Lambda_1 + rho, coroot_j> <= 0)."""
    one, out = PolyPair([1], [1]), {}
    for lam in ((a, b) for a in range(4) for b in range(4)):
        for n in range(1, 7):
            for first in (1, 2):
                word = tuple((first, 3 - first)[k % 2] for k in range(n))
                data = bethe.BetheData(
                    (rd.shifted_action_word(word, lam),)
                    + (rd.OMEGA2,) * (len(z) - 1), z, (0, 0))
                y = one
                for d in word:
                    try:
                        step = bethe.reproduce(y, d, data)
                    except ValueError:
                        break
                    if step is None:
                        break
                    y, data = step
                else:
                    if data.Lambda[0] == lam and y != one:
                        out[lam, word] = data, y
    return out


# the point sets of the reproduced chains, one of them not integer
THREE_POINTS = ((0, 1, 2), (0, 1, Fraction(1, 3)))
# a Bethe pair at three points whose y1 vanishes at z_2 = 1, where
# <omega2, coroot_1> = 0: generic in Mukhin-Varchenko's sense
ROOT_AT_A_POINT = (bethe.BetheData(((1, 0), (0, 1), (0, 1)),
                                   (0, 1, Fraction(9, 4)), (1, 1)),
                   PolyPair([-1, 1], [-2, 1]))


def _planted_pairs():
    """The reproduced pairs at both point sets with a root planted in y1 or
    y2 at 0, at 1 and at 1/3, a singular point of T_j or not: 720 pairs,
    as (data, y)."""
    planted = []
    for z in THREE_POINTS:
        for data, y in _chains(tuple(map(Fraction, z))).values():
            for p in (Fraction(0), Fraction(1), Fraction(1, 3)):
                root = Poly([-p, 1])
                planted += [(data, PolyPair(monic(y.y1) * root, y.y2)),
                            (data, PolyPair(y.y1, monic(y.y2) * root))]
    return planted


def _flag_or_error(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def test_case_path_is_the_factor_base_path():
    """Case.factored, read off the points and the pair with no gcd, and
    _factor_base of T1, T2, y1 and y2 give D_y and its conjugate with equal
    (Q, P) and equal flag rows, or the same error where the flag has none:
    on the 210 closed forms of the 5-grid, the 120 pairs reproduced at
    three points, the 330 of those with a root planted that are generic,
    some at a point of zero pairing, and ROOT_AT_A_POINT."""
    cases = [(bethe.closed_form(lam, i), bethe.closed_form_pair(lam, i))
             for lam, i in GRID5]
    for z in THREE_POINTS:
        cases += _chains(tuple(map(Fraction, z))).values()
    cases += [(data, y) for data, y in _planted_pairs()
              if bethe.is_generic(y, data.Lambda, data.z)]
    cases.append(ROOT_AT_A_POINT)
    assert len(cases) == 210 + 2 * 60 + 330 + 1
    for data, y in cases:
        c = diffop.Case(data, y)
        want = _factor_base_path(y, *c.ramification.T[:2])
        for got, ref in zip((c.operator, c.conjugated), want):
            assert (got.Q, got.P) == (ref.Q, ref.P), data
        assert _flag_or_error(lambda: c.flag_rows) == _flag_or_error(
            lambda: zechelon(diffop._population_flag(*want[2]))), (data, y)


@pytest.mark.parametrize("z", THREE_POINTS)
def test_three_point_cases_from_reproduced_chains(z):
    """The Case of each reproduced pair at three points passes
    verify.case_failure: it certifies, has a 7-dimensional self-dual kernel
    with its flag as ssd witness and the exponents of Lambda and of
    Case.mu, the Wronskian prod_s (x - z_s)^(7(2 Lambda_s,1 + Lambda_s,2))
    and residues that meet the sum rules."""
    from g2gaudin import verify
    chains = _chains(tuple(map(Fraction, z)))
    assert len(chains) == 60
    for key, (data, y) in chains.items():
        c = diffop.Case(data, y)
        assert c.mu == rd.sub(rd.add(data.Lambda[0], (0, 2)),
                              rd.from_alpha(*data.l)), key
        assert verify.case_failure(c) is None, key


def test_a_pair_with_a_root_at_a_point_of_zero_pairing_is_a_case():
    """ROOT_AT_A_POINT certifies and builds as a Case whose y1 column is
    the factor x - 1 of z_2; it passes case_failure with residues
    (-4/3, 12/5, -16/15) and e = 0 at mu = 3 omega2, and its Wronskian is
    x^14 (x - 1)^7 (4x - 9)^7."""
    from g2gaudin import verify
    data, y = ROOT_AT_A_POINT
    c = diffop.Case(data, y)
    assert c.factored == ([[0, 1], [-1, 1], [-9, 4], [-2, 1]],
                          [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 0],
                           [0, 0, 0, 1]])
    assert verify.case_failure(c) is None
    assert (c.mu, c.casimir_value) == ((0, 3), 0)
    assert [diffop.h2_residue(c.conjugated, p) for p in data.z] == [
        Fraction(-4, 3), Fraction(12, 5), Fraction(-16, 15)]
    assert zprimitive(sgrass.wronskian_row(c.space, c.ramification)) == \
        zclear((_x ** 14 * (_x - 1) ** 7 * (_x * 4 - 9) ** 7).coeffs)[0]


def _deg_4_8_chain():
    """The deg-(4, 8) pair reproduced at z = (0, 1, 2) along
    (2, 1, 2, 1, 2) from lam = (0, 2), as (data, y)."""
    data, y = _chains(tuple(map(Fraction, (0, 1, 2))))[(0, 2),
                                                       (2, 1, 2, 1, 2)]
    assert (len(y.y1) - 1, len(y.y2) - 1) == (4, 8)
    return data, y


@pytest.mark.parametrize("j", [0, 1])
def test_a_perturbed_three_point_pair_has_no_kernel(j):
    """+1 on the constant coefficient of y1 or y2 of _deg_4_8_chain leaves
    a residue in the flag's integrals."""
    from g2gaudin import verify
    data, y = _deg_4_8_chain()
    ys = [monic(y.y1), monic(y.y2)]
    ys[j] = ys[j] + 1
    with pytest.raises(ValueError, match="the integrand has a residue"):
        verify.kernel_failure(diffop.Case(data, PolyPair(*ys)))


@pytest.mark.parametrize("fault", ["omega1 at z_3", "y2 coefficient + 1"])
def test_every_stage_of_the_case_check_fails_on_a_planted_fault(fault):
    """On _deg_4_8_chain with omega1 for omega2 at the third point, or +1 on
    the constant coefficient of y2's integer row, case_failure names its
    first stage, the Bethe equations; kernel_failure and the Wronskian
    stage each meet a residue in the flag's integrals, and the residue
    stage names the sum rules."""
    from g2gaudin import verify
    data, y = _deg_4_8_chain()
    if fault == "omega1 at z_3":
        data = data._replace(Lambda=data.Lambda[:2] + (rd.OMEGA1,))
    else:
        y = PolyPair(y.y1, [y.y2[0] + 1] + y.y2[1:])
    c = diffop.Case(data, y)
    assert verify.case_failure(c) == "Bethe equations fail"
    for stage in (verify.kernel_failure, verify._wronskian_failure):
        with pytest.raises(ValueError, match="the integrand has a residue"):
            stage(c)
    assert verify._residue_failure(c).startswith("h2 sum rules fail")


def test_genericity_by_evaluation_matches_the_gcd_form():
    """bethe.is_generic, which evaluates y_j at the points, decides as the
    gcd form kept in oracles on the 210 closed forms of the 5-grid, on the
    pairs reproduced at three points, and on _planted_pairs, where it gives
    both verdicts; Case.factored raises "not a generic pair" exactly where
    it is False."""
    inputs = [(bethe.closed_form(lam, i), bethe.closed_form_pair(lam, i))
              for lam, i in GRID5]
    for z in THREE_POINTS:
        inputs += _chains(tuple(map(Fraction, z))).values()
    planted = _planted_pairs()
    assert (len(inputs), len(planted)) == (210 + 2 * 60, 2 * 60 * 6)
    for pairs in (inputs, planted):
        verdicts = set()
        for data, y in pairs:
            got = bethe.is_generic(y, data.Lambda, data.z)
            assert got is oracles.is_generic_by_gcd(y, data.Lambda, data.z), \
                (y, data)
            c = diffop.Case(data, y)
            if got:
                c.factored
            else:
                with pytest.raises(ValueError, match="not a generic pair"):
                    c.factored
            verdicts.add(got)
        assert verdicts == ({True} if pairs is inputs else {True, False})


def _population(y, T1, T2):
    """The integrated flag of (y, T1, T2) as Polys, over the pairwise coprime
    factors of T1, T2, y1 and y2."""
    fs = [zclear(T1.coeffs)[0], zclear(T2.coeffs)[0], y.y1, y.y2]
    return [Poly(w) for w in
            diffop._population_flag(*diffop._factor_base(fs))]


def test_perturbed_pairs_have_no_population_flag():
    """+1 on any coefficient of y1 or y2 below the leading one leaves a
    residue in some integral or a flag element that is not a polynomial,
    on every case of the 3-grid."""
    seen = 0
    for lam, i in GRID3:
        y = bethe.appendix_solution(lam, i)
        T = bethe.build_calT([lam, rd.OMEGA2], [Fraction(0), Fraction(1)])
        for j in (0, 1):
            for k in range(len((y.y1, y.y2)[j]) - 1):
                ys = [list(monic(y.y1).coeffs), list(monic(y.y2).coeffs)]
                ys[j][k] += 1
                with pytest.raises(ValueError, match="not a Bethe pair"):
                    _population(PolyPair(Poly(ys[0]), Poly(ys[1])), *T)
                seen += 1
    assert seen == 236


def _assert_annihilated_basis(flag, y, T1, T2):
    D = diffop.build_Dy(y, T1, T2)
    assert len({p.degree for p in flag}) == 7
    assert all(oracles.apply(full(D), p).is_zero() for p in flag)


@pytest.mark.parametrize("name", sorted(NONGENERIC))
def test_population_flag_on_nongeneric_inputs(name):
    """On inputs whose factors are not coprime and squarefree, the
    integrated flag either raises or is a basis of 7 polynomials that D_y
    annihilates."""
    y, T1, T2 = NONGENERIC[name]
    try:
        flag = _population(y, T1, T2)
    except ValueError:
        return
    _assert_annihilated_basis(flag, y, T1, T2)


def test_population_flag_through_factor_refinement():
    """Given T1 = x^a and T2 = x^b (x - 1) as polynomials, the factors are
    found by refinement, and the flag of a Bethe pair is a basis of ker D_y;
    so is the flag of the trivial pair, the monomials below degree 7."""
    one = Poly([1])
    assert _population(PolyPair(one, one), one, one) == \
        [Poly([0] * k + [1]) for k in range(7)]
    for lam, i in (((0, 1), 1), ((2, 1), 5), ((3, 3), 6)):
        y = bethe.appendix_solution(lam, i)
        T = bethe.build_calT([lam, rd.OMEGA2], [Fraction(0), Fraction(1)])
        _assert_annihilated_basis(_population(y, *T), y, *T)


def test_integral_is_exact_or_raises():
    """_integral of N / prod B_j^d_j, with N the numerator of (A / E)' over
    prod B_j^d_j, E = prod B_j^(d_j - 1), returns A2 with (A2 / E)' a
    constant multiple of it, and leaves N as it was; an integrand with a
    residue raises, by the residual left at the zero pivot (1/x) or below
    the last pivot (1/(x (x - 1)), whose residues cancel at infinity)."""
    x, x1, q = [0, 1], [-1, 1], [3, 0, 2]  # q = 2x^2 + 3
    for A, d, bases in (([1], (2,), [x]),
                        ([1], (2, 2), [x, x1]),
                        ([5, 0, 0, 0, 7], (3, 0, 2), [x, x1, q]),
                        ([0, 6, 3, 2], (0,), [x]),
                        ([2, -3, 0, 1], (1, 3), [q, x1]),
                        ([4, 0, 1], (4, 1, 1), [x, x1, q])):
        E, D = (_power_product(bases, [max(dj - s, 0) for dj in d])
                for s in (1, 0))
        N = oracles.derivative(RatFunc(Poly(A), E)) * RatFunc(D)
        assert N.den.degree == 0
        N = zclear(N.num.coeffs)[0]
        kept = list(N)
        A2, e = diffop._integral(N, d, bases)
        assert N == kept
        assert e == tuple(max(dj - 1, 0) for dj in d)
        ratio = oracles.derivative(RatFunc(Poly(A2), E)) * RatFunc(D) / Poly(N)
        assert ratio.den.degree == 0 and ratio.num.degree == 0, (A, d)
    for N, d, bases in (([1], (1,), [x]), ([1], (1, 1), [x, x1]),
                        ([0, 1], (2, 1), [x, x1])):
        with pytest.raises(ValueError, match="residue"):
            diffop._integral(N, d, bases)


def _power_product(bases, ex):
    out = Poly([1])
    for b, e in zip(bases, ex):
        out = out * Poly(b) ** e
    return out


def test_per_case_invariants_built_once_change_no_output():
    """The population flag and the conjugated operator, with each base
    power, multiplier, Hermite denominator and power of Q built once per
    case, equal the paths before (oracles) or raise the same error: flag
    rows, (Q, P) and lowest terms, on the 392 closed forms of the 7-grid,
    the 120 pairs reproduced at three points, ROOT_AT_A_POINT, the
    NONGENERIC inputs split by _factor_base and the 1,296 factored forms
    over the bases x and x - 1 with exponents 0-1 in T1 and T2 and 0-2 in
    y1 and y2, where both errors occur; and on the 720 _planted_pairs, the
    flag split by _factor_base, so that the non-generic ones reach the
    integrals too, and (Q, P) of the 330 generic ones' Cases."""
    forms = [diffop.case(lam, i).factored for lam in
             ((a, b) for a in range(8) for b in range(8))
             for i in bethe.admissible_ls(lam)]
    for z in THREE_POINTS:
        forms += [diffop.Case(data, y).factored
                  for data, y in _chains(tuple(map(Fraction, z))).values()]
    forms.append(diffop.Case(*ROOT_AT_A_POINT).factored)
    forms += [diffop._factor_base([zrow(T1), zrow(T2), y.y1, y.y2])
              for y, T1, T2 in NONGENERIC.values()]
    columns = [itertools.product(range(top), repeat=2) for top in (2, 2, 3, 3)]
    forms += [([[0, 1], [-1, 1]], [list(e) for e in es])
              for es in itertools.product(*columns)]
    planted, flags_only = [], []
    for data, y in _planted_pairs():
        T1, T2 = bethe.ramification(data.Lambda, data.z).T[:2]
        flags_only.append(diffop._factor_base([T1, T2, y.y1, y.y2]))
        if bethe.is_generic(y, data.Lambda, data.z):
            planted.append(diffop.Case(data, y).factored)
    assert (len(forms), len(planted), len(flags_only)) == (
        392 + 120 + 1 + len(NONGENERIC) + 1296, 330, 720)
    errors = set()
    for form in forms + planted + flags_only:
        flag = _flag_or_error(lambda: diffop._population_flag(*form))
        assert flag == _flag_or_error(
            lambda: oracles._population_flag(*form)), form
        if isinstance(flag, str):
            errors.add(flag)
    assert errors == {"the integrand has a residue: not a Bethe pair",
                      "a flag element is not a polynomial: not a Bethe pair"}
    for k, form in enumerate(forms + planted):
        D, ref = diffop._conjugated(*form), oracles.conjugated_before(*form)
        assert (D.Q, D.P) == (ref.Q, ref.P), form
        if k < len(forms):
            assert D.lowest_terms == oracles.lowest_terms_before(ref), form


def test_population_flag_builds_each_invariant_once(monkeypatch):
    """On (3,3)/6 the population flag makes its 21 integrals with about 50
    zmul calls in all: each base power, multiplier and Hermite denominator
    once (133 when every integral rebuilt its own)."""
    calls = {"zmul": 0, "zsolve1": 0}

    def counted(name):
        fn = getattr(diffop, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(diffop, name, wrapper)

    form = diffop.Case(bethe.closed_form((3, 3), 6),
                       bethe.closed_form_pair((3, 3), 6)).factored
    counted("zmul")
    counted("zsolve1")
    flag = diffop._population_flag(*form)
    assert calls["zsolve1"] == 21
    assert calls["zmul"] <= 50, calls
    monkeypatch.undo()
    assert flag == oracles._population_flag(*form)
