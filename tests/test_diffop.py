"""Order-7 operators: factorization, conjugation, kernels, exponents."""

import hashlib
from fractions import Fraction

import pytest

from g2gaudin import bethe
from g2gaudin import diffop
from g2gaudin import rootdata as rd
from g2gaudin.bethe import PolyPair
from g2gaudin.exact import Poly, RatFunc, log_deriv


def test_trivial_factorization_is_d7():
    y = PolyPair(Poly([1]), Poly([1]))
    D = diffop.build_Dy(y, Poly([1]), Poly([1]))
    assert all(c.is_zero() for c in D.coeffs)
    assert D.order == 7
    # kernel of d^7 is the polynomials of degree < 7
    ker = diffop.polynomial_kernel(D, 9)
    assert len(ker) == 7


def test_apply_and_kernel_membership():
    D = diffop.appendix_operator((0, 1), 1)
    for p in diffop.kernel_for_case((0, 1), 1):
        assert D.apply(p).is_zero()


def test_conjugate_group_action():
    D = diffop.appendix_operator((0, 1), 0)
    x = Poly([0, 1])
    f = RatFunc(x)
    g = RatFunc(x - Poly([1]))
    assert diffop.conjugate(D, f * g) == \
        diffop.conjugate(diffop.conjugate(D, f), g)


def test_conjugation_roundtrip():
    D = diffop.appendix_operator((1, 1), 2)
    f = RatFunc(Poly([0, 1]) ** 2)
    assert diffop.conjugate(diffop.conjugate(D, f),
                            RatFunc(Poly([1])) / f) == D


def _reference_operator(lam, i, conjugated):
    """D_y as the plain RatFunc product, conjugated by diffop.conjugate."""
    y = bethe.appendix_solution(lam, i)
    T1, T2 = bethe.build_calT([lam, rd.OMEGA2], [Fraction(0), Fraction(1)])
    cs = [RatFunc(Poly([1]))]
    for g in reversed(diffop.dy_factor_functions(y, T1, T2)):
        cs = diffop._lmul_factor(-log_deriv(g), cs)
    D = diffop.DiffOp(tuple(reversed(cs[:-1])))
    return diffop.conjugate(D, RatFunc(T1 ** 2 * T2)) if conjugated else D


def test_common_denominator_product_matches_reference():
    cases = [((a, b), i) for a in range(3) for b in range(3 - a)
             for i in bethe.admissible_ls((a, b))]
    assert len(cases) == 22 and {i for _, i in cases} == set(range(7))
    for lam, i in cases:
        for conjugated in (False, True):
            want = _reference_operator(lam, i, conjugated)
            got = diffop.appendix_operator(lam, i, conjugated=conjugated)
            for k, (g, w) in enumerate(zip(got.coeffs, want.coeffs)):
                assert (g.num, g.den) == (w.num, w.den), (lam, i, conjugated, k)


def _reference_product(gs):
    """(d - ln' g_1)...(d - ln' g_m) as the plain RatFunc product."""
    cs = [RatFunc(Poly([1]))]
    for g in reversed(gs):
        cs = diffop._lmul_factor(-log_deriv(g), cs)
    return diffop.DiffOp(tuple(reversed(cs[:-1])))


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


@pytest.mark.parametrize("name", sorted(NONGENERIC))
def test_direct_factor_product_on_nongeneric_inputs(name):
    y, T1, T2 = NONGENERIC[name]
    gs = diffop.dy_factor_functions(y, T1, T2)
    f = RatFunc(T1 ** 2 * T2)
    want = _reference_product(gs)
    want_conj = diffop.conjugate(want, f)
    for got, ref in ((diffop.build_Dy(y, T1, T2), want),
                     (diffop.from_log_factors(gs), want),
                     (diffop._factor_product(y, T1, T2, diffop._CONJUGATOR),
                      want_conj),
                     (diffop.from_log_factors([g / f for g in gs]),
                      want_conj)):
        assert got.order == 7
        for k, (g, w) in enumerate(zip(got.coeffs, ref.coeffs)):
            assert (g.num, g.den) == (w.num, w.den), (name, k)


def test_exponents_regular_point():
    y = PolyPair(Poly([1]), Poly([1]))
    D = diffop.build_Dy(y, Poly([1]), Poly([1]))
    assert diffop.exponents_at(D, Fraction(0)).exponents == \
        (0, 1, 2, 3, 4, 5, 6)
    assert diffop.exponents_at(D, "inf").exponents == \
        (-6, -5, -4, -3, -2, -1, 0)


def test_exponents_printed_example():
    # conjugated operator for lambda=(0,1), case 1: resulting weight (1,0)
    D = diffop.appendix_operator((0, 1), 1, conjugated=True)
    assert diffop.exponents_at(D, "inf").exponents == \
        (-8, -6, -5, -3, -1, 0, 2)


def test_exponents_finite_formula():
    lam = (1, 1)
    D = diffop.appendix_operator(lam, 3, conjugated=True)
    a, b = lam
    want = tuple(sorted((-2 * a - b, -a - b + 1, -a + 2, 3,
                         a + 4, a + b + 5, 2 * a + b + 6)))
    assert diffop.exponents_at(D, Fraction(0)).exponents == want


def test_kernel_dimension():
    for lam, i in (((0, 0), 0), ((1, 0), 2), ((2, 2), 4)):
        assert len(diffop.kernel_for_case(lam, i)) == 7


def test_kernel_rejects_perturbed_solution(monkeypatch):
    exact = bethe.appendix_solution

    def perturbed(lam, i):
        y = exact(lam, i)
        if (lam, i) == ((1, 1), 2):
            return PolyPair(y.y1 + Fraction(1, 7), y.y2)
        return y

    monkeypatch.setattr(bethe, "appendix_solution", perturbed)
    with pytest.raises(ValueError, match="kernel dimension"):
        diffop.kernel_for_case((1, 1), 2)


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


def _laurent_by_shift(f, p, m):
    """Coefficient of (x-p)^-m of f at p from the Taylor shift over Q."""
    num, den = f.num.shift(p), f.den.shift(p)
    vn, vd = num.valuation(), den.valuation()
    if vn - vd > -m:
        return Fraction(0)
    if vn - vd < -m:
        raise ValueError("pole too high")
    return num.coeffs[vn] / den.coeffs[vd]


def test_laurent_coeff_matches_taylor_shift():
    x = Poly([0, 1])
    ps = [Fraction(0), Fraction(1), Fraction(-3), Fraction(1, 2),
          Fraction(-2, 3)]
    fs = [RatFunc(Poly([5, -1, 2]), (x - Poly([p])) ** k * (x + Poly([7])))
          for p in ps for k in range(3)]
    fs.append(RatFunc((x - Poly([Fraction(1, 2)])) ** 2 * Poly([3, 1]),
                      Poly([Fraction(2, 9), 0, 1])))
    fs.append(RatFunc(Poly()))
    checked = 0
    for f in fs:
        for p in ps:
            for m in (1, 2, 3):
                try:
                    want = _laurent_by_shift(f, p, m)
                except ValueError:
                    with pytest.raises(ValueError):
                        diffop._laurent_coeff(f, p, m)
                    continue
                assert diffop._laurent_coeff(f, p, m) == want, (f, p, m)
                checked += want != 0
    assert checked >= 10


def test_exponents_at_rational_points():
    D = diffop.appendix_operator((1, 2), 5, conjugated=True)
    for p in (Fraction(1, 2), Fraction(-7, 3)):
        assert diffop.exponents_at(D, p).exponents == tuple(range(7))
    with pytest.raises(ValueError):
        diffop._integer_roots(Poly([Fraction(-1, 4), 0, 1]))
    assert diffop._integer_roots(Poly([0, 0, -6, 1, 1])) == [-3, 0, 0, 2]


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
                    D = diffop.appendix_operator((a, b), i, conjugated=conj)
                    for p in (Fraction(0), Fraction(1), "inf",
                              Fraction(1, 2), Fraction(-3, 2)):
                        h.update(repr(diffop.exponents_at(D, p).exponents)
                                 .encode())
    assert h.hexdigest() == ("3757f74922c2146722118e41e48eb034"
                             "f159e4ad560794ba8df5890b01339209")
