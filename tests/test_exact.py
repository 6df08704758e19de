"""Exact arithmetic: Q(sqrt2), polynomials, rational functions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2gaudin.exact import (Poly, QSqrt2, RatFunc, log_deriv, poly_det,
                            poly_gcd, residue_at, wronskian, zclear,
                            zeliminate, zgcd, zpoly, zwronski_matrix)

fracs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 10))
qs = st.builds(QSqrt2, fracs, fracs)
small_polys = st.lists(fracs, min_size=0, max_size=5).map(Poly)


@given(qs, qs, qs)
@settings(max_examples=50, deadline=None)
def test_qsqrt2_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a


@given(qs)
@settings(max_examples=50, deadline=None)
def test_qsqrt2_inverse_and_conjugate(a):
    if a:
        assert a * a.inverse() == QSqrt2(1)
    assert a + a.conjugate() == QSqrt2(2 * a.a)
    assert a * a.conjugate() == QSqrt2(a.a * a.a - 2 * a.b * a.b)


def test_qsqrt2_basics():
    r2 = QSqrt2(0, 1)
    assert r2 * r2 == QSqrt2(2)
    assert (1 / r2) * r2 == QSqrt2(1)


def test_poly_int_coeffs_coerced():
    p = Poly([1, 1])  # int inputs must become Fractions
    assert (p.monic())[0] == Fraction(1)
    q, r = Poly([0, 0, 1]).divmod(Poly([1, 2]))
    assert isinstance(q[0], Fraction)


@given(small_polys, small_polys)
@settings(max_examples=50, deadline=None)
def test_poly_divmod(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert a == q * b + r
    assert r.is_zero() or r.degree < b.degree


def poly_lcm(f, g):
    """The monic lcm of f and g, 0 if either is 0."""
    if f.is_zero() or g.is_zero():
        return Poly()
    return (f * g).exact_div(poly_gcd(f, g)).monic()


@given(small_polys, small_polys)
@settings(max_examples=50, deadline=None)
def test_gcd_divides(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert a.divmod(g)[1].is_zero()
    assert b.divmod(g)[1].is_zero()
    if a and b:
        lcm = poly_lcm(a, b)
        assert lcm.divmod(a)[1].is_zero() and lcm.divmod(b)[1].is_zero()


def test_exact_div_raises():
    with pytest.raises(ValueError):
        Poly([1, 0, 1]).exact_div(Poly([0, 1]))


def test_shift_and_valuation():
    p = Poly([0, 0, 1])  # x^2
    assert p.shift(1) == Poly([1, 2, 1])
    assert (Poly([-1, 1]) ** 3).valuation(1) == 3


def test_wronskian_examples():
    x = Poly([0, 1])
    assert wronskian([Poly([1]), x]) == Poly([1])
    # Wr(1, x, x^2) = 2
    assert wronskian([Poly([1]), x, x * x]) == Poly([2])
    # alternating: swapped arguments flip the sign
    assert wronskian([x, Poly([1])]) == Poly([-1])


def test_ratfunc_reduction_and_pow():
    x = Poly([0, 1])
    f = RatFunc(x * x * (x - Poly([1])), x)
    assert f.num == x * (x - Poly([1])) and f.den == Poly([1])
    g = RatFunc(Poly([1]), x)
    assert (g ** -2) == RatFunc(x * x)


def test_residue_and_log_deriv():
    x = Poly([0, 1])
    assert residue_at(RatFunc(Poly([1]), x), Fraction(0)) == 1
    assert residue_at(RatFunc(Poly([3]), x - Poly([2])), Fraction(2)) == 3
    f = RatFunc(x ** 4)
    assert log_deriv(f) == RatFunc(Poly([4]), x)
    # product rule
    g = RatFunc(x - Poly([1]))
    assert log_deriv(f * g) == log_deriv(f) + log_deriv(g)


@st.composite
def poly_matrices(draw):
    """Square matrices of rational polynomials, n <= 4, with zero entries
    (forcing pivot swaps) and, sometimes, a last row that is a polynomial
    multiple of the first (a singular matrix)."""
    n = draw(st.integers(0, 4))
    entry = st.one_of(st.just(Poly()), small_polys)
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        q = draw(small_polys)
        m[-1] = [q * p for p in m[0]]
    return m


def _leibniz_det(m):
    total = Poly()
    for perm in itertools.permutations(range(len(m))):
        term = Poly([1])
        for i, j in enumerate(perm):
            term = term * m[i][j]
        inversions = sum(perm[a] > perm[b] for a in range(len(perm))
                         for b in range(a + 1, len(perm)))
        total = total - term if inversions % 2 else total + term
    return total


@given(poly_matrices())
@settings(max_examples=60, deadline=None)
def test_poly_det_matches_leibniz(m):
    got = poly_det(m)
    assert got == _leibniz_det(m)
    assert all(isinstance(c, Fraction) for c in got.coeffs)


@given(st.lists(small_polys, max_size=4))
@settings(max_examples=60, deadline=None)
def test_wronskian_matches_leibniz(fs):
    rows = [fs]
    for _ in range(len(fs) - 1):
        rows.append([f.derivative() for f in rows[-1]])
    assert wronskian(fs) == _leibniz_det(rows if fs else [])


@given(small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_integer_gcd_matches_field_gcd(a, b):
    g = zgcd(zclear(a.coeffs)[0], zclear(b.coeffs)[0])
    assert zpoly(g).monic() == poly_gcd(a, b)


def test_q_only_paths_reject_qsqrt2():
    """Polynomials are over Q: a QSqrt2 coefficient is rejected when the
    Poly or RatFunc is built."""
    with pytest.raises(TypeError):
        Poly([QSqrt2(0, 1), Fraction(1)])
    with pytest.raises(TypeError):
        RatFunc(QSqrt2(0, 1))
    with pytest.raises(TypeError):
        RatFunc(Poly([1, 1]), QSqrt2(1, 1))


def _int_poly_matrix(rng, n, c):
    """Integer coefficient lists without trailing zeros."""
    return [[zclear(Poly([rng.randint(-4, 4)
                          for _ in range(rng.randint(0, 3))]).coeffs)[0]
             for _ in range(c)] for _ in range(n)]


def test_gauss_jordan_gives_cramer_minors():
    """[d I | C] after a full fraction-free Gauss-Jordan run: d is the
    leading n-minor and C[i][j] the minor with column n + j in place i."""
    import random
    rng = random.Random(5)
    det = lambda m: poly_det([[zpoly(e) for e in row] for row in m])
    for n, extra in ((1, 1), (2, 2), (3, 2), (4, 1)):
        for _ in range(10):
            m = _int_poly_matrix(rng, n, n + extra)
            work = [list(row) for row in m]
            sign, pivots = zeliminate(work, jordan=True)
            lead = det([row[:n] for row in m])
            if lead.is_zero():
                continue
            assert len(pivots) == n and sign in (1, -1)
            assert zpoly(pivots[-1]) * sign == lead
            for i in range(n):
                assert zpoly(work[i][i]) == zpoly(pivots[-1])
                assert all(not work[i][k] for k in range(n) if k != i)
                for j in range(extra):
                    cols = [row[:i] + [row[n + j]] + row[i + 1:n]
                            for row in m]
                    assert zpoly(work[i][n + j]) * sign == det(cols)


@given(st.lists(small_polys, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_wronski_pivots_are_leading_wronskians(fs):
    """No row exchange on a Wronski matrix: pivot k is Wr(f_1..f_k) up to
    the column denominators, and the pivots stop exactly where the f_j
    become dependent."""
    pairs = [zclear(f.coeffs) for f in fs]
    dens = [d for _, d in pairs]
    sign, pivots = zeliminate(zwronski_matrix([a for a, _ in pairs]))
    assert sign == 1
    scale = 1
    for k in range(len(fs)):
        scale *= dens[k]
        w = wronskian(fs[:k + 1])
        if k < len(pivots):
            assert zpoly(pivots[k], scale) == w and not w.is_zero()
        else:
            assert w.is_zero()
