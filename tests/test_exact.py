"""Exact arithmetic: polynomials and rational functions over Q, and the
Q(sqrt2) scalar of the oracles."""

import functools
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from g2gaudin import exact
from g2gaudin.exact import (Poly, RatFunc, poly_det, poly_gcd,
                            wronskian, zadd, zclear, zderiv, zgcd, zmul,
                            zpoly, zprefix_levels, zquo, zscale, zsub, zwr,
                            zwronski_minors, zwronskian_past, zwronskians)
from oracles import (QSqrt2, log_deriv, residue_at, shift, valuation,
                     zwr_by_products)

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
    """The oracles' Taylor shift, and the valuation at 0."""
    p = Poly([0, 0, 1])  # x^2
    assert shift(p, 1) == Poly([1, 2, 1])
    assert valuation(shift(Poly([-1, 1]) ** 3, 1)) == 3
    assert valuation(Poly([0, 0, 5, 1])) == 2
    assert valuation(Poly()) > 1000


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
    """The oracles' residue and logarithmic derivative."""
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
    """Polynomials are over Q: a coefficient in Q(sqrt2) (the oracles'
    scalar) is rejected when the Poly or RatFunc is built."""
    with pytest.raises(TypeError):
        Poly([QSqrt2(0, 1), Fraction(1)])
    with pytest.raises(TypeError):
        RatFunc(QSqrt2(0, 1))
    with pytest.raises(TypeError):
        RatFunc(Poly([1, 1]), QSqrt2(1, 1))


@st.composite
def int_families(draw):
    """Families of n <= 7 integer polynomials as integer lists: all of one
    degree top >= n - 1 or of distinct degrees at most top, in half of them
    each member times its own x^k, k <= 3 (as ramification at 0 makes them,
    so the Wronskians carry powers of x), and in half of them one member
    replaced by an integer combination of earlier ones (a dependent
    family)."""
    n = draw(st.integers(0, 7))
    top = draw(st.integers(max(0, n - 1), 8))
    degs = draw(st.one_of(st.just([top] * n),
                          st.permutations(range(top + 1))))[:n]
    fs = []
    for deg in degs:
        f = draw(st.lists(st.integers(-4, 4), min_size=deg, max_size=deg))
        fs.append(f + [draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))])
    if draw(st.booleans()):
        fs = [[0] * draw(st.integers(0, 3)) + f for f in fs]
    if n >= 2 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        a, b = draw(st.sampled_from(fs[:k])), draw(st.sampled_from(fs[:k]))
        fs[k] = zadd(zscale(draw(st.integers(-2, 2)), a),
                     zscale(draw(st.integers(-2, 2)), b))
    return fs


@st.composite
def xpower_rows(draw):
    """Integer lists of degree < 6 times x^k, 0 <= k <= 12: [] and the
    constants among them."""
    f = zadd(draw(st.lists(st.integers(-9, 9), max_size=6)), [])
    return [0] * draw(st.integers(0, 12)) + f if f else []


@given(xpower_rows(), xpower_rows())
@settings(max_examples=200, deadline=None)
def test_one_pass_wronskian_matches_the_products(f, g):
    """zwr, one pass over the nonzero coefficients, against f g' - f' g by
    two derivatives and two full products."""
    assert zwr(f, g) == zwr_by_products(f, g)


@given(xpower_rows(), xpower_rows(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_quotient_matches_poly_divmod(q, b, multiple):
    """zquo(a, b) for a = b q or a = q: the quotient of Poly.divmod when it
    is exact and integer, ValueError otherwise, so also whenever a carries
    a lower power of x than b."""
    assume(b)
    a = zmul(b, q) if multiple else q
    want, r = Poly(a).divmod(Poly(b))
    if r or any(c.denominator != 1 for c in want.coeffs):
        with pytest.raises(ValueError):
            zquo(a, b)
    else:
        assert zquo(a, b) == [int(c) for c in want.coeffs]


def test_quotient_strips_the_power_of_x():
    assert zquo([0, 0, 0, 6, 3], [0, 0, 3]) == [0, 2, 1]
    assert zquo([], [0, 0, 3]) == [] and zquo([5], [5]) == [1]
    for a in ([0, 1], [1, 1], [0, 4, 0, 0, 1]):
        with pytest.raises(ValueError):
            zquo(a, [0, 0, 1])


def _zleibniz_det(m):
    """Determinant of a square matrix of integer lists by the Leibniz
    formula: the signed sum over the permutations p of the products
    m[0][p(0)] ... m[n-1][p(n-1)], built row by row and skipping those
    through a zero entry.  Column j taken as the k-th of those left adds k
    inversions."""
    def terms(i, cols, acc, sign):
        if i == len(m):
            yield zscale(sign, acc)
            return
        for k, j in enumerate(cols):
            if m[i][j]:
                yield from terms(i + 1, cols[:k] + cols[k + 1:],
                                 zmul(acc, m[i][j]), sign * (-1) ** k)
    total = []
    for t in terms(0, list(range(len(m))), [1], 1):
        total = zadd(total, t)
    return total


def _wronski_det(fs):
    """Wr(fs) of integer lists by _zleibniz_det of the Wronski matrix."""
    rows = [list(fs)]
    for _ in range(len(fs) - 1):
        rows.append([zderiv(f) for f in rows[-1]])
    return _zleibniz_det(rows if fs else [])


def test_leibniz_oracles_agree():
    """The integer Leibniz oracle against the Poly one on small matrices."""
    rng = random.Random(7)
    entry = lambda d: [] if d < 0 else \
        [rng.randint(-3, 3) for _ in range(d)] + [rng.choice((-2, -1, 1, 2))]
    for n in range(5):
        m = [[entry(rng.randint(-1, 2)) for _ in range(n)] for _ in range(n)]
        want = _leibniz_det([[Poly(f) for f in row] for row in m])
        assert zpoly(_zleibniz_det(m)) == want


def test_empty_wronskians():
    assert zwronskians([]) == [[1]] and zwronski_minors([]) == []
    assert zwronski_minors([[0, 1]]) == [[1]]
    assert zwronski_minors([[0, 1], [1]]) == [[1], [0, 1]]


def test_wronski_minors_never_form_the_full_wronskian(monkeypatch):
    """For seven functions the minors take 20 zwr on the prefix chain (its
    levels 0..5) and 35 continuing it, 55 in all: the level-6 step, whose
    only entry would be the full Wronskian, is never taken."""
    calls, zwr = [], exact.zwr

    def counted(f, g):
        calls.append(1)
        return zwr(f, g)

    fs = [[0] * k + [1, k + 1] for k in range(7)]
    want = [_wronski_det(fs[:i] + fs[i + 1:]) for i in range(7)]
    monkeypatch.setattr(exact, "zwr", counted)
    assert zwronski_minors(fs) == want
    assert len(calls) == 55
    # the same 55 split at the levels: 20 on the prefix chain, 35 to
    # continue it, and the full Wronskian is one more step past them
    levels = zprefix_levels(fs)
    assert len(calls) == 75
    assert zwronski_minors(fs, levels) == want and len(calls) == 110
    assert zwronskian_past(levels) == _wronski_det(fs)
    assert len(calls) == 111


@given(int_families())
@settings(max_examples=60, deadline=None)
def test_leading_wronskians_match_leibniz(fs):
    """zwronskians(fs)[k] is Wr(f_1..f_k) exactly, sign included, also
    past a dependent prefix."""
    assert zwronskians(fs) == [_wronski_det(fs[:k])
                               for k in range(len(fs) + 1)]


@given(int_families())
@settings(max_examples=60, deadline=None)
def test_prefix_levels_hold_the_leading_wronskians(fs):
    """zprefix_levels(fs) holds levels 0..n-2, fewer only after a zero
    pivot: their pivots and the first entry of the last are Wr(f_1..f_k)
    for k < n, zwronskian_past is Wr(f_1..f_n), and zwronski_minors given
    the levels is zwronski_minors from scratch."""
    assume(len(fs) >= 2)
    levels = zprefix_levels(fs)
    ws = [_wronski_det(fs[:k]) for k in range(len(fs) + 1)]
    pivots = [prev for prev, _ in levels] + [levels[-1][1][0]]
    assert pivots == ws[:len(pivots)]
    assert len(levels) == len(fs) - 1 or not pivots[-1]
    assert zwronskian_past(levels) == ws[-1]
    assert zwronski_minors(fs, levels) == zwronski_minors(fs)


@given(int_families())
@settings(max_examples=60, deadline=None)
def test_wronski_minors_match_leibniz(fs):
    """zwronski_minors(fs)[i] is Wr of fs without f_(i+1), in order."""
    assert zwronski_minors(fs) == [_wronski_det(fs[:i] + fs[i + 1:])
                                   for i in range(len(fs))]


@st.composite
def ramified_families(draw):
    """(fs, ts): n <= 7 integer lists f_j = (s x - r)^(e_j) u_j, u_j of
    degree <= 2, one of them in half the draws a sum of two others (so a
    Wronskian may vanish), with e_j = p_(8-j) + j - 1 for a partition p of
    7 parts, s > 0 and gcd(r, s) = 1; ts = T_7..T_1 with T_i = (s x -
    r)^(p_i - p_(i+1)), primitive.  Every k of the f_j vanish at r / s to
    order at least the sum of the k lowest e_j, so each Wr / t_k is in
    Z[x]."""
    s = draw(st.integers(1, 3))
    r = draw(st.integers(-3, 3).filter(lambda v: gcd(v, s) == 1))
    steps = draw(st.lists(st.integers(0, 2), min_size=7, max_size=7))
    p = [sum(steps[i:]) for i in range(7)] + [0]
    power = lambda e: functools.reduce(zmul, [[-r, s]] * e, [1])
    ts = tuple(power(p[i] - p[i + 1]) for i in range(6, -1, -1))
    n = draw(st.integers(1, 7))
    fs = [zmul(power(p[7 - j] + j - 1),
               draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)
                    .filter(any)))
          for j in range(1, n + 1)]
    if n > 2 and draw(st.booleans()):
        fs[-1] = zadd(fs[0], fs[1])
    return [zadd(f, []) for f in fs], ts


@given(ramified_families())
@settings(max_examples=80, deadline=None)
def test_divided_recursion_is_the_undivided_one_divided(family):
    """With divisors ts every level entry, leading Wronskian, minor and the
    full Wronskian is the undivided one over t_k = prod_(i<=k) ts[i-1]^(k+1-
    i), k the number of elements, by one exact division."""
    fs, ts = family
    t, step = [[1]], [1]
    for k in range(7):
        step = zmul(step, ts[k])
        t.append(zmul(t[-1], step))
    div = lambda w, k: zquo(w, t[k]) if w else []
    assert zwronskians(fs, ts) == [div(w, k)
                                   for k, w in enumerate(zwronskians(fs))]
    n = len(fs)
    assert zwronski_minors(fs, None, ts) == [div(m, n - 1)
                                             for m in zwronski_minors(fs)]
    if n < 2:
        return
    levels, plain = zprefix_levels(fs, ts), zprefix_levels(fs)
    assert len(levels) == len(plain)
    for k, ((p, gs), (q, hs)) in enumerate(zip(levels, plain)):
        assert p == div(q, k) and gs == [div(h, k + 1) for h in hs]
    assert zwronski_minors(fs, levels, ts) == zwronski_minors(fs, None, ts)
    assert zwronskian_past(levels, ts) == div(zwronskian_past(plain), n)


def test_divided_recursion_raises_at_the_first_inexact_level():
    """x and 1 lack the ramification x^2 | Wr that T_6 = x would claim: the
    level-1 entry Wr(x, 1) = -1 is not divisible by x."""
    with pytest.raises(ValueError, match="inexact"):
        zprefix_levels([[0, 1], [1], [0, 0, 1]], ([1], [0, 1]))
    assert zprefix_levels([[0, 1], [1], [0, 0, 1]], ([1], [1])) == \
        zprefix_levels([[0, 1], [1], [0, 0, 1]])


def test_poly_is_not_iterable():
    """A Poly where an integer list is expected fails at once: iterating
    it would otherwise run through __getitem__ without end."""
    with pytest.raises(TypeError):
        iter(Poly([1, 2]))
    with pytest.raises(TypeError):
        zwronskians([Poly([1, 2]), Poly([0, 1])])


def _image(p, q, A):
    """p A' + q A."""
    return zadd(zmul(p, zderiv(A)), zmul(q, A))


def test_first_order_solve_satisfies_its_equation():
    """zsolve1 on N = p B' + q B for random integer lists B.  With no zero
    pivot k lead(p) + q_(deg p - 1), k >= 0, it returns (c B, c), c > 0.
    For p = H P and q = -H' P, whose homogeneous solution is H, it returns
    c B less the multiple of H that makes it 0 at the zero pivot deg H."""
    rng = random.Random(2020)

    def rand(d):
        return [rng.randint(-4, 4) for _ in range(d)] + [rng.choice((-3, 1, 2))]

    for n in range(400):
        B = zadd([rng.randint(-4, 4) for _ in range(rng.randint(0, 7))], [])
        if n % 2:
            dp = rng.randint(1, 4)
            p, q = rand(dp), rand(dp - 1)
            if q[-1] % p[-1] == 0 and q[-1] // p[-1] <= 0:
                q[-1] = p[-1]  # the zero pivot at -1
        else:
            H, P = rand(rng.randint(0, 3)), rand(rng.randint(0, 2))
            p, q = zmul(H, P), zscale(-1, zmul(zderiv(H), P))
        N = _image(p, q, B)
        A, c = exact.zsolve1(p, q, N)
        assert c > 0 and _image(p, q, A) == zscale(c, N)
        if n % 2:
            assert A == zscale(c, B)
        else:
            k0 = len(H) - 1
            Ak0, Bk0 = ((f + [0] * len(H))[k0] for f in (A, B))
            assert Ak0 == 0 and zscale(H[-1], A) == zsub(
                zscale(c * H[-1], B), zscale(c * Bk0, H))


def test_first_order_solve_sets_the_zero_pivot_and_finds_residues():
    """x A' - 3 A = N: the homogeneous solution x^3 is the zero pivot, so
    1 + x^3 + 2 x^4 comes back as 1 + 2 x^4, and x^3 itself, a residual
    at the zero pivot, has no solution; nor has 1 / (x (x - 1)), a residual
    below the last pivot, whose two residues cancel at infinity."""
    x, q = [0, 1], [-3]
    B = [1, 0, 0, 1, 2]
    A, c = exact.zsolve1(x, q, _image(x, q, B))
    assert A == zscale(c, [1, 0, 0, 0, 2])
    assert exact.zsolve1(x, q, [0, 0, 0, 1]) is None
    assert exact.zsolve1([0, -1, 1], [], [1]) is None
    assert exact.zsolve1([0, -1, 1], [], []) == ([], 1)


def test_a_zero_divisor_raises_zero_division():
    """zquo and zprem by the zero list, and zsolve1 with p = 0, raise
    ZeroDivisionError as Poly.divmod does, not an IndexError."""
    for divide in (lambda: exact.zquo([1, 2], []), lambda: exact.zquo([], []),
                   lambda: exact.zprem([1, 2], []),
                   lambda: exact.zsolve1([], [1], [1])):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            divide()
