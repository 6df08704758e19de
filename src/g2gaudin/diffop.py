"""Order-7 differential operators attached to Bethe solutions: construction
from the 7-factor product, conjugation, the polynomial kernel and its flag
by exact integration (and the kernel by a nullspace below a degree bound
the caller gives, as a reference), and Fuchsian exponents.  D_y, its
conjugate and the flag read one factored form: coprime squarefree bases and
their exponents in T1, T2, y1 and y2.  A Case reads it off with no gcd;
unfactored input is split by _factor_base, the one gcd factorization."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import lcm
from operator import mul

from . import bethe
from . import repn
from . import rootdata as rd
from .exact import (Poly, RatFunc, zadd, zderiv, zechelon, zgcd, zhomeval,
                    zlcm, zmul, zpoly, zprimitive, zquo, zratfunc, zreduce,
                    zrow, zscale, zsolve1, zsub)


@dataclass(frozen=True, eq=False)
class DiffOp:
    """The monic operator d^n + sum_(k<n) P[k] / Q^(n-k) d^k over Z[x]: Q
    squarefree and primitive, P[k] integer lists.  The d^k coefficient has
    a pole of order at most n - k at each root of Q and none elsewhere, so
    the operator is Fuchsian at every finite point.  == compares
    lowest_terms, which are canonical: the operators, not their (Q, P)."""
    Q: list
    P: tuple

    @property
    def order(self):
        return len(self.P)

    @cached_property
    def lowest_terms(self):
        """The coefficients of d^(n-1) .. d^0 as (num, den) integer lists in
        lowest terms, den primitive with positive leading coefficient (a
        product of factors of Q), so equal coefficients give equal pairs:
        the one path from (Q, P) to lowest terms, which g2 diffop prints."""
        n = self.order
        powers = list(accumulate([self.Q] * n, zmul))
        return tuple(_reduce_over_power(self.P[k], self.Q, n - k, powers)
                     for k in range(n - 1, -1, -1))

    @cached_property
    def coeffs(self):
        """lowest_terms as RatFuncs: the one place an operator becomes
        RatFuncs."""
        return tuple(zratfunc(*c) for c in self.lowest_terms)

    def __eq__(self, other):
        return (isinstance(other, DiffOp)
                and self.lowest_terms == other.lowest_terms)


# exponents of the seven factor functions g_k over (T1, T2, y1, y2),
# leftmost factor first; see dy_factor_functions
_DY_EXPONENTS = ((4, 2, -1, 0), (3, 2, 1, -1), (3, 1, -2, 1), (2, 1, 0, 0),
                 (1, 1, 2, -1), (1, 0, -1, 1), (0, 0, 1, 0))
# the exponents of T1^2 T2, by which Case.conjugated conjugates
_CONJUGATOR = (2, 1, 0, 0)


def _exponents(factors, exps):
    """Over the bases, the exponents of prod_i f_i^e_i for each e in exps."""
    cols = list(zip(*factors))
    return [[sum(map(mul, ek, col)) for col in cols] for ek in exps]


def _support(bases, *rowsets):
    """The product of the bases with a nonzero exponent in each set of rows."""
    occurs = zip(*([any(col) for col in zip(*rows)] for rows in rowsets))
    return reduce(zmul, (b for b, o in zip(bases, occurs) if all(o)), [1])


def _log_factors(bases, exps):
    """(Q, [W_k]) with ln' g_k = W_k / Q for g_k = prod_j B_j^exps[k][j],
    the B_j = bases[j] pairwise coprime, squarefree and primitive: Q is the
    product of the B_j that occur in some g_k, so squarefree, and
    W_k = Q ln' g_k = sum_j e_kj B_j' Q / B_j.  No gcd is taken."""
    Q = _support(bases, exps)
    logs = [zmul(zderiv(b), zquo(Q, b)) if any(col) else []
            for b, *col in zip(bases, *exps)]
    return Q, [reduce(zadd, (zscale(ej, lg) for ej, lg in zip(e, logs) if ej),
                      []) for e in exps]


def apply_log_factor(Q, dQ, W, P, j):
    """Q^(j+1) (d - W/Q)(P / Q^j) = Q P' - j Q' P - W P, for dQ = Q'."""
    jW = zadd(zscale(j, dQ), W) if W else zscale(j, dQ)
    return zsub(zmul(Q, zderiv(P)), zmul(jW, P))


def _compose(Q, dQ, W, ps):
    """The d^k numerators over Q^(n+1-k) of (d - W/Q) ps, for ps the
    numerators P_k over Q^(n-k) of an operator of order n and dQ = Q': P_k
    goes to d^(k+1) and apply_log_factor(Q, dQ, W, P_k, n - k) to d^k, so a
    zero P_k adds nothing."""
    n, out = len(ps) - 1, [[]] + ps
    for k, p in enumerate(ps):
        if p:
            out[k] = zadd(out[k], apply_log_factor(Q, dQ, W, p, n - k))
    return out


def _divided(Q, ps, Y, lift=(1,)):
    """The operator sum_k ps[k] / Q^(m-k) d^k, ps[m] = [1], over Q / Y, each
    P_k divided by Y^(m-k), so over Q as it is for Y = 1; or, when one of
    these divisions is inexact, over Q lift, each P_k times lift^(m-k)."""
    if len(Y) == 1:
        return DiffOp(Q, tuple(ps[:-1]))

    def powers(op, F):
        Fs = accumulate([F] * (len(ps) - 1), zmul)
        return tuple(reversed([op(p, Fe) for p, Fe in zip(ps[-2::-1], Fs)]))
    try:
        return DiffOp(zquo(Q, Y), powers(zquo, Y))
    except ValueError:
        return DiffOp(zmul(Q, lift), powers(zmul, lift))


def _product(bases, ex, kept):
    """prod_j B_j^ex_j, B_j = bases[j], for an exponent tuple ex: kept holds
    the products built before over the same bases (and [1] under ex = 0),
    so each one is built once, one zmul by a base from one power lower."""
    lower = []
    while ex not in kept:
        j = max(j for j, e in enumerate(ex) if e)
        lower.append((ex, j))
        ex = ex[:j] + (ex[j] - 1,) + ex[j + 1:]
    out = kept[ex]
    for ex, j in reversed(lower):
        out = kept[ex] = zmul(out, bases[j])
    return out


def _integral(N, d, bases, kept=None):
    """(A, e) with A / prod B_j^e_j an antiderivative of N / prod B_j^d_j up
    to a nonzero constant factor, B_j = bases[j], d_j >= 0 and
    e_j = max(d_j - 1, 0): Hermite reduction with the denominator known.

    With E = prod B_j^e_j, rad the product of the B_j with d_j > 0 and
    S = sum_j e_j B_j' rad / B_j, (A / E)' = (A' rad - A S) / (E rad) for any
    polynomials B_j; exact.zsolve1 solves A' rad - A S = c N, its zero pivot
    deg E the constant of integration.  For pairwise coprime squarefree B_j
    that fails, with ValueError, exactly when the integrand has a residue.
    kept, a dict kept over the same bases, holds (rad, -S, e) under d once
    built."""
    kept = {} if kept is None else kept
    if d not in kept:
        active = [j for j, dj in enumerate(d) if dj]
        rad, S = [1], []
        for j in active:
            rad = zmul(rad, bases[j])
            if d[j] > 1:
                cof = reduce(zmul, (bases[k] for k in active if k != j), [1])
                S = zadd(S, zscale(d[j] - 1, zmul(zderiv(bases[j]), cof)))
        kept[d] = rad, zscale(-1, S), tuple(max(dj - 1, 0) for dj in d)
    rad, S, e = kept[d]
    sol = zsolve1(rad, S, zprimitive(N))
    if sol is None:
        raise ValueError("the integrand has a residue: not a Bethe pair")
    return zprimitive(sol[0]), e


def _population_flag(bases, factors):
    """Integer lists w_1..w_7 with w_1..w_i in ker(L_m...L_7), m = 8 - i,
    and a basis of it once independent (zechelon checks that), for
    D_y = L_1...L_7, L_k = d - ln' h_k; given pairwise coprime squarefree
    integer lists B_j = bases[j] and the exponents of each B_j in T1, T2,
    y1 and y2 (factors[0..3]).

    Mukhin-Varchenko's population: h^-1 L_k h = d - ln'(h_k / h), so the flag
    of (h_1..h_m) is h_m followed by h_m times an antiderivative of each
    element of the flag of (h_1 / h_m, ..., h_(m-1) / h_m).  Unrolled,
    w_i = h_7 int r_6 int r_5 ... int r_(8-i) with r_k = h_k / h_(k+1):
    21 integrals in all, each a _integral over the known bases, so no gcd
    is taken.  What the integrals share is built once for the call: each
    product of base powers (_product), each step from one integrand to the
    next, and each Hermite denominator.  Every step is an identity and the
    last is one exact division in Z[x]; ValueError if an integrand has a
    residue or an element is not a polynomial, so each element returned is
    a polynomial in ker D_y."""
    h = _exponents(factors, _DY_EXPONENTS)
    ratios = [tuple(a - b for a, b in zip(h[k], h[k + 1])) for k in range(6)]
    zero, last = (0,) * len(bases), tuple(h[6])
    products, steps, hermite, flag = {zero: [1]}, {}, {}, []

    def times(N, d, c):
        """N / prod B_j^d_j times prod B_j^c_j, as (numerator, d'), d' >= 0:
        one zmul by the powers that d does not cancel, found once."""
        if (d, c) not in steps:
            up = tuple(max(cj - dj, 0) for dj, cj in zip(d, c))
            steps[d, c] = (_product(bases, up, products),
                           tuple(max(dj - cj, 0) for dj, cj in zip(d, c)))
        M, d = steps[d, c]
        return (N if M == [1] else zmul(N, M)), d

    for i in range(7):
        N, d = [1], zero
        for r in ratios[6 - i:]:
            N, d = _integral(*times(N, d, r), bases, hermite)
        N, d = times(N, d, last)
        if d != zero:
            try:
                N = zquo(N, _product(bases, d, products))
            except ValueError:
                raise ValueError("a flag element is not a polynomial: "
                                 "not a Bethe pair") from None
        flag.append(zprimitive(N))
    return flag


def _factor_base(fs):
    """(bases, factors): pairwise coprime squarefree primitive B_j with
    each fs[i] a constant times prod_j B_j^factors[i][j], by splitting off
    gcds until none is left (factor refinement).  ValueError for a zero f."""
    if not all(fs):
        raise ValueError("the zero polynomial has no factorization")
    todo, bases = [zprimitive(f) for f in fs if len(f) > 1], []
    while todo:
        f = todo.pop()
        g = zgcd(f, zderiv(f))
        if len(g) > 1:
            todo += [zquo(f, g), g]
            continue
        for k, b in enumerate(bases):
            g = zgcd(f, b)
            if len(g) > 1:
                del bases[k]
                todo += [p for p in (zquo(f, g), zquo(b, g), g) if len(p) > 1]
                break
        else:
            bases.append(f)
    return bases, [[_divide_out(f, b)[0] for b in bases] for f in fs]


def flag_from_factorization(kernel_basis, y: bethe.PolyPair,
                            T1: Poly, T2: Poly):
    """Ordered basis u_1..u_7 of the kernel with Wr(u_1..u_i) proportional
    to the product of the rightmost i factor functions: u_1..u_i span
    ker(L_m...L_7), m = 8 - i, for D_y = L_1...L_7 (Mukhin-Varchenko).
    The spans come from _population_flag over the pairwise coprime factors
    of T1, T2, y1 and y2, and u_i is the monic element of the i-th span
    zero at the degrees of u_1..u_(i-1): the flag depends on the spans
    alone, so it is Case.flag for any basis of the kernel.  T1, T2 and the
    basis may be Polys or integer lists.  ValueError unless kernel_basis is
    7 independent polynomials whose span holds the flag."""
    ws = _population_flag(*_factor_base([zrow(T1), zrow(T2), y.y1, y.y2]))
    basis = zechelon([zrow(b) for b in kernel_basis])
    if len(basis) != 7 or any(zreduce(basis, w) for w in ws):
        raise ValueError("the flag does not lie in the span of the basis")
    return tuple(zpoly(v, v[-1]) for v in zechelon(ws))


def _log_factor_product(Q, Ws, Y=(1,)) -> DiffOp:
    """(d - W_1/Q)...(d - W_m/Q), leftmost factor first, for Q, W_k in Z[x]
    with Q squarefree and primitive (as from _log_factors) and Y a factor
    of Q expected to cancel from every coefficient.

    The partial product is carried as its numerators P_k in Z[x], each
    factor left-composed by _compose, and then _divided divides out Y or
    nothing.  For D_y, Y is the y-part of Q: the kernel is a space of
    polynomials with Wronskian supported on the roots of T1 T2, so D_y has
    no pole at a root of y1 y2; on a Bethe pair the divisions are exact and
    the Q left divides T1 T2."""
    dQ, ps = zderiv(Q), [[1]]
    for W in reversed(Ws):
        ps = _compose(Q, dQ, W, ps)
    return _divided(Q, ps, Y)


def _reduce_over_power(P, Q, e, powers):
    """(num, den) in lowest terms with num / den = P / Q^e, for squarefree Q
    and powers[t - 1] = Q^t, t <= e.  g_1 = gcd(P, Q) is the product of the
    factors of Q dividing P; after dividing P by it, g_2 = gcd(P, g_1) those
    dividing P twice, and so on, so the reduced denominator is the product
    of the Q / g_t, and Q^t once g_(e-t+1) = 1."""
    if not P:
        return P, [1]
    den, g = [1], Q
    for t in range(e, 0, -1):
        g = zgcd(P, g)
        if len(g) == 1:
            return P, zmul(den, powers[t - 1])
        P, den = zquo(P, g), zmul(den, zquo(Q, g))
    return P, den


def from_log_factors(gs) -> DiffOp:
    """The product (d - ln' g_1)...(d - ln' g_m), leftmost factor first, for
    rational functions g_k over Q: the numerators and denominators are
    split into coprime bases by _factor_base and fed to the integer
    product."""
    gs = [RatFunc._coerce(g) for g in gs]
    bases, fs = _factor_base([zrow(p) for g in gs for p in (g.num, g.den)])
    return _log_factor_product(*_log_factors(bases, [
        [a - b for a, b in zip(n, d)] for n, d in zip(fs[::2], fs[1::2])]))


def dy_factor_functions(y: bethe.PolyPair, T1: Poly, T2: Poly):
    """The seven functions g_k whose log-derivatives enter the factorization,
    as RatFuncs of the pair's rows, leftmost first.  build_Dy builds the
    same product from their exponents (_DY_EXPONENTS) without forming
    them."""
    y1, y2 = RatFunc(zpoly(y.y1)), RatFunc(zpoly(y.y2))
    t1, t2 = RatFunc(T1), RatFunc(T2)
    return (t1 ** 4 * t2 ** 2 / y1,
            t1 ** 3 * t2 ** 2 * y1 / y2,
            t1 ** 3 * t2 * y2 / (y1 * y1),
            t1 ** 2 * t2,
            t1 * t2 * y1 * y1 / y2,
            t1 * y2 / y1,
            y1)


def _dy_log_factors(bases, factors):
    """(Q, [W_1..W_7], Y) with D_y = (d - W_1/Q)...(d - W_7/Q), from the
    factored form: Y is the y-part of Q, its bases in neither T1 nor T2."""
    exps = _exponents(factors, _DY_EXPONENTS)
    Q, Ws = _log_factors(bases, exps)
    return Q, Ws, zquo(Q, _support(bases, exps, factors[:2]))


def dy_log_factors(y: bethe.PolyPair, T1: Poly, T2: Poly):
    """_dy_log_factors of unfactored input, T1 and T2 Polys or rows."""
    return _dy_log_factors(*_factor_base([zrow(T1), zrow(T2), y.y1, y.y2]))


def build_Dy(y: bethe.PolyPair, T1: Poly, T2: Poly) -> DiffOp:
    return _log_factor_product(*dy_log_factors(y, T1, T2))


def _conjugated(bases, factors) -> DiffOp:
    """D_y conjugated by T1^2 T2, from the factored form, as -B* d B for
    B = L'_5 L'_6 L'_7: the factors L'_k = d - ln' h_k, h_k = g_k / (T1^2 T2),
    have h_k h_(8-k) = 1 and h_4 = 1, so L'_(8-k) = -L'_k* and L'_4 = d.
    ker B has Wronskian h_5 h_6 h_7, free of y2, so on a Bethe pair y2's
    part of Q leaves B exactly, and the rest runs over the smaller Q_B, the
    bases in T1, T2 or y1: with C = d B, -B* d B = d(d(d C - b_2 C) + b_1 C)
    - b_0 C, each d step a _compose and each b_k C one product P_k C_j per
    numerator.  Then y1's part of Q_B is divided out, or, when inexact,
    y2's multiplied back in."""
    exps = _exponents(factors, [[a - b for a, b in zip(e, _CONJUGATOR)]
                                for e in _DY_EXPONENTS[4:]])
    Q, Ws = _log_factors(bases, exps)
    QB = _support(bases, exps, factors[:3])
    B = _log_factor_product(Q, Ws, zquo(Q, QB))
    Q, lift, dQ = B.Q, zquo(Q, B.Q), zderiv(B.Q)
    C = D = _compose(Q, dQ, [], [*B.P, [1]])
    for s, b in zip((-1, 1, -1), reversed(B.P)):
        D, b = _compose(Q, dQ, [], D), zscale(s, b)
        for k, c in enumerate(C):
            if c:
                D[k] = zadd(D[k], zmul(b, c))
    return _divided(Q, D, zquo(Q, _support(bases, exps, factors[:2])), lift)


def conjugate(D: DiffOp, f) -> DiffOp:
    """f^-1 D f for a nonzero polynomial or rational function f: d becomes
    d + W/R, with ln' f = W / R from _log_factors.  Over Q' = lcm(Q, R)
    the powers of d + W/R are expanded by apply_log_factor, as in
    _log_factor_product, and the d^i coefficient P_i / Q^(n-i) times the
    d^k term A_ik / Q'^(i-k) of (d + W/R)^i adds to the d^k numerator over
    Q'^(n-k)."""
    f = RatFunc._coerce(f)
    if f.is_zero():
        raise ZeroDivisionError("conjugation by zero")
    bases, (a, b) = _factor_base([zrow(f.num), zrow(f.den)])
    R, (W,) = _log_factors(bases, [[i - j for i, j in zip(a, b)]])
    n, Q = D.order, zlcm(D.Q, R)
    dQ, W, u = zderiv(Q), zscale(-1, zmul(W, zquo(Q, R))), zquo(Q, D.Q)
    powers, scales = [[[1]]], [[1]]
    for _ in range(n):
        powers.append(_compose(Q, dQ, W, powers[-1]))
        scales.append(zmul(scales[-1], u))
    cs = [zmul(p, scales[n - i]) for i, p in enumerate(D.P)] + [[1]]
    return DiffOp(Q, tuple(
        reduce(zadd, (zmul(c, a[k]) for c, a in zip(cs[k:], powers[k:])), [])
        for k in range(n)))


def polynomial_kernel(D: DiffOp, degree_bound: int):
    """Basis of the kernel of D among polynomials of degree < degree_bound.
    With the coefficients cleared to C_i = P_i Q^i in Z[x] (Q^n times D),
    column j of the matrix is the image of x^j,
    sum_i j!/(j-i)! x^(j-i) C_i."""
    from .linalg import nullspace
    cleared, Qi = [], [1]
    for p in D.P + ([1],):
        cleared.append(zmul(p, Qi))
        Qi = zmul(Qi, D.Q)
    rows = degree_bound + max(len(c) for c in cleared)
    cols = []
    for j in range(degree_bound):
        img = [0] * rows
        fall = 1  # j! / (j - i)!
        for i, c in enumerate(cleared[:j + 1]):
            for t, v in enumerate(c):
                img[j - i + t] += fall * v
            fall *= j - i
        cols.append(img)
    return [Poly(v) for v in nullspace([list(r) for r in zip(*cols)])]


# s(s - 1)...(s - n + 1) in the symbol s for n = 0..7, on integer lists:
# the indicial polynomial of an operator of order n sums them
_FALLING = tuple(reduce(zmul, ([-k, 1] for k in range(n)), [1])
                 for n in range(8))


def _divide_out(a, b):
    """(v, q) with a = b^v q in Z[x] and b not dividing q, for a != 0."""
    v = 0
    while True:
        try:
            a, v = zquo(a, b), v + 1
        except ValueError:
            return v, a


def _deflate(a, r):
    """(q, a(r)) with a = (s - r) q + a(r): one synthetic division."""
    out, v = [], 0
    for c in reversed(a):
        v = v * r + c
        out.append(v)
    return out[-2::-1], out[-1]


def _integer_roots(a):
    """All roots of the primitive integer list a, required to be integers
    (with multiplicity); ValueError otherwise.  Then a is monic, and zero
    roots come off as the power of s.  What is left, of degree n, has a
    root r with |r|^n <= |c_0|: the divisors d of c_0 with d^n <= |c_0|,
    d = 1, 2, ... and both signs, are tried by synthetic division."""
    v = next(k for k, c in enumerate(a) if c)
    roots, a, d = [0] * v, a[v:], 1
    while len(a) > 1:
        if a[-1] != 1 or d ** (len(a) - 1) > abs(a[0]):
            raise ValueError("indicial polynomial has a non-integer root")
        if a[0] % d == 0:
            for r in (d, -d):
                q, value = _deflate(a, r)
                while not value:
                    roots.append(r)
                    a, (q, value) = q, _deflate(q, r)
        d += 1
    return sorted(roots)


def _pole_coeffs(D: DiffOp, p):
    """[(num_i, den_i) for i = 1..n]: b_i = num_i / den_i is the (x - p)^-i
    coefficient of P_(n-i) / Q^i at a finite p, or its x^-i coefficient at
    infinity (bethe.INF), read off the integer form.  At p = r / s, b_i is
    0 unless s x - r divides Q, as Q is squarefree; for Q = (s x - r) Q~ it
    is P_(n-i)(p) / (s^i Q~(p)^i).  At infinity it comes from the leading
    coefficients, and a coefficient decaying slower than x^-i raises."""
    Q, out = D.Q, []
    if p == bethe.INF:
        for i, P in enumerate(reversed(D.P), 1):
            excess = len(P) + i - 1 - i * (len(Q) - 1)
            if P and excess > 0:
                raise ValueError("coefficient decay too slow at infinity")
            out.append((P[-1], Q[-1] ** i) if P and not excess else (0, 1))
        return out
    p = Fraction(p)
    r, s = p.numerator, p.denominator
    try:
        Qt = zquo(Q, [-r, s])
    except ValueError:
        return [(0, 1)] * D.order
    q, dq = zhomeval(Qt, r, s), len(Qt) - 1
    for i, P in enumerate(reversed(D.P), 1):
        # P(p) = h(P) / s^deg P and s Q~(p) = h(Q~) / s^(deg Q~ - 1)
        e = i * (dq - 1) - (len(P) - 1)
        out.append((zhomeval(P, r, s) * s ** max(e, 0),
                    q ** i * s ** max(-e, 0)))
    return out


def exponents_at(D: DiffOp, p) -> tuple:
    """The sorted indicial roots of D at a finite point p or at infinity
    (bethe.INF), where they are the roots s of chi(-s) = 0; ValueError
    unless they are integers.  chi(s) = [s]_n + sum_i b_i [s]_(n-i), with
    [s]_j the falling factorial and b_i from _pole_coeffs, is cleared to
    Z[s] by one common denominator."""
    n, bs = D.order, _pole_coeffs(D, p)
    L = lcm(*(den for _, den in bs))
    chi = zscale(L, _FALLING[n])
    for i, (num, den) in enumerate(bs, 1):
        chi = zadd(chi, zscale(num * (L // den), _FALLING[n - i]))
    if p == bethe.INF:
        chi = [c if k % 2 == 0 else -c for k, c in enumerate(chi)]
    return tuple(_integer_roots(zprimitive(chi)))


# Cases kept by case(): every caller (the case commands, the suites, a
# benchmark run) finishes one case before it starts the next, so the last
# case is all that is ever asked for again; a case with every property
# built holds 12-29 KB at lam <= 5, median 21 KB (by tracemalloc)
CASE_CACHE_SIZE = 1


@dataclass(frozen=True)
class Case:
    """A Bethe pair y with its Bethe data, and the objects built from them,
    each on first use and then kept: the closed-form case (lam, i) is
    case(lam, i), and a pair reached another way, at other points, is
    Case(data, y).  The pair must be generic in Mukhin-Varchenko's sense
    (bethe.is_generic), or Case.factored raises."""
    data: bethe.BetheData
    y: bethe.PolyPair

    @property
    def mu(self):
        """The weight sum(Lambda) - alpha(l) of the pair."""
        total = reduce(rd.add, self.data.Lambda)
        return rd.sub(total, rd.from_alpha(*self.data.l))

    @property
    def casimir_value(self):
        """e = (c(mu) - sum_s c(Lambda_s)) / 2, c the Casimir eigenvalue."""
        return Fraction(repn.casimir_eigenvalue(self.mu) - sum(
            map(repn.casimir_eigenvalue, self.data.Lambda)), 2)

    @cached_property
    def ramification(self) -> bethe.RamificationData:
        """The bethe.RamificationData of the points and weights."""
        return bethe.ramification(self.data.Lambda, self.data.z)

    @cached_property
    def factored(self):
        """(bases, factors), the one input of D_y, its conjugate and the
        flag: the factors s x - r of the finite points z_s = r / s, then y1
        and y2 if not constant, with their exponents in T1, T2, y1 and y2.
        bethe.is_generic decides the pair and no gcd splits it: where y_j
        vanishes at a point of zero pairing, the point's factor leaves y_j
        and has exponent 1 in y_j."""
        if not bethe.is_generic(self.y, self.data.Lambda, self.data.z):
            raise ValueError("not a generic pair in Mukhin-Varchenko's sense")
        ys, cols = [self.y.y1, self.y.y2], []
        for p, w in zip(self.data.z, self.data.Lambda):
            if p != bethe.INF:
                r, s, e = p.numerator, p.denominator, [*w, 0, 0]
                for j in (0, 1):
                    if not (w[j] or zhomeval(ys[j], r, s)):
                        ys[j], e[2 + j] = zquo(ys[j], [-r, s]), 1
                cols.append(([-r, s], e))
        cols += [(a, e) for a, e in zip(ys, ((0, 0, 1, 0), (0, 0, 0, 1)))
                 if len(a) > 1]
        bases = [b for b, _ in cols]
        factors = [[e[k] for _, e in cols] for k in range(4)]
        return bases, factors

    @cached_property
    def operator(self) -> DiffOp:
        """D_y."""
        return _log_factor_product(*_dy_log_factors(*self.factored))

    @cached_property
    def conjugated(self) -> DiffOp:
        """D_y conjugated by T1^2 T2."""
        return _conjugated(*self.factored)

    @cached_property
    def flag_rows(self):
        """The flag as primitive integer lists (zechelon): the population
        flag over the factored form; flag_from_factorization gives it for
        any kernel basis."""
        return zechelon(_population_flag(*self.factored))

    @cached_property
    def flag(self):
        """The flag u_1..u_7, a tuple of monic Polys."""
        return tuple(zpoly(v, v[-1]) for v in self.flag_rows)

    @cached_property
    def space(self):
        """The polynomial kernel of D_y, the sgrass.PolySpace of the flag's
        span; sgrass loads here, as the h2 check reads no space."""
        from .sgrass import PolySpace
        return PolySpace(self.flag_rows)


@lru_cache(maxsize=CASE_CACHE_SIZE)
def case(lam, i) -> Case:
    """The closed-form case (lam, i), shared by every caller while it stays
    among the CASE_CACHE_SIZE most recently used; lam a tuple, since it is
    hashed.  bethe.closed_form checks that the case is admissible."""
    return Case(bethe.closed_form(lam, i), bethe.closed_form_pair(lam, i))


def kernel_for_case(lam, i):
    """The polynomial kernel of D_y for a closed-form case, as the monic
    reduced echelon basis of its space."""
    return case(tuple(lam), i).space.flag_basis


# Constant relating the d^5 coefficient of the conjugated operator to the
# pair Casimir eigenvalues; derived in h2_residue.
_H2_NORMALIZATION = Fraction(1, 2)


def h2_residue(D: DiffOp, p):
    """r_p = -N res_p h2 at a finite point p, exact, for h2 = P_5 / Q^2 the
    d^5 coefficient of D, a Case's operator conjugated by T1^2 T2, and
    N = _H2_NORMALIZATION = 1/2.  At the Case's points z_s they meet
    sum r_s = 0 and sum z_s r_s = e = Case.casimir_value: the d^6
    coefficient is 0, so the indicial polynomial at z_s is [s]_7 + A_s [s]_5
    + ..., A_s the (x - z_s)^-2 coefficient of h2, and the exponents
    i + delta_i, delta over (-2a-b, -a-b, -a, 0, a, a+b, 2a+b) for
    Lambda_s = (a, b), give A_s = -sum i delta_i - sum delta_i^2 / 2 =
    -c(Lambda_s); likewise x^2 h2 -> -c(mu) at infinity.  h2 has no other
    pole, so h2 = sum_s A_s / (x - z_s)^2 + R_s / (x - z_s) with sum R_s = 0
    and sum A_s + sum z_s R_s = -c(mu), that is sum z_s R_s = -2e: both
    rules hold for N = 1/2 in every case at once, and no case calibrates
    it.  At n = 2 they give r_1 = e / (z1 - z2).

    Q is squarefree, so at p = r / s h2 has no residue unless s x - r
    divides Q; for Q = (s x - r) Q~, h2 = (P_5 / (s Q~)^2) / (x - p)^2,
    whose residue is (P_5' Q~ - 2 P_5 Q~') / (s^2 Q~^3) at p."""
    r, s = p.numerator, p.denominator
    P = D.P[D.order - 2]
    try:
        Qt = zquo(D.Q, [-r, s])
    except ValueError:
        return Fraction(0)

    def at(a):
        return Fraction(zhomeval(a, r, s), s ** max(len(a) - 1, 0))
    q = at(Qt)
    res = (at(zderiv(P)) * q - 2 * at(P) * at(zderiv(Qt))) / (s * s * q ** 3)
    return -res * _H2_NORMALIZATION


def h2_casimir_values(lam, i):
    """(r_1, e / (z1 - z2)), equal by h2_residue's sum rules, for the
    conjugated operator of the cached closed-form case (lam, i), both
    computed anew on every call."""
    c = case(tuple(lam), i)
    z1, z2 = c.data.z
    return h2_residue(c.conjugated, z1), c.casimir_value / (z1 - z2)
