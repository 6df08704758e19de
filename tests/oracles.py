"""Reference implementations kept as oracles for the exact code.

RatFunc versions of the operator layer, for the integer code of `diffop`:
the plain RatFunc product of log-factors, conjugation by substitution,
application to a polynomial, Laurent and infinity coefficients by Taylor
shifts and valuations at 0, the indicial polynomial over Q and residues.
An operator here is its full coefficient list, indexed by derivative
order 0..n, of RatFuncs.

The 7-dimensional module as the paper prints it, over Q(sqrt 2), for the
rational module of `repn`, with the field elimination that `linalg`'s
fraction-free rref is compared against.

The Wronskian f g' - f' g of integer lists by its four temporaries, for
the one-pass `exact.zwr`.

The codec's Fraction renderers of a Poly, for the integer-row renderers
of `polycodec`.

The Freudenthal recursion over Fractions, for the integer one of `repn`.

The monic Poly of an integer row, such as a component of a Bethe pair, for
the tests that compute with one over Q[x]; genericity of a Bethe pair by
gcds over Q[x], for the integer gcds and the evaluation at the points of
`bethe.is_generic`.  T_1 and T_2 from the weights (`zcalT`), for the T's
that `bethe.ramification` reads off the partitions; the conjugated
operator's seven log-factors, for `diffop._conjugated`; and the
closed forms over Fractions, each component cleared by `zclear`, for the
integer pairs of `bethe.closed_form_pair`.

The bilinear form kappa on a pure self-dual space and the paper's
definition of a self-self-dual space by a kappa-isotropic subspace, which
`sgrass.ssd_witness_check` is checked against, with a rational solve by
`linalg.rref` and coordinates in a space; the degree bound under which
the nullspace kernel of `diffop.polynomial_kernel` is taken.

The argparse parser of `g2`, for the table parser of `cli`.

The population flag, its integrals, the composition of operators and
their reduction to lowest terms with the integer glue `zsub` and `zsolve1`,
as they were before `diffop` built each per-case invariant once: the
differential oracles of `diffop._population_flag`, `diffop._conjugated`
and `DiffOp.lowest_terms`."""

import argparse
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from unittest import mock

from g2gaudin import cli, diffop
from g2gaudin import rootdata as rd
from g2gaudin.bethe import INF, PolyPair, zlinear_power
from g2gaudin.diffop import _DY_EXPONENTS, _exponents
from g2gaudin.exact import (Poly, RatFunc, poly_gcd, zadd, zclear, zderiv,
                            zgcd, zmul, zpoly, zprefix_levels, zprimitive,
                            zquo, zreduce, zrow, zscale, zwronski_minors,
                            zwronskian_past, zwronskians)
from g2gaudin.linalg import rref
from g2gaudin.repn import (bracket, mat_add, mat_scale, mat_sub, mat_unit,
                          mat_zero)

ZERO = RatFunc(Poly())
ONE = RatFunc(Poly([1]))


def poly_json(p: Poly):
    """The coefficients of p as the codec's strings, by str(Fraction)."""
    return [str(c) for c in p.coeffs]


def poly_str(p: Poly) -> str:
    """p as text, highest degree first, from its Fraction coefficients."""
    if p.is_zero():
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if not c:
            continue
        mag, neg = str(abs(c)), c < 0
        if k == 0:
            body = mag
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == "1" else f"{mag}*{xs}"
        if not terms:
            terms.append(("-" if neg else "") + body)
        else:
            terms.append(("- " if neg else "+ ") + body)
    return " ".join(terms)


def zwr_by_products(f, g):
    """f g' - f' g of integer lists: two derivatives, two schoolbook
    products and their difference."""
    return zsub(zmul(f, zderiv(g)), zmul(zderiv(f), g))


def full(D):
    """The full coefficient list of a diffop.DiffOp, from its RatFuncs."""
    return list(reversed(D.coeffs)) + [ONE]


def shift(p: Poly, a) -> Poly:
    """p(x + a), by the Taylor shift: repeated synthetic division by x - a."""
    c = list(p.coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return Poly(c)


def valuation(p: Poly) -> int:
    """The order of vanishing of p at 0; large for the zero poly."""
    if p.is_zero():
        return 1 << 30
    return next(k for k, c in enumerate(p.coeffs) if c)


def derivative(f: RatFunc) -> RatFunc:
    return RatFunc(f.num.derivative() * f.den - f.num * f.den.derivative(),
                   f.den * f.den)


def log_deriv(f) -> RatFunc:
    """f'/f of a nonzero polynomial or rational function."""
    f = RatFunc._coerce(f)
    if f.is_zero():
        raise ZeroDivisionError("log derivative of zero")
    return (RatFunc(f.num.derivative(), f.num)
            - RatFunc(f.den.derivative(), f.den))


def lmul_factor(w: RatFunc, cs):
    """The full list of (d + w) composed with sum cs[k] d^k."""
    out = [ZERO] * (len(cs) + 1)
    for k, c in enumerate(cs):
        out[k + 1] = out[k + 1] + c
        out[k] = out[k] + derivative(c) + w * c
    return out


def product(gs):
    """(d - ln' g_1)...(d - ln' g_m), leftmost factor first."""
    cs = [ONE]
    for g in reversed(gs):
        cs = lmul_factor(-log_deriv(g), cs)
    return cs


def conjugate(cs, f):
    """f^-1 D f for D = sum cs[i] d^i: d -> d + f'/f, re-expanded."""
    w = log_deriv(f)
    powers = [[ONE]]
    for _ in range(len(cs) - 1):
        powers.append(lmul_factor(w, powers[-1]))
    out = [ZERO] * len(cs)
    for c, p in zip(cs, powers):
        for k, a in enumerate(p):
            out[k] = out[k] + c * a
    return out


def apply(cs, p: Poly) -> RatFunc:
    """sum cs[i] p^(i)."""
    acc = ZERO
    for c in cs:
        acc = acc + c * RatFunc(p)
        p = p.derivative()
    return acc


def laurent_coeff(f: RatFunc, p, m: int):
    """Coefficient of (x - p)^-m of f at p, for m >= 1 at most the pole
    order; ValueError if the pole is higher."""
    if f.is_zero() or f.den(p):  # regular at p
        return Fraction(0)
    num, den = shift(f.num, p), shift(f.den, p)
    vn, vd = valuation(num), valuation(den)
    if vn - vd > -m:
        return Fraction(0)
    if vn - vd < -m:
        raise ValueError(f"pole order exceeds {m} at {p}: not Fuchsian")
    return num.coeffs[vn] / den.coeffs[vd]


def infinity_coeff(c: RatFunc, i: int):
    """Coefficient of x^-i of c at infinity; ValueError if c decays slower
    than x^-i."""
    if c.is_zero() or c.num.degree + i < c.den.degree:
        return Fraction(0)
    if c.num.degree + i > c.den.degree:
        raise ValueError("coefficient decay too slow at infinity")
    return c.num.leading() / c.den.leading()


@lru_cache(maxsize=None)
def _falling(j, sign):
    """(sign s)(sign s - 1)...(sign s - j + 1) as a Poly in s."""
    fall = Poly([1])
    for k in range(j):
        fall = fall * Poly([-k, sign])
    return fall


def indicial(cs, p) -> Poly:
    """The monic polynomial whose roots are the exponents at the rational p
    or at "inf": sum_i b_i s(s-1)..(s-n+i+1), b_0 = 1, with s -> -s at
    infinity."""
    n, inf = len(cs) - 1, p == "inf"
    chi = _falling(n, -1 if inf else 1)
    for i in range(1, n + 1):
        b = (infinity_coeff(cs[n - i], i) if inf
             else laurent_coeff(cs[n - i], p, i))
        chi = chi + _falling(n - i, -1 if inf else 1) * b
    return chi.monic()


def residue_at(f: RatFunc, z) -> Fraction:
    """Coefficient of (x - z)^-1 in the Laurent expansion of f at z."""
    num, den = shift(f.num, z), shift(f.den, z)
    m = valuation(den)
    # den = x^m d0 with d0(0) != 0; the residue is [x^(m-1)] num / d0
    d0 = Poly(den.coeffs[m:])
    inv0, inv = 1 / d0.coeffs[0], []
    for k in range(m):
        inv.append(inv0 if k == 0 else
                   -inv0 * sum((d0[j] * inv[k - j] for j in range(1, k + 1)),
                               Fraction(0)))
    return sum((num[j] * inv[m - 1 - j] for j in range(m)), Fraction(0))


def freudenthal_multiplicities(lam):
    """The multiplicities of the dominant weights of V_lam by Freudenthal's
    recursion, with the invariant form and each quotient in Fractions."""
    l1, l2 = lam
    doms = []
    for a in range(2 * l1 + l2 + 1):
        for b in range((l2 + 3 * a) // 2 + 1):
            mu = (l1 - 2 * a + b, l2 + 3 * a - 2 * b)
            if rd.is_dominant(mu):
                doms.append(((a + b), mu))
    doms.sort()

    def form(u, v):
        return Fraction(rd.bilinear(u, v))

    mult = {}
    clam = form(rd.add(lam, rd.RHO), rd.add(lam, rd.RHO))
    for _, mu in doms:
        if mu == lam:
            mult[mu] = 1
            continue
        denom = clam - form(rd.add(mu, rd.RHO), rd.add(mu, rd.RHO))
        total = Fraction(0)
        for c1, c2 in rd.POSITIVE_ROOTS:
            beta = rd.from_alpha(c1, c2)
            j = 1
            while True:
                w = rd.add(mu, (j * beta[0], j * beta[1]))
                da, db = rd.to_alpha(rd.sub(lam, w))
                if da < 0 or db < 0:
                    break
                m = mult.get(rd.dominant_chamber(w)[1], 0)
                if m:
                    total += 2 * m * form(w, beta)
                j += 1
        m = total / denom
        assert m.denominator == 1
        if m:
            mult[mu] = int(m)
    return mult


def weight_multiplicities(lam):
    """All weights of V_lam with multiplicities, from
    freudenthal_multiplicities by W-orbits."""
    return {w: m for mu, m in freudenthal_multiplicities(lam).items()
            for w in rd.weyl_orbit(mu)}


def monic(row) -> Poly:
    """The monic Poly on the line of a nonzero integer row: y.y1 or y.y2 of
    a bethe.PolyPair as a polynomial over Q."""
    return zpoly(row, row[-1])


def is_generic_by_gcd(y, Lambda, z):
    """bethe.is_generic over Q[x], each test a gcd: squarefree components,
    no common root, and no root at a finite point p where
    <Lambda_s, coroot_j> != 0, by the gcd with the product of the x - p."""
    y1, y2 = monic(y.y1), monic(y.y2)
    for j, yj in enumerate((y1, y2)):
        if poly_gcd(yj, yj.derivative()).degree > 0:
            return False
        sing = Poly([Fraction(1)])
        for lam, p in zip(Lambda, z):
            if p != INF and lam[j] != 0:
                sing = sing * Poly([-Fraction(p), Fraction(1)])
        if poly_gcd(yj, sing).degree > 0:
            return False
    return poly_gcd(y1, y2).degree <= 0


def zcalT(Lambda, z):
    """(T_1, T_2) on Z[x] from the weights: the products prod (s x - r)^e,
    e = <Lambda_s, coroot_j>, over the finite points, for the T's of
    bethe.ramification, which reads them off the partitions."""
    out = []
    for j in (0, 1):
        pairs = [(p, lam[j]) for lam, p in zip(Lambda, z) if p != INF]
        for p, e in pairs:
            if e < 0:
                raise ValueError(f"negative exponent {e} at finite point {p}")
        out.append(zlinear_power(pairs))
    return tuple(out)


def conjugated_log_factors(y, T1, T2):
    """(Q, [W_1..W_7], Y) with the conjugate of D_y by T1^2 T2 equal to
    (d - W_1/Q)...(d - W_7/Q): f^-1 (d - ln' g) f is d - ln'(g/f), so each
    factor's exponents drop by diffop._CONJUGATOR.  Y is the y-part of Q,
    as in diffop.dy_log_factors."""
    bases, factors = diffop._factor_base([zrow(T1), zrow(T2), y.y1, y.y2])
    exps = diffop._exponents(
        factors, [[a - b for a, b in zip(e, diffop._CONJUGATOR)]
                  for e in diffop._DY_EXPONENTS])
    Q, Ws = diffop._log_factors(bases, exps)
    return Q, Ws, zquo(Q, diffop._support(bases, exps, factors[:2]))


# diffop's and exact's code before each per-case invariant (base powers,
# Hermite denominators, powers of Q) was built once, copied unchanged

def zsub(a, b):
    return zadd(a, zscale(-1, b))


def zsolve1(p, q, N):
    """(A, c) with p A' + q A = c N, c > 0 and A 0 at the zero pivot, for
    integer lists p != 0 and q, deg q < deg p; None if there is none.  The
    solve is triangular: x^k reaches x^(k - 1 + deg p) with the pivot
    k lead(p) + q_(deg p - 1), zero for at most one k.  If no pivot is zero,
    or p H' + q H = 0 has a polynomial solution H (of that degree k), None
    means no polynomial A solves it at all.  A pivot that does not divide
    scales the residual and c."""
    r = len(p) - 1
    top = q[r - 1] if 0 < r == len(q) else 0
    R, A, c = list(N), [0] * max(len(N) - r + 1, 0), 1
    for t in range(len(R) - 1, max(r - 1, 0) - 1, -1):
        k = t - r + 1
        piv = k * p[-1] + top
        if not (R[t] and piv):  # a nonzero R[t] at piv = 0 stays
            continue
        g = gcd(R[t], piv)
        m, a = abs(piv // g), R[t] // g * (1 if piv > 0 else -1)
        if m > 1:
            R, A, c = [m * v for v in R], [m * v for v in A], m * c
        A[k] = a
        for i, v in enumerate(p):
            R[k - 1 + i] -= a * k * v
        for i, v in enumerate(q):
            R[k + i] -= a * v
    return None if any(R) else (zadd(A, []), c)


def apply_log_factor(Q, dQ, W, P, j):
    """Q^(j+1) (d - W/Q)(P / Q^j) = Q P' - j Q' P - W P, for dQ = Q'."""
    return zsub(zmul(Q, zderiv(P)), zmul(zadd(zscale(j, dQ), W), P))


def _compose(Q, dQ, W, ps):
    """The d^k numerators over Q^(n+1-k) of (d - W/Q) ps, for ps the
    numerators P_k over Q^(n-k) of an operator of order n and dQ = Q': P_k
    goes to d^(k+1) and apply_log_factor(Q, dQ, W, P_k, n - k) to d^k."""
    n, out = len(ps) - 1, [[]] + ps
    for k, p in enumerate(ps):
        out[k] = zadd(out[k], apply_log_factor(Q, dQ, W, p, n - k))
    return out


def _integral(N, d, bases):
    """(A, e) with A / prod B_j^e_j an antiderivative of N / prod B_j^d_j up
    to a nonzero constant factor, B_j = bases[j], d_j >= 0 and
    e_j = max(d_j - 1, 0): Hermite reduction with the denominator known.

    With E = prod B_j^e_j, rad the product of the B_j with d_j > 0 and
    S = sum_j e_j B_j' rad / B_j, (A / E)' = (A' rad - A S) / (E rad) for any
    polynomials B_j; exact.zsolve1 solves A' rad - A S = c N, its zero pivot
    deg E the constant of integration.  For pairwise coprime squarefree B_j
    that fails, with ValueError, exactly when the integrand has a residue."""
    active = [j for j, dj in enumerate(d) if dj]
    rad, S = [1], []
    for j in active:
        rad = zmul(rad, bases[j])
        if d[j] > 1:
            cof = reduce(zmul, (bases[k] for k in active if k != j), [1])
            S = zadd(S, zscale(d[j] - 1, zmul(zderiv(bases[j]), cof)))
    sol = zsolve1(rad, zscale(-1, S), zprimitive(N))
    if sol is None:
        raise ValueError("the integrand has a residue: not a Bethe pair")
    return zprimitive(sol[0]), tuple(max(dj - 1, 0) for dj in d)


def _times(N, d, c, bases):
    """N / prod B_j^d_j times prod B_j^c_j, as (numerator, d'), d' >= 0."""
    out = []
    for j, (dj, cj) in enumerate(zip(d, c)):
        if dj < cj:
            for _ in range(cj - dj):
                N = zmul(N, bases[j])
        out.append(max(dj - cj, 0))
    return N, tuple(out)


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
    is taken.  Every step is an identity and the last is an exact
    division in Z[x]; ValueError if an integrand has a residue or an
    element is not a polynomial, so each element returned is a polynomial
    in ker D_y."""
    h = _exponents(factors, _DY_EXPONENTS)
    ratios = [[a - b for a, b in zip(h[k], h[k + 1])] for k in range(6)]
    flag = []
    for i in range(7):
        N, d = [1], (0,) * len(bases)
        for r in ratios[6 - i:]:
            N, d = _integral(*_times(N, d, r, bases), bases)
        N, d = _times(N, d, h[6], bases)
        for B, dj in zip(bases, d):
            for _ in range(dj):
                try:
                    N = zquo(N, B)
                except ValueError:
                    raise ValueError("a flag element is not a polynomial: "
                                     "not a Bethe pair") from None
        flag.append(zprimitive(N))
    return flag


def _reduce_over_power(P, Q, e):
    """(num, den) in lowest terms with num / den = P / Q^e, for squarefree Q.
    g_1 = gcd(P, Q) is the product of the factors of Q dividing P; after
    dividing P by it, g_2 = gcd(P, g_1) those dividing P twice, and so on,
    so the reduced denominator is the product of the Q / g_t."""
    if not P:
        return P, [1]
    den, g = [1], Q
    for _ in range(e):
        if len(g) > 1:
            g = zgcd(P, g)
            if len(g) > 1:
                P = zquo(P, g)
        den = zmul(den, zquo(Q, g) if len(g) > 1 else Q)
    return P, den


def conjugated_before(bases, factors):
    """diffop._conjugated with the _compose above for diffop's, as the
    conjugated operator was built before."""
    with mock.patch.object(diffop, "_compose", _compose):
        return diffop._conjugated(bases, factors)


def lowest_terms_before(D):
    """DiffOp.lowest_terms by the _reduce_over_power above."""
    n = D.order
    return tuple(_reduce_over_power(D.P[k], D.Q, n - k)
                 for k in range(n - 1, -1, -1))


def _f(expr_num, expr_den):
    return Fraction(expr_num, expr_den)


def _monic(*cs):
    """The integer row of the monic polynomial with the lower coefficients
    cs, lowest degree first: one zclear."""
    return zclear(cs + (1,))[0]


def fraction_closed_form_pair(lam, i) -> PolyPair:
    """bethe.closed_form_pair as it was transcribed over Fractions: each
    appendix coefficient a Fraction, each component cleared by zclear."""
    a, b = lam  # lambda_1, lambda_2
    if i == 0:
        return PolyPair([1], [1])
    if i == 1:
        return PolyPair([1], _monic(-_f(b, b + 1)))
    if i == 2:
        y1 = _monic(-_f(a * (3 * a + b + 3), (a + 1) * (3 * a + b + 4)))
        y2 = _monic(-_f(3 * a + b + 3, 3 * a + b + 4))
        return PolyPair(y1, y2)
    if i == 3:
        y1 = _monic(-_f((3 * a + b + 3) * (3 * a + 2 * b + 4),
                        (3 * a + b + 5) * (3 * a + 2 * b + 6)))
        c1 = -_f(2 * (3 * a + 2 * b + 4) * (3 * a + 5 * b + 3 * a * b + b * b + 6),
                 (b + 2) * (3 * a + b + 5) * (3 * a + 2 * b + 6))
        c0 = _f(b * (3 * a + b + 3) * (3 * a + 2 * b + 4) ** 2,
                (b + 2) * (3 * a + b + 5) * (3 * a + 2 * b + 6) ** 2)
        return PolyPair(y1, _monic(c0, c1))
    if i == 4:
        y1 = _monic(-_f((a + b + 1) * (3 * a + 2 * b + 4),
                        (a + b + 2) * (3 * a + 2 * b + 5)))
        c2 = -_f(3 * (a + b + 1) * (3 * a * b + 2 * b * b - 2 * a + 3 * b - 2),
                 b * (a + b + 2) * (3 * a + 2 * b + 5))
        c1 = _f(3 * (b - 1) * (a + b + 1) ** 2 * (3 * a + 2 * b + 4)
                * (3 * a * b + 2 * b * b + 2 * a + 6 * b + 4),
                b * (b + 1) * (a + b + 2) ** 2 * (3 * a + 2 * b + 5) ** 2)
        c0 = -_f((b - 1) * (a + b + 1) ** 3 * (3 * a + 2 * b + 4) ** 2,
                 (b + 1) * (a + b + 2) ** 3 * (3 * a + 2 * b + 5) ** 2)
        return PolyPair(y1, _monic(c0, c1, c2))
    if i == 5:
        d1 = -_f(2 * (2 * a + b + 2) * (3 * a + b + 2)
                 * (3 * a * a + 2 * a * b + 6 * a + b + 3),
                 (a + 1) * (2 * a + b + 3) * (3 * a + b + 3) * (3 * a + 2 * b + 5))
        d0 = _f(a * (2 * a + b + 2) ** 2 * (3 * a + b + 2) * (3 * a + 2 * b + 4),
                (a + 1) * (2 * a + b + 3) ** 2 * (3 * a + b + 4)
                * (3 * a + 2 * b + 5))
        y1 = _monic(d0, d1)
        c2 = -_f(3 * (2 * a + b + 2)
                 * (9 * a * a + 9 * a * b + 2 * b * b + 20 * a + 9 * b + 11),
                 (2 * a + b + 3) * (3 * a + b + 3) * (3 * a + 2 * b + 5))
        c1 = _f(3 * (3 * a + b + 2) * (2 * a + b + 2) ** 2 * (3 * a + 2 * b + 4)
                * (9 * a * a + 9 * a * b + 2 * b * b + 25 * a + 12 * b + 18),
                (2 * a + b + 3) ** 2 * (3 * a + b + 3) * (3 * a + b + 4)
                * (3 * a + 2 * b + 5) ** 2)
        c0 = -_f((2 * a + b + 2) ** 3 * (3 * a + b + 2) * (3 * a + 2 * b + 4) ** 2,
                 (2 * a + b + 3) ** 3 * (3 * a + b + 4) * (3 * a + 2 * b + 5) ** 2)
        return PolyPair(y1, _monic(c0, c1, c2))
    if i == 6:
        d1 = -_f(2 * (2 * a + b + 2) * (3 * a + 2 * b + 3)
                 * (3 * a * a + 4 * a * b + b * b + 8 * a + 5 * b + 6),
                 (a + b + 2) * (2 * a + b + 3) * (3 * a + b + 4)
                 * (3 * a + 2 * b + 4))
        d0 = _f((a + b + 1) * (2 * a + b + 2) ** 2 * (3 * a + b + 3)
                * (3 * a + 2 * b + 3),
                (a + b + 2) * (2 * a + b + 3) ** 2 * (3 * a + b + 4)
                * (3 * a + 2 * b + 5))
        y1 = _monic(d0, d1)
        A = (9 * a ** 4 * (4 * b + 3)
             + 3 * a ** 3 * (30 * b * b + 78 * b + 47)
             + a * a * (80 * b ** 3 + 372 * b * b + 562 * b + 270)
             + a * (30 * b ** 4 + 208 * b ** 3 + 528 * b * b + 578 * b + 228)
             + 2 * (b + 2) ** 2 * (2 * b ** 3 + 11 * b * b + 18 * b + 9))
        c3 = -_f(2 * A, (b + 1) * (a + b + 2) * (2 * a + b + 3)
                 * (3 * a + b + 4) * (3 * a + 2 * b + 4))
        B = (27 * a ** 5 * (1 + 2 * b)
             + 3 * a ** 4 * (70 + 147 * b + 57 * b * b)
             + 3 * a ** 3 * (215 + 493 * b + 333 * b * b + 70 * b ** 3)
             + 2 * (2 + b) ** 2 * (27 + 60 * b + 47 * b * b + 16 * b ** 3
                                   + 2 * b ** 4)
             + a * a * (978 + 2498 * b + 2263 * b * b + 880 * b ** 3
                        + 125 * b ** 4)
             + 2 * a * (366 + 1049 * b + 1165 * b * b + 634 * b ** 3
                        + 170 * b ** 4 + 18 * b ** 5))
        c2 = _f(6 * B * (1 + a + b) * (2 + 2 * a + b) * (3 + 3 * a + 2 * b),
                (b + 1) * (a + b + 2) ** 2 * (2 * a + b + 3) ** 2
                * (3 * a + b + 4) * (3 * a + 2 * b + 4) ** 2
                * (3 * a + 2 * b + 5))
        C = (3 * a ** 3 * (1 + 4 * b)
             + 2 * (2 + b) ** 2 * (3 + 4 * b + b * b)
             + 2 * a * a * (9 + 28 * b + 11 * b * b)
             + 2 * a * (18 + 47 * b + 31 * b * b + 6 * b ** 3))
        c1 = -_f(2 * C * (1 + a + b) ** 2 * (2 + 2 * a + b) ** 2
                 * (3 + 3 * a + 2 * b) ** 2,
                 (1 + b) * (2 + a + b) ** 3 * (3 + 2 * a + b) ** 3
                 * (4 + 3 * a + b) * (4 + 3 * a + 2 * b) * (5 + 3 * a + 2 * b))
        c0 = _f(b * (a + b + 1) ** 3 * (2 * a + b + 2) ** 3 * (3 * a + b + 3)
                * (3 * a + 2 * b + 3) ** 2,
                (b + 1) * (a + b + 2) ** 3 * (2 * a + b + 3) ** 3
                * (3 * a + b + 4) * (3 * a + 2 * b + 5) ** 2)
        return PolyPair(y1, _monic(c0, c1, c2, c3))
    raise ValueError(f"case index {i} out of range")


# ------------------------------------------- kappa and the isotropic witness
#
# The paper's definition of a self-self-dual space, which sgrass decides
# by the y-pattern of an ordered basis instead (ssd_witness_check).


def solve(matrix, rhs):
    """One solution of A x = b, or None if inconsistent: the last column of
    the rref of [A | b] (linalg.rref)."""
    ncols = len(matrix[0]) if matrix else 0
    red, pivots = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def coordinates(X, p: Poly):
    """Coordinates of p in the flag basis of the sgrass.PolySpace X, or None
    if p is not in X: the basis is reduced, so they are p's coefficients at
    its degrees once p reduces to 0 against it."""
    if zreduce(X.basis, zrow(p)):
        return None
    return [p[d] for d in X.degrees]


def kappa_form(X, R):
    """Gram matrix of the form kappa on the flag basis u_a = r_a / lead(r_a)
    of a pure self-dual space, r the basis of X and R its
    bethe.RamificationData.  kappa(r_a, v) = Wr-dagger(r_a, g_1..g_6)
    whenever v is the divided Wronskian of g_1..g_6.  The divided recursion
    gives Wr / t_i, so the constants are rescaled once by the leading
    coefficients of t_7 and t_6."""
    n, r, ts = len(X.basis), X.basis, R.T[::-1]
    levels = zprefix_levels(r, ts)
    w7 = zwronskian_past(levels, ts)
    if len(w7) != 1:
        raise ValueError("top divided Wronskian is not constant; "
                         "space is not pure with the claimed data")
    w = zwronski_minors(r, levels, ts)
    d = max(map(len, w + list(r)))
    pad = lambda p: [p[i] if i < len(p) else 0 for i in range(d)]
    A = [list(col) for col in zip(*map(pad, w))]
    C = []
    for b in range(n):
        cb = solve(A, pad(r[b]))
        if cb is None:
            raise ValueError("space is not self-dual: basis element outside "
                             "the dual span")
        C.append(cb)
    # kappa(r_a, r_b) = sum_j C[b][j] * Wr-dagger(r_a, subset omitting j);
    # the term survives only for j = a, giving (-1)^a times the full one.
    top = Fraction(w7[0] * R.divisors[n][-1], R.divisors[n - 1][-1])
    gram = [[C[b][a] * (-1) ** a * top / (r[a][-1] * r[b][-1])
             for b in range(n)] for a in range(n)]
    # the r_b are independent, so once each solves C is invertible, and so
    # is gram, C transposed with rows and columns rescaled: no rank check
    if any(gram[a][b] != gram[b][a] for a in range(n) for b in range(n)):
        raise ValueError("kappa form is not symmetric")
    return gram


def isotropic_definition_check(X, R, f: Poly, U) -> bool:
    """f perpendicular to U, U kappa-isotropic, and Wr(U) = T1^2 T2 f^2 up
    to normalization.  For a Bethe space the factorization flag u_1..u_7
    is such a witness: Wr(u_1, u_2, u_3) is proportional to T1^2 T2 y1^2
    and u_1 to y1, so f = u_1 and U = <u_1, u_2, u_3>."""
    gram = kappa_form(X, R)
    coords = [coordinates(X, p) for p in [f] + list(U)]
    if any(c is None for c in coords):
        return False
    n = len(gram)
    kappa = lambda a, b: sum(a[i] * gram[i][j] * b[j]
                             for i in range(n) for j in range(n))
    cf, cu = coords[0], coords[1:]
    if len(cu) != 3 or any(kappa(cf, a) for a in cu) or \
            any(kappa(a, b) for a in cu for b in cu):
        return False
    wr = zwronskians([zrow(u) for u in U])[-1]
    (t1, t2), f = R.T[:2], zrow(f)
    target = zmul(zmul(t1, t1), zmul(t2, zmul(f, f)))
    return bool(wr) and zprimitive(wr) == zprimitive(target)


def default_degree_bound(lam, i) -> int:
    """1 + the largest exponent of D_y at infinity, a degree bound for
    diffop.polynomial_kernel: the largest exponent of the conjugated
    operator is 2*mu1 + mu2 with mu the resulting weight, and the twist by
    T1^2 T2 adds its degree, 2*lam1 + lam2 + 1."""
    mu = diffop.case(tuple(lam), i).mu
    return 2 * mu[0] + mu[1] + 6 + (2 * lam[0] + lam[1] + 1) + 1


class QSqrt2:
    """Element a + b*sqrt(2) of the quadratic field Q(sqrt 2)."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def _of(x):
        return x if isinstance(x, QSqrt2) else QSqrt2(x)

    def __add__(self, other):
        o = QSqrt2._of(other)
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other):
        return self + -QSqrt2._of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = QSqrt2._of(other)
        return QSqrt2(self.a * o.a + 2 * self.b * o.b,
                      self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def conjugate(self):
        """The field automorphism a + b*sqrt2 -> a - b*sqrt2."""
        return QSqrt2(self.a, -self.b)

    def inverse(self):
        n = self.a * self.a - 2 * self.b * self.b
        return QSqrt2(self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * QSqrt2._of(other).inverse()

    def __rtruediv__(self, other):
        return QSqrt2._of(other) * self.inverse()

    def __eq__(self, other):
        o = QSqrt2._of(other)
        return (self.a, self.b) == (o.a, o.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a or self.b)

    def __repr__(self):
        return f"({self.a}+{self.b}*sqrt2)"


SQRT2 = QSqrt2(0, 1)
# D = diag(1, 1, 1, sqrt2, 1, 1, 1), the change of basis to repn's module
D = (1, 1, 1, SQRT2, 1, 1, 1)


def conjugate_by_D(m):
    """D^-1 m D, entry by entry: m_rs d_s / d_r."""
    return tuple(tuple(QSqrt2._of(v) * D[s] / D[r] for s, v in enumerate(row))
                 for r, row in enumerate(m))


def printed_F(i, j):
    """so7 generator F_ij = e_ij - (-1)^{i+j} e_{8-j,8-i}."""
    return mat_sub(mat_unit(i, j), mat_unit(8 - j, 8 - i, (-1) ** (i + j)))


def printed_chevalley():
    """(e1, e2, f1, f2, h1, h2) as printed, with sqrt2 in e2 and f2."""
    e1 = mat_add(mat_unit(2, 3), mat_unit(5, 6))
    f1 = mat_add(mat_unit(3, 2), mat_unit(6, 5))
    e2 = mat_add(mat_unit(1, 2), mat_unit(3, 4, SQRT2), mat_unit(4, 5, SQRT2),
                 mat_unit(6, 7))
    f2 = mat_add(mat_unit(2, 1), mat_unit(4, 3, SQRT2), mat_unit(5, 4, SQRT2),
                 mat_unit(7, 6))
    return e1, e2, f1, f2, bracket(e1, f1), bracket(e2, f2)


@lru_cache(maxsize=None)
def printed_G():
    """All 49 G_ij over Q(sqrt2), from the printed formulas and the printed
    proportionalities, closed under the skew relation."""
    F = printed_F
    G = {}
    for i in (2, 3, 7):
        for j in (2, 3, 7):
            if i != j:
                G[(i, j)] = mat_scale(3, F(i, j))
    G[(2, 2)] = mat_sub(mat_scale(2, F(2, 2)), mat_add(F(3, 3), F(7, 7)))
    G[(3, 3)] = mat_sub(mat_scale(2, F(3, 3)), mat_add(F(2, 2), F(7, 7)))
    G[(7, 7)] = mat_sub(mat_scale(2, F(7, 7)), mat_add(F(2, 2), F(3, 3)))
    G[(2, 4)] = mat_sub(mat_scale(2, F(2, 4)), mat_scale(SQRT2, F(1, 3)))
    G[(3, 4)] = mat_add(mat_scale(2, F(3, 4)), mat_scale(SQRT2, F(6, 7)))
    G[(7, 4)] = mat_sub(mat_scale(2, F(7, 4)), mat_scale(SQRT2, F(5, 2)))
    G[(4, 2)] = mat_sub(mat_scale(2, F(4, 2)), mat_scale(SQRT2, F(3, 1)))
    G[(4, 3)] = mat_add(mat_scale(2, F(4, 3)), mat_scale(SQRT2, F(7, 6)))
    G[(4, 7)] = mat_sub(mat_scale(2, F(4, 7)), mat_scale(SQRT2, F(2, 5)))
    # G_24 = -sqrt2 G_13, G_34 = sqrt2 G_67, ...
    half_sqrt2 = SQRT2 / 2
    G[(1, 3)] = mat_scale(-half_sqrt2, G[(2, 4)])
    G[(6, 7)] = mat_scale(half_sqrt2, G[(3, 4)])
    G[(5, 2)] = mat_scale(-half_sqrt2, G[(7, 4)])
    G[(3, 1)] = mat_scale(-half_sqrt2, G[(4, 2)])
    G[(7, 6)] = mat_scale(half_sqrt2, G[(4, 3)])
    G[(2, 5)] = mat_scale(-half_sqrt2, G[(4, 7)])
    for i in range(1, 8):
        for j in range(1, 8):
            if (i, j) not in G and (8 - j, 8 - i) in G:
                G[(i, j)] = mat_scale(-((-1) ** (i + j)), G[(8 - j, 8 - i)])
    for i in range(1, 8):
        G.setdefault((i, 8 - i), mat_zero())
    assert len(G) == 49
    return G


def rref_field(matrix):
    """rref by field operations, for Fraction or QSqrt2 entries."""
    m = [list(row) for row in matrix]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * v for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


# ---------------------------------------------------------------- the g2 CLI


def _add_case_args(p):
    p.add_argument("--lambda", dest="lam", type=cli._parse_weight,
                   required=True, metavar="a,b")
    p.add_argument("--case", type=int, required=True, choices=range(7))


def _add_input_args(p):
    """A closed-form case (--lambda with --case) or a space file (--space);
    argparse keeps --lambda and --space apart, _check_inputs the pairings."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--lambda", dest="lam", type=cli._parse_weight,
                        metavar="a,b", help="build from a closed-form case")
    source.add_argument("--space", help="JSON file: 7 coefficient arrays")
    p.add_argument("--case", type=int, choices=range(7))


def _check_inputs(ap, args):
    """--case goes with --lambda and only with it, every file with --space,
    and ssd-check reads --space only together with --ram."""
    if args.lam is not None:
        if args.case is None:
            ap.error("--lambda needs --case")
        for name in ("ram", "witness"):
            if getattr(args, name, None) is not None:
                ap.error(f"--{name} needs --space")
    elif args.case is not None:
        ap.error("--case needs --lambda")
    elif hasattr(args, "ram") and args.ram is None:
        ap.error("--space needs --ram")


@lru_cache(maxsize=None)
def build_parser():
    """The argparse parser that cli's command table replaced, with cli's
    handlers and value parsers."""
    ap = argparse.ArgumentParser(prog="g2", description=cli.__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tensor", help="decompose a tensor product")
    p.add_argument("--left", type=cli._parse_weight, required=True)
    p.add_argument("--right", type=cli._parse_weight, required=True)
    p.set_defaults(func=cli.cmd_tensor)

    p = sub.add_parser("invdim", help="invariant dimension of a product")
    p.add_argument("--weights", type=cli._parse_weights, required=True,
                   help="semicolon-separated weights, e.g. '0,1;0,1'")
    p.set_defaults(func=cli.cmd_invdim)

    p = sub.add_parser("bae", help="closed-form Bethe solution")
    _add_case_args(p)
    p.set_defaults(func=cli.cmd_bae)

    p = sub.add_parser("bae-verify",
                       help="genericity/exact Bethe equations/fertility")
    _add_case_args(p)
    p.set_defaults(func=cli.cmd_bae_verify)

    p = sub.add_parser("reproduce", help="one reproduction step")
    _add_case_args(p)
    p.add_argument("--direction", type=int, required=True, choices=(1, 2))
    p.set_defaults(func=cli.cmd_reproduce)

    p = sub.add_parser("diffop", help="the order-7 operator")
    _add_case_args(p)
    p.add_argument("--conjugated", action="store_true")
    p.set_defaults(func=cli.cmd_diffop)

    p = sub.add_parser("kernel", help="polynomial kernel basis")
    _add_case_args(p)
    p.set_defaults(func=cli.cmd_kernel)

    p = sub.add_parser("exponents", help="indicial exponents")
    _add_case_args(p)
    p.add_argument("--point", type=cli._parse_point, required=True,
                   help="a rational, or 'inf'")
    p.add_argument("--raw", action="store_true",
                   help="use the unconjugated operator")
    p.set_defaults(func=cli.cmd_exponents)

    p = sub.add_parser("h2check", help="residue vs Casimir cross-check")
    _add_case_args(p)
    p.set_defaults(func=cli.cmd_h2check)

    p = sub.add_parser("ssd-check", help="self-(self-)duality checks")
    _add_input_args(p)
    p.add_argument("--ram", help="JSON file: points + partitions")
    p.add_argument("--witness", help="JSON file: ordered basis")
    p.set_defaults(func=cli.cmd_ssd_check)

    p = sub.add_parser("wronski", help="space Wronskian")
    _add_input_args(p)
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=cli.cmd_wronski)

    p = sub.add_parser("strata", help="stratification of SGr_d")
    p.add_argument("--d", type=int, required=True, choices=range(7, 15),
                   metavar="7..14")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cli.cmd_strata)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all")
    p.set_defaults(func=cli.cmd_verify)

    return ap


def cli_options():
    """{command: {option string: (dest, whether it takes a value)}} of the
    argparse parser, -h left out."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s: (a.dest, a.nargs is None) for a in p._actions
                   for s in a.option_strings if s not in ("-h", "--help")}
            for name, p in sub.choices.items()}


def parse_args(argv):
    """The namespace of argv by the argparse parser, then _check_inputs.

    argparse reads a token that begins with '-' as an option, not as the
    value before it, so main() used to join `--point -1/2` into
    `--point=-1/2`.  The table parser takes the next token as the value of
    any option, so this join is applied to every option that takes a
    value, left to right, each value consumed once."""
    valued = {s for opts in cli_options().values()
              for s, (_, takes) in opts.items() if takes}
    argv, joined = list(argv), []
    while argv:
        token = argv.pop(0)
        if token in valued and argv and argv[0].startswith("-"):
            token = f"{token}={argv.pop(0)}"
        elif token in valued and argv:
            joined.append(token)
            token = argv.pop(0)
        joined.append(token)
    ap = build_parser()
    args = ap.parse_args(joined)
    if hasattr(args, "space"):
        _check_inputs(ap, args)
    return args
