"""Order-7 differential operators attached to Bethe solutions: construction
from the 7-factor product, conjugation, exact polynomial kernels, and
Fuchsian exponents."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from . import bethe
from . import repn
from . import rootdata as rd
from .exact import (Poly, RatFunc, log_deriv, residue_at, zclear, zadd,
                    zderiv, zgcd, zlcm, zmul, zprimitive, zquo, zratfunc,
                    zscale, zsub)
from .linalg import nullspace

RF_ZERO = RatFunc(Poly())
RF_ONE = RatFunc(Poly([1]))


@dataclass(frozen=True)
class DiffOp:
    """Monic operator d^order + sum coeffs[i] d^(order-1-i); coeffs run from
    the sub-leading coefficient down to the constant one."""
    coeffs: tuple  # RatFunc entries, for d^{order-1} .. d^0

    @property
    def order(self):
        return len(self.coeffs)

    def full(self):
        """Coefficient list indexed by derivative order 0..order."""
        n = self.order
        out = [RF_ZERO] * (n + 1)
        out[n] = RF_ONE
        for i, c in enumerate(self.coeffs):
            out[n - 1 - i] = c
        return out

    def apply(self, p: Poly) -> RatFunc:
        acc = RatFunc(Poly())
        d = p
        for k, c in enumerate(self.full()):
            if k:
                d = d.derivative()
            acc = acc + c * RatFunc(d)
        return acc

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.coeffs == other.coeffs


def _lmul_factor(w: RatFunc, cs):
    """Coefficients of (d + w) composed with sum cs[k] d^k."""
    n = len(cs)
    out = [RF_ZERO] * (n + 1)
    for k, c in enumerate(cs):
        out[k + 1] = out[k + 1] + c
        out[k] = out[k] + c.derivative() + w * c
    return out


# exponents of the seven factor functions g_k over (T1, T2, y1, y2),
# leftmost factor first; see dy_factor_functions
_DY_EXPONENTS = ((4, 2, -1, 0), (3, 2, 1, -1), (3, 1, -2, 1), (2, 1, 0, 0),
                 (1, 1, 2, -1), (1, 0, -1, 1), (0, 0, 1, 0))
# the exponents of T1^2 T2, by which appendix_operator conjugates
_CONJUGATOR = (2, 1, 0, 0)


def _log_factors(fs, exps):
    """(Q, [W_k]) with ln' g_k = W_k / Q for g_k = prod_j fs[j]^exps[k][j],
    fs integer coefficient lists and Q, W_k in Z[x].

    For primitive f with g = gcd(f, f'), ln' f = (f'/g) / rad f, where
    rad f = f/g is squarefree; both quotients lie in Z[x].  Q is the lcm of
    the radicals and W_k = Q ln' g_k = sum_j e_kj (f_j'/g_j) (Q / rad f_j),
    for any f_j, coprime and squarefree or not."""
    Q, rads, logs = [1], [], []
    for j, f in enumerate(fs):
        if len(f) < 2 or not any(e[j] for e in exps):
            rads.append([1])
            logs.append([])
            continue
        f = zprimitive(f)
        df = zderiv(f)
        g = zgcd(f, df)
        rads.append(zquo(f, g))
        logs.append(zquo(df, g))
        Q = zlcm(Q, rads[-1])
    cofactors = [zquo(Q, r) for r in rads]
    Ws = []
    for e in exps:
        W = []
        for ej, lg, cof in zip(e, logs, cofactors):
            if ej and lg:
                W = zadd(W, zscale(ej, zmul(lg, cof)))
        Ws.append(W)
    return Q, Ws


def apply_log_factor(Q, dQ, W, P, j):
    """Q^(j+1) (d - W/Q)(P / Q^j) = Q P' - j Q' P - W P, for dQ = Q'."""
    return zsub(zmul(Q, zderiv(P)), zmul(zadd(zscale(j, dQ), W), P))


def _log_factor_product(Q, Ws) -> DiffOp:
    """(d - W_1/Q)...(d - W_m/Q), leftmost factor first, for Q, W_k in Z[x]
    with Q squarefree (as from _log_factors).

    The partial product of order n is carried as sum_k P_k / Q^(n-k) d^k
    with P_k in Z[x]: left-composing with d - W/Q sends P_k d^k to
    P_k d^(k+1) plus apply_log_factor(Q, Q', W, P_k, n - k) / Q^(n+1-k) d^k,
    which needs no division and no gcd.  Each coefficient is reduced once,
    at the end."""
    dQ, ps = zderiv(Q), [[1]]
    for n, W in enumerate(reversed(Ws)):
        out = [[]] + ps
        for k, p in enumerate(ps):
            out[k] = zadd(out[k], apply_log_factor(Q, dQ, W, p, n - k))
        ps = out
    m = len(ps) - 1
    return DiffOp(tuple(zratfunc(*_reduce_over_power(ps[k], Q, m - k))
                        for k in range(m - 1, -1, -1)))


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


def from_log_factors(gs) -> DiffOp:
    """The product (d - ln' g_1)...(d - ln' g_m), leftmost factor first, for
    rational functions g_k over Q: each g_k is written as its numerator over
    its denominator and fed to the integer product."""
    bases, exps = {}, []
    for g in gs:
        g = RatFunc._coerce(g)
        e = {}
        for part, sign in ((g.num, 1), (g.den, -1)):
            a = zprimitive(zclear(part.coeffs)[0])
            if len(a) > 1:
                key = tuple(a)
                bases.setdefault(key, len(bases))
                e[bases[key]] = e.get(bases[key], 0) + sign
        exps.append(e)
    return _log_factor_product(*_log_factors(
        [list(b) for b in bases],
        [[e.get(j, 0) for j in range(len(bases))] for e in exps]))


def dy_factor_functions(y: bethe.PolyPair, T1: Poly, T2: Poly):
    """The seven functions g_k whose log-derivatives enter the factorization,
    as RatFuncs, leftmost first.  build_Dy builds the same product from their
    exponents (_DY_EXPONENTS) without forming them."""
    r = lambda p: RatFunc(p)
    y1, y2 = r(y.y1), r(y.y2)
    t1, t2 = r(T1), r(T2)
    return (t1 ** 4 * t2 ** 2 / y1,
            t1 ** 3 * t2 ** 2 * y1 / y2,
            t1 ** 3 * t2 * y2 / (y1 * y1),
            t1 ** 2 * t2,
            t1 * t2 * y1 * y1 / y2,
            t1 * y2 / y1,
            y1)


def dy_log_factors(y: bethe.PolyPair, T1: Poly, T2: Poly, shift=(0,) * 4):
    """(Q, [W_1..W_7]) with D_y = (d - W_1/Q)...(d - W_7/Q), or its
    conjugate by T1^2 T2 for shift = _CONJUGATOR: f^-1 (d - ln' g) f is
    d - ln'(g/f)."""
    fs = [zclear(p.coeffs)[0] for p in (T1, T2, y.y1, y.y2)]
    return _log_factors(fs, [[a - b for a, b in zip(e, shift)]
                             for e in _DY_EXPONENTS])


def _factor_product(y: bethe.PolyPair, T1: Poly, T2: Poly, shift=(0,) * 4):
    return _log_factor_product(*dy_log_factors(y, T1, T2, shift))


def build_Dy(y: bethe.PolyPair, T1: Poly, T2: Poly) -> DiffOp:
    return _factor_product(y, T1, T2)


def conjugate(D: DiffOp, f: RatFunc) -> DiffOp:
    """f^{-1} D f: substitute d -> d + f'/f and re-expand."""
    if isinstance(f, Poly):
        f = RatFunc(f)
    w = log_deriv(f)
    n = D.order
    powers = [[RF_ONE]]
    for _ in range(n):
        powers.append(_lmul_factor(w, powers[-1]))
    full = D.full()
    out = [RF_ZERO] * (n + 1)
    for i, c in enumerate(full):
        for k, p in enumerate(powers[i]):
            out[k] = out[k] + c * p
    assert out[n] == RF_ONE
    return DiffOp(tuple(out[n - 1 - i] for i in range(n)))


def polynomial_kernel(D: DiffOp, degree_bound: int):
    """Basis of the kernel of D among polynomials of degree < degree_bound.
    With the coefficients C_i of d^i cleared to Z[x] by one common
    denominator, column j of the matrix is the image of x^j,
    sum_i j!/(j-i)! x^(j-i) C_i."""
    cleared = _clear_coefficients(D.full())
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


def _clear_coefficients(cs):
    """Integer lists C_i with C_i = s L cs[i] for one rational s != 0, where
    L is the lcm of the denominators of the RatFuncs cs."""
    parts, L = [], [1]
    for c in cs:
        if c.is_zero():
            parts.append(None)
            continue
        num, nd = zclear(c.num.coeffs)
        den, dd = zclear(c.den.coeffs)
        cont = gcd(*den)
        den = [v // cont for v in den]
        parts.append((num, den, Fraction(dd, nd * cont)))
        L = zlcm(L, den)
    scale = lcm(*(p[2].denominator for p in parts if p))
    return [zscale(p[2].numerator * (scale // p[2].denominator),
                   zmul(p[0], zquo(L, p[1]))) if p else []
            for p in parts]


# s(s - 1)...(s - n + 1) in the symbol s for n = 0..7, on integer lists:
# the indicial polynomial of an operator of order n sums them
_FALLING = tuple(reduce(zmul, ([-k, 1] for k in range(n)), [1])
                 for n in range(8))


def _divide_out(a, r, s=1):
    """(v, q) with a = (s x - r)^v q in Z[x] and q(r / s) != 0."""
    v = 0
    while True:
        try:
            a, v = zquo(a, [-r, s]), v + 1
        except ValueError:
            return v, a


def _integer_roots(p: Poly):
    """All roots of p, required to be integers (with multiplicity); errors
    otherwise.  Each divides the constant term of what is left in Z[x]."""
    a, roots = zclear(p.coeffs)[0], []
    while len(a) > 1:
        c0 = abs(a[0])
        for r in ((t * d for d in range(1, c0 + 1) if c0 % d == 0
                   for t in (1, -1)) if c0 else (0,)):
            v, a = _divide_out(a, r)
            roots += [r] * v
            if v:
                break
        else:
            raise ValueError("indicial polynomial has a non-integer root")
    return sorted(roots)


def _laurent_coeff(f: RatFunc, p, m: int):
    """Coefficient of (x-p)^{-m} in the expansion of f at p (m >= 1)."""
    if f.is_zero():
        return Fraction(0)
    r, s = Fraction(p).numerator, Fraction(p).denominator
    lead = []
    for g in (f.num, f.den):
        # g = (s x - r)^v q / den has (x - p)^v coefficient s^v q(p) / den
        a, den = zclear(g.coeffs)
        v, q = _divide_out(a, r, s)
        d = len(q) - 1
        lead.append((v, Fraction(sum(c * r ** k * s ** (d - k + v)
                                     for k, c in enumerate(q)), den * s ** d)))
    (vn, tn), (vd, td) = lead
    if vn - vd > -m:
        return Fraction(0)
    if vn - vd < -m:
        raise ValueError(f"pole order exceeds {m} at {p}: not Fuchsian")
    return tn / td


@dataclass(frozen=True)
class ExponentList:
    point: object  # scalar or "inf"
    exponents: tuple


def _infinity_coeff(c: RatFunc, i: int):
    """Coefficient of x^{-i} in the expansion of c at infinity; errors if c
    decays slower than x^{-i}."""
    if c.is_zero() or c.num.degree + i < c.den.degree:
        return Fraction(0)
    if c.num.degree + i > c.den.degree:
        raise ValueError("coefficient decay too slow at infinity")
    return c.num.leading() / c.den.leading()


def exponents_at(D: DiffOp, p) -> ExponentList:
    """The 7 indicial roots at a finite point p or at infinity ("inf"),
    where they are the roots s of chi(-s) = 0."""
    n, full = D.order, D.full()
    inf = p == "inf" or p == bethe.INF
    chi = list(_FALLING[n])
    for i in range(1, n + 1):
        b = (_infinity_coeff(full[n - i], i) if inf
             else _laurent_coeff(full[n - i], p, i))
        if b:
            for k, c in enumerate(_FALLING[n - i]):
                chi[k] += b * c
    if inf:
        chi = [c if k % 2 == 0 else -c for k, c in enumerate(chi)]
    return ExponentList("inf" if inf else p,
                        tuple(_integer_roots(Poly(chi))))


def appendix_operator(lam, i, conjugated=False) -> DiffOp:
    """The operator attached to the closed-form solution for (lam, omega2),
    z = (0, 1); optionally conjugated by T1^2 T2."""
    y = bethe.appendix_solution(lam, i)
    T1, T2 = bethe.build_calT([lam, rd.OMEGA2], [Fraction(0), Fraction(1)])
    if not conjugated:
        return build_Dy(y, T1, T2)
    return _factor_product(y, T1, T2, _CONJUGATOR)


def default_degree_bound(lam, i) -> int:
    """1 + the largest exponent of D_y at infinity: the largest exponent of
    the conjugated operator is 2*mu1 + mu2 with mu the resulting weight, and
    the twist by T1^2 T2 adds its degree, 2*lam1 + lam2 + 1."""
    mu = rd.sub(rd.add(lam, rd.OMEGA2), bethe.alpha_of_l(bethe.L_LIST[i]))
    return 2 * mu[0] + mu[1] + 6 + (2 * lam[0] + lam[1] + 1) + 1


def kernel_for_case(lam, i):
    """Polynomial kernel of D_y for a closed-form case, dimension-checked."""
    D = appendix_operator(lam, i)
    bound = default_degree_bound(lam, i)
    basis = polynomial_kernel(D, bound)
    if len(basis) != 7:
        raise ValueError(f"kernel dimension {len(basis)} != 7 for "
                         f"{lam}, case {i}")
    return basis


# Constant relating the d^5 coefficient of the conjugated operator to the
# pair Casimir eigenvalue; derived in h2_casimir_values.
_H2_NORMALIZATION = Fraction(1, 2)


def h2_casimir_values(lam, i):
    """(residue-side value, eigenvalue-side value), both exact.

    The residue side is -N res_0 h2, where h2 is the d^5 coefficient of the
    operator conjugated by T1^2 T2; the eigenvalue side is
    e / (z1 - z2) = -e, with e = (c(mu) - c(lam) - c(omega2)) / 2 the
    eigenvalue of the pair Casimir and c(nu) = (nu, nu + 2 rho), so that
    c(a, b) = 6a^2 + 6ab + 2b^2 + 18a + 10b.  N = _H2_NORMALIZATION = 1/2:

    The kernel is a space of polynomials with Wronskian supported on {0, 1},
    so the coefficients are regular off {0, 1, infinity} with at most an
    (x - p)^-i pole in the d^(7-i) coefficient.  The d^6 coefficient is
    -ln'(prod g_k / (T1^2 T2)^7) = 0, so the indicial polynomial at p is
    [s]_7 + A_p [s]_5 + (lower [s]_j), with A_p the (x - p)^-2 coefficient
    of h2, and the second elementary symmetric function of its roots is
    175 + A_p.  With exponents i + delta_i at 0, where delta runs over
    (-2a-b, -a-b, -a, 0, a, a+b, 2a+b) for lam = (a, b), that gives
    A_0 = -sum i delta_i - sum delta_i^2 / 2 = -c(lam); likewise
    A_1 = -c(omega2), and at infinity x^2 h2 -> -c(mu).  Partial fractions,
    h2 = A_0/x^2 + A_1/(x-1)^2 + R (1/(x-1) - 1/x), expand at infinity to
    (A_0 + A_1 + R)/x^2, so R = -c(mu) + c(lam) + c(omega2) = -2e and
    res_0 h2 = -R = 2e.  Hence -N res_0 h2 = -2Ne equals -e exactly for
    N = 1/2, in every case at once: no case calibrates it."""
    if i not in bethe.admissible_ls(lam):
        raise ValueError(f"case {i} not admissible for {lam}")
    D = appendix_operator(lam, i, conjugated=True)
    h2 = D.coeffs[1]
    got = -residue_at(h2, Fraction(0)) * _H2_NORMALIZATION
    mu = rd.sub(rd.add(lam, rd.OMEGA2), bethe.alpha_of_l(bethe.L_LIST[i]))
    eig = Fraction(repn.casimir_eigenvalue(mu) - repn.casimir_eigenvalue(lam)
                   - repn.casimir_eigenvalue(rd.OMEGA2), 2)
    expected = eig / (Fraction(0) - Fraction(1))
    return got, expected
