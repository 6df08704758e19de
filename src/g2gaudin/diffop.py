"""Order-7 differential operators attached to Bethe solutions: construction
from the 7-factor product, conjugation, exact polynomial kernels, and
Fuchsian exponents."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import bethe
from . import repn
from . import rootdata as rd
from .exact import Poly, RatFunc, log_deriv, poly_lcm, residue_at
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


def _integer_scale(polys):
    """The positive rational c such that c * p has coprime integer
    coefficients across all of polys together."""
    den, num = 1, 0
    for p in polys:
        for c in p.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
            num = gcd(num, c.numerator)
    return Fraction(den, num)


def from_log_factors(gs) -> DiffOp:
    """The product (d - ln' g_1)...(d - ln' g_m), leftmost factor first.

    Every w_k = ln' g_k has only simple poles, so its reduced denominator is
    squarefree, and so is the lcm Q of those denominators.  With W_k = Q w_k,
    both scaled by one constant to integer coefficients, the partial product
    of order n is carried as sum_k P_k / Q^(n-k) d^k with polynomial P_k:
    left-composing with d - W/Q sends P_k d^k to P_k d^(k+1) plus
    (Q P_k' - (n-k) Q' P_k - W P_k) / Q^(n+1-k) d^k, which needs no division
    and no gcd.  Each coefficient is reduced once, at the end."""
    ws = [log_deriv(g) for g in gs]
    Q = Poly([1])
    for w in ws:
        Q = poly_lcm(Q, w.den)
    Ws = [w.num * Q.exact_div(w.den) for w in ws]
    c = _integer_scale([Q] + Ws)
    Q, Ws = Q * c, [W * c for W in Ws]
    dQ = Q.derivative()
    ps = [Poly([1])]
    for n, W in enumerate(reversed(Ws)):
        out = [Poly()] + ps
        for k, p in enumerate(ps):
            out[k] = out[k] + Q * p.derivative() - (dQ * (n - k) + W) * p
        ps = out
    m = len(ps) - 1
    Qpow = [Poly([1])]
    for _ in range(m):
        Qpow.append(Qpow[-1] * Q)
    return DiffOp(tuple(RatFunc(ps[k], Qpow[m - k])
                        for k in range(m - 1, -1, -1)))


def dy_factor_functions(y: bethe.PolyPair, T1: Poly, T2: Poly):
    """The seven functions g_k whose log-derivatives enter the factorization,
    as RatFuncs, leftmost first."""
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


def build_Dy(y: bethe.PolyPair, T1: Poly, T2: Poly) -> DiffOp:
    return from_log_factors(dy_factor_functions(y, T1, T2))


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
    """Basis of the kernel of D among polynomials of degree < degree_bound."""
    full = D.full()
    den = Poly([1])
    for c in full:
        den = poly_lcm(den, c.den) if not c.is_zero() else den
    cleared = [(c.num * den.exact_div(c.den)) if not c.is_zero() else Poly()
               for c in full]
    cols = []
    maxdeg = 0
    for k in range(degree_bound):
        p = Poly([Fraction(0)] * k + [Fraction(1)])
        img = Poly()
        d = p
        for i, c in enumerate(cleared):
            if i:
                d = d.derivative()
            img = img + c * d
        cols.append(img)
        maxdeg = max(maxdeg, img.degree)
    A = [[cols[k][row] for k in range(degree_bound)] for row in range(maxdeg + 1)]
    basis = []
    for v in nullspace(A):
        basis.append(Poly(v))
    return basis


def _falling(n: int):
    """The polynomial s(s-1)...(s-n+1) in the symbol s."""
    p = Poly([Fraction(1)])
    for k in range(n):
        p = p * Poly([-k, 1])
    return p


def _integer_roots(p: Poly):
    """All roots of p, required to be integers (with multiplicity); errors
    otherwise."""
    roots = []
    v = p.valuation() if not p.is_zero() else 0
    roots.extend([0] * v)
    if v:
        p = Poly(p.coeffs[v:])
    while p.degree > 0:
        # clear denominators, scan divisors of the constant term
        L = 1
        for c in p.coeffs:
            L = L * c.denominator // gcd(L, c.denominator)
        c0 = abs(int(p.coeffs[0] * L))
        found = None
        for r in range(1, c0 + 1):
            if c0 % r == 0:
                for cand in (r, -r):
                    if p(Fraction(cand)) == 0:
                        found = cand
                        break
            if found is not None:
                break
        if found is None:
            raise ValueError("indicial polynomial has a non-integer root")
        roots.append(found)
        p = p.exact_div(Poly([-found, 1]))
    return sorted(roots)


def _laurent_coeff(f: RatFunc, p, m: int):
    """Coefficient of (x-p)^{-m} in the expansion of f at p (m >= 1)."""
    if f.is_zero():
        return Fraction(0)
    num = f.num.shift(p)
    den = f.den.shift(p)
    vn, vd = num.valuation(), den.valuation()
    if vn - vd > -m:
        return Fraction(0)
    if vn - vd < -m:
        raise ValueError(f"pole order exceeds {m} at {p}: not Fuchsian")
    n0 = Poly(num.coeffs[vn:])
    d0 = Poly(den.coeffs[vd:])
    # constant term of the power series n0/d0
    return n0.coeffs[0] / d0.coeffs[0]


@dataclass(frozen=True)
class ExponentList:
    point: object  # scalar or "inf"
    exponents: tuple


def exponents_at(D: DiffOp, p) -> ExponentList:
    """The 7 indicial roots at a finite point p or at infinity ("inf")."""
    n = D.order
    full = D.full()
    if p == "inf" or p == bethe.INF:
        chi = _falling(n)
        for i in range(1, n + 1):
            c = full[n - i]
            if c.is_zero():
                continue
            dn, dd = c.num.degree, c.den.degree
            if dn + i > dd:
                raise ValueError("coefficient decay too slow at infinity")
            if dn + i == dd:
                gamma = c.num.leading() / c.den.leading()
                chi = chi + gamma * _falling(n - i)
        # roots s of chi(-s) = 0
        chi_neg = Poly([c if k % 2 == 0 else -c
                        for k, c in enumerate(chi.coeffs)])
        return ExponentList("inf", tuple(_integer_roots(chi_neg)))
    chi = _falling(n)
    for i in range(1, n + 1):
        c = full[n - i]
        b = _laurent_coeff(c, p, i)
        if b:
            chi = chi + b * _falling(n - i)
    return ExponentList(p, tuple(_integer_roots(chi)))


def appendix_operator(lam, i, conjugated=False) -> DiffOp:
    """The operator attached to the closed-form solution for (lam, omega2),
    z = (0, 1); optionally conjugated by T1^2 T2."""
    y = bethe.appendix_solution(lam, i)
    T1, T2 = bethe.build_calT([lam, rd.OMEGA2], [Fraction(0), Fraction(1)])
    if not conjugated:
        return build_Dy(y, T1, T2)
    # f^{-1} (d - ln' g) f = d - ln'(g / f)
    f = RatFunc(T1 ** 2 * T2)
    return from_log_factors([g / f for g in dy_factor_functions(y, T1, T2)])


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


@lru_cache(maxsize=None)
def _h2_normalization():
    """Constant relating the d^5 coefficient of the conjugated operator to
    the pair Casimir eigenvalue, pinned on one known case."""
    lam = (0, 1)
    D = appendix_operator(lam, 0, conjugated=True)
    h2 = D.coeffs[1]
    r = -residue_at(h2, Fraction(0))
    mu = rd.add(lam, rd.OMEGA2)
    eig = Fraction(repn.casimir_eigenvalue(mu) - repn.casimir_eigenvalue(lam)
                   - repn.casimir_eigenvalue(rd.OMEGA2), 2)
    expected = eig / (Fraction(0) - Fraction(1))
    if not r:
        raise ValueError("degenerate calibration case")
    return expected / r


def h2_casimir_values(lam, i):
    """(residue-side value, eigenvalue-side value), both exact."""
    if i not in bethe.admissible_ls(lam):
        raise ValueError(f"case {i} not admissible for {lam}")
    D = appendix_operator(lam, i, conjugated=True)
    h2 = D.coeffs[1]
    got = -residue_at(h2, Fraction(0)) * _h2_normalization()
    mu = rd.sub(rd.add(lam, rd.OMEGA2), bethe.alpha_of_l(bethe.L_LIST[i]))
    eig = Fraction(repn.casimir_eigenvalue(mu) - repn.casimir_eigenvalue(lam)
                   - repn.casimir_eigenvalue(rd.OMEGA2), 2)
    expected = eig / (Fraction(0) - Fraction(1))
    return got, expected
