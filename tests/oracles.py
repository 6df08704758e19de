"""RatFunc reference implementations of the operator layer, kept as oracles
for the integer code of `diffop`: the plain RatFunc product of log-factors,
conjugation by substitution, application to a polynomial, Laurent and
infinity coefficients by Taylor shifts, the indicial polynomial over Q and
residues.  An operator here is its full coefficient list, indexed by
derivative order 0..n, of RatFuncs."""

from fractions import Fraction
from functools import lru_cache

from g2gaudin.exact import Poly, RatFunc

ZERO = RatFunc(Poly())
ONE = RatFunc(Poly([1]))


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
    vn, vd = num.valuation(), den.valuation()
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
    m = den.valuation()
    # den = x^m d0 with d0(0) != 0; the residue is [x^(m-1)] num / d0
    d0 = Poly(den.coeffs[m:])
    inv0, inv = 1 / d0.coeffs[0], []
    for k in range(m):
        inv.append(inv0 if k == 0 else
                   -inv0 * sum((d0[j] * inv[k - j] for j in range(1, k + 1)),
                               Fraction(0)))
    return sum((num[j] * inv[m - 1 - j] for j in range(m)), Fraction(0))
