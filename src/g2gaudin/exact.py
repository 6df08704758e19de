"""Exact polynomial arithmetic over Q, the one scalar field of the package.

Polynomials and rational functions are dense, coefficients
`fractions.Fraction` stored lowest degree first.  All operations are pure;
every value is immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm, prod
from typing import Iterable, Sequence


class Poly:
    """Dense univariate polynomial over Q, coefficients lowest degree first;
    a coefficient that is not rational raises TypeError."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __iter__(self):  # else iter() would run __getitem__ without end
        raise TypeError("a Poly is not iterable; iterate its coeffs")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs  # both normalised

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly([Fraction(1)])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly"):
        """Exact field division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.leading()
        dd = other.degree
        q = [Fraction(0)] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            f = c / dlead
            q[i - dd] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dd + j] = rem[i - dd + j] - f * oc
        return Poly(q), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c!r}*x^{i}" if i else f"{c!r}")
        return "Poly(" + " + ".join(terms) + ")"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over the coefficient field."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


# Integer polynomial core.  The Q[x] hot paths (every Wronskian, by the
# Jacobi recursion of zwronskians; the Bethe layer; the rational rref in
# linalg, whose matrix rows are these lists reversed, eliminated by
# zreduce and zechelon) clear denominators once on entry, compute on lists
# of Python ints (lowest degree first, no trailing zeros, [] for zero) and
# build one Fraction per output coefficient.  An operator in diffop lives
# on these lists only (numerators over powers of a squarefree Q, with its
# exponents and residue read off them); zratfunc turns it into RatFuncs
# for output.  A zero divisor raises ZeroDivisionError, as in Poly.divmod.


def _denominator(coeffs) -> int:
    """Least common denominator of rational coefficients."""
    return lcm(*(c.denominator for c in coeffs))


def zclear(coeffs):
    """(a, den): integer coefficients a with coeffs = a / den, den > 0."""
    den = _denominator(coeffs)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def zrow(p):
    """p, a Poly or an integer list, as an integer list on the same line."""
    return zclear(p.coeffs)[0] if isinstance(p, Poly) else p


def zpoly(a, den=1) -> Poly:
    """The Poly a / den."""
    return Poly([Fraction(c, den) for c in a])


def zadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return out


def zscale(c, a):
    return [c * v for v in a] if c else []


def zsub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def zmul(a, b):
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        if cb:
            for i, ca in enumerate(a, j):
                out[i] += ca * cb
    return out


def zderiv(a):
    return [i * c for i, c in enumerate(a)][1:]


def zwr(f, g):
    """The Wronskian f g' - f' g in one pass: f_i g_j enters the coefficient
    of x^(i + j - 1) with weight j - i.  Only nonzero coefficients take
    part, so the low x-power that a point of ramification at 0 puts in
    both operands costs nothing."""
    gs = [(j, c) for j, c in enumerate(g) if c]
    out = [0] * max(len(f) + len(g) - 2, 0)
    for i, a in enumerate(f):
        if a:
            for j, b in gs:
                if j != i:
                    out[i + j - 1] += (j - i) * a * b
    while out and not out[-1]:
        out.pop()
    return out


def _zval(a):
    """The x-adic valuation of a nonzero integer list."""
    v = 0
    while not a[v]:
        v += 1
    return v


def zquo(a, b):
    """a / b, required to lie in Z[x]; ValueError otherwise.  The x-power
    of b is stripped first: a must carry at least as high a one, and the
    quotient of the stripped lists is padded with the difference."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    va, vb = _zval(a), _zval(b)
    if va < vb:
        raise ValueError("inexact polynomial division")
    rem, b = a[va:], b[vb:]
    db, lead = len(b) - 1, b[-1]
    q = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        f, r = divmod(rem[i], lead)
        if r:
            raise ValueError("inexact polynomial division")
        if f:
            q[i - db] = f
            for j, c in enumerate(b, i - db):
                rem[j] -= f * c
    if any(rem[:db]):
        raise ValueError("inexact polynomial division")
    return [0] * (va - vb) + q


def zhomeval(a, r, s):
    """s^deg a(r/s), an integer, for an integer list a of degree deg: zero
    exactly when s x - r divides a."""
    v, sk = 0, 1
    for c in reversed(a):
        v, sk = v * r + c * sk, sk * s
    return v


def zprimitive(a):
    """a divided by its content, with positive leading coefficient."""
    if not a:
        return a
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [v // c for v in a]


def zprem(a, b):
    """A nonzero constant multiple of the remainder of a by b: [] exactly
    when b divides a in Q[x]."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem, db, lead = list(a), len(b) - 1, b[-1]
    while len(rem) > db:
        c, g = rem[-1], gcd(rem[-1], lead)
        s, f = lead // g, c // g
        if s != 1:
            rem = [s * v for v in rem]
        for j, v in enumerate(b, len(rem) - 1 - db):
            rem[j] -= f * v
        while rem and not rem[-1]:
            rem.pop()
    return rem


def zsolve1(p, q, N):
    """(A, c) with p A' + q A = c N, c > 0 and A 0 at the zero pivot, for
    integer lists p != 0 and q, deg q < deg p; None if there is none.  The
    solve is triangular: x^k reaches x^(k - 1 + deg p) with the pivot
    k lead(p) + q_(deg p - 1), zero for at most one k.  If no pivot is zero,
    or p H' + q H = 0 has a polynomial solution H (of that degree k), None
    means no polynomial A solves it at all.  A pivot that does not divide
    scales the residual and c."""
    if not p:
        raise ZeroDivisionError("polynomial division by zero")
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
        A[k], ak = a, a * k
        for i, v in enumerate(p, k - 1):
            R[i] -= ak * v
        for i, v in enumerate(q, k):
            R[i] -= a * v
    return None if any(R) else (zadd(A, []), c)


def zgcd(a, b):
    """Primitive gcd in Z[x] with positive leading coefficient, by the
    primitive remainder sequence; [] when both are zero."""
    a, b = zprimitive(a), zprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, zprimitive(zprem(a, b))
    return a


def zlcm(a, b):
    """Primitive lcm of nonzero a and b."""
    return zprimitive(zmul(a, zquo(zprimitive(b), zgcd(a, b))))


def zdet(m):
    """Determinant of a square matrix over Z[x] by fraction-free forward
    elimination (Bareiss 1968): each entry stays a minor, so each division
    is exact."""
    m, sign, prev = [list(row) for row in m], 1, [1]
    for k in range(len(m)):
        r = next((r for r in range(k, len(m)) if m[r][k]), None)
        if r is None:
            return []
        if r != k:
            m[k], m[r], sign = m[r], m[k], -sign
        for row in m[k + 1:]:
            row[k + 1:] = [zquo(zsub(zmul(m[k][k], a), zmul(row[k], b)), prev)
                           for a, b in zip(row[k + 1:], m[k][k + 1:])]
        prev = m[k][k]
    return zscale(sign, prev)


def _zjacobi(prev, gs, ts, k=1):
    """The levels (prev, gs) of the Jacobi recursion over a family F of j
    elements, prev = Wr(F) / t_j != 0 and gs = [Wr(F, h) / t_(j+1)] for the
    h to come, t_j = prod_(i<=j) ts[i-1]^(j+1-i), until a zero pivot; level
    0 (prev None) is the g / ts[0].  As Wr(Wr(F, g), Wr(F, h)) = Wr(F) Wr(F,
    g, h) and t_(j+1)^2 = t_j t_(j+2) / ts[k], k = j + 1, the next level has
    p = gs[0] as prev and Wr(p, g) / (prev ts[k]) for each later g, an exact
    division or ValueError (none for a divisor 1, or past the end of ts)."""
    if prev is None:
        t = ts[0] if ts else [1]
        gs, prev = list(gs) if t == [1] else [zquo(g, t) for g in gs], [1]
    while True:
        yield prev, gs
        if not gs or not gs[0]:
            return
        t = ts[k] if k < len(ts) and gs[1:] else [1]
        d = prev if t == [1] else zmul(prev, t)
        prev, gs, k = gs[0], [zquo(zwr(gs[0], g), d) for g in gs[1:]], k + 1


def zwronskians(fs, ts=()):
    """[Wr(f_1..f_k) / t_k for k = 0..n] of integer lists f_1..f_n, t_k as in
    _zjacobi (1 by default): the recursion's pivots, [] after a zero one."""
    out = [prev for prev, _ in _zjacobi(None, fs, ts)]
    return out + [[]] * (len(fs) + 1 - len(out))


def zprefix_levels(fs, ts=()):
    """The levels 0..n-2 of the recursion over integer lists f_1..f_n (fewer
    after a zero pivot): level k is (Wr(f_1..f_k) / t_k, [Wr(f_1..f_k, f_j)
    / t_(k+1) for j > k]), for zwronskian_past and zwronski_minors."""
    return list(islice(_zjacobi(None, fs, ts), max(len(fs) - 1, 0)))


def zwronskian_past(levels, ts=()):
    """Wr(f_1..f_n) / t_n one step past zprefix_levels(f_1..f_n, ts), or []."""
    *_, (top, rest) = _zjacobi(*levels[-1], ts, len(levels))
    return [] if rest else top


def zwronski_minors(fs, levels=None, ts=()):
    """[Wr(f_1..f_n without f_i) / t_(n-1) for i = 1..n] of integer lists:
    level i - 1 of levels (else zprefix_levels(fs, ts)) continued over
    f_(i+1)..f_n, so the full Wronskian is never formed."""
    if not fs:
        return []
    out, last = [], [1]
    for k, (prev, gs) in enumerate(levels or zprefix_levels(fs, ts), 1):
        *_, (top, rest) = _zjacobi(prev, gs[1:], ts, k)
        out.append([] if rest else top)
        last = gs[0]
    return out + [[]] * (len(fs) - 1 - len(out)) + [last]


def zreduce(rows, v):
    """v reduced against each row u in turn to vanish at the last index of
    u, by integer combinations, and made primitive.  For rows as zechelon
    returns them, the result is [] exactly when v lies in their span."""
    for u in rows:
        f = len(u) - 1
        if f < len(v) and v[f]:
            v = zprimitive(zsub(zscale(u[f], v), zscale(v[f], u)))
    return zprimitive(v)


def zechelon(vectors, reduced=False):
    """The integer lists v_i, each zreduced against the ones before it: so
    the last indices are distinct and v_1..v_i keep their span.  With
    reduced, the reduced echelon basis of the span, by the same run over
    the result sorted by length: each vector zero at the last index of
    every other one, canonical (equal spans give equal lists).  ValueError
    if the vectors are linearly dependent.  The one echelon routine: spaces,
    flags, duals and membership, and linalg's rref of a matrix."""
    out = []
    for v in vectors:
        v = zreduce(out, v)
        if not v:
            raise ValueError("the polynomials are linearly dependent")
        out.append(v)
    return zechelon(sorted(out, key=len)) if reduced else out


def zratfunc(num, den) -> "RatFunc":
    """The RatFunc num / den for coprime num and den in Z[x], den nonzero,
    built without the gcd that RatFunc() runs: only den is made monic."""
    lead = den[-1] if num else 1
    out = object.__new__(RatFunc)
    object.__setattr__(out, "num", zpoly(num, lead))
    object.__setattr__(out, "den", zpoly(den if num else [1], lead))
    return out


def poly_det(matrix: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials over Q: each row is
    cleared to Z[x] once, then zdet."""
    rows, scale = [], 1
    for row in matrix:
        den = lcm(*(_denominator(p.coeffs) for p in row))
        rows.append([[c.numerator * (den // c.denominator) for c in p.coeffs]
                     for p in row])
        scale *= den
    return zpoly(zdet(rows), scale)


def wronskian(fs: Sequence[Poly]) -> Poly:
    """Wronskian determinant det(d^{i-1} f_j / dx^{i-1}) over Q; 1 for the
    empty family."""
    pairs = [zclear(f.coeffs) for f in fs]
    return zpoly(zwronskians([a for a, _ in pairs])[-1],
                 prod(d for _, d in pairs))


class RatFunc:
    """Ratio of polynomials; denominator monic, fraction reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if not isinstance(num, Poly):
            num = Poly([num])
        if den is None:
            den = Poly([Fraction(1)])
        elif not isinstance(den, Poly):
            den = Poly([den])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.leading()
        if lead != 1:
            num = num * (1 / lead)
            den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    @staticmethod
    def _coerce(x) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction, Poly)):
            return RatFunc(x if isinstance(x, Poly) else Poly([x]))
        return NotImplemented

    def __add__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return RatFunc(self.den ** (-n), self.num ** (-n))
        return RatFunc(self.num ** n, self.den ** n)

    def __rtruediv__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})" if self.den.degree > 0 or self.den != 1 \
            else repr(self.num)
