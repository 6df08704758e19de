"""Exact scalar and polynomial arithmetic.

Scalars are either `fractions.Fraction` or `QSqrt2` (the field Q(sqrt 2)).
Polynomials are dense, coefficients stored lowest degree first.  All
operations are pure; every value is immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction, "QSqrt2"]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


class QSqrt2:
    """Element a + b*sqrt(2) of the quadratic field Q(sqrt 2)."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))

    def __setattr__(self, *args):
        raise AttributeError("QSqrt2 is immutable")

    @staticmethod
    def _coerce(x) -> "QSqrt2":
        if isinstance(x, QSqrt2):
            return x
        if isinstance(x, (int, Fraction)):
            return QSqrt2(x)
        return NotImplemented

    def __add__(self, other):
        o = QSqrt2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other):
        o = QSqrt2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = QSqrt2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = QSqrt2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        n = self.a * self.a - 2 * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        return QSqrt2(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = QSqrt2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = QSqrt2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self) -> "QSqrt2":
        """The field automorphism a + b*sqrt2 -> a - b*sqrt2."""
        return QSqrt2(self.a, -self.b)

    def __eq__(self, other):
        o = QSqrt2._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        if not self.b:
            return f"{self.a}"
        return f"({self.a}+{self.b}*sqrt2)"


SQRT2 = QSqrt2(0, 1)


def scalar_to_str(x: Scalar):
    """Render a scalar for JSON: "p/q" for rationals, {"a":..,"b":..} for Q(sqrt2)."""
    if isinstance(x, QSqrt2):
        return {"a": scalar_to_str(x.a), "b": scalar_to_str(x.b)}
    f = _frac(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else f"{f.numerator}"


def scalar_from_str(s) -> Scalar:
    if isinstance(s, dict):
        return QSqrt2(scalar_from_str(s["a"]), scalar_from_str(s["b"]))
    return Fraction(s)


class Poly:
    """Dense univariate polynomial, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
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

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QSqrt2)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QSqrt2)):
            other = Poly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QSqrt2)):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QSqrt2)):
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
        result = Poly([type(self.leading() if self.coeffs else Fraction(0))(1)]) \
            if self.coeffs else Poly([Fraction(1)])
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

    def shift(self, a) -> "Poly":
        """Compose with x + a: returns p(x + a)."""
        acc = Poly()
        xa = Poly([a, 1])
        for c in reversed(self.coeffs):
            acc = acc * xa + Poly([c])
        return acc

    def valuation(self, z=None) -> int:
        """Order of vanishing at z (at 0 if z is None); large for the zero poly."""
        p = self if z in (None, 0) else self.shift(z)
        if p.is_zero():
            return 1 << 30
        v = 0
        while not p.coeffs[v]:
            v += 1
        return v

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


# Integer polynomial core.  The Q[x] hot paths (poly_det, wronskian, the
# operator product and kernel in diffop, the Bethe layer, the rational rref
# in linalg) clear denominators once on entry, compute on lists of Python
# ints (lowest degree first, no trailing zeros, [] for zero) and build one
# Fraction per output coefficient on exit.


def _denominator(coeffs) -> int:
    """Least common denominator of rational coefficients; TypeError on any
    other scalar."""
    den = 1
    for c in coeffs:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"{c!r} is not rational: this path is over Q only")
        den = lcm(den, c.denominator)
    return den


def zclear(coeffs):
    """(a, den): integer coefficients a with coeffs = a / den, den > 0."""
    den = _denominator(coeffs)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


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
    return zadd(a, zscale(-1, b))


def zmul(a, b):
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        if cb:
            for i, ca in enumerate(a):
                out[i + j] += ca * cb
    return out


def zderiv(a):
    return [i * c for i, c in enumerate(a)][1:]


def zwr(f, g):
    """The Wronskian f g' - f' g."""
    return zsub(zmul(f, zderiv(g)), zmul(zderiv(f), g))


def zquo(a, b):
    """a / b, required to lie in Z[x]; ValueError otherwise."""
    db, lead = len(b) - 1, b[-1]
    rem = list(a)
    q = [0] * max(0, len(a) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        f, r = divmod(rem[i], lead)
        if r:
            raise ValueError("inexact polynomial division")
        if f:
            q[i - db] = f
            for j, c in enumerate(b):
                rem[i - db + j] -= f * c
    if any(rem[:db]):
        raise ValueError("inexact polynomial division")
    return q


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
    rem, db, lead = list(a), len(b) - 1, b[-1]
    while len(rem) > db:
        c = rem[-1]
        g = gcd(c, lead)
        s, f = lead // g, c // g
        rem = [s * v for v in rem]
        for j, v in enumerate(b):
            rem[len(rem) - 1 - db + j] -= f * v
        while rem and not rem[-1]:
            rem.pop()
    return rem


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


def zeliminate(m, jordan=False):
    """Fraction-free elimination in place of an n x c matrix over Z[x],
    n <= c (Bareiss 1968): every entry stays a minor, so each division is
    exact.  Returns (sign of the row exchanges, pivots), stopping at a
    column with no pivot.  With jordan, rows above the pivots are cleared
    too: n pivots leave [d I | C], d the last pivot and C[i][j] the minor
    of the first n columns with column n + j in place of i (Cramer)."""
    sign, prev, pivots = 1, [1], []
    for k in range(len(m)):
        r = next((r for r in range(k, len(m)) if m[r][k]), None)
        if r is None:
            break
        if r != k:
            m[k], m[r], sign = m[r], m[k], -sign
        row_k = m[k]
        pivot = row_k[k]
        for i in range(0 if jordan else k + 1, len(m)):
            row = m[i]
            if i != k:
                f = row[k]
                for j in range(k + 1, len(row)):
                    row[j] = zquo(zsub(zmul(pivot, row[j]),
                                       zmul(f, row_k[j])), prev)
                row[k] = []
                if i < k:
                    row[i] = pivot
        prev = pivot
        pivots.append(pivot)
    return sign, pivots


def zdet(m):
    """Determinant of a square matrix over Z[x], by zeliminate."""
    sign, pivots = zeliminate([list(row) for row in m])
    if len(pivots) < len(m):
        return []
    return zscale(sign, pivots[-1]) if pivots else [1]


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
    cleared to Z[x] once, then fraction-free Bareiss.  Raises TypeError on a
    coefficient outside Q, such as a QSqrt2."""
    rows, scale = [], 1
    for row in matrix:
        den = lcm(*(_denominator(p.coeffs) for p in row))
        rows.append([[c.numerator * (den // c.denominator) for c in p.coeffs]
                     for p in row])
        scale *= den
    return zpoly(zdet(rows), scale)


def zwronski_matrix(fs, n=None):
    """(rows, dens): the first n rows (default all) of the Wronski matrix
    (d^i f_j), cleared to Z[x] as f_j dens[j].  zeliminate makes no row
    exchange on it: its pivots are the Wronskians of f_1..f_k, k = 1, 2..."""
    pairs = [zclear(f.coeffs) for f in fs]
    cur, dens = [a for a, _ in pairs], [d for _, d in pairs]
    rows = []
    for _ in range(len(cur) if n is None else n):
        rows.append(cur)
        cur = [zderiv(a) for a in cur]
    return rows, dens


def wronskian(fs: Sequence[Poly]) -> Poly:
    """Wronskian determinant det(d^{i-1} f_j / dx^{i-1}) over Q; 1 for the
    empty family.  Raises TypeError on a coefficient outside Q."""
    rows, dens = zwronski_matrix(fs)
    return zpoly(zdet(rows), prod(dens))


class RatFunc:
    """Ratio of polynomials; denominator monic, fraction reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if isinstance(num, (int, Fraction, QSqrt2)):
            num = Poly([num])
        if den is None:
            den = Poly([Fraction(1)])
        if isinstance(den, (int, Fraction, QSqrt2)):
            den = Poly([den])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.leading()
        if lead != 1:
            num = num * (Fraction(1) / lead if not isinstance(lead, QSqrt2) else lead.inverse())
            den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_poly(self) -> bool:
        return self.den.degree == 0

    @staticmethod
    def _coerce(x) -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction, QSqrt2, Poly)):
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

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})" if self.den.degree > 0 or self.den != 1 \
            else repr(self.num)


def log_deriv(f) -> RatFunc:
    """Logarithmic derivative f'/f of a polynomial or rational function."""
    f = RatFunc._coerce(f)
    if f.is_zero():
        raise ZeroDivisionError("log derivative of zero")
    return (RatFunc(f.num.derivative(), f.num) if f.is_poly()
            else RatFunc(f.num.derivative(), f.num) - RatFunc(f.den.derivative(), f.den))


def residue_at(f: RatFunc, z) -> Scalar:
    """Coefficient of (x - z)^{-1} in the Laurent expansion of f at z."""
    if f.den.is_zero():
        raise ZeroDivisionError("denominator vanishes identically")
    num = f.num.shift(z)
    den = f.den.shift(z)
    m = den.valuation()
    if m == 0:
        return Fraction(0)
    # den = x^m * d0 with d0(0) != 0; residue = [x^{m-1}] num * d0^{-1} (power series)
    d0 = Poly(den.coeffs[m:])
    inv0 = 1 / d0.coeffs[0] if not isinstance(d0.coeffs[0], QSqrt2) else d0.coeffs[0].inverse()
    # power series inverse of d0 to order m
    inv = [inv0]
    for k in range(1, m):
        s = sum((d0[j] * inv[k - j] for j in range(1, k + 1)), Fraction(0))
        inv.append(-inv0 * s)
    res = sum((num[j] * inv[m - 1 - j] for j in range(m)), Fraction(0))
    return res
