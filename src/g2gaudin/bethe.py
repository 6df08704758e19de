"""Bethe ansatz for the G2 Gaudin model: master polynomials T_j, the
admissible l-pairs, closed-form 2-point solutions, the Wronskian fertility
criterion, and the reproduction procedure, all on integer rows: each
appendix coefficient is a pair (num, den), a component is cleared once over
the lcm of its denominators, the closed-form points are the integers 0 and
1, and ramification(Lambda, z) is the one constructor of the T_j."""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import lcm
from operator import sub

from . import rootdata as rd
from .exact import (zderiv, zgcd, zhomeval, zmul, zpoly, zprem, zprimitive,
                    zrow, zscale, zsolve1, zsub, zwr)
from .repn import L_LIST, admissible_ls

# the point at infinity, spelled as in the JSON formats
INF = "inf"


def l_of_alpha(w):
    """The alpha-coordinates (l1, l2) of w, inverse to rd.from_alpha; errors
    if w is not in the root lattice cone."""
    a, b = rd.to_alpha(w)
    if a < 0 or b < 0:
        raise ValueError(f"{w} is not a nonnegative root-lattice element")
    return (a, b)


class _Frozen:
    """An immutable value: its attributes are set once in __init__, by
    object.__setattr__, and == and hash compare _key() (the class too).
    A cached_property writes the instance __dict__ directly."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class PolyPair(_Frozen):
    """A pair (y1, y2) of nonzero polynomials up to a nonzero factor each,
    held as primitive integer lists with positive leading coefficient: only
    their lines matter.  Each is given as a Poly or an integer list (zrow),
    so == and the hash are projective equality, componentwise."""

    def __init__(self, y1, y2):
        y1, y2 = (zprimitive(zrow(p)) for p in (y1, y2))
        if not (y1 and y2):
            raise ValueError("pair components must be nonzero")
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y2", y2)

    def _key(self):
        return (tuple(self.y1), tuple(self.y2))

    def __repr__(self):
        return f"PolyPair(y1={self.y1!r}, y2={self.y2!r})"


class BetheData(namedtuple("BetheData", "Lambda z l")):
    """Lambda, a sequence of weights; z, the evaluation points (rationals,
    at most one INF); l, the pair (l1, l2)."""
    __slots__ = ()

    def __new__(cls, Lambda, z, l):
        # INF is one value, so distinct points hold at most one infinite one
        if len(set(z)) != len(z):
            raise ValueError("evaluation points must be distinct")
        if len(Lambda) != len(z):
            raise ValueError("weights and points must have equal length")
        return super().__new__(cls, Lambda, z, l)


def zlinear_power(pairs):
    """prod (s x - r)^e over the pairs (p, e), p = r/s finite, on integer
    lists: prod (x - p)^e times its leading coefficient prod s^e."""
    out = [1]
    for p, e in pairs:
        if p == 0:  # x^e, a shift
            out = [0] * e + out
        else:
            for _ in range(e):
                out = zmul(out, [-p.numerator, p.denominator])
    return out


class RamificationData(_Frozen):
    """Marked points z_s with partitions p of 7 parts each.  T_i, i = 1..7,
    is prod (s x - r)^(p_i - p_(i+1)) over the finite points z_s = r / s,
    with p_8 = 0, as a primitive integer list: the monic product of the
    (x - z_s)^(p_i - p_(i+1)) times its leading coefficient.  The points
    and partitions determine the T_i, so == compares only those."""

    def __init__(self, z, partitions):
        z = tuple(z)
        partitions = tuple(tuple(p) for p in partitions)
        if len(set(z)) != len(z):  # as in BetheData
            raise ValueError("evaluation points must be distinct")
        if len(z) != len(partitions):
            raise ValueError("points / partitions length mismatch")
        for p in partitions:
            if len(p) != 7 or list(p) != sorted(p, reverse=True):
                raise ValueError(f"not a partition with 7 parts: {p}")
        finite = [(zs, p) for zs, p in zip(z, partitions) if zs != INF]
        if any(p[-1] < 0 for _, p in finite):
            raise ValueError("negative power of a polynomial")
        # one product per distinct exponent vector over the finite points,
        # the columns p_i - p_(i+1): for G2 weights T1 = T3 = T4 = T6 and
        # T2 = T5
        points = [zs for zs, _ in finite]
        exps = list(zip(*(map(sub, p, p[1:] + (0,)) for _, p in finite)))
        exps = exps or [()] * 7
        powers = {k: zlinear_power(zip(points, k)) for k in set(exps)}
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "partitions", partitions)
        object.__setattr__(self, "T", tuple(powers[k] for k in exps))

    def _key(self):
        return (self.z, self.partitions)

    def __repr__(self):
        return (f"RamificationData(z={self.z!r}, "
                f"partitions={self.partitions!r}, T={self.T!r})")

    @cached_property
    def divisors(self):
        """t_i, i = 0..7: prod_{j=1}^i T_{8-j}^{i+1-j}, a primitive integer
        list; the divisor of a divided Wronskian is t_i / t_i[-1], the same
        product of the monic T_{8-j}."""
        out, s = [[1]], [1]
        for i in range(1, 8):
            s = zmul(s, self.T[7 - i])
            out.append(zmul(out[-1], s))
        return out


def ramification(Lambda, z) -> RamificationData:
    """The ramification data of the weights Lambda at the points z, each
    weight's partition with 7th part 0: T_j = prod (s x - r)^<Lambda_s,
    coroot_j> over the finite points z_s = r / s, for j = 1, 2.  The one
    constructor of the T's; ValueError unless every weight is dominant."""
    return RamificationData(z, tuple(rd.partition_from_weight(w, 0)
                                     for w in Lambda))


def build_calT(Lambda, z):
    """T_1, T_2 of ramification(Lambda, z) as monic Polys."""
    return tuple(zpoly(t, t[-1]) for t in ramification(Lambda, z).T[:2])


def _monic(*cs):
    """The integer row of the monic polynomial with the lower coefficients
    cs, lowest degree first, each an integer pair (num, den): all of them
    over the lcm of the denominators."""
    den = lcm(*(d for _, d in cs))
    return [n * (den // d) for n, d in cs] + [den]


def closed_form(lam, i) -> BetheData:
    """The Bethe data of the closed-form case (lam, i): Lambda = (lam, omega2)
    at z = (0, 1) with the l-pair L_LIST[i]; errors unless case i is
    admissible for lam."""
    lam = tuple(lam)
    if i not in admissible_ls(lam):
        raise ValueError(f"l_{i} is not admissible for {lam}")
    return BetheData((lam, rd.OMEGA2), (0, 1), L_LIST[i])


def appendix_solution(lam, i) -> PolyPair:
    """The closed-form solution pair for the Bethe data closed_form(lam, i)."""
    closed_form(lam, i)  # errors unless the case is admissible
    return closed_form_pair(lam, i)


def closed_form_pair(lam, i) -> PolyPair:
    """The closed-form solution pair of the case (lam, i), with no
    admissibility check: for callers that already hold closed_form(lam, i)."""
    a, b = lam  # lambda_1, lambda_2
    if i == 0:
        return PolyPair([1], [1])
    if i == 1:
        return PolyPair([1], _monic((-b, b + 1)))
    if i == 2:
        y1 = _monic((-a * (3 * a + b + 3), (a + 1) * (3 * a + b + 4)))
        y2 = _monic((-(3 * a + b + 3), 3 * a + b + 4))
        return PolyPair(y1, y2)
    if i == 3:
        y1 = _monic((-(3 * a + b + 3) * (3 * a + 2 * b + 4),
                     (3 * a + b + 5) * (3 * a + 2 * b + 6)))
        c1 = (-2 * (3 * a + 2 * b + 4) * (3 * a + 5 * b + 3 * a * b + b * b + 6),
              (b + 2) * (3 * a + b + 5) * (3 * a + 2 * b + 6))
        c0 = (b * (3 * a + b + 3) * (3 * a + 2 * b + 4) ** 2,
              (b + 2) * (3 * a + b + 5) * (3 * a + 2 * b + 6) ** 2)
        return PolyPair(y1, _monic(c0, c1))
    if i == 4:
        y1 = _monic((-(a + b + 1) * (3 * a + 2 * b + 4),
                     (a + b + 2) * (3 * a + 2 * b + 5)))
        c2 = (-3 * (a + b + 1) * (3 * a * b + 2 * b * b - 2 * a + 3 * b - 2),
              b * (a + b + 2) * (3 * a + 2 * b + 5))
        c1 = (3 * (b - 1) * (a + b + 1) ** 2 * (3 * a + 2 * b + 4)
              * (3 * a * b + 2 * b * b + 2 * a + 6 * b + 4),
              b * (b + 1) * (a + b + 2) ** 2 * (3 * a + 2 * b + 5) ** 2)
        c0 = (-(b - 1) * (a + b + 1) ** 3 * (3 * a + 2 * b + 4) ** 2,
              (b + 1) * (a + b + 2) ** 3 * (3 * a + 2 * b + 5) ** 2)
        return PolyPair(y1, _monic(c0, c1, c2))
    if i == 5:
        d1 = (-2 * (2 * a + b + 2) * (3 * a + b + 2)
              * (3 * a * a + 2 * a * b + 6 * a + b + 3),
              (a + 1) * (2 * a + b + 3) * (3 * a + b + 3) * (3 * a + 2 * b + 5))
        d0 = (a * (2 * a + b + 2) ** 2 * (3 * a + b + 2) * (3 * a + 2 * b + 4),
              (a + 1) * (2 * a + b + 3) ** 2 * (3 * a + b + 4)
              * (3 * a + 2 * b + 5))
        y1 = _monic(d0, d1)
        c2 = (-3 * (2 * a + b + 2)
              * (9 * a * a + 9 * a * b + 2 * b * b + 20 * a + 9 * b + 11),
              (2 * a + b + 3) * (3 * a + b + 3) * (3 * a + 2 * b + 5))
        c1 = (3 * (3 * a + b + 2) * (2 * a + b + 2) ** 2 * (3 * a + 2 * b + 4)
              * (9 * a * a + 9 * a * b + 2 * b * b + 25 * a + 12 * b + 18),
              (2 * a + b + 3) ** 2 * (3 * a + b + 3) * (3 * a + b + 4)
              * (3 * a + 2 * b + 5) ** 2)
        c0 = (-(2 * a + b + 2) ** 3 * (3 * a + b + 2) * (3 * a + 2 * b + 4) ** 2,
              (2 * a + b + 3) ** 3 * (3 * a + b + 4) * (3 * a + 2 * b + 5) ** 2)
        return PolyPair(y1, _monic(c0, c1, c2))
    if i == 6:
        d1 = (-2 * (2 * a + b + 2) * (3 * a + 2 * b + 3)
              * (3 * a * a + 4 * a * b + b * b + 8 * a + 5 * b + 6),
              (a + b + 2) * (2 * a + b + 3) * (3 * a + b + 4)
              * (3 * a + 2 * b + 4))
        d0 = ((a + b + 1) * (2 * a + b + 2) ** 2 * (3 * a + b + 3)
              * (3 * a + 2 * b + 3),
              (a + b + 2) * (2 * a + b + 3) ** 2 * (3 * a + b + 4)
              * (3 * a + 2 * b + 5))
        y1 = _monic(d0, d1)
        A = (9 * a ** 4 * (4 * b + 3)
             + 3 * a ** 3 * (30 * b * b + 78 * b + 47)
             + a * a * (80 * b ** 3 + 372 * b * b + 562 * b + 270)
             + a * (30 * b ** 4 + 208 * b ** 3 + 528 * b * b + 578 * b + 228)
             + 2 * (b + 2) ** 2 * (2 * b ** 3 + 11 * b * b + 18 * b + 9))
        c3 = (-2 * A, (b + 1) * (a + b + 2) * (2 * a + b + 3)
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
        c2 = (6 * B * (1 + a + b) * (2 + 2 * a + b) * (3 + 3 * a + 2 * b),
              (b + 1) * (a + b + 2) ** 2 * (2 * a + b + 3) ** 2
              * (3 * a + b + 4) * (3 * a + 2 * b + 4) ** 2
              * (3 * a + 2 * b + 5))
        C = (3 * a ** 3 * (1 + 4 * b)
             + 2 * (2 + b) ** 2 * (3 + 4 * b + b * b)
             + 2 * a * a * (9 + 28 * b + 11 * b * b)
             + 2 * a * (18 + 47 * b + 31 * b * b + 6 * b ** 3))
        c1 = (-2 * C * (1 + a + b) ** 2 * (2 + 2 * a + b) ** 2
              * (3 + 3 * a + 2 * b) ** 2,
              (1 + b) * (2 + a + b) ** 3 * (3 + 2 * a + b) ** 3
              * (4 + 3 * a + b) * (4 + 3 * a + 2 * b) * (5 + 3 * a + 2 * b))
        c0 = (b * (a + b + 1) ** 3 * (2 * a + b + 2) ** 3 * (3 * a + b + 3)
              * (3 * a + 2 * b + 3) ** 2,
              (b + 1) * (a + b + 2) ** 3 * (2 * a + b + 3) ** 3
              * (3 * a + b + 4) * (3 * a + 2 * b + 5) ** 2)
        return PolyPair(y1, _monic(c0, c1, c2, c3))
    raise ValueError(f"case index {i} out of range")


def is_generic(y: PolyPair, Lambda, z) -> bool:
    """Mukhin-Varchenko genericity (arXiv:math/0209017): y1, y2 squarefree
    and coprime, y_j free of each finite z_s with <Lambda_s, coroot_j> != 0
    (a root of T_j), and free to vanish where that pairing is 0.  On Z[x]:
    one gcd of y1 y2 with its derivative, s^deg y_j(r/s) != 0 at p = r/s."""
    P = zmul(y.y1, y.y2)
    if len(zgcd(P, zderiv(P))) > 1:
        return False
    return all(p == INF or not lam[j]
               or zhomeval(a, p.numerator, p.denominator)
               for lam, p in zip(Lambda, z)
               for j, a in enumerate((y.y1, y.y2)))


def fertility_rhs(y: PolyPair, t1, t2):
    """(F_1, F_2) = (T_1 y_2, T_2 y_1^3), the right-hand sides of the two
    fertility equations Wr(y_j, x^{a_j} g_j) = F_j, on Z[x] for the rows of
    y and of T_j: multiples, which do not change whether g_j exists."""
    y1, y2 = y.y1, y.y2
    return zmul(t1, y2), zmul(t2, zmul(y1, zmul(y1, y1)))


def bae_exact(y: PolyPair, t1, t2) -> bool:
    """The Bethe equations as divisibilities on Z[x]: y_j divides
    Wr(y_j', F_j) = y_j' F_j' - y_j'' F_j, for (F_1, F_2) the fertility_rhs
    of y and the T_j of ramification.  At a simple root t of y_j,
    y_j''/y_j' = sum_{k != i} 2/(t - t_k), so this says F_j'/F_j =
    y_j''/y_j' at t: the equation of bae_residual divided by its weight (6
    for y_1, 2 for y_2).  Exact for a generic pair.

    On a generic pair this decides the same thing as fertility: a polynomial
    g_j with Wr(y_j, x^{a_j} g_j) = F_j exists exactly when F_j / y_j^2 has
    no residue at the simple roots of y_j, which is this divisibility.  The
    fertility solve is then a cross-check, and it builds the witness."""
    for a, F in zip((y.y1, y.y2), fertility_rhs(y, t1, t2)):
        if zprem(zwr(zderiv(a), F), a):
            return False
    return True


def certify(y: PolyPair, data: BetheData) -> dict:
    """{generic, exact, fertile} for y on data with z_1 = 0: is_generic,
    bae_exact, and fertility, which holds only when each witness (G_j, c_j)
    of Wr(y_j, x^(a_j) G_j) = c_j F_j, a_j = Lambda_1[j] + 1, is solved and
    satisfies that identity on Z[x].  On a generic pair fertility decides
    the same thing as bae_exact, so it cross-checks the solve.  z_1 = 0
    stays: the witness holds the exponent at z_1 as x^a_j, and every caller
    puts a point at 0."""
    if data.z[0] != 0:
        raise ValueError("fertility requires z1 = 0")
    T = ramification(data.Lambda, data.z).T[:2]  # Lambda_1 dominant: a >= 1

    def fertile(Y, F, a):
        G, c = fertility_solve(Y, F[a - 1:], a) or (None, 0)
        return G is not None and zwr(Y, [0] * a + G) == zscale(c, F)

    return {"generic": is_generic(y, data.Lambda, data.z),
            "exact": bae_exact(y, *T),
            "fertile": all(fertile(Y, F, lam_j + 1) for Y, F, lam_j
                           in zip((y.y1, y.y2), fertility_rhs(y, *T),
                                  data.Lambda[0]))}


def bae_residual(y: PolyPair, Lambda, z) -> float:
    """Max absolute value of the Bethe-equation left-hand sides at the
    numerically extracted roots of y1, y2."""
    import numpy as np  # only this numeric check needs numpy

    t1, t2 = (np.roots([float(c) for c in reversed(yj)])
              for yj in (y.y1, y.y2))
    allr = list(t1) + list(t2)
    for ii in range(len(allr)):
        for jj in range(ii + 1, len(allr)):
            if abs(allr[ii] - allr[jj]) < 1e-6:
                raise ValueError("numeric root collision; pair not generic")
    res = 0.0
    for ts, other, alpha, w in ((t1, t2, rd.from_alpha(1, 0), 6.0),
                                (t2, t1, rd.from_alpha(0, 1), 2.0)):
        pts = [(float(rd.bilinear(lam, alpha)), float(p))
               for lam, p in zip(Lambda, z) if p != INF]
        for i, t in enumerate(ts):
            v = 0.0
            for c, p in pts:
                if c and abs(t - p) < 1e-6:
                    raise ValueError("root collides with an evaluation point")
                v -= c / (t - p)
            for u in other:
                v -= 3.0 / (t - u)
            for k, u in enumerate(ts):
                if k != i:
                    v += w / (t - u)
            res = max(res, abs(v))
    return res


def fertility_solve(Y, R, a):
    """(G, c) with a Y G + x (Y G' - Y' G) = c R and c > 0, that is
    Wr(Y, x^a G) = c x^(a-1) R, for integer lists Y != 0, R and an integer
    a; None if no polynomial G solves it.  G has no part along x^(-a) Y, the
    homogeneous solution, when that is a polynomial.  By exact.zsolve1: for
    a <= 0 of this equation, for a >= 1 of Wr(Y, H) = c x^(a-1) R, H = x^a G,
    and then H moves along Y until x^a divides it."""
    if a <= 0:
        return zsolve1([0] + Y, zsub(zscale(a, Y), [0] + zderiv(Y)), R)
    sol = zsolve1(Y, zscale(-1, zderiv(Y)), [0] * (a - 1) + R)
    if sol is None:
        return None
    H, c = sol
    v = next(k for k, u in enumerate(Y) if u)
    if v < a and v < len(H) and H[v]:  # |Y_v| keeps c > 0
        u = abs(Y[v])
        H, c = zsub(zscale(u, H), zscale(H[v] * u // Y[v], Y)), c * u
    if any(H[:a]):
        return None
    return H[a:], c


def reproduce(y: PolyPair, direction: int, data: BetheData):
    """One reproduction step.  Requires z1 = 0, as certify does; the first
    weight may be non-dominant (it enters only through x-powers).  Returns
    (new pair, new data) or None if the new pair is not generic.  Where no
    polynomial witness exists, a ValueError: at a = <Lambda_1 + rho,
    coroot_j> <= 0 it names the direction and a, since there the step may
    be undefined on a solution (the trivial pair at Lambda_1 = (1, -2),
    direction 2); at a >= 1 the input does not represent a solution."""
    if data.z[0] != 0:
        raise ValueError("reproduction requires z1 = 0")
    j = direction
    lam1 = data.Lambda[0]
    a = lam1[j - 1] + 1  # <lambda^(1) + rho, coroot_j>
    # F_j for the points after z1, whose weights must be dominant: a multiple
    # of the right-hand side, which scales G, and the pair keeps G's line
    T = ramification(data.Lambda[1:], data.z[1:]).T[:2]
    F = fertility_rhs(y, *T)[j - 1]
    # Wr(y_j, x^a G) = c x^{lam1_j} F; the x-powers cancel exactly
    G, _ = fertility_solve((y.y1, y.y2)[j - 1], F, a) or ([], 1)
    if not G and a <= 0:
        raise ValueError(f"no reproduction step in direction {j}: a = "
                         f"<Lambda_1 + rho, coroot_{j}> = {a} <= 0 and no "
                         "fertility witness")
    if not G:
        raise ValueError("no fertility witness; input does not represent "
                         "a solution")
    new_pair = PolyPair(G, y.y2) if j == 1 else PolyPair(y.y1, G)
    new_lam1 = rd.shifted_action_word((j,), lam1)
    rest = (0, 0)
    for lam in data.Lambda[1:]:
        rest = rd.add(rest, lam)
    refl = rd.reflect(j, rd.sub(rest, rd.from_alpha(*data.l)))
    new_l = l_of_alpha(rd.sub(rest, refl))
    new_data = BetheData((new_lam1,) + tuple(data.Lambda[1:]), data.z, new_l)
    if not is_generic(new_pair, new_data.Lambda, new_data.z):
        return None
    return new_pair, new_data
