"""Bethe ansatz for the G2 Gaudin model: master polynomials T_j, the
admissible l-pairs, closed-form 2-point solutions, the Wronskian fertility
criterion, and the reproduction procedure."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import repn
from . import rootdata as rd
from .exact import Poly, zclear, zderiv, zgcd, zmul, zpoly, zprem, zwr
from .linalg import solve

INF = float("inf")

# the seven l-pairs that can be admissible
L_LIST = ((0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4))


def alpha_of_l(l):
    """l1*alpha1 + l2*alpha2 in fundamental coordinates."""
    l1, l2 = l
    return (l1 * rd.ALPHA1[0] + l2 * rd.ALPHA2[0],
            l1 * rd.ALPHA1[1] + l2 * rd.ALPHA2[1])


def l_of_alpha(w):
    """Inverse of alpha_of_l; errors if w is not in the root lattice cone."""
    a, b = rd.to_alpha(w)
    if a < 0 or b < 0:
        raise ValueError(f"{w} is not a nonnegative root-lattice element")
    return (a, b)


@dataclass(frozen=True)
class PolyPair:
    y1: Poly
    y2: Poly

    def __post_init__(self):
        if self.y1.is_zero() or self.y2.is_zero():
            raise ValueError("pair components must be nonzero")

    def proportional(self, other) -> bool:
        """Projective equality, componentwise."""
        return (self.y1.monic() == other.y1.monic()
                and self.y2.monic() == other.y2.monic())


@dataclass(frozen=True)
class BetheData:
    Lambda: tuple  # sequence of weights
    z: tuple       # evaluation points (scalars, at most one INF)
    l: tuple       # (l1, l2)

    def __post_init__(self):
        zs = list(self.z)
        if len(set(zs)) != len(zs):
            raise ValueError("evaluation points must be distinct")
        if sum(1 for p in zs if p == INF) > 1:
            raise ValueError("at most one evaluation point may be infinite")
        if len(self.Lambda) != len(zs):
            raise ValueError("weights and points must have equal length")


def _zlinear_power(pairs):
    """prod (s x - r)^e over the pairs (p, e), p = r/s finite, on integer
    lists: prod (x - p)^e times its leading coefficient prod s^e."""
    out = [1]
    for p, e in pairs:
        p = Fraction(p)
        for _ in range(e):
            out = zmul(out, [-p.numerator, p.denominator])
    return out


def zcalT(Lambda, z):
    """T_1, T_2 on Z[x]: the products prod (s x - r)^e, positive multiples
    of build_calT's."""
    out = []
    for j in (0, 1):
        pairs = [(p, lam[j]) for lam, p in zip(Lambda, z) if p != INF]
        for p, e in pairs:
            if e < 0:
                raise ValueError(f"negative exponent {e} at finite point {p}")
        out.append(_zlinear_power(pairs))
    return out


def build_calT(Lambda, z):
    """T_j(x) = prod_s (x - z_s)^{<lambda^(s), coroot_j>}; the factor for an
    infinite point is the constant 1."""
    return tuple(zpoly(t, t[-1]) for t in zcalT(Lambda, z))


def admissible_ls(lam):
    """Indices i such that V_{lam + omega2 - alpha(l_i)} occurs in
    V_lam (x) V_{omega2}."""
    if not rd.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    summands = repn.tensor_decompose(lam, rd.OMEGA2)
    out = []
    for i, l in enumerate(L_LIST):
        mu = rd.sub(rd.add(lam, rd.OMEGA2), alpha_of_l(l))
        if mu in summands:
            out.append(i)
    return out


def _f(expr_num, expr_den):
    return Fraction(expr_num, expr_den)


def appendix_solution(lam, i) -> PolyPair:
    """The closed-form solution pair for Lambda = (lam, omega2), z = (0, 1),
    and the i-th admissible l-pair."""
    if i not in admissible_ls(lam):
        raise ValueError(f"l_{i} is not admissible for {lam}")
    a, b = lam  # lambda_1, lambda_2
    one = Poly([Fraction(1)])
    if i == 0:
        return PolyPair(one, one)
    if i == 1:
        return PolyPair(one, Poly([-_f(b, b + 1), 1]))
    if i == 2:
        y1 = Poly([-_f(a * (3 * a + b + 3), (a + 1) * (3 * a + b + 4)), 1])
        y2 = Poly([-_f(3 * a + b + 3, 3 * a + b + 4), 1])
        return PolyPair(y1, y2)
    if i == 3:
        y1 = Poly([-_f((3 * a + b + 3) * (3 * a + 2 * b + 4),
                       (3 * a + b + 5) * (3 * a + 2 * b + 6)), 1])
        c1 = -_f(2 * (3 * a + 2 * b + 4) * (3 * a + 5 * b + 3 * a * b + b * b + 6),
                 (b + 2) * (3 * a + b + 5) * (3 * a + 2 * b + 6))
        c0 = _f(b * (3 * a + b + 3) * (3 * a + 2 * b + 4) ** 2,
                (b + 2) * (3 * a + b + 5) * (3 * a + 2 * b + 6) ** 2)
        return PolyPair(y1, Poly([c0, c1, 1]))
    if i == 4:
        y1 = Poly([-_f((a + b + 1) * (3 * a + 2 * b + 4),
                       (a + b + 2) * (3 * a + 2 * b + 5)), 1])
        c2 = -_f(3 * (a + b + 1) * (3 * a * b + 2 * b * b - 2 * a + 3 * b - 2),
                 b * (a + b + 2) * (3 * a + 2 * b + 5))
        c1 = _f(3 * (b - 1) * (a + b + 1) ** 2 * (3 * a + 2 * b + 4)
                * (3 * a * b + 2 * b * b + 2 * a + 6 * b + 4),
                b * (b + 1) * (a + b + 2) ** 2 * (3 * a + 2 * b + 5) ** 2)
        c0 = -_f((b - 1) * (a + b + 1) ** 3 * (3 * a + 2 * b + 4) ** 2,
                 (b + 1) * (a + b + 2) ** 3 * (3 * a + 2 * b + 5) ** 2)
        return PolyPair(y1, Poly([c0, c1, c2, 1]))
    if i == 5:
        d1 = -_f(2 * (2 * a + b + 2) * (3 * a + b + 2)
                 * (3 * a * a + 2 * a * b + 6 * a + b + 3),
                 (a + 1) * (2 * a + b + 3) * (3 * a + b + 3) * (3 * a + 2 * b + 5))
        d0 = _f(a * (2 * a + b + 2) ** 2 * (3 * a + b + 2) * (3 * a + 2 * b + 4),
                (a + 1) * (2 * a + b + 3) ** 2 * (3 * a + b + 4)
                * (3 * a + 2 * b + 5))
        y1 = Poly([d0, d1, 1])
        c2 = -_f(3 * (2 * a + b + 2)
                 * (9 * a * a + 9 * a * b + 2 * b * b + 20 * a + 9 * b + 11),
                 (2 * a + b + 3) * (3 * a + b + 3) * (3 * a + 2 * b + 5))
        c1 = _f(3 * (3 * a + b + 2) * (2 * a + b + 2) ** 2 * (3 * a + 2 * b + 4)
                * (9 * a * a + 9 * a * b + 2 * b * b + 25 * a + 12 * b + 18),
                (2 * a + b + 3) ** 2 * (3 * a + b + 3) * (3 * a + b + 4)
                * (3 * a + 2 * b + 5) ** 2)
        c0 = -_f((2 * a + b + 2) ** 3 * (3 * a + b + 2) * (3 * a + 2 * b + 4) ** 2,
                 (2 * a + b + 3) ** 3 * (3 * a + b + 4) * (3 * a + 2 * b + 5) ** 2)
        return PolyPair(y1, Poly([c0, c1, c2, 1]))
    if i == 6:
        d1 = -_f(2 * (2 * a + b + 2) * (3 * a + 2 * b + 3)
                 * (3 * a * a + 4 * a * b + b * b + 8 * a + 5 * b + 6),
                 (a + b + 2) * (2 * a + b + 3) * (3 * a + b + 4)
                 * (3 * a + 2 * b + 4))
        d0 = _f((a + b + 1) * (2 * a + b + 2) ** 2 * (3 * a + b + 3)
                * (3 * a + 2 * b + 3),
                (a + b + 2) * (2 * a + b + 3) ** 2 * (3 * a + b + 4)
                * (3 * a + 2 * b + 5))
        y1 = Poly([d0, d1, 1])
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
        return PolyPair(y1, Poly([c0, c1, c2, c3, 1]))
    raise ValueError(f"case index {i} out of range")


def is_generic(y: PolyPair, Lambda, z) -> bool:
    """Genericity of a pair: squarefree components, roots avoiding the roots
    and singularities of T_j, and no common roots.  All by primitive gcds
    on Z[x]; a point p = r/s enters as s x - r."""
    ys = [zclear(yj.coeffs)[0] for yj in (y.y1, y.y2)]
    for j, a in enumerate(ys):
        sing = _zlinear_power((p, 1) for lam, p in zip(Lambda, z)
                              if p != INF and lam[j] != 0)
        if len(zgcd(a, zderiv(a))) > 1 or len(zgcd(a, sing)) > 1:
            return False
    return len(zgcd(*ys)) <= 1


def fertility_rhs(y: PolyPair, t1, t2):
    """(F_1, F_2) = (T_1 y_2, T_2 y_1^3), the right-hand sides of the two
    fertility equations Wr(y_j, x^{a_j} g_j) = F_j, on Z[x] for T_j from
    zcalT: positive multiples, which do not change whether a g_j exists."""
    y1, y2 = (zclear(p.coeffs)[0] for p in (y.y1, y.y2))
    return zmul(t1, y2), zmul(t2, zmul(y1, zmul(y1, y1)))


def bae_exact(y: PolyPair, t1, t2) -> bool:
    """The Bethe equations as divisibilities on Z[x]: y_j divides
    Wr(y_j', F_j) = y_j' F_j' - y_j'' F_j, for (F_1, F_2) the fertility_rhs
    of y and the T_j of zcalT.  At a simple root t of y_j, y_j''/y_j' =
    sum_{k != i} 2/(t - t_k), so this says F_j'/F_j = y_j''/y_j' at t: the
    equation of bae_residual divided by its weight (6 for y_1, 2 for y_2).
    Exact for a generic pair.

    On a generic pair this decides the same thing as fertility: a polynomial
    g_j with Wr(y_j, x^{a_j} g_j) = F_j exists exactly when F_j / y_j^2 has
    no residue at the simple roots of y_j, which is this divisibility.  The
    fertility solve is then a cross-check, and it builds the witness."""
    for yj, F in zip((y.y1, y.y2), fertility_rhs(y, t1, t2)):
        a = zclear(yj.coeffs)[0]
        if zprem(zwr(zderiv(a), F), a):
            return False
    return True


def bae_residual(y: PolyPair, Lambda, z) -> float:
    """Max absolute value of the Bethe-equation left-hand sides at the
    numerically extracted roots of y1, y2."""
    import numpy as np  # only this numeric check needs numpy

    roots = []
    for yj in (y.y1, y.y2):
        cs = [float(c) for c in yj.monic().coeffs]
        roots.append(np.roots(list(reversed(cs))) if yj.degree > 0
                     else np.array([]))
    t1, t2 = roots
    allr = list(t1) + list(t2)
    for ii in range(len(allr)):
        for jj in range(ii + 1, len(allr)):
            if abs(allr[ii] - allr[jj]) < 1e-6:
                raise ValueError("numeric root collision; pair not generic")
    zs = [p for p in z if p != INF]
    lam_fin = [lam for lam, p in zip(Lambda, z) if p != INF]
    for t, lams, p in [(tt, ll, pp) for tt in t1 for ll, pp in
                       zip(lam_fin, zs) if rd.bilinear(ll, rd.from_alpha(1, 0))]:
        if abs(t - float(p)) < 1e-6:
            raise ValueError("root collides with an evaluation point")
    for t, lams, p in [(tt, ll, pp) for tt in t2 for ll, pp in
                       zip(lam_fin, zs) if rd.bilinear(ll, rd.from_alpha(0, 1))]:
        if abs(t - float(p)) < 1e-6:
            raise ValueError("root collides with an evaluation point")
    alpha1 = rd.from_alpha(1, 0)
    alpha2 = rd.from_alpha(0, 1)
    res = 0.0
    for i, t in enumerate(t1):
        v = 0.0
        for lam, p in zip(Lambda, z):
            if p != INF:
                v -= float(rd.bilinear(lam, alpha1)) / (t - float(p))
        for u in t2:
            v -= 3.0 / (t - u)
        for k, u in enumerate(t1):
            if k != i:
                v += 6.0 / (t - u)
        res = max(res, abs(v))
    for i, t in enumerate(t2):
        v = 0.0
        for lam, p in zip(Lambda, z):
            if p != INF:
                v -= float(rd.bilinear(lam, alpha2)) / (t - float(p))
        for u in t1:
            v -= 3.0 / (t - u)
        for k, u in enumerate(t2):
            if k != i:
                v += 2.0 / (t - u)
        res = max(res, abs(v))
    return res


def _solve_cleared(y: Poly, r: Poly, a: int):
    """Solve a*y*g + x*y*g' - x*y'*g = r for a polynomial g, canonicalized so
    the coefficient along the homogeneous solution x^{-a} y (when polynomial)
    vanishes.  Returns None if no solution exists.  The image of x^k has
    coefficient (a + 2k - row) y[row - k] at x^row; with y = Y / den the
    matrix holds the integers Y and the right-hand side is den * r."""
    Y, den = zclear(y.coeffs)
    dy = len(Y) - 1
    D = max(r.degree - dy, dy - a, 0)
    nrows = max(dy + D + 1, r.degree + 1)
    A = [[(a + 2 * k - row) * Y[row - k] if 0 <= row - k <= dy else 0
          for k in range(D + 1)] for row in range(nrows)]
    sol = solve(A, [r[row] * den for row in range(nrows)])
    if sol is None:
        return None
    g = Poly(sol)
    # kernel reduction
    if a <= 0 or y.valuation() >= a:
        ker = Poly(([Fraction(0)] * (-a) + list(y.coeffs)) if a <= 0
                   else list(y.coeffs[a:]))
        dk = ker.degree
        if dk >= 0 and g[dk]:
            g = g - ker * (g[dk] / ker.leading())
    return g


def fertility_solve(y: Poly, rhs: Poly, a: int):
    """A polynomial g with Wr(y, x^a g) = rhs, if one exists.

    Wr(y, x^a g) = x^{a-1} (a y g + x y g' - x y' g), so the problem reduces
    to the cleared linear system; a may be any integer."""
    if y.is_zero():
        raise ValueError("y must be nonzero")
    if a >= 1:
        if not rhs.is_zero() and rhs.valuation() < a - 1:
            return None
        r = Poly(rhs.coeffs[a - 1:])
    else:
        r = Poly([0] * (1 - a) + list(rhs.coeffs))
    return _solve_cleared(y, r, a)


def reproduce(y: PolyPair, direction: int, data: BetheData):
    """One reproduction step.  Requires z1 = 0; the first weight may be
    non-dominant (it enters only through x-power bookkeeping).  Returns
    (new pair, new data) or None if the new pair is not generic."""
    if data.z[0] != 0:
        raise ValueError("reproduction requires z1 = 0")
    j = direction
    lam1 = data.Lambda[0]
    a = lam1[j - 1] + 1  # <lambda^(1) + rho, coroot_j>
    pairs = [(p, lam[j - 1]) for lam, p in zip(data.Lambda[1:], data.z[1:])
             if p != INF]
    if any(e < 0 for _, e in pairs):
        raise ValueError("non-first weights must be dominant")
    y1, y2 = (zclear(p.coeffs)[0] for p in (y.y1, y.y2))
    # a positive multiple of the right-hand side: g is made monic below
    rhs_core = zmul(_zlinear_power(pairs),
                    y2 if j == 1 else zmul(y1, zmul(y1, y1)))
    # Wr(y_j, x^a g) = x^{lam1_j} * rhs_core; the x-powers cancel exactly
    g = _solve_cleared(y.y1 if j == 1 else y.y2, zpoly(rhs_core), a)
    if g is None or g.is_zero():
        raise ValueError("no fertility witness; input does not represent "
                         "a solution")
    new_pair = PolyPair(g.monic(), y.y2) if j == 1 else PolyPair(y.y1, g.monic())
    new_lam1 = rd.shifted_action_word((j,), lam1)
    rest = (0, 0)
    for lam in data.Lambda[1:]:
        rest = rd.add(rest, lam)
    refl = rd.reflect(j, rd.sub(rest, alpha_of_l(data.l)))
    new_l = l_of_alpha(rd.sub(rest, refl))
    new_data = BetheData((new_lam1,) + tuple(data.Lambda[1:]), data.z, new_l)
    if not is_generic(new_pair, new_data.Lambda, new_data.z):
        return None
    return new_pair, new_data
