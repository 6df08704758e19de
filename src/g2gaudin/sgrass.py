"""Grassmannian calculus on 7-dimensional spaces of polynomials: space
Wronskians, divided Wronskians, dual spaces, the bilinear form kappa,
self-dual and self-self-dual verification, reduced Wronski map."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import prod

from . import bethe
from . import diffop
from . import rootdata as rd
from .exact import (Poly, wronskian, zclear, zdet, zeliminate, zmul, zpoly,
                    zquo, zscale, zwronski_matrix)
from .linalg import rank, solve

N = 7


def _flag_adapted(basis):
    """Echelon basis with strictly increasing degrees, monic."""
    out = {}
    for q in sorted(basis, key=lambda p: p.degree):
        while q and q.degree in out:
            q = q - out[q.degree] * q.leading()  # out[d] monic
        if q.is_zero():
            raise ValueError("basis is linearly dependent")
        out[q.degree] = q.monic()
    return tuple(out[d] for d in sorted(out))


@dataclass(frozen=True)
class PolySpace:
    """A 7-dimensional space of polynomials, held by a basis."""
    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if len(self.basis) != N:
            raise ValueError(f"need {N} basis polynomials")
        object.__setattr__(self, "_flag", _flag_adapted(self.basis))

    @property
    def flag_basis(self):
        """Basis with strictly increasing degrees (adapted to the flag at
        infinity)."""
        return self._flag

    @property
    def degrees(self):
        return tuple(p.degree for p in self._flag)

    def coordinates(self, p: Poly):
        """Coordinates of p in the flag basis, or None if p is not in the
        space: p reduces against the flag basis, monic with strictly
        increasing degrees, one leading term at a time."""
        slot = {d: k for k, d in enumerate(self.degrees)}
        coords = [Fraction(0)] * N
        while p:
            k = slot.get(p.degree)
            if k is None:
                return None
            coords[k] = p.leading()
            p = p - self._flag[k] * coords[k]
        return coords


@dataclass(frozen=True)
class RamificationData:
    """Marked points with partitions (7 parts each); T_i is the product of
    (x - z_s)^(lam_i - lam_{i+1}) over the finite points."""
    z: tuple
    partitions: tuple
    T: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(self.z))
        object.__setattr__(self, "partitions",
                           tuple(tuple(p) for p in self.partitions))
        if len(self.z) != len(self.partitions):
            raise ValueError("points / partitions length mismatch")
        for p in self.partitions:
            if len(p) != N or any(p[i] < p[i + 1] for i in range(N - 1)):
                raise ValueError(f"not a partition with {N} parts: {p}")
        # T_i on Z[x] as prod (s x - r)^(p_i - p_(i+1)) over the finite
        # points z_s = r / s, with p_8 = 0; made monic once
        steps = [(zs, [a - b for a, b in zip(p, p[1:] + (0,))])
                 for zs, p in zip(self.z, self.partitions)
                 if zs != bethe.INF]
        if any(e[-1] < 0 for _, e in steps):
            raise ValueError("negative power of a polynomial")
        T = [bethe.zlinear_power([(zs, e[i]) for zs, e in steps])
             for i in range(N)]
        object.__setattr__(self, "T", tuple(zpoly(t, t[-1]) for t in T))

    @cached_property
    def divisors(self):
        """(t_i, den_i), i = 0..7: the divisor prod_{j=1}^i T_{8-j}^{i+1-j}
        of a divided Wronskian as t_i / den_i, t_i primitive in Z[x]."""
        out, s = [([1], 1)], ([1], 1)
        for i in range(1, N + 1):
            a, d = zclear(self.T[N - i].coeffs)
            s = (zmul(s[0], a), s[1] * d)
            out.append((zmul(out[-1][0], s[0]), out[-1][1] * s[1]))
        return out


def trivial_ramification() -> RamificationData:
    return RamificationData((), ())


def monomial_space() -> PolySpace:
    """Ker of the 7th derivative: polynomials of degree < 7."""
    return PolySpace(tuple(Poly([Fraction(0)] * k + [Fraction(1)])
                           for k in range(N)))


def space_wronskian(X: PolySpace) -> Poly:
    return wronskian(X.basis).monic()


def _divide(w, scale, R: RamificationData, i):
    """The Poly w / scale / prod_{j=1}^i T_{8-j}^{i+1-j} for w in Z[x], by
    one exact division in Z[x]; ValueError if it is inexact."""
    t, den = R.divisors[i]
    return zpoly(zscale(den, zquo(w, t)), scale)


def divided_wronskian(gs, R: RamificationData) -> Poly:
    """Wr(g_1..g_i) divided by prod_{j=1}^i T_{8-j}^{i+1-j}; errors if the
    division is inexact."""
    rows, dens = zwronski_matrix(gs)
    return _divide(zdet(rows), prod(dens), R, len(gs))


def dual_space(X: PolySpace, R: RamificationData) -> PolySpace:
    """Span of divided Wronskians of the 6-element subsets of a flag basis:
    the maximal minors of its 6 x 7 Wronski matrix, held by the fraction-free
    Gauss-Jordan form [d I | c] as (-1)^(5-r) c_r (u_{r+1} left out) and d.
    PolySpace raises ValueError if the seven are linearly dependent."""
    rows, dens = zwronski_matrix(X.flag_basis, N - 1)
    zeliminate(rows, jordan=True)
    minors = [zscale((-1) ** (N - 2 - r), rows[r][N - 1])
              for r in range(N - 1)] + [rows[0][0]]
    duals = [_divide(w, prod(dens[:r] + dens[r + 1:]), R, N - 1)
             for r, w in enumerate(minors)]
    return PolySpace(tuple(duals))


def _seventh_root(w: Poly) -> Poly:
    """Monic 7th root of a monic polynomial; errors if not a 7th power.
    For w = a / c in Z[x] / c, wc = c^n w(x / c) is monic in Z[x], n = 7m,
    and so is its root c^m r(x / c), whose coefficient R_k of x^(m-k) is
    sum_{j=1}^k (8j - 7k) wc_(n-j) R_(k-j) / 7k, by W R' = R W' / 7."""
    if w.is_zero() or w.degree % N:
        raise ValueError("not a 7th power")
    a, c = zclear(w.coeffs)
    n, m = w.degree, w.degree // N
    wc = [v * c ** (n - i - 1) for i, v in enumerate(a[:n])] + [1]
    R = [1]
    for k in range(1, m + 1):  # inexact only if w is no 7th power
        R.append(sum((8 * j - 7 * k) * wc[n - j] * R[k - j]
                     for j in range(1, k + 1)) // (7 * k))
    r = R[::-1]
    r2 = zmul(r, r)
    if a[n] != c or zmul(zmul(r2, r2), zmul(r2, r)) != wc:
        raise ValueError("not a 7th power")
    return Poly([Fraction(v, c ** (m - i)) for i, v in enumerate(r)])


def reduced_wronski(X: PolySpace) -> Poly:
    """Monic 7th root of the space Wronskian."""
    return _seventh_root(space_wronskian(X))


def self_dual_factor(X: PolySpace, R: RamificationData):
    """The polynomial g with X = g * dual(X), or None; such a g maps the
    monic lowest-degree element of dual(X) to that of X.  dual(X) has
    dimension 7 and g != 0, so g * dual(X) = X once X contains each g d_i."""
    Xd = dual_space(X, R)
    try:
        g = X.flag_basis[0].exact_div(Xd.flag_basis[0])
    except ValueError:
        return None
    if all(X.coordinates(g * v) is not None for v in Xd.basis):
        return g
    return None


def is_self_dual(X: PolySpace, R: RamificationData) -> bool:
    # fast path: the T-symmetry T_i = T_{7-i} is necessary
    for i in range(1, N):
        if R.T[i - 1] != R.T[N - i - 1]:
            return False
    return self_dual_factor(X, R) is not None


def kappa_form(X: PolySpace, R: RamificationData):
    """Gram matrix of the form kappa on the flag basis of a pure self-dual
    space.  kappa(u, v) = Wr-dagger(u, g_1..g_6) whenever v is the divided
    Wronskian of g_1..g_6."""
    u = X.flag_basis
    w = dual_space(X, R).basis
    W7 = divided_wronskian(list(u), R)
    if W7.degree != 0:
        raise ValueError("top divided Wronskian is not constant; "
                         "space is not pure with the claimed data")
    w7 = W7[0]
    d = max(max(p.degree for p in w), u[-1].degree)
    A = [[w[j][i] for j in range(N)] for i in range(d + 1)]
    C = []
    for b in range(N):
        cb = solve(A, [u[b][i] for i in range(d + 1)])
        if cb is None:
            raise ValueError("space is not self-dual: basis element outside "
                             "the dual span")
        C.append(cb)
    # kappa(u_a, u_b) = sum_j C[b][j] * Wr-dagger(u_a, subset omitting j);
    # the term survives only for j = a, giving (-1)^a times the full one.
    gram = [[C[b][a] * (Fraction(-1) ** a) * w7 for b in range(N)]
            for a in range(N)]
    if any(gram[a][b] != gram[b][a] for a in range(N) for b in range(N)):
        raise ValueError("kappa form is not symmetric")
    if rank(gram) != N:
        raise ValueError("kappa form is degenerate")
    return gram


def y_from_basis(gamma, R: RamificationData):
    """The tuple (y_1, ..., y_6) with y_{7-i} the divided Wronskian of the
    first i elements of the ordered basis gamma, read off the pivots of one
    elimination of the Wronski matrix; after a zero one the rest vanish."""
    rows, dens = zwronski_matrix(gamma[:N - 1])
    _, pivots = zeliminate(rows)
    ys = [_divide(pivots[i - 1] if i <= len(pivots) else [],
                  prod(dens[:i]), R, i) for i in range(1, N)]
    return tuple(reversed(ys))


def ssd_witness_check(X: PolySpace, R: RamificationData, gamma) -> bool:
    """Test the pattern y1^2 = y6^2 = y3 = y4, y2 = y5 projectively for the
    ordered basis gamma; requires the T-pattern T1=T3=T4=T6, T2=T5."""
    T = R.T
    if not (T[0] == T[2] == T[3] == T[5] and T[1] == T[4]):
        return False
    y1, y2, y3, y4, y5, y6 = y_from_basis(gamma, R)
    if any(p.is_zero() for p in (y1, y2, y3, y4, y5, y6)):
        return False
    sq1 = (y1 * y1).monic()
    return (sq1 == (y6 * y6).monic() == y3.monic() == y4.monic()
            and y2.monic() == y5.monic())


def isotropic_definition_check(X: PolySpace, R: RamificationData,
                               f: Poly, U) -> bool:
    """f perpendicular to U, U kappa-isotropic, and Wr(U) = T1^2 T2 f^2 up
    to normalization.  For a Bethe space the factorization flag u_1..u_7
    is such a witness: Wr(u_1, u_2, u_3) is proportional to T1^2 T2 y1^2
    and u_1 to y1, so f = u_1 and U = <u_1, u_2, u_3>."""
    gram = kappa_form(X, R)
    coords = [X.coordinates(p) for p in [f] + list(U)]
    if any(c is None for c in coords):
        return False
    kappa = lambda a, b: sum(a[i] * gram[i][j] * b[j]
                             for i in range(N) for j in range(N))
    cf, cu = coords[0], coords[1:]
    if len(cu) != 3 or any(kappa(cf, a) for a in cu) or \
            any(kappa(a, b) for a in cu for b in cu):
        return False
    wr = wronskian(list(U))
    target = R.T[0] ** 2 * R.T[1] * f * f
    return not wr.is_zero() and wr.monic() == target.monic()


def bethe_kernel_instance(lam, i):
    """(X, R, gamma) for the closed-form case (lam, i): its kernel, the
    ramification data of its points and weights, and its flag."""
    c = diffop.case(tuple(lam), i)
    R = RamificationData(c.data.z, tuple(rd.partition_from_weight(w, 0)
                                         for w in c.data.Lambda))
    return PolySpace(c.kernel), R, c.flag


def flag_from_factorization(kernel_basis, y: bethe.PolyPair,
                            T1: Poly, T2: Poly):
    """diffop.flag_from_factorization: the ordered basis u_1..u_7 of the
    kernel adapted to the factorization of D_y."""
    return diffop.flag_from_factorization(kernel_basis, y, T1, T2)
