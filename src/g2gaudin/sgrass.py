"""Grassmannian calculus on 7-dimensional spaces of polynomials: space
Wronskians, divided Wronskians, dual spaces, self-dual verification,
self-self-dual verification by the y-pattern of an ordered basis, reduced
Wronski map."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import diffop
from .bethe import RamificationData
from .exact import (Poly, zechelon, zmul, zpoly, zprefix_levels, zprimitive,
                    zquo, zreduce, zrow, zwronski_minors, zwronskian_past,
                    zwronskians)

N = 7


@dataclass(frozen=True)
class PolySpace:
    """A 7-dimensional space of polynomials, built from 7 independent ones
    (Polys or integer lists) and held by its reduced echelon basis: primitive
    integer lists with strictly increasing degrees, each zero at the degrees
    of the others.  The basis is canonical, so equal spaces are equal and
    hash alike."""
    basis: tuple

    def __post_init__(self):
        rows = [zrow(p) for p in self.basis]
        if len(rows) != N:
            raise ValueError(f"need {N} basis polynomials")
        object.__setattr__(self, "basis", tuple(zechelon(rows, True)))

    def __hash__(self):
        return hash(tuple(map(tuple, self.basis)))

    @cached_property
    def flag_basis(self):
        """The basis as monic Polys (adapted to the flag at infinity)."""
        return tuple(zpoly(r, r[-1]) for r in self.basis)

    @property
    def degrees(self):
        return tuple(len(r) - 1 for r in self.basis)


def _ts(R):
    """The divisors of the Jacobi recursion for R, T_7..T_1 (a divided
    Wronskian of i elements is over t_i = R.divisors[i]); none without R."""
    return () if R is None else R.T[::-1]


# kept for the diffop.CASE_CACHE_SIZE most recently used (X, R), as
# dual_space is: the dual, the space Wronskian and the y's of a witness
# adapted to X's degrees all continue these levels
@lru_cache(maxsize=diffop.CASE_CACHE_SIZE)
def _levels(X: PolySpace, R: RamificationData = None):
    """The prefix levels 0..5 of the Jacobi recursion over X.basis, divided
    by R's T's (zprefix_levels), undivided without R: level k holds
    Wr(b_1..b_k) / t_k and the Wr(b_1..b_k, b_j) / t_(k+1).  The basis is
    independent, so no pivot is zero; a space without R's ramification
    raises ValueError at the first inexact division."""
    return zprefix_levels(X.basis, _ts(R))


def wronskian_row(X: PolySpace, R: RamificationData = None):
    """Wr(X.basis) in Z[x] up to a nonzero constant, one Jacobi step past the
    cached levels, for every reader of the space Wronskian: with R, the
    divided Wronskian times t_7; without R, the undivided one."""
    w = zwronskian_past(_levels(X, R), _ts(R))
    return w if R is None else zmul(w, R.divisors[N])


def space_wronskian(X: PolySpace) -> Poly:
    w = wronskian_row(X)
    return zpoly(w, w[-1])


# kept for the diffop.CASE_CACHE_SIZE most recently used (X, R): every
# caller finishes one space before it starts the next, and the ssd-checks
# of one case, on the case or on files of its kernel, meet the same (X, R)
@lru_cache(maxsize=diffop.CASE_CACHE_SIZE)
def dual_space(X: PolySpace, R: RamificationData) -> PolySpace:
    """Span of divided Wronskians of the 6-element subsets of a basis of X,
    the Wronskians from one Jacobi recursion (zwronski_minors) continuing
    the space's cached divided levels.  PolySpace raises ValueError if the
    seven are linearly dependent; an error is not cached."""
    return PolySpace(zwronski_minors(X.basis, _levels(X, R), _ts(R)))


def _seventh_root(w):
    """(r, d), the monic 7th root of w as an integer row over d > 0, for an
    integer list w standing for its monic multiple; errors if not a 7th
    power.  For w's primitive part a and c = a[-1], so that W = a / c is
    monic, wc = c^n W(x / c) is monic in Z[x], n = 7m, and so is its root
    c^m root(x / c), whose coefficient R_k of x^(m-k) is sum_{j=1}^k
    (8j - 7k) wc_(n-j) R_(k-j) / 7k, by W R' = R W' / 7; the root's
    coefficient of x^i is R_(m-i) / c^(m-i) = R_(m-i) c^i / c^m."""
    a = zprimitive(w)
    c = a[-1] if a else 1
    n, m = len(a) - 1, (len(a) - 1) // N
    if n < 0 or n % N:
        raise ValueError("not a 7th power")
    wc = [v * c ** (n - i - 1) for i, v in enumerate(a[:n])] + [1]
    R = [1]
    for k in range(1, m + 1):  # inexact only if w is no 7th power
        R.append(sum((8 * j - 7 * k) * wc[n - j] * R[k - j]
                     for j in range(1, k + 1)) // (7 * k))
    r = R[::-1]
    r2 = zmul(r, r)
    if zmul(zmul(r2, r2), zmul(r2, r)) != wc:
        raise ValueError("not a 7th power")
    return [v * c ** i for i, v in enumerate(r)], c ** m


def reduced_wronski(X: PolySpace) -> Poly:
    """Monic 7th root of the space Wronskian."""
    return zpoly(*_seventh_root(wronskian_row(X)))


def self_dual_factor(X: PolySpace, R: RamificationData):
    """The primitive g in Z[x] with X = g * dual(X), or None; such a g maps
    the lowest row of dual(X) to that of X.  dual(X) has dimension 7 and
    g != 0, so g * dual(X) = X once each g d_i reduces to 0 against X."""
    Xd = dual_space(X, R)
    try:
        g = zquo(X.basis[0], Xd.basis[0])
    except ValueError:
        return None
    return None if any(zreduce(X.basis, zmul(g, v)) for v in Xd.basis) else g


def is_self_dual(X: PolySpace, R: RamificationData) -> bool:
    # fast path: the T-symmetry T_i = T_{7-i} is necessary
    for i in range(1, N):
        if R.T[i - 1] != R.T[N - i - 1]:
            return False
    return self_dual_factor(X, R) is not None


def _ys(ws):
    """(y_1, ..., y_6), primitive integer lists, with y_{7-i} the divided
    leading Wronskian ws[i] of i elements."""
    return tuple(zprimitive(ws[i]) for i in range(N - 1, 0, -1))


def y_from_basis(gamma, R: RamificationData):
    """The y's of the ordered basis gamma (Polys or integer lists): y_{7-i}
    is the divided Wronskian of its first i elements, from the leading
    divided Wronskians of one Jacobi recursion (zwronskians); after a zero
    one the rest vanish."""
    return _ys(zwronskians([zrow(p) for p in gamma[:N - 1]], _ts(R)))


def _space_ys(X: PolySpace, R: RamificationData):
    """y_from_basis(X.basis, R), read off the cached divided levels: their
    pivots and the first entry of the last are Wr(b_1..b_i) / t_i, i < 7.
    Not cached itself, as the levels it reads are."""
    levels = _levels(X, R)
    return _ys([prev for prev, _ in levels] + [levels[-1][1][0]])


def ssd_witness_check(X: PolySpace, R: RamificationData, gamma) -> bool:
    """Test the pattern y1^2 = y6^2 = y3 = y4, y2 = y5 projectively for the
    ordered basis gamma of X (Polys or integer lists); requires the
    T-pattern T1=T3=T4=T6, T2=T5.  False unless gamma is 7 polynomials
    spanning X.  A gamma with X's degrees in X's order is triangular over
    X.basis, so each Wr(gamma_1..gamma_i) is Wr(b_1..b_i) times a nonzero
    constant, which zprimitive removes: its y's are X's own (_space_ys);
    any other gamma takes its own Wronskians (y_from_basis)."""
    T = R.T
    if not (T[0] == T[2] == T[3] == T[5] and T[1] == T[4]):
        return False
    rows = [zrow(p) for p in gamma]
    try:
        if PolySpace(rows) != X:
            return False
    except ValueError:
        return False
    adapted = tuple(len(r) - 1 for r in rows) == X.degrees
    y1, y2, y3, y4, y5, y6 = (_space_ys(X, R) if adapted
                              else y_from_basis(rows, R))
    if not all((y1, y2, y3, y4, y5, y6)):
        return False
    sq1 = zprimitive(zmul(y1, y1))
    return sq1 == zprimitive(zmul(y6, y6)) == y3 == y4 and y2 == y5


def bethe_kernel_instance(lam, i):
    """(X, R, gamma) for the closed-form case (lam, i): its kernel, its
    ramification data and its flag as monic Polys, all held by the case."""
    c = diffop.case(tuple(lam), i)
    return c.space, c.ramification, c.flag


# the ordered basis u_1..u_7 of the kernel adapted to the factorization of D_y
flag_from_factorization = diffop.flag_from_factorization
