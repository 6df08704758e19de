"""Exact linear algebra over a field (Fraction or QSqrt2 entries)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exact import zclear


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot_columns).  A matrix of
    ints and Fractions is reduced fraction-free over Z; any other entries
    (QSqrt2) go through the generic field elimination."""
    if all(isinstance(v, (int, Fraction)) for row in matrix for v in row):
        return _rref_rational(matrix)
    return _rref_field(matrix)


def _rref_rational(matrix):
    """rref over Q: each row is cleared to integers once, eliminated by
    integer row combinations divided by their content, and divided by its
    pivot only at the end."""
    m = [zclear(row)[0] for row in matrix]
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
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                m[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return ([[Fraction(v, row[c]) for v in row] for row, c in zip(m, pivots)]
            + [[Fraction(0)] * ncols for _ in range(len(m) - r)]), pivots


def _rref_field(matrix):
    """rref by field operations, for any scalars with inverse (QSqrt2) or
    Fraction entries."""
    m = [list(row) for row in matrix]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c] if isinstance(m[r][c], Fraction) else m[r][c].inverse()
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


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix, ncols=None):
    """Basis of the right nullspace, as a list of column vectors."""
    if not matrix:
        return [] if not ncols else [[Fraction(1) if i == j else Fraction(0)
                                      for i in range(ncols)] for j in range(ncols)]
    ncols = len(matrix[0])
    red, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(matrix, rhs):
    """One solution of A x = b, or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x
