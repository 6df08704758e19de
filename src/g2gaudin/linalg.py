"""Exact linear algebra over Q: matrices of ints and Fractions, eliminated
fraction-free over Z."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exact import zclear


def rref(matrix):
    """Reduced row echelon form of a matrix of ints and Fractions, reduced
    fraction-free over Z; returns (rows, pivot_columns)."""
    m, pivots = _zrref(matrix)
    ncols = len(m[0]) if m else 0
    return ([[Fraction(v, row[c]) for v in row] for row, c in zip(m, pivots)]
            + [[Fraction(0)] * ncols for _ in range(len(m) - len(pivots))],
            pivots)


def _zrref(matrix):
    """(integer rows, pivots) for a rational matrix: row r of its rref is
    rows[r] / rows[r][pivots[r]].  Each row is cleared to integers once and
    eliminated by integer row combinations divided by their content; rows
    past the rank are zero."""
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
    return m, pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix, ncols=None):
    """Basis of the right nullspace, as a list of column vectors."""
    if not matrix:
        return [] if not ncols else [[Fraction(1) if i == j else Fraction(0)
                                      for i in range(ncols)] for j in range(ncols)]
    ncols = len(matrix[0])
    m, pivots = _zrref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][fc], m[r][pc])
        basis.append(v)
    return basis
