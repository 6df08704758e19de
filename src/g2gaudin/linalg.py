"""Exact linear algebra over Q: matrices of ints and Fractions, eliminated
over Z by the one echelon routine of the package, `exact.zechelon`."""

from __future__ import annotations

from fractions import Fraction

from .exact import zclear, zechelon, zreduce


def rref(matrix):
    """Reduced row echelon form of a matrix of ints and Fractions, reduced
    fraction-free over Z; returns (rows, pivot_columns)."""
    m, pivots = _zrref(matrix)
    ncols = len(matrix[0]) if matrix else 0
    return ([[Fraction(v, row[c]) for v in row] for row, c in zip(m, pivots)]
            + [[Fraction(0)] * ncols for _ in range(len(matrix) - len(m))],
            pivots)


def _zrref(matrix):
    """(integer rows, pivots) for a rational matrix, one row per pivot: row
    r of its rref is rows[r] / rows[r][pivots[r]].  Each row is cleared to
    integers once and reversed, so its first nonzero column is its last
    index, and zreduced against the rows kept so far; a row that reduces
    to [] is dependent and dropped.  zechelon of the kept rows, shortest
    first, is the reduced basis; read forwards, a row of length l has
    pivot column ncols - l."""
    ncols = len(matrix[0]) if matrix else 0
    kept = []
    for row in matrix:
        v = zclear(row)[0][::-1]
        while v and not v[-1]:
            v.pop()
        v = zreduce(kept, v)
        if v:
            kept.append(v)
    basis = zechelon(sorted(kept, key=len))[::-1]
    return ([[0] * (ncols - len(v)) + v[::-1] for v in basis],
            [ncols - len(v) for v in basis])


def rank(matrix) -> int:
    return len(_zrref(matrix)[1])


def nullspace(matrix):
    """Basis of the right nullspace, as a list of column vectors."""
    ncols = len(matrix[0]) if matrix else 0
    m, pivots = _zrref(matrix)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis
