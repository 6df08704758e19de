"""Exact linear algebra: the fraction-free rational rref against the field
elimination of the oracles, and the nullspace and the oracles' solve
against the rref."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from g2gaudin import linalg
from oracles import rref_field, solve

fracs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
entries = st.one_of(st.just(Fraction(0)), fracs)


@st.composite
def rational_matrices(draw):
    """Fraction matrices, to which up to three rows are added: zero rows
    and rational combinations of two existing rows (rank deficiency)."""
    cols = draw(st.integers(1, 6))
    m = [[draw(entries) for _ in range(cols)]
         for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 3))):
        if m and draw(st.booleans()):
            u = m[draw(st.integers(0, len(m) - 1))]
            v = m[draw(st.integers(0, len(m) - 1))]
            a, b = draw(fracs), draw(fracs)
            row = [a * p + b * q for p, q in zip(u, v)]
        else:
            row = [Fraction(0)] * cols
        m.insert(draw(st.integers(0, len(m))), row)
    return m


@given(rational_matrices())
@settings(max_examples=150, deadline=None)
def test_rational_rref_matches_field_elimination(m):
    red, pivots = linalg.rref(m)
    assert (red, pivots) == rref_field(m)
    assert all(isinstance(v, Fraction) for row in red for v in row)


def test_rational_rref_examples():
    m = [[Fraction(0), Fraction(0)], [Fraction(2), Fraction(4)],
         [Fraction(1, 3), Fraction(2, 3)]]
    red, pivots = linalg.rref(m)
    assert pivots == [0]
    assert red == [[1, 2], [0, 0], [0, 0]]
    assert linalg.nullspace(m) == [[Fraction(-2), Fraction(1)]]
    assert linalg.rref([[0, 3], [5, 0]]) == ([[1, 0], [0, 1]], [0, 1])


def test_rref_rank_nullspace_read_reversed_rows():
    """The elimination runs on each row reversed, so its pivot is its last
    index: a zero leading column, a zero matrix, a single row, a single
    column, and duplicate rows with the later pivot first, which the
    first pass reduces and drops."""
    m = [[0, 2, 4], [0, 1, 3]]
    assert linalg.rref(m) == ([[0, 1, 0], [0, 0, 1]], [1, 2])
    assert linalg.rank(m) == 2
    assert linalg.nullspace(m) == [[1, 0, 0]]
    zero = [[0, 0], [0, 0], [0, 0]]
    assert linalg.rref(zero) == ([[0, 0]] * 3, [])
    assert linalg.rank(zero) == 0
    assert linalg.nullspace(zero) == [[1, 0], [0, 1]]
    row = [[0, Fraction(3, 2), -3]]
    assert linalg.rref(row) == ([[0, 1, -2]], [1])
    assert linalg.rank(row) == 1
    assert linalg.nullspace(row) == [[1, 0, 0], [0, 2, 1]]
    col = [[0], [Fraction(-1, 3)], [2]]
    assert linalg.rref(col) == ([[1], [0], [0]], [0])
    assert linalg.rank(col) == 1
    assert linalg.nullspace(col) == []
    dup = [[0, 0, 1, 2], [1, 2, 3, 4], [0, 0, 2, 4], [1, 2, 3, 4]]
    assert linalg.rref(dup) == ([[1, 2, 0, -2], [0, 0, 1, 2], [0] * 4,
                                 [0] * 4], [0, 2])
    assert linalg.rank(dup) == 2
    assert linalg.nullspace(dup) == [[-2, 1, 0, 0], [2, 0, -2, 1]]
    for a in (m, zero, row, col, dup):
        assert linalg.rref(a) == rref_field([[Fraction(v) for v in r]
                                             for r in a])


def _nullspace_by_rref(A):
    """Reference nullspace: the free columns of the rref of A."""
    ncols = len(A[0])
    red, pivots = linalg.rref(A)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


@st.composite
def linear_systems(draw):
    """(A, b): b a combination of the columns of A (consistent), an
    arbitrary vector (often inconsistent) or zero."""
    A = draw(rational_matrices())
    cols = len(A[0]) if A else 0
    kind = draw(st.sampled_from(("combination", "arbitrary", "zero")))
    if kind == "combination":
        c = [draw(fracs) for _ in range(cols)]
        b = [sum((a * v for a, v in zip(row, c)), Fraction(0)) for row in A]
    elif kind == "arbitrary":
        b = [draw(entries) for _ in A]
    else:
        b = [Fraction(0)] * len(A)
    return A, b


@given(linear_systems())
@settings(max_examples=200, deadline=None)
def test_solve_and_nullspace_match_rref_reference(system):
    """The rational solve of the oracles, built on linalg.rref, returns a
    solution of A x = b, or None exactly when b raises the rank; the
    nullspace is the free columns of the rref."""
    A, b = system
    x = solve(A, b)
    if x is None:
        aug = [list(row) + [v] for row, v in zip(A, b)]
        assert linalg.rank(aug) == linalg.rank(A) + 1
    else:
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == b
    if A:
        assert repr(linalg.nullspace(A)) == repr(_nullspace_by_rref(A))
