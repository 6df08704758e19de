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
