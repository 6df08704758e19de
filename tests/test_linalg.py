"""Exact linear algebra: the fraction-free rational rref against the field
elimination that serves Q(sqrt2)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from g2gaudin import linalg

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
    assert (red, pivots) == linalg._rref_field(m)
    assert all(isinstance(v, Fraction) for row in red for v in row)


def test_rational_rref_examples():
    m = [[Fraction(0), Fraction(0)], [Fraction(2), Fraction(4)],
         [Fraction(1, 3), Fraction(2, 3)]]
    red, pivots = linalg.rref(m)
    assert pivots == [0]
    assert red == [[1, 2], [0, 0], [0, 0]]
    assert linalg.nullspace(m) == [[Fraction(-2), Fraction(1)]]
    assert linalg.rref([[0, 3], [5, 0]]) == ([[1, 0], [0, 1]], [0, 1])
