"""G2 Cartan data: bilinear form, Weyl group, weight-to-partition dictionary.

Weights are pairs (l1, l2) of integers in fundamental-weight coordinates,
l_i = <lambda, coroot_i>.  The Cartan matrix is ((2,-1),(-3,2)) with
symmetrizer D = diag(3,1); alpha1 is the long root.
"""

from __future__ import annotations

from fractions import Fraction

CARTAN = ((2, -1), (-3, 2))

# simple roots in fundamental-weight coordinates: alpha_j = (a_{1j}, a_{2j})
ALPHA1 = (2, -3)
ALPHA2 = (-1, 2)

RHO = (1, 1)

# positive roots, as (c1, c2) meaning c1*alpha1 + c2*alpha2
POSITIVE_ROOTS = ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3))

OMEGA1 = (1, 0)
OMEGA2 = (0, 1)


def to_alpha(w):
    """Coordinates of a weight in the alpha basis: w = a*alpha1 + b*alpha2."""
    l1, l2 = w
    return (2 * l1 + l2, 3 * l1 + 2 * l2)


def from_alpha(a, b):
    """Weight with alpha-coordinates (a, b), in fundamental coordinates."""
    return (2 * a - b, -3 * a + 2 * b)


def bilinear(lam, mu) -> Fraction:
    """The invariant form with (a1,a1)=6, (a1,a2)=-3, (a2,a2)=2."""
    a, b = to_alpha(lam)
    c, d = to_alpha(mu)
    return Fraction(6 * a * c - 3 * (a * d + b * c) + 2 * b * d)


def is_dominant(w) -> bool:
    return w[0] >= 0 and w[1] >= 0


def add(w, v):
    return (w[0] + v[0], w[1] + v[1])


def sub(w, v):
    return (w[0] - v[0], w[1] - v[1])


def reflect(i: int, w):
    """Simple reflection s_i(w) = w - <w, coroot_i> alpha_i."""
    alpha = ALPHA1 if i == 1 else ALPHA2
    c = w[i - 1]
    return (w[0] - c * alpha[0], w[1] - c * alpha[1])


def apply_word(word, w):
    """Apply a reduced word (sequence of 1s and 2s), leftmost letter last."""
    for i in reversed(word):
        w = reflect(i, w)
    return w


class WeylElement:
    """Weyl group element, canonicalized by its (linear) action on weights."""

    __slots__ = ("word", "matrix")

    def __init__(self, word=()):
        word = tuple(word)
        e1 = apply_word(word, (1, 0))
        e2 = apply_word(word, (0, 1))
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "matrix", (e1, e2))

    def __setattr__(self, *args):
        raise AttributeError("WeylElement is immutable")

    def __call__(self, w):
        e1, e2 = self.matrix
        return (w[0] * e1[0] + w[1] * e2[0], w[0] * e1[1] + w[1] * e2[1])

    def __mul__(self, other):
        return WeylElement(self.word + other.word)

    def __eq__(self, other):
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def sign(self) -> int:
        e1, e2 = self.matrix
        det = e1[0] * e2[1] - e1[1] * e2[0]
        return 1 if det > 0 else -1

    def __repr__(self):
        return "WeylElement(%s)" % ("".join(f"s{i}" for i in self.word) or "e")


def weyl_group():
    """All 12 elements, generated from the simple reflections."""
    seen = {WeylElement(())}
    frontier = [WeylElement(())]
    while frontier:
        nxt = []
        for g in frontier:
            for i in (1, 2):
                h = WeylElement((i,) + g.word)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen, key=lambda g: (len(g.word), g.word))


def shifted_action(sigma: WeylElement, w):
    """sigma . w = sigma(w + rho) - rho."""
    return sub(sigma(add(w, RHO)), RHO)


def shifted_action_word(word, w):
    return shifted_action(WeylElement(word), w)


def dominant_chamber(w):
    """(sigma, dominant image) with sigma(w) dominant (plain action)."""
    word = []
    cur = w
    while not is_dominant(cur):
        i = 1 if cur[0] < 0 else 2
        cur = reflect(i, cur)
        word.append(i)
    return WeylElement(tuple(reversed(word))), cur


def partition_from_weight(mu, k: int):
    """The partition with 7th part k and the G2 difference pattern of mu."""
    if not is_dominant(mu):
        raise ValueError(f"weight {mu} is not dominant")
    if k < 0:
        raise ValueError("k must be nonnegative")
    m1, m2 = mu
    diffs = (m1, m2, m1, m1, m2, m1)  # parts[i] - parts[i+1] for i = 1..6
    parts = [k]
    for d in reversed(diffs):
        parts.append(parts[-1] + d)
    return tuple(reversed(parts))


def pair_size(mu, k: int) -> int:
    """|mu_{A,k}| / 7 = k + 2*mu1 + mu2 (the per-point weight budget)."""
    return k + 2 * mu[0] + mu[1]

