"""G2 Cartan data: bilinear form, the Weyl group as words in the simple
reflections (orbits, signs, dominant images), weight-to-partition dictionary.

Weights are pairs (l1, l2) of integers in fundamental-weight coordinates,
l_i = <lambda, coroot_i>.  The Cartan matrix is ((2,-1),(-3,2)) with
symmetrizer D = diag(3,1); alpha1 is the long root.
"""

from __future__ import annotations

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


def bilinear(lam, mu) -> int:
    """The invariant form with (a1,a1)=6, (a1,a2)=-3, (a2,a2)=2: an integer
    on weights, whose alpha-coordinates are integers."""
    a, b = to_alpha(lam)
    c, d = to_alpha(mu)
    return 6 * a * c - 3 * (a * d + b * c) + 2 * b * d


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


def shifted_action_word(word, w):
    """word . w = word(w + rho) - rho."""
    return sub(apply_word(word, add(w, RHO)), RHO)


def weyl_orbit(w):
    """The Weyl group orbit of w, the closure of {w} under the two simple
    reflections, as a frozenset."""
    orbit, frontier = {w}, [w]
    while frontier:
        v = frontier.pop()
        for i in (1, 2):
            u = reflect(i, v)
            if u not in orbit:
                orbit.add(u)
                frontier.append(u)
    return frozenset(orbit)


def dominant_chamber(w):
    """(sign, dominant image): the image sigma(w) is dominant for sigma the
    product of the simple reflections applied, and sign = det sigma =
    (-1)^(their number)."""
    sign = 1
    while not is_dominant(w):
        w = reflect(1 if w[0] < 0 else 2, w)
        sign = -sign
    return sign, w


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

