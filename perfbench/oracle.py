"""Expected answers from the paper's closed forms, written independently of
the g2gaudin package so that a wrong answer from the program cannot also
become the expectation.

Weights are pairs (l1, l2) in fundamental-weight coordinates; alpha1 is the
long simple root, omega2 the highest weight of the 7-dimensional module.
"""

from fractions import Fraction

ALPHA1 = (2, -3)
ALPHA2 = (-1, 2)
OMEGA2 = (0, 1)
RHO = (1, 1)

# l-pairs (l1, l2) of the seven closed-form cases, in case-index order
L_LIST = ((0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4))

# the weights of V_omega2: the six short roots and 0, each of multiplicity 1
V7_WEIGHTS = ((0, 1), (1, -1), (-1, 2), (0, 0), (1, -2), (-1, 1), (0, -1))

# V_omega2 (x) V_omega2 = V_0 + V_omega2 + V_omega1 + V_2omega2: the
# highest weights with their dimensions, the paper's Casimir blocks
V7_SQUARE_DIMS = {(0, 0): 1, (0, 1): 7, (1, 0): 14, (0, 2): 27}

# strata of SGr_d at d = 12 and 13 as (nodes, simple degenerations),
# recorded from `g2 strata --d D --format json` at the commit that
# introduced this benchmark; d = 11 is the paper's golden diagram
STRATA_COUNTS = {11: (17, 29), 12: (38, 101), 13: (101, 377)}


def _add(w, v):
    return (w[0] + v[0], w[1] + v[1])


def _sub(w, v):
    return (w[0] - v[0], w[1] - v[1])


def _reflect(i, w):
    alpha = ALPHA1 if i == 0 else ALPHA2
    return (w[0] - w[i] * alpha[0], w[1] - w[i] * alpha[1])


def _to_alpha(w):
    return (2 * w[0] + w[1], 3 * w[0] + 2 * w[1])


def form(lam, mu):
    """Invariant form with (a1,a1) = 6, (a1,a2) = -3, (a2,a2) = 2."""
    a, b = _to_alpha(lam)
    c, d = _to_alpha(mu)
    return 6 * a * c - 3 * (a * d + b * c) + 2 * b * d


def casimir(mu):
    return form(mu, _add(mu, (2 * RHO[0], 2 * RHO[1])))


def tensor_with_v7(lam):
    """V_lam (x) V_omega2 as {highest weight: multiplicity}, by the
    Brauer-Klimyk rule over the seven weights of V_omega2."""
    out = {}
    for nu in V7_WEIGHTS:
        w = _add(_add(lam, nu), RHO)
        sign = 1
        while min(w) < 0:
            w = _reflect(0 if w[0] < 0 else 1, w)
            sign = -sign
        if min(w) == 0:
            continue
        mu = _sub(w, RHO)
        out[mu] = out.get(mu, 0) + sign
    return {mu: m for mu, m in out.items() if m}


def alpha_of_l(l):
    return (l[0] * ALPHA1[0] + l[1] * ALPHA2[0],
            l[0] * ALPHA1[1] + l[1] * ALPHA2[1])


def mu_of(lam, i):
    """Highest weight lam + omega2 - alpha(l_i) of the case's summand."""
    return _sub(_add(lam, OMEGA2), alpha_of_l(L_LIST[i]))


def admissible(lam):
    summands = tensor_with_v7(lam)
    return [i for i in range(len(L_LIST)) if mu_of(lam, i) in summands]


def cases(hi):
    """Every admissible (lam, i) with both weight coordinates in 0..hi."""
    return [((a, b), i) for a in range(hi + 1) for b in range(hi + 1)
            for i in admissible((a, b))]


def exponents_finite(lam):
    a, b = lam
    return sorted((-2 * a - b, -a - b + 1, -a + 2, 3,
                   a + 4, a + b + 5, 2 * a + b + 6))


def exponents_infinity(mu):
    a, b = mu
    return sorted((-2 * a - b - 6, -a - b - 5, -a - 4, -3,
                   a - 2, a + b - 1, 2 * a + b))


def h2_value(lam, i):
    """Residue of h2 at 0 equals the pair Casimir eigenvalue divided by
    z1 - z2 = -1."""
    eig = Fraction(casimir(mu_of(lam, i)) - casimir(lam) - casimir(OMEGA2), 2)
    return -eig


def _binomial_row(n):
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def wronskian_coeffs(lam):
    """Coefficients, lowest degree first, of x^(7(2a+b)) (x-1)^7."""
    shift = 7 * (2 * lam[0] + lam[1])
    row = _binomial_row(7)
    return [0] * shift + [row[k] * (-1) ** (7 - k) for k in range(8)]


def reduced_coeffs(lam):
    """Coefficients of the reduced Wronskian x^(2a+b) (x-1)."""
    return [0] * (2 * lam[0] + lam[1]) + [-1, 1]


def partition(mu, k=0):
    """Seven-part partition with last part k and the G2 difference pattern
    (m1, m2, m1, m1, m2, m1) of mu."""
    m1, m2 = mu
    parts = [k]
    for d in reversed((m1, m2, m1, m1, m2, m1)):
        parts.append(parts[-1] + d)
    return list(reversed(parts))


def render(c):
    """A rational as the program's JSON renders it: "p" or "p/q"."""
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
