"""The 7-dimensional representation of G2 over Q and representation
combinatorics: Weyl dimensions, weight multiplicities, tensor
decompositions, admissible cases, invariant dimensions.

The paper prints the module with sqrt2 among its entries.  It is held here
conjugated by D = diag(1, 1, 1, sqrt2, 1, 1, 1), where it is integral: the
Chevalley generators are integer matrices, and each printed G_ij is
D (sqrt2^eps_ij Ĝ_ij) D^-1 with Ĝ_ij = `build_G()[i, j]` an integer matrix
and eps_ij = `sqrt2_power(i, j)`.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from types import MappingProxyType

from . import rootdata as rd

N = 7

# ---------------------------------------------------------------- matrices


def mat_zero():
    return ((0,) * N,) * N


def mat_unit(i, j, c=1):
    """c * e_{ij}, 1-based indices."""
    return tuple(tuple(c if (r, s) == (i - 1, j - 1) else 0 for s in range(N))
                 for r in range(N))


def mat_add(*ms):
    return tuple(tuple(sum(m[r][s] for m in ms) for s in range(N))
                 for r in range(N))


def mat_scale(c, m):
    return tuple(tuple(c * v for v in row) for row in m)


def mat_lincomb(terms):
    """sum c * m over the (c, m) pairs, skipping zero coefficients and entries."""
    out = [[0] * N for _ in range(N)]
    for c, m in terms:
        if not c:
            continue
        for r in range(N):
            for s, v in enumerate(m[r]):
                if v:
                    out[r][s] += c * v
    return tuple(tuple(row) for row in out)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    out = [[0] * N for _ in range(N)]
    for r in range(N):
        for k, x in enumerate(a[r]):
            if not x:
                continue
            for s, y in enumerate(b[k]):
                if y:
                    out[r][s] += x * y
    return tuple(tuple(row) for row in out)


def bracket(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def trace_form(a, b):
    """The invariant form (x, y) = tr(xy)/6 on 7x7 matrices."""
    from fractions import Fraction
    return Fraction(sum(a[i][j] * b[j][i] for i in range(N) for j in range(N)),
                    6)


def sqrt2_power(i, j) -> int:
    """eps_ij: 1 when exactly one of i, j is 4, else 0."""
    return int((i == 4) != (j == 4))


def F(i, j):
    """The so7 generator e_ij - (-1)^{i+j} e_{8-j,8-i}, conjugated by D and
    times sqrt2^([i=4] + [j=4]):
    2^[j=4] e_ij - (-1)^{i+j} 2^[i=4] e_{8-j,8-i}."""
    return mat_sub(mat_unit(i, j, 2 if j == 4 else 1),
                   mat_unit(8 - j, 8 - i, (-1) ** (i + j) * (2 if i == 4 else 1)))


@lru_cache(maxsize=None)
def chevalley_matrices():
    """(e1, e2, f1, f2, h1, h2) in the basis v1..v7 of the 7-dim module."""
    e1 = mat_add(mat_unit(2, 3), mat_unit(5, 6))
    f1 = mat_add(mat_unit(3, 2), mat_unit(6, 5))
    e2 = mat_add(mat_unit(1, 2), mat_unit(3, 4, 2), mat_unit(4, 5),
                 mat_unit(6, 7))
    f2 = mat_add(mat_unit(2, 1), mat_unit(4, 3), mat_unit(5, 4, 2),
                 mat_unit(7, 6))
    h1 = bracket(e1, f1)
    h2 = bracket(e2, f2)
    return e1, e2, f1, f2, h1, h2


@lru_cache(maxsize=None)
def g2_basis():
    """A 14-element basis of the image of g2 in so7 (from the matrix G)."""
    from .linalg import rank
    G = build_G()
    idx = [(2, 2), (3, 3)] + [(i, j) for i in (2, 3, 4, 7) for j in (2, 3, 4, 7)
                              if i != j]
    basis = [G[ij] for ij in idx]
    vecs = [[m[r][s] for r in range(N) for s in range(N)] for m in basis]
    if rank(vecs) != 14:
        raise AssertionError("the 14 designated G-entries are not independent")
    return tuple(basis)


# the six printed relations G_ij = s sqrt2 G_kl, as (ij, kl, s); the paper
# prints G_ij = 2 F_ij + s sqrt2 F_kl with the same (ij, kl, s)
PROPORTIONALITIES = (((2, 4), (1, 3), -1), ((3, 4), (6, 7), 1),
                     ((7, 4), (5, 2), -1), ((4, 2), (3, 1), -1),
                     ((4, 3), (7, 6), 1), ((4, 7), (2, 5), -1))


@lru_cache(maxsize=None)
def build_G():
    """All 49 entries Ĝ_ij as integer 7x7 matrices, from the printed
    formulas, as a read-only mapping: the result is cached and shared by
    every caller."""
    G = {}
    for i in (2, 3, 7):
        for j in (2, 3, 7):
            if i != j:
                G[(i, j)] = mat_scale(3, F(i, j))
    for i, j, k in ((2, 3, 7), (3, 2, 7), (7, 2, 3)):
        G[(i, i)] = mat_sub(mat_scale(2, F(i, i)), mat_add(F(j, j), F(k, k)))
    # the printed G_ij = 2 F_ij + s sqrt2 F_kl = s sqrt2 G_kl becomes
    # Ĝ_ij = F(ij) + s F(kl) and Ĝ_kl = s Ĝ_ij
    for ij, kl, s in PROPORTIONALITIES:
        G[ij] = mat_add(F(*ij), mat_scale(s, F(*kl)))
        G[kl] = mat_scale(s, G[ij])
    # close under G_ij + (-1)^{i+j} G_{8-j,8-i} = 0: no entry above is the
    # partner of another, so one pass fills each partner; G_{i,8-i} = 0
    for i in range(1, 8):
        for j in range(1, 8):
            if (i, j) in G:
                continue
            if (8 - j, 8 - i) in G:
                G[(i, j)] = mat_scale(-(-1) ** (i + j), G[(8 - j, 8 - i)])
            elif i + j == 8:
                G[(i, j)] = mat_zero()
            else:
                raise AssertionError(f"entry G[{i},{j}] unreachable")
    return MappingProxyType(G)


def dual_basis_G():
    """The Ĝ_ij recomputed basis-independently, from dual bases x_a, x^a of
    the trace form: sum_a (x_a)_ji x^a is D^-1 G_ij D times d_i/d_j, which
    is c_ij Ĝ_ij with c_ij = 2 when i = 4 != j and 1 otherwise.
    Cross-check for build_G: `verify.check_chevalley` compares its result
    with `build_G()` entry by entry on all 49 (i, j) and fails at the first
    entry that differs."""
    from fractions import Fraction

    from .linalg import rref
    basis = g2_basis()
    gram = [[trace_form(x, y) for y in basis] for x in basis]
    # invert the Gram matrix over Q
    n = len(basis)
    aug = [list(gram[i]) + [int(j == i) for j in range(n)] for i in range(n)]
    red, piv = rref(aug)
    if piv != list(range(n)):
        raise AssertionError("trace form degenerate on g2 basis")
    inv = [row[n:] for row in red]
    dual = [mat_lincomb(zip(inv[a], basis)) for a in range(n)]
    G = {}
    for i in range(1, 8):
        for j in range(1, 8):
            c = Fraction(1, 2) if i == 4 != j else 1
            G[(i, j)] = mat_lincomb((c * xa[j - 1][i - 1], xda)
                                    for xa, xda in zip(basis, dual))
    return G


def _nonzero_entries(m):
    return [(r, s, v) for r, row in enumerate(m) for s, v in enumerate(row) if v]


@lru_cache(maxsize=None)
def _six_casimir():
    """6 Omega in integers, Omega the pair Casimir on V_{omega2} (x) V_{omega2}
    conjugated by D (x) D: the sum of the G_ji (x) G_ij = 2^eps_ij Ĝ_ji (x)
    Ĝ_ij, accumulated over the nonzero entries of the two factors only."""
    G = build_G()
    omega = [[0] * 49 for _ in range(49)]
    for (i, j), gij in G.items():
        w = 2 ** sqrt2_power(i, j)
        b = _nonzero_entries(gij)
        for r1, s1, x in _nonzero_entries(G[(j, i)]):
            for r2, s2, y in b:
                omega[N * r1 + r2][N * s1 + s2] += w * x * y
    return tuple(map(tuple, omega))


def casimir_on_pair():
    """The pair Casimir Omega, _six_casimir over 6, as Fractions."""
    from fractions import Fraction
    return tuple(tuple(Fraction(v, 6) for v in row) for row in _six_casimir())


def casimir_eigenvalue(mu) -> int:
    """c(mu) = (mu, mu + 2 rho) in the paper's normalization."""
    return rd.bilinear(mu, rd.add(mu, (2, 2)))


def casimir_blocks():
    """Mapping eigenvalue -> exact eigenspace dimension of the pair Casimir,
    the eigenvalues as Fractions: 49 minus the rank of the integer
    6 Omega - 6 ev I, 6 ev = 3 (c(mu) - 2 c(omega2))."""
    from fractions import Fraction

    from .linalg import rank
    out = {}
    for mu in tensor_decompose(rd.OMEGA2, rd.OMEGA2):
        ev6 = 3 * (casimir_eigenvalue(mu) - 2 * casimir_eigenvalue(rd.OMEGA2))
        shifted = [[v - ev6 if i == j else v for j, v in enumerate(row)]
                   for i, row in enumerate(_six_casimir())]
        out[Fraction(ev6, 6)] = 49 - rank(shifted)
    return out


# ------------------------------------------------------- weight combinatorics


# (w, c1*alpha1 + c2*alpha2) = 3*c1*w1 + c2*w2 in fundamental coordinates,
# since (omega_i, alpha_j) = delta_ij (alpha_j, alpha_j)/2 with
# (alpha1, alpha1) = 6 and (alpha2, alpha2) = 2
_RHO_PRODUCT = prod(3 * c1 + c2 for c1, c2 in rd.POSITIVE_ROOTS)


@lru_cache(maxsize=None)
def weyl_dim(lam) -> int:
    """Weyl dimension formula over the 6 positive roots, in integers: the
    product of (lam + rho, beta) divided by that of (rho, beta).  Cached."""
    if not rd.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    l1, l2 = lam[0] + 1, lam[1] + 1
    num = prod(3 * c1 * l1 + c2 * l2 for c1, c2 in rd.POSITIVE_ROOTS)
    dim, rem = divmod(num, _RHO_PRODUCT)
    assert rem == 0
    return dim


@lru_cache(maxsize=None)
def _dominant_multiplicities(lam):
    """Freudenthal recursion: multiplicities of the dominant weights of V_lam,
    in integers: each is an exact quotient of two integers."""
    l1, l2 = lam
    doms = []
    for a in range(2 * l1 + l2 + 1):
        for b in range((l2 + 3 * a) // 2 + 1):
            mu = (l1 - 2 * a + b, l2 + 3 * a - 2 * b)
            if rd.is_dominant(mu):
                doms.append(((a + b), mu))
    doms.sort()
    mult = {}
    clam = rd.bilinear(rd.add(lam, rd.RHO), rd.add(lam, rd.RHO))

    def get(w):
        # multiplicity of an arbitrary weight via its dominant representative
        _, dom = rd.dominant_chamber(w)
        return mult.get(dom, 0)

    for ht, mu in doms:
        if mu == lam:
            mult[mu] = 1
            continue
        denom = clam - rd.bilinear(rd.add(mu, rd.RHO), rd.add(mu, rd.RHO))
        total = 0
        for c1, c2 in rd.POSITIVE_ROOTS:
            beta = rd.from_alpha(c1, c2)
            j = 1
            while True:
                w = rd.add(mu, (j * beta[0], j * beta[1]))
                da, db = rd.to_alpha(rd.sub(lam, w))
                if da < 0 or db < 0:
                    break  # past the weight cone of V_lam
                m = get(w)
                if m:
                    total += 2 * m * rd.bilinear(w, beta)
                j += 1
        m, rem = divmod(total, denom)
        assert rem == 0
        if m:
            mult[mu] = m
    return mult


@lru_cache(maxsize=None)
def weight_multiplicities(lam):
    """All weights of V_lam with multiplicities (W-orbit expansion)."""
    out = {}
    for mu, m in _dominant_multiplicities(lam).items():
        for w in rd.weyl_orbit(mu):
            out[w] = m
    assert sum(out.values()) == weyl_dim(lam)
    return out


def tensor_decompose(lam, mu):
    """Decomposition of V_lam (x) V_mu by the Brauer-Klimyk rule, as a
    read-only mapping weight -> multiplicity: the result is cached per
    pair and shared by every caller."""
    lam, mu = tuple(lam), tuple(mu)
    if not (rd.is_dominant(lam) and rd.is_dominant(mu)):
        raise ValueError("both weights must be dominant")
    return _tensor_decompose(lam, mu)


@lru_cache(maxsize=None)
def _tensor_decompose(lam, mu):
    result = {}
    for nu, m in weight_multiplicities(mu).items():
        xi = rd.add(rd.add(lam, nu), rd.RHO)
        sign, dom = rd.dominant_chamber(xi)
        if dom[0] == 0 or dom[1] == 0:
            continue  # on a wall
        target = rd.sub(dom, rd.RHO)
        result[target] = result.get(target, 0) + sign * m
    result = {k: v for k, v in result.items() if v}
    assert all(v > 0 for v in result.values())
    assert sum(v * weyl_dim(k) for k, v in result.items()) == \
        weyl_dim(lam) * weyl_dim(mu)
    return MappingProxyType(result)


# node = (product of the weights on its path, children by next weight)
_SEQUENCES = (MappingProxyType({(0, 0): 1}), {})


def decompose_sequence(weights):
    """Decomposition of the tensor product of the V_w, as a read-only
    mapping weight -> multiplicity.  The product does not depend on the
    order of its factors, so products are cached on the sorted weights, in a
    tree where each one extends the product of its prefix."""
    node = _SEQUENCES
    for w in sorted(tuple(w) for w in weights):
        if w not in node[1]:
            acc = {}
            for lam, m in node[0].items():
                for mu, m2 in tensor_decompose(lam, w).items():
                    acc[mu] = acc.get(mu, 0) + m * m2
            node[1][w] = (MappingProxyType(acc), {})
        node = node[1][w]
    return node[0]


# the seven l-pairs that can be admissible
L_LIST = ((0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4))


def summand_weight(lam, i):
    """lam + omega2 - (l1 alpha1 + l2 alpha2) for (l1, l2) = L_LIST[i]: the
    weight of the summand of V_lam (x) V_omega2 that case i belongs to."""
    return rd.sub(rd.add(lam, rd.OMEGA2), rd.from_alpha(*L_LIST[i]))


def admissible_ls(lam):
    """Indices i such that V_{lam + omega2 - alpha(l_i)} occurs in
    V_lam (x) V_{omega2}."""
    if not rd.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    summands = tensor_decompose(lam, rd.OMEGA2)
    return [i for i in range(len(L_LIST))
            if summand_weight(lam, i) in summands]


def invariant_dim(weights) -> int:
    """Multiplicity of the trivial module in the tensor product."""
    return decompose_sequence(weights).get((0, 0), 0)


def hom_multiplicity(xi, weights) -> int:
    """dim Hom(V_xi, tensor of V_w for w in weights)."""
    return decompose_sequence(weights).get(xi, 0)
