"""The 7-dimensional matrix realization of G2 over Q(sqrt 2) and
representation combinatorics: Weyl dimensions, weight multiplicities,
tensor decompositions, invariant dimensions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from types import MappingProxyType

from . import rootdata as rd
from .exact import QSqrt2, SQRT2
from .linalg import nullspace, rank

N = 7

# ---------------------------------------------------------------- matrices

ZERO = QSqrt2(0)
ONE = QSqrt2(1)


def mat_zero():
    return tuple(tuple(ZERO for _ in range(N)) for _ in range(N))


def mat_unit(i, j, c=ONE):
    """c * e_{ij}, 1-based indices."""
    return tuple(tuple(c if (r, s) == (i - 1, j - 1) else ZERO for s in range(N))
                 for r in range(N))


def mat_add(*ms):
    return tuple(tuple(sum((m[r][s] for m in ms if m[r][s]), ZERO)
                       for s in range(N)) for r in range(N))


def mat_scale(c, m):
    return tuple(tuple(c * v if v else ZERO for v in row) for row in m)


def mat_lincomb(terms):
    """sum c * m over the (c, m) pairs, skipping zero coefficients and entries."""
    out = [[ZERO] * N for _ in range(N)]
    for c, m in terms:
        if not c:
            continue
        for r in range(N):
            for s, v in enumerate(m[r]):
                if v:
                    out[r][s] = out[r][s] + c * v
    return tuple(tuple(row) for row in out)


def mat_sub(a, b):
    return tuple(tuple(x - y if y else x for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_mul(a, b):
    out = [[ZERO] * N for _ in range(N)]
    for r in range(N):
        for k, x in enumerate(a[r]):
            if not x:
                continue
            for s, y in enumerate(b[k]):
                if y:
                    out[r][s] = out[r][s] + x * y
    return tuple(tuple(row) for row in out)


def bracket(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def trace_form(a, b):
    """The invariant form (x, y) = tr(xy)/6 on 7x7 matrices."""
    t = sum((a[i][j] * b[j][i] for i in range(N) for j in range(N)
             if a[i][j] and b[j][i]), ZERO)
    return t * Fraction(1, 6)


def F(i, j):
    """so7 generator F_ij = e_ij - (-1)^{i+j} e_{8-j,8-i}."""
    sign = QSqrt2((-1) ** (i + j))
    return mat_sub(mat_unit(i, j), mat_unit(8 - j, 8 - i, sign))


@lru_cache(maxsize=None)
def chevalley_matrices():
    """(e1, e2, f1, f2, h1, h2) in the basis v1..v7 of the 7-dim module."""
    e1 = mat_add(mat_unit(2, 3), mat_unit(5, 6))
    f1 = mat_add(mat_unit(3, 2), mat_unit(6, 5))
    e2 = mat_add(mat_unit(1, 2), mat_unit(3, 4, SQRT2), mat_unit(4, 5, SQRT2),
                 mat_unit(6, 7))
    f2 = mat_add(mat_unit(2, 1), mat_unit(4, 3, SQRT2), mat_unit(5, 4, SQRT2),
                 mat_unit(7, 6))
    h1 = bracket(e1, f1)
    h2 = bracket(e2, f2)
    return e1, e2, f1, f2, h1, h2


@lru_cache(maxsize=None)
def g2_basis():
    """A 14-element basis of the image of g2 in so7 (from the matrix G)."""
    G = build_G()
    idx = [(2, 2), (3, 3)] + [(i, j) for i in (2, 3, 4, 7) for j in (2, 3, 4, 7)
                              if i != j]
    basis = [G[ij] for ij in idx]
    vecs = [[m[r][s] for r in range(N) for s in range(N)] for m in basis]
    if rank(vecs) != 14:
        raise AssertionError("the 14 designated G-entries are not independent")
    return tuple(basis)


@lru_cache(maxsize=None)
def build_G():
    """All 49 entries G_ij as 7x7 matrices, from the printed formulas, as a
    read-only mapping: the result is cached and shared by every caller."""
    half_sqrt2 = QSqrt2(0, Fraction(1, 2))  # 1/sqrt2
    G = {}
    for i in (2, 3, 7):
        for j in (2, 3, 7):
            if i != j:
                G[(i, j)] = mat_scale(QSqrt2(3), F(i, j))
    G[(2, 2)] = mat_sub(mat_scale(QSqrt2(2), F(2, 2)), mat_add(F(3, 3), F(7, 7)))
    G[(3, 3)] = mat_sub(mat_scale(QSqrt2(2), F(3, 3)), mat_add(F(2, 2), F(7, 7)))
    G[(7, 7)] = mat_sub(mat_scale(QSqrt2(2), F(7, 7)), mat_add(F(2, 2), F(3, 3)))
    G[(2, 4)] = mat_sub(mat_scale(QSqrt2(2), F(2, 4)), mat_scale(SQRT2, F(1, 3)))
    G[(3, 4)] = mat_add(mat_scale(QSqrt2(2), F(3, 4)), mat_scale(SQRT2, F(6, 7)))
    G[(7, 4)] = mat_sub(mat_scale(QSqrt2(2), F(7, 4)), mat_scale(SQRT2, F(5, 2)))
    G[(4, 2)] = mat_sub(mat_scale(QSqrt2(2), F(4, 2)), mat_scale(SQRT2, F(3, 1)))
    G[(4, 3)] = mat_add(mat_scale(QSqrt2(2), F(4, 3)), mat_scale(SQRT2, F(7, 6)))
    G[(4, 7)] = mat_sub(mat_scale(QSqrt2(2), F(4, 7)), mat_scale(SQRT2, F(2, 5)))
    # proportionality relations, e.g. G_24 = -sqrt2 G_13
    G[(1, 3)] = mat_scale(-half_sqrt2, G[(2, 4)])
    G[(6, 7)] = mat_scale(half_sqrt2, G[(3, 4)])
    G[(5, 2)] = mat_scale(-half_sqrt2, G[(7, 4)])
    G[(3, 1)] = mat_scale(-half_sqrt2, G[(4, 2)])
    G[(7, 6)] = mat_scale(half_sqrt2, G[(4, 3)])
    G[(2, 5)] = mat_scale(-half_sqrt2, G[(4, 7)])
    # close under G_ij + (-1)^{i+j} G_{8-j,8-i} = 0
    changed = True
    while changed:
        changed = False
        for i in range(1, 8):
            for j in range(1, 8):
                if (i, j) not in G and (8 - j, 8 - i) in G:
                    sign = QSqrt2(-((-1) ** (i + j)))
                    G[(i, j)] = mat_scale(sign, G[(8 - j, 8 - i)])
                    changed = True
    for i in range(1, 8):
        for j in range(1, 8):
            if (i, j) not in G:
                if i + j != 8:
                    raise AssertionError(f"entry G[{i},{j}] unreachable")
                G[(i, j)] = mat_zero()
    # consistency: skew relation holds everywhere
    for i in range(1, 8):
        for j in range(1, 8):
            sign = QSqrt2((-1) ** (i + j))
            if not mat_eq(mat_add(G[(i, j)], mat_scale(sign, G[(8 - j, 8 - i)])),
                          mat_zero()):
                raise AssertionError(f"skew relation fails at ({i},{j})")
    # consistency: the six printed proportionality relations
    for (lhs, rhs, s) in [((2, 4), (1, 3), -1), ((3, 4), (6, 7), 1),
                          ((7, 4), (5, 2), -1), ((4, 2), (3, 1), -1),
                          ((4, 3), (7, 6), 1), ((4, 7), (2, 5), -1)]:
        if not mat_eq(G[lhs], mat_scale(QSqrt2(s) * SQRT2, G[rhs])):
            raise AssertionError(f"proportionality G{lhs} = {s}*sqrt2*G{rhs} fails")
    return MappingProxyType(G)


def dual_basis_G():
    """G entries recomputed basis-independently: G_ij = sum_a (x_a)_ji x^a
    for dual bases of the trace form.  Cross-check for build_G:
    `verify.check_chevalley` compares its result with `build_G()` entry by
    entry on all 49 (i, j) and fails at the first entry that differs.  It
    yields the same Casimir since sum_ij G_ji (x) G_ij is symmetric in the
    convention."""
    basis = g2_basis()
    gram = [[trace_form(x, y) for y in basis] for x in basis]
    # invert the Gram matrix over Q(sqrt2)
    n = len(basis)
    aug = [list(gram[i]) + [ONE if j == i else ZERO for j in range(n)]
           for i in range(n)]
    from .linalg import rref
    red, piv = rref(aug)
    if piv != list(range(n)):
        raise AssertionError("trace form degenerate on g2 basis")
    inv = [row[n:] for row in red]
    dual = [mat_lincomb(zip(inv[a], basis)) for a in range(n)]
    G = {}
    for i in range(1, 8):
        for j in range(1, 8):
            G[(i, j)] = mat_lincomb((xa[j - 1][i - 1], xda)
                                    for xa, xda in zip(basis, dual))
    return G


def _nonzero_entries(m):
    return [(r, s, v) for r, row in enumerate(m) for s, v in enumerate(row) if v]


@lru_cache(maxsize=None)
def casimir_on_pair():
    """The 49x49 matrix of the Casimir on V_{omega2} (x) V_{omega2}: one sixth
    of the sum of the Kronecker products G_ji (x) G_ij, accumulated over the
    nonzero entries of the two factors only."""
    G = build_G()
    omega = [[ZERO] * 49 for _ in range(49)]
    for i in range(1, 8):
        for j in range(1, 8):
            b = _nonzero_entries(G[(i, j)])
            for r1, s1, x in _nonzero_entries(G[(j, i)]):
                for r2, s2, y in b:
                    r, s = N * r1 + r2, N * s1 + s2
                    omega[r][s] = omega[r][s] + x * y
    sixth = Fraction(1, 6)
    return tuple(tuple(sixth * v for v in row) for row in omega)


def casimir_eigenvalue(mu) -> Fraction:
    """c(mu) = (mu, mu + 2 rho) in the paper's normalization."""
    return rd.bilinear(mu, rd.add(mu, (2, 2)))


def casimir_blocks():
    """Mapping eigenvalue -> exact eigenspace dimension of the pair Casimir."""
    omega = [list(row) for row in casimir_on_pair()]
    out = {}
    for mu, mult in tensor_decompose(rd.OMEGA2, rd.OMEGA2).items():
        ev = (casimir_eigenvalue(mu) - 2 * casimir_eigenvalue(rd.OMEGA2)) / 2
        shifted = [[omega[i][j] - (ev if i == j else 0) for j in range(49)]
                   for i in range(49)]
        out[ev] = len(nullspace(shifted))
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
    """Freudenthal recursion: multiplicities of the dominant weights of V_lam."""
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
        total = Fraction(0)
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
        m = total / denom
        assert m.denominator == 1
        if m:
            mult[mu] = int(m)
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


def invariant_dim(weights) -> int:
    """Multiplicity of the trivial module in the tensor product."""
    return decompose_sequence(weights).get((0, 0), 0)


def hom_multiplicity(xi, weights) -> int:
    """dim Hom(V_xi, tensor of V_w for w in weights)."""
    return decompose_sequence(weights).get(xi, 0)
