"""Grassmannian calculus on 7-dimensional spaces of polynomials: space
Wronskians, divided Wronskians, dual spaces, the bilinear form kappa,
self-dual and self-self-dual verification, reduced Wronski map."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import bethe
from . import diffop
from . import rootdata as rd
from .exact import Poly, wronskian
from .linalg import nullspace, rank, solve

N = 7


def _flag_adapted(basis):
    """Echelon basis with strictly increasing degrees, monic."""
    out = []
    for p in sorted(basis, key=lambda q: q.degree):
        q = p
        changed = True
        while changed and not q.is_zero():
            changed = False
            for u in out:
                if u.degree == q.degree:
                    q = q - u * q.leading()  # u monic
                    changed = True
                    break
        if q.is_zero():
            raise ValueError("basis is linearly dependent")
        out.append(q.monic())
    out.sort(key=lambda p: p.degree)
    return tuple(out)


def _span_equal(polys_a, polys_b):
    d = max(max(p.degree for p in polys_a), max(p.degree for p in polys_b))
    rows = lambda ps: [[p[i] for i in range(d + 1)] for p in ps]
    ra = rank(rows(polys_a))
    rb = rank(rows(polys_b))
    rab = rank(rows(list(polys_a) + list(polys_b)))
    return ra == rb == rab


@dataclass(frozen=True)
class PolySpace:
    """A 7-dimensional space of polynomials, held by a basis."""
    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if len(self.basis) != N:
            raise ValueError(f"need {N} basis polynomials")
        object.__setattr__(self, "_flag", _flag_adapted(self.basis))

    @property
    def flag_basis(self):
        """Basis with strictly increasing degrees (adapted to the flag at
        infinity)."""
        return self._flag

    @property
    def degrees(self):
        return tuple(p.degree for p in self._flag)

    def coordinates(self, p: Poly):
        """Coordinates of p in the flag basis, or None."""
        d = max(self.degrees[-1], p.degree)
        A = [[u[i] for u in self._flag] for i in range(d + 1)]
        b = [p[i] for i in range(d + 1)]
        return solve(A, b)


@dataclass(frozen=True)
class RamificationData:
    """Marked points with partitions (7 parts each); T_i is the product of
    (x - z_s)^(lam_i - lam_{i+1}) over the finite points."""
    z: tuple
    partitions: tuple
    T: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(self.z))
        object.__setattr__(self, "partitions",
                           tuple(tuple(p) for p in self.partitions))
        if len(self.z) != len(self.partitions):
            raise ValueError("points / partitions length mismatch")
        for p in self.partitions:
            if len(p) != N or any(p[i] < p[i + 1] for i in range(N - 1)):
                raise ValueError(f"not a partition with {N} parts: {p}")
        T = []
        for i in range(N):
            t = Poly([Fraction(1)])
            for zs, p in zip(self.z, self.partitions):
                if zs == bethe.INF or zs == "inf":
                    continue
                nxt = p[i + 1] if i + 1 < N else 0
                t = t * Poly([-zs, 1]) ** (p[i] - nxt)
            T.append(t)
        object.__setattr__(self, "T", tuple(T))


def trivial_ramification() -> RamificationData:
    return RamificationData((), ())


def monomial_space() -> PolySpace:
    """Ker of the 7th derivative: polynomials of degree < 7."""
    return PolySpace(tuple(Poly([Fraction(0)] * k + [Fraction(1)])
                           for k in range(N)))


def space_wronskian(X: PolySpace) -> Poly:
    return wronskian(X.basis).monic()


def divided_wronskian(gs, R: RamificationData) -> Poly:
    """Wr(g_1..g_i) divided by prod_{j=1}^i T_{8-j}^{i+1-j}; errors if the
    division is inexact."""
    i = len(gs)
    w = wronskian(list(gs))
    for j in range(1, i + 1):
        t = R.T[N - j]
        if t.degree == 0:
            continue
        for _ in range(i + 1 - j):
            w = w.exact_div(t)
    return w


def dual_space(X: PolySpace, R: RamificationData) -> PolySpace:
    """Span of divided Wronskians of the 6-element subsets of a flag basis."""
    u = X.flag_basis
    duals = []
    for omit in range(N):
        gs = [u[j] for j in range(N) if j != omit]
        duals.append(divided_wronskian(gs, R))
    d = max(p.degree for p in duals)
    if rank([[p[i] for i in range(d + 1)] for p in duals]) != N:
        raise ValueError("dual Wronskians do not span a 7-dimensional space")
    return PolySpace(tuple(duals))


def _seventh_root(w: Poly) -> Poly:
    """Monic 7th root of a monic polynomial; errors if not a 7th power."""
    if w.is_zero() or w.degree % N:
        raise ValueError("not a 7th power")
    m = w.degree // N
    # reversed power series: determine root coefficients top-down
    s = [Fraction(1)] + [Fraction(0)] * m
    for k in range(1, m + 1):
        p = Poly(s) ** N
        s[k] = (w[w.degree - k] - p[k]) / N
    r = Poly(list(reversed(s)))
    if r ** N != w:
        raise ValueError("not a 7th power")
    return r


def reduced_wronski(X: PolySpace) -> Poly:
    """Monic 7th root of the space Wronskian."""
    return _seventh_root(space_wronskian(X))


def self_dual_factor(X: PolySpace, R: RamificationData):
    """The polynomial g with X = g * dual(X), or None."""
    Xd = dual_space(X, R)
    try:
        q = space_wronskian(X).exact_div(space_wronskian(Xd))
        g = _seventh_root(q.monic())
    except ValueError:
        return None
    if _span_equal([g * v for v in Xd.basis], list(X.basis)):
        return g
    return None


def is_self_dual(X: PolySpace, R: RamificationData) -> bool:
    # fast path: the T-symmetry T_i = T_{7-i} is necessary
    for i in range(1, N):
        if R.T[i - 1] != R.T[N - i - 1]:
            return False
    return self_dual_factor(X, R) is not None


def kappa_form(X: PolySpace, R: RamificationData):
    """Gram matrix of the form kappa on the flag basis of a pure self-dual
    space.  kappa(u, v) = Wr-dagger(u, g_1..g_6) whenever v is the divided
    Wronskian of g_1..g_6."""
    u = X.flag_basis
    w = [divided_wronskian([u[j] for j in range(N) if j != omit], R)
         for omit in range(N)]
    W7 = divided_wronskian(list(u), R)
    if W7.degree != 0:
        raise ValueError("top divided Wronskian is not constant; "
                         "space is not pure with the claimed data")
    w7 = W7[0]
    d = max(max(p.degree for p in w), u[-1].degree)
    A = [[w[j][i] for j in range(N)] for i in range(d + 1)]
    C = []
    for b in range(N):
        cb = solve(A, [u[b][i] for i in range(d + 1)])
        if cb is None:
            raise ValueError("space is not self-dual: basis element outside "
                             "the dual span")
        C.append(cb)
    # kappa(u_a, u_b) = sum_j C[b][j] * Wr-dagger(u_a, subset omitting j);
    # the term survives only for j = a, giving (-1)^a times the full one.
    gram = [[C[b][a] * (Fraction(-1) ** a) * w7 for b in range(N)]
            for a in range(N)]
    for a in range(N):
        for b in range(N):
            if gram[a][b] != gram[b][a]:
                raise ValueError("kappa form is not symmetric")
    if rank(gram) != N:
        raise ValueError("kappa form is degenerate")
    return gram


def y_from_basis(gamma, R: RamificationData):
    """The tuple (y_1, ..., y_6) with y_{7-i} the divided Wronskian of the
    first i elements of the ordered basis gamma."""
    ys = [None] * N
    for i in range(1, N):
        ys[N - i] = divided_wronskian(list(gamma[:i]), R)
    return tuple(ys[1:])


def ssd_witness_check(X: PolySpace, R: RamificationData, gamma) -> bool:
    """Test the pattern y1^2 = y6^2 = y3 = y4, y2 = y5 projectively for the
    ordered basis gamma; requires the T-pattern T1=T3=T4=T6, T2=T5."""
    T = R.T
    if not (T[0] == T[2] == T[3] == T[5] and T[1] == T[4]):
        return False
    y1, y2, y3, y4, y5, y6 = y_from_basis(gamma, R)
    if any(p.is_zero() for p in (y1, y2, y3, y4, y5, y6)):
        return False
    sq1 = (y1 * y1).monic()
    return (sq1 == (y6 * y6).monic() == y3.monic() == y4.monic()
            and y2.monic() == y5.monic())


def isotropic_definition_check(X: PolySpace, R: RamificationData,
                               f: Poly, U) -> bool:
    """f perpendicular to U, U kappa-isotropic, and Wr(U) = T1^2 T2 f^2 up
    to normalization."""
    gram = kappa_form(X, R)
    vecs = [f] + list(U)
    coords = []
    for p in vecs:
        c = X.coordinates(p)
        if c is None:
            return False
        coords.append(c)
    kappa = lambda a, b: sum(a[i] * gram[i][j] * b[j]
                             for i in range(N) for j in range(N))
    cf, cu = coords[0], coords[1:]
    if len(cu) != 3:
        return False
    for a in cu:
        if kappa(cf, a):
            return False
    for a in cu:
        for b in cu:
            if kappa(a, b):
                return False
    wr = wronskian(list(U))
    if wr.is_zero():
        return False
    target = R.T[0] ** 2 * R.T[1] * f * f
    return wr.monic() == target.monic()


def find_isotropic_witness(X: PolySpace, R: RamificationData, f: Poly):
    """Search for a 3-dimensional kappa-isotropic U with f perp U and
    Wr(U) = T1^2 T2 f^2, over echelon parametrizations of subspaces of the
    kappa-orthogonal complement of f.  Returns a basis or None."""
    import itertools
    import sympy

    gram = kappa_form(X, R)
    cf = X.coordinates(f)
    if cf is None:
        raise ValueError("f is not in the space")
    # basis of the orthogonal complement of f
    row = [sum(cf[i] * gram[i][j] for i in range(N)) for j in range(N)]
    perp = nullspace([row])
    flag = X.flag_basis
    wpolys = [sum((Poly([c]) * u for c, u in zip(v, flag)), Poly())
              for v in perp]
    target = (R.T[0] ** 2 * R.T[1] * f * f).monic()
    x = sympy.symbols("x")
    to_sym = lambda p: sympy.Poly([sympy.Rational(c) for c in
                                   reversed(p.coeffs)] or [0], x).as_expr()
    wsym = [to_sym(p) for p in wpolys]
    kap = [[sum(perp[a][i] * gram[i][j] * perp[b][j]
                for i in range(N) for j in range(N))
            for b in range(len(perp))] for a in range(len(perp))]
    m = len(perp)
    for pivots in itertools.combinations(range(m), 3):
        free = [j for j in range(m) if j not in pivots]
        params = sympy.symbols(f"c0:{3 * len(free)}")
        rows = []
        for k, pv in enumerate(pivots):
            coeff = [sympy.Integer(0)] * m
            coeff[pv] = sympy.Integer(1)
            for t, j in enumerate(free):
                coeff[j] = params[k * len(free) + t]
            rows.append(coeff)
        eqs = []
        for a in range(3):
            for b in range(a, 3):
                eqs.append(sympy.expand(sum(rows[a][i] * kap[i][j] * rows[b][j]
                                            for i in range(m)
                                            for j in range(m))))
        vs = [sum(rows[a][j] * wsym[j] for j in range(m)) for a in range(3)]
        wr = vs[0] * sympy.diff(vs[1], x) - vs[1] * sympy.diff(vs[0], x)
        wr = sympy.Matrix([[sympy.diff(v, x, k) for v in vs]
                           for k in range(3)]).det()
        tgt = to_sym(target)
        lead = sympy.symbols("c_lead")
        residual = sympy.expand(wr - lead * tgt)
        pol = sympy.Poly(residual, x)
        eqs.extend(pol.all_coeffs())
        sols = sympy.solve(eqs, list(params) + [lead], dict=True)
        for sol in sols:
            if sol.get(lead, 0) == 0:
                continue
            if any(v.free_symbols for v in sol.values()):
                sol = {k: (v.subs({s: 1 for s in v.free_symbols})
                           if v.free_symbols else v)
                       for k, v in sol.items()}
                if sol.get(lead, 0) == 0:
                    continue
            basis = []
            ok = True
            for a in range(3):
                coeff = []
                for j in range(m):
                    c = rows[a][j].subs(sol) if hasattr(rows[a][j], "subs") \
                        else rows[a][j]
                    if getattr(c, "free_symbols", None):
                        ok = False
                        break
                    coeff.append(Fraction(int(sympy.nsimplify(c).p),
                                          int(sympy.nsimplify(c).q))
                                 if not isinstance(c, int) else Fraction(c))
                if not ok:
                    break
                basis.append(sum((Poly([cc]) * p
                                  for cc, p in zip(coeff, wpolys)), Poly()))
            if not ok:
                continue
            if isotropic_definition_check(X, R, f, basis):
                return basis
    return None


def shift_space(X: PolySpace, z, k) -> PolySpace:
    """Multiply the space by prod (x - z_s)^{k_s}; negative k divides."""
    g = Poly([Fraction(1)])
    h = Poly([Fraction(1)])
    for zs, ks in zip(z, k):
        if zs == bethe.INF or zs == "inf" or ks == 0:
            continue
        if ks > 0:
            g = g * Poly([-zs, 1]) ** ks
        else:
            h = h * Poly([-zs, 1]) ** (-ks)
    basis = []
    for p in X.basis:
        q = p * g
        if h.degree:
            q = q.exact_div(h)
        basis.append(q)
    return PolySpace(tuple(basis))


def bethe_kernel_instance(lam, i):
    """(X, R, gamma) for the kernel of the operator of a closed-form case:
    the space, its ramification data at z = (0, 1), and the ordered basis
    from the factorization flag."""
    ker = diffop.kernel_for_case(lam, i)
    X = PolySpace(tuple(ker))
    R = RamificationData((Fraction(0), Fraction(1)),
                         (rd.partition_from_weight(lam, 0),
                          rd.partition_from_weight(rd.OMEGA2, 0)))
    y = bethe.appendix_solution(lam, i)
    T1, T2 = bethe.build_calT([lam, rd.OMEGA2], [Fraction(0), Fraction(1)])
    gamma = flag_from_factorization(ker, y, T1, T2)
    return X, R, gamma


def flag_from_factorization(kernel_basis, y: bethe.PolyPair,
                            T1: Poly, T2: Poly):
    """Ordered basis u_1..u_7 of the kernel with Wr(u_1..u_i) proportional
    to the product of the rightmost i factor functions."""
    y1, y2 = y.y1, y.y2
    W = (y1,
         T1 * y2,
         T1 ** 2 * T2 * y1 ** 2,
         T1 ** 4 * T2 ** 2 * y1 ** 2,
         T1 ** 7 * T2 ** 3 * y2,
         T1 ** 10 * T2 ** 5 * y1,
         T1 ** 14 * T2 ** 7)
    flag = []
    for i in range(N):
        wrs = [wronskian(flag + [b]) for b in kernel_basis]
        d = max(max(p.degree for p in wrs), W[i].degree)
        A = [[wrs[k][r] for k in range(N)] + [-W[i][r]]
             for r in range(d + 1)]
        picked = None
        for v in nullspace(A):
            if v[N]:
                picked = v
                break
        if picked is None:
            raise ValueError(f"no flag element at step {i + 1}")
        u = sum((Poly([picked[k]]) * kernel_basis[k] for k in range(N)),
                Poly())
        flag.append(u.monic())
    return tuple(flag)
