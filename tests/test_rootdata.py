"""Root data of G2: roots, Weyl orbits and signs, bilinear form,
partitions."""

from fractions import Fraction

import pytest

from g2gaudin import rootdata as rd


def test_cartan_and_roots():
    assert rd.CARTAN == ((2, -1), (-3, 2))
    assert len(rd.POSITIVE_ROOTS) == 6
    assert rd.to_alpha(rd.ALPHA1) == (1, 0)
    assert rd.to_alpha(rd.ALPHA2) == (0, 1)
    assert rd.add(rd.OMEGA1, rd.OMEGA2) == rd.RHO


def test_bilinear_form():
    assert rd.bilinear(rd.ALPHA1, rd.ALPHA1) == 6
    assert rd.bilinear(rd.ALPHA2, rd.ALPHA2) == 2
    assert rd.bilinear(rd.ALPHA1, rd.ALPHA2) == -3
    # symmetric
    for u in rd.POSITIVE_ROOTS:
        for v in rd.POSITIVE_ROOTS:
            au, av = rd.from_alpha(*u), rd.from_alpha(*v)
            assert rd.bilinear(au, av) == rd.bilinear(av, au)


def _weyl_group():
    """The 12 elements of W as integer matrices (columns: images of omega1
    and omega2), generated from the two simple reflections."""
    gens = [tuple(zip(*(rd.reflect(i, e) for e in (rd.OMEGA1, rd.OMEGA2))))
            for i in (1, 2)]
    mul = lambda a, b: tuple(tuple(sum(a[r][k] * b[k][c] for k in range(2))
                                   for c in range(2)) for r in range(2))
    group, frontier = {((1, 0), (0, 1))}, [((1, 0), (0, 1))]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = mul(s, g)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group


def _act(g, w):
    return tuple(g[r][0] * w[0] + g[r][1] * w[1] for r in range(2))


def _det(g):
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def test_weyl_group_order():
    orbit = rd.weyl_orbit(rd.RHO)
    assert len(orbit) == 12 and len(_weyl_group()) == 12
    signs = [rd.dominant_chamber(w)[0] for w in orbit]
    assert signs.count(1) == 6 and signs.count(-1) == 6


def test_orbit_sign_and_image_match_the_group():
    """On [-6, 6]^2: the orbit is {g(w) : g in W}, and the sign and image of
    dominant_chamber are det g and g(w) for the g in W with g(w) dominant."""
    group = _weyl_group()
    for a in range(-6, 7):
        for b in range(-6, 7):
            w = (a, b)
            assert rd.weyl_orbit(w) == {_act(g, w) for g in group}
            sign, dom = rd.dominant_chamber(w)
            assert sign in {_det(g) for g in group if _act(g, w) == dom}
            assert rd.is_dominant(dom)


def test_reflections_preserve_form():
    for i in (1, 2):
        for w in ((1, 0), (0, 1), (2, 3), (-1, 4)):
            assert rd.bilinear(rd.reflect(i, w), rd.reflect(i, w)) == \
                rd.bilinear(w, w)
        # involution
        assert rd.reflect(i, rd.reflect(i, (3, 5))) == (3, 5)


def test_dominant_chamber_roundtrip():
    for w in ((5, 2), (-3, 4), (2, -7), (-1, -1)):
        _, dom = rd.dominant_chamber(w)
        assert dom in rd.weyl_orbit(w)
        assert dom[0] >= 0 and dom[1] >= 0


def test_shifted_action():
    # s_i . lam = s_i(lam + rho) - rho
    lam = (2, 1)
    for word in ((1,), (2,), (2, 1), (1, 2, 1)):
        got = rd.shifted_action_word(word, lam)
        manual = rd.add(lam, rd.RHO)
        for i in reversed(word):
            manual = rd.reflect(i, manual)
        assert got == rd.sub(manual, rd.RHO)


def test_partitions():
    assert rd.partition_from_weight((0, 1), 0) == (2, 2, 1, 1, 1, 0, 0)
    assert rd.partition_from_weight((1, 0), 0) == (4, 3, 3, 2, 1, 1, 0)
    assert rd.partition_from_weight((0, 0), 1) == (1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        rd.partition_from_weight((-1, 0), 0)
    with pytest.raises(ValueError):
        rd.partition_from_weight((0, 1), -1)


def test_pair_size_matches_partition():
    for mu in ((0, 0), (0, 1), (1, 0), (2, 3)):
        for k in (0, 1, 2):
            p = rd.partition_from_weight(mu, k)
            assert sum(p) == 7 * rd.pair_size(mu, k)
