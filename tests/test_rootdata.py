"""Root data of G2: roots, Weyl group, bilinear form, partitions."""

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


def test_weyl_group_order():
    W = rd.weyl_group()
    assert len(W) == 12
    signs = [w.sign() for w in W]
    assert signs.count(1) == 6 and signs.count(-1) == 6


def test_reflections_preserve_form():
    for i in (1, 2):
        for w in ((1, 0), (0, 1), (2, 3), (-1, 4)):
            assert rd.bilinear(rd.reflect(i, w), rd.reflect(i, w)) == \
                rd.bilinear(w, w)
        # involution
        assert rd.reflect(i, rd.reflect(i, (3, 5))) == (3, 5)


def test_dominant_chamber_roundtrip():
    for w in ((5, 2), (-3, 4), (2, -7), (-1, -1)):
        sigma, dom = rd.dominant_chamber(w)
        assert sigma(w) == dom
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
