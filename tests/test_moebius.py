from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pe2ford.moebius import (
    Hemisphere,
    Mat,
    Side,
    apply_interior,
    gen_r,
    gen_s,
    order_in_psl,
    outside_test,
)
from pe2ford.orders import KElem, OInt, kelem_from_planar, make_order

DISCS = [-15, -16, -19, -20, -23, -24, -40]


def random_word_matrix(d, rng, length=8, bound=3):
    g = Mat.identity(d)
    for _ in range(length):
        if rng.random() < 0.4:
            g = g * gen_r(d)
        else:
            g = g * gen_s(d.elt(rng.randint(-bound, bound), rng.randint(-bound, bound)))
    return g


def test_det_is_checked():
    d = make_order(-40)
    with pytest.raises(ValueError):
        Mat(d.one, d.zero, d.zero, d.elt(2))


def test_sign_canonical_equality():
    d = make_order(-40)
    g = gen_r(d) * gen_s(d.elt(3, 1))
    h = Mat(-g.m11, -g.m12, -g.m21, -g.m22)
    assert g == h
    assert hash(g) == hash(h)
    entry = next(e for e in g.entries() if not e.is_zero())
    assert entry.is_canonical_positive()


@pytest.mark.parametrize("delta", [-15, -40, -163])
def test_products_and_inverses_match_the_checked_constructor(delta):
    # products and inverses skip the determinant check; rebuilt through
    # Mat(...), from either sign, they must pass it with the same entries and hash
    d = make_order(delta)
    rng = random.Random(delta)
    for _ in range(100):
        g, h = random_word_matrix(d, rng), random_word_matrix(d, rng)
        for m in (g * h, g.inv(), h.inv() * g):
            entries = m.entries()
            for rebuilt in (Mat(*entries), Mat(*(-e for e in entries))):
                assert rebuilt.entries() == entries
                assert rebuilt == m and hash(rebuilt) == hash(m)


def test_group_axioms_random():
    rng = random.Random(23)
    for delta in DISCS:
        d = make_order(delta)
        ident = Mat.identity(d)
        for _ in range(60):
            g = random_word_matrix(d, rng)
            h = random_word_matrix(d, rng)
            k = random_word_matrix(d, rng)
            assert (g * h) * k == g * (h * k)
            assert g * g.inv() == ident
            assert g.inv() * g == ident


def test_rs1_has_order_three():
    for delta in DISCS:
        d = make_order(delta)
        g = gen_r(d) * gen_s(d.one)
        assert order_in_psl(g) == 3
        assert order_in_psl(gen_r(d)) == 2
        assert order_in_psl(gen_s(d.tau)) is None


def test_left_shift_moves_hemisphere_rigidly():
    # the hemisphere of g, shifted by a, is the hemisphere of g*s(-a)
    rng = random.Random(31)
    for delta in DISCS:
        d = make_order(delta)
        for _ in range(40):
            g = random_word_matrix(d, rng)
            if g.fixes_infinity():
                continue
            a = d.elt(rng.randint(-4, 4), rng.randint(-4, 4))
            moved, base = g * gen_s(-a), g
            # the isometric hemisphere of g sits at -m22/m21 with squared radius 1/norm(m21)
            assert moved.m21.norm() == base.m21.norm()
            assert KElem.of(-moved.m22, moved.m21) == KElem.of(-base.m22, base.m21) + a


def test_outside_test_deep_hole():
    d = make_order(-40)
    z = KElem.of(d.elt(1, 1), 2)
    assert outside_test(gen_r(d), z) == Side.OUTSIDE
    assert outside_test(gen_r(d), KElem.of(d.one, 1)) == Side.ON
    assert outside_test(gen_r(d), KElem.of(d.one, 2)) == Side.INSIDE


def test_apply_interior_matches_height_formula():
    rng = random.Random(43)
    for delta in (-40, -15):
        d = make_order(delta)
        for _ in range(30):
            g = random_word_matrix(d, rng)
            zeta = KElem.of(d.elt(rng.randint(-4, 4), rng.randint(-4, 4)), rng.randint(1, 4))
            tsq = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            z2, t2 = apply_interior(g, zeta, tsq)
            # t^2 = tsq / (|alpha - beta*zeta|^2 + N(beta)*tsq)^2, exactly
            alpha, beta = KElem.of(g.alpha, 1), KElem.of(g.beta, 1)
            denom = (alpha - beta * zeta).abs_sq() + g.beta.norm() * tsq
            assert t2 == tsq / (denom * denom)
            # exact action composes
            h = random_word_matrix(d, rng)
            za, ta = apply_interior(h, z2, t2)
            zb, tb = apply_interior(h * g, zeta, tsq)
            assert za == zb and ta == tb


def test_apply_interior_isometric_sphere_preserves_height():
    # on the isometric sphere |alpha - beta*zeta|^2 + |beta|^2 t^2 = 1 the height is kept
    d = make_order(-40)
    g = gen_r(d)
    zeta = KElem.of(d.one, 2)
    tsq = 1 - (zeta - d.zero).abs_sq()  # on the unit sphere over 0
    _, t2 = apply_interior(g, zeta, tsq)
    assert t2 == tsq



@pytest.mark.parametrize("delta", DISCS)
def test_hemisphere_hash_is_its_disc(delta):
    # one point built two ways, from an unreduced KElem.of and from its planar
    # coordinates, with its radius^2 from unreduced Fractions: equal, hash equal, one in a set
    d = make_order(delta)
    rng = random.Random(delta)
    for _ in range(20):
        a, b, q, k = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9), rng.randint(2, 5)
        rsq = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        z = KElem.of(OInt(d, k * a, k * b), k * q)
        h = Hemisphere(z, Fraction(k * rsq.numerator, k * rsq.denominator))
        g = Hemisphere(kelem_from_planar(d, *z.planar()), rsq)
        assert h == g and hash(h) == hash(g) == hash(h.disc)
        assert len({h, g}) == 1 and {h: 1}[g] == 1
        other = Hemisphere(z, rsq + 1)  # the same center, another radius
        assert other != h and len({h, g, other}) == 2
