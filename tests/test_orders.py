from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from pe2ford.arrangement import enumerate_hemispheres
from pe2ford.errors import InvalidDiscriminant, OutOfScope
from pe2ford.ford import amalgam_rectangle, pe2_ford_faces, presentation, voronoi_cell
from pe2ford.moebius import gen_r
from pe2ford.orders import (
    KElem,
    OInt,
    dist_sq,
    lattice_points_within,
    lattice_points_norm_at_most,
    make_order,
    oints_by_norm,
)
from pe2ford.subgroups import coset_family, gap_points, n_generators, normalizer_witness
from pe2ford.words import R, membership, normal_form

DISCS = [-15, -16, -19, -20, -23, -24, -40]


def test_make_order_validates():
    for bad in (0, 4, -1, -2, -5, -6, -9, -10, -13):
        with pytest.raises(InvalidDiscriminant):
            make_order(bad)
    for good in DISCS + [-3, -4, -7, -8, -11, -12]:
        make_order(good)


def test_tau_square_even():
    d = make_order(-40)
    assert d.tau * d.tau == d.elt(-10)


def test_tau_square_odd():
    # t^2 = t - (1+|delta|)/4 when delta is odd
    d = make_order(-15)
    assert d.tau * d.tau == d.elt(-4, 1)


def test_norm_examples():
    assert make_order(-40).elt(1, 1).norm() == 11
    assert make_order(-15).elt(1, 1).norm() == 6
    assert make_order(-40).tau.norm() == 10


def test_conj():
    even = make_order(-40)
    assert even.tau.conj() == -even.tau
    odd = make_order(-15)
    assert odd.tau.conj() == odd.one - odd.tau


def test_norm_is_multiplicative():
    rng = random.Random(7)
    for delta in DISCS:
        d = make_order(delta)
        for _ in range(200):
            x = d.elt(rng.randint(-9, 9), rng.randint(-9, 9))
            y = d.elt(rng.randint(-9, 9), rng.randint(-9, 9))
            assert (x * y).norm() == x.norm() * y.norm()
            assert x * x.conj() == d.elt(x.norm())
            assert (x * y).conj() == x.conj() * y.conj()


def test_small_elements_norm_gap():
    # desk check: nothing of norm 2 or 3 exists once |delta| > 12
    for delta in range(-200, -12):
        if delta % 4 not in (0, 1):
            continue
        d = make_order(delta)
        for a in range(-20, 21):
            for b in range(-20, 21):
                x = d.elt(a, b)
                if x.is_small():
                    assert x.norm() in (0, 1)
                else:
                    assert x.norm() >= 4


def test_planar_matches_norm():
    rng = random.Random(3)
    for delta in DISCS:
        d = make_order(delta)
        for _ in range(100):
            x = d.elt(rng.randint(-8, 8), rng.randint(-8, 8))
            u, v = x.planar()
            assert u * u + d.abs_delta * v * v == x.norm()


def test_kelem_reduction_and_equality():
    d = make_order(-40)
    z = KElem.of(d.elt(1, 1), 2)
    assert z.den == 2 and z.num == d.elt(1, 1)
    # denominator gets rationalized to a positive integer
    w = KElem.of(d.elt(1, 1) * d.tau, d.elt(0, 2))
    assert w == z
    assert KElem.of(d.elt(-2), d.elt(-4)) == KElem.of(d.elt(1), 2)


def test_kelem_equality_is_cross_multiplication():
    rng = random.Random(11)
    for delta in DISCS:
        d = make_order(delta)
        for _ in range(150):
            lam1 = d.elt(rng.randint(-6, 6), rng.randint(-6, 6))
            mu1 = d.elt(rng.randint(-6, 6), rng.randint(-6, 6))
            lam2 = d.elt(rng.randint(-6, 6), rng.randint(-6, 6))
            mu2 = d.elt(rng.randint(-6, 6), rng.randint(-6, 6))
            if mu1.is_zero() or mu2.is_zero():
                continue
            z1 = KElem.of(lam1, mu1)
            z2 = KElem.of(lam2, mu2)
            assert (z1 == z2) == (lam1 * mu2 == lam2 * mu1)
            if z1 == z2:
                assert hash(z1) == hash(z2)


def test_kelem_field_ops():
    d = make_order(-15)
    z = KElem.of(d.elt(2, 3), 5)
    w = KElem.of(d.elt(-1, 1), 3)
    assert (z + w) - w == z
    assert (z * w) / w == z
    assert z + (-z) == KElem.of(d.zero, 1)
    assert (1 / w) * w == KElem.of(d.one, 1)
    with pytest.raises(ZeroDivisionError):
        z / KElem.of(d.zero, 1)


def test_dist_sq_deep_hole():
    d = make_order(-40)
    z = KElem.of(d.elt(1, 1), 2)
    assert dist_sq(z, d.zero) == Fraction(11, 4)
    assert dist_sq(z, d.elt(1)) == Fraction(11, 4)
    assert dist_sq(z, d.tau) == Fraction(11, 4)
    assert dist_sq(z, d.elt(1, 1)) == Fraction(11, 4)


def test_lattice_points_within_examples():
    for delta in DISCS:
        d = make_order(delta)
        pts = lattice_points_within(KElem.of(d.zero, 1), 1)
        assert pts == [-d.one, d.zero, d.one]
    d = make_order(-40)
    pts = lattice_points_within(KElem.of(d.one, 2), Fraction(1, 4))
    assert pts == [d.zero, d.one]


def _brute_points(z: KElem, rsq: Fraction) -> list[OInt]:
    d = z.order
    u, v = z.planar()
    span = int(math.isqrt(int(4 * rsq) + 4)) + 3
    out = []
    for b in range(math.floor(2 * v) - span, math.floor(2 * v) + span + 1):
        # row b holds a + b/2 in planar u for odd delta
        a0 = math.floor(u if d.even else u - Fraction(b, 2))
        for a in range(a0 - span, a0 + span + 1):
            g = d.elt(a, b)
            d2 = (z - g).abs_sq()
            if d2 <= rsq:
                out.append(g)
    return sorted(out, key=lambda g: g.key())


def _check_within(z: KElem, rsq: Fraction) -> list[OInt]:
    pts = lattice_points_within(z, rsq)
    assert pts == _brute_points(z, rsq)
    for g in pts:
        assert dist_sq(z, g) == (z - g).abs_sq()
    return pts


def test_lattice_points_within_matches_brute_force():
    rng = random.Random(19)
    for delta in DISCS:
        d = make_order(delta)
        for _ in range(40):
            num = d.elt(rng.randint(-10, 10), rng.randint(-10, 10))
            den = rng.randint(1, 6)
            z = KElem.of(num, den)
            rsq = Fraction(rng.randint(1, 40), rng.randint(1, 8))
            _check_within(z, rsq)
    # the edges of the row and column bounds: a disc whose boundary runs
    # through a lattice point, the zero disc, and far-off large denominators
    for delta in DISCS + [-7, -8]:
        d = make_order(delta)
        for _ in range(15):
            z = KElem.of(d.elt(rng.randint(-200, 200), rng.randint(-200, 200)), rng.randint(1, 60))
            u, v = z.planar()
            b = math.floor(2 * v) + rng.randint(-1, 1)
            g = d.elt(math.floor(u if d.even else u - Fraction(b, 2)) + rng.randint(-1, 1), b)
            rsq = (z - g).abs_sq()
            assert g in _check_within(z, rsq)
            _check_within(z, Fraction(0))


def test_lattice_points_norm_at_most():
    d = make_order(-40)
    pts = lattice_points_norm_at_most(d, 11)
    norms = sorted(g.norm() for g in pts)
    assert norms == [1, 1, 4, 4, 9, 9, 10, 10, 11, 11, 11, 11]


def test_oints_by_norm_groups():
    d = make_order(-40)
    gen = oints_by_norm(d)
    groups = [next(gen) for _ in range(5)]
    assert [g[0].norm() for g in groups] == [1, 4, 9, 10, 11]
    # the first 60 groups against a box scan grouped by norm and sorted here
    for delta in (-15, -40, -163):
        d = make_order(delta)
        gen = oints_by_norm(d)
        groups = [next(gen) for _ in range(60)]
        top = groups[-1][0].norm()
        span = 2 * math.isqrt(top) + 2
        brute: dict[int, list[OInt]] = {}
        for a in range(-span, span + 1):
            for b in range(-span, span + 1):
                g = d.elt(a, b)
                if 0 < g.norm() <= top:
                    brute.setdefault(g.norm(), []).append(g)
        assert groups == [sorted(brute[n], key=lambda g: g.key()) for n in sorted(brute)]


def test_covering_radius():
    assert make_order(-40).covering_radius_sq() == Fraction(11, 4)
    assert make_order(-15).covering_radius_sq() == Fraction(256, 240)
    # every random point has a lattice point within the covering radius
    rng = random.Random(5)
    for delta in DISCS:
        d = make_order(delta)
        cov = d.covering_radius_sq()
        for _ in range(60):
            z = KElem.of(d.elt(rng.randint(-8, 8), rng.randint(-8, 8)), rng.randint(1, 7))
            assert lattice_points_within(z, cov)


def test_scope_names_say_what_the_norms_say():
    # units_are_signs: norm 1 only at +-1; group_scope: no element of norm 2 or 3
    for delta in range(-3, -201, -1):
        if delta % 4 not in (0, 1):
            continue
        d = make_order(delta)
        norms = [d.elt(a, b).norm() for a in range(-4, 5) for b in range(-2, 3)]
        assert d.units_are_signs == (norms.count(1) == 2), delta
        assert d.group_scope == (2 not in norms and 3 not in norms), delta
    assert [make_order(x).group_scope for x in (-11, -12, -15, -16)] == [False, False, True, True]
    assert [make_order(x).units_are_signs for x in (-3, -4, -7, -8)] == [False, False, True, True]


# every library scope check: a call, the largest |delta| it refuses, its exact message
SCOPE_CALLS = [
    (lambda d: normal_form((R(),), d), -4, "normal forms need |delta| > 4"),
    (voronoi_cell, -4, "voronoi cell needs |delta| > 4"),
    (lambda d: membership(gen_r(d)), -12, "membership certificates need |delta| > 12"),
    (amalgam_rectangle, -12, "amalgam rectangle needs |delta| > 12"),
    (pe2_ford_faces, -12, "the one-hemisphere face list needs |delta| > 12"),
    (presentation, -12, "the three-relation presentation needs |delta| > 12"),
    (
        lambda d: enumerate_hemispheres(d, 4, amalgam_rectangle(make_order(-40))),
        -12,
        "hemisphere arrangement needs |delta| > 12",
    ),
    (lambda d: gap_points(d, 1), -12, "gap points need |delta| > 12"),
    (lambda d: coset_family(d, 1), -12, "coset families need |delta| > 12"),
    (lambda d: normalizer_witness(gen_r(d)), -12, "normalizer witnesses need |delta| > 12"),
    (n_generators, -12, "the subgroup N needs |delta| > 12"),
]


def test_every_scope_check_keeps_its_message():
    for call, delta, message in SCOPE_CALLS:
        with pytest.raises(OutOfScope) as info:
            call(make_order(delta))
        assert str(info.value) == message
