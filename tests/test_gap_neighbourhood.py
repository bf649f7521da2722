"""The nearest lattice point, gap neighbourhood, membership certificates and gap stream, against box scans.

The box scans share no formula with the lattice code they check: they
walk a box of lattice coordinates and measure each point with field
arithmetic, (z - g).abs_sq(), and read the band off planar().  The gap
strip is checked against band_stream, the pair scan over the whole band.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pe2ford import subgroups
from pe2ford.arrangement import is_unimodular, pair_scan
from pe2ford.orders import KElem, gap_neighbourhood, lattice_rows, make_order, nearest_lattice_point
from pe2ford.subgroups import _gap_stream, gap_check, gap_points
from pe2ford.words import NonMember, membership, random_pe2_word, word_to_matrix

DISCS = [-m for m in range(13, 200) if m % 4 in (0, 3)]


def box_scan(z: KElem) -> list:
    """(g, |z - g|^2) for every lattice point g within covering_radius^2 + 1 of z, by key()."""
    d = z.order
    reach = d.covering_radius_sq() + 1
    u, v = z.planar()
    span = math.isqrt(math.ceil(4 * reach)) + 2
    out = []
    for b in range(math.floor(2 * v) - span, math.floor(2 * v) + span + 1):
        a0 = math.floor(u if d.even else u - Fraction(b, 2))
        for a in range(a0 - span, a0 + span + 1):
            g = d.elt(a, b)
            d2 = (z - g).abs_sq()
            if d2 <= reach:
                out.append((g, d2))
    return sorted(out, key=lambda gd: gd[0].key())


@settings(max_examples=12, derandomize=True, deadline=None)
@given(delta=st.sampled_from(DISCS), k=st.integers(0, 3), seed=st.integers(0, 10**6))
def test_non_member_nearby_is_the_box_scan(delta, k, seed):
    # g0 is the inverse completion of a gap point, so every g0 * w with w
    # in the subgroup is outside it; the box scan re-checks each
    # refutation's certificate: s > 1 and no lattice point within 1 - 1/s^2 of its point
    d = make_order(delta)
    g0 = gap_points(d, k + 1)[k].pair.completion.inv()
    w = random_pe2_word(d, seed, length=8, coeff_bound=3)
    for res in (membership(g0), membership(g0 * word_to_matrix(w, d))):
        assert isinstance(res, NonMember)
        assert list(res.nearby) == box_scan(res.ratio)
        assert res.s > 1
        assert min(d2 for _, d2 in box_scan(res.point)) >= 1 - Fraction(1, res.s**2)


# ten orders in group scope, dense and sparse, even and odd
THEOREM_DISCS = [-15, -19, -20, -23, -24, -40, -43, -67, -84, -163]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(delta=st.sampled_from(THEOREM_DISCS), seed=st.integers(0, 10**6))
def test_isometric_spheres_lie_under_the_ford_domain(delta, seed):
    # the theorem that both certificate kinds rest on: every element g of
    # the subgroup with m21 != 0 has its isometric sphere, of squared
    # radius 1/norm(m21) about -m22/m21, under some unit hemisphere at a
    # lattice point, min_c |-m22/m21 - c|^2 + 1/norm(m21) <= 1.  Checked on
    # every prefix of a word and its inverse, with the box scan as oracle.
    d = make_order(delta)
    w = random_pe2_word(d, seed, length=12, coeff_bound=3)
    for k in range(1, len(w) + 1):
        h = word_to_matrix(w[:k], d)
        for g in (h, h.inv()):
            if g.m21.is_zero():
                continue
            least = min(d2 for _, d2 in box_scan(KElem.of(g.m22, -g.m21)))
            assert least + Fraction(1, g.m21.norm()) <= 1


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    delta=st.sampled_from(DISCS),
    a=st.integers(-40, 40),
    b=st.integers(-40, 40),
    den=st.integers(1, 12),
)
# ties: z = 1/2 is as near 0 as 1, and must give 0, at an even and an odd
# order; z = t/2 at -15 is as near 0 as t, in the next row
@example(delta=-40, a=1, b=0, den=2)
@example(delta=-15, a=1, b=0, den=2)
@example(delta=-15, a=0, b=1, den=2)
def test_gap_check_is_the_box_scan(delta, a, b, den):
    d = make_order(delta)
    z = KElem.of(d.elt(a, b), den)
    # min keeps the first of equals, so over the key()-ordered scan it is the key()-first nearest point
    g, least = min(box_scan(z), key=lambda gd: gd[1])
    dist, ga, gb = nearest_lattice_point(d, z.num.a, z.num.b, z.den)
    assert (d.elt(ga, gb), Fraction(dist, z.den**2)) == (g, least)
    assert gap_check(z) == (least if least > 1 else None)


def _norm_box(d, bound):
    """Every a + b*t of norm <= bound, by key(): |b| <= 2*sqrt(bound/|delta|), |a + e*b/2| <= sqrt(bound)."""
    s = math.isqrt(bound) + 1
    sb = math.isqrt(4 * bound // d.abs_delta) + 1
    box = [d.elt(a, b) for b in range(-sb, sb + 1) for a in range(-s - sb, s + sb + 1)]
    return [g for g in box if g.norm() <= bound]


def _meets_unit_disc(z):
    """Whether some lattice point lies within closed distance 1 of z.

    Such a point a + b*t has |b/2 - v| <= 1/sqrt(|delta|) < 1/2 and
    |a + e*b/2 - u| <= 1, which leaves two rows of four.
    """
    d = z.order
    u, v = z.planar()
    for b in (math.floor(2 * v), math.floor(2 * v) + 1):
        a0 = math.floor(u if d.even else u - Fraction(b, 2))
        if any((z - d.elt(a, b)).abs_sq() <= 1 for a in range(a0 - 1, a0 + 3)):
            return True
    return False


def brute_gap_points(d, count, mu_bound):
    """(lam, mu, min_dist_sq, checked) of the first count gap points with norm(mu) <= mu_bound.

    mu canonical-positive by (norm, key()), lam by key(), ratio in the
    band u in [0, 1), v in [0, 1/2), clear of every closed unit disc,
    unimodular, and not seen before.
    """
    half = Fraction(1, 2)
    mus = [g for g in _norm_box(d, mu_bound) if g.b > 0 or (g.b == 0 and g.a > 0)]
    out, seen = [], set()
    for mu in sorted(mus, key=lambda g: (g.norm(), g.b, g.a)):
        # a band ratio has |z|^2 = u^2 + |delta| v^2 < 1 + |delta|/4
        for lam in _norm_box(d, (4 + d.abs_delta) * mu.norm() // 4):
            z = KElem.of(lam, mu)
            u, v = z.planar()
            if not (0 <= u < 1 and 0 <= v < half) or z in seen:
                continue
            if _meets_unit_disc(z) or is_unimodular(lam, mu) is None:
                continue
            seen.add(z)
            scan = box_scan(z)
            out.append((lam, mu, min(d2 for _, d2 in scan), tuple(g for g, _ in scan)))
            if len(out) == count:
                return out
    raise AssertionError(f"fewer than {count} gap points with norm(mu) <= {mu_bound}")


@pytest.mark.parametrize("delta, mu_bound", [(-15, 160), (-20, 50), (-23, 50), (-31, 40), (-40, 30), (-163, 40)])
def test_gap_points_are_the_brute_force_stream(delta, mu_bound, printed_checked):
    # the library's stream, and the lattice points the CLI prints under `checked`
    d = make_order(delta)
    checked = printed_checked(delta, 40)
    got = [(gp.pair.lam, gp.pair.mu, gp.min_dist_sq, c) for gp, c in zip(gap_points(d, 40), checked, strict=True)]
    assert got == brute_gap_points(d, 40, mu_bound)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(delta=st.sampled_from(DISCS + [-100003, -100000000003]), a=st.integers(-60, 60), b=st.integers(-60, 60), s=st.integers(1, 40))
def test_gap_neighbourhood_size_is_the_list_length(delta, a, b, s):
    # the summed widths of the rows, against the list itself and, at small |delta|, the box scan
    order = make_order(delta)
    z = KElem.of(order.elt(a, b), s)
    size = sum(hi - lo + 1 for _, lo, hi in lattice_rows(order, z.num.a, z.num.b, z.den, order.gap_reach()))
    assert size == len(gap_neighbourhood(z))
    if -delta < 200:
        assert size == len(box_scan(z))


def band_stream(d, tests: list):
    """(lam, mu, min_dist_sq) of the gap points over the whole closed band [0, 1] x [0, 1/2]: the stream as it read before the strip.

    The pairs come from pair_scan over the band, in its order; each ratio
    (xa + xb*t)/N in the half-open band u in [0, 1), v in [0, 1/2) is
    appended to tests and gets the gap rule, whose numerator d gives
    min_dist_sq = d/N^2.
    """
    e = d.trace
    for a, b, c, dd, xa, xb, norm in pair_scan(d, lambda norm: (2, 0, 2, 0, 1)):
        if 0 <= 2 * xa + e * xb < 2 * norm and 0 <= xb < norm:
            tests.append((xa, xb, norm))
            dist = subgroups._gap_dist(d, xa, xb, norm)
            if dist is not None:
                yield d.elt(a, b), d.elt(c, dd), Fraction(dist, norm * norm)


@pytest.mark.parametrize("delta", [-15, -19, -20, -23, -24, -31, -40, -43, -163, -1003, -100000000003])
def test_gap_stream_on_the_strip_is_the_band_stream(delta):
    # the strip leaves out only band ratios within 1 of row 0 or of the tau row,
    # so the first 2,000 points and their order are the band's
    d = make_order(delta)
    got = [(gp.pair.lam, gp.pair.mu, gp.min_dist_sq) for gp in itertools.islice(_gap_stream(d), 2000)]
    assert got == list(itertools.islice(band_stream(d, []), 2000))


def test_gap_stream_tests_only_the_strip(monkeypatch):
    # the first 200 points at -20: the band reference makes 1,401 gap tests, the strip at most 398
    d = make_order(-20)
    band_tests: list = []
    want = list(itertools.islice(band_stream(d, band_tests), 200))
    calls = []
    gap_dist = subgroups._gap_dist
    monkeypatch.setattr(subgroups, "_gap_dist", lambda *args: calls.append(args) or gap_dist(*args))
    assert [(gp.pair.lam, gp.pair.mu, gp.min_dist_sq) for gp in gap_points(d, 200)] == want
    assert len(band_tests) == 1401
    assert len(calls) <= 398
