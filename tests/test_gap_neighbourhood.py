"""The gap neighbourhood read by membership and gap_check, against a box scan.

The box scan shares no formula with the lattice code it checks: it
walks a square of lattice coordinates and measures each point with
field arithmetic, (z - g).abs_sq().
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pe2ford.orders import KElem, make_order
from pe2ford.subgroups import gap_check, gap_points
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
    # in the subgroup is outside it; the descent ends NonMember or Inconclusive
    d = make_order(delta)
    g0 = gap_points(d, k + 1)[k].pair.completion.inv()
    w = random_pe2_word(d, seed, length=8, coeff_bound=3)
    results = [membership(g0), membership(g0 * word_to_matrix(w, d), 32)]
    assert isinstance(results[0], NonMember)
    for res in results:
        if isinstance(res, NonMember):
            assert list(res.nearby) == box_scan(res.ratio)
            assert gap_check(res.ratio) is not None


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    delta=st.sampled_from(DISCS),
    a=st.integers(-40, 40),
    b=st.integers(-40, 40),
    den=st.integers(1, 12),
)
def test_gap_check_is_the_box_scan(delta, a, b, den):
    d = make_order(delta)
    z = KElem.of(d.elt(a, b), den)
    scan = box_scan(z)
    least = min(d2 for _, d2 in scan)
    found = gap_check(z)
    assert (found is not None) == (least > 1)
    if found is not None:
        assert found == (least, tuple(g for g, _ in scan))
