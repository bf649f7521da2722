"""Exact power-cell classification against a brute-force grid oracle.

The grid only ever finds real points, so each verdict it reaches must
also be an exact one; on a fine enough grid the two agree.  The oracle
here shares no code with the classification it checks.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pe2ford.arrangement import (
    Contributes,
    envelope_dips_below,
    enumerate_hemispheres,
    face_statuses,
    plane_split,
)
from pe2ford.ford import amalgam_rectangle
from pe2ford.orders import make_order

TWO_THIRDS = Fraction(2, 3)


def _grid_points(h, pitch):
    """Grid of the pitch anchored at h's center, inside its open disc, as (u, v, height^2)."""
    n = h.center.order.abs_delta
    cu, cv = h.center.planar()
    out = []
    i = 0
    while (i * pitch) ** 2 < h.radius_sq:
        j = 0
        while (i * pitch) ** 2 + n * (j * pitch) ** 2 < h.radius_sq:
            hh = h.radius_sq - (i * pitch) ** 2 - n * (j * pitch) ** 2
            for si in {i, -i}:
                for sj in {j, -j}:
                    out.append((cu + si * pitch, cv + sj * pitch, hh))
            j += 1
        i += 1
    return out


def _overlapping(h, k, n):
    (hu, hv), (ku, kv) = h.center.planar(), k.center.planar()
    gap = (hu - ku) ** 2 + n * (hv - kv) ** 2 - h.radius_sq - k.radius_sq
    return gap < 0 or gap * gap < 4 * h.radius_sq * k.radius_sq


def grid_verdicts(hs, pitch, t0):
    """(contributes, above, below) per hemisphere from the grid points where it is strictly on top."""
    n = hs.order.abs_delta
    t0sq = t0 * t0
    out = []
    for h in hs.hemispheres:
        others = [k for k in hs.hemispheres if k is not h and _overlapping(h, k, n)]
        rivals = [(k.radius_sq, *k.center.planar()) for k in others]
        top = [
            hh
            for u, v, hh in _grid_points(h, pitch)
            if all(rsq - (u - ku) ** 2 - n * (v - kv) ** 2 < hh for rsq, ku, kv in rivals)
        ]
        out.append((bool(top), any(hh > t0sq for hh in top), any(hh < t0sq for hh in top)))
    return out


def _window_edges(hs):
    """The window's edges as (start, end) pairs, counterclockwise."""
    vs = hs.window.vertices
    return list(zip(vs, vs[1:] + vs[:1]))


def grid_wall_dips(hs, pitch, t0):
    """Per window edge: whether a sample of the pitch has its envelope under t0."""
    n = hs.order.abs_delta
    discs = [(h.radius_sq, *h.center.planar()) for h in hs.hemispheres]
    out = []
    for (au, av), (bu, bv) in _window_edges(hs):
        steps = int(max(abs(bu - au), abs(bv - av)) / pitch)
        dips = False
        for k in range(steps + 1):
            u, v = au + (bu - au) * k / steps, av + (bv - av) * k / steps
            envelope = max([Fraction(0)] + [rsq - (u - cu) ** 2 - n * (v - cv) ** 2 for rsq, cu, cv in discs])
            dips = dips or envelope < t0 * t0
        out.append(dips)
    return out


def exact_verdicts(hs, t0):
    statuses = face_statuses(hs)
    above, below = plane_split(hs, statuses, t0)
    return [(isinstance(s, Contributes), h in above, h in below) for h, s in zip(hs.hemispheres, statuses)]


def exact_wall_dips(hs, t0):
    return [envelope_dips_below(hs, a, b, t0) for a, b in _window_edges(hs)]


@functools.cache
def _rect_set(delta, bound):
    order = make_order(delta)
    return enumerate_hemispheres(order, bound, amalgam_rectangle(order))


def _implies(grid, exact):
    return all(not g or e for g, e in zip(grid, exact))


@pytest.mark.parametrize("delta", [-15, -20, -24, -39, -43])
def test_grid_verdicts_are_exact_verdicts(delta):
    hs = _rect_set(delta, 8)
    pitch = Fraction(1, 16)
    exact = exact_verdicts(hs, TWO_THIRDS)
    for h, grid, ex in zip(hs.hemispheres, grid_verdicts(hs, pitch, TWO_THIRDS), exact):
        assert _implies(grid, ex), (str(h.center), h.radius_sq, grid, ex)
    assert _implies(grid_wall_dips(hs, pitch, TWO_THIRDS), exact_wall_dips(hs, TWO_THIRDS))


def test_fine_grid_matches_exactly():
    hs = _rect_set(-43, 8)
    pitch = Fraction(1, 64)
    assert grid_verdicts(hs, pitch, TWO_THIRDS) == exact_verdicts(hs, TWO_THIRDS)
    assert grid_wall_dips(hs, pitch, TWO_THIRDS) == exact_wall_dips(hs, TWO_THIRDS)


DISCS = [-m for m in range(13, 200) if m % 4 in (0, 3)]


@st.composite
def planes(draw):
    q = draw(st.integers(1, 12))
    return Fraction(draw(st.integers(1, 3 * q // 2)), q)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(delta=st.sampled_from(DISCS), bound=st.integers(1, 6), t0=planes())
def test_power_cells_against_grid(delta, bound, t0):
    hs = _rect_set(delta, bound)
    statuses = face_statuses(hs)
    for h, s in zip(hs.hemispheres, statuses):
        if isinstance(s, Contributes):
            # radius^2 - |witness - center|^2: h strictly highest there
            mine = h.radius_sq - (s.witness - h.center).abs_sq()
            assert mine > 0
            assert all(k.radius_sq - (s.witness - k.center).abs_sq() < mine for k in hs.hemispheres if k is not h)
    pitch = Fraction(1, 16)
    for grid, ex in zip(grid_verdicts(hs, pitch, t0), exact_verdicts(hs, t0)):
        assert _implies(grid, ex)
    assert _implies(grid_wall_dips(hs, pitch, t0), exact_wall_dips(hs, t0))
