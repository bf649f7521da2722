"""Unimodular pairs, hemisphere enumeration, face certificates, plane split."""

import dataclasses
import functools
import itertools
import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pe2ford.arrangement import (
    _STROKE_ABOVE,
    _STROKE_BELOW,
    _STROKE_BOTH,
    _STROKE_NONE,
    Contributes,
    Covered,
    HemiSet,
    UnimodularPair,
    _one_in_span,
    enumerate_hemispheres,
    envelope_dips_below,
    face_status,
    face_statuses,
    is_unimodular,
    pair_scan,
    plane_split,
    svg_topview,
    unit_ideal,
)
from pe2ford import arrangement
from pe2ford.cells import (
    _BOX_SCALE,
    bisector,
    box_dist_sq_int,
    box_of,
    box_rivals,
    cell_frame,
    cell_square,
    clip,
    dist_sq_int,
    frame_of,
)
from pe2ford.errors import OutOfScope
from pe2ford.ford import amalgam_rectangle, voronoi_cell
from pe2ford.moebius import Hemisphere, Mat
from pe2ford.orders import (
    KElem,
    OInt,
    kelem_from_planar,
    kelem_from_planar_int,
    lattice_points_norm_at_most,
    lattice_points_within,
    make_order,
)
from pe2ford.subgroups import _gap_strip, gap_points
from pe2ford.words import Member, membership


def _unimodular_oracle(lam, mu):
    # index of the row lattice equals the gcd of its 2x2 minors
    order = lam.order
    rows = [(g.a, g.b) for g in (lam, lam * order.tau, mu, mu * order.tau)]
    g = 0
    for (xa, xb), (ya, yb) in itertools.combinations(rows, 2):
        g = math.gcd(g, xa * yb - xb * ya)
    return g == 1


def _pairs(hs):
    # the pair of each hemisphere, built from its owner row (lam.a, lam.b, mu.a, mu.b)
    return tuple(UnimodularPair(OInt(hs.order, la, lb), OInt(hs.order, ma, mb)) for la, lb, ma, mb in hs.owners)


def test_is_unimodular_unit_pairs():
    order = make_order(-40)
    assert is_unimodular(order.one, order.zero) == Mat.identity(order)
    m = is_unimodular(order.zero, order.one)
    assert m is not None and (m.m11, m.m21) in {(order.zero, order.one), (order.zero, -order.one)}
    assert is_unimodular(order.tau, order.zero) is None
    assert is_unimodular(order.elt(2), order.zero) is None


def test_is_unimodular_rejects_zero_pair():
    order = make_order(-40)
    with pytest.raises(ValueError):
        is_unimodular(order.zero, order.zero)


def test_gap_pair_completion():
    order = make_order(-40)
    lam, mu = order.elt(1, 1), order.elt(2)
    m = is_unimodular(lam, mu)
    assert m is not None
    assert (m.m11, m.m21) in {(lam, mu), (-lam, -mu)}
    # a hand-checked completion of the same pair; the two must agree up
    # to a right shift (unit upper-triangular quotient)
    other = Mat(lam, order.elt(5), mu, order.elt(1, -1))
    q = m.inv() * other
    assert q.m21.is_zero() and q.m11 == order.one


def test_two_tau_is_not_unimodular():
    order = make_order(-40)
    assert is_unimodular(order.elt(2), order.tau) is None
    assert not _unimodular_oracle(order.elt(2), order.tau)


def _random_pairs(delta):
    """300 seeded draws of small (lam, mu), less the zero pair."""
    order = make_order(delta)
    rng = random.Random(delta)
    for _ in range(300):
        lam = order.elt(rng.randint(-6, 6), rng.randint(-3, 3))
        mu = order.elt(rng.randint(-6, 6), rng.randint(-3, 3))
        if not (lam.is_zero() and mu.is_zero()):
            yield lam, mu


@pytest.mark.parametrize("delta", [-3, -4, -7, -8, -11, -12, -15, -20, -40, -163, -1003])
def test_is_unimodular_matches_minor_gcd_oracle(delta):
    # unit_ideal reads four integers, N(lam), N(mu) and lam*conj(mu); the oracle, all six minors
    for lam, mu in _random_pairs(delta):
        x = lam * mu.conj()
        assert unit_ideal(lam.norm(), mu.norm(), x.a, x.b) == _unimodular_oracle(lam, mu)
        m = is_unimodular(lam, mu)
        assert (m is not None) == _unimodular_oracle(lam, mu)
        if m is not None:
            assert (m.m11, m.m21) in {(lam, mu), (-lam, -mu)}
            assert is_unimodular(lam, mu) == m


def _oint_one_in_span(lam, mu):
    """The column echelon on rows built with OInt products: the reference _one_in_span must match entry for entry."""
    order = lam.order
    rows = []
    for i, g in enumerate((lam, lam * order.tau, mu, mu * order.tau)):
        row = [g.a, g.b, 0, 0, 0, 0]
        row[2 + i] = 1
        rows.append(row)

    def clear_column(col, pool):
        live = [r for r in pool if r[col] != 0]
        rest = [r for r in pool if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for j in range(6):
                    r[j] -= q * pivot[j]
            rest.extend(r for r in live[1:] if r[col] == 0)
            live = [pivot] + [r for r in live[1:] if r[col] != 0]
        return (live[0], rest)

    p0, rest = clear_column(0, rows)
    p1, _ = clear_column(1, rest)
    c0 = p0[0]
    c1 = -c0 * p0[1] * p1[1]
    combo = [c0 * p0[j] + c1 * p1[j] for j in range(6)]
    return (OInt(order, combo[2], combo[3]), OInt(order, combo[4], combo[5]))


def _span(lam, mu):
    """_one_in_span on the four ints of (lam, mu), its x and y read back as OInts."""
    order = lam.order
    x0, x1, y0, y1 = _one_in_span(order, lam.a, lam.b, mu.a, mu.b)
    return (OInt(order, x0, x1), OInt(order, y0, y1))


@pytest.mark.parametrize("delta", [-20, -31, -40, -163])
def test_one_in_span_is_the_oint_echelon_on_gap_pairs(delta):
    # the completion's x and y, not only x*lam + y*mu = 1: the gap-point
    # and cosets digests pin the completion entries
    for gp in gap_points(make_order(delta), 200):
        lam, mu = gp.pair.lam, gp.pair.mu
        assert _span(lam, mu) == _oint_one_in_span(lam, mu), (lam, mu)


@pytest.mark.parametrize("delta", [-40, -15, -19, -163, -1003, -100000003])
def test_one_in_span_is_the_oint_echelon_on_random_pairs(delta):
    pairs = [(lam, mu) for lam, mu in _random_pairs(delta) if _unimodular_oracle(lam, mu)]
    assert len(pairs) > 50
    for lam, mu in pairs:
        assert _span(lam, mu) == _oint_one_in_span(lam, mu), (lam, mu)


@pytest.mark.parametrize("delta", [-15, -19, -20, -40, -163, -1003, -100000003])
def test_is_unimodular_on_ints_refuses_every_proper_ideal(delta):
    # a unimodular pair times a non-unit g spans (g), and (2, tau) or (3, tau) spans
    # a proper ideal whenever 2 or 3 divides N(tau): the int completion returns None
    # exactly where the minor oracle refuses, and never builds a matrix there
    order = make_order(delta)
    units = [(lam, mu) for lam, mu in _random_pairs(delta) if _unimodular_oracle(lam, mu)][:40]
    factors = [order.elt(2), order.tau, order.elt(1, 1), order.elt(-3, 2)]
    refused = [(g * lam, g * mu) for lam, mu in units for g in factors]
    refused += [(order.elt(p), order.tau) for p in (2, 3) if order.tau_norm % p == 0]
    for lam, mu in refused:
        assert not _unimodular_oracle(lam, mu), (lam, mu)
        assert is_unimodular(lam, mu) is None, (lam, mu)
        assert is_unimodular(mu, lam) is None, (lam, mu)


def _cuts(n, box):
    """(ku, kv): cut the box (w, u_lo, u_hi, v_lo, v_hi) into ku x kv equal cells, none longer than wide.

    In the metric u^2 + |delta| v^2 the box is du/w wide and sqrt(|delta|) dv/w
    tall.  Its longer side is cut into more parts than the ratio of the sides,
    so each cell lies in a circumscribed disc no wider than the box needs.
    """
    _, u_lo, u_hi, v_lo, v_hi = box
    du, dv = u_hi - u_lo, v_hi - v_lo
    if n * dv * dv >= du * du:
        return 1, math.isqrt(n * dv * dv // (du * du)) + 1
    return math.isqrt(du * du // (n * dv * dv)) + 1, 1


def _candidate_scan(order, box):
    """Every candidate (a, b, c, d, xa, xb, N), lam = a + b*t and mu = c + d*t, of a scan by discs that cover box(N), with no end.

    The discs circumscribe the cells of _cuts.  z -> z*mu scales the plane by
    sqrt(N) about 0, so a disc about c of radius^2 r^2 goes to the disc about c*mu
    of radius^2 N r^2, and the images hold every lam with lam/mu in the box.
    The lattice points lie on the rows v = b/2, and an image that reaches no row
    is skipped without a scan; the others' points, merged without repeats in
    key() order, filtered by the oracle and the closed box, are the reference
    for pair_scan.
    """
    e, m = order.trace, order.tau_norm
    n = order.abs_delta
    done, bound = 0, 4
    while True:
        scan = lattice_points_norm_at_most(order, bound)
        shell = [mu for mu in scan if mu.norm() > done and mu.is_canonical_positive()]
        for mu in sorted(shell, key=OInt.norm):
            norm, ca, cb = mu.norm(), mu.a + e * mu.b, -mu.b
            p, q = 2 * mu.a + e * mu.b, mu.b  # mu at planar (p, q)/2
            w, u_lo, u_hi, v_lo, v_hi = box(norm)
            ku, kv = _cuts(n, box(norm))
            du, dv = u_hi - u_lo, v_hi - v_lo
            y = 2 * w * ku * kv
            # the cell (i, j) has centre (x_i, y_j)/y and radius^2 rr/y^2
            xs = [kv * (2 * u_lo * ku + (2 * i + 1) * du) for i in range(ku)]
            ys = [ku * (2 * v_lo * kv + (2 * j + 1) * dv) for j in range(kv)]
            rr = du * du * kv * kv + n * dv * dv * ku * ku
            lams = set()
            for cx in xs:
                for cy in ys:
                    # the image's centre has v = (cx q + cy p)/(2y) = x/(2y), and it reaches
                    # the row nearest it iff |delta| (b/2 - v)^2 <= N rr/y^2, times 4 y^2
                    x = cx * q + cy * p
                    off = min(x % y, y - x % y)
                    if n * off * off > 4 * norm * rr:
                        continue
                    centre = kelem_from_planar(order, Fraction(cx, y), Fraction(cy, y))
                    lams.update(g.key() for g in lattice_points_within(centre * mu, Fraction(rr, y * y) * norm))
            for lb, la in sorted(lams):
                yield la, lb, mu.a, mu.b, la * ca - m * lb * cb, la * cb + lb * ca + e * lb * cb, norm
        done, bound = bound, 4 * bound


def _in_closed_box(box, ratio):
    w, u_lo, u_hi, v_lo, v_hi = box
    u, v = ratio.planar()
    return Fraction(u_lo, w) <= u <= Fraction(u_hi, w) and Fraction(v_lo, w) <= v <= Fraction(v_hi, w)


def _ratio_in_closed_box(order, box, candidate):
    # lam/mu = (xa + xb*t)/N sits at planar ((2 xa + trace xb)/(2N), xb/(2N)); compared over W*2N
    *_, xa, xb, norm = candidate
    w, u_lo, u_hi, v_lo, v_hi = box(norm)
    u, v = w * (2 * xa + order.trace * xb), w * xb
    return 2 * norm * u_lo <= u <= 2 * norm * u_hi and 2 * norm * v_lo <= v <= 2 * norm * v_hi


def _padded_box(order, window):
    """The box pair_scan reads for enumerate_hemispheres: the window's, padded by 1/isqrt(N) and 1/isqrt(|delta| N)."""
    us, vs = [u for u, _ in window.vertices], [v for _, v in window.vertices]

    def box(norm):
        pu, pv = Fraction(1, math.isqrt(norm)), Fraction(1, math.isqrt(order.abs_delta * norm))
        edges = (min(us) - pu, max(us) + pu, min(vs) - pv, max(vs) + pv)
        w = math.lcm(*(x.denominator for x in edges))
        return (w, *(int(x * w) for x in edges))

    return box


PAIR_SCAN_DISCS = [-15, -19, -20, -23, -40, -163, -1003]
# the closed cell band [0, 1] x [0, 1/2]: the gap stream's half-open band
# closed, which holds the strip that the stream scans (_gap_strip)
BAND = (2, 0, 2, 0, 1)


@pytest.mark.parametrize("delta", PAIR_SCAN_DISCS + [-100000003])
def test_pair_scan_is_the_candidate_scan_filtered_by_the_oracle(delta):
    # through the first three mu shells (norms up to 4, 16 and 64), over the
    # band, the gap stream's strip and the padded boxes of the rectangle and the
    # Voronoi cell
    order = make_order(delta)

    def upto_64(scan):
        return list(itertools.takewhile(lambda c: c[6] <= 64, scan))

    strip = _gap_strip(order)
    boxes = [
        lambda norm: BAND,
        lambda norm: strip,
        _padded_box(order, amalgam_rectangle(order)),
        _padded_box(order, voronoi_cell(order)),
    ]
    scans = []
    for box in map(functools.cache, boxes):
        candidates = upto_64(_candidate_scan(order, box))
        got = upto_64(pair_scan(order, box))
        want = [c for c in candidates if _ratio_in_closed_box(order, box, c)]
        assert got == [c for c in want if _unimodular_oracle(order.elt(c[0], c[1]), order.elt(c[2], c[3]))]
        assert 0 < len(got) < len(want)
        assert all(type(x) is int for c in got for x in c) and {len(c) for c in got} == {7}
        norms = {c[6] for c in got}
        assert norms - {1, 4}  # past the first shell
        ratios = []
        for a, b, c, d, xa, xb, norm in got:
            lam, mu = order.elt(a, b), order.elt(c, d)
            assert lam * mu.conj() == order.elt(xa, xb) and mu.norm() == norm
            assert _in_closed_box(box(norm), KElem.of(lam, mu))
            ratios.append(KElem.of(lam, mu))
        assert len(set(ratios)) == len(got)  # distinct ratios
        scans.append((norms, got))
    (_, band), (_, in_strip), *padded = scans
    # the strip leaves out v near 0, so it may miss norm 1 and 4 (at -15 and -23 it
    # holds neither); the other boxes hold both
    assert all(norms > {1, 4} for norms, _ in [scans[0]] + padded)
    # a sub-box gets the box's pairs that lie in it, in the box's order (_gap_stream's proof)
    assert in_strip == [c for c in band if _ratio_in_closed_box(order, lambda norm: strip, c)]


@pytest.mark.parametrize("delta", [-15, -20, -40, -100000003])
def test_pair_scan_ends_after_the_bound(delta):
    # the scan reads every canonical mu of norm up to the bound, once each and in
    # norm order, yields the unbounded scan's pairs up to it, and stops there
    order = make_order(delta)
    every = [mu for mu in lattice_points_norm_at_most(order, 64) if mu.is_canonical_positive()]
    for bound in (1, 3, 4, 5, 16, 17, 63, 64):
        read = []

        def box(norm):
            read.append(norm)
            return BAND

        got = list(pair_scan(order, box, bound))
        assert read == sorted(mu.norm() for mu in every if mu.norm() <= bound)
        assert got == list(itertools.takewhile(lambda c: c[6] <= bound, pair_scan(order, lambda norm: BAND)))


@pytest.mark.parametrize("delta", PAIR_SCAN_DISCS)
def test_enumerated_hemisphere_is_the_inverse_completion_hemisphere(delta):
    # the isometric hemisphere of g sits at -m22/m21 with squared radius
    # 1/N(m21); the enumeration builds each one from pair_scan's integers
    order = make_order(delta)
    for window in (amalgam_rectangle(order), voronoi_cell(order)):
        hs = enumerate_hemispheres(order, 16, window)
        assert len(hs.hemispheres) == len(hs.owners) > 0
        for h, pair in zip(hs.hemispheres, _pairs(hs)):
            g = pair.completion.inv()
            assert (h.center, h.radius_sq) == (KElem.of(-g.m22, g.m21), Fraction(1, g.m21.norm()))
            assert h.disc == h.center.planar_int() + (1, g.m21.norm())


def test_pair_requires_nonzero_mu():
    order = make_order(-40)
    with pytest.raises(ValueError):
        UnimodularPair(order.one, order.zero)


ORDER40 = make_order(-40)


@functools.cache
def _rect_set(bound=16):
    return enumerate_hemispheres(ORDER40, bound, amalgam_rectangle(ORDER40))


@functools.cache
def _rect_statuses():
    return face_statuses(_rect_set())


def _sorted_by_radius_then_center(hs):
    # the key (-radius^2, v, u), in Fractions
    keys = []
    for h in hs.hemispheres:
        u, v = h.center.planar()
        keys.append((-h.radius_sq, v, u))
    return keys == sorted(keys)


def test_enumerate_bound_one_rectangle():
    hs = _rect_set(1)
    t = ORDER40.tau
    want = {KElem.from_oint(g) for g in (ORDER40.zero, ORDER40.one, -ORDER40.one, t, t + 1, t - 1)}
    assert {h.center for h in hs.hemispheres} == want
    assert all(h.radius_sq == 1 for h in hs.hemispheres)
    assert all(p.mu.norm() == 1 for p in _pairs(hs))
    assert _sorted_by_radius_then_center(hs)


def test_enumerate_bound_one_voronoi():
    hs = enumerate_hemispheres(ORDER40, 1, voronoi_cell(ORDER40))
    assert {h.center for h in hs.hemispheres} == {
        KElem.from_oint(g) for g in (ORDER40.zero, ORDER40.one, -ORDER40.one)
    }


def test_enumerate_no_norm_two_or_three():
    # a^2 + 10 b^2 never equals 2 or 3, so bounds 1..3 coincide
    one = _rect_set(1)
    assert _rect_set(2).hemispheres == one.hemispheres
    assert _rect_set(3).hemispheres == one.hemispheres


def test_enumerate_monotone_and_sound():
    small = {(h.center, h.radius_sq) for h in _rect_set(4).hemispheres}
    big = _rect_set()
    big_keys = {(h.center, h.radius_sq) for h in big.hemispheres}
    assert {(h.center, h.radius_sq) for h in _rect_set(1).hemispheres} <= small <= big_keys
    for h, p in zip(big.hemispheres, _pairs(big)):
        assert p.mu.norm() <= 16
        assert _unimodular_oracle(p.lam, p.mu)
        assert h.center == KElem.of(p.lam, p.mu)
        assert h.radius_sq == Fraction(1, p.mu.norm())
        # the window is the box [-1/2, 1/2] x [0, 1/2]; clamp to find the nearest point
        u, v = h.center.planar()
        du = u - min(max(u, Fraction(-1, 2)), Fraction(1, 2))
        dv = v - min(max(v, Fraction(0)), Fraction(1, 2))
        assert du * du + 40 * dv * dv <= h.radius_sq


@pytest.mark.parametrize("delta, bound", [(-15, 12), (-40, 24), (-43, 16), (-163, 8)])
def test_enumerate_gives_each_hemisphere_once(delta, bound):
    # a unimodular pair with canonical mu is fixed by its ratio, so no center (and
    # hence no (center, radius_sq)) comes twice
    order = make_order(delta)
    for window in (amalgam_rectangle(order), voronoi_cell(order)):
        hs = enumerate_hemispheres(order, bound, window)
        assert len({h.center for h in hs.hemispheres}) == len(hs.hemispheres)
        assert _sorted_by_radius_then_center(hs)


@pytest.mark.parametrize(
    "delta, bound",
    [(-15, 8), (-19, 16), (-20, 8), (-40, 16), (-43, 8), (-67, 24), (-163, 16)]
    # the mu shells end at norms 4, 16, 64, ...: bounds on a shell edge and one past it
    + [(delta, bound) for delta in (-15, -20) for bound in (4, 5, 16, 17)],
)
def test_enumerate_is_complete(delta, bound):
    # reference: a box scan of every canonical mu with norm <= bound and every lam in
    # a box, kept when the pair is unimodular and lam/mu lies within the radius of
    # the window, by the Fraction distance of _polygon_nearest_ref
    order = make_order(delta)
    n = order.abs_delta

    def box(norm_bound):
        # N(a + b*tau) >= |delta| b^2 / 4 and |a| <= sqrt(N) + |b|/2, so these edges
        # hold every element of norm <= norm_bound strictly inside
        eb = math.isqrt(4 * norm_bound // n) + 1
        ea = math.isqrt(norm_bound) + eb
        return (ea, eb), [order.elt(a, b) for a in range(-ea, ea + 1) for b in range(-eb, eb + 1)]

    def inside(g, edges):
        return abs(g.a) < edges[0] and abs(g.b) < edges[1]

    edges, grid = box(bound)
    mus = [mu for mu in grid if 0 < mu.norm() <= bound and mu.is_canonical_positive()]
    assert all(inside(mu, edges) for mu in mus)
    for window in (amalgam_rectangle(order), voronoi_cell(order)):
        verts = list(window.vertices)
        us, vs = [u for u, _ in verts], [v for _, v in verts]
        reach_sq = math.ceil(max(u * u + n * v * v for u, v in verts)) + 1
        want = set()
        for mu in mus:
            rsq = Fraction(1, mu.norm())
            # |lam|^2 = |lam/mu|^2 N(mu) <= (|window| + 1)^2 N(mu) <= 2 reach_sq N(mu)
            lam_edges, lams = box(2 * reach_sq * mu.norm())
            for lam in lams:
                u, v = KElem.of(lam, mu).planar()
                du = max(min(us) - u, u - max(us), 0)
                dv = max(min(vs) - v, v - max(vs), 0)
                if du * du + n * dv * dv > rsq:  # farther than the radius from the bounding box
                    continue
                if _polygon_nearest_ref(n, verts, (u, v))[0] <= rsq and _unimodular_oracle(lam, mu):
                    assert inside(lam, lam_edges)
                    want.add((lam, mu))
        hs = enumerate_hemispheres(order, bound, window)
        pairs = _pairs(hs)
        assert {(p.lam, p.mu) for p in pairs} == want
        assert len(pairs) == len(want)  # and no pair twice
        for p in pairs:
            m = p.completion
            assert m.m11 * m.m22 - m.m12 * m.m21 == order.one
            assert (m.m11, m.m21) in {(p.lam, p.mu), (-p.lam, -p.mu)}


def test_completion_needs_the_unit_ideal():
    order = make_order(-40)
    with pytest.raises(ValueError):
        UnimodularPair(order.elt(2), order.tau).completion


def test_enumerate_scope_and_bounds():
    window = amalgam_rectangle(ORDER40)
    for delta in (-11, -12):
        with pytest.raises(OutOfScope):
            enumerate_hemispheres(make_order(delta), 4, window)
    with pytest.raises(ValueError):
        enumerate_hemispheres(ORDER40, 0, window)


def test_face_status_unit_apex_witness():
    hs = _rect_set(1)
    zero = KElem.from_oint(ORDER40.zero)
    i = next(i for i, h in enumerate(hs.hemispheres) if h.center == zero)
    status = face_statuses(hs)[i]
    assert isinstance(status, Contributes)
    assert status.witness == zero


def test_face_status_duplicate_is_covered():
    h = Hemisphere(KElem.from_oint(ORDER40.zero), Fraction(1))
    status = face_status(ORDER40, h.disc, [Hemisphere(KElem.from_oint(ORDER40.zero), Fraction(1)).disc])
    assert status == Covered()
    assert face_status(ORDER40, h.disc, [h.disc]) == Covered()


def test_face_status_swallowed_hemisphere():
    small = Hemisphere(KElem.from_oint(ORDER40.zero), Fraction(1, 16))
    unit = Hemisphere(KElem.from_oint(ORDER40.zero), Fraction(1))
    assert isinstance(face_status(ORDER40, small.disc, [unit.disc]), Covered)
    assert isinstance(face_status(ORDER40, unit.disc, [small.disc]), Contributes)


def test_face_status_off_center_cell_by_hand():
    # against a disc of radius^2 3/4 at (1/2, 0), the disc of radius^2 1/4 at 0 wins
    # on u <= -1/4; its cell is the box [-1, -1/4] x [-1, 1] with nearest point (-1/4, 0)
    # and farthest vertices (-1, +-1), and the witness walk halves once toward the
    # vertex average (-5/8, 0)
    h = Hemisphere(KElem.from_oint(ORDER40.zero), Fraction(1, 4))
    k = Hemisphere(kelem_from_planar(ORDER40, Fraction(1, 2), 0), Fraction(3, 4))
    assert face_status(ORDER40, h.disc, [k.disc]) == Contributes(kelem_from_planar(ORDER40, Fraction(-7, 16), 0))
    # plane_split reads the cell: near_sq 1/16, so h reaches above t0 iff t0^2 < 1/4 - 1/16,
    # and far_sq 41, past h's radius, so h dips below every t0.  k's cell u >= -1/4 holds
    # k's center, and its far vertices (3/2, +-1) are at squared distance 41 too
    hs = HemiSet(order=ORDER40, discs=(h.disc, k.disc), owners=(), norm_bound=1, window=amalgam_rectangle(ORDER40))
    statuses = face_statuses(hs)
    assert statuses == (face_status(ORDER40, h.disc, [k.disc]), Contributes(k.center))
    assert plane_split(hs, statuses, Fraction(2, 5)) == ([h, k], [h, k])  # 4/25 < 3/16
    assert plane_split(hs, statuses, Fraction(9, 20)) == ([k], [h, k])  # 81/400 > 3/16
    assert plane_split(hs, statuses, Fraction(1)) == ([], [h, k])
    # a rival of radius^2 1 moves the cut to u <= -1/2, at the distance of the radius
    k = Hemisphere(kelem_from_planar(ORDER40, Fraction(1, 2), 0), Fraction(1))
    assert face_status(ORDER40, h.disc, [k.disc]) == Covered()


COVER = "cover"  # face_status's walk ended on the rival alone
CENTER = "center"  # h's center is strictly on top of the rival, so no walk clipped by it


def _one_rival_walk(h, k):
    """What face_status's walk does with k as h's only rival, seen through its clips.

    [] when it skips k (h alone contributes), [CENTER] when the center test
    passes k, [COVER] when k ends the walk before any clip (a duplicate or
    a one-rival cover), else [the bisector it clips by].  A skipped rival
    and a passed one both leave Contributes at the center with no clip, so
    a duplicate of h after k tells them apart: it starts the walk, which
    clips by every rival passed before it.
    """
    planes = []

    def recording_clip(poly, plane):
        planes.append(plane)
        return clip(poly, plane)

    order = h.center.order
    with mock.patch.object(arrangement, "clip", recording_clip):
        status = face_status(order, h.disc, [k.disc])
        alone, planes[:] = planes[:], []
        face_status(order, h.disc, [k.disc, h.disc])
    if alone:
        return alone
    if status == Covered():
        return [COVER]
    assert status == Contributes(h.center)
    return [CENTER] if planes else []


def _closed_discs_meet(h, k):
    # |c_h - c_k| <= r_h + r_k, squared twice over Fractions
    gap = (h.center - k.center).abs_sq() - h.radius_sq - k.radius_sq
    return gap <= 0 or gap * gap <= 4 * h.radius_sq * k.radius_sq


def _box_neighbours(n, discs):
    # every disc's box neighbours, each list read to its end from box_rivals
    rivals = box_rivals(n, discs)
    return [list(rivals(i)) for i in range(len(discs))]


def _check_box_neighbours(hs):
    # the source lists each pair both ways, keeps every rival that face_status does not skip
    # from the full pool, and leaves every face status as the full pool gives it
    n = hs.order.abs_delta
    hemis = hs.hemispheres
    near = _box_neighbours(n, [h.disc for h in hemis])
    assert all(ks == sorted(set(ks)) and i not in ks for i, ks in enumerate(near))
    assert all(i in near[k] for i, ks in enumerate(near) for k in ks)
    full = []
    for i, h in enumerate(hemis):
        rest = hemis[:i] + hemis[i + 1 :]
        # a duplicate or a one-rival cover counts as kept
        kept = {j for j, k in enumerate(hemis) if j != i and _one_rival_walk(h, k) != []}
        assert kept <= set(near[i])
        full.append(face_status(hs.order, h.disc, [k.disc for k in rest]))
    assert face_statuses(hs) == tuple(full)
    return near


@pytest.mark.parametrize("delta, bound", [(-15, 12), (-40, 24), (-67, 24), (-163, 16)])
def test_box_neighbours_keep_every_rival(delta, bound):
    order = make_order(delta)
    for window in (amalgam_rectangle(order), voronoi_cell(order)):
        _check_box_neighbours(enumerate_hemispheres(order, bound, window))


def test_box_neighbours_at_tangency():
    # each pair A, B below is exactly tangent and A, C overlap by a hair, along u
    # and along v with A below v = 0; the fractional parts of their 64ths sum
    # past 2, so a box radius one cell thinner misses both
    hair = Fraction(1, 10**6)
    discs = [
        ((Fraction(-1, 7), 0), Fraction(25, 49)),
        ((Fraction(10, 7), 0), Fraction(36, 49)),
        ((Fraction(10, 7) - hair, 0), Fraction(36, 49)),
        ((6, Fraction(-1, 40)), Fraction(1, 10)),
        ((6, Fraction(49, 360)), Fraction(40, 81)),
        ((6, Fraction(49, 360) - hair), Fraction(40, 81)),
        ((3, 0), Fraction(1, 4)),  # a duplicate pair: both Covered
        ((3, 0), Fraction(1, 4)),
    ]
    hemis = tuple(Hemisphere(kelem_from_planar(ORDER40, *c), rsq) for c, rsq in discs)
    hs = HemiSet(order=ORDER40, discs=tuple(h.disc for h in hemis), owners=(), norm_bound=1, window=amalgam_rectangle(ORDER40))
    near = _check_box_neighbours(hs)
    for i, j in itertools.combinations(range(len(hemis)), 2):
        if _closed_discs_meet(hemis[i], hemis[j]):
            assert j in near[i]
    for h, k in ((hemis[0], hemis[1]), (hemis[3], hemis[4])):
        gap = (h.center - k.center).abs_sq() - h.radius_sq - k.radius_sq
        assert gap > 0 and gap * gap == 4 * h.radius_sq * k.radius_sq  # tangent from outside
    statuses = face_statuses(hs)
    assert statuses[6] == statuses[7] == Covered()
    assert all(isinstance(statuses[i], Contributes) for i in (0, 3))


def _all_pairs_box_neighbours(n, discs):
    # a test of every pair on the closed integer boxes that the box_rivals docstring gives
    s = _BOX_SCALE
    boxes = []  # (u_lo, u_hi, y_lo, y_hi)
    for u, v, l, p, q in discs:
        r = math.isqrt(s * s * p // q) + 1
        y = math.isqrt(s * s * n * v * v // (l * l))
        y = -y - 1 if v < 0 else y
        boxes.append((s * u // l - r, s * u // l + r + 1, y - r, y + r + 1))
    return [
        [j for j, b in enumerate(boxes) if j != i and b[0] <= a[1] and a[0] <= b[1] and b[2] <= a[3] and a[2] <= b[3]]
        for i, a in enumerate(boxes)
    ]


@pytest.mark.parametrize("delta, bound", [(-15, 12), (-40, 24), (-163, 16), (-1003, 16)])
def test_box_rivals_match_all_pairs(delta, bound):
    # list for list, in index order: on the enumerated sets (one run per norm), the same
    # sets shuffled (runs of about one disc) and the shuffled sets with a duplicate pair
    order = make_order(delta)
    n = order.abs_delta
    rng = random.Random(bound - delta)
    for window in (amalgam_rectangle(order), voronoi_cell(order)):
        discs = list(enumerate_hemispheres(order, bound, window).discs)
        shuffled = rng.sample(discs, len(discs))
        doubled = list(shuffled)
        j = rng.randrange(len(doubled))
        doubled.insert(rng.randrange(len(doubled) + 1), doubled[j])
        for ds in (discs, shuffled, doubled):
            near = _box_neighbours(n, ds)
            assert near == _all_pairs_box_neighbours(n, ds), window.kind
        i = doubled.index(shuffled[j])  # near is the doubled set's
        k = doubled.index(shuffled[j], i + 1)
        assert k in near[i] and i in near[k]


def test_face_status_draws_no_rival_past_the_cover():
    # rest is read once and in order: a smaller rival passes the center, the larger one
    # that covers h alone ends the walk, and nothing after it is drawn
    h = Hemisphere(kelem_from_planar(ORDER40, 0, 0), Fraction(1, 16))
    small = Hemisphere(kelem_from_planar(ORDER40, Fraction(1, 4), 0), Fraction(1, 25))
    big = Hemisphere(kelem_from_planar(ORDER40, Fraction(1, 10), 0), Fraction(1))
    assert _one_rival_walk(h, small) == [CENTER] and _one_rival_walk(h, big) == [COVER]

    def rest():
        yield small.disc
        yield big.disc
        raise AssertionError("drawn past the rival that covers h")

    assert face_status(ORDER40, h.disc, rest()) == Covered()


def test_face_walks_draw_few_box_pairs(monkeypatch):
    # at -40/128 the walks of face_statuses draw under a tenth of the box pairs, where a
    # list of every face's box neighbours would hold them all
    order = make_order(-40)
    hs = enumerate_hemispheres(order, 128, amalgam_rectangle(order))
    want = face_statuses(hs)
    rivals = box_rivals(order.abs_delta, hs.discs)
    pairs = sum(1 for i in range(len(hs.discs)) for _ in rivals(i))
    drawn = 0
    real_face_status = arrangement.face_status

    def counted(order, hd, rest):
        def draws():
            nonlocal drawn
            for kd in rest:
                drawn += 1
                yield kd

        return real_face_status(order, hd, draws())

    monkeypatch.setattr(arrangement, "face_status", counted)
    assert face_statuses(hs) == want
    assert 0 < 10 * drawn < pairs


def test_rectangle_statuses_expected_faces():
    hs = _rect_set()
    statuses = _rect_statuses()
    by_center = {h.center: s for h, s in zip(hs.hemispheres, statuses)}
    t = ORDER40.tau
    for g in (ORDER40.zero, ORDER40.one, -ORDER40.one, t, t + 1, t - 1):
        assert isinstance(by_center[KElem.from_oint(g)], Contributes)
    # the deep holes carry their own faces
    for num in (t + 1, t - 1):
        assert isinstance(by_center[KElem.of(num, 2)], Contributes)
    # half-integer points on the hemisphere rows are swallowed
    for num in (ORDER40.one, -ORDER40.one, 2 * t + 1, 2 * t - 1):
        assert isinstance(by_center[KElem.of(num, 2)], Covered)


def _height_sq(h, z):
    # radius^2 - |z - center|^2, positive inside the open disc
    return h.radius_sq - (z - h.center).abs_sq()


def test_contributes_witnesses_reverify():
    hs = _rect_set()
    statuses = _rect_statuses()
    checked = 0
    for h, status in zip(hs.hemispheres, statuses):
        if not isinstance(status, Contributes):
            continue
        mine = _height_sq(h, status.witness)
        assert mine > 0
        for k in hs.hemispheres:
            if k is h:
                continue
            assert _height_sq(k, status.witness) < mine
        checked += 1
    assert checked >= 8


def test_plane_split_two_thirds():
    hs = _rect_set()
    above, below = plane_split(hs, _rect_statuses(), Fraction(2, 3))
    assert {h.radius_sq for h in above} == {Fraction(1)}
    assert len(above) == 6
    unit_centers = {h.center for h in above}
    assert {h.center for h in below} >= unit_centers
    t = ORDER40.tau
    holes = {KElem.of(t + 1, 2), KElem.of(t - 1, 2)}
    below_centers = {h.center for h in below}
    assert holes <= below_centers
    assert holes.isdisjoint(unit_centers)


def test_plane_split_at_height_one_has_no_above():
    hs = _rect_set(1)
    above, below = plane_split(hs, face_statuses(hs), t0=Fraction(1))
    assert above == []
    assert len(below) == 6


def test_plane_split_needs_a_positive_plane():
    hs = _rect_set(1)
    statuses = face_statuses(hs)
    for t0 in (Fraction(0), Fraction(-2, 3)):
        with pytest.raises(ValueError):
            plane_split(hs, statuses, t0)
    # and so do the wall dips: on the -40/16 arrangement the u-wall dips under
    # t = 2/3 and the v-wall does not, and a squared t0 gives the same at -2/3
    hs = _rect_set()
    (u_lo, v_lo), (u_hi, v_hi) = min(hs.window.vertices), max(hs.window.vertices)
    u_wall, v_wall = ((u_lo, v_lo), (u_lo, v_hi)), ((u_lo, v_lo), (u_hi, v_lo))
    assert envelope_dips_below(hs, *u_wall, Fraction(2, 3))
    assert not envelope_dips_below(hs, *v_wall, Fraction(2, 3))
    for wall in (u_wall, v_wall):
        for t0 in (Fraction(0), Fraction(-2, 3)):
            with pytest.raises(ValueError, match="t0 > 0"):
                envelope_dips_below(hs, *wall, t0)


def test_envelope_dips_below_on_hand_made_segments():
    window = amalgam_rectangle(ORDER40)
    unit_at = [Hemisphere(KElem.from_oint(g), Fraction(1)) for g in (ORDER40.zero, ORDER40.one)]
    one = HemiSet(order=ORDER40, discs=tuple(h.disc for h in unit_at[:1]), owners=(), norm_bound=1, window=window)
    two = HemiSet(order=ORDER40, discs=tuple(h.disc for h in unit_at), owners=(), norm_bound=1, window=window)
    origin, mid, right = (Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(0))
    # under the unit hemisphere at 0, height^2 falls from 1 to 3/4 between origin and mid,
    # so only the segment's last or first point dips under t = 9/10
    assert envelope_dips_below(one, origin, mid, Fraction(9, 10))
    assert envelope_dips_below(one, mid, origin, Fraction(9, 10))
    assert not envelope_dips_below(one, origin, mid, Fraction(4, 5))
    # two unit hemispheres hand over at mid, the lowest point between their apexes
    assert envelope_dips_below(two, origin, right, Fraction(9, 10))
    assert not envelope_dips_below(two, origin, right, Fraction(4, 5))
    # no disc reaches this segment, so its height is the floor
    assert envelope_dips_below(two, (Fraction(3), Fraction(0)), (Fraction(4), Fraction(0)), Fraction(1, 100))
    # at (3/5, 0) the height is exactly 4/5, which is not strictly lower
    assert not envelope_dips_below(one, origin, (Fraction(3, 5), Fraction(0)), Fraction(4, 5))
    assert envelope_dips_below(one, origin, (Fraction(3, 5), Fraction(0)), Fraction(4, 5) + Fraction(1, 10**6))
    # a segment of length 0 is its one point, of height^2 3/4 at mid
    assert envelope_dips_below(one, mid, mid, Fraction(9, 10))
    assert not envelope_dips_below(one, mid, mid, Fraction(4, 5))
    assert not envelope_dips_below(one, origin, origin, Fraction(9, 10))
    assert envelope_dips_below(one, (Fraction(3), Fraction(0)), (Fraction(3), Fraction(0)), Fraction(1, 100))


def _all_pairs_dips(hs, start, end, t0):
    # the eager wall walk: each reaching disc builds its bisectors against every other
    # reaching disc before its first clip, then clips until the part is empty
    n = hs.order.abs_delta
    frame = frame_of((start, end))
    discs = []
    for h in hs.hemispheres:
        u, v, l, p, q = h.disc
        num, den, _ = dist_sq_int(n, frame, (u, v, l))
        if num * q < p * den:
            discs.append(h.disc)
    if not discs:
        return True
    t0sq = Fraction(t0) ** 2
    ta, tb = t0sq.numerator, t0sq.denominator
    w, pts = frame
    ends = [(x, y, w) for x, y in pts]
    for i, hd in enumerate(discs):
        part = ends
        for plane in [bisector(n, hd, kd) for kd in discs[:i] + discs[i + 1 :]]:
            part = clip(part, plane)
            if not part:
                break
        u, v, l, p, q = hd
        for x, y, pw in part:
            s = (pw * l) ** 2
            d = (x * l - u * pw) ** 2 + n * (y * l - v * pw) ** 2
            if (p * s - d * q) * tb < ta * q * s:
                return True
    return False


@pytest.mark.parametrize("delta", [-15, -19, -20, -24, -40, -43, -67, -163, -1003])
def test_lazy_wall_walk_matches_all_pairs(delta):
    # the walk that builds each bisector as its clip comes gives the eager walk's answer
    # on the window sides and on random segments, reversed ones and points included
    order = make_order(delta)
    rng = random.Random(delta)
    window = amalgam_rectangle(order)
    (u_lo, v_lo), (u_hi, v_hi) = min(window.vertices), max(window.vertices)
    segments = [
        ((u_lo, v_lo), (u_lo, v_hi)),
        ((u_hi, v_lo), (u_hi, v_hi)),
        ((u_lo, v_lo), (u_hi, v_lo)),
        ((u_lo, v_hi), (u_hi, v_hi)),
    ]
    for _ in range(5):
        a, b = ((Fraction(rng.randint(-18, 18), 24), Fraction(rng.randint(-6, 18), 24)) for _ in range(2))
        segments += [(a, b), (b, a), (a, a)]
    seen = set()
    for bound in (1, 4, 5, 16, 17):
        hs = enumerate_hemispheres(order, bound, window)
        for seg in segments:
            for t0 in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
                want = _all_pairs_dips(hs, *seg, t0)
                assert envelope_dips_below(hs, *seg, t0) == want, (bound, seg, t0)
                seen.add(want)
    assert seen == {True, False}


def _contributors(hs):
    # the HemiSet of hs's contributing faces, as amalgam_report hands it to the walls
    kept = [i for i, s in enumerate(face_statuses(hs)) if isinstance(s, Contributes)]
    return dataclasses.replace(hs, discs=tuple(hs.discs[i] for i in kept), owners=tuple(hs.owners[i] for i in kept))


@pytest.mark.parametrize("delta", [-15, -19, -20, -24, -40, -43, -67, -163, -1003])
def test_walls_on_contributors_match_walls_on_all_discs(delta):
    # the contributors have the envelope of all the discs, so they dip alike on the window
    # sides and on random segments, slanted, reversed and single points included
    order = make_order(delta)
    rng = random.Random(1000 - delta)
    window = amalgam_rectangle(order)
    (u_lo, v_lo), (u_hi, v_hi) = min(window.vertices), max(window.vertices)
    segments = [
        ((u_lo, v_lo), (u_lo, v_hi)),
        ((u_hi, v_lo), (u_hi, v_hi)),
        ((u_lo, v_lo), (u_hi, v_lo)),
        ((u_lo, v_hi), (u_hi, v_hi)),
    ]
    for _ in range(6):
        a, b = ((Fraction(rng.randint(-18, 18), 24), Fraction(rng.randint(-6, 18), 24)) for _ in range(2))
        segments += [(a, b), (b, a), (a, a)]
    seen = set()
    for bound in (1, 4, 5, 16, 17, 32):
        hs = enumerate_hemispheres(order, bound, window)
        top = _contributors(hs)
        assert len(top.hemispheres) < len(hs.hemispheres) or bound == 1
        for seg in segments:
            for t0 in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
                want = envelope_dips_below(hs, *seg, t0)
                assert envelope_dips_below(top, *seg, t0) == want, (bound, seg, t0)
                seen.add(want)
    assert seen == {True, False}


def test_lazy_wall_walk_clips_by_a_disjoint_rival():
    # h (center -1/2, radius 1/4) lies inside m (center 0, radius 1), so h is below m
    # everywhere but on u <= -19/16, outside m, where j (center -3/2, radius^2 1/2) is on
    # top; j's disc misses h's, yet only j's bisector empties h's part.  On the segment
    # the top is lowest where m and j tie, at u = -11/12 with height^2 23/144
    discs = [((Fraction(-1, 2), 0), Fraction(1, 16)), ((0, 0), Fraction(1)), ((Fraction(-3, 2), 0), Fraction(1, 2))]
    hemis = tuple(Hemisphere(kelem_from_planar(ORDER40, *c), rsq) for c, rsq in discs)
    hs = HemiSet(order=ORDER40, discs=tuple(h.disc for h in hemis), owners=(), norm_bound=1, window=amalgam_rectangle(ORDER40))
    seg = ((Fraction(-3, 2), Fraction(0)), (Fraction(0), Fraction(0)))
    for t0, dips in ((Fraction(1, 3), False), (Fraction(2, 5), True)):
        assert envelope_dips_below(hs, *seg, t0) is dips
        assert _all_pairs_dips(hs, *seg, t0) is dips


def test_clip_keeps_a_segment_as_its_two_ends():
    # homogeneous points (x, y, w) = (x/w, y/w); the half-plane 2u <= 1 is u <= 1/2
    origin, one, half = (0, 0, 1), (1, 0, 1), (1, 0, 2)
    assert clip([origin, one], (2, 0, 1)) == [origin, half]
    assert clip([one, origin], (2, 0, 1)) == [half, origin]
    assert clip([origin, one], (1, 0, 2)) == [origin, one]
    assert clip([origin, one], (-1, 0, -2)) == []
    # touching the line at one end leaves that end alone
    assert clip([origin, half], (-2, 0, -1)) == [half]
    # a triangle still gets its closing edge
    assert clip([origin, one, (0, 1, 1)], (2, 0, 1)) == [origin, half, (1, 1, 2), (0, 1, 1)]


def _sutherland_hodgman(poly, plane):
    # the full loop with no shortcut: a strict sign change adds the reduced crossing,
    # and every point on the closed inner side is kept
    a, b, c = plane
    side = [a * x + b * y - c * w for x, y, w in poly]
    out = []
    for i, q in enumerate(poly):
        p, sp, sq = poly[i - 1], side[i - 1], side[i]
        if (i or len(poly) > 2) and (sp < 0 < sq or sq < 0 < sp):
            x, y, w = (sq * pc - sp * qc for pc, qc in zip(p, q))
            if w < 0:
                x, y, w = -x, -y, -w
            g = math.gcd(x, y, w)
            out.append((x // g, y // g, w // g))
        if sq <= 0:
            out.append(q)
    return out


def _random_convex_polygon(rng):
    # the hull of random homogeneous points, counterclockwise with no three collinear
    pts = {(rng.randint(-12, 12), rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(3, 9))}
    pts = sorted(pts, key=lambda p: (Fraction(p[0], p[2]), Fraction(p[1], p[2])))

    def turn(o, p, q):
        # sign of the cross product (p - o) x (q - o), over o.w p.w q.w > 0
        (ox, oy, ow), (px, py, pw), (qx, qy, qw) = o, p, q
        return (px * ow - ox * pw) * (qy * ow - oy * qw) - (py * ow - oy * pw) * (qx * ow - ox * qw)

    hull = []
    for sweep in (pts, pts[::-1]):
        part = []
        for p in sweep:
            while len(part) > 1 and turn(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        hull += part[:-1]
    return hull


def test_clip_is_sutherland_hodgman():
    # seeded convex polygons against random planes, planes through a vertex and planes
    # along an edge, both ways round; a plane that holds the polygon hands it back
    rng = random.Random(29)
    held = cut = 0
    for _ in range(400):
        poly = _random_convex_polygon(rng)
        if len(poly) < 3:
            continue
        (x, y, w), (x2, y2, w2) = rng.sample(poly, 2)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        planes = [
            (a, b, rng.randint(-40, 40)),
            (a * w, b * w, a * x + b * y),  # through the vertex (x, y)/w
            # the line through two vertices, an edge when they are neighbours
            (y * w2 - w * y2, w * x2 - x * w2, y * x2 - x * y2),
        ]
        i = rng.randrange(len(poly))
        (x, y, w), (x2, y2, w2) = poly[i - 1], poly[i]
        planes.append((y * w2 - w * y2, w * x2 - x * w2, y * x2 - x * y2))  # along the edge
        for a, b, c in planes:
            for plane in ((a, b, c), (-a, -b, -c)):
                got = clip(poly, plane)
                assert got == _sutherland_hodgman(poly, plane), (poly, plane)
                if all(plane[0] * x + plane[1] * y <= plane[2] * w for x, y, w in poly):
                    assert got is poly
                    held += 1
                else:
                    cut += 1
    assert held > 100 and cut > 100


def _box_and_exact_verdicts(order, window, bound):
    # each center (U, V, L) the scan yields for the enumeration, its norm, and whether
    # it is within the radius by the box alone and by dist_sq_int
    n, e = order.abs_delta, order.trace
    frame = frame_of(window.vertices)
    box, _ = box_of(frame)
    for *_, xa, xb, norm in pair_scan(order, _padded_box(order, window), bound):
        p = (2 * xa + e * xb, xb, 2 * norm)
        num, den = box_dist_sq_int(n, box, p)
        exact, exact_den, _ = dist_sq_int(n, frame, p)
        yield p, norm, num * norm <= den, exact * norm <= exact_den


@pytest.mark.parametrize("delta", [-15, -19, -20, -24, -40, -43, -52, -163, -1003])
def test_box_decides_exactly_on_rectangles(delta):
    # the amalgam rectangle, and the Voronoi cell at even delta, are their own bounding
    # boxes, so the box verdict is dist_sq_int's for every center the scan yields
    order = make_order(delta)
    for window in [amalgam_rectangle(order)] + [voronoi_cell(order)] * order.even:
        assert box_of(frame_of(window.vertices))[1]
        verdicts = [(box, exact) for _, _, box, exact in _box_and_exact_verdicts(order, window, 64)]
        assert all(box == exact for box, exact in verdicts)
        if abs(delta) < 1000:  # at -1003 every scanned center is within its radius
            assert {box for box, _ in verdicts} == {True, False}


@pytest.mark.parametrize("delta, dropped", [(-19, 16), (-15, 8)])
def test_box_does_not_decide_on_the_hexagon(delta, dropped):
    # at bound 16 the box alone keeps centers that miss the hexagon by more than
    # their radius (by the Fraction distance of _polygon_nearest_ref), so the
    # enumeration must ask dist_sq_int there
    order = make_order(delta)
    window = voronoi_cell(order)
    assert not box_of(frame_of(window.vertices))[1]
    verdicts = list(_box_and_exact_verdicts(order, window, 16))
    assert all(box for _, _, box, exact in verdicts if exact)  # the box never drops a kept center
    misses = [(p, norm) for p, norm, box, exact in verdicts if box and not exact]
    assert len(misses) == dropped
    for (u, v, l), norm in misses:
        z = (Fraction(u, l), Fraction(v, l))
        assert _polygon_nearest_ref(order.abs_delta, list(window.vertices), z)[0] > Fraction(1, norm)


def test_box_of_knows_its_own_boxes():
    half, zero = Fraction(1, 2), Fraction(0)
    corners = ((half, zero), (half, half), (-half, half), (-half, zero))
    assert box_of(frame_of(corners)) == ((2, -1, 1, 0, 1), True)
    assert box_of(frame_of(corners[:2]))[1] and box_of(frame_of(corners[1:3]))[1]  # axis-parallel sides
    assert box_of(frame_of(corners[:1] * 2))[1]  # a point
    assert not box_of(frame_of((corners[0], corners[2])))[1]  # a diagonal
    assert not box_of(frame_of(corners[:3]))[1]  # a triangle with three of the corners


DISCS = [-m for m in range(13, 200) if m % 4 in (0, 3)]


@st.composite
def rationals(draw, bound=3, dens=12):
    q = draw(st.integers(1, dens))
    return Fraction(draw(st.integers(-bound * q, bound * q)), q)


@st.composite
def radii_sq(draw):
    # 1/N as in the arrangement, any positive P/Q, or the square of a rational (for tangency)
    kind = draw(st.sampled_from(["unit fraction", "ratio", "square"]))
    if kind == "unit fraction":
        return Fraction(1, draw(st.integers(1, 60)))
    if kind == "ratio":
        return Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    return Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 12))) ** 2


def _power(n, rsq, center, z):
    # |z - c|^2 - r^2 in the planar metric u^2 + |delta| v^2
    return (z[0] - center[0]) ** 2 + n * (z[1] - center[1]) ** 2 - rsq


def _sign(x):
    return (x > 0) - (x < 0)


def _segment_nearest_ref(n, a, b, z):
    # project z onto the line ab and clamp to the segment; a segment of length 0 is the point a
    eu, ev = b[0] - a[0], b[1] - a[1]
    ee = eu * eu + n * ev * ev
    t = min(max(((z[0] - a[0]) * eu + n * (z[1] - a[1]) * ev) / ee, 0), 1) if ee else 0
    q = (a[0] + t * eu, a[1] + t * ev)
    return ((z[0] - q[0]) ** 2 + n * (z[1] - q[1]) ** 2, q)


def _polygon_nearest_ref(n, verts, z):
    # closed containment against the counterclockwise edges, else the nearest edge point
    edges = list(zip(verts, verts[1:] + verts[:1]))
    if all((b[0] - a[0]) * (z[1] - a[1]) - (b[1] - a[1]) * (z[0] - a[0]) >= 0 for a, b in edges):
        return (Fraction(0), z)
    return min((_segment_nearest_ref(n, a, b, z) for a, b in edges), key=lambda dq: dq[0])


def _read(dist):
    # the kernel's (num, den, (x, y, w)) as a distance and a point; both denominators are positive
    num, den, (x, y, w) = dist
    assert den > 0 and w > 0
    return (Fraction(num, den), (Fraction(x, w), Fraction(y, w)))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(delta=st.sampled_from(DISCS), data=st.data())
def test_integer_kernel_matches_fractions(delta, data):
    # every reference below is a Fraction formula written here, sharing no code with the kernel
    order = make_order(delta)
    n = order.abs_delta
    point = st.tuples(rationals(), rationals(1, 24))
    for _ in range(8):
        hc, kc = data.draw(point), data.draw(point)
        hr, kr = data.draw(radii_sq()), data.draw(radii_sq())
        h = Hemisphere(kelem_from_planar(order, *hc), hr)
        pairs = [
            (hc, hr),  # the same disc
            (kc, kr),
            (hc, kr),  # the same center
            (kc, hr),
        ]
        r = Fraction(math.isqrt(hr.numerator), math.isqrt(hr.denominator))
        if r * r == hr:
            s = Fraction(1, 4)
            # tangent from outside, from inside, and a hair apart
            for du in (r + s, abs(r - s), r + s + Fraction(1, 10**6)):
                pairs.append(((hc[0] + du, hc[1]), s * s))
        for c, rsq in pairs:
            k = Hemisphere(kelem_from_planar(order, *c), rsq)
            hcp, kcp = h.center.planar(), k.center.planar()
            gap = (hcp[0] - kcp[0]) ** 2 + n * (hcp[1] - kcp[1]) ** 2 - h.radius_sq - k.radius_sq
            disjoint = gap >= 0 and gap * gap >= 4 * h.radius_sq * k.radius_sq
            walk = _one_rival_walk(h, k)
            if (hcp, hr) == (kcp, rsq):
                assert walk == [COVER]
                continue
            d2 = (kcp[0] - hcp[0]) ** 2 + n * (kcp[1] - hcp[1]) ** 2
            on_top = d2 + hr - rsq > 0  # h strictly higher than k at h's center
            plane = bisector(n, h.disc, k.disc)
            # the one-rival cover, on the Fraction bisector A u + B v <= C where h is at least
            # as high: h's center strictly outside it and at least one radius from its line
            ca, cb = 2 * (kcp[0] - hcp[0]), 2 * n * (kcp[1] - hcp[1])
            cc = kcp[0] ** 2 + n * kcp[1] ** 2 - rsq - (hcp[0] ** 2 + n * hcp[1] ** 2 - hr)
            sd = ca * hcp[0] + cb * hcp[1] - cc
            covers = sd > 0 and sd * sd * n >= hr * (n * ca * ca + cb * cb)
            assert walk == ([] if disjoint else [CENTER] if on_top else [COVER] if covers else [plane])
            a, b, cc = plane
            assert isinstance(a, int) and isinstance(b, int) and isinstance(cc, int)
            assert math.gcd(a, b, cc) in (0, 1)
            zs = [data.draw(point) for _ in range(4)]
            if d2:
                # the radical point on the line of centers, where the powers tie
                t = (d2 + h.radius_sq - k.radius_sq) / (2 * d2)
                zs.append((hcp[0] + t * (kcp[0] - hcp[0]), hcp[1] + t * (kcp[1] - hcp[1])))
            for z in zs:
                want = _sign(_power(n, h.radius_sq, hcp, z) - _power(n, k.radius_sq, kcp, z))
                assert _sign(a * z[0] + b * z[1] - cc) == want
    # the window cut and the wall reach: exact distance, nearest point and decision
    windows = [amalgam_rectangle(order), voronoi_cell(order)]
    for _ in range(8):
        z = kelem_from_planar(order, data.draw(rationals(2, 30)), data.draw(rationals(1, 30)))
        rsq = data.draw(radii_sq())
        for window in windows:
            dist = dist_sq_int(n, frame_of(window.vertices), z.planar_int())
            near = _read(dist)
            assert near == _polygon_nearest_ref(n, list(window.vertices), z.planar())
            assert (dist[0] * rsq.denominator > rsq.numerator * dist[1]) == (near[0] > rsq)
        ends = (data.draw(point), data.draw(point))
        for seg in (ends, (ends[0], ends[0])):
            near = _read(dist_sq_int(n, frame_of(seg), z.planar_int()))
            assert near == _segment_nearest_ref(n, *seg, z.planar())


@settings(max_examples=12, derandomize=True, deadline=None)
@given(delta=st.sampled_from(DISCS), data=st.data())
def test_one_rival_cover_leaves_no_cell_point_in_the_disc(delta, data):
    # whenever the walk ends on one rival's cover, that rival's power cell alone keeps no
    # point in h's open disc, by the Fraction distance of _polygon_nearest_ref
    order = make_order(delta)
    n = order.abs_delta
    point = st.tuples(rationals(), rationals(1, 24))
    fired = 0
    for _ in range(8):
        hc, hr = data.draw(point), data.draw(radii_sq())
        h = Hemisphere(kelem_from_planar(order, *hc), hr)
        rivals = [(data.draw(point), data.draw(radii_sq())), (hc, data.draw(radii_sq()))]  # the same center
        r = Fraction(math.isqrt(hr.numerator), math.isqrt(hr.denominator))
        if r * r == hr:
            d = Fraction(data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24)))
            # rivals that hold h's disc tangent inside (at distance exactly r_k - r), then
            # ones a hair smaller, and a rival tangent outside
            for rk in (r + d, r + d - Fraction(1, 10**6)):
                rivals += [((hc[0] + d, hc[1]), rk * rk), ((hc[0] - d, hc[1]), rk * rk)]
            rivals.append(((hc[0] + r + d, hc[1]), d * d))
        for c, rsq in rivals:
            k = Hemisphere(kelem_from_planar(order, *c), rsq)
            if k == h or _one_rival_walk(h, k) != [COVER]:
                continue
            fired += 1
            cell = _power_cell(h.disc, [bisector(n, h.disc, k.disc)])
            if cell is not None:
                w, verts = cell
                poly = [(Fraction(x, w), Fraction(y, w)) for x, y in verts]
                assert _polygon_nearest_ref(n, poly, h.center.planar())[0] >= hr
    assert fired


def _power_cell(hd, planes):
    # the power cell clipped by every plane, with no stop on an empty cell
    return cell_frame(functools.reduce(clip, planes, cell_square(hd)))


def _all_rivals_cell(h, rest):
    # every rival the disjointness rule keeps, all of their bisectors, and the one power cell
    # they clip
    n = h.center.order.abs_delta
    hd = h.disc
    hu, hv, hl, hp, hq = hd
    rivals = []
    for k in rest:
        ku, kv, kl, kp, kq = k.disc
        du, dv = hu * kl - ku * hl, hv * kl - kv * hl
        qq, ll = hq * kq, (hl * kl) ** 2
        g = (du * du + n * dv * dv) * qq - (hp * kq + kp * hq) * ll
        if not (g >= 0 and g * g * qq >= 4 * hp * kp * (ll * qq) ** 2):
            rivals.append(k.disc)
    planes = [bisector(n, hd, kd) for kd in rivals]
    return (planes, _power_cell(hd, planes))


def _all_rivals_status(h, rest):
    # the all-rivals classifier: the all-rivals cell, the near test and the witness walk
    order = h.center.order
    n = order.abs_delta
    hd = h.disc
    hu, hv, hl, hp, hq = hd
    if any(k.disc == hd for k in rest):
        return Covered()
    planes, cell = _all_rivals_cell(h, rest)
    if cell is None:
        return Covered()
    near_num, near_den, (x, y, w) = dist_sq_int(n, cell, (hu, hv, hl))
    if near_num * hq >= hp * near_den:
        return Covered()
    cw, verts = cell
    witness = h.center
    if not all(a * hu + b * hv < c * hl for a, b, c in planes):
        kw = len(verts) * cw
        sx, sy = (sum(p[i] for p in verts) for i in (0, 1))
        j = 1
        while True:
            ww = j * w * kw
            wx, wy = (j - 1) * kw * x + w * sx, (j - 1) * kw * y + w * sy
            if ((wx * hl - hu * ww) ** 2 + n * (wy * hl - hv * ww) ** 2) * hq < hp * (ww * hl) ** 2:
                break
            j *= 2
        witness = KElem.of(OInt(order, wx - order.trace * wy, 2 * wy), ww)
    return Contributes(witness)


@pytest.mark.parametrize(
    "delta, bound",
    list(itertools.product((-15, -19, -20, -40, -43, -67, -163, -1003), (1, 4, 5, 16, 17))) + [(-40, 64)],
)
def test_one_pass_classifier_matches_all_rivals(delta, bound):
    # the center test passes the rivals that h's center is strictly on top of, and the
    # walk stops at a duplicate, an empty cell or a one-rival cover; every status kind
    # and witness is still the all-rivals classifier's
    order = make_order(delta)
    for window in (amalgam_rectangle(order), voronoi_cell(order)):
        hs = enumerate_hemispheres(order, bound, window)
        hemis = hs.hemispheres
        near = _box_neighbours(order.abs_delta, [h.disc for h in hemis])
        want = tuple(_all_rivals_status(h, [hemis[k] for k in ks]) for h, ks in zip(hemis, near))
        assert face_statuses(hs) == want, window.kind

# the ten (delta, bound) cases at which the envelope was first read off its contributors
ENVELOPE_CASES = [(-40, 16), (-40, 64), (-40, 128), (-40, 256), (-67, 48), (-163, 128), (-163, 256), (-19, 16), (-15, 32), (-1003, 64)]
SPLIT_PLANES = (Fraction(2, 3), Fraction(1, 2), Fraction(1, 5), Fraction(9, 10), Fraction(1))


def _cell_extents_ref(n, center, cell):
    """Least and greatest squared distance from center (U/L, V/L) to the closed cell, as Fractions.

    Integers to the end, over the one denominator W*L: the cell's points
    (X/W, Y/W) read (X*L, Y*L) and the center (U*W, V*W), in the metric
    u^2 + n v^2.  Nearest: 0 when the center is inside every
    counterclockwise edge, else the least distance to an edge, the foot
    of the perpendicular clamped to the segment.  Written here, sharing
    no code with cells.py.
    """
    u, v, l = center
    w, verts = cell
    cu, cv = u * w, v * w
    pts = [(x * l, y * l) for x, y in verts]
    scale = (w * l) ** 2
    far = max((x - cu) ** 2 + n * (y - cv) ** 2 for x, y in pts)
    edges = list(zip(pts[-1:] + pts[:-1], pts))
    if all((bx - ax) * (cv - ay) - (by - ay) * (cu - ax) >= 0 for (ax, ay), (bx, by) in edges):
        return (Fraction(0), Fraction(far, scale))
    best = None  # (num, den) with den > 0
    for (ax, ay), (bx, by) in edges:
        du, dv, eu, ev = cu - ax, cv - ay, bx - ax, by - ay
        dot, ee = du * eu + n * dv * ev, eu * eu + n * ev * ev
        if dot <= 0:
            d = (du * du + n * dv * dv, 1)
        elif dot >= ee:
            d = ((cu - bx) ** 2 + n * (cv - by) ** 2, 1)
        else:
            d = ((du * du + n * dv * dv) * ee - dot * dot, ee)
        if best is None or d[0] * best[1] < best[0] * d[1]:
            best = d
    return (Fraction(best[0], best[1] * scale), Fraction(far, scale))


@pytest.mark.parametrize("delta, bound", ENVELOPE_CASES)
def test_plane_split_matches_all_rivals_extents(delta, bound):
    # plane_split clips each contributor by the contributors alone; its sides are still
    # those of near_sq and far_sq over the cell against every rival, measured here in
    # integers by _cell_extents_ref
    order = make_order(delta)
    n = order.abs_delta
    seen = set()
    for window in (amalgam_rectangle(order), voronoi_cell(order)):
        hs = enumerate_hemispheres(order, bound, window)
        hemis = hs.hemispheres
        rivals = box_rivals(n, [h.disc for h in hemis])
        # face_statuses(hs), read off the same rival source
        statuses = tuple(face_status(order, h.disc, (hemis[k].disc for k in rivals(i))) for i, h in enumerate(hemis))
        extents = []
        for i, (h, status) in enumerate(zip(hemis, statuses)):
            if isinstance(status, Contributes):
                _, cell = _all_rivals_cell(h, [hemis[k] for k in rivals(i)])
                extents.append((h, *_cell_extents_ref(n, h.center.planar_int(), cell)))
        for t0 in SPLIT_PLANES:
            above = [h for h, near_sq, _ in extents if near_sq < h.radius_sq - t0 * t0]
            below = [h for h, _, far_sq in extents if far_sq > h.radius_sq - t0 * t0]
            assert plane_split(hs, statuses, t0) == (above, below), (window.kind, t0)
            seen |= {(h in above, h in below) for h, _, _ in extents}
    # every case has faces above and faces not above; a face stays off `below` only at
    # -19/16 with t0 = 1/5
    assert {(True, True), (False, True)} <= seen
    assert ((True, False) in seen) == ((delta, bound) == (-19, 16))


HALF = Fraction(1, 2)
# the reflections of the amalgam rectangle's box, whose center is (0, 1/4), on planar points
BOX_MAPS = {"u": lambda u, v: (-u, v), "v": lambda u, v: (u, HALF - v), "point": lambda u, v: (-u, HALF - v)}


def _image(f, h):
    return Hemisphere(kelem_from_planar(h.center.order, *f(*h.center.planar())), h.radius_sq)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    delta=st.sampled_from((-15, -20, -40, -43)),
    group=st.sampled_from((("u",), ("v",), ("point",), ("u", "v", "point"))),
    case=st.sampled_from(("symmetric", "moved", "trap")),
    data=st.data(),
)
def test_mirror_orbits_match_all_rivals(delta, group, case, data):
    # discs closed under some of the box reflections ("symmetric"), the same with one disc
    # moved off the symmetry, and the multiset trap: a duplicate pair whose image is one
    # disc, where no map is a permutation and nothing may carry over.  Radii repeat and
    # some pairs are tangent.  face_statuses is the all-rivals classifier's, mirror_low
    # names only true images, and plane_split's sides are the all-rivals cell's
    order = make_order(delta)
    n = order.abs_delta
    point = st.tuples(rationals(1, 4).map(lambda x: x / 2), rationals(1, 4).map(lambda x: x / 2))
    radius = st.sampled_from((Fraction(1), Fraction(1, 4), Fraction(1, 9), Fraction(4, 9), Fraction(1, 16)))  # squares
    base = []
    for _ in range(data.draw(st.integers(2, 6))):
        (u, v), rsq = data.draw(point), data.draw(radius)
        base.append(Hemisphere(kelem_from_planar(order, u, v), rsq))
        if data.draw(st.booleans()):  # a disc tangent to it from outside, along u
            ssq = data.draw(radius)
            r, s = (Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator)) for x in (rsq, ssq))
            base.append(Hemisphere(kelem_from_planar(order, u + r + s, v), ssq))
    hemis = list(dict.fromkeys(base + [_image(BOX_MAPS[g], h) for g in group for h in base]))
    hemis = list(data.draw(st.permutations(hemis)))
    if case == "moved":
        i = data.draw(st.integers(0, len(hemis) - 1))
        u, v = hemis[i].center.planar()
        hemis[i] = Hemisphere(kelem_from_planar(order, u + Fraction(1, 97), v), hemis[i].radius_sq)
    if case == "trap":
        f = BOX_MAPS[group[0]]
        off = [h for h in hemis if _image(f, h) != h]
        if off:
            a = data.draw(st.sampled_from(off))
            hemis.insert(data.draw(st.integers(0, len(hemis))), a)  # a twice, its image once
    hs = HemiSet(order=order, discs=tuple(h.disc for h in hemis), owners=(), norm_bound=1, window=amalgam_rectangle(order))
    low = hs.mirror_low
    if len(set(hemis)) < len(hemis):
        assert low == tuple(range(len(hemis)))
    # each orbit's least index is an image of the disc under a map that fixes the set, and
    # every such map is found where it keeps the rows in lowest terms: always for u -> -u,
    # and for all three at even delta
    fixing = [g for g, f in BOX_MAPS.items() if {_image(f, h) for h in hemis} == set(hemis)]
    for i, h in enumerate(hemis):
        assert hemis[low[i]] in {h} | {_image(BOX_MAPS[g], h) for g in fixing}
        for g in fixing:
            if len(set(hemis)) == len(hemis) and (g == "u" or order.even):
                assert low[i] <= hemis.index(_image(BOX_MAPS[g], h))
    statuses = face_statuses(hs)
    near = _box_neighbours(n, hs.discs)
    assert statuses == tuple(_all_rivals_status(h, [hemis[k] for k in ks]) for h, ks in zip(hemis, near))
    if len(set(hemis)) < len(hemis):
        return  # plane_split reads a set with no duplicates
    extents = []
    for h, status, ks in zip(hemis, statuses, near):
        if isinstance(status, Contributes):
            _, cell = _all_rivals_cell(h, [hemis[k] for k in ks])
            extents.append((h, *_cell_extents_ref(n, h.center.planar_int(), cell)))
    for t0 in (Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)):
        above = [h for h, near_sq, _ in extents if near_sq < h.radius_sq - t0 * t0]
        below = [h for h, _, far_sq in extents if far_sq > h.radius_sq - t0 * t0]
        assert plane_split(hs, statuses, t0) == (above, below)


def test_mirror_orbits_skip_no_permutation():
    # the multiset trap by hand: a, a and a's image b under u -> -u.  The rows are no
    # permutation, so b is walked and contributes, while both copies of a are Covered
    a = Hemisphere(kelem_from_planar(ORDER40, Fraction(1, 3), Fraction(1, 8)), Fraction(1, 9))
    b = _image(BOX_MAPS["u"], a)
    hs = HemiSet(order=ORDER40, discs=(a.disc, a.disc, b.disc), owners=(), norm_bound=1, window=amalgam_rectangle(ORDER40))
    assert hs.mirror_low == (0, 1, 2)
    assert face_statuses(hs) == (Covered(), Covered(), Contributes(b.center))
    hs = HemiSet(order=ORDER40, discs=(a.disc, b.disc), owners=(), norm_bound=1, window=amalgam_rectangle(ORDER40))
    assert hs.mirror_low == (0, 0)


class _Watched(int):
    """An int that records each arithmetic operation it takes part in; the results are plain ints."""

    seen: list = []


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "__floordiv__", "__mod__"):
    setattr(_Watched, _name, lambda self, other, _name=_name: _Watched.seen.append(_name) or getattr(int, _name)(self, other))


@pytest.mark.parametrize("delta, bound", [(-40, 16), (-163, 16), (-1003, 64)])
def test_apex_face_reads_no_smaller_rival(monkeypatch, delta, bound):
    # the apex lemma: when h's center is its witness, a rival no larger than h that is no
    # duplicate passes on one comparison of radii.  Its center integers take part in no
    # arithmetic and it reaches no bisector; statuses are as with plain ints
    order = make_order(delta)
    hs = enumerate_hemispheres(order, bound, amalgam_rectangle(order))
    discs = hs.discs
    bisected = []
    real_bisector = arrangement.bisector
    monkeypatch.setattr(arrangement, "bisector", lambda n, hd, kd: bisected.append((hd, kd)) or real_bisector(n, hd, kd))
    apex = 0
    for hd, ks in zip(discs, _box_neighbours(order.abs_delta, discs)):
        rest = [discs[k] for k in ks]
        want = face_status(order, hd, rest)
        smaller = [kd[3] * hd[4] <= hd[3] * kd[4] and kd != hd for kd in rest]
        watched = [(*map(_Watched, kd[:3]), *kd[3:]) if small else kd for kd, small in zip(rest, smaller)]
        _Watched.seen.clear()
        bisected.clear()
        assert face_status(order, hd, watched) == want
        hu, hv, hl = hd[:3]
        if want == Contributes(kelem_from_planar_int(order, hu, hv, hl)):
            assert _Watched.seen == [] and bisected == []
            apex += any(smaller)
    assert apex >= 5


def _object_enumeration(order, bound, window):
    # the enumeration as objects, one Hemisphere and one UnimodularPair per kept pair: each
    # pair of pair_scan over the padded box whose center lies within its radius of the
    # window, with center KElem.of(xa + xb*t, N) and radius^2 1/N, sorted by (N, V, U)
    n, e = order.abs_delta, order.trace
    frame = frame_of(window.vertices)
    kept = []
    for a, b, c, d, xa, xb, norm in pair_scan(order, _padded_box(order, window), bound):
        u, v = 2 * xa + e * xb, xb
        num, den, _ = dist_sq_int(n, frame, (u, v, 2 * norm))
        if num * norm <= den:
            hemi = Hemisphere(KElem.of(OInt(order, xa, xb), norm), Fraction(1, norm))
            kept.append(((norm, v, u), hemi, UnimodularPair(OInt(order, a, b), OInt(order, c, d))))
    kept.sort(key=lambda k: k[0])
    return (tuple(h for _, h, _ in kept), tuple(p for _, _, p in kept))


@pytest.mark.parametrize("delta, bound", ENVELOPE_CASES)
def test_hemiset_views_are_the_objects_of_each_pair(delta, bound):
    # the integer discs and owner rows read back as the objects once built per kept pair,
    # and the hemispheres view is built once: a second read returns the same objects
    order = make_order(delta)
    for window in (amalgam_rectangle(order), voronoi_cell(order)):
        hs = enumerate_hemispheres(order, bound, window)
        hemis, pairs = _object_enumeration(order, bound, window)
        assert hs.discs == tuple(h.disc for h in hemis)
        assert hs.owners == tuple((p.lam.a, p.lam.b, p.mu.a, p.mu.b) for p in pairs)
        assert hs.hemispheres == hemis
        assert hs.hemispheres is hs.hemispheres


def test_center_on_a_bisector_is_no_witness():
    # k's bisector against h, u <= 0, passes through h's center 0: there h and k have
    # height^2 1/4 each, so the center test must not pass k, and the walk gives the cell
    # [-1, 0] x [-1, 1], whose vertex average (-1/2, 0) is on h's circle; one halving
    # toward the nearest point 0 gives (-1/4, 0).  j, whose bisector is u >= -3/8, is
    # passed by the center test and clipped once the walk starts at k, in either order
    h = Hemisphere(KElem.from_oint(ORDER40.zero), Fraction(1, 4))
    k = Hemisphere(kelem_from_planar(ORDER40, Fraction(1, 2), 0), Fraction(1, 2))
    j = Hemisphere(kelem_from_planar(ORDER40, Fraction(-3, 4), 0), Fraction(1, 4))
    assert _height_sq(h, h.center) == _height_sq(k, h.center) == Fraction(1, 4)
    assert _one_rival_walk(h, k) == [bisector(ORDER40.abs_delta, h.disc, k.disc)]
    assert _one_rival_walk(h, j) == [CENTER]
    assert face_status(ORDER40, h.disc, [k.disc]) == Contributes(kelem_from_planar(ORDER40, Fraction(-1, 4), 0))
    # [-3/8, 0] x [-1, 1] has its vertex average (-3/16, 0) inside h's disc
    want = Contributes(kelem_from_planar(ORDER40, Fraction(-3, 16), 0))
    assert face_status(ORDER40, h.disc, [j.disc, k.disc]) == face_status(ORDER40, h.disc, [k.disc, j.disc]) == want
    for rest in ([k], [j, k]):
        w = face_status(ORDER40, h.disc, [r.disc for r in rest]).witness
        assert all(_height_sq(h, w) > _height_sq(r, w) for r in rest)
    assert face_status(ORDER40, h.disc, [j.disc]) == Contributes(h.center)


def test_pe2_only_subarrangement_has_radius_one_faces():
    full = _rect_set()
    keep = [
        (h, p)
        for h, p in zip(full.hemispheres, _pairs(full))
        if isinstance(membership(p.completion), Member)
    ]
    assert any(h.radius_sq < 1 for h, _ in keep)
    sub = HemiSet(
        order=ORDER40,
        discs=tuple(h.disc for h, _ in keep),
        owners=tuple((p.lam.a, p.lam.b, p.mu.a, p.mu.b) for _, p in keep),
        norm_bound=full.norm_bound,
        window=full.window,
    )
    contributing = [
        h for h, s in zip(sub.hemispheres, face_statuses(sub)) if isinstance(s, Contributes)
    ]
    assert all(h.radius_sq == 1 for h in contributing)
    assert len(contributing) == 6


def test_svg_topview_deterministic():
    hs = _rect_set(4)
    statuses = face_statuses(hs)
    split = plane_split(hs, statuses, Fraction(2, 3))
    first = svg_topview(hs, statuses, split)
    assert svg_topview(hs, statuses, split) == first
    assert first.count("<circle") == len(hs.hemispheres)
    assert "<polygon" in first
    # a hand-built split: the stroke tells above only, below only, both and neither apart
    h0, h1, h2, *rest = hs.hemispheres
    text = svg_topview(hs, statuses, ([h0, h2], [h1, h2]))
    strokes = re.findall(r'stroke="(#[0-9a-f]{6})" stroke-width="1.5"', text)
    assert strokes == [_STROKE_ABOVE, _STROKE_BELOW, _STROKE_BOTH] + [_STROKE_NONE] * len(rest)
    assert len({_STROKE_ABOVE, _STROKE_BELOW, _STROKE_BOTH, _STROKE_NONE}) == 4


def test_svg_topview_empty_set_draws_window_only():
    window = amalgam_rectangle(ORDER40)
    hs = HemiSet(order=ORDER40, discs=(), owners=(), norm_bound=1, window=window)
    text = svg_topview(hs, (), ([], []))
    assert "<circle" not in text
    assert "<polygon" in text
    assert text.startswith("<svg ")
