"""The planar integer cell kernel: bisectors, clipping, power cells, distances.

Points are (u, v) for u + v*sqrt(|delta|)*i, in the metric u^2 + |delta| v^2.
Each disc is read once into integers (Hemisphere.disc).  bisector, the one
routine that builds a bisector, gives the integer half-plane of one pair
of discs, so a caller builds each plane only when its clip needs it.
A power cell is clipped from the disc's cell_square in homogeneous
integer points (x, y, w) and closed by cell_frame; a clip that cuts
nothing hands its polygon back at once.  dist_sq_int, the one planar
distance routine, measures a point against a cell over one common
denominator (a Frame).  box_dist_sq_int measures against a frame's
bounding box (box_of) in a few products: never more than dist_sq_int,
and the same number when the frame is its own box, a rectangle or an
axis-parallel segment, so there it decides alone.  The Voronoi cell of
the lattice is the power cell of the unit disc at 0.

box_rivals finds which discs can meet without a test of every pair: each
disc is read into an integer box in (u, sqrt(|delta|)*v) of cells
1/_BOX_SCALE wide, rounded outward, so the boxes of two discs that meet
always meet.  It lists nothing up front: rivals(i) yields disc i's box
neighbours in index order, one run of equal box radii at a time, and a
caller that stops early reads no further.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Callable, Iterator, Sequence

# (U, V, L, P, Q): planar center (U/L, V/L) and squared radius P/Q, with L, Q > 0
Disc = tuple[int, int, int, int, int]
Point = tuple[Fraction, Fraction]
Frame = tuple[int, tuple[tuple[int, int], ...]]  # W > 0 and the points (X/W, Y/W) as integer pairs (X, Y)
HPoint = tuple[int, int, int]  # (x, y, w) with w > 0: the point (x/w, y/w)
HalfPlane = tuple[int, int, int]  # a*u + b*v <= c, integer coefficients
Box = tuple[int, int, int, int, int]  # (W, X_lo, X_hi, Y_lo, Y_hi): [X_lo/W, X_hi/W] x [Y_lo/W, Y_hi/W], W > 0

_BOX_SCALE = 64  # box_rivals' cells per unit of u and of sqrt(|delta|)*v


def frame_of(points: Sequence[Point]) -> Frame:
    """The points over one common denominator."""
    w = math.lcm(*(c.denominator for p in points for c in p))
    return (w, tuple((x.numerator * w // x.denominator, y.numerator * w // y.denominator) for x, y in points))


def box_of(frame: Frame) -> tuple[Box, bool]:
    """The frame's bounding box, and whether the frame is that box.

    It is iff every corner of the box is a frame point: a convex polygon
    through the four corners holds the box and lies in it.  So a rectangle
    and an axis-parallel segment (or one point) are their own boxes, and a
    hexagon or a slanted segment is not.
    """
    w, pts = frame
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    box = (w, min(xs), max(xs), min(ys), max(ys))
    return (box, {(x, y) for x in box[1:3] for y in box[3:]} <= set(pts))


def box_dist_sq_int(n: int, box: Box, p: HPoint) -> tuple[int, int]:
    """Squared distance from p to the closed box as num/den with den > 0.

    In the metric u^2 + |delta| v^2 the nearest point of an axis-parallel
    box clamps each coordinate, so the squared distance is the sum of the
    squared excesses past the box, over the denominator W*L.
    """
    w, xlo, xhi, ylo, yhi = box
    u, v, l = p
    du = max(xlo * l - u * w, u * w - xhi * l, 0)
    dv = max(ylo * l - v * w, v * w - yhi * l, 0)
    return (du * du + n * dv * dv, (w * l) ** 2)


def segment_dist_sq_int(n: int, a: tuple[int, int], b: tuple[int, int], pu: int, pv: int) -> tuple[int, int, HPoint]:
    """Squared distance from (pu, pv) to the segment ab as num/den with den > 0, and the nearest point.

    All integers; a segment of length 0 is its one point.
    """
    du, dv = pu - a[0], pv - a[1]
    eu, ev = b[0] - a[0], b[1] - a[1]
    dot = du * eu + n * dv * ev
    if dot <= 0:
        return (du * du + n * dv * dv, 1, (a[0], a[1], 1))
    ee = eu * eu + n * ev * ev
    if dot >= ee:
        du, dv = pu - b[0], pv - b[1]
        return (du * du + n * dv * dv, 1, (b[0], b[1], 1))
    # |d|^2 - (d.e)^2 / |e|^2, the foot a + (d.e / |e|^2) e strictly inside the segment
    return ((du * du + n * dv * dv) * ee - dot * dot, ee, (a[0] * ee + dot * eu, a[1] * ee + dot * ev, ee))


def dist_sq_int(n: int, frame: Frame, p: HPoint) -> tuple[int, int, HPoint]:
    """Squared distance from p to the frame's closed polygon as num/den with den > 0, and the nearest point.

    A frame of two points is the closed segment between them.  Points and
    p meet over the denominator W*L, so every step is integer arithmetic.
    The nearest point of a convex set is unique, so ties between edges
    name the same point.
    """
    w, verts = frame
    u, v, l = p
    pu, pv = u * w, v * w
    pts = [(x * l, y * l) for x, y in verts]
    k = len(pts)
    if k > 2 and all(
        (b[0] - a[0]) * (pv - a[1]) - (b[1] - a[1]) * (pu - a[0]) >= 0 for a, b in zip(pts[-1:] + pts, pts)
    ):
        return (0, 1, p)
    best = segment_dist_sq_int(n, pts[-1], pts[0], pu, pv)
    for i in range(1, k if k > 2 else 0):
        near = segment_dist_sq_int(n, pts[i - 1], pts[i], pu, pv)
        if near[0] * best[1] < best[0] * near[1]:
            best = near
    num, den, (x, y, h) = best
    scale = w * l
    return (num, den * scale * scale, (x, y, h * scale))


def box_rivals(n: int, discs: Sequence[Disc]) -> Callable[[int], Iterator[int]]:
    """rivals(i): lazily, in ascending index order, the other discs whose integer boxes meet disc i's.

    At scale s = _BOX_SCALE a disc reads as an integer center c, with
    s*u and s*y in [c, c + 1] for y = sqrt(|delta|)*v, and the radius
    r = floor(s*radius) + 1 > s*radius; its box runs from c - r to
    c + r + 1 on each axis.  So the box holds the closed disc, and two
    closed discs that meet, down to a tangent or a duplicate, have boxes
    that meet: boxes of radii r and r' meet iff their centers differ by
    at most r + r' + 1 on both axes.  The discs split into runs of
    consecutive indices with one box radius whose centers rise in y
    (HemiSet's sort on (N, V, U) makes each norm one run; any other order
    only gives shorter runs).  rivals(i) reads the runs in order: two
    bisects give each run's y-window, and a filter on u keeps the boxes
    that meet.  Nothing is read past the rival a caller stops at.
    """
    s = _BOX_SCALE
    boxes = []  # (center u, center y, radius), all in cells
    runs: list[tuple[int, int, list[int], list[int]]] = []  # (first index, radius, center ys, center us)
    for i, (u, v, l, p, q) in enumerate(discs):
        r = math.isqrt(s * s * p // q) + 1
        cu = s * u // l
        cy = math.isqrt(s * s * n * v * v // (l * l))  # floor(s*|y|)
        if v < 0:
            cy = -cy - 1  # s*y lies in [-cy - 1, -cy]
        boxes.append((cu, cy, r))
        if runs and runs[-1][1] == r and runs[-1][2][-1] <= cy:
            runs[-1][2].append(cy)
            runs[-1][3].append(cu)
        else:
            runs.append((i, r, [cy], [cu]))

    def rivals(i: int) -> Iterator[int]:
        cu, cy, ri = boxes[i]
        for first, r, ys, us in runs:
            d = r + ri + 1
            lo = bisect_left(ys, cy - d)
            if lo < len(ys) and ys[lo] <= cy + d:  # else the window is empty, as it mostly is at a large |delta|
                for j in range(lo, bisect_right(ys, cy + d, lo + 1)):
                    if -d <= us[j] - cu <= d and first + j != i:
                        yield first + j

    return rivals


def bisector(n: int, hd: Disc, kd: Disc) -> HalfPlane:
    """Closed half-plane where the disc hd is at least as high as the disc kd.

    pow_h(z) <= pow_k(z) reads 2 (c_k - c_h).(u, |delta| v) <= pow_k(0) - pow_h(0);
    times (L_h L_k)^2 Q_h Q_k, then divided by the content, it has integer
    coefficients.  A positive rescale moves no clip point.
    """
    hu, hv, hl, hp, hq = hd
    ku, kv, kl, kp, kq = kd
    lq = 2 * hl * kl * hq * kq
    a = (ku * hl - hu * kl) * lq
    b = n * (kv * hl - hv * kl) * lq
    ll = (hl * kl) ** 2
    c = ((ku * ku + n * kv * kv) * hl * hl - (hu * hu + n * hv * hv) * kl * kl) * hq * kq - (kp * hq - hp * kq) * ll
    g = math.gcd(a, b, c) or 1
    return (a // g, b // g, c // g)


def clip(poly: list[HPoint], plane: HalfPlane) -> list[HPoint]:
    """Sutherland-Hodgman step on homogeneous points; only strict sign changes add a point.

    When every point lies on the plane's closed inner side the step would
    keep them all, in order, so the input list itself comes back.  A
    polygon comes out without repeated points.  A list of two points is
    a segment, with no closing edge back to its start, so it comes out as
    its clipped ends: two points, one, or none.
    """
    a, b, c = plane
    # a*u + b*v - c at (x/w, y/w), times w > 0
    side = [a * x + b * y - c * w for x, y, w in poly]
    if max(side, default=0) <= 0:
        return poly
    out = []
    # the edge into the first point closes a polygon; a segment has none, and sp = 0 adds no crossing
    p, sp = (poly[-1], side[-1]) if len(poly) > 2 else (poly[0], 0)
    for q, sq in zip(poly, side):
        if sp < 0 < sq or sq < 0 < sp:
            # sq*p - sp*q is the crossing p + t(q - p) with t = sp/(sp - sq), up to scale
            (px, py, pw), (qx, qy, qw) = p, q
            x, y, w = sq * px - sp * qx, sq * py - sp * qy, sq * pw - sp * qw
            if w < 0:
                x, y, w = -x, -y, -w
            g = math.gcd(x, y, w)
            out.append((x // g, y // g, w // g))
        if sq <= 0:
            out.append(q)
        p, sp = q, sq
    return out


def cell_square(hd: Disc) -> list[HPoint]:
    """The square center +-1 of the disc, counterclockwise: where its power cell is clipped from.

    The square holds every cell that is asked for.  A hemisphere's disc has
    radius at most 1, so the square holds the disc, and with it every point
    where the hemisphere can be on top.  A Voronoi cell of the lattice
    has |u| <= 1/2 and |v| <= (n+1)/(4n) <= 1/2.
    """
    u, v, l = hd[:3]
    return [(u - l, v - l, l), (u + l, v - l, l), (u + l, v + l, l), (u - l, v + l, l)]


def cell_frame(poly: Sequence[HPoint]) -> Frame | None:
    """A clipped cell over one common denominator, counterclockwise; None without area.

    Fewer than 3 points have no area, and a clip never regains area, so a
    caller may stop clipping as soon as its cell drops below 3 points.
    """
    w = math.lcm(*(p[2] for p in poly))
    verts = tuple((x * (w // pw), y * (w // pw)) for x, y, pw in poly)
    # twice the area, by the shoelace sum
    area2 = sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(verts[-1:] + verts, verts))
    return (w, verts) if area2 > 0 else None

