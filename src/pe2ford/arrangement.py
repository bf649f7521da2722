"""Hemisphere arrangements over a fundamental polygon, split by a height plane.

A determinant-one matrix with bottom-left entry mu != 0 and top-left
entry lambda acts through an isometric hemisphere centered at lambda/mu
with squared radius 1/norm(mu), and every unimodular pair (lambda, mu)
arises this way.  Enumerating the pairs up to a norm bound gives a
finite stage of the full arrangement.

The top hemisphere at a boundary point is the one of least power
|z - c|^2 - r^2, so the visible faces are the cells of a power diagram
cut out by rational lines.  Whether a face exists, and whether it
reaches above or below a plane t = t0, are distance comparisons between
its cell and its center; the same lines on a wall decide where the
arrangement dips under the plane.  Contributes and Covered are exact
for the truncated arrangement; floats appear only in the SVG emitter.

The cells come from the integer kernel in cells.py.  Fractions appear
only in the near_sq and far_sq of a Contributes and in the walk that
moves an off-center witness into the open disc.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cells import HalfPlane, Point, bisectors, clip, dist_sq_int, frame_of, power_cell
from .errors import OutOfScope
from .ford import FundPolygon
from .moebius import Disc, Hemisphere, Mat
from .orders import (
    KElem,
    OInt,
    Order,
    kelem_from_planar,
    lattice_points_norm_at_most,
    lattice_points_within,
)


def _one_in_span(lam: OInt, mu: OInt) -> tuple[OInt, OInt]:
    """Write 1 over the Z-span of (lam, lam*tau, mu, mu*tau), which must be all of Z^2.

    Rows carry coordinates in the basis (1, tau) plus a tracked
    coefficient vector; a column-echelon reduction over Z leaves a row
    (+-1, y) and a row (0, +-1), and the tracked coefficients of the
    combination that gives (1, 0) regroup into order elements x, y with
    x*lam + y*mu = 1.
    """
    order = lam.order
    rows = []
    for i, g in enumerate((lam, lam * order.tau, mu, mu * order.tau)):
        row = [g.a, g.b, 0, 0, 0, 0]
        row[2 + i] = 1
        rows.append(row)

    def clear_column(col: int, pool: list[list[int]]) -> tuple[list[int], list[list[int]]]:
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
    # the lattice is Z^2, so p0[0] and p1[1] are +-1
    c0 = p0[0]
    c1 = -c0 * p0[1] * p1[1]
    combo = [c0 * p0[j] + c1 * p1[j] for j in range(6)]
    x = OInt(order, combo[2], combo[3])
    y = OInt(order, combo[4], combo[5])
    return (x, y)


def unit_ideal(lam: OInt, mu: OInt) -> bool:
    """Whether (lam, mu) generates the unit ideal; builds no matrix.

    It does iff (lam, lam*tau, mu, mu*tau) span Z^2, that is iff the gcd of their six 2x2 minors is 1.
    """
    gens = (lam, lam * lam.order.tau, mu, mu * mu.order.tau)
    return math.gcd(*(g.a * k.b - g.b * k.a for g, k in itertools.combinations(gens, 2))) == 1


def is_unimodular(lam: OInt, mu: OInt) -> Mat | None:
    """Completion of (lam, mu) to a determinant-one first column, or None.

    unit_ideal decides first, and only a pair that passes is reduced:
    the tracked reduction yields x, y with x*lam + y*mu = 1 and the
    completion [[lam, -y], [mu, x]], deterministic but only canonical
    up to a right shift.
    """
    if lam.is_zero() and mu.is_zero():
        raise ValueError("(0, 0) is not a pair")
    if not unit_ideal(lam, mu):
        return None
    x, y = _one_in_span(lam, mu)
    return Mat(lam, -y, mu, x)


@dataclass(frozen=True)
class UnimodularPair:
    """Pair (lam, mu) generating the unit ideal, with mu != 0; the completion is built on each read."""

    lam: OInt
    mu: OInt

    def __post_init__(self) -> None:
        if self.mu.is_zero():
            raise ValueError("mu must be nonzero")

    @property
    def completion(self) -> Mat:
        """A determinant-one matrix with first column (lam, mu); ValueError if there is none."""
        m = is_unimodular(self.lam, self.mu)
        if m is None:
            raise ValueError("(lam, mu) does not generate the unit ideal")
        return m

    def ratio(self) -> KElem:
        return KElem.of(self.lam, self.mu)

    def hemisphere(self) -> Hemisphere:
        return Hemisphere(self.ratio(), Fraction(1, self.mu.norm()))


@dataclass(frozen=True)
class HemiSet:
    """Hemispheres near a window and the pairs they come from, aligned index by index."""

    order: Order
    hemispheres: tuple[Hemisphere, ...]
    pairs: tuple[UnimodularPair, ...]
    norm_bound: int
    window: FundPolygon


def enumerate_hemispheres(order: Order, norm_bound: int, window: FundPolygon) -> HemiSet:
    """All hemispheres of pairs with norm(mu) <= norm_bound near the window.

    A hemisphere makes the cut when its center lies within one radius
    of the window, so faces clipped at the boundary stay present.  The
    disc is tested first, since most miss the window, then unit_ideal;
    no completion is built.  mu has the canonical sign, as (lam, mu) and
    (-lam, -mu) give one hemisphere, and unimodular pairs of one ratio
    differ by a unit, so no hemisphere comes twice.  The output is
    sorted by descending radius, then center.
    """
    if not order.group_scope:
        raise OutOfScope("hemisphere arrangement needs |delta| > 12")
    if norm_bound < 1:
        raise ValueError("norm_bound must be >= 1")
    n = order.abs_delta
    wu, wv = window.center
    circum_sq = max((u - wu) ** 2 + n * (v - wv) ** 2 for u, v in window.vertices)
    wc = kelem_from_planar(order, wu, wv)
    frame = frame_of(window.vertices)
    found: list[tuple[Hemisphere, UnimodularPair]] = []
    for mu in lattice_points_norm_at_most(order, norm_bound):
        if not mu.is_canonical_positive():
            continue
        rsq = Fraction(1, mu.norm())
        # centers live within circumradius + radius of the window center;
        # overshoot via (a + b)^2 <= 2a^2 + 2b^2, then filter exactly
        reach = (2 * circum_sq + 2 * rsq) * mu.norm()
        for lam in lattice_points_within(wc * mu, reach):
            pair = UnimodularPair(lam, mu)
            h = pair.hemisphere()
            u, v, l, p, q = h.disc
            num, den, _ = dist_sq_int(n, frame, (u, v, l))
            if num * q > p * den:  # farther than the radius from the window
                continue
            if not unit_ideal(lam, mu):
                continue
            found.append((h, pair))
    ordered = sorted(found, key=lambda hp: hp[0].sort_key())
    return HemiSet(
        order=order,
        hemispheres=tuple(h for h, _ in ordered),
        pairs=tuple(p for _, p in ordered),
        norm_bound=norm_bound,
        window=window,
    )


@dataclass(frozen=True)
class Contributes:
    """Exact point where the hemisphere is strictly on top, and the extent of its power cell.

    Over the cell the squared distance from the center runs from near_sq to far_sq.
    """

    witness: KElem
    near_sq: Fraction
    far_sq: Fraction


@dataclass(frozen=True)
class Covered:
    """No point of the disc where the hemisphere is strictly on top."""


FaceStatus = Contributes | Covered


def _rivals(n: int, hd: Disc, pool: Sequence[Hemisphere]) -> list[HalfPlane] | None:
    """Bisectors against the hemispheres of pool whose open disc meets the disc hd.

    Returns None when the pool holds a duplicate of hd: a tie at every
    point means no strict dominance anywhere.
    """
    hu, hv, hl, hp, hq = hd
    rivals = []
    for k in pool:
        kd = k.disc
        if kd == hd:
            return None
        ku, kv, kl, kp, kq = kd
        # gap = |c_h - c_k|^2 - r_h^2 - r_k^2, times (L_h L_k)^2 Q_h Q_k > 0
        du, dv = hu * kl - ku * hl, hv * kl - kv * hl
        qq = hq * kq
        ll = (hl * kl) ** 2
        g = (du * du + n * dv * dv) * qq - (hp * kq + kp * hq) * ll
        if g >= 0 and g * g * qq >= 4 * hp * kp * (ll * qq) ** 2:
            continue  # gap^2 >= 4 r_h^2 r_k^2: open discs disjoint, k is below the floor on all of h
        rivals.append(kd)
    return bisectors(n, hd, rivals)


def face_status(h: Hemisphere, rest: Sequence[Hemisphere]) -> FaceStatus:
    """Contributes iff h's power cell against its rivals has area and meets h's open disc.

    rest is taken literally, so a duplicate of h in it means Covered.
    """
    order = h.center.order
    n = order.abs_delta
    hd = h.disc
    planes = _rivals(n, hd, rest)
    cell = None if planes is None else power_cell(hd, planes)
    if cell is None:
        return Covered()
    hu, hv, hl, hp, hq = hd
    near_num, near_den, (x, y, w) = dist_sq_int(n, cell, (hu, hv, hl))
    if near_num * hq >= hp * near_den:  # no cell point inside the open disc
        return Covered()
    cw, verts = cell
    # |vertex - center|^2 times (W L)^2
    far_num = max((vx * hl - hu * cw) ** 2 + n * (vy * hl - hv * cw) ** 2 for vx, vy in verts)
    witness = nearest = (Fraction(x, w), Fraction(y, w))  # the center itself when the cell holds it
    if not all(a * hu + b * hv < c * hl for a, b, c in planes):
        # the center is not strictly inside; points strictly between the
        # nearest point and the vertex average are, so halve toward it
        cu, cv = Fraction(hu, hl), Fraction(hv, hl)
        k = len(verts)
        du, dv = (Fraction(sum(p[i] for p in verts), k * cw) - nearest[i] for i in (0, 1))
        step = Fraction(1)
        while True:
            witness = (nearest[0] + step * du, nearest[1] + step * dv)
            if (witness[0] - cu) ** 2 + n * (witness[1] - cv) ** 2 < h.radius_sq:
                break
            step /= 2
    return Contributes(
        kelem_from_planar(order, *witness), Fraction(near_num, near_den), Fraction(far_num, (cw * hl) ** 2)
    )


def face_statuses(hs: HemiSet) -> tuple[FaceStatus, ...]:
    """Status of each hemisphere against all the others, in set order."""
    out = []
    for i, h in enumerate(hs.hemispheres):
        rest = hs.hemispheres[:i] + hs.hemispheres[i + 1 :]
        out.append(face_status(h, rest))
    return tuple(out)


def plane_split(
    hs: HemiSet, statuses: Sequence[FaceStatus], t0: Fraction
) -> tuple[list[Hemisphere], list[Hemisphere]]:
    """Divide the contributing faces by the horizontal plane t = t0 > 0.

    A face lands in `above` when it has a point strictly higher than
    t0, in `below` when it has one strictly lower; faces crossing the
    plane show up in both lists.
    """
    if t0 <= 0:
        raise ValueError("the plane needs t0 > 0")
    t0sq = Fraction(t0) ** 2
    # a face point at squared distance d from the center has height^2 radius_sq - d
    faces = [(h, s) for h, s in zip(hs.hemispheres, statuses) if isinstance(s, Contributes)]
    above = [h for h, s in faces if s.near_sq < h.radius_sq - t0sq]
    below = [h for h, s in faces if s.far_sq > h.radius_sq - t0sq]
    return (above, below)


def envelope_dips_below(hs: HemiSet, start: Point, end: Point, t0: Fraction) -> bool:
    """Whether the top of the arrangement drops under t0 > 0 on the closed segment.

    Each hemisphere reaching the segment is on top on the part its
    bisectors clip out of it; height is concave along the segment, so
    the ends of that part are its lowest points.  Where no disc reaches,
    the height is the floor 0.
    """
    n = hs.order.abs_delta
    frame = frame_of((start, end))
    discs = []  # the discs that reach the segment
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
        for plane in bisectors(n, hd, discs[:i] + discs[i + 1 :]):
            part = clip(part, plane)
            if not part:
                break
        u, v, l, p, q = hd
        for x, y, pw in part:
            # height^2 = P/Q - D/S < ta/tb at (x/pw, y/pw), times Q S tb > 0
            s = (pw * l) ** 2
            d = (x * l - u * pw) ** 2 + n * (y * l - v * pw) ** 2
            if (p * s - d * q) * tb < ta * q * s:
                return True
    return False


_FILL_CONTRIBUTES = "#ffffff"
_FILL_COVERED = "#d8d8d8"
_STROKE_BOTH = "#c0392b"
_STROKE_ABOVE = "#2471a3"
_STROKE_BELOW = "#1e8449"
_STROKE_NONE = "#7f8c8d"
_SVG_SCALE = 100


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def svg_topview(
    hs: HemiSet,
    statuses: Sequence[FaceStatus],
    split: tuple[Sequence[Hemisphere], Sequence[Hemisphere]],
) -> str:
    """Top-down view of the arrangement; the imaginary axis runs left to right.

    Deterministic: the same inputs yield byte-identical output.  Fill
    encodes face status, stroke encodes the side of the plane split,
    and the window outline is drawn on top.  One unit of u is
    _SVG_SCALE pixels.
    """
    sqrt_n = math.sqrt(hs.order.abs_delta)

    def to_xy(u: Fraction, v: Fraction) -> tuple[float, float]:
        return (float(v) * sqrt_n * _SVG_SCALE, float(u) * _SVG_SCALE)

    xs, ys = [], []
    for u, v in hs.window.vertices:
        x, y = to_xy(u, v)
        xs.append(x)
        ys.append(y)
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    width, height = maxx - minx, maxy - miny
    above, below = split
    above_set = set(above)
    below_set = set(below)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(minx)} {_fmt(miny)} '
        f'{_fmt(width)} {_fmt(height)}" width="{_fmt(width)}" height="{_fmt(height)}">',
    ]
    for h, status in zip(hs.hemispheres, statuses):
        u, v = h.center.planar()
        cx, cy = to_xy(u, v)
        r = math.sqrt(h.radius_sq) * _SVG_SCALE
        fill = _FILL_CONTRIBUTES if isinstance(status, Contributes) else _FILL_COVERED
        in_above = h in above_set
        in_below = h in below_set
        if in_above and in_below:
            stroke = _STROKE_BOTH
        elif in_above:
            stroke = _STROKE_ABOVE
        elif in_below:
            stroke = _STROKE_BELOW
        else:
            stroke = _STROKE_NONE
        lines.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{fill}" fill-opacity="0.65" stroke="{stroke}" stroke-width="1.5"/>'
        )
    outline = " ".join(_fmt(c) for u, v in hs.window.vertices for c in to_xy(u, v))
    lines.append(f'<polygon points="{outline}" fill="none" stroke="#000000" stroke-width="1"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
