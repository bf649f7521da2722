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

The cells come from the integer kernel in cells.py.  A face is clipped
only by the hemispheres whose discs meet its own, and one integer sweep
(box_neighbours) lists those candidates instead of a test of every pair.
The face clips as each rival's bisector comes and stops at its first
rival that covers it alone, or as soon as its cell is empty; a wall
clips each disc's part of it the same way, bisector by bisector.  The
enumeration reads pair_scan, the pair loop that the gap stream shares,
at exactly the reach a kept center can have.  The scan computes
lam*conj(mu) as two ints and yields only unimodular pairs, by one gcd
of four integers (unit_ideal); the enumeration drops a far center on
the window's bounding box before the exact window distance, builds each
kept hemisphere from the same ints, and sorts on integers.  The witness
walk runs in integers too, so Fractions appear only in the near_sq and
far_sq of a Contributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .cells import Disc, HalfPlane, Point, bisector, box_neighbours, clip, dist_sq_int, frame_of, power_cell
from .errors import OutOfScope
from .ford import FundPolygon
from .moebius import Hemisphere, Mat
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
    x*lam + y*mu = 1.  The rows are plain ints: g*tau = -m*g.b + (g.a + e*g.b)*tau.
    """
    order = lam.order
    e, m = order.trace, order.tau_norm
    la, lb, ma, mb = lam.a, lam.b, mu.a, mu.b
    rows = [
        [la, lb, 1, 0, 0, 0],
        [-m * lb, la + e * lb, 0, 1, 0, 0],
        [ma, mb, 0, 0, 1, 0],
        [-m * mb, ma + e * mb, 0, 0, 0, 1],
    ]

    def clear_column(col: int, pool: list[list[int]]) -> tuple[list[int], list[list[int]]]:
        live = [r for r in pool if r[col] != 0]
        rest = [r for r in pool if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))  # stable: equal sizes keep their order
            pivot, kept = live[0], []
            for r in live[1:]:
                q = r[col] // pivot[col]
                r = [x - q * y for x, y in zip(r, pivot)]
                (kept if r[col] != 0 else rest).append(r)
            live = [pivot] + kept
        return (live[0], rest)

    p0, rest = clear_column(0, rows)
    p1, _ = clear_column(1, rest)
    # the lattice is Z^2, so p0[0] and p1[1] are +-1
    c0 = p0[0]
    c1 = -c0 * p0[1] * p1[1]
    x0, x1, y0, y1 = (c0 * u + c1 * w for u, w in zip(p0[2:], p1[2:]))
    return (OInt(order, x0, x1), OInt(order, y0, y1))


def unit_ideal(norm_lam: int, norm_mu: int, xa: int, xb: int) -> bool:
    """Whether (lam, mu) generates the unit ideal, read off four integers.

    It does iff (lam, lam*tau, mu, mu*tau) span Z^2, that is iff the gcd of
    their six 2x2 minors is 1.  With x = lam*conj(mu) = xa + xb*tau, those
    minors are, up to sign, N(lam), N(mu), xb, xa, xa + trace*xb and
    tau_norm*xb, so the gcd is that of N(lam), N(mu), xa and xb.  This is
    the one unimodularity rule: pair_scan and is_unimodular both call it.
    """
    return math.gcd(norm_lam, norm_mu, xa, xb) == 1


def is_unimodular(lam: OInt, mu: OInt) -> Mat | None:
    """Completion of (lam, mu) to a determinant-one first column, or None.

    unit_ideal decides first, on N(lam), N(mu) and lam*conj(mu), and only
    a pair that passes is reduced: the tracked reduction yields x, y with
    x*lam + y*mu = 1 and the completion [[lam, -y], [mu, x]],
    deterministic but only canonical up to a right shift.
    """
    if lam.is_zero() and mu.is_zero():
        raise ValueError("(0, 0) is not a pair")
    c = lam * mu.conj()
    if not unit_ideal(lam.norm(), mu.norm(), c.a, c.b):
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


@dataclass(frozen=True)
class HemiSet:
    """Hemispheres near a window and the pairs they come from, aligned index by index."""

    order: Order
    hemispheres: tuple[Hemisphere, ...]
    pairs: tuple[UnimodularPair, ...]
    norm_bound: int
    window: FundPolygon


def pair_scan(
    order: Order, centre: KElem, reach: Callable[[int], Fraction]
) -> Iterator[tuple[OInt, OInt, int, int, int]]:
    """Unimodular pairs (lam, mu, xa, xb, N) of distinct ratios, mu by norm N, then key(); no end.

    mu is nonzero with the canonical sign.  Each pass rescans norm <= bound
    from the origin, keeps the shell past the previous bound and quadruples
    the bound; the stable sort by norm keeps key() order within one norm.
    lam runs over lattice_points_within(centre*mu, reach(N)), and lam*conj(mu)
    = xa + xb*t, so lam/mu = (xa + xb*t)/N lies at planar
    ((2*xa + trace*xb)/(2N), xb/(2N)).  A pair is yielded when unit_ideal
    passes on N(lam), N, xa and xb, the integers the scan already has.
    No ratio comes twice: unimodular pairs of one ratio differ by a unit,
    the units are +-1 when |delta| > 4, and mu's canonical sign leaves 1.
    """
    e, m = order.trace, order.tau_norm
    done, bound = 0, 4
    while True:
        scan = lattice_points_norm_at_most(order, bound)
        shell = [mu for mu in scan if mu.norm() > done and mu.is_canonical_positive()]
        for mu in sorted(shell, key=OInt.norm):
            norm, ca, cb = mu.norm(), mu.a + e * mu.b, -mu.b  # conj(mu) = ca + cb*t
            for lam in lattice_points_within(centre * mu, reach(norm)):
                la, lb = lam.a, lam.b
                xa, xb = la * ca - m * lb * cb, la * cb + lb * ca + e * lb * cb
                if unit_ideal(lam.norm(), norm, xa, xb):
                    yield lam, mu, xa, xb, norm
        done, bound = bound, 4 * bound


def enumerate_hemispheres(order: Order, norm_bound: int, window: FundPolygon) -> HemiSet:
    """All hemispheres of unimodular pairs with norm(mu) <= norm_bound near the window.

    A hemisphere makes the cut when its center lies within one radius
    of the window, so faces clipped at the boundary stay present.  Such
    a center lies within R + 1/sqrt(N) of the window center wc, R the
    circumradius, so pair_scan reads lambda where |lambda - wc*mu|^2 <=
    (R sqrt(N) + 1)^2, with R sqrt(N) rounded up by an integer square
    root, and stops past the bound.  The scan yields only unimodular
    pairs.  Each center is tested in integers, since most miss the
    window: against the window's bounding box, which decides a rectangle
    and drops most far centers of any window, then by dist_sq_int.  A
    pair that passes both gets its Hemisphere from the scan's integers,
    center (xa + xb*t)/N reduced by gcd(xa, xb, N) and squared radius
    1/N, and no completion is built.  The output is sorted by descending
    radius, then v, then u, on the integers (N, V, U).
    """
    if not order.group_scope:
        raise OutOfScope("hemisphere arrangement needs |delta| > 12")
    if norm_bound < 1:
        raise ValueError("norm_bound must be >= 1")
    n, e = order.abs_delta, order.trace
    wu, wv = window.center
    circum_sq = max((u - wu) ** 2 + n * (v - wv) ** 2 for u, v in window.vertices)
    frame = frame_of(window.vertices)
    w, pts = frame
    xlo, xhi = min(x for x, _ in pts), max(x for x, _ in pts)
    ylo, yhi = min(y for _, y in pts), max(y for _, y in pts)

    def reach(norm: int) -> Fraction:
        # a kept center lam/mu lies within R + 1/sqrt(N) of the window
        # center, R^2 = circum_sq, so |lam - wc*mu| <= R sqrt(N) + 1 and
        # |lam - wc*mu|^2 <= (R sqrt(N) + 1)^2 = R^2 N + 2 R sqrt(N) + 1;
        # and R sqrt(N) < isqrt(floor(R^2 N)) + 1 bounds the middle term
        return circum_sq * norm + 2 * (math.isqrt(math.floor(circum_sq * norm)) + 1) + 1

    found: list[tuple[tuple[int, int, int], UnimodularPair, Hemisphere]] = []
    for lam, mu, xa, xb, norm in pair_scan(order, kelem_from_planar(order, wu, wv), reach):
        if norm > norm_bound:
            break
        # the center, at planar (u, v)/(2N); first its distance to the
        # frame's bounding box, times W*2N, which is at most the window's
        u, v, l = 2 * xa + e * xb, xb, 2 * norm
        du = max(xlo * l - u * w, u * w - xhi * l, 0)
        dv = max(ylo * l - v * w, v * w - yhi * l, 0)
        if (du * du + n * dv * dv) * norm > (w * l) ** 2:
            continue
        num, den, _ = dist_sq_int(n, frame, (u, v, l))
        if num * norm > den:  # farther than the radius 1/sqrt(N(mu)) from the window
            continue
        # lam/mu = (xa + xb*t)/N, which KElem.of reduces by gcd(xa, xb, N)
        hemi = Hemisphere(KElem.of(OInt(order, xa, xb), norm), Fraction(1, norm))
        found.append(((norm, v, u), UnimodularPair(lam, mu), hemi))
    # radius^2 = 1/N(mu), and centers of one norm share the denominator 2 N(mu)
    found.sort(key=lambda f: f[0])
    return HemiSet(
        order=order,
        hemispheres=tuple(h for _, _, h in found),
        pairs=tuple(p for _, p, _ in found),
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


_EMPTY: HalfPlane = (0, 0, -1)  # 0 <= -1 holds nowhere, so it clips any cell away


def _rivals(n: int, hd: Disc, pool: Sequence[Hemisphere]) -> Iterator[HalfPlane]:
    """Bisectors against the hemispheres of pool whose open disc meets the disc hd, in pool order.

    A duplicate of hd (a tie at every point means no strict dominance
    anywhere), or a rival that covers hd's open disc by itself (the lemma
    in face_status), ends the walk with _EMPTY instead.
    """
    hu, hv, hl, hp, hq = hd
    for k in pool:
        kd = k.disc
        if kd == hd:
            yield _EMPTY
            return
        ku, kv, kl, kp, kq = kd
        # gap = |c_h - c_k|^2 - r_h^2 - r_k^2, times (L_h L_k)^2 Q_h Q_k > 0
        du, dv = hu * kl - ku * hl, hv * kl - kv * hl
        qq = hq * kq
        ll = (hl * kl) ** 2
        g = (du * du + n * dv * dv) * qq - (hp * kq + kp * hq) * ll
        if g >= 0 and g * g * qq >= 4 * hp * kp * (ll * qq) ** 2:
            continue  # gap^2 >= 4 r_h^2 r_k^2: open discs disjoint, k is below the floor on all of h
        a, b, c = bisector(n, hd, kd)
        s = a * hu + b * hv - c * hl
        if s > 0 and s * s * n * hq >= hp * hl * hl * (n * a * a + b * b):
            yield _EMPTY
            return
        yield (a, b, c)


def face_status(h: Hemisphere, rest: Sequence[Hemisphere]) -> FaceStatus:
    """Contributes iff h's power cell against its rivals has area and meets h's open disc.

    rest is taken literally, so a duplicate of h in it means Covered.  One
    walk over rest, in its order, clips the cell by each rival's bisector
    as it comes and stops as soon as the face is Covered: at a duplicate,
    at a cell of fewer than 3 points, or at a rival that covers h alone.
    A face that contributes is clipped by every rival in order, so its
    cell, witness, near_sq and far_sq do not depend on where a walk stops.

    One-rival cover.  Let a*u + b*v <= c be the bisector against one
    rival, the closed half-plane where h is at least as high; h has
    center (hu, hv)/hl and squared radius hp/hq, and s = a*hu + b*hv - c*hl.
    If s > 0 and s^2 n hq >= hp hl^2 (n a^2 + b^2), with n = |delta|, the
    half-plane misses h's open disc.  Proof: a point z of the half-plane
    has a*(hu/hl - z_u) + b*(hv/hl - z_v) >= s/hl > 0.  When a = b = 0 no
    z has, so the half-plane is empty.  Otherwise, by Cauchy-Schwarz, the
    left side is at most sqrt(a^2 + b^2/n) times |z - center| in the
    metric u^2 + n v^2, so |z - center|^2 >= s^2 n / (hl^2 (n a^2 + b^2))
    >= hp/hq, the squared radius.  The cell lies in the half-plane, so no
    point of it is in the open disc, and the face is Covered whatever the
    other rivals do.
    """
    order = h.center.order
    n = order.abs_delta
    hd = h.disc
    cell = power_cell(hd, _rivals(n, hd, rest))
    if cell is None:
        return Covered()
    hu, hv, hl, hp, hq = hd
    near_num, near_den, (x, y, w) = dist_sq_int(n, cell, (hu, hv, hl))
    if near_num * hq >= hp * near_den:  # no cell point inside the open disc
        return Covered()
    cw, verts = cell
    # |vertex - center|^2 times (W L)^2
    far_num = max((vx * hl - hu * cw) ** 2 + n * (vy * hl - hv * cw) ** 2 for vx, vy in verts)
    witness = h.center
    # the cell is the box around the center cut by the yielded planes and has area,
    # so the center is strictly inside every plane iff it is strictly left of
    # every counterclockwise edge of the cell, collinear vertices included
    edges = zip(verts[-1:] + verts, verts)
    if not all((bx - ax) * (hv * cw - ay * hl) > (by - ay) * (hu * cw - ax * hl) for (ax, ay), (bx, by) in edges):
        # the center is not strictly inside; points strictly between the nearest point
        # (x, y)/w and the vertex average (sx, sy)/kw are, so halve toward it
        kw = len(verts) * cw
        sx, sy = (sum(p[i] for p in verts) for i in (0, 1))
        j = 1
        while True:
            ww = j * w * kw  # ((j - 1) kw (x, y) + w (sx, sy)) / (j w kw)
            wx, wy = (j - 1) * kw * x + w * sx, (j - 1) * kw * y + w * sy
            if ((wx * hl - hu * ww) ** 2 + n * (wy * hl - hv * ww) ** 2) * hq < hp * (ww * hl) ** 2:
                break
            j *= 2
        # the inverse of OInt.planar_int: (wx, wy)/ww is (wx - e wy + 2 wy t)/ww
        witness = KElem.of(OInt(order, wx - order.trace * wy, 2 * wy), ww)
    return Contributes(witness, Fraction(near_num, near_den), Fraction(far_num, (cw * hl) ** 2))


def face_statuses(hs: HemiSet) -> tuple[FaceStatus, ...]:
    """Status of each hemisphere against all the others, in set order.

    Only a hemisphere whose disc meets h's can be a rival, so h is
    tested against its box_neighbours.  They come in set order, a
    subsequence of all the others, so the walk meets the same rivals in
    the same order as it would in the full set.
    """
    hemis = hs.hemispheres
    near = box_neighbours(hs.order.abs_delta, [h.disc for h in hemis])
    return tuple(face_status(h, [hemis[k] for k in ks]) for h, ks in zip(hemis, near))


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
    the height is the floor 0.  Every disc that reaches the segment
    clips every other, even one whose disc it does not meet: a disjoint
    rival still moves where a part ends.  Each bisector is built only
    when its clip comes, and the walk stops once the part is empty, so
    the clips up to that stop are those of a walk over every other disc.

    The face walk's disjointness skip is not used here: it would be exact
    only with one more test, whether the part meets h's closed disc, and
    a proof of it, and on the amalgam walls it saves no time.
    """
    if t0 <= 0:
        raise ValueError("the plane needs t0 > 0")
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
        for kd in discs[:i] + discs[i + 1 :]:
            part = clip(part, bisector(n, hd, kd))
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
