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
only by the hemispheres whose discs meet its own, and one lazy source
(box_rivals) yields those candidates in set order, from integer boxes,
instead of a test of every pair; no face's list is built.  face_status
reads the rivals once, in two loops.  The center pass tests h's center
against each, and a center strictly on top of every rival is the
witness, with no bisector built; at the first rival it fails, the walk
clips the cell by the rivals passed so far, that rival and the rest as
each bisector comes, skipping discs that miss h's, and stops at its
first rival that covers h alone, or as soon as its cell is empty, with
nothing further drawn.  Two exact facts skip work that cannot change a
verdict.  The apex lemma: at h's center, h is strictly higher than any
rival k with r_k <= r_h that is not a duplicate, since
r_k^2 - |c_h - c_k|^2 <= r_k^2 <= r_h^2 with equality only for a
duplicate; so such a rival passes the center test on one comparison of
radii, and only a strictly larger rival can cover h alone.  Mirror
orbits: a reflection of the window's bounding box that maps the discs
onto the discs, radii kept and the images a permutation of the indices,
is an isometry of u^2 + |delta| v^2 that carries each hemisphere's
heights onto its image's, so a face is Covered iff its image is, a
contributor's witness is the image of its image's walked witness (the
walk is equivariant: face_statuses proves it), and the plane sides of a
contributor are its image's.  face_statuses walks each orbit once, at
its least index, and gives every other face of it the Covered verdict or
the reflected witness; plane_split clips no contributor whose orbit
already has its sides.  Without the permutation (say a duplicate pair
whose image is one disc) nothing carries over.  The upper envelope of a finite
set of hemispheres is that of its contributing faces, so plane_split
clips each contributor's cell by the contributors alone, and the walls
of amalgam_report read the contributors alone; a wall clips each disc's
part of it the same way, bisector by bisector.  A clip that cuts nothing
costs one side test per point.  The enumeration reads pair_scan, the
pair loop that the gap stream shares: lam runs row by row over exactly
the planar box a kept ratio can reach, and the scan ends after the norm
bound.  The scan computes lam*conj(mu) as two ints and yields only
unimodular pairs, by one gcd of four integers (unit_ideal).  The
enumeration tests each center against the window's bounding box, which
decides alone when the window is that box (the amalgam rectangle and
the even Voronoi cell) and leaves dist_sq_int to the hexagon; it keeps
each hemisphere as the scan's ints, an integer disc and an owner row,
and sorts on integers.  The face walk, the plane sides and the walls
read those discs; a KElem is built only for a witness, and a Hemisphere
only where plane_split returns one, for a contributor.  HemiSet's
hemispheres are a view built on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .cells import (
    Box,
    Disc,
    Point,
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
from .errors import OutOfScope
from .ford import FundPolygon
from .moebius import Hemisphere, Mat
from .orders import KElem, OInt, Order, kelem_from_planar_int, lattice_points_norm_at_most


_Row = tuple[int, int, int, int, int, int]  # two coordinates in the basis (1, tau), then four tracked coefficients


def _clear_column(col: int, pool: list[_Row]) -> tuple[_Row, list[_Row]]:
    """Euclid's steps on column col of the rows: (the one row left with a nonzero entry there, the other rows).

    Each step sorts the live rows by the size of their entry, stably, so
    equal sizes keep their order, and subtracts from every other row the
    floor quotient times the first; a row whose entry drops to 0 leaves.
    """
    live = [r for r in pool if r[col]]
    rest = [r for r in pool if not r[col]]
    while len(live) > 1:
        live.sort(key=lambda r: abs(r[col]))
        pivot = live[0]
        p0, p1, p2, p3, p4, p5 = pivot
        pc = pivot[col]
        kept = [pivot]
        for r in live[1:]:
            q = r[col] // pc
            r0, r1, r2, r3, r4, r5 = r
            r = (r0 - q * p0, r1 - q * p1, r2 - q * p2, r3 - q * p3, r4 - q * p4, r5 - q * p5)
            (kept if r[col] else rest).append(r)
        live = kept
    return live[0], rest


def _one_in_span(order: Order, la: int, lb: int, ma: int, mb: int) -> tuple[int, int, int, int]:
    """(x.a, x.b, y.a, y.b) with x*lam + y*mu = 1, for lam = la + lb*t and mu = ma + mb*t spanning Z^2.

    Each of lam, lam*tau, mu, mu*tau is a flat int row: its coordinates in
    the basis (1, tau), with g*tau = -m*g.b + (g.a + e*g.b)*tau, and a
    tracked coefficient vector.  A column-echelon reduction over Z
    (_clear_column on column 0, then on column 1 of the other rows)
    leaves a row (+-1, y) and a row (0, +-1), and the tracked
    coefficients of the combination that gives (1, 0) regroup into the
    order elements x and y.
    """
    e, m = order.trace, order.tau_norm
    rows = [
        (la, lb, 1, 0, 0, 0),
        (-m * lb, la + e * lb, 0, 1, 0, 0),
        (ma, mb, 0, 0, 1, 0),
        (-m * mb, ma + e * mb, 0, 0, 0, 1),
    ]
    p0, rest = _clear_column(0, rows)
    p1, _ = _clear_column(1, rest)
    # the lattice is Z^2, so p0[0] and p1[1] are +-1
    c0 = p0[0]
    c1 = -c0 * p0[1] * p1[1]
    return (c0 * p0[2] + c1 * p1[2], c0 * p0[3] + c1 * p1[3], c0 * p0[4] + c1 * p1[4], c0 * p0[5] + c1 * p1[5])


def unit_ideal(norm_lam: int, norm_mu: int, xa: int, xb: int) -> bool:
    """Whether (lam, mu) generates the unit ideal, read off four integers.

    It does iff (lam, lam*tau, mu, mu*tau) span Z^2, that is iff the gcd of
    their six 2x2 minors is 1.  With x = lam*conj(mu) = xa + xb*tau, those
    minors are, up to sign, N(lam), N(mu), xb, xa, xa + trace*xb and
    tau_norm*xb, so the gcd is that of N(lam), N(mu), xa and xb.  This is
    the one unimodularity rule: pair_scan and is_unimodular both call it.
    """
    return math.gcd(norm_lam, norm_mu, xa, xb) == 1


def completion_entries(order: Order, la: int, lb: int, ma: int, mb: int) -> tuple[int, int, int, int, int, int, int, int]:
    """The completion of a unimodular pair (lam, mu), as the eight ints (m11.a, m11.b, m12.a, ..., m22.b).

    lam = la + lb*t and mu = ma + mb*t must generate the unit ideal, as
    unit_ideal tests: pair_scan yields only such pairs, which gap points
    and the amalgam's records complete with no second test, and
    is_unimodular tests before it calls this.  _one_in_span yields x, y with
    x*lam + y*mu = 1, and the completion is [[lam, -y], [mu, x]],
    deterministic but only canonical up to a right shift.  Its
    determinant x*lam + y*mu is checked on the ints, so a pair other than
    (0, 0) outside the unit ideal raises ArithmeticError.  The ints are
    not sign-canonical: Mat._trusted_ints makes them the Mat.
    """
    e, m = order.trace, order.tau_norm
    x0, x1, y0, y1 = _one_in_span(order, la, lb, ma, mb)
    # x*lam + y*mu, by (a + b*t)(c + d*t) = (ac - m*bd) + (ad + bc + e*bd)*t
    det = (
        x0 * la - m * x1 * lb + y0 * ma - m * y1 * mb,
        x0 * lb + x1 * la + e * x1 * lb + y0 * mb + y1 * ma + e * y1 * mb,
    )
    if det != (1, 0):
        raise ArithmeticError(f"the reduction of ({la}, {lb}), ({ma}, {mb}) gave x*lam + y*mu = {det}, not 1")
    return (la, lb, -y0, -y1, ma, mb, x0, x1)


def is_unimodular(lam: OInt, mu: OInt) -> Mat | None:
    """Completion of (lam, mu) to a determinant-one first column, or None.

    Everything runs on the four ints lam = la + lb*t and mu = ma + mb*t.
    unit_ideal decides first, on N(lam), N(mu) and
    lam*conj(mu) = (la*(ma + e*mb) + m*lb*mb) + (lb*ma - la*mb)*t, and
    only a pair that passes is completed, by completion_entries, whose
    checked ints become the matrix unchecked.  A caller that holds a pair
    the scan already accepted calls completion_entries itself.
    """
    if lam.is_zero() and mu.is_zero():
        raise ValueError("(0, 0) is not a pair")
    order = lam.order
    e, m = order.trace, order.tau_norm
    la, lb, ma, mb = lam.a, lam.b, mu.a, mu.b
    norm_lam = la * la + e * la * lb + m * lb * lb
    norm_mu = ma * ma + e * ma * mb + m * mb * mb
    if not unit_ideal(norm_lam, norm_mu, la * (ma + e * mb) + m * lb * mb, lb * ma - la * mb):
        return None
    return Mat._trusted_ints(order, completion_entries(order, la, lb, ma, mb))


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


Owner = tuple[int, int, int, int]  # a pair (lam, mu) as (lam.a, lam.b, mu.a, mu.b)
# (W, A, B, C, D): the affine map (x/l, y/l) -> ((A*l + B*x)/(W*l), (C*l + D*y)/(W*l)) of planar points
Reflection = tuple[int, int, int, int, int]
_IDENTITY: Reflection = (1, 0, 1, 0, 1)


def _disc_hemisphere(order: Order, hd: Disc) -> Hemisphere:
    """The hemisphere whose disc is hd."""
    u, v, l, p, q = hd
    return Hemisphere(kelem_from_planar_int(order, u, v, l), Fraction(p, q))


@dataclass(frozen=True)
class HemiSet:
    """Hemispheres near a window, as integer discs, and the pairs they come from, aligned index by index.

    discs[i] is hemisphere i read into integers, as Hemisphere.disc reads
    it: its center is (a + b*t)/den in lowest terms, at planar (U/L, V/L)
    with U = 2a + trace*b, V = b and L = 2*den, and its squared radius is
    P/Q in lowest terms.  owners[i] is its pair (lam, mu) as the four
    integers (lam.a, lam.b, mu.a, mu.b); a set built from bare discs may
    have none.  The arrangement reads only these integers.  The view
    hemispheres is built on its first read, once per set, and every
    later read returns the same objects.
    """

    order: Order
    discs: tuple[Disc, ...]
    owners: tuple[Owner, ...]
    norm_bound: int
    window: FundPolygon

    @cached_property
    def hemispheres(self) -> tuple[Hemisphere, ...]:
        return tuple(_disc_hemisphere(self.order, hd) for hd in self.discs)

    @cached_property
    def mirror_orbits(self) -> tuple[tuple[int, ...], tuple[Reflection, ...]]:
        """(low, sigma): for each disc i, the least index low[i] in its orbit under the box reflections that permute the discs, and a reflection sigma[i] that carries disc low[i] onto disc i.

        The candidates sigma are the reflections in the two center lines of
        the window's bounding box, u -> su - u and v -> sv - v, and their
        composition, the point reflection in its center.  Each is an
        isometry of u^2 + |delta| v^2.  A candidate is kept only when it
        sends every disc i onto a disc pi(i) of the set with the same P/Q
        and pi is a permutation of the indices.  Images are matched on the
        integer rows themselves, each center over w*L: a match is the same
        point, so a kept map is exact.  A reflection is one-to-one on rows,
        so when no two rows are equal, an image in the set for every disc
        makes pi a permutation; a duplicate pair has one row, and then no
        map is kept.  The enumerated centers are in lowest terms, and each
        of -conj(z), conj(z), -z, conj(z) + tau and tau - z keeps the
        lowest terms and the L of z = (a + b*t)/den, so on the amalgam
        rectangle and the Voronoi cell no symmetry of an enumerated set is
        missed.  Two kept reflections give the point reflection by
        composition, and exactly one rules it out (with the point
        reflection it would give the other), so the kept maps and the
        identity form a group, and the orbit of i is i with its images.

        Each kept reflection is an involution, so the one that sends i to
        low[i] sends disc low[i] onto disc i; sigma[i] is that reflection,
        the identity when low[i] = i, as the ints (W, A, B, C, D) that carry
        a planar point (x/l, y/l) to ((A*l + B*x)/(W*l), (C*l + D*y)/(W*l)).
        Built on first read, once per set.
        """
        w, xlo, xhi, ylo, yhi = box_of(frame_of(self.window.vertices))[0]
        su, sv = xlo + xhi, ylo + yhi  # twice the box's center, over w
        rows = [(w * u, w * v, l, p, q) for u, v, l, p, q in self.discs]
        index = {r: i for i, r in enumerate(rows)}
        if len(index) < len(rows):
            return tuple(range(len(rows))), (_IDENTITY,) * len(rows)

        def permutation(ru: bool, rv: bool) -> tuple[int, ...] | None:
            # reflect u if ru and v if rv; stop at the first disc with no image
            get, pi = index.get, []
            for x, y, l, p, q in rows:
                j = get((su * l - x if ru else x, sv * l - y if rv else y, l, p, q))
                if j is None:
                    return None
                pi.append(j)
            return tuple(pi)

        # each kept permutation with its reflection as (W, A, B, C, D)
        flip_u, flip_v, flip_uv = (w, su, -w, 0, w), (w, 0, w, sv, -w), (w, su, -w, sv, -w)
        pu, pv = permutation(True, False), permutation(False, True)
        if pu is not None and pv is not None:
            kept = [(pu, flip_u), (pv, flip_v), ([pv[j] for j in pu], flip_uv)]
        elif pu is not None:
            kept = [(pu, flip_u)]
        elif pv is not None:
            kept = [(pv, flip_v)]
        else:
            pc = permutation(True, True)
            kept = [] if pc is None else [(pc, flip_uv)]
        low, sigma = list(range(len(rows))), [_IDENTITY] * len(rows)
        for pi, f in kept:
            for i, j in enumerate(pi):
                if j < low[i]:
                    low[i], sigma[i] = j, f
        return tuple(low), tuple(sigma)


def pair_scan(
    order: Order, box: Callable[[int], Box], bound: int | None = None
) -> Iterator[tuple[int, int, int, int, int, int, int]]:
    """Unimodular pairs (a, b, c, d, xa, xb, N) with lam/mu in the closed box(N), mu by norm N, then key().

    mu is nonzero with the canonical sign.  Each pass rescans norm <= top
    from the origin, keeps the shell past the previous top and quadruples
    top; the stable sort by norm keeps key() order within one norm.  With
    a bound the last pass scans norm <= bound and the scan ends after it,
    so no N past the bound is read; with none the scan has no end.

    lam*conj(mu) = xa + xb*t, so lam/mu = (xa + xb*t)/N lies at planar
    (U, V)/(2N) with U = 2*xa + trace*xb.  For lam = a + b*t and
    mu = c + d*t both are linear: U = (2c + trace*d) a + (trace*c +
    2*tau_norm*d) b and V = xb = c*b - d*a, and inverting, b = d*u +
    (2c + trace*d) v.  So the rows b run between the least and greatest
    b over the box's corners, and each row's a between the exact floor
    and ceiling divisions of the box's four sides; b ascending, then a
    ascending, is key() order.  A side whose coefficient of a is 0 bounds
    b alone, and the row range is exactly that bound.  A pair is yielded
    when unit_ideal passes on N(lam), N, xa and xb, the integers the scan
    already has, and it is yielded as those seven ints, with no OInt built
    for it (mu itself comes from lattice_points_norm_at_most).  No ratio
    comes twice: unimodular pairs of one ratio differ by a unit, the units
    are +-1 when |delta| > 4, and mu's canonical sign leaves 1.
    """
    e, m = order.trace, order.tau_norm
    done, top = 0, 4
    while True:
        if bound is not None:
            top = min(top, bound)
        scan = lattice_points_norm_at_most(order, top)
        shell = [mu for mu in scan if mu.norm() > done and mu.is_canonical_positive()]
        for mu in sorted(shell, key=OInt.norm):
            c, d = mu.a, mu.b
            norm, ca = mu.norm(), c + e * d  # conj(mu) = ca - d*t
            w, u_lo, u_hi, v_lo, v_hi = box(norm)
            p = 2 * c + e * d
            lo = min(d * u_lo, d * u_hi) + min(p * v_lo, p * v_hi)
            hi = max(d * u_lo, d * u_hi) + max(p * v_lo, p * v_hi)
            # W*U and W*V, as k*a + r*b, between 2N times the box's sides; k > 0
            sides = []
            for k, r, s_lo, s_hi in ((w * p, w * (e * c + 2 * m * d), u_lo, u_hi), (-w * d, w * c, v_lo, v_hi)):
                if k < 0:
                    k, r, s_lo, s_hi = -k, -r, -s_hi, -s_lo
                if k:
                    sides.append((k, r, 2 * norm * s_lo, 2 * norm * s_hi))
            for b in range(-(-lo // w), hi // w + 1):
                a_lo = max(-((r * b - s_lo) // k) for k, r, s_lo, _ in sides)
                a_hi = min((s_hi - r * b) // k for k, r, _, s_hi in sides)
                nb, xa0, xb0 = m * b * b, m * b * d, c * b
                for a in range(a_lo, a_hi + 1):
                    xa, xb = a * ca + xa0, xb0 - a * d
                    if unit_ideal(a * a + e * a * b + nb, norm, xa, xb):
                        yield a, b, c, d, xa, xb, norm
        if top == bound:
            return
        done, top = top, 4 * top


def enumerate_hemispheres(order: Order, norm_bound: int, window: FundPolygon) -> HemiSet:
    """All hemispheres of unimodular pairs with norm(mu) <= norm_bound near the window.

    A hemisphere makes the cut when its center lies within one radius
    1/sqrt(N) of the window, so faces clipped at the boundary stay
    present.  Such a center lies in the window's bounding box padded by
    1/sqrt(N) in u and by 1/sqrt(|delta| N) in v, so pair_scan reads
    lambda over that box, padded by the larger 1/isqrt(N) and
    1/isqrt(|delta| N), and stops after the bound.  The scan yields only
    unimodular pairs.  Each center is tested in integers, since many miss
    the window: box_dist_sq_int against the bounding box, which decides
    alone when the window is that box (a rectangle), then dist_sq_int
    against the hexagon.  A pair that passes gets its disc from the scan's
    integers, center (xa + xb*t)/N reduced by g = gcd(xa, xb, N), so
    (U, V, 2N)/g, and squared radius 1/N, and its owner row (a, b, c, d)
    as the scan yields it; no OInt of lam, Hemisphere, KElem, Fraction or
    completion is built.  The output is sorted by descending radius, then
    v, then u, on the integers (N, V, U).
    """
    if not order.group_scope:
        raise OutOfScope("hemisphere arrangement needs |delta| > 12")
    if norm_bound < 1:
        raise ValueError("norm_bound must be >= 1")
    n, e = order.abs_delta, order.trace
    frame = frame_of(window.vertices)
    wbox, is_box = box_of(frame)
    w, xlo, xhi, ylo, yhi = wbox

    def scan_box(norm: int) -> Box:
        # the bounding box padded by 1/r >= 1/sqrt(N) in u and 1/s >= 1/sqrt(|delta| N) in v
        r, s = math.isqrt(norm), math.isqrt(n * norm)
        return (w * r * s, xlo * r * s - w * s, xhi * r * s + w * s, ylo * r * s - w * r, yhi * r * s + w * r)

    found: list[tuple[int, int, int, Disc, Owner]] = []
    for a, b, c, d, xa, xb, norm in pair_scan(order, scan_box, norm_bound):
        # the center, at planar (u, v)/(2N), against the radius 1/sqrt(N(mu))
        u, v, l = 2 * xa + e * xb, xb, 2 * norm
        num, den = box_dist_sq_int(n, wbox, (u, v, l))
        if num * norm > den:
            continue
        if not is_box:
            num, den, _ = dist_sq_int(n, frame, (u, v, l))
            if num * norm > den:
                continue
        g = math.gcd(xa, xb, norm)
        found.append((norm, v, u, (u // g, v // g, l // g, 1, norm), (a, b, c, d)))
    # radius^2 = 1/N(mu), and centers of one norm share the denominator 2 N(mu); no
    # ratio comes twice, so the keys (N, V, U) are distinct and decide the sort alone
    found.sort()
    return HemiSet(
        order=order,
        discs=tuple(f[3] for f in found),
        owners=tuple(f[4] for f in found),
        norm_bound=norm_bound,
        window=window,
    )


@dataclass(frozen=True)
class Contributes:
    """Exact point where the hemisphere is strictly on top of every other."""

    witness: KElem


@dataclass(frozen=True)
class Covered:
    """No point of the disc where the hemisphere is strictly on top."""


FaceStatus = Contributes | Covered


def face_status(order: Order, hd: Disc, rest: Iterable[Disc]) -> FaceStatus:
    """Contributes iff the power cell of h, the disc hd, against its rivals has area and meets h's open disc.

    The discs are read as HemiSet.discs are, and only a witness becomes a
    field element.  rest is any iterable of rivals, read once and in its
    order, and nothing past the rival where the verdict is reached; it is
    taken literally, so a duplicate of h in it means Covered.  Two loops
    share the one iterator.

    The center pass tests, rival by rival, whether h is strictly higher
    than the rival at h's center (the center test), and keeps those it
    passes.  A rival whose open disc misses h's always passes: its gap
    |c_h - c_k|^2 - r_h^2 - r_k^2 is at least 2 r_h r_k >= 0, so
    gap + 2 r_h^2 > 0.  So the pass needs no disjointness test.  If the
    center passes every rival, it is the witness, strictly inside every
    bisector and in h's open disc, and no bisector is built.  At the
    first rival it does not pass, the pass stops.

    The walk then reads the kept rivals, that rival and the rest of the
    iterator, in order.  It skips each rival whose open disc misses h's,
    since such a rival is below the floor all over h's open disc, and
    clips the cell from cell_square by every other rival's bisector as it
    comes.  It stops as soon as the face is Covered: at a duplicate (a tie
    at every point means no strict dominance anywhere), at a cell of
    fewer than 3 points, or at a rival that covers h alone.  No kept
    rival can stop it, since the center is strictly inside their
    bisectors and inside cell_square, so the walk's clips are those of a
    walk over every rival from the first.  A face that contributes is
    clipped by every rival in order, so its cell and witness do not
    depend on where a walk stops; the center is not strictly inside the
    bisector of the rival that ended the pass, so the witness is off the
    center.

    Apex lemma.  A rival k with r_k <= r_h that is not a duplicate of h
    passes the center test: r_k^2 - |c_h - c_k|^2 <= r_k^2 <= r_h^2, with
    equality in both only when c_k = c_h and r_k = r_h.  So the center
    pass keeps such a rival after one comparison of radii,
    P_k Q_h <= P_h Q_k, with no other arithmetic, and its disjointness test
    runs only in the walk.  An apex face, whose center is its witness,
    reads nothing of a rival no larger than itself but that comparison.
    In the walk, only a strictly larger rival meets the one-rival cover
    test: the cover needs s > 0, h's center strictly outside k's bisector,
    so k strictly higher there, which the lemma rules out for the others.

    Center test.  h is strictly higher than k at h's center iff
    r_h^2 > r_k^2 - |c_h - c_k|^2, that is iff gap + 2 r_h^2 > 0 with the
    gap = |c_h - c_k|^2 - r_h^2 - r_k^2 of the disjointness test.  Times
    (L_h L_k)^2 Q_h Q_k, gap + 2 r_h^2 is
    |c_h - c_k|^2 Q_h Q_k (L_h L_k)^2 + (P_h Q_k - P_k Q_h) (L_h L_k)^2.  A tie,
    where k's bisector passes through the center, does not pass.

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
    n = order.abs_delta
    hu, hv, hl, hp, hq = hd
    rest = iter(rest)
    passed: list[Disc] = []  # the rivals h's center is strictly on top of
    for kd in rest:
        ku, kv, kl, kp, kq = kd
        if kp * hq <= hp * kq and kd != hd:  # the apex lemma
            passed.append(kd)
            continue
        # the center test: gap + 2 r_h^2 > 0, times (L_h L_k)^2 Q_h Q_k
        du, dv = hu * kl - ku * hl, hv * kl - kv * hl
        if (du * du + n * dv * dv) * hq * kq + (hp * kq - kp * hq) * (hl * kl) ** 2 <= 0:
            break
        passed.append(kd)
    else:
        return Contributes(kelem_from_planar_int(order, hu, hv, hl))
    poly = cell_square(hd)
    for kd in chain(passed, (kd,), rest):
        ku, kv, kl, kp, kq = kd
        # gap = |c_h - c_k|^2 - r_h^2 - r_k^2, times (L_h L_k)^2 Q_h Q_k > 0
        du, dv = hu * kl - ku * hl, hv * kl - kv * hl
        qq = hq * kq
        ll = (hl * kl) ** 2
        g = (du * du + n * dv * dv) * qq - (hp * kq + kp * hq) * ll
        if g >= 0 and g * g * qq >= 4 * hp * kp * (ll * qq) ** 2:
            continue  # gap^2 >= 4 r_h^2 r_k^2: open discs disjoint, k is below the floor on all of h
        if kd == hd:
            return Covered()
        plane = a, b, c = bisector(n, hd, kd)
        if kp * hq > hp * kq:  # the one-rival cover needs k strictly higher at h's center, so r_k > r_h
            s = a * hu + b * hv - c * hl
            if s > 0 and s * s * n * hq >= hp * hl * hl * (n * a * a + b * b):
                return Covered()
        poly = clip(poly, plane)
        if len(poly) < 3:
            return Covered()  # a point or a segment never regains area
    cell = cell_frame(poly)
    if cell is None:
        return Covered()
    near_num, near_den, (x, y, w) = dist_sq_int(n, cell, (hu, hv, hl))
    if near_num * hq >= hp * near_den:  # no cell point inside the open disc
        return Covered()
    # the walk started at a rival whose bisector the center is not strictly inside, so
    # neither is the cell; points strictly between the nearest point (x, y)/w and the
    # vertex average (sx, sy)/kw are, so halve toward it
    cw, verts = cell
    kw = len(verts) * cw
    sx, sy = (sum(p[i] for p in verts) for i in (0, 1))
    j = 1
    while True:
        ww = j * w * kw  # ((j - 1) kw (x, y) + w (sx, sy)) / (j w kw)
        wx, wy = (j - 1) * kw * x + w * sx, (j - 1) * kw * y + w * sy
        if ((wx * hl - hu * ww) ** 2 + n * (wy * hl - hv * ww) ** 2) * hq < hp * (ww * hl) ** 2:
            break
        j *= 2
    return Contributes(kelem_from_planar_int(order, wx, wy, ww))


def face_statuses(hs: HemiSet) -> tuple[FaceStatus, ...]:
    """Status of each hemisphere against all the others, in set order.

    Only a hemisphere whose disc meets h's can be a rival, so each walked
    face reads its box neighbours from one box_rivals source, as an
    iterator: in set order, a subsequence of all the others, so the walk
    meets the same rivals in the same order as it would in the full set,
    and it draws none past the rival where its verdict is reached.  No
    face's neighbour list is built.

    Mirror orbits.  Let sigma be one of the reflections that
    HemiSet.mirror_orbits keeps: it sends each disc k onto disc pi(k),
    with pi a permutation of the indices, and let i = pi(j).  sigma is an
    isometry of u^2 + |delta| v^2 that keeps each radius, so
    height_i(sigma z) = height_j(z) at every z, and pi carries the other
    discs of j onto the other discs of i.  So h_j is strictly on top of
    every other hemisphere at z iff h_i is at sigma z, and j is Covered
    iff i is: the statuses are constant on each orbit.  The permutation
    condition matters: were two discs a duplicate pair whose image is one
    disc, that disc would have no duplicate, and a Covered verdict would
    not carry over.  Each orbit is walked once, at
    its least index j; a face i > j of it is Covered when j is, and
    otherwise takes Contributes(sigma(witness_j)), with sigma the
    mirror_orbits reflection that carries disc j onto disc i, applied to
    the witness's planar integers and reduced by kelem_from_planar_int.

    That point is the witness face_status finds on face i itself, since
    each step of the walk is carried over by sigma.
    - Its rivals.  The box rivals of a face are a superset of the discs
      whose closed discs meet its own (box_rivals), in set order.  The
      center pass ends in an apex witness iff the center is strictly on
      top of every rival, and a rival whose open disc misses h's always
      passes it, so that outcome is decided by the rivals whose open
      discs meet h's.  A contributor's walk stops early nowhere (each
      early stop is a Covered verdict), so it reads every rival, the
      passed ones too, and clips by exactly those whose open discs meet
      h's, skipping the others.  sigma maps the rivals of j whose open
      discs meet j's onto those of i, and cell_square(j), the square
      center +-1, onto cell_square(i).  The center test and the bisector
      are powers, which sigma keeps, so j's center passes iff i's does,
      and the cell of i is sigma of the cell of j as a set.
    - Its vertices.  clip is exact Sutherland-Hodgman, and it adds a
      crossing only strictly inside an edge whose ends are strictly on
      opposite sides of the line.  Start from the four corners of the
      square.  If every point of a convex polygon P with area is a
      corner (an extreme point), so is every point that clip keeps of
      P & H: a corner of P in H stays extreme in the smaller set, and a
      crossing is the end of the part of its edge in H, which lies on a
      supporting line of P, so it is extreme too.  Conversely an extreme
      point of P & H off the line is extreme in P, and one on the line is
      a corner of P or a crossing: inside an edge with an end on each
      side, or else the edge lies on the line and the point is not
      extreme.  A contributor's cell has area at every step, since a clip
      never regains it.  So the final vertex list is the cell's corner
      set, each corner once, whatever order the clips came in.
    - Its witness.  The nearest point of a convex cell to the center is
      unique, the vertex average of a corner set commutes with affine
      maps, and the halving count k is the first of 1, 2, 4, ... at which
      the point ((k - 1) * nearest + average) / k lies in h's open disc.
      sigma is an affine isometry that carries the center of j onto that
      of i and keeps the radius, so it carries each of the three over,
      and the point found on j onto the point found on i.  An apex
      witness is the center, which sigma carries over too.
    KElem is canonical, so the reflected witness is the walked one, as an
    object equal to it.
    """
    order, discs = hs.order, hs.discs
    rivals = box_rivals(order.abs_delta, discs)
    low, sigma = hs.mirror_orbits
    out: list[FaceStatus] = []
    for i, hd in enumerate(discs):
        j = low[i]
        if j == i:
            out.append(face_status(order, hd, map(discs.__getitem__, rivals(i))))
        elif type(out[j]) is Covered:
            out.append(out[j])
        else:
            x, y, l = out[j].witness.planar_int()
            w, a, b, c, d = sigma[i]
            out.append(Contributes(kelem_from_planar_int(order, a * l + b * x, c * l + d * y, w * l)))
    return tuple(out)


def plane_split(
    hs: HemiSet, statuses: Sequence[FaceStatus], t0: Fraction
) -> tuple[list[Hemisphere], list[Hemisphere]]:
    """Divide the contributing faces by the horizontal plane t = t0 > 0.

    A face lands in `above` when it has a point strictly higher than
    t0, in `below` when it has one strictly lower; faces crossing the
    plane show up in both lists.  statuses must be face_statuses(hs).
    The sides are decided on the discs; each contributor then gets one
    Hemisphere, the same object in both lists when it crosses, and no
    other hemisphere is built.

    A face point at squared distance d from h's center has height^2
    r^2 - d.  With R^2 = r^2 - t0^2, a face with R^2 <= 0 reaches no
    higher than t0 and, having area, lower: it is below only.  Otherwise
    h is above when its cell comes nearer the center than R, and below
    when the cell leaves the closed disc B of radius R about the center.
    The cell read here, X, is cell_square clipped by the bisectors of h's
    box neighbours among the contributors' discs alone, read to the end
    from one box_rivals source over the contributors: every contributor
    whose disc meets h's, and maybe some whose discs miss it.

    Proof that X gives the answers of the cell A against every rival whose
    open disc meets h's open disc D, the cell of face_status.  First, X
    and A agree on D.  A point z of A in D lies in the half-plane of each
    neighbour j: of one whose open disc meets D, since j is a rival of A,
    and of one whose open disc misses D, since j is below the floor at z
    and h above it.  Conversely, let z be a point of X in D where some
    rival k is strictly higher than h.  The upper envelope of a finite set
    of hemispheres is that of its contributing faces (below), so some
    contributor j is at least as high as k at z, so strictly higher than
    h.  Then z lies in both open discs, so j is a neighbour, and z is
    outside j's half-plane, so not in X.  Second, a convex set Y with
    Z = Y & D not empty has its point nearest the center in D, so in Z,
    and Y leaves B iff Z does: if Y has a point q past R, the segment from
    the nearest point, nearer than r, to q lies in Y and passes a point
    strictly between R and r, which is in Z.  Both answers depend on Z
    alone, and Z is the same for X and A.

    The envelope fact.  Were the top of all the hemispheres higher than
    the top of the contributors at a point, it would be higher on an open
    set, by continuity.  Off the finitely many curves where two
    hemispheres tie, one of them would be strictly on top there, above the
    floor, so it would contribute.  (Two hemispheres that agree on an open
    set are equal, and a HemiSet has no duplicates.)

    Mirror orbits.  A reflection that HemiSet.mirror_orbits keeps maps
    the set onto itself isometrically, keeping radii, so it maps the
    contributors onto the contributors (face_statuses) and the cell
    against every rival of a contributor onto that of its image.  The
    sides depend on that cell's distances from the center alone, so they
    are constant on each orbit: a contributor whose orbit has a least
    index j < i takes j's sides, with no cell clipped.  Only the index is
    read here, not the reflection.
    """
    if t0 <= 0:
        raise ValueError("the plane needs t0 > 0")
    order = hs.order
    n = order.abs_delta
    t0sq = Fraction(t0) ** 2
    ta, tb = t0sq.numerator, t0sq.denominator
    top = [i for i, s in enumerate(statuses) if isinstance(s, Contributes)]
    discs = [hs.discs[i] for i in top]
    low, _ = hs.mirror_orbits
    sides: dict[int, tuple[bool, bool]] = {}  # (above, below) of each contributor decided so far
    above, below = [], []
    rivals = box_rivals(n, discs)
    for at, (i, hd) in enumerate(zip(top, discs)):
        hu, hv, hl, hp, hq = hd
        rr = hp * tb - ta * hq  # R^2 = r^2 - t0^2, times Q tb > 0
        j = low[i]
        if j < i:
            up, down = sides[j]  # its mirror image's sides
        elif rr <= 0:
            up, down = False, True  # h is nowhere higher than t0, and its face has area, so is lower somewhere
        else:
            poly = cell_square(hd)
            for k in rivals(at):
                poly = clip(poly, bisector(n, hd, discs[k]))
            # the cell holds a contributing face, so it has area
            cw, verts = cell = cell_frame(poly)
            near_num, near_den, _ = dist_sq_int(n, cell, (hu, hv, hl))
            far_num = max((vx * hl - hu * cw) ** 2 + n * (vy * hl - hv * cw) ** 2 for vx, vy in verts)
            up, down = near_num * hq * tb < rr * near_den, far_num * hq * tb > rr * (cw * hl) ** 2
        sides[i] = (up, down)
        h = _disc_hemisphere(order, hd)
        if up:
            above.append(h)
        if down:
            below.append(h)
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
    A disc is kept when its center is nearer than its radius to the
    segment's bounding box, by box_dist_sq_int.  On an axis-parallel
    segment, which is its own box, those are exactly the discs that reach
    it.  On a slanted one a kept disc may miss the segment, and then its
    height^2 is below 0 all along it: it can raise the top only where no
    disc covers, and there the top stays below 0 < t0^2.  So the answer
    is that of the discs that reach the segment.

    The face walk's disjointness skip is not used here: it would be exact
    only with one more test, whether the part meets h's closed disc, and
    a proof of it, and on the amalgam walls it saves no time.
    """
    if t0 <= 0:
        raise ValueError("the plane needs t0 > 0")
    n = hs.order.abs_delta
    frame = frame_of((start, end))
    box, _ = box_of(frame)
    discs = []  # the discs that reach the segment's box
    for hd in hs.discs:
        u, v, l, p, q = hd
        num, den = box_dist_sq_int(n, box, (u, v, l))
        if num * q < p * den:
            discs.append(hd)
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
# keyed by (in the split's above list, in its below list)
_STROKES = {(True, True): _STROKE_BOTH, (True, False): _STROKE_ABOVE, (False, True): _STROKE_BELOW, (False, False): _STROKE_NONE}
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
    _SVG_SCALE pixels.  The circles are drawn from hs.discs, and the
    split's hemispheres are matched to them by their discs; each float
    is an int quotient, which rounds correctly, so U / L is float(U/L)
    as a Fraction gives it.
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
    above_set = {h.disc for h in above}
    below_set = {h.disc for h in below}

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(minx)} {_fmt(miny)} '
        f'{_fmt(width)} {_fmt(height)}" width="{_fmt(width)}" height="{_fmt(height)}">',
    ]
    for hd, status in zip(hs.discs, statuses):
        u, v, l, p, q = hd
        cx, cy = v / l * sqrt_n * _SVG_SCALE, u / l * _SVG_SCALE
        r = math.sqrt(p / q) * _SVG_SCALE
        fill = _FILL_CONTRIBUTES if isinstance(status, Contributes) else _FILL_COVERED
        stroke = _STROKES[hd in above_set, hd in below_set]
        lines.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{fill}" fill-opacity="0.65" stroke="{stroke}" stroke-width="1.5"/>'
        )
    outline = " ".join(_fmt(c) for u, v in hs.window.vertices for c in to_xy(u, v))
    lines.append(f'<polygon points="{outline}" fill="none" stroke="#000000" stroke-width="1"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
