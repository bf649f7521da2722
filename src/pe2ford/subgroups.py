"""Coset and normalizer evidence for the elementary subgroup, and the plane split.

The shift-and-rotation subgroup has infinite index in the full group
once |delta| > 12: ratios lambda/mu of unimodular pairs that stay
strictly outside every closed unit disc centered on a lattice point
("gap points") pin down pairwise distinct right cosets.  The subgroup
is its own normalizer: for every g outside it, g conjugates the shift
s(1) or s(-1) to a matrix outside it.  A coset family tells its members
apart by their coset keys, the canonical points of their orbits in the
Ford domain (ford.stop_key, the rule of ford.coset_key): one reduction
per candidate, no pairwise products.  Both checks run the reduction
kernel words.reduce_entries, the loop that membership wraps, straight
on the entries' ints and read its stop: no Mat.inv, no Mat for a check
and no Member or NonMember object.
Splitting the hemisphere arrangement over the straddling rectangle by
the plane t = t0 exhibits the full group as an amalgam over the
subgroup N = <r, s(1), s(tau) r s(tau)^-1>.

All gap and split certificates are exact rational comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .arrangement import (
    Contributes,
    FaceStatus,
    HemiSet,
    Owner,
    UnimodularPair,
    completion_entries,
    enumerate_hemispheres,
    envelope_dips_below,
    face_statuses,
    pair_scan,
    plane_split,
)
from .cells import Box, Disc, box_of, frame_of
from .errors import OutOfScope, SearchExhausted
from .ford import CosetKey, amalgam_rectangle, pe2_relations, stop_key
from .moebius import Hemisphere, Mat, gen_s
from .orders import KElem, OInt, Order, kelem_from_planar_int, nearest_lattice_point
from .words import MembershipResult, R, S, Word, membership, reduce_entries

PLANE = Fraction(2, 3)  # the default height t0 of the plane that splits the arrangement


@dataclass(frozen=True)
class GapPoint:
    """Unimodular ratio exactly outside every closed unit lattice disc, held as the gap stream's integers.

    a, b, c, d, xa, xb and norm are the row pair_scan yielded over the gap
    strip: lam = a + b*t, mu = c + d*t, and the ratio lam/mu is
    (xa + xb*t)/norm with norm = N(mu).  dist is the gap rule's numerator,
    norm^2 times the squared distance to the nearest lattice point.  The
    rest are views built on read: pair and completion on each read, z once
    per point, so ratio() is z, and min_dist_sq = dist/norm^2.  Equality
    is that of the integers, so a point read from two streams compares
    equal.  The gap-points payload reads no view: its rows come from
    lattice_rows on (xa, xb, norm) as held, and its completion from
    completion_entries signed by entry_sign, the rule the completion
    view's Mat stores by.
    """

    order: Order
    a: int
    b: int
    c: int
    d: int
    xa: int
    xb: int
    norm: int
    dist: int

    @property
    def pair(self) -> UnimodularPair:
        order = self.order
        return UnimodularPair(OInt(order, self.a, self.b), OInt(order, self.c, self.d))

    @cached_property
    def z(self) -> KElem:
        # lam/mu = lam*conj(mu)/N(mu)
        return KElem.of(OInt(self.order, self.xa, self.xb), self.norm)

    @property
    def min_dist_sq(self) -> Fraction:
        return Fraction(self.dist, self.norm * self.norm)

    @property
    def completion(self) -> Mat:
        """The completion of (lam, mu), as is_unimodular builds it, from completion_entries on the scan's ints.

        pair_scan yielded the pair because unit_ideal passed, so the test is
        not run again; completion_entries still checks the determinant.
        """
        return Mat._trusted_ints(self.order, completion_entries(self.order, self.a, self.b, self.c, self.d))

    def ratio(self) -> KElem:
        """z, the stored ratio, as the call that tests/test_acceptance.py reads."""
        return self.z


def _gap_dist(order: Order, p: int, q: int, s: int) -> int | None:
    # the one gap rule: (p + q*t)/s is a gap point when its nearest lattice
    # point lies past distance 1, d > s^2, with d = s^2 times the squared
    # distance; d/s^2 does not depend on the scale
    d, _, _ = nearest_lattice_point(order, p, q, s)
    return d if d > s * s else None


def gap_check(z: KElem) -> Fraction | None:
    """Squared distance from z to the nearest lattice point, if z is a gap point, else None.

    z is a gap point exactly when no lattice point lies in the closed
    unit disc about it, the test membership uses for NonMember; both read
    nearest_lattice_point, and a gap point builds the one Fraction.
    """
    d = _gap_dist(z.order, z.num.a, z.num.b, z.den)
    return None if d is None else Fraction(d, z.den * z.den)


_STRIP_W = 128  # the denominator of the gap strip's edges


def _gap_strip(order: Order) -> Box:
    """The box lo/W <= v <= 1/2 - lo/W, 0 <= u <= 1 that holds every gap point of the band (proof at _gap_stream)."""
    w = _STRIP_W
    lo = math.isqrt(3 * w * w // (4 * order.abs_delta))
    return (w, 0, w, lo, w // 2 - lo)


def _gap_stream(order: Order) -> Iterator[GapPoint]:
    """The gap points of the half-open band u in [0, 1), v in [0, 1/2), which meets every translation orbit once.

    They are the ratios of pair_scan, all unimodular, read over the strip
    lo/W <= v <= 1/2 - lo/W of the closed band [0, 1] x [0, 1/2], with
    W = _STRIP_W and lo = isqrt(3 W^2 / (4 |delta|)); the band test and
    the gap rule read the scan's ints, and a yielded point's pair and ratio
    are built from them.

    Every gap point lies in the strip.  Row b = 0 holds the points u = a,
    so some lattice point is within 1/2 of z = (u, v) in u, and
    |z - g|^2 <= 1/4 + |delta| v^2, at most 1 when |delta| v^2 <= 3/4.
    So a gap point has |delta| v^2 > 3/4 >= |delta| (lo/W)^2, since
    lo^2 <= 3 W^2 / (4 |delta|): v > lo/W.  Row b = 1 holds the points
    u = a + trace/2 at v = 1/2, so the same bound gives 1/2 - v > lo/W.

    So the strip changes no point of the stream, nor their order.
    pair_scan reads mu by (norm, key()) and, for each mu, lam in key()
    order over the box it is given, so over a sub-box it yields the
    band's candidates that lie in the sub-box, in the band's order.  The
    band's candidates outside the strip are no gap points.
    """
    e, strip = order.trace, _gap_strip(order)
    for a, b, c, d, xa, xb, norm in pair_scan(order, lambda norm: strip):
        if not (0 <= 2 * xa + e * xb < 2 * norm and 0 <= xb < norm):
            continue
        dist = _gap_dist(order, xa, xb, norm)
        if dist is not None:
            yield GapPoint(order, a, b, c, d, xa, xb, norm, dist)


def gap_points(order: Order, count: int) -> list[GapPoint]:
    """The first `count` gap points, mu-norm ascending, ratios distinct."""
    if not order.group_scope:
        raise OutOfScope("gap points need |delta| > 12")
    if count < 1:
        raise ValueError("count must be >= 1")
    # zip stops the stream after count points, with no cap on count
    return [gp for _, gp in zip(range(count), _gap_stream(order))]


@dataclass(frozen=True)
class CosetFamily:
    """Matrices in pairwise distinct right cosets of the elementary subgroup.

    keys[i] is coset_key of membership(members[i]^-1); the keys are pairwise
    distinct, which separates every pair.  distinctness_matrix, derived on
    read, recomputes the pairwise certificates.
    """

    members: tuple[Mat, ...]
    points: tuple[GapPoint, ...]
    keys: tuple[CosetKey, ...]
    replaced: tuple[KElem, ...]

    @property
    def distinctness_matrix(self) -> dict[tuple[int, int], MembershipResult]:
        """membership(M_j * M_i^-1) for j < i, computed afresh on every read."""
        invs = [m.inv() for m in self.members]
        return {(i, j): membership(self.members[j] * invs[i]) for i in range(len(invs)) for j in range(i)}


def coset_family(order: Order, count: int) -> CosetFamily:
    """Completions of gap points representing distinct right cosets.

    Each candidate's inverse is reduced once, and a non-member stop gives
    the candidate its coset key: candidates with different keys lie in
    different right cosets, so a candidate whose key is new joins, and n
    members cost n reductions.  A candidate whose key repeats, or whose
    inverse reduces to a member (S = 1), is dropped and reported in
    `replaced`.

    The reduction is the kernel reduce_entries that membership wraps, run
    on the inverse [[x, y], [-mu, lam]] (Mat._inv_ints) of the ints
    [[lam, -y], [mu, x]] that completion_entries gives, and the key is
    stop_key on its (S, p, q, d), the rule that coset_key reads off a
    NonMember; so each key is coset_key(membership(completion^-1)).  The ints are not
    sign-canonical, and need not be: negating all eight entries leaves
    S, p, q and d as they are.  Only a joining candidate's completion is
    built as a Mat.
    """
    if not order.group_scope:
        raise OutOfScope("coset families need |delta| > 12")
    if count < 1:
        raise ValueError("count must be >= 1")
    members: list[Mat] = []
    points: list[GapPoint] = []
    keys: dict[CosetKey, None] = {}
    replaced: list[KElem] = []
    budget = 10 * count + 50
    for gp in _gap_stream(order):
        budget -= 1
        if budget < 0:
            raise SearchExhausted(f"no family of {count} within the candidate budget")
        ints = completion_entries(order, gp.a, gp.b, gp.c, gp.d)
        s, p, q, d, _, _ = reduce_entries(order, *Mat._inv_ints(ints))
        key = stop_key(order, s, p, q, d) if s > 1 else None
        if key is None or key in keys:
            replaced.append(gp.z)
            continue
        members.append(Mat._trusted_ints(order, ints))
        points.append(gp)
        keys[key] = None
        if len(members) == count:
            return CosetFamily(tuple(members), tuple(points), tuple(keys), tuple(replaced))
    raise SearchExhausted("gap point stream dried up")  # pragma: no cover


def normalizer_witness(g: Mat) -> OInt:
    """The shift coefficient alpha = -1 or 1 whose conjugate g*s(alpha)*g^-1 leaves the subgroup.

    Needs (and verifies) only that g is NonMember.  Every alpha != 0 works:
    x = g*s(alpha)*g^-1 is parabolic and fixes g(inf).  If x were in the
    subgroup H, g(inf) would be a parabolic fixed point of H, hence
    H-equivalent to a cusp of H's one-hemisphere polyhedron, as for any
    group with a finite-sided fundamental polyhedron.  Its only cusp is
    inf: elsewhere it reaches the boundary plane only in the closed gap,
    the closure of its free faces.  So g(inf) = p(inf) for some p in H,
    and p^-1*g fixes inf; its diagonal entries are units, +-1 when
    |delta| > 12, so p^-1*g = +-s(y) and g = p*s(y) would be a member.
    Of -1 and 1, first by key(), alpha is the one whose conjugate ratio
    lambda/mu - 1/(alpha*mu^2) = (alpha*lambda*mu - 1)/(alpha*mu^2) is a
    gap point, and 1 when neither is; the conjugate is re-checked.

    Both NonMember checks are the kernel reduce_entries that membership
    wraps, read at its stop: S > 1 is NonMember.  g is checked through
    g^-1, whose ints [[d, -b], [-mu, lambda]] are g's rearranged by
    Mat._inv_ints (g is outside the subgroup exactly when g^-1 is, and
    coset_family reduces the inverse of each member in the same way).  No Mat.inv and no result
    object is built, and no sign is canonicalised: negating all eight
    entries leaves every S of the reduction as it was.

    Everything else runs on the entries' ints too: lambda*mu, mu^2 and
    lambda^2 are int pairs.  The gap test reads the ratio as
    (alpha*lambda*mu - 1)*conj(alpha*mu^2) over N(alpha*mu^2) = N(mu)^2,
    one integer point (p + q*t)/s with s > 0, and asks _gap_dist.  The
    gap rule does not depend on the scale: (p + q*t)/s and (kp + kq*t)/(ks)
    are the same point z, so they have the same nearest lattice point c,
    and d > s^2 exactly when |z - c|^2 > 1.  So alpha is the one that
    gap_check(KElem.of(alpha*lambda*mu - 1, alpha*mu^2)) picks, whose
    reduced denominator may differ.

    The conjugate is built in closed form.  With g = [[lambda, b], [mu, d]]
    and det g = lambda*d - b*mu = 1, g^-1 = [[d, -b], [-mu, lambda]], so
    g*s(alpha)*g^-1 = [[lambda*d - b*mu - alpha*lambda*mu, alpha*lambda^2],
    [-alpha*mu^2, lambda*d - b*mu + alpha*lambda*mu]]
    = [[1 - alpha*lambda*mu, alpha*lambda^2], [-alpha*mu^2, 1 + alpha*lambda*mu]].
    Its determinant is checked on the ints, and the kernel re-checks those
    same eight ints, so no OInt product and no Mat is formed.
    """
    order = g.order
    if not order.group_scope:
        raise OutOfScope("normalizer witnesses need |delta| > 12")
    la, lb, ma, mb = g.m11.a, g.m11.b, g.m21.a, g.m21.b
    if reduce_entries(order, *Mat._inv_ints((la, lb, g.m12.a, g.m12.b, ma, mb, g.m22.a, g.m22.b)))[0] == 1:
        raise ValueError("g must certify NonMember")
    # products of order elements as int pairs, by
    # (a + b*t)(c + d*t) = (ac - m*bd) + (ad + bc + e*bd)*t
    e, m = order.trace, order.tau_norm
    # a NonMember g has mu != 0: m21 = 0 makes the diagonal units, +-1 in
    # scope, so g = +-s(x), a member
    xa, xb = la * ma - m * lb * mb, la * mb + lb * ma + e * lb * mb  # lambda*mu
    sa, sb = ma * ma - m * mb * mb, 2 * ma * mb + e * mb * mb  # mu^2
    n = ma * ma + e * ma * mb + m * mb * mb  # N(mu)
    alpha = 1
    for a in (-1, 1):
        # (a*lambda*mu - 1)*conj(a*mu^2), with conj(mu^2) = (sa + e*sb) - sb*t, over N(mu)^2
        pa, pb, qa, qb = a * xa - 1, a * xb, a * (sa + e * sb), -a * sb
        if _gap_dist(order, pa * qa - m * pb * qb, pa * qb + pb * qa + e * pb * qb, n * n) is not None:
            alpha = a
            break
    ta, tb = la * la - m * lb * lb, 2 * la * lb + e * lb * lb  # lambda^2
    entries = (1 - alpha * xa, -alpha * xb, alpha * ta, alpha * tb, -alpha * sa, -alpha * sb, 1 + alpha * xa, alpha * xb)
    a11, b11, a12, b12, a21, b21, a22, b22 = entries
    det = (
        a11 * a22 - m * b11 * b22 - a12 * a21 + m * b12 * b21,
        a11 * b22 + b11 * a22 + e * b11 * b22 - a12 * b21 - b12 * a21 - e * b12 * b21,
    )
    if det != (1, 0):  # pragma: no cover
        raise ArithmeticError(f"g s({alpha}) g^-1 has determinant {det}, not 1")
    if reduce_entries(order, *entries)[0] == 1:  # pragma: no cover
        raise ArithmeticError("g s(alpha) g^-1 came back Member, against the proof above")
    return OInt(order, alpha, 0)


def n_generators(order: Order) -> list[Word]:
    """The three words r, s(1), s(tau) r s(tau)^-1."""
    if not order.group_scope:
        raise OutOfScope("the subgroup N needs |delta| > 12")
    t = order.tau
    return [(R(),), (S(order.one),), (S(t), R(), S(-t))]


def collapse_hom_check(order: Order) -> bool:
    """Collapsing onto the tau-shift subgroup kills N but not s(tau).

    True when every defining relation, read from the pe2_relations table
    with no Ford domain built, and every generator of N maps to the
    identity while s(tau) itself does not; the collapse is then a
    well-defined surjection whose kernel contains N strictly.  The map r, s(1) -> 1, s(tau) -> s(tau) sends
    s(a + b*tau) = s(1)^a s(tau)^b to s(b*tau), so a word goes to
    s(B*tau), B the sum of the tau-coordinates b of its shift letters,
    and dies exactly when B = 0.
    """

    def dies(word: Word) -> bool:
        return sum(a.b for a in word if a is not None) == 0

    rels_ok = all(dies(rel) for rel in pe2_relations(order))
    n_ok = all(dies(w) for w in n_generators(order))
    return rels_ok and n_ok and not dies((S(order.tau),))


@dataclass(frozen=True)
class FaceRecord:
    """One face-pairing generator of the split report.

    Wall records stand for a parallel wall pair; hemisphere records
    carry the center and, when the pairing is a word over r and the
    shifts, that word.
    """

    kind: str  # "hemisphere" or "wall"
    label: str
    center: KElem | None
    pairing_word: Word | None
    pairing: Mat
    above: bool
    below: bool


@dataclass(frozen=True)
class AmalgamReport:
    """The plane split of the arrangement, with the arrangement it was read from."""

    arrangement: HemiSet
    statuses: tuple[FaceStatus, ...]
    split: tuple[list[Hemisphere], list[Hemisphere]]
    plane: Fraction
    n_generators: tuple[Word, ...]
    faces: tuple[FaceRecord, ...]
    above_generators: tuple[FaceRecord, ...]
    below_generators: tuple[FaceRecord, ...]
    overlap: tuple[FaceRecord, ...]
    overlap_matches_n: bool
    hom_check: bool
    notes: tuple[str, ...]


def _hemi_record(order: Order, hd: Disc, owner: Owner, above: bool, below: bool) -> FaceRecord:
    """The record of one window contributor, its pairing built from integers.

    The center is built here, for the window's contributors only.  An
    enumerated disc has squared radius 1/N(mu), so Q = 1 is the unit
    radius, and then the center gamma = a + b*t is a lattice point and the
    pairing is s(gamma) r s(-gamma) = [[gamma, -1 - gamma^2], [1, -gamma]],
    which is r when gamma = 0; gamma^2 = (a^2 - m b^2) + (2ab + e b^2)*t.
    Otherwise the owner row (lam, mu) is a pair that pair_scan accepted,
    so completion_entries completes it to [[lam, -y], [mu, x]] with no
    second unit test, and the pairing is its inverse [[x, y], [-mu, lam]]
    (Mat._inv_ints).
    Both have determinant 1, so Mat only makes them sign-canonical.
    """
    center = kelem_from_planar_int(order, *hd[:3])
    if hd[4] == 1:
        gamma = center.num
        word: Word | None = (R(),) if gamma.is_zero() else (S(gamma), R(), S(-gamma))
        a, b, e, m = gamma.a, gamma.b, order.trace, order.tau_norm
        entries = (a, b, -1 - (a * a - m * b * b), -(2 * a * b + e * b * b), 1, 0, -a, -b)
    else:
        word, entries = None, Mat._inv_ints(completion_entries(order, *owner))
    pairing = Mat._trusted_ints(order, entries)
    return FaceRecord("hemisphere", f"hemisphere at {center}", center, word, pairing, above, below)


def _overlap_matches_n(overlap: tuple[FaceRecord, ...], order: Order) -> bool:
    # the pairings must be s(1) for the crossing walls, r for the unit
    # hemisphere at 0, and an integer-shift conjugate of s(tau)rs(tau)^-1
    # for the unit hemisphere(s) on the tau row
    saw = set()
    for rec in overlap:
        if rec.kind == "wall":
            if rec.pairing != gen_s(order.one):
                return False
            saw.add("wall")
        else:
            if rec.center is None or rec.center.den != 1:
                return False
            gamma = rec.center.num
            if gamma.is_zero():
                saw.add("zero")
            elif gamma.b == 1:
                saw.add("tau row")
            else:
                return False
    return saw == {"wall", "zero", "tau row"}


def amalgam_split(
    order: Order, norm_bound: int, plane: Fraction
) -> tuple[HemiSet, tuple[FaceStatus, ...], tuple[list[Hemisphere], list[Hemisphere]]]:
    """The arrangement over the straddling rectangle, its face statuses, and its plane split at t = plane > 0.

    amalgam_report reads its records and walls off these three, and the
    amalgam SVG draws them and reads nothing else.
    """
    hs = enumerate_hemispheres(order, norm_bound, amalgam_rectangle(order))
    statuses = face_statuses(hs)
    return hs, statuses, plane_split(hs, statuses, plane)


def amalgam_report(order: Order, norm_bound: int, plane: Fraction = PLANE) -> AmalgamReport:
    """Split the arrangement over the straddling rectangle at t = plane > 0.

    Hemisphere faces come from face_statuses, and their sides from
    plane_split, which clips each contributor by the contributors alone;
    amalgam_split computes the three.
    Walls are unbounded upward, so a wall pair is above the plane, and
    below it too when the arrangement dips under the plane on its walls.
    Faces are reduced to window representatives, centers in the window's
    box taken half-open in u, since translates share a pairing up to a
    shift; the wall records and their labels come from the same box.

    One wall per pairing.  The dip is decided on u = u_lo for the pair
    that s(1) identifies and on v = v_lo for the pair of s(tau), since
    the other wall of each pair gives the same answer.  Proof: let E be
    the top of all hemispheres with N(mu) <= norm_bound over the whole
    plane, 0 where none reaches.  (lam, mu) -> (lam + a*mu, mu) keeps mu
    and the unit ideal and moves the center by a, so E is invariant
    under z -> z + 1 and z -> z + tau.  The enumeration keeps every
    center within one radius of the window, so every disc that reaches
    a side of the window is in the set, and envelope_dips_below on that
    side decides whether E drops under the plane there.  It is handed the
    contributors alone, which gives the same answer: the top of a finite
    set of hemispheres is the top of its contributing faces at every
    point (the envelope fact, proved at plane_split), and
    envelope_dips_below reads only the top of the discs it is given along
    the segment.  The u-sides differ by the shift 1.  The tau-translate
    of the side v = 0 is a full u-period of the line v = 1/2, moved by
    1/2 in u when delta is odd; E is 1-periodic in u, so E takes the same
    values on it as on the whole line, and so on the side v = 1/2.  So both walls of a pair
    see the same heights of E.
    """
    hs, statuses, split = amalgam_split(order, norm_bound, plane)
    window = hs.window
    above_set, below_set = {h.disc for h in split[0]}, {h.disc for h in split[1]}

    # an axis-parallel box: its least and greatest vertices are opposite corners
    (u_lo, v_lo), (u_hi, v_hi) = min(window.vertices), max(window.vertices)
    (w, x_lo, x_hi, y_lo, y_hi), _ = box_of(frame_of(window.vertices))
    top = [i for i, s in enumerate(statuses) if isinstance(s, Contributes)]
    top_discs, top_owners = tuple(hs.discs[i] for i in top), tuple(hs.owners[i] for i in top)
    records: list[FaceRecord] = []
    for hd, owner in zip(top_discs, top_owners):
        u, v, l = hd[:3]
        # u_lo <= u/l < u_hi and v_lo <= v/l <= v_hi, times w*l > 0
        if not (x_lo * l <= u * w < x_hi * l and y_lo * l <= v * w <= y_hi * l):
            continue
        records.append(_hemi_record(order, hd, owner, hd in above_set, hd in below_set))

    top_hs = replace(hs, discs=top_discs, owners=top_owners)
    u_dips = envelope_dips_below(top_hs, (u_lo, v_lo), (u_lo, v_hi), plane)
    v_dips = envelope_dips_below(top_hs, (u_lo, v_lo), (u_hi, v_lo), plane)
    one, tau = order.one, order.tau
    records.append(FaceRecord("wall", f"walls u = {u_lo}, {u_hi}", None, (S(one),), gen_s(one), True, u_dips))
    records.append(FaceRecord("wall", f"walls v = {v_lo}, {v_hi}", None, (S(tau),), gen_s(tau), True, v_dips))

    faces = tuple(records)
    above = tuple(r for r in faces if r.above)
    below = tuple(r for r in faces if r.below)
    overlap = tuple(r for r in faces if r.above and r.below)
    notes = [
        "each wall record covers a parallel pair with one pairing, so paired "
        "walls land on the same side by construction",
        "a hemisphere face and its pairing partner share one radius, so both "
        "reach the same heights",
    ]
    if not u_dips:
        notes.append("no shift-wall point under the plane")
    if not v_dips:
        notes.append(
            "the v-walls never dip under the plane: the top of the arrangement "
            "stays above it along both"
        )
    return AmalgamReport(
        arrangement=hs,
        statuses=statuses,
        split=split,
        plane=Fraction(plane),
        n_generators=tuple(n_generators(order)),
        faces=faces,
        above_generators=above,
        below_generators=below,
        overlap=overlap,
        overlap_matches_n=_overlap_matches_n(overlap, order),
        hom_check=collapse_hom_check(order),
        notes=tuple(notes),
    )
