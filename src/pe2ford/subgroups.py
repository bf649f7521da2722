"""Coset and normalizer evidence for the elementary subgroup, and the plane split.

The shift-and-rotation subgroup has infinite index in the full group
once |delta| > 12: ratios lambda/mu of unimodular pairs that stay
strictly outside every closed unit disc centered on a lattice point
("gap points") pin down pairwise distinct right cosets, and shifting a
gap ratio by 1/(alpha*mu^2) leaves the gap, which makes the subgroup
its own normalizer.  Splitting the hemisphere arrangement over the
straddling rectangle by the plane t = t0 exhibits the full group as an
amalgam over the subgroup N = <r, s(1), s(tau) r s(tau)^-1>.

All gap and split certificates are exact rational comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .arrangement import (
    Contributes,
    FaceStatus,
    HemiSet,
    UnimodularPair,
    enumerate_hemispheres,
    envelope_dips_below,
    face_statuses,
    plane_split,
    unit_ideal,
)
from .errors import OutOfScope, SearchExhausted, WitnessNotFound
from .ford import amalgam_rectangle, presentation
from .moebius import Hemisphere, Mat, gen_s
from .orders import (
    KElem,
    OInt,
    Order,
    gap_neighbourhood,
    kelem_from_planar,
    lattice_points_within,
    oints_by_norm,
)
from .words import NonMember, R, S, Word, membership, word_to_matrix

PLANE = Fraction(2, 3)  # the default height t0 of the plane that splits the arrangement


@dataclass(frozen=True)
class GapPoint:
    """Unimodular ratio exactly outside every closed unit lattice disc."""

    pair: UnimodularPair
    min_dist_sq: Fraction
    checked_lattice_points: tuple[OInt, ...]

    def ratio(self) -> KElem:
        return self.pair.ratio()


def gap_check(z: KElem) -> tuple[Fraction, tuple[OInt, ...]] | None:
    """Minimum squared lattice distance and the points checked, if a gap.

    z is a gap point exactly when no lattice point lies in the closed
    unit disc about it, the test membership uses for NonMember.  Only
    then is the gap neighbourhood scanned; it always holds the nearest
    lattice point, and its integer distances give the one Fraction built,
    the minimum.
    """
    if lattice_points_within(z, 1):
        return None
    nearby = gap_neighbourhood(z)
    return (Fraction(min(d for _, d in nearby), z.den * z.den), tuple(g for g, _ in nearby))


def _gap_stream(order: Order) -> Iterator[GapPoint]:
    # mu by increasing norm; ratios confined to the half-open cell band
    # u in [0, 1), v in [0, 1/2), which meets every translation orbit once;
    # with x = lam*conj(mu) the ratio is x/N(mu), so the band is
    # 0 <= 2*x.a + e*x.b < 2N and 0 <= x.b < N in integers.  gap_check, then
    # unit_ideal; no ratio repeats, as unimodular pairs of one ratio differ by
    # a unit, the units are +-1, and mu's canonical sign leaves only 1.
    n = order.abs_delta
    e = 0 if order.even else 1
    band_center = kelem_from_planar(order, Fraction(1, 2), Fraction(1, 4))
    band_circum = Fraction(1, 4) + Fraction(n, 16)
    for group in oints_by_norm(order):
        for mu in group:
            if not mu.is_canonical_positive():
                continue
            norm, mu_bar = mu.norm(), mu.conj()
            for lam in lattice_points_within(band_center * mu, band_circum * norm):
                x = lam * mu_bar
                if not (0 <= 2 * x.a + e * x.b < 2 * norm and 0 <= x.b < norm):
                    continue
                found = gap_check(KElem.of(lam, mu))
                if found is None:
                    continue
                if not unit_ideal(lam, mu):
                    continue
                min_dist, checked = found
                yield GapPoint(UnimodularPair(lam, mu), min_dist, checked)


def gap_points(order: Order, count: int) -> list[GapPoint]:
    """The first `count` gap points, mu-norm ascending, ratios distinct."""
    if not order.group_scope:
        raise OutOfScope("gap points need |delta| > 12")
    if count < 1:
        raise ValueError("count must be >= 1")
    return list(itertools.islice(_gap_stream(order), count))


@dataclass
class CosetFamily:
    """Matrices in pairwise distinct right cosets of the elementary subgroup.

    distinctness_matrix[(i, j)], for j < i, is the NonMember certificate
    of M_j * M_i^{-1}.
    """

    members: tuple[Mat, ...]
    points: tuple[GapPoint, ...]
    distinctness_matrix: dict[tuple[int, int], NonMember]
    replaced: tuple[KElem, ...]


def coset_family(order: Order, count: int) -> CosetFamily:
    """Completions of gap points representing distinct right cosets.

    Members i and j land in the same coset exactly when M_j * M_i^{-1}
    is in the subgroup, so each pair certifies that product NonMember.
    Membership descends from the ratio -d/c of the bottom row (c, d); for
    M_j * M_i^{-1} that is the gap ratio lambda_i/mu_i moved by
    mu_j/(mu_i * c), whose squared length norm(mu_j)/(norm(mu_i) norm(c))
    is at most 1 because candidates come by ascending norm(mu), while
    the inverse product moves lambda_j/mu_j by the reciprocal norm
    ratio.  A product is certified once its descent reaches a ratio with
    no lattice point in the closed unit disc about it, the same unit-disc
    test gap_check makes; each candidate is inverted once.  A candidate
    whose product search does not certify (a search cap hit) is dropped and
    reported in `replaced` rather than silently kept.
    """
    if not order.group_scope:
        raise OutOfScope("coset families need |delta| > 12")
    if count < 1:
        raise ValueError("count must be >= 1")
    members: list[Mat] = []
    points: list[GapPoint] = []
    matrix: dict[tuple[int, int], NonMember] = {}
    replaced: list[KElem] = []
    budget = 10 * count + 50
    for gp in _gap_stream(order):
        budget -= 1
        if budget < 0:
            raise SearchExhausted(f"no family of {count} within the candidate budget")
        cand = gp.pair.completion
        cand_inv = cand.inv()
        results: dict[tuple[int, int], NonMember] = {}
        i = len(members)
        for j, other in enumerate(members):
            res = membership(other * cand_inv)
            if not isinstance(res, NonMember):
                break
            results[(i, j)] = res
        else:
            members.append(cand)
            points.append(gp)
            matrix.update(results)
            if len(members) == count:
                return CosetFamily(tuple(members), tuple(points), matrix, tuple(replaced))
            continue
        replaced.append(gp.ratio())
    raise SearchExhausted("gap point stream dried up")  # pragma: no cover


def normalizer_witness(g: Mat) -> OInt:
    """Smallest-norm shift coefficient whose conjugate re-certifies g.

    Requires (and verifies) that g is NonMember with a gap-point ratio.
    Conjugating the shift s(alpha) by g moves the ratio to
    lambda/mu - 1/(alpha*mu^2); candidates failing the exact gap test
    on that value are skipped before any membership search runs.  The
    search is capped at norm(alpha) = 10^4 and reports rather than
    widening.
    """
    order = g.order
    if not order.group_scope:
        raise OutOfScope("normalizer witnesses need |delta| > 12")
    # membership descends from the right ratio, an arbitrary completion entry
    # over mu for g but lambda/mu itself for g^-1, which is outside iff g is
    g_inv = g.inv()
    if not isinstance(membership(g_inv), NonMember):
        raise ValueError("g must certify NonMember")
    lam, mu = g.m11, g.m21
    if mu.is_zero():
        raise ValueError("g must move infinity")
    ratio = KElem.of(lam, mu)
    if gap_check(ratio) is None:
        raise ValueError("the ratio of g must be a gap point")
    for group in oints_by_norm(order):
        if group[0].norm() > 10_000:
            raise WitnessNotFound("no witness with norm(alpha) <= 10^4")
        for alpha in group:
            shifted = ratio - KElem.of(order.one, alpha * mu * mu)
            if gap_check(shifted) is None:
                continue
            conj = g * gen_s(alpha) * g_inv
            if isinstance(membership(conj), NonMember):
                return alpha
    raise WitnessNotFound("alpha enumeration ended")  # pragma: no cover


def n_generators(order: Order) -> list[Word]:
    """The three words r, s(1), s(tau) r s(tau)^-1."""
    if not order.group_scope:
        raise OutOfScope("the subgroup N needs |delta| > 12")
    t = order.tau
    return [(R(),), (S(order.one),), (S(t), R(), S(-t))]


def collapse_word(word: Word, order: Order) -> Word:
    """Image of a word under r, s(1) -> identity and s(tau) -> s(tau).

    A shift s(a + b*tau) factors as s(a)s(b*tau), so only the tau part
    of each coefficient survives; r-letters vanish.
    """
    out = []
    for letter in word:
        if letter.kind == "s" and letter.coeff.b != 0:
            out.append(S(OInt(order, 0, letter.coeff.b)))
    return tuple(out)


def collapse_hom_check(order: Order) -> bool:
    """Collapsing onto the tau-shift subgroup kills N but not s(tau).

    True when every defining relation and every generator of N maps to
    the identity while s(tau) itself does not; the collapse is then a
    well-defined surjection whose kernel contains N strictly.
    """

    def dies(word: Word) -> bool:
        return word_to_matrix(collapse_word(word, order), order).is_identity()

    rels_ok = all(dies(rel) for rel in presentation(order).relations)
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
    norm_bound: int
    notes: tuple[str, ...]


def _hemi_record(center: KElem, pair: UnimodularPair, above: bool, below: bool) -> FaceRecord:
    order = center.order
    if pair.mu.norm() == 1:
        gamma = center.num  # radius one, so the center is a lattice point
        word: Word = (R(),) if gamma.is_zero() else (S(gamma), R(), S(-gamma))
        pairing = word_to_matrix(word, order)
    else:
        word = None
        pairing = pair.completion.inv()
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


def amalgam_report(order: Order, norm_bound: int, plane: Fraction = PLANE) -> AmalgamReport:
    """Split the arrangement over the straddling rectangle at t = plane > 0.

    Hemisphere faces and their sides come from the exact power cells.
    Walls are unbounded upward, so a wall pair is above the plane, and
    below it too when the arrangement dips under the plane on both
    walls.  Faces are reduced to window representatives, centers in the
    window's box taken half-open in u, since translates share a pairing
    up to a shift; the wall records and their labels come from the same box.
    """
    window = amalgam_rectangle(order)
    hs = enumerate_hemispheres(order, norm_bound, window)
    statuses = face_statuses(hs)
    split = plane_split(hs, statuses, plane)
    above_set, below_set = set(split[0]), set(split[1])

    # an axis-parallel box: its least and greatest vertices are opposite corners
    (u_lo, v_lo), (u_hi, v_hi) = min(window.vertices), max(window.vertices)
    records: list[FaceRecord] = []
    for h, pair, status in zip(hs.hemispheres, hs.pairs, statuses):
        if not isinstance(status, Contributes):
            continue
        u, v = h.center.planar()
        if not (u_lo <= u < u_hi and v_lo <= v <= v_hi):
            continue
        records.append(_hemi_record(h.center, pair, h in above_set, h in below_set))

    u_dips = [envelope_dips_below(hs, (u0, v_lo), (u0, v_hi), plane) for u0 in (u_lo, u_hi)]
    v_dips = [envelope_dips_below(hs, (u_lo, v0), (u_hi, v0), plane) for v0 in (v_lo, v_hi)]
    one, tau = order.one, order.tau
    records.append(FaceRecord("wall", f"walls u = {u_lo}, {u_hi}", None, (S(one),), gen_s(one), True, all(u_dips)))
    records.append(FaceRecord("wall", f"walls v = {v_lo}, {v_hi}", None, (S(tau),), gen_s(tau), True, all(v_dips)))

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
    if u_dips[0] != u_dips[1] or v_dips[0] != v_dips[1]:
        notes.append("wall pair sides disagreed; the window is not a period here")
    if not all(u_dips):
        notes.append("no shift-wall point under the plane")
    if not any(v_dips):
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
        norm_bound=norm_bound,
        notes=tuple(notes),
    )
