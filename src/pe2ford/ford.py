"""Ford domain of the group generated by r and the shifts, and its relations.

For |delta| > 12 the Ford domain sits over the Voronoi cell F of the
lattice around 0.  Its boundary has a single hemisphere face (the unit
hemisphere at 0, self-paired by r) plus the vertical walls over the
sides of F, paired in parallel pairs by translations.  Following the
edge cycles of this polyhedron and reading off the pairing maps yields
the defining relations: every vertical-wall cycle imposes the
commutation of the two shift generators, and the hemisphere/wall cycle
imposes a power of r*s(1).

All geometry lives in (u, v) coordinates for the boundary point
u + v*sqrt(|delta|)*i, which keeps every vertex, edge and pairing image
rational; no epsilon comparisons occur anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cells import Point, bisectors, dist_sq_int, frame_of, power_cell
from .errors import CycleNotClosed, OutOfScope
from .moebius import Mat, apply_interior, gen_r, gen_s, order_in_psl
from .orders import KElem, OInt, Order, dist_sq, kelem_from_planar
from .words import R, S, Word, format_word, word_inverse, word_to_matrix


@dataclass(frozen=True)
class FundPolygon:
    """Convex cell in the (u, v) plane, counterclockwise vertices."""

    vertices: tuple[Point, ...]
    kind: str  # "rectangle" or "hexagon"
    center: Point


def _neighbour_ring(order: Order) -> tuple[OInt, ...]:
    # nearest lattice points around 0, counterclockwise from 1
    one, tau = order.one, order.tau
    if order.even:
        return (one, tau, -one, -tau)
    return (one, tau, tau - one, -one, -tau, one - tau)


def voronoi_cell(order: Order) -> FundPolygon:
    """Voronoi cell of the lattice around 0.

    Unit discs all have one radius, so their power diagram is the
    Voronoi diagram: the cell is the power cell of the unit disc at 0
    against the unit discs at the nearest lattice points (in the metric
    u^2 + |delta| v^2 of the embedding).  A rectangle for even deltas and
    a hexagon for odd ones.  It starts at its greatest (u, v) vertex,
    where the bisectors toward 1 and tau meet, so vertex i lies on the
    bisectors toward ring[i] and ring[i + 1].  Needs |delta| > 4 so that
    the hexagon really has the six neighbours +-1, +-tau, +-(tau - 1).
    """
    if not order.units_are_signs:
        raise OutOfScope("voronoi cell needs |delta| > 4")
    unit = (0, 0, 1, 1, 1)
    discs = [(*KElem.of(p, 1).planar_int(), 1, 1) for p in _neighbour_ring(order)]
    w, verts = power_cell(unit, bisectors(order.abs_delta, unit, discs))
    top = verts.index(max(verts))
    cell = tuple((Fraction(x, w), Fraction(y, w)) for x, y in verts[top:] + verts[:top])
    zero = Fraction(0)
    return FundPolygon(cell, "rectangle" if order.even else "hexagon", (zero, zero))


def amalgam_rectangle(order: Order) -> FundPolygon:
    """Unit-width lattice-cell rectangle centered at (0, 1/4), i.e. under tau/2.

    Straddles the walls of the Voronoi cells at 0 and tau instead of
    sitting inside one of them; used to compare the two hemisphere
    arrangements over a common footprint.
    """
    if not order.group_scope:
        raise OutOfScope("amalgam rectangle needs |delta| > 12")
    half = Fraction(1, 2)
    zero = Fraction(0)
    verts = ((half, zero), (half, half), (-half, half), (-half, zero))
    return FundPolygon(verts, "rectangle", (zero, Fraction(1, 4)))


@dataclass(frozen=True)
class VerticalWall:
    """Wall over one polygon side, carried to the opposite side by a shift."""

    start: Point
    end: Point
    toward: OInt  # the neighbour whose bisector carries this wall
    pairing: Mat
    pairing_word: Word


@dataclass(frozen=True)
class HemiFace:
    """Unit-hemisphere face, self-paired by an involution."""

    center: OInt
    pairing: Mat
    pairing_word: Word


Face = VerticalWall | HemiFace


def _shift_letters(order: Order, p: OInt) -> Word:
    # spell s(p) over the generator shifts s(1) and s(tau)
    one, tau = order.one, order.tau
    if p == tau - one:
        return (S(tau), S(-one))
    if p == one - tau:
        return word_inverse((S(tau), S(-one)))
    return (S(p),)


def pe2_ford_faces(order: Order) -> tuple[Face, ...]:
    """Faces of the Ford domain over the Voronoi cell around 0.

    One unit-hemisphere face centered at 0 (self-paired by r) plus one
    vertical wall per polygon side, parallel walls paired by the
    translation between them.  Needs |delta| > 12: only then is every
    hemisphere other than the one at 0 strictly below the domain over F.
    """
    if not order.group_scope:
        raise OutOfScope("the one-hemisphere face list needs |delta| > 12")
    cell = voronoi_cell(order)
    ring = _neighbour_ring(order)
    faces: list[Face] = [HemiFace(order.zero, gen_r(order), (R(),))]
    for i, p in enumerate(ring):
        faces.append(
            VerticalWall(
                cell.vertices[i - 1],
                cell.vertices[i],
                p,
                gen_s(-p),
                _shift_letters(order, -p),
            )
        )
    return tuple(faces)


@dataclass(frozen=True)
class Edge:
    """One edge of the domain, identified by an exact point on it.

    Vertical edges (two walls meeting over a polygon vertex) carry the
    sample height t^2 = 1; arc edges (hemisphere meeting a wall) carry
    the arc's midpoint, whose height is determined by the hemisphere.
    """

    kind: str  # "vertical" or "arc"
    zeta: KElem
    height_sq: Fraction


def _domain_edges(order: Order, faces: Sequence[Face]) -> tuple[Edge, ...]:
    # wall i ends at cell vertex i, so the vertical edges keep the cell's order
    walls = [f for f in faces if isinstance(f, VerticalWall)]
    edges = [Edge("vertical", kelem_from_planar(order, *w.end), Fraction(1)) for w in walls]
    for w in walls:
        # the hemisphere reaches a wall only when the neighbour sits at
        # norm < 4; the midpoint of the bisector is then on the arc
        if w.toward.norm() < 4:
            edges.append(Edge("arc", KElem.of(w.toward, 2), 1 - Fraction(w.toward.norm(), 4)))
    return tuple(edges)


def _face_contains(face: Face, edge: Edge) -> bool:
    if isinstance(face, VerticalWall):
        # the planar metric is positive definite, so distance 0 means on the segment
        n = edge.zeta.order.abs_delta
        return dist_sq_int(n, frame_of((face.start, face.end)), edge.zeta.planar_int())[0] == 0
    return dist_sq(edge.zeta, face.center) + edge.height_sq == 1


@dataclass(frozen=True)
class EdgeCycle:
    """One cycle of edges under the face pairings.

    ``word`` lists the pairing letters along the cycle, last applied
    leftmost, so it evaluates to ``cycle_transform``.  ``relation`` is
    the word repeated ``exponent`` times and is the identity in the
    projective group; ``derived_relation`` restates it over the
    generators r, s(1), s(tau).
    """

    edges: tuple[Edge, ...]
    word: Word
    cycle_transform: Mat
    exponent: int
    relation: Word
    derived_relation: Word
    note: str = ""


def edge_cycles(faces: Sequence[Face]) -> tuple[EdgeCycle, ...]:
    """Follow the face pairings around every edge of the domain.

    Starting from an edge on a face, the pairing of that face carries it
    to an edge on the partner face; continuing through the other face at
    each stop returns to the start after finitely many steps.  The
    product of the pairings is the cycle transformation, elliptic of
    small order here, and (cycle word)^order is a defining relation.
    """
    order = faces[0].pairing.order
    walls = [f for f in faces if isinstance(f, VerticalWall)]
    partner: dict[Face, Face] = {f: f for f in faces if isinstance(f, HemiFace)}
    for w in walls:
        partner[w] = next(x for x in walls if x.toward == -w.toward)
    edges = _domain_edges(order, faces)
    containing: dict[Edge, tuple[Face, ...]] = {}
    for e in edges:
        fs = tuple(f for f in faces if _face_contains(f, e))
        if len(fs) != 2:
            raise CycleNotClosed(f"edge at {e.zeta} lies on {len(fs)} faces, not 2")
        containing[e] = fs

    cycles: list[EdgeCycle] = []
    used: set[Edge] = set()
    for e0 in edges:
        if e0 in used:
            continue
        f0 = containing[e0][0]
        e, f = e0, f0
        seq: list[Edge] = []
        letters: Word = ()
        transform = Mat.identity(order)
        for _ in range(4 * len(edges)):
            seq.append(e)
            used.add(e)
            transform = f.pairing * transform
            letters = f.pairing_word + letters
            ze, te = apply_interior(f.pairing, e.zeta, e.height_sq)
            e2 = Edge(e.kind, ze, te)
            if e2 not in containing:
                raise CycleNotClosed(f"pairing image {ze} is not on any edge")
            arrived = partner[f]
            fs = containing[e2]
            if arrived not in fs:
                raise CycleNotClosed("pairing image missed the partner face")
            nxt = fs[0] if fs[1] == arrived else fs[1]
            e, f = e2, nxt
            if e == e0 and f == f0:
                break
        else:
            raise CycleNotClosed("pairings never returned to the starting edge")
        exponent = order_in_psl(transform)
        if exponent is None:
            raise CycleNotClosed("cycle transformation is not of small finite order")
        cycles.append(_finish_cycle(order, tuple(seq), letters, transform, exponent))
    return tuple(cycles)


def _commutator_relation(order: Order) -> Word:
    one, tau = order.one, order.tau
    return (S(one), S(tau), S(-one), S(-tau))


def _finish_cycle(
    order: Order, seq: tuple[Edge, ...], word: Word, transform: Mat, exponent: int
) -> EdgeCycle:
    relation = word * exponent
    if any(letter.kind == "r" for letter in word):
        derived = (R(), S(order.one)) * exponent
        note = f"cycle of length {len(seq)}; its transformation has order {exponent}"
    else:
        # a wall cycle: the shifts close up, which is exactly the
        # commutation of the two generating translations
        derived = _commutator_relation(order)
        note = ""
    return EdgeCycle(seq, word, transform, exponent, relation, derived, note)


@dataclass(frozen=True)
class Presentation:
    generators: tuple[tuple[str, Word], ...]
    relations: tuple[Word, ...]
    notes: tuple[str, ...]
    cycles: tuple[EdgeCycle, ...]  # the edge cycles the relations were read from


def presentation(order: Order) -> Presentation:
    """Defining presentation on r, s(1), s(tau), read off the edge cycles.

    Relations: the commutator of the two shifts, r^2, and (r s(1))^k
    with k the order of the hemisphere-cycle transformation (k = 3).
    Every relation is re-verified as a matrix identity.
    """
    if not order.group_scope:
        raise OutOfScope("the three-relation presentation needs |delta| > 12")
    cycles = edge_cycles(pe2_ford_faces(order))
    commutator = _commutator_relation(order)
    hemi = [c for c in cycles if any(letter.kind == "r" for letter in c.word)]
    wall = [c for c in cycles if not any(letter.kind == "r" for letter in c.word)]
    if len(hemi) != 1 or not wall:
        raise CycleNotClosed("unexpected cycle structure for the Ford domain")
    for c in wall:
        if not c.cycle_transform.is_identity():
            raise CycleNotClosed("a wall cycle failed to impose the commutation")
    one, tau = order.one, order.tau
    relations = (commutator, (R(), R()), (R(), S(one)) * hemi[0].exponent)
    for rel in relations:
        if not word_to_matrix(rel, order).is_identity():
            raise CycleNotClosed(f"relation {format_word(rel)} is not the identity")
    generators = (
        ("r", (R(),)),
        (format_word((S(one),)), (S(one),)),
        (format_word((S(tau),)), (S(tau),)),
    )
    notes = tuple(n for n in (hemi[0].note,) if n)
    return Presentation(generators, relations, notes, cycles)
