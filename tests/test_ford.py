from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from pe2ford import ford
from pe2ford.cells import dist_sq_int, frame_of
from pe2ford.errors import CycleNotClosed, OutOfScope
from pe2ford.ford import (
    HemiFace,
    VerticalWall,
    _neighbour_ring,
    amalgam_rectangle,
    coset_key,
    edge_cycles,
    pe2_ford_faces,
    pe2_relations,
    presentation,
    voronoi_cell,
)
from pe2ford.moebius import Mat, Side, apply_interior, gen_r, gen_s, order_in_psl, outside_test
from pe2ford.orders import (
    KElem,
    kelem_from_planar,
    lattice_points_norm_at_most,
    lattice_points_within,
    make_order,
)
from pe2ford.subgroups import gap_points
from pe2ford.words import NonMember, R, S, membership, random_pe2_word, word_to_matrix

DISCS = [-15, -16, -19, -20, -23, -24, -40]
CELL_DISCS = [-7, -8, -11] + DISCS
# every valid discriminant from -5 to -400, and one far out
SWEEP_DISCS = [delta for delta in range(-5, -401, -1) if delta % 4 in (0, 1)] + [-1003]


def _area(cell):
    # the shoelace sum over the counterclockwise vertices
    vs = cell.vertices
    return sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(vs, vs[1:] + vs[:1])) / 2


def _in_closed(d, cell, u, v):
    # distance 0 from the closed polygon
    return dist_sq_int(d.abs_delta, frame_of(cell.vertices), kelem_from_planar(d, u, v).planar_int())[0] == 0


def test_kelem_from_planar_roundtrip():
    rng = random.Random(3)
    for delta in CELL_DISCS:
        d = make_order(delta)
        for _ in range(25):
            x = d.elt(rng.randint(-9, 9), rng.randint(-9, 9))
            assert kelem_from_planar(d, *KElem.from_oint(x).planar()) == x
            z = KElem.of(x, rng.randint(1, 6))
            assert kelem_from_planar(d, *z.planar()) == z


def test_voronoi_cell_even():
    d = make_order(-40)
    cell = voronoi_cell(d)
    assert cell.kind == "rectangle"
    assert cell.center == (0, 0)
    assert set(cell.vertices) == {
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(-1, 2), Fraction(1, 4)),
        (Fraction(-1, 2), Fraction(-1, 4)),
        (Fraction(1, 2), Fraction(-1, 4)),
    }
    assert _area(cell) == Fraction(1, 2)
    # the cell about 1 + tau is the cell about 0 moved there
    cu, cv = KElem.from_oint(d.elt(1, 1)).planar()
    assert (cu, cv) == (1, Fraction(1, 2))
    assert (Fraction(3, 2), Fraction(3, 4)) in {(u + cu, v + cv) for u, v in cell.vertices}


def test_voronoi_cell_odd():
    d = make_order(-15)
    cell = voronoi_cell(d)
    assert cell.kind == "hexagon"
    h, big = Fraction(7, 30), Fraction(4, 15)
    assert set(cell.vertices) == {
        (Fraction(1, 2), h),
        (Fraction(-1, 2), h),
        (Fraction(1, 2), -h),
        (Fraction(-1, 2), -h),
        (Fraction(0), big),
        (Fraction(0), -big),
    }
    assert _area(cell) == Fraction(1, 2)


def test_voronoi_cell_scope():
    for delta in (-3, -4):
        with pytest.raises(OutOfScope):
            voronoi_cell(make_order(delta))
    assert len(voronoi_cell(make_order(-7)).vertices) == 6


def test_voronoi_vertices_are_deep_points():
    # every cell vertex is equidistant from the center and >= 2 other
    # lattice points, with nothing strictly closer
    for delta in CELL_DISCS:
        d = make_order(delta)
        for u, v in voronoi_cell(d).vertices:
            z = kelem_from_planar(d, u, v)
            d0 = (z - d.zero).abs_sq()
            pts = lattice_points_within(z, d0)
            assert d.zero in pts
            assert len(pts) >= 3
            assert all((z - p).abs_sq() == d0 for p in pts)


def test_polygon_convex_and_centrally_symmetric():
    for delta in CELL_DISCS:
        d = make_order(delta)
        cell = voronoi_cell(d)
        # the cell about tau is the cell about 0 moved by tau
        for cu, cv in (cell.center, KElem.from_oint(d.tau).planar()):
            vs = tuple((u + cu, v + cv) for u, v in cell.vertices)
            k = len(vs)
            for i in range(k):
                (ax, ay), (bx, by), (cx, cy) = vs[i], vs[(i + 1) % k], vs[(i + 2) % k]
                assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0
            assert {(2 * cu - u, 2 * cv - v) for u, v in vs} == set(vs)


def test_vertex_order_follows_the_ring():
    # vertex i is where the bisectors toward ring[i] and ring[i + 1] meet,
    # and wall i runs from vertex i - 1 to vertex i on the bisector toward ring[i]
    for delta in SWEEP_DISCS:
        d = make_order(delta)
        ring = _neighbour_ring(d)
        vertices = voronoi_cell(d).vertices
        assert len(vertices) == len(ring)
        for i, (u, v) in enumerate(vertices):
            z = kelem_from_planar(d, u, v)
            assert (z - d.zero).abs_sq() == (z - ring[i]).abs_sq() == (z - ring[(i + 1) % len(ring)]).abs_sq()
        if d.abs_delta <= 12:
            continue
        walls = [f for f in pe2_ford_faces(d) if isinstance(f, VerticalWall)]
        assert [w.toward for w in walls] == list(ring)
        for w in walls:
            for u, v in (w.start, w.end):
                z = kelem_from_planar(d, u, v)
                assert (z - d.zero).abs_sq() == (z - w.toward).abs_sq()


def test_covering_radius_is_the_farthest_cell_vertex():
    for delta in SWEEP_DISCS:
        d = make_order(delta)
        far = max((kelem_from_planar(d, u, v) - d.zero).abs_sq() for u, v in voronoi_cell(d).vertices)
        assert d.covering_radius_sq() == far


def test_polygon_contains():
    d = make_order(-40)
    cell = voronoi_cell(d)
    assert _in_closed(d, cell, 0, 0)
    assert _in_closed(d, cell, Fraction(1, 2), Fraction(1, 4))  # closed
    assert not _in_closed(d, cell, 1, 0)
    assert not _in_closed(d, cell, Fraction(0), Fraction(3, 10))


def test_amalgam_rectangle():
    d = make_order(-40)
    rect = amalgam_rectangle(d)
    assert rect.kind == "rectangle"
    assert rect.center == (0, Fraction(1, 4))
    assert set(rect.vertices) == {
        (Fraction(1, 2), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(-1, 2), Fraction(0)),
    }
    assert _area(rect) == Fraction(1, 2)
    # footprint arcs of the unit hemispheres at 0 and tau cross it:
    # (3/7, 1/7) is on the first circle, (3/7, 5/14) on the second
    assert Fraction(3, 7) ** 2 + 40 * Fraction(1, 7) ** 2 == 1
    assert _in_closed(d, rect, Fraction(3, 7), Fraction(1, 7))
    assert _in_closed(d, rect, Fraction(3, 7), Fraction(5, 14))
    assert amalgam_rectangle(make_order(-15)).center == (0, Fraction(1, 4))
    for delta in (-7, -12):
        with pytest.raises(OutOfScope):
            amalgam_rectangle(make_order(delta))


def test_faces_even():
    d = make_order(-40)
    faces = pe2_ford_faces(d)
    assert len(faces) == 5
    hemi = faces[0]
    assert isinstance(hemi, HemiFace)
    assert hemi.center == d.zero
    assert hemi.pairing == gen_r(d)
    walls = faces[1:]
    assert {w.toward for w in walls} == {d.one, -d.one, d.tau, -d.tau}
    for w in walls:
        assert isinstance(w, VerticalWall)
        assert w.pairing == gen_s(-w.toward)


def test_faces_odd():
    d = make_order(-15)
    t = d.tau
    faces = pe2_ford_faces(d)
    assert len(faces) == 7
    walls = faces[1:]
    assert {w.toward for w in walls} == {d.one, -d.one, t, -t, t - d.one, d.one - t}
    for w in walls:
        if w.toward in (t - d.one, d.one - t):
            assert len(w.pairing_word) == 2
        else:
            assert len(w.pairing_word) == 1


def test_face_words_match_matrices():
    for delta in DISCS:
        d = make_order(delta)
        for f in pe2_ford_faces(d):
            assert word_to_matrix(f.pairing_word, d) == f.pairing


def test_faces_scope():
    for delta in (-11, -12):
        with pytest.raises(OutOfScope):
            pe2_ford_faces(make_order(delta))


def test_wall_pairing_involution():
    for delta in DISCS:
        d = make_order(delta)
        faces = pe2_ford_faces(d)
        walls = [f for f in faces if isinstance(f, VerticalWall)]
        for w in walls:
            partner = next(x for x in walls if x.toward == -w.toward)
            assert partner.pairing == w.pairing.inv()
            images = set()
            for u, v in (w.start, w.end):
                z, _ = apply_interior(w.pairing, kelem_from_planar(d, u, v), Fraction(1))
                images.add(z.planar())
            assert images == {partner.start, partner.end}
        hemi = faces[0]
        assert hemi.pairing.inv() == hemi.pairing


def test_edge_cycles_even():
    d = make_order(-40)
    t = d.tau
    cycles = edge_cycles(pe2_ford_faces(d))
    assert [len(c.edges) for c in cycles] == [4, 2]
    square, arc = cycles

    assert square.word == (S(t), S(d.one), S(-t), S(-d.one))
    assert square.cycle_transform.is_identity()
    assert square.exponent == 1
    assert square.relation == square.word
    assert square.derived_relation == (S(d.one), S(t), S(-d.one), S(-t))
    assert {e.kind for e in square.edges} == {"vertical"}
    assert {e.zeta.planar() for e in square.edges} == {
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(-1, 2), Fraction(1, 4)),
        (Fraction(-1, 2), Fraction(-1, 4)),
        (Fraction(1, 2), Fraction(-1, 4)),
    }

    assert arc.word == (S(d.one), R())
    assert arc.cycle_transform == gen_s(d.one) * gen_r(d)
    assert arc.exponent == 3
    assert arc.relation == (S(d.one), R()) * 3
    assert arc.derived_relation == (R(), S(d.one)) * 3
    assert "order 3" in arc.note and "length 2" in arc.note
    assert {e.kind for e in arc.edges} == {"arc"}
    assert {e.zeta.planar() for e in arc.edges} == {
        (Fraction(1, 2), Fraction(0)),
        (Fraction(-1, 2), Fraction(0)),
    }
    assert {e.height_sq for e in arc.edges} == {Fraction(3, 4)}


def test_edge_cycles_odd():
    d = make_order(-15)
    cycles = edge_cycles(pe2_ford_faces(d))
    assert [len(c.edges) for c in cycles] == [3, 3, 2]
    first, second, arc = cycles
    commutator = (S(d.one), S(d.tau), S(-d.one), S(-d.tau))
    for c in (first, second):
        assert c.cycle_transform.is_identity()
        assert c.exponent == 1
        # both vertical cycles impose the same relation
        assert c.derived_relation == commutator
    assert arc.exponent == 3
    assert arc.derived_relation == (R(), S(d.one)) * 3


def _on_face(face, edge):
    # the reference incidence test: segment distance 0 on a wall, |zeta|^2 + t^2 = 1 on the hemisphere
    if isinstance(face, VerticalWall):
        n = edge.zeta.order.abs_delta
        return dist_sq_int(n, frame_of((face.start, face.end)), edge.zeta.planar_int())[0] == 0
    return (edge.zeta - face.center).abs_sq() + edge.height_sq == 1


def test_edge_cycles_consistency():
    from pe2ford.ford import _domain_edges

    for delta in DISCS:
        d = make_order(delta)
        faces = pe2_ford_faces(d)
        # each edge lies on exactly its two faces, listed in the order of faces
        for e, pair in _domain_edges(d, faces).items():
            assert tuple(f for f in faces if _on_face(f, e)) == pair
        cycles = edge_cycles(faces)
        lengths = sorted(len(c.edges) for c in cycles)
        assert lengths == ([2, 4] if d.even else [2, 3, 3])
        seen = [e for c in cycles for e in c.edges]
        assert len(seen) == len(set(seen)) == len(_domain_edges(d, faces))
        for c in cycles:
            assert word_to_matrix(c.word, d) == c.cycle_transform
            assert order_in_psl(c.cycle_transform) == c.exponent
            assert word_to_matrix(c.relation, d).is_identity()
            assert word_to_matrix(c.derived_relation, d).is_identity()


def test_edge_cycles_reject_bad_pairing():
    d = make_order(-40)
    faces = list(pe2_ford_faces(d))
    w = faces[1]
    faces[1] = VerticalWall(w.start, w.end, w.toward, gen_s(d.tau), (S(d.tau),))
    with pytest.raises(CycleNotClosed):
        edge_cycles(tuple(faces))


def test_presentation():
    for delta in (-40, -15):
        d = make_order(delta)
        pres = presentation(d)
        assert [name for name, _ in pres.generators] == ["r", "s(1)", "s(t)"]
        gens = dict(pres.generators)
        assert gens["r"] == (R(),)
        assert gens["s(1)"] == (S(d.one),)
        assert gens["s(t)"] == (S(d.tau),)
        assert pres.relations == (
            (S(d.one), S(d.tau), S(-d.one), S(-d.tau)),
            (R(), R()),
            (R(), S(d.one)) * 3,
        )
        for rel in pres.relations:
            assert word_to_matrix(rel, d).is_identity()
        assert len(pres.notes) == 1 and "order 3" in pres.notes[0]
    for delta in (-11, -12):
        with pytest.raises(OutOfScope):
            presentation(make_order(delta))


@pytest.mark.parametrize("delta", [-15, -16, -19, -20, -23, -24, -40, -163, -1003, -100000000000003])
def test_presentation_derives_the_relation_table(delta):
    # the cycles derive the table's commutator and cubed rotation-shift, and the
    # presentation returns the table itself, at odd and even delta and far out
    d = make_order(delta)
    pres, table = presentation(d), pe2_relations(d)
    assert pres.relations == table
    hemi = [c for c in pres.cycles if None in c.word]
    wall = [c for c in pres.cycles if None not in c.word]
    assert [c.derived_relation for c in hemi] == [table[2]]
    assert {c.derived_relation for c in wall} == {table[0]}


def test_presentation_refuses_cycles_that_miss_the_relation_table(monkeypatch):
    # a wall cycle whose shifts do not close up derives no commutator
    real = edge_cycles
    for delta in (-15, -40):
        d = make_order(delta)

        def open_wall(faces, d=d):
            first, *rest = real(faces)
            return (dataclasses.replace(first, cycle_transform=gen_s(d.one)), *rest)

        monkeypatch.setattr(ford, "edge_cycles", open_wall)
        with pytest.raises(CycleNotClosed):
            presentation(d)
    monkeypatch.undo()
    # a hemisphere cycle of order 6 would derive (r s(1))^6, the identity too, but
    # not the table's (r s(1))^3, so the presentation refuses it
    monkeypatch.setattr(ford, "order_in_psl", lambda g: 6)
    for delta in (-15, -40):
        with pytest.raises(CycleNotClosed):
            presentation(make_order(delta))


def test_no_enumerated_hemisphere_invades_the_domain():
    # desk-scale sweep: boundary points inside the cell and outside the
    # closed unit disc stay outside every isometric hemisphere of the
    # short standard forms; the acceptance suite runs the full sweep
    d = make_order(-40)
    cell = voronoi_cell(d)
    points = []
    for u, v in [
        (Fraction(2, 5), Fraction(1, 6)),
        (Fraction(0), Fraction(1, 6)),
        (Fraction(-1, 3), Fraction(-1, 5)),
        (Fraction(1, 4), Fraction(5, 24)),
        (Fraction(-9, 20), Fraction(1, 5)),
    ]:
        assert _in_closed(d, cell, u, v)
        z = kelem_from_planar(d, u, v)
        assert z.abs_sq() > 1
        points.append(z)
    r = gen_r(d)
    ends = lattice_points_norm_at_most(d, 16, include_zero=True)
    interior = [p for p in ends if not p.is_small()]
    mats = []
    for a1 in ends:
        left = gen_s(a1) * r
        for a0 in ends:
            mats.append(left * gen_s(a0))
    for a2 in ends:
        top = gen_s(a2) * r
        for a1 in interior:
            mid = top * gen_s(a1) * r
            for a0 in ends:
                mats.append(mid * gen_s(a0))
    assert len(mats) > 6000
    for g in mats:
        for z in points:
            assert outside_test(g, z) == Side.OUTSIDE


KEY_DISCS = [-15, -20, -23, -40, -163]

# matrices M, entries as (a, b) for a + b*t, whose point M j lies on a unit
# hemisphere face of the one-hemisphere domain, where the face pairing gives
# it a second class mod O
FACE_MATRICES = {
    -15: [((-1, 2), (-4, 1), (3, 1), (-1, 2)), ((3, 1), (-1, 2), (1, -2), (4, -1))],
    -20: [((-4, 1), (0, -2), (0, 2), (-4, -1)), ((5, 1), (3, 2), (3, -2), (5, -1))],
}


def _face_matrices(d):
    return [Mat(*(d.elt(a, b) for a, b in m)) for m in FACE_MATRICES.get(d.delta, ())]


def _point_class(res):
    # (S, p mod S, q mod S) for the point (p + q*t)/S of node^-1 j, from the node's entries
    h, s = res.node, res.s
    x = -(h.m12 * h.m11.conj() + h.m22 * h.m21.conj())
    return (s, x.a % s, x.b % s)


@pytest.mark.parametrize("delta", sorted(FACE_MATRICES))
def test_coset_key_face_pairings(delta):
    # M j is already in the domain, on the unit hemisphere at every lattice
    # point c with |z - c|^2 = 1 - 1/S^2; each pairing step node * s(c) * r
    # keeps S and moves z to the second class, and the key is the lesser one
    d = make_order(delta)
    for m in _face_matrices(d):
        res = membership(m.inv())
        assert isinstance(res, NonMember) and res.path_word == ()
        s, z = res.s, res.point
        on = [c for c in lattice_points_within(z, 1) if (z - c).abs_sq() == 1 - Fraction(1, s * s)]
        assert on
        for c in on:
            step = membership(res.node * gen_s(c) * gen_r(d))
            assert isinstance(step, NonMember) and step.path_word == ()
            classes = {_point_class(res), _point_class(step)}
            assert len(classes) == 2
            assert coset_key(step) == coset_key(res) == min(classes)


def test_coset_key_is_an_orbit_invariant():
    # key(w * M) = key(M) for w in the subgroup: w * M reduces to another
    # point of the orbit of M j in the domain, on the same face class
    rng = random.Random(21)
    for delta in KEY_DISCS:
        d = make_order(delta)
        cases = [gp.pair.completion for gp in gap_points(d, 8)] + _face_matrices(d)
        for m in cases:
            key = coset_key(membership(m.inv()))
            for _ in range(12):
                word = random_pe2_word(d, rng.randrange(10**6), length=rng.randrange(1, 10), coeff_bound=3)
                res = membership((word_to_matrix(word, d) * m).inv())
                assert coset_key(res) == key, (delta, m, word)
