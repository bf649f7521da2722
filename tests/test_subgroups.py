from __future__ import annotations

import contextlib
import functools
import io
import random
import sys
from fractions import Fraction

import pytest

from pe2ford import ford, subgroups
from pe2ford.arrangement import (
    Contributes,
    UnimodularPair,
    completion_entries,
    envelope_dips_below,
    enumerate_hemispheres,
    is_unimodular,
)
from pe2ford.cli import main
from pe2ford.errors import OutOfScope, SearchExhausted
from pe2ford.ford import amalgam_rectangle, coset_key
from pe2ford.moebius import Mat, Side, gen_r, gen_s, outside_test
from pe2ford.orders import KElem, OInt, lattice_points_within, make_order
from pe2ford.subgroups import (
    amalgam_report,
    collapse_hom_check,
    coset_family,
    gap_check,
    gap_points,
    n_generators,
    normalizer_witness,
)
from pe2ford.words import (
    Member,
    NonMember,
    R,
    S,
    membership,
    random_pe2_word,
    word_to_matrix,
)

DISCS = [-15, -16, -19, -20, -23, -24, -40]

ORDER40 = make_order(-40)


def _hemisphere(g):
    # isometric hemisphere of g: center -m22/m21, squared radius 1/norm(m21)
    return (KElem.of(-g.m22, g.m21), Fraction(1, g.m21.norm()))


def test_first_gap_point(printed_checked):
    d = ORDER40
    gp = gap_points(d, 1)[0]
    (checked,) = printed_checked(-40, 1)
    assert (gp.pair.lam, gp.pair.mu) == (d.elt(1, 1), d.elt(2))
    assert gp.ratio() == KElem.of(d.elt(1, 1), 2)
    assert gp.ratio().planar() == (Fraction(1, 2), Fraction(1, 4))
    assert gp.min_dist_sq == Fraction(11, 4)
    # the four nearest lattice points are the corners of the deep hole
    assert checked == (d.elt(0), d.elt(1), d.elt(0, 1), d.elt(1, 1))
    assert all((gp.ratio() - g).abs_sq() == Fraction(11, 4) for g in checked)


def test_gap_points_order_and_distinctness():
    d = ORDER40
    gps = gap_points(d, 6)
    second = gps[1]
    assert (second.pair.lam, second.pair.mu) == (d.elt(0, 1), d.elt(3))
    assert second.ratio().planar() == (Fraction(0), Fraction(1, 6))
    assert second.min_dist_sq == Fraction(10, 9)
    norms = [gp.pair.mu.norm() for gp in gps]
    assert norms == sorted(norms)
    ratios = [gp.ratio() for gp in gps]
    assert len(set(ratios)) == len(ratios)
    for gp in gps:
        u, v = gp.ratio().planar()
        assert 0 <= u < 1 and 0 <= v < Fraction(1, 2)
        m = gp.pair.completion
        assert (m.m11, m.m21) in {(gp.pair.lam, gp.pair.mu), (-gp.pair.lam, -gp.pair.mu)}


def test_gap_points_recheck_in_larger_box(printed_checked):
    # the scanned neighborhood is not an accident of its cutoff
    for delta, count in ((-40, 8), (-19, 4)):
        d = make_order(delta)
        for gp, checked in zip(gap_points(d, count), printed_checked(delta, count), strict=True):
            wide = lattice_points_within(gp.ratio(), d.covering_radius_sq() + 9)
            assert set(checked) <= set(wide)
            m = min((gp.ratio() - g).abs_sq() for g in wide)
            assert m == gp.min_dist_sq
            assert m > 1


def test_gap_ratio_outside_unit_hemispheres(printed_checked):
    # r*s(-g) owns the unit hemisphere at g, so the exact side test must
    # place every gap ratio strictly outside
    d = ORDER40
    for gp, checked in zip(gap_points(d, 5), printed_checked(-40, 5), strict=True):
        for g in checked:
            m = gen_r(d) * gen_s(-g)
            assert _hemisphere(m) == (KElem.from_oint(g), 1)
            assert outside_test(m, gp.ratio()) is Side.OUTSIDE


def test_gap_check_rejects_covered_points():
    d = ORDER40
    assert gap_check(KElem.from_oint(d.elt(3, -2))) is None
    assert gap_check(KElem.of(d.elt(1), 2)) is None


def test_gap_point_with_unit_height():
    # at delta = -16 the first gap ratio sits at euclidean height 1 over
    # the deep hole, squared distance exactly 5/4 from the corners
    d = make_order(-16)
    gp = gap_points(d, 1)[0]
    assert (gp.pair.lam, gp.pair.mu) == (d.elt(1, 1), d.elt(2))
    assert gp.ratio().planar() == (Fraction(1, 2), Fraction(1, 4))
    assert gp.min_dist_sq == Fraction(5, 4)


def test_gap_points_scope_and_count():
    for delta in (-11, -12):
        with pytest.raises(OutOfScope):
            gap_points(make_order(delta), 1)
    with pytest.raises(ValueError):
        gap_points(ORDER40, 0)


def test_gap_points_take_a_count_past_sys_maxsize(monkeypatch):
    # a count past sys.maxsize stops the stream where it ends, with no error of its own
    three = gap_points(ORDER40, 3)
    monkeypatch.setattr(subgroups, "_gap_stream", lambda order: iter(three))
    assert gap_points(ORDER40, sys.maxsize + 1) == three


@pytest.mark.parametrize("delta", [-15, -16, -20, -23, -40, -163])
def test_gap_ratios_pairwise_distinct(delta):
    # the stream keeps no set of seen ratios: unimodular pairs of one ratio differ
    # by a unit, and the canonical sign of mu leaves only 1; -15 and -20 have class
    # number 2, and -16 is a non-maximal order
    points = gap_points(make_order(delta), 200)
    assert len({gp.ratio() for gp in points}) == 200


def test_coset_family_pairwise_distinct():
    d = ORDER40
    fam = coset_family(d, 20)
    assert len(fam.members) == 20
    assert fam.replaced == ()
    for k, gp in enumerate(fam.points):
        assert fam.members[k] == gp.pair.completion
    matrix = fam.distinctness_matrix  # recomputed on every read
    for i in range(20):
        for j in range(i):
            res = matrix[(i, j)]
            assert isinstance(res, NonMember)
    assert len(matrix) == 190
    assert len(set(fam.keys)) == 20
    # a member against itself is the identity, hence Member; only proper
    # pairs enter the matrix
    assert isinstance(membership(fam.members[0] * fam.members[0].inv()), Member)
    # coset distinctness is symmetric; spot-check the products the family
    # did not certify, M_i * M_j^-1
    rng = random.Random(7)
    for _ in range(6):
        i = rng.randrange(1, 20)
        j = rng.randrange(i)
        rev = membership(fam.members[i] * fam.members[j].inv())
        assert isinstance(rev, NonMember)


def _ints(g):
    # the eight entry ints (m11.a, m11.b, m12.a, ..., m22.b) of a Mat
    return tuple(x for e in g.entries() for x in (e.a, e.b))


def _spy_kernel(monkeypatch, stops=None):
    # record, as Mats, the matrices subgroups hands the reduction kernel; a
    # matrix in stops (keyed by Mat, so up to sign) gets the stop given there
    checked, real = [], subgroups.reduce_entries

    def spy(order, *ints):
        g = Mat._trusted_ints(order, ints)
        checked.append(g)
        return stops[g] if stops and g in stops else real(order, *ints)

    monkeypatch.setattr(subgroups, "reduce_entries", spy)
    return checked


def test_coset_family_replaces_member_candidates(monkeypatch):
    d = ORDER40
    first, second, third, fourth, fifth = gap_points(d, 5)
    member = subgroups.reduce_entries(d, *_ints(gen_r(d)))
    assert member[0] == 1 and isinstance(membership(gen_r(d)), Member)
    # the second candidate's inverse comes back Member, and the third reduces
    # as the first does, so its key repeats: both are dropped and reported,
    # and the next two take their places
    first_stop = subgroups.reduce_entries(d, *_ints(first.pair.completion.inv()))
    forced = {second.pair.completion.inv(): member, third.pair.completion.inv(): first_stop}
    checked = _spy_kernel(monkeypatch, forced)
    fam = coset_family(d, 3)
    assert fam.replaced == (second.ratio(), third.ratio())
    assert fam.points == (first, fourth, fifth)
    assert fam.members == tuple(gp.pair.completion for gp in fam.points)
    assert len(set(fam.keys)) == 3
    # one reduction per candidate, of the candidate's inverse
    assert checked == [gp.pair.completion.inv() for gp in (first, second, third, fourth, fifth)]
    # every product Member: no second member ever joins, and the budget runs out
    monkeypatch.setattr(subgroups, "reduce_entries", lambda order, *ints: member)
    with pytest.raises(SearchExhausted):
        coset_family(d, 2)


def _pairwise_family(d, count):
    # the reference: keep a candidate when its product with every kept member
    # is NonMember, one membership per pair
    members, replaced = [], []
    for gp in gap_points(d, 10 * count):
        cand_inv = gp.pair.completion.inv()
        if all(isinstance(membership(m * cand_inv), NonMember) for m in members):
            members.append(gp.pair.completion)
            if len(members) == count:
                return tuple(members), tuple(replaced)
        else:
            replaced.append(gp.ratio())
    raise AssertionError("reference family ran out of candidates")


@pytest.mark.parametrize("delta", [-15, -20, -23, -31, -40, -163])
def test_coset_family_equals_the_pairwise_family(delta):
    d = make_order(delta)
    fam = coset_family(d, 30)
    assert (fam.members, fam.replaced) == _pairwise_family(d, 30)
    # the kernel's stop read through stop_key is coset_key of the NonMember
    # that membership returns for the member's inverse
    assert fam.keys == tuple(coset_key(membership(m.inv())) for m in fam.members)


def test_coset_family_scope_and_count():
    with pytest.raises(OutOfScope):
        coset_family(make_order(-12), 2)
    with pytest.raises(ValueError):
        coset_family(ORDER40, 0)


def test_normalizer_witness_known_matrix():
    d = ORDER40
    lam, mu = d.elt(1, 1), d.elt(2)
    g = Mat(lam, d.elt(5), mu, d.elt(1, -1))
    alpha = normalizer_witness(g)
    assert alpha == -d.one
    conj = g * gen_s(alpha) * g.inv()
    assert conj == Mat(d.one - alpha * lam * mu, alpha * lam * lam, -alpha * mu * mu, d.one + alpha * lam * mu)
    assert isinstance(membership(conj), NonMember)
    # the conjugate's ratio is the original shifted by -1/(alpha*mu^2)
    shifted = KElem.of(lam, mu) - KElem.of(d.one, alpha * mu * mu)
    assert KElem.of(conj.m11, conj.m21) == shifted
    assert shifted.planar() == (Fraction(3, 4), Fraction(1, 4))
    assert gap_check(shifted) is not None


def test_conjugated_shift_entries():
    d = ORDER40
    rng = random.Random(23)
    for gp in gap_points(d, 5):
        g = gp.pair.completion
        lam, mu = gp.pair.lam, gp.pair.mu
        alpha = d.elt(rng.randrange(-9, 10) or 1, rng.randrange(-3, 4))
        lhs = g * gen_s(alpha) * g.inv()
        rhs = Mat(d.one - alpha * lam * mu, alpha * lam * lam, -alpha * mu * mu, d.one + alpha * lam * mu)
        assert lhs == rhs


def test_normalizer_witness_rejects_bad_inputs():
    d = ORDER40
    with pytest.raises(ValueError):
        normalizer_witness(gen_s(d.tau))
    with pytest.raises(ValueError):
        normalizer_witness(word_to_matrix(random_pe2_word(d, 99, length=8), d))
    with pytest.raises(OutOfScope):
        normalizer_witness(gen_r(make_order(-12)))
    # a non-member whose own ratio is inside the unit disc at 0 is a valid input
    g = gen_r(d) * gap_points(d, 1)[0].pair.completion
    assert isinstance(membership(g), NonMember)
    assert gap_check(KElem.of(g.m11, g.m21)) is None
    alpha = normalizer_witness(g)
    assert alpha in (d.one, -d.one)
    assert isinstance(membership(g * gen_s(alpha) * g.inv()), NonMember)


def test_normalizer_witness_certifies_through_the_inverse():
    # at -23 every completion g is refuted, as is the inverse that
    # normalizer_witness checks, and each has a witness
    d = make_order(-23)
    points = gap_points(d, 20)
    assert all(isinstance(membership(gp.pair.completion), NonMember) for gp in points)
    for gp in points:
        g = gp.pair.completion
        alpha = normalizer_witness(g)
        assert isinstance(membership(g * gen_s(alpha) * g.inv()), NonMember)


def _non_members_around_completions(delta, count, seed):
    # g = w1*C*w2 with C the completion of a random unimodular pair and w1, w2
    # random words of 20 letters; the members among them are skipped
    d = make_order(delta)
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        lam = d.elt(rng.randint(-9, 9), rng.randint(-9, 9))
        mu = d.elt(rng.randint(-9, 9), rng.randint(-9, 9))
        if mu.is_zero() or (completion := is_unimodular(lam, mu)) is None:
            continue
        w1, w2 = (word_to_matrix(random_pe2_word(d, rng.randrange(10**9), length=20), d) for _ in range(2))
        g = w1 * completion * w2
        if isinstance(membership(g), NonMember):
            found.append(g)
    return found


def test_normalizer_witness_needs_no_gap_ratio():
    # the witness needs only a non-member: most of these have no gap-point ratio
    no_gap_ratio = 0
    for delta in (-15, -20, -23, -40, -67, -163, -1003):
        d = make_order(delta)
        for g in _non_members_around_completions(delta, 20, seed=-delta):
            alpha = normalizer_witness(g)
            assert alpha in (d.one, -d.one)
            assert isinstance(membership(g * gen_s(alpha) * g.inv()), NonMember)
            no_gap_ratio += gap_check(KElem.of(g.m11, g.m21)) is None
    assert no_gap_ratio > 0


def test_normalizer_witness_sweep_over_orders():
    # 20 coset members at each of the 194 in-scope discriminants -15 ... -400
    deltas = [delta for delta in range(-15, -401, -1) if delta % 4 in (0, 1)]
    assert len(deltas) == 194
    for delta in deltas:
        d = make_order(delta)
        one = d.one
        for g in coset_family(d, 20).members:
            alpha = normalizer_witness(g)
            assert isinstance(membership(g * gen_s(alpha) * g.inv()), NonMember), (delta, g)
            if delta in (-15, -20, -23):
                # here one sign's conjugate ratio leaves the gap for some
                # member, and the witness takes the other
                lam_mu, mu_sq = g.m11 * g.m21, g.m21 * g.m21
                assert gap_check(KElem.of(alpha * lam_mu - one, alpha * mu_sq)) is not None, (delta, g)


@pytest.mark.parametrize("delta", [-15, -20, -23, -31, -40, -163, -1003])
def test_normalizer_conjugate_is_the_closed_form(monkeypatch, delta):
    # the matrix normalizer_witness re-checks is g*s(alpha)*g^-1, for the
    # completions of the first 60 gap points
    d = make_order(delta)
    checked = _spy_kernel(monkeypatch)
    for gp in gap_points(d, 60):
        g = gp.completion
        checked.clear()
        alpha = normalizer_witness(g)
        assert alpha in (d.one, -d.one)
        assert checked == [g.inv(), g * gen_s(alpha) * g.inv()]


def test_normalizer_witness_multiplies_no_matrices(monkeypatch):
    # the conjugate is built from its closed form: no Mat product and no gen_s
    completions = [gp.completion for gp in gap_points(ORDER40, 20)]
    calls = []
    mul = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda self, other: calls.append("mul") or mul(self, other))
    monkeypatch.setattr(subgroups, "gen_s", lambda a: calls.append("gen_s") or gen_s(a))
    for g in completions:
        assert normalizer_witness(g) in (ORDER40.one, -ORDER40.one)
    assert calls == []


def test_cosets_checks_call_no_inverse_and_no_membership(monkeypatch):
    # normalizer_witness and coset_family reduce the entries' ints with the
    # kernel: no Mat.inv, and membership, which builds the verdict objects,
    # is not called under either name
    from pe2ford import words

    calls = []
    inv, real = Mat.inv, words.membership
    monkeypatch.setattr(Mat, "inv", lambda self: calls.append("Mat.inv") or inv(self))
    spy = lambda g, *a: calls.append("membership") or real(g, *a)
    monkeypatch.setattr(words, "membership", spy)
    monkeypatch.setattr(subgroups, "membership", spy)
    for delta in (-15, -20, -40, -163):
        d = make_order(delta)
        fam = coset_family(d, 20)
        for g in fam.members:
            assert normalizer_witness(g).a in (-1, 1)
    assert calls == []
    # the spies are live
    assert isinstance(subgroups.membership(gen_r(ORDER40).inv()), Member)
    assert calls == ["Mat.inv", "membership"]


def _oint_closed_form(g):
    # alpha and the conjugate as the OInt code picks and builds them: the gap
    # test on KElem.of(alpha*lam*mu - 1, alpha*mu^2), then the checked Mat
    one, lam, mu = g.order.one, g.m11, g.m21
    lam_mu, mu_sq = lam * mu, mu * mu
    alpha = next((a for a in (-one, one) if gap_check(KElem.of(a * lam_mu - one, a * mu_sq)) is not None), one)
    return alpha, Mat(one - alpha * lam_mu, alpha * (lam * lam), -(alpha * mu_sq), one + alpha * lam_mu)


@pytest.mark.parametrize("delta", [-15, -19, -20, -31, -40, -163, -1003])
def test_normalizer_in_integers_is_the_oint_closed_form(monkeypatch, delta):
    # for the completions of the first 60 gap points, the int gap test picks
    # the alpha of the OInt gap test, and the conjugate re-checked after g^-1
    # is the checked closed-form Mat, which is g*s(alpha)*g^-1
    d = make_order(delta)
    checked = _spy_kernel(monkeypatch)
    picked = set()
    for gp in gap_points(d, 60):
        g = gp.completion
        alpha, conj = _oint_closed_form(g)
        checked.clear()
        assert normalizer_witness(g) == alpha
        assert checked == [g.inv(), conj]
        assert conj == g * gen_s(alpha) * g.inv()
        picked.add(alpha.a)
    # both signs occur where some member's -1 conjugate ratio leaves the gap
    assert picked == ({-1, 1} if delta in (-15, -19, -20) else {-1})


def test_normalizer_witness_forms_no_oint_product(monkeypatch):
    # the gap test, the conjugate and its determinant run on ints: no OInt
    # product and no checked Mat, whose __init__ multiplies out the determinant
    completions = [gp.completion for d in (-15, -20, -40, -163) for gp in gap_points(make_order(d), 20)]
    calls = []
    product, init = OInt.__mul__, Mat.__init__
    spy = lambda self, other: calls.append("OInt.__mul__") or product(self, other)
    monkeypatch.setattr(OInt, "__mul__", spy)
    monkeypatch.setattr(OInt, "__rmul__", spy)
    monkeypatch.setattr(Mat, "__init__", lambda self, *a: calls.append("Mat.__init__") or init(self, *a))
    for g in completions:
        assert normalizer_witness(g).a in (-1, 1)
    assert calls == []
    assert ORDER40.one * ORDER40.tau == ORDER40.tau and calls == ["OInt.__mul__"]  # the spy is live


def _owner_rows(delta, bound):
    d = make_order(delta)
    return d, enumerate_hemispheres(d, bound, amalgam_rectangle(d)).owners


@pytest.mark.parametrize("source", ["gap points", "owner rows"])
def test_completion_entries_are_is_unimodulars_entries(source):
    # the one completion routine: on pairs the scan accepted, its eight ints
    # make is_unimodular's Mat, whose sign rule is Mat's alone
    if source == "gap points":
        orders = [make_order(d) for d in (-15, -20, -40, -163, -1003)]
        rows = [(d, (gp.a, gp.b, gp.c, gp.d)) for d in orders for gp in gap_points(d, 200)]
        assert len(rows) == 1000
    else:
        rows = [(d, owner) for d, owners in (_owner_rows(-40, 16), _owner_rows(-163, 16)) for owner in owners]
        assert len(rows) > 100
    flipped = 0
    for d, (la, lb, ma, mb) in rows:
        entries = completion_entries(d, la, lb, ma, mb)
        m = is_unimodular(d.elt(la, lb), d.elt(ma, mb))
        assert entries[:2] == (la, lb) and entries[4:6] == (ma, mb)
        assert Mat._trusted_ints(d, entries) == m
        assert Mat._trusted_ints(d, Mat._inv_ints(entries)) == m.inv()
        flipped += m.coords()[0] != [la, lb]
    assert flipped > 0  # some Mats read (lam, mu) as (-lam, -mu)


def test_completion_entries_refuse_a_pair_outside_the_unit_ideal():
    # the caller owns the unit test; a pair that fails it fails the determinant check
    d = ORDER40
    with pytest.raises(ArithmeticError):
        completion_entries(d, 2, 0, 4, 0)
    with pytest.raises(ArithmeticError):
        completion_entries(d, 2, 0, 0, 1)  # (2, tau) at -40: N(tau) = 10


@pytest.mark.parametrize("delta, count", [(-15, 200), (-20, 200), (-40, 200), (-163, 200), (-1003, 200), (-100000000003, 3)])
def test_gap_point_views_read_its_integers(delta, count):
    # pair, z, min_dist_sq and the completion are views of the point's
    # integers, and equal the objects built from lam and mu
    d = make_order(delta)
    for gp in gap_points(d, count):
        lam, mu = d.elt(gp.a, gp.b), d.elt(gp.c, gp.d)
        assert gp.pair == UnimodularPair(lam, mu)
        assert gp.ratio() is gp.z
        assert gp.z == KElem.of(lam, mu)
        assert gp.min_dist_sq == gap_check(gp.z)
        assert gp.completion == gp.pair.completion == is_unimodular(lam, mu)


def test_gap_points_from_two_streams_compare_equal():
    # a point is its integers: two streams give equal points, whatever views were read
    first = gap_points(ORDER40, 50)
    assert all(gp.z is not None and gp.pair is not None for gp in first[::2])
    second = gap_points(make_order(-40), 50)
    assert first == second
    assert [hash(gp) for gp in first] == [hash(gp) for gp in second]
    assert first[0] != first[1]


def test_n_generator_words():
    d = ORDER40
    words = n_generators(d)
    assert words[0] == (R(),)
    assert words[1] == (S(d.one),)
    assert words[2] == (S(d.tau), R(), S(-d.tau))
    for w in words:
        assert isinstance(membership(word_to_matrix(w, d)), Member)
    conj = word_to_matrix(words[2], d)
    assert _hemisphere(conj) == (KElem.from_oint(d.tau), 1)
    with pytest.raises(OutOfScope):
        n_generators(make_order(-11))


def test_collapsed_word_dies_iff_its_tau_sum_is_zero():
    # the claim in collapse_hom_check's docstring, against the matrix of the
    # collapsed word: r goes, and each shift s(a + b*tau) becomes s(b*tau)
    d = ORDER40
    rng = random.Random(40)
    words = [random_pe2_word(d, rng.randrange(10**9), length=rng.randint(1, 12), coeff_bound=2) for _ in range(200)]
    words += n_generators(d) + list(subgroups.pe2_relations(d)) + [(S(d.tau),)]
    seen = set()
    for w in words:
        collapsed = tuple(S(d.elt(0, a.b)) for a in w if a is not None)
        dies = sum(a.b for a in w if a is not None) == 0
        assert word_to_matrix(collapsed, d).is_identity() == dies, w
        seen.add(dies)
    assert seen == {True, False}


def test_collapse_hom_check_refuses_a_relation_with_a_tau_sum(monkeypatch):
    d = ORDER40
    rels = subgroups.pe2_relations(d)
    assert collapse_hom_check(d)

    def check_with(rel):
        monkeypatch.setattr(subgroups, "pe2_relations", lambda order: rels + (rel,))
        return collapse_hom_check(d)

    # s(1)-coordinates collapse away, so a relation with tau-sum 0 still passes
    assert check_with((S(d.elt(3, 2)), R(), S(d.elt(1, -2))))
    # tau-sum 2 - 1 = 1: the relation's image is s(tau), not the identity
    assert not check_with((S(d.elt(1, 2)), R(), S(d.elt(0, -1))))


@pytest.mark.parametrize("delta", [-15, -40, -163])
def test_amalgam_builds_no_ford_domain(monkeypatch, delta):
    # the collapse check reads the relation table, so neither the report nor the CLI
    # builds the Ford domain's faces or follows its edge cycles
    def refuse(*args):
        raise AssertionError("the amalgam built the Ford domain")

    monkeypatch.setattr(ford, "pe2_ford_faces", refuse)
    monkeypatch.setattr(ford, "edge_cycles", refuse)
    assert amalgam_report(make_order(delta), 16).hom_check
    for fmt in ("json", "svg"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["amalgam", "--disc", str(delta), "--bound", "16", "--format", fmt])
        assert code == 0, err.getvalue()
        assert out.getvalue()


def test_collapse_hom_check_all_discs():
    for delta in DISCS:
        assert collapse_hom_check(make_order(delta))


@functools.cache
def _report40():
    return amalgam_report(ORDER40, 16)


def test_amalgam_report_overlap_is_n():
    rep = _report40()
    assert rep.plane == Fraction(2, 3)
    assert rep.arrangement.norm_bound == 16
    assert rep.overlap_matches_n
    assert rep.hom_check
    assert rep.n_generators == tuple(n_generators(ORDER40))
    kinds = sorted(r.kind for r in rep.overlap)
    assert kinds == ["hemisphere", "hemisphere", "wall"]
    by_label = {r.label: r for r in rep.overlap}
    wall = next(r for r in rep.overlap if r.kind == "wall")
    assert wall.pairing == gen_s(ORDER40.one)
    centers = {r.center for r in rep.overlap if r.kind == "hemisphere"}
    assert centers == {KElem.from_oint(ORDER40.zero), KElem.from_oint(ORDER40.tau)}
    words = {r.pairing_word for r in rep.overlap if r.kind == "hemisphere"}
    assert words == {(R(),), (S(ORDER40.tau), R(), S(-ORDER40.tau))}
    assert by_label


def test_amalgam_report_sides():
    rep = _report40()
    v_wall = next(r for r in rep.faces if r.kind == "wall" and r.pairing == gen_s(ORDER40.tau))
    assert v_wall.above and not v_wall.below
    assert any("v-walls" in s for s in rep.notes)
    hole = next(r for r in rep.faces if r.center == KElem.of(ORDER40.elt(-1, 1), 2))
    assert hole.below and not hole.above
    assert hole.pairing_word is None
    assert _hemisphere(hole.pairing) == (hole.center, Fraction(1, 4))
    for rec in rep.faces:
        if rec.pairing_word is not None:
            assert word_to_matrix(rec.pairing_word, ORDER40) == rec.pairing
        if rec.kind == "hemisphere" and rec.above:
            assert rec.center.den == 1  # only radius-one faces clear the plane
    assert set(rep.overlap) == {r for r in rep.faces if r.above and r.below}
    assert set(rep.above_generators) == {r for r in rep.faces if r.above}
    assert set(rep.below_generators) == {r for r in rep.faces if r.below}


@pytest.mark.parametrize("delta", [-15, -19, -40, -43, -163])
def test_hemisphere_record_pairings_from_the_owner_rows(delta):
    # _hemi_record builds each pairing from integers: the closed form of s(gamma) r s(-gamma)
    # on a unit-radius face, else the inverse of the owner row's completion_entries; each is
    # the Mat that word_to_matrix or is_unimodular(lam, mu).inv() builds
    order = make_order(delta)
    rep = amalgam_report(order, 16)
    hs = rep.arrangement
    owners = {h.center: owner for h, owner in zip(hs.hemispheres, hs.owners)}
    kinds = set()
    for rec in rep.faces:
        if rec.kind != "hemisphere":
            continue
        if rec.center.den == 1:
            gamma = rec.center.num
            assert rec.pairing_word == ((R(),) if gamma.is_zero() else (S(gamma), R(), S(-gamma)))
            assert rec.pairing == word_to_matrix((S(gamma), R(), S(-gamma)), order)
        else:
            la, lb, ma, mb = owners[rec.center]
            assert rec.pairing_word is None
            assert rec.pairing == is_unimodular(OInt(order, la, lb), OInt(order, ma, mb)).inv()
        kinds.add((rec.center.den == 1, rec.center.num.is_zero()))
    assert kinds >= {(True, True), (True, False), (False, False)}


def test_amalgam_report_odd_discriminant():
    d = make_order(-15)
    rep = amalgam_report(d, 12)
    assert rep.overlap_matches_n
    assert rep.hom_check
    # tau itself sits on the window corner; the kept representative of
    # its translation class is tau - 1
    centers = {r.center for r in rep.overlap if r.kind == "hemisphere"}
    assert centers == {KElem.from_oint(d.zero), KElem.from_oint(d.elt(-1, 1))}
    v_wall = next(r for r in rep.faces if r.kind == "wall" and r.pairing == gen_s(d.tau))
    assert v_wall.above and not v_wall.below


def test_amalgam_report_plane_above_all_hemispheres():
    rep = amalgam_report(ORDER40, 4, plane=Fraction(1))
    assert rep.plane == Fraction(1)
    for rec in rep.faces:
        if rec.kind == "hemisphere":
            assert not rec.above
        else:
            assert rec.above  # walls are unbounded upward
    assert not rep.overlap_matches_n


WALL_PLANES = (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10))


def _four_side_dips(hs, plane):
    # the dip on both u-sides and both v-sides of the window
    (u_lo, v_lo), (u_hi, v_hi) = min(hs.window.vertices), max(hs.window.vertices)
    u_sides = [envelope_dips_below(hs, (u0, v_lo), (u0, v_hi), plane) for u0 in (u_lo, u_hi)]
    v_sides = [envelope_dips_below(hs, (u_lo, v0), (u_hi, v0), plane) for v0 in (v_lo, v_hi)]
    return (u_sides, v_sides)


def _wall_below(rep, tau_wall):
    order = rep.arrangement.order
    pairing = gen_s(order.tau if tau_wall else order.one)
    (wall,) = (r for r in rep.faces if r.kind == "wall" and r.pairing == pairing)
    assert wall.above  # walls are unbounded upward
    return wall.below


def test_one_answer_per_wall_pairing():
    # the top of the arrangement is invariant under the shifts 1 and tau, so both walls of
    # a pair dip alike (the proof is in amalgam_report); the report reads one wall per pair
    deltas = [delta for delta in range(-15, -201, -1) if delta % 4 in (0, 1)]
    assert len(deltas) == 94
    seen = set()
    for delta in deltas:
        order = make_order(delta)
        window = amalgam_rectangle(order)
        for bound in (1, 4, 8, 16):
            hs = enumerate_hemispheres(order, bound, window)
            for plane in WALL_PLANES:
                u_sides, v_sides = _four_side_dips(hs, plane)
                assert u_sides[0] == u_sides[1] and v_sides[0] == v_sides[1], (delta, bound, plane)
                seen.add((u_sides[0], v_sides[0]))
    assert {v for _, v in seen} == {u for u, _ in seen} == {True, False}
    for delta in (-15, -19, -20, -40, -43, -67, -163):
        for plane in WALL_PLANES:
            rep = amalgam_report(make_order(delta), 16, plane)
            u_sides, v_sides = _four_side_dips(rep.arrangement, plane)
            assert (_wall_below(rep, False), _wall_below(rep, True)) == (all(u_sides), all(v_sides))


def test_walls_read_every_contributor_and_nothing_else(monkeypatch):
    # amalgam_report hands each wall the contributing faces, with their owner rows, and no
    # covered one; test_one_answer_per_wall_pairing checks the answers against all discs
    walls = []

    def spy(hs, start, end, t0):
        walls.append((hs.hemispheres, hs.owners))
        return envelope_dips_below(hs, start, end, t0)

    monkeypatch.setattr(subgroups, "envelope_dips_below", spy)
    for delta, bound in ((-15, 12), (-40, 16), (-163, 16)):
        rep = amalgam_report(make_order(delta), bound)
        hs = rep.arrangement
        top = [(h, p) for h, p, s in zip(hs.hemispheres, hs.owners, rep.statuses) if isinstance(s, Contributes)]
        assert 0 < len(top) < len(hs.hemispheres)
        want = (tuple(h for h, _ in top), tuple(p for _, p in top))
        assert walls == [want, want]
        walls.clear()


@pytest.mark.parametrize(
    "plane, below", [(Fraction(13, 15), True), (Fraction(7, 8), True), (Fraction(6, 7), False), (Fraction(4, 5), False)]
)
def test_v_wall_pairing_dips_where_unit_hemispheres_meet(plane, below):
    # at -40/16 the side v = 0 bottoms out at height^2 3/4, at u = +-1/2 where the unit
    # hemispheres at 0 and +-1 meet: (13/15)^2 and (7/8)^2 are above 3/4, (6/7)^2 and (4/5)^2 below
    rep = amalgam_report(ORDER40, 16, plane)
    assert _wall_below(rep, True) is below
    assert _four_side_dips(rep.arrangement, plane)[1] == [below, below]
    assert any("v-walls" in s for s in rep.notes) is not below


def test_amalgam_report_needs_a_positive_plane():
    for plane in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            amalgam_report(ORDER40, 4, plane=plane)
