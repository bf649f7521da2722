from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pe2ford import words
from pe2ford.errors import DegenerateChain, OutOfScope, WordSyntaxError
from pe2ford.moebius import Mat, gen_r, gen_s
from pe2ford.orders import KElem, lattice_points_within, make_order, scaled_dist_sq
from pe2ford.subgroups import gap_points
from pe2ford.words import (
    Member,
    NonMember,
    R,
    S,
    StandardForm,
    chain_bottom,
    format_word,
    membership,
    normal_form,
    parse_word,
    product_identity_check,
    random_pe2_word,
    reduce_entries,
    word_inverse,
    word_to_matrix,
    zeta_chain,
)

DISCS = [-15, -16, -19, -20, -23, -24, -40]


def test_format_word_examples():
    d = make_order(-40)
    assert format_word(()) == "1"
    assert format_word((R(),)) == "r"
    assert format_word((S(d.elt(2, -1)), R(), S(d.elt(3)))) == "s(2-t)*r*s(3)"
    assert format_word((S(d.elt(0, 1)),)) == "s(t)"
    assert format_word((S(d.elt(0, -3)),)) == "s(-3*t)"


def test_parse_word_examples():
    d = make_order(-40)
    assert parse_word("1", d) == ()
    assert parse_word(" s( 2 - 1 * t ) * r ", d) == (S(d.elt(2, -1)), R())
    assert parse_word("s(t)*s(-3*t)", d) == (S(d.elt(0, 1)), S(d.elt(0, -3)))


def test_words_are_plain_data():
    # a letter is the coefficient a of s(a), or None for r
    d = make_order(-40)
    assert parse_word("r*s(2-t)*r", d) == (None, d.elt(2, -1), None)
    assert R() is None and S(d.tau) == d.tau
    mixed = (d.elt(2, -1), None, d.elt(0, 3), d.elt(1), None)
    assert word_inverse(mixed) == (None, d.elt(-1), d.elt(0, -3), None, d.elt(-2, 1))
    assert format_word(mixed) == "s(2-t)*r*s(3*t)*s(1)*r"
    assert format_word(word_inverse(mixed)) == "r*s(-1)*s(-3*t)*r*s(-2+t)"


def test_parsed_words_stay_small():
    # 16 letters, 8 of them shifts: the tuple and eight OInts, no object per letter
    d = make_order(-40)
    text = "*".join(["s(2-t)*r", "s(3*t)*r", "s(-4+2*t)*r", "s(5)*r"] * 2)
    assert len(parse_word(text, d)) == 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [parse_word(text, d) for _ in range(1000)]
        per_word = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert per_word <= 1024, f"{per_word:.0f} B per parsed word"


def test_parse_format_roundtrip():
    rng = random.Random(11)
    for delta in DISCS:
        d = make_order(delta)
        for _ in range(40):
            w = random_pe2_word(d, rng.randrange(10**6), length=10)
            assert parse_word(format_word(w), d) == w


def test_parse_errors_carry_positions():
    d = make_order(-40)
    cases = [
        ("q", "expected 'r' or 's', got 'q'", 0),
        ("r r", "expected '*', got 'r'", 2),
        ("r*", "dangling '*' at end of word", 2),
        ("s 2", "expected '(' after 's'", 2),
        ("s", "expected '(' after 's'", 1),
        ("s(2", "missing ')'", 1),
        ("s()", "empty coefficient", 2),
        ("s(2 3)", "expected '+' or '-' between parts", 4),
        ("s(2*3)", "expected 't' after '*'", 4),
        ("s(2*)", "expected 't' after '*'", 4),
        ("s(+2)", "leading '+' in coefficient", 2),
        ("1*r", "unexpected input after identity word", 1),
        ("s(²)", "expected digits or 't' in coefficient", 2),  # digits are ASCII 0-9 only
        ("s(1²)", "expected '+' or '-' between parts", 3),
        ("s(٣*t)", "expected digits or 't' in coefficient", 2),
        ("", "empty word text (use '1')", 0),
        ("   ", "empty word text (use '1')", 0),
    ]
    for text, message, pos in cases:
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(text, d)
        assert exc.value.position == pos
        assert str(exc.value) == f"{message} (at position {pos})"


def test_word_inverse():
    rng = random.Random(23)
    d = make_order(-19)
    for _ in range(30):
        w = random_pe2_word(d, rng.randrange(10**6), length=9)
        g = word_to_matrix(w, d) * word_to_matrix(word_inverse(w), d)
        assert g.is_identity()


def test_word_to_matrix_letter_order():
    d = make_order(-40)
    a = d.elt(2, 1)
    w = (S(a), R())
    assert word_to_matrix(w, d) == gen_s(a) * gen_r(d)


def test_standard_form_rejects_small_interior():
    d = make_order(-40)
    with pytest.raises(ValueError):
        StandardForm((d.zero, d.one, d.zero))
    with pytest.raises(ValueError):
        StandardForm(())
    # endpoints may be anything
    sf = StandardForm((d.one, d.elt(2), d.zero))
    assert sf.n == 2
    assert str(sf) == "s(0)*r*s(2)*r*s(1)"


def test_normal_form_needs_generic_units():
    for delta in (-3, -4):
        d = make_order(delta)
        with pytest.raises(OutOfScope):
            normal_form((R(),), d)


def test_normal_form_examples():
    d = make_order(-40)
    # identity word
    assert normal_form((), d).alphas == (d.zero,)
    assert normal_form((R(), R()), d).alphas == (d.zero,)
    # the unit-shift rewrite: s(2)*r*s(1)*r*s(3) = s(1)*r*s(2)
    w = (S(d.elt(2)), R(), S(d.elt(1)), R(), S(d.elt(3)))
    nf = normal_form(w, d)
    assert nf.alphas == (d.elt(2), d.elt(1))
    assert word_to_matrix(nf.to_word(), d) == word_to_matrix(w, d)
    # standard forms are not unique: read left to right, the first word gives the
    # form below, and a pass from the right gives s(0)*r*s(-2)*r*s(-1); in the
    # second, removing the 1 turns the 2 into a 1, which is tested again
    for text, want in (
        ("r*s(-1)*s(-1+t)*s(1-t)*r*s(1)*r*r*r*r*r", "s(1)*r*s(2)*r*s(0)"),
        ("s(4)*r*s(2)*r*s(1)*r*s(6)", "s(3)*r*s(4)"),
    ):
        w = parse_word(text, d)
        nf = normal_form(w, d)
        assert str(nf) == want
        assert word_to_matrix(nf.to_word(), d) == word_to_matrix(w, d)


def test_normal_form_preserves_matrix():
    rng = random.Random(5)
    for delta in DISCS:
        d = make_order(delta)
        for _ in range(40):
            w = random_pe2_word(d, rng.randrange(10**6), length=14, coeff_bound=3)
            nf = normal_form(w, d)
            assert word_to_matrix(nf.to_word(), d) == word_to_matrix(w, d)
            # already-normal words are fixed points
            assert normal_form(nf.to_word(), d) == nf


def test_normal_form_of_cancelling_word_is_trivial():
    rng = random.Random(7)
    for delta in DISCS:
        d = make_order(delta)
        for _ in range(20):
            w = random_pe2_word(d, rng.randrange(10**6), length=8)
            nf = normal_form(w + word_inverse(w), d)
            assert nf.alphas == (d.zero,)


def test_zeta_chain_values():
    d = make_order(-40)
    two = KElem.of(d.elt(2), 1)
    sf = StandardForm((d.zero, d.zero))
    chain = zeta_chain(sf, two)
    assert chain.values == (two,)
    assert chain.product() == two

    half = KElem.of(d.one, 2)
    sf = StandardForm((d.elt(1), d.elt(2), d.elt(3)))
    chain = zeta_chain(sf, half)
    assert chain.values == (KElem.of(d.elt(3), 2), KElem.of(d.elt(4), 3))
    assert chain.product() == KElem.of(d.elt(2), 1)
    # three-term recurrence gives the same product
    assert chain_bottom(sf.alphas, d.one, d.elt(2)) == d.elt(4)


def test_zeta_chain_degenerate():
    d = make_order(-40)
    zero = KElem.of(d.zero, 1)
    sf = StandardForm((d.zero, d.zero))
    with pytest.raises(DegenerateChain):
        zeta_chain(sf, zero)
    with pytest.raises(DegenerateChain):
        chain_bottom(sf.alphas, d.zero, d.one)
    # z = -a_0 + 1/a_1 kills the second pivot
    sf = StandardForm((d.zero, d.elt(2), d.zero))
    half = KElem.of(d.one, 2)
    with pytest.raises(DegenerateChain):
        zeta_chain(sf, half)


def _random_standard_form(d, rng, n):
    alphas = [d.elt(rng.randint(-4, 4), rng.randint(-2, 2))]
    for _ in range(max(0, n - 1)):
        alphas.append(d.elt(rng.randint(2, 5), rng.randint(0, 2)))
    if n >= 1:
        alphas.append(d.elt(rng.randint(-4, 4), rng.randint(-2, 2)))
    return StandardForm(tuple(alphas))


def test_product_identity_random():
    rng = random.Random(31)
    for delta in DISCS:
        d = make_order(delta)
        checked = 0
        while checked < 30:
            sf = _random_standard_form(d, rng, rng.randint(1, 4))
            z = KElem.of(d.elt(rng.randint(-3, 3), rng.randint(-2, 2)), rng.randint(1, 4))
            try:
                chain = zeta_chain(sf, z)
            except DegenerateChain:
                continue
            assert product_identity_check(sf, z)
            zden = d.elt(z.den)
            bottom = chain_bottom(sf.alphas, z.num, zden)
            assert chain.product() == KElem.of(bottom, zden)
            checked += 1


def test_membership_scope():
    for delta in (-11, -12):
        d = make_order(delta)
        with pytest.raises(OutOfScope):
            membership(Mat.identity(d))


def test_membership_member_example():
    d = make_order(-40)
    g = gen_r(d) * gen_s(d.elt(5)) * gen_r(d)
    res = membership(g)
    assert isinstance(res, Member)
    assert res.certificate.alphas == (d.zero, d.elt(5), d.zero)
    assert word_to_matrix(res.certificate.to_word(), d) == g
    assert res.stats.nodes_explored == 2


def test_membership_members_random():
    rng = random.Random(13)
    for delta in DISCS:
        d = make_order(delta)
        for _ in range(12):
            w = random_pe2_word(d, rng.randrange(10**6), length=12, coeff_bound=3)
            g = word_to_matrix(w, d)
            res = membership(g)
            assert isinstance(res, Member)
            assert word_to_matrix(res.certificate.to_word(), d) == g


def test_membership_nonmember_example():
    d = make_order(-40)
    t = d.tau
    g = Mat(t + d.one, d.elt(5), d.elt(2), d.one - t)
    res = membership(g)
    assert isinstance(res, NonMember)
    assert res.node == g
    assert res.path_word == ()
    assert res.ratio == KElem.of(t - d.one, 2)
    # the certificate: S = 15 > 1 and the nearest lattice point to z lies at 539/225 >= 1 - 1/S^2
    assert res.s == 15
    assert res.point == KElem.of(7 * t - d.elt(7), 15)
    assert min((res.point - c).abs_sq() for c in lattice_points_within(res.point, 3)) == Fraction(539, 225)
    assert len(res.nearby) == 4
    assert all(dist == Fraction(11, 4) for _, dist in res.nearby)
    assert min(dist for _, dist in res.nearby) > 1


def test_membership_nonmember_down_a_branch():
    d = make_order(-40)
    t = d.tau
    bad = Mat(t + d.one, d.elt(5), d.elt(2), d.one - t)
    g = bad * gen_s(d.elt(3)) * gen_r(d)
    res = membership(g)
    assert isinstance(res, NonMember)
    assert g == res.node * word_to_matrix(res.path_word, d)
    # the certificate is the point, which covering_radius^2 = 11/4 < 3 keeps in reach of its nearest lattice point
    assert res.s > 1
    assert min((res.point - c).abs_sq() for c in lattice_points_within(res.point, 3)) >= 1 - Fraction(1, res.s**2)


def test_descent_step_scales_bottom_norm():
    # a move by c multiplies norm(beta) by the squared distance |ratio - c|^2
    rng = random.Random(41)
    for delta in DISCS:
        d = make_order(delta)
        for _ in range(10):
            w = random_pe2_word(d, rng.randrange(10**6), length=8)
            h = word_to_matrix(w, d)
            if h.fixes_infinity():
                continue
            ratio = KElem.of(h.m22, -h.m21)
            for c in lattice_points_within(ratio, 1):
                child = h * gen_s(c) * gen_r(d)
                assert child.beta.norm() == h.beta.norm() * (ratio - c).abs_sq()


def test_random_pe2_word_deterministic():
    d = make_order(-24)
    assert random_pe2_word(d, 99) == random_pe2_word(d, 99)
    assert random_pe2_word(d, 99) != random_pe2_word(d, 100)
    for letter in random_pe2_word(d, 7):
        assert letter is None or letter.order is d


# every discriminant that membership accepts, up to 200
PROPERTY_DISCS = [-m for m in range(13, 200) if m % 4 in (0, 3)]


@st.composite
def order_and_word(draw, max_shifts=12):
    """An order and a word s(a_k) r ... r s(a_0) with a_i = a + b*t, |a| <= 2 and |b| <= 1.

    Zero and the units are common among the a_i, so every rewriting rule
    of normal_form comes into play.
    """
    d = make_order(draw(st.sampled_from(PROPERTY_DISCS)))
    coeff = st.builds(d.elt, st.integers(-2, 2), st.integers(-1, 1))
    word: list = []
    for a in draw(st.lists(coeff, min_size=1, max_size=max_shifts)):
        word += [R(), S(a)]
    return d, tuple(word[1:])


@settings(max_examples=12, derandomize=True, deadline=None)
@given(order_and_word())
def test_normal_form_keeps_the_matrix_property(dw):
    d, w = dw
    sf = normal_form(w, d)
    assert word_to_matrix(sf.to_word(), d) == word_to_matrix(w, d)
    assert not any(a.is_small() for a in sf.alphas[1:-1])


@settings(max_examples=12, derandomize=True, deadline=None)
@given(order_and_word())
def test_member_certificate_rebuilds_g_property(dw):
    d, w = dw
    g = word_to_matrix(w, d)
    res = membership(g)
    assert isinstance(res, Member)
    assert word_to_matrix(res.certificate.to_word(), d) == g


@settings(max_examples=12, derandomize=True, deadline=None)
@given(order_and_word(max_shifts=4), st.integers(0, 3))
def test_non_member_path_rebuilds_g_property(dw, k):
    # the inverse completion of a gap point is outside the subgroup, and so is
    # its product with any word; the reduction spells g as node * path_word
    d, w = dw
    g = gap_points(d, k + 1)[k].pair.completion.inv() * word_to_matrix(w, d)
    res = membership(g)
    assert isinstance(res, NonMember)
    assert res.node * word_to_matrix(res.path_word, d) == g
    assert res.stats.nodes_explored == len(res.path_word) // 2 + 1
    # the stored integers of the stop, re-derived in OInt arithmetic from the node
    h = res.node
    assert res.s == h.m11.norm() + h.m21.norm() > 1
    x = -(h.m12 * h.m11.conj() + h.m22 * h.m21.conj())
    assert (res.p, res.q) == (x.a, x.b)
    # the nearest lattice point lies within the covering radius
    z = KElem.of(x, res.s)
    assert res.d == min((z - c).abs_sq() for c in lattice_points_within(z, d.covering_radius_sq())) * res.s**2
    assert res.d >= res.s**2 - 1


@st.composite
def descent_node(draw):
    """A node that moves infinity: a short word, or an inverse gap-point completion times one."""
    d, w = draw(order_and_word(max_shifts=6))
    h = word_to_matrix(w, d)
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        h = gap_points(d, k + 1)[k].pair.completion.inv() * h
    assume(not h.fixes_infinity())
    return h


@settings(max_examples=25, derandomize=True, deadline=None)
@given(descent_node())
def test_column_step_invariant_property(h):
    # h^-1 j has height 1/S over z; the step h*s(c)*r to any lattice point c
    # gives S*S' = d + 1 with the integer d = S^2 |z - c|^2, so S falls
    # exactly when d <= S^2 - 2
    d = h.order
    s = h.m11.norm() + h.m21.norm()
    z = KElem.of(-(h.m12 * h.m11.conj() + h.m22 * h.m21.conj()), s)
    for c in lattice_points_within(z, 2):
        child = h * gen_s(c) * gen_r(d)
        s_new = child.m11.norm() + child.m21.norm()
        assert (s * s_new - 1) * z.den**2 == s * s * scaled_dist_sq(z, c)


def test_reduction_step_bound_is_the_r_letters():
    # each step of the reduction undoes at most one r of a word, so a wrong
    # column step shows here as a certificate that does not rebuild the word
    rng = random.Random(17)
    for i in range(60):
        d = make_order(DISCS[i % len(DISCS)])
        w = random_pe2_word(d, rng.randrange(10**6), length=12, coeff_bound=1 + i % 4)
        g = word_to_matrix(w, d)
        res = membership(g)
        assert isinstance(res, Member), (d, i)
        assert word_to_matrix(res.certificate.to_word(), d) == g
        assert res.stats.nodes_explored - 1 <= w.count(None), (d, i)


# the cosets workload's orders, and -15
KERNEL_DISCS = [-15, -20, -31, -40, -163]


def _kernel_inputs(d):
    # the criterion-4 matrices (its 500 words, and its outsider where it has
    # determinant 1), the completions of the cosets gap points and their
    # inverses, and each completion's conjugates of s(-1) and s(1), one of
    # which normalizer_witness re-checks
    for seed in range(500):
        yield word_to_matrix(random_pe2_word(d, seed, length=1 + seed % 24, coeff_bound=10), d)
    if d.delta == -40:
        yield Mat(d.elt(1, 1), d.elt(5), d.elt(2), d.elt(1, -1))
    for gp in gap_points(d, 100):
        g = gp.completion
        yield g
        yield g.inv()
        for a in (-1, 1):
            yield g * gen_s(d.elt(a)) * g.inv()


def _reference_reduction(g):
    # the reduction in OInt and KElem arithmetic, with no integer kernel: the
    # nearest lattice point first by key() from lattice_points_within, and
    # the column step as a Mat product; (S, (p, q, d) or None, node, moves)
    d, h, moves = g.order, g, []
    while True:
        s = h.m11.norm() + h.m21.norm()
        if s == 1:
            return s, None, h, moves
        x = -(h.m12 * h.m11.conj() + h.m22 * h.m21.conj())
        z = KElem.of(x, s)
        c = min(lattice_points_within(z, d.covering_radius_sq()), key=lambda c: ((z - c).abs_sq(), c.key()))
        dist = (z - c).abs_sq() * s * s
        assert dist.denominator == 1
        if dist > s * s - 2:
            return s, (x.a, x.b, int(dist)), h, moves
        h = h * gen_s(c) * gen_r(d)
        moves.append((c.a, c.b))


def test_reduction_kernel_is_membership_and_the_reference(monkeypatch):
    # the kernel's stop is membership's verdict: S = 1 exactly when Member,
    # else the NonMember's S, p, q and d, its node up to sign and its path;
    # and it is the stop of the reference reduction, step for step
    calls = []
    nearest = words.nearest_lattice_point

    def counted(*args):
        # the loop ends within S steps, one nearest-point call per step and
        # one at a non-member stop, so a stop rule that lets S stand fails
        # here instead of looping
        calls.append(None)
        assert len(calls) <= calls_bound, "the reduction did not end within S steps"
        return nearest(*args)

    monkeypatch.setattr(words, "nearest_lattice_point", counted)
    on_face = 0
    for g in (g for delta in KERNEL_DISCS for g in _kernel_inputs(make_order(delta))):
        d = g.order
        ints = tuple(x for e in g.entries() for x in (e.a, e.b))
        calls.clear()
        calls_bound = g.m11.norm() + g.m21.norm()
        s, p, q, dist, node_ints, moves = reduce_entries(d, *ints)
        node = Mat._trusted_ints(d, node_ints)
        res = membership(g)
        path = tuple(x for a, b in reversed(moves) for x in (R(), S(d.elt(-a, -b))))
        assert (s == 1) == isinstance(res, Member), g
        assert res.stats.nodes_explored == len(moves) + 1
        ref_s, ref_stop, ref_node, ref_moves = _reference_reduction(g)
        assert (s, node, moves) == (ref_s, ref_node, ref_moves), g
        if s > 1:
            assert (s, p, q, dist) == (res.s, res.p, res.q, res.d) == (ref_s, *ref_stop), g
            assert node == res.node and path == res.path_word, g
            assert node * word_to_matrix(path, d) == g
            on_face += dist == s * s - 1
        else:
            assert node * word_to_matrix(path, d) == g
    # some stops lie on a unit hemisphere, d = S^2 - 1, where the stop rule
    # decides between a step and a stop (none of these at -163)
    assert on_face > 0
