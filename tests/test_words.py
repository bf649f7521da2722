from __future__ import annotations

import random
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
    Inconclusive,
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
        ("q", 0),
        ("r r", 2),
        ("r*", 2),
        ("s(2", 1),
        ("s()", 2),
        ("s(2 3)", 4),
        ("s(+2)", 2),
        ("1*r", 1),
        ("s(²)", 2),  # digits are ASCII 0-9 only
        ("s(1²)", 3),
        ("s(٣*t)", 2),
    ]
    for text, pos in cases:
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(text, d)
        assert exc.value.position == pos
    for text in ("", "   "):
        with pytest.raises(WordSyntaxError, match="empty word text") as exc:
            parse_word(text, d)
        assert exc.value.position == 0


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
    assert res.stats.nodes_explored == 3


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
    assert all(dist > 1 for _, dist in res.nearby)


def test_membership_budget_exhaustion():
    d = make_order(-40)
    g = gen_r(d) * gen_s(d.elt(5)) * gen_r(d)
    res = membership(g, depth_cap=0)
    assert isinstance(res, Inconclusive)
    assert res.depth_reached == 0
    assert res.stats.nodes_explored == 1


def test_membership_node_budget(monkeypatch):
    # a descent that has expanded NODE_CAP nodes stops Inconclusive, whatever its depth
    d = make_order(-40)
    g = word_to_matrix(random_pe2_word(d, 7, length=200), d)
    full = membership(g)
    assert isinstance(full, Member) and full.stats.nodes_explored > 3
    monkeypatch.setattr(words, "NODE_CAP", 3)
    res = membership(g)
    assert isinstance(res, Inconclusive)
    assert res.stats.nodes_explored == 3


def test_descent_step_scales_bottom_norm():
    # a move by c multiplies norm(beta) by the squared distance |ratio - c|^2
    rng = random.Random(41)
    from pe2ford.orders import dist_sq, lattice_points_within

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
                assert child.beta.norm() == h.beta.norm() * dist_sq(ratio, c)


def test_random_pe2_word_deterministic():
    d = make_order(-24)
    assert random_pe2_word(d, 99) == random_pe2_word(d, 99)
    assert random_pe2_word(d, 99) != random_pe2_word(d, 100)
    for letter in random_pe2_word(d, 7):
        assert letter.kind in ("r", "s")


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
    # its product with any word; the descent spells g as node * path_word.
    # These descents end within three moves; the cap of 8 keeps a wrong
    # column step, whose descent climbs, from searching for minutes.
    d, w = dw
    g = gap_points(d, k + 1)[k].pair.completion.inv() * word_to_matrix(w, d)
    res = membership(g, 8)
    assert not isinstance(res, Member)
    if isinstance(res, NonMember):
        assert res.node * word_to_matrix(res.path_word, d) == g


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
def test_column_step_scales_the_bottom_norm_property(h):
    # the descent's move by c multiplies norm(m21) by |ratio - c|^2, which is
    # what ranks the children and makes every step a drop or a plateau edge
    d = h.order
    ratio = KElem.of(h.m22, -h.m21)
    for c in lattice_points_within(ratio, 1):
        child = h * gen_s(c) * gen_r(d)
        assert child.m21.norm() * ratio.den**2 == h.m21.norm() * scaled_dist_sq(ratio, c)


def test_short_words_are_members_within_a_small_node_budget(monkeypatch):
    # the descents of short words expand at most a handful of nodes; one that
    # climbs instead of dropping (a wrong column step) meets this cap within a second
    monkeypatch.setattr(words, "NODE_CAP", 500)
    rng = random.Random(17)
    for i in range(30):
        d = make_order(DISCS[i % len(DISCS)])
        g = word_to_matrix(random_pe2_word(d, rng.randrange(10**6), length=12), d)
        assert isinstance(membership(g), Member), (d, i)
