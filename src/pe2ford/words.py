"""Words in the involution r and the shifts s(a), and their normal forms.

The elementary subgroup is generated by r = [[0,-1],[1,0]] and the
shifts s(a) = [[1,a],[0,1]].  Every word rewrites to the standard shape
s(a_n) r s(a_{n-1}) r ... r s(a_0) whose interior coefficients avoid
0 and the units; the rewriting uses only

    r*r = 1,   s(a)*s(b) = s(a+b),
    s(a) r s(0) r s(b)  = s(a+b),
    s(a) r s(e) r s(b)  = s(a-e) r s(b-e)   for e = +-1,

each of which drops at least one r; normal_form applies them in one pass.

A word is a tuple of letters, and a letter is its coefficient: the
OInt a for s(a), or None for r.  So r*s(2-t)*r is (None, 2-t, None).

Membership of a general matrix h is decided by reduction into the
one-hemisphere Ford domain: one integer loop, the kernel reduce_entries
on the eight entry ints, pushes h^-1 j, j = (0, 1), through the unit
hemispheres at lattice points until it reaches height 1 (a member,
spelled as a word) or stops in the closed domain below height 1 (a
certified non-member).  membership wraps the kernel in the verdict
objects; callers that read only the stop, as the coset and normalizer
checks do, call the kernel on their own ints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import DegenerateChain, OutOfScope, WordSyntaxError
from .moebius import Mat, gen_r, gen_s
from .orders import KElem, OInt, Order, gap_neighbourhood, nearest_lattice_point

Letter = OInt | None  # a for s(a), None for r
Word = tuple[Letter, ...]


def R() -> Letter:
    return None


def S(a: OInt) -> Letter:
    return a


def _coeff_str(a: OInt) -> str:
    if a.b == 0:
        return str(a.a)
    mag = "t" if abs(a.b) == 1 else f"{abs(a.b)}*t"
    if a.a == 0:
        return mag if a.b > 0 else "-" + mag
    return f"{a.a}{'+' if a.b > 0 else '-'}{mag}"


def format_word(word: Word) -> str:
    if not word:
        return "1"
    return "*".join("r" if a is None else f"s({_coeff_str(a)})" for a in word)


def parse_word(text: str, order: Order) -> Word:
    """Parse word text like ``s(2-1*t)*r*s(3)``; ``1`` is the empty word."""
    n = len(text)
    i = _skip_ws(text, 0, n)
    if i == n:
        raise WordSyntaxError("empty word text (use '1')", 0)
    if text[i] == "1":
        j = _skip_ws(text, i + 1, n)
        if j != n:
            raise WordSyntaxError("unexpected input after identity word", j)
        return ()
    letters: list[Letter] = []
    while True:  # a letter, then the end or '*'
        if i == n:
            raise WordSyntaxError("dangling '*' at end of word", n)
        if text[i] == "r":
            letters.append(R())
            i += 1
        elif text[i] == "s":
            i = _skip_ws(text, i + 1, n)
            if i >= n or text[i] != "(":
                raise WordSyntaxError("expected '(' after 's'", i)
            close = text.find(")", i)
            if close < 0:
                raise WordSyntaxError("missing ')'", i)
            letters.append(S(_parse_coeff(text, i + 1, close, order)))
            i = close + 1
        else:
            raise WordSyntaxError(f"expected 'r' or 's', got {text[i]!r}", i)
        i = _skip_ws(text, i, n)
        if i == n:
            return tuple(letters)
        if text[i] != "*":
            raise WordSyntaxError(f"expected '*', got {text[i]!r}", i)
        i = _skip_ws(text, i + 1, n)


def _skip_ws(text: str, i: int, end: int) -> int:
    while i < end and text[i].isspace():
        i += 1
    return i


def _parse_coeff(text: str, start: int, end: int, order: Order) -> OInt:
    """One part per step: an optional sign (none before the first part), digits, and an optional '*t' or 't'."""
    a = b = 0
    first = i = _skip_ws(text, start, end)
    if i == end:
        raise WordSyntaxError("empty coefficient", start)
    while i < end:
        sign = 1
        if text[i] in "+-":
            if text[i] == "+" and i == first:
                raise WordSyntaxError("leading '+' in coefficient", i)
            sign = -1 if text[i] == "-" else 1
            i = _skip_ws(text, i + 1, end)
        elif i != first:
            raise WordSyntaxError("expected '+' or '-' between parts", i)
        j = i
        while j < end and "0" <= text[j] <= "9":  # ASCII only: str.isdigit takes "²", which int() rejects
            j += 1
        digits = text[i:j]
        i = _skip_ws(text, j, end)
        if i < end and text[i] in "*t":
            if text[i] == "*":
                i = _skip_ws(text, i + 1, end)
                if i >= end or text[i] != "t":
                    raise WordSyntaxError("expected 't' after '*'", i)
            b += sign * (int(digits) if digits else 1)
            i = _skip_ws(text, i + 1, end)
        elif digits:
            a += sign * int(digits)
        else:
            raise WordSyntaxError("expected digits or 't' in coefficient", i)
    return OInt(order, a, b)


def word_inverse(word: Word) -> Word:
    return tuple(None if a is None else -a for a in reversed(word))


def word_to_matrix(word: Word, order: Order) -> Mat:
    """Leftmost letter is the leftmost factor."""
    g = Mat.identity(order)
    for a in word:
        g = g * (gen_r(order) if a is None else gen_s(a))
    return g


@dataclass(frozen=True)
class StandardForm:
    """Coefficients (a_0, ..., a_n) of s(a_n) r ... r s(a_0)."""

    alphas: tuple[OInt, ...]

    def __post_init__(self) -> None:
        if not self.alphas:
            raise ValueError("standard form needs at least one coefficient")
        for a in self.alphas[1:-1]:
            if a.is_small():
                raise ValueError(f"interior coefficient {a} is 0 or a unit")

    @property
    def n(self) -> int:
        return len(self.alphas) - 1

    def to_word(self) -> Word:
        letters: list[Letter] = []
        for i in range(self.n, -1, -1):
            letters.append(S(self.alphas[i]))
            if i > 0:
                letters.append(R())
        return tuple(letters)

    def __str__(self) -> str:
        return format_word(self.to_word())


def normal_form(word: Word, order: Order) -> StandardForm:
    """Rewrite an arbitrary word into standard form in one pass, left to right.

    Shifts add into the current coefficient x.  At each r, and once at
    the end, x goes onto a stack that holds a_n, a_{n-1}, ... from the
    bottom.  Before the push, while the top t has a left neighbour p and
    is 0 or a unit, the rules above remove it: s(p) r s(0) r s(x) becomes
    s(p + x), and s(p) r s(t) r s(x) becomes s(p - t) r s(x - t), whose
    new top p - t is tested again.  Each rewrite drops an r, so the pass
    is linear in the word's length.

    Standard forms are not unique, and a pass from the right can end at
    another one, so the direction is part of the output.
    Needs |delta| > 4 so the units are exactly +-1.
    """
    if not order.units_are_signs:
        raise OutOfScope("normal forms need |delta| > 4")
    stack: list[OInt] = []
    x = order.zero
    for a in (*word, None):
        if a is not None:
            x = x + a
            continue
        while len(stack) > 1 and stack[-1].is_small():
            t = stack.pop()
            p = stack.pop()
            if t.is_zero():
                x = p + x
            else:
                stack.append(p - t)
                x = x - t
        stack.append(x)
        x = order.zero
    return StandardForm(tuple(reversed(stack)))


@dataclass(frozen=True)
class ZetaChain:
    values: tuple[KElem, ...]

    def product(self) -> KElem:
        if not self.values:
            raise ValueError("empty chain has no product")
        out = self.values[0]
        for z in self.values[1:]:
            out = out * z
        return out


def _chain_numerators(alphas: tuple[OInt, ...], znum: OInt, zden: OInt) -> Iterator[OInt]:
    """p_0 = zden, p_1 = znum + a_0*zden, p_{i+1} = a_i p_i - p_{i-1}, up to p_n.

    The pivot z_i = p_i/p_{i-1}; raises DegenerateChain on the first
    zero p_i with i >= 1.
    """
    prev, cur = -znum, zden  # p_{-1} = -znum puts p_1 on the same recurrence
    yield cur
    for step, a in enumerate(alphas[:-1], start=1):
        prev, cur = cur, a * cur - prev
        if cur.is_zero():
            raise DegenerateChain(f"chain pivot hit zero at step {step}")
        yield cur


def zeta_chain(sf: StandardForm, z: KElem) -> ZetaChain:
    """Pivot chain z_1 = z + a_0, z_{i+1} = a_i - 1/z_i (i < n)."""
    ps = list(_chain_numerators(sf.alphas, z.num, OInt(z.order, z.den, 0)))
    return ZetaChain(tuple(KElem.of(p, q) for q, p in zip(ps, ps[1:])))


def chain_bottom(alphas: tuple[OInt, ...], znum: OInt, zden: OInt) -> OInt:
    """Final chain numerator p_n for z = znum/zden; the chain product is p_n/zden.

    Raises DegenerateChain on a zero pivot.
    """
    *_, bottom = _chain_numerators(alphas, znum, zden)
    return bottom


def product_identity_check(sf: StandardForm, z: KElem, mat: Mat | None = None) -> bool:
    """Does alpha - beta*z equal the chain product, up to the PSL sign?"""
    order = z.order
    if mat is None:
        mat = word_to_matrix(sf.to_word(), order)
    zden = OInt(order, z.den, 0)
    lhs = mat.alpha * zden - mat.beta * z.num
    rhs = chain_bottom(sf.alphas, z.num, zden)
    return lhs == rhs or lhs == -rhs


@dataclass(frozen=True)
class SearchStats:
    nodes_explored: int  # the nodes the reduction visited: its steps, plus one for g


@dataclass(frozen=True)
class Member:
    certificate: StandardForm
    stats: SearchStats
    kind: str = field(default="member", init=False)


@dataclass(frozen=True)
class NonMember:
    """The reduction stopped at node, with g = node * path_word.

    s, p, q and d are the loop's integers at the stop: node^-1 j sits at
    height 1/s over point = (p + q*t)/s, and d = s^2 |point - c|^2 for the
    lattice point c nearest it.  The certificate is s = norm(m11) +
    norm(m21) > 1 and d >= s^2 - 1: every lattice point c has
    |point - c|^2 >= 1 - 1/s^2, so node^-1 j lies in the closed Ford domain
    below height 1, where the subgroup takes no image of j.  ratio, the
    cusp -m22/m21 of node, and nearby, its gap neighbourhood, are derived
    on read; ratio may lie in a closed unit lattice disc.
    """

    node: Mat
    path_word: Word
    stats: SearchStats
    s: int
    p: int
    q: int
    d: int
    kind: str = field(default="non_member", init=False)

    @property
    def point(self) -> KElem:
        return KElem.of(OInt(self.node.order, self.p, self.q), self.s)

    @property
    def ratio(self) -> KElem:
        return KElem.of(self.node.m22, -self.node.m21)

    @property
    def nearby(self) -> tuple[tuple[OInt, Fraction], ...]:
        ratio = self.ratio
        sq = ratio.den * ratio.den
        return tuple((g, Fraction(d, sq)) for g, d in gap_neighbourhood(ratio))


MembershipResult = Member | NonMember


def reduce_entries(
    order: Order, a11: int, b11: int, a12: int, b12: int, a21: int, b21: int, a22: int, b22: int
) -> tuple[int, int, int, int, tuple[int, int, int, int, int, int, int, int], list[tuple[int, int]]]:
    """The reduction of h = [[a11 + b11*t, a12 + b12*t], [a21 + b21*t, a22 + b22*t]] into the one-hemisphere Ford domain.

    h^-1 j, for j = (0, 1), has height 1/S over z, where S = norm(m11) +
    norm(m21) and S*z = -(m12*conj(m11) + m22*conj(m21)) = p + q*t.  As
    det h = 1, the column step h*s(c)*r gives S*S' = d + 1 with the integer
    d = S^2 |z - c|^2.  While S > 1 the loop asks nearest_lattice_point for
    the lattice point c nearest z, first by key(), and steps to it if
    d <= S^2 - 2; otherwise it stops.  S = (d + 1) // S falls at every
    step, so the loop ends within S steps.

    Returns the stop's (S, p, q, d), the eight entry ints of the node it
    stopped at and the moves c_1, ..., c_k as int pairs, with
    h = node * r s(-c_k) * ... * r s(-c_1).  S = 1 is a member, and then
    p, q and d are not read; S > 1 is a non-member, certified by
    d >= S^2 - 1 (NonMember).  The caller checks det h = 1 and the scope.
    No sign canonicalisation is needed: S, p, q and d are quadratic in the
    entries and c is read off them, while each step is linear in the
    entries, so negating all eight negates every entry at every step and
    leaves every (S, p, q, d) and every move as it was.
    """
    e, m = order.trace, order.tau_norm
    s = a11 * a11 + e * a11 * b11 + m * b11 * b11 + a21 * a21 + e * a21 * b21 + m * b21 * b21
    p = q = d = 0
    moves: list[tuple[int, int]] = []
    while s > 1:
        # s*z = p + q*t = -(m12*conj(m11) + m22*conj(m21))
        p = -(a12 * a11 + e * a12 * b11 + m * b12 * b11 + a22 * a21 + e * a22 * b21 + m * b22 * b21)
        q = a12 * b11 - b12 * a11 + a22 * b21 - b22 * a21
        d, ca, cb = nearest_lattice_point(order, p, q, s)
        if d > s * s - 2:
            break
        # h*s(c)*r: first column m11*c + m12 and m21*c + m22, second -m11 and -m21
        a11, b11, a12, b12 = a11 * ca - m * b11 * cb + a12, a11 * cb + b11 * ca + e * b11 * cb + b12, -a11, -b11
        a21, b21, a22, b22 = a21 * ca - m * b21 * cb + a22, a21 * cb + b21 * ca + e * b21 * cb + b22, -a21, -b21
        s = (d + 1) // s
        moves.append((ca, cb))
    return s, p, q, d, (a11, b11, a12, b12, a21, b21, a22, b22), moves


def membership(g: Mat, cap: int | None = None) -> MembershipResult:
    """Decide membership in the elementary subgroup by reduction into its Ford domain.

    The scope check, then the integer kernel reduce_entries on g's eight
    entry ints, then the verdict.  At S = 1 the node is s(x) or r*s(x): Member,
    with the normal form of the word it spells.  At S > 1, node^-1 j lies
    in the closed one-hemisphere Ford domain below height 1, which the
    subgroup's images of j never reach: NonMember, which keeps the
    integers S, p, q and d of the stop.  The kernel runs on the entries'
    integers; OInt and Mat are built for the verdict: the node (g itself
    when no step was taken), the path word and the certificate.

    cap is accepted and ignored, because perfbench/workloads.py still passes
    one positionally.  Needs |delta| > 12, for the one-hemisphere domain.
    """
    order = g.order
    if not order.group_scope:
        raise OutOfScope("membership certificates need |delta| > 12")
    m11, m12, m21, m22 = g.m11, g.m12, g.m21, g.m22
    s, p, q, d, ints, moves = reduce_entries(order, m11.a, m11.b, m12.a, m12.b, m21.a, m21.b, m22.a, m22.b)
    node = Mat._trusted_ints(order, ints) if moves else g
    # g = node * r s(-c_k) * ... * r s(-c_1) for the moves c_1, ..., c_k
    path = tuple(x for a, b in reversed(moves) for x in (R(), S(OInt(order, -a, -b))))
    if s > 1:
        return NonMember(node, path, SearchStats(len(moves) + 1), s, p, q, d)
    # sign canonicalisation leaves s(x) = [[1, x], [0, 1]] or r*s(x) = [[0, 1], [-1, -x]]
    head = (S(node.m12),) if node.fixes_infinity() else (R(), S(-node.m22))
    return Member(normal_form(head + path, order), SearchStats(len(moves) + 1))


def random_pe2_word(
    order: Order, seed: int, length: int = 30, coeff_bound: int = 5
) -> Word:
    """Deterministic pseudo-random word over r and small shifts."""
    rng = random.Random(seed)
    letters: list[Letter] = []
    for _ in range(length):
        if rng.random() < 0.45:
            letters.append(R())
        else:
            a = rng.randint(-coeff_bound, coeff_bound)
            b = rng.randint(-coeff_bound, coeff_bound)
            letters.append(S(OInt(order, a, b)))
    return tuple(letters)
