"""Words in the involution r and the shifts s(a), and their normal forms.

The elementary subgroup is generated by r = [[0,-1],[1,0]] and the
shifts s(a) = [[1,a],[0,1]].  Every word rewrites to the standard shape
s(a_n) r s(a_{n-1}) r ... r s(a_0) whose interior coefficients avoid
0 and the units; the rewriting uses only

    r*r = 1,   s(a)*s(b) = s(a+b),
    s(a) r s(0) r s(b)  = s(a+b),
    s(a) r s(e) r s(b)  = s(a-e) r s(b-e)   for e = +-1,

each of which drops at least one r, so the process terminates.

Membership of a general matrix is decided by a descent on the bottom
row: the ratio alpha/beta is examined for nearby lattice points, every
candidate move divides norm(beta) by at least 1, and a node whose ratio
clears all closed unit discs is a certified non-member.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import DegenerateChain, OutOfScope, WordSyntaxError
from .moebius import Mat, gen_r, gen_s
from .orders import KElem, OInt, Order, gap_neighbourhood, lattice_points_within, scaled_dist_sq

DEPTH_CAP = 64  # the default cap on the descent depth of membership
NODE_CAP = 20_000  # the nodes one membership descent may expand; read at call time


@dataclass(frozen=True)
class Letter:
    kind: str  # "r" or "s"
    coeff: OInt | None = None

    def __str__(self) -> str:
        if self.kind == "r":
            return "r"
        return f"s({_coeff_str(self.coeff)})"


def R() -> Letter:
    return Letter("r")


def S(a: OInt) -> Letter:
    return Letter("s", a)


Word = tuple[Letter, ...]


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
    return "*".join(str(letter) for letter in word)


def parse_word(text: str, order: Order) -> Word:
    """Parse word text like ``s(2-1*t)*r*s(3)``; ``1`` is the empty word."""
    letters: list[Letter] = []
    n = len(text)
    i = _skip_ws(text, 0, n)
    if i == n:
        raise WordSyntaxError("empty word text (use '1')", 0)
    if text[i] == "1":
        j = _skip_ws(text, i + 1, n)
        if j != n:
            raise WordSyntaxError("unexpected input after identity word", j)
        return ()
    expect_term = True
    while i < n:
        i = _skip_ws(text, i, n)
        if i >= n:
            break
        ch = text[i]
        if expect_term:
            if ch == "r":
                letters.append(R())
                i += 1
            elif ch == "s":
                i = _skip_ws(text, i + 1, n)
                if i >= n or text[i] != "(":
                    raise WordSyntaxError("expected '(' after 's'", i)
                close = text.find(")", i)
                if close < 0:
                    raise WordSyntaxError("missing ')'", i)
                letters.append(S(_parse_coeff(text, i + 1, close, order)))
                i = close + 1
            else:
                raise WordSyntaxError(f"expected 'r' or 's', got {ch!r}", i)
            expect_term = False
        else:
            if ch != "*":
                raise WordSyntaxError(f"expected '*', got {ch!r}", i)
            i += 1
            expect_term = True
    if expect_term:
        raise WordSyntaxError("dangling '*' at end of word", n)
    return tuple(letters)


def _skip_ws(text: str, i: int, end: int) -> int:
    while i < end and text[i].isspace():
        i += 1
    return i


def _parse_coeff(text: str, start: int, end: int, order: Order) -> OInt:
    a = b = 0
    i = start
    sign = 1
    saw_part = False
    while i < end:
        i = _skip_ws(text, i, end)
        if i >= end:
            break
        if text[i] in "+-":
            if not saw_part and text[i] == "+":
                raise WordSyntaxError("leading '+' in coefficient", i)
            sign = -1 if text[i] == "-" else 1
            i = _skip_ws(text, i + 1, end)
        elif saw_part:
            raise WordSyntaxError("expected '+' or '-' between parts", i)
        digits = ""
        while i < end and "0" <= text[i] <= "9":  # ASCII only: str.isdigit takes "²", which int() rejects
            digits += text[i]
            i += 1
        i = _skip_ws(text, i, end)
        if i < end and text[i] in "*t":
            if text[i] == "*":
                i = _skip_ws(text, i + 1, end)
                if i >= end or text[i] != "t":
                    raise WordSyntaxError("expected 't' after '*'", i)
            i += 1
            b += sign * (int(digits) if digits else 1)
        elif digits:
            a += sign * int(digits)
        else:
            raise WordSyntaxError("expected digits or 't' in coefficient", i)
        saw_part = True
        sign = 1
    if not saw_part:
        raise WordSyntaxError("empty coefficient", start)
    return OInt(order, a, b)


def word_inverse(word: Word) -> Word:
    out: list[Letter] = []
    for letter in reversed(word):
        if letter.kind == "r":
            out.append(letter)
        else:
            out.append(S(-letter.coeff))
    return tuple(out)


def word_to_matrix(word: Word, order: Order) -> Mat:
    """Leftmost letter is the leftmost factor."""
    g = Mat.identity(order)
    for letter in word:
        g = g * (gen_r(order) if letter.kind == "r" else gen_s(letter.coeff))
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
    """Rewrite an arbitrary word into standard form.

    Needs |delta| > 4 so the units are exactly +-1.
    """
    if not order.units_are_signs:
        raise OutOfScope("normal forms need |delta| > 4")
    # fold right-to-left into an alternating coefficient list
    alphas: list[OInt] = [order.zero]
    for letter in reversed(word):
        if letter.kind == "s":
            alphas[-1] = alphas[-1] + letter.coeff
        else:
            alphas.append(order.zero)
    changed = True
    while changed:
        changed = False
        i = len(alphas) - 2
        while i >= 1:
            a = alphas[i]
            if a.is_zero():
                alphas[i - 1 : i + 2] = [alphas[i - 1] + alphas[i + 1]]
                changed = True
                i = min(i, len(alphas) - 2)
                continue
            if a.is_small():  # a unit: shift both neighbours
                alphas[i - 1] = alphas[i - 1] - a
                alphas[i + 1] = alphas[i + 1] - a
                del alphas[i]
                changed = True
                i = min(i, len(alphas) - 2)
                continue
            i -= 1
    return StandardForm(tuple(alphas))


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
    nodes_explored: int
    plateau_edges: int


@dataclass(frozen=True)
class Member:
    certificate: StandardForm
    stats: SearchStats
    kind: str = field(default="member", init=False)


@dataclass(frozen=True)
class NonMember:
    """The descent reached node, whose ratio clears every closed unit lattice disc.

    nearby, the gap neighbourhood of ratio with each squared distance,
    is derived from ratio on demand, so a refutation that is never shown
    does not build it.
    """

    node: Mat
    ratio: KElem
    path_word: Word
    stats: SearchStats
    kind: str = field(default="non_member", init=False)

    @property
    def nearby(self) -> tuple[tuple[OInt, Fraction], ...]:
        sq = self.ratio.den * self.ratio.den
        return tuple((g, Fraction(d, sq)) for g, d in gap_neighbourhood(self.ratio))


@dataclass(frozen=True)
class Inconclusive:
    depth_reached: int
    stats: SearchStats
    kind: str = field(default="inconclusive", init=False)


MembershipResult = Member | NonMember | Inconclusive


# A descent path as links (c, parent): the last move first, None at g itself.
Path = tuple[OInt, "Path"] | None


def _suffix_word(path: Path) -> Word:
    # g = node * r s(-c_k) * ... * r s(-c_1) for the moves c_1, ..., c_k
    out: list[Letter] = []
    while path is not None:
        c, path = path
        out += (R(), S(-c))
    return tuple(out)


def membership(g: Mat, depth_cap: int = DEPTH_CAP) -> MembershipResult:
    """Decide membership in the elementary subgroup by bottom-row descent.

    The children of h are h*s(c)*r for the lattice points c in the closed
    unit disc about its ratio; a move multiplies norm(beta) by |ratio - c|^2,
    so the strongest drop, least scaled_dist_sq then key(), is explored
    first, and a plateau edge is one at distance 1.  Nodes keep a link to
    their parent; the path word is spelled once, when a verdict returns.

    Member and NonMember answers are definitive; Inconclusive only
    reports an exhausted budget, depth_cap or NODE_CAP expanded nodes.
    Needs |delta| > 12: soundness of the empty-candidate criterion rests on the norm gap.
    """
    order = g.order
    if not order.group_scope:
        raise OutOfScope("membership certificates need |delta| > 12")
    visited: set[Mat] = set()
    stack: list[tuple[Mat, int, Path]] = [(g, 0, None)]
    max_depth = 0
    nodes = 0
    plateau = 0
    while stack and nodes < NODE_CAP:
        h, depth, path = stack.pop()
        if h in visited:
            continue
        visited.add(h)
        nodes += 1
        max_depth = max(max_depth, depth)
        if h.fixes_infinity():
            # sign canonicalization leaves a plain shift s(x)
            cert = normal_form((S(h.m12),) + _suffix_word(path), order)
            return Member(cert, SearchStats(nodes, plateau))
        ratio = KElem.of(h.m22, -h.m21)
        cands = lattice_points_within(ratio, 1)
        if not cands:
            return NonMember(h, ratio, _suffix_word(path), SearchStats(nodes, plateau))
        if depth >= depth_cap:
            continue
        # a stable sort of the key()-ordered scan, so ties stay in key() order
        ranked = sorted(((scaled_dist_sq(ratio, c), c) for c in cands), key=lambda dc: dc[0])
        unit = ratio.den * ratio.den
        m11, m12, m21, m22 = h.m11, h.m12, h.m21, h.m22
        # push in reverse so the strongest norm drop is explored first
        for d, c in reversed(ranked):
            # h * s(c) * r, one column step
            child = Mat._trusted(m11 * c + m12, -m11, m21 * c + m22, -m21)
            if child not in visited:
                if d == unit:
                    plateau += 1
                stack.append((child, depth + 1, (c, path)))
    # a cap cut the search, or the finite reachable component held no
    # shift node; stay conservative in every case
    return Inconclusive(max_depth, SearchStats(nodes, plateau))


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
