"""Exact arithmetic in imaginary quadratic orders and their fraction fields.

An order is determined by a negative discriminant d congruent to 0 or 1
mod 4, and is Z[t] for the root t = (trace + sqrt(d))/2 of its minimal
polynomial t^2 = trace*t - tau_norm, where trace = d mod 2 and
d = trace^2 - 4*tau_norm.  Elements are written a + b*t, and every
formula below reads trace and tau_norm: the norm form is
a^2 + trace*a*b + tau_norm*b^2.  All arithmetic is integer-exact; field
elements keep a positive rational-integer denominator so that equality
is structural and values hash.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .errors import InvalidDiscriminant


class Order:
    """An imaginary quadratic order of discriminant ``delta`` < 0.

    Every scope check reads one of two facts named here.
    ``units_are_signs`` (|delta| > 4): the units are exactly +-1, as normal
    forms and the hexagonal Voronoi cell need.  ``group_scope``
    (|delta| > 12): no element has norm 2 or 3 (Cohn's discretely normed
    case), which the one-hemisphere Ford domain and the norm gap of the
    membership descent rest on, and with them every group-level result.

    ``trace`` and ``tau_norm`` (t^2 = trace*t - tau_norm), and the elements
    ``zero``, ``one`` and ``tau``, are constants of the order set once in
    ``__init__``.  ``even`` is read only where the geometry differs: the
    covering radius, the neighbour ring and the Voronoi cell's kind.
    """

    __slots__ = (
        "delta", "abs_delta", "even", "units_are_signs", "group_scope", "trace", "tau_norm", "zero", "one", "tau"
    )

    def __init__(self, delta: int) -> None:
        if delta >= 0 or delta % 4 not in (0, 1):
            raise InvalidDiscriminant(f"bad discriminant {delta}")
        self.delta = delta
        self.abs_delta = -delta
        self.even = delta % 2 == 0
        self.units_are_signs = self.abs_delta > 4
        self.group_scope = self.abs_delta > 12
        self.trace = delta % 2
        self.tau_norm = (self.trace - delta) // 4
        self.zero = OInt(self, 0, 0)
        self.one = OInt(self, 1, 0)
        self.tau = OInt(self, 0, 1)

    def __repr__(self) -> str:
        return f"Order({self.delta})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Order) and other.delta == self.delta

    def __hash__(self) -> int:
        return hash(("Order", self.delta))

    def elt(self, a: int, b: int = 0) -> OInt:
        return OInt(self, a, b)

    def covering_radius_sq(self) -> Fraction:
        """Largest squared distance from any point of C to the lattice."""
        n = self.abs_delta
        if self.even:
            # deep hole at the cell corner (1/2, sqrt(n)/4)
            return Fraction(1, 4) + Fraction(n, 16)
        # hexagon circumradius, attained at (0, (n+1)/(4n)) in planar coords
        return Fraction((n + 1) ** 2, 16 * n)

    def gap_reach(self) -> Fraction:
        """Squared radius of a gap point's neighbourhood: the covering radius squared, plus 1.

        `gap-points` reads each point's lattice_rows within it once, to
        count and then to list them under `checked`, and NonMember.nearby
        reads them through gap_neighbourhood.
        """
        return self.covering_radius_sq() + 1


def make_order(delta: int) -> Order:
    return Order(delta)


class OInt:
    """Lattice element a + b*t of a fixed order."""

    __slots__ = ("order", "a", "b")

    def __init__(self, order: Order, a: int, b: int) -> None:
        self.order = order
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"OInt({self.order.delta}, {self.a}, {self.b})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}t"
        return f"{self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}t"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        if not isinstance(other, OInt):
            return NotImplemented
        return self.order.delta == other.order.delta and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.order.delta, self.a, self.b))

    def _coerce(self, other: OInt | int) -> OInt | None:
        if isinstance(other, int):
            return OInt(self.order, other, 0)
        if isinstance(other, OInt) and other.order.delta == self.order.delta:
            return other
        return None

    def __add__(self, other: OInt | int) -> OInt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OInt(self.order, self.a + o.a, self.b + o.b)

    def __sub__(self, other: OInt | int) -> OInt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OInt(self.order, self.a - o.a, self.b - o.b)

    def __neg__(self) -> OInt:
        return OInt(self.order, -self.a, -self.b)

    def __mul__(self, other: OInt | int) -> OInt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d, order = self.a, self.b, o.a, o.b, self.order
        return OInt(order, a * c - order.tau_norm * b * d, a * d + b * c + order.trace * b * d)

    __rmul__ = __mul__

    def conj(self) -> OInt:
        return OInt(self.order, self.a + self.order.trace * self.b, -self.b)

    def norm(self) -> int:
        a, b, order = self.a, self.b, self.order
        return a * a + order.trace * a * b + order.tau_norm * b * b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_small(self) -> bool:
        """True exactly on 0 and the units +-1 (|delta| > 4)."""
        return self.b == 0 and self.a in (-1, 0, 1)

    def key(self) -> tuple[int, int]:
        """Canonical sort key: b first, then a."""
        return (self.b, self.a)

    def is_canonical_positive(self) -> bool:
        """First nonzero coordinate of (b, a) is positive."""
        if self.b != 0:
            return self.b > 0
        return self.a > 0

    def planar_int(self, den: int) -> tuple[int, int, int]:
        """(U, V, L) = (2a + trace*b, b, 2*den): self/den = U/L + (V/L)*sqrt(|delta|)*i for den > 0."""
        return (2 * self.a + self.order.trace * self.b, self.b, 2 * den)


class KElem:
    """Fraction-field element, kept as (a + b*t) / q with q a positive integer.

    Construction divides out the content gcd and rationalizes the
    denominator, so equal values are structurally equal and hashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: OInt, den: int) -> None:
        # assumes the pair is already reduced; use .of() for raw input
        self.num = num
        self.den = den

    @staticmethod
    def of(num: OInt, den: OInt | int) -> KElem:
        order = num.order
        if isinstance(den, int):
            den = OInt(order, den, 0)
        if den.is_zero():
            raise ZeroDivisionError("division by zero in K")
        if den.b != 0:
            num = num * den.conj()
            den = OInt(order, den.norm(), 0)
        q = den.a
        if q < 0:
            q = -q
            num = -num
        g = math.gcd(math.gcd(num.a, num.b), q)
        if g > 1:
            num = OInt(order, num.a // g, num.b // g)
            q //= g
        return KElem(num, q)

    @staticmethod
    def from_oint(x: OInt) -> KElem:
        return KElem(x, 1)

    @property
    def order(self) -> Order:
        return self.num.order

    def __repr__(self) -> str:
        return f"KElem({self.num!r}, {self.den})"

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/{self.den}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (OInt, int)):
            o = _as_kelem(other, self.order)
            return o is not None and self.den == o.den and self.num == o.num
        if not isinstance(other, KElem):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: KElem | OInt | int) -> KElem:
        o = _as_kelem(other, self.order)
        if o is None:
            return NotImplemented
        return KElem.of(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, other: KElem | OInt | int) -> KElem:
        o = _as_kelem(other, self.order)
        if o is None:
            return NotImplemented
        return KElem.of(self.num * o.den - o.num * self.den, self.den * o.den)

    def __neg__(self) -> KElem:
        return KElem(-self.num, self.den)

    def __mul__(self, other: KElem | OInt | int) -> KElem:
        o = _as_kelem(other, self.order)
        if o is None:
            return NotImplemented
        return KElem.of(self.num * o.num, self.den * o.den)

    def __truediv__(self, other: KElem | OInt | int) -> KElem:
        o = _as_kelem(other, self.order)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero in K")
        return KElem.of(self.num * o.num.conj() * o.den, self.den * o.num.norm())

    def conj(self) -> KElem:
        return KElem(self.num.conj(), self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def abs_sq(self) -> Fraction:
        """Exact |z|^2."""
        return Fraction(self.num.norm(), self.den * self.den)

    def planar_int(self) -> tuple[int, int, int]:
        """Integers (U, V, L) with L > 0 and planar coordinates (U/L, V/L); equal elements give equal triples."""
        return self.num.planar_int(self.den)

    def planar(self) -> tuple[Fraction, Fraction]:
        u, v, den = self.planar_int()
        return (Fraction(u, den), Fraction(v, den))


def _as_kelem(x: KElem | OInt | Fraction | int, order: Order) -> KElem | None:
    if isinstance(x, KElem):
        return x if x.order.delta == order.delta else None
    if isinstance(x, OInt):
        return KElem(x, 1) if x.order.delta == order.delta else None
    if isinstance(x, int):
        return KElem(OInt(order, x, 0), 1)
    if isinstance(x, Fraction):
        return KElem.of(OInt(order, x.numerator, 0), x.denominator)
    return None


def scaled_dist_sq(z: KElem, g: OInt) -> int:
    """den^2 |z - g|^2 for z with denominator den: den*(z - g) = x + y*t has norm x^2 + trace*x*y + tau_norm*y^2."""
    order, den = z.num.order, z.den
    x, y = z.num.a - g.a * den, z.num.b - g.b * den
    return x * x + order.trace * x * y + order.tau_norm * y * y


def kelem_from_planar_int(order: Order, u: int, v: int, l: int) -> KElem:
    """The field element at planar (u/l, v/l), l > 0; inverse of planar_int: (u - trace*v + 2v*t)/l, reduced."""
    return KElem.of(OInt(order, u - order.trace * v, 2 * v), l)


def kelem_from_planar(order: Order, u: Fraction | int, v: Fraction | int) -> KElem:
    """The field element whose planar coordinates are (u, v); inverse of planar()."""
    u = Fraction(u)
    v = Fraction(v)
    den = math.lcm(u.denominator, v.denominator)
    return kelem_from_planar_int(order, u.numerator * (den // u.denominator), v.numerator * (den // v.denominator), den)


def lattice_rows(order: Order, p: int, q: int, den: int, rsq: Fraction | int) -> Iterator[tuple[int, int, int]]:
    """(b, least a, greatest a) for each row b of the closed disc |z - g|^2 <= rsq about z = (p + q*t)/den, den > 0, b ascending: the one disc scan.

    With g = a + b*t, y = q - b*den and w = 2(p - a*den) + trace*y,
    4 den^2 |z - g|^2 = w^2 + |delta| y^2.
    So with rsq = P/S the rows b satisfy S |delta| y^2 <= 4 den^2 P, and each
    row bounds |w| by an integer square root; no rational arithmetic runs.
    A row may hold no point, with least a = greatest a + 1, so its width
    greatest a - least a + 1 is never negative, and the widths sum to the
    number of points in O(rows).  Expanding each row by a ascending gives
    the points in key() order.

    (p, q, den) need not be in lowest terms: the rows of (kp, kq, k*den)
    are those of (p, q, den) for every integer k > 0.  Scaling multiplies
    y and w by k and the bound 4 den^2 P by k^2.  Since
    isqrt(m // s) = floor(sqrt(m / s)) for m >= 0, the scaled row test
    reads |k*y| <= floor(k*sqrt(X)) with X = 4 den^2 P / (S |delta|), and
    for an integer y that holds exactly when |y| <= sqrt(X), the unscaled
    test.  Within a row, |k*w| <= floor(k*sqrt(Y)) likewise holds exactly
    when |w| <= sqrt(Y).  So a gap point's ratio (xa + xb*t)/N is scanned
    as the stream holds it, with no KElem built to reduce it.
    """
    top = 4 * den * den * rsq.numerator
    s = rsq.denominator
    if top < 0:
        return
    n = order.abs_delta
    y_max = math.isqrt(top // (s * n))
    for b in range(-((y_max - q) // den), (q + y_max) // den + 1):
        y = q - b * den
        w_max = math.isqrt((top - s * n * y * y) // s)
        mid = 2 * p + order.trace * y
        yield b, -((w_max - mid) // (2 * den)), (mid + w_max) // (2 * den)


def lattice_points_within(z: KElem, rsq: Fraction | int) -> list[OInt]:
    """All lattice points g with |z - g|^2 <= rsq, sorted by key(): the rows of lattice_rows on z's ints, expanded."""
    order = z.order
    return [OInt(order, a, b) for b, lo, hi in lattice_rows(order, z.num.a, z.num.b, z.den, rsq) for a in range(lo, hi + 1)]


def nearest_lattice_point(order: Order, p: int, q: int, s: int) -> tuple[int, int, int]:
    """(d, a, b) for the lattice point c = a + b*t nearest z = (p + q*t)/s, first by key(), with d = s^2 |z - c|^2.

    4d = w^2 + |delta| y^2 with y = q - b*s and w = 2(p - a*s) + trace*y.  The
    rows b = q // s and q // s + 1 bracket z; in any other |y| >= s, so
    |z - c|^2 >= |delta|/4, past the covering radius for every |delta| >= 3.
    """
    n, e = order.abs_delta, order.trace
    rows = []
    for b in (q // s, q // s + 1):
        y = q - b * s
        a, w = divmod(2 * p + e * y, 2 * s)
        if w > s:  # round half down, so the lesser a wins a tie
            a, w = a + 1, w - 2 * s
        rows.append((w * w + n * y * y, b, a))
    d4, b, a = min(rows)  # a tie across rows goes to the lesser b, as key() orders
    return d4 // 4, a, b


def gap_neighbourhood(z: KElem) -> tuple[tuple[OInt, int], ...]:
    """Lattice points within z.order.gap_reach() of z, each with its scaled_dist_sq, in key() order."""
    return tuple((g, scaled_dist_sq(z, g)) for g in lattice_points_within(z, z.order.gap_reach()))


def lattice_points_norm_at_most(order: Order, bound: int, include_zero: bool = False) -> list[OInt]:
    """Lattice points with norm <= bound, canonically sorted."""
    pts = lattice_points_within(KElem(order.zero, 1), Fraction(bound))
    if not include_zero:
        pts = [g for g in pts if not g.is_zero()]
    return pts

