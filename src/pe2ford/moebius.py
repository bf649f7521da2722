"""PSL2 matrices over an order, their hemispheres, and exact actions.

Matrices are stored sign-canonically: the first nonzero entry in the
scan order (m11, m12, m21, m22) has positive leading coordinate, so
structural equality is equality in PSL2.  The bottom row (m21, m22)
encodes the isometric hemisphere: writing beta = -m21 and alpha = m22,
the hemisphere sits at alpha/beta with squared radius 1/norm(beta), and
a boundary point zeta maps to height t / (|alpha - beta*zeta|^2 + |beta|^2 t^2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .cells import Disc
from .errors import NoHemisphere
from .orders import KElem, OInt, Order


class Mat:
    """Determinant-one matrix over an order, canonical up to sign."""

    __slots__ = ("order", "m11", "m12", "m21", "m22")

    def __init__(self, m11: OInt, m12: OInt, m21: OInt, m22: OInt) -> None:
        det = m11 * m22 - m12 * m21
        if det != m11.order.one:
            raise ValueError(f"determinant {det} is not 1")
        self._set(m11, m12, m21, m22)

    @classmethod
    def _trusted(cls, m11: OInt, m12: OInt, m21: OInt, m22: OInt) -> Mat:
        """A product or inverse of Mats: determinant 1 already, so only the sign is canonicalised."""
        out = object.__new__(cls)
        out._set(m11, m12, m21, m22)
        return out

    @classmethod
    def _trusted_ints(cls, order: Order, e: tuple[int, ...]) -> Mat:
        """_trusted on the eight entry ints (m11.a, m11.b, m12.a, ..., m22.b), whose determinant the caller has checked."""
        return cls._trusted(OInt(order, e[0], e[1]), OInt(order, e[2], e[3]), OInt(order, e[4], e[5]), OInt(order, e[6], e[7]))

    @staticmethod
    def _inv_ints(e: tuple[int, ...]) -> tuple[int, int, int, int, int, int, int, int]:
        """The eight entry ints of the inverse [[m22, -m12], [-m21, m11]] of the matrix with entry ints e, as inv lays it out."""
        return (e[6], e[7], -e[2], -e[3], -e[4], -e[5], e[0], e[1])

    def _set(self, m11: OInt, m12: OInt, m21: OInt, m22: OInt) -> None:
        for entry in (m11, m12, m21, m22):
            if not entry.is_zero():
                if not entry.is_canonical_positive():
                    m11, m12, m21, m22 = -m11, -m12, -m21, -m22
                break
        self.order = m11.order
        self.m11 = m11
        self.m12 = m12
        self.m21 = m21
        self.m22 = m22

    @staticmethod
    def identity(order: Order) -> Mat:
        return Mat(order.one, order.zero, order.zero, order.one)

    def entries(self) -> tuple[OInt, OInt, OInt, OInt]:
        return (self.m11, self.m12, self.m21, self.m22)

    def __repr__(self) -> str:
        return f"Mat[[{self.m11}, {self.m12}], [{self.m21}, {self.m22}]]"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self) -> int:
        m11, m12, m21, m22 = self.m11, self.m12, self.m21, self.m22
        return hash((m11.a, m11.b, m12.a, m12.b, m21.a, m21.b, m22.a, m22.b))

    def __mul__(self, other: Mat) -> Mat:
        if not isinstance(other, Mat):
            return NotImplemented
        return Mat._trusted(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def inv(self) -> Mat:
        return Mat._trusted(self.m22, -self.m12, -self.m21, self.m11)

    def is_identity(self) -> bool:
        return self == Mat.identity(self.order)

    @property
    def beta(self) -> OInt:
        return -self.m21

    @property
    def alpha(self) -> OInt:
        return self.m22

    def fixes_infinity(self) -> bool:
        return self.m21.is_zero()

    def coords(self) -> list[list[int]]:
        return [[e.a, e.b] for e in self.entries()]


def gen_r(order: Order) -> Mat:
    return Mat(order.zero, -order.one, order.one, order.zero)


def gen_s(a: OInt) -> Mat:
    order = a.order
    return Mat(order.one, a, order.zero, order.one)


@dataclass(frozen=True)
class Hemisphere:
    """Euclidean hemisphere rooted on the boundary plane.

    disc is the same hemisphere read once into integers, so the
    arrangement compares hemispheres without building a Fraction.  The
    hash is that of the disc: equal hemispheres have equal reduced
    centers and radii, so equal discs, and a set or dict lookup hashes a
    tuple of ints instead of a Fraction.
    """

    center: KElem
    radius_sq: Fraction
    disc: Disc = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        u, v, l = self.center.planar_int()
        object.__setattr__(self, "disc", (u, v, l, self.radius_sq.numerator, self.radius_sq.denominator))

    def __hash__(self) -> int:
        return hash(self.disc)


class Side(enum.Enum):
    INSIDE = -1
    ON = 0
    OUTSIDE = 1


def outside_test(g: Mat, z: KElem) -> Side:
    """Position of boundary point z relative to g's isometric hemisphere.

    Exact: compares norm(alpha*q - beta*n) against q^2 for z = n/q.
    """
    if g.fixes_infinity():
        raise NoHemisphere("matrix fixes infinity")
    lhs = (g.alpha * z.den - g.beta * z.num).norm()
    rhs = z.den * z.den
    if lhs > rhs:
        return Side.OUTSIDE
    if lhs == rhs:
        return Side.ON
    return Side.INSIDE


def apply_interior(g: Mat, zeta: KElem, tsq: Fraction) -> tuple[KElem, Fraction]:
    """Exact action on an upper-half-space point (zeta, t) with t^2 = tsq.

    Both outputs stay exact: the boundary coordinate lands back in K and
    the squared height stays rational.  Requires tsq > 0.
    """
    if tsq <= 0:
        raise ValueError("interior points need tsq > 0")
    a, b, c, d = g.entries()
    w = KElem.of(c, 1) * zeta + d
    denom = w.abs_sq() + Fraction(c.norm()) * tsq
    num = (KElem.of(a, 1) * zeta + b) * w.conj() + KElem.of(a * c.conj(), 1) * tsq
    return (num / denom, tsq / (denom * denom))


def order_in_psl(g: Mat) -> int | None:
    """Least k <= 12 with g^k = 1 in PSL2, else None."""
    h = g
    for k in range(1, 13):
        if h.is_identity():
            return k
        h = h * g
    return None
