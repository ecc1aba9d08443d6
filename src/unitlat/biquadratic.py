"""Exact arithmetic in biquadratic fields L = Q(sqrt(d1), sqrt(d2)).

Elements live in the basis {1, sqrt(d1), sqrt(d2), sqrt(d3)} where d3 is
the squarefree part of d1*d2 and sqrt(d1)*sqrt(d2) = s*sqrt(d3) with
s = gcd(d1, d2).  Coordinates stay rational under multiplication even
when d1*d2 is not squarefree.  `mul_coords` multiplies coordinate
4-tuples, exact on ints and Fractions alike: the square-root generators
of `units.klein_pattern_root` are products of integer numerators, and
the library builds elements only to print them
(`units.klein_generators`).
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .quadratic import QuadElem, is_squarefree


@dataclass(frozen=True)
class BiquadField:
    d1: int
    d2: int

    def __post_init__(self):
        for d in (self.d1, self.d2):
            if d <= 1 or not is_squarefree(d):
                raise ValueError("need squarefree d > 1, got %r" % (d,))
        if self.d1 == self.d2:
            raise ValueError("d1 and d2 must be distinct")

    # computed once per field: mul_coords reads them on every product
    @functools.cached_property
    def s(self):
        return math.gcd(self.d1, self.d2)

    @functools.cached_property
    def d3(self):
        return (self.d1 // self.s) * (self.d2 // self.s)

    def one(self):
        return BiquadElem(self, Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    def lift_coords(self, d, a, b):
        """Coordinates of a + b*sqrt(d), for d in {d1, d2, d3}."""
        if d == self.d1:
            return a, b, 0, 0
        if d == self.d2:
            return a, 0, b, 0
        if d == self.d3:
            return a, 0, 0, b
        raise ValueError("sqrt(%d) does not lie in Q(sqrt(%d), sqrt(%d))"
                         % (d, self.d1, self.d2))

    def lift_quad(self, x: QuadElem):
        """Embed an element of Q(sqrt(d)) for d in {d1, d2, d3}."""
        return BiquadElem(self, *self.lift_coords(x.d, x.a, x.b))


@dataclass(frozen=True)
class BiquadElem:
    """x + y*sqrt(d1) + z*sqrt(d2) + w*sqrt(d3), exact rational coordinates."""

    field: BiquadField
    x: Fraction
    y: Fraction
    z: Fraction
    w: Fraction

    def __post_init__(self):
        for name in ("x", "y", "z", "w"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def __str__(self):
        f = self.field
        return "(%s) + (%s)*sqrt(%d) + (%s)*sqrt(%d) + (%s)*sqrt(%d)" % (
            self.x, self.y, f.d1, self.z, f.d2, self.w, f.d3)


def _same_field(a, b):
    if a.field != b.field:
        raise ValueError("elements from different biquadratic fields")


def mul_coords(a, b, field):
    """Coordinates of the product of the elements of field with coordinate
    4-tuples a and b on (1, sqrt(d1), sqrt(d2), sqrt(d3)), exact on ints
    and Fractions alike."""
    ax, ay, az, aw = a
    bx, by, bz, bw = b
    d1, d2, d3, s = field.d1, field.d2, field.d3, field.s
    r1, r2 = d1 // s, d2 // s  # sqrt(d1)sqrt(d3) = r1*sqrt(d2) etc.
    return (ax * bx + d1 * ay * by + d2 * az * bz + d3 * aw * bw,
            ax * by + ay * bx + r2 * (az * bw + aw * bz),
            ax * bz + az * bx + r1 * (ay * bw + aw * by),
            ax * bw + aw * bx + s * (ay * bz + az * by))


def biq_mul(a, b):
    _same_field(a, b)
    return BiquadElem(a.field, *mul_coords((a.x, a.y, a.z, a.w),
                                           (b.x, b.y, b.z, b.w), a.field))
