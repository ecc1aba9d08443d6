"""Exact arithmetic in biquadratic fields L = Q(sqrt(d1), sqrt(d2)).

Elements live in the basis {1, sqrt(d1), sqrt(d2), sqrt(d3)} where d3 is
the squarefree part of d1*d2 and sqrt(d1)*sqrt(d2) = s*sqrt(d3) with
s = gcd(d1, d2).  Coordinates stay rational under multiplication even
when d1*d2 is not squarefree.  The library builds elements only to
print them: the square-root generators of `units.klein_pattern_root`
and `units.klein_generators`.
"""

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

    @property
    def s(self):
        return math.gcd(self.d1, self.d2)

    @property
    def d3(self):
        return (self.d1 // self.s) * (self.d2 // self.s)

    def one(self):
        return BiquadElem(self, Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    def lift_quad(self, x: QuadElem):
        """Embed an element of Q(sqrt(d)) for d in {d1, d2, d3}."""
        zero = Fraction(0)
        if x.d == self.d1:
            return BiquadElem(self, x.a, x.b, zero, zero)
        if x.d == self.d2:
            return BiquadElem(self, x.a, zero, x.b, zero)
        if x.d == self.d3:
            return BiquadElem(self, x.a, zero, zero, x.b)
        raise ValueError("sqrt(%d) does not lie in Q(sqrt(%d), sqrt(%d))"
                         % (x.d, self.d1, self.d2))


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


def biq_add(a, b):
    _same_field(a, b)
    return BiquadElem(a.field, a.x + b.x, a.y + b.y, a.z + b.z, a.w + b.w)


def biq_mul(a, b):
    _same_field(a, b)
    f = a.field
    d1, d2, d3, s = f.d1, f.d2, f.d3, f.s
    r1, r2 = d1 // s, d2 // s  # sqrt(d1)sqrt(d3) = r1*sqrt(d2) etc.
    x = a.x * b.x + d1 * a.y * b.y + d2 * a.z * b.z + d3 * a.w * b.w
    y = a.x * b.y + a.y * b.x + r2 * (a.z * b.w + a.w * b.z)
    z = a.x * b.z + a.z * b.x + r1 * (a.y * b.w + a.w * b.y)
    w = a.x * b.w + a.w * b.x + s * (a.y * b.z + a.z * b.y)
    return BiquadElem(f, x, y, z, w)
