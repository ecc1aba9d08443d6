"""Biquadratic (Klein) fields L = Q(sqrt(d1), sqrt(d2)) as quartic fields.

The basis is (1, sqrt(d1), sqrt(d2), sqrt(d3)), d3 the squarefree part of
d1*d2, with sqrt(d1)*sqrt(d2) = s*sqrt(d3) and s = gcd(d1, d2).  Its
structure constants are integers even when d1*d2 is not squarefree, so
a BiquadField is a `table` for the one quartic kernel
(quartic.mul_coords, quartic.char_poly), and its elements are
quartic.QuarticElems: the square-root generators of
`units.klein_pattern_root` multiply integer numerators on the table, and
the library builds elements only to print them (`units.klein_generators`).
"""

import functools
import math
from dataclasses import dataclass

from .quadratic import QuadElem, is_squarefree
from .quartic import QuarticElem


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
        # s = gcd(d1, d2) and d3 = d1*d2/s^2, which a scan reads per field
        s = math.gcd(self.d1, self.d2)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d3", (self.d1 // s) * (self.d2 // s))

    @functools.cached_property
    def table(self):
        """b_i*b_j = c*b_(i xor j) on (1, sqrt(d1), sqrt(d2), sqrt(d3)), c
        from sqrt(d_i)^2 = d_i, sqrt(d1)*sqrt(d2) = s*sqrt(d3),
        sqrt(d1)*sqrt(d3) = (d1/s)*sqrt(d2) and
        sqrt(d2)*sqrt(d3) = (d2/s)*sqrt(d1)."""
        squares = (1, self.d1, self.d2, self.d3)
        mixed = (None, self.d2 // self.s, self.d1 // self.s, self.s)  # by i ^ j
        return tuple(tuple(((i ^ j, squares[i] if i == j else
                             mixed[i ^ j] if i and j else 1),)
                           for j in range(4)) for i in range(4))

    def format(self, coords):
        return "(%s) + (%s)*sqrt(%d) + (%s)*sqrt(%d) + (%s)*sqrt(%d)" % (
            coords[0], coords[1], self.d1, coords[2], self.d2, coords[3],
            self.d3)

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
        return QuarticElem(self, self.lift_coords(x.d, x.a, x.b))
