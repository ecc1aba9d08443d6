"""Exact arithmetic in biquadratic fields L = Q(sqrt(d1), sqrt(d2)).

Elements live in the basis {1, sqrt(d1), sqrt(d2), sqrt(d3)} where d3 is
the squarefree part of d1*d2 and sqrt(d1)*sqrt(d2) = s*sqrt(d3) with
s = gcd(d1, d2).  Coordinates stay rational under multiplication even
when d1*d2 is not squarefree.  Integrality is exact, computed in the
tower L = K(sqrt(d2)) over K = Q(sqrt(d1)).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .precision import DEFAULT_PRECISION, mpf_ctx
from .quadratic import QuadElem, is_quad_integer, is_squarefree, quad_norm

GALOIS_KLEIN = ("id", "s1", "s2", "s3")

# coordinate signs (on y, z, w) applied by each Galois element
_GALOIS_SIGNS = {
    "id": (1, 1, 1),
    "s1": (1, -1, -1),   # fixes sqrt(d1)
    "s2": (-1, 1, -1),   # fixes sqrt(d2)
    "s3": (-1, -1, 1),   # fixes sqrt(d3)
}


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

    def from_rational(self, q):
        return BiquadElem(self, Fraction(q), Fraction(0), Fraction(0), Fraction(0))

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

    def coords(self):
        return (self.x, self.y, self.z, self.w)

    def is_zero(self):
        return not any(self.coords())

    def is_rational(self):
        return self.y == 0 and self.z == 0 and self.w == 0

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


def galois_apply(g, a):
    """Apply a Klein Galois element; sign flips per the fixed subfield."""
    sy, sz, sw = _GALOIS_SIGNS[g]
    return BiquadElem(a.field, a.x, sy * a.y, sz * a.z, sw * a.w)


def _relative_norm(a):
    """N_{L/K}(a) = alpha^2 - d2*beta^2, an element of K."""
    f = a.field
    x, y, z, w = a.x, a.y, a.z, a.w / f.s
    return QuadElem(f.d1, x * x + f.d1 * y * y - f.d2 * (z * z + f.d1 * w * w),
                    2 * (x * y - f.d2 * z * w))


def is_algebraic_integer(a):
    """a lies in O_L iff its relative trace 2*alpha and norm N_{L/K}(a)
    lie in O_K, each tested by trace and norm in Z."""
    return (is_quad_integer(QuadElem(a.field.d1, 2 * a.x, 2 * a.y))
            and is_quad_integer(_relative_norm(a)))


def is_unit(a):
    # N_{L/Q}(a) = N_{K/Q}(N_{L/K}(a))
    return is_algebraic_integer(a) and abs(quad_norm(_relative_norm(a))) == 1


def _coord_bits(coords):
    return max((abs(c.numerator).bit_length() + c.denominator.bit_length()
                for c in coords), default=1)


def embed_real(a, precision_bits=DEFAULT_PRECISION):
    """The four real embeddings (id, s1, s2, s3 images), sqrt always the
    positive root.

    Conjugates of a large unit are tiny (about 1/|a|), so the working
    precision gets headroom for the full coefficient bit-size to survive
    the cancellation.
    """
    f = a.field
    # a unit's conjugate is ~1/|a|, so cancellation spans twice the
    # coefficient magnitude
    with mpf_ctx(precision_bits + 2 * _coord_bits(a.coords()) + 16):
        roots = (mpmath.mpf(1), mpmath.sqrt(f.d1), mpmath.sqrt(f.d2),
                 mpmath.sqrt(f.d3))

        def frac(q):
            return mpmath.mpf(q.numerator) / q.denominator

        out = []
        for g in GALOIS_KLEIN:
            img = galois_apply(g, a)
            out.append(sum(frac(c) * r for c, r in zip(img.coords(), roots)))
        return tuple(out)
