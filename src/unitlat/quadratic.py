"""Exact arithmetic in real quadratic fields Q(sqrt(d)) and fundamental units.

Elements are a + b*sqrt(d) with exact rational a, b.  Fundamental units
are found by the continued-fraction expansion of sqrt(d) (of (1+sqrt(d))/2
when d = 1 mod 4, so that half-integer units like (1+sqrt(5))/2 are not
missed), with every step in exact integer arithmetic.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath

from .precision import DEFAULT_PRECISION, mpf_ctx


@functools.lru_cache(maxsize=4096, typed=True)
def is_squarefree(d):
    # memoized: every QuadElem construction checks its d by trial division
    if d < 1:
        return False
    i = 2
    while i * i <= d:
        if d % (i * i) == 0:
            return False
        i += 1
    return True


def _check_squarefree(d):
    if not isinstance(d, int) or d <= 1 or not is_squarefree(d):
        raise ValueError("d must be a squarefree integer > 1, got %r" % (d,))


@dataclass(frozen=True)
class QuadElem:
    """Element a + b*sqrt(d) of Q(sqrt(d)), exact rational coordinates."""

    d: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        _check_squarefree(self.d)
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def __str__(self):
        return "(%s) + (%s)*sqrt(%d)" % (self.a, self.b, self.d)

    def to_json(self):
        return {"d": self.d, "a": str(self.a), "b": str(self.b)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["d"], Fraction(obj["a"]), Fraction(obj["b"]))


def quad_mul(x, y):
    if x.d != y.d:
        raise ValueError("mismatched fields: sqrt(%d) vs sqrt(%d)" % (x.d, y.d))
    return QuadElem(x.d, x.a * y.a + x.b * y.b * x.d, x.a * y.b + x.b * y.a)


def quad_norm(x):
    return x.a * x.a - x.d * x.b * x.b


def is_quad_integer(x):
    """True iff x lies in the maximal order: trace and norm both integral."""
    trace = 2 * x.a
    return trace.denominator == 1 and quad_norm(x).denominator == 1


def _rational_sqrt(q):
    """Exact square root of a Fraction, or None when q is not a square."""
    if q < 0:
        return None
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    if n * n != q.numerator or d * d != q.denominator:
        return None
    return Fraction(n, d)


def quad_embed(x, precision_bits=DEFAULT_PRECISION):
    """Real value of x under the positive-root embedding sqrt(d) > 0."""
    with mpf_ctx(precision_bits):
        root = mpmath.sqrt(x.d)
        return (mpmath.mpf(x.a.numerator) / x.a.denominator
                + mpmath.mpf(x.b.numerator) / x.b.denominator * root)


def surd_sign(a, b, d):
    """Exact sign of a + b*sqrt(d) for rational a, b and nonsquare d > 1."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: the term with the larger square wins
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0  # impossible for irrational sqrt(d), kept as a guard
    if lhs > rhs:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def surd_cmp(a, b, d, c, e, f):
    """Exact sign of (a + b*sqrt(d)) - (c + e*sqrt(f)); b, e >= 0 required."""
    a, b, c, e = Fraction(a), Fraction(b), Fraction(c), Fraction(e)
    if b < 0 or e < 0:
        raise ValueError("surd_cmp requires nonnegative radical coefficients")
    s = a - c
    lhs, rhs = b * b * d, e * e * f
    diff_sign = (lhs > rhs) - (lhs < rhs)  # sign of b*sqrt(d) - e*sqrt(f)
    if s == 0:
        return diff_sign
    if diff_sign == 0:
        return 1 if s > 0 else -1
    s_sign = 1 if s > 0 else -1
    if s_sign == diff_sign:
        return s_sign
    # |s| vs |b*sqrt(d) - e*sqrt(f)|: compare s^2 with (b^2 d + e^2 f) - 2be*sqrt(df)
    t = s * s - lhs - rhs
    u = 2 * b * e
    if t >= 0:
        mag = 1 if (t > 0 or u > 0) else 0
    else:
        uu, tt = u * u * d * f, t * t
        mag = (uu > tt) - (uu < tt)
    if mag == 0:
        return 0
    return s_sign if mag > 0 else diff_sign


def quad_cmp(x, y):
    """Exact comparison of two surds with nonnegative sqrt coefficients."""
    return surd_cmp(x.a, x.b, x.d, y.a, y.b, y.d)


@dataclass(frozen=True)
class FundamentalUnitResult:
    unit: QuadElem
    norm_sign: int
    log_value: object  # mpf, natural log of the real embedding


CF_MAX_STEPS = 100000  # _cf_unit_search gives up after this many steps


def _cf_unit_search(d):
    """Walk the continued fraction of sqrt(d) (or (1+sqrt(d))/2 for d=1 mod 4)
    and return the first convergent giving a norm +-1 unit of the maximal
    order.  Classical theory places the fundamental unit among these.

    Every complete quotient xi = (P + sqrt(d))/Q it visits, the start and
    then reduced ones, has xi > 0 > xi', so Q = 2*sqrt(d)/(xi - xi') > 0
    and floor(xi) = (P + isqrt(d)) // Q exactly."""
    half_basis = d % 4 == 1
    s = isqrt(d)
    if half_basis:
        pp, qq = 1, 2  # omega = (1 + sqrt(d)) / 2
    else:
        pp, qq = 0, 1  # sqrt(d)
    h_prev, h = 0, 1  # h_{-2}, h_{-1}: convergent numerators
    k_prev, k = 1, 0
    p_cur, q_cur = pp, qq
    for _ in range(CF_MAX_STEPS):
        a = (p_cur + s) // q_cur
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        if half_basis:
            # candidate h - k*(1 - sqrt(d))/2 = (2h - k)/2 + (k/2) sqrt(d)
            norm = h * h - h * k + k * k * (1 - d) // 4
            if norm in (1, -1):
                unit = QuadElem(d, Fraction(2 * h - k, 2), Fraction(k, 2))
                return unit, norm
        else:
            norm = h * h - d * k * k
            if norm in (1, -1):
                unit = QuadElem(d, Fraction(h), Fraction(k))
                return unit, norm
        p_cur = a * q_cur - p_cur
        q_cur = (d - p_cur * p_cur) // q_cur
    raise ArithmeticError("continued fraction of sqrt(%d) did not close" % d)


@functools.lru_cache(maxsize=1024, typed=True)
def fundamental_unit(d, precision_bits=DEFAULT_PRECISION):
    """Fundamental unit > 1 of Q(sqrt(d)), exact, with its norm sign.
    Cached per (d, precision_bits); the result is immutable."""
    _check_squarefree(d)
    unit, norm = _cf_unit_search(d)
    assert is_quad_integer(unit) and abs(quad_norm(unit)) == 1
    assert surd_sign(unit.a - 1, unit.b, d) > 0, "unit must exceed 1"
    with mpf_ctx(precision_bits):
        log_value = mpmath.log(quad_embed(unit, precision_bits))
    return FundamentalUnitResult(unit, norm, log_value)


def sort_by_unit(entries, precision_bits=DEFAULT_PRECISION):
    """Pairs (tag, FundamentalUnitResult) sorted ascending by the real
    value of the unit, exactly.

    log_value, at precision p, is off by about 2^-p * (1 + log_value).
    A unit found in CF_MAX_STEPS steps has log_value of at most about
    CF_MAX_STEPS * log(2*sqrt(d) + 2), under 2^29 when log d < 10^4, so
    for p >= 64 the error is below 2^(-p/2 - 1): two logs more than
    2^(-p/2) apart order their units, and closer ones, equal ones
    included, are compared by quad_cmp.
    """
    tol = mpmath.ldexp(1, -(precision_bits // 2))

    def cmp(lhs, rhs):
        a, b = lhs[1].log_value, rhs[1].log_value
        if abs(a - b) <= tol:
            return quad_cmp(lhs[1].unit, rhs[1].unit)
        return -1 if a < b else 1

    return sorted(entries, key=functools.cmp_to_key(cmp))


def smallest_fundamental_units(bound, precision_bits=DEFAULT_PRECISION):
    """All (d, fundamental unit) for squarefree 2 <= d <= bound, sorted
    ascending by the real value of the unit (exact, sort_by_unit)."""
    return sort_by_unit([(d, fundamental_unit(d, precision_bits))
                         for d in range(2, bound + 1) if is_squarefree(d)],
                        precision_bits)
