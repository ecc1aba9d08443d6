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

CF_MAX_STEPS = 100000  # _cf_unit_search gives up after this many steps
SQUAREFREE_MAX_STEPS = 2000000  # is_squarefree gives up at this divisor


class UnitSearchError(ArithmeticError):
    """A bounded search gave up: a continued fraction did not close
    within CF_MAX_STEPS steps, or trial division did not decide
    squarefreeness below SQUAREFREE_MAX_STEPS."""


@functools.lru_cache(maxsize=4096, typed=True)
def is_squarefree(d):
    """True iff d >= 1 has no square factor > 1, in O(d^(1/3)) steps.

    Each i with i^3 <= m, m what is left of d, is divided out once; a
    second division means i^2 | d.  No prime below the final i divides
    the cofactor m, and i^3 > m, so m has at most two prime factors: it
    is squarefree unless it is a perfect square > 1.  At i =
    SQUAREFREE_MAX_STEPS (every d < 8e18 is decided before), m is
    undecided: UnitSearchError, never "not squarefree".  Memoized, as
    every QuadElem construction checks its d.
    """
    if d < 1:
        return False
    m, i = d, 2
    while i * i * i <= m:
        if i == SQUAREFREE_MAX_STEPS:
            raise UnitSearchError(
                "cannot decide whether %d is squarefree: trial division "
                "gave up at the budget of %d steps" % (d, SQUAREFREE_MAX_STEPS))
        if m % i == 0:
            m //= i
            if m % i == 0:
                return False
        i += 1
    return m == 1 or isqrt(m) ** 2 != m


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
        for name in ("a", "b"):
            value = getattr(self, name)
            if type(value) is not Fraction:  # a Fraction is kept as it is
                object.__setattr__(self, name, Fraction(value))

    def __str__(self):
        return "(%s) + (%s)*sqrt(%d)" % (self.a, self.b, self.d)

    def to_json(self):
        return {"d": self.d, "a": str(self.a), "b": str(self.b)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["d"], Fraction(obj["a"]), Fraction(obj["b"]))


def quad_norm(x):
    return x.a * x.a - x.d * x.b * x.b


def _rational_sqrt(q):
    """Exact square root of a Fraction, or None when q is not a square."""
    if q < 0:
        return None
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    if n * n != q.numerator or d * d != q.denominator:
        return None
    return Fraction(n, d)


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


@dataclass(frozen=True)
class FundamentalUnitResult:
    """The fundamental unit u = (A + B*sqrt(d))/den > 1 of Q(sqrt(d)), its
    norm and the integers (A, B, den) it was found as; log_value, the
    natural log of its real embedding at precision_bits, is computed on
    first read (see fundamental_unit)."""

    unit: QuadElem
    norm_sign: int
    integers: tuple  # (A, B, den)
    precision_bits: int

    @functools.cached_property
    def log_value(self):
        A, B, den = self.integers
        with mpf_ctx(self.precision_bits):
            return mpmath.log(
                (mpmath.mpf(A) + mpmath.mpf(B) * mpmath.sqrt(self.unit.d))
                / den)


def _cf_unit_search(d):
    """Walk the continued fraction of sqrt(d) (or (1+sqrt(d))/2 for d=1 mod 4)
    and return the first convergent giving a norm +-1 unit of the maximal
    order, as integers (A, B, den, N): the unit is (A + B*sqrt(d))/den,
    den in {1, 2}, of norm N.  Classical theory places the fundamental
    unit among these.

    Each step takes the partial quotient a of the complete quotient
    xi = (P + sqrt(d))/Q and steps to the next one.  Each xi the walk
    visits, the start and then reduced ones, has xi > 0 > xi', so
    Q = 2*sqrt(d)/(xi - xi') > 0 and floor(xi) = (P + isqrt(d)) // Q
    exactly.  The convergents h/k are built in the same step.

    For the n-th convergent h/k of xi_0 = (P_0 + sqrt(d))/Q_0,
    (Q_0*h - P_0*k)^2 - d*k^2 = (-1)^(n+1) * Q_0 * Q_(n+1) (Perron).  The
    candidate unit ((Q_0*h - P_0*k) + k*sqrt(d))/Q_0, h + k*sqrt(d) or
    h - k*(1 - sqrt(d))/2, has that left side over Q_0^2 as its norm,
    (-1)^(n+1) * Q_(n+1)/Q_0: it is +-1 exactly when the next
    denominator Q_(n+1) is back at Q_0, and its sign flips each step.
    A walk that gives up after CF_MAX_STEPS steps has built convergents
    no larger than those of a period just within the budget, whose unit
    it would have returned.
    """
    # xi_0 = (P_0 + sqrt(d))/Q_0: (1 + sqrt(d))/2 for d = 1 mod 4, else sqrt(d)
    p0, q0 = (1, 2) if d % 4 == 1 else (0, 1)
    s, p, q, norm = isqrt(d), p0, q0, 1
    h_prev, h = 0, 1  # h_{-2}, h_{-1}: convergent numerators
    k_prev, k = 1, 0
    for _ in range(CF_MAX_STEPS):
        a = (p + s) // q
        p = a * q - p
        q = (d - p * p) // q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        norm = -norm
        if q == q0:
            return q0 * h - p0 * k, k, q0, norm
    raise UnitSearchError("continued fraction of sqrt(%d) did not close "
                          "within %d steps" % (d, CF_MAX_STEPS))


def fundamental_unit(d, precision_bits=DEFAULT_PRECISION):
    """Fundamental unit > 1 of Q(sqrt(d)), exact, with its norm sign; d
    is checked to be a squarefree integer > 1.  Cached per
    (d, precision_bits), with no bound; the result is immutable.

    The search's integers (A, B, den, N), u = (A + B*sqrt(d))/den, are
    checked as integers.  A^2 - d*B^2 = N*den^2 with N = +-1 makes u a
    unit of the maximal order.  For den = 1, u lies in Z[sqrt(d)].  For
    den = 2 (the search gives it for d = 1 mod 4), A^2 = d*B^2 mod 4 and
    squares are 0 or 1 mod 4: d = 1 mod 4 gives A = B mod 2 and
    u = (A - B)/2 + B*(1 + sqrt(d))/2, and d = 2 or 3 mod 4 makes A and
    B even.  Either way the norm of u is (A^2 - d*B^2)/den^2 = N.
    A, B >= 1 with den <= 2 and d >= 2 give u >= (1 + sqrt(2))/2 > 1.

    The log, taken when log_value is first read, is
    log((A + B*sqrt(d))/den), evaluated as
    (mpf(A) + mpf(B)*sqrt(d))/den: the value, bit for bit, of the real
    embedding a + b*sqrt(d) of the reduced coordinates a = A/den,
    b = B/den evaluated as mpf(num(a))/den(a) + mpf(num(b))/den(b)*sqrt(d).
    mpmath rounds each operation to the working precision with an
    unbounded exponent, so scaling by a power of 2 commutes with
    rounding, and den is 1 or 2.  For den = 1 both read
    mpf(A) + mpf(B)*sqrt(d).  For den = 2, A = B mod 2, so a and b both
    have denominator 2 or both are integers A/2, B/2; in each case
    mpf(num(a))/den(a) = mpf(A)/2 and the same for b, and
    mpf(A)/2 + (mpf(B)/2)*sqrt(d) = (mpf(A) + mpf(B)*sqrt(d))/2.
    """
    _check_squarefree(d)
    return _fundamental_unit(d, precision_bits)


@functools.lru_cache(maxsize=None, typed=True)
def _fundamental_unit(d, precision_bits):
    """fundamental_unit for a d already known to be squarefree, with no
    trial division: the Klein path's d3 (units.subfield_units)."""
    A, B, den, norm = _cf_unit_search(d)
    assert A * A - d * B * B == norm * den * den and norm in (1, -1)
    assert A > 0 and B > 0, "unit must exceed 1"
    unit = object.__new__(QuadElem)  # QuadElem(d, A/den, B/den), d unchecked
    for name, value in (("d", d), ("a", Fraction(A, den)),
                        ("b", Fraction(B, den))):
        object.__setattr__(unit, name, value)
    return FundamentalUnitResult(unit, norm, (A, B, den), precision_bits)


def unit_key(res):
    """Sort key (T, -N) of a FundamentalUnitResult: T = 2a the trace and
    N = +-1 the norm of its unit u = a + b*sqrt(d) > 1.

    u is the larger root of x^2 - T*x + N, u(T, N) = (T + sqrt(T^2 - 4N))/2.
    For a fixed N it grows strictly with T, and for a fixed T, N = -1
    gives the larger u.  Across traces, u(T, -1) < u(T + 1, +1) for
    T >= 2, as sqrt(T^2 + 4) < 1 + sqrt(T^2 + 2T - 3) (squared:
    3 - T < sqrt((T + 3)(T - 1))); for T = 1, u(2, +1) = 1 is no unit
    > 1.  So on units > 1, u increases strictly with (T, -N) in
    lexicographic order.  T^2 - 4N = (2b)^2 * d with d squarefree, so
    units of distinct fields have distinct keys.
    """
    return 2 * res.unit.a.numerator // res.unit.a.denominator, -res.norm_sign


def smallest_fundamental_units(bound):
    """All (d, unit_key) for squarefree 2 <= d <= bound, sorted ascending
    by the real value of the fundamental unit; each key, T = 2A/den, is
    read off _cf_unit_search's integers, with no log and no QuadElem."""
    found = ((d, _cf_unit_search(d)) for d in range(2, bound + 1)
             if is_squarefree(d))
    return sorted(((d, (2 * A // den, -norm)) for d, (A, _, den, norm)
                   in found), key=lambda entry: entry[1])
