"""Working-precision helpers shared by the numeric pipelines.

Numeric quantities are evaluated once, at the working precision p plus
16 bits of headroom (mpf_ctx); nothing is re-run at a higher precision.
"""

from fractions import Fraction

import mpmath
from mpmath import mp


DEFAULT_PRECISION = 128


def mpf_ctx(bits):
    """Context manager setting mpmath binary precision with headroom."""
    return mpmath.workprec(bits + 16)


def mpf_to_fraction(x):
    """Exact rational value of an mpf (mpfs are dyadic rationals)."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    frac = Fraction(man, 1)
    if exp >= 0:
        frac *= 2 ** exp
    else:
        frac /= 2 ** (-exp)
    return -frac if sign else frac


def reconstruct_rational(x, denom_bound):
    """Best rational approximation of mpf x with denominator <= denom_bound."""
    return mpf_to_fraction(x).limit_denominator(denom_bound)


def fmt_sig(x, digits=12):
    """Decimal string with a fixed number of significant digits."""
    with mpmath.workprec(max(mp.prec, 4 * digits)):
        return mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=False)
