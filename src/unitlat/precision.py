"""Working-precision helpers shared by the numeric pipelines.

Numeric quantities are evaluated once, at the working precision p plus
16 bits of headroom (mpf_ctx); nothing is re-run at a higher precision.
"""

import mpmath
from mpmath import mp


DEFAULT_PRECISION = 128


def mpf_ctx(bits):
    """Context manager setting mpmath binary precision with headroom."""
    return mpmath.workprec(bits + 16)


def fmt_sig(x, digits=12):
    """Decimal string with a fixed number of significant digits."""
    with mpmath.workprec(max(mp.prec, 4 * digits)):
        return mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=False)
