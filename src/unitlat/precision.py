"""Working-precision helpers shared by the numeric pipelines.

Numeric quantities are evaluated once, at the working precision p plus
16 bits of headroom (mpf_ctx); nothing is re-run at a higher precision.
"""

import mpmath
from mpmath import mp
from mpmath.libmp import mpf_pos, round_nearest, to_str


DEFAULT_PRECISION = 128


def mpf_ctx(bits):
    """Context manager setting mpmath binary precision with headroom."""
    return mpmath.workprec(bits + 16)


def fmt_sig(x, digits=12):
    """The mpf x with a fixed number of significant digits, as mpmath.nstr
    prints +x at precision max(mp.prec, 4*digits) with strip_zeros False."""
    prec = max(mp.prec, 4 * digits)
    return to_str(mpf_pos(x._mpf_, prec, round_nearest), digits, False)
