import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from unitlat.precision import fmt_sig, mpf_ctx
from oracles import nstr_fmt_sig


def test_fmt_sig_stable():
    with mpf_ctx(128):
        x = mpmath.mpf(1) / 3
    assert fmt_sig(x) == "0.333333333333"
    assert fmt_sig(x, 4) == "0.3333"
    assert fmt_sig(mpmath.mpf(2), 6) == "2.00000"


# binary exponents near 1 (fixed-point output), past +-3500 (to_str's
# rescaled branch) and far beyond
EXPONENTS = st.one_of(st.integers(-80, 80), st.integers(-5000, 5000),
                      st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=600, deadline=None)
@given(prec=st.integers(53, 2000), digits=st.integers(3, 12),
       man=st.integers(-2 ** 2100, 2 ** 2100), exp=EXPONENTS,
       inside=st.booleans())
def test_fmt_sig_matches_nstr(prec, digits, man, exp, inside):
    # one rounding and to_str print what nstr of mpf(x) prints, whether
    # the caller formats inside the value's working precision or at the
    # default 53 bits, for zero, either sign and any exponent
    with mpmath.workprec(prec):
        x = mpmath.mpf((man, exp))
        if inside:
            assert fmt_sig(x, digits) == nstr_fmt_sig(x, digits)
    assert fmt_sig(x, digits) == nstr_fmt_sig(x, digits)


# a quarter of a 53-bit ulp below the least 53-bit value at or above the
# 12-digit rounding boundary 0.1234567890125: rounded to nearest, not
# down, before its digits are cut, it prints 0.123456789013
with mpmath.workprec(200):
    NEAR_TIE = (mpmath.mpf("0.1234567890125", prec=53, rounding="u")
                - mpmath.ldexp(1, -58))


@pytest.mark.parametrize("x", [mpmath.mpf(0), mpmath.inf, -mpmath.inf,
                               mpmath.nan, mpmath.mpf(-0.5),
                               mpmath.mpf("9.9999999999995"),
                               mpmath.mpf("1e-400000"), mpmath.mpf("-1e400000"),
                               NEAR_TIE, -NEAR_TIE])
@pytest.mark.parametrize("digits", [3, 12])
def test_fmt_sig_special_values_match_nstr(x, digits):
    # zero, the infinities, nan, a carry that rounds up to 10.0, exponents
    # far outside float range and the one rounding's direction
    assert fmt_sig(x, digits) == nstr_fmt_sig(x, digits)
    if x == NEAR_TIE and digits == 12:
        assert fmt_sig(x) == "0.123456789013"
