import mpmath

from unitlat.precision import fmt_sig, mpf_ctx


def test_fmt_sig_stable():
    with mpf_ctx(128):
        x = mpmath.mpf(1) / 3
    assert fmt_sig(x) == "0.333333333333"
    assert fmt_sig(x, 4) == "0.3333"
    assert fmt_sig(mpmath.mpf(2), 6) == "2.00000"
