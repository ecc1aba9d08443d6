from fractions import Fraction

import mpmath

from unitlat.precision import (fmt_sig, mpf_ctx, mpf_to_fraction,
                               reconstruct_rational)


def test_mpf_to_fraction_exact():
    with mpf_ctx(64):
        assert mpf_to_fraction(mpmath.mpf("0.25")) == Fraction(1, 4)
        assert mpf_to_fraction(mpmath.mpf(-3)) == -3
        assert mpf_to_fraction(mpmath.mpf(0)) == 0
        x = mpmath.mpf(7) / 32
        assert mpf_to_fraction(x) == Fraction(7, 32)


def test_reconstruct_rational():
    with mpf_ctx(128):
        x = mpmath.mpf(22) / 7 + mpmath.mpf(2) ** -100
        assert reconstruct_rational(x, 100) == Fraction(22, 7)
        half = mpmath.mpf(10 ** 12) + mpmath.mpf("0.5")
        assert reconstruct_rational(half, 10) == Fraction(2 * 10 ** 12 + 1, 2)


def test_fmt_sig_stable():
    with mpf_ctx(128):
        x = mpmath.mpf(1) / 3
    assert fmt_sig(x) == "0.333333333333"
    assert fmt_sig(x, 4) == "0.3333"
    assert fmt_sig(mpmath.mpf(2), 6) == "2.00000"
