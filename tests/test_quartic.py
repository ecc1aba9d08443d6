import itertools
import random
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings, strategies as st

import mpmath

from unitlat import quartic as qt
from unitlat.quartic import (CyclicQuarticField, NotCyclicError, QuarticElem,
                             embed_all, eval_poly_at,
                             galois_generator, is_algebraic_integer, is_unit,
                             norm_to_Q, qr_add, qr_mul,
                             quartic_is_irreducible, sqrt_of_rational)
from oracles import (char_poly, galois_generator_all_perms, qr_inv, qr_pow,
                     trial_division_irreducible)

# maximal real subfield of the 16th cyclotomic field
F = CyclicQuarticField((2, 0, -4, 0, 1))
# the shipped catalog fields with d of their quadratic subfield
# k = Q(sqrt(d)); Q(sqrt(2+sqrt2)) again through alpha = 2*sqrt(2+sqrt2),
# where Z[alpha] is not the maximal order, and through its relative unit
# u0, where N_{L/k}(alpha) = -1 is rational
FIELDS = {
    "sqrt(2+sqrt2)": (F, 2),
    "zeta20+": (CyclicQuarticField((5, 0, -5, 0, 1)), 5),
    "zeta15+": (CyclicQuarticField((1, 4, -4, -1, 1)), 5),
    "2*sqrt(2+sqrt2)": (CyclicQuarticField((32, 0, -16, 0, 1)), 2),
    "u0 of sqrt(2+sqrt2)": (CyclicQuarticField((1, 4, -6, -4, 1)), 2),
}
# Q(sqrt(2+sqrt2)) again through alpha = 10^7 sqrt(2+sqrt2):
# sigma(alpha) = -3 alpha + alpha^3 / 10^14 has a denominator above any
# fixed bound of 10^12, and trial division of c0 = 2 10^28 never ends
SCALED = CyclicQuarticField((2 * 10 ** 28, 0, -4 * 10 ** 14, 0, 1))
# cyclic fields whose shipped unit search fails (see ROADMAP item 9)
SEARCH_FAILS = {
    "x^4+x^3-6x^2-x+1": CyclicQuarticField((1, -1, -6, 1, 1)),
    "x^4-10x^2+5": CyclicQuarticField((5, 0, -10, 0, 1)),
    "x^4-82x^2+656": CyclicQuarticField((656, 0, -82, 0, 1)),
}


def rand_elem(field, rng, span=5):
    return QuarticElem(field, tuple(Fraction(rng.randint(-span, span))
                                    for _ in range(4)))


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(100):
        a, b, c = (rand_elem(F, rng) for _ in range(3))
        assert qr_mul(a, b) == qr_mul(b, a)
        assert qr_mul(a, qr_mul(b, c)) == qr_mul(qr_mul(a, b), c)
        assert qr_mul(a, qr_add(b, c)) == qr_add(qr_mul(a, b), qr_mul(a, c))


def test_defining_relation():
    alpha = F.gen()
    # alpha^4 = 4 alpha^2 - 2
    assert qr_pow(alpha, 4) == QuarticElem(F, (-2, 0, 4, 0))
    assert eval_poly_at(F, alpha).is_zero()


def test_norm_and_inverse():
    rng = random.Random(2)
    assert norm_to_Q(F.gen()) == 2
    for _ in range(40):
        a = rand_elem(F, rng)
        if a.is_zero():
            continue
        assert qr_mul(a, qr_inv(a)) == F.one()
    b = rand_elem(F, rng)
    assert norm_to_Q(qr_mul(F.gen(), b)) == 2 * norm_to_Q(b)


def test_char_poly_of_generator():
    assert char_poly(F.gen()) == [Fraction(c) for c in (1, 0, -4, 0, 2)]
    assert is_algebraic_integer(F.gen())
    assert not is_algebraic_integer(F.from_rational(Fraction(1, 2)))


def test_integrality_beyond_power_basis():
    # alpha/2 and alpha^3/8 are sqrt(2+sqrt2) and its cube; alpha/4 is
    # half of sqrt(2+sqrt2), not integral
    g, _ = FIELDS["2*sqrt(2+sqrt2)"]
    half, eighth = Fraction(1, 2), Fraction(1, 8)
    assert is_algebraic_integer(QuarticElem(g, (0, half, 0, 0)))
    assert is_algebraic_integer(QuarticElem(g, (0, 0, 0, eighth)))
    assert not is_algebraic_integer(QuarticElem(g, (0, Fraction(1, 4), 0, 0)))
    # 17 splits completely in F; with 56, 25 roots of the polynomial mod
    # 17^2 not paired by sigma^2 (alpha -> -alpha), a = (alpha - 56)
    # (alpha - 25)/17 has N_{L/k}(a) in O_k but Tr_{L/k}(a) not
    a = QuarticElem(F, (Fraction(-45, 17), Fraction(-81, 17), Fraction(1, 17), 0))
    assert not is_algebraic_integer(a)
    assert not all(c.denominator == 1 for c in char_poly(a))


@st.composite
def quartic_elements(draw, denominators=(1, 2, 4, 5), span=12):
    field, _ = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    q = draw(st.sampled_from(denominators))
    return QuarticElem(field, [Fraction(draw(st.integers(-span, span)), q)
                               for _ in range(4)])


@settings(max_examples=200, deadline=None)
@given(quartic_elements())
def test_tower_arithmetic_agrees_with_char_poly(a):
    poly = char_poly(a)
    integral = all(c.denominator == 1 for c in poly)
    assert is_algebraic_integer(a) == integral
    assert norm_to_Q(a) == poly[4]
    assert is_unit(a) == (integral and abs(poly[4]) == 1)
    if not a.is_zero():
        assert qr_mul(a, qr_inv(a)) == a.field.one()


def test_galois_generator_exact():
    sigma = galois_generator(F)
    # sigma(alpha) = alpha^3 - 3*alpha
    assert sigma.image == QuarticElem(F, (0, -3, 0, 1))
    assert eval_poly_at(F, sigma.image).is_zero()
    s2 = sigma.compose(sigma)
    assert not s2.is_identity()
    assert s2.compose(s2).is_identity()
    # automorphism property on random elements
    rng = random.Random(3)
    for _ in range(20):
        a, b = rand_elem(F, rng), rand_elem(F, rng)
        assert sigma(qr_mul(a, b)) == qr_mul(sigma(a), sigma(b))


def test_galois_generator_bounds_from_polynomial(monkeypatch):
    # sigma(alpha) has denominator 10^14, beyond the fixed bound of 10^12
    # an earlier reconstruction used; the exact solve finds it at the
    # precision read off the coefficients
    monkeypatch.setattr(qt, "quartic_is_irreducible", lambda coeffs: True)
    sigma = galois_generator(SCALED)
    assert sigma.image == QuarticElem(
        SCALED, (0, -3, 0, Fraction(1, 10 ** 14)))
    assert sigma.compose(sigma).compose(sigma.compose(sigma)).is_identity()


def test_scaled_field_is_cyclic():
    # alpha scaled by 10^7 scales the root differences by 10^7, so disc f
    # by 10^84
    assert quartic_is_irreducible(SCALED.coeffs)
    assert qt.discriminant(SCALED.coeffs) == 10 ** 84 * 2048
    assert SCALED.sigma.root_perm == F.sigma.root_perm


def test_four_cycles():
    # exactly the 6 permutations whose orbit of root 0 has length 4, in
    # lexicographic order
    def orbit(p):
        seen, i = [0], p[0]
        while i != 0:
            seen.append(i)
            i = p[i]
        return seen
    want = [p for p in itertools.permutations(range(4)) if len(orbit(p)) == 4]
    assert list(qt.FOUR_CYCLES) == want and len(want) == 6


@pytest.mark.parametrize("name", sorted(FIELDS) + ["scaled"])
def test_four_cycle_sigma_matches_all_permutations(name, monkeypatch):
    # the 4-cycle loop returns the sigma that rational reconstruction over
    # all 18 permutations moving root 0 returns, under the denominator
    # bound isqrt(|disc f|) of [O_L : Z[alpha]] (Cohen, GTM 138, 4.4), and
    # tests a candidate only at 4-cycles up to it
    field = SCALED if name == "scaled" else FIELDS[name][0]
    denom_bound = isqrt(abs(qt.discriminant(field.coeffs)))
    want = galois_generator_all_perms(field, denom_bound, 512)
    calls = []
    evaluate = qt.eval_poly_at

    def counting(fld, elem):
        calls.append(elem)
        return evaluate(fld, elem)

    monkeypatch.setattr(qt, "eval_poly_at", counting)
    got = galois_generator(field)
    assert got.image == want.image
    assert got.root_perm == want.root_perm
    assert len(calls) == qt.FOUR_CYCLES.index(got.root_perm) + 1


@pytest.mark.parametrize("name", sorted(FIELDS) + ["scaled"]
                         + sorted(SEARCH_FAILS))
def test_root_perm_maps_roots(name):
    # sigma(alpha) at root i is root root_perm[i], the nearest of the four
    field = {"scaled": SCALED, **SEARCH_FAILS}.get(name) or FIELDS[name][0]
    sigma = field.sigma
    roots = field.roots(128)
    for i, value in enumerate(embed_all(sigma.image, 128)):
        dist = [abs(value - r) for r in roots]
        assert dist.index(min(dist)) == sigma.root_perm[i]
        assert dist[sigma.root_perm[i]] < 2 ** -100 * max(1, abs(value))


def _transport(elem, alpha):
    """elem, a polynomial in its field's generator, evaluated at alpha."""
    acc = alpha.field.from_rational(0)
    for c in reversed(elem.coords):
        acc = qr_add(qr_mul(acc, alpha), alpha.field.from_rational(c))
    return acc


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["sqrt(2+sqrt2)", "zeta20+", "zeta15+"]),
       st.integers(1, 10 ** 9), st.integers(-10 ** 6, 10 ** 6))
def test_sigma_of_affine_generator(name, m, a):
    # beta = m alpha + a has minimal polynomial m^4 f((x - a)/m), roots
    # m r_i + a in the same order, and sigma(beta) = m sigma(alpha) + a:
    # root sizes up to ~10^9 m + 10^6, far past SCALED's 10^7
    base = FIELDS[name][0]
    coeffs = [0] * 5
    for k, c in enumerate(base.coeffs):
        for i in range(k + 1):
            coeffs[i] += c * m ** (4 - k) * comb(k, i) * (-a) ** (k - i)
    field = CyclicQuarticField(tuple(coeffs))
    alpha = QuarticElem(field, (Fraction(-a, m), Fraction(1, m), 0, 0))
    want = qr_add(qr_mul(field.from_rational(m),
                         _transport(base.sigma.image, alpha)),
                  field.from_rational(a))
    got = galois_generator(field)
    assert got.image == want
    assert got.root_perm == base.sigma.root_perm


@pytest.mark.parametrize("name", sorted(FIELDS) + ["scaled"])
def test_discriminant(name):
    # det of the trace matrix, whose entries are the power sums of the
    # roots
    field = SCALED if name == "scaled" else FIELDS[name][0]
    disc = qt.discriminant(field.coeffs)
    bits = 2 * disc.bit_length() + 64
    with mpmath.workprec(bits):
        roots = field.roots(bits)
        prod = mpmath.fprod((r - s) ** 2 for i, r in enumerate(roots)
                            for s in roots[i + 1:])
        assert abs(prod - disc) < 1e-6 * abs(disc)
        for j, row in enumerate(qt.trace_matrix(field.coeffs)):
            for k, v in enumerate(row):
                power_sum = mpmath.fsum(r ** (j + k) for r in roots)
                assert abs(power_sum - v) < 1e-6 * max(1, abs(v))
    known = {"sqrt(2+sqrt2)": 2048, "zeta20+": 2000, "zeta15+": 1125}
    assert disc == known.get(name, disc)


def _direct_roots(coeffs, bits):
    """Real roots, descending, from a fresh mpmath.polyroots at bits."""
    with qt.mpf_ctx(bits):
        rts = mpmath.polyroots([mpmath.mpf(c) for c in coeffs[::-1]],
                               maxsteps=200, extraprec=bits)
        return sorted((mpmath.re(r) for r in rts), reverse=True)


def _count_root_solves(monkeypatch):
    """Clear the root caches; the returned list then receives the
    extraprec of every mpmath.polyroots call."""
    calls = []
    polyroots = mpmath.polyroots

    def counting(*args, **kwargs):
        calls.append(kwargs["extraprec"])
        return polyroots(*args, **kwargs)

    qt._solve.cache_clear()
    qt._real_roots.cache_clear()
    monkeypatch.setattr(mpmath, "polyroots", counting)
    return calls


def _close(got, direct, bits):
    with qt.mpf_ctx(bits):
        return all(abs(g - d) <= abs(d) * mpmath.mpf(2) ** -(bits + 14)
                   for g, d in zip(got, direct))


def test_one_root_solve_per_polynomial(monkeypatch):
    # every later precision is refined from the one solve by Newton's
    # method and agrees with a direct solve at that precision
    field = FIELDS["zeta15+"][0]
    direct = {bits: _direct_roots(field.coeffs, bits)
              for bits in (64, 128, 300)}
    calls = _count_root_solves(monkeypatch)
    got = {bits: field.roots(bits) for bits in (128, 300, 64, 128)}
    assert len(calls) == 1
    for bits in (64, 128, 300):
        assert _close(got[bits], direct[bits], bits)


def test_newton_down_from_cauchy_precision(monkeypatch):
    # SCALED is solved at its Cauchy precision, 222 bits, above the
    # working precisions 64 and 128: Newton goes down to them as it goes
    # up to 300, each as close to a direct solve
    assert qt._cauchy_bits(SCALED.coeffs) == 222
    direct = {bits: _direct_roots(SCALED.coeffs, bits)
              for bits in (64, 128, 300)}
    calls = _count_root_solves(monkeypatch)
    for bits in (64, 128, 300):
        assert _close(SCALED.roots(bits), direct[bits], bits)
    assert calls == [222]


def test_newton_at_cancelling_roots(monkeypatch):
    # f(x - 287) for f = x^4 - 4x^2 + 2: roots near 287 with coefficients
    # up to 6.8 10^9, so Horner's rule cancels ~24 bits at each root and
    # Newton at a fixed 32 guard bits stalled above its stopping threshold
    coeffs = (6784322687, -94557316, 494210, -1148, 1)
    direct = {bits: _direct_roots(coeffs, bits) for bits in (128, 196)}
    _count_root_solves(monkeypatch)
    field = CyclicQuarticField(coeffs)
    for bits in (128, 196):
        assert _close(field.roots(bits), direct[bits], bits)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=4, max_size=4))
def test_irreducible_matches_trial_division(low):
    coeffs = tuple(low) + (1,)
    assert quartic_is_irreducible(coeffs) == trial_division_irreducible(coeffs)


@pytest.mark.parametrize("factors", [
    ((-7 * 10 ** 6, 1), (3 * 10 ** 5, 0, 0, 1), (1,)),  # linear times cubic
    ((10 ** 6 + 3, 1), (-(10 ** 6 + 3), 1), (2, 0, 1)),
    ((10 ** 6, -3, 1), (10 ** 6 + 7, 5, 1), (1,)),
    ((-10 ** 7, 1), (-10 ** 7, 1), (10 ** 14, -2 * 10 ** 7, 1)),  # a 4-fold root
])
def test_irreducible_finds_large_factors(factors):
    # constant terms from 2 10^12 to 10^28: trial division of c0 takes
    # 0.1 s at the first and never ends at the last
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out
    coeffs = tuple(mul(mul(factors[0], factors[1]), factors[2]))
    assert len(coeffs) == 5 and coeffs[4] == 1
    assert not quartic_is_irreducible(coeffs)


def test_sqrt_of_rational():
    root = sqrt_of_rational(F, 2)
    assert root == QuarticElem(F, (-2, 0, 1, 0))  # alpha^2 - 2
    assert embed_all(root, 64)[0] > 0
    assert sqrt_of_rational(F, 3) is None
    assert sqrt_of_rational(F, -2) is None


def _is_rational_square(q):
    q = Fraction(q)
    return all(isqrt(v) ** 2 == v for v in (q.numerator, q.denominator))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_sqrt_of_rational_is_exact(name):
    # the even polynomials have Tr_{L/k}(alpha) = 0, so the square root
    # comes from N_{L/k}(alpha); for u0 it comes from the trace
    field, d = FIELDS[name]
    alpha = field.gen()
    conj = field.sigma2(alpha)
    assert qr_add(alpha, conj).is_rational() == (field.coeffs[3] == 0)
    assert qr_mul(alpha, conj).is_rational() == name.startswith("u0")
    for q in [Fraction(n) for n in range(1, 61)] + [
            Fraction(5, 4), Fraction(1, 2), Fraction(8, 9), Fraction(20, 49),
            Fraction(3, 5)]:
        root = sqrt_of_rational(field, q)
        expected = _is_rational_square(q) or _is_rational_square(q / d)
        assert (root is not None) == expected, q
        if root is not None:
            assert qr_mul(root, root) == field.from_rational(q)
            assert embed_all(root)[0] > 0


def test_embeddings_descending_and_conjugate():
    roots = F.roots(96)
    assert all(roots[i] > roots[i + 1] for i in range(3))
    assert abs(float(roots[0]) - (2 + 2 ** 0.5) ** 0.5) < 1e-12
    # norm as product of embeddings
    a = QuarticElem(F, (1, 1, 0, 0))
    prod = 1.0
    for v in embed_all(a, 96):
        prod *= float(v)
    assert abs(prod - float(norm_to_Q(a))) < 1e-9


def test_not_cyclic_rejected():
    with pytest.raises(NotCyclicError):
        CyclicQuarticField((-2, 0, 0, 0, 1)).roots()  # x^4 - 2, complex roots
    with pytest.raises(NotCyclicError):
        # x^4 - 10x^2 + 1 is totally real but biquadratic (Klein group)
        galois_generator(CyclicQuarticField((1, 0, -10, 0, 1)))
    # reducible: Q[x]/(f) is not a field, although it has an automorphism
    # of order 4 permuting the roots
    for coeffs in ((4, 0, -5, 0, 1), (1, 0, -3, 0, 1)):
        with pytest.raises(NotCyclicError, match="reducible"):
            CyclicQuarticField(coeffs).sigma


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_total_reality_decided_before_solving(bits, monkeypatch):
    # (x^2 - 10^40)^2 + 1 has no real root, but its roots lie within
    # 10^-20 of the real axis: Newton on the real parts did not converge
    # at 64 and 128 bits.  The trace matrix refuses it, and (x^2 - 2)^2,
    # whose double roots it returned twice, with no root solved
    calls = _count_root_solves(monkeypatch)
    with pytest.raises(NotCyclicError, match="not totally real"):
        CyclicQuarticField((10 ** 80 + 1, 0, -2 * 10 ** 40, 0, 1)).roots(bits)
    with pytest.raises(NotCyclicError, match="repeated root"):
        CyclicQuarticField((4, 0, -4, 0, 1)).roots(bits)
    assert calls == []


def test_irreducibility():
    assert quartic_is_irreducible((2, 0, -4, 0, 1))
    assert not quartic_is_irreducible((4, 0, -4, 0, 1))   # (x^2-2)^2
    assert not quartic_is_irreducible((4, 0, -5, 0, 1))   # (x^2-1)(x^2-4)
    assert not quartic_is_irreducible((1, 0, -3, 0, 1))   # (x^2-x-1)(x^2+x-1)
    assert not quartic_is_irreducible((-2, 1, 0, -2, 1))  # root x = 2
    assert quartic_is_irreducible((1, 0, -10, 0, 1))  # min poly of sqrt2+sqrt3


def test_bad_polynomial_rejected():
    with pytest.raises(ValueError):
        CyclicQuarticField((1, 0, -4, 0, 2))  # not monic
    with pytest.raises(ValueError):
        CyclicQuarticField((2.5, 0, -4, 0, 1))  # not integer
    with pytest.raises(ValueError):
        CyclicQuarticField((1, 0, 1))
