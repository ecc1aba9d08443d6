import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from unitlat import quartic as qt
from unitlat import units as us
from unitlat.biquadratic import BiquadField
from unitlat.quadratic import fundamental_unit, is_squarefree
from unitlat.quartic import QuarticElem, mul_coords, qr_add, qr_mul, qr_neg
from oracles import (GALOIS_KLEIN, SQUAREFREE_1000, biq_inv, biq_norm_to_Q,
                     char_poly, embed_real, galois_apply,
                     is_algebraic_integer, is_unit, qr_pow, sqrt_in_field)

SQUAREFREE = [d for d in range(2, 60) if is_squarefree(d)]


def rand_elem(field, rng, span=6):
    return QuarticElem(field, [Fraction(rng.randint(-span, span),
                                        rng.randint(1, 3)) for _ in range(4)])


def test_field_structure():
    f = BiquadField(2, 5)
    assert (f.s, f.d3) == (1, 10)
    f = BiquadField(6, 10)
    assert (f.s, f.d3) == (2, 15)  # d1*d2 = 60 is not squarefree
    with pytest.raises(ValueError):
        BiquadField(4, 5)
    with pytest.raises(ValueError):
        BiquadField(3, 3)


def test_ring_axioms_random():
    rng = random.Random(3)
    f = BiquadField(6, 10)
    for _ in range(100):
        a, b, c = (rand_elem(f, rng) for _ in range(3))
        assert qr_mul(a, b) == qr_mul(b, a)
        assert qr_mul(a, qr_mul(b, c)) == qr_mul(qr_mul(a, b), c)
        assert qr_mul(a, qr_add(b, c)) == qr_add(qr_mul(a, b), qr_mul(a, c))


@pytest.mark.parametrize("d1, d2", [(2, 5), (6, 10), (10, 15), (3, 21)])
def test_mul_coords_basis_products(d1, d2):
    # each product of two of sqrt(d1), sqrt(d2), sqrt(d3) is a positive
    # multiple of one basis vector whose square is the product of the
    # radicands, as sqrt(d_i)*sqrt(d_j) = sqrt(d_i*d_j) must be
    f = BiquadField(d1, d2)
    radicands = (f.d1, f.d2, f.d3)
    basis = [tuple(int(i == k) for i in range(4)) for k in (1, 2, 3)]
    for (i, ei), (j, ej) in itertools.combinations_with_replacement(
            enumerate(basis), 2):
        p = mul_coords(ei, ej, f.table)
        assert sum(1 for c in p if c) == 1 and all(c >= 0 for c in p)
        assert mul_coords(p, p, f.table) == (radicands[i] * radicands[j],
                                             0, 0, 0)


def test_galois_action_is_homomorphism():
    rng = random.Random(4)
    for d1, d2 in ((2, 5), (6, 10), (3, 7)):
        f = BiquadField(d1, d2)
        for _ in range(50):
            a, b = rand_elem(f, rng), rand_elem(f, rng)
            for g in GALOIS_KLEIN:
                assert galois_apply(g, qr_mul(a, b)) == \
                    qr_mul(galois_apply(g, a), galois_apply(g, b))


def test_norm_multiplicative_and_inverse():
    rng = random.Random(5)
    f = BiquadField(2, 5)
    for _ in range(50):
        a, b = rand_elem(f, rng), rand_elem(f, rng)
        assert biq_norm_to_Q(qr_mul(a, b)) == biq_norm_to_Q(a) * biq_norm_to_Q(b)
        if any(a.coords):
            assert qr_mul(a, biq_inv(a)) == QuarticElem(f, (1, 0, 0, 0))


def test_char_poly_and_integrality():
    f = BiquadField(2, 5)
    sqrt2 = QuarticElem(f, (0, 1, 0, 0))
    assert char_poly(sqrt2) == [Fraction(c) for c in (1, 0, -4, 0, 4)]
    half_phi = QuarticElem(f, (Fraction(1, 2), 0, Fraction(1, 2), 0))  # (1+sqrt5)/2
    assert is_algebraic_integer(half_phi)
    assert not is_algebraic_integer(QuarticElem(f, (Fraction(1, 2), 0, 0, 0)))
    # (1+sqrt17)/4 has integral relative norm -1 but trace 1/2
    quarter = QuarticElem(BiquadField(2, 17), (Fraction(1, 4), 0,
                                               Fraction(1, 4), 0))
    assert char_poly(quarter)[2] == Fraction(-7, 4)
    assert not is_algebraic_integer(quarter)
    assert is_unit(half_phi)
    assert not is_unit(QuarticElem(f, (2, 0, 0, 0)))


@st.composite
def klein_fields(draw):
    d1, d2 = draw(st.lists(st.sampled_from(SQUAREFREE), min_size=2,
                           max_size=2, unique=True))
    return BiquadField(d1, d2)


@st.composite
def field_elements(draw, denominators=(1, 2, 3, 12), span=10 ** 6):
    field = draw(klein_fields())
    q = draw(st.sampled_from(denominators))
    return QuarticElem(field, [Fraction(draw(st.integers(-span, span)), q)
                               for _ in range(4)])


@settings(max_examples=100, deadline=None)
@given(klein_fields(), st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=8,
                                max_size=8), st.integers(1, 12))
def test_mul_coords_exact_on_ints_and_fractions(f, coords, q):
    # integer numerators over q multiply to the Fraction product over q^2
    a, b = tuple(coords[:4]), tuple(coords[4:])
    want = qr_mul(QuarticElem(f, [Fraction(c, q) for c in a]),
                  QuarticElem(f, [Fraction(c, q) for c in b]))
    assert QuarticElem(f, [Fraction(c, q * q)
                           for c in mul_coords(a, b, f.table)]) == want
    assert all(type(c) is int for c in mul_coords(a, b, f.table))


def test_field_computes_s_and_d3_once(monkeypatch):
    f = BiquadField(6, 10)
    assert (f.s, f.d3) == (2, 15)
    monkeypatch.setattr(math, "gcd", None)  # a second gcd would raise
    a = (1, 2, 3, 4)
    assert mul_coords(a, a, f.table) == (1 + 24 + 90 + 240, 4 + 120, 6 + 48,
                                         8 + 24)
    assert (f.s, f.d3) == (2, 15)


@settings(max_examples=200, deadline=None)
@given(field_elements(denominators=(1, 2, 4), span=12))
def test_integrality_agrees_with_char_poly(a):
    poly = char_poly(a)
    expected = all(c.denominator == 1 for c in poly)
    assert is_algebraic_integer(a) == expected
    assert is_unit(a) == (expected and abs(poly[4]) == 1)


@st.composite
def klein_kernel_elements(draw):
    """An element of Q(sqrt(d1), sqrt(d2)), d <= 1000: small coordinates
    over a small denominator, or a product of the field's generators of
    O_L^*, itself or halved."""
    d1, d2 = draw(st.lists(st.sampled_from(SQUAREFREE_1000), min_size=2,
                           max_size=2, unique=True))
    field = BiquadField(d1, d2)
    if draw(st.booleans()):
        q = draw(st.sampled_from((1, 2, 3, 4)))
        return QuarticElem(field, [Fraction(draw(st.integers(-6, 6)), q)
                                   for _ in range(4)])
    a = QuarticElem(field, (1, 0, 0, 0))
    for g in us.klein_generators(_structure(d1, d2)):
        if draw(st.booleans()):
            a = qr_mul(a, g)
    q = draw(st.sampled_from((1, 2)))
    return QuarticElem(field, [c / q for c in a.coords])


@settings(max_examples=200, deadline=None)
@given(klein_kernel_elements())
def test_kernel_agrees_with_klein_tower(a):
    # the char-poly kernel against the tower over K = Q(sqrt(d1)) and
    # the Galois product a*s1(a)*s2(a)*s3(a)
    poly = qt.char_poly(a)
    assert all(c.denominator == 1 for c in poly) == is_algebraic_integer(a)
    assert poly[4] == biq_norm_to_Q(a)
    assert qt.is_unit(a) == is_unit(a)


def test_embeddings_match_floats():
    f = BiquadField(2, 5)
    a = QuarticElem(f, (1, 2, 3, 4))
    r2, r5, r10 = 2 ** 0.5, 5 ** 0.5, 10 ** 0.5
    expected = [1 + 2 * r2 + 3 * r5 + 4 * r10,
                1 + 2 * r2 - 3 * r5 - 4 * r10,
                1 - 2 * r2 + 3 * r5 - 4 * r10,
                1 - 2 * r2 - 3 * r5 + 4 * r10]
    got = embed_real(a, 64)
    for g, e in zip(got, expected):
        assert abs(float(g) - e) < 1e-10


def test_sqrt_roundtrip_random_squares():
    rng = random.Random(6)
    f = BiquadField(3, 5)
    for _ in range(20):
        a = rand_elem(f, rng, span=4)
        if not any(a.coords):
            continue
        sq = qr_mul(a, a)
        root = sqrt_in_field(sq)
        assert root is not None
        assert qr_mul(root, root) == sq
        assert root == a or root == qr_neg(a)


@functools.lru_cache(maxsize=None)
def _structure(d1, d2):
    return us.klein_unit_structure(d1, d2)


@settings(max_examples=60, deadline=None)
@given(field_elements())
def test_sqrt_of_square_times_unit_pattern(a):
    """sqrt(a^2) is +-a, the one with positive id-embedding; a^2 * u^e is
    a square exactly for the square patterns e of the field, with root
    +-a * sqrt(u^e)."""
    if not any(a.coords):
        return
    f = a.field
    sq = qr_mul(a, a)
    root = sqrt_in_field(sq)
    assert root in (a, qr_neg(a))
    assert embed_real(root)[0] > 0
    struct = _structure(f.d1, f.d2)
    lifts = [f.lift_quad(u) for u in struct.units]
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
              (0, 1, 1), (1, 1, 1)):
        prod = sq
        for ei, lift in zip(e, lifts):
            if ei:
                prod = qr_mul(prod, lift)
        root = sqrt_in_field(prod)
        if e in struct.sqrt_patterns:
            expected = qr_mul(a, us.klein_pattern_root(struct, e))
            assert root in (expected, qr_neg(expected))
        else:
            assert root is None


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sqrt_of_large_unit_product_powers(k):
    # the roots' coordinates reach 767 bits at k = 4, beyond what a
    # fixed-precision numeric search can reconstruct
    f = BiquadField(919, 991)
    prod = qr_mul(f.lift_quad(fundamental_unit(919).unit),
                   f.lift_quad(fundamental_unit(991).unit))
    power = qr_pow(prod, k)
    assert max(abs(c.numerator).bit_length() for c in power.coords) > 100 * k
    assert sqrt_in_field(qr_mul(power, power)) in (power, qr_neg(power))


def test_sqrt_of_known_unit_product():
    # in Q(sqrt2, sqrt5) the product of the three subfield units is a square
    f = BiquadField(2, 5)
    u1 = f.lift_quad(fundamental_unit(5).unit)
    u2 = f.lift_quad(fundamental_unit(2).unit)
    u3 = f.lift_quad(fundamental_unit(10).unit)
    prod = qr_mul(u1, qr_mul(u2, u3))
    root = sqrt_in_field(prod)
    assert root == QuarticElem(f, (Fraction(3, 2), Fraction(1, 2),
                                   Fraction(1, 2), Fraction(1, 2)))
    assert is_unit(root)


def test_sqrt_absent_cases():
    f = BiquadField(2, 5)
    u1 = f.lift_quad(fundamental_unit(5).unit)
    assert sqrt_in_field(u1) is None          # (1+sqrt5)/2 alone is not a square
    assert sqrt_in_field(QuarticElem(f, (-1, 0, 0, 0))) is None
    assert sqrt_in_field(QuarticElem(f, (3, 0, 0, 0))) is None


def test_large_unit_embedding_precision():
    # conjugate embeddings of big powers suffer total cancellation unless
    # the precision scales with coefficient size
    f = BiquadField(2, 5)
    u = qr_pow(f.lift_quad(fundamental_unit(10).unit), 40)
    emb = embed_real(u, 64)
    assert all(v != 0 for v in emb)
    prod = float(emb[0] * emb[1] * emb[2] * emb[3])
    assert abs(abs(prod) - 1) < 1e-6
