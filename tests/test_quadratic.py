import dataclasses
import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from unitlat import quadratic
from unitlat import units as us
from unitlat.precision import mpf_ctx
from unitlat.quadratic import (QuadElem, fundamental_unit, is_squarefree,
                               quad_norm, smallest_fundamental_units,
                               surd_sign, unit_key)
from oracles import (cf_unit_search_by_norm, cf_unit_search_by_walk,
                     is_quad_integer, quad_cmp,
                     quad_embed, quad_inv, quad_mul, smaller_quad_unit_exists,
                     squarefree_by_trial_division, surd_cmp)

KNOWN_UNITS = {
    5: (Fraction(1, 2), Fraction(1, 2)),
    2: (Fraction(1), Fraction(1)),
    10: (Fraction(3), Fraction(1)),
    13: (Fraction(3, 2), Fraction(1, 2)),
    65: (Fraction(8), Fraction(1)),
    3: (Fraction(2), Fraction(1)),
    7: (Fraction(8), Fraction(3)),
}


def test_is_squarefree_matches_trial_division():
    # the memo is bypassed, so every d runs the cube-root loop
    for d in range(-2, 10 ** 5 + 1):
        expected = squarefree_by_trial_division(d)
        assert is_squarefree.__wrapped__(d) == expected, d


# the largest primes below 10^6; the cube-root loop leaves each product
# below with a cofactor m = P^2 or P*Q, decided by the perfect-square test
P, Q = 999983, 999979


@pytest.mark.parametrize("d, expected", [
    (P * P, False), (2 * P * P, False), (P * Q, True), (2 * P * Q, True),
    (P * P * Q, False)])
def test_is_squarefree_cofactor(d, expected):
    assert is_squarefree.__wrapped__(d) is expected
    assert squarefree_by_trial_division(d) is expected


def test_is_squarefree_budget(monkeypatch):
    # with the budget at 50, every d below 50^3 is decided; 53*59*61 has
    # no factor below 50 and lies above 50^3, so it is undecided, never
    # read as "not squarefree", while 4*53*59*61 shows its square first
    monkeypatch.setattr(quadratic, "SQUAREFREE_MAX_STEPS", 50)
    for d in range(1, 50 ** 3, 97):
        assert is_squarefree.__wrapped__(d) == squarefree_by_trial_division(d)
    assert is_squarefree.__wrapped__(4 * 53 * 59 * 61) is False
    with pytest.raises(quadratic.UnitSearchError, match="budget of 50 steps"):
        is_squarefree.__wrapped__(53 * 59 * 61)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 4), st.integers(1, 10 ** 4))
def test_is_squarefree_on_square_times_b(a, b):
    # a^2*b has the square factor a^2, and is squarefree iff b is when a = 1
    expected = a == 1 and squarefree_by_trial_division(b)
    assert is_squarefree.__wrapped__(a * a * b) == expected


def test_known_fundamental_units_exact():
    for d, (a, b) in KNOWN_UNITS.items():
        u = fundamental_unit(d).unit
        assert (u.a, u.b) == (a, b), "d=%d gave %s" % (d, u)


def test_unit_norm_and_integrality():
    for d in range(2, 80):
        if not is_squarefree(d):
            continue
        res = fundamental_unit(d)
        assert is_quad_integer(res.unit)
        assert quad_norm(res.unit) == res.norm_sign
        assert abs(res.norm_sign) == 1
        assert surd_sign(res.unit.a - 1, res.unit.b, d) > 0


def test_fundamental_unit_minimality_brute_force():
    # independent oracle: no unit of the maximal order lies strictly
    # between 1 and the returned unit
    for d in range(2, 101):
        if not is_squarefree(d):
            continue
        u = fundamental_unit(d).unit
        q2 = 2 * u.b
        assert q2.denominator == 1
        assert not smaller_quad_unit_exists(d, int(q2)), \
            "smaller unit exists for d=%d" % d


def test_invalid_d_rejected():
    for d in (4, 12, 1, 0, -5):
        with pytest.raises(ValueError):
            fundamental_unit(d)


def test_smallest_units_ordering():
    entries = smallest_fundamental_units(200)
    assert [d for d, _ in entries[:4]] == [5, 2, 13, 3]
    threshold = fundamental_unit(3).unit  # 2 + sqrt(3)
    for d, _ in entries[4:]:
        assert quad_cmp(fundamental_unit(d).unit, threshold) > 0, \
            "v_%d below 2+sqrt(3)" % d


def test_arithmetic_identities():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.choice([2, 3, 5, 13, 21])
        x = QuadElem(d, Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        y = QuadElem(d, Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        assert quad_norm(quad_mul(x, y)) == quad_norm(x) * quad_norm(y)
        if quad_norm(x) != 0:
            prod = quad_mul(x, quad_inv(x))
            assert (prod.a, prod.b) == (1, 0)


def test_surd_cmp_matches_float():
    rng = random.Random(11)
    for _ in range(500):
        a, c = rng.randint(-20, 20), rng.randint(-20, 20)
        b, e = rng.randint(0, 10), rng.randint(0, 10)
        d, f = rng.choice([2, 3, 5, 7]), rng.choice([2, 3, 5, 7])
        lhs = a + b * math.sqrt(d)
        rhs = c + e * math.sqrt(f)
        if abs(lhs - rhs) < 1e-9:
            continue  # float too close to trust; exactness tested elsewhere
        expected = 1 if lhs > rhs else -1
        assert surd_cmp(a, b, d, c, e, f) == expected


def test_surd_cmp_equal_surds():
    assert surd_cmp(2, 1, 3, 2, 1, 3) == 0
    # sqrt(12) = 2*sqrt(3)
    assert surd_cmp(0, 1, 12, 0, 2, 3) == 0
    assert surd_cmp(0, 2, 2, 0, 1, 8) == 0


def test_quad_embed_value():
    u = fundamental_unit(5)
    assert abs(quad_embed(u.unit) - (1 + 5 ** 0.5) / 2) < 1e-12
    assert abs(float(u.log_value) - math.log((1 + 5 ** 0.5) / 2)) < 1e-12


def test_fundamental_unit_cached_per_d_and_precision():
    assert fundamental_unit(94) is fundamental_unit(94)
    low, high = fundamental_unit(94, 64), fundamental_unit(94, 128)
    assert low.unit == high.unit
    with mpmath.workprec(128):
        assert 0 < abs(low.log_value - high.log_value) < mpmath.mpf(2) ** -60
    with pytest.raises(ValueError):
        fundamental_unit(94.0)  # a cached int key does not admit a float



def test_cf_unit_search_matches_norm_criterion():
    # stopping on the complete quotient's denominator finds the same unit
    # and sign as the full norm of every convergent
    for d in range(2, 5001):
        if is_squarefree(d):
            a, b, den, norm = quadratic._cf_unit_search(d)
            unit = QuadElem(d, Fraction(a, den), Fraction(b, den))
            assert (unit, norm) == cf_unit_search_by_norm(d), d


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10 ** 6 - 1).filter(is_squarefree))
@example(d=5)
@example(d=2)
@example(d=94)
@example(d=999997)
def test_cf_unit_search_matches_walk_oracle(d):
    # stepping P, Q and the convergents in one loop gives the integers of
    # the (P, Q) walk whose quotients are folded once the period closes
    assert quadratic._cf_unit_search(d) == cf_unit_search_by_walk(d)


def test_cf_unit_search_give_up(monkeypatch):
    # the search gives up after CF_MAX_STEPS steps with its error text;
    # sqrt(10000000019) needs 124,134
    monkeypatch.setattr(quadratic, "CF_MAX_STEPS", 2000)
    with pytest.raises(quadratic.UnitSearchError,
                       match=r"^continued fraction of sqrt\(10000000019\) "
                             r"did not close within 2000 steps$"):
        quadratic._cf_unit_search(10000000019)


SQUAREFREE_D = st.integers(2, 10 ** 5).filter(is_squarefree)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10 ** 6).filter(is_squarefree))
def test_unit_integers_and_log_match_fraction_oracle(d):
    # the search's integers satisfy the norm equation, give the unit of
    # the full-norm oracle, and the log of (A + B*sqrt(d))/den is the log
    # of the Fraction-coordinate embedding, bit for bit
    a, b, den, norm = quadratic._cf_unit_search(d)
    assert a * a - d * b * b == norm * den * den
    assert den == (2 if d % 4 == 1 else 1)
    unit, want_norm = cf_unit_search_by_norm(d)
    assert QuadElem(d, Fraction(a, den), Fraction(b, den)) == unit
    assert norm == want_norm
    for bits in (64, 128, 300):
        res = fundamental_unit(d, bits)
        assert (res.unit, res.norm_sign) == (unit, norm)
        with mpf_ctx(bits):
            assert res.log_value == mpmath.log(quad_embed(unit, bits))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10 ** 4).filter(is_squarefree),
       st.sampled_from([64, 128, 300]))
def test_lazy_log_equals_eager_expression(d, bits):
    # the log is taken on first read, at the result's precision whatever
    # the ambient one, and is the eager log((A + B*sqrt(d))/den) bit for bit
    a, b, den, _ = quadratic._cf_unit_search(d)
    with mpf_ctx(bits):
        eager = mpmath.log((mpmath.mpf(a) + mpmath.mpf(b) * mpmath.sqrt(d))
                           / den)
    res = quadratic._fundamental_unit.__wrapped__(d, bits)  # a fresh result
    assert "log_value" not in vars(res)
    with mpmath.workprec(53):
        lazy = res.log_value
    assert lazy._mpf_ == eager._mpf_
    assert res.log_value is lazy


@settings(max_examples=200, deadline=None)
@given(SQUAREFREE_D, SQUAREFREE_D)
def test_unit_key_order_matches_quad_cmp(d1, d2):
    r1, r2 = fundamental_unit(d1), fundamental_unit(d2)
    k1, k2 = unit_key(r1), unit_key(r2)
    assert (k1 > k2) - (k1 < k2) == quad_cmp(r1.unit, r2.unit)
    assert (k1 == k2) == (d1 == d2)


def test_unit_key_sorts_like_quad_cmp_to_2000():
    entries = [(d, fundamental_unit(d))
               for d in range(2, 2001) if is_squarefree(d)]
    exact = sorted(entries, key=functools.cmp_to_key(
        lambda x, y: quad_cmp(x[1].unit, y[1].unit)))
    keys = [unit_key(res) for _, res in exact]
    # the search's integers give each unit's key, with no log or QuadElem
    assert smallest_fundamental_units(2000) == [
        (d, key) for (d, _), key in zip(exact, keys)]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("bits", [64, 128, 300])
def test_sort_by_unit_breaks_close_logs_exactly(bits, monkeypatch):
    # the order never reads log_value: with every log faked equal, or
    # reversed against the units, the exact order comes back
    # (phi < 1+sqrt2 < (3+sqrt13)/2 < 2+sqrt3)
    real = smallest_fundamental_units(200)
    subfields = {pair: [r.unit.d for r in us.subfield_units(*pair, bits)[0]]
                 for pair in ((2, 5), (2, 3), (3, 13))}
    genuine = quadratic._fundamental_unit
    for fake_log in (lambda res: mpmath.mpf(1), lambda res: -res.log_value):
        def faked(d, precision_bits=bits, fake_log=fake_log):
            res = genuine(d, precision_bits)
            fake = dataclasses.replace(res)  # a copy whose log is not taken
            # a cached_property reads the instance's __dict__ first
            fake.__dict__["log_value"] = fake_log(res)
            return fake

        monkeypatch.setattr(quadratic, "_fundamental_unit", faked)
        monkeypatch.setattr(us, "_fundamental_unit", faked)
        assert smallest_fundamental_units(200) == real
        assert [d for d, _ in real[:4]] == [5, 2, 13, 3]
        for pair, order in subfields.items():
            ranked = us.subfield_units(*pair, bits)[0]
            assert [r.log_value for r in ranked] == [
                fake_log(genuine(r.unit.d, bits)) for r in ranked]
            assert [r.unit.d for r in ranked] == order
    assert subfields == {(2, 5): [5, 2, 10], (2, 3): [2, 3, 6],
                         (3, 13): [13, 3, 39]}


@pytest.mark.parametrize("bits", [64, 128])
def test_smallest_units_keep_exact_order(bits):
    # the (trace, -norm) sort reproduces the all-quad_cmp sort on every
    # d <= 200
    entries = [(d, fundamental_unit(d, bits))
               for d in range(2, 201) if is_squarefree(d)]
    exact = sorted(entries, key=functools.cmp_to_key(
        lambda x, y: quad_cmp(x[1].unit, y[1].unit)))
    assert smallest_fundamental_units(200) == [(d, unit_key(res))
                                               for d, res in exact]
