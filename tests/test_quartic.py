import itertools
import random
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

import mpmath
import sympy

import unitlat
from unitlat import biquadratic
from unitlat import quartic as qt
from unitlat.biquadratic import BiquadField
from unitlat.quadratic import UnitSearchError
from unitlat.quartic import (CyclicQuarticField, NotCyclicError, QuarticElem,
                             embed_all, galois_generator, is_unit,
                             mul_coords, qr_add, qr_mul, sqrt_of_rational)
from oracles import (FractionAutomorphism, cauchy_root_brackets, char_poly,
                     eval_poly_at, galois_generator_all_perms,
                     polyroots_real_roots, power_basis_norm, qr_inv,
                     qr_is_algebraic_integer, qr_is_unit, qr_norm_to_Q,
                     qr_pow, trial_division_irreducible)


def is_integral(a):
    """a lies in O_L iff its characteristic polynomial lies in Z[x]."""
    return all(c.denominator == 1 for c in qt.char_poly(a))


def norm_of(a):
    return qt.char_poly(a)[4]


def is_irreducible(coeffs):
    """galois_group names a group exactly for the irreducible quartics."""
    return qt.galois_group(coeffs) is not None


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
# cyclic fields off the catalog where the height-6 unit search is put to
# the test: populate_cyclic_entry rejects the first two, whose picked
# generators span index 5 and 8 in the unit group, and proves the third
# saturated at index bound 399 (see ROADMAP item 7)
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
    assert eval_poly_at(F, alpha).coords == (0, 0, 0, 0)


def test_norm_and_inverse():
    rng = random.Random(2)
    assert norm_of(F.gen()) == 2
    for _ in range(40):
        a = rand_elem(F, rng)
        if not any(a.coords):
            continue
        assert qr_mul(a, qr_inv(a)) == F.from_rational(1)
    b = rand_elem(F, rng)
    assert norm_of(qr_mul(F.gen(), b)) == 2 * norm_of(b)


def test_char_poly_of_generator():
    assert char_poly(F.gen()) == [Fraction(c) for c in (1, 0, -4, 0, 2)]
    assert qt.char_poly(F.gen()) == (1, 0, -4, 0, 2)
    assert is_integral(F.gen())
    assert not is_integral(F.from_rational(Fraction(1, 2)))


def test_integrality_reads_the_constant_term():
    # alpha/2 in F and sqrt(2)/2 in Q(sqrt2, sqrt5) have the characteristic
    # polynomials x^4 - x^2 + 1/8 and x^4 - x^2 + 1/4: only the norm is
    # not an integer
    half = Fraction(1, 2)
    for a, norm in ((QuarticElem(F, (0, half, 0, 0)), Fraction(1, 8)),
                    (QuarticElem(BiquadField(2, 5), (0, half, 0, 0)),
                     Fraction(1, 4))):
        assert qt.char_poly(a) == (1, 0, -1, 0, norm)
        assert norm_of(a) == norm
        assert not is_integral(a)
        assert not is_unit(a)


def test_library_has_one_element_type_and_one_product():
    # Klein and cyclic fields share QuarticElem and quartic.mul_coords;
    # the sigma-tower integrality and norm are test oracles
    assert not any(hasattr(biquadratic, name)
                   for name in ("BiquadElem", "biq_mul", "mul_coords"))
    assert not any(hasattr(qt, name) for name in (
        "_is_k_integer", "_trace_norm_to_Q", "_relative_norm", "norm_to_Q",
        "is_algebraic_integer", "quartic_is_irreducible"))
    assert not hasattr(QuarticElem, "is_zero")
    assert "BiquadElem" not in unitlat.__all__
    assert not hasattr(BiquadField(2, 5), "one")


@pytest.mark.parametrize("coeffs", [(1, 0, -10, 0, 1), (1, 1, -3, -1, 1)])
def test_kernel_needs_no_sigma(coeffs):
    # x^4 - 10x^2 + 1 (sqrt2 + sqrt3, Klein) and x^4 - x^3 - 3x^2 + x + 1
    # (disc 725, dihedral) have no order-4 automorphism; the norm and the
    # unit test still hold: N(alpha - r) = f(r)
    field = CyclicQuarticField(coeffs)
    with pytest.raises(NotCyclicError):
        field.sigma
    assert is_unit(field.gen())
    for r in range(-3, 4):
        a = qr_add(field.gen(), field.from_rational(-r))
        f_r = sum(c * r ** i for i, c in enumerate(coeffs))
        assert norm_of(a) == f_r
        assert is_unit(a) == (abs(f_r) == 1)


def test_integrality_beyond_power_basis():
    # alpha/2 and alpha^3/8 are sqrt(2+sqrt2) and its cube; alpha/4 is
    # half of sqrt(2+sqrt2), not integral
    g, _ = FIELDS["2*sqrt(2+sqrt2)"]
    half, eighth = Fraction(1, 2), Fraction(1, 8)
    assert is_integral(QuarticElem(g, (0, half, 0, 0)))
    assert is_integral(QuarticElem(g, (0, 0, 0, eighth)))
    assert not is_integral(QuarticElem(g, (0, Fraction(1, 4), 0, 0)))
    # 17 splits completely in F; with 56, 25 roots of the polynomial mod
    # 17^2 not paired by sigma^2 (alpha -> -alpha), a = (alpha - 56)
    # (alpha - 25)/17 has N_{L/k}(a) in O_k but Tr_{L/k}(a) not
    a = QuarticElem(F, (Fraction(-45, 17), Fraction(-81, 17), Fraction(1, 17), 0))
    assert not is_integral(a)
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
    assert is_integral(a) == integral
    assert norm_of(a) == poly[4]
    assert is_unit(a) == (integral and abs(poly[4]) == 1)
    if any(a.coords):
        assert qr_mul(a, qr_inv(a)) == a.field.from_rational(1)


# the 9 fields of test_root_perm_maps_roots, the catalog's three among them
KERNEL_FIELDS = {**{name: field for name, (field, _) in FIELDS.items()},
                 "scaled": SCALED, **SEARCH_FAILS}


@st.composite
def kernel_elements(draw, field=None):
    """Small coordinates over a small denominator, or a product of units
    alpha - r, f(r) = +-1 (N(alpha - r) = f(r)), itself or halved, in
    field or in a drawn one of KERNEL_FIELDS."""
    if field is None:
        field = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    if draw(st.booleans()):
        q = draw(st.sampled_from((1, 2, 3, 4, 8)))
        return QuarticElem(field, [Fraction(draw(st.integers(-12, 12)), q)
                                   for _ in range(4)])
    a = field.from_rational(1)
    for r in range(-3, 4):
        if (abs(sum(c * r ** i for i, c in enumerate(field.coeffs))) == 1
                and draw(st.booleans())):
            a = qr_mul(a, qr_add(field.gen(), field.from_rational(-r)))
    q = draw(st.sampled_from((1, 2)))
    return QuarticElem(field, [c / q for c in a.coords])


@settings(max_examples=300, deadline=None)
@given(kernel_elements())
def test_kernel_agrees_with_sigma_tower(a):
    # the char-poly kernel against Faddeev-LeVerrier, the Leibniz
    # determinant of multiplication and the sigma tower over k
    poly = qt.char_poly(a)
    assert list(poly) == char_poly(a)
    assert poly[4] == power_basis_norm(a.field.coeffs, a.coords)
    assert is_integral(a) == qr_is_algebraic_integer(a)
    assert norm_of(a) == qr_norm_to_Q(a)
    assert is_unit(a) == qr_is_unit(a)


@pytest.mark.parametrize("field", list(KERNEL_FIELDS.values()) + [
    BiquadField(2, 5), BiquadField(6, 10), BiquadField(10, 15),
    BiquadField(3, 21)], ids=list(KERNEL_FIELDS) + [
        "klein-2-5", "klein-6-10", "klein-10-15", "klein-3-21"])
def test_table_is_commutative_associative_with_one(field):
    table = field.table
    assert all(c and type(c) is int
               for row in table for entry in row for _, c in entry)
    basis = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    for i in range(4):
        assert mul_coords(basis[0], basis[i], table) == basis[i]
    for bi, bj, bk in itertools.product(basis, repeat=3):
        assert mul_coords(bi, bj, table) == mul_coords(bj, bi, table)
        assert (mul_coords(mul_coords(bi, bj, table), bk, table)
                == mul_coords(bi, mul_coords(bj, bk, table), table))


def test_galois_generator_exact():
    sigma = galois_generator(F)
    # sigma(alpha) = alpha^3 - 3*alpha
    assert sigma.image == QuarticElem(F, (0, -3, 0, 1))
    assert eval_poly_at(F, sigma.image).coords == (0, 0, 0, 0)
    s2 = sigma.compose(sigma)
    assert not s2.is_identity()
    assert s2.compose(s2).is_identity()
    # automorphism property on random elements
    rng = random.Random(3)
    for _ in range(20):
        a, b = rand_elem(F, rng), rand_elem(F, rng)
        assert sigma(qr_mul(a, b)) == qr_mul(sigma(a), sigma(b))


def test_galois_generator_bounds_from_polynomial():
    # sigma(alpha) has denominator 10^14, beyond the fixed bound of 10^12
    # an earlier reconstruction used; the exact solve finds it at the
    # precision read off the coefficients
    sigma = galois_generator(SCALED)
    assert sigma.image == QuarticElem(
        SCALED, (0, -3, 0, Fraction(1, 10 ** 14)))
    assert sigma.compose(sigma).compose(sigma.compose(sigma)).is_identity()


def test_scaled_field_is_cyclic():
    # alpha scaled by 10^7 scales the root differences by 10^7, so disc f
    # by 10^84
    assert is_irreducible(SCALED.coeffs)
    assert qt.trace_form(SCALED.coeffs)[2] == 10 ** 84 * 2048
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
    denom_bound = isqrt(abs(qt.trace_form(field.coeffs)[2]))
    want = galois_generator_all_perms(field, denom_bound, 512)
    calls = []
    library_char_poly = qt.char_poly

    def counting(elem):
        calls.append(elem)
        return library_char_poly(elem)

    monkeypatch.setattr(qt, "char_poly", counting)
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


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sigma_matches_fraction_reference(name, data):
    # the integer matrix of sigma against the Fraction power table of its
    # image of alpha (oracles.FractionAutomorphism)
    field = KERNEL_FIELDS[name]
    sigma, s2 = field.sigma, field.sigma2
    ref = FractionAutomorphism(field, sigma.image)
    x, y = (data.draw(kernel_elements(field)) for _ in range(2))
    assert sigma(x) == ref(x)
    assert s2(x) == ref.compose(ref)(x)
    assert sigma(qr_mul(x, y)) == qr_mul(sigma(x), sigma(y))
    assert not s2.is_identity() and s2.compose(s2).is_identity()


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_traces_off_by_one_reject_every_candidate(name, monkeypatch):
    # t_0 = Tr(alpha) at every 4-cycle, and every conjugate of alpha has
    # trace Tr(alpha): with each t_j off by one no candidate is a root of
    # f, so the search gives up rather than return a wrong sigma
    nearest = qt.nearest_integer
    monkeypatch.setattr(qt, "nearest_integer", lambda t: nearest(t) + 1)
    calls = []
    library_char_poly = qt.char_poly
    monkeypatch.setattr(qt, "char_poly", lambda elem: calls.append(elem)
                        or library_char_poly(elem))
    with pytest.raises(UnitSearchError, match="no 4-cycle of the roots"):
        galois_generator(CyclicQuarticField(KERNEL_FIELDS[name].coeffs))
    assert len(calls) == len(qt.FOUR_CYCLES)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_trace_form_built_once_per_polynomial(name, monkeypatch):
    # sigma, sigma^2, the roots and char_poly all read one power table, one
    # trace matrix and one disc f = det M of the polynomial
    # one adjugate adj M, whose 10 distinct cofactors give disc f and M's
    # leading 3 x 3 minor, so no 4 x 4 determinant is taken
    builds = {"power_table": 0, "trace_matrix": 0, "_adjugate": 0}
    for fname in builds:
        def counting(arg, fname=fname, inner=getattr(qt, fname)):
            builds[fname] += 1
            return inner(arg)
        monkeypatch.setattr(qt, fname, counting)
    det = qt._det
    sizes = []

    def counting_det(rows):
        sizes.append(len(rows))
        return det(rows)

    monkeypatch.setattr(qt, "_det", counting_det)
    for cache in (qt.trace_form, qt._real_roots, qt._root_brackets):
        cache.cache_clear()
    field = CyclicQuarticField(KERNEL_FIELDS[name].coeffs)
    field.sigma, field.sigma2, field.roots(128)
    for elem in (field.gen(), field.sigma.image, field.sigma2.image):
        qt.char_poly(elem)
        is_unit(elem)
    assert builds == {"power_table": 1, "trace_matrix": 1, "_adjugate": 1}
    assert sizes.count(3) == 10 and 4 not in sizes


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
    disc = qt.trace_form(field.coeffs)[2]
    bits = 2 * disc.bit_length() + 64
    with mpmath.workprec(bits):
        roots = field.roots(bits)
        prod = mpmath.fprod((r - s) ** 2 for i, r in enumerate(roots)
                            for s in roots[i + 1:])
        assert abs(prod - disc) < 1e-6 * abs(disc)
        for j, row in enumerate(qt.trace_matrix(field.table)):
            for k, v in enumerate(row):
                power_sum = mpmath.fsum(r ** (j + k) for r in roots)
                assert abs(power_sum - v) < 1e-6 * max(1, abs(v))
    known = {"sqrt(2+sqrt2)": 2048, "zeta20+": 2000, "zeta15+": 1125}
    assert disc == known.get(name, disc)


def _count_brackets(monkeypatch):
    """Clear the root caches and make mpmath.polyroots raise; the returned
    list then receives the polynomial of every bracket computation, one
    Sturm sequence each."""
    calls = []
    sturm = qt._sturm

    def counting(poly):
        calls.append(tuple(poly))
        return sturm(poly)

    def forbidden(*args, **kwargs):
        raise AssertionError("the library called mpmath.polyroots")

    qt._real_roots.cache_clear()
    qt._root_brackets.cache_clear()
    monkeypatch.setattr(qt, "_sturm", counting)
    monkeypatch.setattr(mpmath, "polyroots", forbidden)
    return calls


def _close(got, direct, bits):
    with qt.mpf_ctx(bits):
        return all(abs(g - d) <= abs(d) * mpmath.mpf(2) ** -(bits + 14)
                   for g, d in zip(got, direct))


def _near(got, direct, bits):
    """_close with the error measured against max(|root|, 1): Newton stops
    on a step below 2^-(bits + 24) max(|x|, 1), absolute below 1."""
    with qt.mpf_ctx(bits):
        return all(abs(g - d) <= max(abs(d), 1) * mpmath.mpf(2) ** -(bits + 14)
                   for g, d in zip(got, direct))


def test_one_root_solve_per_polynomial(monkeypatch):
    # the polynomial is bracketed once; every precision is refined from
    # the brackets by Newton's method and agrees with a direct solve at
    # that precision
    field = FIELDS["zeta15+"][0]
    direct = {bits: polyroots_real_roots(field.coeffs, bits)
              for bits in (64, 128, 300)}
    calls = _count_brackets(monkeypatch)
    got = {bits: field.roots(bits) for bits in (128, 300, 64, 128)}
    assert calls == [field.coeffs]
    for bits in (64, 128, 300):
        assert _close(got[bits], direct[bits], bits)


def test_scaled_roots_from_brackets(monkeypatch):
    # SCALED's roots, up to 1.8 10^7, come from one set of brackets at
    # every working precision, each as close to a direct solve
    direct = {bits: polyroots_real_roots(SCALED.coeffs, bits)
              for bits in (64, 128, 300)}
    calls = _count_brackets(monkeypatch)
    for bits in (64, 128, 300):
        assert _close(SCALED.roots(bits), direct[bits], bits)
    assert calls == [SCALED.coeffs]


def test_newton_at_cancelling_roots(monkeypatch):
    # f(x - 287) for f = x^4 - 4x^2 + 2: roots near 287 with coefficients
    # up to 6.8 10^9, where Horner's rule in floating point cancels ~24
    # bits at each root; Newton evaluates f exactly, in integers
    coeffs = (6784322687, -94557316, 494210, -1148, 1)
    direct = {bits: polyroots_real_roots(coeffs, bits) for bits in (128, 196)}
    _count_brackets(monkeypatch)
    field = CyclicQuarticField(coeffs)
    for bits in (128, 196):
        assert _close(field.roots(bits), direct[bits], bits)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _shift(coeffs, t):
    """f(x - t), constant term first."""
    out = [0] * len(coeffs)
    for k, c in enumerate(coeffs):
        for i in range(k + 1):
            out[i] += c * comb(k, i) * (-t) ** (k - i)
    return tuple(out)


@st.composite
def totally_real_quartics(draw):
    """x^4 + a x^2 + b with a < 0 < b and a^2 > 4b, or a shifted product of
    two real quadratics x^2 + p x + q, p^2 > 4q; distinct nonzero roots."""
    if draw(st.booleans()):
        a = draw(st.integers(-200, -3))
        coeffs = (draw(st.integers(1, (a * a - 1) // 4)), 0, a, 0, 1)
    else:
        quads = []
        for _ in range(2):
            p = draw(st.integers(-30, 30))
            quads.append((draw(st.integers(-200, (p * p - 1) // 4)), p, 1))
        coeffs = _shift(_mul(*quads), draw(st.integers(-300, 300)))
    assume(coeffs[0] != 0 and qt.trace_form(coeffs)[2] != 0)
    return coeffs


@settings(max_examples=60, deadline=None)
@given(totally_real_quartics())
def test_roots_match_polyroots(coeffs):
    # the bracketed Newton roots against one complex solve, at each
    # precision; integer roots land on bracket ends, where a bracket that
    # lost its upper end would leave its root outside
    field = CyclicQuarticField(coeffs)
    for bits in (64, 128, 300):
        assert _near(field.roots(bits), polyroots_real_roots(coeffs, bits),
                     bits)


@pytest.mark.parametrize("a", [10 ** 6, 10 ** 9, 10 ** 12])
def test_newton_keeps_clustered_roots_apart(a):
    # x^4 - 2(a x - 1)^2 (Mignotte) has two roots within sqrt2 / a^3 of
    # 1/a, closer than float64 resolves from a = 10^9 on: Newton started
    # in one bracket converges to the other root unless the bracket holds
    # it.  The direct solve runs at more bits, as the pair is ill
    # conditioned
    coeffs = (-2, 4 * a, -2 * a * a, 0, 1)
    for bits in (64, 128, 300):
        got = CyclicQuarticField(coeffs).roots(bits)
        assert got[1] > got[2]
        assert _near(got, polyroots_real_roots(coeffs, 2 * bits + 128), bits)


def _dyadic(x):
    """(num, j) with num / 2^j = x, an mpf, j >= 0."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man) << max(exp, 0), max(-exp, 0)


def test_newton_restarts_outside_its_bracket(monkeypatch):
    # Newton started at the neighbouring root stays there, outside the
    # bracket: the bracket is halved, Newton restarts from the half's
    # midpoint, and the bracket's own root comes back
    coeffs = F.coeffs
    brackets = qt._root_brackets(coeffs)
    want = [qt._newton(coeffs, b, 128) for b in brackets]
    neighbour = {b: _dyadic(want[i - 1 if i else 1])
                 for i, b in enumerate(brackets)}
    limit = qt._newton_limit
    starts = []

    def neighbour_first(poly, bracket, target, start):
        if bracket in neighbour and bracket not in starts:
            starts.append(bracket)
            start = neighbour[bracket]
            assert limit(poly, bracket, target, start) is None
        return limit(poly, bracket, target, start)

    monkeypatch.setattr(qt, "_newton_limit", neighbour_first)
    assert [qt._newton(coeffs, b, 128) for b in brackets] == want
    assert len(starts) == 4


def test_newton_limit_needs_its_proof():
    # a bracket (lo, hi] just below the root r = -0.765... of F, with
    # r - hi < 2^-150: Newton climbs to r from below and every iterate,
    # rounded down, stays in the bracket, so only the sign test shows
    # that the limit is not a root of the bracket
    coeffs, target = F.coeffs, 80
    lo, hi, k = qt._root_brackets(coeffs)[1]
    r = qt._newton_limit(coeffs, (lo, hi, k), 200, (lo + hi, k + 1))
    assert r is not None and r[1] >= 150
    hi = r[0] >> (r[1] - 150)
    if qt._sign_at(coeffs, hi, 150) == qt._sign_at(coeffs, hi + 1, 150):
        hi -= 1  # keep r above hi
    bracket = (hi - (1 << 130), hi, 150)
    assert qt._newton_limit(coeffs, bracket, target,
                            (2 * hi - (1 << 130), 151)) is None


def _changes_sign_near(coeffs, root, bracket, bits):
    """Whether f vanishes or changes sign, exactly, between the dyadics
    root - eps and min(root + eps, hi), with eps = 2^(m - bits - 16) and
    |root| < 2^m, m >= 0, and lo < root - eps: a root rounded to
    bits + 16 bits from a limit proven within 2^(m - bits - 22) of the
    bracket's root lies within eps of it."""
    lo, hi, k = bracket
    num, j = _dyadic(root)
    m = max(abs(num).bit_length() - j, 0)
    scale = max(k, j, bits + 16 - m)
    mid, eps = num << (scale - j), 1 << (m - bits - 16 + scale)
    low, high = mid - eps, min(mid + eps, hi << (scale - k))
    return (lo << (scale - k) < low < high
            and qt._sign_at(coeffs, low, scale)
            * qt._sign_at(coeffs, high, scale) <= 0)


@settings(max_examples=60, deadline=None)
@given(totally_real_quartics())
def test_roots_proven_inside_their_brackets(coeffs):
    # each returned root lies within 2^(m - bits - 16) of a sign change of
    # f inside its own bracket, read exactly on the integers
    brackets = qt._root_brackets(coeffs)[::-1]
    for bits in (64, 128, 300):
        roots = CyclicQuarticField(coeffs).roots(bits)
        assert all(_changes_sign_near(coeffs, r, b, bits)
                   for r, b in zip(roots, brackets))


def test_root_brackets_start_from_fujiwara(monkeypatch):
    # SCALED's roots lie below 1.9 10^7 and its c0 is 2 10^28: Fujiwara's
    # start 2^25 takes 35 Sturm sign evaluations, where the Cauchy start
    # 2^95 took 725
    calls = []
    sign_at = qt._sign_at
    monkeypatch.setattr(qt, "_sign_at",
                        lambda *args: calls.append(args) or sign_at(*args))
    qt._root_brackets.cache_clear()
    qt._root_brackets(SCALED.coeffs)
    assert len(calls) == 35


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(sorted(KERNEL_FIELDS)).map(
    lambda name: KERNEL_FIELDS[name].coeffs), totally_real_quartics()))
def test_roots_match_cauchy_brackets(coeffs):
    # Newton from the brackets of the earlier Cauchy start gives the very
    # same roots, bit for bit, at every precision
    brackets = cauchy_root_brackets(coeffs)
    assert len(brackets) == len(qt._root_brackets(coeffs)) == 4
    for bits in (64, 128, 300):
        assert [r._mpf_ for r in qt._real_roots(coeffs, bits)] == [
            qt._newton(coeffs, b, bits)._mpf_ for b in reversed(brackets)]


def test_integer_roots_exact_on_bracket_ends():
    # x^4 - 4x^2 + 3 = (x^2 - 1)(x^2 - 3): the roots +-1 sit on the upper
    # ends of their brackets and come back exactly, at every precision
    coeffs = (3, 0, -4, 0, 1)
    assert {hi >> k for lo, hi, k in qt._root_brackets(coeffs)
            if hi % (1 << k) == 0} >= {1, -1}
    for bits in (64, 128, 300, 2000):
        roots = CyclicQuarticField(coeffs).roots(bits)
        assert roots[1] == 1 and roots[2] == -1
        assert _changes_sign_near(coeffs, roots[0],
                                  qt._root_brackets(coeffs)[3], bits)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=4, max_size=4))
def test_irreducible_matches_trial_division(low):
    coeffs = tuple(low) + (1,)
    assert is_irreducible(coeffs) == trial_division_irreducible(coeffs)


@pytest.mark.parametrize("factors", [
    ((-7 * 10 ** 6, 1), (3 * 10 ** 5, 0, 0, 1), (1,)),  # linear times cubic
    ((10 ** 6 + 3, 1), (-(10 ** 6 + 3), 1), (2, 0, 1)),
    ((10 ** 6, -3, 1), (10 ** 6 + 7, 5, 1), (1,)),
    ((-10 ** 7, 1), (-10 ** 7, 1), (10 ** 14, -2 * 10 ** 7, 1)),  # a 4-fold root
])
def test_irreducible_finds_large_factors(factors):
    # constant terms from 2 10^12 to 10^28: trial division of c0 takes
    # 0.1 s at the first and never ends at the last
    coeffs = tuple(_mul(_mul(factors[0], factors[1]), factors[2]))
    assert len(coeffs) == 5 and coeffs[4] == 1
    assert not is_irreducible(coeffs)


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
    assert abs(prod - float(norm_of(a))) < 1e-9


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


def _sympy_group(coeffs):
    """The Galois group of an irreducible quartic by sympy, named as
    quartic.galois_group names it."""
    x = sympy.Symbol("x")
    group, _ = sympy.galois_group(sympy.Poly(coeffs[::-1], x), by_name=True)
    return {"V": "V4"}.get(group.name, group.name)


# x^4 - 10x^2 + 1 (V4), x^4 - x^3 - 3x^2 + x + 1 (D4, disc 725) and
# x^4 - 7x^2 + x + 1 (S4), besides the 9 fields, all C4
GROUPS = {**{name: (field.coeffs, "C4") for name, field in KERNEL_FIELDS.items()},
          "sqrt2+sqrt3": ((1, 0, -10, 0, 1), "V4"),
          "disc725": ((1, 1, -3, -1, 1), "D4"),
          "x^4-7x^2+x+1": ((1, 1, -7, 0, 1), "S4")}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_galois_group_matches_sympy(name):
    coeffs, group = GROUPS[name]
    assert qt.galois_group(coeffs) == group == _sympy_group(coeffs)


@settings(max_examples=150, deadline=None)
@given(st.integers(-60, 60), st.integers(-400, 400))
def test_galois_group_of_even_quartics_matches_sympy(a, b):
    # x^4 + a x^2 + b: V4, C4 or D4 when irreducible, any signature
    coeffs = (b, 0, a, 0, 1)
    group = qt.galois_group(coeffs)
    assert (group is None) == (not trial_division_irreducible(coeffs))
    if group is not None:
        assert group == _sympy_group(coeffs)


@pytest.mark.parametrize("name", ["sqrt2+sqrt3", "disc725"])
def test_not_cyclic_names_the_group(name, monkeypatch):
    # "not cyclic" is read off the Galois group before any root is sought
    coeffs, group = GROUPS[name]
    calls = _count_brackets(monkeypatch)
    with pytest.raises(NotCyclicError, match="Galois group %s, not C4" % group):
        galois_generator(CyclicQuarticField(coeffs))
    assert calls.count(coeffs) == 1
    assert not any(qt._real_roots.cache_info()[:2])


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_total_reality_decided_before_solving(bits, monkeypatch):
    # (x^2 - 10^40)^2 + 1 has no real root, but its roots lie within
    # 10^-20 of the real axis: Newton on the real parts did not converge
    # at 64 and 128 bits.  The trace matrix refuses it, and (x^2 - 2)^2,
    # whose double roots it returned twice, with no root solved
    calls = _count_brackets(monkeypatch)
    with pytest.raises(NotCyclicError, match="not totally real"):
        CyclicQuarticField((10 ** 80 + 1, 0, -2 * 10 ** 40, 0, 1)).roots(bits)
    with pytest.raises(NotCyclicError, match="repeated root"):
        CyclicQuarticField((4, 0, -4, 0, 1)).roots(bits)
    assert calls == []


def test_irreducibility():
    assert is_irreducible((2, 0, -4, 0, 1))
    assert not is_irreducible((4, 0, -4, 0, 1))   # (x^2-2)^2
    assert not is_irreducible((4, 0, -5, 0, 1))   # (x^2-1)(x^2-4)
    assert not is_irreducible((1, 0, -3, 0, 1))   # (x^2-x-1)(x^2+x-1)
    assert not is_irreducible((-2, 1, 0, -2, 1))  # root x = 2
    assert is_irreducible((1, 0, -10, 0, 1))  # min poly of sqrt2+sqrt3


def test_bad_polynomial_rejected():
    with pytest.raises(ValueError):
        CyclicQuarticField((1, 0, -4, 0, 2))  # not monic
    with pytest.raises(ValueError):
        CyclicQuarticField((2.5, 0, -4, 0, 1))  # not integer
    with pytest.raises(ValueError):
        CyclicQuarticField((1, 0, 1))
