import dataclasses
import functools
import importlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

import unitlat
from unitlat import units as us
from unitlat import quartic as qt
from unitlat.loglattice import cyclic_wedge_rows, orbit_log, wedge2
from unitlat.quadratic import QuadElem, fundamental_unit, quad_norm
from unitlat.verifier import (cyclic_entry_report, klein_field_report,
                              load_default_catalog)
import oracles
from oracles import (SQUAREFREE_1000, char_poly, fraction_norm_exponent, fraction_route_root,
                     fraction_route_generators, galois_apply, is_unit,
                     klein_patterns_tower, log_embed_cyclic, qr_pow,
                     quad_cmp, sigma_loop_log)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def entry():
    return load_default_catalog()[0]


@pytest.fixture(scope="module")
def ctx(entry):
    return us.cyclic_context(entry.coeffs, entry.quad_subfield_d, entry.u_l)


def test_subfield_units_sorted():
    ranked, fixers = us.subfield_units(2, 5)
    units = [r.unit for r in ranked]
    # ascending: (1+sqrt5)/2 < 1+sqrt2 < 3+sqrt10
    assert [u.d for u in units] == [5, 2, 10]
    assert [r.log_value for r in ranked] == [fundamental_unit(u.d).log_value
                                             for u in units]
    assert fixers == ("s2", "s1", "s3")
    assert [r.norm_sign for r in ranked] == [-1, -1, -1]
    # 1+sqrt2, 2+sqrt3, 5+sqrt6
    assert [r.norm_sign for r in us.subfield_units(2, 3)[0]] == [-1, 1, 1]


def test_subfield_units_keep_exact_order(monkeypatch):
    # the (trace, -norm) sort reproduces the all-quad_cmp sort on the 864
    # pairs of the pinned klein-random pool of perfbench
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    pool = [pair for cell in importlib.import_module("workloads").klein_pool()
            for pair in cell]
    assert len(pool) == 864
    for d1, d2 in pool:
        units = [r.unit for r in us.subfield_units(d1, d2)[0]]
        exact = sorted(units, key=functools.cmp_to_key(quad_cmp))
        assert list(units) == exact, (d1, d2)


def test_klein_structure_2_5():
    s = us.klein_unit_structure(2, 5)
    assert s.index_over_E == 2
    assert s.sqrt_patterns == ((1, 1, 1),)
    root = us.klein_pattern_root(s, (1, 1, 1))
    assert root == qt.QuarticElem(s.field, (Fraction(3, 2), Fraction(1, 2),
                                            Fraction(1, 2), Fraction(1, 2)))
    assert is_unit(root)
    # the square root replaces exactly one subfield generator
    assert sum(g == root for g in us.klein_generators(s)) == 1


def test_klein_structure_5_13():
    s = us.klein_unit_structure(5, 13)
    assert s.index_over_E == 2
    assert s.sqrt_patterns == ((1, 1, 1),)


def test_klein_structure_3_5():
    s = us.klein_unit_structure(3, 5)
    assert s.index_over_E == 2
    assert s.sqrt_patterns == ((0, 1, 1),)


@pytest.mark.parametrize("d1, d2, patterns, index", [
    (383, 503, ((0, 0, 1), (1, 1, 0), (1, 1, 1)), 4),
    (563, 827, ((0, 0, 1), (1, 1, 0), (1, 1, 1)), 4),
    (433, 913, ((0, 1, 1),), 2),
    (619, 661, ((0, 0, 1),), 2),
])
def test_klein_structure_large_square_roots(d1, d2, patterns, index):
    # square roots with coordinates too large for a fixed-precision search
    s = us.klein_unit_structure(d1, d2)
    assert s.sqrt_patterns == patterns
    assert s.index_over_E == index


@pytest.mark.parametrize("d1, d2", [(2, 5), (383, 503), (922, 991)])
def test_klein_structure_builds_no_element(d1, d2, monkeypatch):
    # the structure and the report are integer and log data: patterns,
    # index and minimum come out with no element of L built or multiplied
    want = us.klein_unit_structure(d1, d2)
    want_report = klein_field_report(d1, d2)

    def forbidden(*args):
        raise AssertionError("klein_unit_structure must build no element")

    for module in list(vars(unitlat).values()):
        if getattr(module, "__name__", "").startswith("unitlat."):
            for name in ("QuarticElem", "qr_mul", "mul_coords"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
    got = us.klein_unit_structure(d1, d2)
    assert got.sqrt_patterns == want.sqrt_patterns
    assert got.witnesses == want.witnesses
    assert got.index_over_E == want.index_over_E
    _, value, reports = klein_field_report(d1, d2)
    assert value == want_report[1]
    assert reports[0].details == want_report[2][0].details


def test_generator_squares_land_in_E():
    # exactly: g^2 = +-u1^m1 u2^m2 u3^m3 for some m in {0, 1, 2}^3
    for d1, d2 in ((2, 5), (3, 5), (2, 3)):
        s = us.klein_unit_structure(d1, d2)
        lifts = [s.field.lift_quad(u) for u in s.units]
        products = set()
        for m in itertools.product(range(3), repeat=3):
            p = qt.QuarticElem(s.field, (1, 0, 0, 0))
            for mi, lift in zip(m, lifts):
                for _ in range(mi):
                    p = qt.qr_mul(p, lift)
            products.update((p, qt.qr_neg(p)))
        for g in us.klein_generators(s):
            assert qt.qr_mul(g, g) in products


def test_klein_denominator_map():
    assert [us.klein_denominator(i) for i in (1, 2, 4, 8)] == [1, 2, 4, 4]
    with pytest.raises(KeyError):
        us.klein_denominator(3)


def test_f2_basis_rank():
    assert us._f2_basis([])[0] == 0
    assert us._f2_basis([(1, 1, 1)])[0] == 1
    rank, rows = us._f2_basis([(1, 1, 0), (1, 0, 0), (0, 1, 0)])
    assert rank == 2
    pivots = [p for _, p in rows]
    assert len(set(pivots)) == len(pivots)


def _matches_tower_oracle(d1, d2):
    """klein_unit_structure against the seven-test tower oracle: same
    patterns, witnesses, F2 basis, index, roots of every found pattern and
    generators; every root squares to its pattern product; the tower
    square root never runs inside the library."""
    want, want_roots, want_generators = klein_patterns_tower(d1, d2)

    def forbidden(a):
        raise AssertionError("klein_unit_structure ran a tower square root")

    with mock.patch.object(oracles, "sqrt_in_field", forbidden):
        got = us.klein_unit_structure(d1, d2)
        roots = {e: us.klein_pattern_root(got, e) for e in got.sqrt_patterns}
        generators = us.klein_generators(got)
    assert got.sqrt_patterns == want.sqrt_patterns
    assert got.witnesses == want.witnesses
    assert got.basis == want.basis
    assert got.index_over_E == want.index_over_E
    assert roots == want_roots
    assert generators == want_generators
    lifts = [got.field.lift_quad(u) for u in got.units]
    for e, root in roots.items():
        prod = qt.QuarticElem(got.field, (1, 0, 0, 0))
        for ei, lift in zip(e, lifts):
            if ei:
                prod = qt.qr_mul(prod, lift)
        assert qt.qr_mul(root, root) == prod
    return got


@settings(max_examples=60, deadline=None)
@given(pair=st.lists(st.sampled_from(SQUAREFREE_1000), min_size=2,
                     max_size=2, unique=True))
def test_klein_square_classes_match_tower_oracle(pair):
    _matches_tower_oracle(*pair)


NORM_MINUS_ONE_1000 = [d for d in SQUAREFREE_1000
                       if fundamental_unit(d).norm_sign == -1]


@settings(max_examples=80, deadline=None)
@given(pair=st.lists(st.sampled_from(NORM_MINUS_ONE_1000), min_size=2,
                     max_size=2, unique=True))
def test_norm_minus_one_square_class_matches_tower_oracle(pair):
    # the fields whose three subfield units all have norm -1: u1*u2*u3 is
    # decided by the four rational-square tests
    ranked = us.subfield_units(*pair)[0]
    assume(all(quad_norm(r.unit) < 0 for r in ranked))
    _matches_tower_oracle(*pair)


def _pairs(ds):
    return st.lists(st.sampled_from(ds), min_size=2, max_size=2, unique=True)


@settings(max_examples=150, deadline=None)
@given(pair=st.one_of(_pairs(SQUAREFREE_1000), _pairs(NORM_MINUS_ONE_1000)))
def test_generators_match_fraction_route(pair):
    # the integer numerators give the roots and generators of the Fraction
    # route, element by element; pairs of norm -1 d's mostly have all
    # three subfield units of norm -1, and so a norm -1 witness to build
    s = us.klein_unit_structure(*pair)
    for e in s.sqrt_patterns:
        assert us.klein_pattern_root(s, e) == fraction_route_root(s, e)
    assert us.klein_generators(s) == fraction_route_generators(s)


@pytest.mark.parametrize("d1, d2, patterns", [
    (2, 3, ((0, 0, 1), (0, 1, 0), (0, 1, 1))),  # delta = d2, d3, d1
    (2, 7, ((0, 0, 1), (0, 1, 0), (0, 1, 1))),  # delta = d1, d1, 1
    (2, 5, ((1, 1, 1),)),      # all norms -1: u1*u2*u3 is a square
    (2, 85, ()),               # all norms -1: u1*u2*u3 is not
    (383, 503, ((0, 0, 1), (1, 1, 0), (1, 1, 1))),
    (2, 29, ((1, 1, 1),)),     # all norms -1: the other (eps, nu) branches
    (2, 37, ((1, 1, 1),)),
    (2, 53, ((1, 1, 1),)),
])
def test_klein_square_classes_fixed(d1, d2, patterns):
    assert _matches_tower_oracle(d1, d2).sqrt_patterns == patterns


@pytest.mark.parametrize("d1, d2, eps, nu", [
    (2, 29, 1, 1), (2, 37, -1, 1), (2, 53, -1, -1), (2, 5, 1, -1)])
def test_norm_minus_one_root_branches(d1, d2, eps, nu):
    # the four fields take the four branches (eps, nu), read off the root
    # x itself: with tau fixing the smallest unit's subfield K,
    # x*tau(x) = eps*u_i, and g = (x + tau(x))/2 in K has
    # N(g) = nu*(a_j - eps*a_k)/2
    s = _matches_tower_oracle(d1, d2)
    assert s.witnesses[(1, 1, 1)][:2] == (eps, nu)
    x = us.klein_pattern_root(s, (1, 1, 1))
    ui, uj, uk = s.units
    xt = galois_apply(s.fixers[0], x)
    assert qt.qr_mul(x, xt) == s.field.lift_quad(
        QuadElem(ui.d, eps * ui.a, eps * ui.b))
    g2 = qt.qr_add(x, xt)  # 2g
    norm = qt.qr_mul(g2, galois_apply(s.fixers[1], g2))
    assert norm.is_rational()
    assert norm.coords[0] / 4 == nu * (uj.a - eps * uk.a) / 2


@pytest.mark.parametrize("d1, d2", [(2, 3), (3, 5), (383, 503)])
def test_norm_plus_one_fields_skip_tower_test(d1, d2, monkeypatch):
    # a field with a norm +1 subfield unit is decided by integers alone
    want, want_roots, want_generators = klein_patterns_tower(d1, d2)

    def forbidden(a):
        raise AssertionError("sqrt_in_field must not run")

    monkeypatch.setattr(oracles, "sqrt_in_field", forbidden)
    got = us.klein_unit_structure(d1, d2)
    assert any(quad_norm(u) > 0 for u in got.units)
    assert got.witnesses == want.witnesses
    assert {e: us.klein_pattern_root(got, e)
            for e in got.sqrt_patterns} == want_roots
    assert us.klein_generators(got) == want_generators


def test_library_has_no_tower_square_root():
    # one square-class algorithm: the tower square root is a test oracle
    for name in ("biquadratic", "quadratic", "units"):
        module = getattr(unitlat, name)
        assert not hasattr(module, "sqrt_in_field")
        assert not hasattr(module, "quad_sqrt")
    assert "sqrt_in_field" not in unitlat.__all__


def test_catalog_roundtrip(entry):
    blob = json.dumps(entry.to_json())
    again = us.CyclicCatalogEntry.from_json(json.loads(blob))
    assert again == entry


def test_catalog_entry_fields(entry):
    assert entry.coeffs == (2, 0, -4, 0, 1)
    assert entry.quad_subfield_d == 2
    assert entry.u_l == fundamental_unit(2).unit
    assert entry.Q_index == 2
    assert entry.u_star is not None


def test_entry_invariants():
    with pytest.raises(us.CatalogValidationError):
        us.CyclicCatalogEntry("x", (2, 0, -4, 0, 1), 2,
                              fundamental_unit(2).unit, (0, 1, 0, 0),
                              u_star=None, Q_index=2)
    with pytest.raises(us.CatalogValidationError):
        us.CyclicCatalogEntry("x", (2, 0, -4, 0, 1), 2,
                              fundamental_unit(2).unit, (0, 1, 0, 0),
                              Q_index=3)


def test_hasse_relations_pass(entry, ctx):
    report = us.verify_hasse_relations(entry, ctx)
    assert all(report.values()), report
    assert len(report) == 9


def test_hasse_relations_fail_on_corruption(entry, ctx):
    # u0 := lift of u_l is a unit but not independent of u_l
    bad = us.CyclicCatalogEntry(
        entry.label, entry.coeffs, entry.quad_subfield_d, entry.u_l,
        u0=ctx.u_l_emb.coords, u_star=entry.u_star, Q_index=2)
    report = us.verify_hasse_relations(bad, ctx)
    assert not all(report.values())
    assert not report["u0 independent of u_l"]
    # u_star := u_l * u_star breaks the relative norm relation
    star = qt.qr_mul(ctx.u_l_emb, qt.QuarticElem(ctx.field, entry.u_star))
    bad2 = us.CyclicCatalogEntry(
        entry.label, entry.coeffs, entry.quad_subfield_d, entry.u_l,
        u0=entry.u0, u_star=star.coords, Q_index=2)
    report2 = us.verify_hasse_relations(bad2, ctx)
    assert not report2["N_{L/l}(u_star) = u_star sigma^2(u_star) = +-u_l"]
    with pytest.raises(us.CatalogValidationError):
        us.cyclic_generators(bad, ctx, report)


def test_hasse_relations_report_non_unit_u0(entry, ctx):
    # a non-unit u0 fails its relations instead of raising from a log
    # embedding
    bad = us.CyclicCatalogEntry(
        entry.label, entry.coeffs, entry.quad_subfield_d, entry.u_l,
        u0=(2, 0, 0, 0), u_star=entry.u_star, Q_index=2)
    report = us.verify_hasse_relations(bad, ctx)
    assert not report["u0 is a unit"]
    assert not report["u0 independent of u_l"]


def test_search_relative_units_finds_u_star(entry, ctx):
    hits = oracles.search_relative_units(ctx, 2)
    assert hits
    # each k is exact: the relative norm is +-u_l^k; so each hit is a unit
    s2 = ctx.field.sigma2
    for c, k in hits:
        assert all(type(v) is int for v in c)
        e = qt.QuarticElem(ctx.field, c)
        power = qr_pow(ctx.u_l_emb, k)
        assert qt.qr_mul(e, s2(e)) in (power, qt.qr_neg(power))
        assert qt.is_unit(e)
        assert abs(char_poly(e)[4]) == 1
    odd = [(qt.QuarticElem(ctx.field, c), k) for c, k in hits if k % 2 != 0]
    assert odd, "no u_star witness at height 2"
    # the committed u_star is among them up to sign
    star = qt.QuarticElem(ctx.field, entry.u_star)
    assert any(e == star or e == qt.qr_neg(star) for e, _ in odd)


def _pinned_hit_fields():
    with open(DATA / "cyclic_search_hits_6.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("pinned", _pinned_hit_fields(),
                         ids=lambda f: "x4_%s_d%d" % (
                             "_".join(map(str, f["coeffs"][:4])),
                             f["quad_subfield_d"]))
def test_search_hit_order_matches_pinned(pinned):
    # the order populate picks u0 and u_star from (order_hits), pinned at
    # height 6 for the three shipped fields, x^4 - 10x^2 + 5 and
    # x^4 - 82x^2 + 656
    ctx = _pinned_context(pinned)
    hits = oracles.order_hits(ctx, oracles.search_relative_units(ctx, 6))
    assert [[[int(c) for c in e.coords], k] for e, k, _ in hits] \
        == pinned["hits"]


def _pinned_context(pinned):
    d = pinned["quad_subfield_d"]
    return us.cyclic_context(pinned["coeffs"], d, fundamental_unit(d).unit)


# the pinned fields, and zeta15+ through alpha = 2*beta, where sigma^2 has
# common denominator 4 (sigma^2(alpha) = 2 - 4 alpha + alpha^3/4)
SCREEN_FIELDS = [(tuple(f["coeffs"]), f["quad_subfield_d"])
                 for f in _pinned_hit_fields()] + [((16, 32, -16, -2, 1), 5)]


@functools.lru_cache(maxsize=None)
def _screen_case(coeffs, d):
    ctx = us.cyclic_context(coeffs, d, fundamental_unit(d).unit)
    return ctx, [c for c, _ in oracles.search_relative_units(ctx, 6)]


@pytest.mark.parametrize("coeffs, d", SCREEN_FIELDS)
def test_integer_screen_matches_fraction_screen(coeffs, d):
    # every float-filtered grid candidate at height 6 gets the same k
    # (or None) from the integer screen as from qr_mul in Fractions
    ctx, hits = _screen_case(coeffs, d)
    if coeffs == SCREEN_FIELDS[-1][0]:
        assert ctx.field.sigma2.den == 4
    exponent = oracles.relative_norm_screen(ctx)
    cands = oracles.grid_candidates(ctx.field, 6, ctx.precision_bits)
    got = [exponent(c) for c in cands]
    assert got == [fraction_norm_exponent(ctx, c) for c in cands]
    # the search keeps every screened candidate but -1
    assert sum(k is not None and any(c[1:])
               for k, c in zip(got, cands)) == len(hits) > 0


@pytest.mark.parametrize("coeffs, d", SCREEN_FIELDS)
def test_grid_candidates_match_exact_norm(coeffs, d):
    # the float64 filter keeps exactly the half box's c with N(c) = +-1,
    # in lexicographic order; x^4 - x^3 - 4x^2 + 4x + 1 has the unit
    # alpha^3, so its (0, 0, 0, -1) is in the list
    ctx, _ = _screen_case(coeffs, d)
    for h in (1, 2, 3):
        want = oracles.unit_half_box(coeffs, h)
        assert oracles.grid_candidates(ctx.field, h,
                                       ctx.precision_bits) == want
        assert ([0, 0, 0, -1] in want) == (coeffs[0] == 1)


@pytest.mark.parametrize("coeffs, d", SCREEN_FIELDS)
def test_u_l_powers_match_qr_pow(coeffs, d):
    # the integer table of u_l^k, powers taken as integer triples in
    # Q(sqrt(d)) and lifted, equals the powers in L
    ctx, _ = _screen_case(coeffs, d)
    powers = oracles.u_l_power_table(ctx)
    assert sorted(powers) == list(range(-12, 13))
    for k, (num, q) in powers.items():
        assert all(type(v) is int for v in num) and q > 0
        assert qt.QuarticElem(ctx.field, [Fraction(v, q) for v in num]) \
            == qr_pow(ctx.u_l_emb, k)


# the default catalog and the cyclic catalogs under tests/data
# (not_cyclic_catalog.json names no cyclic field); the screen's fields
# are checked at every k by test_u_l_powers_match_qr_pow
U_L_ENTRIES = load_default_catalog() + [
    us.CyclicCatalogEntry.from_json(obj)
    for name in ("cyclic_u0_squared.json", "cyclic_conductor17.json")
    for obj in json.loads((DATA / name).read_text())]


@pytest.mark.parametrize("catalog_entry", U_L_ENTRIES, ids=lambda e: e.label)
def test_u_l_image_matches_power_table(catalog_entry):
    # the image of u_l, a + b times the image of sqrt(d), equals the
    # oracle's k = 1 entry of the table of +-u_l^k
    e = catalog_entry
    ctx = us.cyclic_context(e.coeffs, e.quad_subfield_d, e.u_l)
    assert ctx.u_l_emb == oracles.u_l_power(ctx, 1)


MOVED_TO_ORACLES = ("search_relative_units", "grid_candidates",
                    "relative_norm_screen", "u_l_power_table", "u_l_power",
                    "hit_sort_key", "order_hits", "populate_cyclic_entry")


def test_package_exports_only_library_names():
    # every exported name resolves, and the box search lives only in the
    # test oracles: no library module defines or names it
    assert all(hasattr(unitlat, name) for name in unitlat.__all__)
    sources = [path.read_text()
               for path in Path(unitlat.__file__).parent.glob("*.py")]
    for name in MOVED_TO_ORACLES:
        assert not hasattr(us, name) and not hasattr(unitlat, name)
        assert not any(name in text for text in sources)
        assert callable(getattr(oracles, name))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SCREEN_FIELDS), st.lists(st.integers(-40, 40),
                                                min_size=4, max_size=4),
       st.sampled_from([None, 1, 2, 3]))
def test_integer_screen_matches_fraction_screen_drawn(field, vec, conj):
    # drawn vectors, or hits moved by sigma^j where that stays integral,
    # so that both None and hits are exercised
    ctx, hits = _screen_case(*field)
    c = vec
    if conj is not None:
        hit = qt.QuarticElem(ctx.field, hits[vec[0] % len(hits)])
        for _ in range(conj):
            hit = ctx.field.sigma(hit)
        if any(v.denominator != 1 for v in hit.coords):
            return
        c = [int(v) for v in hit.coords]
        assert fraction_norm_exponent(ctx, c) is not None
    assert oracles.relative_norm_screen(ctx)(c) \
        == fraction_norm_exponent(ctx, c)


@pytest.mark.parametrize("pinned", _pinned_hit_fields(),
                         ids=lambda f: "x4_%s_d%d" % (
                             "_".join(map(str, f["coeffs"][:4])),
                             f["quad_subfield_d"]))
def test_conjugate_hits_tie_exactly(pinned):
    # a hit and its Galois conjugate (up to sign) among the hits have the
    # identical sort key in populate's order, so coords, not rounding,
    # order them
    ctx = _pinned_context(pinned)
    hits = oracles.order_hits(ctx, oracles.search_relative_units(ctx, 6))
    keys = {e.coords: oracles.hit_sort_key(lv) for e, _, lv in hits}
    pairs = 0
    for e, _, _ in hits:
        conj = e
        for _ in range(3):
            conj = ctx.field.sigma(conj)
            for cand in (conj, qt.qr_neg(conj)):
                if cand.coords in keys and cand.coords != e.coords:
                    assert keys[cand.coords] == keys[e.coords]
                    pairs += 1
    assert pairs >= len(hits) // 2


@pytest.mark.parametrize("bits", [None, 64, 300])
def test_one_root_solve_per_field_per_op(bits, monkeypatch):
    # a fresh field's cyclic report brackets the real roots of each
    # polynomial once, at any working precision: the defining quartic and
    # its resolvent cubic; mpmath.polyroots is never called
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
    shipped = load_default_catalog()[2]
    kwargs = {} if bits is None else {"precision_bits": bits}
    value, _ = cyclic_entry_report(shipped, **kwargs)
    assert value is not None
    assert calls.count(shipped.coeffs) == 1
    assert len(calls) == len(set(calls)) == 2


@pytest.mark.parametrize("bits", [64, 128, 300])
def test_search_logs_equal_log_embed_cyclic(entry, bits):
    ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d, entry.u_l,
                            bits)
    hits = oracles.order_hits(ctx, oracles.search_relative_units(ctx, 4))
    assert hits
    for e, _, lv in hits:
        assert lv.precision_bits == bits
        assert lv == log_embed_cyclic(e, bits)


def _up_to_sign(vectors):
    return sorted(max(v, tuple(-x for x in v)) for v in vectors)


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_report_evaluates_only_generators(shipped, monkeypatch):
    # cyclic_entry_report evaluates at the roots only its three generators,
    # once each, and the image of sqrt(d) that cyclic_context signs, and
    # saturating the catalog's generators embeds nothing more
    ctx = us.cyclic_context(shipped.coeffs, shipped.quad_subfield_d,
                            shipped.u_l)
    gens, _, _ = us.cyclic_generators(shipped, ctx,
                                      us.verify_hasse_relations(shipped, ctx))
    want = _up_to_sign([ctx.sqrt_d.coords] + [g.coords for g in gens])
    cyclic_entry_report(shipped)  # the per-precision constants, once
    embedded, counts = [], {"log": 0}
    embed_all, log = qt.embed_all, mpmath.log

    def counting_embed(a, *args):
        embedded.append(a.coords)
        return embed_all(a, *args)

    def counting_log(*args, **kwargs):
        counts["log"] += 1
        return log(*args, **kwargs)

    monkeypatch.setattr(qt, "embed_all", counting_embed)
    monkeypatch.setattr(mpmath, "log", counting_log)
    _, reports = cyclic_entry_report(shipped)
    assert next(r.relation for r in reports
                if r.name == "unit_group_saturated") == "holds"
    assert len(embedded) == 4
    assert _up_to_sign(embedded) == want
    # the LOGs of u_l and u0 (and u_star), one log per root, and the
    # index bound's log(phi)
    assert counts["log"] == 4 * (shipped.Q_index + 1) + 1


# each shipped entry, and Q(zeta15)+ through alpha = 2*beta, where
# u0 = -3 + alpha^2/4 has a denominator
PROOF_ENTRIES = load_default_catalog() + [us.CyclicCatalogEntry(
    "Q(zeta15)+ at 2*beta", (16, 32, -16, -2, 1), 5,
    fundamental_unit(5).unit, (-3, 0, Fraction(1, 4), 0))]


@functools.lru_cache(maxsize=None)
def _proof_generators(i):
    entry = PROOF_ENTRIES[i]
    ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d, entry.u_l)
    return us.cyclic_generators(entry, ctx,
                                us.verify_hasse_relations(entry, ctx))


def test_proof_entries_have_denominators():
    # the last entry's generators need the common denominator D > 1
    gens, _, _ = _proof_generators(len(PROOF_ENTRIES) - 1)
    assert max(v.denominator for g in gens for v in g.coords) > 1


@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(PROOF_ENTRIES) - 1),
       st.tuples(*[st.integers(-3, 3)] * 3), st.sampled_from([1, -1]),
       st.integers(0, 2), st.sampled_from([1, -1]))
def test_row_proof_is_exact(i, row, sign, slot, step):
    # x = +-prod g_i^n_i: the oracle's float64 proposal finds exactly n,
    # its integer proof accepts n and rejects n with one entry off by one
    gens, _, gen_logs = _proof_generators(i)
    x = gens[0].field.from_rational(1)
    for g, n in zip(gens, row):
        x = qt.qr_mul(x, qr_pow(g, n))
    c = x.coords if sign > 0 else qt.qr_neg(x).coords
    assert oracles.propose_rows(x.field, gen_logs, [c]) == [list(row)]
    proves = oracles.row_prover(gens)
    assert proves(c, row)
    off = list(row)
    off[slot] += step
    assert not proves(c, off)
    assert oracles.regulator_cross_check(
        gens, gen_logs, [g.coords for g in gens] + [c]) == (True, 1)


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_proposed_rows_of_search_hits_are_proved(shipped):
    # every height-6 search hit of a shipped entry gets, from the oracle's
    # float64 proposal, a row that its exact prover accepts
    ctx = us.cyclic_context(shipped.coeffs, shipped.quad_subfield_d,
                            shipped.u_l)
    gens, _, gen_logs = us.cyclic_generators(
        shipped, ctx, us.verify_hasse_relations(shipped, ctx))
    hits = [c for c, _ in oracles.search_relative_units(ctx, 6)]
    rows = oracles.propose_rows(ctx.field, gen_logs, hits)
    proves = oracles.row_prover(gens)
    assert len(rows) == len(hits) > 0
    assert all(proves(c, n) for c, n in zip(hits, rows))


def test_cross_check_rejects_u0_squared():
    # Q(zeta15)+ with u0 replaced by u0^2: the Hasse relations hold, but
    # the hit u0 has the row (0, 1/2, 0), which no integer row proves
    shipped = load_default_catalog()[2]
    ctx = us.cyclic_context(shipped.coeffs, shipped.quad_subfield_d,
                            shipped.u_l)
    u0 = qt.QuarticElem(ctx.field, shipped.u0)
    assert qt.qr_mul(u0, u0).coords == (8, -4, -2, 1)
    bad = dataclasses.replace(shipped, u0=(8, -4, -2, 1))
    hasse = us.verify_hasse_relations(bad, ctx)
    assert all(hasse.values())
    gens, _, gen_logs = us.cyclic_generators(bad, ctx, hasse)
    hits = [c for c, _ in oracles.search_relative_units(ctx, 6)]
    assert u0.coords in hits or qt.qr_neg(u0).coords in hits
    assert oracles.regulator_cross_check(gens, gen_logs, hits) \
        == (False, None)


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_generator_logs_do_not_reprove_units(shipped, monkeypatch):
    # the passed Hasse report already proved u_l, u0 and u_star units
    ctx = us.cyclic_context(shipped.coeffs, shipped.quad_subfield_d,
                            shipped.u_l)
    hasse = us.verify_hasse_relations(shipped, ctx)
    gens = [ctx.u_l_emb, qt.QuarticElem(ctx.field, shipped.u0)]
    if shipped.Q_index == 2:
        gens.append(qt.QuarticElem(ctx.field, shipped.u_star))
    want = [log_embed_cyclic(x) for x in gens]

    def forbidden(*args):
        raise AssertionError("cyclic_generators must not prove units")

    monkeypatch.setattr(qt, "is_unit", forbidden)
    got_gens, _, got = us.cyclic_generators(shipped, ctx, hasse)
    assert list(got[:len(want)]) == want
    assert list(got_gens[:len(gens)]) == gens


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_populated_entry_matches_catalog(shipped):
    # the shipped entries were produced at height 6; reproduction is exact
    rebuilt = oracles.populate_cyclic_entry(
        shipped.coeffs, shipped.quad_subfield_d, shipped.label, height_bound=6)
    assert rebuilt == shipped
    if shipped.Q_index == 2:
        # a smaller search window finds a different but still valid witness
        small = oracles.populate_cyclic_entry(
            shipped.coeffs, shipped.quad_subfield_d, shipped.label,
            height_bound=2)
        assert small.Q_index == 2
        small_ctx = us.cyclic_context(small.coeffs, small.quad_subfield_d,
                                      small.u_l)
        assert all(us.verify_hasse_relations(small, small_ctx).values())


def test_regulator_cross_check(entry, ctx):
    gens, _, gen_logs = us.cyclic_generators(
        entry, ctx, us.verify_hasse_relations(entry, ctx))
    hits = oracles.search_relative_units(ctx, 4)
    ok, index = oracles.regulator_cross_check(gens, gen_logs,
                                              [c for c, _ in hits])
    assert ok
    assert index == 1


def test_regulator_cross_check_needs_hits(entry, ctx):
    # an empty search proves nothing, so it must not read as "holds"
    gens, _, gen_logs = us.cyclic_generators(
        entry, ctx, us.verify_hasse_relations(entry, ctx))
    assert oracles.regulator_cross_check(gens, gen_logs, []) == (False, None)


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_cyclic_wedge_rows_are_wedges(shipped):
    # cyclic_wedge_rows in terms of the report's (W1, W2, W3) against
    # wedge2 of the log vectors of u_l, u0 and sigma(u0), at working
    # precision
    ctx = us.cyclic_context(shipped.coeffs, shipped.quad_subfield_d,
                            shipped.u_l)
    u0 = qt.QuarticElem(ctx.field, shipped.u0)
    lv_ul, lv_u0, lv_su0 = (log_embed_cyclic(x) for x in
                            (ctx.u_l_emb, u0, ctx.field.sigma(u0)))
    _, reports = cyclic_entry_report(shipped)
    detail = next(r.details for r in reports if r.name == "cyclic_min_1norm")
    ws = (detail["W1"], detail["W2"], detail["W3"])
    wedges = (wedge2(lv_ul, lv_u0), wedge2(lv_ul, lv_su0),
              wedge2(lv_u0, lv_su0))
    with mpmath.workprec(128):
        rows = cyclic_wedge_rows(*ws)
    for got, want in zip(wedges, rows):
        assert all(abs(g - w) < mpmath.mpf(2) ** -100
                   for g, w in zip(got.coords, want))


def test_cyclic_log_vectors(entry, ctx):
    _, _, gen_logs = us.cyclic_generators(
        entry, ctx, us.verify_hasse_relations(entry, ctx))
    w1, (w2, w3) = gen_logs[0].coords[0], gen_logs[1].coords[:2]
    assert abs(float(w1) - 0.8813735870195430) < 1e-12  # log(1+sqrt2)
    assert float(w2) > 0 and float(w3) > 0
    for lv in gen_logs:
        assert lv.convention == "cyclic"


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_orbit_log_matches_sigma_loop(shipped):
    # log_embed_cyclic reads each coordinate off one evaluation at the
    # sigma-orbit of the roots; the oracle applies the exact sigma instead
    ctx = us.cyclic_context(shipped.coeffs, shipped.quad_subfield_d,
                            shipped.u_l)
    u0 = qt.QuarticElem(ctx.field, shipped.u0)
    units = [ctx.u_l_emb, u0, ctx.field.sigma(u0)]
    if shipped.u_star is not None:
        units.append(qt.QuarticElem(ctx.field, shipped.u_star))
    hits = oracles.order_hits(ctx, oracles.search_relative_units(ctx, 6))
    assert len(hits) >= 80
    # log_embed_cyclic on the generators and the hits, and the LOG
    # order_hits sorts each hit by
    logs = [(x, log_embed_cyclic(x)) for x in units + [e for e, _, _ in hits]]
    logs += [(e, lv) for e, _, lv in hits]
    with mpmath.workprec(144):
        for x, lv in logs:
            want = sigma_loop_log(x)
            assert max(abs(g - w) for g, w in zip(lv.coords, want)) \
                < mpmath.mpf(2) ** -100


# what populate raises on the field whose entry the unit group check
# rejects
POPULATE_ERRORS = {5: "not saturated.*index 8"}


@pytest.mark.parametrize("coeffs, d", [((5, 0, -10, 0, 1), 5)])
def test_populate_rejects_failed_cross_check(coeffs, d):
    # the search returns an entry whose Hasse relations hold, and
    # saturate, which replaced the regulator cross-check, rejects it: its
    # generators span index 8 in the unit group
    with pytest.raises(us.CatalogValidationError, match=POPULATE_ERRORS[d]):
        oracles.populate_cyclic_entry(coeffs, d, "probe")


def test_populate_saturates_bound_399_field(monkeypatch):
    # x^4 - 82x^2 + 656 (d = 41): the generators populate picks have index
    # bound 399, and the characters reach rank 3 at each of the 78 primes
    # up to it, so the entry is proven saturated; no class reaches the
    # exact test
    seen = []
    saturate = oracles.saturate
    monkeypatch.setattr(oracles, "saturate", lambda *args: seen.append(
        saturate(*args)) or seen[-1])
    entry = oracles.populate_cyclic_entry((656, 0, -82, 0, 1), 41, "probe")
    assert (entry.Q_index, entry.u_star) == (2, (3, 1, 0, 0))
    assert entry.u0 == (Fraction(-119, 5), Fraction(-69, 10), Fraction(4, 5),
                        Fraction(3, 20))
    (sat,) = seen
    assert sat.index == 1
    assert round(float(sat.bound), 4) == 399.006
    assert len(sat.primes) == 78 and sat.primes[-1] == 397
    assert (sat.characters, sat.exact_checks) == (245, 0)


# ---------------------------------------------------------------------------
# Saturation


def _saturation(entry):
    ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d, entry.u_l)
    gens, values, logs = us.cyclic_generators(
        entry, ctx, us.verify_hasse_relations(entry, ctx))
    return ctx, gens, logs, us.saturate(ctx.field, gens, values, logs)


# the index bound 2 sqrt(2) R' / (2 log phi)^3 of each shipped entry, and
# the primes up to it
SHIPPED_BOUNDS = {"Q(sqrt(2+sqrt2))": 7.7474, "Q(zeta20)+": 5.8786,
                  "Q(zeta15)+": 3.6978}
SHIPPED_PRIMES = {"Q(sqrt(2+sqrt2))": (2, 3, 5, 7), "Q(zeta20)+": (2, 3, 5),
                  "Q(zeta15)+": (2, 3)}
# the characters each shipped entry draws to reach rank 3 at those primes
SHIPPED_CHARACTERS = {"Q(sqrt(2+sqrt2))": 12, "Q(zeta20)+": 11,
                      "Q(zeta15)+": 8}


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_saturate_proves_shipped_entries(shipped):
    # no p-th root for any prime up to the bound: the characters reach
    # rank 3 at each, so the catalog's generators are the whole unit
    # group, and no class reached the exact test
    ctx, gens, logs, sat = _saturation(shipped)
    assert (sat.index, sat.gens) == (1, gens)
    assert round(float(sat.bound), 4) == SHIPPED_BOUNDS[shipped.label]
    assert sat.primes == SHIPPED_PRIMES[shipped.label]
    assert sat.characters == SHIPPED_CHARACTERS[shipped.label]
    assert sat.exact_checks == 0
    # the oracle's cross-check holds for the height-6 search hits
    assert oracles.regulator_cross_check(
        sat.gens, logs,
        [c for c, _ in oracles.search_relative_units(ctx, 6)]) \
        == (True, 1)


def test_index_bound_against_determinant():
    # 2 sqrt(2) R' / (2 log phi)^3 with R' = |det| of any three LOG
    # coordinates, from mpmath's determinant
    for entry in load_default_catalog():
        ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d,
                                entry.u_l)
        _, _, logs = us.cyclic_generators(
            entry, ctx, us.verify_hasse_relations(entry, ctx))
        with mpmath.workprec(144):
            for drop in range(4):
                reg = abs(mpmath.det(mpmath.matrix(
                    [[c for i, c in enumerate(lv.coords) if i != drop]
                     for lv in logs])))
                want = 2 * mpmath.sqrt(2) * reg / (2 * mpmath.log(
                    (1 + mpmath.sqrt(5)) / 2)) ** 3
                assert abs(us.index_bound(logs) - want) < mpmath.mpf(2) ** -100


def test_saturate_finds_u0_squared_roots():
    # Q(zeta15)+ with u0 replaced by u0^2: the Hasse relations hold, and
    # the square roots u0 and sigma(u0) restore the shipped unit group,
    # with the shipped bound
    shipped = load_default_catalog()[2]
    bad = dataclasses.replace(shipped, u0=(8, -4, -2, 1))
    ctx, _, _, sat = _saturation(bad)
    u0 = qt.QuarticElem(ctx.field, shipped.u0)
    assert sat.index == 4
    assert _up_to_sign(g.coords for g in sat.gens[1:]) == _up_to_sign(
        [u0.coords, ctx.field.sigma(u0).coords])
    assert round(float(sat.bound), 4) == SHIPPED_BOUNDS[shipped.label]
    assert sat.primes == (2, 3)
    # each root is found among the 8 sign patterns of its class at p = 2
    assert (sat.characters, sat.exact_checks) == (34, 11)


def test_saturate_conductor_17_finds_fifth_root(monkeypatch):
    # x^4 + x^3 - 6x^2 - x + 1 with the generators populate picks (Q = 2):
    # +-g1 g2^4 g3^3 is the fifth power of -1/2 + 2a + 8a^2 + (5/2)a^3, a
    # unit outside Z[alpha]; no other prime up to the new bound has a root
    seen = []
    saturate = oracles.saturate
    monkeypatch.setattr(oracles, "saturate", lambda *args: seen.append(
        saturate(*args)) or seen[-1])
    with pytest.raises(us.CatalogValidationError,
                       match=r"index 5 .*\[-1/2, 2, 8, 5/2\]"):
        oracles.populate_cyclic_entry((1, -1, -6, 1, 1), 17, "conductor 17")
    (sat,) = seen
    root = qt.QuarticElem(sat.gens[0].field, (Fraction(-1, 2), 2, 8,
                                              Fraction(5, 2)))
    assert sat.index == 5
    assert sum(g == root or g == qt.qr_neg(root) for g in sat.gens) == 1
    assert round(float(sat.bound), 4) == 10.9843  # 54.9214 before the root
    assert sat.primes == (2, 3, 5, 7)
    assert (sat.characters, sat.exact_checks) == (22, 1)


def _planted(i, p, slot):
    """A shipped entry's generators with gens[slot] raised to the p-th
    power, so that they span index p, with their values and LOGs."""
    entry = load_default_catalog()[i]
    ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d, entry.u_l)
    gens, _, _ = us.cyclic_generators(
        entry, ctx, us.verify_hasse_relations(entry, ctx))
    gens = list(gens)
    gens[slot] = qr_pow(gens[slot], p)
    prec = ctx.precision_bits
    values = [qt.embed_all(g, prec) for g in gens]
    logs = [orbit_log(ctx.field, v, prec) for v in values]
    return ctx, gens, values, logs


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_saturate_finds_planted_roots(i, p, slot):
    # a generator replaced by its p-th power: saturate finds a p-th root,
    # the index is p and the bound returns to the shipped one; every root
    # of a totally mixed-sign generator needs the sign patterns at p = 2,
    # and an odd p reaches the exact test with its one candidate
    ctx, gens, values, logs = _planted(i, p, slot)
    sat = us.saturate(ctx.field, gens, values, logs)
    assert sat.index == p
    label = load_default_catalog()[i].label
    assert round(float(sat.bound), 4) == SHIPPED_BOUNDS[label]
    assert 1 <= sat.exact_checks <= (8 if p == 2 else 1)


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_saturate_finds_planted_negative_square(i, slot):
    # a generator replaced by eta = -g^2, totally negative: g is a square
    # root of -eta only, so the characters must vanish on -1, which
    # q = 1 mod 4 makes them do; a character at q = 3 mod 4 would reject
    # the class
    ctx, gens, values, logs = _planted(i, 2, slot)
    gens[slot] = qt.qr_neg(gens[slot])
    values[slot] = qt.embed_all(gens[slot], ctx.precision_bits)
    sat = us.saturate(ctx.field, gens, values, logs)
    g = _shipped_units(i)[1][slot]
    assert sat.index == 2
    assert sat.gens[slot] in (g, qt.qr_neg(g))


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_planted_square_roots_have_mixed_signs(shipped):
    # u0, the root planted in slot 1 at p = 2, changes sign across the
    # roots of f: a screen trying only the all-positive sign pattern at
    # p = 2 would miss it
    ctx = us.cyclic_context(shipped.coeffs, shipped.quad_subfield_d,
                            shipped.u_l)
    values = qt.embed_all(qt.QuarticElem(ctx.field, shipped.u0))
    assert {v > 0 for v in values} == {True, False}


def _shipped_units(i):
    """The shipped entry i's field and generators."""
    entry = load_default_catalog()[i]
    ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d, entry.u_l)
    gens, _, _ = us.cyclic_generators(
        entry, ctx, us.verify_hasse_relations(entry, ctx))
    return ctx.field, gens


@settings(max_examples=60, deadline=None)
@given(i=st.integers(0, 2), p=st.sampled_from([2, 3, 5, 7]),
       place=st.integers(0, 39),
       m=st.tuples(*[st.integers(0, 3)] * 3),
       n=st.tuples(*[st.integers(0, 3)] * 3))
def test_character_is_a_homomorphism(i, p, place, m, n):
    # chi at an admissible place (q, rho) of products a, b of the shipped
    # generators: chi(ab) = chi(a) + chi(b) and chi(-a) = chi(a) mod p,
    # and chi vanishes on the p-th power a^p; each place is a prime
    # q = 1 mod 2p prime to disc f and the denominators, with f(rho) = 0
    # mod q
    field, gens = _shipped_units(i)
    den = math.lcm(*(qt.integer_coords(g.coords)[1] for g in gens))
    q, rho = next(itertools.islice(us._places(field, den, p), place, None))
    assert q % (2 * p) == 1 and all(q % r for r in range(2, q))
    assert qt.trace_form(field.coeffs)[2] % q and den % q
    assert sum(c * rho ** k for k, c in enumerate(field.coeffs)) % q == 0

    def product(exps):
        x = field.from_rational(1)
        for g, k in zip(gens, exps):
            x = qt.qr_mul(x, qr_pow(g, k))
        return x

    a, b = product(m), product(n)
    dlog = us._dlog_table(q, p)
    assert sorted(dlog.values()) == list(range(p)) and 1 in dlog
    chi = functools.partial(us.character, q=q, rho=rho, dlog=dlog)
    assert chi(qt.qr_mul(a, b)) == (chi(a) + chi(b)) % p
    assert chi(qt.qr_neg(a)) == chi(a)
    assert chi(qr_pow(a, p)) == 0


def test_saturate_checks_every_survivor_exactly(monkeypatch):
    # characters that begin with SIEVE_STALL zero rows send every class
    # to the exact test: none of the shipped generators' classes has a
    # root, so the 8 sign patterns of each of the 7 classes at p = 2 and
    # the one candidate of each of the 13 at p = 3 are checked and
    # rejected; a class accepted unchecked would read as a root
    characters = us._characters

    def zero_rows_first(field, gens, p):
        return itertools.chain([(0, 0, 0)] * us.SIEVE_STALL,
                               characters(field, gens, p))

    monkeypatch.setattr(us, "_characters", zero_rows_first)
    _, gens, _, sat = _saturation(load_default_catalog()[2])
    assert sat.index == 1 and sat.gens == gens
    assert sat.exact_checks == 7 * 8 + 13


def test_saturate_zero_characters_never_read_as_saturated(monkeypatch):
    # characters that are all zero leave every class in the kernel: the
    # exact test rejects each, and the prime stays undecided after
    # SATURATION_MAX_CHARACTERS characters, which raises
    monkeypatch.setattr(us, "_characters",
                        lambda field, gens, p: itertools.repeat((0, 0, 0)))
    with pytest.raises(qt.UnitSearchError,
                       match="undecided at p = 2 after 64 characters"):
        _saturation(load_default_catalog()[2])


def test_kernel_classes_against_brute_force():
    # the classes that _kernel_classes lists are those of every e in
    # F_p^3 \ 0 on which the rows vanish, at random rows of rank 0 to 2
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            rows = []
            for _ in range(rng.randrange(3)):
                us._reduce_row(rows, [rng.randrange(p) for _ in range(3)], p)
            if len(rows) == 3:
                continue
            want = sorted(
                e for e in itertools.product(range(p), repeat=3)
                if any(e) and e[next(k for k in range(3) if e[k])] == 1
                and all(sum(a * b for a, b in zip(r, e)) % p == 0
                        for _, r in rows))
            assert sorted(us._kernel_classes(rows, p)) == want


def test_saturate_gives_up_above_max_prime(monkeypatch):
    # a bound that needs primes above SATURATION_MAX_PRIME raises, never
    # reads as saturated
    monkeypatch.setattr(us, "SATURATION_MAX_PRIME", 3)
    with pytest.raises(qt.UnitSearchError, match="saturation gave up"):
        _saturation(load_default_catalog()[1])
