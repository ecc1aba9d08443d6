import dataclasses
import functools
import importlib
import itertools
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

import unitlat
from unitlat import units as us
from unitlat import verifier as vf
from unitlat import quartic as qt
from unitlat.loglattice import cyclic_wedge_rows, wedge2
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
    units, logs, fixers, norm_signs = us.subfield_units(2, 5)
    # ascending: (1+sqrt5)/2 < 1+sqrt2 < 3+sqrt10
    assert [u.d for u in units] == [5, 2, 10]
    assert logs == tuple(fundamental_unit(u.d).log_value for u in units)
    assert fixers == ("s2", "s1", "s3")
    assert norm_signs == (-1, -1, -1)
    assert us.subfield_units(2, 3)[3] == (-1, 1, 1)  # 1+sqrt2, 2+sqrt3, 5+sqrt6


def test_subfield_units_keep_exact_order(monkeypatch):
    # the (trace, -norm) sort reproduces the all-quad_cmp sort on the 864
    # pairs of the pinned klein-random pool of perfbench
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    pool = [pair for cell in importlib.import_module("workloads").klein_pool()
            for pair in cell]
    assert len(pool) == 864
    for d1, d2 in pool:
        units = us.subfield_units(d1, d2)[0]
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
    units = us.subfield_units(*pair)[0]
    assume(all(quad_norm(u) < 0 for u in units))
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
    hits = us.search_relative_units(ctx, 2)
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
    # height 6 for the three shipped fields and the two populate rejects
    ctx = _pinned_context(pinned)
    hits = us.order_hits(ctx, us.search_relative_units(ctx, 6))
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
    return ctx, [c for c, _ in us.search_relative_units(ctx, 6)]


@pytest.mark.parametrize("coeffs, d", SCREEN_FIELDS)
def test_integer_screen_matches_fraction_screen(coeffs, d):
    # every float-filtered grid candidate at height 6 gets the same k
    # (or None) from the integer screen as from qr_mul in Fractions
    ctx, hits = _screen_case(coeffs, d)
    if coeffs == SCREEN_FIELDS[-1][0]:
        assert ctx.field.sigma2.integer_matrix()[0] == 4
    exponent = us.relative_norm_screen(ctx)
    cands = us.grid_candidates(ctx.field, 6, ctx.precision_bits)
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
        assert us.grid_candidates(ctx.field, h, ctx.precision_bits) == want
        assert ([0, 0, 0, -1] in want) == (coeffs[0] == 1)


@pytest.mark.parametrize("coeffs, d", SCREEN_FIELDS)
def test_u_l_powers_match_qr_pow(coeffs, d):
    # powers taken in Q(sqrt(d)) and lifted equal the powers in L
    ctx, _ = _screen_case(coeffs, d)
    powers = us.u_l_powers(ctx)
    assert sorted(k for k, _ in powers) == sorted(list(range(-12, 13)) + [0])
    for k, power in powers:
        assert power == qr_pow(ctx.u_l_emb, k)


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
    assert us.relative_norm_screen(ctx)(c) == fraction_norm_exponent(ctx, c)


@pytest.mark.parametrize("pinned", _pinned_hit_fields(),
                         ids=lambda f: "x4_%s_d%d" % (
                             "_".join(map(str, f["coeffs"][:4])),
                             f["quad_subfield_d"]))
def test_conjugate_hits_tie_exactly(pinned):
    # a hit and its Galois conjugate (up to sign) among the hits have the
    # identical sort key in populate's order, so coords, not rounding,
    # order them
    ctx = _pinned_context(pinned)
    hits = us.order_hits(ctx, us.search_relative_units(ctx, 6))
    keys = {e.coords: us.hit_sort_key(lv) for e, _, lv in hits}
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
    hits = us.order_hits(ctx, us.search_relative_units(ctx, 4))
    assert hits
    for e, _, lv in hits:
        assert lv.precision_bits == bits
        assert lv == log_embed_cyclic(e, bits)


def _up_to_sign(vectors):
    return sorted(max(v, tuple(-x for x in v)) for v in vectors)


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_report_evaluates_only_generators(shipped, monkeypatch):
    # cyclic_entry_report evaluates at the roots only the generators it
    # embeds and the image of sqrt(d) that cyclic_context signs; its
    # mpmath.log calls and QuarticElems do not grow with the hits, which
    # it handles as integer vectors
    ctx = us.cyclic_context(shipped.coeffs, shipped.quad_subfield_d,
                            shipped.u_l)
    gens, _ = us.cyclic_generators(shipped, ctx,
                                   us.verify_hasse_relations(shipped, ctx))
    want = _up_to_sign([ctx.sqrt_d.coords]
                       + [g.coords for g in gens[:shipped.Q_index + 1]])
    n_hits = [len(us.search_relative_units(ctx, h)) for h in (4, 6)]
    assert n_hits[0] < n_hits[1]
    cyclic_entry_report(shipped)  # the per-precision constants, once
    embedded, counts = [], {"log": 0, "elem": 0}
    embed_all, log = qt.embed_all, mpmath.log
    post_init = qt.QuarticElem.__post_init__

    def counting_embed(a, *args):
        embedded.append(a.coords)
        return embed_all(a, *args)

    def counting_log(*args, **kwargs):
        counts["log"] += 1
        return log(*args, **kwargs)

    def counting_post_init(self):
        counts["elem"] += 1
        post_init(self)

    monkeypatch.setattr(qt, "embed_all", counting_embed)
    monkeypatch.setattr(mpmath, "log", counting_log)
    monkeypatch.setattr(qt.QuarticElem, "__post_init__", counting_post_init)
    seen = []
    for height in (4, 6):
        monkeypatch.setattr(vf, "REGULATOR_HEIGHT", height)
        embedded.clear()
        counts.update(log=0, elem=0)
        _, reports = cyclic_entry_report(shipped)
        assert next(r.relation for r in reports
                    if r.name == "regulator_cross_check") == "holds"
        assert _up_to_sign(embedded) == want
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["log"] < n_hits[0]


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
    gens, _ = _proof_generators(len(PROOF_ENTRIES) - 1)
    assert max(v.denominator for g in gens for v in g.coords) > 1


@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(PROOF_ENTRIES) - 1),
       st.tuples(*[st.integers(-3, 3)] * 3), st.sampled_from([1, -1]),
       st.integers(0, 2), st.sampled_from([1, -1]))
def test_row_proof_is_exact(i, row, sign, slot, step):
    # x = +-prod g_i^n_i: the float64 proposal finds exactly n, the
    # integer proof accepts n and rejects n with one entry off by one
    gens, gen_logs = _proof_generators(i)
    x = gens[0].field.from_rational(1)
    for g, n in zip(gens, row):
        x = qt.qr_mul(x, qr_pow(g, n))
    c = x.coords if sign > 0 else qt.qr_neg(x).coords
    assert us.propose_rows(x.field, gen_logs, [c]) == [list(row)]
    proves = us.row_prover(gens)
    assert proves(c, row)
    off = list(row)
    off[slot] += step
    assert not proves(c, off)
    assert us.regulator_cross_check(
        gens, gen_logs, [g.coords for g in gens] + [c]) == (True, 1)


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_proposed_rows_of_search_hits_are_proved(shipped):
    # every height-6 search hit of a shipped entry gets, from the float64
    # proposal, a row that the exact prover accepts
    ctx = us.cyclic_context(shipped.coeffs, shipped.quad_subfield_d,
                            shipped.u_l)
    gens, gen_logs = us.cyclic_generators(
        shipped, ctx, us.verify_hasse_relations(shipped, ctx))
    hits = [c for c, _ in us.search_relative_units(ctx, 6)]
    rows = us.propose_rows(ctx.field, gen_logs, hits)
    proves = us.row_prover(gens)
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
    gens, gen_logs = us.cyclic_generators(bad, ctx, hasse)
    hits = [c for c, _ in us.search_relative_units(ctx, 6)]
    assert u0.coords in hits or qt.qr_neg(u0).coords in hits
    assert us.regulator_cross_check(gens, gen_logs, hits) == (False, None)


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
    got_gens, got = us.cyclic_generators(shipped, ctx, hasse)
    assert list(got[:len(want)]) == want
    assert list(got_gens[:len(gens)]) == gens


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_populated_entry_matches_catalog(shipped):
    # the shipped entries were produced at height 6; reproduction is exact
    rebuilt = us.populate_cyclic_entry(shipped.coeffs, shipped.quad_subfield_d,
                                       shipped.label, height_bound=6)
    assert rebuilt == shipped
    if shipped.Q_index == 2:
        # a smaller search window finds a different but still valid witness
        small = us.populate_cyclic_entry(shipped.coeffs, shipped.quad_subfield_d,
                                         shipped.label, height_bound=2)
        assert small.Q_index == 2
        small_ctx = us.cyclic_context(small.coeffs, small.quad_subfield_d,
                                      small.u_l)
        assert all(us.verify_hasse_relations(small, small_ctx).values())


def test_regulator_cross_check(entry, ctx):
    gens, gen_logs = us.cyclic_generators(
        entry, ctx, us.verify_hasse_relations(entry, ctx))
    hits = us.search_relative_units(ctx, 4)
    ok, index = us.regulator_cross_check(gens, gen_logs,
                                         [c for c, _ in hits])
    assert ok
    assert index == 1


def test_regulator_cross_check_needs_hits(entry, ctx):
    # an empty search proves nothing, so it must not read as "holds"
    gens, gen_logs = us.cyclic_generators(
        entry, ctx, us.verify_hasse_relations(entry, ctx))
    assert us.regulator_cross_check(gens, gen_logs, []) == (False, None)


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
    _, gen_logs = us.cyclic_generators(entry, ctx,
                                       us.verify_hasse_relations(entry, ctx))
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
    hits = us.order_hits(ctx, us.search_relative_units(ctx, 6))
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


@pytest.mark.parametrize("coeffs, d", [((5, 0, -10, 0, 1), 5),
                                       ((656, 0, -82, 0, 1), 41)])
def test_populate_rejects_failed_cross_check(coeffs, d):
    # both searches return an entry whose Hasse relations hold, but a unit
    # found at height 6 is not an integer combination of its generators
    with pytest.raises(us.CatalogValidationError, match="cross-check"):
        us.populate_cyclic_entry(coeffs, d, "probe")
