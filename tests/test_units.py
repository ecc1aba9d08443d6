import itertools
import json
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from unitlat import units as us
from unitlat import quartic as qt
from unitlat.biquadratic import BiquadElem, biq_mul, biq_neg, is_unit
from unitlat.loglattice import (LogVector, cyclic_wedge_rows,
                                log_embed_cyclic, wedge2)
from unitlat.quadratic import QuadElem, fundamental_unit
from unitlat.verifier import cyclic_lattice, load_default_catalog
from oracles import char_poly, sigma_loop_log

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def entry():
    return load_default_catalog()[0]


@pytest.fixture(scope="module")
def ctx(entry):
    return us.cyclic_context(entry.coeffs, entry.quad_subfield_d, entry.u_l)


def test_subfield_units_sorted():
    units, logs, fixers, perm = us.subfield_units(2, 5)
    # ascending: (1+sqrt5)/2 < 1+sqrt2 < 3+sqrt10
    assert [u.d for u in units] == [5, 2, 10]
    assert logs == tuple(fundamental_unit(u.d).log_value for u in units)
    assert fixers == ("s2", "s1", "s3")
    assert perm == (1, 0, 2)


def test_klein_structure_2_5():
    s = us.klein_unit_structure(2, 5)
    assert s.index_over_E == 2
    assert s.sqrt_patterns == ((1, 1, 1),)
    root = s.sqrt_elements[(1, 1, 1)]
    assert root == BiquadElem(s.field, Fraction(3, 2), Fraction(1, 2),
                              Fraction(1, 2), Fraction(1, 2))
    assert is_unit(root)
    # the square root replaces exactly one subfield generator
    assert sum(g == root for g in s.generators) == 1


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


def test_generator_squares_land_in_E():
    # exactly: g^2 = +-u1^m1 u2^m2 u3^m3 for some m in {0, 1, 2}^3
    for d1, d2 in ((2, 5), (3, 5), (2, 3)):
        s = us.klein_unit_structure(d1, d2)
        lifts = [s.field.lift_quad(u) for u in s.units]
        products = set()
        for m in itertools.product(range(3), repeat=3):
            p = s.field.one()
            for mi, lift in zip(m, lifts):
                for _ in range(mi):
                    p = biq_mul(p, lift)
            products.update((p, biq_neg(p)))
        for g in s.generators:
            assert biq_mul(g, g) in products


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
    assert report.passed, report.failures()
    assert len(report.relations) == 9


def test_hasse_relations_fail_on_corruption(entry, ctx):
    # u0 := lift of u_l is a unit but not independent of u_l
    bad = us.CyclicCatalogEntry(
        entry.label, entry.coeffs, entry.quad_subfield_d, entry.u_l,
        u0=ctx.u_l_emb.coords, u_star=entry.u_star, Q_index=2)
    report = us.verify_hasse_relations(bad, ctx)
    assert not report.passed
    assert "u0 independent of u_l" in report.failures()
    # u_star := u_l * u_star breaks the relative norm relation
    star = qt.qr_mul(ctx.u_l_emb, qt.QuarticElem(ctx.field, entry.u_star))
    bad2 = us.CyclicCatalogEntry(
        entry.label, entry.coeffs, entry.quad_subfield_d, entry.u_l,
        u0=entry.u0, u_star=star.coords, Q_index=2)
    report2 = us.verify_hasse_relations(bad2, ctx)
    assert "N_{L/l}(u_star) = u_star sigma^2(u_star) = +-u_l" \
        in report2.failures()
    with pytest.raises(us.CatalogValidationError):
        us.cyclic_generator_logs(bad, ctx, report)


def test_hasse_relations_report_non_unit_u0(entry, ctx):
    # a non-unit u0 fails its relations instead of raising from a log
    # embedding
    bad = us.CyclicCatalogEntry(
        entry.label, entry.coeffs, entry.quad_subfield_d, entry.u_l,
        u0=(2, 0, 0, 0), u_star=entry.u_star, Q_index=2)
    failures = us.verify_hasse_relations(bad, ctx).failures()
    assert "u0 is a unit" in failures
    assert "u0 independent of u_l" in failures


def test_search_relative_units_finds_u_star(entry, ctx):
    hits = us.search_relative_units(ctx, 2)
    assert hits
    # each k is exact: the relative norm is +-u_l^k; so each hit is a unit
    s2 = ctx.field.sigma2
    for e, k, _ in hits:
        power = qt.qr_pow(ctx.u_l_emb, k)
        assert qt.qr_mul(e, s2(e)) in (power, qt.qr_neg(power))
        assert qt.is_unit(e)
        assert abs(char_poly(e)[4]) == 1
    odd = [(e, k) for e, k, _ in hits if k % 2 != 0]
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
    # the order populate picks u0 and u_star from, pinned at height 6 for
    # the three shipped fields and the two populate rejects
    d = pinned["quad_subfield_d"]
    ctx = us.cyclic_context(pinned["coeffs"], d, fundamental_unit(d).unit)
    hits = us.search_relative_units(ctx, 6)
    assert [[[int(c) for c in e.coords], k] for e, k, _ in hits] \
        == pinned["hits"]


@pytest.mark.parametrize("bits", [64, 128, 300])
def test_search_logs_equal_log_embed_cyclic(entry, bits):
    ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d, entry.u_l,
                            bits)
    hits = us.search_relative_units(ctx, 4)
    assert hits
    for e, _, lv in hits:
        assert lv.precision_bits == bits
        assert lv == log_embed_cyclic(e, bits)


def test_each_hit_embedded_once_and_cross_check_embeds_nothing(
        entry, ctx, monkeypatch):
    gen_logs = us.cyclic_generator_logs(entry, ctx,
                                        us.verify_hasse_relations(entry, ctx))
    calls = []
    embed_all = qt.embed_all

    def counting(a, *args):
        calls.append(a.coords)
        return embed_all(a, *args)

    monkeypatch.setattr(qt, "embed_all", counting)
    hits = us.search_relative_units(ctx, 6)
    assert sorted(calls) == sorted(e.coords for e, _, _ in hits)

    def forbidden(*args):
        raise AssertionError("regulator_cross_check must not embed or "
                             "prove units")

    monkeypatch.setattr(qt, "embed_all", forbidden)
    monkeypatch.setattr(qt, "is_unit", forbidden)
    assert us.regulator_cross_check(gen_logs, [lv for _, _, lv in hits]) \
        == (True, 1)


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
        assert us.verify_hasse_relations(small).passed


def test_regulator_cross_check(entry, ctx):
    gen_logs = us.cyclic_generator_logs(entry, ctx,
                                        us.verify_hasse_relations(entry, ctx))
    hits = us.search_relative_units(ctx, 4)
    ok, index = us.regulator_cross_check(gen_logs, [lv for _, _, lv in hits])
    assert ok
    assert index == 1


def test_regulator_cross_check_needs_hits(entry, ctx):
    # an empty search proves nothing, so it must not read as "holds"
    gen_logs = us.cyclic_generator_logs(entry, ctx,
                                        us.verify_hasse_relations(entry, ctx))
    assert us.regulator_cross_check(gen_logs, []) == (False, None)
    # and hits at another precision are refused, not compared
    lv = gen_logs[1]
    lv64 = LogVector(lv.coords, lv.convention, 64)
    with pytest.raises(ValueError, match="precision"):
        us.regulator_cross_check(gen_logs, [lv64])


@pytest.mark.parametrize("shipped", load_default_catalog(),
                         ids=lambda e: e.label)
def test_cyclic_wedge_rows_are_wedges(shipped):
    # cyclic_wedge_rows in terms of (W1, W2, W3) against wedge2 of the log
    # vectors of u_l, u0 and sigma(u0), at working precision
    ctx = us.cyclic_context(shipped.coeffs, shipped.quad_subfield_d,
                            shipped.u_l)
    u0 = qt.QuarticElem(ctx.field, shipped.u0)
    lv_ul, lv_u0, lv_su0 = (log_embed_cyclic(x) for x in
                            (ctx.u_l_emb, u0, ctx.field.sigma(u0)))
    _, ws = cyclic_lattice(shipped, us.cyclic_generator_logs(
        shipped, ctx, us.verify_hasse_relations(shipped, ctx)))
    wedges = (wedge2(lv_ul, lv_u0), wedge2(lv_ul, lv_su0),
              wedge2(lv_u0, lv_su0))
    with mpmath.workprec(128):
        rows = cyclic_wedge_rows(*ws)
    for got, want in zip(wedges, rows):
        assert all(abs(g - w) < mpmath.mpf(2) ** -100
                   for g, w in zip(got.coords, want))


def test_cyclic_log_vectors(entry, ctx):
    gen_logs = us.cyclic_generator_logs(entry, ctx,
                                        us.verify_hasse_relations(entry, ctx))
    _, (w1, w2, w3) = cyclic_lattice(entry, gen_logs)
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
    hits = us.search_relative_units(ctx, 6)
    assert len(hits) >= 80
    # log_embed_cyclic on the generators and the hits, and the LOG the
    # search returns with each hit
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
