import dataclasses
import inspect
import json
import textwrap
import warnings

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from unitlat import loglattice as ll
from unitlat import units as us
from unitlat import verifier as vf
from unitlat.biquadratic import BiquadField
from unitlat.precision import mpf_ctx
from unitlat.quadratic import fundamental_unit, quad_norm
from unitlat.quartic import QuarticElem
from oracles import (SQUAREFREE_1000, log_embed_klein,
                     pohst_check, sampled_constrained_min)


@pytest.fixture(scope="module")
def entry():
    return vf.load_default_catalog()[0]


def test_constants_reproduced():
    reports = vf.theorem_constants()
    assert all(r.relation in ("reproduced", "holds") for r in reports)
    c = vf.constants()
    with mpmath.workprec(160):
        lp = mpmath.log((1 + mpmath.sqrt(5)) / 2)
        assert abs(c["costa_friedman"] - 2 * mpmath.sqrt(3) * lp ** 2) < 1e-30
        assert abs(c["theorem_lower"] - 3 * mpmath.sqrt(3) * lp ** 2) < 1e-30
        assert c["costa_friedman"] < c["theorem_lower"] < c["upper_bound"]


def test_pohst_check_units(entry):
    f = BiquadField(2, 5)
    lift = f.lift_quad(fundamental_unit(5).unit)
    r = pohst_check(lift)
    assert r.relation == "holds"
    # the golden-ratio lift attains the floor
    assert abs(r.computed_value - r.paper_value) < 1e-9
    ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d, entry.u_l)
    r2 = pohst_check(QuarticElem(ctx.field, entry.u0))
    assert r2.relation == "holds"
    assert r2.computed_value > r2.paper_value


def test_pohst_check_domain_errors():
    f = BiquadField(2, 5)
    with pytest.raises(ValueError):
        pohst_check(QuarticElem(f, (-1, 0, 0, 0)))
    with pytest.raises(TypeError):
        pohst_check(1.5)


def test_constraint_spec_validation():
    with pytest.raises(ValueError):
        vf.constrained_min("q3_expr")


EXACT_TOL = mpmath.mpf(2) ** -100


def test_constrained_min_q1():
    with mpf_ctx(128):
        value, arg, claim, rel = vf.constrained_min("q1_expr")
        lp = mpmath.log((1 + mpmath.sqrt(5)) / 2)
        assert abs(value - 4 * lp) < EXACT_TOL
        assert abs(claim - 3 * mpmath.sqrt(2) * lp) < EXACT_TOL
        assert rel == "report-only"
        assert value < claim  # the claimed bound is above the true minimum
        # the diagonal of the Pohst circle, not its axes
        assert len(arg) == 2
        assert all(abs(a - lp) < EXACT_TOL for a in arg)


def test_constrained_min_q2():
    with mpf_ctx(128):
        value, arg, claim, rel = vf.constrained_min("q2_expr")
        lp = mpmath.log((1 + mpmath.sqrt(5)) / 2)
        assert abs(value - 4 * mpmath.sqrt(6) * lp ** 2) < EXACT_TOL
        assert abs(claim - 6 * mpmath.sqrt(3) * lp ** 2) < EXACT_TOL
        assert rel == "report-only"
        assert value < claim
        # W1 = log(phi) with (W2, W3) on the diagonal of radius sqrt(3)*lp
        want = (lp, mpmath.sqrt(1.5) * lp, mpmath.sqrt(1.5) * lp)
        assert len(arg) == 3
        assert all(abs(a - w) < EXACT_TOL for a, w in zip(arg, want))


@pytest.mark.parametrize("objective", ["q1_expr", "q2_expr"])
def test_constrained_min_no_sampled_point_lower(objective):
    value = float(vf.constrained_min(objective)[0])
    sampled, point = sampled_constrained_min(objective)
    assert sampled >= value - 1e-12, point
    assert sampled < 1.05 * value  # the grid comes close to the minimum


# The sampling that verify-paper no longer does: each identity it proves on
# a finite set, tested here on random exact inputs.
nonzero = st.fractions(max_denominator=1000).filter(bool)
triples = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 3)


def _direct_one_norm(n, rows):
    return sum(abs(sum(ni * row[k] for ni, row in zip(n, rows)))
               for k in range(6))


@given(x=st.fractions(), y=st.fractions())
def test_summax_identity_on_fractions(x, y):
    assert abs(x + y) + abs(x - y) == 2 * max(abs(x), abs(y))


@given(mn=st.tuples(st.integers(), st.integers()).filter(any),
       x=st.fractions(), y=st.fractions())
def test_absin_inequality_on_integers_and_fractions(mn, x, y):
    m, n = mn
    assert abs(m * x + n * y) + abs(n * x - m * y) >= abs(x) + abs(y)


@given(n=triples, x=st.sets(nonzero.map(abs), min_size=3, max_size=3))
def test_klein_norm_closed_equals_direct(n, x):
    x = sorted(x, reverse=True)
    assert (ll.klein_norm_closed(*n, *x)
            == _direct_one_norm(n, ll.klein_wedge_rows(*x)))


@given(n=triples, w=st.tuples(nonzero, nonzero, nonzero))
def test_cyclic_f_equals_direct(n, w):
    assert ll.cyclic_f(*n, *w) == _direct_one_norm(n, ll.cyclic_wedge_rows(*w))


def _mutate(monkeypatch, module, name, old, new):
    """Rebind `name` in the library to its source with the one occurrence
    of `old` replaced by `new`."""
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), inspect.getsourcefile(original),
                 "exec"), namespace)
    for mod in (ll, vf):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, namespace[name])


@pytest.mark.parametrize("module, name, old, new, check", [
    # a wrong sign in one wedge row
    (ll, "klein_wedge_rows", "(0, 0, 2 * x1, 2 * x1,",
     "(0, 0, 2 * x1, -2 * x1,", "wedge_L2^L3"),
    # the factor 2 dropped from the summax identity
    (vf, "summax_fuzz", "!= 2 * max(", "!= max(", "summax_identity_fuzz"),
    # 2 in place of 4 in the Klein closed form
    (ll, "klein_norm_closed", "return 4 * (", "return 2 * (",
     "closed_form_equivalence"),
    # a wrong sign in one cyclic wedge row
    (ll, "cyclic_wedge_rows", "(-y1, -y1, y1, -y1, 0, 0)",
     "(-y1, -y1, y1, y1, 0, 0)", "closed_form_equivalence"),
])
def test_verify_paper_catches_mutation(monkeypatch, module, name, old, new,
                                       check):
    _mutate(monkeypatch, module, name, old, new)
    report = vf.verify_paper(scan_limit=3, catalog=[])
    assert not report["ok"]
    assert check in report["violations"]


def test_smallest_units_report():
    reports = vf.smallest_units_report()
    assert all(r.relation == "holds" for r in reports)
    assert reports[0].details["order"] == [5, 2, 13, 3]


def test_klein_field_report_keeps_order_check(monkeypatch):
    # the report decides the order on the unit keys: units out of order
    # warn, as klein_norm_closed does, and units in order do not; the
    # ranked units reversed, or either adjacent pair swapped, warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vf.klein_field_report(2, 5)
    real = us.klein_unit_structure
    for order in ((2, 1, 0), (1, 0, 2), (0, 2, 1)):
        def reordered_units(*args, order=order):
            struct = real(*args)
            return dataclasses.replace(
                struct, ranked=tuple(struct.ranked[i] for i in order))

        monkeypatch.setattr(us, "klein_unit_structure", reordered_units)
        with pytest.warns(UserWarning, match="X1 > X2 > X3 > 0"):
            vf.klein_field_report(2, 5)


def test_klein_field_report_3_5():
    struct, value, reports = vf.klein_field_report(3, 5)
    assert reports[0].details["certified"]
    # published per-field bound for this field: 2 log(u1) log(u2)
    thin = next(r for r in reports if r.name == "min_ge_2X3")
    assert abs(float(thin.paper_value) - 1.267463) < 1e-5
    assert value >= thin.paper_value
    assert all(r.relation != "violated" for r in reports)


def test_klein_field_report_enumerates_nothing(monkeypatch):
    # the Klein minimum is the closed form 8*X3/den: no lattice enumeration
    def refuse(*args, **kwargs):
        raise AssertionError("the Klein report enumerated a lattice")

    for module in (ll, vf):
        monkeypatch.setattr(module, "cyclic_min", refuse)
    struct, value, reports = vf.klein_field_report(2, 5)
    assert reports[0].details["argmin"] == [0, 0, -1]
    assert reports[0].details["certified"] is True
    w1, w2, _ = struct.logs
    with mpf_ctx(128):
        assert value == 8 * w1 * w2 / 2
        lp = mpmath.log((1 + mpmath.sqrt(5)) / 2)
        assert abs(value - 4 * lp * mpmath.log(1 + mpmath.sqrt(2))) < 1e-30


def test_scan_pairs():
    pairs = list(vf.scan_pairs(6))
    assert pairs == [(2, 3), (2, 5), (2, 6), (3, 5), (3, 6), (5, 6)]


def test_cyclic_entry_report(entry):
    value, reports = vf.cyclic_entry_report(entry)
    assert value is not None
    assert all(r.relation != "violated" for r in reports)
    names = {r.name for r in reports}
    assert "relative_unit_pohst_W2W3" in names
    assert "q2_min_ge_2sqrt6_log2phi" in names
    assert float(value) > 1.2033


def test_uncertified_cyclic_min_never_holds(entry, monkeypatch):
    # at W = (2.366, 0.0423, 1.045), Q = 2 and coeff_bound 1 the box
    # minimum 7.517 at (-1, 0, -1) is not certified, and the minimum is
    # 4.375 at (0, 0, -2): the minimum and the floors read off it are
    # violated, with the reason; the Pohst floor reads the entry's W only
    w = tuple(mpmath.mpf(v) for v in ("2.366", "0.0423", "1.045"))
    monkeypatch.setattr(vf, "cyclic_min", lambda w1, w2, w3, q, bound:
                        ll.cyclic_min(*w, q, bound))
    value, reports = vf.cyclic_entry_report(entry, coeff_bound=1)
    relations = {r.name: r.relation for r in reports[-4:]}
    assert relations == {"cyclic_min_1norm": "violated",
                         "cyclic_min_gt_theorem_constant": "violated",
                         "relative_unit_pohst_W2W3": "holds",
                         "q2_min_ge_2sqrt6_log2phi": "violated"}
    assert reports[-4].details["certified"] is False
    assert all("not certified" in r.details["reason"]
               for r in reports if r.relation == "violated")
    assert abs(value - mpmath.mpf("7.5174918")) < 1e-6
    best, reports = vf.cyclic_entry_report(entry, coeff_bound=2)
    assert reports[-4].details["argmin"] == [0, 0, -2]
    assert all(r.relation == "holds" and "reason" not in r.details
               for r in reports)
    assert abs(best - mpmath.mpf("4.37525716")) < 1e-6


def test_report_json_serializable(entry):
    _, reports = vf.cyclic_entry_report(entry, coeff_bound=4)
    blob = json.dumps([r.to_json() for r in reports])
    assert "cyclic_min_1norm" in blob


def test_verify_paper_small_scan(entry):
    report = vf.verify_paper(scan_limit=10, catalog=[entry])
    assert report["ok"], report["violations"]
    assert report["violations"] == []
    assert len(report["scan"]) == len(list(vf.scan_pairs(10)))
    names = [c["name"] for c in report["checks"]]
    assert "klein_min_2_5" in names
    assert "constrained_min_q1_expr" in names
    json.dumps(report)  # fully serializable


def test_hasse_relations_verified_once_per_entry(monkeypatch):
    # the report's own Hasse pass is the only one: the regulator cross-check
    # reuses the generators it verified
    calls = []
    verify = us.verify_hasse_relations

    def counting(entry, ctx=None):
        calls.append(entry.label)
        return verify(entry, ctx)

    monkeypatch.setattr(us, "verify_hasse_relations", counting)
    catalog = vf.load_default_catalog()
    for entry in catalog:
        value, _ = vf.cyclic_entry_report(entry)
        assert value is not None
    assert calls == [entry.label for entry in catalog]


@pytest.mark.parametrize("precision_bits", [64, 128, 300])
def test_wedge_fixture_matches_embedding_chain(precision_bits):
    # the tables are decided exactly, and wedge2 of the oracle embedding
    # chain's LOGs of the lifted units agrees with them
    reports = vf._wedge_fixture_reports()
    assert [r.name for r in reports] == ["wedge_L2^L3", "wedge_L1^L3",
                                         "wedge_L1^L2"]
    assert all(r.computed_value == 0 and r.tolerance is None
               and r.relation == "holds" for r in reports)
    struct = us.klein_unit_structure(2, 5, precision_bits)
    order = ("id",) + struct.fixers
    l1, l2, l3 = (log_embed_klein(struct.field.lift_quad(u), precision_bits,
                                  order) for u in struct.units)
    w1, w2, w3 = struct.logs
    with mpf_ctx(precision_bits):
        rows = ll.klein_wedge_rows(w2 * w3, w1 * w3, w1 * w2)
        wedges = (ll.wedge2(l2, l3), ll.wedge2(l1, l3), ll.wedge2(l1, l2))
        tol = mpmath.mpf(2) ** -(precision_bits - 8)
        assert all(abs(g - w) <= tol for got, want in zip(wedges, rows)
                   for g, w in zip(got.coords, want))


@pytest.mark.parametrize("swap", [(1, 0, 2), (0, 2, 1), (2, 1, 0)])
def test_wedge_fixture_catches_swapped_fixers(swap, monkeypatch):
    # each LOG(u_i) places log|u_i| at the Galois element fixing sqrt(d_i),
    # not at the structure's fixer, so mislabelled fixers show in every
    # wedge table
    real = us.klein_unit_structure

    def swapped(*args):
        struct = real(*args)
        return dataclasses.replace(
            struct, fixers=tuple(struct.fixers[i] for i in swap))

    monkeypatch.setattr(us, "klein_unit_structure", swapped)
    reports = vf._wedge_fixture_reports()
    assert [r.relation for r in reports] == ["violated"] * 3


@settings(max_examples=25, deadline=None)
@given(pair=st.lists(st.sampled_from(SQUAREFREE_1000), min_size=2,
                     max_size=2, unique=True),
       precision_bits=st.sampled_from([64, 128, 300]))
def test_log_signs_equal_embedding_chain(pair, precision_bits):
    # LOG(u_i) = W_i*s_i: each unit has norm +-1 exactly, and its regulator
    # times its sign vector is the oracle's LOG of the lifted unit
    struct = us.klein_unit_structure(*pair, precision_bits)
    order = ("id",) + struct.fixers
    tol = mpmath.mpf(2) ** -(precision_bits - 8)
    for u, w, signs in zip(struct.units, struct.logs, vf._log_signs(struct)):
        assert quad_norm(u) in (1, -1)
        want = log_embed_klein(struct.field.lift_quad(u), precision_bits,
                               order)
        with mpmath.workprec(precision_bits + 64):
            assert all(abs(w * s - c) <= tol
                       for s, c in zip(signs, want.coords))
