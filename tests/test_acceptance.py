"""Acceptance gate: one test per published claim the package must reproduce.

Each test prints a single PASS line with the measured value so a -s run
reads as a checklist.  Heavy artifacts (the full field scan, the cyclic
entry report) are computed once per session in module fixtures.
"""

from fractions import Fraction

import mpmath
import pytest

from unitlat import units as us
from unitlat import verifier as vf
from unitlat.biquadratic import BiquadField
from unitlat.quartic import QuarticElem, qr_mul
from unitlat.precision import mpf_ctx
from unitlat.quadratic import fundamental_unit, smallest_fundamental_units
from oracles import (brute_min_one_norm, float_rows, is_unit, klein_e_wedge,
                     log_embed_klein, quad_cmp)

COEFF_BOUND = 20
SCAN_LIMIT = 30


def _report(criterion, detail):
    print("PASS %s: %s" % (criterion, detail))


@pytest.fixture(scope="module")
def constants():
    return vf.constants()


def _klein(d1, d2):
    struct, value, reports = vf.klein_field_report(d1, d2)
    detail = reports[0].details
    return (struct, klein_e_wedge(struct),
            (value, tuple(detail["argmin"]), detail["certified"]))


@pytest.fixture(scope="module")
def klein25():
    return _klein(2, 5)


@pytest.fixture(scope="module")
def klein513():
    return _klein(5, 13)


@pytest.fixture(scope="module")
def scan():
    out = []
    for d1, d2 in vf.scan_pairs(SCAN_LIMIT):
        struct, value, reports = vf.klein_field_report(d1, d2)
        out.append((d1, d2, struct, value, reports[0].details["certified"],
                    reports))
    return out


@pytest.fixture(scope="module")
def cyclic():
    entry = vf.load_default_catalog()[0]
    value, reports = vf.cyclic_entry_report(entry, COEFF_BOUND)
    return entry, value, reports


def test_criterion_01_fundamental_units_exact():
    expected = {
        5: (Fraction(1, 2), Fraction(1, 2)),
        2: (Fraction(1), Fraction(1)),
        10: (Fraction(3), Fraction(1)),
        13: (Fraction(3, 2), Fraction(1, 2)),
        65: (Fraction(8), Fraction(1)),
        3: (Fraction(2), Fraction(1)),
    }
    for d, (a, b) in expected.items():
        u = fundamental_unit(d).unit
        assert (u.a, u.b) == (a, b), "d=%d" % d
    _report("criterion 1", "6 fundamental units match by exact rational equality")


def test_criterion_02_smallest_units_ordering():
    entries = smallest_fundamental_units(200)
    assert [d for d, _ in entries[:4]] == [5, 2, 13, 3]
    threshold = entries[3][1].unit
    for d, res in entries[4:]:
        assert quad_cmp(res.unit, threshold) > 0
    _report("criterion 2",
            "smallest units ordered d = 5, 2, 13, 3; remaining %d exceed "
            "2+sqrt(3) by exact comparison" % (len(entries) - 4))


def test_criterion_03_klein_2_5(klein25):
    struct, _, (value, argmin, certified) = klein25
    assert struct.index_over_E == 2
    root = us.klein_pattern_root(struct, (1, 1, 1))
    assert is_unit(root)
    prod = QuarticElem(struct.field, (1, 0, 0, 0))
    for u in struct.units:
        prod = qr_mul(prod, struct.field.lift_quad(u))
    assert qr_mul(root, root) == prod
    assert certified
    with mpmath.workprec(160):
        target = (4 * mpmath.log((1 + mpmath.sqrt(5)) / 2)
                  * mpmath.log(1 + mpmath.sqrt(2)))
        assert abs(value - target) < 1e-6
    _report("criterion 3",
            "Q(sqrt2, sqrt5) index 2, certified min %s = 4 log(phi) "
            "log(1+sqrt2) at %s" % (mpmath.nstr(value, 12), argmin))


def test_criterion_04_klein_5_13(klein513):
    struct, _, (value, argmin, certified) = klein513
    assert certified
    with mpmath.workprec(160):
        target = (4 * mpmath.log((1 + mpmath.sqrt(5)) / 2)
                  * mpmath.log((3 + mpmath.sqrt(13)) / 2))
        assert abs(value - target) < 1e-6
    _report("criterion 4",
            "Q(sqrt5, sqrt13) certified min %s = 4 log(phi) "
            "log((3+sqrt13)/2)" % mpmath.nstr(value, 12))


def test_criterion_05_scan_above_constants(scan, constants):
    worst = None
    for d1, d2, struct, value, certified, reports in scan:
        assert certified, (d1, d2)
        assert value > constants["theorem_lower"], (d1, d2)
        thin = next(r for r in reports if r.name == "min_ge_2X3")
        assert value >= thin.paper_value - mpmath.mpf("1e-9"), (d1, d2)
        if worst is None or value < worst[0]:
            worst = (value, d1, d2)
    _report("criterion 5",
            "%d fields certified above 1.20324610; smallest min %s at "
            "(%d, %d)" % (len(scan), mpmath.nstr(worst[0], 12),
                          worst[1], worst[2]))


def test_criterion_06_constants_reproduced(constants):
    # printed reference approximations: 0.802, 1.203, 3.3930.  (The
    # six-digit targets sometimes quoted for the first two, 0.802146 and
    # 1.203233, are misrounded: the closed forms evaluate to 0.8021641
    # and 1.2032461, which this test pins instead.)
    with mpmath.workprec(160):
        lp = mpmath.log((1 + mpmath.sqrt(5)) / 2)
        closed = {
            "costa_friedman": (2 * mpmath.sqrt(3) * lp ** 2, "0.802", 5e-4),
            "theorem_lower": (3 * mpmath.sqrt(3) * lp ** 2, "1.203", 5e-4),
            "upper_bound": (8 * lp * mpmath.log(1 + mpmath.sqrt(2)),
                            "3.3930", 5e-5),
        }
        for name, (target, printed, tol) in closed.items():
            assert abs(constants[name] - target) < 1e-30, name
            assert abs(constants[name] - mpmath.mpf(printed)) < tol, name
    assert abs(constants["costa_friedman"] - mpmath.mpf("0.802164069")) < 1e-9
    assert abs(constants["theorem_lower"] - mpmath.mpf("1.203246103")) < 1e-9
    assert abs(constants["upper_bound"] - mpmath.mpf("3.393019139")) < 1e-9
    _report("criterion 6",
            "constants 0.802164069, 1.203246103, 3.393019139 reproduce the "
            "printed 0.802 / 1.203 / 3.3930")


def test_criterion_07_closed_form_equivalence():
    r = vf.closed_form_equivalence()
    assert r.relation == "holds" and r.computed_value == 0
    assert r.details == {"grid_points": 280}
    _report("criterion 7",
            "closed forms equal direct wedge 1-norms: the pairing identity "
            "and both closed forms exact on 64 + 216 grid points, 0 failures")


def test_criterion_08_inequality_fuzz():
    r1 = vf.summax_fuzz()
    r2 = vf.absin_fuzz()
    assert r1.relation == "holds" and r2.relation == "holds"
    assert (r1.details, r2.details) == ({"points": 8}, {"unit_pairs": 4})
    _report("criterion 8",
            "sum-max identity exact on its 8 rays, integer-pair inequality "
            "exact on its 4 unit pairs: 0 failures")


def test_criterion_09_pohst_floor(scan, cyclic):
    floor = vf.constants()["pohst_floor"]
    checked = 0
    with mpmath.workprec(160):
        for d1, d2, struct, _, _, _ in scan:
            order = ("id",) + struct.fixers
            for u in struct.units:
                lv = log_embed_klein(struct.field.lift_quad(u), 128, order)
                assert sum(c * c for c in lv.coords) >= floor - 1e-9
                checked += 1
            for g in us.klein_generators(struct):
                lv = log_embed_klein(g, 128, order)
                assert sum(c * c for c in lv.coords) >= floor - 1e-9
                checked += 1
        entry, _, _ = cyclic
        ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d, entry.u_l)
        for lv in us.cyclic_generators(
                entry, ctx, us.verify_hasse_relations(entry, ctx))[2]:
            assert sum(c * c for c in lv.coords) >= floor - 1e-9
            checked += 1
        # equality at the lift of (1+sqrt5)/2
        f = BiquadField(2, 5)
        lv = log_embed_klein(f.lift_quad(fundamental_unit(5).unit), 128)
        gap = abs(sum(c * c for c in lv.coords) - floor)
        assert gap < 1e-9
    _report("criterion 9",
            "%d units satisfy ||LOG||_2^2 >= 4 log^2(phi); golden-ratio "
            "lift attains it within %s" % (checked, mpmath.nstr(gap, 3)))


def test_criterion_10_cyclic_entry(cyclic):
    entry, value, reports = cyclic
    hasse = [r for r in reports if r.name.startswith("hasse_")]
    assert len(hasse) == 9
    assert all(r.relation == "holds" for r in hasse)
    detail = next(r.details for r in reports if r.name == "cyclic_min_1norm")
    assert detail["certified"]
    assert value > mpmath.mpf("1.203233")
    assert entry.Q_index == 2  # the half-integer parity lattice was used
    _report("criterion 10",
            "x^4 - 4x^2 + 2: 9 exact relations hold, certified parity-"
            "lattice min %s > 1.203233" % mpmath.nstr(value, 12))


def test_criterion_11_constrained_minimization():
    tol = mpmath.mpf(2) ** -100
    with mpf_ctx(128):
        lp = mpmath.log((1 + mpmath.sqrt(5)) / 2)
        targets = {"q1_expr": 4 * lp, "q2_expr": 4 * mpmath.sqrt(6) * lp ** 2}
        claims = {"q1_expr": 3 * mpmath.sqrt(2) * lp,
                  "q2_expr": 6 * mpmath.sqrt(3) * lp ** 2}
        for tag, target in targets.items():
            value, _, claim, rel = vf.constrained_min(tag)
            assert abs(value - target) < tol
            assert rel == "report-only"
            assert abs(claim - claims[tag]) < tol
            assert value < claim  # reported, never asserted as a bound
    _report("criterion 11",
            "exact minima over the candidate points 1.924847 / 2.268863 "
            "match the closed forms to 2^-100; claimed 2.041609 / 2.406492 "
            "(the axis candidates) reported only")


def test_criterion_12_brute_force_oracle(klein25, klein513, scan):
    for name, (struct, (rows, den), (value, _, _)) in (("(2,5)", klein25),
                                                       ("(5,13)", klein513)):
        oracle = brute_min_one_norm(float_rows(rows), den, COEFF_BOUND)
        assert abs(float(value) - oracle) < 1e-9, name
    small_bound = 3
    for d1, d2, struct, value, _, _ in scan:
        rows, den = klein_e_wedge(struct)
        oracle = brute_min_one_norm(float_rows(rows), den, small_bound)
        assert abs(float(value) - oracle) < 1e-9, (d1, d2)
    _report("criterion 12",
            "independent exhaustive enumerator reproduces the (2,5) and "
            "(5,13) minima at bound 20 and all %d scan minima" % len(scan))
