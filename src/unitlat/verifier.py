"""Reproduces the published constants and bound chains and re-derives the
constrained minimizations, emitting a machine-readable report.

The two "elementary consideration" bounds for the cyclic case are treated
as report-only comparisons: their exact minima, taken over a finite
candidate set, lie below the claimed values (4*log(phi) < 3*sqrt(2)*log(phi)
and 4*sqrt(6)*log(phi)^2 < 6*sqrt(3)*log(phi)^2), so those claims are
surfaced, never asserted.  The downstream bound that remains derivable
(8*log(phi)^2 for the relative-unit branch) is asserted instead.
"""

import functools
import types
from dataclasses import dataclass, field as dc_field

import mpmath
import numpy as np

from .precision import DEFAULT_PRECISION, mpf_ctx, fmt_sig
from .quadratic import (QuadElem, fundamental_unit, is_squarefree,
                        quad_embed, smallest_fundamental_units, unit_key)
from . import units as us
from .loglattice import (LogVector, cyclic_f, cyclic_min, cyclic_wedge_rows,
                         klein_norm_closed, klein_wedge_rows, wedge2)

THEOREM_TOL = mpmath.mpf("1e-5")
DERIVED_TOL = mpmath.mpf("1e-9")
# height of the relative-unit search behind the regulator cross-check
REGULATOR_HEIGHT = 6


def _log_phi():
    return mpmath.log((1 + mpmath.sqrt(5)) / 2)


@functools.lru_cache(maxsize=None)
def constants(precision_bits=DEFAULT_PRECISION):
    """The paper's constants at precision_bits, computed once per
    precision; a read-only mapping, since every caller shares it."""
    with mpf_ctx(precision_bits):
        lp = _log_phi()
        return types.MappingProxyType({
            "log_phi": lp,
            "costa_friedman": 2 * mpmath.sqrt(3) * lp ** 2,
            "theorem_lower": 3 * mpmath.sqrt(3) * lp ** 2,
            "upper_bound": 8 * lp * mpmath.log(1 + mpmath.sqrt(2)),
            "pohst_floor": 4 * lp ** 2,
        })


@dataclass
class BoundReport:
    name: str
    computed_value: object
    paper_value: object = None
    relation: str = "holds"  # reproduced | holds | violated | report-only
    tolerance: object = None
    details: dict = dc_field(default_factory=dict)

    def to_json(self):
        out = {"name": self.name,
               "computed_value": fmt_sig(self.computed_value)
               if self.computed_value is not None else None,
               "relation": self.relation}
        if self.paper_value is not None:
            out["paper_value"] = fmt_sig(self.paper_value)
        if self.tolerance is not None:
            out["tolerance"] = fmt_sig(self.tolerance, 3)
        if self.details:
            out["details"] = {k: (fmt_sig(v) if isinstance(v, mpmath.mpf) else v)
                              for k, v in self.details.items()}
        return out


def _reproduced(name, computed, paper, tol=THEOREM_TOL):
    rel = "reproduced" if abs(computed - paper) <= tol else "violated"
    return BoundReport(name, computed, paper, rel, tol)


def theorem_constants(precision_bits=DEFAULT_PRECISION):
    with mpf_ctx(precision_bits):
        c = constants(precision_bits)
        reports = [
            _reproduced("costa_friedman_0.802", c["costa_friedman"],
                        mpmath.mpf("0.802"), mpmath.mpf("5e-4")),
            _reproduced("theorem_lower_1.203", c["theorem_lower"],
                        mpmath.mpf("1.203"), mpmath.mpf("5e-4")),
            _reproduced("upper_bound_3.3930", c["upper_bound"],
                        mpmath.mpf("3.3930"), mpmath.mpf("5e-5")),
        ]
        ordering_ok = (c["costa_friedman"] < c["theorem_lower"]
                       < c["upper_bound"])
        reports.append(BoundReport(
            "constant_ordering_CF<lower<upper", None,
            relation="holds" if ordering_ok else "violated"))
        return reports


# ---------------------------------------------------------------------------
# Constrained minimization (cyclic-case "elementary consideration" oracle)


def constrained_min(objective):
    """Exact minimum of a cyclic-case "elementary consideration" objective
    at the current mpmath precision.  Both range over (W2, W3) >= 0 on or
    outside the relative unit's Pohst circle W2^2 + W3^2 >= 2*log(phi)^2:
    "q1_expr" is S = 2*max(W2, W3) + W2 + W3, and "q2_expr" is 2*W1*S with
    W1 >= log(phi) and W1^2 + r^2 >= 4*log(phi)^2, r = |(W2, W3)|; it
    increases in W1, so W1 = max(log(phi), sqrt(4*log(phi)^2 - r^2)).
    Returns (minimum, argmin, paper_claim, relation): argmin is (W2, W3)
    or (W1, W2, W3), and relation is always "report-only".

    The minimum lies at one of six candidate points.  Write (W2, W3) =
    r*(cos t, sin t).  S is positively homogeneous, and linear in (cos t,
    sin t) on each side of t = pi/4, so concave in t there: its minimum
    over each side is at an endpoint t in {0, pi/4, pi/2}.  S increases
    in r, so q1_expr needs only r = sqrt(2)*log(phi).  q2_expr is
    2*(r*W1(r))*(S/r), and r*W1(r) decreases on [sqrt(2), sqrt(3)]*log(phi)
    and increases after, so r in {sqrt(2), sqrt(3)}*log(phi).

    The paper's claims 3*sqrt(2)*log(phi) and 6*sqrt(3)*log(phi)^2 are
    the objectives at the axis candidates t in {0, pi/2}; the diagonal
    t = pi/4 is lower, 4*log(phi) and 4*sqrt(6)*log(phi)^2, so the claims
    are reported, never asserted."""
    if objective not in ("q1_expr", "q2_expr"):
        raise ValueError("unknown objective %r" % (objective,))
    lp = _log_phi()
    q1 = objective == "q1_expr"
    candidates = []
    for r in (mpmath.sqrt(k) * lp for k in ((2,) if q1 else (2, 3))):
        w1 = max(lp, mpmath.sqrt(max(0, 4 * lp ** 2 - r ** 2)))
        for t in (0, mpmath.pi / 4, mpmath.pi / 2):
            w2, w3 = r * mpmath.cos(t), r * mpmath.sin(t)
            shape = 2 * max(w2, w3) + w2 + w3
            candidates.append((shape, (w2, w3)) if q1
                              else (2 * w1 * shape, (w1, w2, w3)))
    value, argmin = min(candidates, key=lambda c: c[0])
    claim = 3 * mpmath.sqrt(2) * lp if q1 else 6 * mpmath.sqrt(3) * lp ** 2
    return value, argmin, claim, "report-only"


def constrained_min_reports():
    lp = _log_phi()
    out = []
    for tag, expected in (("q1_expr", 4 * lp),
                          ("q2_expr", 4 * mpmath.sqrt(6) * lp ** 2)):
        value, arg, claim, rel = constrained_min(tag)
        out.append(BoundReport(
            "constrained_min_%s" % tag, value, claim, rel, None,
            details={"argmin": [round(float(v), 9) for v in arg],
                     "oracle_closed_form": expected,
                     "below_paper_claim": bool(value < claim)}))
    return out


# ---------------------------------------------------------------------------
# Field reports


def klein_field_report(d1, d2, precision_bits=DEFAULT_PRECISION):
    """Minimal 1-norm of one Klein field's E-wedge lattice, in closed form,
    plus bound checks.  Returns (struct, value, reports).

    The lattice is (1/den) times the integer span of klein_wedge_rows(X1,
    X2, X3), with X1 = W2*W3, X2 = W1*W3, X3 = W1*W2 and W_i = log u_i.
    The subfield units are > 1 and sorted exactly (unit_key), and units
    of distinct fields differ, so 0 < W1 < W2 < W3 and X1 > X2 > X3 > 0.
    By klein_norm_closed, which closed_form_equivalence re-checks exactly
    against klein_wedge_rows on every verify-paper, n has 1-norm
    4*(max(t2, t3) + max(t1, t2) + max(t1, t3)) with t_i = |n_i|*X_i.
    Each nonzero t_i is at least X_i >= X3, and the largest t_i appears
    in two of the three maxima, so every n != 0 has 1-norm >= 8*X3, with
    equality only at n = (0, 0, +-1) (n1 or n2 nonzero gives >= 8*X2).
    So the minimum is 8*X3/den at argmin (0, 0, -1), exactly: certified.
    """
    with mpf_ctx(precision_bits):
        struct = us.klein_unit_structure(d1, d2, precision_bits)
        den = us.klein_denominator(struct.index_over_E)
        w1, w2, w3 = struct.logs
        x3 = w1 * w2
        value = klein_norm_closed(0, 0, 1, w2 * w3, w1 * w3, x3) / den
        bound_8x3 = 8 * x3 / den
        thin = 2 * x3
        theorem = constants(precision_bits)["theorem_lower"]
        reports = [
            BoundReport("min_1norm", value, None, "holds", None,
                        details={"d1": d1, "d2": d2, "d3": struct.field.d3,
                                 "index_over_E": struct.index_over_E,
                                 "denominator": den,
                                 "argmin": [0, 0, -1],
                                 "certified": True}),
            BoundReport("min_ge_8X3_over_den", value, bound_8x3,
                        "holds" if value >= bound_8x3 - DERIVED_TOL
                        else "violated", DERIVED_TOL),
            BoundReport("min_ge_2X3", value, thin,
                        "holds" if value >= thin - DERIVED_TOL
                        else "violated", DERIVED_TOL),
            BoundReport("min_gt_theorem_constant", value, theorem,
                        "holds" if value > theorem else "violated"),
        ]
        return struct, value, reports


def cyclic_entry_report(entry, coeff_bound=20,
                        precision_bits=DEFAULT_PRECISION):
    with mpf_ctx(precision_bits):
        ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d,
                                entry.u_l, precision_bits)
        hasse = us.verify_hasse_relations(entry, ctx)
        reports = [BoundReport("hasse_" + name, None, None,
                               "holds" if ok else "violated")
                   for name, ok in hasse.items()]
        if not all(hasse.values()):
            return None, reports
        gens, gen_logs = us.cyclic_generators(entry, ctx, hasse)
        reg_ok, reg_idx = us.regulator_cross_check(gens, gen_logs, [
            c for c, _ in us.search_relative_units(ctx, REGULATOR_HEIGHT)])
        reports.append(BoundReport(
            "regulator_cross_check", None, None,
            "holds" if reg_ok else "violated",
            details={"sublattice_index": reg_idx}))
        # W3 = LOG(sigma(u0))[id] is LOG(u0) one step along the orbit
        lv_ul, lv_u0 = gen_logs[:2]
        w1, (w2, w3) = lv_ul.coords[0], lv_u0.coords[:2]
        value, argmin, certified = cyclic_min(w1, w2, w3, entry.Q_index,
                                              coeff_bound)
        c = constants(precision_bits)
        reports.append(BoundReport(
            "cyclic_min_1norm", value, None, "holds",
            details={"label": entry.label, "Q_index": entry.Q_index,
                     "argmin": list(argmin), "certified": certified,
                     "W1": w1, "W2": w2, "W3": w3}))
        reports.append(BoundReport(
            "cyclic_min_gt_theorem_constant", value, c["theorem_lower"],
            "holds" if value > c["theorem_lower"] else "violated"))
        # Pohst floor on the relative unit: W2^2 + W3^2 >= 2 log(phi)^2
        rel_floor = 2 * c["log_phi"] ** 2
        sq = w2 * w2 + w3 * w3
        reports.append(BoundReport(
            "relative_unit_pohst_W2W3", sq, rel_floor,
            "holds" if sq >= rel_floor - DERIVED_TOL else "violated",
            DERIVED_TOL))
        if entry.Q_index == 1:
            # n3-branch floor combined with the corrected (n1,n2) minimum
            q1_floor = 8 * c["log_phi"] ** 2
            reports.append(BoundReport(
                "q1_min_ge_8log2phi", value, q1_floor,
                "holds" if value >= q1_floor - DERIVED_TOL else "violated",
                DERIVED_TOL))
        else:
            # (n1, n2) != 0 branch floor that survives the corrected
            # constrained minimum: 2*sqrt(6)*log(phi)^2
            q2_floor = 2 * mpmath.sqrt(6) * c["log_phi"] ** 2
            reports.append(BoundReport(
                "q2_min_ge_2sqrt6_log2phi", value, q2_floor,
                "holds" if value >= q2_floor - DERIVED_TOL else "violated",
                DERIVED_TOL))
        return value, reports


# ---------------------------------------------------------------------------
# Fuzz and equivalence suites

# summax_fuzz and absin_fuzz draw FUZZ_SAMPLES cases each, from seeds 0
# and 1.  closed_form_equivalence samples TRIALS integer triples
# x1 > x2 > x3 > 0 and (W1, W2, W3) with 0 < |W_i| <= SAMPLE_MAX, each
# against every n with max|n_i| <= NMAX.  Both closed forms are
# homogeneous (degree 1 in x, degree 2 in W), so integer samples stand
# for all rational ones.  smallest_units_report sorts the fundamental
# units of every squarefree d <= SMALLEST_UNITS_BOUND.
FUZZ_SAMPLES = 10 ** 5
TRIALS = 100
NMAX = 5
SAMPLE_MAX = 100
EQUIVALENCE_SEED = 2
SMALLEST_UNITS_BOUND = 200


def summax_fuzz():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1e3, 1e3, FUZZ_SAMPLES)
    y = rng.uniform(-1e3, 1e3, FUZZ_SAMPLES)
    lhs = np.abs(x + y) + np.abs(x - y)
    rhs = 2 * np.maximum(np.abs(x), np.abs(y))
    bad = int(np.sum(np.abs(lhs - rhs)
                     > 2.0 ** -45 * np.maximum(np.abs(lhs), 1)))
    return BoundReport("summax_identity_fuzz", mpmath.mpf(bad), mpmath.mpf(0),
                       "holds" if bad == 0 else "violated",
                       details={"samples": FUZZ_SAMPLES})


def absin_fuzz():
    rng = np.random.default_rng(1)
    m = rng.integers(-50, 51, FUZZ_SAMPLES)
    n = rng.integers(-50, 51, FUZZ_SAMPLES)
    keep = (m != 0) | (n != 0)
    m, n = m[keep], n[keep]
    x = rng.uniform(-1e3, 1e3, m.size)
    y = rng.uniform(-1e3, 1e3, m.size)
    lhs = np.abs(m * x + n * y) + np.abs(n * x - m * y)
    rhs = np.abs(x) + np.abs(y)
    bad = int(np.sum(lhs < rhs * (1 - 1e-12)))
    return BoundReport("absin_inequality_fuzz", mpmath.mpf(bad), mpmath.mpf(0),
                       "holds" if bad == 0 else "violated",
                       details={"samples": int(m.size)})


def closed_form_equivalence():
    """klein_norm_closed and cyclic_f against direct evaluation of the
    wedge rows, exact in integers: the report counts mismatches."""
    rng = np.random.default_rng(EQUIVALENCE_SEED)
    xs = np.array([sorted(rng.choice(SAMPLE_MAX, 3, replace=False) + 1,
                          reverse=True) for _ in range(TRIALS)])
    ws = (rng.integers(1, SAMPLE_MAX + 1, (TRIALS, 3))
          * rng.choice([-1, 1], (TRIALS, 3)))
    axis = np.arange(-NMAX, NMAX + 1)
    n = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                 axis=-1).reshape(-1, 3)
    n1, n2, n3 = n.T
    bad = 0
    for samples, rows, closed in ((xs, klein_wedge_rows, klein_norm_closed),
                                  (ws, cyclic_wedge_rows, cyclic_f)):
        basis = np.array([rows(*v) for v in samples.tolist()])
        direct = np.abs(np.einsum("ki,tij->tkj", n, basis)).sum(axis=2)
        a, b, c = (samples[:, i, None] for i in range(3))
        bad += int(np.sum(direct != closed(n1, n2, n3, a, b, c)))
    return BoundReport("closed_form_equivalence", mpmath.mpf(bad),
                       mpmath.mpf(0), "holds" if bad == 0 else "violated",
                       details={"trials": TRIALS, "nmax": NMAX})


def smallest_units_report():
    entries = smallest_fundamental_units(SMALLEST_UNITS_BOUND)
    first = [d for d, _ in entries[:4]]
    order_ok = first == [5, 2, 13, 3]
    threshold = unit_key(fundamental_unit(3))  # 2 + sqrt(3)
    tail_ok = all(unit_key(e) > threshold for _, e in entries[4:])
    return [
        BoundReport("smallest_units_order", None, None,
                    "holds" if order_ok else "violated",
                    details={"order": first}),
        BoundReport("smallest_units_tail_exceeds_2_plus_sqrt3", None, None,
                    "holds" if tail_ok else "violated",
                    details={"bound": SMALLEST_UNITS_BOUND}),
    ]


# ---------------------------------------------------------------------------
# Full paper reproduction


def scan_pairs(scan_limit):
    ds = [d for d in range(2, scan_limit + 1) if is_squarefree(d)]
    return [(a, b) for i, a in enumerate(ds) for b in ds[i + 1:]]


def verify_paper(scan_limit=30, coeff_bound=20,
                 precision_bits=DEFAULT_PRECISION, catalog=None):
    """Run every check; returns a report dict.  Exit-status contract: the
    caller fails iff any assertable relation is 'violated'."""
    checks = []
    checks.extend(theorem_constants(precision_bits))
    checks.extend(smallest_units_report())
    checks.append(summax_fuzz())
    checks.append(absin_fuzz())
    checks.append(closed_form_equivalence())
    checks.extend(_wedge_fixture_reports(precision_bits))

    with mpf_ctx(precision_bits):
        checks.extend(constrained_min_reports())
        lp = _log_phi()
        named = {
            (2, 5): ("klein_min_2_5", 4 * lp * mpmath.log(1 + mpmath.sqrt(2))),
            (5, 13): ("klein_min_5_13",
                      4 * lp * mpmath.log((3 + mpmath.sqrt(13)) / 2)),
        }
    scan_rows = []
    for d1, d2 in scan_pairs(scan_limit):
        struct, value, reports = klein_field_report(d1, d2, precision_bits)
        checks.extend(r for r in reports if r.relation == "violated")
        row = {"d1": d1, "d2": d2, "d3": struct.field.d3,
               "index": struct.index_over_E, "min_1norm": value,
               "certified": reports[0].details["certified"]}
        scan_rows.append(row)
        key = tuple(sorted((d1, d2)))
        if key in named:
            name, paper = named[key]
            checks.append(_reproduced(name, value, paper, mpmath.mpf("1e-6")))
    theorem = constants(precision_bits)["theorem_lower"]
    all_above = all(r["min_1norm"] > theorem and r["certified"]
                    for r in scan_rows)
    checks.append(BoundReport(
        "klein_scan_all_above_theorem_constant", None, None,
        "holds" if all_above else "violated",
        details={"pairs": len(scan_rows)}))

    if catalog is None:
        catalog = load_default_catalog()
    for entry in catalog:
        value, reports = cyclic_entry_report(entry, coeff_bound, precision_bits)
        checks.extend(reports)

    violations = [c.name for c in checks if c.relation == "violated"]
    return {
        "config": {"scan_limit": scan_limit, "coeff_bound": coeff_bound,
                   "precision_bits": precision_bits},
        "checks": [c.to_json() for c in checks],
        "scan": [{"d1": r["d1"], "d2": r["d2"], "d3": r["d3"],
                  "index": r["index"], "min_1norm": fmt_sig(r["min_1norm"]),
                  "certified": r["certified"]} for r in scan_rows],
        "violations": violations,
        "ok": not violations,
    }


def _subfield_log(field, u, order, precision_bits):
    """LOG of a unit u = a + b*sqrt(d) of the subfield Q(sqrt(d)) of a
    Klein field, its coordinates in the Galois order `order`.  s_k fixes
    sqrt(d_k), so log|u| sits at id and at the s_k with d_k = d, and
    log|a - b*sqrt(d)| at the other two.  That conjugate is about 1/|u|,
    so both are embedded with headroom for twice the coordinate bits."""
    fixer = "s%d" % ((field.d1, field.d2, field.d3).index(u.d) + 1)
    bits = max(abs(c.numerator).bit_length() + c.denominator.bit_length()
               for c in (u.a, u.b))
    emb = [quad_embed(x, precision_bits + 2 * bits + 16)
           for x in (u, QuadElem(u.d, u.a, -u.b))]
    with mpf_ctx(precision_bits):
        log_u, log_conj = (mpmath.log(abs(v)) for v in emb)
        return LogVector(tuple(log_u if g in ("id", fixer) else log_conj
                               for g in order), "klein", precision_bits)


def _wedge_fixture_reports(precision_bits):
    """The printed wedge coordinate tables, checked on Q(sqrt2, sqrt5):
    wedge2 of the subfield units' LOGs, in the order of their fixers,
    against klein_wedge_rows."""
    struct = us.klein_unit_structure(2, 5, precision_bits)
    order = ("id",) + struct.fixers
    l1, l2, l3 = (_subfield_log(struct.field, u, order, precision_bits)
                  for u in struct.units)
    with mpf_ctx(precision_bits):
        x1 = l2.coords[0] * l3.coords[0]
        x2 = l1.coords[0] * l3.coords[0]
        x3 = l1.coords[0] * l2.coords[0]
        wedges = (("wedge_L2^L3", wedge2(l2, l3)),
                  ("wedge_L1^L3", wedge2(l1, l3)),
                  ("wedge_L1^L2", wedge2(l1, l2)))
        out = []
        tol = mpmath.mpf(2) ** (-precision_bits // 2)
        for (name, got), want in zip(wedges, klein_wedge_rows(x1, x2, x3)):
            err = max(abs(g - w) for g, w in zip(got.coords, want))
            out.append(BoundReport(name, err, mpmath.mpf(0),
                                   "holds" if err <= tol else "violated", tol))
        return out


def load_default_catalog():
    import json
    from importlib import resources

    with resources.files("unitlat").joinpath("data/catalog.json").open() as fh:
        data = json.load(fh)
    return [us.CyclicCatalogEntry.from_json(obj) for obj in data]
