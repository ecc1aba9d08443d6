"""Reproduces the published constants and bound chains and re-derives the
constrained minimizations, emitting a machine-readable report.

The two "elementary consideration" bounds for the cyclic case are treated
as report-only comparisons: the grid-plus-refinement oracle locates
feasible points below the claimed values (4*log(phi) < 3*sqrt(2)*log(phi)
and 4*sqrt(6)*log(phi)^2 < 6*sqrt(3)*log(phi)^2), so those claims are
surfaced, never asserted.  The downstream bound that remains derivable
(8*log(phi)^2 for the relative-unit branch) is asserted instead.
"""

import math
from dataclasses import dataclass, field as dc_field

import mpmath
import numpy as np

from .precision import DEFAULT_PRECISION, mpf_ctx, fmt_sig
from .quadratic import is_squarefree, smallest_fundamental_units, surd_cmp
from . import biquadratic as bq
from . import quartic as qt
from . import units as us
from .loglattice import (LatticeSpec, Wedge2Vector, cyclic_f,
                         cyclic_wedge_rows, klein_norm_closed,
                         klein_wedge_rows, log_embed_cyclic, log_embed_klein,
                         log_sigma, min_one_norm, wedge2)

THEOREM_TOL = mpmath.mpf("1e-5")
DERIVED_TOL = mpmath.mpf("1e-9")


def _log_phi():
    return mpmath.log((1 + mpmath.sqrt(5)) / 2)


def constants(precision_bits=DEFAULT_PRECISION):
    with mpf_ctx(precision_bits):
        lp = _log_phi()
        return {
            "log_phi": lp,
            "costa_friedman": 2 * mpmath.sqrt(3) * lp ** 2,
            "theorem_lower": 3 * mpmath.sqrt(3) * lp ** 2,
            "upper_bound": 8 * lp * mpmath.log(1 + mpmath.sqrt(2)),
            "pohst_floor": 4 * lp ** 2,
        }


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


def pohst_check(u, precision_bits=DEFAULT_PRECISION):
    """||LOG(u)||_2^2 >= 4 log(phi)^2 for a unit u != +-1 of a real
    quartic field."""
    with mpf_ctx(precision_bits):
        if isinstance(u, bq.BiquadElem):
            log_embed = log_embed_klein
        elif isinstance(u, qt.QuarticElem):
            log_embed = log_embed_cyclic
        else:
            raise TypeError("expected a quartic-field unit")
        if u.is_rational():
            raise ValueError("Pohst bound excludes u = +-1")
        lv = log_embed(u, precision_bits)
        sq = sum((c * c for c in lv.coords), mpmath.mpf(0))
        floor = constants(precision_bits)["pohst_floor"]
        ok = sq >= floor - DERIVED_TOL
        return BoundReport("pohst_2norm_sq", sq, floor,
                           "holds" if ok else "violated", DERIVED_TOL)


# ---------------------------------------------------------------------------
# Constrained minimization (cyclic-case "elementary consideration" oracle)


# points per axis of the (W2, W3) grid that seeds the refinement
GRID_RESOLUTION = 1200


def _golden_min(fn, lo, hi, tol=1e-13, iters=200):
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = (a + b) / 2
    return x, fn(x)


def constrained_min(objective):
    """Dense-grid global search plus golden-section refinement on the active
    constraint circle for objective "q1_expr" or "q2_expr".  Returns
    (minimum, argmin, paper_claim, relation); relation is always
    "report-only"."""
    if objective not in ("q1_expr", "q2_expr"):
        raise ValueError("unknown objective %r" % (objective,))
    lp = float(_log_phi())
    hi = 3.0 * lp
    axis = np.linspace(1e-9, hi, GRID_RESOLUTION)
    w2, w3 = np.meshgrid(axis, axis, indexing="ij")
    shape = 2 * np.maximum(w2, w3) + w2 + w3

    if objective == "q1_expr":
        feasible = w2 ** 2 + w3 ** 2 >= 2 * lp ** 2
        values = np.where(feasible, shape, np.inf)
        paper_claim = 3 * math.sqrt(2) * lp
        refine_circles = [(math.sqrt(2) * lp, lambda a, b: 2 * max(a, b) + a + b,
                           lambda a, b: (a, b))]
    else:
        # optimal W1 given (W2, W3): smallest feasible value, since the
        # objective 2*W1*shape increases in W1
        w1 = np.maximum(lp, np.sqrt(np.maximum(0.0, 4 * lp ** 2
                                               - w2 ** 2 - w3 ** 2)))
        feasible = w2 ** 2 + w3 ** 2 >= 2 * lp ** 2
        values = np.where(feasible, 2 * w1 * shape, np.inf)
        paper_claim = 6 * math.sqrt(3) * lp ** 2
        # two candidate active sets: sum constraint with W1 = log(phi), or
        # the relative-unit circle with W1 = sqrt(2)*log(phi)
        refine_circles = [
            (math.sqrt(3) * lp, lambda a, b: 2 * lp * (2 * max(a, b) + a + b),
             lambda a, b: (lp, a, b)),
            (math.sqrt(2) * lp,
             lambda a, b: 2 * math.sqrt(2) * lp * (2 * max(a, b) + a + b),
             lambda a, b: (math.sqrt(2) * lp, a, b)),
        ]

    idx = int(np.argmin(values))
    grid_min = float(values.flat[idx])
    i, j = divmod(idx, GRID_RESOLUTION)
    if objective == "q1_expr":
        grid_arg = (float(axis[i]), float(axis[j]))
    else:
        grid_arg = (float(w1[i, j]), float(axis[i]), float(axis[j]))

    best, best_arg = grid_min, grid_arg
    for radius, val_fn, arg_fn in refine_circles:
        def on_theta(theta, radius=radius, val_fn=val_fn):
            return val_fn(radius * math.cos(theta), radius * math.sin(theta))
        theta, val = _golden_min(on_theta, 1e-9, math.pi / 2 - 1e-9)
        if val < best:
            best = val
            best_arg = arg_fn(radius * math.cos(theta), radius * math.sin(theta))

    return best, best_arg, paper_claim, "report-only"


def constrained_min_reports():
    lp = _log_phi()
    out = []
    for tag, expected in (("q1_expr", 4 * lp),
                          ("q2_expr", 4 * mpmath.sqrt(6) * lp ** 2)):
        value, arg, claim, rel = constrained_min(tag)
        out.append(BoundReport(
            "constrained_min_%s" % tag, mpmath.mpf(value), mpmath.mpf(claim),
            rel, None,
            details={"argmin": [round(v, 9) for v in arg],
                     "oracle_closed_form": expected,
                     "below_paper_claim": bool(value < claim)}))
    return out


# ---------------------------------------------------------------------------
# Field reports


def klein_lattice(struct):
    """E-wedge lattice spec of a Klein structure: the klein_wedge_rows of
    its subfield regulators W_i, with the index-appropriate denominator."""
    w1, w2, w3 = struct.logs
    prec = struct.precision_bits
    with mpf_ctx(prec):
        basis = tuple(Wedge2Vector(tuple(map(mpmath.mpf, row)), "klein", prec)
                      for row in klein_wedge_rows(w2 * w3, w1 * w3, w1 * w2))
    return LatticeSpec(basis, us.klein_denominator(struct.index_over_E))


def klein_field_report(d1, d2, coeff_bound=20,
                       precision_bits=DEFAULT_PRECISION):
    """Certified enumerated minimum for one Klein field plus bound checks."""
    with mpf_ctx(precision_bits):
        struct = us.klein_unit_structure(d1, d2, precision_bits)
        spec = klein_lattice(struct)
        value, argmin, certified = min_one_norm(spec, coeff_bound)
        w1, w2, _ = struct.logs
        x3 = w1 * w2
        bound_8x3 = 8 * x3 / spec.denominator
        thin = 2 * x3
        theorem = constants(precision_bits)["theorem_lower"]
        reports = [
            BoundReport("min_1norm", value, None, "holds", None,
                        details={"d1": d1, "d2": d2, "d3": struct.field.d3,
                                 "index_over_E": struct.index_over_E,
                                 "denominator": spec.denominator,
                                 "argmin": list(argmin),
                                 "certified": certified}),
            BoundReport("min_ge_8X3_over_den", value, bound_8x3,
                        "holds" if value >= bound_8x3 - DERIVED_TOL
                        else "violated", DERIVED_TOL),
            BoundReport("min_ge_2X3", value, thin,
                        "holds" if value >= thin - DERIVED_TOL
                        else "violated", DERIVED_TOL),
            BoundReport("min_gt_theorem_constant", value, theorem,
                        "holds" if value > theorem else "violated"),
        ]
        return struct, value, certified, reports


def cyclic_lattice(entry, gen_logs):
    """Wedge basis of LOG(u_l), LOG(u0), LOG(sigma(u0)) from the entry's
    generator logs, with the Q-appropriate denominator and parity, plus
    the id-coordinates (W1, W2, W3) of the three log vectors."""
    lv_ul, lv_u0 = gen_logs[:2]
    lv_su0 = log_sigma(lv_u0)
    basis = (wedge2(lv_ul, lv_u0), wedge2(lv_ul, lv_su0), wedge2(lv_u0, lv_su0))
    if entry.Q_index == 2:
        spec = LatticeSpec(basis, denominator=2, parity_constraint="even")
    else:
        spec = LatticeSpec(basis, denominator=1)
    return spec, tuple(lv.coords[0] for lv in (lv_ul, lv_u0, lv_su0))


def cyclic_entry_report(entry, coeff_bound=20, precision_bits=DEFAULT_PRECISION,
                        regulator_height=6):
    with mpf_ctx(precision_bits):
        ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d,
                                entry.u_l, precision_bits)
        hasse = us.verify_hasse_relations(entry, ctx)
        reports = [BoundReport("hasse_" + name, None, None,
                               "holds" if ok else "violated")
                   for name, ok in hasse.relations.items()]
        if not hasse.passed:
            return None, reports
        gen_logs = us.cyclic_generator_logs(entry, ctx, hasse)
        reg_ok, reg_idx = us.regulator_cross_check(gen_logs, [
            lv for _, _, lv in us.search_relative_units(ctx, regulator_height)])
        reports.append(BoundReport(
            "regulator_cross_check", None, None,
            "holds" if reg_ok else "violated",
            details={"sublattice_index": reg_idx}))
        spec, (w1, w2, w3) = cyclic_lattice(entry, gen_logs)
        value, argmin, certified = min_one_norm(spec, coeff_bound)
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


def summax_fuzz(samples=10 ** 5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1e3, 1e3, samples)
    y = rng.uniform(-1e3, 1e3, samples)
    lhs = np.abs(x + y) + np.abs(x - y)
    rhs = 2 * np.maximum(np.abs(x), np.abs(y))
    bad = int(np.sum(np.abs(lhs - rhs)
                     > 2.0 ** -45 * np.maximum(np.abs(lhs), 1)))
    return BoundReport("summax_identity_fuzz", mpmath.mpf(bad), mpmath.mpf(0),
                       "holds" if bad == 0 else "violated",
                       details={"samples": samples})


def absin_fuzz(samples=10 ** 5, seed=1):
    rng = np.random.default_rng(seed)
    m = rng.integers(-50, 51, samples)
    n = rng.integers(-50, 51, samples)
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


# closed_form_equivalence samples: TRIALS integer triples x1 > x2 > x3 > 0
# and (W1, W2, W3) with 0 < |W_i| <= SAMPLE_MAX, each against every n with
# max|n_i| <= NMAX.  Both closed forms are homogeneous (degree 1 in x,
# degree 2 in W), so integer samples stand for all rational ones.
TRIALS = 100
NMAX = 5
SAMPLE_MAX = 100
EQUIVALENCE_SEED = 2


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


def smallest_units_report(bound=200):
    entries = smallest_fundamental_units(bound)
    first = [d for d, _ in entries[:4]]
    order_ok = first == [5, 2, 13, 3]
    tail_ok = all(surd_cmp(e.unit.a, e.unit.b, d, 2, 1, 3) > 0
                  for d, e in entries[4:])
    return [
        BoundReport("smallest_units_order", None, None,
                    "holds" if order_ok else "violated",
                    details={"order": first}),
        BoundReport("smallest_units_tail_exceeds_2_plus_sqrt3", None, None,
                    "holds" if tail_ok else "violated",
                    details={"bound": bound}),
    ]


# ---------------------------------------------------------------------------
# Full paper reproduction


def scan_pairs(scan_limit):
    ds = [d for d in range(2, scan_limit + 1) if is_squarefree(d)]
    return [(a, b) for i, a in enumerate(ds) for b in ds[i + 1:]]


def verify_paper(scan_limit=30, coeff_bound=20,
                 precision_bits=DEFAULT_PRECISION, catalog=None,
                 progress=None):
    """Run every check; returns a report dict.  Exit-status contract: the
    caller fails iff any assertable relation is 'violated'."""
    checks = []
    checks.extend(theorem_constants(precision_bits))
    checks.extend(smallest_units_report())
    checks.append(summax_fuzz())
    checks.append(absin_fuzz())
    checks.append(closed_form_equivalence())
    checks.extend(_wedge_fixture_reports(precision_bits))
    checks.extend(constrained_min_reports())

    with mpf_ctx(precision_bits):
        lp = _log_phi()
        named = {
            (2, 5): ("klein_min_2_5", 4 * lp * mpmath.log(1 + mpmath.sqrt(2))),
            (5, 13): ("klein_min_5_13",
                      4 * lp * mpmath.log((3 + mpmath.sqrt(13)) / 2)),
        }
    scan_rows = []
    for d1, d2 in scan_pairs(scan_limit):
        struct, value, certified, reports = klein_field_report(
            d1, d2, coeff_bound, precision_bits)
        checks.extend(r for r in reports if r.relation == "violated")
        row = {"d1": d1, "d2": d2, "d3": struct.field.d3,
               "index": struct.index_over_E,
               "min_1norm": value, "certified": certified}
        scan_rows.append(row)
        key = tuple(sorted((d1, d2)))
        if key in named:
            name, paper = named[key]
            checks.append(_reproduced(name, value, paper, mpmath.mpf("1e-6")))
        if progress:
            progress(row)
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


def _wedge_fixture_reports(precision_bits):
    """The printed wedge coordinate tables, checked on Q(sqrt2, sqrt5)."""
    struct = us.klein_unit_structure(2, 5, precision_bits)
    order = struct.galois_order()
    l1, l2, l3 = (log_embed_klein(struct.field.lift_quad(u), precision_bits,
                                  order=order) for u in struct.units)
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
