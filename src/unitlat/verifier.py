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
import itertools
import types
import warnings
from dataclasses import dataclass, field as dc_field

import mpmath

from .precision import DEFAULT_PRECISION, mpf_ctx, fmt_sig
from .quadratic import (is_squarefree, quad_norm, smallest_fundamental_units,
                        unit_key)
from . import units as us
from .loglattice import (KLEIN_ORDER_WARNING, WEDGE_PAIRS, cyclic_f,
                         cyclic_min, cyclic_wedge_rows, klein_norm_closed,
                         klein_wedge_rows, log_phi)

THEOREM_TOL = mpmath.mpf("1e-5")
DERIVED_TOL = mpmath.mpf("1e-9")


@functools.lru_cache(maxsize=None)
def constants(precision_bits=DEFAULT_PRECISION):
    """The paper's constants at precision_bits, computed once per
    precision; a read-only mapping, since every caller shares it."""
    with mpf_ctx(precision_bits):
        lp = log_phi()
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


def _at_least(name, value, floor):
    rel = "holds" if value >= floor - DERIVED_TOL else "violated"
    return BoundReport(name, value, floor, rel, DERIVED_TOL)


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
    lp = log_phi()
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
    lp = log_phi()
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
    By klein_norm_closed, which closed_form_equivalence proves
    against klein_wedge_rows on every verify-paper, n has 1-norm
    4*(max(t2, t3) + max(t1, t2) + max(t1, t3)) with t_i = |n_i|*X_i.
    Each nonzero t_i is at least X_i >= X3, and the largest t_i appears
    in two of the three maxima, so every n != 0 has 1-norm >= 8*X3, with
    equality only at n = (0, 0, +-1) (n1 or n2 nonzero gives >= 8*X2).
    So 8*X3/den at argmin (0, 0, -1) is the exact minimum of the
    (1/den)-scaled E-wedge lattice: certified for that lattice.  That
    lattice contains wedge^2 O_L^*, the lattice of wedges of the
    generators of O_L^*, so the value is only a lower bound on the
    minimum of wedge^2 O_L^*, not that minimum.
    The order is decided on the unit keys: they strictly increase
    exactly when 1 < u1 < u2 < u3 (unit_key; each u > 1, fundamental_unit),
    that is 0 < W1 < W2 < W3, so a report warns as klein_norm_closed does
    unless they do, and reads W1 and W2 alone.  8*X3/den and 2*X3 scale
    X3 exactly, by powers of 2 (den is 1, 2 or 4).
    """
    struct = us.klein_unit_structure(d1, d2, precision_bits)
    den = us.klein_denominator(struct.index_over_E)
    r1, r2, r3 = struct.ranked
    if not unit_key(r1) < unit_key(r2) < unit_key(r3):
        warnings.warn(KLEIN_ORDER_WARNING, stacklevel=2)
    with mpf_ctx(precision_bits):
        x3 = r1.log_value * r2.log_value
        bound = mpmath.ldexp(x3, 4 - den.bit_length())  # 8*X3/den
        value = bound  # klein_norm_closed(0, 0, 1, X)/den = 4*(X3 + X3)/den
        theorem = constants(precision_bits)["theorem_lower"]
        reports = [
            BoundReport("min_1norm", value, None, "holds", None,
                        details={"d1": d1, "d2": d2, "d3": struct.field.d3,
                                 "index_over_E": struct.index_over_E,
                                 "denominator": den,
                                 "argmin": [0, 0, -1],
                                 "certified": True}),
            _at_least("min_ge_8X3_over_den", value, bound),
            _at_least("min_ge_2X3", value, mpmath.ldexp(x3, 1)),
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
        gens, values, gen_logs = us.cyclic_generators(entry, ctx, hasse)
        sat = us.saturate(ctx.field, gens, values, gen_logs)
        reports.append(BoundReport(
            "unit_group_saturated", None, None,
            "holds" if sat.index == 1 else "violated",
            details={"index": sat.index, "index_bound": sat.bound,
                     "primes": list(sat.primes)}))
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
        reports.append(_at_least("relative_unit_pohst_W2W3",
                                 w2 * w2 + w3 * w3, 2 * c["log_phi"] ** 2))
        if entry.Q_index == 1:
            # n3-branch floor combined with the corrected (n1,n2) minimum
            reports.append(_at_least("q1_min_ge_8log2phi", value,
                                     8 * c["log_phi"] ** 2))
        else:
            # (n1, n2) != 0 branch floor that survives the corrected
            # constrained minimum: 2*sqrt(6)*log(phi)^2
            reports.append(_at_least("q2_min_ge_2sqrt6_log2phi", value,
                                     2 * mpmath.sqrt(6) * c["log_phi"] ** 2))
        # a minimum that a triple outside the box, or a unit outside the
        # generators' span, may undercut is only an upper bound: it and
        # the floors read off it are violated; the Pohst floor reads W only
        reasons = [why for why, bad in (
            ("not certified within coeff_bound", not certified),
            ("the generators span index %d in the unit group" % sat.index,
             sat.index != 1)) if bad]
        reports[-4].details["certified"] = not reasons
        for r in reports[-4:]:
            if reasons and r.name != "relative_unit_pohst_W2W3":
                r.relation = "violated"
                r.details["reason"] = "; ".join(reasons)
        return value, reports


# ---------------------------------------------------------------------------
# Identities decided in integers on finite sets, proved sufficient in each
# docstring

SMALLEST_UNITS_BOUND = 200  # smallest_units_report sorts d <= this
# the integer pairs with m^2 + n^2 = 1, which are also the axis points
UNIT_PAIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# degree + 1 values per variable (1 in each n_i and X_i, 2 in each W_i),
# with X1 > X2 > X3 > 0 and W_i != 0, as the closed forms expect
N_GRID, X_GRID, W_GRID = (-1, 1), ((5, 6), (3, 4), (1, 2)), ((-1, 1, 2),) * 3


def _exact_report(name, bad, details):
    return BoundReport(name, mpmath.mpf(bad), mpmath.mpf(0),
                       "holds" if bad == 0 else "violated", details=details)


def summax_fuzz():
    """|x + y| + |x - y| = 2*max(|x|, |y|) for all real x, y, decided at
    the 8 integer points (x, y) != 0 with |x|, |y| <= 1.  Each |.| and the
    max change branch only on the lines x = 0, y = 0, x = +-y, which cut
    the plane into 8 closed cones, each spanned by two of the points; both
    sides are linear on each, so agree on it iff they agree at those two."""
    points = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if x or y]
    bad = sum(abs(x + y) + abs(x - y) != 2 * max(abs(x), abs(y))
              for x, y in points)
    return _exact_report("summax_identity_fuzz", bad, {"points": len(points)})


def absin_fuzz():
    """|m*x + n*y| + |n*x - m*y| >= |x| + |y| for all integers (m, n) != 0
    and real x, y, decided for (m, n) in UNIT_PAIRS at the 4 axis points.
    (m*x + n*y, n*x - m*y) is (x, y) reflected and scaled by
    sqrt(m^2 + n^2), so the left side is >= its 2-norm, which for
    m^2 + n^2 >= 2 is >= sqrt(2)*|(x, y)|_2 >= |x| + |y| (Cauchy-Schwarz).
    For the UNIT_PAIRS the two terms are +-x and +-y, so both sides are
    linear on each closed quadrant: it holds there iff it holds at the two
    axis points spanning it."""
    bad = sum(abs(m * x + n * y) + abs(n * x - m * y) < abs(x) + abs(y)
              for m, n in UNIT_PAIRS for x, y in UNIT_PAIRS)
    return _exact_report("absin_inequality_fuzz", bad,
                         {"unit_pairs": len(UNIT_PAIRS)})


def _klein_pairs(n, x):
    a1, a2, a3 = (2 * ni * xi for ni, xi in zip(n, x))
    return (-a2, -a3), (a1, a2), (-a1, a3)


def _cyclic_pairs(n, w):
    (n1, n2, n3), (w1, w2, w3) = n, w
    b, y4, y5 = n3 * (w2 * w2 + w3 * w3), w1 * (w2 + w3), w1 * (w2 - w3)
    return (-b, n1 * y4 - n2 * y5), (n1 * y5 + n2 * y4, b)


def closed_form_equivalence():
    """klein_norm_closed and cyclic_f against the 1-norm of n*rows for
    klein_wedge_rows and cyclic_wedge_rows; the report counts failures.
    The coordinates c_1 .. c_6 of n*rows pair up: (c_2k-1, c_2k) =
    (A + B, A - B) for the k-th (A, B) of _klein_pairs or _cyclic_pairs
    (c_5 and c_6 enter cyclic_f as they are).  Each such equation is a
    polynomial identity of degree <= 1 in each n_i and X_i and <= 2 in
    each W_i.  A polynomial vanishing on a product of (degree + 1)
    distinct values per variable is zero (in the last variable it has
    more roots than its degree; induct), so the grid proves the pairing
    for all real inputs.  By the summax identity, the 1-norm is then the
    sum of 2*max(|A|, |B|) over the pairs (plus |c_5| + |c_6|): the sum
    each closed form writes out with its own formulas.  Each closed form
    is evaluated against the direct 1-norm at every grid point."""
    bad = points = 0
    for rows, closed, pairs, grid in (
            (klein_wedge_rows, klein_norm_closed, _klein_pairs, X_GRID),
            (cyclic_wedge_rows, cyclic_f, _cyclic_pairs, W_GRID)):
        for n in itertools.product(N_GRID, repeat=3):
            for v in itertools.product(*grid):
                basis = rows(*v)
                c = [sum(ni * row[k] for ni, row in zip(n, basis))
                     for k in range(6)]
                paired = all(c[2 * k:2 * k + 2] == [a + b, a - b]
                             for k, (a, b) in enumerate(pairs(n, v)))
                bad += (not paired) + int(closed(*n, *v) != sum(map(abs, c)))
                points += 1
    return _exact_report("closed_form_equivalence", bad,
                         {"grid_points": points})


def smallest_units_report():
    entries = smallest_fundamental_units(SMALLEST_UNITS_BOUND)
    first = [d for d, _ in entries[:4]]
    order_ok = first == [5, 2, 13, 3]
    threshold = dict(entries)[3]  # 2 + sqrt(3)
    tail_ok = all(key > threshold for _, key in entries[4:])
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
    """The pairs d1 < d2 of squarefree d in [2, scan_limit], lazily."""
    ds = [d for d in range(2, scan_limit + 1) if is_squarefree(d)]
    return itertools.combinations(ds, 2)


def verify_paper(scan_limit=30, coeff_bound=20,
                 precision_bits=DEFAULT_PRECISION, catalog=None):
    """Run every check; returns a report dict.  Exit-status contract: the
    caller fails iff any assertable relation is 'violated'."""
    checks = []
    checks.extend(theorem_constants(precision_bits))
    checks.extend(smallest_units_report())
    checks += [summax_fuzz(), absin_fuzz(), closed_form_equivalence()]
    checks.extend(_wedge_fixture_reports())

    with mpf_ctx(precision_bits):
        checks.extend(constrained_min_reports())
        lp = log_phi()
        named = {
            (2, 5): ("klein_min_2_5", 4 * lp * mpmath.log(1 + mpmath.sqrt(2))),
            (5, 13): ("klein_min_5_13",
                      4 * lp * mpmath.log((3 + mpmath.sqrt(13)) / 2)),
        }
    theorem = constants(precision_bits)["theorem_lower"]
    scan_rows, all_above = [], True
    for d1, d2 in scan_pairs(scan_limit):  # d1 < d2
        struct, value, reports = klein_field_report(d1, d2, precision_bits)
        checks.extend(r for r in reports if r.relation == "violated")
        certified = reports[0].details["certified"]
        all_above = all_above and value > theorem and certified
        scan_rows.append({"d1": d1, "d2": d2, "d3": struct.field.d3,
                          "index": struct.index_over_E,
                          "min_1norm": fmt_sig(value), "certified": certified})
        if (d1, d2) in named:
            name, paper = named[d1, d2]
            checks.append(_reproduced(name, value, paper, mpmath.mpf("1e-6")))
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
        "scan": scan_rows,
        "violations": violations,
        "ok": not violations,
    }


def _log_signs(struct):
    """s_i in {+1, -1}^4 with LOG(u_i) = W_i*s_i in the Galois order
    ("id",) + struct.fixers, for units of norm +-1: s_k fixes sqrt(d_k),
    so the s_k fixing the field of u_i fixes u_i, and the other two send
    it to N(u_i)/u_i, whose log|.| is -W_i."""
    f = struct.field
    fixers = ("s%d" % ((f.d1, f.d2, f.d3).index(u.d) + 1)
              for u in struct.units)
    return tuple(tuple(1 if g in ("id", fixer) else -1
                       for g in ("id",) + struct.fixers) for fixer in fixers)


def _wedge_fixture_reports():
    """The printed wedge tables, proved on Q(sqrt2, sqrt5): with N(u_i) =
    +-1 exactly, LOG(u_i)^LOG(u_j) = W_i*W_j*(s_i^s_j) (_log_signs), so row
    k of klein_wedge_rows(X) must be X_k*(s_i^s_j), X1 = W2*W3, X2 = W1*W3,
    X3 = W1*W2.  Rows have degree <= 1 in each X_k, so {0, 1}^3 proves it
    (see closed_form_equivalence).  Each report is the largest integer
    error there, and holds iff that is 0 and the norms are +-1."""
    struct = us.klein_unit_structure(2, 5)
    norms_ok = all(quad_norm(u) in (1, -1) for u in struct.units)
    s1, s2, s3 = _log_signs(struct)
    out = []
    for k, (name, a, b) in enumerate((("wedge_L2^L3", s2, s3),
                                      ("wedge_L1^L3", s1, s3),
                                      ("wedge_L1^L2", s1, s2))):
        wedge = [a[i] * b[j] - a[j] * b[i] for i, j in WEDGE_PAIRS]
        err = max(abs(got - x[k] * w)
                  for x in itertools.product((0, 1), repeat=3)
                  for got, w in zip(klein_wedge_rows(*x)[k], wedge))
        out.append(BoundReport(name, mpmath.mpf(err), mpmath.mpf(0),
                               "holds" if err == 0 and norms_ok
                               else "violated"))
    return out


def load_default_catalog():
    import json
    from importlib import resources

    with resources.files("unitlat").joinpath("data/catalog.json").open() as fh:
        data = json.load(fh)
    return [us.CyclicCatalogEntry.from_json(obj) for obj in data]
