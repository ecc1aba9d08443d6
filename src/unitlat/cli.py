"""Command-line interface.

Configuration precedence: flags > UNITLAT_* environment variables >
defaults.  Decimal output is fixed at 12 significant digits so runs at a
fixed configuration are byte-stable.

Exit codes: 0 success, 1 assertable-check violation (a bound that
`klein`, `cyclic` or `verify-paper` reads violated), 2 invalid input (a
flag out of range, a `--format` the command does not take, a malformed
catalog, a d whose continued fraction does not close within
CF_MAX_STEPS or whose squarefreeness trial division does not decide
within SQUAREFREE_MAX_STEPS), 4 catalog validation failure (a failed
Hasse relation, or for `cyclic` generators that do not span the unit
group, which takes precedence over 1).  `main` alone parses the
arguments, resolves the configuration and maps library errors to codes.
"""

import argparse
import csv
import functools
import io
import json
import os
import sys

from .precision import DEFAULT_PRECISION, fmt_sig
from .quadratic import UnitSearchError, fundamental_unit, is_squarefree
from . import units as us
from . import verifier as vf

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID_INPUT = 2
EXIT_CATALOG = 4

_DEFAULTS = {
    "precision": DEFAULT_PRECISION,
    "coeff_bound": 20,
    "scan_limit": 30,
}


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _env_default(name):
    raw = os.environ.get("UNITLAT_" + name.upper())
    if raw is None:
        return _DEFAULTS[name]
    try:
        return int(raw)
    except ValueError:
        raise CliError("UNITLAT_%s must be an integer, got %r"
                       % (name.upper(), raw), EXIT_INVALID_INPUT)


def _config(args):
    cfg = {}
    for name in _DEFAULTS:
        flag = getattr(args, name, None)
        cfg[name] = flag if flag is not None else _env_default(name)
    if cfg["precision"] < 64:
        raise CliError("--precision must be >= 64", EXIT_INVALID_INPUT)
    if cfg["coeff_bound"] < 1:
        raise CliError("--coeff-bound must be >= 1", EXIT_INVALID_INPUT)
    if cfg["scan_limit"] < 3:  # below 3 the scan has no pair
        raise CliError("--scan-limit must be >= 3", EXIT_INVALID_INPUT)
    return cfg


def _check_squarefree_arg(d):
    if d <= 1 or not is_squarefree(d):
        raise CliError("d must be a squarefree integer > 1, got %d" % d,
                       EXIT_INVALID_INPUT)


def cmd_fund_unit(args, cfg, out):
    _check_squarefree_arg(args.d)
    res = fundamental_unit(args.d, cfg["precision"])
    if args.format == "json":
        json.dump({"d": args.d, "unit": res.unit.to_json(),
                   "norm_sign": res.norm_sign,
                   "log_value": fmt_sig(res.log_value)}, out, indent=2)
        out.write("\n")
    else:
        out.write("fundamental unit of Q(sqrt(%d)): %s\n"
                  % (args.d, res.unit))
        out.write("norm: %d\n" % res.norm_sign)
        out.write("log:  %s\n" % fmt_sig(res.log_value))
    return EXIT_OK


def cmd_klein(args, cfg, out):
    for d in (args.d1, args.d2):
        _check_squarefree_arg(d)
    if args.d1 == args.d2:
        raise CliError("d1 and d2 must be distinct", EXIT_INVALID_INPUT)
    struct, value, reports = vf.klein_field_report(args.d1, args.d2,
                                                   cfg["precision"])
    detail = reports[0].details
    if args.format == "json":
        payload = {
            "d1": args.d1, "d2": args.d2, "d3": struct.field.d3,
            "subfield_units": [str(u) for u in struct.units],
            "sqrt_patterns": [list(p) for p in struct.sqrt_patterns],
            "index_over_E": struct.index_over_E,
            "generators": [str(g) for g in us.klein_generators(struct)],
            "denominator": detail["denominator"],
            "min_1norm": fmt_sig(value),
            "argmin": detail["argmin"],
            "certified": detail["certified"],
            "bounds": [{"name": r.name, "value": fmt_sig(r.paper_value),
                        "relation": r.relation} for r in reports[1:]],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        out.write("Q(sqrt(%d), sqrt(%d)), third subfield sqrt(%d)\n"
                  % (args.d1, args.d2, struct.field.d3))
        for label, u in zip("123", struct.units):
            out.write("u%s = %s\n" % (label, u))
        out.write("square patterns: %s\n"
                  % (", ".join(str(p) for p in struct.sqrt_patterns) or "none"))
        out.write("index over +-E: %d (lattice denominator %d)\n"
                  % (struct.index_over_E, detail["denominator"]))
        out.write("min 1-norm: %s at %s (certified: %s)\n"
                  % (fmt_sig(value), tuple(detail["argmin"]),
                     detail["certified"]))
        for r in reports[1:]:
            out.write("%s: %s (bound %s)\n"
                      % (r.name, r.relation, fmt_sig(r.paper_value)))
    return _violation_code(reports)


def _load_catalog(path):
    if path is None:
        return vf.load_default_catalog()
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, list) or not all(isinstance(o, dict)
                                                 for o in data):
            raise ValueError("a catalog is a JSON list of entry objects")
        return [us.CyclicCatalogEntry.from_json(obj) for obj in data]
    except (OSError, KeyError, ValueError) as exc:
        raise CliError("cannot load catalog: %s" % exc, EXIT_INVALID_INPUT)


def cmd_cyclic(args, cfg, out):
    catalog = _load_catalog(args.catalog)
    entry = next((e for e in catalog if e.label == args.label), None)
    if entry is None:
        raise CliError("no catalog entry labelled %r (have: %s)"
                       % (args.label, ", ".join(e.label for e in catalog)),
                       EXIT_INVALID_INPUT)
    value, reports = vf.cyclic_entry_report(
        entry, cfg["coeff_bound"], cfg["precision"])
    relations = [(r.name[len("hasse_"):], r.relation)
                 for r in reports if r.name.startswith("hasse_")]
    failures = [name for name, rel in relations if rel == "violated"]
    payload = {
        "label": entry.label,
        "defining_polynomial": list(entry.coeffs),
        "Q_index": entry.Q_index,
        "relations": {name: rel for name, rel in relations},
    }
    if value is not None:
        detail = next(r.details for r in reports
                      if r.name == "cyclic_min_1norm")
        payload.update({
            "parity_constraint": "n1+n2+n3 even" if entry.Q_index == 2 else None,
            "min_1norm": fmt_sig(value),
            "argmin": detail["argmin"],
            "certified": detail["certified"],
            "W": [fmt_sig(detail[k]) for k in ("W1", "W2", "W3")],
            "bounds": [{"name": r.name, "value": fmt_sig(r.paper_value),
                        "relation": r.relation} for r in reports
                       if r.paper_value is not None],
        })
    if args.format == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        out.write("%s: x^4 + %d x^3 + %d x^2 + %d x + %d, Q = %d\n"
                  % (entry.label, entry.coeffs[3], entry.coeffs[2],
                     entry.coeffs[1], entry.coeffs[0], entry.Q_index))
        for name, rel in relations:
            out.write("  [%s] %s\n" % ("ok" if rel == "holds" else "FAIL", name))
        if value is not None:
            if entry.Q_index == 2:
                out.write("parity constraint: n1+n2+n3 even\n")
            out.write("W1, W2, W3 = %s\n" % ", ".join(payload["W"]))
            out.write("min 1-norm: %s at %s (certified: %s)\n"
                      % (payload["min_1norm"], tuple(payload["argmin"]),
                         payload["certified"]))
            for b in payload["bounds"]:
                out.write("%s: %s (bound %s)\n"
                          % (b["name"], b["relation"], b["value"]))
    if failures:
        sys.stderr.write("failed relations: %s\n" % "; ".join(failures))
        return EXIT_CATALOG
    sat = next((r for r in reports if r.name == "unit_group_saturated"), None)
    if sat is not None and sat.relation == "violated":
        sys.stderr.write("failed check: unit_group_saturated (index %d over "
                         "the catalog's generators; primes tested: %s)\n" % (
                             sat.details["index"],
                             ", ".join(map(str, sat.details["primes"]))))
        return EXIT_CATALOG
    return _violation_code(reports)


def _violation_code(reports):
    violated = any(r.relation == "violated" for r in reports)
    return EXIT_VIOLATION if violated else EXIT_OK


SCAN_COLUMNS = ("d1", "d2", "d3", "index", "min_1norm", "certified",
                "bound_8X3", "theorem_margin")


def cmd_scan(args, cfg, out):
    theorem = vf.constants(cfg["precision"])["theorem_lower"]
    rows = []
    for d1, d2 in vf.scan_pairs(cfg["scan_limit"]):
        try:
            struct, value, reports = vf.klein_field_report(
                d1, d2, cfg["precision"])
        except (ArithmeticError, ValueError) as exc:
            sys.stderr.write("error at (%d, %d): %s\n" % (d1, d2, exc))
            rows.append({"d1": d1, "d2": d2, "d3": "", "index": "",
                         "min_1norm": "error", "certified": False,
                         "bound_8X3": "", "theorem_margin": ""})
            continue
        bound = next(r.paper_value for r in reports
                     if r.name == "min_ge_8X3_over_den")
        rows.append({
            "d1": d1, "d2": d2, "d3": struct.field.d3,
            "index": struct.index_over_E,
            "min_1norm": fmt_sig(value),
            "certified": reports[0].details["certified"],
            "bound_8X3": fmt_sig(bound),
            "theorem_margin": fmt_sig(value - theorem),
        })
    if args.format == "json":
        json.dump(rows, out, indent=2)
        out.write("\n")
    else:
        writer = csv.DictWriter(out, fieldnames=SCAN_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def cmd_verify_paper(args, cfg, out):
    report = vf.verify_paper(scan_limit=cfg["scan_limit"],
                             coeff_bound=cfg["coeff_bound"],
                             precision_bits=cfg["precision"],
                             catalog=_load_catalog(args.catalog))
    if args.format == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
    else:
        out.write("checks:\n")
        for c in report["checks"]:
            line = "  [%s] %s" % (c["relation"], c["name"])
            if c.get("computed_value") is not None:
                line += " = " + c["computed_value"]
            if c.get("paper_value") is not None:
                line += " (vs %s)" % c["paper_value"]
            out.write(line + "\n")
        out.write("scan: %d fields, all certified: %s\n"
                  % (len(report["scan"]),
                     all(r["certified"] for r in report["scan"])))
        out.write("result: %s\n" % ("ok" if report["ok"] else
                                    "VIOLATIONS: " + ", ".join(report["violations"])))
    return EXIT_OK if report["ok"] else EXIT_VIOLATION


@functools.cache  # built once per process, however often main runs
def build_parser():
    parser = argparse.ArgumentParser(
        prog="unitlat",
        description="Unit lattices of real quartic fields: fundamental "
                    "units, exterior-square minimal 1-norms, and full "
                    "reproduction of the published bound chain.")
    parser.add_argument("--precision", type=int, help="working precision in bits")
    parser.add_argument("--coeff-bound", type=int, dest="coeff_bound",
                        help="coefficient box half-width for lattice enumeration")
    parser.add_argument("--scan-limit", type=int, dest="scan_limit",
                        help="largest squarefree d for field scans")
    parser.add_argument("--catalog", help="path to a cyclic-field catalog JSON")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        help="output format (default: csv for scan, else text)")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("fund-unit", help="fundamental unit of Q(sqrt(d))")
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_fund_unit)
    p = sub.add_parser("klein", help="unit structure and minimal 1-norm of "
                                     "Q(sqrt(d1), sqrt(d2))")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.set_defaults(func=cmd_klein)
    p = sub.add_parser("cyclic", help="validate a cyclic catalog entry and "
                                      "enumerate its lattice minimum")
    p.add_argument("label")
    p.set_defaults(func=cmd_cyclic)
    p = sub.add_parser("scan", help="table of all Klein fields up to the scan limit")
    p.set_defaults(func=cmd_scan)
    p = sub.add_parser("verify-paper", help="run every reproduction check")
    p.set_defaults(func=cmd_verify_paper)
    return parser


def _fail(exc, code):
    sys.stderr.write("error: %s\n" % exc)
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    formats = ("csv", "json") if args.command == "scan" else ("text", "json")
    buf = io.StringIO()
    # exact units can run past the 4300 digits that Python >= 3.10.7
    # converts from int to str by default; print them in full
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.format is None:
            args.format = formats[0]
        elif args.format not in formats:
            raise CliError("%s takes --format %s, not %s"
                           % (args.command, " or ".join(formats), args.format),
                           EXIT_INVALID_INPUT)
        code = args.func(args, _config(args), buf)
    except CliError as exc:
        return _fail(exc, exc.code)
    except UnitSearchError as exc:  # a bounded search gave up
        return _fail(exc, EXIT_INVALID_INPUT)
    except us.CatalogValidationError as exc:
        return _fail(exc, EXIT_CATALOG)
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
    sys.stdout.write(buf.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
