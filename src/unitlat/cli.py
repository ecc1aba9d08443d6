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
group, which takes precedence over 1).  `main` alone reads argv
(`parse`, from the OPTIONS and COMMANDS tables), resolves the
configuration and maps library errors to codes.
"""

import csv
import io
import json
import os
import re
import sys
import types
from json.encoder import encode_basestring_ascii

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
    def __init__(self, message, code=EXIT_INVALID_INPUT):
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
                       % (name.upper(), raw))


def _config(args):
    cfg = {}
    for name in _DEFAULTS:
        flag = getattr(args, name, None)
        cfg[name] = flag if flag is not None else _env_default(name)
    if cfg["precision"] < 64:
        raise CliError("--precision must be >= 64")
    if cfg["coeff_bound"] < 1:
        raise CliError("--coeff-bound must be >= 1")
    if cfg["scan_limit"] < 3:  # below 3 the scan has no pair
        raise CliError("--scan-limit must be >= 3")
    return cfg


def _check_squarefree_arg(d):
    if d <= 1 or not is_squarefree(d):
        raise CliError("d must be a squarefree integer > 1, got %d" % d)


def cmd_fund_unit(args, cfg, out):
    _check_squarefree_arg(args.d)
    res = fundamental_unit(args.d, cfg["precision"])
    if args.format == "json":
        out.write(json.dumps({"d": args.d, "unit": res.unit.to_json(),
                              "norm_sign": res.norm_sign,
                              "log_value": fmt_sig(res.log_value)},
                             indent=2) + "\n")
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
        raise CliError("d1 and d2 must be distinct")
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
        out.write(klein_json(payload))
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


def _json_literal(value):
    """json.dumps of a str, bool or int."""
    return (encode_basestring_ascii(value) if isinstance(value, str)
            else str(value).lower())


def _json_list(items, indent):
    """json.dumps(list, indent=2) of items already in JSON, for a list
    opening `indent` spaces in."""
    pad = "\n" + " " * (indent + 2)
    return ("[%s%s\n%s]" % (pad, ("," + pad).join(items), " " * indent)
            if items else "[]")


# a klein payload and one of its bounds as json.dumps(payload, indent=2)
# prints them, each value a JSON text
KLEIN_JSON = "{\n%s\n}\n" % ",\n".join('  "%s": %%s' % key for key in (
    "d1", "d2", "d3", "subfield_units", "sqrt_patterns", "index_over_E",
    "generators", "denominator", "min_1norm", "argmin", "certified",
    "bounds"))
KLEIN_BOUND_JSON = "{\n%s\n    }" % ",\n".join(
    '      "%s": %%s' % key for key in ("name", "value", "relation"))


def klein_json(payload):
    """json.dumps(payload, indent=2) + "\\n" of cmd_klein's payload, filled
    into KLEIN_JSON: with an indent, the json module encodes in pure
    Python."""
    text = _json_literal
    return KLEIN_JSON % (
        payload["d1"], payload["d2"], payload["d3"],
        _json_list([text(u) for u in payload["subfield_units"]], 2),
        _json_list([_json_list([text(e) for e in pattern], 4)
                    for pattern in payload["sqrt_patterns"]], 2),
        payload["index_over_E"],
        _json_list([text(g) for g in payload["generators"]], 2),
        payload["denominator"], text(payload["min_1norm"]),
        _json_list([text(n) for n in payload["argmin"]], 2),
        text(payload["certified"]),
        _json_list([KLEIN_BOUND_JSON % (text(b["name"]), text(b["value"]),
                                        text(b["relation"]))
                    for b in payload["bounds"]], 2))


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
        raise CliError("cannot load catalog: %s" % exc)


def cmd_cyclic(args, cfg, out):
    catalog = _load_catalog(args.catalog)
    entry = next((e for e in catalog if e.label == args.label), None)
    if entry is None:
        raise CliError("no catalog entry labelled %r (have: %s)"
                       % (args.label, ", ".join(e.label for e in catalog)))
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
        out.write(json.dumps(payload, indent=2) + "\n")
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
# a row as json.dumps(dict(zip(SCAN_COLUMNS, row)), indent=2) prints it,
# indented one level further
SCAN_JSON_ROW = "{\n%s\n  }" % ",\n".join('    "%s": %%s' % c
                                           for c in SCAN_COLUMNS)


def cmd_scan(args, cfg, out):
    # rows are written as made, as json.dump(rows, indent=2) or csv would
    theorem = vf.constants(cfg["precision"])["theorem_lower"]
    writer, sep = csv.writer(out, lineterminator="\n"), "[\n  "
    if args.format == "csv":
        writer.writerow(SCAN_COLUMNS)
    for d1, d2 in vf.scan_pairs(cfg["scan_limit"]):
        try:
            struct, value, reports = vf.klein_field_report(
                d1, d2, cfg["precision"])
        except (ArithmeticError, ValueError) as exc:
            sys.stderr.write("error at (%d, %d): %s\n" % (d1, d2, exc))
            row = (d1, d2, "", "", "error", False, "", "")
        else:
            bound = next(r.paper_value for r in reports
                         if r.name == "min_ge_8X3_over_den")
            value_s = fmt_sig(value)  # the E-wedge minimum is its own bound
            row = (d1, d2, struct.field.d3, struct.index_over_E, value_s,
                   reports[0].details["certified"],
                   value_s if bound is value else fmt_sig(bound),
                   fmt_sig(value - theorem))
        if args.format == "csv":
            writer.writerow(row)
        else:
            out.write(sep + SCAN_JSON_ROW % tuple(map(_json_literal, row)))
            sep = ",\n  "
    if args.format == "json":
        out.write("\n]\n")
    return EXIT_OK


def cmd_verify_paper(args, cfg, out):
    report = vf.verify_paper(scan_limit=cfg["scan_limit"],
                             coeff_bound=cfg["coeff_bound"],
                             precision_bits=cfg["precision"],
                             catalog=_load_catalog(args.catalog))
    if args.format == "json":
        out.write(json.dumps(report, indent=2) + "\n")
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


TEXT_JSON, CSV_JSON = ("text", "json"), ("csv", "json")
# the global options, before the command: flag -> (dest, type, metavar, help)
OPTIONS = {
    "--precision": ("precision", int, "BITS", "working precision in bits"),
    "--coeff-bound": ("coeff_bound", int, "N", "cyclic box half-width"),
    "--scan-limit": ("scan_limit", int, "D", "largest d of a field scan"),
    "--catalog": ("catalog", str, "PATH", "cyclic-field catalog JSON"),
    "--format": ("format", str, "FORMAT", "text or json (scan: csv or json)"),
}
# the commands: name -> (handler, operands as (name, type), formats, help)
COMMANDS = {
    "fund-unit": (cmd_fund_unit, (("d", int),), TEXT_JSON,
                  "fundamental unit of Q(sqrt(d))"),
    "klein": (cmd_klein, (("d1", int), ("d2", int)), TEXT_JSON,
              "unit structure and minimal 1-norm of Q(sqrt(d1), sqrt(d2))"),
    "cyclic": (cmd_cyclic, (("label", str),), TEXT_JSON,
               "check a cyclic catalog entry and enumerate its minimum"),
    "scan": (cmd_scan, (), CSV_JSON,
             "table of all Klein fields up to the scan limit"),
    "verify-paper": (cmd_verify_paper, (), TEXT_JSON,
                     "run every reproduction check"),
}


def _option(tok, flags):
    """(flag, value after "=" or None) for a token naming a flag of `flags`
    or -h/--help in full or by a unique prefix; None for what argparse reads
    as a value: no leading "-", "-" alone, a negative number or a space."""
    name, eq, value = tok.partition("=")
    found = ([f for f in (*flags, "--help") if f.startswith(name)]
             if name[:2] == "--" else [name] * (name == "-h"))
    if len(found) > 1:
        raise CliError("ambiguous option: %s could match %s"
                       % (name, ", ".join(found)))
    if found and eq and found[0] not in flags:
        raise CliError("--help takes no value")
    if found:
        return found[0], value if eq else None
    if (tok[:1] != "-" or tok == "-" or " " in tok
            or re.match(r"^-\d+$|^-\d*\.\d+$", tok)):
        return None
    raise CliError("unrecognized option %s" % tok)


def _convert(kind, tok, what):
    try:
        return kind(tok)
    except ValueError:
        raise CliError("%s takes an integer, not %r" % (what, tok))


def parse(argv):
    """argv's options, command and operands as a namespace, or the help
    text for -h/--help; any misuse raises a CliError with exit 2."""
    opts, i = dict.fromkeys(o[0] for o in OPTIONS.values()), 0
    while i < len(argv) and (hit := _option(argv[i], OPTIONS)):
        (flag, value), i = hit, i + 1
        if flag not in OPTIONS:
            return _help()
        if value is None:
            if i == len(argv) or _option(argv[i], OPTIONS):
                raise CliError("%s takes a value" % flag)
            value, i = argv[i], i + 1
        opts[OPTIONS[flag][0]] = _convert(OPTIONS[flag][1], value, flag)
    if i == len(argv) or argv[i] not in COMMANDS:
        raise CliError("expected a command, one of %s" % ", ".join(COMMANDS))
    command, rest = argv[i], argv[i + 1:]
    func, names, formats, _ = COMMANDS[command]
    # argparse reads each token against the global options first, then
    # against the command's own, -h and --help
    if any(_option(tok, OPTIONS) and _option(tok, ()) for tok in rest):
        return _help(command)
    if len(rest) != len(names):
        raise CliError("%s takes %d operand(s), got %d"
                       % (command, len(names), len(rest)))
    if opts["format"] not in (None, *formats):
        raise CliError("%s takes --format %s, not %s"
                       % (command, " or ".join(formats), opts["format"]))
    opts["format"] = opts["format"] or formats[0]
    return types.SimpleNamespace(command=command, func=func, **opts, **{
        name: _convert(kind, tok, name)
        for (name, kind), tok in zip(names, rest)})


def _help(command=None):
    """The usage, the options and the commands (or the one command)."""
    row = "  %-19s %s\n"
    lines = {c: " ".join([c, *(n for n, _ in COMMANDS[c][1])])
             for c in ([command] if command else COMMANDS)}
    return ("usage: unitlat [OPTION ...] %s\n\noptions, before the command "
            "(--flag VALUE, --flag=VALUE or a unique prefix):\n%s%s\n"
            "commands:\n%s" % (
                lines[command] if command else "COMMAND [OPERAND ...]",
                "".join(row % (f + " " + o[2], o[3])
                        for f, o in OPTIONS.items()),
                row % ("-h, --help", "print this help, after COMMAND its own"),
                "".join(row % (lines[c], COMMANDS[c][3]) for c in lines)))


def _fail(exc, code):
    sys.stderr.write("error: %s\n" % exc)
    return code


def main(argv=None):
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
    except CliError as exc:
        return _fail(exc, exc.code)
    if isinstance(args, str):  # -h or --help
        sys.stdout.write(args)
        return EXIT_OK
    # scan streams its rows; the others print only once they succeed
    buf = sys.stdout if args.command == "scan" else io.StringIO()
    # exact units can run past the 4300 digits that Python >= 3.10.7
    # converts from int to str by default; print them in full
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
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
    if buf is not sys.stdout:
        sys.stdout.write(buf.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
