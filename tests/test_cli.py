import contextlib
import csv
import functools
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import types
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from unitlat import cli, quadratic, quartic
from unitlat import units as us
from unitlat import verifier as vf
from unitlat.quadratic import fundamental_unit

# the fundamental unit of Q(sqrt(30000331)) has 5984-digit coordinates,
# past the 4300 digits Python converts from int to str by default
LONG_UNIT_D = 30000331


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fund_unit_text(capsys):
    code, out, _ = run(capsys, "fund-unit", "5")
    assert code == 0
    assert "(1/2) + (1/2)*sqrt(5)" in out
    assert "0.481211825060" in out


def test_fund_unit_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "fund-unit", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["unit"] == {"d": 7, "a": "8", "b": "3"}
    assert payload["norm_sign"] == 1


def _check_long_unit(a, b):
    # the printed coordinates are the exact unit
    assert len(a) > 4300
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        a, b = Fraction(a), Fraction(b)
    finally:
        sys.set_int_max_str_digits(digits)
    unit = fundamental_unit(LONG_UNIT_D).unit
    assert (a, b) == (unit.a, unit.b)
    assert a * a - LONG_UNIT_D * b * b == 1


def test_fund_unit_text_prints_long_unit(capsys):
    # the CLI prints the exact unit and leaves the caller's limit as it was
    before = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "fund-unit", str(LONG_UNIT_D))
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == before
    head = "fundamental unit of Q(sqrt(%d)): (" % LONG_UNIT_D
    line, norm = out.splitlines()[:2]
    assert line.startswith(head) and norm == "norm: 1"
    a, b = line[len(head):].split(") + (")
    _check_long_unit(a, b[:-len(")*sqrt(%d)" % LONG_UNIT_D)])


def test_fund_unit_json_prints_long_unit(capsys):
    code, out, err = run(capsys, "--format", "json", "fund-unit",
                         str(LONG_UNIT_D))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["norm_sign"] == 1
    _check_long_unit(payload["unit"]["a"], payload["unit"]["b"])


def test_fund_unit_invalid(capsys):
    code, out, err = run(capsys, "fund-unit", "4")
    assert code == 2
    assert out == ""
    assert "squarefree" in err


def test_squarefree_budget_gives_up_in_time():
    # 10^39 + 3 has no factor below SQUAREFREE_MAX_STEPS and is far above
    # its cube: trial division gives up at the budget, and a fresh
    # interpreter exits 2 with one error line within 5 s, where the
    # unbounded loop ran for more than a minute
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "unitlat.cli", "fund-unit", str(10 ** 39 + 3)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=5)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot decide whether %d is "
                                  "squarefree" % (10 ** 39 + 3))
    assert str(quadratic.SQUAREFREE_MAX_STEPS) in proc.stderr
    assert "not squarefree" not in proc.stderr
    assert proc.stderr.count("\n") == 1


# the continued fraction of sqrt(331) closes after 34 steps; the cyclic
# and verify-paper paths first need sqrt(5) and sqrt(2), which close in one
GIVE_UP_STEPS = {"fund-unit 331": 20, "klein 2 331": 20,
                 "cyclic Q(zeta15)+": 0, "verify-paper": 0}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", list(GIVE_UP_STEPS))
def test_unit_search_give_up_is_invalid_input(capsys, monkeypatch, fmt,
                                              command):
    steps = GIVE_UP_STEPS[command]
    monkeypatch.setattr(quadratic, "CF_MAX_STEPS", steps)
    quadratic._fundamental_unit.cache_clear()
    try:
        code, out, err = run(capsys, "--format", fmt, *command.split())
    finally:
        quadratic._fundamental_unit.cache_clear()
    assert (code, out) == (2, "")
    assert err.startswith("error: continued fraction of sqrt(")
    assert err.endswith(" did not close within %d steps\n" % steps)
    assert err.count("\n") == 1


def test_cli_imports_no_argparse():
    # the command line is read from cli's own table: a fresh interpreter
    # that runs klein, cyclic and verify-paper has imported none of
    # argparse, gettext or the locale module gettext loads on first use
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys; from unitlat import cli; "
             "codes = [cli.main(a.split()) for a in sys.argv[1:]]; "
             "sys.stderr.write(repr((codes, sorted({'argparse', 'gettext', "
             "'locale'} & set(sys.modules)))))")
    proc = subprocess.run(
        [sys.executable, "-c", probe, "--format json klein 2 5",
         "cyclic Q(zeta15)+", "--scan-limit 10 verify-paper"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.stderr == "([0, 0, 0], [])"


HELP = """\
usage: unitlat [OPTION ...] COMMAND [OPERAND ...]

options, before the command (--flag VALUE, --flag=VALUE or a unique prefix):
  --precision BITS    working precision in bits
  --coeff-bound N     cyclic box half-width
  --scan-limit D      largest d of a field scan
  --catalog PATH      cyclic-field catalog JSON
  --format FORMAT     text or json (scan: csv or json)
  -h, --help          print this help, after COMMAND its own

commands:
  fund-unit d         fundamental unit of Q(sqrt(d))
  klein d1 d2         unit structure and minimal 1-norm of Q(sqrt(d1), sqrt(d2))
  cyclic label        check a cyclic catalog entry and enumerate its minimum
  scan                table of all Klein fields up to the scan limit
  verify-paper        run every reproduction check
"""
KLEIN_HELP = """\
usage: unitlat [OPTION ...] klein d1 d2

options, before the command (--flag VALUE, --flag=VALUE or a unique prefix):
  --precision BITS    working precision in bits
  --coeff-bound N     cyclic box half-width
  --scan-limit D      largest d of a field scan
  --catalog PATH      cyclic-field catalog JSON
  --format FORMAT     text or json (scan: csv or json)
  -h, --help          print this help, after COMMAND its own

commands:
  klein d1 d2         unit structure and minimal 1-norm of Q(sqrt(d1), sqrt(d2))
"""


@pytest.mark.parametrize("argv", ["--help", "-h", "--precision 80 --he",
                                  "klein --help", "klein 2 -h",
                                  "--format csv klein --hel"])
def test_help_text(capsys, monkeypatch, argv):
    # help is built from cli's tables, the same on every Python version,
    # and read before the environment: a bad UNITLAT_* value does not stop it
    monkeypatch.setenv("UNITLAT_PRECISION", "lots")
    text = KLEIN_HELP if "klein" in argv else HELP
    assert run(capsys, *argv.split()) == (0, text, "")


@pytest.mark.parametrize("argv, err", [
    ("", "expected a command, one of fund-unit, klein, cyclic, scan, "
         "verify-paper"),
    ("--c 5 klein 2 5",
     "ambiguous option: --c could match --coeff-bound, --catalog"),
    ("--precision", "--precision takes a value"),
    ("--precision abc klein 2 5", "--precision takes an integer, not 'abc'"),
    ("--bogus scan", "unrecognized option --bogus"),
    ("klein 2", "klein takes 2 operand(s), got 1"),
    ("klein 2 5 6", "klein takes 2 operand(s), got 3"),
    ("klein 2 x", "d2 takes an integer, not 'x'"),
    ("klein 2 --prec 5", "unrecognized option --prec"),
    ("--format xml scan", "scan takes --format csv or json, not xml"),
    ("--help=yes", "--help takes no value")])
def test_usage_error_is_one_line(capsys, argv, err):
    assert run(capsys, *argv.split()) == (2, "", "error: %s\n" % err)


def test_option_forms(capsys):
    # --flag VALUE, --flag=VALUE and unique prefixes read the same
    _, out, _ = run(capsys, "--format", "json", "klein", "2", "5")
    for argv in (["--format=json", "klein", "2", "5"],
                 ["--f", "json", "klein", "2", "5"],
                 ["--form=json", "--prec=128", "klein", "2", "5"]):
        assert run(capsys, *argv) == (0, out, "")


# an argv grammar for cli.parse against tests/oracles.py::argparse_parser:
# each global option in full, by a unique prefix and as the ambiguous
# --c, with its value separate or after "="; values of each kind; each
# command with too few, exactly and too many operands; options and stray
# tokens anywhere.  Left out: -h, --help and their prefixes (argparse
# acts on them where it meets them, tested above), "--", and a second
# --format (argparse checks each value it reads against json, csv and
# text; cli checks the one it keeps against the command's formats)
FLAGS = ["--precision", "--prec", "--coeff-bound", "--coe", "--scan-limit",
         "--s", "--catalog", "--cat", "--format", "--f", "--c"]
VALUES = ["7", "64", "-3", "0", "-1.5", "abc", "", "xml", "json", "csv",
          "text", "a b", "-x y", "-", "-x", "klein", "Q(zeta15)+"]
# options with values they take, twice as likely as any flag with any value
VALID = st.sampled_from([
    ("--precision", "80"), ("--prec", "-3"), ("--coeff-bound", "1"),
    ("--coe", "20"), ("--scan-limit", "7"), ("--s", "0"),
    ("--catalog", "klein"), ("--cat", "a b"), ("--cat", ""),
    ("--format", "json"), ("--f", "text"), ("--form", "csv")])
OPTION = st.tuples(st.one_of(
    VALID, VALID, st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES))),
    st.booleans()).map(lambda o: ["=".join(o[0])] if o[1] else list(o[0]))
STRAY = st.sampled_from(VALUES + FLAGS + ["--bogus", "scan"]).map(
    lambda tok: [tok])
OPERAND = st.one_of(st.sampled_from(["7", "-3", "200"]),
                    st.sampled_from(VALUES))


@st.composite
def argvs(draw):
    argv = sum(draw(st.lists(OPTION, max_size=3)), [])
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", None]))
    if command is not None:
        n = len(cli.COMMANDS[command][1]) if command in cli.COMMANDS else 1
        argv += [command] + draw(st.lists(OPERAND, min_size=max(n - 1, 0),
                                          max_size=n + 1))
    extras = st.lists(st.one_of(OPTION, STRAY), min_size=1, max_size=2)
    for extra in draw(st.one_of(st.just([]), st.just([]), extras)):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = extra
    assume(sum(tok.partition("=")[0] in ("--format", "--form", "--f")
               for tok in argv) < 2)
    return argv


def argparse_reading(argv):
    """What the earlier command line made of argv: argparse's namespace
    with main's --format default and check, or None for a usage error."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = oracles.argparse_parser().parse_args(argv)
        except SystemExit:
            return None
    formats = cli.COMMANDS[args.command][2]
    args.format = args.format or formats[0]
    return vars(args) if args.format in formats else None


@settings(max_examples=1000, deadline=None)
@given(argvs())
@example(["cyclic", "--c=a b"])  # ambiguous to argparse's first reading
@example(["cyclic", "--cat=a b"])  # an operand to the command's reading
@example(["--catalog", "--prec", "scan"])  # an option where a value goes
@example(["--catalog", "-", "cyclic", "-"])  # "-" alone is a value
def test_parse_agrees_with_argparse(argv):
    try:
        reading = vars(cli.parse(argv))
    except cli.CliError as exc:
        assert exc.code == 2
        reading = None
    assert reading == argparse_reading(argv)
    if reading is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("fmt, command", [
    ("csv", "fund-unit 5"), ("csv", "klein 2 5"), ("csv", "cyclic Q(zeta15)+"),
    ("csv", "verify-paper"), ("text", "scan")])
def test_format_mismatch_is_invalid_input(capsys, fmt, command):
    code, out, err = run(capsys, "--format", fmt, *command.split())
    name = command.split()[0]
    assert (code, out) == (2, "")
    assert err == "error: %s takes --format %s, not %s\n" % (
        name, "csv or json" if name == "scan" else "text or json", fmt)


def test_klein_text_and_json(capsys):
    code, out, _ = run(capsys, "klein", "2", "5")
    assert code == 0
    assert "index over +-E: 2" in out
    assert "1.69650956948" in out
    code, out, _ = run(capsys, "--format", "json", "klein", "5", "13")
    payload = json.loads(out)
    assert payload["index_over_E"] == 2
    assert payload["min_1norm"] == "2.29973675322"
    assert payload["certified"] is True


def test_klein_invalid_pairs(capsys):
    assert run(capsys, "klein", "4", "5")[0] == 2
    assert run(capsys, "klein", "5", "5")[0] == 2


def test_cyclic_ok(capsys):
    code, out, _ = run(capsys, "cyclic", "Q(sqrt(2+sqrt2))")
    assert code == 0
    assert "parity constraint: n1+n2+n3 even" in out
    assert "6.40402796326" in out
    assert "[ok]" in out and "FAIL" not in out


def test_cyclic_unknown_label(capsys):
    code, _, err = run(capsys, "cyclic", "nope")
    assert code == 2
    assert "nope" in err


def test_cyclic_corrupted_entry(tmp_path, capsys):
    catalog = vf.load_default_catalog()
    obj = catalog[0].to_json()
    obj["u_star"] = ["1", "2", "0", "0"]  # not a unit
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([obj]))
    code, out, err = run(capsys, "--catalog", str(path),
                         "cyclic", catalog[0].label)
    assert code == 4
    assert "FAIL" in out
    assert "u_star" in err


U0_SQUARED = os.path.join(os.path.dirname(__file__), "data",
                          "cyclic_u0_squared.json")
U0_SQUARED_ERR = ("failed check: unit_group_saturated (index 4 over the "
                  "catalog's generators; primes tested: 2, 3)\n")


def test_cyclic_failed_cross_check_exits_4(capsys):
    # the unit group check (saturate) on Q(zeta15)+ with u0 replaced by
    # u0^2 (tests/data/cyclic_u0_squared.json): every Hasse relation
    # holds, but u0 and sigma(u0) are square roots of generators, so the
    # generators span index 4 in the unit group; the report keeps its
    # lines, and the minimum, now only an upper bound, and its floors
    # read violated
    code, out, err = run(capsys, "--catalog", U0_SQUARED,
                         "cyclic", "Q(zeta15)+")
    assert code == 4
    assert "FAIL" not in out
    assert "min 1-norm: 6.62465310922 at (-1, 0, 0) (certified: False)" in out
    assert "cyclic_min_gt_theorem_constant: violated" in out
    assert "q1_min_ge_8log2phi: violated" in out
    assert "relative_unit_pohst_W2W3: holds" in out
    assert err == U0_SQUARED_ERR


CONDUCTOR_17 = os.path.join(os.path.dirname(__file__), "data",
                            "cyclic_conductor17.json")


def test_cyclic_conductor_17_exits_4(capsys):
    # the Q = 2 entry oracles.populate_cyclic_entry picks on
    # x^4 + x^3 - 6x^2 - x + 1 (tests/data/cyclic_conductor17.json): every
    # Hasse relation holds, but +-g1 g2^4 g3^3 is the fifth power of
    # -1/2 + 2a + 8a^2 + (5/2)a^3, so the generators span index 5 and the
    # minimum reads violated
    code, out, err = run(capsys, "--catalog", CONDUCTOR_17,
                         "cyclic", "conductor 17")
    assert code == 4
    assert "FAIL" not in out
    assert "(certified: False)" in out
    assert "cyclic_min_gt_theorem_constant: violated" in out
    assert err == ("failed check: unit_group_saturated (index 5 over the "
                   "catalog's generators; primes tested: 2, 3, 5, 7)\n")


def test_cyclic_failed_cross_check_json_and_verify_paper(capsys):
    # the same entry in json: the same stderr line, and the bounds read
    # violated; verify-paper reads the check violated with its reason
    code, out, err = run(capsys, "--catalog", U0_SQUARED, "--format", "json",
                         "cyclic", "Q(zeta15)+")
    payload = json.loads(out)
    assert (code, err) == (4, U0_SQUARED_ERR)
    assert payload["certified"] is False
    assert all(r == "holds" for r in payload["relations"].values())
    assert [b["relation"] for b in payload["bounds"]] == [
        "violated", "holds", "violated"]
    code, out, _ = run(capsys, "--catalog", U0_SQUARED, "--scan-limit", "3",
                       "--format", "json", "verify-paper")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert checks["unit_group_saturated"]["relation"] == "violated"
    assert checks["unit_group_saturated"]["details"]["index"] == 4
    assert checks["cyclic_min_1norm"]["details"]["reason"] == (
        "the generators span index 4 in the unit group")


def test_cyclic_violated_bound_exits_1(capsys, monkeypatch):
    # cyclic_min at W = (2.366, 0.0423, 1.045) instead of the entry's W:
    # at coefficient bound 1 its minimum is not certified, so it and the
    # floors read off it are violated
    real = vf.cyclic_min
    monkeypatch.setattr(vf, "cyclic_min", lambda w1, w2, w3, q, bound: real(
        mpmath.mpf("2.366"), mpmath.mpf("0.0423"), mpmath.mpf("1.045"),
        q, bound))
    code, out, err = run(capsys, "--coeff-bound", "1",
                         "cyclic", "Q(sqrt(2+sqrt2))")
    assert code == 1
    assert "cyclic_min_gt_theorem_constant: violated" in out
    assert "q2_min_ge_2sqrt6_log2phi: violated" in out
    assert err == ""


def test_cyclic_catalog_failure_precedes_violation(tmp_path, capsys,
                                                   monkeypatch):
    # generators that do not span the unit group (exit 4) outrank a
    # minimum below the theorem constant (exit 1)
    monkeypatch.setattr(vf, "cyclic_min", lambda *args: (
        mpmath.mpf("0.5"), (0, 0, 1), True))
    code, out, err = run(capsys, "--catalog", U0_SQUARED,
                         "cyclic", "Q(zeta15)+")
    assert code == 4
    assert "cyclic_min_gt_theorem_constant: violated" in out
    assert err == U0_SQUARED_ERR


def test_klein_violated_bound_exits_1(capsys, monkeypatch):
    # the theorem constant raised above Q(sqrt2, sqrt5)'s minimum
    real = vf.constants
    monkeypatch.setattr(vf, "constants", lambda bits: {
        **real(bits), "theorem_lower": mpmath.mpf(100)})
    for argv in (("klein", "2", "5"), ("--format", "json", "klein", "2", "5")):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "min_gt_theorem_constant" in out and "violated" in out
        assert err == ""


def _catalog_with(tmp_path, changes):
    obj = vf.load_default_catalog()[0].to_json()
    obj.update(changes)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([obj]))
    return str(path), obj["label"]


# catalog entries that are catalog errors, not violated checks; the
# non-cyclic x^4 - 10x^2 + 1 is totally real but biquadratic
BAD_ENTRIES = {
    "reducible": {"defining_polynomial": [4, 0, -4, 0, 1]},
    "non-cyclic": {"defining_polynomial": [1, 0, -10, 0, 1]},
    "non-monic": {"defining_polynomial": [2, 0, -4, 0, 2]},
    "non-integer": {"defining_polynomial": [2.5, 0, -4, 0, 1]},
    "d-not-squarefree": {"quad_subfield_d": 4},
    "d-string": {"quad_subfield_d": "2"},
}


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
def test_cyclic_bad_catalog_entry(tmp_path, capsys, bad):
    path, label = _catalog_with(tmp_path, BAD_ENTRIES[bad])
    code, out, err = run(capsys, "--catalog", path, "cyclic", label)
    assert code == 4
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
def test_verify_paper_bad_catalog_polynomial(tmp_path, capsys, bad):
    path, _ = _catalog_with(tmp_path, BAD_ENTRIES[bad])
    code, out, err = run(capsys, "--catalog", path, "--scan-limit", "3",
                         "verify-paper")
    assert code == 4
    assert out == ""
    assert err.startswith("error:")


# x^4 - 10x^2 + 1 (V4) and x^4 - x^3 - 3x^2 + x + 1 (D4, disc 725)
NOT_CYCLIC_CATALOG = os.path.join(os.path.dirname(__file__), "data",
                                  "not_cyclic_catalog.json")


@pytest.mark.parametrize("label, group", [("Q(sqrt2+sqrt3)", "V4"),
                                          ("disc725", "D4")])
def test_cyclic_not_c4_names_the_group(capsys, label, group):
    # the Galois group, decided in integers before any sigma search, is a
    # catalog error that names the group
    code, out, err = run(capsys, "--catalog", NOT_CYCLIC_CATALOG, "cyclic",
                         label)
    assert (code, out) == (4, "")
    assert err == ("error: defining polynomial has Galois group %s, not C4: "
                   "the field is not cyclic\n" % group)


def test_failed_sigma_search_is_not_read_as_not_cyclic(capsys, monkeypatch):
    # a C4 field whose 4-cycle search finds no sigma exits 2, a search
    # that gave up, never the catalog error "not cyclic"
    monkeypatch.setattr(quartic, "FOUR_CYCLES", ())
    code, out, err = run(capsys, "cyclic", "Q(zeta15)+")
    assert (code, out) == (2, "")
    assert err.startswith("error: no 4-cycle of the roots gave an order-4 "
                          "automorphism of the C4 field")
    assert err.count("\n") == 1 and "not cyclic" not in err


@pytest.mark.parametrize("command", [["cyclic", "Q(sqrt(2+sqrt2))"],
                                     ["cyclic", "Q(zeta20)+"],
                                     ["cyclic", "Q(zeta15)+"],
                                     ["verify-paper"]],
                         ids=" ".join)
def test_traces_off_by_one_exit_2(capsys, monkeypatch, command):
    # with every rounded trace t_j off by one, each 4-cycle's candidate is
    # rejected: the search gives up (exit 2), it never yields a wrong sigma
    nearest = quartic.nearest_integer
    monkeypatch.setattr(quartic, "nearest_integer", lambda t: nearest(t) + 1)
    code, out, err = run(capsys, "--scan-limit", "3", *command)
    assert (code, out) == (2, "")
    assert err.startswith("error: no 4-cycle of the roots gave an order-4 "
                          "automorphism of the C4 field")
    assert err.count("\n") == 1


# catalog files that cannot be loaded: invalid input, as Q_index 3 is,
# not a traceback; each maps the first shipped entry to the file's JSON
MALFORMED_CATALOGS = {
    "u0-number": lambda obj: [dict(obj, u0=5)],
    "u0-two-coordinates": lambda obj: [dict(obj, u0=["1", "2"])],
    "u0-zero-denominator": lambda obj: [dict(obj, u0=["1/0", "0", "0", "0"])],
    "Q_index-float": lambda obj: [dict(obj, Q_index=2.0)],
    "object-not-list": lambda obj: obj,
}


@pytest.mark.parametrize("command", ["cyclic", "verify-paper"])
@pytest.mark.parametrize("bad", sorted(MALFORMED_CATALOGS))
def test_malformed_catalog_is_invalid_input(tmp_path, capsys, bad, command):
    obj = vf.load_default_catalog()[0].to_json()
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(MALFORMED_CATALOGS[bad](obj)))
    argv = ["--catalog", str(path), "--scan-limit", "3", command]
    if command == "cyclic":
        argv.append(obj["label"])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot load catalog: ")


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "--scan-limit", "6", "scan")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [tuple(r) for r in csv.reader(io.StringIO(out))][0] == (
        "d1", "d2", "d3", "index", "min_1norm", "certified",
        "bound_8X3", "theorem_margin")
    assert [(int(r["d1"]), int(r["d2"])) for r in rows] == [
        (2, 3), (2, 5), (2, 6), (3, 5), (3, 6), (5, 6)]
    for r in rows:
        assert r["certified"] == "True"
        assert float(r["theorem_margin"]) > 0


def test_klein_minimum_certified_at_coeff_bound_1(capsys):
    # the Klein minimum sits exactly on the Gram eigenvalue bound (the rows
    # are orthogonal), so a box certificate at --coeff-bound 1 read it as
    # uncertified; the closed form is certified at every coefficient bound
    code, out, _ = run(capsys, "--coeff-bound", "1", "--scan-limit", "10",
                       "scan")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(list(vf.scan_pairs(10)))
    assert all(r["certified"] == "True" for r in rows)
    code, out, _ = run(capsys, "--coeff-bound", "1", "--scan-limit", "10",
                       "verify-paper")
    assert code == 0
    assert "[holds] klein_scan_all_above_theorem_constant" in out
    assert "all certified: True" in out


@pytest.mark.parametrize("label", [e.label for e in vf.load_default_catalog()])
def test_cyclic_minimum_certified_at_coeff_bound_1(capsys, label):
    # f(n) >= 2*(1 + sqrt(2))*|W1|*r*||(n1, n2)|| and f(n) >= 4*r^2*|n3|
    # certify the shipped minima at --coeff-bound 1; the Gram eigenvalue
    # bound, sqrt(8)*|W1|*r and 2*r^2, could not
    code, out, _ = run(capsys, "--coeff-bound", "1", "--format", "json",
                       "cyclic", label)
    assert code == 0
    assert json.loads(out)["certified"] is True


def test_scan_byte_stable(capsys):
    _, out1, _ = run(capsys, "--scan-limit", "6", "scan")
    _, out2, _ = run(capsys, "--scan-limit", "6", "scan")
    assert out1 == out2


def test_scan_default_matches_pinned_csv(capsys, monkeypatch):
    # tests/data/scan_30.csv pins the default scan byte for byte;
    # regenerate it only for an intended change of output
    for name in ("PRECISION", "COEFF_BOUND", "SCAN_LIMIT"):
        monkeypatch.delenv("UNITLAT_" + name, raising=False)
    code, out, _ = run(capsys, "scan")
    assert code == 0
    path = os.path.join(os.path.dirname(__file__), "data", "scan_30.csv")
    with open(path, newline="") as fh:
        assert out == fh.read()


def test_scan_60_matches_pinned_csv(capsys, monkeypatch):
    # tests/data/scan_60.csv pins `--scan-limit 60 scan` byte for byte:
    # 630 pairs, d up to 60; regenerate it only for an intended change of
    # output
    for name in ("PRECISION", "COEFF_BOUND", "SCAN_LIMIT"):
        monkeypatch.delenv("UNITLAT_" + name, raising=False)
    code, out, _ = run(capsys, "--scan-limit", "60", "scan")
    assert code == 0
    path = os.path.join(os.path.dirname(__file__), "data", "scan_60.csv")
    with open(path, newline="") as fh:
        assert out == fh.read()


def test_scan_30_matches_pinned_json(capsys, monkeypatch):
    # tests/data/scan_30.json pins `--format json --scan-limit 30 scan`
    # byte for byte, as json.dump wrote the whole table before rows were
    # streamed; regenerate it only for an intended change of output
    for name in ("PRECISION", "COEFF_BOUND", "SCAN_LIMIT"):
        monkeypatch.delenv("UNITLAT_" + name, raising=False)
    code, out, _ = run(capsys, "--format", "json", "--scan-limit", "30",
                       "scan")
    assert code == 0
    path = os.path.join(os.path.dirname(__file__), "data", "scan_30.json")
    with open(path) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_streams_rows(capsys, monkeypatch, fmt):
    # each row reaches stdout as it is made: a scan stopped at its fourth
    # field has printed the start of the full output, with three rows
    argv = ["--format", fmt, "--scan-limit", "6", "scan"]
    full = run(capsys, *argv)[1]
    real, calls = vf.klein_field_report, []

    def stop_at_fourth(*args):
        calls.append(args)
        if len(calls) == 4:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(vf, "klein_field_report", stop_at_fourth)
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv)
    out = capsys.readouterr().out
    assert full.startswith(out)
    rows = out.count("\n2,") if fmt == "csv" else out.count('"d1"')
    assert rows == 3


def test_scan_computes_each_unit_once(capsys, monkeypatch):
    # the fundamental-unit cache has no bound: `--scan-limit 200 scan`
    # meets 4,345 distinct d, and runs the continued fraction of each
    # once (an lru_cache of 1,024 entries ran it 5,357 times)
    ds = {d for d1, d2 in vf.scan_pairs(200)
          for d in (d1, d2, d1 * d2 // math.gcd(d1, d2) ** 2)}
    assert len(ds) == 4345
    searched, real = [], quadratic._cf_unit_search
    monkeypatch.setattr(quadratic, "_cf_unit_search",
                        lambda d: searched.append(d) or real(d))
    quadratic._fundamental_unit.cache_clear()
    try:
        code, _, err = run(capsys, "--scan-limit", "200", "scan")
    finally:
        quadratic._fundamental_unit.cache_clear()
    assert (code, err) == (0, "")
    assert len(searched) == len(ds) and set(searched) == ds


def test_verify_paper_keys_units_at_its_precision(capsys, monkeypatch):
    # `--precision 300 verify-paper` runs the continued fraction 231
    # times: once for each of the 121 squarefree d <= 200 of the
    # smallest-units order, and once per fundamental_unit(d, 300) for the
    # 110 distinct d of the scan, which the Hasse check of the catalog's
    # d = 2 and 5 shares; a Hasse check keyed at the default precision
    # searches those two again (233)
    searched, real = [], quadratic._cf_unit_search
    monkeypatch.setattr(quadratic, "_cf_unit_search",
                        lambda d: searched.append(d) or real(d))
    quadratic._fundamental_unit.cache_clear()
    try:
        code, _, err = run(capsys, "--precision", "300", "verify-paper")
    finally:
        quadratic._fundamental_unit.cache_clear()
    assert (code, err) == (0, "")
    assert len(searched) == 231


@pytest.mark.parametrize("label, pinned", [
    ("Q(sqrt(2+sqrt2))", "cyclic_sqrt_2_plus_sqrt2.json"),
    ("Q(zeta20)+", "cyclic_zeta20_plus.json"),
    ("Q(zeta15)+", "cyclic_zeta15_plus.json"),
])
def test_cyclic_json_matches_pinned(capsys, monkeypatch, label, pinned):
    # tests/data/cyclic_*.json pin `--format json cyclic LABEL` for the
    # shipped entries byte for byte; regenerate them only for an intended
    # change of output
    for name in ("PRECISION", "COEFF_BOUND", "SCAN_LIMIT"):
        monkeypatch.delenv("UNITLAT_" + name, raising=False)
    code, out, _ = run(capsys, "--format", "json", "cyclic", label)
    assert code == 0
    with open(os.path.join(os.path.dirname(__file__), "data", pinned),
              newline="") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("d1, d2", [(2, 5), (2, 29), (2, 3), (5, 34),
                                    (6, 10)])
def test_klein_json_matches_pinned(capsys, monkeypatch, d1, d2):
    # tests/data/klein_D1_D2.json pin `--format json klein D1 D2` byte for
    # byte: all-norm -1 roots at (2, 5) and (2, 29), index 4 at (2, 3),
    # index 1 at (5, 34), gcd(d1, d2) > 1 at (6, 10); regenerate them only
    # for an intended change of output
    for name in ("PRECISION", "COEFF_BOUND", "SCAN_LIMIT"):
        monkeypatch.delenv("UNITLAT_" + name, raising=False)
    code, out, _ = run(capsys, "--format", "json", "klein", str(d1), str(d2))
    assert code == 0
    path = os.path.join(os.path.dirname(__file__), "data",
                        "klein_%d_%d.json" % (d1, d2))
    with open(path, newline="") as fh:
        assert out == fh.read()


def test_klein_json_matches_pinned_digest(capsys, monkeypatch):
    # tests/data/klein_60.sha256 pins the SHA-256 of the concatenated
    # `--format json klein D1 D2` outputs over all 630 pairs D1 < D2 of
    # squarefree integers up to 60, 36 of them with a norm -1 root among
    # their generators; regenerate it only for an intended change of output
    for name in ("PRECISION", "COEFF_BOUND", "SCAN_LIMIT"):
        monkeypatch.delenv("UNITLAT_" + name, raising=False)
    ds = [d for d in range(2, 61) if quadratic.is_squarefree(d)]
    digest = hashlib.sha256()
    for d1, d2 in itertools.combinations(ds, 2):
        code, out, _ = run(capsys, "--format", "json", "klein", str(d1),
                           str(d2))
        assert code == 0
        digest.update(out.encode())
    path = os.path.join(os.path.dirname(__file__), "data", "klein_60.sha256")
    with open(path) as fh:
        assert digest.hexdigest() == fh.read().strip()


def _perfbench(monkeypatch, name):
    """A module of perfbench, the benchmark beside the tests."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__),
                                             os.pardir, "perfbench"))
    return importlib.import_module(name)


@pytest.mark.parametrize("precision", ["64", "128", "300"])
def test_klein_pool_matches_pinned_digests(capsys, monkeypatch, precision):
    # tests/data/klein_pool.sha256 pins the SHA-256 of the concatenated
    # `klein D1 D2` outputs, json and text, over the 864 pairs of
    # perfbench's pinned klein-random pool; the 12 printed digits are the
    # same at each precision.  Regenerate it only for an intended change
    # of output
    for name in ("PRECISION", "COEFF_BOUND", "SCAN_LIMIT"):
        monkeypatch.delenv("UNITLAT_" + name, raising=False)
    pool = [pair for cell in _perfbench(monkeypatch, "workloads").klein_pool()
            for pair in cell]
    assert len(pool) == 864
    path = os.path.join(os.path.dirname(__file__), "data", "klein_pool.sha256")
    with open(path) as fh:
        pinned = dict(line.split() for line in fh)
    for fmt in ("json", "text"):
        digest = hashlib.sha256()
        for d1, d2 in pool:
            code, out, err = run(capsys, "--precision", precision, "--format",
                                 fmt, "klein", str(d1), str(d2))
            assert (code, err) == (0, "")
            digest.update(out.encode())
        assert digest.hexdigest() == pinned[fmt], fmt


@functools.lru_cache(maxsize=None)
def _klein_json_out(d1, d2):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--format", "json", "klein", str(d1), str(d2)]) == 0
    return out.getvalue()


NONZERO_PATTERNS = [e for e in itertools.product((0, 1), repeat=3) if any(e)]
# no pattern, one, the norm -1 witness (u1*u2*u3 with all norms -1), three
KLEIN_JSON_PAIRS = [(2, 85), (2, 15), (2, 5), (2, 3)]


@settings(max_examples=200, deadline=None)
@given(pair=st.sampled_from(KLEIN_JSON_PAIRS),
       patterns=st.none() | st.lists(st.sampled_from(NONZERO_PATTERNS),
                                     unique=True),
       text=st.none() | st.text(), number=st.none() | st.integers())
@example(pair=(2, 85), patterns=None, text=None, number=None)
@example(pair=(2, 15), patterns=None, text=None, number=None)
@example(pair=(2, 5), patterns=None, text=None, number=None)
@example(pair=(2, 3), patterns=None, text=None, number=None)
@example(pair=(2, 3), patterns=NONZERO_PATTERNS, text=None, number=None)
@example(pair=(2, 5), patterns=[], text='"\\\u00e9\n\U0001f600', number=-7)
def test_klein_json_template_equals_json_dumps(pair, patterns, text, number):
    # klein_json fills one template with what json.dumps(payload, indent=2)
    # prints: on the printed payloads of real fields, and on those payloads
    # with any set of patterns (all seven: index 8), any string and any int
    out = _klein_json_out(*pair)
    payload = json.loads(out)
    assert cli.klein_json(payload) == out
    if patterns is not None:
        payload["sqrt_patterns"] = [list(p) for p in patterns]
        payload["index_over_E"] = 2 ** us._f2_basis(patterns)[0]
    if text is not None:
        payload["subfield_units"][1] = payload["generators"][2] = text
        payload["min_1norm"] = payload["bounds"][0]["name"] = text
    if number is not None:
        payload["d3"] = payload["argmin"][0] = number
    assert cli.klein_json(payload) == json.dumps(payload, indent=2) + "\n"


def test_scan_divides_only_its_operands(capsys, monkeypatch):
    # d3 = d1*d2/s^2 is squarefree by construction (units.subfield_units):
    # `--scan-limit 200 scan` runs trial division on no d above 200, where
    # each d3 was checked twice
    divided, real = [], quadratic.is_squarefree
    counted = functools.lru_cache(maxsize=None)(
        lambda d: divided.append(d) or real.__wrapped__(d))
    for name, module in list(sys.modules.items()):
        if (name.startswith("unitlat")
                and getattr(module, "is_squarefree", None) is real):
            monkeypatch.setattr(module, "is_squarefree", counted)
    quadratic._fundamental_unit.cache_clear()
    try:
        code, _, err = run(capsys, "--scan-limit", "200", "scan")
    finally:
        quadratic._fundamental_unit.cache_clear()
    assert (code, err) == (0, "")
    assert sorted(divided) == list(range(2, 201))


def test_klein_path_takes_only_the_logs_it_reads(capsys, monkeypatch):
    # a Klein report reads W1 and W2 alone, and a unit's log is taken when
    # read: verify-paper at its defaults takes 40 unit logs and the 144
    # seed-0 klein-random ops 237, where every unit's log taken made 107
    # and 373
    for name in ("PRECISION", "COEFF_BOUND", "SCAN_LIMIT"):
        monkeypatch.delenv("UNITLAT_" + name, raising=False)
    logs = []
    monkeypatch.setattr(quadratic, "mpmath", types.SimpleNamespace(
        log=lambda x: logs.append(x) or mpmath.log(x), mpf=mpmath.mpf,
        sqrt=mpmath.sqrt))
    pairs = _perfbench(monkeypatch, "workloads").klein_pairs(0)
    counts = []
    for argvs in ([["verify-paper"]],
                  [["--format", "json", "klein", str(d1), str(d2)]
                   for d1, d2 in pairs]):
        quadratic._fundamental_unit.cache_clear()
        del logs[:]
        try:
            assert [run(capsys, *argv)[0] for argv in argvs] == [0] * len(argvs)
        finally:
            quadratic._fundamental_unit.cache_clear()
        counts.append(len(logs))
    assert len(pairs) == 144
    assert counts == [40, 237]


def _verify_paper_10(capsys, monkeypatch, fmt):
    for name in ("PRECISION", "COEFF_BOUND", "SCAN_LIMIT"):
        monkeypatch.delenv("UNITLAT_" + name, raising=False)
    code, out, _ = run(capsys, "--scan-limit", "10", "--format", fmt,
                       "verify-paper")
    assert code == 0
    return out


def test_verify_paper_matches_pinned_json(capsys, monkeypatch):
    # tests/data/verify_paper_10.json pins `--scan-limit 10 --format json
    # verify-paper` byte for byte; regenerate it only for an intended
    # change of output
    out = _verify_paper_10(capsys, monkeypatch, "json")
    path = os.path.join(os.path.dirname(__file__), "data",
                        "verify_paper_10.json")
    with open(path, newline="") as fh:
        assert out == fh.read()


def test_verify_paper_matches_pinned_text(capsys, monkeypatch):
    # tests/data/verify_paper_10.txt pins the text form of the same run
    out = _verify_paper_10(capsys, monkeypatch, "text")
    path = os.path.join(os.path.dirname(__file__), "data",
                        "verify_paper_10.txt")
    with open(path, newline="") as fh:
        assert out == fh.read()


def test_scan_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("UNITLAT_SCAN_LIMIT", "6")
    _, out, _ = run(capsys, "scan")
    assert len(out.splitlines()) == 7  # header + 6 rows
    _, out, _ = run(capsys, "--scan-limit", "5", "scan")
    assert len(out.splitlines()) == 4  # pairs of {2, 3, 5}


def test_bad_env_value(capsys, monkeypatch):
    monkeypatch.setenv("UNITLAT_PRECISION", "lots")
    assert run(capsys, "fund-unit", "5")[0] == 2


def test_config_validation(capsys, monkeypatch):
    assert run(capsys, "--precision", "32", "fund-unit", "5")[0] == 2
    assert run(capsys, "--coeff-bound", "0", "klein", "2", "5")[0] == 2
    # below 3 the scan has no pair, and an empty scan must not pass
    assert run(capsys, "--scan-limit", "2", "verify-paper")[0] == 2
    code, out, err = run(capsys, "--scan-limit", "-3", "scan")
    assert (code, out) == (2, "")
    assert err == "error: --scan-limit must be >= 3\n"
    monkeypatch.setenv("UNITLAT_SCAN_LIMIT", "2")
    assert run(capsys, "verify-paper")[0] == 2
    assert run(capsys, "--scan-limit", "3", "scan")[0] == 0


def test_verify_paper_exit_codes(capsys, monkeypatch):
    monkeypatch.setattr(vf, "verify_paper",
                        lambda **kw: {"ok": True, "violations": [],
                                      "checks": [], "scan": []})
    assert run(capsys, "verify-paper")[0] == 0
    monkeypatch.setattr(vf, "verify_paper",
                        lambda **kw: {"ok": False, "violations": ["x"],
                                      "checks": [], "scan": []})
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1
    assert "VIOLATIONS: x" in out


def test_verify_paper_json_shape(capsys, monkeypatch):
    monkeypatch.setattr(
        vf, "verify_paper",
        lambda **kw: {"ok": True, "violations": [], "scan": [],
                      "checks": [{"name": "c", "relation": "holds"}]})
    code, out, _ = run(capsys, "--format", "json", "verify-paper")
    assert code == 0
    assert json.loads(out)["checks"][0]["name"] == "c"


@pytest.mark.parametrize("argv", [("--format", "json", "klein", "2", "5"),
                                  ("cyclic", "Q(zeta15)+"),
                                  ("verify-paper",)])
def test_cli_runs_without_numpy(capsys, argv):
    # the library imports no numpy: with its import blocked, a fresh
    # interpreter exits 0 and prints what the same command prints here
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    blocked = ("import sys; sys.modules['numpy'] = None; "
               "from unitlat import cli; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", blocked, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, err)
    assert code == 0
