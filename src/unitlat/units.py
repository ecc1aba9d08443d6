"""Unit-group structure: Klein generator sets via square-root tests, and
cyclic-quartic catalog entries validated through Hasse's exact relations.

Klein case: the square classes of O_L^* over the subfield-unit group E are
determined by testing which products u1^e1 u2^e2 u3^e3 are squares in L;
the F2-rank of the found patterns gives the index [O_L^*: +-E].

Cyclic case: full unit-group computation is out of scope, so entries carry
claimed generators (relative unit u0, optional u_star) which are verified
exactly against Hasse's relations plus a regulator cross-check against a
brute-force-found sublattice.
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .precision import DEFAULT_PRECISION, mpf_ctx
from .quadratic import QuadElem, fundamental_unit, is_squarefree, quad_cmp
from . import quartic as qt
from .biquadratic import BiquadField, biq_mul, sqrt_in_field
from .loglattice import log_embed_cyclic, log_sigma, orbit_log

class CatalogValidationError(ValueError):
    """A cyclic catalog entry is malformed, or failed an exact Hasse
    relation or the regulator cross-check."""


# ---------------------------------------------------------------------------
# Klein case


def subfield_units(d1, d2, precision_bits=DEFAULT_PRECISION):
    """Fundamental units of the three quadratic subfields of Q(sqrt(d1),
    sqrt(d2)), sorted ascending by real value.

    Returns (units, logs, fixers, permutation): logs[i] is the regulator
    log(units[i]) at precision_bits; fixers[i] is the Galois element
    fixing the subfield of units[i]; permutation maps sorted positions to
    the native (d1, d2, d3) order.
    """
    field = BiquadField(d1, d2)
    native = [(fundamental_unit(d, precision_bits), fixer)
              for d, fixer in ((field.d1, "s1"), (field.d2, "s2"),
                               (field.d3, "s3"))]
    order = sorted(range(3), key=functools.cmp_to_key(
        lambda i, j: quad_cmp(native[i][0].unit, native[j][0].unit)))
    units = tuple(native[i][0].unit for i in order)
    logs = tuple(native[i][0].log_value for i in order)
    fixers = tuple(native[i][1] for i in order)
    return units, logs, fixers, tuple(order)


@dataclass(frozen=True)
class KleinUnitStructure:
    field: BiquadField
    units: tuple           # (u1, u2, u3) sorted ascending, QuadElems
    logs: tuple            # (W1, W2, W3), W_i = log(u_i) = LOG(u_i)[id]
    precision_bits: int    # working precision of logs
    fixers: tuple          # Galois element fixing the subfield of each unit
    sqrt_patterns: tuple   # exponent triples e with sqrt(u1^e1 u2^e2 u3^e3) in O_L^*
    sqrt_elements: dict    # pattern -> exact square root (BiquadElem)
    index_over_E: int
    generators: tuple      # 3 BiquadElems generating O_L^* mod +-1

    def galois_order(self):
        return ("id",) + self.fixers


def _f2_basis(patterns):
    """Greedy F2 Gaussian elimination; returns (rank, [(pattern, pivot)]).

    Pivots of the reduced rows are distinct, so they give a valid slot
    assignment when square roots replace generators.
    """
    basis_rows = []
    chosen = []
    for p in patterns:
        row = list(p)
        for b in basis_rows:
            pivot = next(i for i, v in enumerate(b) if v)
            if row[pivot]:
                row = [(x + y) % 2 for x, y in zip(row, b)]
        if any(row):
            basis_rows.append(row)
            chosen.append((p, next(i for i, v in enumerate(row) if v)))
    return len(basis_rows), chosen


def klein_unit_structure(d1, d2, precision_bits=DEFAULT_PRECISION):
    """Determine [O_L^*: +-E] and a generating set by testing all seven
    square-root patterns exactly."""
    field = BiquadField(d1, d2)
    units, logs, fixers, _ = subfield_units(d1, d2, precision_bits)
    lifts = [field.lift_quad(u) for u in units]

    patterns = []
    roots = {}
    for e in itertools.product((0, 1), repeat=3):
        if e == (0, 0, 0):
            continue
        prod = field.one()
        for ei, lift in zip(e, lifts):
            if ei:
                prod = biq_mul(prod, lift)
        # a square root of a unit is a unit: it is integral over O_L, as a
        # root of t^2 - prod, and its norm squared is +-1
        root = sqrt_in_field(prod)
        if root is not None:
            patterns.append(e)
            roots[e] = root

    rank, basis_patterns = _f2_basis(patterns)
    generators = list(lifts)
    for p, slot in basis_patterns:
        generators[slot] = roots[p]

    return KleinUnitStructure(
        field=field, units=units, logs=logs, precision_bits=precision_bits,
        fixers=fixers,
        sqrt_patterns=tuple(patterns), sqrt_elements=roots,
        index_over_E=2 ** rank, generators=tuple(generators))


def klein_denominator(index_over_E):
    """Lattice denominator implied by the index: each square-root generator
    halves at most one factor of a wedge, two or more halve both."""
    return {1: 1, 2: 2, 4: 4, 8: 4}[index_over_E]


# ---------------------------------------------------------------------------
# Cyclic case


@dataclass(frozen=True)
class CyclicCatalogEntry:
    label: str
    coeffs: tuple            # defining polynomial, constant term first
    quad_subfield_d: int
    u_l: QuadElem
    u0: tuple                # power-basis coordinates (Fractions)
    u_star: tuple = None     # present iff Q_index == 2
    Q_index: int = 1

    def __post_init__(self):
        if self.Q_index not in (1, 2):
            raise CatalogValidationError("Q_index must be 1 or 2")
        if self.Q_index == 2 and self.u_star is None:
            raise CatalogValidationError("Q_index = 2 requires u_star")

    def to_json(self):
        return {
            "label": self.label,
            "defining_polynomial": list(self.coeffs),
            "quad_subfield_d": self.quad_subfield_d,
            "u_l": self.u_l.to_json(),
            "u0": [str(c) for c in self.u0],
            "u_star": None if self.u_star is None else [str(c) for c in self.u_star],
            "Q_index": self.Q_index,
        }

    @classmethod
    def from_json(cls, obj):
        star = obj.get("u_star")
        return cls(
            label=obj["label"],
            coeffs=tuple(obj["defining_polynomial"]),
            quad_subfield_d=obj["quad_subfield_d"],
            u_l=QuadElem.from_json(obj["u_l"]),
            u0=tuple(Fraction(c) for c in obj["u0"]),
            u_star=None if star is None else tuple(Fraction(c) for c in star),
            Q_index=obj["Q_index"],
        )


@dataclass
class CyclicFieldContext:
    """A cyclic quartic field (sigma cached on it), the image of u_l, and
    the precision of the field's log vectors."""

    field: qt.CyclicQuarticField
    u_l_emb: qt.QuarticElem   # image of the quadratic unit u_l
    precision_bits: int


def cyclic_context(coeffs, quad_subfield_d, u_l,
                   precision_bits=DEFAULT_PRECISION):
    """The cyclic quartic field defined by coeffs, with sigma found, and the
    image of the quadratic unit u_l in it; entry callers pass the entry's
    coeffs, quad_subfield_d and u_l."""
    if quad_subfield_d <= 1 or not is_squarefree(quad_subfield_d):
        raise CatalogValidationError(
            "quad_subfield_d must be a squarefree integer > 1, got %r"
            % (quad_subfield_d,))
    try:  # not a monic quartic, reducible, or not cyclic
        field = qt.CyclicQuarticField(tuple(coeffs))
        field.sigma
    except ValueError as exc:
        raise CatalogValidationError(str(exc)) from exc
    sqrt_d = qt.sqrt_of_rational(field, quad_subfield_d)
    if sqrt_d is None:
        raise CatalogValidationError(
            "sqrt(%d) does not lie in the field" % quad_subfield_d)
    u_l_emb = qt.qr_add(field.from_rational(u_l.a),
                        qt.QuarticElem(field, tuple(u_l.b * c for c in sqrt_d.coords)))
    return CyclicFieldContext(field, u_l_emb, precision_bits)


def _is_pm(x, target):
    return x == target or x == qt.qr_neg(target)


@dataclass
class HasseReport:
    relations: dict  # name -> bool

    @property
    def passed(self):
        return all(self.relations.values())

    def failures(self):
        return [k for k, v in self.relations.items() if not v]


def verify_hasse_relations(entry, ctx=None):
    """Exact pass/fail per Hasse relation for a catalog entry."""
    ctx = ctx or cyclic_context(entry.coeffs, entry.quad_subfield_d, entry.u_l)
    field = ctx.field
    sigma, s2 = field.sigma, field.sigma2
    one = field.one()
    u0 = qt.QuarticElem(field, entry.u0)

    rel = {}
    rel["u_l is the fundamental unit of Q(sqrt(d))"] = (
        entry.u_l == fundamental_unit(entry.quad_subfield_d).unit)
    rel["u0 is a unit"] = qt.is_unit(u0)
    rel["N_{L/l}(u0) = +-1"] = _is_pm(qt.qr_mul(u0, s2(u0)), one)
    rel["sigma^2(u0) = +-1/u0"] = rel["N_{L/l}(u0) = +-1"]
    # u0^a = +-u_l^b gives +-1 = u_l^(2b) under N_{L/l}, so b = 0 and u0 is
    # a root of unity: a relative unit other than +-1 is independent of u_l
    rel["u0 independent of u_l"] = (rel["u0 is a unit"] and not u0.is_rational()
                                    and rel["N_{L/l}(u0) = +-1"])

    if entry.Q_index == 2:
        us = qt.QuarticElem(field, entry.u_star)
        rel["u_star is a unit"] = qt.is_unit(us)
        rel["N_{L/l}(u_star) = u_star sigma^2(u_star) = +-u_l"] = _is_pm(
            qt.qr_mul(us, s2(us)), ctx.u_l_emb)
        rel["u_star sigma(u_star) = +-u0"] = _is_pm(
            qt.qr_mul(us, sigma(us)), u0)
        rel["u_star^2 = +-u_l u0 / sigma(u0)"] = _is_pm(
            qt.qr_mul(qt.qr_mul(us, us), sigma(u0)),
            qt.qr_mul(ctx.u_l_emb, u0))
    return HasseReport(rel)


def cyclic_generator_logs(entry, ctx, hasse):
    """LOG of the generators of O_L^* mod +-1, (u_l, u0, sigma(u0)) for
    Q=1 and (u_l, u0, u_star) for Q=2, at the context's precision, given
    the entry's Hasse report, which must have passed.  Each unit is
    evaluated at the roots once; LOG(sigma(u0)) is read off LOG(u0)."""
    if not hasse.passed:
        raise CatalogValidationError(
            "entry failed relations: %s" % ", ".join(hasse.failures()))
    field, prec = ctx.field, ctx.precision_bits
    lv_ul = log_embed_cyclic(ctx.u_l_emb, prec)
    lv_u0 = log_embed_cyclic(qt.QuarticElem(field, entry.u0), prec)
    if entry.Q_index == 1:
        return lv_ul, lv_u0, log_sigma(lv_u0)
    return lv_ul, lv_u0, log_embed_cyclic(
        qt.QuarticElem(field, entry.u_star), prec)


# ---------------------------------------------------------------------------
# Relative unit search (desk-scale oracle used to populate catalog entries)


def search_relative_units(ctx, height_bound):
    """Enumerate power-basis integer vectors c with |c_i| <= height_bound,
    one of each pair +-c, keep those whose relative norm is +-u_l^k,
    |k| <= 12, and return them sorted by log magnitude.

    Returns a list of (element, k, LOG) triples, LOG at the context's
    precision: k = 0 marks a relative unit, odd k a u_star witness.  Hits
    +-u_l^m are kept: they are units too, and their even k = 2m != 0
    keeps them out of populate's choices.  The relative-norm test proves
    each hit a unit: it lies in Z[alpha], inside O_L, and N_{L/Q} =
    N_{k/Q}(+-u_l^k) = +-1.  One evaluation at the roots gives the LOG and
    the sort key, sum |log| of the values rounded to float64, ties by
    coords: the order populate picks from.
    """
    field, prec = ctx.field, ctx.precision_bits
    s2 = field.sigma2
    # +-u_l^k -> k; u_l has infinite order, so these 50 elements are distinct
    ul_powers = {}
    for step, sign in ((ctx.u_l_emb, 1), (qt.qr_inv(ctx.u_l_emb), -1)):
        p = field.one()
        for k in range(13):
            ul_powers[p.coords] = ul_powers[qt.qr_neg(p).coords] = sign * k
            p = qt.qr_mul(p, step)

    vr = np.array([[float(r) ** k for k in range(4)]
                   for r in field.roots(prec)])  # 4 x 4
    h = height_bound
    rng = np.arange(-h, h + 1)
    grid = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"), axis=-1)
    coords = grid.reshape(-1, 4).astype(float)
    emb = coords @ vr.T
    norms = np.abs(emb).prod(axis=1)
    candidates = coords[np.abs(norms - 1.0) < 1e-4].astype(int)
    # of +-c keep the one the grid reaches first: first nonzero entry < 0
    first = candidates[np.arange(len(candidates)),
                       np.argmax(candidates != 0, axis=1)]
    candidates = candidates[first < 0]

    found = []
    for c in candidates:
        elem = qt.QuarticElem(field, tuple(Fraction(int(v)) for v in c))
        if elem.is_rational():
            continue
        k = ul_powers.get(qt.qr_mul(elem, s2(elem)).coords)
        if k is None:
            continue
        emb = qt.embed_all(elem, prec)
        key = float(sum(abs(mpmath.log(abs(float(v)))) for v in emb))
        lv = orbit_log(field, emb, prec)
        found.append(((key, elem.coords), (elem, k, lv)))
    found.sort(key=lambda t: t[0])
    return [hit for _, hit in found]


def populate_cyclic_entry(coeffs, quad_subfield_d, label, height_bound=6):
    """Build a catalog entry by brute-force search, then verify it: Q = 2
    from the first u_star witness (odd k), else Q = 1 from the first
    relative unit (k = 0).  CatalogValidationError unless the entry passes
    its Hasse relations and the regulator cross-check on the same hits."""
    ul = fundamental_unit(quad_subfield_d).unit
    ctx = cyclic_context(coeffs, quad_subfield_d, ul)
    hits = search_relative_units(ctx, height_bound)
    star_hit = next(((e, k) for e, k, _ in hits if k % 2 != 0), None)
    if star_hit is not None:
        star, k = star_hit
        star = qt.qr_mul(star, qt.qr_pow(ctx.u_l_emb, -(k - 1) // 2))
        if qt.embed_all(star, ctx.precision_bits)[0] < 0:
            star = qt.qr_neg(star)
        u0 = qt.qr_mul(star, ctx.field.sigma(star))
        q2 = {"u_star": star.coords, "Q_index": 2}
    else:
        u0 = next((e for e, k, _ in hits if k == 0), None)
        if u0 is None:
            raise CatalogValidationError(
                "no relative units found at height %d" % height_bound)
        q2 = {}
    entry = CyclicCatalogEntry(
        label=label, coeffs=tuple(coeffs), quad_subfield_d=quad_subfield_d,
        u_l=ul, u0=u0.coords, **q2)
    gen_logs = cyclic_generator_logs(entry, ctx,
                                     verify_hasse_relations(entry, ctx))
    ok, index = regulator_cross_check(gen_logs, [lv for _, _, lv in hits])
    if not ok:
        raise CatalogValidationError(
            "populated entry fails the regulator cross-check at height %d "
            "(sublattice index %s)" % (height_bound, index))
    return entry


def regulator_cross_check(gen_logs, hit_logs):
    """Compare the generators' log lattice (cyclic_generator_logs) against
    the search hits' log vectors, at the same precision: every hit must be
    an integer combination of the generators (one least-squares
    pseudo-inverse), and the found sublattice must have rank 3, so no
    hits fail, and a plausible integer index <= 4.  Returns (ok, index)."""
    prec = gen_logs[0].precision_bits
    if any(lv.precision_bits != prec for lv in hit_logs):
        raise ValueError("hit log vectors are not at the generators' "
                         "precision of %d bits" % prec)
    with mpf_ctx(prec):
        gmat = mpmath.matrix([[lv.coords[i] for lv in gen_logs]
                              for i in range(4)])
        pinv = mpmath.inverse(gmat.T * gmat) * gmat.T
        coeff_rows = []
        for lv in hit_logs:
            sol = pinv * mpmath.matrix(list(lv.coords))
            row = [mpmath.nint(v) for v in sol]
            if any(abs(v - r) > mpmath.mpf(2) ** (-32) for v, r in zip(sol, row)):
                return False, None
            coeff_rows.append([int(r) for r in row])
        idx = _integer_lattice_index(coeff_rows)
        return (idx is not None and 1 <= idx <= 4), idx


def _integer_lattice_index(rows):
    """Index in Z^3 of the lattice spanned by integer rows (None if rank < 3),
    via an incremental Hermite normal form over Z."""
    import math

    basis = {}  # pivot column -> echelon row

    def insert(row):
        row = list(row)
        while any(row):
            piv = next(j for j, v in enumerate(row) if v)
            if piv not in basis:
                if row[piv] < 0:
                    row = [-v for v in row]
                basis[piv] = row
                return
            b = basis[piv]
            g = math.gcd(b[piv], row[piv])
            x, y = _ext_gcd(b[piv], row[piv])
            newb = [x * bb + y * rr for bb, rr in zip(b, row)]
            newrow = [(b[piv] // g) * rr - (row[piv] // g) * bb
                      for bb, rr in zip(b, row)]
            basis[piv] = newb
            row = newrow

    for r in rows:
        insert(r)
    if len(basis) < 3:
        return None
    det = 1
    for piv in basis:
        det *= abs(basis[piv][piv])
    return det


def _ext_gcd(a, b):
    """(x, y) with x*a + y*b = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_x, old_y = -old_x, -old_y
    return old_x, old_y
