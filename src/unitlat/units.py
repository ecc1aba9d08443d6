"""Unit-group structure: Klein generator sets via square-class tests, and
cyclic-quartic catalog entries validated through Hasse's exact relations.

Klein case: the square classes of O_L^* over the subfield-unit group E are
determined by which products u1^e1 u2^e2 u3^e3 are squares in L, decided
by integer square roots on the units' doubled coordinates (2a, 2b); the
F2-rank of the found patterns gives the index [O_L^*: +-E].  The square
roots are products of integer numerators over one denominator.

Cyclic case: full unit-group computation is out of scope, so entries carry
claimed generators (relative unit u0, optional u_star) which are verified
exactly against Hasse's relations plus a regulator cross-check against a
brute-force-found sublattice.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .precision import DEFAULT_PRECISION, mpf_ctx
from .quadratic import (QuadElem, fundamental_unit, is_squarefree,
                        quad_mul, quad_norm, surd_sign, unit_key)
from . import quartic as qt
from .biquadratic import BiquadField
from .loglattice import log_sigma, orbit_log

class CatalogValidationError(ValueError):
    """A cyclic catalog entry is malformed, or failed an exact Hasse
    relation or the regulator cross-check."""


# ---------------------------------------------------------------------------
# Klein case


def subfield_units(d1, d2, precision_bits=DEFAULT_PRECISION):
    """Fundamental units of the three quadratic subfields of Q(sqrt(d1),
    sqrt(d2)), sorted ascending by real value (exact, unit_key).

    Returns (units, logs, fixers, norm_signs): logs[i] is the regulator
    log(units[i]) at precision_bits; fixers[i] is the Galois element
    fixing the subfield of units[i]; norm_signs[i] is its norm, +-1.
    """
    field = BiquadField(d1, d2)
    ranked = sorted(((fixer, fundamental_unit(d, precision_bits))
                     for d, fixer in ((field.d1, "s1"), (field.d2, "s2"),
                                      (field.d3, "s3"))),
                    key=lambda entry: unit_key(entry[1]))
    return (tuple(res.unit for _, res in ranked),
            tuple(res.log_value for _, res in ranked),
            tuple(fixer for fixer, _ in ranked),
            tuple(res.norm_sign for _, res in ranked))


@dataclass(frozen=True)
class KleinUnitStructure:
    """The square classes of a Klein field as integer and log data; the
    square roots and generators are built on request (klein_pattern_root,
    klein_generators)."""

    field: BiquadField
    units: tuple           # (u1, u2, u3) sorted ascending, QuadElems
    logs: tuple            # (W1, W2, W3), W_i = log(u_i) = LOG(u_i)[id]
    fixers: tuple          # Galois element fixing the subfield of each unit
    sqrt_patterns: tuple   # exponent triples e with sqrt(u1^e1 u2^e2 u3^e3) in O_L^*
    witnesses: dict        # pattern -> (k, r) or (eps, nu, t): how it was decided
    basis: tuple           # _f2_basis pairs (pattern, slot): roots among the generators
    index_over_E: int


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


def _doubled(u):
    """(2a, 2b) of a unit u = a + b*sqrt(d), both integers: 2a is its
    trace, and 2b*sqrt(d) = u - u' is an algebraic integer, so (2b)^2*d
    is an integer with d squarefree."""
    return (2 * u.a.numerator // u.a.denominator,
            2 * u.b.numerator // u.b.denominator)


def _norm_minus_one_witness(field, units):
    """(eps, nu, t) with T(eps, nu) = t^2 > 0, deciding that P = u1*u2*u3
    is a square in L, or None, for sorted subfield units
    u = a + b*sqrt(d) > 1 of norm -1.

    Base i = 0, the smallest unit, j and k the others; K = Q(sqrt(d_i)),
    tau the element of Gal(L/K), Pi = b1*b2*b3*d1*d2/s = prod b*sqrt(d)
    (sqrt(d1)*sqrt(d2) = s*sqrt(d3)).  P is a square iff one of the four
    rationals T(eps, nu) = a_i*(a_j*a_k + eps) + Pi + nu*(a_j - eps*a_k),
    eps, nu in {1, -1}, is a positive rational square t^2.

    tau sends u_j, u_k to -1/u_j, -1/u_k.  If x^2 = P, then
    N_{L/K}(x)^2 = N_{L/K}(P) = u_i^2, so x*tau(x) = eps*u_i, and
    g = (x + tau(x))/2 in K has g^2 = (P + tau(P) + 2*eps*u_i)/4 = z,
    z = u_i*w/2, w = (a_j*a_k + eps) + Pi/(b_i*d_i)*sqrt(d_i).  Since
    b^2*d = a^2 + 1, N(w) = -(a_j - eps*a_k)^2, so N(g) = nu' with
    nu' = nu*(a_j - eps*a_k)/2, and (Tr g)^2 = Tr z + 2*nu' = T(eps, nu).
    The base is the smallest unit, and the three smallest norm -1 units
    are (1+sqrt5)/2, 1+sqrt2 and (3+sqrt13)/2 (a = 1/2, 1, 3/2), so
    a_j*a_k >= 3/2 and a_j*a_k + eps > 0.  Then w has positive
    coordinates, so w != 0 (hence nu' != 0), and z has a positive
    sqrt(d_i) coordinate, so z is not rational and Tr g != 0.
    Conversely, if T = t^2 > 0, g = (z + nu')/t squares to z (z^2 =
    Tr(z)*z - nu'^2), and x = (P + eps*u_i)/(2g) squares to P, because
    (P + eps*u_i)^2 = 2*u_i*w*P (_norm_minus_one_root builds it).

    The test runs on integers: with (alpha, beta) = (2a, 2b) (_doubled)
    and d1*d2/s = s*d3, 8*T = M = alpha_i*(alpha_j*alpha_k + 4*eps)
    + beta_1*beta_2*beta_3*s*d3 + 4*nu*(alpha_j - eps*alpha_k), and
    T = 2M/16 is a positive rational square iff M > 0 and 2M = tau^2
    for an integer tau; then t = tau/4.
    """
    (ai, bi), (aj, bj), (ak, bk) = map(_doubled, units)
    pi8 = bi * bj * bk * field.s * field.d3
    for eps, nu in itertools.product((1, -1), repeat=2):
        m = ai * (aj * ak + 4 * eps) + pi8 + 4 * nu * (aj - eps * ak)
        tau = math.isqrt(2 * m) if m > 0 else 0
        if tau and tau * tau == 2 * m:
            return eps, nu, Fraction(tau, 4)
    return None


def _norm_minus_one_root(field, units, eps, nu, t):
    """Integer coordinates X and denominator D > 0 of the square root
    x = X/D of P = u1*u2*u3, positive at the id-embedding, from the
    witness (eps, nu, t) of _norm_minus_one_witness.  With
    N(z + nu') = nu'*t^2, x = (P + eps*u_i) * (z + nu')'/(2*nu'*t), (.)'
    the conjugate of K; P + eps*u_i > 0 at the id-embedding, so the K
    factor gives the sign.

    On the doubled units U = 2u = alpha + beta*sqrt(d) (_doubled):
    P + eps*u_i = (U1*U2*U3 + 4*eps*U_i)/8; z = U_i*W/16 with
    W = (alpha_j*alpha_k + 4*eps) + beta_j*beta_k*c*sqrt(d_i), where
    c = s*d3/d_i is d2/s, d1/s or s; nu' = n/4 with
    n = nu*(alpha_j - eps*alpha_k); t = tau/4.  So, with Z = U_i*W, the
    K factor is ((Z_a + 4n) - Z_b*sqrt(d_i))/(2*n*tau).
    """
    doubled = [_doubled(u) for u in units]
    (ai, bi), (aj, bj), (ak, bk) = doubled
    di = units[0].d
    tau = 4 * t.numerator // t.denominator
    n = nu * (aj - eps * ak)
    wa, wb = aj * ak + 4 * eps, bj * bk * (field.s * field.d3 // di)
    za, zb = ai * wa + di * bi * wb, ai * wb + bi * wa
    fa, fb, den = za + 4 * n, -zb, 2 * n * tau
    if den < 0:
        fa, fb, den = -fa, -fb, -den
    if surd_sign(fa, fb, di) < 0:
        fa, fb = -fa, -fb
    lifts = [field.lift_coords(u.d, a, b) for u, (a, b) in zip(units, doubled)]
    table = field.table
    prod = qt.mul_coords(qt.mul_coords(lifts[0], lifts[1], table), lifts[2],
                         table)
    shifted = tuple(p + 4 * eps * c for p, c in zip(prod, lifts[0]))
    return (qt.mul_coords(shifted, field.lift_coords(di, fa, fb), table),
            8 * den)


def klein_unit_structure(d1, d2, precision_bits=DEFAULT_PRECISION):
    """Determine [O_L^*: +-E] and the square classes of the seven patterns
    u1^e1 u2^e2 u3^e3, decided with integers; no element of L is built.

    Norm rule: a square is totally positive.  s_j fixes the subfield of
    u_j > 0 and sends each other u_i to its conjugate N(u_i)/u_i, so under
    s_j the sign of the product over a pattern P is
    prod_{i in P, i != j} N(u_i).  So a pattern containing a norm -1 unit
    is not a square unless it is (1, 1, 1) with all three norms -1; that
    pattern is decided by four rational-square tests, and its witness is
    (eps, nu, t) (_norm_minus_one_witness).

    Norm +1 patterns: for a unit u > 1 of norm +1, (u + 1)^2 = u*(Tr u + 2),
    and Tr u + 2 = 2a + 2 (u = a + b*sqrt(d)) is a positive integer.  So
    prod_P u_i is a square in L iff m = prod_P (Tr u_i + 2) is, and a
    positive rational is a square in L iff m*delta is a rational square
    for some delta in {1, d1, d2, d3}.  The witness is (k, r): delta is
    basis slot k of (1, d1, d2, d3) and r = isqrt(m*delta).
    """
    field = BiquadField(d1, d2)
    units, logs, fixers, norm_signs = subfield_units(d1, d2, precision_bits)
    trace_plus_2 = [_doubled(u)[0] + 2 for u in units]
    deltas = (1, field.d1, field.d2, field.d3)  # sqrt(delta): basis slot k

    witnesses = {}
    for e in itertools.product((0, 1), repeat=3):
        if e == (0, 0, 0):
            continue
        if all(sign > 0 for ei, sign in zip(e, norm_signs) if ei):
            m = math.prod(t for ei, t in zip(e, trace_plus_2) if ei)
            for k, delta in enumerate(deltas):
                r = math.isqrt(m * delta)
                if r * r == m * delta:
                    witnesses[e] = (k, r)
                    break
        elif e == (1, 1, 1) and all(sign < 0 for sign in norm_signs):
            witness = _norm_minus_one_witness(field, units)
            if witness is not None:
                witnesses[e] = witness

    patterns = tuple(witnesses)
    rank, basis = _f2_basis(patterns)
    return KleinUnitStructure(
        field=field, units=units, logs=logs, fixers=fixers,
        sqrt_patterns=patterns, witnesses=witnesses,
        basis=tuple(basis), index_over_E=2 ** rank)


def klein_pattern_root(struct, e):
    """The square root of u1^e1 u2^e2 u3^e3 in L, positive at the
    id-embedding, for a found pattern e of struct, in closed form from its
    witness.  A square root of a unit is a unit: it is integral over O_L,
    as a root of t^2 - prod, and its norm squared is +-1.

    The root is built as integer coordinates over one denominator, and
    becomes an element once.  Norm +1 witness (k, r): the root is
    prod_P (u_i + 1) * sqrt(delta_k) / r, positive because every factor
    is (klein_unit_structure); u + 1 = ((Tr u + 2) + 2b*sqrt(d))/2, so
    its numerators are the product of the integers (Tr u_i + 2, 2b_i)
    times sqrt(delta_k), over 2^|P| * r.
    """
    field = struct.field
    witness = struct.witnesses[e]
    if len(witness) == 3:
        num, den = _norm_minus_one_root(field, struct.units, *witness)
    else:
        k, r = witness
        num = tuple(int(i == k) for i in range(4))  # sqrt(delta_k)
        for ei, u in zip(e, struct.units):
            if ei:
                two_a, two_b = _doubled(u)
                num = qt.mul_coords(
                    num, field.lift_coords(u.d, two_a + 2, two_b), field.table)
        den = 2 ** sum(e) * r
    return qt.QuarticElem(field, tuple(Fraction(c, den) for c in num))


def klein_generators(struct):
    """Three elements generating O_L^* mod +-1: the lifted subfield
    units, with the root of each F2 basis pattern in its pivot slot."""
    roots = {slot: p for p, slot in struct.basis}
    return tuple(klein_pattern_root(struct, roots[i]) if i in roots
                 else struct.field.lift_quad(u)
                 for i, u in enumerate(struct.units))


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
        if type(self.Q_index) is not int or self.Q_index not in (1, 2):
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
        """The entry of one catalog object; a value of the wrong shape or
        type, or a zero denominator, raises CatalogValidationError."""
        try:
            return cls(
                label=obj["label"],
                coeffs=tuple(obj["defining_polynomial"]),
                quad_subfield_d=obj["quad_subfield_d"],
                u_l=QuadElem.from_json(obj["u_l"]),
                u0=_coords(obj, "u0"),
                u_star=None if obj.get("u_star") is None
                else _coords(obj, "u_star"),
                Q_index=obj["Q_index"],
            )
        except (TypeError, ArithmeticError) as exc:
            raise CatalogValidationError("entry %r is malformed: %s: %s" % (
                obj.get("label"), type(exc).__name__, exc)) from exc


def _coords(obj, key):
    """obj[key] as 4 power-basis coordinates (Fractions)."""
    raw = obj[key]
    if not isinstance(raw, list) or len(raw) != 4:
        raise CatalogValidationError(
            "%s must list 4 power-basis coordinates, got %r" % (key, raw))
    return tuple(Fraction(c) for c in raw)


@dataclass
class CyclicFieldContext:
    """A cyclic quartic field (sigma cached on it), the fundamental unit
    u_l of its quadratic subfield k = Q(sqrt(d)) with the image of
    sqrt(d), and the precision of the field's log vectors."""

    field: qt.CyclicQuarticField
    u_l: QuadElem
    sqrt_d: qt.QuarticElem    # image of sqrt(d)
    precision_bits: int

    def lift(self, x):
        """Image of x = a + b*sqrt(d) in k."""
        s0, *rest = self.sqrt_d.coords
        return qt.QuarticElem(self.field,
                              (x.a + x.b * s0,) + tuple(x.b * c for c in rest))

    @functools.cached_property
    def u_l_emb(self):
        return self.lift(self.u_l)


def cyclic_context(coeffs, quad_subfield_d, u_l,
                   precision_bits=DEFAULT_PRECISION):
    """The cyclic quartic field defined by coeffs, with sigma found, and the
    image of sqrt(quad_subfield_d) in it; entry callers pass the entry's
    coeffs, quad_subfield_d and u_l."""
    if (not isinstance(quad_subfield_d, int) or quad_subfield_d <= 1
            or not is_squarefree(quad_subfield_d)):
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
    return CyclicFieldContext(field, u_l, sqrt_d, precision_bits)


def _is_pm(x, target):
    return x == target or x == qt.qr_neg(target)


def verify_hasse_relations(entry, ctx):
    """{relation: bool}, exact, for a catalog entry in its context."""
    field = ctx.field
    sigma, s2 = field.sigma, field.sigma2
    one = field.from_rational(1)
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
    return rel


def cyclic_generators(entry, ctx, hasse):
    """The generators of O_L^* mod +-1 the entry claims, (u_l, u0,
    sigma(u0)) for Q=1 and (u_l, u0, u_star) for Q=2, and their LOGs at
    the context's precision, given the entry's Hasse relations, which must
    all hold: they proved them units, so each is evaluated at the roots
    once and not re-proved; LOG(sigma(u0)) is read off LOG(u0).
    Returns (gens, logs)."""
    if not all(hasse.values()):
        raise CatalogValidationError("entry failed relations: %s" % ", ".join(
            name for name, ok in hasse.items() if not ok))
    field, prec = ctx.field, ctx.precision_bits
    u0 = qt.QuarticElem(field, entry.u0)
    if entry.Q_index == 1:
        gens = (ctx.u_l_emb, u0, field.sigma(u0))
    else:
        gens = (ctx.u_l_emb, u0, qt.QuarticElem(field, entry.u_star))
    logs = [orbit_log(field, qt.embed_all(x, prec), prec)
            for x in gens[:entry.Q_index + 1]]
    if entry.Q_index == 1:
        logs.append(log_sigma(logs[1]))
    return gens, tuple(logs)


# ---------------------------------------------------------------------------
# Relative unit search (desk-scale oracle used to populate catalog entries)


def search_relative_units(ctx, height_bound):
    """Enumerate power-basis integer vectors c with |c_i| <= height_bound,
    one of each pair +-c, and keep those whose relative norm is +-u_l^k,
    |k| <= 12.

    Returns (c, k) pairs, c a tuple of ints, in grid order: k = 0 marks a
    relative unit, odd k a u_star witness.  Hits +-u_l^m are kept: they
    are units too, and their even k = 2m != 0 keeps them out of populate's
    choices.  The relative-norm test (relative_norm_screen, on integers)
    proves each hit a unit: it lies in Z[alpha], inside O_L, and
    N_{L/Q} = N_{k/Q}(+-u_l^k) = +-1.  Nothing is evaluated at the roots
    beyond the float64 grid filter.
    """
    exponent = relative_norm_screen(ctx)
    hits = []
    for c in grid_candidates(ctx.field, height_bound, ctx.precision_bits):
        if any(c[1:]):
            k = exponent(c)
            if k is not None:
                hits.append((tuple(c), k))
    return hits


def _float_powers(field, precision_bits):
    """(r, r^2, r^3) in float64 for each real root r, descending."""
    return [(r, r * r, r ** 3)
            for r in (float(x) for x in field.roots(precision_bits))]


def grid_candidates(field, height_bound, precision_bits):
    """Integer vectors c, |c_i| <= height_bound, whose float64 norm
    prod c(r_i) is within 1e-4 of +-1, as lists; of each pair +-c the one
    whose first nonzero entry is negative, i.e. the c lexicographically
    below 0, in lexicographic order: (c0, c1) below (0, 0) with every
    (c2, c3), then (0, 0) with the pairs[:half] below it."""
    powers = _float_powers(field, precision_bits)
    pairs = list(itertools.product(range(-height_bound, height_bound + 1),
                                   repeat=2))
    half = len(pairs) // 2
    table = [(c2, c3) + tuple(c2 * r2 + c3 * r3 for _, r2, r3 in powers)
             for c2, c3 in pairs]
    found = []
    for (c0, c1), rest in zip(pairs, [table] * half + [table[:half]]):
        b0, b1, b2, b3 = [c0 + c1 * r for r, _, _ in powers]
        found += [[c0, c1, c2, c3] for c2, c3, u0, u1, u2, u3 in rest
                  if 1 - 1e-4 < abs((b0 + u0) * (b1 + u1) * (b2 + u2)
                                    * (b3 + u3)) < 1 + 1e-4]
    return found


def relative_norm_screen(ctx):
    """The exact relative-norm test of the search, on integers: a function
    of an integer power-basis vector c returning k with
    N_{L/l}(c) = c * sigma^2(c) = +-u_l^k, |k| <= 12, or None.

    sigma^2 is an integer matrix over its common denominator D, so
    D * c * sigma^2(c) reduced mod f is an integer vector, looked up in
    the table of the integral +-D * u_l^k; a non-integral one equals no
    such product.  u_l has infinite order, so the 50 elements +-u_l^k are
    distinct.  The table is built on integers: with u_l = (A + B sqrt(d))/Q
    and sqrt(d) = (S_0 + S_1 alpha + S_2 alpha^2 + S_3 alpha^3)/T, each
    power u_l^k = (A_k + B_k sqrt(d))/Q^k is a running product of integer
    triples, u_l^-1 = N(u_l) conj(u_l), and D u_l^k has the numerators
    D (A_k T + B_k S_0), D B_k S_1, D B_k S_2, D B_k S_3 over T Q^k.
    """
    field, ul = ctx.field, ctx.u_l
    den, s2_rows = field.sigma2.integer_matrix()
    t = math.lcm(*(v.denominator for v in ctx.sqrt_d.coords))
    s0, *s_rest = (int(v * t) for v in ctx.sqrt_d.coords)
    n = quad_norm(ul)
    table = {}
    for a, b, sign in ((ul.a, ul.b, 1), (n * ul.a, -n * ul.b, -1)):
        q = math.lcm(a.denominator, b.denominator)
        a, b = int(a * q), int(b * q)
        pa, pb, pq = 1, 0, t
        for k in range(13):
            coords = (den * (pa * t + pb * s0),) + tuple(den * pb * v
                                                         for v in s_rest)
            if all(v % pq == 0 for v in coords):
                key = tuple(v // pq for v in coords)
                table[key] = table[tuple(-v for v in key)] = sign * k
            pa, pb, pq = pa * a + ul.d * pb * b, pa * b + pb * a, pq * q

    def exponent(c):
        s2c = [sum(m * v for m, v in zip(row, c)) for row in s2_rows]
        return table.get(qt.mul_coords(c, s2c, field.table))
    return exponent


def u_l_powers(ctx):
    """(k, image of u_l^k) for |k| <= 12, k = 0 twice: the powers are
    running products in Q(sqrt(d)), with u_l^-1 = N(u_l) * conj(u_l), and
    each is lifted once."""
    ul = ctx.u_l
    n = quad_norm(ul)
    powers = []
    for step, sign in ((ul, 1), (QuadElem(ul.d, n * ul.a, -n * ul.b), -1)):
        p = QuadElem(ul.d, 1, 0)
        for k in range(13):
            powers.append((sign * k, ctx.lift(p)))
            p = quad_mul(p, step)
    return powers


def hit_sort_key(lv):
    """Sort key of a search hit: sum |LOG| rounded to float64.  A Galois
    conjugate permutes the LOG coordinates, so the sums of conjugates
    agree to the working precision and their rounded keys tie: coords
    decide the order among them, not rounding noise."""
    with mpf_ctx(lv.precision_bits):
        return float(sum((abs(v) for v in lv.coords), mpmath.mpf(0)))


def order_hits(ctx, hits):
    """The search hits as (element, k, LOG) triples in populate's order:
    each hit is evaluated at the roots once, at the context's precision,
    and the hits are sorted by hit_sort_key, ties by coords."""
    field, prec = ctx.field, ctx.precision_bits
    keyed = []
    for c, k in hits:
        elem = qt.QuarticElem(field, c)
        lv = orbit_log(field, qt.embed_all(elem, prec), prec)
        keyed.append(((hit_sort_key(lv), c), (elem, k, lv)))
    keyed.sort(key=lambda t: t[0])
    return [hit for _, hit in keyed]


def populate_cyclic_entry(coeffs, quad_subfield_d, label, height_bound=6):
    """Build a catalog entry by brute-force search, then verify it: Q = 2
    from the first u_star witness (odd k), else Q = 1 from the first
    relative unit (k = 0), first in order_hits' order.
    CatalogValidationError unless the entry passes its Hasse relations and
    the regulator cross-check on the same hits."""
    ul = fundamental_unit(quad_subfield_d).unit
    ctx = cyclic_context(coeffs, quad_subfield_d, ul)
    hits = search_relative_units(ctx, height_bound)
    ordered = order_hits(ctx, hits)
    star_hit = next(((e, k) for e, k, _ in ordered if k % 2 != 0), None)
    if star_hit is not None:
        star, k = star_hit
        # |k| <= 11, so the exponent lies in the table's range [-12, 12]
        star = qt.qr_mul(star, dict(u_l_powers(ctx))[-(k - 1) // 2])
        if qt.embed_all(star, ctx.precision_bits)[0] < 0:
            star = qt.qr_neg(star)
        u0 = qt.qr_mul(star, ctx.field.sigma(star))
        q2 = {"u_star": star.coords, "Q_index": 2}
    else:
        u0 = next((e for e, k, _ in ordered if k == 0), None)
        if u0 is None:
            raise CatalogValidationError(
                "no relative units found at height %d" % height_bound)
        q2 = {}
    entry = CyclicCatalogEntry(
        label=label, coeffs=tuple(coeffs), quad_subfield_d=quad_subfield_d,
        u_l=ul, u0=u0.coords, **q2)
    gens, gen_logs = cyclic_generators(entry, ctx,
                                       verify_hasse_relations(entry, ctx))
    ok, index = regulator_cross_check(gens, gen_logs, [c for c, _ in hits])
    if not ok:
        raise CatalogValidationError(
            "populated entry fails the regulator cross-check at height %d "
            "(sublattice index %s)" % (height_bound, index))
    return entry


def regulator_cross_check(gens, gen_logs, hits):
    """Prove every search hit an integer combination of the generators
    (cyclic_generators: their elements and LOGs) and compare the lattice
    the hits span with theirs.  hits are power-basis coordinate vectors of
    units.  Each hit's row n is proposed in float64 (propose_rows) and
    proved exactly (row_prover): hit = +-prod g_i^n_i.  The check fails,
    with index None, when a row fails that proof; otherwise the rows must
    have rank 3, so no hits fail, and a plausible integer index <= 4.
    Returns (ok, index).

    Only the proof accepts a row: a wrong proposal can fail a true
    combination, never pass a false one.
    """
    if not hits:
        return False, None
    rows = propose_rows(gens[0].field, gen_logs, hits)
    proves = row_prover(gens)
    if rows is None or not all(proves(c, n) for c, n in zip(hits, rows)):
        return False, None
    idx = _integer_lattice_index(rows)
    return (idx is not None and 1 <= idx <= 4), idx


def propose_rows(field, gen_logs, hits):
    """The nearest integer rows n with LOG(hit) = sum n_i LOG(g_i), in
    float64, or None if a LOG is not finite.  LOG(hit) is log|c(r)| at
    the roots in sigma-orbit order (root_orbit), mapped by the
    least-squares pseudo-inverse (G^T G)^-1 G^T of the generators' LOGs
    G, formed once per call: (G^T G)^-1 = adj(m)/det(m) for the Gram
    matrix m, the rows of adj(m) being cross products of rows of m."""
    g = [[float(v) for v in lv.coords] for lv in gen_logs]
    m = [[sum(x * y for x, y in zip(a, b)) for b in g] for a in g]
    adj = [[a[k - 2] * b[k - 1] - a[k - 1] * b[k - 2] for k in range(3)]
           for a, b in ((m[1], m[2]), (m[2], m[0]), (m[0], m[1]))]
    det = sum(x * y for x, y in zip(m[0], adj[0]))
    pinv = [[sum(x * y for x, y in zip(row, col)) / det for col in zip(*g)]
            for row in adj]
    roots = _float_powers(field, gen_logs[0].precision_bits)
    orbit = [roots[p] for p in field.root_orbit]
    logs = ([math.log(abs(c0 + c1 * r + c2 * r2 + c3 * r3))
             for r, r2, r3 in orbit] for c0, c1, c2, c3 in hits)
    try:  # log(0) and round(nan) raise ValueError, round(inf) OverflowError
        return [[round(p0 * l0 + p1 * l1 + p2 * l2 + p3 * l3)
                 for p0, p1, p2, p3 in pinv] for l0, l1, l2, l3 in logs]
    except (ValueError, OverflowError):
        return None


def row_prover(gens):
    """A function of a coordinate vector c and an integer row n telling,
    exactly, whether c = +-prod g_i^n_i.

    Each g_i is G_i/D, G_i integer coordinates over the generators' common
    denominator D.  With P and N the sums of the positive and of the
    negated negative n_i, c = +-prod g_i^n_i iff
    D^P * c * prod_{n_i<0} G_i^|n_i| = +-D^N * prod_{n_i>0} G_i^n_i,
    all in Z[alpha] but c.  The powers G_i^m are cached, so each row costs
    a few products of integers.
    """
    table = gens[0].field.table
    den = math.lcm(*(v.denominator for g in gens for v in g.coords))
    numers = [tuple(int(v * den) for v in g.coords) for g in gens]
    powers = {}

    def power(i, m):
        if (i, m) not in powers:
            powers[i, m] = (numers[i] if m == 1 else
                            qt.mul_coords(power(i, m - 1), numers[i], table))
        return powers[i, m]

    def proves(c, n):
        lhs, rhs = c, (1, 0, 0, 0)
        scale_lhs = scale_rhs = 1
        for i, m in enumerate(n):
            if m < 0:
                lhs = qt.mul_coords(lhs, power(i, -m), table)
                scale_rhs *= den ** -m
            elif m > 0:
                rhs = qt.mul_coords(rhs, power(i, m), table)
                scale_lhs *= den ** m
        lhs = [scale_lhs * v for v in lhs]
        rhs = [scale_rhs * v for v in rhs]
        return lhs == rhs or lhs == [-v for v in rhs]
    return proves


def _integer_lattice_index(rows):
    """Index in Z^3 of the lattice spanned by integer rows (None if rank < 3),
    via an incremental Hermite normal form over Z."""
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
