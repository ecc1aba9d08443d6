"""Unit-group structure: Klein generator sets via square-class tests, and
cyclic-quartic catalog entries validated through Hasse's exact relations.

Klein case: the square classes of O_L^* over the subfield-unit group E are
determined by which products u1^e1 u2^e2 u3^e3 are squares in L, decided
by integer square roots on the units' doubled coordinates (2a, 2b); the
F2-rank of the found patterns gives the index [O_L^*: +-E].  The square
roots are products of integer numerators over one denominator.

Cyclic case: entries carry claimed generators (relative unit u0, optional
u_star), verified exactly against Hasse's relations and then proven to
span the unit group, or shown not to, by saturation: p-th roots of their
products for every prime up to an index bound from the regulator
(saturate), sieved by exact characters mod split primes and checked
exactly.

The characters.  Let f be the monic defining polynomial, q a prime with
q = 1 mod 2p, q prime to disc f, and rho a root of f mod q.  Since
disc f = [O_L : Z[alpha]]^2 disc L, q is prime to the index, which
kills O_L / Z[alpha]: every x in O_L has power-basis coordinates with
denominators prime to q.  On those coordinates, x -> x(rho) mod q is
the composite Z_(q)[X]/(f) -> F_q[X]/(f) -> F_q, X -> rho, of ring maps
(f(rho) = 0 mod q), so it is a ring map on O_L; a unit maps to F_q^*.
So chi(x) = dlog_zeta x(rho)^((q-1)/p), zeta a primitive p-th root of
unity mod q, is a homomorphism O_L^* -> F_p that vanishes on p-th
powers, and on -1, since 2p divides q - 1.  A unit x with
x^p = +-prod g_k^e_k then has sum e_k chi(g_k) = 0: a class e outside
the kernel of the rows (chi(g_1), chi(g_2), chi(g_3)) has no p-th root,
exactly.  The generators' own denominators are kept prime to q too.
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .precision import DEFAULT_PRECISION, mpf_ctx
from .quadratic import (QuadElem, UnitSearchError, _fundamental_unit,
                        fundamental_unit, is_squarefree, surd_sign, unit_key)
from . import quartic as qt
from .biquadratic import BiquadField
from .loglattice import LogVector, log_phi, log_sigma, orbit_log

class CatalogValidationError(ValueError):
    """A cyclic catalog entry is malformed, names a field that is not
    cyclic, or failed an exact Hasse relation; saturate raises it for
    dependent generators."""


# ---------------------------------------------------------------------------
# Klein case


def subfield_units(d1, d2, precision_bits=DEFAULT_PRECISION, field=None):
    """FundamentalUnitResults of the three quadratic subfields of
    Q(sqrt(d1), sqrt(d2)), sorted ascending by real value (exact,
    unit_key), and the Galois element fixing each one's subfield; field
    is BiquadField(d1, d2), when the caller has built it.  Returns
    (ranked, fixers); a log is taken only when its log_value is read.

    BiquadField has checked d1 and d2, and d3 = (d1/s)*(d2/s), s =
    gcd(d1, d2), is squarefree by construction, so no d is checked
    again: d1/s and d2/s divide squarefree numbers, so are squarefree,
    and are coprime, since a prime p dividing both and s = gcd(d1, d2)
    would give p^2 | d1; a product of coprime squarefree integers is
    squarefree.  d3 > 1, since d3 = 1 would give d1 = s = d2.
    """
    field = field or BiquadField(d1, d2)
    ds = (field.d1, field.d2, field.d3)  # fixed by s1, s2, s3
    ranked = tuple(sorted((_fundamental_unit(d, precision_bits) for d in ds),
                          key=unit_key))
    return ranked, tuple("s%d" % (ds.index(r.unit.d) + 1) for r in ranked)


@dataclass(frozen=True)
class KleinUnitStructure:
    """The square classes of a Klein field as integer data; the logs are
    taken when read, and the square roots and generators are built on
    request (klein_pattern_root, klein_generators)."""

    field: BiquadField
    ranked: tuple          # FundamentalUnitResults of (u1, u2, u3), ascending
    fixers: tuple          # Galois element fixing the subfield of each unit
    sqrt_patterns: tuple   # exponent triples e with sqrt(u1^e1 u2^e2 u3^e3) in O_L^*
    witnesses: dict        # pattern -> (k, r) or (eps, nu, t): how it was decided
    basis: tuple           # _f2_basis pairs (pattern, slot): roots among the generators
    index_over_E: int

    @property
    def units(self):
        """(u1, u2, u3) sorted ascending, QuadElems."""
        return tuple(r.unit for r in self.ranked)

    @property
    def logs(self):
        """(W1, W2, W3), W_i = log(u_i) = LOG(u_i)[id]."""
        return tuple(r.log_value for r in self.ranked)


def _f2_basis(patterns):
    """Greedy F2 Gaussian elimination; returns (rank, [(pattern, pivot)]).
    Pivots of the reduced rows are distinct, so they give a valid slot
    assignment when square roots replace generators."""
    rows, chosen = [], []  # reduced rows with their pivots
    for p in patterns:
        row = list(p)
        for b, pivot in rows:
            if row[pivot]:
                row = [x ^ y for x, y in zip(row, b)]
        if any(row):
            rows.append((row, row.index(1)))
            chosen.append((p, row.index(1)))
    return len(rows), chosen


def _doubled(u):
    """(2a, 2b) of a unit u = a + b*sqrt(d), both integers: 2a is its
    trace, and 2b*sqrt(d) = u - u' is an algebraic integer, so (2b)^2*d
    is an integer with d squarefree."""
    return (2 * u.a.numerator // u.a.denominator,
            2 * u.b.numerator // u.b.denominator)


def _norm_minus_one_witness(field, doubled):
    """(eps, nu, t) with T(eps, nu) = t^2 > 0, deciding that P = u1*u2*u3
    is a square in L, or None, for sorted subfield units
    u = a + b*sqrt(d) > 1 of norm -1, given by their (2a, 2b) (_doubled).

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
    (ai, bi), (aj, bj), (ak, bk) = doubled
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
    ranked, fixers = subfield_units(d1, d2, precision_bits, field)
    doubled = [_doubled(r.unit) for r in ranked]
    signs = tuple(r.norm_sign for r in ranked)
    # Tr u_i + 2, or 0 for norm -1: m = 0 iff P holds a norm -1 unit
    t1, t2, t3 = [alpha + 2 if sign > 0 else 0
                  for (alpha, _), sign in zip(doubled, signs)]
    deltas = (1, field.d1, field.d2, field.d3)  # sqrt(delta): basis slot k

    witnesses = {}
    for e, m in zip(itertools.product((0, 1), repeat=3),  # m = 0 at e = 0
                    (0, t3, t2, t2 * t3, t1, t1 * t3, t1 * t2, t1 * t2 * t3)):
        for k, delta in enumerate(deltas if m else ()):
            r = math.isqrt(m * delta)
            if r * r == m * delta:
                witnesses[e] = (k, r)
                break
    if signs == (-1, -1, -1):
        witness = _norm_minus_one_witness(field, doubled)
        if witness is not None:
            witnesses[1, 1, 1] = witness

    patterns = tuple(witnesses)
    rank, basis = _f2_basis(patterns)
    return KleinUnitStructure(
        field=field, ranked=ranked, fixers=fixers,
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
    sqrt(d), and the precision of the field's log vectors; u_l_emb is the
    image of u_l = a + b sqrt(d), a + b times the image of sqrt(d)."""

    field: qt.CyclicQuarticField
    u_l: QuadElem
    sqrt_d: qt.QuarticElem    # image of sqrt(d)
    precision_bits: int

    @functools.cached_property
    def u_l_emb(self):
        s0, *rest = self.sqrt_d.coords
        a, b = self.u_l.a, self.u_l.b
        return qt.QuarticElem(self.field,
                              (a + b * s0, *(b * s for s in rest)))


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
        entry.u_l == fundamental_unit(entry.quad_subfield_d,
                                      ctx.precision_bits).unit)
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
    sigma(u0)) for Q=1 and (u_l, u0, u_star) for Q=2, their values at the
    roots and their LOGs at the context's precision, given the entry's
    Hasse relations, which must all hold: they proved them units, so each
    is evaluated at the roots once and not re-proved; LOG(sigma(u0)) is
    read off LOG(u0).  Returns (gens, values, logs)."""
    if not all(hasse.values()):
        raise CatalogValidationError("entry failed relations: %s" % ", ".join(
            name for name, ok in hasse.items() if not ok))
    field, prec = ctx.field, ctx.precision_bits
    u0 = qt.QuarticElem(field, entry.u0)
    if entry.Q_index == 1:
        gens = (ctx.u_l_emb, u0, field.sigma(u0))
    else:
        gens = (ctx.u_l_emb, u0, qt.QuarticElem(field, entry.u_star))
    values = tuple(qt.embed_all(x, prec) for x in gens)
    logs = [orbit_log(field, v, prec) for v in values[:entry.Q_index + 1]]
    if entry.Q_index == 1:
        logs.append(log_sigma(logs[1]))
    return gens, values, tuple(logs)


# ---------------------------------------------------------------------------
# Saturation: the generators are the whole unit group


# saturate gives up rather than test a prime above this: the characters of
# the 78 primes up to 397 take ~0.5 s on x^4 - 82x^2 + 656, whose bound is
# 399, and a prime's places cost O(q) each, q = 1 mod 2p
SATURATION_MAX_PRIME = 1000
# _pth_root tests the kernel classes once this many characters in a row
# leave the rank unchanged (two primes q of a cyclic field, whose four
# places above q are Galois conjugates, so their rows are not
# independent), and gives up on a prime after SATURATION_MAX_CHARACTERS
# characters
SIEVE_STALL = 8
SATURATION_MAX_CHARACTERS = 64
# saturate's result: generators proven to span O_L^* mod +-1, the index of
# the input generators' span in it, the index bound over the proven ones,
# the primes tested, the characters drawn and the candidates checked
# exactly
Saturation = collections.namedtuple(
    "Saturation", "gens index bound primes characters exact_checks")


def index_bound(logs):
    """2 sqrt(2) R' / (2 log phi)^3 >= [O_L^* : +-<g>] for units g of a
    totally real quartic field with LOGs logs and regulator R' > 0.

    Schinzel (Acta Arith. 24, 1973): a totally real algebraic integer
    x != 0, +-1 of degree n has Mahler measure >= phi^(n/2), so a unit
    x != +-1 of L has ||LOG x||_1 = 2 (4/n) log M(x) >= 4 log phi; its
    coordinates sum to 0, so ||LOG x||_2 >= ||LOG x||_1 / 2 >= 2 log phi.
    Hermite's constant gamma_3^3 = 2 bounds the covolume of the LOG
    lattice of O_L^* below by (2 log phi)^3 / sqrt(2); the generators'
    LOG lattice has covolume sqrt(4) R' = 2 R', R' the |det| of any three
    of its coordinates.  Computed at the logs' precision."""
    with mpf_ctx(logs[0].precision_bits):
        reg = abs(qt._det(tuple(lv.coords[:3] for lv in logs)))
        return 2 * mpmath.sqrt(2) * reg / (2 * log_phi()) ** 3


def saturate(field, gens, values, logs):
    """Prove that units gens of L generate O_L^* mod +-1, or find the
    p-th roots that do: a Saturation.  values and logs are the gens'
    values at the roots (quartic.embed_all) and LOGs at one precision.

    p divides [O_L^* : +-<g>] iff some unit x outside it has
    x^p = +-prod g_k^e_k (Cauchy), with e != 0 mod p (else x times
    prod g_k^(-e_k / p) is a real p-th root of +-1, so +-1); reducing e
    mod p and raising x to a power prime to p, every e of its class
    e F_p^* has a root, so one e per class, its first nonzero entry 1,
    is tested (_pth_root).  A root c for e with e_j = 1 replaces g_j:
    g_j = +-c^p prod_(k != j) g_k^(-e_k), so the new generators span the
    old with index p, and LOG c = sum e_k LOG g_k / p.  Every prime up to
    index_bound (with a margin of 2^-32 relative) is tested, a prime
    again while it has a root, and the bound is recomputed after each
    root: a prime that has none for some generators has none for any
    generators spanning them with an index prime to it.  A prime above
    SATURATION_MAX_PRIME still to test raises UnitSearchError, never
    reads as saturated."""
    gens, values, logs = list(gens), list(values), list(logs)
    prec = logs[0].precision_bits
    index, primes, stats, p = 1, [], [0, 0], 2
    bound = index_bound(logs)
    if not bound > mpmath.ldexp(1, -prec // 2):
        raise CatalogValidationError("the generators are dependent")
    with mpf_ctx(prec):
        powers = [(1, r, r * r, r * r * r) for r in field.roots(prec)]
        while p <= bound * (1 + mpmath.ldexp(1, -32)):
            if p > SATURATION_MAX_PRIME:
                raise UnitSearchError(
                    "saturation gave up: the index bound %s needs primes "
                    "above %d" % (mpmath.nstr(bound, 6), SATURATION_MAX_PRIME))
            root = _pth_root(field, gens, values, powers, p, stats)
            if root is None:
                primes.append(p)
                p = next(q for q in itertools.count(p + 1) if _is_prime(q))
                continue
            j, c, e = root
            gens[j], values[j], index = c, qt.embed_all(c, prec), index * p
            logs[j] = LogVector(tuple(
                sum(ek * lv.coords[i] for ek, lv in zip(e, logs)) / p
                for i in range(4)), "cyclic", prec)
            bound = index_bound(logs)
    return Saturation(tuple(gens), index, bound, tuple(primes), *stats)


def _is_prime(n):
    """n >= 2 is prime, by trial division."""
    return all(n % r for r in range(2, math.isqrt(n) + 1))


def _pth_root(field, gens, values, powers, p, stats):
    """(j, c, e): a unit c with c^p = +-prod g_k^e_k, e in F_p^3 \\ 0
    with first nonzero entry e_j = 1, or None when there is none; powers
    are (1, r, r^2, r^3) at the roots r, in the ambient mpf arithmetic.

    Each character chi (_characters) is a homomorphism O_L^* -> F_p that
    vanishes on -1 and on p-th powers, so chi(eta) = 0 for every eta with
    a root: the rows (chi(g_1), chi(g_2), chi(g_3)), reduced over F_p,
    leave every class with a root in their kernel.  Rank 3 proves that
    there is none.  Once SIEVE_STALL characters in a row leave the rank
    unchanged, each kernel class, in the order of its leading slot and
    then lexicographic, is tested once: c = quartic.from_embeddings of
    x_i = +-|eta_i|^(1/p) (the 8 sign patterns with x_0 > 0 at p = 2,
    the sign of eta_i for odd p) is a root iff c^p = +-eta (_is_root), so
    a wrong candidate is never accepted.  A class that fails the test is
    left to the characters, which must then bring the rank to 3: a prime
    that SATURATION_MAX_CHARACTERS characters leave below rank 3 raises
    UnitSearchError, never reads as having no root, so a root the
    candidates missed, whose class stays in the kernel, raises too."""
    rows, stall, tested = [], 0, False
    for row in itertools.islice(_characters(field, gens, p),
                                SATURATION_MAX_CHARACTERS):
        stats[0] += 1
        stall = 0 if _reduce_row(rows, row, p) else stall + 1
        if len(rows) == 3:
            return None
        if stall == SIEVE_STALL and not tested:
            tested = True
            for e in _kernel_classes(rows, p):
                for c in _candidates(field, values, powers, e, p):
                    stats[1] += 1
                    if _is_root(field, gens, c, e, p):
                        return e.index(1), c, e
    raise UnitSearchError("saturation undecided at p = %d after %d characters"
                          % (p, SATURATION_MAX_CHARACTERS))


def _places(field, den, p):
    """(q, rho): the primes q = 1 mod 2p prime to disc f and to den,
    ascending, each with the roots rho of f mod q, ascending."""
    c0, c1, c2, c3, _ = field.coeffs
    bad = qt.trace_form(field.coeffs)[2] * den
    for q in itertools.count(2 * p + 1, 2 * p):
        if bad % q and _is_prime(q):
            for rho in range(q):
                if ((((rho + c3) * rho + c2) * rho + c1) * rho + c0) % q == 0:
                    yield q, rho


def character(x, q, rho, dlog):
    """chi(x) in F_p at a place (q, rho) of _places, for x in L whose
    coordinates have denominators prime to q and x(rho) != 0 mod q: the
    k < p with x(rho)^((q-1)/p) = zeta^k mod q, where x(rho) is x's
    power-basis polynomial at rho and dlog is _dlog_table(q, p), so p is
    its size."""
    num, den = qt.integer_coords(x.coords)
    value = ((((num[3] * rho + num[2]) * rho + num[1]) * rho + num[0])
             * pow(den, -1, q) % q)
    return dlog[pow(value, (q - 1) // len(dlog), q)]


def _dlog_table(q, p):
    """{zeta^k mod q: k} for k < p, where zeta = a^((q-1)/p) for the least
    a >= 2 with zeta != 1, a primitive p-th root of unity mod q (p a
    prime dividing q - 1)."""
    m = (q - 1) // p
    zeta = next(z for z in (pow(a, m, q) for a in itertools.count(2))
                if z != 1)
    return {pow(zeta, k, q): k for k in range(p)}


def _characters(field, gens, p):
    """The rows (chi(g_1), chi(g_2), chi(g_3)) of the characters at the
    places (q, rho) of _places prime to the gens' denominators, in their
    order; zeta's dlog table is built once per prime q."""
    den = math.lcm(*(qt.integer_coords(g.coords)[1] for g in gens))
    for q, places in itertools.groupby(_places(field, den, p),
                                       key=lambda place: place[0]):
        dlog = _dlog_table(q, p)
        for _, rho in places:
            yield tuple(character(g, q, rho, dlog) for g in gens)


def _reduce_row(rows, row, p):
    """Add row to rows, (slot, row) pairs over F_p, each row 1 at its
    slot and 0 at the others' slots; True iff the rank rose."""
    for k, r in rows:
        row = [(a - row[k] * b) % p for a, b in zip(row, r)]
    k = next((i for i, v in enumerate(row) if v % p), None)
    if k is None:
        return False
    inv = pow(row[k], -1, p)
    row = [v * inv % p for v in row]
    rows[:] = [(j, [(a - r[k] * b) % p for a, b in zip(r, row)])
               for j, r in rows] + [(k, row)]
    return True


def _kernel_classes(rows, p):
    """The classes e F_p^* of e in F_p^3 \\ 0 on which every row of
    rows (_reduce_row) vanishes, each as its e with first nonzero entry
    1, ordered by that entry's slot, then lexicographically.  A slot f
    that no row leads gives the kernel vector with e_f = 1, e_k = -r_f
    at the slot k of each row r and 0 at the other free slots."""
    lead = dict(rows)
    basis = []
    for f in (f for f in range(3) if f not in lead):
        e = [0, 0, 0]
        e[f] = 1
        for k, r in lead.items():
            e[k] = -r[f] % p
        basis.append(e)
    classes = set()
    for coef in itertools.product(range(p), repeat=len(basis)):
        e = [sum(c * b[k] for c, b in zip(coef, basis)) % p for k in range(3)]
        first = next((v for v in e if v), 0)
        if first:
            inv = pow(first, -1, p)
            classes.add(tuple(v * inv % p for v in e))
    return sorted(classes, key=lambda e: (e.index(1), e))


def _candidates(field, values, powers, e, p):
    """The elements c = quartic.from_embeddings(field, x, powers) that
    _pth_root tests for a p-th root of +-eta, eta = prod g_k^e_k, in the
    ambient mpf arithmetic: x_i = +-|eta_i|^(1/p), eta_i =
    prod g_k(r_i)^e_k from the values, with x_0 > 0 and the 8 signs of
    the rest at p = 2 (+-x are both roots), the sign of eta_i for odd
    p."""
    eta = [math.prod((v[i] ** ek for v, ek in zip(values, e)), start=1)
           for i in range(4)]
    mags = [mpmath.root(abs(v), p) for v in eta]
    if p == 2:
        signs = [(1,) + s for s in itertools.product((1, -1), repeat=3)]
    else:
        signs = [tuple(1 if v > 0 else -1 for v in eta)]
    return [qt.from_embeddings(field, [s * y for s, y in zip(sign, mags)],
                               powers) for sign in signs]


def _is_root(field, gens, c, e, p):
    """c^p = +-prod g_k^e_k, exactly: with c = N / D and each g_k = G_k /
    D_k on integer coordinates, N^p prod D_k^e_k = +-D^p prod G_k^e_k."""
    table, eta, den = field.table, (1, 0, 0, 0), 1
    for g, ek in zip(gens, e):
        num, d = qt.integer_coords(g.coords)
        for _ in range(ek):
            eta, den = qt.mul_coords(eta, num, table), den * d
    num, d = qt.integer_coords(c.coords)
    power = num
    for _ in range(p - 1):
        power = qt.mul_coords(power, num, table)
    lhs, rhs = [v * den for v in power], [v * d ** p for v in eta]
    return lhs == rhs or lhs == [-v for v in rhs]
