"""Independent brute-force oracles used to cross-check library results.

Deliberately naive: plain Python loops and integer arithmetic, sharing no
code with the library's closed forms or float64 enumeration.
squarefree_by_trial_division tests every i^2 up to d, where the library
divides out each i up to the cube root and reads the cofactor.
cf_unit_search_by_norm finds a fundamental unit by the full norm of
every convergent, where the library reads the complete quotient's
denominator; surd_cmp and quad_cmp compare surds exactly by squaring,
the reference for the library's (trace, -norm) order of units.  char_poly
runs Faddeev-LeVerrier on the matrix of multiplication, built by the
library's one product `qr_mul`, which the ring axiom and table tests
check, where the library takes power sums of traces; it uses no tower
integrality test, norm or Galois action.  sigma_loop_log applies the
exact sigma and evaluates at root 0 only, sharing nothing with the root
orbit.  sampled_constrained_min restates the cyclic-case minimization
problems in floats and samples a grid, knowing nothing of their
candidate points.  klein_e_wedge builds the E-wedge lattice of a Klein
field from `klein_wedge_rows`, which the wedge tests pin to `wedge2` of
real log vectors, so `brute_min_one_norm` can check the report's
closed-form minimum.  klein_patterns_tower decides all seven Klein
square classes by the exact tower square root sqrt_in_field (built on
quad_sqrt), knowing nothing of the library's criteria on traces and
coordinates, and tower_witness reads the library's witness of each class
off its root.  fraction_route_root and fraction_route_generators keep
the earlier Fraction route of the Klein square roots, every step an
element, where the library multiplies integer numerators (`mul_coords`)
over one denominator.  Five cyclic oracles keep the earlier direct
forms: trial_division_irreducible finds integer roots and quadratic
factors from the divisors of the constant term, with no roots computed;
polyroots_real_roots solves f over C with mpmath.polyroots, where the
library brackets the real roots in integers (Sturm) and refines each by
Newton's method;
galois_generator_all_perms reconstructs sigma from every root
permutation moving root 0, not only 4-cycles, by one Vandermonde solve
each and rational reconstruction, tests each candidate root of f by
Horner's rule (eval_poly_at) and its order on FractionAutomorphism, the
Fraction power table of the image of alpha, where the library solves the
trace matrix exactly, compares char_poly with f and keeps sigma as one
integer matrix; fraction_norm_exponent tests a relative norm in Fraction
arithmetic through qr_mul and the exact sigma^2; and the sigma tower
(qr_is_algebraic_integer, qr_norm_to_Q, qr_is_unit) decides integrality
and the norm through k = Q(sqrt(d)), where the library reads the
characteristic polynomial.  unit_half_box keeps the units of a box of
power-basis vectors by power_basis_norm, the integer determinant of
multiplication by c, with no root, float or Galois action.

cauchy_root_brackets isolates the real roots from the earlier Cauchy
interval (-2^e, 2^e], 2^e > max |c_i|, where the library starts from
Fujiwara's bound.

regulator_cross_check is the earlier unit-group check of the cyclic
catalog: it proves each unit found by the height-REGULATOR_HEIGHT box
search an integer combination of the generators (a float64 row from the
LOGs, propose_rows, proved exactly, row_prover) and reads the index of
the hits' lattice in the generators' (_integer_lattice_index, a Hermite
normal form), where the library proves the generators saturated by
p-th roots of their products (units.saturate).

The Klein embedding chain is the reference LOG of a biquadratic
element: the Galois action (galois_apply), the Galois-product norm
(biq_norm_to_Q), tower integrality over K = Q(sqrt(d1))
(is_algebraic_integer, is_unit), the four real embeddings (embed_real)
and log_embed_klein.  The library needs none of it: its Klein lattices
are built from the subfield regulators W_i, and verify-paper's wedge
fixture embeds each unit in its own Q(sqrt(d_i)).

The rest is package-style code that only tests call: the maximal-order
test and real embedding of a quadratic element (is_quad_integer,
quad_embed: the Fraction forms of fundamental_unit's integer checks and
log), products, inverses and powers (quad_mul, quad_inv, biq_inv,
qr_inv, qr_pow), the cyclic LOG of one unit (log_embed_cyclic, the
library's orbit_log after a unit test) and the Pohst floor check on one
unit (pohst_check).
"""

import itertools
import math
from fractions import Fraction
from math import isqrt, log, sqrt

import mpmath

from unitlat.biquadratic import BiquadField
from unitlat.loglattice import LogVector, klein_wedge_rows, orbit_log
from unitlat.precision import DEFAULT_PRECISION, mpf_ctx
from unitlat.quadratic import (CF_MAX_STEPS, QuadElem, _rational_sqrt,
                               is_squarefree, quad_norm, surd_sign)
from unitlat.quartic import (QuarticElem, _sign_at, _sturm, embed_all,
                             mul_coords, qr_add, qr_mul, qr_neg)
from unitlat.units import (KleinUnitStructure, _f2_basis, klein_denominator,
                           subfield_units)
from unitlat.verifier import DERIVED_TOL, BoundReport, constants

SQUAREFREE_1000 = [d for d in range(2, 1001) if is_squarefree(d)]


def squarefree_by_trial_division(d):
    """True iff d >= 1 has no square factor > 1, by every i^2 <= d."""
    if d < 1:
        return False
    i = 2
    while i * i <= d:
        if d % (i * i) == 0:
            return False
        i += 1
    return True


def smaller_quad_unit_exists(d, q2_limit):
    """True if some unit > 1 of the maximal order of Q(sqrt(d)) has
    2*(sqrt coefficient) below q2_limit.

    Candidates are (p + q*sqrt(d))/2 with p^2 - d*q^2 = +-4 and the
    integrality parity rules; units > 1 are ordered by q, so scanning
    q < q2_limit is a completeness check for a claimed fundamental unit.
    """
    for q in range(1, q2_limit):
        for s in (4, -4):
            n = d * q * q + s
            if n <= 0:
                continue
            p = isqrt(n)
            if p * p != n:
                continue
            if d % 4 == 1:
                if (p - q) % 2 == 0:
                    return True
            elif p % 2 == 0 and q % 2 == 0:
                return True
    return False


def cf_unit_search_by_norm(d):
    """The first continued-fraction convergent of sqrt(d) (of (1+sqrt(d))/2
    for d = 1 mod 4) whose candidate unit has norm +-1, found by computing
    that norm in full at every step; returns (unit, norm)."""
    half_basis = d % 4 == 1
    s = isqrt(d)
    if half_basis:
        pp, qq = 1, 2  # omega = (1 + sqrt(d)) / 2
    else:
        pp, qq = 0, 1  # sqrt(d)
    h_prev, h = 0, 1  # h_{-2}, h_{-1}: convergent numerators
    k_prev, k = 1, 0
    p_cur, q_cur = pp, qq
    for _ in range(CF_MAX_STEPS):
        a = (p_cur + s) // q_cur
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        if half_basis:
            # candidate h - k*(1 - sqrt(d))/2 = (2h - k)/2 + (k/2) sqrt(d)
            norm = h * h - h * k + k * k * (1 - d) // 4
            if norm in (1, -1):
                unit = QuadElem(d, Fraction(2 * h - k, 2), Fraction(k, 2))
                return unit, norm
        else:
            norm = h * h - d * k * k
            if norm in (1, -1):
                unit = QuadElem(d, Fraction(h), Fraction(k))
                return unit, norm
        p_cur = a * q_cur - p_cur
        q_cur = (d - p_cur * p_cur) // q_cur
    raise ArithmeticError("continued fraction of sqrt(%d) did not close" % d)


def is_quad_integer(x):
    """True iff x lies in the maximal order: trace and norm both integral."""
    trace = 2 * x.a
    return trace.denominator == 1 and quad_norm(x).denominator == 1


def quad_embed(x, precision_bits=DEFAULT_PRECISION):
    """Real value of x under the positive-root embedding sqrt(d) > 0, from
    its reduced Fraction coordinates."""
    with mpf_ctx(precision_bits):
        root = mpmath.sqrt(x.d)
        return (mpmath.mpf(x.a.numerator) / x.a.denominator
                + mpmath.mpf(x.b.numerator) / x.b.denominator * root)


def surd_cmp(a, b, d, c, e, f):
    """Exact sign of (a + b*sqrt(d)) - (c + e*sqrt(f)); b, e >= 0 required."""
    a, b, c, e = Fraction(a), Fraction(b), Fraction(c), Fraction(e)
    if b < 0 or e < 0:
        raise ValueError("surd_cmp requires nonnegative radical coefficients")
    s = a - c
    lhs, rhs = b * b * d, e * e * f
    diff_sign = (lhs > rhs) - (lhs < rhs)  # sign of b*sqrt(d) - e*sqrt(f)
    if s == 0:
        return diff_sign
    if diff_sign == 0:
        return 1 if s > 0 else -1
    s_sign = 1 if s > 0 else -1
    if s_sign == diff_sign:
        return s_sign
    # |s| vs |b*sqrt(d) - e*sqrt(f)|: compare s^2 with (b^2 d + e^2 f) - 2be*sqrt(df)
    t = s * s - lhs - rhs
    u = 2 * b * e
    if t >= 0:
        mag = 1 if (t > 0 or u > 0) else 0
    else:
        uu, tt = u * u * d * f, t * t
        mag = (uu > tt) - (uu < tt)
    if mag == 0:
        return 0
    return s_sign if mag > 0 else diff_sign


def quad_cmp(x, y):
    """Exact comparison of two surds with nonnegative sqrt coefficients."""
    return surd_cmp(x.a, x.b, x.d, y.a, y.b, y.d)


def brute_norms(basis, denominator, bound, parity_even=False):
    """(1-norm, triple) for every nonzero coefficient triple with
    |n_i| <= bound, n1+n2+n3 even when parity_even.

    basis: three length-6 float rows.
    """
    for n1 in range(-bound, bound + 1):
        for n2 in range(-bound, bound + 1):
            for n3 in range(-bound, bound + 1):
                if n1 == 0 and n2 == 0 and n3 == 0:
                    continue
                if parity_even and (n1 + n2 + n3) % 2 != 0:
                    continue
                total = 0.0
                for k in range(6):
                    total += abs(n1 * basis[0][k] + n2 * basis[1][k]
                                 + n3 * basis[2][k])
                yield total / denominator, (n1, n2, n3)


def brute_min_one_norm(basis, denominator, bound, parity_even=False):
    """Minimal 1-norm over nonzero coefficient triples with |n_i| <= bound."""
    return min(t for t, _ in brute_norms(basis, denominator, bound,
                                         parity_even))


def klein_e_wedge(struct):
    """E-wedge lattice of a Klein structure built at the default 128 bits:
    the rows klein_wedge_rows(W2*W3, W1*W3, W1*W2) at that precision, W_i
    its subfield regulators, and the index-appropriate denominator."""
    w1, w2, w3 = struct.logs
    with mpf_ctx(128):
        rows = tuple(tuple(map(mpmath.mpf, row))
                     for row in klein_wedge_rows(w2 * w3, w1 * w3, w1 * w2))
    return rows, klein_denominator(struct.index_over_E)


def quad_sqrt(x):
    """Exact square root in Q(sqrt(d)), or None when x is not a square.
    If (u + v*sqrt(d))^2 = a + b*sqrt(d) then u^2 - d*v^2 = +-m with
    m^2 = N(x), so u^2 = (a +- m)/2 and v = b/(2u), or v^2 = (a -+ m)/(2d)
    when u = 0; either way the result squares to x exactly."""
    m = _rational_sqrt(quad_norm(x))
    if m is None:
        return None
    for pm in (m, -m):
        u = _rational_sqrt((x.a + pm) / 2)
        if u is None:
            continue
        v = x.b / (2 * u) if u else _rational_sqrt((x.a - pm) / (2 * x.d))
        if v is not None:
            return QuadElem(x.d, u, v)
    return None


def sqrt_in_field(a):
    """Exact square root of a biquadratic element a with positive
    id-embedding, or None when a is not a square in L, in the tower
    L = K(sqrt(d2)) over K = Q(sqrt(d1)).  As in quad_sqrt, one level up:
    if (g + h*sqrt(d2))^2 = alpha + beta*sqrt(d2) then g^2 = (alpha +- n)/2
    with n^2 = N_{L/K}(a), and h = beta/(2g), or h^2 = (alpha -+ n)/(2*d2)
    when g = 0."""
    f = a.field
    x, y, z, w = a.coords
    alpha = QuadElem(f.d1, x, y)
    beta = QuadElem(f.d1, z, w / f.s)  # sqrt(d3) = sqrt(d1)*sqrt(d2)/s
    n = quad_sqrt(_relative_norm(a))
    if n is None:
        return None
    for sign in (1, -1):
        g = quad_sqrt(QuadElem(f.d1, (alpha.a + sign * n.a) / 2,
                               (alpha.b + sign * n.b) / 2))
        if g is None:
            continue
        if g.a or g.b:
            h = quad_mul(beta, quad_inv(QuadElem(f.d1, 2 * g.a, 2 * g.b)))
        else:
            h = quad_sqrt(QuadElem(f.d1, (alpha.a - sign * n.a) / (2 * f.d2),
                                   (alpha.b - sign * n.b) / (2 * f.d2)))
            if h is None:
                continue
        cand = QuarticElem(f, (g.a, g.b, h.a, h.b * f.s))
        if qr_mul(cand, cand) == a:
            # exact sign at the id-embedding: when g and h*sqrt(d2) differ
            # in sign, the larger of g^2 and d2*h^2 wins
            sg, sh = (surd_sign(x.a, x.b, f.d1) for x in (g, h))
            if sg * sh < 0:
                g2, h2 = quad_mul(g, g), quad_mul(h, h)
                sg *= surd_sign(g2.a - f.d2 * h2.a, g2.b - f.d2 * h2.b, f.d1)
            return cand if (sg or sh) > 0 else qr_neg(cand)
    return None


def klein_patterns_tower(d1, d2):
    """The Klein unit structure with every one of the seven square-root
    patterns u1^e1 u2^e2 u3^e3 tested by the exact tower square root
    `sqrt_in_field`, each witness read off its root (tower_witness); the
    F2 step that turns patterns into generators is the library's.
    Returns (struct, roots, generators): roots maps each found pattern to
    its tower root."""
    field = BiquadField(d1, d2)
    units, logs, fixers, _ = subfield_units(d1, d2)
    lifts = [field.lift_quad(u) for u in units]
    roots = {}
    for e in itertools.product((0, 1), repeat=3):
        if e == (0, 0, 0):
            continue
        root = sqrt_in_field(_pattern_product(field, e, lifts))
        if root is not None:
            roots[e] = root
    patterns = tuple(roots)
    rank, basis = _f2_basis(patterns)
    generators = list(lifts)
    for p, slot in basis:
        generators[slot] = roots[p]
    struct = KleinUnitStructure(
        field=field, units=units, logs=logs, fixers=fixers,
        sqrt_patterns=patterns,
        witnesses={e: tower_witness(units, fixers, e, roots[e])
                   for e in patterns},
        basis=tuple(basis), index_over_E=2 ** rank)
    return struct, roots, tuple(generators)


def tower_witness(units, fixers, e, x):
    """The witness the library records for pattern e, read off a square
    root x of its product, with no square test.  Norm +1 units only:
    x = prod_e (u_i + 1) * sqrt(delta_k) / r, so x / prod_e (u_i + 1) has
    one nonzero coordinate, 1/r at slot k; a quotient of another shape
    is returned as its (slot, 1/coordinate) pairs.  Otherwise, with tau
    fixing the subfield of the smallest unit u_i: x*tau(x) = eps*u_i,
    g = (x + tau(x))/2 has N(g) = nu*(a_j - eps*a_k)/2 and t = |Tr g|."""
    field = x.field
    lifts = [field.lift_quad(u) for u in units]
    if all(quad_norm(u) > 0 for ei, u in zip(e, units) if ei):
        one = QuarticElem(field, (1, 0, 0, 0))
        shifted = _pattern_product(field, e, [qr_add(v, one) for v in lifts])
        q = qr_mul(x, biq_inv(shifted))
        nonzero = tuple((k, 1 / c) for k, c in enumerate(q.coords) if c)
        return nonzero[0] if len(nonzero) == 1 else nonzero
    _, uj, uk = units
    xt = galois_apply(fixers[0], x)
    eps = {lifts[0]: 1, qr_neg(lifts[0]): -1}.get(qr_mul(x, xt))
    if eps is None:
        return None
    g2 = qr_add(x, xt)
    norm_g = qr_mul(g2, galois_apply(fixers[1], g2)).coords[0] / 4
    return eps, norm_g / ((uj.a - eps * uk.a) / 2), abs(g2.coords[0])


def _pattern_product(field, e, elems):
    prod = QuarticElem(field, (1, 0, 0, 0))
    for ei, x in zip(e, elems):
        if ei:
            prod = qr_mul(prod, x)
    return prod


def fraction_route_root(struct, e):
    """The square root of pattern e of a Klein structure from its witness,
    every step an element with Fraction coordinates: prod_P (u_i + 1)
    times sqrt(delta_k)/r for a norm +1 witness (k, r), and
    (P + eps*u_i) times the K factor (z + nu')'/(2*nu'*t), sign-fixed,
    for a norm -1 witness (eps, nu, t), as units._norm_minus_one_witness
    derives them, with no integer numerators."""
    field, units = struct.field, struct.units
    witness = struct.witnesses[e]
    if len(witness) == 2:
        k, r = witness
        one = QuarticElem(field, (1, 0, 0, 0))
        shifted = [qr_add(field.lift_quad(u), one) for u in units]
        scale = QuarticElem(field, tuple(Fraction(int(i == k), r)
                                         for i in range(4)))
        return qr_mul(_pattern_product(field, e, shifted), scale)
    eps, nu, t = witness
    (ai, bi, di), (aj, _, _), (ak, _, _) = ((u.a, u.b, u.d) for u in units)
    pi = units[0].b * units[1].b * units[2].b * field.d1 * field.d2 / field.s
    nu1 = nu * (aj - eps * ak) / 2
    z = quad_mul(units[0], QuadElem(di, (aj * ak + eps) / 2,
                                    pi / (2 * bi * di)))
    den = 2 * nu1 * t
    factor = QuadElem(di, (z.a + nu1) / den, -z.b / den)
    if surd_sign(factor.a, factor.b, di) < 0:
        factor = QuadElem(di, -factor.a, -factor.b)
    lifts = [field.lift_quad(u) for u in units]
    shifted = qr_add(_pattern_product(field, (1, 1, 1), lifts),
                     field.lift_quad(QuadElem(di, eps * ai, eps * bi)))
    return qr_mul(shifted, field.lift_quad(factor))


def fraction_route_generators(struct):
    """The generators of a Klein structure from fraction_route_root: the
    lifted subfield units, the root of each F2 basis pattern in its pivot
    slot."""
    generators = [struct.field.lift_quad(u) for u in struct.units]
    for p, slot in struct.basis:
        generators[slot] = fraction_route_root(struct, p)
    return tuple(generators)


def float_rows(rows):
    """Float copy of three wedge rows for the brute enumerator."""
    return [[float(c) for c in row] for row in rows]


def char_poly(a):
    """Characteristic polynomial of multiplication-by-a on its field's
    basis, exact, via Faddeev-LeVerrier on the matrix whose columns are
    a*b_j.  Coefficients are monic, highest degree first; a is an
    algebraic integer iff all of them are integers, and the last one is
    the norm to Q."""
    unit = [[int(i == j) for j in range(4)] for i in range(4)]
    m = [qr_mul(a, QuarticElem(a.field, e)).coords for e in unit]
    m = [[m[j][i] for j in range(4)] for i in range(4)]  # columns -> matrix

    def mat_mul(p, q):
        return [[sum(p[i][k] * q[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]

    coeffs = [Fraction(1)]
    mk = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for k in range(1, 5):
        mk = mat_mul(m, mk)
        c = -sum(mk[i][i] for i in range(4)) / k
        coeffs.append(c)
        for i in range(4):
            mk[i][i] += c
    return coeffs


def sigma_loop_log(x, precision_bits=128):
    """LOG of a cyclic quartic unit as coordinates log|sigma^k(x)| at the
    id-embedding, k = 0..3, each image computed by the exact sigma."""
    coords = []
    with mpmath.workprec(precision_bits + 16):
        for _ in range(4):
            coords.append(mpmath.log(abs(embed_all(x, precision_bits)[0])))
            x = x.field.sigma(x)
    return coords


def sampled_constrained_min(objective, steps=60):
    """Smallest float value of a cyclic-case "elementary consideration"
    objective over a Cartesian grid of feasible points, with its point.

    Both objectives need W2, W3 >= 0 and W2^2 + W3^2 >= 2*log(phi)^2.
    "q1_expr" is 2*max(W2, W3) + W2 + W3 on (W2, W3); "q2_expr" is
    2*W1*(2*max(W2, W3) + W2 + W3) on (W1, W2, W3), which also needs
    W1 >= log(phi) and W1^2 + W2^2 + W3^2 >= 4*log(phi)^2.  W2 and W3
    take steps + 1 values in [0, 3*log(phi)], W1 as many in
    [log(phi), 3*log(phi)].
    """
    lp = log((1 + sqrt(5)) / 2)
    axis = [3 * lp * i / steps for i in range(steps + 1)]
    w1_axis = [lp + 2 * lp * i / steps for i in range(steps + 1)]
    best = (float("inf"), None)
    for w2 in axis:
        for w3 in axis:
            r2 = w2 * w2 + w3 * w3
            if r2 < 2 * lp * lp:
                continue
            shape = 2 * max(w2, w3) + w2 + w3
            if objective == "q1_expr":
                best = min(best, (shape, (w2, w3)))
                continue
            for w1 in w1_axis:
                if w1 * w1 + r2 >= 4 * lp * lp:
                    best = min(best, (2 * w1 * shape, (w1, w2, w3)))
    return best


# ---------------------------------------------------------------------------
# The Klein embedding chain: Galois action, tower integrality and the four
# real embeddings of a biquadratic element, ending in its LOG.

GALOIS_KLEIN = ("id", "s1", "s2", "s3")

# coordinate signs (on y, z, w) applied by each Galois element
_GALOIS_SIGNS = {
    "id": (1, 1, 1),
    "s1": (1, -1, -1),   # fixes sqrt(d1)
    "s2": (-1, 1, -1),   # fixes sqrt(d2)
    "s3": (-1, -1, 1),   # fixes sqrt(d3)
}


def galois_apply(g, a):
    """Apply a Klein Galois element; sign flips per the fixed subfield."""
    x, y, z, w = a.coords
    sy, sz, sw = _GALOIS_SIGNS[g]
    return QuarticElem(a.field, (x, sy * y, sz * z, sw * w))


def _relative_norm(a):
    """N_{L/K}(a) = alpha^2 - d2*beta^2, an element of K = Q(sqrt(d1))."""
    f = a.field
    x, y, z, w = a.coords
    w /= f.s
    return QuadElem(f.d1, x * x + f.d1 * y * y - f.d2 * (z * z + f.d1 * w * w),
                    2 * (x * y - f.d2 * z * w))


def is_algebraic_integer(a):
    """a lies in O_L iff its relative trace 2*alpha and norm N_{L/K}(a)
    lie in O_K, each tested by trace and norm in Z."""
    x, y, _, _ = a.coords
    return (is_quad_integer(QuadElem(a.field.d1, 2 * x, 2 * y))
            and is_quad_integer(_relative_norm(a)))


def is_unit(a):
    # N_{L/Q}(a) = N_{K/Q}(N_{L/K}(a))
    return is_algebraic_integer(a) and abs(quad_norm(_relative_norm(a))) == 1


def _coord_bits(coords):
    return max((abs(c.numerator).bit_length() + c.denominator.bit_length()
                for c in coords), default=1)


def embed_real(a, precision_bits=DEFAULT_PRECISION):
    """The four real embeddings (id, s1, s2, s3 images), sqrt always the
    positive root.

    A unit's conjugate is about 1/|a|, so cancellation spans twice the
    coefficient magnitude: the working precision gets headroom for the
    full coefficient bit-size to survive it.
    """
    f = a.field
    with mpf_ctx(precision_bits + 2 * _coord_bits(a.coords) + 16):
        roots = (mpmath.mpf(1), mpmath.sqrt(f.d1), mpmath.sqrt(f.d2),
                 mpmath.sqrt(f.d3))

        def frac(q):
            return mpmath.mpf(q.numerator) / q.denominator

        out = []
        for g in GALOIS_KLEIN:
            img = galois_apply(g, a)
            out.append(sum(frac(c) * r for c, r in zip(img.coords, roots)))
        return tuple(out)


def log_embed_klein(x, precision_bits=DEFAULT_PRECISION, order=GALOIS_KLEIN):
    """LOG of a unit of a biquadratic field; domain error on non-units.

    order lists the Galois elements occupying the four coordinates; pass
    the sorted-unit fixers to reproduce the labelling where s_i fixes the
    subfield of u_i.
    """
    if not is_unit(x):
        raise ValueError("log_embed requires a unit")
    if order[0] != "id" or sorted(order) != sorted(GALOIS_KLEIN):
        raise ValueError("order must list id first and all Galois elements")
    with mpf_ctx(precision_bits):
        native = dict(zip(GALOIS_KLEIN, embed_real(x, precision_bits)))
        return LogVector(tuple(mpmath.log(abs(native[g])) for g in order),
                         "klein", precision_bits)


def _rational(x):
    """The value of an element that lies in Q."""
    assert x.is_rational(), "must land in Q"
    return x.coords[0]


def biq_norm_to_Q(a):
    """N_{L/Q}(a) = a * s1(a) * s2(a) * s3(a), an exact rational."""
    prod = qr_mul(qr_mul(a, galois_apply("s1", a)),
                  qr_mul(galois_apply("s2", a), galois_apply("s3", a)))
    return _rational(prod)


def biq_inv(a):
    if not any(a.coords):
        raise ZeroDivisionError("zero element has no inverse")
    cofactor = qr_mul(qr_mul(galois_apply("s1", a), galois_apply("s2", a)),
                      galois_apply("s3", a))
    n = biq_norm_to_Q(a)
    return QuarticElem(a.field, tuple(c / n for c in cofactor.coords))


def quad_mul(x, y):
    if x.d != y.d:
        raise ValueError("mismatched fields: sqrt(%d) vs sqrt(%d)" % (x.d, y.d))
    return QuadElem(x.d, x.a * y.a + x.b * y.b * x.d, x.a * y.b + x.b * y.a)


def quad_inv(x):
    n = quad_norm(x)
    if n == 0:
        raise ZeroDivisionError("zero element has no inverse")
    return QuadElem(x.d, x.a / n, -x.b / n)


def qr_inv(a):
    """1/a = sigma^2(a) sigma(N_{L/k}(a)) / N_{L/Q}(a)."""
    if not any(a.coords):
        raise ZeroDivisionError("zero element has no inverse")
    sigma_n = a.field.sigma(qr_mul(a, a.field.sigma2(a)))
    cofactor = qr_mul(a.field.sigma2(a), sigma_n)
    n = _rational(qr_mul(a, cofactor))
    return QuarticElem(a.field, tuple(c / n for c in cofactor.coords))


def qr_pow(a, k):
    """a^k; a negative k inverts through sigma, on cyclic fields."""
    if k < 0:
        return qr_pow(qr_inv(a), -k)
    r = QuarticElem(a.field, (1, 0, 0, 0))
    base = a
    while k:
        if k & 1:
            r = qr_mul(r, base)
        base = qr_mul(base, base)
        k >>= 1
    return r


def _k_trace_norm(y):
    """(Tr_{k/Q}(y), N_{k/Q}(y)) of y in k, the fixed field of sigma^2, as
    rationals: sigma restricts to the non-trivial automorphism of k."""
    z = y.field.sigma(y)
    return _rational(qr_add(y, z)), _rational(qr_mul(y, z))


def qr_is_algebraic_integer(a):
    """The sigma tower L > k > Q of a cyclic field: a lies in O_L iff its
    relative trace a + sigma^2(a) and norm N_{L/k}(a) = a*sigma^2(a) lie in
    O_k, each tested by its trace and norm in Z."""
    conj = a.field.sigma2(a)
    return all(v.denominator == 1
               for y in (qr_add(a, conj), qr_mul(a, conj))
               for v in _k_trace_norm(y))


def qr_norm_to_Q(a):
    """N_{L/Q}(a) = N_{k/Q}(N_{L/k}(a)) in the sigma tower."""
    return _k_trace_norm(qr_mul(a, a.field.sigma2(a)))[1]


def qr_is_unit(a):
    return qr_is_algebraic_integer(a) and abs(qr_norm_to_Q(a)) == 1


def log_embed_cyclic(x, precision_bits=DEFAULT_PRECISION):
    """LOG of a unit of a cyclic quartic field; domain error on non-units."""
    if not qr_is_unit(x):
        raise ValueError("log_embed requires a unit")
    return orbit_log(x.field, embed_all(x, precision_bits), precision_bits)


def pohst_check(u, precision_bits=DEFAULT_PRECISION):
    """||LOG(u)||_2^2 >= 4 log(phi)^2 for a unit u != +-1 of a real
    quartic field."""
    with mpf_ctx(precision_bits):
        if not isinstance(u, QuarticElem):
            raise TypeError("expected a quartic-field unit")
        log_embed = (log_embed_klein if isinstance(u.field, BiquadField)
                     else log_embed_cyclic)
        if u.is_rational():
            raise ValueError("Pohst bound excludes u = +-1")
        lv = log_embed(u, precision_bits)
        sq = sum((c * c for c in lv.coords), mpmath.mpf(0))
        floor = constants(precision_bits)["pohst_floor"]
        ok = sq >= floor - DERIVED_TOL
        return BoundReport("pohst_2norm_sq", sq, floor,
                           "holds" if ok else "violated", DERIVED_TOL)


def trial_division_irreducible(coeffs):
    """Exact irreducibility over Q for a monic integer quartic: no integer
    roots, no monic integer quadratic factors (Gauss), each found among
    the divisors of the constant term."""
    c0, c1, c2, c3, _ = coeffs
    if c0 == 0:
        return False
    divisors = [i for i in range(1, isqrt(abs(c0)) + 1) if c0 % i == 0]
    divisors = sorted(set(divisors + [abs(c0) // i for i in divisors]))
    for r in divisors:
        for root in (r, -r):
            if (root ** 4 + c3 * root ** 3 + c2 * root ** 2 + c1 * root
                    + c0 == 0):
                return False
    for b in divisors:
        for bb in (b, -b):
            dd = c0 // bb
            # (x^2+ax+bb)(x^2+cx+dd): a+c = c3, ac = c2-bb-dd, a*dd+c*bb = c1
            s, prod = c3, c2 - bb - dd
            sq = _rational_sqrt(s * s - 4 * prod)
            if sq is None or (s + sq) % 2 != 0:
                continue
            for a in {(s + sq) // 2, (s - sq) // 2}:
                if a * dd + (s - a) * bb == c1:
                    return False
    return True


def polyroots_real_roots(coeffs, bits):
    """The real parts of the four complex roots of a monic integer quartic,
    descending, from one mpmath.polyroots solve at bits."""
    with mpf_ctx(bits):
        rts = mpmath.polyroots([mpmath.mpf(c) for c in coeffs[::-1]],
                               maxsteps=200, extraprec=bits)
        return sorted((mpmath.re(r) for r in rts), reverse=True)


def _mpf_fraction(x):
    """Exact rational value of an mpf (mpfs are dyadic rationals)."""
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    frac = Fraction(man) * Fraction(2) ** exp
    return -frac if sign else frac


def eval_poly_at(field, elem):
    """The defining polynomial of a field at one of its elements, by
    Horner's rule."""
    acc = field.from_rational(field.coeffs[4])
    for c in field.coeffs[3::-1]:
        acc = qr_add(qr_mul(acc, elem), field.from_rational(c))
    return acc


class FractionAutomorphism:
    """The reference field automorphism, given by the exact image of
    alpha: the images of 1, alpha, alpha^2, alpha^3 as a table of Fraction
    elements, powers of the image by qr_mul, where the library keeps one
    integer matrix over a denominator; root_perm, when known, maps each
    root index i to that of sigma(alpha) at root i."""

    def __init__(self, field, image, root_perm=None):
        self.field = field
        self.image = image
        self.root_perm = root_perm
        self._powers = [field.from_rational(1)]
        for _ in range(3):
            self._powers.append(qr_mul(self._powers[-1], image))

    def __call__(self, elem):
        acc = [Fraction(0)] * 4
        for c, p in zip(elem.coords, self._powers):
            if c:
                for i, v in enumerate(p.coords):
                    acc[i] += c * v
        return QuarticElem(self.field, tuple(acc))

    def compose(self, other):
        return FractionAutomorphism(self.field, self(other.image))

    def is_identity(self):
        return self.image == self.field.gen()


def galois_generator_all_perms(field, denom_bound, precision_bits):
    """The first exactly verified order-4 automorphism over all 18 root
    permutations moving root 0, in lexicographic order, each image of
    alpha from its own Vandermonde solve at precision_bits, reconstructed
    as the best rational approximation with denominator <= denom_bound;
    None if there is none."""
    with mpf_ctx(precision_bits):
        roots = field.roots(precision_bits)
        mat = mpmath.matrix([[r ** k for k in range(4)] for r in roots])
        for perm in itertools.permutations(range(4)):
            if perm[0] == 0:
                continue
            try:
                sol = mpmath.lu_solve(
                    mat, mpmath.matrix([roots[p] for p in perm]))
            except ZeroDivisionError:
                continue
            cand = QuarticElem(field, tuple(
                _mpf_fraction(v).limit_denominator(denom_bound) for v in sol))
            if not not any(eval_poly_at(field, cand).coords):
                continue
            tau = FractionAutomorphism(field, cand, perm)
            t2 = tau.compose(tau)
            if not t2.is_identity() and t2.compose(t2).is_identity():
                return tau
    return None


def fraction_norm_exponent(ctx, c):
    """k with c * sigma^2(c) = +-u_l^k, |k| <= 12, or None, for a
    power-basis vector c, in Fraction arithmetic."""
    field = ctx.field
    elem = QuarticElem(field, tuple(Fraction(v) for v in c))
    norm = qr_mul(elem, field.sigma2(elem))
    for step, sign in ((ctx.u_l_emb, 1), (qr_inv(ctx.u_l_emb), -1)):
        p = field.from_rational(1)
        for k in range(13):
            if norm == p or norm == qr_neg(p):
                return sign * k
            p = qr_mul(p, step)
    return None


# (permutation, sign) pairs of range(4), signs by counting inversions
_PERM_SIGNS = [(p, (-1) ** sum(a > b for a, b in itertools.combinations(p, 2)))
               for p in itertools.permutations(range(4))]


def power_basis_norm(coeffs, c):
    """N(c(alpha)) for alpha a root of the monic integer quartic whose
    coefficients, constant term first, are coeffs: the determinant of
    multiplication by c on 1, alpha, alpha^2, alpha^3.  Column j is
    alpha^j * c, reduced by alpha^4 = -sum_{k<4} coeffs[k] * alpha^k, and
    the determinant is the Leibniz sum over the 24 permutations."""
    cols = [list(c)]
    for _ in range(3):
        prev = cols[-1]
        cols.append([-prev[3] * coeffs[0]]
                    + [prev[k - 1] - prev[3] * coeffs[k] for k in range(1, 4)])
    return sum(sign * math.prod(cols[j][p[j]] for j in range(4))
               for p, sign in _PERM_SIGNS)


def unit_half_box(coeffs, height_bound):
    """Every integer vector c with |c_i| <= height_bound and
    N(c(alpha)) = +-1 whose first nonzero entry is negative, as lists in
    lexicographic order, by the exact norm over the whole box."""
    span = range(-height_bound, height_bound + 1)
    return [list(c) for c in itertools.product(span, repeat=4)
            if abs(power_basis_norm(coeffs, c)) == 1
            and next(v for v in c if v) < 0]


# height of the relative-unit search behind regulator_cross_check
REGULATOR_HEIGHT = 6


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
    roots = [float(r) for r in field.roots(gen_logs[0].precision_bits)]
    orbit = [roots[p] for p in field.root_orbit]
    logs = ([math.log(abs(c0 + c1 * r + c2 * r * r + c3 * r ** 3))
             for r in orbit] for c0, c1, c2, c3 in hits)
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
                            mul_coords(power(i, m - 1), numers[i], table))
        return powers[i, m]

    def proves(c, n):
        lhs, rhs = c, (1, 0, 0, 0)
        scale_lhs = scale_rhs = 1
        for i, m in enumerate(n):
            if m < 0:
                lhs = mul_coords(lhs, power(i, -m), table)
                scale_rhs *= den ** -m
            elif m > 0:
                rhs = mul_coords(rhs, power(i, m), table)
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


def cauchy_root_brackets(poly):
    """Dyadic brackets (lo / 2^k, hi / 2^k], ascending, one per real root
    of a squarefree monic integer polynomial: the Sturm sign variations
    over the Cauchy interval (-2^e, 2^e], 2^e > max |c_i|, bisected until
    each interval holds one root."""
    seq = _sturm(poly)

    def var(num, k):
        signs = [s for s in (_sign_at(p, num, k) for p in seq) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    top = 1 << max(abs(c) for c in poly[:-1]).bit_length()
    out, todo = [], [(-top, top, 0, var(-top, 0), var(top, 0))]
    while todo:
        lo, hi, k, v_lo, v_hi = todo.pop()
        if v_lo - v_hi == 1:
            out.append((lo, hi, k))
        elif v_lo - v_hi > 1:
            mid = lo + hi
            v_mid = var(mid, k + 1)
            todo.append((mid, 2 * hi, k + 1, v_mid, v_hi))
            todo.append((2 * lo, mid, k + 1, v_lo, v_mid))
    return tuple(out)
