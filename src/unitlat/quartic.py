"""Power-basis arithmetic in cyclic quartic fields L = Q(alpha).

alpha is a root of a monic integer quartic with four real roots and
cyclic Galois group.  The roots are solved for once per polynomial.  A
generator sigma of the Galois group is recovered once per field by
matching 4-cycles of the roots numerically, rationally reconstructing the
image of alpha, and verifying the automorphism exactly.  Everything else
is exact in the tower L > k > Q, where k = Q(sqrt(d)) is the fixed field
of sigma^2 and sigma restricts to the non-trivial automorphism of k.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .precision import DEFAULT_PRECISION, mpf_ctx, reconstruct_rational
from .quadratic import _rational_sqrt


class NotCyclicError(ValueError):
    """Defining polynomial is not a totally real cyclic quartic."""


@functools.lru_cache(maxsize=None)
def _solve(coeffs, precision_bits):
    """The four complex roots of a monic integer quartic at precision_bits
    (plus mpf_ctx headroom), cached by (coeffs, precision_bits).
    mpmath.polyroots runs once per polynomial, at _cauchy_bits, the
    precision quartic_is_irreducible asks for; every other precision is
    refined from those roots by Newton's method, up or down."""
    bits = _cauchy_bits(coeffs)
    if precision_bits != bits:
        return tuple(_newton(coeffs, r, precision_bits)
                     for r in _solve(coeffs, bits))
    with mpf_ctx(bits):
        poly = [mpmath.mpf(c) for c in coeffs[::-1]]
        return tuple(mpmath.polyroots(poly, maxsteps=200, extraprec=bits))


@functools.lru_cache(maxsize=None)
def _real_roots(coeffs, precision_bits):
    """The roots of _solve, descending, or NotCyclicError if one is not
    real; cached by (coeffs, precision_bits), so no field is kept alive."""
    rts = _solve(coeffs, precision_bits)
    with mpf_ctx(precision_bits):
        tol = mpmath.mpf(2) ** (-precision_bits // 2)
        if any(abs(mpmath.im(r)) > tol for r in rts):
            raise NotCyclicError("defining polynomial is not totally real")
        return tuple(sorted((mpmath.re(r) for r in rts), reverse=True))


def _newton(coeffs, root, precision_bits):
    """A simple root of the quartic refined from an approximation by
    Newton steps at 32 guard bits until a step is below the target
    precision, then rounded to it; from a more precise root that is one
    step."""
    target = precision_bits + 16
    with mpmath.workprec(target + 32):
        x = +root
        for _ in range(64):
            fx, dfx = mpmath.mpf(1), mpmath.mpf(0)
            for c in coeffs[3::-1]:
                dfx = dfx * x + fx
                fx = fx * x + c
            step = fx / dfx
            x -= step
            if abs(step) <= max(abs(x), 1) * mpmath.mpf(2) ** -(target + 8):
                break
        else:
            raise ArithmeticError("Newton refinement of a root did not "
                                  "converge")
    with mpf_ctx(precision_bits):
        return +x


def discriminant(coeffs):
    """Discriminant of the monic quartic x^4 + b x^3 + c x^2 + d x + e,
    exact."""
    e, d, c, b, _ = coeffs
    return (256 * e ** 3 - 192 * b * d * e ** 2 - 128 * c ** 2 * e ** 2
            + 144 * c * d ** 2 * e - 27 * d ** 4 + 144 * b ** 2 * c * e ** 2
            - 6 * b ** 2 * d ** 2 * e - 80 * b * c ** 2 * d * e
            + 18 * b * c * d ** 3 + 16 * c ** 4 * e - 4 * c ** 3 * d ** 2
            - 27 * b ** 4 * e ** 2 + 18 * b ** 3 * c * d * e
            - 4 * b ** 3 * d ** 3 - 4 * b ** 2 * c ** 3 * e
            + b ** 2 * c ** 2 * d ** 2)


@dataclass(frozen=True)
class CyclicQuarticField:
    """Field defined by a monic integer quartic; coeffs constant term first."""

    coeffs: tuple  # (c0, c1, c2, c3, 1)

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        if len(c) != 5 or c[4] != 1 or c != tuple(self.coeffs):
            raise ValueError("need a monic integer quartic as 5 coefficients, "
                             "constant first")
        object.__setattr__(self, "coeffs", c)

    def one(self):
        return QuarticElem(self, (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))

    def from_rational(self, q):
        return QuarticElem(self, (Fraction(q), Fraction(0), Fraction(0), Fraction(0)))

    def gen(self):
        return QuarticElem(self, (Fraction(0), Fraction(1), Fraction(0), Fraction(0)))

    @functools.cached_property
    def sigma(self):
        """Generator of the Galois group; NotCyclicError if there is none."""
        return galois_generator(self)

    @functools.cached_property
    def sigma2(self):
        return self.sigma.compose(self.sigma)

    @functools.cached_property
    def root_orbit(self):
        """Root indices (p0, p1, p2, p3) with p_k = perm^k(0), perm the
        root permutation sigma was matched on: the id-embedding of
        sigma^k(x) is x evaluated at root p_k."""
        perm = self.sigma.root_perm
        return (0, perm[0], perm[perm[0]], perm[perm[perm[0]]])

    def roots(self, precision_bits=DEFAULT_PRECISION):
        """Real roots, descending; index 0 is the chosen id-embedding.
        Cached per (polynomial, precision) from the polynomial's one
        solve: embeddings are hot paths."""
        return _real_roots(self.coeffs, precision_bits)


@dataclass(frozen=True)
class QuarticElem:
    field: CyclicQuarticField
    coords: tuple  # (c0, c1, c2, c3) in the power basis 1, a, a^2, a^3

    def __post_init__(self):
        c = tuple(Fraction(v) for v in self.coords)
        if len(c) != 4:
            raise ValueError("need 4 power-basis coordinates")
        object.__setattr__(self, "coords", c)

    def is_zero(self):
        return not any(self.coords)

    def is_rational(self):
        return not any(self.coords[1:])

    def rational_value(self):
        assert self.is_rational()
        return self.coords[0]

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coords) + "]"


def qr_add(a, b):
    _same(a, b)
    return QuarticElem(a.field, tuple(x + y for x, y in zip(a.coords, b.coords)))


def qr_neg(a):
    return QuarticElem(a.field, tuple(-x for x in a.coords))


def qr_mul(a, b):
    _same(a, b)
    return QuarticElem(a.field, mul_coords(a.coords, b.coords, a.field.coeffs))


def mul_coords(a, b, coeffs):
    """Power-basis coordinates of a*b modulo the monic quartic coeffs;
    exact on ints and on Fractions alike."""
    c0, c1, c2, c3 = coeffs[:4]
    prod = [0] * 7
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    # reduce degrees 6..4 using a^4 = -(c3 a^3 + c2 a^2 + c1 a + c0)
    for deg in (6, 5, 4):
        v = prod[deg]
        if v:
            prod[deg - 1] -= c3 * v
            prod[deg - 2] -= c2 * v
            prod[deg - 3] -= c1 * v
            prod[deg - 4] -= c0 * v
    return tuple(prod[:4])


def _same(a, b):
    if a.field != b.field:
        raise ValueError("elements from different quartic fields")


def _relative_norm(a):
    """N_{L/k}(a) = a * sigma^2(a), an element of k."""
    return qr_mul(a, a.field.sigma2(a))


def _trace_norm_to_Q(y):
    """(Tr_{k/Q}(y), N_{k/Q}(y)) of y in k as rationals: sigma restricts to
    the non-trivial automorphism of k."""
    z = y.field.sigma(y)
    return qr_add(y, z).rational_value(), qr_mul(y, z).rational_value()


def _is_k_integer(y):
    return all(v.denominator == 1 for v in _trace_norm_to_Q(y))


def is_algebraic_integer(a):
    """a lies in O_L iff its relative trace a + sigma^2(a) and norm
    N_{L/k}(a) lie in O_k, each tested by trace and norm in Z."""
    return (_is_k_integer(qr_add(a, a.field.sigma2(a)))
            and _is_k_integer(_relative_norm(a)))


def norm_to_Q(a):
    """N_{L/Q}(a) = N_{k/Q}(N_{L/k}(a)), an exact rational."""
    n = _relative_norm(a)
    return qr_mul(n, a.field.sigma(n)).rational_value()


def is_unit(a):
    return is_algebraic_integer(a) and abs(norm_to_Q(a)) == 1


def eval_poly_at(field, elem):
    """Evaluate the defining polynomial at an element of the field."""
    acc = field.from_rational(field.coeffs[4])
    for c in field.coeffs[3::-1]:
        acc = qr_add(qr_mul(acc, elem), field.from_rational(c))
    return acc


class Automorphism:
    """Field automorphism given by the exact image of alpha; root_perm, when
    known, maps each root index i to that of sigma(alpha) at root i."""

    def __init__(self, field, image, root_perm=None):
        self.field = field
        self.image = image
        self.root_perm = root_perm
        gen_powers = [field.one()]
        for _ in range(3):
            gen_powers.append(qr_mul(gen_powers[-1], image))
        self._powers = gen_powers

    def __call__(self, elem):
        acc = [Fraction(0)] * 4
        for c, p in zip(elem.coords, self._powers):
            if c:
                for i, v in enumerate(p.coords):
                    acc[i] += c * v
        return QuarticElem(self.field, tuple(acc))

    def compose(self, other):
        return Automorphism(self.field, self(other.image))

    def integer_matrix(self):
        """(den, rows): den * self(x) has coordinates rows @ x, den the
        least common denominator of the images of 1, alpha, alpha^2,
        alpha^3, and rows integer."""
        den = math.lcm(*(v.denominator for p in self._powers
                         for v in p.coords))
        return den, tuple(tuple(int(p.coords[i] * den) for p in self._powers)
                          for i in range(4))

    def is_identity(self):
        return self.image == self.field.gen()


def quartic_is_irreducible(coeffs):
    """Exact irreducibility over Q for a monic integer quartic (Gauss: a
    factor may be taken monic with integer coefficients).

    A repeated root (discriminant 0) makes f reducible.  Otherwise each
    integer root is round(r_i) and each monic quadratic factor is
    x^2 - round(r_i + r_j) x + round(r_i r_j) for a pair of complex roots;
    every candidate is confirmed by exact division.  The roots come from
    the polynomial's one solve, at twice the bit length of the Cauchy
    bound |r| <= 1 + max |c_i| plus 32 guard bits, so that sums and
    products of roots, at most R^2, are off by far less than 1/2 and
    rounding finds every factor.
    """
    if discriminant(coeffs) == 0:
        return False
    bits = _cauchy_bits(coeffs)
    rts = _solve(tuple(coeffs), bits)
    with mpf_ctx(bits):
        for r in rts:
            if _divides(coeffs, (-int(mpmath.nint(mpmath.re(r))), 1)):
                return False
        for r, s in itertools.combinations(rts, 2):
            factor = (int(mpmath.nint(mpmath.re(r * s))),
                      -int(mpmath.nint(mpmath.re(r + s))), 1)
            if _divides(coeffs, factor):
                return False
    return True


def _cauchy_bits(coeffs):
    """Precision of a quartic's first solve: twice the bit length of its
    Cauchy root bound 1 + max |c_i|, plus 32 guard bits."""
    return 2 * (1 + max(abs(c) for c in coeffs[:4])).bit_length() + 32


def _divides(coeffs, factor):
    """Exact test that the monic integer polynomial factor (constant term
    first) divides the quartic coeffs."""
    rem = list(coeffs)
    deg = len(factor) - 1
    for top in range(4, deg - 1, -1):
        q = rem[top]
        for i, c in enumerate(factor):
            rem[top - deg + i] -= q * c
    return not any(rem[:deg])


# root permutations that are 4-cycles, in lexicographic order: the root
# permutation of an automorphism of order 4 (a generator of the cyclic
# Galois group, acting simply transitively on the roots) is one of them
FOUR_CYCLES = tuple(
    p for p in itertools.permutations(range(4))
    if p[0] != 0 and p[p[0]] != 0 and p[p[p[0]]] != 0)


def automorphism_bounds(field):
    """(denominator bound, precision in bits) for reconstructing sigma(alpha).

    sigma(alpha) lies in O_L, and [O_L : Z[alpha]] O_L lies in Z[alpha]
    with [O_L : Z[alpha]]^2 dividing disc f (Cohen, GTM 138, 4.4), so its
    power-basis coordinates have denominators at most isqrt(|disc f|) = N.
    Two rationals of denominator at most N differ by at least 1/N^2, so
    the reconstruction is the true coordinate once the numeric error is
    below 1/(2 N^2).  The precision adds to those 2 log2 N + 1 bits the
    growth of the error through the Vandermonde solve, read off the root
    sizes: with R = max(1, |r_i|) and gap the least |r_i - r_j|, the
    entries of the inverse Vandermonde matrix are at most
    V = ((1 + R)/gap)^3 (Lagrange basis), the coordinates at most 4 R V,
    and a root error of R 2^-bits moves them, to first order, by at most
    64 R^4 V (1 + 4 R V) 2^-bits; 32 guard bits cover the rounding of
    the solve itself.  So, within this first-order error model, the
    reconstruction at the 4-cycle of sigma returns sigma(alpha) for a
    cyclic field, and none succeeding indicates the field is not cyclic.
    The model is evaluated at 53 bits, not in interval arithmetic, so the
    bound is heuristic: a failed reconstruction is not a proof.
    """
    disc = discriminant(field.coeffs)
    denom_bound = math.isqrt(abs(disc))
    sizes = field.roots(_cauchy_bits(field.coeffs))
    with mpmath.workprec(53):
        big = max([abs(r) for r in sizes] + [mpmath.mpf(1)])
        gap = min(abs(r - s) for r, s in itertools.combinations(sizes, 2))
        v = ((1 + big) / gap) ** 3
        growth = 64 * big ** 4 * v * (1 + 4 * big * v)
        bits = (2 * denom_bound.bit_length() + 1
                + int(mpmath.ceil(mpmath.log(growth, 2))) + 32)
    return denom_bound, bits


def galois_generator(field):
    """An exact order-4 automorphism, or raise NotCyclicError.

    Refuses reducible polynomials, whose quotient ring is not a field.
    Tries the 4-cycles of the roots, reconstructs the image of alpha at
    the bounds of automorphism_bounds, and keeps the first
    exactly-verified generator.  Deterministic: 4-cycles are tried in
    lexicographic order over root indices.
    """
    if not quartic_is_irreducible(field.coeffs):
        raise NotCyclicError("defining polynomial is reducible")
    denom_bound, bits = automorphism_bounds(field)
    roots = field.roots(bits)
    with mpf_ctx(bits):
        vinv = mpmath.inverse(mpmath.matrix([[r ** k for k in range(4)]
                                             for r in roots]))
        for perm in FOUR_CYCLES:
            sol = vinv * mpmath.matrix([roots[p] for p in perm])
            cand = QuarticElem(field, tuple(
                reconstruct_rational(v, denom_bound) for v in sol))
            if not eval_poly_at(field, cand).is_zero():
                continue
            tau = Automorphism(field, cand, perm)
            t2 = tau.compose(tau)
            if t2.is_identity():
                continue
            t4 = t2.compose(t2)
            if t4.is_identity():
                return tau
    raise NotCyclicError("no order-4 automorphism found; field is not cyclic")


def sqrt_of_rational(field, q):
    """Element x of L with x^2 = q and positive id-embedding, or None when
    sqrt(q) is not in L (or q <= 0).

    Exact: y, the irrational one of Tr_{L/k}(alpha) and N_{L/k}(alpha),
    has p = Tr_{k/Q}(y) and m = N_{k/Q}(y) rational with
    (2y - p)^2 = p^2 - 4m, so k = Q(sqrt(p^2 - 4m)), and sqrt(q) lies in L
    iff c = sqrt((p^2 - 4m)/q) is rational; then sqrt(q) = +-(2y - p)/c.
    """
    q = Fraction(q)
    if q <= 0:
        return None
    r = _rational_sqrt(q)
    if r is not None:
        return field.from_rational(r)
    alpha = field.gen()
    y = qr_add(alpha, field.sigma2(alpha))
    if y.is_rational():  # then N_{L/k}(alpha) is not, as alpha has degree 4
        y = _relative_norm(alpha)
    p, m = _trace_norm_to_Q(y)
    c = _rational_sqrt((p * p - 4 * m) / q)
    if c is None:
        return None
    root = qr_add(y, qr_add(y, field.from_rational(-p)))
    root = QuarticElem(field, tuple(v / c for v in root.coords))
    if qr_mul(root, root) != field.from_rational(q):
        raise ArithmeticError("square root check failed")
    return qr_neg(root) if embed_all(root)[0] < 0 else root


def embed_all(a, precision_bits=DEFAULT_PRECISION):
    """Values of a at the four real roots (descending root order), by
    Horner's rule."""
    with mpf_ctx(precision_bits):
        c0, c1, c2, c3 = (v.numerator if v.denominator == 1
                          else mpmath.mpf(v.numerator) / v.denominator
                          for v in a.coords)
        return tuple(((c3 * r + c2) * r + c1) * r + c0
                     for r in a.field.roots(precision_bits))
