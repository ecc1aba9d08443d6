"""One exact kernel for real quartic fields, and the roots and Galois
generator of the cyclic ones.

A field's `table` holds the integer structure constants of its basis
b0 = 1, b1, b2, b3: the power basis of a monic integer quartic f
(CyclicQuarticField) or 1, sqrt(d1), sqrt(d2), sqrt(d3) (BiquadField).
Elements (QuarticElem) of both multiply by one product (mul_coords);
the trace form (trace_matrix) and char_poly, which decides integrality,
the norm and units, read the table and need no Galois action.

On the power basis the trace form decides disc f, total reality
(Hermite) and the image of alpha under a generator sigma of the Galois
group (galois_generator), from roots solved once per polynomial.  sigma
serves Hasse's relations, the unit search and sqrt_of_rational.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .precision import DEFAULT_PRECISION, mpf_ctx
from .quadratic import _rational_sqrt


class NotCyclicError(ValueError):
    """Defining polynomial is not a totally real cyclic quartic."""


def mul_coords(a, b, table):
    """Coordinates of the product of the elements with coordinates a and
    b on a basis with structure constants table; exact on ints and on
    Fractions alike."""
    prod = [0, 0, 0, 0]
    for i, x in enumerate(a):
        if x:
            row = table[i]
            for j, y in enumerate(b):
                if y:
                    xy = x * y
                    for k, c in row[j]:
                        prod[k] += c * xy
    return tuple(prod)


def power_table(coeffs):
    """Structure constants of the power basis of the monic quartic coeffs:
    for each (i, j) the nonzero (k, c) of alpha^(i+j), reduced by
    alpha^4 = -(c3 alpha^3 + c2 alpha^2 + c1 alpha + c0)."""
    powers = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    for _ in range(3):
        prev = powers[-1]
        powers.append((-prev[3] * coeffs[0],) + tuple(
            prev[k - 1] - prev[3] * coeffs[k] for k in range(1, 4)))
    return tuple(tuple(tuple((k, c) for k, c in enumerate(powers[i + j]) if c)
                       for j in range(4)) for i in range(4))


def trace_matrix(table):
    """The trace form of a basis, M[i][j] = Tr(b_i b_j), exact from its
    structure constants; Tr(b_k), the trace of multiplication by b_k, sums
    the coefficient of b_i in b_k b_i over i, and M[0] lists them.

    On the power basis M[j][k] = Tr(alpha^(j+k)) = sum_i r_i^(j+k), so
    M = V^T V for the root Vandermonde matrix V[i][j] = r_i^j, and
    det M = disc f."""
    tr = [sum(c for i in range(4) for j, c in table[k][i] if j == i)
          for k in range(4)]
    return tuple(tuple(sum(c * tr[k] for k, c in table[i][j])
                       for j in range(4)) for i in range(4))


def char_poly(a):
    """The characteristic polynomial of multiplication by a as Fractions
    (1, c1, c2, c3, c4), highest degree first: a power of the minimal
    polynomial, so a is integral iff every c_m is an integer, and
    c4 = N_{L/Q}(a).  With a = A/D, A integer, the power sums
    p_m = Tr(A^m), m <= 4, take three products; Newton's identities
    m C_m = -(p_m + C_1 p_(m-1) + ... + C_(m-1) p_1) divide exactly, as A
    lies in the order the table spans, and c_m = C_m / D^m."""
    table = a.field.table
    tr = trace_matrix(table)[0]
    den = math.lcm(*(v.denominator for v in a.coords))
    a1 = tuple(v.numerator * (den // v.denominator) for v in a.coords)
    a2 = mul_coords(a1, a1, table)
    p = [sum(t * v for t, v in zip(tr, x))
         for x in (a1, a2, mul_coords(a2, a1, table),
                   mul_coords(a2, a2, table))]
    c = [1]
    for m in range(1, 5):
        c.append(-(p[m - 1] + sum(c[i] * p[m - 1 - i]
                                  for i in range(1, m))) // m)
    return tuple(Fraction(v, den ** m) for m, v in enumerate(c))


def is_algebraic_integer(a):
    """a lies in O_L iff its characteristic polynomial lies in Z[x]."""
    return all(c.denominator == 1 for c in char_poly(a))


def norm_to_Q(a):
    """N_{L/Q}(a), an exact rational: the constant term of char_poly."""
    return char_poly(a)[4]


def is_unit(a):
    poly = char_poly(a)
    return all(c.denominator == 1 for c in poly) and abs(poly[4]) == 1


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
    """The roots of _solve, descending; cached by (coeffs, precision_bits),
    so no field is kept alive.  Before any root is solved, NotCyclicError
    unless the trace matrix is positive definite, that is (Sylvester),
    unless its leading minors are > 0: by Hermite the trace form has
    signature (r1 + r2, r2) when the roots are distinct, and det M =
    disc f = 0 when they are not."""
    mat = trace_matrix(power_table(coeffs))
    minors = [_det(tuple(row[:k] for row in mat[:k])) for k in (2, 3, 4)]
    if minors[-1] == 0:
        raise NotCyclicError("defining polynomial has a repeated root")
    if min(minors) <= 0:
        raise NotCyclicError("defining polynomial is not totally real")
    rts = _solve(coeffs, precision_bits)
    with mpf_ctx(precision_bits):
        return tuple(sorted((mpmath.re(r) for r in rts), reverse=True))


def _newton(coeffs, root, precision_bits):
    """A simple root of the quartic refined from an approximation by
    Newton steps until a step is below the target precision, then rounded
    to it; from a more precise root that is one step.  Horner's rule at
    the root loses to cancellation the bits by which sum |c_i| |x|^i
    exceeds |x f'(x)|, the root's condition number; the steps run at 32
    guard bits plus those, so that the rounding noise of a step stays
    below the target."""
    target = precision_bits + 16
    with mpmath.workprec(target + 32):
        size = sum(abs(c) * abs(root) ** i for i, c in enumerate(coeffs))
        slope = sum(i * c * root ** (i - 1)
                    for i, c in enumerate(coeffs[1:], 1))
        lost = max(0, mpmath.mag(size)
                   - mpmath.mag(slope * max(abs(root), 1)))
    with mpmath.workprec(target + 32 + lost):
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


def _det(rows):
    """Determinant of a square integer matrix, by Laplace expansion along
    its first row."""
    if not rows:
        return 1
    return sum((-1) ** k * v * _det(tuple(r[:k] + r[k + 1:]
                                          for r in rows[1:]))
               for k, v in enumerate(rows[0]) if v)


def discriminant(table):
    """Discriminant of a basis, exact: det of its trace form; disc f on
    the power basis of f."""
    return _det(trace_matrix(table))


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

    @functools.cached_property
    def table(self):
        return power_table(self.coeffs)

    def format(self, coords):
        return "[" + ", ".join(str(c) for c in coords) + "]"

    def from_rational(self, q):
        return QuarticElem(self, (q, 0, 0, 0))

    def gen(self):
        return QuarticElem(self, (0, 1, 0, 0))

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
    """Exact rational coordinates on the basis of a field with a table
    and a format: a CyclicQuarticField or a BiquadField."""

    field: object
    coords: tuple  # (c0, c1, c2, c3)

    def __post_init__(self):
        c = tuple(Fraction(v) for v in self.coords)
        if len(c) != 4:
            raise ValueError("need 4 coordinates")
        object.__setattr__(self, "coords", c)

    def is_zero(self):
        return not any(self.coords)

    def is_rational(self):
        return not any(self.coords[1:])

    def __str__(self):
        return self.field.format(self.coords)


def qr_add(a, b):
    _same(a, b)
    return QuarticElem(a.field, tuple(x + y for x, y in zip(a.coords, b.coords)))


def qr_neg(a):
    return QuarticElem(a.field, tuple(-x for x in a.coords))


def qr_mul(a, b):
    _same(a, b)
    return QuarticElem(a.field, mul_coords(a.coords, b.coords, a.field.table))


def _same(a, b):
    if a.field != b.field:
        raise ValueError("elements from different quartic fields")


class Automorphism:
    """Field automorphism given by the exact image of alpha; root_perm, when
    known, maps each root index i to that of sigma(alpha) at root i."""

    def __init__(self, field, image, root_perm=None):
        self.field = field
        self.image = image
        self.root_perm = root_perm
        gen_powers = [field.from_rational(1)]
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
    if discriminant(power_table(coeffs)) == 0:
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


def galois_generator(field):
    """An exact order-4 automorphism, or raise NotCyclicError.

    Refuses reducible polynomials, whose quotient ring is not a field.
    For each 4-cycle perm of the roots, in lexicographic order, the
    candidate image c of alpha solves M c = t exactly by Cramer's rule,
    with M = trace_matrix(f) and t_j = sum_i r_perm(i) r_i^j rounded to an
    integer; the first candidate exactly verified as an automorphism of
    order 4 is returned.  c is a root of f iff char_poly(c) = f:
    Cayley-Hamilton one way, f irreducible the other.  At the 4-cycle of sigma, t_j = Tr(sigma(alpha)
    alpha^j) = sum_k M[j][k] c_k is an integer, as sigma(alpha) alpha^j
    lies in Z[alpha].

    Precision: every |r_i| < R = 1 + max |c_i| (Cauchy), and the roots at
    b bits are each off by at most R 2^-b, so each product r_perm(i) r_i^j
    of at most 4 factors is off by at most 4 R^4 2^-b to first order, and
    t_j, a sum of 4 of them, by 16 R^4 2^-b.  At b = 2 _cauchy_bits(f) >=
    4 log2 R + 64 that is below 2^-60, far below the 1/2 rounding needs.
    """
    if not quartic_is_irreducible(field.coeffs):
        raise NotCyclicError("defining polynomial is reducible")
    mat = trace_matrix(field.table)
    disc = _det(mat)
    bits = 2 * _cauchy_bits(field.coeffs)
    roots = field.roots(bits)
    with mpf_ctx(bits):
        for perm in FOUR_CYCLES:
            t = [int(mpmath.nint(sum(roots[p] * r ** j
                                     for p, r in zip(perm, roots))))
                 for j in range(4)]
            cand = QuarticElem(field, tuple(
                Fraction(_det(tuple(row[:k] + (v,) + row[k + 1:]
                                    for row, v in zip(mat, t))), disc)
                for k in range(4)))
            if char_poly(cand) != field.coeffs[::-1]:
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
    lies in k, so char_poly(y) = (x^2 - p x + m)^2 with p = Tr_{k/Q}(y)
    and m = N_{k/Q}(y); its coefficients of x^3 and x^2 are -2p and
    p^2 + 2m.  (2y - p)^2 = p^2 - 4m, so k = Q(sqrt(p^2 - 4m)), and
    sqrt(q) lies in L iff c = sqrt((p^2 - 4m)/q) is rational; then
    sqrt(q) = +-(2y - p)/c.
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
        y = qr_mul(alpha, field.sigma2(alpha))
    _, c1, c2, _, _ = char_poly(y)
    p = -c1 / 2
    m = (c2 - p * p) / 2
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
