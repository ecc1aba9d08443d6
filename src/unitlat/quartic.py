"""Power-basis arithmetic in cyclic quartic fields L = Q(alpha).

alpha is a root of a monic integer quartic f with four real roots and
cyclic Galois group.  The trace matrix M[j][k] = Tr(alpha^(j+k)) of the
power basis is exact and decides three things: disc f = det M, total
reality (Hermite: all roots are real and distinct iff M is positive
definite), and the image of alpha under a generator sigma of the Galois
group, which solves M c = t for the integer traces t_j of
sigma(alpha) alpha^j, read off the roots by rounding and verified
exactly.  The roots are solved for once per polynomial.  Everything else
is exact in the tower L > k > Q, where k = Q(sqrt(d)) is the fixed field
of sigma^2 and sigma restricts to the non-trivial automorphism of k.
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
    mat = trace_matrix(coeffs)
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


def trace_matrix(coeffs):
    """The trace form of the power basis, M[j][k] = Tr(alpha^(j+k)), exact.

    Tr(alpha^m) is the trace of multiplication by alpha^m, whose column i
    is alpha^(m+i), so it sums coordinate i of alpha^(m+i) over i.  M =
    V^T V for the root Vandermonde matrix V[i][j] = r_i^j, so det M =
    disc f."""
    powers = [(1, 0, 0, 0)]
    for _ in range(9):
        powers.append(mul_coords(powers[-1], (0, 1, 0, 0), coeffs))
    tr = [sum(powers[m + i][i] for i in range(4)) for m in range(7)]
    return tuple(tuple(tr[j:j + 4]) for j in range(4))


def _det(rows):
    """Determinant of a square integer matrix, by Laplace expansion along
    its first row."""
    if not rows:
        return 1
    return sum((-1) ** k * v * _det(tuple(r[:k] + r[k + 1:]
                                          for r in rows[1:]))
               for k, v in enumerate(rows[0]) if v)


def discriminant(coeffs):
    """Discriminant of the monic quartic coeffs, exact: det of its trace
    matrix."""
    return _det(trace_matrix(coeffs))


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


def galois_generator(field):
    """An exact order-4 automorphism, or raise NotCyclicError.

    Refuses reducible polynomials, whose quotient ring is not a field.
    For each 4-cycle perm of the roots, in lexicographic order, the
    candidate image c of alpha solves M c = t exactly by Cramer's rule,
    with M = trace_matrix(f) and t_j = sum_i r_perm(i) r_i^j rounded to an
    integer; the first candidate exactly verified as an automorphism of
    order 4 is returned.  At the 4-cycle of sigma, t_j = Tr(sigma(alpha)
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
    mat = trace_matrix(field.coeffs)
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
