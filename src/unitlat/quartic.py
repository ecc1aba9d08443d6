"""One exact kernel for real quartic fields, and the roots and Galois
generator of the cyclic ones.

A field's `table` holds the integer structure constants of its basis
b0 = 1, b1, b2, b3: the power basis of a monic integer quartic f
(CyclicQuarticField) or 1, sqrt(d1), sqrt(d2), sqrt(d3) (BiquadField).
Elements (QuarticElem) of both multiply by one product (mul_coords);
the trace form (trace_matrix) and char_poly, which decides integrality,
the norm and units, read the table and need no Galois action.

On the power basis the trace form, built once per polynomial with the
table, its adjugate and disc f (trace_form), decides disc f, total
reality (Hermite) and an element of O_L from its values at the roots
(from_embeddings), such as the image of alpha under a generator sigma of
the Galois group (galois_generator); sigma is one integer matrix over a
denominator (Automorphism).  The real roots come from one integer Sturm
sequence per polynomial: dyadic brackets (_root_brackets) that isolate
them, which Newton's method on dyadics refines to each precision in
exact integers, each limit proven by a sign change of f (_newton); one
mpf rounding per root is the only inexact step.  The same
brackets give the integer roots of f and of its resolvent cubic, which
decide irreducibility and the Galois group (galois_group) before any
sigma is sought.  sigma serves Hasse's relations, the cyclic generators
and sqrt_of_rational.  Nothing here solves over C.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .precision import DEFAULT_PRECISION, mpf_ctx
from .quadratic import UnitSearchError, _rational_sqrt


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


def integer_coords(values):
    """(N, D): the rationals values as integer numerators N over their
    least common denominator D > 0."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


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


def _traces(table):
    """Tr(b_k) for each basis element, exact from the structure constants:
    the trace of multiplication by b_k sums the coefficient of b_i in
    b_k b_i over i."""
    return [sum(c for i in range(4) for j, c in table[k][i] if j == i)
            for k in range(4)]


def trace_matrix(table):
    """The trace form of a basis, M[i][j] = Tr(b_i b_j), exact from its
    structure constants; M[0] lists the Tr(b_k) (_traces).

    On the power basis M[j][k] = Tr(alpha^(j+k)) = sum_i r_i^(j+k), so
    M = V^T V for the root Vandermonde matrix V[i][j] = r_i^j, and
    det M = disc f."""
    tr = _traces(table)
    return tuple(tuple(sum(c * tr[k] for k, c in table[i][j])
                       for j in range(4)) for i in range(4))


@functools.lru_cache(maxsize=None)
def trace_form(coeffs):
    """(power table, trace matrix M, disc f = det M, adj M) of the monic
    quartic coeffs, built once per polynomial and cached by coeffs, so no
    field is kept alive; det M is M's first row against the cofactors in
    adj M's first column."""
    table = power_table(coeffs)
    mat = trace_matrix(table)
    adj = _adjugate(mat)
    return table, mat, sum(m * c for m, c in zip(mat[0], adj[0])), adj


def char_poly(a):
    """The characteristic polynomial of multiplication by a as Fractions
    (1, c1, c2, c3, c4), highest degree first: a power of the minimal
    polynomial, so a is integral iff every c_m is an integer, and
    c4 = N_{L/Q}(a).  With a = A/D, A integer, the power sums
    p_m = Tr(A^m), m <= 4, take three products; Newton's identities
    m C_m = -(p_m + C_1 p_(m-1) + ... + C_(m-1) p_1) divide exactly, as A
    lies in the order the table spans, and c_m = C_m / D^m."""
    table = a.field.table
    tr = _traces(table)
    a1, den = integer_coords(a.coords)
    a2 = mul_coords(a1, a1, table)
    p = [sum(t * v for t, v in zip(tr, x))
         for x in (a1, a2, mul_coords(a2, a1, table),
                   mul_coords(a2, a2, table))]
    c = [1]
    for m in range(1, 5):
        c.append(-(p[m - 1] + sum(c[i] * p[m - 1 - i]
                                  for i in range(1, m))) // m)
    return tuple(Fraction(v, den ** m) for m, v in enumerate(c))


def is_unit(a):
    poly = char_poly(a)
    return all(c.denominator == 1 for c in poly) and abs(poly[4]) == 1


def _sturm(poly):
    """The Sturm sequence of a squarefree integer polynomial (constant term
    first): poly, poly', then each remainder negated.  Each remainder is
    the pseudo-remainder by |lc|^(deg difference + 1), then divided by the
    gcd of its coefficients: both factors are positive, so every member
    has the signs of the classical sequence, in integers."""
    seq = [tuple(poly), tuple(i * c for i, c in enumerate(poly))[1:]]
    while len(seq[-1]) > 1:
        num, den = seq[-2], seq[-1]
        deg, lead = len(den) - 1, den[-1]
        rem = [c * abs(lead) ** (len(num) - deg) for c in num]
        for top in range(len(num) - 1, deg - 1, -1):
            q = rem[top] // lead  # exact: rem[top] carries a power of |lead|
            for i, c in enumerate(den):
                rem[top - deg + i] -= q * c
        rem = rem[:deg]
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
        g = math.gcd(*rem)
        seq.append(tuple(-c // g for c in rem))
    return seq


def _value_at(poly, num, k):
    """2^(k deg) poly(num / 2^k), the integer polynomial poly (constant
    term first) at the dyadic point num / 2^k: Horner's rule, exact in
    integers."""
    acc, scale = poly[-1], 1
    for c in poly[-2::-1]:
        scale <<= k
        acc = acc * num + c * scale
    return acc


def _sign_at(poly, num, k):
    """Sign of the integer polynomial poly at the dyadic point num / 2^k."""
    acc = _value_at(poly, num, k)
    return (acc > 0) - (acc < 0)


@functools.lru_cache(maxsize=None)
def _root_brackets(poly):
    """One dyadic bracket (lo / 2^k, hi / 2^k], as (lo, hi, k), per real
    root of a squarefree monic integer polynomial, ascending; cached per
    polynomial.

    Sturm: the sign variations V(x) of the Sturm sequence at x fall by one
    at each root and nowhere else, and V is right-continuous at a root, so
    V(a) - V(b) counts the roots in (a, b] for any dyadic a < b, roots
    included.  Every root lies in (-2^e, 2^e], 2^e the least power of 2 at
    least Fujiwara's bound 2 max_i |c_(n-i)|^(1/i): with M that maximum, a
    root z with |z| >= 2M would have |z|^n <= sum_i M^i |z|^(n-i)
    <= |z|^n sum_i 2^-i < |z|^n.  2^(e-1) >= |c|^(1/i) iff
    (e - 1) i >= bitlength(|c| - 1), or c = 0.  Each interval holding two
    or more roots is bisected until each holds one."""
    seq = _sturm(poly)

    def var(num, k):
        signs = [s for s in (_sign_at(p, num, k) for p in seq) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    n = len(poly) - 1
    top = 2 << max(-(-max(abs(poly[n - i]) - 1, 0).bit_length() // i)
                   for i in range(1, n + 1))
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


def _halve(poly, bracket):
    """The half of a bracket that holds its one root, a simple root, so
    poly changes sign across it: from the signs at the midpoint and the
    upper end, never at the lower end, which may be a neighbour's root."""
    lo, hi, k = bracket
    mid = lo + hi
    s_hi, s_mid = _sign_at(poly, hi, k), _sign_at(poly, mid, k + 1)
    if s_hi == 0 or s_mid == -s_hi:
        return mid, 2 * hi, k + 1
    return 2 * lo, mid, k + 1


def _integer_roots(poly):
    """The integer roots, ascending, of a squarefree monic integer
    polynomial: each real root's bracket is halved below width 1, so it
    holds at most one integer, floor(hi / 2^k), which is tested exactly."""
    found = []
    for bracket in _root_brackets(poly):
        while bracket[1] - bracket[0] >= 1 << bracket[2]:
            bracket = _halve(poly, bracket)
        lo, hi, k = bracket
        n = hi >> k
        if n << k > lo and _sign_at(poly, n, 0) == 0:
            found.append(n)
    return found


@functools.lru_cache(maxsize=None)
def _real_roots(coeffs, precision_bits):
    """The four real roots, descending, at precision_bits; cached by
    (coeffs, precision_bits), so no field is kept alive.  Before any root
    is sought, NotCyclicError unless the trace matrix is positive definite,
    that is (Sylvester), unless its leading minors are > 0: by Hermite the
    trace form has signature (r1 + r2, r2) when the roots are distinct,
    and det M = disc f = 0 when they are not (M, disc f and the leading
    3 x 3 minor, adj(M)[3][3], from trace_form).  Then the polynomial has
    exactly four brackets (_root_brackets, computed once per polynomial),
    each refined to the precision by _newton."""
    _, mat, disc, adj = trace_form(coeffs)
    minors = [_det(tuple(row[:2] for row in mat[:2])), adj[3][3], disc]
    if minors[-1] == 0:
        raise NotCyclicError("defining polynomial has a repeated root")
    if min(minors) <= 0:
        raise NotCyclicError("defining polynomial is not totally real")
    return tuple(_newton(coeffs, b, precision_bits)
                 for b in reversed(_root_brackets(coeffs)))


# bits beyond the target that Newton's last iterate carries, relative to
# max(|x|, 1), so that rounding it to the target rarely depends on them
GUARD_BITS = 32


def _newton(coeffs, bracket, precision_bits):
    """The root in a bracket, rounded once to precision_bits + 16 bits: a
    bracket narrower than that is itself the root, read at its midpoint;
    else the proven limit of Newton's method (_newton_limit) from its
    midpoint.  A failed attempt halves the bracket (_halve) and Newton
    restarts."""
    target = precision_bits + 16
    while True:
        lo, hi, k = bracket
        if (hi - lo) << (target + 8) <= max(abs(lo + hi) >> 1, 1 << k):
            limit = lo + hi, k + 1
        else:
            limit = _newton_limit(coeffs, bracket, target, (lo + hi, k + 1))
        if limit:
            with mpf_ctx(precision_bits):
                return +mpmath.ldexp(limit[0], -limit[1])
        bracket = _halve(coeffs, bracket)


def _newton_limit(coeffs, bracket, target, start):
    """Newton's method on dyadics x = n / 2^j from start = (n, j), j > k,
    in exact integers: with F = 2^(4j) f(x) and D = 2^(3j) f'(x), the next
    iterate is n' = ((n D - F) << (j' - j)) // D.  A step of about
    2^-r max(|x|, 1) shows x right to about r bits and x' to about 2r, so
    j' doubles those bits, never falls, and stops at target + GUARD_BITS
    bits relative to max(|x|, 1); a step below 2^-(target + 8) max(|x|, 1)
    is the last, taken there.

    Returns (n, j) when f vanishes or changes sign, exactly, between the
    dyadics x - delta and min(x + delta, hi), with delta =
    2^(m - target - 6), |x| < 2^m, m >= 0, and lo < x - delta: then the
    bracket's only root lies within delta of x.  Returns (hi, k) when
    f(hi) = 0, as an integer root lands on its bracket's upper end, which
    Newton from below may overshoot.  None, for the caller to halve the
    bracket, at an iterate outside (lo, hi], at f'(x) = 0, at a step no
    shorter than the one before, or at a limit not so proven."""
    lo, hi, k = bracket
    if not _value_at(coeffs, hi, k):
        return hi, k
    deriv = tuple(i * c for i, c in enumerate(coeffs))[1:]
    (num, j), last = start, None
    while True:
        val, slope = _value_at(coeffs, num, j), _value_at(deriv, num, j)
        if not slope:
            return None
        m = max(abs(num).bit_length() - j, 0)
        cap = target + GUARD_BITS - m
        bits = j + m + slope.bit_length() - val.bit_length()
        done = not val or bits > target + 8
        new_j = max(j, cap if done else min(cap, 2 * bits - m))
        new = ((num * slope - val) << (new_j - j)) // slope
        step = abs(new - (num << (new_j - j)))
        if (not lo << (new_j - k) < new <= hi << (new_j - k)
                or last and step << last[1] >= last[0] << new_j):
            return None
        num, j, last = new, new_j, (step, new_j)
        if done:
            break
    m = max(abs(num).bit_length() - j, 0)
    scale = max(k, j, target + 6 - m)
    mid, delta = num << (scale - j), 1 << (m - target - 6 + scale)
    low, high = mid - delta, min(mid + delta, hi << (scale - k))
    if (lo << (scale - k) < low < high
            and _sign_at(coeffs, low, scale) * _sign_at(coeffs, high, scale)
            <= 0):
        return num, j
    return None


def _det(rows):
    """Determinant of a square integer matrix, by Laplace expansion along
    its first row."""
    if not rows:
        return 1
    return sum((-1) ** k * v * _det(tuple(r[:k] + r[k + 1:]
                                          for r in rows[1:]))
               for k, v in enumerate(rows[0]) if v)


def _adjugate(rows):
    """The adjugate of a symmetric integer matrix, so that
    rows adj = det(rows) I: symmetric too, adj[j][k] = adj[k][j] the (j, k)
    cofactor, so each of its n (n + 1) / 2 distinct cofactors is taken
    once."""
    n = len(rows)
    cof = {}
    for j in range(n):
        for k in range(j, n):
            cof[j, k] = cof[k, j] = (-1) ** (j + k) * _det(tuple(
                r[:k] + r[k + 1:] for i, r in enumerate(rows) if i != j))
    return tuple(tuple(cof[j, k] for k in range(n)) for j in range(n))


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
        return trace_form(self.coeffs)[0]

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
        # a Fraction is kept as it is: Fraction(Fraction) would build a
        # copy through the numbers.Rational check
        c = tuple(v if type(v) is Fraction else Fraction(v)
                  for v in self.coords)
        if len(c) != 4:
            raise ValueError("need 4 coordinates")
        object.__setattr__(self, "coords", c)

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
    """Field automorphism as one integer matrix: den * sigma(x) has the
    coordinates rows @ x, column j holding den * sigma(alpha^j), with
    den > 0 least (the gcd of den and the rows is 1).  root_perm, when
    known, maps each root index i to that of sigma(alpha) at root i."""

    def __init__(self, field, den, rows, root_perm=None):
        g = math.gcd(den, *itertools.chain(*rows))
        self.field, self.den, self.root_perm = field, den // g, root_perm
        self.rows = tuple(tuple(v // g for v in row) for row in rows)

    @classmethod
    def from_image(cls, field, image, root_perm=None):
        """The automorphism alpha -> image, image a root of f: with
        image = N/D, N integer coordinates, column j is D^(3-j) N^j, each
        the one before times N over D (exact: D^(4-j) divides it), on the
        field's integer table."""
        num, d = integer_coords(image.coords)
        cols = [(d ** 3, 0, 0, 0)]
        for _ in range(3):
            cols.append(tuple(v // d for v in mul_coords(cols[-1], num,
                                                         field.table)))
        return cls(field, d ** 3, tuple(zip(*cols)), root_perm)

    @property
    def image(self):
        return self(self.field.gen())

    def __call__(self, elem):
        x, e = integer_coords(elem.coords)
        return QuarticElem(self.field, tuple(
            Fraction(sum(m * v for m, v in zip(row, x)), self.den * e)
            for row in self.rows))

    def compose(self, other):
        """self after other: the product of the two integer matrices over
        the product of their denominators, reduced by its gcd."""
        return Automorphism(self.field, self.den * other.den, tuple(
            tuple(sum(a * b for a, b in zip(row, col))
                  for col in zip(*other.rows)) for row in self.rows))

    def is_identity(self):
        """sigma(alpha) = alpha: alpha generates the field."""
        return self.image == self.field.gen()


def galois_group(coeffs):
    """The Galois group of the monic integer quartic
    f = x^4 + a x^3 + b x^2 + c x + d, as "C4", "V4", "D4", "A4" or "S4",
    or None when f is reducible; exact, in integers.

    Reducible (Gauss: a factor may be taken monic with integer
    coefficients): disc f = 0, an integer root, or a factor
    (x^2 + p x + q)(x^2 + r x + s).  Then theta = q + s is an integer root
    of the resolvent cubic R(x) = x^3 - b x^2 + (ac - 4d) x
    - (a^2 d - 4bd + c^2), whose roots are r1 r2 + r3 r4 and its
    conjugates, and q, s are the roots of y^2 - theta y + d and p, r those
    of y^2 - a y + (b - theta); each integer root of R (_integer_roots;
    disc R = disc f, so R is squarefree) is tested that way, by exact
    division.  The integer roots of f and of R come from their brackets.

    Irreducible (Kappe & Warren, Amer. Math. Monthly 96, 1989): R with no
    rational root gives A4 when disc f is a square and S4 otherwise; three
    rational roots give V4; exactly one, r, gives C4 iff x^2 - r x + d and
    x^2 + a x + (b - r) both split over Q(sqrt(disc f)), and D4 otherwise.
    A quadratic with discriminant delta splits there iff delta or
    delta disc f is a rational square.
    """
    coeffs = tuple(coeffs)
    disc = trace_form(coeffs)[2]
    if disc == 0 or _integer_roots(coeffs):
        return None
    d, c, b, a, _ = coeffs
    thetas = _integer_roots((-(a * a * d - 4 * b * d + c * c), a * c - 4 * d,
                             -b, 1))
    for theta in thetas:  # the square roots of integers are integers
        sq_qs, sq_pr = (_rational_sqrt(theta * theta - 4 * d),
                        _rational_sqrt(a * a - 4 * (b - theta)))
        if sq_qs is not None and sq_pr is not None:
            q = (theta + sq_qs) // 2  # theta and sq_qs have one parity
            if any(_divides(coeffs, (q, (a + sign * sq_pr) // 2, 1))
                   for sign in (1, -1)):
                return None
    if not thetas:
        return "S4" if _rational_sqrt(disc) is None else "A4"
    if len(thetas) == 3:
        return "V4"
    (r,) = thetas
    splits = all(_rational_sqrt(delta) is not None
                 or _rational_sqrt(delta * disc) is not None
                 for delta in (r * r - 4 * d, a * a - 4 * (b - r)))
    return "C4" if splits else "D4"


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


def nearest_integer(t):
    """The integer nearest the mpf t, exactly: round() reads an mpf
    through a float."""
    return int(mpmath.nint(t))


def from_embeddings(field, values, powers):
    """The element c = adj(M) t / disc f of the field of the monic quartic
    f, M its trace matrix (trace_form), with t_j = sum_i values[i]
    powers[i][j] rounded to the nearest integer and powers[i] =
    (1, r, r^2, r^3) at a root r, in the ambient mpf arithmetic, summed
    in that order.

    If x lies in O_L and x(r_i) = values[i], then t_j, taken exactly,
    is Tr(x alpha^j) = sum_k M[j][k] x_k, an integer, since x alpha^j lies
    in O_L; so when each computed t_j is within 1/2 of it, M c = t and
    c = x exactly, coordinates with denominators included.  The caller
    proves that error bound (galois_generator) or checks c exactly
    (units.saturate)."""
    _, _, disc, adj = trace_form(field.coeffs)
    t = [nearest_integer(sum(v * pw[j] for v, pw in zip(values, powers)))
         for j in range(4)]
    return QuarticElem(field, tuple(
        Fraction(sum(a * v for a, v in zip(row, t)), disc) for row in adj))


def galois_generator(field):
    """An exact order-4 automorphism of a totally real cyclic quartic
    field.

    NotCyclicError only from the exact tests that precede the search: a
    reducible polynomial, whose quotient ring is not a field, or a Galois
    group other than C4 (galois_group), named in the message; then the
    roots' total reality (_real_roots).  For each 4-cycle perm of the
    roots, in lexicographic order, the candidate image c of alpha is
    from_embeddings of the values r_perm(i) at the roots r_i; the first
    candidate exactly verified as an automorphism of order 4 is returned.
    c is a root of f iff char_poly(c) = f: Cayley-Hamilton one way, f
    irreducible the other.  At the 4-cycle of sigma, sigma(alpha) takes
    those values and lies in Z[alpha].  The group is C4, so sigma exists:
    a search that verifies no candidate raises UnitSearchError, never
    NotCyclicError.

    Precision: every |r_i| < R = 1 + max |c_i| (Cauchy).  Each root at b
    bits is refined by Newton inside its bracket, proven within
    2^(m-b-22) <= R 2^-(b+21) of the bracket's root, |x| < 2^m
    (_newton_limit), and rounded to b + 16 bits, so it is off by at most
    R 2^-b.  Each product r_perm(i) r_i^j of at most 4 factors is then
    off by at most 4 R^4 2^-b to first order, and t_j, a sum of 4 of
    them, by 16 R^4 2^-b.  At b = 4 bitlength(R) + 64 >= 4 log2 R + 64
    that is below 2^-60, far below the 1/2 rounding needs.  b is the
    default working precision when that is higher, so that embeddings at
    it reuse the roots.
    """
    group = galois_group(field.coeffs)
    if group is None:
        raise NotCyclicError("defining polynomial is reducible")
    if group != "C4":
        raise NotCyclicError("defining polynomial has Galois group %s, not "
                             "C4: the field is not cyclic" % group)
    bits = max(4 * (1 + max(abs(c) for c in field.coeffs[:4])).bit_length()
               + 64, DEFAULT_PRECISION)
    roots = field.roots(bits)
    with mpf_ctx(bits):
        powers = [(1, r, r * r, r * r * r) for r in roots]
        for perm in FOUR_CYCLES:
            cand = from_embeddings(field, [roots[p] for p in perm], powers)
            if char_poly(cand) != field.coeffs[::-1]:
                continue
            tau = Automorphism.from_image(field, cand, perm)
            t2 = tau.compose(tau)
            if not t2.is_identity() and t2.compose(t2).is_identity():
                return tau
    raise UnitSearchError("no 4-cycle of the roots gave an order-4 "
                          "automorphism of the C4 field %s"
                          % (field.coeffs,))


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
    alpha, conj = field.gen(), field.sigma2.image
    y = qr_add(alpha, conj)
    if y.is_rational():  # then N_{L/k}(alpha) is not, as alpha has degree 4
        y = qr_mul(alpha, conj)
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
