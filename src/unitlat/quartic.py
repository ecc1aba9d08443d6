"""Power-basis arithmetic in cyclic quartic fields L = Q(alpha).

alpha is a root of a monic integer quartic with four real roots and
cyclic Galois group.  A generator sigma of the Galois group is recovered
once per field by matching root permutations numerically, rationally
reconstructing the image of alpha, and verifying the automorphism
exactly.  Everything else is exact in the tower L > k > Q, where
k = Q(sqrt(d)) is the fixed field of sigma^2 and sigma restricts to the
non-trivial automorphism of k.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .precision import mpf_ctx, reconstruct_rational
from .quadratic import _rational_sqrt

_AUT_PRECISION = 192
_AUT_DENOM_BOUND = 10 ** 12


class NotCyclicError(ValueError):
    """Defining polynomial is not a totally real cyclic quartic."""


_ROOTS_CACHE = {}


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

    def roots(self, precision_bits=_AUT_PRECISION):
        """Real roots, descending; index 0 is the chosen id-embedding.
        Cached per (polynomial, precision): embeddings are hot paths."""
        key = (self.coeffs, precision_bits)
        cached = _ROOTS_CACHE.get(key)
        if cached is not None:
            return cached
        with mpf_ctx(precision_bits):
            poly = [mpmath.mpf(1)] + [mpmath.mpf(c) for c in self.coeffs[3::-1]]
            rts = mpmath.polyroots(poly, maxsteps=200, extraprec=precision_bits)
            if any(abs(mpmath.im(r)) > mpmath.mpf(2) ** (-precision_bits // 2)
                   for r in rts):
                raise NotCyclicError("defining polynomial is not totally real")
            out = sorted((mpmath.re(r) for r in rts), reverse=True)
        _ROOTS_CACHE[key] = out
        return out


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

    def to_json(self):
        return [str(c) for c in self.coords]

    @classmethod
    def from_json(cls, field, obj):
        return cls(field, tuple(Fraction(c) for c in obj))


def qr_add(a, b):
    _same(a, b)
    return QuarticElem(a.field, tuple(x + y for x, y in zip(a.coords, b.coords)))


def qr_neg(a):
    return QuarticElem(a.field, tuple(-x for x in a.coords))


def qr_mul(a, b):
    _same(a, b)
    c0, c1, c2, c3 = a.field.coeffs[:4]
    prod = [Fraction(0)] * 7
    for i, x in enumerate(a.coords):
        if x:
            for j, y in enumerate(b.coords):
                prod[i + j] += x * y
    # reduce degrees 6..4 using a^4 = -(c3 a^3 + c2 a^2 + c1 a + c0)
    for deg in (6, 5, 4):
        v = prod[deg]
        if v:
            prod[deg] = Fraction(0)
            prod[deg - 1] -= c3 * v
            prod[deg - 2] -= c2 * v
            prod[deg - 3] -= c1 * v
            prod[deg - 4] -= c0 * v
    return QuarticElem(a.field, tuple(prod[:4]))


def qr_pow(a, k):
    if k < 0:
        return qr_pow(qr_inv(a), -k)
    r = a.field.one()
    base = a
    while k:
        if k & 1:
            r = qr_mul(r, base)
        base = qr_mul(base, base)
        k >>= 1
    return r


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


def qr_inv(a):
    """1/a = sigma^2(a) sigma(N_{L/k}(a)) / N_{L/Q}(a)."""
    if a.is_zero():
        raise ZeroDivisionError("zero element has no inverse")
    sigma_n = a.field.sigma(_relative_norm(a))
    cofactor = qr_mul(a.field.sigma2(a), sigma_n)
    n = qr_mul(a, cofactor).rational_value()
    return QuarticElem(a.field, tuple(c / n for c in cofactor.coords))


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

    def is_identity(self):
        return self.image == self.field.gen()


def _reconstruct_elem(field, roots, values, denom_bound):
    """Solve Vandermonde(roots) * c = values and reconstruct rational c."""
    n = len(roots)
    mat = mpmath.matrix([[roots[i] ** k for k in range(n)] for i in range(n)])
    vec = mpmath.matrix(values)
    sol = mpmath.lu_solve(mat, vec)
    return QuarticElem(field, tuple(reconstruct_rational(sol[i], denom_bound)
                                    for i in range(n)))


def quartic_is_irreducible(coeffs):
    """Exact irreducibility over Q for a monic integer quartic: no integer
    roots, no monic integer quadratic factors (Gauss)."""
    c0, c1, c2, c3, _ = coeffs
    if c0 == 0:
        return False
    for r in _divisors(abs(c0)):
        for root in (r, -r):
            if ((root ** 4) + c3 * root ** 3 + c2 * root ** 2
                    + c1 * root + c0) == 0:
                return False
    for b in _divisors(abs(c0)):
        for bb in (b, -b):
            dd = c0 // bb
            # (x^2+ax+bb)(x^2+cx+dd): a+c = c3, ac = c2-bb-dd, a*dd+c*bb = c1
            s, prod = c3, c2 - bb - dd
            sq = _rational_sqrt(s * s - 4 * prod)
            if sq is None or (s + sq) % 2 != 0:
                continue
            for a in {(s + sq) // 2, (s - sq) // 2}:
                c = s - a
                if a * dd + c * bb == c1:
                    return False
    return True


def _divisors(n):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.extend((i, n // i))
        i += 1
    return sorted(set(out))


def galois_generator(field):
    """An exact order-4 automorphism, or raise NotCyclicError.

    Refuses reducible polynomials, whose quotient ring is not a field.
    Tries every root permutation fixing no root, reconstructs the image of
    alpha, and keeps the first exactly-verified generator.  Deterministic:
    permutations are tried in lexicographic order over root indices.
    """
    import itertools

    if not quartic_is_irreducible(field.coeffs):
        raise NotCyclicError("defining polynomial is reducible")
    with mpf_ctx(_AUT_PRECISION):
        roots = field.roots(_AUT_PRECISION)
        for j in range(1, 4):
            rest = [k for k in range(4) if k != j]
            for tail in itertools.permutations(rest):
                perm = (j,) + tail
                try:
                    cand = _reconstruct_elem(
                        field, roots, [roots[perm[i]] for i in range(4)],
                        _AUT_DENOM_BOUND)
                except (ZeroDivisionError, ValueError):
                    continue
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


def embed_all(a, precision_bits=128):
    """Values of a at the four real roots (descending root order)."""
    with mpf_ctx(precision_bits):
        roots = a.field.roots(precision_bits)

        def frac(v):
            return mpmath.mpf(v.numerator) / v.denominator

        out = []
        for r in roots:
            out.append(frac(a.coords[0]) + frac(a.coords[1]) * r
                       + frac(a.coords[2]) * r ** 2 + frac(a.coords[3]) * r ** 3)
        return tuple(out)
