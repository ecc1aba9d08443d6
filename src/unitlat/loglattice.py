"""Logarithmic embeddings, exterior squares and their minimal 1-norms.

Coordinate conventions: log vectors are indexed by Galois elements,
(id, s1, s2, s3) for Klein fields and (id, s, s^2, s^3) for cyclic ones.
The 6 exterior-square coordinates follow the fixed basis order
  id^s1, s2^s3, id^s3, s1^s2, id^s2, s1^s3
(with s->s_k relabelled accordingly in the cyclic convention).
"""

import itertools
import warnings
from dataclasses import dataclass

import mpmath

from .precision import mpf_ctx

# index pairs of the wedge basis, identical for both conventions
WEDGE_PAIRS = ((0, 1), (2, 3), (0, 3), (1, 2), (0, 2), (1, 3))

@dataclass(frozen=True)
class LogVector:
    coords: tuple  # 4 mpfs
    convention: str  # "klein" | "cyclic"
    precision_bits: int

    def __post_init__(self):
        if self.convention not in ("klein", "cyclic"):
            raise ValueError("unknown convention %r" % (self.convention,))
        with mpf_ctx(self.precision_bits):
            tol = 4 * mpmath.mpf(2) ** (-self.precision_bits + 8)
            scale = max([abs(c) for c in self.coords] + [mpmath.mpf(1)])
            if abs(sum(self.coords, mpmath.mpf(0))) > tol * scale:
                raise ValueError("log vector of a unit must sum to zero")


@dataclass(frozen=True)
class Wedge2Vector:
    coords: tuple  # 6 mpfs
    convention: str
    precision_bits: int


def orbit_log(field, emb, precision_bits):
    """LOG of a cyclic quartic unit x, which the caller has proven a unit,
    from its values emb at the roots (quartic.embed_all): coordinates
    ordered by id, sigma, sigma^2, sigma^3 (each image taken in the
    id-embedding), coordinate k being log|x| at root p_k of the field's
    sigma-orbit."""
    with mpf_ctx(precision_bits):
        return LogVector(tuple(mpmath.log(abs(emb[p]))
                               for p in field.root_orbit),
                         "cyclic", precision_bits)


def log_sigma(lv):
    """LOG(sigma(x)) from the cyclic LOG(x): sigma^k(sigma(x)) at id is x
    at root p_(k+1), so the coordinates shift one step along the orbit."""
    return LogVector(lv.coords[1:] + lv.coords[:1], "cyclic",
                     lv.precision_bits)


def wedge2(a, b):
    if a.convention != b.convention or a.precision_bits != b.precision_bits:
        raise ValueError("wedge of vectors in different conventions")
    with mpf_ctx(a.precision_bits):
        c = tuple(a.coords[i] * b.coords[j] - a.coords[j] * b.coords[i]
                  for i, j in WEDGE_PAIRS)
    return Wedge2Vector(c, a.convention, a.precision_bits)


def klein_wedge_rows(x1, x2, x3):
    """Coordinates of L2^L3, L1^L3, L1^L2 for the sorted subfield units,
    with X1 = W2*W3, X2 = W1*W3, X3 = W1*W2 and W_i = LOG(u_i)[id]."""
    return (
        (0, 0, 2 * x1, 2 * x1, -2 * x1, -2 * x1),
        (-2 * x2, -2 * x2, 2 * x2, -2 * x2, 0, 0),
        (-2 * x3, 2 * x3, 0, 0, 2 * x3, -2 * x3),
    )


def cyclic_wedge_rows(w1, w2, w3):
    """Coordinates of LOG(u_l)^LOG(u0), LOG(u_l)^LOG(sigma u0) and
    LOG(u0)^LOG(sigma u0), with (W1, W2, W3) the id-coordinates of
    LOG(u_l), LOG(u0) and LOG(sigma u0)."""
    y1 = w2 * w2 + w3 * w3
    y2 = 2 * w1 * w2
    y3 = 2 * w1 * w3
    y4 = w1 * w2 + w1 * w3
    y5 = w1 * w2 - w1 * w3
    return (
        (y4, -y4, y5, y5, -y2, y3),
        (-y5, y5, y4, y4, -y3, -y2),
        (-y1, -y1, y1, -y1, 0, 0),
    )


# The closed forms below take scalars: int, float, Fraction or mpf.


def klein_norm_closed(n1, n2, n3, x1, x2, x3):
    """Closed form for the 1-norm of n1*L2^L3 + n2*L1^L3 + n3*L1^L2."""
    if not x1 > x2 > x3 > 0:
        warnings.warn("expected X1 > X2 > X3 > 0 for a sorted Klein field",
                      stacklevel=2)
    t1, t2, t3 = abs(n1 * x1), abs(n2 * x2), abs(n3 * x3)
    return 4 * (max(t2, t3) + max(t1, t2) + max(t1, t3))


def cyclic_f(n1, n2, n3, w1, w2, w3):
    """Closed form for the 1-norm of the cyclic wedge combination."""
    return _cyclic_closed_form(w1, w2, w3)(n1, n2, n3)


def _cyclic_closed_form(w1, w2, w3):
    """cyclic_f as a function of n at fixed W: y1 .. y5 are computed once."""
    if not w1 * w2 * w3:
        warnings.warn("W1, W2, W3 should be nonzero for a unit triple",
                      stacklevel=3)
    y1 = w2 * w2 + w3 * w3
    y2 = 2 * w1 * w2
    y3 = 2 * w1 * w3
    y4 = w1 * w2 + w1 * w3
    y5 = w1 * w2 - w1 * w3

    def f(n1, n2, n3):
        return (2 * max(abs(n1 * y4 - n2 * y5), abs(n3 * y1))
                + 2 * max(abs(n1 * y5 + n2 * y4), abs(n3 * y1))
                + abs(-n1 * y2 - n2 * y3) + abs(n1 * y3 - n2 * y2))
    return f


def cyclic_lower_bounds(w1, w2, w3):
    """(c12, c3) with cyclic_f(n; W) >= c12*||(n1, n2)||_2 and
    cyclic_f(n; W) >= c3*|n3| for every integer n, at the current mpmath
    precision: c12 = 2*(1 + sqrt(2))*|W1|*r and c3 = 4*r^2, with
    r^2 = W2^2 + W3^2 = y1.

    - c3: both maxima in cyclic_f are >= |n3|*y1.
    - c12: the pairs (n1*y4 - n2*y5, n1*y5 + n2*y4) and
      (n1*y2 + n2*y3, n1*y3 - n2*y2) are (n1, n2) turned by an orthogonal
      map and scaled by |(y4, y5)| = sqrt(2)*|W1|*r and
      |(y2, y3)| = 2*|W1|*r, and |A| + |B| >= sqrt(A^2 + B^2).
    """
    r = mpmath.sqrt(w2 * w2 + w3 * w3)
    return 2 * (1 + mpmath.sqrt(2)) * abs(w1) * r, 4 * r * r


def cyclic_min(w1, w2, w3, q_index, coeff_bound):
    """Minimal 1-norm of the cyclic wedge lattice over nonzero admissible
    n with max|n_i| <= coeff_bound, at the current mpmath precision.

    The lattice is (1/den) times the integer span of cyclic_wedge_rows(W1,
    W2, W3): den = 1 for Q = 1, den = 2 with n1 + n2 + n3 even for Q = 2.
    Returns (value, argmin, certified).  argmin is the lexicographically
    least triple within 2^(-prec/2)*max(value, 1) of the minimum, and
    certified means no triple outside the box can do better.

    By cyclic_lower_bounds, a triple of value at most v has
    |n1|, |n2| <= v*den/c12 and |n3| <= v*den/c3.  With v the best value
    over {-1, 0, 1}^3 widened by the tie tolerance, that box, capped at
    coeff_bound, holds the minimum and every triple that ties with it.
    A triple with some |n_i| > coeff_bound has value at least
    min(c12, c3)*(coeff_bound + 1)/den.
    """
    if q_index not in (1, 2):
        raise ValueError("Q index must be 1 or 2")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    w1, w2, w3 = (mpmath.mpf(w) for w in (w1, w2, w3))
    c12, c3 = cyclic_lower_bounds(w1, w2, w3)
    if not c12:
        raise ValueError("dependent basis: W1 = 0 or W2 = W3 = 0")
    den = q_index
    slack = mpmath.mpf(2) ** (-mpmath.mp.prec // 2)
    f = _cyclic_closed_form(w1, w2, w3)

    def evaluate(radii):
        axes = (range(-k, k + 1) for k in radii)
        # n1 + n2 + n3 even when den = 2
        n = [t for t in itertools.product(*axes)
             if any(t) and sum(t) % den == 0]
        return n, [f(*t) / den for t in n]

    box = (1, 1, 1)
    n, values = evaluate(box)
    v0 = min(values)
    reach = (v0 + slack * max(v0, 1)) * den
    radii = tuple(max(1, min(coeff_bound, int(reach / c)))
                  for c in (c12, c12, c3))
    if radii != box:
        n, values = evaluate(radii)
    value = min(values)
    tol = slack * max(value, 1)
    argmin = min(t for t, v in zip(n, values) if v <= value + tol)
    certified = bool(min(c12, c3) * (coeff_bound + 1) / den >= value)
    return value, argmin, certified
