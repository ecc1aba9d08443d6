"""Logarithmic embeddings, exterior squares and minimal 1-norm search.

Coordinate conventions: log vectors are indexed by Galois elements,
(id, s1, s2, s3) for Klein fields and (id, s, s^2, s^3) for cyclic ones.
The 6 exterior-square coordinates follow the fixed basis order
  id^s1, s2^s3, id^s3, s1^s2, id^s2, s1^s3
(with s->s_k relabelled accordingly in the cyclic convention).
"""

import warnings
from dataclasses import dataclass

import mpmath
import numpy as np

from .precision import DEFAULT_PRECISION, mpf_ctx
from . import biquadratic, quartic

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


def log_embed_klein(x, precision_bits=DEFAULT_PRECISION,
                    order=biquadratic.GALOIS_KLEIN):
    """LOG of a unit of a biquadratic field; domain error on non-units.

    order lists the Galois elements occupying the four coordinates; pass
    the sorted-unit fixers to reproduce the labelling where s_i fixes the
    subfield of u_i.
    """
    if not biquadratic.is_unit(x):
        raise ValueError("log_embed requires a unit")
    if order[0] != "id" or sorted(order) != sorted(biquadratic.GALOIS_KLEIN):
        raise ValueError("order must list id first and all Galois elements")
    with mpf_ctx(precision_bits):
        emb = biquadratic.embed_real(x, precision_bits)
        native = dict(zip(biquadratic.GALOIS_KLEIN, emb))
        return LogVector(tuple(mpmath.log(abs(native[g])) for g in order),
                         "klein", precision_bits)


def log_embed_cyclic(x, precision_bits=DEFAULT_PRECISION):
    """LOG of a unit of a cyclic quartic field; domain error on non-units."""
    if not quartic.is_unit(x):
        raise ValueError("log_embed requires a unit")
    emb = quartic.embed_all(x, precision_bits)
    return orbit_log(x.field, emb, precision_bits)


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


def one_norm(w):
    return sum((abs(c) for c in w.coords), mpmath.mpf(0))


def two_norm(w):
    return mpmath.sqrt(sum((c * c for c in w.coords), mpmath.mpf(0)))


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


# The closed forms below take scalars (int, float, Fraction, mpf) or numpy
# arrays that broadcast together, so one call can cover a whole box of n.


def klein_norm_closed(n1, n2, n3, x1, x2, x3):
    """Closed form for the 1-norm of n1*L2^L3 + n2*L1^L3 + n3*L1^L2."""
    if not np.all((x1 > x2) & (x2 > x3) & (x3 > 0)):
        warnings.warn("expected X1 > X2 > X3 > 0 for a sorted Klein field",
                      stacklevel=2)
    t1, t2, t3 = np.abs(n1 * x1), np.abs(n2 * x2), np.abs(n3 * x3)
    return 4 * (np.maximum(t2, t3) + np.maximum(t1, t2) + np.maximum(t1, t3))


def cyclic_f(n1, n2, n3, w1, w2, w3):
    """Closed form for the 1-norm of the cyclic wedge combination."""
    if not np.all(w1 * w2 * w3):
        warnings.warn("W1, W2, W3 should be nonzero for a unit triple",
                      stacklevel=2)
    y1 = w2 * w2 + w3 * w3
    y2 = 2 * w1 * w2
    y3 = 2 * w1 * w3
    y4 = w1 * w2 + w1 * w3
    y5 = w1 * w2 - w1 * w3
    return (2 * np.maximum(np.abs(n1 * y4 - n2 * y5), np.abs(n3 * y1))
            + 2 * np.maximum(np.abs(n1 * y5 + n2 * y4), np.abs(n3 * y1))
            + np.abs(-n1 * y2 - n2 * y3) + np.abs(n1 * y3 - n2 * y2))


@dataclass(frozen=True)
class LatticeSpec:
    """Coefficient lattice (1/denominator) * {n in Z^3 : parity} over basis."""

    basis: tuple  # 3 Wedge2Vectors
    denominator: int = 1
    parity_constraint: str = None  # None | "even" (n1+n2+n3 even)

    def __post_init__(self):
        if len(self.basis) != 3:
            raise ValueError("need a rank-3 basis")
        if self.denominator not in (1, 2, 4):
            raise ValueError("denominator must be 1, 2 or 4")
        if self.parity_constraint not in (None, "even"):
            raise ValueError("unknown parity constraint %r"
                             % (self.parity_constraint,))


def gram_matrix(spec):
    b = spec.basis
    return [[sum((x * y for x, y in zip(b[i].coords, b[j].coords)),
                 mpmath.mpf(0)) for j in range(3)] for i in range(3)]


def _det3(g):
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


_GRAM_DET_MARGIN = 1e-24


def _lambda_min_lower_bound(gram):
    """Certified positive lower bound on the smallest Gram eigenvalue.

    Starts from a floating estimate, shrinks it slightly, and certifies
    G - mu*I positive definite by its leading principal minors at working
    precision (Sylvester).
    """
    gnp = np.array([[float(v) for v in row] for row in gram])
    est = float(np.linalg.eigvalsh(gnp)[0])
    if est <= 0:
        raise ValueError("dependent basis: Gram matrix not positive definite")
    mu = mpmath.mpf(est) * (1 - mpmath.mpf("1e-9"))
    for _ in range(60):
        g = [[gram[i][j] - (mu if i == j else 0) for j in range(3)] for i in range(3)]
        m1 = g[0][0]
        m2 = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if m1 > 0 and m2 > 0 and _det3(g) > 0:
            return mu
        mu = mu / 2
    raise ValueError("dependent basis: could not certify Gram positivity")


def min_one_norm(spec, coeff_bound):
    """Certified minimal 1-norm over nonzero admissible coefficient triples
    with max|n_i| <= coeff_bound.

    Returns (value: mpf, argmin: (n1, n2, n3), certified: bool); certified
    means no triple outside the box can beat the minimum (2-norm bound from
    the smallest Gram eigenvalue).
    Every triple has 1-norm >= sqrt(lambda_min)*max|n_i|/den, so only the
    box of half-width R = v0*den/sqrt(lambda_min), v0 an upper bound on the
    best admissible norm over {-1, 0, 1}^3, can hold near-minimal triples.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    gram = gram_matrix(spec)
    if _det3(gram) <= _GRAM_DET_MARGIN:
        raise ValueError("dependent basis: Gram determinant below margin")
    prec = spec.basis[0].precision_bits
    with mpf_ctx(prec):
        root_lam = mpmath.sqrt(_lambda_min_lower_bound(gram))

    bmat = np.array([[float(c) for c in v.coords] for v in spec.basis])
    # A float norm is within err(n) = 16u*sum_i |n_i| sum_j |b_ij|/den of
    # the true one, u = eps/2: rounding b costs u, the 3-term sums of
    # triples @ bmat 3u and the 6-term sum of |.| 5u, each relative to
    # sum_i |n_i| sum_j |b_ij| up to O(u^2) (the integers n are exact).
    row_err = 8 * np.finfo(float).eps * np.abs(bmat).sum(axis=1)

    def admissible_norms(radius):
        rng = np.arange(-radius, radius + 1)
        grid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1)
        triples = grid.reshape(-1, 3)
        mask = np.any(triples != 0, axis=1)
        if spec.parity_constraint == "even":
            mask &= triples.sum(axis=1) % 2 == 0
        triples = triples[mask]
        norms = np.abs(triples @ bmat).sum(axis=1) / spec.denominator
        return triples, norms, np.abs(triples) @ row_err / spec.denominator

    _, norms, err = admissible_norms(1)
    with mpf_ctx(prec):
        radius = int(mpmath.floor(mpmath.mpf((norms + err).min())
                                  * spec.denominator / root_lam))
    triples, norms, err = admissible_norms(max(1, min(coeff_bound, radius)))
    # keep every triple whose true norm can be at most the smallest
    # upper bound on a true norm in the box
    near = triples[norms - err <= (norms + err).min()]

    # re-evaluate the near-minimal triples at working precision
    def exact_norm(n):
        total = mpmath.mpf(0)
        for k in range(6):
            total += abs(sum(int(n[i]) * spec.basis[i].coords[k] for i in range(3)))
        return total / spec.denominator

    with mpf_ctx(prec):
        evals = sorted((exact_norm(n), tuple(int(v) for v in n)) for n in near)
        value, _ = evals[0]
        tol = mpmath.mpf(2) ** (-prec // 2) * max(value, mpmath.mpf(1))
        argmin = min(t for v, t in evals if v <= value + tol)

        outside = root_lam * (coeff_bound + 1) / spec.denominator
        certified = bool(outside >= value)
    return value, argmin, certified
