"""Independent reference answers for Klein fields Q(sqrt(d1), sqrt(d2)).

Shares no code with `unitlat`: quadratic fundamental units come from the
continued fraction of sqrt(d) (Pell) plus an exact cube-root test, and
every square-root decision is confirmed by integer arithmetic.

Square classes.  A square root of a unit is an algebraic integer, so its
coordinates in the basis 1, sqrt(d1), sqrt(d2), sqrt(d3) lie in Z/4, and
each coordinate is a signed sum of the four embeddings of the root, which
are the square roots of the embeddings of the unit.  Computing 4 * coords
for each of the 8 sign choices at a precision above the largest
embedding, rounding and squaring in integers therefore decides squareness
exactly: a square always yields a verified candidate, a non-square never
does.
"""

import itertools
import math
from fractions import Fraction

import mpmath

# Galois elements id, s1, s2, s3: sN fixes sqrt(dN).  FIXES[g][i] says
# whether g fixes sqrt(d_{i+1}).
FIXES = ((True, True, True), (True, False, False), (False, True, False),
         (False, False, True))


def squarefree(d):
    return d > 1 and all(d % (p * p) for p in range(2, math.isqrt(d) + 1))


def pell_unit(d):
    """Smallest (p, q) > 0 with p^2 - d q^2 = +-1, from the continued
    fraction of sqrt(d)."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    while p * p - d * q * q not in (1, -1):
        m = a * den - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


def fundamental_unit(d):
    """Fundamental unit (x + y sqrt(d)) / 2 > 1 of the maximal order of
    Q(sqrt(d)) as (x, y, norm).

    The Pell unit generates the units of Z[sqrt(d)]; for d = 1 mod 4 the
    maximal order's fundamental unit is it or its exact cube root.
    """
    p, q = pell_unit(d)
    x, y, norm = 2 * p, 2 * q, p * p - d * q * q
    if d % 4 == 1:
        bits = (p.bit_length() + q.bit_length()) // 3 + 64
        with mpmath.workprec(bits):
            eps = mpmath.cbrt(p + q * mpmath.sqrt(d))
            conj = norm / eps
            cx = int(mpmath.nint(eps + conj))
            cy = int(mpmath.nint((eps - conj) / mpmath.sqrt(d)))
        # ((cx + cy sqrt(d)) / 2)^3 = p + q sqrt(d), exactly
        if (cx - cy) % 2 == 0 and (cx ** 3 + 3 * cx * cy * cy * d,
                                   3 * cx * cx * cy + cy ** 3 * d) == (8 * p, 8 * q):
            x, y = cx, cy
    return x, y, norm


class KleinField:
    """Q(sqrt(d1), sqrt(d2)) with elements as integer 4-tuples over a
    common denominator: (X + Y sqrt(d1) + Z sqrt(d2) + W sqrt(d3)) / den."""

    def __init__(self, d1, d2):
        self.d1, self.d2 = d1, d2
        self.s = math.gcd(d1, d2)
        self.d3 = (d1 // self.s) * (d2 // self.s)
        self.ds = (d1, d2, self.d3)

    def mul(self, a, b):
        d1, d2, d3, s = self.d1, self.d2, self.d3, self.s
        r1, r2 = d1 // s, d2 // s
        ax, ay, az, aw = a
        bx, by, bz, bw = b
        return (ax * bx + d1 * ay * by + d2 * az * bz + d3 * aw * bw,
                ax * by + ay * bx + r2 * (az * bw + aw * bz),
                ax * bz + az * bx + r1 * (ay * bw + aw * by),
                ax * bw + aw * bx + s * (ay * bz + az * by))

    def lift(self, i, x, y):
        """(x + y sqrt(d_{i+1})) / 2 as a 4-tuple over denominator 2."""
        out = [x, 0, 0, 0]
        out[i + 1] = y
        return tuple(out)


def klein_truth(d1, d2):
    """Reference facts for `unitlat klein d1 d2`: subfield units sorted
    ascending, the square patterns over them, the index, and the minimal
    1-norm 8 log(u1) log(u2) / den of the package's lattice model."""
    field = KleinField(d1, d2)
    native = [fundamental_unit(d) + (i,) for i, d in enumerate(field.ds)]
    with mpmath.workprec(256):
        logs = [mpmath.log((x + y * mpmath.sqrt(d)) / 2)
                for (x, y, _, _), d in zip(native, field.ds)]
    order = sorted(range(3), key=lambda i: logs[i])
    gaps = [logs[order[k + 1]] - logs[order[k]] for k in range(2)]
    if min(gaps) < mpmath.mpf(2) ** -200:
        raise ArithmeticError("subfield units too close to order")
    units = [native[i] for i in order]
    patterns = [e for e in itertools.product((0, 1), repeat=3)
                if any(e) and is_square(field, units, e)]
    index = len(patterns) + 1
    den = {1: 1, 2: 2, 4: 4, 8: 4}[index]
    x3 = logs[order[0]] * logs[order[1]]
    return {
        "d3": field.d3,
        "units": [(Fraction(x, 2), Fraction(y, 2), field.ds[i])
                  for x, y, _, i in units],
        "sqrt_patterns": sorted(patterns),
        "index_over_E": index,
        "denominator": den,
        "min_1norm": float(8 * x3 / den),
    }


def is_square(field, units, e):
    """Decide whether u1^e1 u2^e2 u3^e3 is a square in the field."""
    chosen = [u for u, ei in zip(units, e) if ei]
    # embedding g of a unit is eps if g fixes its subfield, else norm/eps
    signs = [math.prod(1 if FIXES[g][i] else norm for _, _, norm, i in chosen)
             for g in range(4)]
    if any(s < 0 for s in signs):
        return False  # squares are totally positive
    eta, eta_den = (1, 0, 0, 0), 1
    for x, y, _, i in chosen:
        eta = field.mul(eta, field.lift(i, x, y))
        eta_den *= 2
    # |embedding| of the root: product of sqrt(eps)^(+-1); bound in bits
    top = sum(max(abs(x), abs(y)).bit_length() for x, y, _, _ in chosen)
    with mpmath.workprec(top + 96):
        roots = [mpmath.sqrt(d) for d in field.ds]
        sq = [mpmath.sqrt((x + y * roots[i]) / 2) for x, y, _, i in chosen]
        beta = [mpmath.fprod(v if FIXES[g][i] else 1 / v
                             for v, (_, _, _, i) in zip(sq, chosen))
                for g in range(4)]
        for s1, s2, s3 in itertools.product((1, -1), repeat=3):
            b = (beta[0], s1 * beta[1], s2 * beta[2], s3 * beta[3])
            raw = (b[0] + b[1] + b[2] + b[3],
                   (b[0] + b[1] - b[2] - b[3]) / roots[0],
                   (b[0] - b[1] + b[2] - b[3]) / roots[1],
                   (b[0] - b[1] - b[2] + b[3]) / roots[2])
            cand = tuple(int(mpmath.nint(v)) for v in raw)
            if any(abs(v - c) > 0.25 for v, c in zip(raw, cand)):
                continue
            # cand / 4 squared equals eta / eta_den, in integers
            if all(16 * a == eta_den * c for a, c in
                   zip(eta, field.mul(cand, cand))):
                return True
    return False
