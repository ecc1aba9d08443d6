import itertools
import math
import random
import warnings
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from unitlat.loglattice import (LogVector, cyclic_f, cyclic_lower_bounds,
                                cyclic_min, cyclic_wedge_rows,
                                klein_norm_closed, klein_wedge_rows, wedge2)
from unitlat.biquadratic import BiquadField
from unitlat.precision import mpf_ctx
from unitlat.quartic import QuarticElem
from unitlat import units as us
from unitlat.verifier import klein_field_report, load_default_catalog
from oracles import (SQUAREFREE_1000, brute_min_one_norm,
                     brute_norms, float_rows, klein_e_wedge, log_embed_cyclic,
                     log_embed_klein)


@pytest.fixture(scope="module")
def cyclic_logs():
    """(Q index, LOG(u_l), LOG(u0), LOG(sigma(u0))) of each shipped
    entry, embedded directly."""
    out = []
    for entry in load_default_catalog():
        ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d,
                                entry.u_l)
        u0 = QuarticElem(ctx.field, entry.u0)
        out.append((entry.Q_index,) + tuple(
            log_embed_cyclic(x) for x in (ctx.u_l_emb, u0,
                                          ctx.field.sigma(u0))))
    return out


@pytest.fixture(scope="module")
def klein25():
    struct = us.klein_unit_structure(2, 5)
    vecs = tuple(log_embed_klein(struct.field.lift_quad(u),
                                 order=("id",) + struct.fixers)
                 for u in struct.units)
    return struct, vecs


def test_log_vector_zero_sum_enforced():
    with pytest.raises(ValueError):
        LogVector((mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)),
                  "klein", 128)
    with pytest.raises(ValueError):
        LogVector((mpmath.mpf(0),) * 4, "bogus", 128)


def test_log_vector_zero_sum_checked_at_its_precision():
    # the check runs at the vector's precision_bits, not the ambient 53
    # bits: a rotated 128-bit LOG(u0) is accepted, and a vector summing to
    # zero only at 53 bits is refused as a 128-bit one
    for entry in load_default_catalog():
        ctx = us.cyclic_context(entry.coeffs, entry.quad_subfield_d,
                                entry.u_l)
        lv = log_embed_cyclic(QuarticElem(ctx.field, entry.u0))
        for r in range(1, 4):
            LogVector(lv.coords[r:] + lv.coords[:r], "cyclic", 128)
    coords = [mpmath.mpf(1) / 3, mpmath.mpf(2) / 7, mpmath.mpf(5) / 11]
    with pytest.raises(ValueError, match="sum to zero"):
        LogVector(tuple(coords + [-sum(coords)]), "klein", 128)


def test_log_embed_rejects_non_units():
    f = BiquadField(2, 5)
    with pytest.raises(ValueError):
        log_embed_klein(QuarticElem(f, (2, 0, 0, 0)))


def test_klein_log_patterns(klein25):
    # with sigma_i fixing the subfield of u_i, LOG(u_i) has + at id and at
    # sigma_i, - at the other two coordinates
    _, (l1, l2, l3) = klein25
    for i, lv in enumerate((l1, l2, l3)):
        signs = tuple(1 if c > 0 else -1 for c in lv.coords)
        expected = [-1, -1, -1, -1]
        expected[0] = 1
        expected[i + 1] = 1
        assert signs == tuple(expected)
        with mpmath.workprec(160):
            x = lv.coords[0]
            for c in lv.coords:
                assert abs(abs(c) - x) < mpmath.mpf(2) ** -100


def test_wedge_fixture_rows(klein25):
    # printed coordinate tables for the three E-wedges
    _, (l1, l2, l3) = klein25
    with mpmath.workprec(160):
        x1 = l2.coords[0] * l3.coords[0]
        x2 = l1.coords[0] * l3.coords[0]
        x3 = l1.coords[0] * l2.coords[0]
        rows = {
            "L2^L3": (wedge2(l2, l3),
                      (0, 0, 2 * x1, 2 * x1, -2 * x1, -2 * x1)),
            "L1^L3": (wedge2(l1, l3),
                      (-2 * x2, -2 * x2, 2 * x2, -2 * x2, 0, 0)),
            "L1^L2": (wedge2(l1, l2),
                      (-2 * x3, 2 * x3, 0, 0, 2 * x3, -2 * x3)),
        }
        for name, (got, want) in rows.items():
            for g, w in zip(got.coords, want):
                assert abs(g - w) < mpmath.mpf(2) ** -100, name


def test_wedge_antisymmetry(klein25):
    _, (l1, l2, _) = klein25
    w = wedge2(l1, l2)
    wr = wedge2(l2, l1)
    for a, b in zip(w.coords, wr.coords):
        assert a + b == 0
    assert all(c == 0 for c in wedge2(l1, l1).coords)


def test_klein_closed_form_matches_direct(klein25):
    _, (l1, l2, l3) = klein25
    x1 = float(l2.coords[0] * l3.coords[0])
    x2 = float(l1.coords[0] * l3.coords[0])
    x3 = float(l1.coords[0] * l2.coords[0])
    basis = [wedge2(l2, l3), wedge2(l1, l3), wedge2(l1, l2)]
    for n1 in range(-5, 6):
        for n2 in range(-5, 6):
            for n3 in range(-5, 6):
                direct = float(sum(abs(n1 * basis[0].coords[k]
                                       + n2 * basis[1].coords[k]
                                       + n3 * basis[2].coords[k])
                                   for k in range(6)))
                closed = klein_norm_closed(n1, n2, n3, x1, x2, x3)
                assert abs(direct - closed) <= 1e-10 * max(1.0, direct)


def test_cyclic_closed_form_matches_direct():
    rng = random.Random(9)
    for _ in range(30):
        w1, w2, w3 = (rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
                      for _ in range(3))
        # explicit wedge rows in terms of (W1, W2, W3)
        y1 = w2 * w2 + w3 * w3
        y2, y3 = 2 * w1 * w2, 2 * w1 * w3
        y4, y5 = w1 * w2 + w1 * w3, w1 * w2 - w1 * w3
        rows = ((y4, -y4, y5, y5, -y2, y3),
                (-y5, y5, y4, y4, -y3, -y2),
                (-y1, -y1, y1, -y1, 0, 0))
        for _ in range(20):
            n = [rng.randint(-5, 5) for _ in range(3)]
            direct = sum(abs(sum(n[i] * rows[i][k] for i in range(3)))
                         for k in range(6))
            closed = cyclic_f(n[0], n[1], n[2], w1, w2, w3)
            assert abs(direct - closed) <= 1e-10 * max(1.0, direct)


def test_closed_forms_exact_on_fractions():
    # Fraction scalars give exact values equal to the direct 1-norm of the
    # rows
    rng = random.Random(11)
    for _ in range(20):
        q = rng.randint(1, 9)
        x = [Fraction(v, q) for v in sorted(rng.sample(range(1, 1000), 3),
                                            reverse=True)]
        w = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), q)
             for _ in range(3)]
        ns = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(20)]
        for rows, closed, args in ((klein_wedge_rows, klein_norm_closed, x),
                                   (cyclic_wedge_rows, cyclic_f, w)):
            basis = rows(*args)
            want = [sum(abs(sum(n[i] * basis[i][k] for i in range(3)))
                        for k in range(6)) for n in ns]
            got = [closed(*n, *args) for n in ns]
            assert got == want
            assert all(type(v) is Fraction for v in got)


def test_min_one_norm_against_brute_force(cyclic_logs):
    # cyclic_min on the shipped entries' W against brute force over the
    # wedges of their log vectors, for both lattice shapes
    for _, l_ul, l_u0, l_su0 in cyclic_logs:
        wedges = (wedge2(l_ul, l_u0), wedge2(l_ul, l_su0),
                  wedge2(l_u0, l_su0))
        ws = (l_ul.coords[0], l_u0.coords[0], l_su0.coords[0])
        for q_index in (1, 2):
            with mpf_ctx(128):
                value, argmin, certified = cyclic_min(*ws, q_index, 6)
            oracle = brute_min_one_norm(float_rows(w.coords for w in wedges),
                                        q_index, 6, parity_even=q_index == 2)
            assert abs(float(value) - oracle) < 1e-9
            assert certified and any(argmin)
            assert q_index == 1 or sum(argmin) % 2 == 0
            # argmin reproduces the reported value
            with mpmath.workprec(160):
                direct = sum(abs(sum(argmin[i] * wedges[i].coords[k]
                                     for i in range(3)))
                             for k in range(6)) / q_index
                assert abs(direct - value) < mpmath.mpf(2) ** -100


def assert_matches_full_box(w, q_index, bound):
    """cyclic_min on float W agrees with brute force over the whole box on
    cyclic_wedge_rows(W): value, lexicographically first near-minimal
    triple, and certification.  cyclic_f warns exactly when some W_i = 0."""
    with mpf_ctx(128), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, argmin, certified = cyclic_min(*w, q_index, bound)
    assert bool(caught) == (0 in w)
    rows = cyclic_wedge_rows(*w)
    norms = list(brute_norms(rows, q_index, bound, parity_even=q_index == 2))
    best = min(t for t, _ in norms)
    assert abs(float(value) - best) <= 1e-9 * best
    # float norms cannot rank near-ties: re-evaluate those within 1e-9
    # exactly on the rows of the exact rational W; argmin is the first
    # triple within 2^-72*max(min, 1) of their min, the tie rule of
    # cyclic_min at 128 + 16 bits
    near = [n for t, n in norms if t <= best * (1 + 1e-9) + 2.0 ** -70]
    exact_rows = cyclic_wedge_rows(*map(Fraction, w))
    exact = {n: sum(abs(sum(n[i] * exact_rows[i][k] for i in range(3)))
                    for k in range(6)) / q_index for n in near}
    low = min(exact.values())
    tol = Fraction(1, 2 ** 72) * max(low, 1)
    assert argmin == min(n for n in near if exact[n] <= low + tol)
    # certified iff min(c12, c3) * (bound + 1) / den >= value, and then
    # no triple in a wider box does better
    outside = float(min(cyclic_lower_bounds(*w))) * (bound + 1) / q_index
    if abs(outside - best) > 1e-6 * best:
        assert certified == (outside > best)
    if certified:
        wide = brute_min_one_norm(rows, q_index, bound + 3,
                                  parity_even=q_index == 2)
        assert wide >= best * (1 - 1e-9)


@settings(max_examples=60, deadline=None)
@given(w=st.tuples(*[st.floats(-4, 4) for _ in range(3)]),
       scales=st.tuples(*[st.sampled_from((1, 10, 300)) for _ in range(3)]),
       q_index=st.sampled_from((1, 2)), bound=st.integers(1, 3))
# (0, 0, -1) at 8 lies 8e-13 below (-1, 0, 0), which comes first
@example(w=(1.0000000000001, 1.0, 1.0), scales=(1, 1, 1), q_index=1,
         bound=1)
# exact ties at 8: (+-1, 0, 0), (0, +-1, 0) and (0, 0, +-1)
@example(w=(1.0, 1.0, 1.0), scales=(1, 1, 1), q_index=1, bound=2)
# W1 small against r: the n1, n2 radius reaches the bound
@example(w=(0.01, 3.0, 1.0), scales=(1, 1, 1), q_index=2, bound=3)
def test_min_one_norm_matches_full_box(w, scales, q_index, bound):
    w = tuple(c * s for c, s in zip(w, scales))
    assume(w[0] != 0 and (w[1] or w[2]))
    # the oracle's float rows must not underflow
    assume(all(c == 0 or abs(c) > 1e-6 for c in w))
    assert_matches_full_box(w, q_index, bound)


# (W, Q): W1 far below or above r, W2 near +-W3, one W tiny
SKEWED_SHAPES = [((0.05, 3.0, 1.0), 1), ((0.05, 3.0, 1.0), 2),
                 ((40.0, 0.3, 0.4), 2), ((2.0, 1.5, -1.5000001), 1),
                 ((1.0, 1e-3, 2.0), 2)]


@pytest.mark.parametrize("shape", SKEWED_SHAPES)
def test_min_one_norm_skewed_basis(shape):
    assert_matches_full_box(*shape, 6)


def test_min_one_norm_keeps_argmin_lost_to_cancellation():
    # W = (1, 1, -1 + e), e = 2^-60: in float W3 rounds to -1 and
    # y4 = W1*(W2 + W3) cancels to 0, so (+-1, 0, 0), (0, +-1, 0) and
    # (0, 0, +-1) all read 8 and a float scan returns (-1, 0, 0); in fact
    # those are 8 - 2e and (0, 0, -1) is 8 - 8e + 4e^2
    with mpf_ctx(128):
        e = mpmath.mpf(2) ** -60
        value, argmin, certified = cyclic_min(1, 1, e - 1, 1, 5)
        assert argmin == (0, 0, -1)
        assert value == 8 - 8 * e + 4 * e * e
    assert certified


@settings(max_examples=25, deadline=None)
@given(pair=st.lists(st.sampled_from(SQUAREFREE_1000), min_size=2,
                     max_size=2, unique=True))
def test_klein_lattice_rows_are_wedges(pair):
    # the basis built from the subfield regulators W_i equals wedge2 of the
    # log embeddings of the lifted units, at working precision
    struct = us.klein_unit_structure(*pair)
    order = ("id",) + struct.fixers
    l1, l2, l3 = (log_embed_klein(struct.field.lift_quad(u), order=order)
                  for u in struct.units)
    rows, _ = klein_e_wedge(struct)
    with mpmath.workprec(144):
        for got, want in zip(rows, (wedge2(l2, l3), wedge2(l1, l3),
                                    wedge2(l1, l2))):
            scale = max(abs(c) for c in want.coords)
            err = max(abs(g - w) for g, w in zip(got, want.coords))
            assert err <= mpmath.mpf(2) ** -120 * scale


def _dot(a, b):
    return sum(x * y for x, y in zip(a.coords, b.coords))


@settings(max_examples=25, deadline=None)
@given(pair=st.lists(st.sampled_from(SQUAREFREE_1000), min_size=2,
                     max_size=2, unique=True))
@example(pair=[2, 5])
def test_klein_report_minimum_is_sound(pair):
    # the report's closed-form minimum is what brute force finds on the
    # E-wedge lattice, and it is at least 2*X3
    struct, value, reports = klein_field_report(*pair)
    detail = reports[0].details
    rows, den = klein_e_wedge(struct)
    enum_value, enum_argmin = min(brute_norms(float_rows(rows), den, 3))
    assert tuple(detail["argmin"]) == enum_argmin == (0, 0, -1)
    assert detail["certified"] is True
    assert abs(float(value) - enum_value) <= 1e-12 * enum_value
    w1, w2, _ = struct.logs
    with mpmath.workprec(160):
        assert value >= 2 * w1 * w2 * (1 - mpmath.mpf(2) ** -120)
    # the wedges of the generators of O_L^* have den-integral coordinates
    # in the E-wedge basis, so their lattice lies inside the reported one
    # and its minimum is no smaller
    order = ("id",) + struct.fixers
    l1, l2, l3 = (log_embed_klein(struct.field.lift_quad(u), 192, order)
                  for u in struct.units)
    g1, g2, g3 = (log_embed_klein(g, 192, order)
                  for g in us.klein_generators(struct))
    e_rows = (wedge2(l2, l3), wedge2(l1, l3), wedge2(l1, l2))
    gen_wedges = (wedge2(g2, g3), wedge2(g1, g3), wedge2(g1, g2))
    with mpmath.workprec(208):
        for w in gen_wedges:
            for row in e_rows:  # the E-wedge rows are orthogonal
                c = den * _dot(w, row) / _dot(row, row)
                assert abs(c - mpmath.nint(c)) < mpmath.mpf(2) ** -100
    gen_value = brute_min_one_norm(float_rows(w.coords for w in gen_wedges),
                                   1, 3)
    assert gen_value >= float(value) * (1 - 1e-12)


@settings(max_examples=200, deadline=None)
@given(w=st.tuples(*[st.integers(-100, 100) for _ in range(3)]))
@example(w=(1, 1, 1))
@example(w=(1, 0, 1))
def test_cyclic_lower_bounds(w):
    # cyclic_min's box rests on f(n) >= c12*||(n1, n2)||_2 and
    # f(n) >= c3*|n3| for every n; f and both constants are homogeneous of
    # degree 2 in W, so integer W stand for rational ones.  W2 = 0 or
    # W3 = 0 is drawn too: cyclic_f warns exactly when some W_i = 0
    assume(w[0] != 0 and (w[1] or w[2]))
    c12, c3 = map(float, cyclic_lower_bounds(*w))
    slack = 1 - 1e-12
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n1, n2, n3 in itertools.product(range(-5, 6), repeat=3):
            f = cyclic_f(n1, n2, n3, *w)  # exact on integers
            assert f >= c3 * abs(n3) * slack
            assert f >= c12 * math.hypot(n1, n2) * slack
    assert bool(caught) == (0 in w)


def test_min_one_norm_radius_is_tight():
    # W = (2, 1, 1), Q = 2: the best value over the parity cube is 10, so
    # |n3| <= 10*2/(4*r^2) = 2.5, and the minimum 8 at (0, 0, -2) lies on
    # the boundary of that box
    with mpf_ctx(128):
        assert cyclic_min(2, 1, 1, 2, 6) == (8, (0, 0, -2), True)
    assert_matches_full_box((2.0, 1.0, 1.0), 2, 6)


def test_min_one_norm_certified_and_deterministic(cyclic_logs):
    # the shipped entries are certified from coeff_bound 1 on, and the
    # result does not depend on the bound once it is certified
    for q_index, l_ul, l_u0, _ in cyclic_logs:
        ws = (l_ul.coords[0], l_u0.coords[0], l_u0.coords[1])
        with mpf_ctx(128):
            results = [cyclic_min(*ws, q_index, b) for b in (1, 1, 2, 20)]
        assert all(r == results[0] for r in results)
        assert results[0][2] is True


def test_dependent_basis_rejected():
    # W1 = 0 zeroes the first two rows, W2 = W3 = 0 the third
    for w in ((0, 1, 2), (1, 0, 0)):
        with pytest.raises(ValueError, match="dependent"):
            cyclic_min(*w, 1, 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        cyclic_min(1, 1, 2, 3, 3)
    with pytest.raises(ValueError):
        cyclic_min(1, 1, 2, 1, 0)
