import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from unitlat.loglattice import (LatticeSpec, LogVector, Wedge2Vector,
                                WEDGE_PAIRS, cyclic_f, cyclic_wedge_rows,
                                gram_matrix, klein_norm_closed,
                                klein_wedge_rows, log_embed_cyclic,
                                log_embed_klein, min_one_norm, wedge2)
from unitlat.biquadratic import BiquadField
from unitlat.precision import mpf_ctx
from unitlat.quartic import QuarticElem
from unitlat.quadratic import fundamental_unit
from unitlat import units as us
from unitlat.verifier import klein_field_report, load_default_catalog
from oracles import (SQUAREFREE_1000, brute_min_one_norm, brute_norms,
                     float_rows, klein_spec)


@pytest.fixture(scope="module")
def klein25():
    struct = us.klein_unit_structure(2, 5)
    vecs = tuple(log_embed_klein(struct.field.lift_quad(u),
                                 order=struct.galois_order())
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
        log_embed_klein(f.from_rational(2))


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


def test_closed_forms_exact_on_fractions_and_arrays():
    # Fraction scalars give exact values equal to the direct 1-norm of the
    # rows; numpy arrays of n give the same values elementwise
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
            assert list(closed(*np.array(ns).T, *args)) == want


def test_min_one_norm_against_brute_force(klein25):
    struct, (l1, l2, l3) = klein25
    basis = (wedge2(l2, l3), wedge2(l1, l3), wedge2(l1, l2))
    for den, parity in ((1, None), (2, None), (2, "even"), (4, None)):
        spec = LatticeSpec(basis, denominator=den, parity_constraint=parity)
        value, argmin, certified = min_one_norm(spec, 6)
        oracle = brute_min_one_norm(float_rows(spec), den, 6,
                                    parity_even=(parity == "even"))
        assert abs(float(value) - oracle) < 1e-9
        assert any(argmin)
        # argmin reproduces the reported value
        with mpmath.workprec(160):
            direct = sum(abs(sum(argmin[i] * spec.basis[i].coords[k]
                                 for i in range(3))) for k in range(6)) / den
            assert abs(direct - value) < mpmath.mpf(2) ** -60


def gram_eigenvalues(spec):
    rows = np.array(float_rows(spec))
    return np.linalg.eigvalsh(rows @ rows.T)


def assert_matches_full_box(spec, bound):
    """min_one_norm agrees with brute force over the whole box: value,
    lexicographically first near-minimal triple, and certification."""
    value, argmin, certified = min_one_norm(spec, bound)
    rows = float_rows(spec)
    norms = list(brute_norms(rows, spec.denominator, bound,
                             parity_even=spec.parity_constraint == "even"))
    best = min(t for t, _ in norms)
    assert abs(float(value) - best) <= 1e-9 * best
    # float norms cannot rank near-ties: re-evaluate those within 1e-9 at
    # 160 bits; argmin is the first triple within 2^-64 of their min, the
    # tie rule of min_one_norm at 128 bits
    near = [n for t, n in norms if t <= best * (1 + 1e-9)]
    with mpmath.workprec(160):
        exact = {n: sum(abs(sum(n[i] * spec.basis[i].coords[k]
                                for i in range(3))) for k in range(6))
                 / spec.denominator for n in near}
        low = min(exact.values())
        tol = mpmath.mpf(2) ** -64 * max(low, 1)
        assert argmin == min(n for n in near if exact[n] <= low + tol)
    # certified iff sqrt(lambda_min) * (bound + 1) / den >= value
    outside = (float(np.sqrt(gram_eigenvalues(spec)[0]))
               * (bound + 1) / spec.denominator)
    if abs(outside - best) > 1e-6 * best:
        assert certified == (outside > best)


LATTICE_SHAPES = [(1, None), (2, None), (2, "even"), (4, None), (1, "even")]


@settings(max_examples=40, deadline=None)
@given(logs=st.lists(st.tuples(*[st.floats(-4, 4) for _ in range(3)]),
                     min_size=3, max_size=3),
       scales=st.tuples(*[st.sampled_from((1, 10, 300)) for _ in range(3)]),
       shape=st.sampled_from(LATTICE_SHAPES), bound=st.integers(1, 5))
# exact argmin (-1, 0, 1) at 18.999999999997, 2e-12 below (-1, 0, -1)
@example(logs=[(0.0, -2.0, 0.0), (-1.0, 0.0, -0.999999999999),
               (0.0, 0.0, 1.0)], scales=(1, 1, 10), shape=(2, "even"),
         bound=1)
# a well-conditioned basis of small scale: Gram determinant 8e-25
@example(logs=[(0.0, 0.0, 0.0078125), (0.0, 0.0078125, 0.0),
               (0.0078125, 0.0, 0.0)], scales=(1, 1, 1), shape=(1, None),
         bound=1)
def test_min_one_norm_matches_full_box(logs, scales, shape, bound):
    vecs = []
    with mpf_ctx(128):
        for log, scale in zip(logs, scales):
            coords = [mpmath.mpf(c) * scale for c in log]
            vecs.append(LogVector(tuple(coords + [-sum(coords)]), "klein",
                                  128))
    l1, l2, l3 = vecs
    spec = LatticeSpec((wedge2(l2, l3), wedge2(l1, l3), wedge2(l1, l2)),
                       denominator=shape[0], parity_constraint=shape[1])
    eig = gram_eigenvalues(spec)
    assume(eig[0] > 1e-6 * eig[-1])
    assert_matches_full_box(spec, bound)


@pytest.mark.parametrize("shape", LATTICE_SHAPES)
def test_min_one_norm_skewed_basis(shape):
    # Q(sqrt2, sqrt661): subfield regulators 0.88, 11.0 and 14.4
    spec = klein_spec(us.klein_unit_structure(2, 661))
    spec = LatticeSpec(spec.basis, denominator=shape[0],
                       parity_constraint=shape[1])
    assert_matches_full_box(spec, 6)


def test_min_one_norm_keeps_argmin_lost_to_cancellation():
    # row 1 minus row 0 is (-1 - 1.5e-9, 0, ...), but 3e7 + 1 + 1.5e-9
    # rounds to 3e7 + 1 in float, so its float norm is exactly 1 and a
    # fixed relative slack drops the true argmin (0, 0, -1), 1 + 1.2e-9
    m = mpmath.mpf(3) * 10 ** 7
    with mpmath.workprec(144):
        rows = ((m + 1 + mpmath.mpf("1.5e-9"), 0, m, 0, 0, 0),
                (m, 0, m, 0, 0, 0),
                (0, 1 + mpmath.mpf("1.2e-9"), 0, 0, 0, 0))
        spec = LatticeSpec(tuple(Wedge2Vector(tuple(mpmath.mpf(c) for c in r),
                                              "klein", 128) for r in rows))
    value, argmin, certified = min_one_norm(spec, 5)
    assert argmin == (0, 0, -1)
    with mpmath.workprec(144):
        assert abs(value - (1 + mpmath.mpf("1.2e-9"))) < mpmath.mpf(2) ** -100
    assert certified


@settings(max_examples=25, deadline=None)
@given(pair=st.lists(st.sampled_from(SQUAREFREE_1000), min_size=2,
                     max_size=2, unique=True))
def test_klein_lattice_rows_are_wedges(pair):
    # the basis built from the subfield regulators W_i equals wedge2 of the
    # log embeddings of the lifted units, at working precision
    struct = us.klein_unit_structure(*pair)
    order = struct.galois_order()
    l1, l2, l3 = (log_embed_klein(struct.field.lift_quad(u), order=order)
                  for u in struct.units)
    spec = klein_spec(struct)
    with mpmath.workprec(144):
        for got, want in zip(spec.basis, (wedge2(l2, l3), wedge2(l1, l3),
                                          wedge2(l1, l2))):
            scale = max(abs(c) for c in want.coords)
            err = max(abs(g - w) for g, w in zip(got.coords, want.coords))
            assert err <= mpmath.mpf(2) ** -120 * scale


def _dot(a, b):
    return sum(x * y for x, y in zip(a.coords, b.coords))


@settings(max_examples=25, deadline=None)
@given(pair=st.lists(st.sampled_from(SQUAREFREE_1000), min_size=2,
                     max_size=2, unique=True))
@example(pair=[2, 5])
def test_klein_report_minimum_is_sound(pair):
    # the report's closed-form minimum is what min_one_norm enumerates on
    # the E-wedge lattice, and it is at least 2*X3
    struct, value, reports = klein_field_report(*pair)
    detail = reports[0].details
    spec = klein_spec(struct)
    enum_value, enum_argmin, enum_certified = min_one_norm(spec, 20)
    assert tuple(detail["argmin"]) == enum_argmin == (0, 0, -1)
    assert detail["certified"] is enum_certified is True
    w1, w2, _ = struct.logs
    with mpmath.workprec(160):
        assert abs(value - enum_value) <= mpmath.mpf(2) ** -120 * value
        assert value >= 2 * w1 * w2 * (1 - mpmath.mpf(2) ** -120)
    # the wedges of the generators of O_L^* have den-integral coordinates
    # in the E-wedge basis, so their lattice lies inside the reported one
    # and its minimum is no smaller
    den, order = spec.denominator, struct.galois_order()
    l1, l2, l3 = (log_embed_klein(struct.field.lift_quad(u), 192, order)
                  for u in struct.units)
    g1, g2, g3 = (log_embed_klein(g, 192, order) for g in struct.generators)
    e_rows = (wedge2(l2, l3), wedge2(l1, l3), wedge2(l1, l2))
    gen_wedges = (wedge2(g2, g3), wedge2(g1, g3), wedge2(g1, g2))
    with mpmath.workprec(208):
        for w in gen_wedges:
            for row in e_rows:  # the E-wedge rows are orthogonal
                c = den * _dot(w, row) / _dot(row, row)
                assert abs(c - mpmath.nint(c)) < mpmath.mpf(2) ** -100
    gen_value, _, gen_certified = min_one_norm(LatticeSpec(gen_wedges), 20)
    assert gen_certified
    with mpmath.workprec(160):
        assert gen_value >= value * (1 - mpmath.mpf(2) ** -100)


def test_min_one_norm_radius_is_tight():
    # orthogonal rows of 1-norm 1, 1.5, 3 with n1+n2+n3 even: the minimum
    # 2 at (-2, 0, 0) lies on the boundary of the radius-2 box that the
    # best norm over {-1, 0, 1}^3, 2.5 at (1, 1, 0), allows
    rows = ((1, 0, 0, 0, 0, 0), (0, 1.5, 0, 0, 0, 0), (0, 0, 3, 0, 0, 0))
    spec = LatticeSpec(tuple(Wedge2Vector(tuple(mpmath.mpf(c) for c in r),
                                          "klein", 128) for r in rows),
                       parity_constraint="even")
    assert_matches_full_box(spec, 6)
    assert min_one_norm(spec, 6)[1] == (-2, 0, 0)


def test_min_one_norm_certified_and_deterministic(klein25):
    struct, (l1, l2, l3) = klein25
    basis = (wedge2(l2, l3), wedge2(l1, l3), wedge2(l1, l2))
    spec = LatticeSpec(basis, denominator=2)
    r1 = min_one_norm(spec, 20)
    r2 = min_one_norm(spec, 20)
    assert r1[1] == r2[1] and r1[0] == r2[0]
    assert r1[2] is True


def test_dependent_basis_rejected(klein25):
    _, (l1, l2, _) = klein25
    w = wedge2(l1, l2)
    spec = LatticeSpec((w, w, w))
    with pytest.raises(ValueError):
        min_one_norm(spec, 3)


def test_spec_validation(klein25):
    _, (l1, l2, l3) = klein25
    basis = (wedge2(l2, l3), wedge2(l1, l3), wedge2(l1, l2))
    with pytest.raises(ValueError):
        LatticeSpec(basis, denominator=3)
    with pytest.raises(ValueError):
        LatticeSpec(basis, parity_constraint="odd")
    with pytest.raises(ValueError):
        min_one_norm(LatticeSpec(basis), 0)


def test_norm_helpers(klein25):
    _, (l1, l2, _) = klein25
    w = wedge2(l1, l2)
    g = gram_matrix(LatticeSpec((w, w, w)))
    assert g[0][0] > 0 and g[0][1] == g[1][0]
