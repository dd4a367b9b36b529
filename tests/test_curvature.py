"""Finite-difference curvature checks against analytic oracles.

The reference values are classical: the flat metric has hessian I and
vanishing curvature, the Eguchi-Hanson metric has unit determinant and
|g - I| ~ r^-4, the Burns metric has det g = 1 + m/u and r^-2 decay.
The radial-hessian oracle recomputes g from one-dimensional derivative
stencils of the profile, fully outside the code under test.  The radial
scalar-curvature oracle is exact: for Phi = F(|z|^2) and f(t) = F(e^t),
S = -2 (G'/f' + G''/f'') with G = log(f' f'') - 2t.
"""

import collections
import decimal
import hashlib
import inspect
import itertools
import math
import random
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfkale
from sfkale import _engine
from sfkale import curvature as cv
from sfkale.errors import DegenerateMetricError, InsufficientDecadeError

EH = cv.eguchi_hanson(1.0)
BU = cv.burns(1.0)
FL = cv.flat()

POINTS = [(1.1, 0.4 + 0.3j), (2.0, 1.0), (0.8 + 0.6j, 1.5j), (3.0, 0.5)]


# ----------------------------------------------------------------- hessians


def test_flat_hessian_is_identity():
    for z in POINTS:
        H = cv.hermitian_hessian(FL, z)
        assert np.abs(H - np.eye(2)).max() < 1e-9
        assert np.array_equal(H, H.conj().T)


def _radial_hessian_oracle(fn, z1, z2, du=1e-3):
    # g = f'(u) I + f''(u) conj(z) z^T from one-dimensional stencils
    u = abs(z1) ** 2 + abs(z2) ** 2
    d1 = (8 * (fn(u + du) - fn(u - du)) - (fn(u + 2 * du) - fn(u - 2 * du))) / (12 * du)
    d2 = (16 * (fn(u + du) + fn(u - du)) - (fn(u + 2 * du) + fn(u - 2 * du)) - 30 * fn(u)) / (
        12 * du * du
    )
    z = np.array([z1, z2])
    return d1 * np.eye(2) + d2 * np.outer(np.conj(z), z)


def test_radial_hessian_oracle():
    def profile(u):
        w = math.sqrt(1 + u * u)
        return w + math.log(u) - math.log(1 + w)

    pot = cv.custom_radial(profile)
    for z in POINTS:
        H = cv.hermitian_hessian(pot, z)
        want = _radial_hessian_oracle(profile, *z)
        assert np.abs(H - want).max() < 1e-5


def test_builtin_determinant_identities():
    for z in POINTS:
        u = abs(z[0]) ** 2 + abs(z[1]) ** 2
        det_eh = np.linalg.det(cv.hermitian_hessian(EH, z)).real
        det_bu = np.linalg.det(cv.hermitian_hessian(BU, z)).real
        assert abs(det_eh - 1.0) < 1e-5
        assert abs(det_bu - (1.0 + 1.0 / u)) < 1e-5


def _closed_form_hessian(pot, z):
    # a built-in's g at z from its closed-form table, as a Hermitian matrix
    x = np.array([cv._coords(z)])
    g11, g22, gr, gi = _engine.radial(False, x, None, pot.family, pot.parameter)[0]
    return np.array([[g11, complex(gr, gi)], [complex(gr, -gi), g22]])


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize(
    "pot", [FL, BU, cv.burns(1.5), EH, cv.eguchi_hanson(1000.0)],
    ids=["flat", "burns", "burns-1.5", "eguchi-hanson", "eguchi-hanson-1000"],
)
def test_builtin_scalar_curvature_takes_the_u_of_its_metric(pot, order):
    # S and g come from the table's five values at one u = |z2|^2 + |z1|^2,
    # not S at the square of a square-rooted radius
    rng = np.random.default_rng(20160518)
    points = np.exp(rng.uniform(math.log(0.3), math.log(1e4), 64))[:, None] * _directions(rng, 64)
    for x in points.tolist():
        x0, x1, x2, x3 = x
        s1, s2 = x0 * x0 + x1 * x1, x2 * x2 + x3 * x3
        u = s2 + s1
        f = _engine.builtin_t_derivatives(math, u, pot.family, pot.parameter)
        lam, b = f[1] / u, f[4] / (u * u)
        assert cv.hermitian_hessian(pot, x, order=order)[0, 0].real == s2 * b + lam
        want = _engine.scalar(math, f)
        assert cv.scalar_curvature(pot, x, order=order).hex() == want.hex(), x


def test_custom_general_matches_custom_radial():
    def profile(u):
        w = math.sqrt(1 + u * u)
        return w + math.log(u) - math.log(1 + w)

    # the profile is Eguchi-Hanson's at a = 1, whose closed-form g is within
    # 5e-16 of the exact one; custom_radial takes g along t (measured error
    # 6.8e-14), custom_general differences it on the Hessian's stencil (6.9e-8)
    z = (1.1, 0.4 - 0.8j)
    want = _closed_form_hessian(EH, z)
    pg = cv.custom_general(lambda z1, z2: profile(abs(z1) ** 2 + abs(z2) ** 2))
    pr = cv.custom_radial(profile)
    assert np.abs(cv.hermitian_hessian(pr, z) - want).max() < 2e-13
    assert np.abs(cv.hermitian_hessian(pg, z) - want).max() < 2e-7


def test_degenerate_potential_raises():
    neg = cv.custom_radial(lambda u: -u)
    with pytest.raises(DegenerateMetricError):
        cv.hermitian_hessian(neg, (1.0, 1.0))
    with pytest.raises(DegenerateMetricError):
        cv.scalar_curvature(neg, (1.0, 1.0))


# ------------------------------------------------------------------- sweeps


def test_flat_scalar_curvature_sweep():
    plan = cv.SamplePlan(cv.sample_points(1, 4, 8))
    report = cv.verify_scalar_flat(FL, plan, tol=1e-8)
    assert report.passed and report.metric_positive
    assert report.max_abs_scalar < 1e-10


def test_flat_scalar_curvature_sweep_order2():
    plan = cv.SamplePlan(cv.sample_points(1, 4, 8), order=2)
    assert cv.verify_scalar_flat(FL, plan, tol=1e-8).max_abs_scalar < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    log_r=st.floats(math.log(0.3), math.log(1e6)),
    d=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda d: np.linalg.norm(d) > 0.1
    ),
    h0=st.floats(1e-4, 0.02),
    order=st.sampled_from((2, 4)),
)
def test_flat_scalar_curvature_is_exactly_positive_zero(log_r, d, h0, order):
    # flat is Burns with m = 0: f = e^t has the t-derivatives (u, u, u, u) in
    # closed form, and S comes out +0.0 rather than -2 * 0.0 = -0.0
    x = math.exp(log_r) * np.array(d) / np.linalg.norm(d)
    s = cv.scalar_curvature(FL, x, h0=h0, order=order)
    (swept,) = cv.verify_scalar_flat(FL, cv.SamplePlan([x], h0=h0, order=order)).scalar_values
    for value in (s, float(swept)):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("order", [2, 4])
def test_builtin_scalar_curvature_skips_the_4d_stencil(monkeypatch, order):
    # every radial potential takes its S along t, and its g in closed form
    # (a built-in) or along t (custom_radial): neither a psi over the site
    # lattice nor the 4-D reduction may run
    def fail(*args, **kwargs):
        raise AssertionError("4-D stencil used for a radial potential")

    monkeypatch.setattr(_engine, "lattice_psi", fail)
    monkeypatch.setattr(_engine, "scalar_curvature", fail)
    plan = cv.SamplePlan(cv.sample_points(0.5, 64, 12), order=order)
    for pot in (FL, EH, BU, _KINDS["custom-radial"]):
        assert math.isfinite(cv.scalar_curvature(pot, POINTS[0], order=order))
        assert cv.verify_scalar_flat(pot, plan).metric_positive, pot.name
        assert cv.hermitian_hessian(pot, POINTS[0], order=order)[0, 0].real > 0.0
        assert np.isfinite(cv.metric_deviations(pot, plan.points, order=order)).all()
        assert cv.decay_order(pot, np.geomspace(2, 64, 10), order=order).radii.shape == (10,)


@pytest.mark.parametrize("pot", [EH, BU], ids=["eguchi-hanson", "burns"])
def test_builtin_scalar_flat_sweep(pot):
    plan = cv.SamplePlan(cv.sample_points(1, 8, 32))
    report = cv.verify_scalar_flat(pot, plan)
    assert report.passed
    assert report.max_abs_scalar < 2e-5


def test_custom_potential_noise_floor():
    # custom callables go through plain differences, so the flat
    # potential lands near 1e-8 rather than machine zero
    plan = cv.SamplePlan(cv.sample_points(1, 4, 8))
    pot = cv.custom_general(lambda z1, z2: abs(z1) ** 2 + abs(z2) ** 2)
    assert cv.verify_scalar_flat(pot, plan).max_abs_scalar < 1e-6


def test_unitary_invariance():
    th = 0.7
    z1, z2 = 1.2, 0.8 + 0.5j
    w1 = math.cos(th) * z1 - math.sin(th) * z2
    w2 = math.sin(th) * z1 + math.cos(th) * z2
    assert abs(cv.scalar_curvature(EH, (z1, z2)) - cv.scalar_curvature(EH, (w1, w2))) < 1e-5


def test_verify_reports_degenerate_without_raising():
    plan = cv.SamplePlan(cv.sample_points(1, 4, 8))
    report = cv.verify_scalar_flat(cv.custom_radial(lambda u: -u), plan)
    assert not report.passed
    assert not report.metric_positive
    assert report.max_abs_scalar is None
    assert report.worst_index is None
    assert report.degenerate_indices == tuple(range(8))


def test_max_abs_scalar_is_taken_over_the_finite_points():
    # F = u - u^2/10 has f'' = u - 0.4 u^2 < 0 past r = 1.58: the points out
    # there degenerate, and the report's maximum sits at its worst finite point
    pot = cv.custom_radial(lambda u: u - 0.1 * u * u)
    plan = cv.SamplePlan(cv.sample_points(1, 4, 16))
    report = cv.verify_scalar_flat(pot, plan)
    s = report.scalar_values
    finite = np.isfinite(s)
    assert 0 < finite.sum() < len(s)
    assert report.degenerate_indices == tuple(np.flatnonzero(~finite).tolist())
    assert report.max_abs_scalar == np.abs(s[finite]).max() == abs(s[report.worst_index])
    assert not report.metric_positive and not report.passed
    # the degenerate points alone fail a report whose maximum is within tol
    report = cv.verify_scalar_flat(pot, plan, tol=2.0 * report.max_abs_scalar)
    assert report.max_abs_scalar <= report.tolerance and not report.passed


# one potential of each kind, for the chunking tests
_KINDS = {
    "flat": FL,
    "eguchi-hanson": cv.eguchi_hanson(1.7),
    "burns": cv.burns(0.6),
    "custom-radial": cv.custom_radial(lambda u: u + 0.2 * u * u + 0.4 * math.log(u)),
    # not radial: z2 weighs twice as much as z1
    "custom-general": cv.custom_general(
        lambda z1, z2: abs(z1) ** 2 + 2.0 * abs(z2) ** 2
        + 0.3 * math.log(abs(z1) ** 2 + abs(z2) ** 2)
    ),
}
# Chunked and single-point values were bitwise equal on every draw tried
# (OpenBLAS, numpy 2.4, both orders, every kind); a BLAS may sum a stacked
# product in another order, so the tests allow this much
CHUNK_REL_TOL = 1e-12


def _plan_sizes(chunk):
    return (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3)


def _directions(rng, n):
    d = rng.normal(size=(n, 4))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _random_points(seed, n):
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(math.log(0.7), math.log(8.0), n))[:, None] * _directions(rng, n)


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_chunked_sweep_matches_single_points(kind, order, seed):
    # the plans straddle the chunk boundaries of the path the kind takes: S
    # along t for every radial kind, the 4-D stencil for custom-general
    pot = _KINDS[kind]
    sizes = _plan_sizes(cv._chunk_points(order, True, pot.family is not None))
    pts = _random_points(seed, max(sizes))
    single = np.array([cv.scalar_curvature(pot, x, order=order) for x in pts])
    for n in sizes:
        s = cv.verify_scalar_flat(pot, cv.SamplePlan(pts[:n], order=order)).scalar_values
        assert s.shape == (n,)
        assert np.all(np.abs(s - single[:n]) <= CHUNK_REL_TOL * np.maximum(1.0, np.abs(single[:n])))


@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_chunked_deviations_match_single_hessians(kind, order, seed):
    # g along t for every radial kind, the Hessian's stencil for custom-general
    pot = _KINDS[kind]
    sizes = _plan_sizes(cv._chunk_points(order, False, pot.family is not None))
    pts = _random_points(seed, max(sizes))
    single = []
    for x in pts:
        g = cv.hermitian_hessian(pot, x, order=order)
        single.append(max(abs(g[0, 0] - 1), abs(g[1, 1] - 1), abs(g[0, 1].real), abs(g[0, 1].imag)))
    single = np.array(single)
    for n in sizes:
        dev = cv.metric_deviations(pot, pts[:n], order=order)
        assert dev.shape == (n,)
        assert np.all(np.abs(dev - single[:n]) <= CHUNK_REL_TOL * np.maximum(1.0, single[:n]))


def test_degenerate_points_stay_local():
    # F = u - u^2/20 has g = F' I + F'' conj(z) z^T with eigenvalues F' and
    # F' + u F'' = 1 - u/5: indefinite (det < 0) for 5 < u < 10 and negative
    # definite beyond, so the points at radius 3-4 degenerate both ways and
    # share their chunks with good points
    pot = cv.custom_radial(lambda u: u - u * u / 20.0)
    radii = np.array([1.0, 3.2, 1.2, 1.4, 1.1, 3.6, 1.5, 3.9, 1.3, 1.25, 3.0])
    # repeated past one chunk of S along t, the path custom_radial takes
    radii = np.tile(radii, cv._chunk_points(4, True, along_t=True) // len(radii) + 2)
    pts = radii[:, None] * _directions(np.random.default_rng(7), len(radii))
    bad = np.flatnonzero(radii > 2.5)
    good = np.flatnonzero(radii < 2.5)
    assert cv._chunk_points(4, True, along_t=True) < len(radii)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cv.verify_scalar_flat(pot, cv.SamplePlan(pts))
    s = report.scalar_values
    assert np.isnan(s[bad]).all()
    assert np.isfinite(s[good]).all()
    for i in good:
        want = cv.scalar_curvature(pot, pts[i])
        assert abs(s[i] - want) <= CHUNK_REL_TOL * max(1.0, abs(want))
    assert not report.metric_positive and not report.passed
    assert report.max_abs_scalar == np.abs(s[good]).max()
    assert report.degenerate_indices == tuple(bad.tolist())
    assert report.worst_index == int(good[np.argmax(np.abs(s[good]))])


def test_metric_deviations_flat():
    pts = cv.sample_points(1, 8, 8)
    assert cv.metric_deviations(FL, pts).max() < 1e-10


# -------------------------------------------------------------- sample plans


def test_sample_points_shape_and_directions():
    pts = cv.sample_points(1, 8, 10)
    assert pts.shape == (10, 4)
    radii = np.linalg.norm(pts, axis=1)
    assert np.allclose(radii, np.geomspace(1, 8, 10))
    # direction pattern repeats with period 4
    assert np.allclose(pts[4] / radii[4], pts[0] / radii[0])


@pytest.mark.parametrize("rmin, rmax", [(1.0, math.inf), (1.0, 1e400), (math.nan, 2.0),
                                        (1.0, math.nan), (math.inf, math.inf)])
def test_sample_points_refuses_a_bound_that_is_not_finite(rmin, rmax):
    # rmax = inf raised numpy's RuntimeWarning from geomspace, not ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"need finite 0 < rmin <= rmax, got rmin = {rmin}, "
                                             f"rmax = {rmax}"):
            cv.sample_points(rmin, rmax, 3)


@pytest.mark.parametrize("n", [True, False, 0, -2])
def test_sample_points_refuses_a_bool_or_empty_count(n):
    # bool is an int subclass: True drew one point, as the exact layer refuses it
    with pytest.raises(ValueError, match=f"integer count of at least one sample, got {n!r}"):
        cv.sample_points(1.0, 2.0, n)


def test_sample_plan_validation():
    pts = cv.sample_points(1, 4, 4)
    for bad in (dict(h0=0.0), dict(h0=0.2), dict(order=3)):
        with pytest.raises(ValueError):
            cv.SamplePlan(pts, **bad)
    # inside the order-4 reach, 0.059, as a single S would be
    with pytest.raises(ValueError, match="sample point 0 at radius 0.05 lies within the order-4"):
        cv.SamplePlan(np.array([[0.05, 0, 0, 0]]))
    plan = cv.SamplePlan(pts, h0=0.05, order=2)
    assert np.allclose(plan.radii, np.geomspace(1, 4, 4))


def test_potential_constructors():
    assert cv.flat()(1 + 2j, 3.0) == pytest.approx(14.0)
    assert cv.burns(2.0)(1.0, 1.0) == pytest.approx(2.0 + 2.0 * math.log(2.0))
    assert cv.eguchi_hanson(2.5).parameter == 2.5
    with pytest.raises(ValueError):
        cv.eguchi_hanson(-1.0)
    with pytest.raises(ValueError):
        cv.eguchi_hanson(0.0)


@pytest.mark.parametrize("a", [1.2e77, 1e100, 1e300])
def test_eguchi_hanson_parameter_whose_a4_overflows_is_refused(a):
    # such an a was accepted, and every point then read NaN or degenerate
    with pytest.raises(ValueError, match=r"a\^4 overflows a float") as exc:
        cv.eguchi_hanson(a)
    assert f"parameter a = {a} is too large" in str(exc.value)


def test_eguchi_hanson_parameter_below_the_overflow_is_accepted():
    # a^4 is still a float here; how well S resolves so deep a bolt is
    # another question
    for a in (1e77, 1.15e77):
        assert cv.eguchi_hanson(a).parameter == a
        assert math.isfinite((a * a) * (a * a))


@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0, 0.0])
def test_potential_parameters_must_be_finite_and_positive(bad):
    # an infinite parameter built a potential whose every sample degenerated
    with pytest.raises(ValueError, match="eguchi-hanson parameter a must be finite and positive"):
        cv.eguchi_hanson(bad)
    with pytest.raises(ValueError, match="burns parameter m must be finite and positive"):
        cv.burns(bad)


def test_accepted_inputs_leak_no_numpy_warnings():
    # the custom profile's value overflows.  The engine's NaN must reach
    # the caller as a degenerate point, with no RuntimeWarning on the way.
    # At h0 = 1e-300, h * h would underflow to 0 in the reduction, so such
    # a step is rejected up front
    plan = cv.SamplePlan(cv.sample_points(1, 8, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="h0 = 1e-300 is too small: .* h\\^2 underflows"):
            cv.SamplePlan(plan.points, h0=1e-300)
        with pytest.raises(ValueError, match="h0 = 1e-300 is too small"):
            cv.hermitian_hessian(FL, (1.3, 0.4 + 0.2j), h0=1e-300)
        overflowing = cv.custom_radial(lambda u: 1e308 * u)
        huge = cv.verify_scalar_flat(overflowing, plan)
        with pytest.raises(DegenerateMetricError):
            cv.hermitian_hessian(overflowing, (1.3, 0.4 + 0.2j))
    assert not huge.passed and huge.degenerate_indices == (0, 1, 2, 3)
    # the caller's error state is left as it was
    assert np.geterr()["invalid"] == "warn"


@pytest.mark.parametrize("h0", [1e-60, 1e-120, 2.7e-17])
def test_custom_radial_refuses_an_h0_whose_t_sites_coincide(h0):
    # _check_stencil takes h0 down to 1.5e-154, but e^(4 h0) rounds to 1
    # below about 2.8e-17: a profile's t-sites coincide (at 1e-60 g read 0,
    # mu -0.0 and the derivative 0.0, with no error) and from about 1e-78
    # the weights over h^4 divide by 0 (ZeroDivisionError at 1e-120)
    profile = cv.custom_radial(lambda u: u + math.log(u))
    z = (1.3, 0.4 + 0.2j)
    entries = [
        lambda: cv.scalar_curvature(profile, z, h0=h0),
        lambda: cv.hermitian_hessian(profile, z, h0=h0),
        lambda: cv.metric_deviations(profile, [z], h0=h0),
        lambda: cv.verify_scalar_flat(profile, cv.SamplePlan(cv.sample_points(1, 8, 4), h0=h0)),
        lambda: cv.scalar_curvature_derivative(BU, profile, z, h0=h0),
        lambda: cv.scalar_curvature_derivative(profile, lambda z1, z2: abs(z1) ** 2, z, h0=h0),
        lambda: cv.decay_order(profile, np.geomspace(2, 64, 10), h0=h0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in entries:
            with pytest.raises(ValueError, match=f"h0 = {h0} is too small for a custom_radial"):
                entry()
        # a built-in takes no t-sites, and stays as it was
        assert cv.scalar_curvature(BU, z, h0=h0) == cv.scalar_curvature(BU, z)
        assert np.array_equal(cv.hermitian_hessian(EH, z, h0=h0), cv.hermitian_hessian(EH, z))


# -------------------------------------------------------------------- decay


def test_decay_order_eguchi_hanson():
    est = cv.decay_order(EH, np.geomspace(2, 64, 10))
    assert not est.no_signal
    assert abs(est.mu - 4.0) < 0.1
    assert est.residual < 1e-2


def test_decay_order_burns():
    est = cv.decay_order(BU, np.geomspace(2, 64, 10))
    assert abs(est.mu - 2.0) < 0.1


def test_decay_order_flat_no_signal():
    est = cv.decay_order(FL, np.geomspace(2, 64, 10))
    assert est.no_signal
    assert est.mu is None and est.residual is None


def test_decay_order_needs_a_radial_potential():
    # the fit samples the ray z = (r, 0) only, which stands for every
    # direction just when the potential is radial
    general = cv.custom_general(lambda z1, z2: abs(z1) ** 2 + 2.0 * abs(z2) ** 2)
    with pytest.raises(ValueError, match=r"ray z = \(r, 0\)"):
        cv.decay_order(general, np.geomspace(2, 64, 10))
    radial = cv.custom_radial(lambda u: u + math.log(u))
    assert abs(cv.decay_order(radial, np.geomspace(2, 64, 10)).mu - 2.0) < 0.1


def test_decay_order_refuses_a_metric_that_is_not_positive_definite_by_radius():
    # -u is not Kahler anywhere: its deviations were all 2.0, and the fit
    # read mu = 4e-15 with no error
    with pytest.raises(DegenerateMetricError, match=r"degenerates along the decay ray at radius 0 \(2\)$"):
        cv.decay_order(cv.custom_radial(lambda u: -u), np.geomspace(2, 64, 10))
    # u - u^2/10 is not from |z| = 1.58 on: of the radii 0.5, 0.74, 1.1, 1.64, ... the fourth
    with pytest.raises(DegenerateMetricError, match=r"at radius 3 \(1\.641\)$"):
        cv.decay_order(_CROSSING, np.geomspace(0.5, 8, 8))


def test_decay_order_input_validation():
    with pytest.raises(ValueError):
        cv.decay_order(FL, np.geomspace(2, 64, 5))
    with pytest.raises(ValueError):
        cv.decay_order(FL, np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5]))
    with pytest.raises(InsufficientDecadeError):
        cv.decay_order(FL, np.geomspace(2, 18, 6))


# every public entry point that takes a step and an order, called at a
# valid point with the step arguments under test
_STENCIL_ENTRIES = {
    "hermitian_hessian": lambda kw: cv.hermitian_hessian(EH, POINTS[1], **kw),
    "scalar_curvature": lambda kw: cv.scalar_curvature(EH, POINTS[1], **kw),
    "scalar_curvature_derivative": lambda kw: cv.scalar_curvature_derivative(
        FL, BU, POINTS[1], **kw
    ),
    "metric_deviations": lambda kw: cv.metric_deviations(EH, [[2.0, 0, 0, 0]], **kw),
    "decay_order": lambda kw: cv.decay_order(EH, np.geomspace(2, 64, 6), **kw),
    "SamplePlan": lambda kw: cv.SamplePlan([[2.0, 0, 0, 0]], **kw),
}


@pytest.mark.parametrize("entry", sorted(_STENCIL_ENTRIES))
@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(order=3), "stencil order must be 2 or 4, got 3"),
        (dict(h0=0.0), "h0 must lie in"),
        (dict(h0=-0.01), "h0 must lie in"),
        (dict(h0=0.5), "h0 must lie in"),
        (dict(h0=math.nan), "h0 must lie in"),
    ],
)
def test_stencil_arguments_checked_at_every_entry(entry, bad, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            _STENCIL_ENTRIES[entry](bad)
    _STENCIL_ENTRIES[entry](dict(h0=0.05, order=2))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_and_scale_must_be_finite_and_positive(bad):
    # a NaN passed `t <= 0` and surfaced as a DegenerateMetricError; a NaN or
    # negative tol failed every sweep and an infinite one passed every sweep
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        cv.verify_scalar_flat(FL, cv.SamplePlan([[2.0, 0, 0, 0]]), tol=bad)
    with pytest.raises(ValueError, match="scale t must be finite and positive"):
        cv.scalar_curvature_derivative(FL, BU, POINTS[1], t=bad)


def test_nonfinite_points_rejected_with_their_index():
    with pytest.raises(ValueError, match="sample point 0 has a non-finite"):
        cv.SamplePlan([[math.nan, 0, 0, 0]])
    pts = cv.sample_points(1, 4, 4)
    pts[2, 3] = math.inf
    with pytest.raises(ValueError, match="sample point 2 has a non-finite"):
        cv.SamplePlan(pts)
    with pytest.raises(ValueError, match="sample point 1 has a non-finite"):
        cv.metric_deviations(EH, [(1.0, 2.0), (complex(1.0, math.nan), 2.0)])
    for z in ((math.nan, 1.0), (1.0, 0.0, -math.inf, 0.0)):
        with pytest.raises(ValueError, match="non-finite coordinate"):
            cv.scalar_curvature(EH, z)
        with pytest.raises(ValueError, match="non-finite coordinate"):
            cv.hermitian_hessian(EH, z)


@pytest.mark.parametrize("pot", [FL, EH, BU, _KINDS["custom-radial"]], ids=lambda p: p.name)
def test_a_radius_whose_square_overflows_is_refused_by_name(pot):
    # |z| above about 1.34e154 makes |z|^2 overflow: the radius read inf, a
    # plan blamed the stencil's reach of the origin after numpy's overflow
    # warning, and a built-in's Hessian called the metric degenerate
    z, x = (1e155, 0), [1e155, 0.0, 0.0, 0.0]
    overflow = r"\|z\|\^2 = \|z1\|\^2 \+ \|z2\|\^2 overflows a float"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (cv.scalar_curvature, cv.hermitian_hessian):
            with pytest.raises(ValueError, match=r"point \(1e\+155, 0\): " + overflow):
                entry(pot, z)
        with pytest.raises(ValueError, match="sample point 1: " + overflow):
            cv.SamplePlan([[1.0, 0.0, 0.0, 0.0], x])
        with pytest.raises(ValueError, match="sample point 1: " + overflow):
            cv.metric_deviations(pot, [[1.0, 0.0, 0.0, 0.0], x])
        with pytest.raises(ValueError, match="sample point 5: " + overflow):
            cv.decay_order(pot, np.geomspace(1.0, 1e160, 6))
        # a radius whose square does not overflow is taken
        cv.metric_deviations(pot, [[1e154, 0.0, 0.0, 0.0]])


def _single_point_entries(z, h0=1e-2, order=4):
    # the entries that keep a stencil's reach rule, each with the reach it
    # takes, the scalar curvature stencil's (True) or the Hessian's: S, a
    # custom_general Hessian, a custom_radial one (no stencil, but near the
    # origin its profile's rounding swamps f'') and the derivative
    return (
        (lambda: cv.scalar_curvature(FL, z, h0=h0, order=order), True),
        (lambda: cv.hermitian_hessian(cv.custom_general(FL), z, h0=h0, order=order), False),
        (lambda: cv.hermitian_hessian(_KINDS["custom-radial"], z, h0=h0, order=order), True),
        (lambda: cv.scalar_curvature_derivative(FL, BU, z, h0=h0, order=order), True),
    )


@pytest.mark.parametrize("z", [(0, 0), (0j, -0j), (0.0, -0.0, 0.0, 0.0)])
def test_single_point_entries_refuse_the_origin(z):
    # every potential lives on C^2 minus the origin: the point is named as
    # the fault, where S along t read f' = 0 there and blamed the metric;
    # a built-in's Hessian, which takes no stencil, refuses it too
    builtin = [lambda pot=pot: cv.hermitian_hessian(pot, z) for pot in (FL, EH, BU)]
    for entry in [entry for entry, _ in _single_point_entries(z)] + builtin:
        with pytest.raises(ValueError, match=r"at radius 0 lies .*the origin of C\^2, where no"):
            entry()


@pytest.mark.parametrize("z, r", [((0, 0), "0"), ((1e-200, 0), "1e-200"), ((0j, -1e-170j), "1e-170")])
def test_builtin_potentials_refuse_the_origin_by_name(z, r):
    # each raised a bare "math domain error" from math.log; |z|^2 is 0 at
    # the origin and underflows to 0 at the other two points
    for pot in (FL, EH, BU):
        with pytest.raises(ValueError, match=rf"point \(.*\) at radius {r} lies at the origin of C\^2"):
            pot(*z)
    # a radius whose |z|^2 is a subnormal is taken
    assert math.isfinite(BU(1e-160, 0))


@pytest.mark.parametrize("z", [(1e-3, 0), (0.02, 0), (0, 0.05j), (0.03, 0.0, 0.0, -0.04)])
def test_single_point_entries_refuse_a_stencil_that_reaches_the_origin(z):
    # the 4-D stencil's Burns g11 at (1e-3, 0) read 5.6e4, where the exact
    # value is 1: h = 0.01 spans the origin ten times over.  The Hessian's
    # stencil reaches half as far, so a custom_general Hessian takes the
    # last two points
    r = math.sqrt(sum(c * c for c in cv._coords(z)))
    for entry, curvature in _single_point_entries(z):
        if r <= cv._reach(4, curvature) * 0.01 * (1.0 + r):
            with pytest.raises(ValueError, match=rf"point .* at radius {r:.4g} lies within the order-4"):
                entry()
        else:
            assert np.abs(entry() - np.eye(2)).max() < 1e-9
    # a built-in's Hessian takes no stencil: Burns' is the closed form at z
    assert cv.hermitian_hessian(BU, z).tolist() == _closed_form_hessian(BU, z).tolist()


@pytest.mark.parametrize("order", [2, 4])
def test_single_point_reach_is_the_stencils_farthest_site(order):
    for curvature, steps in ((True, 4), (False, 2)):
        offsets = _engine.site_lattice(order, curvature).offsets
        reach = cv._reach(order, curvature)
        assert reach == np.sqrt((offsets * offsets).sum(axis=1)).max()
        # steps along two axes at once: 4 (S) and 2 (Hessian) at order 4, half that at order 2
        assert reach == pytest.approx(steps * order / 4 * math.sqrt(2.0), rel=1e-15)


def test_custom_general_hessian_takes_its_own_reach():
    # at h = 0.0104 the Hessian's sites lie within 2 sqrt(2) h = 0.029 of
    # (0.04, 0), so at least 0.01 from the origin: its Hessian and deviations
    # are taken (g22 within 0.5% of the exact 626; h = r / 4 leaves g11 at
    # 2.02 against 1), where S, whose stencil reaches twice as far, is refused
    pot = cv.custom_general(BU)
    z = (0.04, 0)
    g = cv.hermitian_hessian(pot, z)
    assert abs(g[1, 1].real - 626.0) <= 0.005 * 626.0
    assert cv.metric_deviations(pot, [z]).tolist() == [np.abs(g - np.eye(2)).max()]
    with pytest.raises(ValueError, match="lies within the order-4 stencil's reach"):
        cv.scalar_curvature(pot, z)


def _refuses(entry):
    # True when entry refuses its point as off the domain; any other
    # ValueError (a profile's own math domain error at the origin) fails
    try:
        entry()
    except ValueError as exc:
        assert "the origin of C^2, where no potential is defined" in str(exc), exc
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(r=st.floats(0.0, 2.0), h0=st.floats(1e-3, 0.1), axis=st.integers(0, 3),
       order=st.sampled_from((2, 4)))
def test_single_point_is_refused_exactly_when_a_site_could_reach_the_origin(r, h0, axis, order):
    x = [0.0] * 4
    x[axis] = r
    h = h0 * (1.0 + r)
    refused = r <= cv._reach(order, True) * h0 * (1.0 + r)
    # the stencil rule: a plan and a custom potential's deviations refuse
    # exactly the points a single S or Hessian of the same kind refuses,
    # within the scalar curvature stencil's reach, or the Hessian stencil's
    # for a custom_general g
    stencil_rule = _single_point_entries(x, h0, order)[:3] + (
        (lambda: cv.SamplePlan([x], h0=h0, order=order), True),
        (lambda: cv.metric_deviations(_KINDS["custom-radial"], [x], h0=h0, order=order), True),
        (lambda: cv.metric_deviations(cv.custom_general(FL), [x], h0=h0, order=order), False),
    )
    for entry, curvature in stencil_rule:
        want = r <= cv._reach(order, curvature) * h0 * (1.0 + r)
        assert _refuses(entry) == want, (r, h0, order, curvature)
    # the closed-form rule: a built-in's g takes no stencil, and its Hessian
    # and deviations refuse only the origin to float precision, a point
    # whose |z|^4, which g divides by, underflows
    closed = (r * r) ** 2 < sys.float_info.min
    assert _refuses(lambda: cv.metric_deviations(BU, [x], h0=h0, order=order)) == closed, r
    assert _refuses(lambda: cv.hermitian_hessian(BU, x, h0=h0, order=order)) == closed, r
    if not closed:
        exact = cv.hermitian_hessian(BU, x, h0=h0, order=order)
        assert exact[0, 0].real > 0.0
    if not refused:
        # past the reach the profile's g (u + log u is Burns') holds each
        # diagonal entry within 2e-4 of its own size: the worst measured was
        # 6.0e-5 at order 2, h0 = 1e-3 and the reach's edge (rounding), and
        # 2.3e-5 at h0 = 0.099, r = 2 (order 2's truncation)
        g = cv.hermitian_hessian(cv.custom_radial(lambda u: u + math.log(u)), x, h0=h0, order=order)
        for j in range(2):
            assert abs(g[j, j].real - exact[j, j].real) <= 2e-4 * exact[j, j].real, (r, h0, order)
        # every site of the scalar curvature stencil is off the origin
        sites = np.array(x) + h * _engine.site_lattice(order, True).offsets
        assert (np.abs(sites).max(axis=1) > 0).all()


@pytest.mark.parametrize("pot", [BU, cv.custom_radial(lambda u: u + math.log(u))],
                         ids=["burns", "custom-radial"])
def test_metric_deviations_refuse_the_origin_naming_its_index(pot):
    # Burns' deviations read NaN there with no error, and the profile raised
    # its own math domain error
    with pytest.raises(ValueError, match=r"sample point 0 at radius 0 lies .*the origin of C\^2"):
        cv.metric_deviations(pot, [[0, 0, 0, 0], [1e-100, 0, 0, 0]])
    with pytest.raises(ValueError, match=r"sample point 1 at radius 1e-100 lies .*the origin of C\^2"):
        cv.metric_deviations(pot, [(2.0, 0.5j), (1e-100, 0)])


def test_decay_order_refuses_a_custom_radial_radius_within_the_reach():
    # 0.05 lies inside the order-4 reach 4 sqrt(2) 0.01 (1 + 0.05) = 0.059
    radii = np.geomspace(0.05, 64, 10)
    pot = cv.custom_radial(lambda u: u + math.log(u))
    with pytest.raises(ValueError, match="sample point 0 at radius 0.05 lies within the order-4"):
        cv.decay_order(pot, radii)
    # a built-in's g is closed form, so Burns fits from the same radii
    assert cv.decay_order(BU, radii).radii.shape == (10,)
    assert cv.decay_order(pot, radii[1:]).radii.shape == (9,)


# ----------------------------------------------------------- weighted norms


def test_weighted_sup_norm_basics():
    assert cv.weighted_sup_norm([(0.0, 1.0)], 0.0) == pytest.approx(1.0)
    assert cv.weighted_sup_norm([((3.0, 0, 0, 0), 2.0)], 0.0) == pytest.approx(2.0)
    samples = [(r, (1.0 + r) ** -3) for r in (1.0, 2.0, 4.0, 8.0)]
    assert cv.weighted_sup_norm(samples, -3.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cv.weighted_sup_norm([], -1.0)


def test_weighted_sup_norm_nan_wins_in_any_order():
    # a degenerate sample makes the norm NaN wherever it sits in the list
    samples = [((1.0, 0, 0, 0), math.nan), ((2.0, 0, 0, 0), 1.0), (3.0, 0.5)]
    for order in ([0, 1, 2], [1, 0, 2], [1, 2, 0], [2, 1, 0]):
        assert math.isnan(cv.weighted_sup_norm([samples[i] for i in order], 0.0))


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_weighted_sup_norm_refuses_a_delta_that_is_not_finite(delta):
    # a NaN delta read nan, and delta = inf weighed every sample 0
    with pytest.raises(ValueError, match=f"delta must be finite, got {delta}"):
        cv.weighted_sup_norm([(1.0, 1.0), ((2.0, 0, 0, 0), 0.5)], delta)


@pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan, complex(math.inf, 0.0)])
def test_weighted_sup_norm_refuses_a_radius_that_is_not_finite_by_index(radius):
    # an infinite radius weighed its sample 0, as an infinite coordinate is refused
    with pytest.raises(ValueError, match="sample 1 has a non-finite radius"):
        cv.weighted_sup_norm([(1.0, 1.0), (radius, 1.0), (2.0, 0.5)], 0.0)
    with pytest.raises(ValueError, match="non-finite coordinate"):
        cv.weighted_sup_norm([(1.0, 1.0), ((math.inf, 0, 0, 0), 1.0)], 0.0)


def test_weighted_sup_norm_weight_past_the_float_range_reads_inf():
    # (1 + r)^2 at r = 1e300 overflows, which raised a bare OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cv.weighted_sup_norm([(2.0, 1.0), (1e300, 1.0)], -2.0) == math.inf
        assert cv.weighted_sup_norm([((1e300, 0, 0, 0), 3.0)], -2.5) == math.inf
        # where the weight itself is a float, it is kept; a value 0 weighs 0
        assert cv.weighted_sup_norm([(1e300, 1e-300)], -2.0) == pytest.approx(1e300, rel=1e-12)
        assert cv.weighted_sup_norm([(1.0, 0.5), (1e300, 0.0)], -2.0) == 2.0
        # and a NaN value still makes the norm NaN
        assert math.isnan(cv.weighted_sup_norm([(1.0, 0.5), (1e300, math.nan)], -2.0))


def test_weighted_sup_norm_takes_a_coordinate_radius_without_overflow():
    # the squares of (1e300, 0, 0, 0) overflow, which read r = inf and weighed
    # the sample inf; as the scalar radius 1e300 it reads 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = cv.weighted_sup_norm([(1e300, 1e-300)], -2.0)
        assert cv.weighted_sup_norm([((1e300, 0, 0, 0), 1e-300)], -2.0) == scalar
        assert cv.weighted_sup_norm([((0, -6e299, 0, 8e299), 1e-300)], -2.0) == scalar
        assert scalar == pytest.approx(1e300, rel=1e-12)
        # a radius that does not overflow keeps sqrt of the sum of squares
        assert cv.weighted_sup_norm([((1e-3, 2e-3, 0, 3e-3), 1.0)], -2.0) == (1.0 + math.sqrt(1.4e-5)) ** 2


def _eh_ray_norm(delta, rmax):
    rr = np.geomspace(2, rmax, 12)
    pts = np.zeros((12, 4))
    pts[:, 0] = rr
    dev = cv.metric_deviations(EH, pts)
    return cv.weighted_sup_norm(list(zip(pts, dev)), delta)


def test_weighted_norm_separates_decay_rates():
    # |g - I| ~ r^-4: weighting by (1+r)^4 stays bounded as the sample
    # region grows, while (1+r)^4.5 does not
    stable = _eh_ray_norm(-4.0, 256) / _eh_ray_norm(-4.0, 16)
    growing = _eh_ray_norm(-4.5, 256) / _eh_ray_norm(-4.5, 16)
    assert 0.9 < stable < 1.1
    assert growing > 1.5


# ------------------------------------------------------------ exact oracles


def _radial_scalar_oracle(f1, f2, f3, f4):
    # S from the first four derivatives of f(t) = F(e^t)
    g1 = f2 / f1 + f3 / f2 - 2.0
    g2 = f3 / f1 - (f2 / f1) ** 2 + f4 / f2 - (f3 / f2) ** 2
    return -2.0 * (g1 / f1 + g2 / f2)


def _burns_profile(m):
    # f(t) = e^t + m t
    return (lambda u: u + m * math.log(u)), (lambda u: (u + m, u, u, u))


def _eguchi_hanson_profile(a):
    # f' = w = sqrt(a^4 + u^2), and each further t-derivative is u d/du of the last
    a2 = a * a

    def profile(u):
        w = math.sqrt(a2 * a2 + u * u)
        return w + a2 * math.log(u) - a2 * math.log(a2 + w)

    def derivatives(u):
        w = math.sqrt(a2 * a2 + u * u)
        q = u * u / w
        return w, q, 2.0 * q - q * q / w, 4.0 * q - 6.0 * q * q / w + 3.0 * q**3 / (w * w)

    return profile, derivatives


# profile F(u) and the first four derivatives of f(t) = F(e^t) at u = e^t;
# S is exactly zero for Burns and Eguchi-Hanson
_RADIAL_PROFILES = {
    "quadratic-log": (
        lambda u: u + 0.1 * u * u + 0.3 * math.log(u),
        lambda u: (u + 0.2 * u * u + 0.3, u + 0.4 * u * u, u + 0.8 * u * u, u + 1.6 * u * u),
    ),
    "burns1": _burns_profile(1.0),
    "burns2.5": _burns_profile(2.5),
    "eguchi-hanson1": _eguchi_hanson_profile(1.0),
    "eguchi-hanson2.5": _eguchi_hanson_profile(2.5),
}


@pytest.mark.parametrize("order, rel_tol", [(4, 1e-5), (2, 5e-3)])
def test_radial_scalar_curvature_oracle(order, rel_tol):
    profile, derivatives = _RADIAL_PROFILES["quadratic-log"]
    pot = cv.custom_radial(profile)
    rng = np.random.default_rng(20160517)
    for u in (0.41, 1.0, 2.2, 5.0, 12.0):
        direction = rng.normal(size=4)
        x = math.sqrt(u) * direction / np.linalg.norm(direction)
        want = _radial_scalar_oracle(*derivatives(u))
        got = cv.scalar_curvature(pot, x, order=order)
        assert abs(got - want) <= rel_tol * abs(want), (u, got, want)


@pytest.mark.parametrize("name", sorted(_RADIAL_PROFILES))
def test_radial_scalar_oracle_is_exact(name):
    # the oracle itself: zero for the scalar-flat profiles, and its derivative
    # table against differences of the profile in t
    profile, derivatives = _RADIAL_PROFILES[name]
    for u in (0.5, 2.0, 9.0):
        f1, f2 = derivatives(u)[:2]
        dt = 1e-4
        f = [profile(u * math.exp(k * dt)) for k in (-2, -1, 1, 2)]
        assert abs((8 * (f[2] - f[1]) - (f[3] - f[0])) / (12 * dt) - f1) < 1e-8 * abs(f1)
        if name != "quadratic-log":
            assert abs(_radial_scalar_oracle(*derivatives(u))) < 1e-12 * (f1 + f2)


# worst |S - S_exact| / max(1, |S_exact|) of scalar_curvature over radii
# 0.5-64, about 3 times the measured one: in _RADIAL_PROFILES order 3.8e-9,
# 2.2e-8, 2.6e-8, 2.2e-7 and 1.0e-4 at order 4, 1.1e-6, 1.3e-6, 1.6e-6, 2.1e-4
# and 2.7e-3 at order 2.  Each bound stays below the error of the 4-D stencil
# at (r/sqrt 2)(1, 1, 0, 0): 1.0e-5, 1.7e-6, 7.6e-6, 2.8e-5 and 3.6e-3 at
# order 4, 2.9e-4, 1.0e-3, 8.1e-4, 1.2 and 102 at order 2
_RADIAL_TOLERANCES = {
    4: {"quadratic-log": 1e-8, "burns1": 1e-7, "burns2.5": 1e-7,
        "eguchi-hanson1": 1e-6, "eguchi-hanson2.5": 3e-4},
    2: {"quadratic-log": 3e-6, "burns1": 4e-6, "burns2.5": 5e-6,
        "eguchi-hanson1": 6e-4, "eguchi-hanson2.5": 1e-2},
}


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name", sorted(_RADIAL_PROFILES))
def test_radial_scalar_curvature_pinned_against_the_oracle(name, order):
    profile, derivatives = _RADIAL_PROFILES[name]
    pot = cv.custom_radial(profile)
    rng = np.random.default_rng(20160517)
    errors = []
    for r in np.geomspace(0.5, 64.0, 25):
        want = _radial_scalar_oracle(*derivatives(r * r))
        got = cv.scalar_curvature(pot, r * _directions(rng, 1)[0], order=order)
        errors.append(abs(got - want) / max(1.0, abs(want)))
    assert max(errors) <= _RADIAL_TOLERANCES[order][name], errors


@pytest.mark.parametrize("order", [2, 4])
def test_t_weights_meet_their_moment_conditions(order):
    # row j of the derivative table differentiates j times: in exact
    # arithmetic, sum_k w_k k^i = j! delta_ij for every i <= 2 reach
    rows = _engine._T_WEIGHTS[order]
    assert len(rows) == 4
    for j, (row, denominator) in enumerate(rows, 1):
        reach = len(row) // 2
        assert len(row) == 2 * reach + 1 == {4: 9, 2: 7}[order]
        assert all(isinstance(w, int) for w in row + (denominator,))
        for i in range(len(row)):
            moment = sum(Fraction(w * k**i, denominator) for k, w in enumerate(row, -reach))
            assert moment == (math.factorial(j) if i == j else 0), (j, i)


def _not_radial(z1, z2):
    # the arguments see the sign of a zero part: atan2(-0.0, -1) = -pi
    return (
        abs(z1) ** 2 + 2.0 * abs(z2) ** 2 + (z1 * z2).real
        + math.atan2(z1.imag, z1.real) + math.atan2(z2.imag, z2.real)
    )


_coordinate = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-3.0, 3.0))


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(st.lists(_coordinate, min_size=4, max_size=4), min_size=1, max_size=5),
    h0=st.floats(1e-3, 0.1),
    order=st.sampled_from((2, 4)),
    curvature=st.booleans(),
)
def test_both_ends_lattice_psi_matches_the_term_loop(points, h0, order, curvature, loop_psi):
    # the lattice that is not deduplicated calls fn as the term loop does:
    # bitwise, signed zeros included, with the same calls at the same sites
    x = np.array(points)
    h = _engine.step(x, h0)
    lattice = _engine.site_lattice(order, curvature, distinct=False)
    seen = {"lattice": collections.Counter(), "loop": collections.Counter()}

    def counting(key):
        def fn(z1, z2):
            seen[key][repr(z1), repr(z2)] += 1
            return _not_radial(z1, z2)

        return fn

    got = _engine.lattice_psi(counting("lattice"), x, h, lattice, "custom-general")
    want = loop_psi(counting("loop"), x, h, order, curvature)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert seen["lattice"] == seen["loop"]


_ENTRIES = {
    "scalar": lambda pot, fn: cv.scalar_curvature(pot, POINTS[0]),
    "hessian": lambda pot, fn: cv.hermitian_hessian(pot, POINTS[0]),
    "verify": lambda pot, fn: cv.verify_scalar_flat(pot, cv.SamplePlan(cv.sample_points(1, 4, 3))),
    # a plain callable perturbation is wrapped as a custom_general potential
    "derivative": lambda pot, fn: cv.scalar_curvature_derivative(
        FL, pot if pot.family == _engine.RADIAL else fn, POINTS[0]
    ),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("kind", [cv.custom_radial, cv.custom_general], ids=["radial", "general"])
@pytest.mark.parametrize("result", [None, 1j], ids=["none", "complex"])
def test_non_real_value_raises_naming_the_site(entry, kind, result):
    calls = []

    def fn(*args):
        calls.append(args)
        return result

    pot = kind(fn)
    with pytest.raises(TypeError) as info:
        _ENTRIES[entry](pot, fn)
    site = ", ".join(map(repr, calls[0]))
    assert str(info.value).startswith(f"{pot.name}: fn({site}) is not a real number")
    with pytest.raises(TypeError):
        pot(*POINTS[0])


def test_first_non_real_site_is_named():
    calls = []

    def fn(z1, z2):
        calls.append((z1, z2))
        return None if z1.real > 1.1 else abs(z1) ** 2 + abs(z2) ** 2

    with pytest.raises(TypeError) as info:
        cv.scalar_curvature(cv.custom_general(fn), POINTS[0])
    first = next((z1, z2) for z1, z2 in calls if z1.real > 1.1)
    assert f"fn({first[0]!r}, {first[1]!r})" in str(info.value)


def test_real_nan_reads_as_degenerate():
    plan = cv.SamplePlan(cv.sample_points(1, 4, 3))
    for pot in (cv.custom_radial(lambda u: math.nan), cv.custom_general(lambda z1, z2: math.nan)):
        with pytest.raises(DegenerateMetricError):
            cv.scalar_curvature(pot, POINTS[0])
        report = cv.verify_scalar_flat(pot, plan)
        assert not report.passed and report.degenerate_indices == (0, 1, 2)


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    b=st.lists(_unit, min_size=8, max_size=8),
    # outside the ball of radius 1.5, which keeps the stencil off the
    # origin at every h0 <= 0.1, as the single-point entries require
    x=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4).filter(
        lambda x: sum(c * c for c in x) > 2.25
    ),
    h0=st.floats(5e-3, 0.1),
    order=st.sampled_from((2, 4)),
)
def test_quadratic_form_hessian(b, x, h0, order):
    # Phi = conj(z)^T A z has d^2 Phi / dz_i dzbar_j = A_ji exactly, so every
    # weight and sign of the stencil table shows in the Hessian
    bm = np.array(b[:4]).reshape(2, 2) + 1j * np.array(b[4:]).reshape(2, 2)
    a = bm @ bm.conj().T + 0.5 * np.eye(2)
    pot = cv.custom_general(lambda z1, z2: (np.conj([z1, z2]) @ a @ [z1, z2]).real)
    g = cv.hermitian_hessian(pot, x, h0=h0, order=order)
    assert np.abs(g - a.T).max() < 1e-8


# ------------------------------------------------------------- site lattice


@pytest.mark.parametrize(
    "order, radial, general",
    [
        (4, (9, 9, 49 * 9 + 49 * 9), (5088, 96, 673 + 673)),
        (2, (7, 7, 25 * 7 + 25 * 7), (1392, 48, 169 + 169)),
    ],
    ids=["order4", "order2"],
)
def test_profile_calls_per_point(order, radial, general):
    # (S, Hessian, derivative of S at a background toward a perturbation)
    # calls per point.  A radial profile is called at 9 or 7 points along
    # t = log |z|^2 for S and g at a point, and so at each of the 49 or 25
    # distinct bases of the derivative's 4-D stencil (its last 4 bases
    # repeat the point, and take its g); a general callable at both
    # ends of every stencil term for its own S and Hessian, but once per
    # site in the derivative, as background and as perturbation.  Chunking
    # several points into one pass calls it as often as one call per point
    # would, across chunk boundaries too
    calls = []

    def profile(u):
        calls.append(u)
        return u + math.log(u)

    pots = (
        (cv.custom_radial(profile), radial),
        (cv.custom_general(lambda z1, z2: profile(abs(z1) ** 2 + abs(z2) ** 2)), general),
    )
    for pot, (s_calls, g_calls, d_calls) in pots:
        n_s = cv._chunk_points(order, True, pot.family is not None) + 1
        n_g = cv._chunk_points(order, False, pot.family is not None) + 1
        plan = cv.SamplePlan(cv.sample_points(1, 4, n_s), order=order)
        calls.clear()
        cv.scalar_curvature(pot, POINTS[0], order=order)
        assert len(calls) == s_calls, pot.name
        calls.clear()
        cv.hermitian_hessian(pot, POINTS[0], order=order)
        assert len(calls) == g_calls, pot.name
        calls.clear()
        cv.scalar_curvature_derivative(pot, pot, POINTS[0], order=order)
        assert len(calls) == d_calls, pot.name
        calls.clear()
        cv.verify_scalar_flat(pot, plan)
        assert len(calls) == s_calls * n_s, pot.name
        calls.clear()
        cv.metric_deviations(pot, cv.sample_points(1, 4, n_g), order=order)
        assert len(calls) == g_calls * n_g, pot.name


@pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "both-ends"])
@pytest.mark.parametrize("curvature", [False, True], ids=["hessian", "scalar"])
@pytest.mark.parametrize("order", [2, 4])
def test_site_lattice_maps_terms_to_their_sites(order, curvature, distinct):
    stencil = _engine.STENCILS[order]
    lattice = _engine.site_lattice(order, curvature, distinct)
    bases = stencil.bases if curvature else stencil.bases[:1]
    ends = bases[:, None] + stencil.steps
    assert lattice.terms.shape == lattice.bases.shape == ends.shape[:2]
    assert np.array_equal(lattice.offsets[lattice.terms], ends)
    starts = np.broadcast_to(bases[:, None], ends.shape)
    assert np.array_equal(lattice.offsets[lattice.bases], starts)
    if distinct:
        assert len(np.unique(lattice.offsets, axis=0)) == len(lattice.offsets)
    else:
        # every term's end, then every term's base: 2 B K sites, each used once
        n = lattice.terms.size
        assert len(lattice.offsets) == 2 * n
        assert np.array_equal(lattice.terms.ravel(), np.arange(n))
        assert np.array_equal(lattice.bases.ravel(), np.arange(n, 2 * n))


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.0, 0.2),
    b=st.floats(0.0, 1.0),
    r=st.floats(0.7, 8.0),
    d=st.lists(_unit, min_size=4, max_size=4).filter(lambda d: np.linalg.norm(d) > 0.1),
    order=st.sampled_from((2, 4)),
)
def test_custom_radial_matches_custom_general(a, b, r, d, order):
    # g along t and on the Hessian's stencil, and S along t and on the 4-D
    # stencil, each lie within their measured error of the exact value, at
    # orders 4 and 2.  g, worst over 400 draws of this domain, relative to
    # max(g11, g22): 1.3e-12 and 9.2e-10 along t, 1.1e-6 and 5.4e-4 on the
    # stencil.  S, worst over a grid: 5.0e-9 and 2.4e-6 along t, 3.2e-5 and
    # 7.7e-3 on the stencil
    def profile(u):
        return u + a * u * u + b * math.log(u)

    radial = cv.custom_radial(profile)
    general = cv.custom_general(lambda z1, z2: profile(abs(z1) ** 2 + abs(z2) ** 2))
    x = r * np.array(d) / np.linalg.norm(d)
    g11, g22, gr, gi = _quadratic_log_metric(a, b, x)
    g_want = np.array([[g11, complex(gr, gi)], [complex(gr, -gi), g22]])
    for pot, g_tol in ((radial, _PROFILE_METRIC_TOL[order][0]), (general, {4: 4e-6, 2: 1.6e-3}[order])):
        g = cv.hermitian_hessian(pot, x, order=order)
        assert np.abs(g - g_want).max() <= g_tol * max(g11, g22), pot.name
    u = r * r
    f1, f2, f3, f4 = (u + 2.0**j * a * u * u for j in range(1, 5))
    want = _radial_scalar_oracle(f1 + b, f2, f3, f4)
    radial_tol, general_tol = {4: (2e-8, 1e-4), 2: (1e-5, 2e-2)}[order]
    scale = max(1.0, abs(want))
    assert abs(cv.scalar_curvature(radial, x, order=order) - want) <= radial_tol * scale
    assert abs(cv.scalar_curvature(general, x, order=order) - want) <= general_tol * scale


def _quadratic_log_metric(a, b, x):
    """Exact (g11, g22, Re g12, Im g12) of F = u + a u^2 + b log u at x, rounded once.

    g = F' I + F'' conj(z) z^T with F' = 1 + 2 a u + b / u and F'' = 2 a
    - b / u^2, in exact rationals: a float is a binary rational.
    """
    a, b = Fraction(a), Fraction(b)
    x0, x1, x2, x3 = map(Fraction, x.tolist())
    u = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    d1, d2 = 1 + 2 * a * u + b / u, 2 * a - b / (u * u)
    return tuple(map(float, (
        d1 + d2 * (x0 * x0 + x1 * x1),
        d1 + d2 * (x2 * x2 + x3 * x3),
        d2 * (x0 * x2 + x1 * x3),
        d2 * (x0 * x3 - x1 * x2),
    )))


# order -> (normwise, diagonal) bound on a custom_radial g taken along t,
# about 3 times the worst error measured over 3000 draws of the oracle test's
# domain: 1.4e-12 of max(g11, g22) and 2.7e-12 of a diagonal entry at order
# 4, 9.4e-10 and 1.9e-9 at order 2 (rounding of f' and f'', and order 2's
# truncation, at a = 0.2 and r 33-64)
_PROFILE_METRIC_TOL = {4: (4e-12, 8e-12), 2: (3e-9, 6e-9)}


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(0.0, 0.2),
    b=st.floats(0.0, 1.0),
    r=st.floats(0.5, 64.0),
    d=st.lists(_unit, min_size=4, max_size=4).filter(lambda d: np.linalg.norm(d) > 0.1),
    order=st.sampled_from((2, 4)),
)
def test_custom_radial_metric_matches_the_exact_metric(a, b, r, d, order):
    # lam = f''/u and b = (f' - f'')/u^2 from the 9 (7) t-sites, with no
    # 4-D stencil; g is what metric_deviations reads, entry by entry
    x = r * np.array(d) / np.linalg.norm(d)
    pot = cv.custom_radial(lambda u: u + a * u * u + b * math.log(u))
    g = cv.hermitian_hessian(pot, x, order=order)
    got = (g[0, 0].real, g[1, 1].real, g[0, 1].real, g[0, 1].imag)
    want = _quadratic_log_metric(a, b, x)
    normwise, diagonal = _PROFILE_METRIC_TOL[order]
    assert max(abs(p - q) for p, q in zip(got, want)) <= normwise * max(want[:2]), (got, want)
    for p, q in zip(got[:2], want[:2]):
        assert abs(p - q) <= diagonal * q, (got, want)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("kind", ["flat", "eguchi-hanson", "burns", "custom-radial"])
def test_radial_deviations_match_single_hessians_bit_for_bit(kind, order):
    # a plan of three chunks: whole columns over the first two, Python
    # floats over the 3-point tail; each point's own Hessian takes Python
    # floats, for its t-derivatives and for g
    pot = _KINDS[kind]
    size = cv._chunk_points(order, False, along_t=True)
    pts = _random_points(20160517, 2 * size + 3)
    dev = cv.metric_deviations(pot, pts, order=order)
    single = []
    for x in pts:
        g = cv.hermitian_hessian(pot, x, order=order)
        single.append(max(abs(g[0, 0].real - 1.0), abs(g[1, 1].real - 1.0), abs(g[0, 1].real), abs(g[0, 1].imag)))
    assert dev.tobytes() == np.array(single).tobytes()


def _unitary(theta, phi1, phi2, alpha):
    """e^{i alpha} [[cos t e^{i p1}, -sin t e^{-i p2}], [sin t e^{i p2}, cos t e^{-i p1}]]: all of U(2)."""
    c, s = math.cos(theta), math.sin(theta)
    su2 = np.array([
        [c * np.exp(1j * phi1), -s * np.exp(-1j * phi2)],
        [s * np.exp(1j * phi2), c * np.exp(-1j * phi1)],
    ])
    return np.exp(1j * alpha) * su2


# rounding floor of S for a custom potential (test_custom_potential_noise_floor):
# the h^-4 of a fourth difference turns a one-ulp change of |x| into changes
# of S up to about 1e-8, so points whose computed radii differ agree only to this
CUSTOM_NOISE_FLOOR = 1e-6


_angle = st.floats(-math.pi, math.pi)


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(0.7, 8.0),
    d=st.lists(_unit, min_size=4, max_size=4).filter(lambda d: np.linalg.norm(d) > 0.1),
    angles=st.lists(_angle, min_size=4, max_size=4),
    order=st.sampled_from((2, 4)),
)
def test_radial_scalar_curvature_is_unitary_invariant(r, d, angles, order):
    # S of a radial potential is a function of the computed |x| alone, and
    # the profile gets the same calls in every direction
    calls = []

    def profile(u):
        calls.append(u)
        return u + 0.1 * u * u + 0.3 * math.log(u)

    pot = cv.custom_radial(profile)
    x = r * np.array(d) / np.linalg.norm(d)
    w = _unitary(*angles) @ (x[0::2] + 1j * x[1::2])
    ux = np.array([w[0].real, w[0].imag, w[1].real, w[1].imag])
    s = cv.scalar_curvature(pot, x, order=order)
    n_calls = len(calls)
    s_u = cv.scalar_curvature(pot, ux, order=order)
    assert n_calls == len(calls) - n_calls == len(_engine._T_WEIGHTS[order][0][0])
    (r_x, r_u) = _engine.norms(np.array([x, ux])).tolist()
    if r_x == r_u:
        assert s_u == s
    else:
        assert s_u == cv.scalar_curvature(pot, (r_u, 0.0, 0.0, 0.0), order=order)
        assert abs(s_u - s) <= CUSTOM_NOISE_FLOOR * max(1.0, abs(s))


# worst |S| of Eguchi-Hanson (a in [0.5, 3]) and Burns (m in [0.2, 3]) over
# radii 0.5-64, about 3 times the measured one: both are taken from their
# t-derivatives in closed form and read rounding, 3.7e-13 for Eguchi-Hanson
# (at a = 3, r = 0.5, inside the bolt) and 1.3e-15 for Burns, at both orders
_BUILTIN_ALONG_T_TOLERANCES = {
    ("eguchi-hanson", 4): 1.2e-12,
    ("eguchi-hanson", 2): 1.2e-12,
    ("burns", 4): 4e-15,
    ("burns", 2): 4e-15,
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("eguchi-hanson", "burns")),
    par=st.floats(0.0, 1.0),
    r=st.floats(0.5, 64.0),
    d=st.lists(_unit, min_size=4, max_size=4).filter(lambda d: np.linalg.norm(d) > 0.1),
    order=st.sampled_from((2, 4)),
)
def test_builtin_scalar_curvature_along_t_is_near_zero(kind, par, r, d, order):
    if kind == "eguchi-hanson":
        pot = cv.eguchi_hanson(0.5 + 2.5 * par)
    else:
        pot = cv.burns(0.2 + 2.8 * par)
    x = r * np.array(d) / np.linalg.norm(d)
    assert abs(cv.scalar_curvature(pot, x, order=order)) <= _BUILTIN_ALONG_T_TOLERANCES[kind, order]


@settings(max_examples=20, deadline=None)
@given(
    d=st.lists(st.floats(-8.0, 8.0), min_size=4, max_size=4).filter(
        lambda d: np.linalg.norm(d) > 0.6
    ),
    order=st.sampled_from((2, 4)),
)
@pytest.mark.parametrize("pot", [EH, BU, cv.eguchi_hanson(2.5)], ids=["eh1", "burns", "eh2.5"])
def test_builtin_scalar_curvature_along_t_depends_on_the_computed_radius(pot, d, order):
    # z -> (i z1, -z2) permutes and negates the squares |x|^2 adds, so both
    # points have the same computed radius, and their S is the same double
    x0, x1, x2, x3 = d
    x, y = np.array([d, [-x1, x0, -x2, -x3]])
    (r_x, r_y) = _engine.norms(np.array([x, y])).tolist()
    assert r_x == r_y
    assert cv.scalar_curvature(pot, x, order=order) == cv.scalar_curvature(pot, y, order=order)


def _eguchi_hanson_t_derivatives(a, u):
    # f' = w = sqrt(a^4 + u^2), f'' = phi = u^2 / w, f''' = phi (1 + q),
    # f'''' = phi (1 + 3 q^2), q = a^4 / w^2, and f' - f'' = a^4 / w, in
    # 60-digit decimals
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a4, u = Decimal(a) ** 4, Decimal(u)
        w = (a4 + u * u).sqrt()
        phi, q = u * u / w, a4 / (w * w)
        return [float(d) for d in (w, phi, phi * (1 + q), phi * (1 + 3 * q * q), a4 / w)]


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 1000.0, 1e60])
def test_eguchi_hanson_t_derivatives_match_decimal(a):
    # on Python floats and on columns alike, each of the four derivatives and
    # f' - f'' lies within a few ulps of its exact value (measured 4 at worst,
    # over these and 50 more radii in 0.3-100), inside the bolt (r < a) and
    # outside, near the origin and far out; u = r r from the computed radius
    radii = [0.3, 0.9 * a, 1.1 * a, 3.0, 40.0, 10.0 * a]
    u = [r * r for r in (math.sqrt(r * r) for r in radii)]
    with np.errstate(all="raise"):
        columns = _engine.builtin_t_derivatives(np, np.array(u), EH.family, a)
    for i, ui in enumerate(u):
        want = _eguchi_hanson_t_derivatives(a, ui)
        got = _engine.builtin_t_derivatives(math, ui, EH.family, a)
        assert [float(c[i]) for c in columns] == list(got)
        for g, w in zip(got, want):
            assert abs(g - w) <= 8 * math.ulp(w), (ui, got, want)


# (a, radii) -> max |S| a 64-point sweep may read, at both orders, about 3
# times the measured rounding: inside the bolt f'' = u^2 / w is small, and
# _scalar's f''''/f'' - (f'''/f'')^2 loses digits in proportion to w / u^2;
# at a = 1e60, q rounds to 1 and S is exactly 0
_BUILTIN_S_BOUNDS = {
    (1.0, (0.3, 1.0)): 1e-12, (1.0, (1.0, 8.0)): 5e-15,
    (2.5, (0.3, 1.0)): 6e-12, (2.5, (1.0, 8.0)): 3.5e-14,
    (1000.0, (0.3, 1.0)): 9e-7, (1000.0, (1.0, 8.0)): 5.5e-9,
    (1e60, (0.3, 1.0)): 0.0, (1e60, (1.0, 8.0)): 0.0,
}


@pytest.mark.parametrize("a, radii", sorted(_BUILTIN_S_BOUNDS))
def test_eguchi_hanson_scalar_curvature_reads_rounding(a, radii):
    # measured 3.3e-13 / 1.7e-15, 1.9e-12 / 1.1e-14, 2.8e-7 / 1.8e-9 and 0.0;
    # h0 and order set only the domain rule, not a built-in's S
    points = cv.sample_points(*radii, 64)
    want = None
    for order in (2, 4):
        for h0 in (0.002, 0.01, 0.04):
            report = cv.verify_scalar_flat(cv.eguchi_hanson(a), cv.SamplePlan(points, h0, order))
            assert report.passed and report.max_abs_scalar <= _BUILTIN_S_BOUNDS[a, radii]
            if want is None:
                want = report.scalar_values.tobytes()
            assert report.scalar_values.tobytes() == want


def test_eguchi_hanson_passes_at_every_scale():
    # 200 scales a from 0.01 to 1e76, radii 0.3-1e4: the worst |S| measured is
    # 3.1e-6, at a = 3.1e3 and r = 0.3, where 1 - q is near the rounding of 1
    points = cv.sample_points(0.3, 1e4, 64)
    for a in np.geomspace(0.01, 1e76, 200).tolist():
        report = cv.verify_scalar_flat(cv.eguchi_hanson(a), cv.SamplePlan(points))
        assert report.passed and report.max_abs_scalar <= 1e-5, a


def test_heavy_parameters_along_t():
    # Burns' m t joins f' as an exact slope, so m = 1e10 or 1e300 costs S no
    # digits (differenced, m = 1e10 read |S| = 0.1 at r = 1 from the rounding
    # of f''')
    plan = cv.SamplePlan(cv.sample_points(0.5, 64, 24))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (1e10, 1e300):
            for order in (2, 4):
                report = cv.verify_scalar_flat(cv.burns(m), cv.SamplePlan(plan.points, order=order))
                assert report.passed and report.max_abs_scalar < 1e-14, (m, order)


# sha256 of custom_radial's S over a seeded sweep at orders 2 and 4, as the
# values were before the built-in potentials shared its reduction along t
CUSTOM_RADIAL_S_SHA256 = "b6579902a43752fe60212b21a5c965767937631c7a3879a96a65c295f287c416"


def test_custom_radial_scalar_curvature_is_bitwise_stable():
    # the points and the profile take Python float arithmetic alone
    rng = random.Random(20160517)
    pts = []
    while len(pts) < 300:
        x = [rng.uniform(-6.0, 6.0) for _ in range(4)]
        if sum(c * c for c in x) >= 0.25:
            pts.append(x)
    pot = cv.custom_radial(lambda u: u + 0.2 * u * u + 0.4 * math.log(u))
    digest = hashlib.sha256()
    for order in (2, 4):
        s = cv.verify_scalar_flat(pot, cv.SamplePlan(np.array(pts), order=order)).scalar_values
        digest.update(s.tobytes())
    assert digest.hexdigest() == CUSTOM_RADIAL_S_SHA256


def _fsum_radial_scalar(values, h0, order):
    # radial_scalar as it was before its compensated sum: the terms laid out
    # (points, derivatives, terms), each derivative one correctly rounded
    # math.fsum, in a loop over the rows' Python floats
    reach = _engine._reach(order)
    up, down = values[:, reach + 1 :], values[:, reach - 1 :: -1]
    terms = np.empty((len(values), 4, reach))
    np.subtract(up, down, out=terms[:, 0])
    np.add(up, down, out=terms[:, 1])
    terms[:, 1] -= 2.0 * values[:, reach : reach + 1]
    terms[:, 2:] = terms[:, :2]
    terms *= np.array(_engine._t_table(order, h0)[0])
    out = []
    for f in terms.tolist():
        try:
            f1, f2, f3, f4 = map(math.fsum, f)
        except (OverflowError, ValueError):
            # fsum raises for a sum that overflows, or for inf - inf
            f1 = f2 = f3 = f4 = math.nan
        if not (f1 > 0.0 and f2 > 0.0):
            f1 = f2 = math.nan
        a, b = f2 / f1, f3 / f2
        out.append(-2.0 * ((a + b - 2.0) / f1 + (f3 / f1 - a * a + f4 / f2 - b * b) / f2) + 0.0)
    return np.array(out)


def _bits(s):
    # the bytes of an S array, every NaN as one NaN; the sign of a zero counts
    return np.where(np.isnan(s), np.nan, s).tobytes()


def _profile_scalar(x, values, h0, order):
    # a profile's S at the points x from its values along t, which alone set it
    return _engine.radial(True, x, values, h0, order)


def _single_rows(x, values, h0, order):
    # _profile_scalar on one row at a time, so on Python floats
    return np.concatenate([_profile_scalar(x[i : i + 1], values[i : i + 1], h0, order)
                           for i in range(len(values))])


# the built-in families as custom_radial profiles, whose values along t go
# through the compensated sums as any profile's do
_ALONG_T_KINDS = (
    [(f"eguchi-hanson-{a:g}", _eguchi_hanson_profile(a)[0]) for a in (0.5, 1.0, 2.5, 1000.0, 1e60)]
    + [(f"burns-{m:g}", _burns_profile(m)[0]) for m in (1.0, 1e10, 1e300)]
    + [("flat", _burns_profile(0.0)[0]), ("custom-radial", _KINDS["custom-radial"].fn)]
)


@pytest.mark.parametrize("h0", [0.002, 0.01, 0.05])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("kind, profile", _ALONG_T_KINDS, ids=[k for k, _ in _ALONG_T_KINDS])
def test_compensated_sum_matches_fsum_bit_for_bit(kind, profile, order, h0):
    # Sum2 is not correctly rounded for every input, but on the rows a profile
    # forms it gave fsum's bits on every one tried: 299,520 rows of these
    # kinds at radii 0.3-240 in random directions, the degenerate rows of a
    # deep Eguchi-Hanson bolt included; both paths are checked
    rng = np.random.default_rng(20160517)
    x = np.geomspace(0.3, 240.0, 96)[:, None] * _directions(rng, 96)
    with np.errstate(all="ignore"):
        values = _engine.profile_along_t(profile, x, h0, order, kind)
        want = _bits(_fsum_radial_scalar(values, h0, order))
        assert _bits(_profile_scalar(x, values, h0, order)) == want
        assert _bits(_single_rows(x, values, h0, order)) == want


# one row of f(t + k h), k = 1..4, per derivative, at order 4 and h0 = 0.01,
# with f = 0 at k <= 0: on row j, Sum2 of d^j f / dt^j's weighted terms
# gives other bits from k = 4 down than from k = 1 up.  Found by a seeded
# search over rows of two large terms that nearly cancel, a tiny one and a
# moderate one, in shuffled order; at order 2, with three terms, a reversed
# sum kept its bits on each of 300,000 such rows
_ORDER_SENSITIVE_ROWS = (
    (-14073788761702.4, -56294995531635.0, 7.115923918054341e-21, 5.603823184967041),
    (-0.13962649536132812, -1152924136079622.2, -9079257070582014.0, 3.06203538112249e-21),
    (-0.0020144422889928353, -818642490828.0377, -3843071713389.61, 3.774808887799361e-24),
    (2.112407946977459e-05, 3.153296165225374e-24, -28824415933.929882, -395287373065.7348),
)


def _sum2_reference(terms):
    # Sum2 written out: left-to-right partial sums, TwoSum's exact error of
    # each add, the errors added in order and their total added once
    s, err = terms[0], None
    for b in terms[1:]:
        t = s + b
        z = t - s
        e = (s - (t - z)) + (b - z)
        err = e if err is None else err + e
        s = t
    return s + err


def test_t_derivatives_sum_their_terms_from_k_1_up():
    h0, order = 0.01, 4
    reach = _engine._reach(order)
    h = 4.0 * h0
    weights = [[w / (d * h**j) for w in row[reach + 1 :]]
               for j, (row, d) in enumerate(_engine._T_WEIGHTS[order], 1)]
    want = []
    for j, row in enumerate(_ORDER_SENSITIVE_ROWS):
        terms = [[w * f for w, f in zip(ws, row)] for ws in weights]
        want.append([_sum2_reference(t) for t in terms])
        assert _sum2_reference(terms[j][::-1]) != want[-1][j]
        # the fifth value, f' - f'', is the difference of the first two sums
        want[-1].append(want[-1][0] - want[-1][1])
    values = np.zeros((len(_ORDER_SENSITIVE_ROWS), 2 * reach + 1))
    values[:, reach + 1 :] = _ORDER_SENSITIVE_ROWS

    def t_derivatives(xp, v):
        return _engine.t_derivatives(xp, v, h0, order)

    # four rows take Python floats, the same rows repeated whole columns
    assert len(values) < _engine._ROWS
    rows = _engine.rows_or_columns(t_derivatives, values)
    columns = _engine.rows_or_columns(t_derivatives, np.tile(values, (_engine._ROWS, 1)))
    assert rows.tolist() == columns[: len(values)].tolist() == want


_any_float = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))


# the most rows any kernel takes as Python floats
_CROSSOVER = max(_engine._ROWS, _engine._G_ROWS)


def _three_ways(evaluate, *arrays):
    # evaluate(*arrays) over the stack as drawn, over each row alone (Python
    # floats unless a row divides by zero) and over the stack repeated past
    # the crossover (whole columns), each cut back to the drawn rows
    n = len(arrays[0])
    reps = -(-_CROSSOVER // n)
    return (
        evaluate(*arrays),
        np.concatenate([evaluate(*(a[i : i + 1] for a in arrays)) for i in range(n)]),
        evaluate(*(np.concatenate([a] * reps) for a in arrays))[:n],
    )


# signed zeros and values far apart in size, where the order of operations
# shows in the bits, beside any finite float
_edge_float = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 3.0, 1e-300, 1e300)), _any_float)


def _draw_rows(data, rows, width):
    return np.array(data.draw(st.lists(
        st.lists(_edge_float, min_size=width, max_size=width), min_size=rows, max_size=rows
    )))


_BUILTINS = ("flat", "burns", "eguchi-hanson")
_KERNELS = _BUILTINS + tuple(f"{name}-scalar" for name in _BUILTINS) + (
    "profile-metric", "t-derivatives", "radial-scalar", "contraction")


@settings(max_examples=200, deadline=None)
@given(
    kernel=st.sampled_from(_KERNELS),
    order=st.sampled_from((2, 4)),
    h0=st.sampled_from((0.002, 0.01, 0.05)),
    rows=st.integers(1, 2 * _CROSSOVER),
    data=st.data(),
)
def test_rows_and_columns_give_the_same_bits(kernel, order, h0, rows, data):
    # any finite inputs, overflowing ones included: every kernel gives the
    # same bits on Python floats and on whole columns, NaN in the same places
    values = _draw_rows(data, rows, 2 * _engine._reach(order) + 1)
    x = _draw_rows(data, rows, 4)
    builtin = kernel.removesuffix("-scalar")
    if builtin in _BUILTINS:
        # g and S from the built-in's closed-form table
        family = EH.family if builtin == "eguchi-hanson" else BU.family
        par = 0.0 if builtin == "flat" else data.draw(_edge_float)
        curvature = kernel.endswith("-scalar")
        case = (lambda x: _engine.radial(curvature, x, None, family, par), x)
    elif kernel == "profile-metric":
        case = (lambda x, v: _engine.radial(False, x, v, h0, order), x, values)
    elif kernel == "t-derivatives":
        def t_derivatives(xp, v):
            return _engine.t_derivatives(xp, v, h0, order)

        case = (lambda v: _engine.rows_or_columns(t_derivatives, v), values)
    elif kernel == "radial-scalar":
        case = (lambda x, v: _profile_scalar(x, v, h0, order), x, values)
    else:
        # g, f = Hess log det g, det g and whether g is positive definite, at a base
        ok = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
        f, det = _draw_rows(data, rows, 4), _draw_rows(data, rows, 1)[:, 0]
        case = (lambda *a: _engine.rows_or_columns(_engine.contract, *a), x, f, det, ok)
    with np.errstate(all="ignore"):
        stack, single, columns = _three_ways(*case)
        assert _bits(stack) == _bits(single) == _bits(columns)
        if kernel == "radial-scalar":
            # the reference reads NaN where fsum raised (a sum that overflows,
            # or inf - inf) or g is not positive definite
            reference = _fsum_radial_scalar(values, h0, order)
            assert np.isnan(stack[np.isnan(reference)]).all()


def test_a_nonfinite_derivative_reads_degenerate():
    # order 2, h = 4 h0 = 0.2: f' has the terms 3.75, -0.75 and 1/12 times
    # f(k h) - f(-k h), k = 1, 2, 3; values 0 at k <= 0 leave f(k h) alone
    h0, order = 0.05, 2
    w1 = _engine._t_table(order, h0)[0][0]
    values = np.zeros((3, 7))
    values[0, 4:6] = 1e308 / w1[0], 1e308 / w1[1]  # every term of f' finite, f' overflows
    values[1, 4:6] = math.inf  # f' holds inf - inf
    values[2, 4] = math.inf  # f' = inf, which fsum sums to inf
    terms = [[v * w for v, w in zip(row[4:], w1)] for row in values.tolist()]
    for row, error in zip(terms, (OverflowError, ValueError)):
        with pytest.raises(error):
            math.fsum(row)
    assert math.fsum(terms[2]) == math.inf
    # repeated past the crossover, so that the stack takes whole columns
    values = np.tile(values, (_engine._ROWS, 1))
    x = np.ones((len(values), 4))
    with np.errstate(all="ignore"):
        for s in (_profile_scalar(x, values, h0, order), _single_rows(x, values, h0, order)):
            assert np.isnan(s).all(), s
    # max float + 9e291 + 9e291: every partial sum rounds to max float, and
    # only the final add of the errors overflows
    assert _engine._sum2([sys.float_info.max, 9e291, 9e291]) == math.inf
    assert math.isnan(_engine._sum2([1e308, 1e308, -1e308]))
    assert math.isnan(_engine._sum2([math.inf, 1.0, 1.0]))
    # such a derivative makes S NaN, though f' and f'' are positive
    f = (1e308, 1e308, 0.0, math.inf)
    assert math.isnan(_engine.scalar(math, f))
    with np.errstate(all="ignore"):
        assert np.isnan(_engine.scalar(np, np.array(f)[:, None])).all()


# ------------------------------------------------------ positive definiteness

_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e200, -1e200, math.inf, -math.inf, math.nan)


def test_positive_definite_kernel_on_special_values():
    # every component runs through the special values; rows and columns
    # give the same det bits and verdicts, and the verdict is the former
    # four-part test of hermitian_hessian, kept here as the reference
    rows = list(itertools.product(_SPECIAL, repeat=4))
    with np.errstate(all="ignore"):
        det, ok = _engine.positive_definite(np, *np.array(rows).T)
    for i, (g11, g22, gr, gi) in enumerate(rows):
        d, verdict = _engine.positive_definite(math, g11, g22, gr, gi)
        reference = g11 * g22 - gr * gr - gi * gi
        assert np.float64(d).tobytes() == det[i].tobytes() == np.float64(reference).tobytes(), rows[i]
        want = math.isfinite(reference) and reference > 0.0 and g11 > 0.0 and g22 > 0.0
        assert verdict is want and bool(ok[i]) is want, rows[i]
    assert ok.sum() > 0 and (~ok).sum() > 0


def _components(g):
    # (g11, g22, Re g12, Im g12) of a Hermitian matrix, as Python floats
    return g[0, 0].real.item(), g[1, 1].real.item(), g[0, 1].real.item(), g[0, 1].imag.item()


@pytest.mark.parametrize("pot, z", [(cv.eguchi_hanson(1000.0), (0.01, 0.01j)), (EH, (3e-5, 4e-5j))],
                         ids=["eguchi-hanson-1000", "eguchi-hanson-1"])
def test_builtin_hessian_is_returned_where_its_components_round_to_a_degenerate_det(pot, z):
    # g's eigenvalues are u/w and w/u, positive, but at a condition number
    # near 1e19 its det from rounded components is not positive: the former
    # component test raised DegenerateMetricError here
    want = _closed_form_hessian(pot, z)
    g11, g22, gr, gi = _components(want)
    assert not g11 * g22 - gr * gr - gi * gi > 0.0
    assert np.array_equal(cv.hermitian_hessian(pot, z), want)
    dev = cv.metric_deviations(pot, [z])
    assert np.isfinite(dev).all()


@pytest.mark.parametrize("pot", [EH, cv.eguchi_hanson(10.0), cv.eguchi_hanson(1000.0), cv.burns(1.5),
                                 cv.burns(1e10)], ids=lambda p: f"{p.name}-{p.parameter:g}")
def test_builtin_hessian_raises_only_where_its_closed_form_is_not_finite(pot):
    # radii 1e-6 to 1e4, and two near 1e-76, where Burns' b = m/u^2 and
    # Eguchi-Hanson's a^4/(w u^2) overflow for m = 1e10 and a = 1000
    rng = np.random.default_rng(33)
    radii = np.concatenate([np.exp(rng.uniform(math.log(1e-6), math.log(1e4), 300)), [1e-76, 3e-77]])
    pts = radii[:, None] * _directions(rng, len(radii))
    rounded_degenerate = 0
    for x in pts:
        want = _closed_form_hessian(pot, x)
        g11, g22, gr, gi = _components(want)
        det = g11 * g22 - gr * gr - gi * gi
        rounded_degenerate += not (det > 0.0)
        if np.isfinite(want).all():
            assert np.array_equal(cv.hermitian_hessian(pot, x), want)
        else:
            with pytest.raises(DegenerateMetricError):
                cv.hermitian_hessian(pot, x)
    if pot.parameter in (1000.0, 1e10):
        assert rounded_degenerate > 0


# f'' = u - 0.4 u^2 changes sign at u = 2.5, |z| = 1.58
_CROSSING = cv.custom_radial(lambda u: u - 0.1 * u * u)
_ALL_NEGATIVE = cv.custom_general(lambda z1, z2: -(abs(z1) ** 2 + abs(z2) ** 2))


def _crossing_points(n):
    # radii on both sides of |z| = 1.58, away from it: f'' is 0.23 at 1.5 and -0.28 at 1.66
    rng = np.random.default_rng(1605)
    radii = np.where(rng.random(n) < 0.5, rng.uniform(0.8, 1.5, n), rng.uniform(1.66, 2.2, n))
    return radii, radii[:, None] * _directions(rng, n)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("pot", [_CROSSING, _ALL_NEGATIVE], ids=["radial-crossing", "general-negative"])
def test_custom_deviations_are_nan_exactly_where_g_fails_the_test(pot, order):
    # a chunk's columns and a tail of Python-float rows, both
    n = 2 * cv._chunk_points(order, False, pot.family is not None) + 3
    radii, pts = _crossing_points(n)
    dev = cv.metric_deviations(pot, pts, order=order)
    with np.errstate(all="ignore"):
        g = cv._evaluate(pot, pts, 1e-2, order, False)
        ok = _engine.positive_definite(np, *g.T)[1]
    assert (np.isnan(dev) == ~ok).all()
    if pot is _CROSSING:
        assert (ok == (radii < 1.58)).all()
    else:
        assert not ok.any()
    # the rows that pass keep the bits of max |g - I|
    unmasked = np.max(np.abs(g - np.array([1.0, 1.0, 0.0, 0.0])), axis=1)
    assert dev[ok].tobytes() == unmasked[ok].tobytes()


# sha256 of every built-in deviation, and of the crossing profile's rows
# inside |z| = 1.58, where its g is positive definite, over
# _crossing_points(40) at orders 2 and 4, as they were before the
# deviations took their positive-definiteness rule
DEVIATIONS_SHA256 = "7be495fcf3ea0099db5e768c636ac829db14245a454956b9ec202f54d94d0bf3"


def test_deviations_keep_their_bits():
    radii, pts = _crossing_points(40)
    digest = hashlib.sha256()
    for order in (2, 4):
        for pot in (FL, EH, cv.eguchi_hanson(1000.0), cv.burns(1.5), cv.burns(1e10), _CROSSING):
            dev = cv.metric_deviations(pot, pts, order=order)
            digest.update(dev[radii < 1.58 if pot is _CROSSING else slice(None)].tobytes())
    assert digest.hexdigest() == DEVIATIONS_SHA256


_CONTRACT_KINDS = (
    EH, cv.eguchi_hanson(1000.0), cv.burns(1e10), FL,
    cv.custom_radial(lambda u: u + math.log(u)), _CROSSING, cv.custom_radial(lambda u: -u),
    _KINDS["custom-general"], _ALL_NEGATIVE,
)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.integers(0, len(_CONTRACT_KINDS) - 1),
    log_r=st.floats(math.log(1e-6), math.log(1e4)),
    d=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda v: sum(c * c for c in v) > 0.01),
    order=st.sampled_from([2, 4]),
)
def test_deviations_are_not_finite_exactly_where_the_hessian_raises(kind, log_r, d, order):
    pot = _CONTRACT_KINDS[kind]
    if pot.fn is not None:
        # a custom potential's g keeps the stencil rule near the origin
        log_r = max(log_r, math.log(0.5))
    x = math.exp(log_r) * np.array(d) / math.sqrt(sum(c * c for c in d))
    try:
        cv.hermitian_hessian(pot, x, order=order)
        raised = False
    except DegenerateMetricError:
        raised = True
    # one point as a Python-float row, and repeated as whole columns
    for n in (1, 16):
        dev = cv.metric_deviations(pot, np.tile(x, (n, 1)), order=order)
        assert (~np.isfinite(dev) == raised).all(), (pot.name, x, dev)


# ---------------------------------------------------------------- pullbacks

# Phi o A for A in GL(2, C) is the potential of the metric pulled back by
# z -> Az, so g_{Phi o A}(z) = A^T g_Phi(Az) conj(A) and S_{Phi o A}(z) =
# S_Phi(Az): exact non-radial references when Phi is radial
_PULLBACKS = {
    "unitary": _unitary(0.7, 0.3, -1.1, 0.4),
    "general": np.array([[1.0, 0.3 + 0.4j], [-0.2j, 0.9]]),
}


def _pullback(phi, a):
    """custom_general potential z -> phi(Az) for a callable phi(w1, w2)."""
    (a11, a12), (a21, a22) = a.tolist()
    return cv.custom_general(lambda z1, z2: phi(a11 * z1 + a12 * z2, a21 * z1 + a22 * z2))


def _pullback_points():
    rng = np.random.default_rng(20160517)
    x = np.geomspace(0.8, 6.0, 6)[:, None] * _directions(rng, 6)
    return [(complex(x0, x1), complex(x2, x3)) for x0, x1, x2, x3 in x.tolist()]


# worst error over _pullback_points and both A, about 3 times the measured
# one (quadratic-log, Burns 2.5, Eguchi-Hanson 1: g 8.1e-7, 2.4e-6, 2.5e-6
# and S 3.1e-5, 3.8e-5, 7.0e-5 at order 4; g 2.8e-4, 2.6e-4, 2.6e-4 and S
# 2.1e-3, 5.9e-3, 5.1e-2 at order 2), relative to max(1, largest exact entry
# or |S|).  S is the 4-D stencil's truncation error, far above the rounding
# of where the callable is sampled (2.5e-9)
_PULLBACK_TOLERANCES = {
    4: {"quadratic-log": (3e-6, 1e-4), "burns2.5": (8e-6, 1.2e-4),
        "eguchi-hanson1": (8e-6, 2e-4)},
    2: {"quadratic-log": (8e-4, 7e-3), "burns2.5": (8e-4, 2e-2),
        "eguchi-hanson1": (8e-4, 0.15)},
}


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("a", sorted(_PULLBACKS))
@pytest.mark.parametrize("name", sorted(_PULLBACK_TOLERANCES[4]))
def test_pullback_hessian_and_scalar_curvature(name, a, order):
    profile, derivatives = _RADIAL_PROFILES[name]
    pot = _pullback(lambda w1, w2: profile(abs(w1) ** 2 + abs(w2) ** 2), _PULLBACKS[a])
    g_tol, s_tol = _PULLBACK_TOLERANCES[order][name]
    for z in _pullback_points():
        w = _PULLBACKS[a] @ np.array(z)
        u = float(np.vdot(w, w).real)
        f1, f2, f3, f4 = derivatives(u)
        # F' = f'/u and F'' = (f'' - f')/u^2 for f(t) = F(e^t)
        g = f1 / u * np.eye(2) + (f2 - f1) / (u * u) * np.outer(w.conj(), w)
        want = _PULLBACKS[a].T @ g @ _PULLBACKS[a].conj()
        got = cv.hermitian_hessian(pot, z, order=order)
        assert np.abs(got - want).max() <= g_tol * max(1.0, np.abs(want).max()), z
        s_want = _radial_scalar_oracle(f1, f2, f3, f4)
        s_got = cv.scalar_curvature(pot, z, order=order)
        assert abs(s_got - s_want) <= s_tol * max(1.0, abs(s_want)), z


@pytest.mark.parametrize("a", sorted(_PULLBACKS))
@pytest.mark.parametrize("base", [BU, EH], ids=["burns", "eguchi-hanson"])
def test_pullbacks_of_scalar_flat_metrics_pass(base, a):
    # non-radial and exactly scalar-flat; measured max |S| 4.6e-6 to 1.6e-5
    plan = cv.SamplePlan(cv.sample_points(1, 8, 12))
    report = cv.verify_scalar_flat(_pullback(base, _PULLBACKS[a]), plan)
    assert report.passed and report.degenerate_indices == ()


# ------------------------------------------------------------ package names


def test_package_lists_every_curvature_name():
    # curvature loads lazily, so the package keeps its names in one
    # hand-written list; it must match what the module defines
    defined = {
        name
        for name, obj in vars(cv).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == cv.__name__
    }
    assert defined == set(sfkale._CURVATURE_NAMES)
    assert len(set(sfkale.__all__)) == len(sfkale.__all__)
