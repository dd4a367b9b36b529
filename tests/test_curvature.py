"""Finite-difference curvature checks against analytic oracles.

The reference values are classical: the flat metric has hessian I and
vanishing curvature, the Eguchi-Hanson metric has unit determinant and
|g - I| ~ r^-4, the Burns metric has det g = 1 + m/u and r^-2 decay.
The radial-hessian oracle recomputes g from one-dimensional derivative
stencils of the profile, fully outside the code under test.  The radial
scalar-curvature oracle is exact: for Phi = F(|z|^2) and f(t) = F(e^t),
S = -2 (G'/f' + G''/f'') with G = log(f' f'') - 2t.
"""

import inspect
import math
import warnings

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


def test_custom_general_matches_custom_radial():
    def profile(u):
        w = math.sqrt(1 + u * u)
        return w + math.log(u) - math.log(1 + w)

    z = (1.1, 0.4 - 0.8j)
    pg = cv.custom_general(lambda z1, z2: profile(abs(z1) ** 2 + abs(z2) ** 2))
    pr = cv.custom_radial(profile)
    assert np.abs(cv.hermitian_hessian(pg, z) - cv.hermitian_hessian(pr, z)).max() < 1e-10


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
    assert report.max_abs_scalar == float("inf")
    assert report.worst_index is None
    assert report.degenerate_indices == tuple(range(8))


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
    pot = _KINDS[kind]
    sizes = _plan_sizes(cv._chunk_points(order, curvature=True))
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
    pot = _KINDS[kind]
    sizes = _plan_sizes(cv._chunk_points(order, curvature=False))
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
    pts = radii[:, None] * _directions(np.random.default_rng(7), len(radii))
    bad = np.flatnonzero(radii > 2.5)
    good = np.flatnonzero(radii < 2.5)
    assert cv._chunk_points(4, curvature=True) < len(radii)
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
    assert report.max_abs_scalar == float("inf")
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


def test_sample_plan_validation():
    pts = cv.sample_points(1, 4, 4)
    for bad in (dict(h0=0.0), dict(h0=0.2), dict(order=3)):
        with pytest.raises(ValueError):
            cv.SamplePlan(pts, **bad)
    with pytest.raises(ValueError):
        cv.SamplePlan(np.array([[0.05, 0, 0, 0]]))  # too close to the origin
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


def test_verify_scalar_flat_with_extras():
    plan = cv.SamplePlan(cv.sample_points(1, 8, 8))
    report = cv.verify_scalar_flat(
        EH, plan, decay_radii=np.geomspace(2, 64, 10), weight_deltas=(-4.0,)
    )
    assert report.passed
    assert abs(report.decay.mu - 4.0) < 0.1
    assert report.weighted_norms[-4.0] > 0


# ------------------------------------------------------------ exact oracles


def _radial_scalar_oracle(u):
    # F(u) = u + 0.1 u^2 + 0.3 log u, so f(t) = F(e^t) has these derivatives
    f1 = u + 0.2 * u * u + 0.3
    f2 = u + 0.4 * u * u
    f3 = u + 0.8 * u * u
    f4 = u + 1.6 * u * u
    g1 = f2 / f1 + f3 / f2 - 2.0
    g2 = f3 / f1 - (f2 / f1) ** 2 + f4 / f2 - (f3 / f2) ** 2
    return -2.0 * (g1 / f1 + g2 / f2)


@pytest.mark.parametrize("order, rel_tol", [(4, 1e-5), (2, 5e-3)])
def test_radial_scalar_curvature_oracle(order, rel_tol):
    pot = cv.custom_radial(lambda u: u + 0.1 * u * u + 0.3 * math.log(u))
    rng = np.random.default_rng(20160517)
    for u in (0.41, 1.0, 2.2, 5.0, 12.0):
        direction = rng.normal(size=4)
        x = math.sqrt(u) * direction / np.linalg.norm(direction)
        want = _radial_scalar_oracle(u)
        got = cv.scalar_curvature(pot, x, order=order)
        assert abs(got - want) <= rel_tol * abs(want), (u, got, want)


@pytest.mark.parametrize(
    "pot", [FL, EH, BU, cv.eguchi_hanson(2.5)], ids=["flat", "eh", "burns", "eh2.5"]
)
@pytest.mark.parametrize("order", [2, 4])
def test_builtin_psi_matches_scalar_loop(pot, order):
    # the numpy closed forms against plain differences of the potential itself,
    # whose own rounding is a few ulps of Phi at the site; all points in one pass
    x = np.array([cv._coords(z) for z in POINTS])
    bases, steps = _engine.sites(x, _engine.step(x, 0.05), order, curvature=True)
    fast = _engine.builtin_psi(pot.family, pot.parameter, bases, steps)
    loop = _engine.callable_psi(
        lambda *y: _engine.builtin_potential(pot.family, pot.parameter, *y), bases, steps
    )
    scale = np.array([abs(pot(*z)) + 1.0 for z in POINTS])[:, None, None]
    assert np.all(np.abs(fast - loop) < 64 * np.finfo(float).eps * scale)


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    b=st.lists(_unit, min_size=8, max_size=8),
    x=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
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
    "order, radial_s, radial_g, general_s, general_g",
    [(4, 673, 49, 5088, 96), (2, 169, 25, 1392, 48)],
)
def test_profile_calls_per_point(order, radial_s, radial_g, general_s, general_g):
    # a radial profile is called once per distinct stencil site, a general
    # callable at both ends of every stencil term; chunking several points
    # into one pass calls it as often as one call per point would, across
    # chunk boundaries too
    calls = []

    def profile(u):
        calls.append(u)
        return u + math.log(u)

    radial = cv.custom_radial(profile)
    general = cv.custom_general(lambda z1, z2: profile(abs(z1) ** 2 + abs(z2) ** 2))
    n_s = cv._chunk_points(order, curvature=True) + 1
    n_g = cv._chunk_points(order, curvature=False) + 1
    plan = cv.SamplePlan(cv.sample_points(1, 4, n_s), order=order)
    for pot, s_calls, g_calls in ((radial, radial_s, radial_g), (general, general_s, general_g)):
        calls.clear()
        cv.scalar_curvature(pot, POINTS[0], order=order)
        assert len(calls) == s_calls, pot.name
        calls.clear()
        cv.hermitian_hessian(pot, POINTS[0], order=order)
        assert len(calls) == g_calls, pot.name
        calls.clear()
        cv.scalar_curvature_derivative(pot, pot, POINTS[0], order=order)
        assert len(calls) == 2 * s_calls, pot.name
        calls.clear()
        cv.verify_scalar_flat(pot, plan)
        assert len(calls) == s_calls * n_s, pot.name
        calls.clear()
        cv.metric_deviations(pot, cv.sample_points(1, 4, n_g), order=order)
        assert len(calls) == g_calls * n_g, pot.name


@pytest.mark.parametrize("curvature", [False, True], ids=["hessian", "scalar"])
@pytest.mark.parametrize("order", [2, 4])
def test_site_lattice_maps_terms_to_their_sites(order, curvature):
    stencil = _engine.STENCILS[order]
    lattice = _engine.site_lattice(order, curvature)
    bases = stencil.bases if curvature else stencil.bases[:1]
    assert len(np.unique(lattice.offsets, axis=0)) == len(lattice.offsets)
    assert np.array_equal(lattice.offsets[lattice.terms], bases[:, None] + stencil.steps)
    assert np.array_equal(lattice.offsets[lattice.bases], bases)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.0, 0.2),
    b=st.floats(0.0, 1.0),
    r=st.floats(0.7, 8.0),
    d=st.lists(_unit, min_size=4, max_size=4).filter(lambda d: np.linalg.norm(d) > 0.1),
    order=st.sampled_from((2, 4)),
)
def test_custom_radial_matches_custom_general(a, b, r, d, order):
    # the lattice path and the per-term loop difference the same potential
    def profile(u):
        return u + a * u * u + b * math.log(u)

    radial = cv.custom_radial(profile)
    general = cv.custom_general(lambda z1, z2: profile(abs(z1) ** 2 + abs(z2) ** 2))
    x = r * np.array(d) / np.linalg.norm(d)
    g_radial = cv.hermitian_hessian(radial, x, order=order)
    g_general = cv.hermitian_hessian(general, x, order=order)
    assert np.abs(g_radial - g_general).max() < 1e-9
    s_radial = cv.scalar_curvature(radial, x, order=order)
    s_general = cv.scalar_curvature(general, x, order=order)
    assert abs(s_radial - s_general) <= 1e-7 * max(1.0, abs(s_general))


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
