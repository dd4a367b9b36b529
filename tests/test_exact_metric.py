"""The built-ins' closed-form metric against sympy's exact complex Hessian.

Each built-in potential is written out in the real coordinates (x0, x1,
x2, x3) = (Re z1, Im z1, Re z2, Im z2), and sympy differentiates it:
g_ij = d2 Phi / dz_i dzbar_j with d/dz = (d/dx - i d/dy) / 2.  A float
point is an exact binary rational, so the exact value at it is taken to
40 digits and only then rounded.  The radii reach from deep inside the
Eguchi-Hanson bolt (a = 1000 at r = 1, where |z|^2 = 1e-6 a^2) out to
1e3, and Burns' m runs up to 1e10.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkale import _engine
from sfkale import curvature as cv

sp = pytest.importorskip("sympy")

X = sp.symbols("x0:4", real=True)
PAR = sp.Symbol("par", positive=True)
_U = sum(c * c for c in X)
_W = sp.sqrt(PAR**4 + _U**2)
PHI = {
    "flat": _U,
    "burns": _U + PAR * sp.log(_U),
    "eguchi-hanson": _W + PAR**2 * sp.log(_U) - PAR**2 * sp.log(PAR**2 + _W),
}
# flat is Burns with m = 0
FAMILY = {"flat": _engine.BURNS, "burns": _engine.BURNS, "eguchi-hanson": _engine.EGUCHI_HANSON}

# max |closed form - exact| over max(g11, g22), and the relative error of
# each diagonal entry, measured at most 7.9e-16 over 30,000 random draws
REL_TOL = 1.5e-15


def _closed_form_metric(family, par, x):
    # (g11, g22, Re g12, Im g12) at the point x from the built-in's closed-form table
    return _engine.radial(False, x[None], None, family, par)[0]


@functools.cache
def _exact_metric(name):
    """(g11, g22, Re g12, Im g12) of the potential as sympy expressions."""
    d = lambda a, b: sp.diff(PHI[name], X[a], X[b])
    return (
        (d(0, 0) + d(1, 1)) / 4,
        (d(2, 2) + d(3, 3)) / 4,
        (d(0, 2) + d(1, 3)) / 4,
        (d(0, 3) - d(1, 2)) / 4,
    )


_parameters = st.one_of(
    st.tuples(st.just("flat"), st.just(0.0)),
    st.tuples(st.just("burns"), st.floats(-3.0, 10.0).map(lambda e: 10.0**e)),
    st.tuples(st.just("eguchi-hanson"), st.floats(-1.0, 3.0).map(lambda e: 10.0**e)),
)


@settings(max_examples=80, deadline=None)
@given(
    potential=_parameters,
    log_r=st.floats(0.0, 3.0),
    d=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda d: np.linalg.norm(d) > 0.1
    ),
)
def test_closed_form_metric_matches_the_exact_hessian(potential, log_r, d):
    name, par = potential
    x = 10.0**log_r * np.array(d) / np.linalg.norm(d)
    subs = {c: sp.Rational(v) for c, v in zip(X, x.tolist())}
    subs[PAR] = sp.Rational(par)
    want = [float(e.evalf(40, subs=subs)) for e in _exact_metric(name)]
    got = _closed_form_metric(FAMILY[name], par, x).tolist()
    scale = max(want[0], want[1])
    assert max(abs(a - b) for a, b in zip(got, want)) <= REL_TOL * scale, (got, want)
    for a, b in zip(got[:2], want[:2]):
        assert abs(a - b) <= REL_TOL * b, (got, want)


@pytest.mark.parametrize(
    "pot", [cv.flat(), cv.burns(1.0), cv.eguchi_hanson(1.0), cv.eguchi_hanson(1000.0)],
    ids=["flat", "burns", "eguchi-hanson", "eguchi-hanson-1000"],
)
def test_hermitian_hessian_is_the_closed_form_at_the_point(pot):
    # no step, no stencil: h0 and order do not move a built-in's g
    z = (1.3, 0.4 + 0.2j)
    g = cv.hermitian_hessian(pot, z)
    g11, g22, gr, gi = _closed_form_metric(pot.family, pot.parameter, np.array(cv._coords(z)))
    assert g.tolist() == [[g11, complex(gr, gi)], [complex(gr, -gi), g22]]
    for h0, order in ((1e-3, 2), (0.05, 4)):
        assert np.array_equal(cv.hermitian_hessian(pot, z, h0=h0, order=order), g)


def _exact_at(expr, x, par):
    subs = {c: sp.Rational(v) for c, v in zip(X, x)}
    subs[PAR] = sp.Rational(par)
    return float(expr.evalf(40, subs=subs))


@pytest.mark.parametrize("a", [1.0, 1e-3, 1e30])
@pytest.mark.parametrize("r", [1e77, 1.2e77, 1e100, 1e130, 1e153])
def test_eguchi_hanson_is_the_closed_form_where_u_squared_overflows(a, r):
    # past |z| = 1.16e77, u^2 overflows a float; w = sqrt(a^4 + u^2) is
    # then taken as u sqrt(1 + (a^2/u)^2), and Phi, g and S stay the
    # exact ones (S = 0), where f'' read 0 and the point degenerated
    pot = cv.eguchi_hanson(a)
    x = r * np.array([0.5, 0.5, 0.5, 0.5])
    got = _closed_form_metric(pot.family, a, x).tolist()
    want = [_exact_at(e, x.tolist(), a) for e in _exact_metric("eguchi-hanson")]
    scale = max(want[0], want[1])
    assert max(abs(g - w) for g, w in zip(got, want)) <= REL_TOL * scale, (got, want)
    z = (complex(x[0], x[1]), complex(x[2], x[3]))
    assert pot(*z) == pytest.approx(_exact_at(PHI["eguchi-hanson"], x.tolist(), a), rel=1e-15)
    assert np.array_equal(cv.hermitian_hessian(pot, z), cv.hermitian_hessian(pot, x))
    assert abs(cv.scalar_curvature(pot, z)) <= 1e-15


def test_eguchi_hanson_is_the_closed_form_where_both_squares_underflow():
    # at a = 1e-160 and |z| near 1e-140, a^4 + u^2 underflows to 0, so w
    # read 0 and no S was finite; w is now u sqrt(1 + (a^2/u)^2)
    a, h0 = 1e-160, 1e-150
    pot = cv.eguchi_hanson(a)
    points = cv.sample_points(1e-140, 1e-139, 8)
    report = cv.verify_scalar_flat(pot, cv.SamplePlan(points, h0=h0))
    assert report.passed and report.degenerate_indices == ()
    # S = 0 exactly, on the columns and on each point's Python floats
    assert report.scalar_values.tolist() == [0.0] * 8
    assert [cv.scalar_curvature(pot, x, h0=h0) for x in points] == [0.0] * 8
    for x in points[:4].tolist():
        z = (complex(x[0], x[1]), complex(x[2], x[3]))
        assert pot(*z) == pytest.approx(_exact_at(PHI["eguchi-hanson"], x, a), rel=1e-15)
        # g divides by |z|^4, which underflows: the closed-form rule refuses it
        with pytest.raises(ValueError, match="lies at the origin"):
            cv.hermitian_hessian(pot, z, h0=h0)
    # the table's t-derivatives are (u, u, u, u) to rounding here, as for
    # flat, and at the smallest radius whose |z|^4 is normal g is the exact one
    u = float(np.dot(points[0], points[0]))
    f = _engine.builtin_t_derivatives(math, u, pot.family, a)
    assert f[:4] == (u, u, u, u)
    x = [1.2e-77, 0.0, 0.0, 0.0]
    got = _closed_form_metric(pot.family, a, np.array(x)).tolist()
    want = [_exact_at(e, x, a) for e in _exact_metric("eguchi-hanson")]
    assert max(abs(g - w) for g, w in zip(got, want)) <= REL_TOL * max(want[0], want[1])
