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
    return _engine.radial(False, x[None], None, _engine.builtin_t_derivatives, family, par)[0]


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
