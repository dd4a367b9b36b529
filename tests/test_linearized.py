"""Directional-derivative checks for the scalar curvature operator.

On the flat background the linearization is -(1/8) times the squared
euclidean laplacian.  The oracle below applies that bilaplacian with
nested fourth-order stencils, entirely independent of the library's
own differencing, and the derivative quotient must match it.  Known
closed forms double as spot values: the bilaplacian of u^2 is the
constant 192 and that of x0^6 is 360 x0^2.  A callable perturbation is
called once per stencil site; the quotient must equal the one taken
with it called at both ends of every term.  On the curved Burns and
Eguchi-Hanson backgrounds the holomorphy potentials must sit in the
kernel, and a control outside it must not.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkale import _engine
from sfkale import curvature as cv
from sfkale.errors import DegenerateMetricError

FLAT = cv.flat()

FIVE_POINTS = [
    (1.3, 0.7 + 0.2j),
    (2.0, 0.5j),
    (1.0, 1.0),
    (0.9 + 0.4j, 1.1),
    (1.5, 1.5j),
]


def u_squared(z1, z2):
    return 0.1 * (abs(z1) ** 2 + abs(z2) ** 2) ** 2


def sixth_power(z1, z2):
    return 0.05 * z1.real**6


def mixed(z1, z2):
    return 0.1 * ((abs(z1) ** 2 + abs(z2) ** 2) ** 2 + z1.real**3)


def _as_real4(z):
    z1, z2 = complex(z[0]), complex(z[1])
    return np.array([z1.real, z1.imag, z2.real, z2.imag])


def _laplacian(f, x, h):
    total = 0.0
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        total += (-f(x + 2 * e) + 16 * f(x + e) - 30 * f(x) + 16 * f(x - e) - f(x - 2 * e)) / (
            12 * h * h
        )
    return total


def _bilaplacian(f, x, h=0.05):
    return _laplacian(lambda y: _laplacian(f, y, h), x, h)


def _oracle(f, z):
    # independent reference: L f = -(1/8) laplacian^2 f on the flat background
    x = _as_real4(z)
    fx = lambda y: f(complex(y[0], y[1]), complex(y[2], y[3]))
    return -_bilaplacian(fx, x) / 8.0


def test_constant_perturbation_maps_to_zero():
    for z in FIVE_POINTS[:2]:
        assert cv.scalar_curvature_derivative(FLAT, lambda a, b: 5.0, z) == 0.0


def test_u_squared_closed_form():
    # bilaplacian of u^2 is 192, so L(0.1 u^2) = -0.1 * 192 / 8 = -2.4
    for z in FIVE_POINTS:
        got = cv.scalar_curvature_derivative(FLAT, u_squared, z)
        assert abs(got + 2.4) / 2.4 < 1e-4


def test_sixth_power_closed_form():
    # bilaplacian of x0^6 is 360 x0^2
    for z in [(1.3, 0.7 + 0.2j), (0.9 + 0.4j, 1.1)]:
        x0 = complex(z[0]).real
        want = -0.05 * 360.0 * x0 * x0 / 8.0
        got = cv.scalar_curvature_derivative(FLAT, sixth_power, z)
        assert abs(got - want) / abs(want) < 1e-4


@pytest.mark.parametrize("f", [u_squared, sixth_power, mixed], ids=["u^2", "x0^6", "mixed"])
def test_against_nested_stencil_oracle(f):
    for z in [(1.3, 0.7 + 0.2j), (0.9 + 0.4j, 1.1)]:
        want = _oracle(f, z)
        got = cv.scalar_curvature_derivative(FLAT, f, z)
        assert abs(got - want) / abs(want) < 1e-3


def test_quotient_converges_at_second_order():
    # halving t must cut the quotient error by about 4
    z = (1.3, 0.7 + 0.2j)
    d = {t: cv.scalar_curvature_derivative(FLAT, mixed, z, t=t) for t in (4e-2, 2e-2, 1e-2, 5e-3)}
    ratio_fine = (d[2e-2] - d[1e-2]) / (d[1e-2] - d[5e-3])
    ratio_coarse = (d[4e-2] - d[2e-2]) / (d[2e-2] - d[1e-2])
    assert 3.0 < ratio_fine < 5.0
    assert 3.0 < ratio_coarse < 5.0


def test_perturbation_as_potential_object():
    z = (2.0, 0.5j)
    direct = cv.scalar_curvature_derivative(FLAT, u_squared, z)
    wrapped = cv.scalar_curvature_derivative(FLAT, cv.custom_general(u_squared), z)
    assert direct == wrapped


def test_nonflat_background_accepts_perturbation():
    # smoke check: the quotient is finite on a curved background too
    val = cv.scalar_curvature_derivative(cv.eguchi_hanson(1.0), u_squared, (1.5, 1.0))
    assert np.isfinite(val)


def test_degenerating_perturbation_raises():
    # Phi + t f bends over where f pulls the potential down, Phi - t f where it pushes up
    crush = lambda a, b: -((abs(a) ** 2 + abs(b) ** 2) ** 2)
    plus = r"on the \+t side at \(1\.5, 1\.5\) for scale t=0\.5"
    with pytest.raises(DegenerateMetricError, match=plus):
        cv.scalar_curvature_derivative(FLAT, crush, (1.5, 1.5), t=0.5)
    swell = lambda a, b: -crush(a, b)
    with pytest.raises(DegenerateMetricError, match=r"on the -t side at \(1\.5, 1\.5\)"):
        cv.scalar_curvature_derivative(FLAT, swell, (1.5, 1.5), t=0.5)


def test_nonpositive_scale_rejected():
    with pytest.raises(ValueError):
        cv.scalar_curvature_derivative(FLAT, u_squared, (1.0, 1.0), t=0.0)
    with pytest.raises(ValueError):
        cv.scalar_curvature_derivative(FLAT, u_squared, (1.0, 1.0), t=-1e-3)


def _both_ends_derivative(loop_psi, background, f, x, h0, order, t=1e-3):
    """The derivative with f called at both ends of every stencil term, by the term loop."""
    x = np.array([x])
    h = _engine.step(x, h0)
    with np.errstate(all="ignore"):
        g = cv._stencil_metric(background, x, h, h0, order, distinct=False)
        shift = _engine.hessian(loop_psi(f, x, h, order, curvature=True), h, order)
        shift *= t
        s_plus, s_minus = _engine.scalar_curvature(np.concatenate((g + shift, g - shift)), h, order)
    return (s_plus - s_minus) / (2.0 * t)


def _polynomial(z1, z2):
    # not radial, and no branch cut anywhere
    return (z1 * z2.conjugate()).real ** 2 + 0.1 * abs(z1) ** 4 + (z1 * z1 * z2).imag


_BACKGROUNDS = {
    "flat": lambda p: cv.flat(),
    "eguchi-hanson": cv.eguchi_hanson,
    "burns": cv.burns,
}


@settings(max_examples=60, deadline=None)
@given(
    background=st.sampled_from(sorted(_BACKGROUNDS)),
    parameter=st.floats(0.5, 2.0),
    r=st.floats(0.7, 8.0),
    d=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
        lambda d: np.linalg.norm(d) > 0.1
    ),
    order=st.sampled_from((2, 4)),
)
def test_callable_perturbation_is_called_once_per_site(
    background, parameter, r, d, order, loop_psi
):
    # the site lattice and the term loop both take each term's value at its
    # site x + h o, so one call per site gives the same quotient as two per term
    pot = _BACKGROUNDS[background](parameter)
    x = r * np.array(d) / np.linalg.norm(d)
    calls = collections.Counter()

    def f(z1, z2):
        calls[z1, z2] += 1
        return _polynomial(z1, z2)

    got = cv.scalar_curvature_derivative(pot, f, x, order=order)
    want = _both_ends_derivative(loop_psi, pot, _polynomial, x, 1e-2, order)
    assert math.isfinite(want)
    assert got == want
    # one call at each site of the lattice, and none elsewhere
    h = _engine.step(np.array([x]), 1e-2).item()
    sites = collections.Counter()
    for offset in _engine.site_lattice(order, True).offsets.tolist():
        y0, y1, y2, y3 = (c + h * o for c, o in zip(x.tolist(), offset))
        sites[complex(y0, y1), complex(y2, y3)] += 1
    assert calls == sites
    assert set(calls.values()) == {1}


# Holomorphy potentials lie in the kernel of the linearized S at a
# scalar-flat Kahler metric (LeBrun and Simanca, GAFA 4, 1994).  For
# Phi = F(|z|^2) the Hamiltonians of the U(2) Killing fields are mu_A =
# F'(u) z^* A z, A Hermitian, so dS(mu_A) = 0 exactly at Burns and
# Eguchi-Hanson: a non-radial oracle on a curved background.
_KERNEL_BACKGROUNDS = {
    "burns": (cv.burns(1.5), lambda u: 1.0 + 1.5 / u),
    "eguchi-hanson": (cv.eguchi_hanson(1.2), lambda u: math.sqrt(1.2**4 + u * u) / u),
}
_HERMITIAN = {
    "diag": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "offdiag": np.array([[0.0, 0.3 - 0.4j], [0.3 + 0.4j, 0.2]]),
    "identity": np.eye(2),
}
_KERNEL_POINTS = [
    r * np.array(d) / np.linalg.norm(d)
    for r, d in zip(
        (1.4, 2.3, 3.2, 4.2),
        ((1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5), (0.6, -0.2, 0.3, 0.7), (0.1, 0.8, -0.5, 0.3)),
    )
]
# about 3x the largest |dS(mu_A)| measured over the three A and four points:
# 7.8e-6 and 1.0e-5 at order 4, 2.1e-3 and 3.3e-3 at order 2
_KERNEL_TOL = {
    ("burns", 4): 2.5e-5,
    ("eguchi-hanson", 4): 3e-5,
    ("burns", 2): 6e-3,
    ("eguchi-hanson", 2): 1e-2,
}


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("background", sorted(_KERNEL_BACKGROUNDS))
def test_holomorphy_potentials_are_in_the_kernel(background, order):
    pot, fprime = _KERNEL_BACKGROUNDS[background]
    for name, a in _HERMITIAN.items():

        def mu(z1, z2, a=a):
            z = np.array([z1, z2])
            return fprime(abs(z1) ** 2 + abs(z2) ** 2) * (z.conj() @ a @ z).real

        for x in _KERNEL_POINTS:
            ds = cv.scalar_curvature_derivative(pot, mu, x, order=order)
            assert abs(ds) <= _KERNEL_TOL[background, order], (name, x.tolist(), ds)
    # a control outside the kernel reads O(1): 1.7 to 2.5
    control = lambda z1, z2: 0.1 * (abs(z1) ** 2 + abs(z2) ** 2) ** 2 + 0.05 * (z1 * z2).real
    for x in _KERNEL_POINTS:
        assert abs(cv.scalar_curvature_derivative(pot, control, x, order=order)) > 1.0
