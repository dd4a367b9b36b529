"""Kahler potentials on C^2 and finite-difference curvature checks.

A potential is sampled at scattered points.  Radial or general is the
one decision.  A radial potential F(|z|^2), a built-in or custom_radial,
takes no 4-D stencil (_radial): a built-in's Hermitian metric g_ij = d2
Phi / dz_i dzbar_j is closed form, and its S, and a custom_radial
profile's S and g, are taken along t = log |z|^2 from 9 values of f(t)
= F(e^t) per point at order 4, 7 at order 2.  Flat goes along t as
Burns with m = 0, f = e^t, whose derivatives are all exact, so its S
is exactly 0.  A custom_general potential's g comes from central
differences in the four real coordinates, and its S from a second,
nested stencil applied to log det g, 53 x 48 terms (29 x 24).  Each
point has its own radius-scaled step h = h0 * (1 + |z|); there is no
grid.  The curvature derivative takes the 4-D stencil for every
background, since a perturbation need not be radial, with a radial g
taken at each of its bases as at a point.

The engine takes a stack of points in one pass, laid out as (points,
bases, steps).  Multi-point calls (verify_scalar_flat, and
metric_deviations, which the decay fits and weighted norms use) walk
their points in chunks of about _CHUNK_TERMS terms: 4 scalar curvature
points at order 4, 14 at order 2, 213 or 426 custom_general Hessians,
and 1137 or 1462 radial points, one term per t-site.  A single-point
call is a stack of one row.  Along t, a few rows are summed over Python
floats, with the same operations in the same order as on a chunk's
whole columns; elsewhere one row takes the chunk's numpy code.  So no
value depends on which chunk its point fell in.  The single-point
entries refuse a point whose stencil could reach the origin, where no
potential is defined: one within 4 sqrt(2) h of it at order 4, 2
sqrt(2) h at order 2, custom_radial's Hessian included; a built-in's
Hessian, closed form with no stencil, refuses only the origin.
SamplePlan keeps a plan's points 10h away.  numpy's float warnings are
off for the whole of each public call, a custom potential's included:
the points they would flag come back NaN and count as degenerate.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from typing import Callable, Optional

import numpy as np

from . import _engine
from .errors import DegenerateMetricError, InsufficientDecadeError

# deviations below this are indistinguishable from stencil rounding
NO_SIGNAL_THRESHOLD = 1e-12


@dataclasses.dataclass(frozen=True)
class Potential:
    """A real-valued Kahler potential on C^2 minus the origin.

    Built-in families (family set, fn None) have their metric g in a
    closed form that cancels nothing, and their S along t = log |z|^2
    from closed-form values (README gives costs and errors).
    custom_radial potentials (family RADIAL) carry their profile fn(u)
    -> Phi of u = |z|^2, and take S and g along t = log u: 9 calls per
    point at order 4, 7 at order 2.
    custom_general potentials (family None) carry the user's fn(z1, z2)
    -> Phi itself, called on a site lattice: for its own S and Hessian
    at both ends of every stencil term, 5088 and 96 calls at order 4,
    1392 and 48 at order 2; as the perturbation of
    scalar_curvature_derivative once per distinct site, 673 calls per
    side at order 4, 169 at order 2.  Either kind's values go through
    one map per engine pass, and a value that is not a real number
    raises TypeError naming the potential and the site.  Use the module
    constructors (flat, eguchi_hanson, burns, custom_radial,
    custom_general) rather than instantiating directly.
    """

    name: str
    family: Optional[int]
    parameter: float
    fn: Optional[Callable] = None

    def __call__(self, z1, z2):
        z1, z2 = complex(z1), complex(z2)
        x = (z1.real, z1.imag, z2.real, z2.imag)
        if self.fn is None:
            return _engine.builtin_potential(self.family, self.parameter, *x)
        if self.family == _engine.RADIAL:
            x0, x1, x2, x3 = x
            return float(self.fn(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3))
        return float(self.fn(z1, z2))


def flat() -> Potential:
    """Euclidean potential |z1|^2 + |z2|^2."""
    return Potential(name="flat", family=_engine.FLAT, parameter=0.0)


def eguchi_hanson(a: float = 1.0) -> Potential:
    """Ricci-flat ALE potential with length-scale parameter a > 0.

    The potential reads a^4 = (a^2)^2 at every point, so an a whose a^4
    overflows a float (a above about 1.16e77) raises ValueError.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"eguchi-hanson parameter a must be finite and positive, got {a}")
    a2 = float(a) * float(a)
    if math.isinf(a2 * a2):
        raise ValueError(f"eguchi-hanson parameter a = {a} is too large: a^4 overflows a float")
    return Potential(name="eguchi-hanson", family=_engine.EGUCHI_HANSON, parameter=float(a))


def burns(m: float = 1.0) -> Potential:
    """Scalar-flat potential |z|^2 + m log |z|^2 with mass parameter m > 0."""
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"burns parameter m must be finite and positive, got {m}")
    return Potential(name="burns", family=_engine.BURNS, parameter=float(m))


def custom_radial(fn: Callable[[float], float]) -> Potential:
    """Potential given as a function of u = |z|^2."""
    return Potential(name="custom-radial", family=_engine.RADIAL, parameter=0.0, fn=fn)


def custom_general(fn: Callable[[complex, complex], float]) -> Potential:
    """Potential given as a real-valued function of (z1, z2).

    fn is stored as it is and called with two Python complex numbers.
    """
    return Potential(name="custom-general", family=None, parameter=0.0, fn=fn)


# stencil terms (base, step pairs) one engine pass takes: 4 scalar curvature
# points at order 4, 14 at order 2 and a few hundred Hessians.  Enough to
# spread numpy's per-call cost, small enough that each (points, bases,
# steps) temporary stays near 80 kB
_CHUNK_TERMS = 10240


@functools.cache
def _chunk_points(order: int, curvature: bool, along_t: bool = False) -> int:
    """Points per engine pass along t (radial), for S on the 4-D stencil, or for the Hessian."""
    if along_t:
        # one term per t-site
        return _CHUNK_TERMS // len(_engine._T_WEIGHTS[order][0][0])
    stencil = _engine.STENCILS[order]
    terms = len(stencil.steps) * (len(stencil.bases) if curvature else 1)
    return max(1, _CHUNK_TERMS // terms)


def _psi(potential: Potential, x, h, order: int, curvature: bool, distinct: bool) -> np.ndarray:
    """Phi(b + d) - Phi(b) of a custom_general potential for every base b and step d around x.

    Called once per distinct site, or at both ends of every term, as
    perfbench's census pins for custom_general's own S and Hessian.
    """
    lattice = _engine.site_lattice(order, curvature, distinct)
    return _engine.lattice_psi(potential.fn, x, h, lattice, potential.name)


def _radial(potential: Potential, x, h0: float, order: int, curvature: bool) -> np.ndarray:
    """S (curvature) or g at each point (row) of x of a radial potential, with no 4-D stencil."""
    if potential.fn is None:
        if not curvature:
            return _engine.builtin_metric(potential.family, potential.parameter, x)
        values, exact = _engine.builtin_along_t(potential.family, potential.parameter, x, h0, order)
        return _engine.radial_scalar(values, h0, order, exact)
    values = _engine.profile_along_t(potential.fn, x, h0, order, potential.name)
    if curvature:
        return _engine.radial_scalar(values, h0, order)
    return _engine.radial_metric(values, x, h0, order)


def _stencil_metric(potential: Potential, x, h, h0: float, order: int, distinct: bool):
    """g (n, B, 4) at each base of the 4-D stencils around x: radial as at a point, else by psi."""
    if potential.family is None:
        return _engine.hessian(_psi(potential, x, h, order, True, distinct), h, order)
    stencil = _engine.STENCILS[order]
    # the bases past the center and its steps repeat the center: g is taken once there
    bases = x[:, None, :] + h * stencil.bases[: len(stencil.steps) + 1]
    g = _radial(potential, bases.reshape(-1, 4), h0, order, False).reshape(bases.shape)
    return np.concatenate((g, np.repeat(g[:, :1], len(stencil.center_weights), axis=1)), axis=1)


def _general(potential: Potential, x, h0: float, order: int, curvature: bool) -> np.ndarray:
    """S (curvature) or g at each point (row) of x of a custom_general potential, by stencils."""
    h = _engine.step(x, h0)
    g = _engine.hessian(_psi(potential, x, h, order, curvature, distinct=False), h, order)
    return _engine.scalar_curvature(g, h, order) if curvature else g[:, 0]


def _evaluate(potential: Potential, x, h0: float, order: int, curvature: bool) -> np.ndarray:
    """S (curvature) or (g11, g22, Re g12, Im g12) at each point (row) of x, a chunk per pass.

    NaN where the metric degenerates; numpy's float warnings are off
    for the whole call.
    """
    radial = potential.family is not None
    evaluate, size = (_radial if radial else _general), _chunk_points(order, curvature, radial)
    with np.errstate(all="ignore"):
        if len(x) <= size:
            # one chunk, as for a single-point call: no slice and no copy
            return evaluate(potential, x, h0, order, curvature)
        return np.concatenate([evaluate(potential, x[i : i + size], h0, order, curvature)
                               for i in range(0, len(x), size)])


def _check_stencil(h0: float, order: int) -> None:
    """Reject a base step outside (0, 0.1] or too small to square, or an order not 2 or 4."""
    if not 0.0 < h0 <= 0.1:
        raise ValueError(f"h0 must lie in (0, 0.1], got {h0}")
    if h0 * h0 < sys.float_info.min:
        # the reductions divide by h^2, which would be 0 or subnormal
        raise ValueError(f"h0 = {h0} is too small: the stencil's h^2 underflows")
    if order not in (2, 4):
        raise ValueError(f"stencil order must be 2 or 4, got {order}")


def _coords(z) -> tuple[float, float, float, float]:
    """Accept (z1, z2) complex pairs or 4 real coordinates."""
    arr = np.asarray(z)
    if arr.shape == (2,):
        z1, z2 = complex(arr[0]), complex(arr[1])
        x = z1.real, z1.imag, z2.real, z2.imag
    elif arr.shape == (4,) and not np.iscomplexobj(arr):
        x = float(arr[0]), float(arr[1]), float(arr[2]), float(arr[3])
    else:
        raise ValueError("expected a point of C^2 as (z1, z2) or as 4 real coordinates")
    if not all(map(math.isfinite, x)):
        raise ValueError(f"point {z!r} has a non-finite coordinate")
    return x


# the farthest site of the scalar curvature stencil from its point, in
# steps h: site_lattice's largest offset, 4 steps along two axes at order
# 4 and 2 at order 2; the Hessian's reaches half as far
_REACH = {2: 2.0 * math.sqrt(2.0), 4: 4.0 * math.sqrt(2.0)}


def _point(z, h0: float, order: int) -> np.ndarray:
    """z as a one-row (1, 4) stack for the single-point entries, off the stencil's reach.

    Every potential lives on C^2 minus the origin, and a stencil that
    reaches it gives a wrong metric with no error (Burns' g11 at
    (1e-3, 0), h = 0.01, came out 5.6e4 against an exact 1).  So a
    point within _REACH[order] steps h = h0 (1 + |z|) of the origin,
    where a stencil site could land on it, is a wrong argument, not a
    degenerate metric, and raises ValueError naming the point and its
    radius; the origin itself is one such point.  SamplePlan keeps a
    plan's points 10h away; that margin would refuse points that single
    calls use, such as |z| = 1.29 at h0 = 0.08, 7.0h from the origin, in
    the order-2 convergence ladder.  A custom_radial Hessian keeps this
    rule: near the origin its profile's rounding swamps f''.
    """
    x = _coords(z)
    x0, x1, x2, x3 = x
    r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3)
    reach = _REACH[order] * h0 * (1.0 + r)
    if r <= reach:
        raise ValueError(
            f"point {z!r} at radius {r:.4g} lies within the order-{order} stencil's reach"
            f" {reach:.4g} of the origin of C^2, where no potential is defined"
        )
    return np.array([x])


def _closed_form_point(z) -> np.ndarray:
    """z as a one-row (1, 4) stack for a built-in's Hessian, closed form with no stencil.

    Only the origin is refused, to float precision: a point whose |z|^4,
    which g divides by, underflows.
    """
    x = _coords(z)
    x0, x1, x2, x3 = x
    u = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    if u * u < sys.float_info.min:
        raise ValueError(f"point {z!r} at radius {math.sqrt(u):.4g} lies at the origin of C^2,"
                         " where no potential is defined")
    return np.array([x])


def _coords_array(points) -> np.ndarray:
    arr = np.asarray(points)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("expected a nonempty 2d array of sample points")
    if arr.shape[1] == 2:
        out = np.empty((arr.shape[0], 4))
        out[:, 0] = arr[:, 0].real
        out[:, 1] = arr[:, 0].imag
        out[:, 2] = arr[:, 1].real
        out[:, 3] = arr[:, 1].imag
    elif arr.shape[1] == 4 and not np.iscomplexobj(arr):
        out = np.array(arr, dtype=float)
    else:
        raise ValueError("points must have shape (n, 2) complex or (n, 4) real")
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise ValueError(f"sample point {int(np.argmin(finite))} has a non-finite coordinate")
    return out


@dataclasses.dataclass(frozen=True)
class SamplePlan:
    """Where and how finely to sample a potential.

    points: (n, 4) real coordinates, or anything _coords_array accepts;
    h0: base stencil step, scaled per point to h = h0 * (1 + |z|);
    order: stencil order, 2 or 4.
    """

    points: np.ndarray
    h0: float = 1e-2
    order: int = 4

    def __post_init__(self):
        pts = _coords_array(self.points)
        object.__setattr__(self, "points", pts)
        _check_stencil(self.h0, self.order)
        if 10.0 * self.h0 >= 1.0:
            # r >= 10 h0 (1 + r) has no solution r then
            raise ValueError(f"h0 = {self.h0} leaves no sample point 10h from the origin")
        r = np.sqrt((pts * pts).sum(axis=1))
        # the double stencil reaches 4 sqrt(2) h at order 4 and 2 sqrt(2) h at
        # order 2 (site_lattice's largest offset); 10h keeps a margin from the origin
        too_close = r < 10.0 * self.h0 * (1.0 + r)
        if too_close.any():
            i = int(np.argmax(too_close))
            raise ValueError(
                f"sample point {i} at radius {r[i]:.4g} sits within 10h of the origin"
            )

    @property
    def radii(self) -> np.ndarray:
        pts = self.points
        return np.sqrt((pts * pts).sum(axis=1))


# unit directions cycled through by sample_points; first two lie on the
# coordinate axes, the others are generic
_DIRECTIONS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.5, 0.5, 0.5, 0.5],
        [2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 0.0],
    ]
)


def sample_points(rmin: float, rmax: float, n: int) -> np.ndarray:
    """n points with radii geometrically spaced in [rmin, rmax]."""
    if not 0 < rmin <= rmax:
        raise ValueError("need 0 < rmin <= rmax")
    if n < 1:
        raise ValueError("need at least one sample")
    radii = np.geomspace(rmin, rmax, n)
    dirs = _DIRECTIONS[np.arange(n) % len(_DIRECTIONS)]
    return radii[:, None] * dirs


@dataclasses.dataclass(frozen=True)
class DecayEstimate:
    """Least-squares decay order of the metric deviation from identity."""

    mu: Optional[float]
    residual: Optional[float]
    no_signal: bool
    radii: np.ndarray
    deviations: np.ndarray


@dataclasses.dataclass(frozen=True)
class CurvatureReport:
    """Outcome of sampling the scalar curvature of one potential.

    worst_index is the sample with the largest finite |S| (None when no
    value is finite); degenerate_indices lists the samples whose metric
    degenerates on the stencil, in plan order.
    """

    potential: str
    points: np.ndarray
    scalar_values: np.ndarray
    max_abs_scalar: float
    metric_positive: bool
    tolerance: float
    passed: bool
    h0: float
    order: int
    worst_index: Optional[int]
    degenerate_indices: tuple[int, ...]


def hermitian_hessian(potential: Potential, z, h0: float = 1e-2, order: int = 4) -> np.ndarray:
    """Metric g_ij at z as a 2x2 complex Hermitian matrix.

    Raises DegenerateMetricError when the sampled matrix is not
    positive definite.
    """
    _check_stencil(h0, order)
    x = _closed_form_point(z) if potential.fn is None else _point(z, h0, order)
    g11, g22, gr, gi = _evaluate(potential, x, h0, order, curvature=False)[0].tolist()
    det = g11 * g22 - gr * gr - gi * gi
    if not (math.isfinite(det) and det > 0.0 and g11 > 0.0 and g22 > 0.0):
        raise DegenerateMetricError(
            f"metric of {potential.name} not positive definite at {z!r}"
        )
    return np.array([[g11, gr + 1j * gi], [gr - 1j * gi, g22]])


def scalar_curvature(potential: Potential, z, h0: float = 1e-2, order: int = 4) -> float:
    """Scalar curvature S = -2 tr(g^-1 Hess log det g) at z."""
    _check_stencil(h0, order)
    x = _point(z, h0, order)
    s = float(_evaluate(potential, x, h0, order, curvature=True)[0])
    if math.isnan(s):
        raise DegenerateMetricError(
            f"metric of {potential.name} degenerates on the stencil at {z!r}"
        )
    return s


def metric_deviations(potential: Potential, points, h0: float = 1e-2, order: int = 4) -> np.ndarray:
    """Max entrywise |g - I| at each point."""
    _check_stencil(h0, order)
    g = _evaluate(potential, _coords_array(points), h0, order, curvature=False)
    return np.max(np.abs(g - np.array([1.0, 1.0, 0.0, 0.0])), axis=1)


def verify_scalar_flat(
    potential: Potential, plan: SamplePlan, tol: float = 1e-4
) -> CurvatureReport:
    """Sample S over the plan and compare max |S| against tol.

    Degenerate points make the report fail rather than raise, so a
    single bad sample cannot hide the rest of the sweep.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    s = _evaluate(potential, plan.points, plan.h0, plan.order, curvature=True)
    finite = np.isfinite(s)
    positive = bool(finite.all())
    if positive:
        max_abs = float(np.max(np.abs(s)))
    else:
        max_abs = float("inf")
    worst = None
    if finite.any():
        worst = int(np.argmax(np.where(finite, np.abs(s), -1.0)))
    return CurvatureReport(
        potential=potential.name,
        points=plan.points,
        scalar_values=s,
        max_abs_scalar=max_abs,
        metric_positive=positive,
        tolerance=tol,
        passed=positive and max_abs <= tol,
        h0=plan.h0,
        order=plan.order,
        worst_index=worst,
        degenerate_indices=tuple(np.flatnonzero(~finite).tolist()),
    )


def scalar_curvature_derivative(
    background: Potential,
    perturbation,
    z,
    h0: float = 1e-2,
    order: int = 4,
    t: float = 1e-3,
) -> float:
    """Directional derivative of S at the background, toward the perturbation.

    Returns the symmetric difference quotient [S(Phi + t f) -
    S(Phi - t f)] / (2t), which converges at O(t^2) to the linearized
    scalar curvature operator applied to f.  The perturbation may be a
    Potential or a callable f(z1, z2) -> real.

    Both S are taken on the 4-D stencil at z, since the perturbation
    need not be radial, from g_bg +- t g_f at the stencil's 53 (order 4)
    or 29 (order 2) bases.  A radial potential's g there, background or
    perturbation, is taken as at a point at the 49 or 25 distinct bases:
    closed form for a built-in, along t for custom_radial (49 x 9 or 25
    x 7 calls).  A callable perturbation, plain or custom_general, is
    called once at each of the 673 or 169 distinct sites of the stencil,
    and both sides share its values; a custom_general background at both
    ends of every term (5088 or 1392 sites), as for its own S.  The S of
    a background here may differ from scalar_curvature's, which is taken
    along t = log |z|^2, by the outer stencil's error on log det g: for
    Burns (m = 1) about 5e-7 at radii 1-8 and 2e-5 at 0.5-1 at order 4
    (4e-4 and 7e-3 at order 2), where scalar_curvature reads rounding;
    for Eguchi-Hanson (a = 1), whose det g is 1, rounding up to 5e-11 at
    both orders; for flat exactly 0.  DegenerateMetricError names the
    side, +t or -t, whose metric degenerates.
    """
    _check_stencil(h0, order)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"perturbation scale t must be finite and positive, got {t}")
    if not isinstance(perturbation, Potential):
        perturbation = custom_general(perturbation)
    x = _point(z, h0, order)
    h = _engine.step(x, h0)
    # both metrics at every base of the stencil; a callable perturbation is
    # called once per site, and its g enters scaled by t
    with np.errstate(all="ignore"):
        g = _stencil_metric(background, x, h, h0, order, distinct=False)
        shift = _stencil_metric(perturbation, x, h, h0, order, distinct=True)
        shift *= t
        # both sides in one stack of two points
        both = np.concatenate((g + shift, g - shift))
        s_plus, s_minus = _engine.scalar_curvature(both, h, order).tolist()
    sides = [side for side, s in (("+t", s_plus), ("-t", s_minus)) if math.isnan(s)]
    if sides:
        raise DegenerateMetricError(
            f"perturbed metric degenerates on the {' and '.join(sides)} side at {z!r}"
            f" for scale t={t}"
        )
    return (s_plus - s_minus) / (2.0 * t)


def decay_order(potential: Potential, radii, h0: float = 1e-2, order: int = 4) -> DecayEstimate:
    """Fit the decay exponent of |g - I| against radius.

    Needs at least 6 strictly increasing radii spanning a factor of 10
    (InsufficientDecadeError otherwise).  Deviations are measured along
    the ray z = (r, 0) only, which stands for every direction when the
    potential is radial: the built-ins and custom_radial are accepted,
    a custom_general potential raises ValueError.
    """
    _check_stencil(h0, order)
    if potential.family is None:
        raise ValueError(
            f"decay_order fits along the ray z = (r, 0) only, so it needs a radial"
            f" potential; {potential.name} may depend on the direction"
        )
    rr = np.asarray(radii, dtype=float)
    if rr.ndim != 1 or len(rr) < 6:
        raise ValueError("need at least 6 radii for a decay fit")
    if not (np.diff(rr) > 0).all() or rr[0] <= 0:
        raise ValueError("radii must be positive and strictly increasing")
    if rr[-1] / rr[0] < 10.0:
        raise InsufficientDecadeError(
            f"radii span a factor {rr[-1] / rr[0]:.3g}; need at least 10"
        )
    pts = np.zeros((len(rr), 4))
    pts[:, 0] = rr
    dev = metric_deviations(potential, pts, h0=h0, order=order)
    if not np.isfinite(dev).all():
        raise DegenerateMetricError(
            f"metric of {potential.name} degenerates along the decay ray"
        )
    if (dev < NO_SIGNAL_THRESHOLD).all():
        return DecayEstimate(mu=None, residual=None, no_signal=True, radii=rr, deviations=dev)
    logs = np.log(np.maximum(dev, 1e-300))
    slope, intercept = np.polyfit(np.log(rr), logs, 1)
    fitted = slope * np.log(rr) + intercept
    residual = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    return DecayEstimate(
        mu=float(-slope), residual=residual, no_signal=False, radii=rr, deviations=dev
    )


def weighted_sup_norm(samples, delta: float) -> float:
    """Discrete weighted sup norm: max over samples of |value| (1+r)^-delta.

    A NaN value (a degenerate sample) makes the norm NaN wherever it sits.
    """
    weights = []
    for point, value in samples:
        if np.ndim(point) == 0:
            r = float(abs(point))
        else:
            x0, x1, x2, x3 = _coords(point)
            r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3)
        weights.append(abs(float(value)) * (1.0 + r) ** (-delta))
    if not weights:
        raise ValueError("weighted_sup_norm needs at least one sample")
    if any(map(math.isnan, weights)):
        return math.nan
    return float(max(weights))
