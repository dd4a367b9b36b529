"""Kahler potentials on C^2 and finite-difference curvature checks.

A potential is sampled at scattered points.  Radial or general is the
one decision.  A radial potential F(|z|^2), a built-in or custom_radial,
takes no 4-D stencil: its Hermitian metric g_ij = d2 Phi / dz_i dzbar_j
and its S follow from the t-derivatives of f(t) = F(e^t), t = log
|z|^2, and _radial only picks their source.  A built-in's come from its
closed-form table, so h0 and order set only the domain rule they obey;
a custom_radial profile's are taken along t from 9 values of f per
point at order 4, 7 at order 2.  Flat is Burns with m = 0, and its S
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
and 1137 or 1462 radial points, one term per t-site of a profile.  A
single-point call is a stack of one row.  The engine's kernels take a
few rows as Python floats, with the same operations in the same order
as on a chunk's whole columns, so no value depends on its point's
chunk.  Every
entry, plans and deviations included, refuses a point off C^2 minus the
origin by _domain's rule for what it evaluates, with a ValueError
naming the point, or its index in a stack, and its radius, as a
built-in potential does at the origin.  numpy's float warnings
are off for the whole of each public call, a custom potential's
included: the points they would flag come back NaN and count as
degenerate.
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

    Built-in families (family set, fn None) have the t-derivatives of
    f(t) = F(e^t), t = log |z|^2, that give their metric g and their S
    in one closed-form table that subtracts nothing (README gives costs
    and errors).
    custom_radial potentials (family RADIAL) carry their profile fn(u)
    -> Phi of u = |z|^2, and take the same derivatives along t = log u:
    9 calls per point at order 4, 7 at order 2.
    custom_general potentials (family None) carry the user's fn(z1, z2)
    -> Phi itself, called on a site lattice: for its own S and Hessian
    at both ends of every stencil term, 5088 and 96 calls at order 4,
    1392 and 48 at order 2; as the background or the perturbation of
    scalar_curvature_derivative once per distinct site, 673 calls each
    at order 4, 169 at order 2.  Either kind's values go through
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
    return Potential(name="flat", family=_engine.BURNS, parameter=0.0)


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
        return _CHUNK_TERMS // (2 * _engine._reach(order) + 1)
    stencil = _engine.STENCILS[order]
    terms = len(stencil.steps) * (len(stencil.bases) if curvature else 1)
    return max(1, _CHUNK_TERMS // terms)


def _radial(potential: Potential, x, h0: float, order: int, curvature: bool) -> np.ndarray:
    """S (curvature) or g at each point (row) of x of a radial potential, with no 4-D stencil."""
    if potential.fn is None:
        return _engine.radial(curvature, x, None, potential.family, potential.parameter)
    values = _engine.profile_along_t(potential.fn, x, h0, order, potential.name)
    return _engine.radial(curvature, x, values, h0, order)


def _stencil_metric(potential: Potential, x, h, h0: float, order: int):
    """g (n, B, 4) at each base of the 4-D stencils around x: radial as at a point, else by psi."""
    if potential.family is None:
        lattice = _engine.site_lattice(order, True)
        return _engine.hessian(_engine.lattice_psi(potential.fn, x, h, lattice, potential.name), h, order)
    stencil = _engine.STENCILS[order]
    # the bases past the center and its steps repeat the center: g is taken once there
    bases = x[:, None, :] + h * stencil.bases[: len(stencil.steps) + 1]
    g = _radial(potential, bases.reshape(-1, 4), h0, order, False).reshape(bases.shape)
    return np.concatenate((g, np.repeat(g[:, :1], len(stencil.center_weights), axis=1)), axis=1)


def _general(potential: Potential, x, h0: float, order: int, curvature: bool) -> np.ndarray:
    """S (curvature) or g at each point (row) of x of a custom_general potential, by stencils."""
    h = _engine.step(x, h0)
    # both ends of every term, duplicates included, as perfbench's census pins
    lattice = _engine.site_lattice(order, curvature, distinct=False)
    g = _engine.hessian(_engine.lattice_psi(potential.fn, x, h, lattice, potential.name), h, order)
    return _engine.scalar_curvature(g, h, order) if curvature else g[:, 0]


def _evaluate(potential: Potential, x, h0: float, order: int, curvature: bool) -> np.ndarray:
    """S (curvature) or (g11, g22, Re g12, Im g12) at each point (row) of x, a chunk per pass.

    S is NaN where the metric degenerates; numpy's float warnings are
    off for the whole call.
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
        z1, z2 = map(complex, arr.tolist())
        x = z1.real, z1.imag, z2.real, z2.imag
    elif arr.shape == (4,) and not np.iscomplexobj(arr):
        x = tuple(map(float, arr.tolist()))
    else:
        raise ValueError("expected a point of C^2 as (z1, z2) or as 4 real coordinates")
    if not all(map(math.isfinite, x)):
        raise ValueError(f"point {z!r} has a non-finite coordinate")
    return x


@functools.cache
def _reach(order: int, curvature: bool) -> float:
    """Distance in steps h from a point to the farthest site of its S (or Hessian) stencil."""
    stencil = _engine.STENCILS[order]
    sites = (stencil.bases if curvature else stencil.bases[:1])[:, None] + stencil.steps
    return float(np.sqrt((sites * sites).sum(axis=-1)).max())


def _domain(potential: Optional[Potential], r, h0: float, order: int, curvature: bool):
    """(taken, where): which points at radius r an entry takes, and where the others lie.

    No potential is defined at the origin.  Elementwise on r, a Python
    float for one point or a column for a stack.  Every entry refuses a
    radius that is not finite, from a coordinate that is not or from
    |z|^2 overflowing a float (|z| above about 1.34e154): inf and NaN
    fail each rule's comparison.  The rule follows from what the entry
    evaluates, S (curvature) or g:

      closed-form rule, for a built-in's g, which takes no stencil and
        divides by |z|^4: a point whose |z|^4 underflows is refused;
      stencil rule, for every S (a plan's, whatever the potential, which
        is then None), a custom potential's g and the derivative: a
        stencil that reaches the origin gives a wrong value with no error
        (Burns' g11 on the 4-D stencil at (1e-3, 0), h = 0.01, read 5.6e4
        against an exact 1), so a point within _reach steps h = h0 (1 +
        r) of it, where a site could land, is refused: the Hessian's for
        a custom_general g, else S's, a custom_radial g's included, since
        near the origin its profile's rounding swamps f''.
    """
    if curvature or potential.fn is not None:
        reach = _reach(order, curvature or potential.family == _engine.RADIAL)
        return r > reach * h0 * (1.0 + r), f"within the order-{order} stencil's reach of"
    u = r * r
    return (u * u >= sys.float_info.min) & (r < math.inf), "at"


def _refusal(point: str, x, r: float, where: str) -> ValueError:
    """The ValueError naming a point x at radius r that _domain refuses."""
    if not all(map(math.isfinite, x)):
        return ValueError(f"{point} has a non-finite coordinate")
    if math.isinf(r):
        return ValueError(f"{point}: |z|^2 = |z1|^2 + |z2|^2 overflows a float")
    return ValueError(_engine.OFF_DOMAIN.format(point, r, where))


def _point(potential: Potential, z, h0: float, order: int, curvature: bool) -> np.ndarray:
    """z as a one-row (1, 4) stack for a single-point entry; _domain's refusal names z."""
    x = _coords(z)
    x0, x1, x2, x3 = x
    r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3)
    taken, where = _domain(potential, r, h0, order, curvature)
    if not taken:
        raise _refusal(f"point {z!r}", x, r, where)
    return np.array([x])


def _points(potential: Optional[Potential], points, h0: float, order: int,
            curvature: bool) -> np.ndarray:
    """points, (n, 2) complex or (n, 4) real, as an (n, 4) stack; a refusal names the index."""
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
    # a coordinate that is not finite, or squares that overflow, make r inf or NaN
    with np.errstate(over="ignore"):
        r = _engine.norms(out)
        taken, where = _domain(potential, r, h0, order, curvature)
    # the first refused point, or point 0 if every point is taken
    i = int(taken.argmin())
    if not taken[i]:
        raise _refusal(f"sample point {i}", out[i].tolist(), r[i], where)
    return out


@dataclasses.dataclass(frozen=True)
class SamplePlan:
    """Where and how finely to sample a potential.

    points: (n, 2) complex or (n, 4) real coordinates;
    h0: base stencil step, scaled per point to h = h0 * (1 + |z|);
    order: stencil order, 2 or 4.
    A plan refuses, naming its index, a point that scalar_curvature refuses.
    """

    points: np.ndarray
    h0: float = 1e-2
    order: int = 4

    def __post_init__(self):
        _check_stencil(self.h0, self.order)
        points = _points(None, self.points, self.h0, self.order, curvature=True)
        object.__setattr__(self, "points", points)

    @property
    def radii(self) -> np.ndarray:
        return _engine.norms(self.points)


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
    if not 0 < rmin <= rmax < math.inf:
        raise ValueError(f"need finite 0 < rmin <= rmax, got rmin = {rmin}, rmax = {rmax}")
    if isinstance(n, bool) or n < 1:
        raise ValueError(f"need an integer count of at least one sample, got {n!r}")
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

    max_abs_scalar is the largest finite |S| and worst_index the sample
    where it sits (both None when no value is finite); degenerate_indices
    lists the samples whose metric degenerates on the stencil, in plan
    order.  A degenerate sample fails the report whatever max_abs_scalar
    reads.
    """

    potential: str
    points: np.ndarray
    scalar_values: np.ndarray
    max_abs_scalar: Optional[float]
    metric_positive: bool
    tolerance: float
    passed: bool
    h0: float
    order: int
    worst_index: Optional[int]
    degenerate_indices: tuple[int, ...]


def hermitian_hessian(potential: Potential, z, h0: float = 1e-2, order: int = 4) -> np.ndarray:
    """Metric g_ij at z as a 2x2 complex Hermitian matrix.

    Raises DegenerateMetricError where a custom potential's g fails
    _engine.positive_definite, or a built-in's closed-form g is not finite.
    """
    _check_stencil(h0, order)
    x = _point(potential, z, h0, order, curvature=False)
    g11, g22, gr, gi = c = _evaluate(potential, x, h0, order, curvature=False)[0].tolist()
    if not (all(map(math.isfinite, c)) if potential.fn is None else _engine.positive_definite(math, *c)[1]):
        raise DegenerateMetricError(
            f"metric of {potential.name} not positive definite at {z!r}"
        )
    # item by item: a third cheaper than np.array inferring the dtype from nested lists
    g = np.empty((2, 2), complex)
    g[0, 0], g[0, 1], g[1, 0], g[1, 1] = g11, gr + 1j * gi, gr - 1j * gi, g22
    return g


def scalar_curvature(potential: Potential, z, h0: float = 1e-2, order: int = 4) -> float:
    """Scalar curvature S = -2 tr(g^-1 Hess log det g) at z."""
    _check_stencil(h0, order)
    x = _point(potential, z, h0, order, curvature=True)
    s = float(_evaluate(potential, x, h0, order, curvature=True)[0])
    if math.isnan(s):
        raise DegenerateMetricError(
            f"metric of {potential.name} degenerates on the stencil at {z!r}"
        )
    return s


def metric_deviations(potential: Potential, points, h0: float = 1e-2, order: int = 4) -> np.ndarray:
    """Max entrywise |g - I| at each point: not finite where hermitian_hessian raises, refused where it refuses."""
    _check_stencil(h0, order)
    x = _points(potential, points, h0, order, curvature=False)
    g = _evaluate(potential, x, h0, order, curvature=False)
    dev = np.max(np.abs(g - np.array([1.0, 1.0, 0.0, 0.0])), axis=1)
    if potential.fn is not None:
        with np.errstate(all="ignore"):
            dev[~_engine.positive_definite(np, *g.T)[1]] = np.nan
    return dev


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
    worst = max_abs = None
    if finite.any():
        abs_s = np.where(finite, np.abs(s), -1.0)
        worst = int(np.argmax(abs_s))
        max_abs = float(abs_s[worst])
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
    x 7 calls).  A callable, a plain perturbation or a custom_general
    background or perturbation, is called once at each of the 673 or
    169 distinct sites of the stencil, and both sides share its values.
    The point is refused as scalar_curvature refuses it.  The S of
    a background here may differ from scalar_curvature's, which a
    built-in takes from its t-derivatives in closed form, by the outer
    stencil's error on log det g: for Burns (m = 1) about 5e-7 at radii
    1-8 and 2e-5 at 0.5-1 at order 4 (4e-4 and 7e-3 at order 2), where
    scalar_curvature reads rounding; for Eguchi-Hanson (a = 1), whose
    det g is 1, rounding up to 5e-11 at both orders; for flat exactly 0.
    DegenerateMetricError names the side, +t or -t, whose metric
    degenerates.
    """
    _check_stencil(h0, order)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"perturbation scale t must be finite and positive, got {t}")
    if not isinstance(perturbation, Potential):
        perturbation = custom_general(perturbation)
    x = _point(background, z, h0, order, curvature=True)
    h = _engine.step(x, h0)
    # both metrics at every base of the stencil, a callable called once per
    # site; the perturbation's g enters scaled by t
    with np.errstate(all="ignore"):
        g = _stencil_metric(background, x, h, h0, order)
        shift = _stencil_metric(perturbation, x, h, h0, order)
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
    a custom_general potential raises ValueError.  A radius that
    metric_deviations refuses raises ValueError, one whose g is not
    positive definite DegenerateMetricError: each names the radius.
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
    i = int(np.isfinite(dev).argmin())
    if not math.isfinite(dev[i]):
        raise DegenerateMetricError(
            f"metric of {potential.name} degenerates along the decay ray at radius {i} ({rr[i]:.4g})"
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

    A NaN value (a degenerate sample) makes the norm NaN wherever it sits,
    and a weight past the float range reads inf, though no radius does.  A
    delta, or a radius given as a number, that is not finite raises ValueError.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    weights = []
    for i, (point, value) in enumerate(samples):
        if np.ndim(point) == 0:
            r = float(abs(point))
            if not math.isfinite(r):
                raise ValueError(f"sample {i} has a non-finite radius {r}")
        else:
            x0, x1, x2, x3 = _coords(point)
            r = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3)
            if r == math.inf:  # the squares overflow, though the radius may not
                r = math.hypot(x0, x1, x2, x3)
        value = abs(float(value))
        try:
            weights.append(value * (1.0 + r) ** (-delta))
        except OverflowError:
            # (1 + r)^-delta overflows, though the weight may not: take it from its logarithm
            try:
                weights.append(math.exp(math.log(value) - delta * math.log1p(r)) if value else 0.0)
            except OverflowError:
                weights.append(math.inf)
    if not weights:
        raise ValueError("weighted_sup_norm needs at least one sample")
    if any(map(math.isnan, weights)):
        return math.nan
    return float(max(weights))
