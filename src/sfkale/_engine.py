"""Finite-difference stencils for the complex Hessian and the scalar curvature.

One table per stencil order lists every second-derivative term the
engine takes: an integer offset in steps h and a weight on each of the
four metric components (g11, g22, Re g12, Im g12).  It is built once
from the one-axis weights (1, -2, 1) and (-1, 16, -30, 16, -1)/12 and
the Richardson cross (4 cross(h) - cross(2h))/3, where cross(s) is the
four-corner difference at step s over 4 s^2 (Fornberg, Math. Comp. 51,
1988).  Every weight is shared by an offset o and its mirror -o, so the
table lists the pairs once and the center terms apart.  The same table
serves both stencils:

  inner: g = sum_o w_o (psi(x, h o) + psi(x, -h o)) / h^2,
         with psi(x, d) = Phi(x + d) - Phi(x) and psi(x, 0) = 0;
  outer: Hess log det g = sum_o w_o (L(x + h o) + L(x - h o)) / h^2
         + center terms, with L = log det g.

Each mirror pair is added before its weight multiplies it: the two psi
values nearly cancel, so their sum is exact, and only the O(h^2) result
meets the rounding of the weight.

The inner stencil consumes psi rather than Phi.  The weights sum to
zero, so both forms agree exactly, but psi avoids cancelling the large
common value of Phi across the stencil: for the built-in families it is
computed stably (du = 2 x.d + |d|^2 is exact for the flat potential,
and log1p / sqrt-difference forms handle the rest), so the flat scalar
curvature comes out near machine zero instead of h^-4-amplified
rounding.  Custom potentials keep the plain difference Phi(x + d) -
Phi(x), evaluated in one of two ways:

  radial (Phi = F(|z|^2)): F is called once per distinct lattice site
    x + h o of the stencil (673 per scalar curvature and 49 per Hessian
    at order 4, 169 and 25 at order 2), and psi is differenced from
    those values through the site lattice's index arrays;
  general: the callable is called in a plain loop at both ends of every
    term, duplicates included: one scalar curvature takes 53 Hessians
    of 48 psi each at order 4 (29 of 24 at order 2).

Every function works on a stack of n points at once.  sites() lays the
stencils out as bases (n, B, 4) and steps (n, K, 4): at order 4, B = 53
bases (the point, its 48 outer sites and 4 zero offsets for the center
terms) and K = 48 steps; at order 2, 29 and 24; the Hessian alone has
B = 1.  psi is (n, B, K), and the reduction divides each point by its
own h^2.  How many points share a stack is the caller's choice
(curvature chunks them); each point's values are the same whatever its
neighbours.

Degenerate metrics surface as NaN at the points they touch; callers
turn that into an error or a failed report.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

FLAT = 0
EGUCHI_HANSON = 1
BURNS = 2
# custom potential F(|z|^2), differenced over the site lattice
RADIAL = 3

# one-axis second derivative: offset -> weight (times 1/h^2); symmetric,
# so the table takes the offsets k >= 0 and mirrors them
_AXIS = {
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    4: {-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12},
}
# mixed second derivative: step s -> Richardson weight of cross(s)
_CROSS = {2: {1: 1.0}, 4: {1: 4 / 3, 2: -1 / 3}}
# (a, b, component, sign) from d/dz = (d/dx - i d/dy) / 2:
# g11 = (d00 + d11)/4, g22 = (d22 + d33)/4, Re g12 = (d02 + d13)/4, Im g12 = (d03 - d12)/4
_PARTIALS = (
    (0, 0, 0, 1), (1, 1, 0, 1), (2, 2, 1, 1), (3, 3, 1, 1),
    (0, 2, 2, 1), (1, 3, 2, 1), (0, 3, 3, 1), (1, 2, 3, -1),
)


class Stencil(NamedTuple):
    """Offsets (in steps h) and component weights of one stencil order.

    steps lists the k offsets o of the mirror pairs, then their mirrors
    -o; pair_weights (k x 4) weighs each pair.  center_weights holds one
    row per pure second derivative for its zero-offset term, which only
    the outer stencil evaluates (psi vanishes there).  bases are the
    outer sites: the center itself, then steps, then one zero offset
    per center row.
    """

    steps: np.ndarray
    pair_weights: np.ndarray
    center_weights: np.ndarray
    bases: np.ndarray


def _stencil(order: int) -> Stencil:
    pairs, pair_weights, center_weights = [], [], []
    for a, b, component, sign in _PARTIALS:
        # taps (da, db, w): offset da along axis a plus db along axis b
        if a == b:
            taps = [(k, 0, w) for k, w in _AXIS[order].items() if k >= 0]
        else:
            taps = [
                (s, j * s, j * w / (4 * s * s)) for s, w in _CROSS[order].items() for j in (1, -1)
            ]
        for da, db, w in taps:
            offset = [0.0] * 4
            offset[a] += da
            offset[b] += db
            row = [0.0] * 4
            row[component] = sign * w / 4
            if da:
                pairs.append(offset)
                pair_weights.append(row)
            else:
                center_weights.append(row)
    steps = pairs + [[-c for c in o] for o in pairs]
    return Stencil(
        steps=np.array(steps),
        pair_weights=np.array(pair_weights),
        center_weights=np.array(center_weights),
        bases=np.array([[0.0] * 4] + steps + [[0.0] * 4] * len(center_weights)),
    )


STENCILS = {order: _stencil(order) for order in (2, 4)}


class SiteLattice(NamedTuple):
    """The distinct sites one stencil visits, and where each term lands.

    offsets (n x 4) lists each distinct site once, in steps h from the
    point; terms[i, j] is the site of base i plus step j and bases[i]
    the site of base i, so psi = Phi[terms] - Phi[bases, None].
    """

    offsets: np.ndarray
    terms: np.ndarray
    bases: np.ndarray


# lattice offsets have entries in [-4, 4], so their balanced base-9 digits
# give each site one exact key
_SITE_KEY = np.array([729.0, 81.0, 9.0, 1.0])


@functools.cache
def site_lattice(order: int, curvature: bool) -> SiteLattice:
    """Site lattice of the scalar curvature stencil, or of the Hessian's alone.

    Built from STENCILS on first use, so processes that never evaluate
    a radial custom potential do not pay for it.
    """
    stencil = STENCILS[order]
    bases = stencil.bases if curvature else stencil.bases[:1]
    offsets = np.concatenate([(bases[:, None] + stencil.steps).reshape(-1, 4), bases])
    _, first, inverse = np.unique(offsets @ _SITE_KEY, return_index=True, return_inverse=True)
    n = len(bases) * len(stencil.steps)
    return SiteLattice(offsets[first], inverse[:n].reshape(len(bases), -1), inverse[n:])


def step(x, h0: float) -> np.ndarray:
    """Radius-scaled stencil step h = h0 * (1 + |x|) of every point (row) of x.

    Shaped (n, 1, 1), so that it broadcasts over (points, bases, steps).
    """
    # scalar arithmetic per point: a single-point call then pays for one
    # numpy call instead of six
    return np.array([
        h0 * (1.0 + math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3))
        for x0, x1, x2, x3 in x.tolist()
    ])[:, None, None]


def sites(x, h, order: int, curvature: bool):
    """(bases, steps) of the stencils around the points x; psi is wanted at each pair.

    x is (n, 4) and h holds each point's step, shaped as step() returns
    it.  The Hessian needs psi at the point only; the scalar curvature
    needs it at the point and at every outer site x + h o, which come
    first and after.  Returns bases (n, B, 4) and steps (n, K, 4).
    """
    stencil = STENCILS[order]
    steps = h * stencil.steps
    if not curvature:
        return x[:, None, :], steps
    return x[:, None, :] + h * stencil.bases, steps


def builtin_potential(family, par, x0, x1, x2, x3):
    # u = |z|^2 in real coordinates (x0, x1, x2, x3) = (Re z1, Im z1, Re z2, Im z2)
    u = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    if family == FLAT:
        return u
    if family == EGUCHI_HANSON:
        a2 = par * par
        w = math.sqrt(a2 * a2 + u * u)
        return w + a2 * math.log(u) - a2 * math.log(a2 + w)
    # Burns: flat plus a logarithmic term of weight par
    return u + par * math.log(u)


def builtin_psi(family, par, bases, steps):
    """Phi(b + d) - Phi(b) for every base b and step d, without cancelling large terms.

    bases (n, B, 4) and steps (n, K, 4) give psi (n, B, K).  The (n, B, K)
    temporaries are updated in place, so a pass holds at most four.
    """
    # du = 2 b.d + |d|^2, the exact change of u = |z|^2
    du = bases @ steps.transpose(0, 2, 1)
    du *= 2.0
    du += (steps * steps).sum(axis=2)[:, None, :]
    if family == FLAT:
        return du
    u = (bases * bases).sum(axis=2)[:, :, None]
    a2 = par * par
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = du / u
        # a base at the origin, or a site at or beyond the log singularity
        bad = (u <= 0.0) | (log_term <= -1.0)
        np.log1p(log_term, out=log_term)
        log_term *= a2 if family == EGUCHI_HANSON else par
        if family == EGUCHI_HANSON:
            # dw = du (us + u) / (ws + w), the change of w = sqrt(a^4 + u^2)
            w = np.sqrt(a2 * a2 + u * u)
            us = u + du
            ws = us * us
            ws += a2 * a2
            np.sqrt(ws, out=ws)
            ws += w
            us += u
            dw = np.multiply(du, us, out=us)
            dw /= ws
            psi = np.add(dw, log_term, out=ws)
            dw /= a2 + w
            np.log1p(dw, out=dw)
            dw *= a2
            psi -= dw
        else:
            psi = np.add(du, log_term, out=log_term)
        psi[bad] = np.nan
    return psi


def radial_psi(profile, x, h, order: int, curvature: bool) -> np.ndarray:
    """psi of Phi = profile(|z|^2) over the stencils around the points x, as sites() lays it out.

    The profile is called once per distinct site of each point's lattice.
    """
    lattice = site_lattice(order, curvature)
    # coordinates first and column adds, since numpy sums a short last axis
    # slowly; the order of the adds is the one .sum() would take
    y = x[:, :, None] + h * lattice.offsets.T
    y *= y
    u = y[:, 0] + y[:, 1] + y[:, 2] + y[:, 3]
    phi = np.fromiter(map(profile, u.ravel().tolist()), float, count=u.size).reshape(u.shape)
    psi = np.take(phi, lattice.terms, axis=1)
    psi -= np.take(phi, lattice.bases, axis=1)[:, :, None]
    return psi


def callable_psi(fn, bases, steps):
    """Phi(b + d) - Phi(b) from a scalar callable fn(x0, x1, x2, x3), one term at a time."""
    psi = [
        fn(x0 + d0, x1 + d1, x2 + d2, x3 + d3) - fn(x0, x1, x2, x3)
        for point_bases, point_steps in zip(bases.tolist(), steps.tolist())
        for x0, x1, x2, x3 in point_bases
        for d0, d1, d2, d3 in point_steps
    ]
    return np.array(psi).reshape(bases.shape[:2] + steps.shape[1:2])


def _reduce(values, stencil: Stencil, h):
    """Weighted sum / h^2 of values at the stencil's offsets, mirror pairs added first.

    values runs over the points, then the bases, then the steps (inner
    stencil) or the steps and the center terms (outer stencil); each
    point is divided by its own h^2.  (n, B, sites) -> (n, B, 4).
    """
    k = len(stencil.pair_weights)
    out = (values[..., :k] + values[..., k : 2 * k]) @ stencil.pair_weights
    if values.shape[-1] > 2 * k:
        out += values[..., 2 * k :] @ stencil.center_weights
    out /= h * h
    return out


def hessian(psi, h, order: int) -> np.ndarray:
    """(g11, g22, Re g12, Im g12) per point and base from psi over the steps."""
    return _reduce(psi, STENCILS[order], h)


def scalar_curvature(psi, h, order: int) -> np.ndarray:
    """S = -2 tr(g^-1 Hess log det g) at each point's first base, from psi over all its bases.

    NaN at the points whose metric is not positive definite somewhere on
    their stencil; the other points keep their values.  The factor 2
    fixes the real scalar curvature normalization.
    """
    stencil = STENCILS[order]
    g = _reduce(psi, stencil, h)
    g11, g22, gr, gi = g[..., 0], g[..., 1], g[..., 2], g[..., 3]
    det = g11 * g22 - gr * gr - gi * gi
    # det > 0 and g11 > 0 force g22 > 0
    positive = (det > 0.0) & (g11 > 0.0)
    # the outer stencil runs over the sites around the first base
    logdet = np.log(np.where(positive[:, None, 1:], det[:, None, 1:], np.nan))
    f = _reduce(logdet, stencil, h)[:, 0]
    # a few flops per point: Python floats take them faster than a dozen
    # numpy calls on a chunk would
    return np.array([
        -2.0 * (g22 * f11 + g11 * f22 - 2.0 * (gr * fr + gi * fi)) / d if ok else math.nan
        for (g11, g22, gr, gi), (f11, f22, fr, fi), d, ok in zip(
            g[:, 0].tolist(), f.tolist(), det[:, 0].tolist(), positive[:, 0].tolist()
        )
    ])
