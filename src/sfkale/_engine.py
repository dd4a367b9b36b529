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
Phi(x), with one call path: lattice_psi calls the callable at the sites
x + h o of a site lattice and differences psi from those values through
the lattice's index arrays.  The lattice comes in two forms:

  distinct: each site once (49 per Hessian and 673 per 4-D scalar
    curvature at order 4, 25 and 169 at order 2).  This serves a radial
    F(|z|^2) everywhere, and any callable perturbation of a scalar
    curvature derivative, radial or general;
  not distinct: both ends of every term, duplicates included, 2 B K
    sites (96 per Hessian and 5088 per scalar curvature at order 4, 48
    and 1392 at order 2).  Only a custom_general potential's own S and
    Hessian still take this form.

radial_scalar takes a radial S from 9 (order 4) or 7 values of F along
t = log u.  Every callable gets its sites as Python lists (u for
radial, the complex coordinates z1 and z2 for general), handed to
callable_values, and its values back from one map per pass.

Every function works on a stack of n points at once.  sites() lays the
stencils out as bases (n, B, 4) and steps (n, K, 4): at order 4, B = 53
bases (the point, its 48 outer sites and 4 zero offsets for the center
terms) and K = 48 steps; at order 2, 29 and 24; the Hessian alone has
B = 1.  psi is (n, B, K), and the reduction divides each point by its
own h^2.  How many points share a stack is the caller's choice
(curvature chunks them); each point's values are the same whatever its
neighbours.

Degenerate metrics surface as NaN at the points they touch; callers
turn that into an error or a failed report.  The engine leaves numpy's
error state alone: the divide, invalid and overflow warnings that mark
those points are the caller's to silence, once per call.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

FLAT = 0
EGUCHI_HANSON = 1
BURNS = 2
# custom potential F(|z|^2): g over the site lattice, S along t = log |z|^2
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
    -o; step_norms holds |o|^2 of each (1, 2, 4 or 8), so |h o|^2 is
    exactly h^2 |o|^2.  pair_weights (k x 4) weighs each pair.
    center_weights holds one row per pure second derivative for its
    zero-offset term, which only the outer stencil evaluates (psi
    vanishes there).  bases are the outer sites: the center itself,
    then steps, then one zero offset per center row.
    """

    steps: np.ndarray
    step_norms: np.ndarray
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
        step_norms=np.array([sum(c * c for c in o) for o in steps]),
        pair_weights=np.array(pair_weights),
        center_weights=np.array(center_weights),
        bases=np.array([[0.0] * 4] + steps + [[0.0] * 4] * len(center_weights)),
    )


STENCILS = {order: _stencil(order) for order in (2, 4)}


class SiteLattice(NamedTuple):
    """The sites one stencil visits, and where each term lands.

    offsets (n x 4) lists the sites in steps h from the point;
    terms[i, j] is the site of base i plus step j and bases[i, j] the
    site of base i, so psi = Phi[terms] - Phi[bases].
    """

    offsets: np.ndarray
    terms: np.ndarray
    bases: np.ndarray


# lattice offsets have entries in [-4, 4], so their balanced base-9 digits
# give each site one exact key
_SITE_KEY = np.array([729.0, 81.0, 9.0, 1.0])


@functools.cache
def site_lattice(order: int, curvature: bool, distinct: bool = True) -> SiteLattice:
    """Site lattice of the scalar curvature stencil, or of the Hessian's alone.

    distinct lists each site once; otherwise the lattice lists every
    term's end, then every term's base, 2 B K sites in all.  Built from
    STENCILS on first use, so processes that never evaluate a custom
    potential do not pay for it.
    """
    stencil = STENCILS[order]
    bases = stencil.bases if curvature else stencil.bases[:1]
    ends = bases[:, None] + stencil.steps
    offsets = np.concatenate([ends, np.broadcast_to(bases[:, None], ends.shape)]).reshape(-1, 4)
    index = np.arange(len(offsets))
    if distinct:
        _, first, index = np.unique(offsets @ _SITE_KEY, return_index=True, return_inverse=True)
        offsets = offsets[first]
    index = index.reshape(2, *ends.shape[:2])
    # Fortran order makes lattice_psi's offsets.T contiguous: it forms the sites 1.5-3.6x faster
    return SiteLattice(np.asfortranarray(offsets), index[0], index[1])


def radii(x) -> list[float]:
    """|x| of every point (row) of x, as Python floats."""
    return [math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3) for x0, x1, x2, x3 in x.tolist()]


def step(x, h0: float) -> np.ndarray:
    """Radius-scaled stencil step h = h0 * (1 + |x|) of every point (row) of x.

    Shaped (n, 1, 1), so that it broadcasts over (points, bases, steps).
    """
    # scalar arithmetic per point: a single-point call then pays for one
    # numpy call instead of six
    return np.array([h0 * (1.0 + r) for r in radii(x)])[:, None, None]


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


def builtin_psi(family, par, x, h, order: int, curvature: bool):
    """Phi(b + d) - Phi(b) over the stencils around the points x, without cancelling large terms.

    psi is (n, B, K), laid out as sites() lays out the bases b and the
    steps d.  The (n, B, K) temporaries are updated in place, so a pass
    holds at most four.
    """
    bases, steps = sites(x, h, order, curvature)
    # du = 2 b.d + |d|^2, the exact change of u = |z|^2
    du = bases @ steps.transpose(0, 2, 1)
    du *= 2.0
    du += h * h * STENCILS[order].step_norms
    if family == FLAT:
        return du
    u = (bases * bases).sum(axis=2)[:, :, None]
    a2 = par * par
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


def callable_values(fn, columns, name: str) -> np.ndarray:
    """fn(*row) for each row of columns (equal-length lists of Python values), as floats.

    The calls go through one map, in row order.  A result that is not a
    real number raises TypeError naming the potential and the site.
    np.fromiter raises for a complex result but reads None as NaN, so
    the values are checked for NaN once: fn is called again through
    float() at the first NaN site, which raises for a non-real result
    and lets a real NaN through.
    """
    count = len(columns[0])
    rows = [iter(column) for column in columns]
    try:
        values = np.fromiter(map(fn, *rows), float, count=count)
    except TypeError as exc:
        # map has taken the failing row from each column, and no row after it
        raise _not_real(name, columns, count - operator.length_hint(rows[0]) - 1, exc) from exc
    nan = np.isnan(values)
    if nan.any():
        i = int(nan.argmax())
        try:
            float(fn(*(column[i] for column in columns)))
        except TypeError as exc:
            raise _not_real(name, columns, i, exc) from exc
    return values


def _not_real(name: str, columns, i: int, exc: TypeError) -> TypeError:
    args = ", ".join(repr(column[i]) for column in columns)
    return TypeError(f"{name}: fn({args}) is not a real number ({exc})")


def lattice_psi(fn, x, h, lattice: SiteLattice, radial: bool, name: str):
    """psi of a callable potential over the stencils around the points x, as sites() lays it out.

    fn is called once per site x + h o of the lattice around each point,
    in lattice order: with u = |z|^2 when radial (Phi = fn(u)), else
    with the complex coordinates (z1, z2).
    """
    y = x[:, :, None] + h * lattice.offsets.T
    if radial:
        # column adds, since numpy sums a short last axis slowly; the order
        # of the adds is the one .sum() would take
        y *= y
        u = y[:, 0] + y[:, 1] + y[:, 2] + y[:, 3]
        columns = [u.ravel().tolist()]
    else:
        z = np.empty((2,) + y[:, 0].shape, complex)
        # real and imaginary parts are written directly: complex arithmetic
        # such as a + 1j*b would turn a -0.0 into 0.0
        for j, part in enumerate((z[0].real, z[0].imag, z[1].real, z[1].imag)):
            part[...] = y[:, j]
        columns = z.reshape(2, -1).tolist()
    phi = callable_values(fn, columns, name).reshape(y[:, 0].shape)
    psi = np.take(phi, lattice.terms, axis=1)
    psi -= np.take(phi, lattice.bases, axis=1)
    return psi


# central weights of d^j f / dt^j, j = 1..4, at t + k h for |k| <= 3 (order 2)
# or 4 (order 4) as integer rows over their denominators: the unique rows with
# sum_k w_k k^i = j! delta_ij for i <= 2 max |k| (Fornberg, Math. Comp. 51, 1988)
_T_WEIGHTS = {
    2: (
        ((-1, 9, -45, 0, 45, -9, 1), 60),
        ((2, -27, 270, -490, 270, -27, 2), 180),
        ((1, -8, 13, 0, -13, 8, -1), 8),
        ((-1, 12, -39, 56, -39, 12, -1), 6),
    ),
    4: (
        ((3, -32, 168, -672, 0, 672, -168, 32, -3), 840),
        ((-9, 128, -1008, 8064, -14350, 8064, -1008, 128, -9), 5040),
        ((-7, 72, -338, 488, 0, -488, 338, -72, 7), 240),
        ((7, -96, 676, -1952, 2730, -1952, 676, -96, 7), 240),
    ),
}


def radial_scalar(profile, x, h0: float, order: int, name: str = "custom-radial") -> np.ndarray:
    """S of Phi = profile(|z|^2) at each point (row) of x, from the profile along t = log |z|^2.

    With u = |x|^2 and f(t) = profile(e^t), g has the eigenvalues f'/u
    and f''/u, and S = -2 (G'/f' + G''/f'') with G = log(f' f'') - 2t.
    The profile is called at u e^(k h), h = 4 h0, for the _T_WEIGHTS of
    the order, and each sum is rounded once, so a point's S depends on
    its computed |x| alone.  NaN where f' or f'' is not positive or a
    profile value is NaN.
    """
    rows = _T_WEIGHTS[order]
    reach = len(rows[0][0]) // 2
    h = 4.0 * h0
    # the weights of k = 1..reach, over the denominator and h^j
    weights = [[w / (d * h**j) for w in row[reach + 1 :]] for j, (row, d) in enumerate(rows, 1)]
    sites = [r * r * math.exp(k * h) for r in radii(x) for k in range(-reach, reach + 1)]
    out = []
    for f in callable_values(profile, [sites], name).reshape(len(x), -1).tolist():
        # f(k) - f(-k) carries the odd derivatives, f(k) + f(-k) - 2 f(0) the even
        up, down, two_f0 = f[reach + 1 :], f[reach - 1 :: -1], 2.0 * f[reach]
        pairs = [list(map(operator.sub, up, down)), [a + b - two_f0 for a, b in zip(up, down)]]
        terms = (map(operator.mul, w, p) for w, p in zip(weights, pairs * 2))
        try:
            f1, f2, f3, f4 = map(math.fsum, terms)
        except (OverflowError, ValueError):
            # fsum raises for a sum that overflows, or for inf - inf
            f1 = f2 = f3 = f4 = math.nan
        if not (f1 > 0.0 and f2 > 0.0):
            f1 = f2 = math.nan  # g is not positive definite
        a, b = f2 / f1, f3 / f2
        out.append(-2.0 * ((a + b - 2.0) / f1 + (f3 / f1 - a * a + f4 / f2 - b * b) / f2))
    return np.array(out)


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
