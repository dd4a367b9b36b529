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

A radial potential, Phi = F(|z|^2), takes no 4-D stencil: radial
gives its g and S along t (below).  Only custom_general potentials
take the inner stencil, on psi rather than Phi: the weights sum to
zero, so both forms agree exactly, but psi keeps the common value of
Phi out of the weighted sum.  lattice_psi calls the callable at the
sites x + h o of a site lattice and differences psi from those values
through the lattice's index arrays.  Lattices come in two forms:

  distinct: each site once (49 per Hessian and 673 per 4-D scalar
    curvature at order 4, 25 and 169 at order 2), for both metrics of a
    scalar curvature derivative;
  not distinct: both ends of every term, duplicates included, 2 B K
    sites (96 per Hessian and 5088 per scalar curvature at order 4, 48
    and 1392 at order 2), for a custom_general potential's own S and
    Hessian.

Along t = log u, S depends only on f(t) = F(e^t)'s first four
derivatives, from which scalar takes it, and g = F' I + F'' conj(z)
z^T only on f'' and f' - f'': its eigenvalues are f''/u along conj(z)
and f'/u across it.  A source gives the five, (f', f'', f''', f'''',
f' - f''), and radial's one kernel takes them at u = |z|^2 for S or g.
The built-ins' source is one closed-form table (builtin_t_derivatives):
tau = f' and phi = f'' give f''' = phi phi' and f'''' = phi (phi
phi')', ' = d/dtau, f' - f'' is written so that nothing cancels, and
flat is Burns with m = 0.  A custom_radial profile is called at the 9
(order 4) or 7 t-sites t + k h, h = 4 h0 (profile_along_t), and
t_derivatives takes each of the first four from those values as one
compensated sum (_sum2), and f' - f'' as the difference of the first
two.  These and S's final contraction are
kernels, written once: rows_or_columns runs them on a few rows' Python
floats or on whole columns, with the same IEEE operations, so to the
same bits.

Every function works on a stack of n points at once.  The scalar
curvature stencil around a point x has the bases x + h b, b in
Stencil.bases: at order 4, B = 53 bases (the point, its 48 outer sites
and 4 zero offsets for the center terms), each with K = 48 steps; at
order 2, 29 and 24; the Hessian alone has B = 1.  psi is (n, B, K), g
is (n, B, 4), and the reductions divide each point by its own h^2.
How many points share a stack is the caller's choice (curvature chunks
them); each point's values are the same whatever its neighbours.

Where g fails positive_definite, the one test of its components, S is
NaN; callers turn that into an error or a failed report, and judge g by
the same test (a built-in's closed form, positive definite wherever it
is finite, by finiteness).  numpy's error state is left to the callers,
who silence the warnings that mark those points once per call.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import repeat
from typing import NamedTuple

import numpy as np

EGUCHI_HANSON = 1
# flat is Burns with m = 0
BURNS = 2
# custom potential F(|z|^2): g and S along t = log |z|^2
RADIAL = 3
_TINY = 2.0**-1022  # the smallest normal float
OFF_DOMAIN = "{} at radius {:.4g} lies {} the origin of C^2, where no potential is defined"

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
    -o.  pair_weights (k x 4) weighs each pair.
    center_weights holds one row per pure second derivative for its
    zero-offset term, which only the outer stencil evaluates (psi
    vanishes there).  bases are the outer sites: the center itself,
    then steps, then one zero offset per center row.
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


def norms(x) -> np.ndarray:
    """|x| of every point (row) of x, from whole columns.

    The squares are added left to right, as a Python-float sum x0 * x0 +
    x1 * x1 + x2 * x2 + x3 * x3 adds them, so the two give the same bits.
    """
    y = x * x
    return np.sqrt(y[:, 0] + y[:, 1] + y[:, 2] + y[:, 3])


def step(x, h0: float) -> np.ndarray:
    """Radius-scaled stencil step h = h0 * (1 + |x|) of every point (row) of x.

    Shaped (n, 1, 1), so that it broadcasts over (points, bases, steps).
    """
    return (h0 * (1.0 + norms(x)))[:, None, None]


# rows below which Python floats cost less than numpy columns: along t, and for
# a built-in's closed forms, g and S (their measured crossovers 12-13 and 15-16)
_ROWS, _G_ROWS = 6, 13


def rows_or_columns(kernel, *arrays, below=_ROWS) -> np.ndarray:
    """kernel over the rows of arrays (n, ...): on each row's Python floats, or on whole columns.

    Below `below` rows kernel(math, *row) runs per row, each array's row
    a float or a list of floats; else kernel(np, *columns) runs once on
    the arrays transposed, to the same bits.  A division by zero, which
    numpy turns into inf or NaN, sends the rows to the columns.
    """
    if len(arrays[0]) < below:
        try:
            return np.array(list(map(kernel, repeat(math), *map(np.ndarray.tolist, arrays))))
        except ZeroDivisionError:
            pass
    return np.asarray(kernel(np, *(a.T for a in arrays))).T


def where(xp, ok, fn, *args):
    """fn(*args) where ok, else NaN: on columns, or on a row's floats, where fn runs only if ok."""
    if xp is math:
        return fn(*args) if ok else math.nan
    return np.where(ok, fn(*args), np.nan)


def builtin_potential(family, par, x0, x1, x2, x3):
    """Phi of a built-in potential at x; ValueError where |z|^2 is 0, or underflows to 0."""
    u = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    if u == 0.0:
        point = f"point ({complex(x0, x1)}, {complex(x2, x3)})"
        raise ValueError(OFF_DOMAIN.format(point, math.hypot(x0, x1, x2, x3), "at"))
    if family == EGUCHI_HANSON:
        a2 = par * par
        w = eguchi_hanson_w(math, a2, u)
        return w + a2 * math.log(u) - a2 * math.log(a2 + w)
    # Burns, and flat as Burns with par = 0: u plus a logarithmic term of weight par
    return u + par * math.log(u)


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


def lattice_psi(fn, x, h, lattice: SiteLattice, name: str):
    """psi of a custom_general potential over the stencils around the points x: (n, B, K).

    fn is called with the complex coordinates (z1, z2) once per site x
    + h o of the lattice around each point, in lattice order.
    """
    y = x[:, :, None] + h * lattice.offsets.T
    z = np.empty((2,) + y[:, 0].shape, complex)
    # real and imaginary parts are written directly: complex arithmetic
    # such as a + 1j*b would turn a -0.0 into 0.0
    for j, part in enumerate((z[0].real, z[0].imag, z[1].real, z[1].imag)):
        part[...] = y[:, j]
    phi = callable_values(fn, z.reshape(2, -1).tolist(), name).reshape(y[:, 0].shape)
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


def _reach(order: int) -> int:
    """Largest |k| of the t-sites t + k h at this order: 4, or 3 at order 2."""
    return len(_T_WEIGHTS[order][0][0]) // 2


@functools.lru_cache(maxsize=16)
def _t_table(order: int, h0: float):
    """(rows, weights, exp(k h)) of the t-sites, h = 4 h0.

    rows[j - 1] holds the weights of d^j f / dt^j for k = 1..reach, over
    the denominator and h^j, as Python floats; weights holds them as an
    array laid out (reach, 4, 1), as t_derivatives lays out its terms.
    exp(k h) runs over k = -reach..reach.  ValueError where e^h rounds
    to 1 (h0 below about 2.8e-17): the t-sites would coincide.
    """
    reach = _reach(order)
    h = 4.0 * h0
    if math.exp(h) == 1.0:
        raise ValueError(f"h0 = {h0} is too small for a custom_radial profile: t-sites coincide")
    rows = [
        [w / (d * h**j) for w in row[reach + 1 :]]
        for j, (row, d) in enumerate(_T_WEIGHTS[order], 1)
    ]
    exp = np.array([math.exp(k * h) for k in range(-reach, reach + 1)])
    return rows, np.array(rows).T[:, :, None], exp


def profile_along_t(profile, x, h0: float, order: int, name: str) -> np.ndarray:
    """profile(|x|^2 e^(k h)) for |k| <= reach, h = 4 h0: one row of 2 reach + 1 per point.

    The profile is called once per t-site, in point order and then k order.
    """
    r = norms(x)
    sites = np.multiply.outer(r * r, _t_table(order, h0)[2])
    return callable_values(profile, [sites.ravel().tolist()], name).reshape(sites.shape)


def eguchi_hanson_w(xp, a2, u):
    """w = sqrt(a^4 + u^2) from a2 = a^2 and u, as sqrt(a2 a2 + u u) where that is normal; a kernel.

    Elsewhere (u u overflows past |z| of about 1.16e77, or both squares
    underflow) w = big sqrt(1 + (small / big)^2) over the larger and
    smaller of a2 and u, in which no square leaves the float range.
    """
    s = a2 * a2 + u * u
    if xp is math:
        if _TINY <= s < math.inf:
            return math.sqrt(s)
        big, small = (a2, u) if a2 > u else (u, a2)
        r = small / big
        return big * math.sqrt(1.0 + r * r)
    w = np.sqrt(s)
    if _TINY <= s.min() and s.max() < math.inf:
        return w
    big = np.maximum(a2, u)
    r = np.minimum(a2, u) / big
    return np.where((s >= _TINY) & (s < math.inf), w, big * np.sqrt(1.0 + r * r))


def builtin_t_derivatives(xp, u, family, par):
    """(f', f'', f''', f'''', f' - f'') of a built-in's f(t) = F(e^t) at u = e^t, in closed form; a kernel.

    Burns, f = e^t + m t, has (u + m, u, u, u, m), and flat is Burns with
    m = 0.  Eguchi-Hanson has tau = f' = w = sqrt(a^4 + u^2) and phi =
    f'' = u^2 / w, a function of tau with phi' = 1 + q, q = (a^2 / w)^2
    <= 1, so f''' = phi phi' = phi (1 + q), f'''' = phi (phi phi')' = phi
    (1 + 3 q^2) and f' - f'' = a^4 / w = a^2 (a^2 / w).  Nothing is
    subtracted, and every operation is correctly rounded, so rows and
    columns give the same bits on every CPU.
    """
    if family != EGUCHI_HANSON:
        return u + par, u, u, u, par
    a2 = par * par
    w = eguchi_hanson_w(xp, a2, u)
    phi = u * (u / w)
    p = a2 / w
    q = p * p
    return w, phi, phi * (1.0 + q), phi * (1.0 + 3.0 * (q * q)), a2 * p


def _sum2(terms):
    """terms[0] + terms[1] + ..., compensated: Sum2 of Ogita, Rump and Oishi.

    (SIAM J. Sci. Comput. 26, 2005.)  The partial sums run left to
    right; each add's exact error comes from Knuth's TwoSum, the errors
    are added in order, and their total is added to the last partial sum
    once: as accurate as summing in twice the working precision and
    rounding once.  terms is a list of floats, or an array whose first
    axis runs over the terms; the two take the same IEEE operations
    element by element.  On an array the loop adds whole slabs, which
    took a sixth of the time of np.add.accumulate along the first axis
    (that walks each element's terms in its inner loop).  An inf among
    the terms or the partial sums (an overflow) makes the sum NaN; an
    overflow of the final add alone makes it inf.
    """
    s = terms[0]
    err = None
    for b in terms[1:]:
        t = s + b
        z = t - s
        e = (s - (t - z)) + (b - z)
        err = e if err is None else err + e
        s = t
    return s + err


def _scalar(f1, f2, f3, f4, _=None):
    """S = -2 (G'/f' + G''/f'') from f's first four t-derivatives, elementwise; a fifth is unread."""
    a, b = f2 / f1, f3 / f2
    # + 0.0 turns an exact -0.0 (flat's -2 * 0.0) into 0.0 and moves no other value
    return -2.0 * ((a + b - 2.0) / f1 + (f3 / f1 - a * a + f4 / f2 - b * b) / f2) + 0.0


def scalar(xp, f):
    """S of a radial potential from f = (f', f'', f''', f'''') or a source's five; a kernel.

    S = -2 (G'/f' + G''/f''), G = log(f' f'') - 2t: NaN where f' or f''
    is not positive or a derivative is not finite (positive_definite's
    rule, on g's eigenvalues f'/u and f''/u), +0.0 for S = 0.  A row
    checks a source's f' - f'' too, sparing a slice: it is finite
    wherever f' and f'' are finite and positive.
    """
    finite = all(map(math.isfinite, f)) if xp is math else np.isfinite(f[:4]).all(axis=0)
    return where(xp, (f[0] > 0.0) & (f[1] > 0.0) & finite, _scalar, *f)


def t_derivatives(xp, values, h0: float, order: int):
    """(f', f'', f''', f'''', f' - f'') of f at a row of values, or at whole columns; a kernel.

    values holds f(t + k h), |k| <= reach.  f(k) - f(-k) carries the odd
    derivatives, f(k) + f(-k) - 2 f(0) the even ones; each is _sum2 of
    its weighted terms, k = 1 up (math.fsum's bits on every row tried),
    and f' - f'' is the difference of the first two.  Columns sum the
    four as (4, n) slabs; a sum per derivative took 25-120% longer.
    """
    rows, weights = _t_table(order, h0)[:2]
    reach = len(values) // 2
    c = 2.0 * values[reach]
    # terms[k - 1][j - 1] is term k of d^j f / dt^j, odd j then even j
    terms = [(a - b, (a + b) - c) * 2 for a, b in zip(values[reach + 1 :], values[reach - 1 :: -1])]
    if xp is math:
        f = [_sum2(list(map(operator.mul, t, w))) for t, w in zip(zip(*terms), rows)]
    else:
        f = _sum2(np.multiply(terms, weights))
    return (*f, f[0] - f[1])


def radial(curvature: bool, x, values, p1, p2) -> np.ndarray:
    """S (curvature) or g at each point (row) of x of a radial potential F(u), by one kernel.

    The kernel forms u = |z2|^2 + |z1|^2 and takes f(t) = F(e^t)'s (f',
    f'', f''', f'''', f' - f''): builtin_t_derivatives(xp, u, family,
    par) where values is None and (p1, p2) = (family, par), else
    t_derivatives(xp, row, h0, order) at the point's row of values
    (profile_along_t's) and (p1, p2) = (h0, order).  S is scalar's.  g
    = F' I + F'' conj(z) z^T is lam + b |z2|^2, lam + b |z1|^2 and -b
    conj(z1) z2, with lam = f''/u, g's eigenvalue along conj(z) (f'/u
    across it), and b = (f' - f'')/u^2.  A built-in's rows run as Python
    floats below _G_ROWS, a profile's below _ROWS.
    """
    def kernel(xp, row, *v):
        x0, x1, x2, x3 = row
        s1, s2 = x0 * x0 + x1 * x1, x2 * x2 + x3 * x3
        u = s2 + s1
        f = t_derivatives(xp, v[0], p1, p2) if v else builtin_t_derivatives(xp, u, p1, p2)
        if curvature:
            return scalar(xp, f)
        lam, b = f[1] / u, f[4] / (u * u)
        return s2 * b + lam, s1 * b + lam, (x0 * -x2 + x1 * -x3) * b, (x0 * -x3 - x1 * -x2) * b
    if values is None:
        return rows_or_columns(kernel, x, below=_G_ROWS)
    return rows_or_columns(kernel, x, values)


def hessian(values, h, order: int) -> np.ndarray:
    """Weighted sum / h^2 of values at the stencil's offsets, mirror pairs added first.

    values runs over the points, the bases, then psi's steps (inner
    stencil, to g) or log det g's steps and center terms (outer stencil);
    each point is divided by its own h^2.  (n, B, sites) -> (n, B, 4).
    """
    stencil = STENCILS[order]
    k = len(stencil.pair_weights)
    out = (values[..., :k] + values[..., k : 2 * k]) @ stencil.pair_weights
    if values.shape[-1] > 2 * k:
        out += values[..., 2 * k :] @ stencil.center_weights
    out /= h * h
    return out


def scalar_curvature(g, h, order: int) -> np.ndarray:
    """S = -2 tr(g^-1 Hess log det g) at each point's first base, from g (n, B, 4) at all its bases.

    NaN at the points whose metric is not positive definite somewhere on
    their stencil; the other points keep their values.  The factor 2
    fixes the real scalar curvature normalization.
    """
    det, positive = positive_definite(np, g[..., 0], g[..., 1], g[..., 2], g[..., 3])
    # the outer stencil runs over the sites around the first base
    logdet = np.log(np.where(positive[:, None, 1:], det[:, None, 1:], np.nan))
    f = hessian(logdet, h, order)[:, 0]
    return rows_or_columns(contract, g[:, 0], f, det[:, 0], positive[:, 0])


def positive_definite(xp, g11, g22, gr, gi):
    """(det g, ok) from g's components, ok = 0 < det < inf and g11 > 0 (so g22 > 0; NaN fails); a kernel."""
    det = g11 * g22 - gr * gr - gi * gi
    return det, (0.0 < det) & (det < math.inf) & (g11 > 0.0)


def contract(xp, g, f, det, ok):
    """S = -2 tr(g^-1 f) from g, f = Hess log det g and det g at a base: NaN unless ok; a kernel."""
    (g11, g22, gr, gi), (f11, f22, fr, fi) = g, f
    return where(xp, ok, lambda: -2.0 * (g22 * f11 + g11 * f22 - 2.0 * (gr * fr + gi * fi)) / det)
