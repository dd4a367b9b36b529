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

A radial potential, Phi = F(|z|^2), takes no 4-D stencil: metric
assembles g = F' I + F'' conj(z) z^T from lam = F' + |z|^2 F'' and b =
-F'', closed form for the built-ins (builtin_metric) and taken along t
for a custom_radial profile (radial_metric).  Only custom_general
potentials take the inner stencil, on psi rather than Phi: the weights
sum to zero, so both forms agree exactly, but psi keeps the common value
of Phi out of the weighted sum.  lattice_psi calls the callable at the
sites x + h o of a site lattice and differences psi from those values
through the lattice's index arrays.  Lattices come in two forms:

  distinct: each site once (49 per Hessian and 673 per 4-D scalar
    curvature at order 4, 25 and 169 at order 2), for a perturbation
    of a scalar curvature derivative;
  not distinct: both ends of every term, duplicates included, 2 B K
    sites (96 per Hessian and 5088 per scalar curvature at order 4, 48
    and 1392 at order 2), for a custom_general potential's own S and
    Hessian.

t_derivatives takes f(t) = F(e^t)'s first four derivatives from f at
the 9 (order 4) or 7 t-sites t + k h, t = log u, h = 4 h0: from a
custom_radial profile's values there (profile_along_t), or from the
built-ins in closed form (builtin_along_t), whose terms e^t and c t
enter f's derivatives exactly and whose rest is differenced without
cancelling; flat is Burns with m = 0, all exact.  radial_scalar takes S
from all four, radial_metric g from f' and f''.  Each derivative is one
compensated sum (_sum2), over whole columns of a stack of points, or
over each row's Python floats when a chunk holds only a few rows; both
take the same IEEE operations, so they give the same bits.

Every function works on a stack of n points at once.  The scalar
curvature stencil around a point x has the bases x + h b, b in
Stencil.bases: at order 4, B = 53 bases (the point, its 48 outer sites
and 4 zero offsets for the center terms), each with K = 48 steps; at
order 2, 29 and 24; the Hessian alone has B = 1.  psi is (n, B, K), g
is (n, B, 4), and the reductions divide each point by its own h^2.
How many points share a stack is the caller's choice (curvature chunks
them); each point's values are the same whatever its neighbours.

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
# custom potential F(|z|^2): g and S along t = log |z|^2
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


# below this many points (rows) t_derivatives takes Python floats, whose
# operations cost less than numpy's per-call overhead on a few rows
_ROW_LOOP_POINTS = 5


def radii(x) -> list[float]:
    """|x| of every point (row) of x, as Python floats."""
    return [math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3) for x0, x1, x2, x3 in x.tolist()]


def norms(x) -> np.ndarray:
    """radii(x) as an array, from whole columns.

    The squares are added left to right, as radii adds them, so the two
    give the same bits.
    """
    y = x * x
    return np.sqrt(y[:, 0] + y[:, 1] + y[:, 2] + y[:, 3])


def step(x, h0: float) -> np.ndarray:
    """Radius-scaled stencil step h = h0 * (1 + |x|) of every point (row) of x.

    Shaped (n, 1, 1), so that it broadcasts over (points, bases, steps).
    """
    # scalar arithmetic per point: a single-point call then pays for one
    # numpy call instead of six
    return np.array([h0 * (1.0 + r) for r in radii(x)])[:, None, None]


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


def metric(x, eigen) -> np.ndarray:
    """(g11, g22, Re g12, Im g12) of a radial potential F(u) at every point of x (..., 4).

    g = F' I + F'' conj(z) z^T is lam + b |z2|^2, lam + b |z1|^2 and -b
    conj(z1) z2, where eigen(u), elementwise on u = |z|^2 shaped (..., 1),
    gives g's eigenvalue along conj(z), lam = F' + u F'', and b = -F''.
    """
    y = x * x
    minus = -x[..., 2:]
    # (|z2|^2, |z1|^2, -Re, -Im of conj(z1) z2), then scaled by b
    g = np.empty(x.shape)
    np.add(y[..., 2], y[..., 3], out=g[..., 0])
    np.add(y[..., 0], y[..., 1], out=g[..., 1])
    c = x[..., :2] * minus
    np.add(c[..., 0], c[..., 1], out=g[..., 2])
    c = x[..., :2] * minus[..., ::-1]
    np.subtract(c[..., 0], c[..., 1], out=g[..., 3])
    lam, b = eigen(g[..., :1] + g[..., 1:2])
    g *= b
    g[..., :2] += lam
    return g


def builtin_metric(family, par, x) -> np.ndarray:
    """metric of a built-in potential in closed form, where no term cancels: lam > 0, b >= 0.

    Burns, F = u + m log u, has lam = 1 and b = m / u^2, and flat is Burns
    with m = 0; Eguchi-Hanson, F' = w / u with w = sqrt(a^4 + u^2), has
    lam = u / w and b = a^4 / (w u^2).  NaN at the origin.
    """
    def eigen(u):
        if family != EGUCHI_HANSON:
            return 1.0, par / (u * u)
        a2 = par * par
        a4 = a2 * a2
        w = np.sqrt(a4 + u * u)
        return u / w, a4 / (w * u * u)

    return metric(x, eigen)


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
    """(rows, weights, exp(k h), expm1(k h), expm1(2 k h)) of the t-sites, h = 4 h0.

    rows[j - 1] holds the weights of d^j f / dt^j for k = 1..reach, over
    the denominator and h^j, then a 1 for an exact term, as Python
    floats; weights holds them as an array laid out (reach + 1, 4, 1),
    as radial_scalar lays out its terms.  The other three run over k =
    -reach..reach.
    """
    reach = _reach(order)
    h = 4.0 * h0
    rows = [
        [w / (d * h**j) for w in row[reach + 1 :]] + [1.0]
        for j, (row, d) in enumerate(_T_WEIGHTS[order], 1)
    ]
    k = range(-reach, reach + 1)
    return (
        rows,
        np.array(rows).T[:, :, None],
        np.array([math.exp(j * h) for j in k]),
        np.array([math.expm1(j * h) for j in k]),
        np.array([math.expm1(2 * j * h) for j in k]),
    )


def profile_along_t(profile, x, h0: float, order: int, name: str) -> np.ndarray:
    """profile(|x|^2 e^(k h)) for |k| <= reach, h = 4 h0: one row of 2 reach + 1 per point.

    The profile is called once per t-site, in point order and then k order.
    """
    r = norms(x)
    sites = np.multiply.outer(r * r, _t_table(order, h0)[2])
    return callable_values(profile, [sites.ravel().tolist()], name).reshape(sites.shape)


def builtin_along_t(family, par, x, h0: float, order: int):
    """(values, exact) of a built-in potential along t = log |z|^2 at each point (row) of x.

    f(t) = F(e^t) is split into a part whose first four t-derivatives
    are known exactly, held in exact (n x 4), and a rest whose
    differences rest(t + k h) - rest(t), h = 4 h0, |k| <= reach, are
    values.  radial_scalar adds exact inside its sums rather than
    differencing it.  With u = |x|^2:

      Burns, f = e^t + m t: exact (u + m, u, u, u), values 0; flat is
        Burns with m = 0 (its par), f = e^t, exact (u, u, u, u).
      Eguchi-Hanson, f = w + a^2 t - a^2 log(a^2 + w), w = sqrt(a^4 + u^2):
        where u >= a^2, e^t is split off, exact (u + a^2, u, u, u) and
          values d(w - u) - L, d(w - u) = -a^4 (dw + du) / ((w_k + u_k)(w + u));
        inside the bolt, u < a^2, f'' = u^2 / w is small next to u and
          splitting u off would cancel it, so exact (a^2, 0, 0, 0) and
          values dw - L;
        with L = a^2 log1p(dw / (a^2 + w)), du = u expm1(k h) and dw =
        u^2 expm1(2 k h) / (w_k + w) the changes of u and w.

    No term cancels, and flat's S comes out exactly 0.  Differencing e^t
    would leave the t-rows' truncation on it (1.5e-7 / u at order 2) in
    every S; outside the bolt the rest falls off as a^4 / u instead.  An
    a^4 that overflows makes every value NaN, so the point reads
    degenerate.
    """
    r = norms(x)
    u = (r * r)[:, None]
    exp, expm1, expm1_2 = _t_table(order, h0)[2:]
    if family != EGUCHI_HANSON:
        exact = np.concatenate([u + par, u, u, u], axis=1)
        return np.zeros((len(u), len(exp))), exact
    a2 = par * par
    a4 = a2 * a2
    far = u >= a2
    flat = np.where(far, u, 0.0)
    exact = np.concatenate([flat + a2, flat, flat, flat], axis=1)
    w = np.sqrt(a4 + u * u)
    uk = u * exp
    wk = np.sqrt(a4 + uk * uk)
    dw = u * u * expm1_2
    dw /= wk + w
    # d(w - u), in the place of du
    du = u * expm1
    du += dw
    du *= -a4
    uk += wk
    uk *= w + u
    du /= uk
    values = np.where(far, du, dw)
    dw /= a2 + w
    np.log1p(dw, out=dw)
    dw *= a2
    values -= dw
    return values, exact


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


def _scalar(f1, f2, f3, f4):
    """S = -2 (G'/f' + G''/f'') from f's first four t-derivatives; elementwise on arrays."""
    a, b = f2 / f1, f3 / f2
    # + 0.0 turns an exact -0.0 (flat's -2 * 0.0) into 0.0 and moves no other value
    return -2.0 * ((a + b - 2.0) / f1 + (f3 / f1 - a * a + f4 / f2 - b * b) / f2) + 0.0


def t_derivatives(values, h0: float, order: int, exact=None):
    """The first four t-derivatives of f at each row of values, (4, n).

    values holds f(t + k h), t = log |z|^2, h = 4 h0, for |k| <= reach:
    profile_along_t's rows, or builtin_along_t's differences of the part
    of f it does not know exactly, with exact (n x 4) the first four
    t-derivatives of the part it does.  f(k) - f(-k) carries the odd
    derivatives and f(k) + f(-k) - 2 f(0) the even ones, through the
    _T_WEIGHTS of the order.  Each derivative is _sum2 of its reach
    weighted terms, k = 1 up, and then its exact term: a compensated
    sum, which on every row of the built-ins and profiles tried gave the
    bits of the correctly rounded sum, math.fsum's.  The terms are laid
    out (reach + 1, 4, n), so the sums take whole (4, n) slabs at once.
    Below _ROW_LOOP_POINTS rows the terms and _sum2 run on each row's
    Python floats instead, with the same IEEE operations in the same
    order, so a point's derivatives do not depend on how many rows came
    with it; they come back as four tuples of floats, not an array.
    """
    reach = _reach(order)
    rows, weights = _t_table(order, h0)[:2]
    if len(values) < _ROW_LOOP_POINTS:
        out = []
        exact_rows = [[0.0] * 4] * len(values) if exact is None else exact.tolist()
        for v, e in zip(values.tolist(), exact_rows):
            c = 2.0 * v[reach]
            up, down = v[reach + 1 :], v[reach - 1 :: -1]
            odd = list(map(operator.sub, up, down))
            even = [s - c for s in map(operator.add, up, down)]
            out.append([
                _sum2(list(map(operator.mul, diffs + [exact_j], row)))
                for diffs, exact_j, row in zip((odd, even, odd, even), e, rows)
            ])
        return list(zip(*out))
    columns = values.T
    up, down = columns[reach + 1 :], columns[reach - 1 :: -1]
    # terms[k - 1, j - 1] is term k of d^j f / dt^j at each point; terms[reach] the exact one
    terms = np.empty((reach + 1, 4, len(values)))
    odd, even = terms[:reach, 0], terms[:reach, 1]
    np.subtract(up, down, out=odd)
    np.add(up, down, out=even)
    even -= 2.0 * columns[reach]
    terms[:reach, 2:] = terms[:reach, :2]
    terms[reach] = 0.0 if exact is None else exact.T
    terms *= weights
    return _sum2(terms)


def radial_scalar(values, h0: float, order: int, exact=None) -> np.ndarray:
    """S of a radial potential at each row of values, taken along t = log |z|^2.

    values and exact are t_derivatives'.  S = -2 (G'/f' + G''/f''), G =
    log(f' f'') - 2t, over Python floats for a few rows: NaN where f' or
    f'' is not positive or a derivative is not finite, +0.0 for S = 0.
    """
    f = t_derivatives(values, h0, order, exact)
    if len(values) < _ROW_LOOP_POINTS:
        return np.array([_scalar(*d) if d[0] > 0.0 and d[1] > 0.0 and all(map(math.isfinite, d))
                         else math.nan for d in zip(*f)])
    ok = (f[0] > 0.0) & (f[1] > 0.0) & np.isfinite(f).all(axis=0)
    return np.where(ok, _scalar(*f), np.nan)


def radial_metric(values, x, h0: float, order: int) -> np.ndarray:
    """metric of a custom_radial profile at each point (row) of x, from its values along t."""
    # g's eigenvalues are f''/u along conj(z) and f'/u across it
    f1, f2 = np.asarray(t_derivatives(values, h0, order)[:2])[..., None]
    return metric(x, lambda u: (f2 / u, (f1 - f2) / (u * u)))


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


def scalar_curvature(g, h, order: int) -> np.ndarray:
    """S = -2 tr(g^-1 Hess log det g) at each point's first base, from g (n, B, 4) at all its bases.

    NaN at the points whose metric is not positive definite somewhere on
    their stencil; the other points keep their values.  The factor 2
    fixes the real scalar curvature normalization.
    """
    stencil = STENCILS[order]
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
