"""Exact arithmetic for cyclic quotient singularities.

Everything here treats the singularity C^2 / (z1, z2) ~ (w z1, w^q z2)
with w a primitive p-th root of unity, gcd(p, q) = 1.  The module
computes the all->=2 continued fraction of p/q and its dual, the chain
of lattice points spanning the invariant monomial cone, the minimal
generators of the invariant ring, and the monomial chart atlas with its
transition identities.  Only Python ints and Fractions are used; no
floating point enters any computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvalidPairError

__all__ = [
    "HJExpansion",
    "LatticeChain",
    "MonomialChain",
    "Chart",
    "ChartAtlas",
    "hj_expand",
    "evaluate_fraction",
    "embedding_dimension",
    "lattice_chain",
    "invariant_monomials",
    "chart_atlas",
    "pairing",
    "determinant_identity_holds",
    "monomial_relation_holds",
    "transition_matrices",
    "transition_cocycle_holds",
    "format_monomial",
]


def _check_pair(p, q):
    if not (isinstance(p, int) and isinstance(q, int)):
        raise InvalidPairError(f"p, q must be integers, got ({p!r}, {q!r})")
    if p < 2 or q < 1 or q >= p:
        raise InvalidPairError(f"need 1 <= q < p with p >= 2, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise InvalidPairError(f"gcd({p}, {q}) = {gcd(p, q)} != 1")


@dataclass(frozen=True)
class HJExpansion:
    """Continued-fraction data of p/q.

    coeffs is the unique expansion p/q = e1 - 1/(e2 - 1/(...)) with all
    entries >= 2; dual_coeffs is the same expansion for p/(p-q).  The
    coefficient count len(coeffs) equals the number of exceptional
    curves of the minimal resolution, and -coeffs[i] their
    self-intersections.
    """

    p: int
    q: int
    coeffs: tuple[int, ...]
    dual_coeffs: tuple[int, ...]


def _expand(p, q):
    # e = ceil(p/q), then recurse on (q, e*q - p); remainder 0 stops.
    out = []
    a, b = p, q
    while b:
        e = -(-a // b)
        out.append(e)
        a, b = b, e * b - a
    return tuple(out)


def hj_expand(p: int, q: int) -> HJExpansion:
    """All->=2 continued fraction of p/q together with its dual.

    Raises InvalidPairError unless gcd(p, q) = 1 and 1 <= q < p.
    """
    _check_pair(p, q)
    return HJExpansion(p=p, q=q, coeffs=_expand(p, q), dual_coeffs=_expand(p, p - q))


def evaluate_fraction(coeffs) -> Fraction:
    """Fold [e1, ..., ek] back into the exact rational e1 - 1/(e2 - ...).

    Entries must all be >= 2; every suffix then evaluates to a rational
    strictly above 1, so no division by zero can occur.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("empty coefficient list")
    if any(e < 2 for e in coeffs):
        raise ValueError(f"coefficients must all be >= 2, got {coeffs}")
    value = Fraction(coeffs[-1])
    for e in reversed(coeffs[:-1]):
        value = e - 1 / value
    return value


def embedding_dimension(coeffs) -> int:
    """Minimal generator count of the invariant ring: 3 + sum(e_i - 2)."""
    return 3 + sum(e - 2 for e in coeffs)


@dataclass(frozen=True)
class LatticeChain:
    """Ascending chain of rational lattice points c_0, ..., c_{m+1}.

    The points run from (0, 1) to (1, 0) with denominators dividing p;
    p*c_i are the exponent vectors of the minimal invariant monomials,
    ordered by increasing x-exponent.  Interior points obey
    c_{i+1} = chain_coeffs[i]*c_i - c_{i-1}, and every consecutive pair
    satisfies the exact determinant identity t_i*s_{i+1} - t_{i+1}*s_i
    = 1/p, where c_i = (s_i, t_i).
    """

    p: int
    q: int
    points: tuple[tuple[Fraction, Fraction], ...]
    chain_coeffs: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.points) - 2


def lattice_chain(p: int, q: int) -> LatticeChain:
    """Lattice chain of the invariant monomial cone for the pair (p, q).

    Built by running the three-term recursion downward from the two
    known generators x^p and x^(p-q)*y with the dual coefficients, then
    reversing into ascending order; the ascending multipliers are the
    dual expansion read backwards.  The recursion is closed (last point
    (0, p)) for every coprime pair, which the constructor checks.
    """
    exp = hj_expand(p, q)
    w = [(p, 0), (p - q, 1)]
    for a in exp.dual_coeffs:
        prev, cur = w[-2], w[-1]
        w.append((a * cur[0] - prev[0], a * cur[1] - prev[1]))
    if w[-1] != (0, p):  # guaranteed by the recursion; guards transcription bugs
        raise RuntimeError(f"chain for ({p}, {q}) did not close: {w[-1]}")
    w.reverse()
    points = tuple((Fraction(a, p), Fraction(b, p)) for a, b in w)
    return LatticeChain(
        p=p,
        q=q,
        points=points,
        chain_coeffs=tuple(reversed(exp.dual_coeffs)),
    )


@dataclass(frozen=True)
class MonomialChain:
    """Minimal generators of the invariant ring as (x, y) exponent pairs.

    exponents is ascending in the x-exponent, so it starts at y^p and
    ends at x^p.  The classical enumeration starting at x^p with second
    entry x^(p-q)*y is the same list reversed (see descending).
    """

    p: int
    q: int
    exponents: tuple[tuple[int, int], ...]

    @property
    def descending(self) -> tuple[tuple[int, int], ...]:
        return tuple(reversed(self.exponents))


def invariant_monomials(chain: LatticeChain) -> MonomialChain:
    """Scale the chain by p into the integer exponent vectors p*c_i."""
    exps = tuple((int(s * chain.p), int(t * chain.p)) for s, t in chain.points)
    return MonomialChain(p=chain.p, q=chain.q, exponents=exps)


@dataclass(frozen=True)
class Chart:
    """One affine chart of the resolution cover.

    u and v are (x, y) exponent vectors of the two coordinate
    monomials.  u pairs to 1 against the upper chain point c_{i+1} and
    to 0 against c_i; v does the opposite.
    """

    index: int
    u: tuple[int, int]
    v: tuple[int, int]


@dataclass(frozen=True)
class ChartAtlas:
    """Charts 0..m built from consecutive chain pairs (c_i, c_{i+1})."""

    p: int
    q: int
    charts: tuple[Chart, ...]
    chain_coeffs: tuple[int, ...]


def chart_atlas(chain: LatticeChain) -> ChartAtlas:
    """Coordinate monomials dual to each consecutive chain pair.

    Chart i carries u_i = x^(p t_i) / y^(p s_i) and
    v_i = y^(p s_{i+1}) / x^(p t_{i+1}).  Adjacent charts satisfy
    v_i = u_{i+1}^(-1) and v_{i+1} = v_i^(kappa_{i+1}) * u_i as exact
    exponent-vector identities.
    """
    p = chain.p
    charts = []
    for i in range(len(chain.points) - 1):
        s_i, t_i = chain.points[i]
        s_next, t_next = chain.points[i + 1]
        u = (int(p * t_i), -int(p * s_i))
        v = (-int(p * t_next), int(p * s_next))
        charts.append(Chart(index=i, u=u, v=v))
    return ChartAtlas(p=p, q=chain.q, charts=tuple(charts), chain_coeffs=chain.chain_coeffs)


def pairing(point, exponent) -> Fraction:
    """Evaluate a chain point on a monomial exponent vector: s*a + t*b."""
    s, t = point
    a, b = exponent
    return s * a + t * b


def determinant_identity_holds(chain: LatticeChain) -> bool:
    """t_i*s_{i+1} - t_{i+1}*s_i = 1/p at every link, exactly."""
    target = Fraction(1, chain.p)
    pts = chain.points
    return all(
        pts[i][1] * pts[i + 1][0] - pts[i + 1][1] * pts[i][0] == target
        for i in range(len(pts) - 1)
    )


def monomial_relation_holds(chain: LatticeChain) -> bool:
    """u_{i-1} * u_{i+1} = u_i^kappa_i as exact exponent identities."""
    exps = invariant_monomials(chain).exponents
    kappa = chain.chain_coeffs
    for i in range(1, len(exps) - 1):
        ax, ay = exps[i - 1]
        bx, by = exps[i]
        cx, cy = exps[i + 1]
        if (ax + cx, ay + cy) != (kappa[i - 1] * bx, kappa[i - 1] * by):
            return False
    return True


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def transition_matrices(atlas: ChartAtlas):
    """Per-step basis changes: rows of (u, v) exponents map by [[0,-1],[1,kappa]]."""
    return [((0, -1), (1, k)) for k in atlas.chain_coeffs]


def transition_cocycle_holds(atlas: ChartAtlas) -> bool:
    """Composite of all transition steps equals the direct basis change.

    Chart exponents stack into rows A_i = [u_i; v_i] with det A_i = p.
    The claim checked is T_m ... T_1 * A_0 = A_m in exact integers,
    i.e. the product of the step matrices equals A_m * adj(A_0) / p.
    """
    first, last = atlas.charts[0], atlas.charts[-1]
    a0 = (first.u, first.v)
    am = (last.u, last.v)
    composite = ((1, 0), (0, 1))
    for step in transition_matrices(atlas):
        composite = _mat_mul(step, composite)
    det0 = a0[0][0] * a0[1][1] - a0[0][1] * a0[1][0]
    adj0 = ((a0[1][1], -a0[0][1]), (-a0[1][0], a0[0][0]))
    direct_scaled = _mat_mul(am, adj0)  # = direct basis change times det(A_0)
    if det0 != atlas.p:
        return False
    return all(
        direct_scaled[r][c] == det0 * composite[r][c] for r in range(2) for c in range(2)
    )


def format_monomial(exponent) -> str:
    """Render an exponent pair like (3, 1) as 'x^3 y'."""
    parts = []
    for sym, e in zip(("x", "y"), exponent):
        if e == 0:
            continue
        parts.append(sym if e == 1 else f"{sym}^{e}")
    return " ".join(parts) if parts else "1"
