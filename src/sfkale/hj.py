"""Exact arithmetic for cyclic quotient singularities.

Everything here treats the singularity C^2 / (z1, z2) ~ (w z1, w^q z2)
with w a primitive p-th root of unity, gcd(p, q) = 1.  The module
computes the all->=2 continued fraction of p/q and its dual, the chain
of lattice points spanning the invariant monomial cone, the minimal
generators of the invariant ring, and the monomial chart atlas with its
transition identities.  No floating point enters any computation.
The currency is Python ints: Fractions appear only as the chain points
c_i, whose denominators divide p, and as evaluate_fraction's value.
The integer vectors p*c_i are LatticeChain.vectors: lattice_chain runs
its recursion in ints and seeds them on the chain it returns, and any
other chain (one built by hand or by dataclasses.replace) derives them
from its points on first use.  invariant_monomials is their public
view, and the chart atlas and every identity are built and checked
from them.  A chart is a named tuple Chart(index, u, v): it compares
equal to the plain tuple (index, u, v), the identity checks unpack it
as one, and it is changed with _replace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import NamedTuple

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
    "determinant_identity_holds",
    "monomial_relation_holds",
    "transition_matrices",
    "transition_cocycle_holds",
    "format_monomial",
]


def _check_pair(p, q):
    # bool is an int subclass, but True is no singularity order
    ints = isinstance(p, int) and isinstance(q, int)
    if not ints or isinstance(p, bool) or isinstance(q, bool):
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


# one resolve expands p/q twice and p/(p-q) three times: hj_expand (called
# again by moduli.cyclic_moduli) and lattice_chain each ask for them
@lru_cache(maxsize=64)
def _expand(p, q):
    # e = ceil(p/q), then recurse on (q, e*q - p); remainder 0 stops.
    out = []
    a, b = p, q
    while b:
        e = -(-a // b)
        out.append(e)
        a, b = b, e * b - a
    return tuple(out)


def _over(n, p):
    """Fraction(n, p) for ints n >= 0 and p > 0, at half the constructor's cost.

    The reduced pair goes straight into Fraction's two slots, as
    Fraction._from_coprime_ints does from Python 3.12 on; the
    constructor's argument dispatch is most of the cost of a chain's
    points.
    """
    g = gcd(n, p)
    fr = object.__new__(Fraction)
    fr._numerator = n // g
    fr._denominator = p // g
    return fr


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
    the integer vectors (a_i, b_i) = p*c_i (vectors, shown publicly by
    invariant_monomials) are the exponent vectors of the minimal
    invariant monomials, ordered by increasing x-exponent.  Interior
    points obey c_{i+1} = chain_coeffs[i]*c_i - c_{i-1}, and every
    consecutive pair satisfies the determinant identity
    b_i*a_{i+1} - b_{i+1}*a_i = p.

    vectors is never passed in.  lattice_chain seeds it with the integers
    its recursion produced; on every other instance it is derived from
    points on first use and cached.  dataclasses.replace builds a fresh
    instance with an empty cache, so a changed chain is always judged by
    its own points.
    """

    p: int
    q: int
    points: tuple[tuple[Fraction, Fraction], ...]
    chain_coeffs: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.points) - 2

    @cached_property
    def vectors(self) -> tuple[tuple[int, int], ...]:
        """The integer vectors p*c_i, unless lattice_chain seeded them.

        Raises ValueError naming the point when p*c_i is not an integer
        vector, i.e. when a denominator of the point does not divide p.
        """
        p = self.p
        out = []
        for i, (s, t) in enumerate(self.points):
            if p % s.denominator or p % t.denominator:
                raise ValueError(f"chain point {i} ({s}, {t}) is not on the lattice (1/{p}) Z^2")
            out.append((s.numerator * (p // s.denominator), t.numerator * (p // t.denominator)))
        return tuple(out)


def lattice_chain(p: int, q: int) -> LatticeChain:
    """Lattice chain of the invariant monomial cone for the pair (p, q).

    Built by running the three-term recursion downward from the two
    known generators x^p and x^(p-q)*y with the dual coefficients, then
    reversing into ascending order; the ascending multipliers are the
    dual expansion read backwards.  The recursion is closed (last point
    (0, p)) for every coprime pair, which the constructor checks.  Its
    integer vectors seed the chain's vectors cache, so no check converts
    the points back.  Raises InvalidPairError as hj_expand does.
    """
    _check_pair(p, q)
    dual = _expand(p, p - q)
    w = [(p, 0), (p - q, 1)]
    for a in dual:
        prev, cur = w[-2], w[-1]
        w.append((a * cur[0] - prev[0], a * cur[1] - prev[1]))
    if w[-1] != (0, p):  # guaranteed by the recursion; guards transcription bugs
        raise RuntimeError(f"chain for ({p}, {q}) did not close: {w[-1]}")
    w.reverse()
    points = tuple((_over(a, p), _over(b, p)) for a, b in w)
    chain = LatticeChain(p=p, q=q, points=points, chain_coeffs=dual[::-1])
    vars(chain)["vectors"] = tuple(w)  # the cached_property's slot
    return chain


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
    """The chain's integer exponent vectors p*c_i as a monomial chain.

    This is the public view of chain.vectors, the integers that every
    exact check reads: seeded by lattice_chain, derived from the points
    for any other chain.  Raises ValueError naming the point when p*c_i
    is not an integer vector, i.e. when the point is off the lattice
    (1/p) Z^2.
    """
    return MonomialChain(p=chain.p, q=chain.q, exponents=chain.vectors)


class Chart(NamedTuple):
    """One affine chart of the resolution cover, as the named tuple (index, u, v).

    u and v are (x, y) exponent vectors of the two coordinate
    monomials.  Against the integer vectors w = p*c of the chart's chain
    points, u.w_i = 0 and u.w_{i+1} = p; v does the opposite.  A chart
    compares equal to the plain tuple (index, u, v), unpacks as one, and
    is changed with _replace.
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

    With (a_i, b_i) = p*c_i from chain.vectors, chart i carries
    u_i = (b_i, -a_i) = x^(b_i) / y^(a_i) and
    v_i = (-b_{i+1}, a_{i+1}) = y^(a_{i+1}) / x^(b_{i+1}).  Adjacent
    charts satisfy v_i = u_{i+1}^(-1) and v_{i+1} = v_i^(kappa_{i+1}) * u_i
    as integer exponent-vector identities.  Raises ValueError for a
    chain point off the lattice (1/p) Z^2.
    """
    w = chain.vectors
    make = Chart._make
    charts = tuple([
        make((i, (b0, -a0), (-b1, a1)))
        for i, ((a0, b0), (a1, b1)) in enumerate(zip(w, w[1:]))
    ])
    return ChartAtlas(p=chain.p, q=chain.q, charts=charts, chain_coeffs=chain.chain_coeffs)


def determinant_identity_holds(chain: LatticeChain) -> bool:
    """b_i*a_{i+1} - b_{i+1}*a_i = p at every link, with (a_i, b_i) = p*c_i.

    This is t_i*s_{i+1} - t_{i+1}*s_i = 1/p for c_i = (s_i, t_i), scaled
    by p^2.  Raises ValueError for a chain point off the lattice (1/p) Z^2.
    """
    w = chain.vectors
    p = chain.p
    for (a0, b0), (a1, b1) in zip(w, w[1:]):
        if b0 * a1 - b1 * a0 != p:
            return False
    return True


def monomial_relation_holds(chain: LatticeChain) -> bool:
    """u_{i-1} * u_{i+1} = u_i^kappa_i as exact exponent identities.

    One coefficient per interior point: any other count answers False,
    as in transition_cocycle_holds.
    """
    exps = chain.vectors
    kappa = chain.chain_coeffs
    if len(kappa) != len(exps) - 2:
        return False
    for k, (ax, ay), (bx, by), (cx, cy) in zip(kappa, exps, exps[1:], exps[2:]):
        if ax + cx != k * bx or ay + cy != k * by:
            return False
    return True


def transition_matrices(atlas: ChartAtlas):
    """Per-step basis changes: rows of (u, v) exponents map by [[0,-1],[1,kappa]]."""
    return [((0, -1), (1, k)) for k in atlas.chain_coeffs]


def transition_cocycle_holds(atlas: ChartAtlas) -> bool:
    """Every transition step carries its chart to the next, starting from det A_0 = p.

    Chart exponents stack into rows A_i = [u_i; v_i].  Step i is
    A_{i+1} = T_i A_i with T_i = [[0, -1], [1, kappa_i]] (transition_matrices),
    that is u_{i+1} = -v_i and v_{i+1} = u_i + kappa_i v_i, checked in exact
    integers at every step.  Since det T_i = 1, this gives det A_i = p
    for every chart and the composite T_m ... T_1 A_0 = A_m.
    """
    charts = atlas.charts
    kappa = atlas.chain_coeffs
    _, (ux, uy), (vx, vy) = charts[0]
    if len(kappa) != len(charts) - 1 or ux * vy - uy * vx != atlas.p:
        return False
    for k, (_, u, v) in zip(kappa, charts[1:]):
        if u != (-vx, -vy) or v != (ux + k * vx, uy + k * vy):
            return False
        (ux, uy), (vx, vy) = u, v
    return True


def format_monomial(exponent) -> str:
    """Render an exponent pair like (3, 1) as 'x^3 y'."""
    parts = []
    for sym, e in zip(("x", "y"), exponent):
        if e == 0:
            continue
        parts.append(sym if e == 1 else f"{sym}^{e}")
    return " ".join(parts) if parts else "1"
