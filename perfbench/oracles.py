"""Independent oracles for every benchmark operation.

None of these call the function they judge.  The exact checks redo the
integer identities with plain ints; the metric checks compare against
closed forms of the U(2)-invariant potentials, Phi = F(u) with
u = |z1|^2 + |z2|^2, whose metric is g = F' I + F'' zbar z^T.
Each check returns None when the result is right and a reason otherwise.
"""

from __future__ import annotations

import math
from math import gcd

EH_A = 1.0
BURNS_M = 1.0

S_FLAT_TOL = 1e-8
S_SCALAR_FLAT_TOL = 1e-4
DECAY_TOL = 0.1
LIN_REL_TOL = 1e-3
HESSIAN_TOL = 1e-6
MU_EXACT = {"eguchi_hanson": 4.0, "burns": 2.0}

# Table 3 of the paper: (kind, modulus, residue) -> (divisor, offset),
# m = (l - residue) / divisor + offset for l = residue mod modulus
POLYHEDRAL = {
    ("tprod", 6, 1): (3, 17),
    ("tprod", 6, 5): (3, 15),
    ("t3", 6, 3): (3, 16),
    ("oprod", 12, 1): (6, 20),
    ("oprod", 12, 5): (6, 19),
    ("oprod", 12, 7): (6, 18),
    ("oprod", 12, 11): (6, 17),
    ("iprod", 30, 1): (15, 23),
    ("iprod", 30, 7): (15, 19),
    ("iprod", 30, 11): (15, 22),
    ("iprod", 30, 13): (15, 19),
    ("iprod", 30, 17): (15, 18),
    ("iprod", 30, 19): (15, 20),
    ("iprod", 30, 23): (15, 18),
    ("iprod", 30, 29): (15, 19),
}
MODULUS = {"tprod": 6, "t3": 6, "oprod": 12, "iprod": 30}


# ---------------------------------------------------------------- exact side


def fold(coeffs) -> tuple[int, int]:
    """e1 - 1/(e2 - 1/(...)) as a reduced (numerator, denominator) of ints."""
    num, den = coeffs[-1], 1
    for e in reversed(coeffs[:-1]):
        num, den = e * num - den, num
    g = gcd(num, den)
    return num // g, den // g


def string_length(n: int, q: int) -> int:
    """Number of entries of the all->=2 continued fraction of n/q."""
    k = 0
    while q:
        e = -(-n // q)
        n, q = q, e * q - n
        k += 1
    return k


def _scaled(fr, p):
    """p * fr as an int, or None when the denominator does not divide p."""
    if p % fr.denominator:
        return None
    return fr.numerator * (p // fr.denominator)


def check_pair(p, q, exp, chain, mono, atlas, identities, report):
    """Resolve pipeline plus moduli report for one pair, checked in plain ints."""
    coeffs, dual = list(exp.coeffs), list(exp.dual_coeffs)
    if min(coeffs + dual) < 2:
        return "continued fraction has an entry below 2"
    if fold(coeffs) != (p, q) or fold(dual) != (p, p - q):
        return f"coeffs {coeffs} / dual {dual} do not fold back to p/q and p/(p-q)"
    w = []
    for s, t in chain.points:
        a, b = _scaled(s, p), _scaled(t, p)
        if a is None or b is None:
            return f"chain point ({s}, {t}) has a denominator not dividing p"
        w.append((a, b))
    if w[0] != (0, p) or w[-1] != (p, 0) or w[-2] != (p - q, 1):
        return f"chain does not close from (0, p) through (p - q, 1) to (p, 0): {w[:2]}..{w[-2:]}"
    for i in range(len(w) - 1):
        (a0, b0), (a1, b1) = w[i], w[i + 1]
        if b0 * a1 - b1 * a0 != p:
            return f"link {i}: integer determinant {b0 * a1 - b1 * a0} != p"
    kappa = list(chain.chain_coeffs)
    if kappa != dual[::-1] or len(kappa) != len(w) - 2:
        return f"chain coefficients {kappa} are not the reversed dual expansion"
    for i in range(1, len(w) - 1):
        k = kappa[i - 1]
        if (w[i - 1][0] + w[i + 1][0], w[i - 1][1] + w[i + 1][1]) != (k * w[i][0], k * w[i][1]):
            return f"monomial relation fails at generator {i}"
    if list(mono.exponents) != w:
        return "invariant monomials differ from p times the chain"
    if len(atlas.charts) != len(w) - 1:
        return f"{len(atlas.charts)} charts for {len(w)} chain points"
    for i, chart in enumerate(atlas.charts):
        pairings = [chart.u[0] * x + chart.u[1] * y for x, y in (w[i], w[i + 1])]
        pairings += [chart.v[0] * x + chart.v[1] * y for x, y in (w[i], w[i + 1])]
        if pairings != [0, p, p, 0]:
            return f"chart {i} pairs to {pairings} against its chain points, want [0, p, p, 0]"
    if not all(identities):
        return f"library identity checks returned {identities}"
    k = len(coeffs)
    j = 2 * sum(e - 1 for e in coeffs)
    if q == p - 1:
        m = 1 if p == 2 else 3 * k - 3
    elif q == 1:
        m = 2 if p == 3 else 2 * p - 5
    else:
        m = j + k - 2
    got = (report.curves, report.deformations, report.family_dim, report.moduli_dim)
    if got != (k, j, j + k, m):
        return f"moduli (k, j, d, m) = {got}, want {(k, j, j + k, m)}"
    return None


def spec_moduli(kind: str, l: int, n) -> int:
    """Moduli dimension of a non-cyclic group with l > 1, from the closed forms."""
    if kind in ("dprod", "d2"):
        q = (-l) % n
        k, k_dual = string_length(n, q), string_length(n, n - q)
        return 3 * k + 2 * k_dual + 2 * (l + q) // n + 4
    modulus = MODULUS[kind]
    divisor, offset = POLYHEDRAL[(kind, modulus, l % modulus)]
    return (l - l % modulus) // divisor + offset


def check_spec(kind, l, n, spec, report):
    got = (spec.kind.value, spec.l, spec.n)
    if got != (kind, l, n):
        return f"parsed as {got}"
    want = spec_moduli(kind, l, n)
    if report.moduli_dim != want:
        return f"moduli_dim {report.moduli_dim}, closed form gives {want}"
    return None


def sweep_pairs(pmax: int) -> int:
    """Coprime pairs (p, q) with 2 <= q <= p - 2 and p <= pmax."""
    return sum(1 for p in range(2, pmax + 1) for q in range(2, p - 1) if gcd(p, q) == 1)


def check_sweep(pmax, result):
    want = {"pmax": pmax, "pairs_checked": sweep_pairs(pmax), "failures": 0, "first_failure": None}
    return None if result == want else f"sweep returned {result}, want {want}"


def check_table3(lmax, rows):
    want = []
    for (kind, modulus, residue), (divisor, offset) in POLYHEDRAL.items():
        start = residue if residue != 1 else modulus + 1
        for l in range(start, lmax + 1, modulus):
            want.append((kind, l, (l - residue) // divisor + offset))
    got = [(r["kind"], r["l"], r["moduli_dim"]) for r in rows]
    if got != want:
        return f"{len(got)} table rows, want {len(want)}; first difference at {_first_diff(got, want)}"
    return None


def _first_diff(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


# -------------------------------------------------------------- metric side


def radial_derivatives(family: str, u: float) -> tuple[float, float]:
    """(F'(u), F''(u)) for the potentials the benchmark samples."""
    if family == "flat":
        return 1.0, 0.0
    if family == "eguchi_hanson":
        a4 = EH_A**4
        w = math.sqrt(a4 + u * u)
        return w / u, -a4 / (w * u * u)
    # burns and both custom potentials carry the Burns profile u + m log u
    return 1.0 + BURNS_M / u, -BURNS_M / (u * u)


def metric_closed_form(family, x):
    """(g11, g22, |Re g12|, |Im g12|) at real coordinates x, conjugation-free."""
    x0, x1, x2, x3 = x
    u = x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3
    f1, f2 = radial_derivatives(family, u)
    return (
        f1 + f2 * (x0 * x0 + x1 * x1),
        f1 + f2 * (x2 * x2 + x3 * x3),
        abs(f2 * (x0 * x2 + x1 * x3)),
        abs(f2 * (x0 * x3 - x1 * x2)),
    )


def check_hessian(family, x, g):
    want = metric_closed_form(family, x)
    got = (g[0][0].real, g[1][1].real, abs(g[0][1].real), abs(g[0][1].imag))
    err = max(abs(a - b) for a, b in zip(got, want))
    if not err <= HESSIAN_TOL * max(1.0, abs(want[0]), abs(want[1])):
        return f"Hessian {got} differs from the closed form {want} by {err:.3g}"
    return None


def check_deviations(family, points, dev):
    for x, d in zip(points, dev):
        g11, g22, re12, im12 = metric_closed_form(family, x)
        want = max(abs(g11 - 1.0), abs(g22 - 1.0), re12, im12)
        if not abs(d - want) <= HESSIAN_TOL:
            return f"|g - I| = {d} at {list(x)}, closed form {want}"
    return None


def weighted_sup(points, values, delta) -> float:
    return max(abs(v) * (1.0 + math.sqrt(sum(c * c for c in x))) ** (-delta) for x, v in zip(points, values))


def scalar_tol(family: str) -> float:
    return S_FLAT_TOL if family == "flat" else S_SCALAR_FLAT_TOL


def check_scalar(family, s):
    if not abs(s) <= scalar_tol(family):
        return f"|S| = {abs(s):.3g} exceeds {scalar_tol(family):g} (exact value 0)"
    return None


def linearization_closed_form(kind: str, c: float, x) -> float:
    """L(c u^2) = -24 c and L(c x0^6) = -45 c x0^2 on the flat background."""
    return -24.0 * c if kind == "u2" else -45.0 * c * x[0] ** 2


def round12(x):
    """The CLI's JSON float rounding; None for nan and inf."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return None
    return float(f"{x:.12g}")
