"""Dimension counts for scalar-flat Kahler ALE moduli.

For a resolved quotient singularity the deformation count j, curve
count k and family dimension d = j + k come straight from the
exceptional string.  The local moduli dimension m then follows one of
a handful of closed forms depending on the group: special small cyclic
cases, hyperkahler (SU(2)) cases, a generic cyclic formula, and per
family closed forms for the non-cyclic groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import UnsupportedParameterError
from .groups import GroupKind, GroupSpec, cyclic_group, validate_group
from .hj import HJExpansion, embedding_dimension, hj_expand

__all__ = [
    "ResolutionString",
    "ModuliDimensions",
    "resolution_string",
    "deformation_dimension",
    "family_dimension",
    "cyclic_moduli",
    "noncyclic_moduli",
    "moduli_report",
    "table1_rows",
    "table3_rows",
    "riemenschneider_identities_hold",
    "riemenschneider_sweep",
]

CASE_CYCLIC_SU2 = "cyclic-su2"
CASE_CYCLIC_Q1_P3 = "cyclic-q1-p3"
CASE_CYCLIC_Q1 = "cyclic-q1"
CASE_CYCLIC_GENERIC = "cyclic-generic"
CASE_NONCYCLIC_SU2 = "noncyclic-su2"
CASE_DIHEDRAL = "dihedral-closed-form"
CASE_POLYHEDRAL = "polyhedral-closed-form"


@dataclass(frozen=True)
class ResolutionString:
    """Exceptional divisor of a cyclic resolution: k curves, all <= -2."""

    k: int
    self_intersections: tuple[int, ...]

    def __post_init__(self):
        if self.k != len(self.self_intersections):
            raise ValueError("k must equal the number of self-intersections")
        if any(s > -2 for s in self.self_intersections):
            raise ValueError("self-intersections must all be <= -2")


@dataclass(frozen=True)
class ModuliDimensions:
    """Dimension report for one group.

    moduli_dim is always present.  deformations, curves and family_dim
    are filled for cyclic groups; for non-cyclic groups only the curve
    count of the hyperkahler (l = 1) families is known here, and the
    rest stay None rather than guessing.
    """

    group: GroupSpec
    moduli_dim: int
    family_dim: int | None
    deformations: int | None
    curves: int | None
    case_tag: str
    formula_note: str


def resolution_string(p: int, q: int) -> ResolutionString:
    """Self-intersection string of the minimal resolution of (p, q)."""
    return _string_of(hj_expand(p, q))


def _string_of(exp: HJExpansion) -> ResolutionString:
    return ResolutionString(k=len(exp.coeffs), self_intersections=tuple(-e for e in exp.coeffs))


def deformation_dimension(string: ResolutionString) -> int:
    """Essential complex-structure deformations: 2 * sum(e_i - 1)."""
    return 2 * sum(-s - 1 for s in string.self_intersections)


def family_dimension(string: ResolutionString) -> int:
    """Dimension of the versal scalar-flat family: j + k."""
    return deformation_dimension(string) + string.k


def cyclic_moduli(p: int, q: int) -> ModuliDimensions:
    """Moduli dimension for the cyclic action (p, q).

    Routing: q = p - 1 is the hyperkahler chain (m = 1 for p = 2, else
    3k - 3); q = 1 is the line-bundle family (m = 2 at p = 3, else
    2p - 5); everything else uses m = j + k - 2, which
    riemenschneider_identities_hold checks against the equivalent form
    2e + 3k - 8.
    """
    spec = cyclic_group(p, q)
    exp = hj_expand(p, q)
    string = _string_of(exp)
    j = deformation_dimension(string)
    k = string.k
    d = j + k
    if q == p - 1:
        m = 1 if p == 2 else 3 * (p - 1) - 3
        note = "hyperkahler chain: m = 1" if p == 2 else f"hyperkahler chain: m = 3k - 3, k = {k}"
        tag = CASE_CYCLIC_SU2
    elif q == 1 and p == 3:
        m = 2
        note = "line bundle of degree -3: m = 2"
        tag = CASE_CYCLIC_Q1_P3
    elif q == 1:
        m = 2 * p - 5
        note = f"line bundle of degree -{p}: m = 2p - 5"
        tag = CASE_CYCLIC_Q1
    else:
        m = j + k - 2
        if not riemenschneider_identities_hold(exp):  # algebraic identities; trip only on a bug
            raise RuntimeError(f"formula concordance failed at ({p}, {q})")
        note = "generic cyclic: m = j + k - 2 = 2e + 3k - 8"
        tag = CASE_CYCLIC_GENERIC
    return ModuliDimensions(
        group=spec,
        moduli_dim=m,
        family_dim=d,
        deformations=j,
        curves=k,
        case_tag=tag,
        formula_note=note,
    )


_DYNKIN_CURVES = {
    GroupKind.DIHEDRAL_PRODUCT: lambda spec: spec.n + 2,
    GroupKind.TETRAHEDRAL_PRODUCT: lambda spec: 6,
    GroupKind.OCTAHEDRAL_PRODUCT: lambda spec: 7,
    GroupKind.ICOSAHEDRAL_PRODUCT: lambda spec: 8,
}

# (kind, modulus, residue) -> (divisor, offset): m = (l - residue)/divisor + offset
_POLYHEDRAL_ROWS = {
    (GroupKind.TETRAHEDRAL_PRODUCT, 6, 1): (3, 17),
    (GroupKind.TETRAHEDRAL_PRODUCT, 6, 5): (3, 15),
    (GroupKind.TETRAHEDRAL_INDEX3, 6, 3): (3, 16),
    (GroupKind.OCTAHEDRAL_PRODUCT, 12, 1): (6, 20),
    (GroupKind.OCTAHEDRAL_PRODUCT, 12, 5): (6, 19),
    (GroupKind.OCTAHEDRAL_PRODUCT, 12, 7): (6, 18),
    (GroupKind.OCTAHEDRAL_PRODUCT, 12, 11): (6, 17),
    (GroupKind.ICOSAHEDRAL_PRODUCT, 30, 1): (15, 23),
    (GroupKind.ICOSAHEDRAL_PRODUCT, 30, 7): (15, 19),
    (GroupKind.ICOSAHEDRAL_PRODUCT, 30, 11): (15, 22),
    (GroupKind.ICOSAHEDRAL_PRODUCT, 30, 13): (15, 19),
    (GroupKind.ICOSAHEDRAL_PRODUCT, 30, 17): (15, 18),
    (GroupKind.ICOSAHEDRAL_PRODUCT, 30, 19): (15, 20),
    (GroupKind.ICOSAHEDRAL_PRODUCT, 30, 23): (15, 18),
    (GroupKind.ICOSAHEDRAL_PRODUCT, 30, 29): (15, 19),
}

_KIND_MODULUS = {
    GroupKind.TETRAHEDRAL_PRODUCT: 6,
    GroupKind.TETRAHEDRAL_INDEX3: 6,
    GroupKind.OCTAHEDRAL_PRODUCT: 12,
    GroupKind.ICOSAHEDRAL_PRODUCT: 30,
}


def noncyclic_moduli(spec: GroupSpec) -> ModuliDimensions:
    """Moduli dimension for a validated non-cyclic group.

    l = 1 product families are hyperkahler: m = 3k - 3 with k the ADE
    curve count (n + 2, 6, 7 or 8).  Dihedral families use
    m = 3k + 2k' + (2/n)(l + q) + 4 with q = -l mod n and (k, k') the
    string lengths of (n, q).  The remaining polyhedral families use
    per-residue closed forms in l.
    """
    validate_group(spec)
    kind = spec.kind
    if kind == GroupKind.CYCLIC:
        raise ValueError("use cyclic_moduli for cyclic groups")
    if kind in _DYNKIN_CURVES and spec.l == 1:
        k = _DYNKIN_CURVES[kind](spec)
        return ModuliDimensions(
            group=spec,
            moduli_dim=3 * k - 3,
            family_dim=None,
            deformations=None,
            curves=k,
            case_tag=CASE_NONCYCLIC_SU2,
            formula_note=f"hyperkahler: m = 3k - 3 with k = {k} exceptional curves",
        )
    if kind in (GroupKind.DIHEDRAL_PRODUCT, GroupKind.DIHEDRAL_INDEX2):
        n = spec.n
        if n == 1:
            raise UnsupportedParameterError(
                "n = 1 leaves no residue q with 1 <= q <= n - 1"
            )
        q = (-spec.l) % n
        exp = hj_expand(n, q)
        k, k_dual = len(exp.coeffs), len(exp.dual_coeffs)
        if (spec.l + q) % n != 0:  # q = -l mod n makes this exact by construction
            raise RuntimeError(f"non-integer twist term for {spec}")
        m = 3 * k + 2 * k_dual + 2 * (spec.l + q) // n + 4
        note = (
            f"m = 3k + 2k' + (2/n)(l + q) + 4 with q = {q}, "
            f"(k, k') = ({k}, {k_dual})"
        )
        return ModuliDimensions(
            group=spec,
            moduli_dim=m,
            family_dim=None,
            deformations=None,
            curves=None,
            case_tag=CASE_DIHEDRAL,
            formula_note=note,
        )
    modulus = _KIND_MODULUS[kind]
    residue = spec.l % modulus
    divisor, offset = _POLYHEDRAL_ROWS[(kind, modulus, residue)]
    m = (spec.l - residue) // divisor + offset
    return ModuliDimensions(
        group=spec,
        moduli_dim=m,
        family_dim=None,
        deformations=None,
        curves=None,
        case_tag=CASE_POLYHEDRAL,
        formula_note=f"m = (l - {residue})/{divisor} + {offset} for l = {residue} mod {modulus}",
    )


def moduli_report(spec: GroupSpec) -> ModuliDimensions:
    """Single entry point: validate, then dispatch on the group kind."""
    validate_group(spec)
    if spec.kind == GroupKind.CYCLIC:
        return cyclic_moduli(spec.p, spec.q)
    return noncyclic_moduli(spec)


def table1_rows(pmax: int):
    """(p, family_dim, moduli_dim) for the actions (p, 1), 2 <= p <= pmax."""
    rows = []
    for p in range(2, pmax + 1):
        report = cyclic_moduli(p, 1)
        rows.append(
            {
                "p": p,
                "label": f"1/{p}(1,1)",
                "family_dim": report.family_dim,
                "moduli_dim": report.moduli_dim,
            }
        )
    return rows


def table3_rows(lmax: int):
    """Closed-form moduli dimensions of the polyhedral families up to lmax.

    One entry per admissible l per congruence row, ordered by family
    then residue then l.  Product families require l > 1 here (l = 1
    is the hyperkahler case, reported elsewhere).
    """
    rows = []
    for (kind, modulus, residue), _ in _POLYHEDRAL_ROWS.items():
        start = residue if residue != 1 else modulus + 1
        for l in range(start, lmax + 1, modulus):
            report = noncyclic_moduli(GroupSpec(kind=kind, l=l))
            rows.append(
                {
                    "kind": kind.value,
                    "l": l,
                    "residue": residue,
                    "modulus": modulus,
                    "moduli_dim": report.moduli_dim,
                }
            )
    return rows


def riemenschneider_identities_hold(exp: HJExpansion) -> bool:
    """The dual-fraction identities of one expansion and its dual.

    Four exact identities: equal coefficient sums of the two dual
    expansions, dual length k' = e - 2, sum(e_i - 1) = e + k - 3, and
    the moduli concordance j + k - 2 = 2e + 3k - 8 with j = 2 sum(e_i - 1).
    """
    k = len(exp.coeffs)
    e = embedding_dimension(exp.coeffs)
    total = sum(c - 1 for c in exp.coeffs)
    j = 2 * total
    return (
        total == sum(c - 1 for c in exp.dual_coeffs)
        and len(exp.dual_coeffs) == e - 2
        and total == e + k - 3
        and j + k - 2 == 2 * e + 3 * k - 8
    )


def riemenschneider_sweep(pmax: int):
    """Check riemenschneider_identities_hold on every eligible pair up to pmax.

    Eligible pairs are coprime (p, q) with q not in {1, p - 1}.
    Returns the pair count and the first counterexample, if any (a
    counterexample would mean an implementation bug).
    """
    checked = 0
    first_failure = None
    for p in range(2, pmax + 1):
        for q in range(2, p - 1):
            if gcd(p, q) != 1:
                continue
            checked += 1
            if not riemenschneider_identities_hold(hj_expand(p, q)) and first_failure is None:
                first_failure = {"p": p, "q": q}
    return {
        "pmax": pmax,
        "pairs_checked": checked,
        "failures": 0 if first_failure is None else 1,
        "first_failure": first_failure,
    }
