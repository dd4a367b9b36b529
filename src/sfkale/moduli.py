"""Dimension counts for scalar-flat Kahler ALE moduli.

Every count reads the exceptional curves of the minimal resolution: a
string (the Hirzebruch-Jung chain of p/q) for a cyclic group, and for a
non-cyclic one a star of three such chains about a central curve
(Brieskorn, Invent. Math. 4, 1968).  Deformations j = 2 sum(e_i - 1),
curves k and family dimension d = j + k come from the self-intersections
-e_i.  The moduli dimension m is 3k - 3 in the hyperkahler (SU(2))
cases, closed forms for the line bundles (q = 1), j + k - 2 for every
other cyclic group and j + k - 1 for every other star.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import NamedTuple

from .errors import ConditionViolationError, InvalidPairError, UnsupportedParameterError
from .groups import _FAMILIES, GroupKind, GroupSpec, _star, _su2, cyclic_group, validate_group
from .hj import HJExpansion, _expand, embedding_dimension, hj_expand

__all__ = [
    "ResolutionString",
    "ModuliDimensions",
    "StarGraph",
    "resolution_string",
    "star_graph",
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
CASE_NONCYCLIC_STAR = "noncyclic-star"


@dataclass(frozen=True)
class ResolutionString:
    """Self-intersections of the k exceptional curves of a resolution, all <= -2."""

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

    Every field is filled for every group: deformations j, curves k and
    family_dim d = j + k are counted over the exceptional curves, the
    string of a cyclic group or the star of a non-cyclic one.
    """

    group: GroupSpec
    moduli_dim: int
    family_dim: int
    deformations: int
    curves: int
    case_tag: str
    formula_note: str


def resolution_string(p: int, q: int) -> ResolutionString:
    """Self-intersection string of the minimal resolution of (p, q)."""
    return _string_of(hj_expand(p, q).coeffs)


def _string_of(coeffs) -> ResolutionString:
    return ResolutionString(k=len(coeffs), self_intersections=tuple(-e for e in coeffs))


def deformation_dimension(string: ResolutionString) -> int:
    """Essential complex-structure deformations: 2 * sum(e_i - 1)."""
    return 2 * sum(-s - 1 for s in string.self_intersections)


def family_dimension(string: ResolutionString) -> int:
    """Dimension of the versal scalar-flat family: j + k."""
    return deformation_dimension(string) + string.k


def _dimensions(spec: GroupSpec, coeffs, star: StarGraph | None = None) -> ModuliDimensions:
    """The report of a validated group whose curves have self-intersections -coeffs.

    The curves are a cyclic group's string, or every curve of a
    non-cyclic group's star; m follows the cases the module states, with
    m = 1 for the A_1 chain (p = 2), where 3k - 3 reads 0.
    """
    string = _string_of(coeffs)
    j, k = deformation_dimension(string), string.k
    cyclic = spec.kind == GroupKind.CYCLIC
    if _su2(spec):
        m, tag = 3 * k - 3, CASE_CYCLIC_SU2 if cyclic else CASE_NONCYCLIC_SU2
        if not cyclic:
            note = f"hyperkahler: m = 3k - 3 with k = {k} exceptional curves"
        elif k > 1:
            note = f"hyperkahler chain: m = 3k - 3, k = {k}"
        else:  # the A_1 chain, p = 2
            m, note = 1, "hyperkahler chain: m = 1"
    elif not cyclic:
        m, tag = j + k - 1, CASE_NONCYCLIC_STAR
        arms = " ".join(str(list(arm)) for arm in star.arms)
        note = f"star b = {star.central}, arms {arms}: m = j + k - 1"
    elif spec.q == 1 and spec.p == 3:
        m, tag, note = 2, CASE_CYCLIC_Q1_P3, "line bundle of degree -3: m = 2"
    elif spec.q == 1:
        m, tag = 2 * spec.p - 5, CASE_CYCLIC_Q1
        note = f"line bundle of degree -{spec.p}: m = 2p - 5"
    else:
        m, tag = j + k - 2, CASE_CYCLIC_GENERIC
        note = "generic cyclic: m = j + k - 2 = 2e + 3k - 8"
    return ModuliDimensions(group=spec, moduli_dim=m, family_dim=family_dimension(string),
                            deformations=j, curves=k, case_tag=tag, formula_note=note)


def cyclic_moduli(p: int, q: int) -> ModuliDimensions:
    """Moduli dimension for the cyclic action (p, q), counted over its string.

    A pair hj_expand accepts is exactly one validate_group accepts, so
    the spec is built from the checked pair; a rejected one raises
    ConditionViolationError, as cyclic_group does.
    """
    try:
        exp = hj_expand(p, q)
    except InvalidPairError:
        cyclic_group(p, q)  # raises ConditionViolationError, naming the field and its condition
        raise
    return _dimensions(GroupSpec(kind=GroupKind.CYCLIC, p=p, q=q), exp.coeffs)


class StarGraph(NamedTuple):
    """Resolution graph of C^2/G for a non-cyclic G.

    A central curve of self-intersection -central meets the first curve
    of each of three arms.  Arm i is the Hirzebruch-Jung string of
    orders[i]/twists[i], so arms[i] = hj_expand(orders[i], twists[i]).coeffs
    (the star never reads the dual); an arm of order 1 (dprod:l=1,n=1)
    has twist 0 and no curves.
    """

    central: int
    orders: tuple[int, int, int]
    twists: tuple[int, int, int]
    arms: tuple[tuple[int, ...], ...]


def star_graph(spec: GroupSpec) -> StarGraph:
    """The star of a validated non-cyclic group.

    Solves l/M = b - sum(beta_i/alpha_i) with 1 <= beta_i < alpha_i coprime
    to alpha_i, in integers: times A = alpha_1 alpha_2 alpha_3 it reads
    A l/M = b A - sum(beta_i A/alpha_i).  Given beta_1 and beta_2 (at most
    two pairs), beta_3 follows mod A; the first solution in lexicographic
    beta order is taken.  b >= 2 always, since sum(beta_i/alpha_i) >= 1.
    A dihedral n = 1 has an empty third arm (beta_3 = 0), giving the A_3
    chain [2, 2, 2] at l = 1; for l > 1 it raises UnsupportedParameterError.
    """
    validate_group(spec)
    if spec.kind == GroupKind.CYCLIC:
        raise ValueError("use cyclic_moduli for cyclic groups")
    if spec.n == 1 and spec.l > 1:
        raise UnsupportedParameterError("n = 1 leaves no arm n/beta with 1 <= beta <= n - 1")
    orders, modulus = _star(spec.kind, spec.n)
    a1, a2, a3 = orders
    total = a1 * a2 * a3
    det = spec.l * (total // modulus)
    for b1, b2 in product(range(1, a1), range(1, a2)):  # a1, a2 prime: all coprime
        known = det + b1 * a2 * a3 + b2 * a1 * a3
        b3, off = divmod(-known % total, a1 * a2)
        if off == 0 and gcd(b3, a3) == 1:  # gcd(0, a3) = a3: b3 = 0 passes only for a3 = 1
            twists = (b1, b2, b3)
            arms = tuple(_expand(a, b) for a, b in zip(orders, twists))  # _expand(1, 0) = ()
            return StarGraph((known + b3 * a1 * a2) // total, orders, twists, arms)
    raise RuntimeError(f"no resolution star for {spec}")  # unreachable for a validated spec


def noncyclic_moduli(spec: GroupSpec) -> ModuliDimensions:
    """Moduli dimension for a validated non-cyclic group, counted over every curve of its star.

    The l = 1 product families are hyperkahler (the D_{n+2}, E6, E7 and
    E8 graphs).
    """
    star = star_graph(spec)
    return _dimensions(spec, (star.central, *(e for arm in star.arms for e in arm)), star)


def moduli_report(spec: GroupSpec) -> ModuliDimensions:
    """Single entry point: validate, then dispatch on the group kind.

    A cyclic spec is validated here once; cyclic_moduli's own check of
    the pair is hj_expand's.
    """
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
    """Moduli dimensions of the polyhedral families up to lmax.

    One entry per admissible l per residue of l mod the kind's modulus M,
    ordered by family then residue then l; a residue is admissible when
    validate_group accepts it as l.  Product families require l > 1 here
    (l = 1 is the hyperkahler case, reported elsewhere).
    """
    rows = []
    for kind, family in _FAMILIES.items():
        if family.fields != ("l",):
            continue  # the cyclic and dihedral kinds
        modulus = _star(kind)[1]
        for residue in range(1, modulus):
            try:
                validate_group(GroupSpec(kind=kind, l=residue))
            except ConditionViolationError:
                continue
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
    """The two dual-fraction identities of one expansion and its dual.

    Equal sums, sum(e_i - 1) = sum(e'_j - 1), and dual length k' = e - 2
    with e = embedding_dimension(coeffs) (Riemenschneider, Math. Ann.
    209, 1974).  e = 3 + sum(e_i - 2) alone gives sum(e_i - 1) = e + k -
    3 and j + k - 2 = 2e + 3k - 8 for every list, so neither is checked.
    """
    return (sum(c - 1 for c in exp.coeffs) == sum(c - 1 for c in exp.dual_coeffs)
            and len(exp.dual_coeffs) == embedding_dimension(exp.coeffs) - 2)


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
