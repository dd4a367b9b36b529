"""Finite subgroups of U(2) acting freely away from the origin.

Seven families are supported: the cyclic actions (p, q) and six
non-cyclic families built from the binary polyhedral groups, either as
products with a scalar cyclic factor or as the index-2 / index-3
diagonal subgroups of such products.  One table holds each family's
fields, coprimality conditions (validate_group enforces them) and the
arm orders alpha_i of its resolution star; the star's modulus M, with
1/M = sum(1/alpha_i) - 1, and the group order 4Ml follow from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import NamedTuple

from .errors import ConditionViolationError

__all__ = [
    "GroupKind",
    "GroupSpec",
    "cyclic_group",
    "validate_group",
    "group_order",
    "is_su2",
    "parse_group_spec",
    "format_group_spec",
]


class GroupKind(str, Enum):
    CYCLIC = "cyclic"
    DIHEDRAL_PRODUCT = "dprod"
    TETRAHEDRAL_PRODUCT = "tprod"
    OCTAHEDRAL_PRODUCT = "oprod"
    ICOSAHEDRAL_PRODUCT = "iprod"
    DIHEDRAL_INDEX2 = "d2"
    TETRAHEDRAL_INDEX3 = "t3"


class _Family(NamedTuple):
    fields: tuple[str, ...]  # a spec of the kind sets these and leaves the rest None
    arms: tuple | None  # arm orders alpha_i of the star, "n" for the spec's n; None if cyclic
    conditions: tuple  # (field, holds, text), checked in order


# one row per kind; the polyhedral rows, which take l alone, run in Table 3's order
_FAMILIES = {
    GroupKind.CYCLIC: _Family(("p", "q"), None, (
        ("q", lambda s: s.p >= 2 and s.q < s.p, "1 <= q < p with p >= 2"),
        ("q", lambda s: gcd(s.p, s.q) == 1, "gcd(p, q) = 1"),
    )),
    GroupKind.DIHEDRAL_PRODUCT: _Family(("l", "n"), (2, 2, "n"), (
        ("l", lambda s: gcd(s.l, 2 * s.n) == 1, "gcd(l, 2n) = 1"),
    )),
    GroupKind.DIHEDRAL_INDEX2: _Family(("l", "n"), (2, 2, "n"), (
        ("l", lambda s: s.l % 2 == 0, "gcd(l, 2) = 2 (l even)"),
        ("l", lambda s: gcd(s.l, s.n) == 1, "gcd(l, n) = 1"),
    )),
    GroupKind.TETRAHEDRAL_PRODUCT: _Family(("l",), (2, 3, 3), (
        ("l", lambda s: gcd(s.l, 6) == 1, "gcd(l, 6) = 1"),
    )),
    GroupKind.TETRAHEDRAL_INDEX3: _Family(("l",), (2, 3, 3), (
        ("l", lambda s: gcd(s.l, 6) == 3, "gcd(l, 6) = 3"),
    )),
    GroupKind.OCTAHEDRAL_PRODUCT: _Family(("l",), (2, 3, 4), (
        ("l", lambda s: gcd(s.l, 6) == 1, "gcd(l, 6) = 1"),
    )),
    GroupKind.ICOSAHEDRAL_PRODUCT: _Family(("l",), (2, 3, 5), (
        ("l", lambda s: gcd(s.l, 30) == 1, "gcd(l, 30) = 1"),
    )),
}


def _star(kind: GroupKind, n: int | None = None) -> tuple[tuple[int, int, int], int]:
    """Arm orders of a non-cyclic kind's star and its modulus M, 1/M = sum(1/alpha_i) - 1.

    4M is the order of the binary polyhedral group <alpha_1, alpha_2, alpha_3>
    (Coxeter, Duke Math. J. 7, 1940): M = n, 6, 12 or 30.
    """
    a1, a2, a3 = arms = tuple(n if a == "n" else a for a in _FAMILIES[kind].arms)
    return arms, a1 * a2 * a3 // (a1 * a2 + a1 * a3 + a2 * a3 - a1 * a2 * a3)


@dataclass(frozen=True)
class GroupSpec:
    """Parameters of one group: (p, q) for cyclic, (l[, n]) otherwise."""

    kind: GroupKind
    p: int | None = None
    q: int | None = None
    l: int | None = None
    n: int | None = None


def cyclic_group(p: int, q: int) -> GroupSpec:
    return validate_group(GroupSpec(kind=GroupKind.CYCLIC, p=p, q=q))


def validate_group(spec: GroupSpec) -> GroupSpec:
    """Return the spec unchanged iff its admissibility condition holds.

    Raises ConditionViolationError naming the failing field and
    condition, including a field the kind does not take.  Idempotent:
    validating a validated spec is a no-op.
    """
    kind = spec.kind
    family = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise ConditionViolationError("kind", f"a supported kind, got {kind!r}")
    for name in ("p", "q", "l", "n"):
        if name not in family.fields and getattr(spec, name) is not None:
            raise ConditionViolationError(name, f"no value for kind {GroupKind(kind).value}")
    for name in family.fields:
        value = getattr(spec, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConditionViolationError(name, "a positive integer")
    for name, holds, condition in family.conditions:
        if not holds(spec):
            raise ConditionViolationError(name, condition)
    return spec


def group_order(spec: GroupSpec) -> int:
    """Number of elements of the group: p, or 4 M l for a star of modulus M."""
    validate_group(spec)
    if spec.kind == GroupKind.CYCLIC:
        return spec.p
    return 4 * _star(spec.kind, spec.n)[1] * spec.l


def is_su2(spec: GroupSpec) -> bool:
    """Whether every group element has determinant 1.

    Cyclic groups land in SU(2) exactly when q = p - 1.  A product
    family does iff its scalar factor collapses to {+-1}, i.e. l = 1;
    the index-2 and index-3 families never do (their conditions force
    l >= 2).
    """
    return _su2(validate_group(spec))


def _su2(spec: GroupSpec) -> bool:
    """is_su2 of a spec already validated: q = p - 1, or l = 1."""
    if spec.kind == GroupKind.CYCLIC:
        return spec.q == spec.p - 1
    return spec.l == 1


def format_group_spec(spec: GroupSpec) -> str:
    """Canonical CLI string for a spec, e.g. 'dprod:l=3,n=5'.

    The spec is validated first (ConditionViolationError otherwise), so
    parse_group_spec reads every string returned here back to an equal spec.
    """
    validate_group(spec)
    if spec.kind == GroupKind.CYCLIC:
        return f"cyclic:{spec.p},{spec.q}"
    fields = ",".join(f"{name}={getattr(spec, name)}" for name in _FAMILIES[spec.kind].fields)
    return f"{GroupKind(spec.kind).value}:{fields}"  # kind may be a plain string


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the CLI grammar.

    Accepted forms: cyclic:<p>,<q> | dprod:l=<l>,n=<n> | tprod:l=<l> |
    oprod:l=<l> | iprod:l=<l> | d2:l=<l>,n=<n> | t3:l=<l>.
    Raises ValueError on malformed text; the result is validated.
    """
    head, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"malformed group spec {text!r}")
    try:
        kind = GroupKind(head)
    except ValueError:
        raise ValueError(f"unknown group kind {head!r}") from None
    fields = {}
    if kind == GroupKind.CYCLIC:
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"cyclic spec needs p,q, got {rest!r}")
        try:
            # p=5,q=2 tolerated alongside the plain 5,2 form
            fields["p"], fields["q"] = (
                int(part.removeprefix(name + "=")) for name, part in zip("pq", parts)
            )
        except ValueError:
            raise ValueError(f"cyclic spec needs integer p,q, got {rest!r}") from None
    else:
        wanted = _FAMILIES[kind].fields
        parts = rest.split(",")
        if len(parts) != len(wanted):
            raise ValueError(f"{head} spec needs {','.join(wanted)}, got {rest!r}")
        for name, part in zip(wanted, parts):
            key, eq, value = part.partition("=")
            if key != name or not eq:
                raise ValueError(f"expected {name}=<int> in {text!r}")
            try:
                fields[name] = int(value)
            except ValueError:
                raise ValueError(f"expected {name}=<int> in {text!r}") from None
    return validate_group(GroupSpec(kind=kind, **fields))
