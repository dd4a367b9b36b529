"""Finite subgroups of U(2) acting freely away from the origin.

Seven families are supported: the cyclic actions (p, q) and six
non-cyclic families built from the binary polyhedral groups, either as
products with a scalar cyclic factor or as the index-2 / index-3
diagonal subgroups of such products.  Each family carries a
coprimality condition; validate_group enforces them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

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


_PRODUCT_KINDS = frozenset(
    {
        GroupKind.DIHEDRAL_PRODUCT,
        GroupKind.TETRAHEDRAL_PRODUCT,
        GroupKind.OCTAHEDRAL_PRODUCT,
        GroupKind.ICOSAHEDRAL_PRODUCT,
    }
)
_DIHEDRAL_KINDS = frozenset({GroupKind.DIHEDRAL_PRODUCT, GroupKind.DIHEDRAL_INDEX2})
# the fields each kind takes; a spec leaves every other field None
_FIELDS = {kind: ("l", "n") if kind in _DIHEDRAL_KINDS else ("l",) for kind in GroupKind}
_FIELDS[GroupKind.CYCLIC] = ("p", "q")


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


def _require_positive(spec, fields):
    for name in fields:
        value = getattr(spec, name)
        if not isinstance(value, int) or value < 1:
            raise ConditionViolationError(name, "a positive integer")


def validate_group(spec: GroupSpec) -> GroupSpec:
    """Return the spec unchanged iff its admissibility condition holds.

    Raises ConditionViolationError naming the failing field and
    condition, including a field the kind does not take.  Idempotent:
    validating a validated spec is a no-op.
    """
    kind = spec.kind
    fields = _FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ConditionViolationError("kind", f"a supported kind, got {kind!r}")
    for name in ("p", "q", "l", "n"):
        if name not in fields and getattr(spec, name) is not None:
            raise ConditionViolationError(name, f"no value for kind {GroupKind(kind).value}")
    _require_positive(spec, fields)
    if kind == GroupKind.CYCLIC:
        if spec.p < 2 or not spec.q < spec.p:
            raise ConditionViolationError("q", "1 <= q < p with p >= 2")
        if gcd(spec.p, spec.q) != 1:
            raise ConditionViolationError("q", "gcd(p, q) = 1")
    elif kind == GroupKind.DIHEDRAL_PRODUCT:
        if gcd(spec.l, 2 * spec.n) != 1:
            raise ConditionViolationError("l", "gcd(l, 2n) = 1")
    elif kind in (GroupKind.TETRAHEDRAL_PRODUCT, GroupKind.OCTAHEDRAL_PRODUCT):
        if gcd(spec.l, 6) != 1:
            raise ConditionViolationError("l", "gcd(l, 6) = 1")
    elif kind == GroupKind.ICOSAHEDRAL_PRODUCT:
        if gcd(spec.l, 30) != 1:
            raise ConditionViolationError("l", "gcd(l, 30) = 1")
    elif kind == GroupKind.DIHEDRAL_INDEX2:
        # "(l, 2) = 2" i.e. l even, alongside gcd(l, n) = 1
        if spec.l % 2 != 0:
            raise ConditionViolationError("l", "gcd(l, 2) = 2 (l even)")
        if gcd(spec.l, spec.n) != 1:
            raise ConditionViolationError("l", "gcd(l, n) = 1")
    elif gcd(spec.l, 6) != 3:  # the index-3 tetrahedral family
        raise ConditionViolationError("l", "gcd(l, 6) = 3")
    return spec


def group_order(spec: GroupSpec) -> int:
    """Number of elements of the group."""
    validate_group(spec)
    kind = spec.kind
    if kind == GroupKind.CYCLIC:
        return spec.p
    if kind in _DIHEDRAL_KINDS:
        return 4 * spec.l * spec.n
    if kind in (GroupKind.TETRAHEDRAL_PRODUCT, GroupKind.TETRAHEDRAL_INDEX3):
        return 24 * spec.l
    if kind == GroupKind.OCTAHEDRAL_PRODUCT:
        return 48 * spec.l
    return 120 * spec.l


def is_su2(spec: GroupSpec) -> bool:
    """Whether every group element has determinant 1.

    Cyclic groups land in SU(2) exactly when q = p - 1.  A product
    family does iff its scalar factor collapses to {+-1}, i.e. l = 1;
    the index-2 and index-3 families never do (their conditions force
    l >= 2).
    """
    validate_group(spec)
    if spec.kind == GroupKind.CYCLIC:
        return spec.q == spec.p - 1
    if spec.kind in _PRODUCT_KINDS:
        return spec.l == 1
    return False


def format_group_spec(spec: GroupSpec) -> str:
    """Canonical CLI string for a spec, e.g. 'dprod:l=3,n=5'."""
    if spec.kind == GroupKind.CYCLIC:
        return f"cyclic:{spec.p},{spec.q}"
    fields = ",".join(f"{name}={getattr(spec, name)}" for name in _FIELDS[spec.kind])
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
        wanted = _FIELDS[kind]
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
