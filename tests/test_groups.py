"""Group catalog checks, backed by explicit matrix enumeration.

The oracle below builds each finite subgroup as a set of literal 2x2
unitary matrices (binary polyhedral cores times a scalar cyclic
factor) and compares element counts and determinants against the
closed-form order and SU(2) membership predicates.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sfkale.errors import ConditionViolationError, UnsupportedParameterError
from sfkale.groups import (
    GroupKind,
    GroupSpec,
    _star,
    cyclic_group,
    format_group_spec,
    group_order,
    is_su2,
    parse_group_spec,
    validate_group,
)
from sfkale.moduli import star_graph


# --------------------------------------------------------------- the oracle


def quat_mat(a, b, c, d):
    # unit quaternion a + bi + cj + dk as an SU(2) matrix
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]], dtype=complex)


def _key(M):
    M = np.asarray(M, dtype=complex)
    return tuple(np.round(M, 6).flatten().view(float))


def closure(gens):
    eye = np.eye(2, dtype=complex)
    elems = {_key(eye): eye}
    frontier = list(gens)
    while frontier:
        fresh = []
        for g in frontier:
            for h in list(elems.values()):
                for prod in (g @ h, h @ g):
                    k = _key(prod)
                    if k not in elems:
                        elems[k] = prod
                        fresh.append(prod)
        frontier = fresh
    return list(elems.values())


def cyclic_matrices(p, q):
    z = np.exp(2j * math.pi / p)
    return [np.diag([z**j, z ** (q * j)]) for j in range(p)]


def binary_dihedral(n):
    z = np.exp(1j * math.pi / n)
    flip = np.array([[0, 1], [-1, 0]], dtype=complex)
    out = []
    for k in range(2 * n):
        d = np.diag([z**k, z ** (-k)])
        out.extend([d, d @ flip])
    return out


def binary_tetrahedral():
    out = []
    for coords in itertools.product((1, -1, 0), repeat=4):
        if sum(x * x for x in coords) == 1:
            out.append(quat_mat(*coords))
    for signs in itertools.product((0.5, -0.5), repeat=4):
        out.append(quat_mat(*signs))
    return out


def binary_octahedral():
    s = 1 / math.sqrt(2)
    return closure(binary_tetrahedral() + [quat_mat(s, s, 0, 0)])


def binary_icosahedral():
    phi = (1 + math.sqrt(5)) / 2
    return closure([quat_mat(0.5, 0.5, 0.5, 0.5), quat_mat(phi / 2, 1 / (2 * phi), 0.5, 0)])


def scalar_product(core, l):
    # core matrices times the scalar 2l-th roots of unity, deduplicated
    out = {}
    for j in range(2 * l):
        phase = np.exp(1j * math.pi * j / l)
        for M in core:
            P = phase * M
            out[_key(P)] = P
    return list(out.values())


# -------------------------------------------------------------------- tests


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec(GroupKind.CYCLIC, p=7, q=3),
        GroupSpec(GroupKind.CYCLIC, p=2, q=1),
        GroupSpec(GroupKind.DIHEDRAL_PRODUCT, l=3, n=5),
        GroupSpec(GroupKind.DIHEDRAL_PRODUCT, l=1, n=1),
        GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=5),
        GroupSpec(GroupKind.OCTAHEDRAL_PRODUCT, l=7),
        GroupSpec(GroupKind.ICOSAHEDRAL_PRODUCT, l=7),
        GroupSpec(GroupKind.DIHEDRAL_INDEX2, l=4, n=3),
        GroupSpec(GroupKind.TETRAHEDRAL_INDEX3, l=3),
    ],
)
def test_validate_accepts(spec):
    assert validate_group(spec) is spec


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec(GroupKind.CYCLIC, p=6, q=3),
        GroupSpec(GroupKind.CYCLIC, p=5, q=5),
        GroupSpec(GroupKind.CYCLIC, p=1, q=1),
        GroupSpec(GroupKind.DIHEDRAL_PRODUCT, l=2, n=3),
        GroupSpec(GroupKind.DIHEDRAL_PRODUCT, l=3, n=3),
        GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=4),
        GroupSpec(GroupKind.OCTAHEDRAL_PRODUCT, l=2),
        GroupSpec(GroupKind.ICOSAHEDRAL_PRODUCT, l=5),
        GroupSpec(GroupKind.DIHEDRAL_INDEX2, l=3, n=2),
        GroupSpec(GroupKind.DIHEDRAL_INDEX2, l=4, n=2),
        GroupSpec(GroupKind.TETRAHEDRAL_INDEX3, l=4),
        GroupSpec(GroupKind.TETRAHEDRAL_INDEX3, l=6),
    ],
)
def test_validate_rejects(spec):
    with pytest.raises(ConditionViolationError):
        validate_group(spec)


@pytest.mark.parametrize(
    "spec, stray",
    [
        (GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=5, n=3), "n"),
        (GroupSpec(GroupKind.CYCLIC, p=7, q=3, l=7), "l"),
        (GroupSpec(GroupKind.CYCLIC, p=7, q=3, n=2), "n"),
        (GroupSpec(GroupKind.DIHEDRAL_PRODUCT, p=2, l=3, n=5), "p"),
        (GroupSpec(GroupKind.DIHEDRAL_INDEX2, q=1, l=4, n=3), "q"),
        (GroupSpec(GroupKind.OCTAHEDRAL_PRODUCT, l=7, n=1), "n"),
        (GroupSpec(GroupKind.ICOSAHEDRAL_PRODUCT, p=7, l=7), "p"),
        (GroupSpec(GroupKind.TETRAHEDRAL_INDEX3, l=3, n=3), "n"),
    ],
)
def test_validate_rejects_a_field_the_kind_does_not_take(spec, stray):
    with pytest.raises(ConditionViolationError) as info:
        validate_group(spec)
    assert info.value.field == stray
    assert str(info.value) == f"{stray}: requires no value for kind {spec.kind.value}"
    # the stray field is the only fault
    clean = dataclasses.replace(spec, **{stray: None})
    assert validate_group(clean) is clean


@pytest.mark.parametrize(
    "spec, field",
    [
        (GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=True), "l"),
        (GroupSpec(GroupKind.DIHEDRAL_PRODUCT, l=True, n=5), "l"),
        (GroupSpec(GroupKind.DIHEDRAL_PRODUCT, l=3, n=True), "n"),
        (GroupSpec(GroupKind.CYCLIC, p=5, q=True), "q"),
    ],
)
def test_validate_rejects_bools(spec, field):
    # True == 1 as an int, but format_group_spec would print "l=True",
    # which parse_group_spec rejects
    with pytest.raises(ConditionViolationError) as info:
        validate_group(spec)
    assert (info.value.field, info.value.condition) == (field, "a positive integer")


@pytest.mark.parametrize("kind", ["bogus", None, 7])
def test_validate_rejects_a_kind_it_does_not_know_by_name(kind):
    with pytest.raises(ConditionViolationError) as info:
        validate_group(GroupSpec(kind=kind))
    assert (info.value.field, info.value.condition) == ("kind", f"a supported kind, got {kind!r}")


@pytest.mark.parametrize(
    "spec, field, condition",
    [
        (GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=True), "l", "a positive integer"),
        (GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=0), "l", "a positive integer"),
        (GroupSpec(GroupKind.CYCLIC, p=6, q=3), "q", "gcd(p, q) = 1"),
    ],
)
def test_format_rejects_a_spec_that_would_not_parse_back(spec, field, condition):
    # unvalidated, these formatted as "tprod:l=True", "tprod:l=0" and
    # "cyclic:6,3", and parse_group_spec rejects each of them
    with pytest.raises(ConditionViolationError) as info:
        format_group_spec(spec)
    assert (info.value.field, info.value.condition) == (field, condition)


def test_validate_is_idempotent():
    spec = cyclic_group(7, 3)
    assert validate_group(validate_group(spec)) is spec


def test_group_order_values():
    assert group_order(cyclic_group(7, 3)) == 7
    assert group_order(GroupSpec(GroupKind.DIHEDRAL_PRODUCT, l=3, n=5)) == 60
    assert group_order(GroupSpec(GroupKind.DIHEDRAL_INDEX2, l=4, n=3)) == 48
    assert group_order(GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=5)) == 120
    assert group_order(GroupSpec(GroupKind.TETRAHEDRAL_INDEX3, l=3)) == 72
    assert group_order(GroupSpec(GroupKind.OCTAHEDRAL_PRODUCT, l=5)) == 240
    assert group_order(GroupSpec(GroupKind.ICOSAHEDRAL_PRODUCT, l=7)) == 840


def test_is_su2():
    assert is_su2(cyclic_group(2, 1))
    assert is_su2(cyclic_group(5, 4))
    assert not is_su2(cyclic_group(5, 2))
    assert not is_su2(cyclic_group(7, 1))
    assert is_su2(GroupSpec(GroupKind.DIHEDRAL_PRODUCT, l=1, n=3))
    assert is_su2(GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=1))
    assert is_su2(GroupSpec(GroupKind.OCTAHEDRAL_PRODUCT, l=1))
    assert is_su2(GroupSpec(GroupKind.ICOSAHEDRAL_PRODUCT, l=1))
    assert not is_su2(GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=5))
    assert not is_su2(GroupSpec(GroupKind.DIHEDRAL_INDEX2, l=4, n=3))
    assert not is_su2(GroupSpec(GroupKind.TETRAHEDRAL_INDEX3, l=3))


def test_matrix_enumeration_matches_orders_and_determinants():
    tetra = binary_tetrahedral()
    octa = binary_octahedral()
    icosa = binary_icosahedral()
    assert len(tetra) == 24 and len(octa) == 48 and len(icosa) == 120

    cases = [
        (cyclic_group(7, 3), cyclic_matrices(7, 3)),
        (cyclic_group(5, 4), cyclic_matrices(5, 4)),
        (GroupSpec(GroupKind.DIHEDRAL_PRODUCT, l=1, n=3), scalar_product(binary_dihedral(3), 1)),
        (GroupSpec(GroupKind.DIHEDRAL_PRODUCT, l=3, n=5), scalar_product(binary_dihedral(5), 3)),
        (GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=1), scalar_product(tetra, 1)),
        (GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=5), scalar_product(tetra, 5)),
        (GroupSpec(GroupKind.OCTAHEDRAL_PRODUCT, l=1), scalar_product(octa, 1)),
        (GroupSpec(GroupKind.OCTAHEDRAL_PRODUCT, l=5), scalar_product(octa, 5)),
        (GroupSpec(GroupKind.ICOSAHEDRAL_PRODUCT, l=1), scalar_product(icosa, 1)),
        (GroupSpec(GroupKind.ICOSAHEDRAL_PRODUCT, l=7), scalar_product(icosa, 7)),
    ]
    eye = np.eye(2)
    for spec, mats in cases:
        assert len({_key(M) for M in mats}) == group_order(spec), spec
        dets = np.array([np.linalg.det(M) for M in mats])
        for M in mats:
            assert np.abs(M @ M.conj().T - eye).max() < 1e-9, spec
        assert bool(np.abs(dets - 1).max() < 1e-9) == is_su2(spec), spec


def test_cyclic_actions_are_free():
    # no nontrivial element may fix a nonzero point, i.e. neither
    # eigenvalue of diag(w^j, w^(qj)) is 1 for 0 < j < p
    for p in range(2, 31):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            for j in range(1, p):
                assert j % p != 0
                assert (q * j) % p != 0


@pytest.mark.parametrize(
    "text",
    [
        "cyclic:7,3",
        "cyclic:5,2",
        "dprod:l=3,n=5",
        "tprod:l=5",
        "oprod:l=7",
        "iprod:l=7",
        "d2:l=4,n=3",
        "t3:l=3",
    ],
)
def test_parse_format_round_trip(text):
    assert format_group_spec(parse_group_spec(text)) == text


@pytest.mark.parametrize(
    "text", ["dprod:l=3,n=5", "tprod:l=5", "oprod:l=7", "iprod:l=7", "d2:l=4,n=3", "t3:l=3"]
)
def test_format_accepts_a_plain_string_kind(text):
    # GroupKind is a str enum, so validate_group accepts its plain value too
    spec = parse_group_spec(text)
    plain = dataclasses.replace(spec, kind=spec.kind.value)
    assert type(plain.kind) is str and validate_group(plain) is plain
    assert format_group_spec(plain) == text


def test_parse_accepts_keyed_cyclic_form():
    assert parse_group_spec("cyclic:p=5,q=2") == parse_group_spec("cyclic:5,2")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "cyclic",
        "cyclic:",
        "cyclic:5",
        "cyclic:5,2,1",
        "cyclic:a,b",
        "bogus:l=3",
        "dprod:3,5",
        "dprod:l=3",
        "tprod:l=abc",
        "t3:n=3",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_group_spec(text)


_KINDS = [k.value for k in GroupKind]
_FIELDS = {"dprod": ("l", "n"), "d2": ("l", "n")}  # every other named kind takes l only


@st.composite
def valid_specs(draw):
    """An admissible spec of any kind, built to satisfy its condition."""
    kind = GroupKind(draw(st.sampled_from(_KINDS)))
    big = st.integers(1, 10**6)
    k = draw(st.integers(0, 10**5))
    coprime_to_6 = 6 * k + draw(st.sampled_from((1, 5)))
    if kind == GroupKind.CYCLIC:
        p = draw(st.integers(2, 10**6))
        spec = GroupSpec(kind, p=p, q=draw(big) % (p - 1) + 1)
        assume(math.gcd(spec.p, spec.q) == 1)
    elif kind in (GroupKind.DIHEDRAL_PRODUCT, GroupKind.DIHEDRAL_INDEX2):
        # l odd for the product, even for the index-2 subgroup; coprime to n
        spec = GroupSpec(kind, l=2 * k + 1 + (kind == GroupKind.DIHEDRAL_INDEX2), n=draw(big))
        assume(math.gcd(spec.l, spec.n) == 1)
    elif kind == GroupKind.TETRAHEDRAL_INDEX3:
        spec = GroupSpec(kind, l=3 * (2 * k + 1))
    elif kind == GroupKind.ICOSAHEDRAL_PRODUCT:
        spec = GroupSpec(kind, l=coprime_to_6 if coprime_to_6 % 5 else 1)
    else:
        spec = GroupSpec(kind, l=coprime_to_6)
    return spec


@settings(max_examples=200, deadline=None)
@given(spec=valid_specs())
def test_format_parse_round_trip_every_kind(spec):
    assert validate_group(spec) is spec
    assert parse_group_spec(format_group_spec(spec)) == spec


_word = st.text(alphabet="abcxyz_.#", max_size=6)  # never an int, a kind or a separator
_int = st.integers(0, 10**4).map(str)


@st.composite
def malformed(draw):
    """(text, message) for text that breaks one rule of the grammar."""
    rule = draw(st.sampled_from(("no rest", "kind", "count", "cyclic int", "field")))
    kind = draw(st.sampled_from(_KINDS))
    wanted = ("p", "q") if kind == "cyclic" else _FIELDS.get(kind, ("l",))
    if rule == "no rest":
        text = draw(_word) + draw(st.sampled_from(("", ":")))
        return text, f"malformed group spec {text!r}"
    if rule == "kind":
        head = draw(_word.filter(lambda h: h not in _KINDS))
        return f"{head}:{draw(_word.filter(bool))}", f"unknown group kind {head!r}"
    if rule == "count":
        parts = st.lists(_int, min_size=1, max_size=4).filter(lambda x: len(x) != len(wanted))
        rest = ",".join(draw(parts))
        need = "p,q" if kind == "cyclic" else ",".join(wanted)
        return f"{kind}:{rest}", f"{kind} spec needs {need}, got {rest!r}"
    if rule == "cyclic int":
        rest = f"{draw(st.one_of(_word, _int))},{draw(_word)}"
        return f"cyclic:{rest}", f"cyclic spec needs integer p,q, got {rest!r}"
    # the right number of fields, one without its name, its = or an integer
    assume(kind != "cyclic")
    i = draw(st.integers(0, len(wanted) - 1))
    key, eq = draw(st.sampled_from(("l", "n", "", "m"))), draw(st.sampled_from(("=", "")))
    value = draw(st.one_of(_word, _int))
    parts = [f"{name}=7" for name in wanted]
    parts[i] = f"{key}{eq}{value}"
    assume(not (key == wanted[i] and eq and value.isdigit()) and parts != [""])
    text = f"{kind}:{','.join(parts)}"
    return text, f"expected {wanted[i]}=<int> in {text!r}"


@settings(max_examples=300, deadline=None)
@given(case=malformed())
def test_parse_rejects_malformed_with_its_message(case):
    text, message = case
    with pytest.raises(ValueError) as info:
        parse_group_spec(text)
    assert not isinstance(info.value, ConditionViolationError)
    assert str(info.value) == message


def test_parse_validates_parameters():
    with pytest.raises(ConditionViolationError):
        parse_group_spec("cyclic:6,3")
    with pytest.raises(ConditionViolationError):
        parse_group_spec("tprod:l=4")


# ------------------------------------------- reference code for the family table
# validate_group, group_order and is_su2 as they read with one branch per
# kind, and the arm orders and moduli M that moduli.star_graph read from a
# table of its own.  The one family table in sfkale.groups must agree with
# them on every spec.


def _ref_validate(spec):
    fields = {"cyclic": ("p", "q"), "dprod": ("l", "n"), "d2": ("l", "n")}.get(spec.kind, ("l",))
    for name in ("p", "q", "l", "n"):
        if name not in fields and getattr(spec, name) is not None:
            raise ConditionViolationError(name, f"no value for kind {spec.kind.value}")
    for name in fields:
        value = getattr(spec, name)
        if not isinstance(value, int) or value < 1:
            raise ConditionViolationError(name, "a positive integer")
    kind = spec.kind
    if kind == GroupKind.CYCLIC:
        if spec.p < 2 or not spec.q < spec.p:
            raise ConditionViolationError("q", "1 <= q < p with p >= 2")
        if math.gcd(spec.p, spec.q) != 1:
            raise ConditionViolationError("q", "gcd(p, q) = 1")
    elif kind == GroupKind.DIHEDRAL_PRODUCT:
        if math.gcd(spec.l, 2 * spec.n) != 1:
            raise ConditionViolationError("l", "gcd(l, 2n) = 1")
    elif kind in (GroupKind.TETRAHEDRAL_PRODUCT, GroupKind.OCTAHEDRAL_PRODUCT):
        if math.gcd(spec.l, 6) != 1:
            raise ConditionViolationError("l", "gcd(l, 6) = 1")
    elif kind == GroupKind.ICOSAHEDRAL_PRODUCT:
        if math.gcd(spec.l, 30) != 1:
            raise ConditionViolationError("l", "gcd(l, 30) = 1")
    elif kind == GroupKind.DIHEDRAL_INDEX2:
        if spec.l % 2 != 0:
            raise ConditionViolationError("l", "gcd(l, 2) = 2 (l even)")
        if math.gcd(spec.l, spec.n) != 1:
            raise ConditionViolationError("l", "gcd(l, n) = 1")
    elif math.gcd(spec.l, 6) != 3:
        raise ConditionViolationError("l", "gcd(l, 6) = 3")


def _ref_order(spec):
    kind = spec.kind
    if kind == GroupKind.CYCLIC:
        return spec.p
    if kind in (GroupKind.DIHEDRAL_PRODUCT, GroupKind.DIHEDRAL_INDEX2):
        return 4 * spec.l * spec.n
    if kind in (GroupKind.TETRAHEDRAL_PRODUCT, GroupKind.TETRAHEDRAL_INDEX3):
        return 24 * spec.l
    if kind == GroupKind.OCTAHEDRAL_PRODUCT:
        return 48 * spec.l
    return 120 * spec.l


def _ref_su2(spec):
    if spec.kind == GroupKind.CYCLIC:
        return spec.q == spec.p - 1
    products = ("dprod", "tprod", "oprod", "iprod")
    return spec.kind in products and spec.l == 1


_REF_STAR = {
    GroupKind.TETRAHEDRAL_PRODUCT: ((2, 3, 3), 6),
    GroupKind.TETRAHEDRAL_INDEX3: ((2, 3, 3), 6),
    GroupKind.OCTAHEDRAL_PRODUCT: ((2, 3, 4), 12),
    GroupKind.ICOSAHEDRAL_PRODUCT: ((2, 3, 5), 30),
}


@st.composite
def any_specs(draw):
    """A spec of any kind, admissible or not, sometimes with a field it does not take."""
    kind = GroupKind(draw(st.sampled_from(_KINDS)))
    # small values reach the boundaries (p = 1, q = p, n = 1) and the gcd residues often
    value = st.one_of(st.integers(1, 12), st.integers(1, 10**4), st.sampled_from((0, -1)))
    names = ("p", "q") if kind == GroupKind.CYCLIC else _FIELDS.get(kind.value, ("l",))
    fields = {name: draw(value) for name in names}
    if draw(st.integers(0, 9)) == 0:
        stray = draw(st.sampled_from([f for f in ("p", "q", "l", "n") if f not in names]))
        fields[stray] = draw(value)
    return GroupSpec(kind, **fields)


@settings(max_examples=1000, deadline=None)
@given(spec=any_specs())
def test_family_table_matches_the_per_kind_reference(spec):
    try:
        _ref_validate(spec)
    except ConditionViolationError as want:
        with pytest.raises(ConditionViolationError) as info:
            validate_group(spec)
        assert (info.value.field, info.value.condition) == (want.field, want.condition)
        return
    assert validate_group(spec) is spec
    assert group_order(spec) == _ref_order(spec)
    assert is_su2(spec) == _ref_su2(spec)
    if spec.kind == GroupKind.CYCLIC:
        return
    arms, modulus = _REF_STAR.get(spec.kind, ((2, 2, spec.n), spec.n))
    assert _star(spec.kind, spec.n) == (arms, modulus)
    if spec.n == 1 and spec.l > 1:
        with pytest.raises(UnsupportedParameterError):
            star_graph(spec)
    else:
        assert star_graph(spec).orders == arms
