"""Moduli-dimension spot checks and identity sweeps.

Expected numbers come from hand evaluation of the closed forms (the
hyperkahler chain, the negative line bundles, the dihedral twist
formula and the fifteen polyhedral congruence rows), never from the
code under test.
"""

from math import gcd

import pytest

from sfkale.errors import UnsupportedParameterError
from sfkale.hj import HJExpansion, hj_expand
from sfkale.groups import GroupKind, GroupSpec, parse_group_spec
from sfkale.moduli import (
    CASE_CYCLIC_GENERIC,
    CASE_CYCLIC_Q1,
    CASE_CYCLIC_Q1_P3,
    CASE_CYCLIC_SU2,
    CASE_DIHEDRAL,
    CASE_NONCYCLIC_SU2,
    CASE_POLYHEDRAL,
    ModuliDimensions,
    ResolutionString,
    cyclic_moduli,
    deformation_dimension,
    family_dimension,
    moduli_report,
    noncyclic_moduli,
    resolution_string,
    riemenschneider_identities_hold,
    riemenschneider_sweep,
    table1_rows,
    table3_rows,
)


# ------------------------------------------------------------------- cyclic


@pytest.mark.parametrize(
    "p, q, m, tag",
    [
        (2, 1, 1, CASE_CYCLIC_SU2),
        (3, 2, 3, CASE_CYCLIC_SU2),
        (5, 4, 9, CASE_CYCLIC_SU2),
        (3, 1, 2, CASE_CYCLIC_Q1_P3),
        (4, 1, 3, CASE_CYCLIC_Q1),
        (7, 1, 9, CASE_CYCLIC_Q1),
        (5, 2, 6, CASE_CYCLIC_GENERIC),
        (5, 3, 6, CASE_CYCLIC_GENERIC),
        (7, 3, 9, CASE_CYCLIC_GENERIC),
    ],
)
def test_cyclic_spot_values(p, q, m, tag):
    report = cyclic_moduli(p, q)
    assert report.moduli_dim == m
    assert report.case_tag == tag


def test_cyclic_generic_fields():
    report = cyclic_moduli(5, 2)
    assert (report.deformations, report.curves) == (6, 2)
    assert report.family_dim == 8
    assert report.group == parse_group_spec("cyclic:5,2")


def test_line_bundle_family():
    # string [-p]: one curve, 2(p-1) deformations
    for p in range(4, 13):
        report = cyclic_moduli(p, 1)
        assert report.curves == 1
        assert report.deformations == 2 * (p - 1)
        assert report.family_dim == 2 * p - 1
        assert report.moduli_dim == 2 * p - 5


def test_hyperkahler_chain():
    for p in range(2, 11):
        k = p - 1
        report = cyclic_moduli(p, p - 1)
        assert report.curves == k
        assert report.family_dim == 3 * k
        assert report.moduli_dim == (1 if p == 2 else 3 * k - 3)
        assert report.case_tag == CASE_CYCLIC_SU2


def test_inverse_parameter_duality():
    # (p, q) and (p, q^-1 mod p) present the same singularity
    for p in range(2, 81):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            assert cyclic_moduli(p, q).moduli_dim == cyclic_moduli(p, pow(q, -1, p)).moduli_dim


# --------------------------------------------------------------- non-cyclic


@pytest.mark.parametrize(
    "spec_text, k, m",
    [
        ("dprod:l=1,n=3", 5, 12),
        ("tprod:l=1", 6, 15),
        ("oprod:l=1", 7, 18),
        ("iprod:l=1", 8, 21),
    ],
)
def test_hyperkahler_products(spec_text, k, m):
    report = noncyclic_moduli(parse_group_spec(spec_text))
    assert report.curves == k
    assert report.moduli_dim == m
    assert report.case_tag == CASE_NONCYCLIC_SU2
    assert report.family_dim is None and report.deformations is None


@pytest.mark.parametrize(
    "spec_text, m",
    [
        # twist formula 3k + 2k' + (2/n)(l + q) + 4 with q = -l mod n
        ("dprod:l=3,n=5", 16),
        ("dprod:l=7,n=3", 18),
        ("d2:l=4,n=3", 16),
    ],
)
def test_dihedral_closed_form(spec_text, m):
    report = noncyclic_moduli(parse_group_spec(spec_text))
    assert report.moduli_dim == m
    assert report.case_tag == CASE_DIHEDRAL


def test_dihedral_note_records_parameters():
    note = noncyclic_moduli(parse_group_spec("dprod:l=3,n=5")).formula_note
    assert "q = 2" in note and "(k, k') = (2, 2)" in note


@pytest.mark.parametrize(
    "kind, l, m",
    [
        (GroupKind.TETRAHEDRAL_PRODUCT, 7, 19),
        (GroupKind.TETRAHEDRAL_PRODUCT, 5, 15),
        (GroupKind.TETRAHEDRAL_INDEX3, 3, 16),
        (GroupKind.OCTAHEDRAL_PRODUCT, 13, 22),
        (GroupKind.OCTAHEDRAL_PRODUCT, 5, 19),
        (GroupKind.OCTAHEDRAL_PRODUCT, 7, 18),
        (GroupKind.OCTAHEDRAL_PRODUCT, 11, 17),
        (GroupKind.ICOSAHEDRAL_PRODUCT, 31, 25),
        (GroupKind.ICOSAHEDRAL_PRODUCT, 7, 19),
        (GroupKind.ICOSAHEDRAL_PRODUCT, 11, 22),
        (GroupKind.ICOSAHEDRAL_PRODUCT, 13, 19),
        (GroupKind.ICOSAHEDRAL_PRODUCT, 17, 18),
        (GroupKind.ICOSAHEDRAL_PRODUCT, 19, 20),
        (GroupKind.ICOSAHEDRAL_PRODUCT, 23, 18),
        (GroupKind.ICOSAHEDRAL_PRODUCT, 29, 19),
    ],
)
def test_polyhedral_rows_smallest_member(kind, l, m):
    report = noncyclic_moduli(GroupSpec(kind=kind, l=l))
    assert report.moduli_dim == m
    assert report.case_tag == CASE_POLYHEDRAL


def test_dihedral_n1_unsupported():
    with pytest.raises(UnsupportedParameterError):
        noncyclic_moduli(parse_group_spec("dprod:l=3,n=1"))
    with pytest.raises(UnsupportedParameterError):
        noncyclic_moduli(parse_group_spec("d2:l=2,n=1"))


def test_noncyclic_rejects_cyclic_spec():
    with pytest.raises(ValueError):
        noncyclic_moduli(parse_group_spec("cyclic:5,2"))


def test_moduli_report_dispatch():
    assert moduli_report(parse_group_spec("cyclic:5,2")) == cyclic_moduli(5, 2)
    spec = parse_group_spec("tprod:l=5")
    assert moduli_report(spec) == noncyclic_moduli(spec)


# ---------------------------------------------------------------- strings


def test_resolution_string_values():
    assert resolution_string(2, 1) == ResolutionString(k=1, self_intersections=(-2,))
    assert resolution_string(7, 1) == ResolutionString(k=1, self_intersections=(-7,))
    assert resolution_string(5, 2) == ResolutionString(k=2, self_intersections=(-3, -2))


def test_dimension_helpers():
    assert deformation_dimension(ResolutionString(1, (-2,))) == 2
    assert deformation_dimension(ResolutionString(1, (-7,))) == 12
    assert deformation_dimension(ResolutionString(2, (-3, -2))) == 6
    assert family_dimension(ResolutionString(2, (-3, -2))) == 8


def test_resolution_string_validation():
    with pytest.raises(ValueError):
        ResolutionString(k=2, self_intersections=(-2,))
    with pytest.raises(ValueError):
        ResolutionString(k=1, self_intersections=(-1,))


# ----------------------------------------------------------------- tables


def test_table1_small():
    rows = table1_rows(6)
    assert [(r["p"], r["family_dim"], r["moduli_dim"]) for r in rows] == [
        (2, 3, 1),
        (3, 5, 2),
        (4, 7, 3),
        (5, 9, 5),
        (6, 11, 7),
    ]
    assert rows[1]["label"] == "1/3(1,1)"


def test_table1_closed_form():
    for row in table1_rows(50):
        p = row["p"]
        if p >= 4:
            assert row["family_dim"] == 2 * p - 1
            assert row["moduli_dim"] == 2 * p - 5


def test_table3_rows():
    rows = table3_rows(13)
    assert len(rows) == 13
    by_kind_l = {(r["kind"], r["l"]): r["moduli_dim"] for r in rows}
    assert by_kind_l[("tprod", 7)] == 19
    assert by_kind_l[("oprod", 11)] == 17
    assert by_kind_l[("iprod", 13)] == 19
    assert by_kind_l[("t3", 3)] == 16
    for r in rows:
        assert r["l"] % r["modulus"] == r["residue"]
        assert 1 < r["l"] <= 13


def test_riemenschneider_sweep():
    assert riemenschneider_sweep(4)["pairs_checked"] == 0
    small = riemenschneider_sweep(5)
    assert small["pairs_checked"] == 2
    assert small["failures"] == 0
    full = riemenschneider_sweep(50)
    assert full["failures"] == 0
    assert full["first_failure"] is None
    assert full["pairs_checked"] > small["pairs_checked"]


def test_riemenschneider_identities_every_pair():
    # the resolve verb applies the predicate to q = 1 and q = p - 1 as well
    for p in range(2, 40):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert riemenschneider_identities_hold(hj_expand(p, q)), (p, q)
    # 7/3 = [3, 2, 2] with dual [2, 4]: unequal sums on either side, and
    # equal sums with the wrong dual length k' != e - 2, all break them
    assert not riemenschneider_identities_hold(HJExpansion(7, 3, (3, 2, 2), (2, 5)))
    assert not riemenschneider_identities_hold(HJExpansion(7, 3, (3, 3, 2), (2, 4)))
    assert not riemenschneider_identities_hold(HJExpansion(7, 3, (3, 2, 2), (5,)))
