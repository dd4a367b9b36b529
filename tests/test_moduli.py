"""Moduli-dimension spot checks and identity sweeps.

Expected numbers come from hand evaluation of the closed forms (the
hyperkahler chain, the negative line bundles, the dihedral twist
formula and the fifteen polyhedral congruence rows) and of the
resolution stars, never from the code under test.  The twist formula
and the rows are kept below as reference code, which the star's
j + k - 1 must reproduce.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfkale.errors import ConditionViolationError, UnsupportedParameterError
from sfkale.hj import HJExpansion, hj_expand
from sfkale.groups import GroupKind, GroupSpec, cyclic_group, parse_group_spec
from sfkale.moduli import (
    CASE_CYCLIC_GENERIC,
    CASE_CYCLIC_Q1,
    CASE_CYCLIC_Q1_P3,
    CASE_CYCLIC_SU2,
    CASE_NONCYCLIC_STAR,
    CASE_NONCYCLIC_SU2,
    ModuliDimensions,
    StarGraph,
    ResolutionString,
    cyclic_moduli,
    deformation_dimension,
    family_dimension,
    moduli_report,
    noncyclic_moduli,
    resolution_string,
    riemenschneider_identities_hold,
    riemenschneider_sweep,
    star_graph,
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
    "spec_text, k, j, d, m",
    [
        # every curve is a (-2)-curve: j = 2k, d = 3k, m = 3k - 3
        ("dprod:l=1,n=1", 3, 6, 9, 6),
        ("dprod:l=1,n=3", 5, 10, 15, 12),
        ("tprod:l=1", 6, 12, 18, 15),
        ("oprod:l=1", 7, 14, 21, 18),
        ("iprod:l=1", 8, 16, 24, 21),
    ],
)
def test_hyperkahler_products(spec_text, k, j, d, m):
    report = noncyclic_moduli(parse_group_spec(spec_text))
    assert report.curves == k
    assert report.moduli_dim == m
    assert report.case_tag == CASE_NONCYCLIC_SU2
    assert (report.deformations, report.family_dim) == (j, d)


@pytest.mark.parametrize(
    "spec_text, k, j, m",
    [
        # twist formula 3k + 2k' + (2/n)(l + q) + 4 with q = -l mod n gives
        # m; the star gives k and j, and m = j + k - 1 again:
        # b = 2, arms [2] [2] [3, 2]
        ("dprod:l=3,n=5", 5, 12, 16),
        # b = 4, arms [2] [2] [2, 2]
        ("dprod:l=7,n=3", 5, 14, 18),
        # b = 3, arms [2] [2] [2, 2]
        ("d2:l=4,n=3", 5, 12, 16),
    ],
)
def test_dihedral_closed_form(spec_text, k, j, m):
    report = noncyclic_moduli(parse_group_spec(spec_text))
    assert report.moduli_dim == m
    assert (report.curves, report.deformations, report.family_dim) == (k, j, j + k)
    assert report.case_tag == CASE_NONCYCLIC_STAR


def test_star_note_records_the_graph():
    note = noncyclic_moduli(parse_group_spec("dprod:l=3,n=5")).formula_note
    assert note == "star b = 2, arms [2] [2] [3, 2]: m = j + k - 1"


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
    assert report.case_tag == CASE_NONCYCLIC_STAR


@pytest.mark.parametrize(
    "spec_text, star",
    [
        # 1/1 = 2 - 1/2 - 1/2 - 0/1: the arm of order 1 is empty, the A_3 chain
        ("dprod:l=1,n=1", StarGraph(2, (2, 2, 1), (1, 1, 0), ((2,), (2,), ()))),
        # 3/5 = 2 - 1/2 - 1/2 - 2/5
        ("dprod:l=3,n=5", StarGraph(2, (2, 2, 5), (1, 1, 2), ((2,), (2,), (3, 2)))),
        # 3/6 = 2 - 1/2 - 1/3 - 2/3, taken before the swapped twists (1, 2, 1)
        ("t3:l=3", StarGraph(2, (2, 3, 3), (1, 1, 2), ((2,), (3,), (2, 2)))),
        # 5/6 = 2 - 1/2 - 1/3 - 1/3
        ("tprod:l=5", StarGraph(2, (2, 3, 3), (1, 1, 1), ((2,), (3,), (3,)))),
        # 7/30 = 2 - 1/2 - 2/3 - 3/5, and 5/3 = 2 - 1/3
        ("iprod:l=7", StarGraph(2, (2, 3, 5), (1, 2, 3), ((2,), (2, 2), (2, 3)))),
        # 1/12 = 2 - 1/2 - 2/3 - 3/4: the E7 graph
        ("oprod:l=1", StarGraph(2, (2, 3, 4), (1, 2, 3), ((2,), (2, 2), (2, 2, 2)))),
        # 25/12 = 4 - 1/2 - 2/3 - 3/4
        ("oprod:l=25", StarGraph(4, (2, 3, 4), (1, 2, 3), ((2,), (2, 2), (2, 2, 2)))),
    ],
)
def test_star_graph_spot_values(spec_text, star):
    assert star_graph(parse_group_spec(spec_text)) == star


def test_dihedral_n1_unsupported():
    for text in ("dprod:l=3,n=1", "d2:l=2,n=1"):
        for fn in (star_graph, noncyclic_moduli):
            with pytest.raises(UnsupportedParameterError):
                fn(parse_group_spec(text))


def test_noncyclic_rejects_cyclic_spec():
    for fn in (star_graph, noncyclic_moduli):
        with pytest.raises(ValueError):
            fn(parse_group_spec("cyclic:5,2"))


def test_moduli_reject_bools():
    with pytest.raises(ConditionViolationError):
        cyclic_moduli(5, True)
    with pytest.raises(ConditionViolationError):
        moduli_report(GroupSpec(GroupKind.TETRAHEDRAL_PRODUCT, l=True))


BAD_PAIRS = [(5, True), (True, 1), (False, 1), (5, 5), (5, 7), (6, 4), (9, 3), (2, 2), (1, 1),
             (5, 0), (5, -1), (-5, 2), (5.0, 2), (5, 2.0), ("5", 2), (None, 2)]


@pytest.mark.parametrize("p, q", BAD_PAIRS)
def test_cyclic_moduli_rejects_what_cyclic_group_rejects(p, q):
    # cyclic_moduli builds its spec from the pair hj_expand checked; a pair
    # it rejects still raises cyclic_group's error, field and condition
    with pytest.raises(ConditionViolationError) as want:
        cyclic_group(p, q)
    with pytest.raises(ConditionViolationError) as got:
        cyclic_moduli(p, q)
    with pytest.raises(ConditionViolationError) as reported:
        moduli_report(GroupSpec(GroupKind.CYCLIC, p=p, q=q))
    for exc in (got.value, reported.value):
        assert type(exc) is ConditionViolationError
        assert (exc.field, exc.condition) == (want.value.field, want.value.condition)


def test_cyclic_report_carries_the_validated_spec():
    for p in range(2, 40):
        for q in range(1, p):
            if gcd(p, q) == 1:
                spec = cyclic_group(p, q)
                assert cyclic_moduli(p, q).group == spec
                assert moduli_report(spec).group == spec
    # a kind given as its plain string is still the cyclic kind
    assert moduli_report(GroupSpec("cyclic", p=5, q=2)) == cyclic_moduli(5, 2)


def test_moduli_report_dispatch():
    assert moduli_report(parse_group_spec("cyclic:5,2")) == cyclic_moduli(5, 2)
    spec = parse_group_spec("tprod:l=5")
    assert moduli_report(spec) == noncyclic_moduli(spec)


# ------------------------------------------------- stars against references

# the fifteen congruence rows: (kind, residue of l mod M) -> (divisor,
# offset), m = (l - residue)/divisor + offset
REFERENCE_ROWS = {
    ("tprod", 1): (3, 17),
    ("tprod", 5): (3, 15),
    ("t3", 3): (3, 16),
    ("oprod", 1): (6, 20),
    ("oprod", 5): (6, 19),
    ("oprod", 7): (6, 18),
    ("oprod", 11): (6, 17),
    ("iprod", 1): (15, 23),
    ("iprod", 7): (15, 19),
    ("iprod", 11): (15, 22),
    ("iprod", 13): (15, 19),
    ("iprod", 17): (15, 18),
    ("iprod", 19): (15, 20),
    ("iprod", 23): (15, 18),
    ("iprod", 29): (15, 19),
}
# kind -> (arm orders, modulus M); the dihedral kinds have (2, 2, n), M = n
REFERENCE_STARS = {
    "tprod": ((2, 3, 3), 6),
    "t3": ((2, 3, 3), 6),
    "oprod": ((2, 3, 4), 12),
    "iprod": ((2, 3, 5), 30),
}


def _string_length(n, q):
    """Entries of the all->=2 continued fraction of n/q."""
    k = 0
    while q:
        e = -(-n // q)
        n, q = q, e * q - n
        k += 1
    return k


def reference_moduli(kind, l, n):
    """m for l > 1 from the dihedral twist formula or the residue rows."""
    if kind in ("dprod", "d2"):
        q = (-l) % n
        k, k_dual = _string_length(n, q), _string_length(n, n - q)
        return 3 * k + 2 * k_dual + 2 * (l + q) // n + 4
    modulus = REFERENCE_STARS[kind][1]
    divisor, offset = REFERENCE_ROWS[(kind, l % modulus)]
    return (l - l % modulus) // divisor + offset


@st.composite
def noncyclic_specs(draw, lmin=1):
    """An admissible non-cyclic spec with lmin <= l < 10^6 and n < 40."""
    kind = draw(st.sampled_from(("dprod", "d2", "tprod", "t3", "oprod", "iprod")))
    if kind in ("dprod", "d2"):
        # l coprime to n: odd for the product, even (so n odd) for the
        # index-2 subgroup
        n = draw(st.integers(2, 39)) if kind == "dprod" else 2 * draw(st.integers(1, 19)) + 1
        start = 2 * draw(st.integers(lmin // 2, 10**6 // 2 - 40)) + (1 if kind == "dprod" else 2)
        l = next(l for l in range(start, start + 2 * n, 2) if gcd(l, n) == 1)
        return GroupSpec(GroupKind(kind), l=l, n=n)
    modulus = REFERENCE_STARS[kind][1]
    residue = draw(st.sampled_from([r for k, r in REFERENCE_ROWS if k == kind]))
    l = modulus * draw(st.integers(0, (10**6 - 1) // modulus - 1)) + residue
    if l < lmin:
        l += modulus
    return GroupSpec(GroupKind(kind), l=l)


def _bareiss_det(matrix):
    """Exact integer determinant by fraction-free elimination.

    The pivots are the leading principal minors, all positive for the
    positive definite matrices below.
    """
    a = [row[:] for row in matrix]
    prev = 1
    for i in range(len(a) - 1):
        assert a[i][i] > 0
        for r in range(i + 1, len(a)):
            for c in range(i + 1, len(a)):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return a[-1][-1]


def negated_intersection_matrix(star):
    """-(C_i . C_j) over the star: the centre first, each arm's first curve next to it."""
    curves = [star.central]
    edges = []
    for arm in star.arms:
        for i, e in enumerate(arm):
            edges.append((0 if i == 0 else len(curves) - 1, len(curves)))
            curves.append(e)
    matrix = [[0] * len(curves) for _ in curves]
    for i, e in enumerate(curves):
        matrix[i][i] = e
    for i, j in edges:
        matrix[i][j] = matrix[j][i] = -1
    return matrix


def _fold(coeffs):
    """e1 - 1/(e2 - 1/(...)) as a Fraction."""
    value = Fraction(coeffs[-1])
    for e in reversed(coeffs[:-1]):
        value = e - 1 / value
    return value


@settings(max_examples=300, deadline=None)
@given(spec=noncyclic_specs(lmin=2))
def test_star_moduli_equal_the_closed_forms(spec):
    report = noncyclic_moduli(spec)
    assert report.moduli_dim == reference_moduli(spec.kind.value, spec.l, spec.n)
    star = star_graph(spec)
    coeffs = [star.central] + [e for arm in star.arms for e in arm]
    assert report.curves == len(coeffs)
    assert report.deformations == 2 * sum(e - 1 for e in coeffs)
    assert report.family_dim == report.deformations + report.curves
    assert report.moduli_dim == report.family_dim - 1


@settings(max_examples=200, deadline=None)
@given(spec=noncyclic_specs())
def test_star_solves_its_equation_and_its_determinant(spec):
    star = star_graph(spec)
    orders, modulus = REFERENCE_STARS.get(spec.kind.value, ((2, 2, spec.n), spec.n))
    assert star.orders == orders
    assert star.central >= 2
    for alpha, beta, arm in zip(star.orders, star.twists, star.arms):
        assert 1 <= beta < alpha and gcd(alpha, beta) == 1
        assert min(arm) >= 2 and _fold(arm) == Fraction(alpha, beta)
    assert Fraction(spec.l, modulus) == star.central - sum(
        Fraction(beta, alpha) for alpha, beta in zip(star.orders, star.twists)
    )
    alpha_product = orders[0] * orders[1] * orders[2]
    det = _bareiss_det(negated_intersection_matrix(star))
    assert det * modulus == alpha_product * spec.l


def test_determinant_spot_values():
    # 4l for the dihedral kinds, 3l for tprod and t3, 2l for oprod, l for iprod
    for text, det in (("dprod:l=1,n=1", 4), ("dprod:l=3,n=5", 12), ("d2:l=4,n=3", 16), ("tprod:l=5", 15),
                      ("t3:l=3", 9), ("oprod:l=25", 50), ("iprod:l=7", 7), ("iprod:l=1", 1)):
        assert _bareiss_det(negated_intersection_matrix(star_graph(parse_group_spec(text)))) == det


@settings(max_examples=39, deadline=None)
@given(n=st.integers(1, 39))
def test_hyperkahler_dihedral_star_is_d_n_plus_2(n):
    report = noncyclic_moduli(GroupSpec(GroupKind.DIHEDRAL_PRODUCT, l=1, n=n))
    k = n + 2
    assert (report.curves, report.deformations, report.family_dim) == (k, 2 * k, 3 * k)
    assert report.moduli_dim == 3 * k - 3


@pytest.mark.parametrize("kind, k", [("tprod", 6), ("oprod", 7), ("iprod", 8)])
def test_hyperkahler_polyhedral_star_is_e_k(kind, k):
    report = noncyclic_moduli(GroupSpec(GroupKind(kind), l=1))
    assert (report.curves, report.deformations, report.family_dim) == (k, 2 * k, 3 * k)
    assert report.moduli_dim == 3 * k - 3


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
