"""Exact continued-fraction, lattice-chain and chart-atlas checks.

Two brute-force oracles carry most of the weight here: an exhaustive
evaluate/expand round trip over small coefficient tuples, and a DFS
that rediscovers each lattice chain from nothing but the three-term
recursion, the unit box and the endpoint conditions.
"""

import dataclasses
import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sfkale.errors import InvalidPairError
from sfkale.groups import cyclic_group
from sfkale.hj import (
    Chart,
    _expand,
    chart_atlas,
    determinant_identity_holds,
    embedding_dimension,
    evaluate_fraction,
    format_monomial,
    hj_expand,
    invariant_monomials,
    lattice_chain,
    monomial_relation_holds,
    transition_cocycle_holds,
    transition_matrices,
)
from sfkale.moduli import moduli_report


def coprime_pairs(pmax):
    return [(p, q) for p in range(2, pmax + 1) for q in range(1, p) if gcd(p, q) == 1]


# ---------------------------------------------------------------- expansions


def test_expand_known_values():
    assert hj_expand(2, 1).coeffs == (2,)
    assert hj_expand(2, 1).dual_coeffs == (2,)
    assert hj_expand(5, 2).coeffs == (3, 2)
    assert hj_expand(5, 2).dual_coeffs == (2, 3)
    assert hj_expand(7, 3).coeffs == (3, 2, 2)
    assert hj_expand(7, 3).dual_coeffs == (2, 4)


@pytest.mark.parametrize("p", [2, 3, 7, 11, 50])
def test_expand_q1_pattern(p):
    exp = hj_expand(p, 1)
    assert exp.coeffs == (p,)
    assert exp.dual_coeffs == (2,) * (p - 1)


def test_expand_inverts_every_small_tuple():
    # every all->=2 tuple folds to a unique rational whose expansion
    # must reproduce the tuple; this pins both existence and uniqueness
    for length in range(1, 5):
        for coeffs in itertools.product(range(2, 7), repeat=length):
            value = evaluate_fraction(coeffs)
            exp = hj_expand(value.numerator, value.denominator)
            assert exp.coeffs == coeffs, (coeffs, value)


def test_round_trip_up_to_200():
    for p, q in coprime_pairs(200):
        exp = hj_expand(p, q)
        assert min(exp.coeffs) >= 2
        assert min(exp.dual_coeffs) >= 2
        assert evaluate_fraction(exp.coeffs) == Fraction(p, q)
        assert evaluate_fraction(exp.dual_coeffs) == Fraction(p, p - q)


def test_evaluate_fraction_values():
    assert evaluate_fraction([3, 2]) == Fraction(5, 2)
    assert evaluate_fraction([2, 2, 2]) == Fraction(4, 3)
    assert evaluate_fraction([7]) == 7


def test_evaluate_fraction_rejects():
    with pytest.raises(ValueError):
        evaluate_fraction([])
    with pytest.raises(ValueError):
        evaluate_fraction([2, 1])


@pytest.mark.parametrize(
    "p, q",
    [(4, 2), (5, 0), (5, 5), (1, 1), (5, 7), (2, -1)],
)
def test_expand_rejects_bad_pairs(p, q):
    with pytest.raises(InvalidPairError):
        hj_expand(p, q)
    with pytest.raises(InvalidPairError):
        lattice_chain(p, q)


def test_expand_rejects_non_integers():
    with pytest.raises(InvalidPairError):
        hj_expand(5.0, 2)
    with pytest.raises(InvalidPairError):
        hj_expand(5, "2")
    with pytest.raises(InvalidPairError):
        lattice_chain(5.0, 2)


@pytest.mark.parametrize("p, q", [(5, True), (2, True), (True, 1)])
def test_expand_rejects_bools(p, q):
    # bool is an int subclass: hj_expand(5, True) used to carry q=True,
    # which serialises as JSON true
    for build in (hj_expand, lattice_chain):
        with pytest.raises(InvalidPairError, match="must be integers"):
            build(p, q)


def test_embedding_dimension():
    assert embedding_dimension((2,)) == 3
    assert embedding_dimension((3, 2)) == 4
    assert embedding_dimension((7,)) == 8


# ------------------------------------------------------------------- chains


def test_chain_small_examples():
    half = Fraction(1, 2)
    chain = lattice_chain(2, 1)
    assert chain.points == ((0, 1), (half, half), (1, 0))
    assert chain.chain_coeffs == (2,)
    assert chain.m == 1

    chain = lattice_chain(5, 2)
    assert chain.points == (
        (0, 1),
        (Fraction(1, 5), Fraction(2, 5)),
        (Fraction(3, 5), Fraction(1, 5)),
        (1, 0),
    )
    assert chain.chain_coeffs == (3, 2)
    assert chain.m == 2


def _chains_by_search(p, q):
    """All multiplier chains from (0,1) to (1,0) inside the unit box."""
    t = next(t for t in range(1, p) if (1 + q * t) % p == 0)
    start = (Fraction(0), Fraction(1))
    second = (Fraction(1, p), Fraction(t, p))
    goal = (Fraction(1), Fraction(0))
    found = []

    def walk(path):
        if len(path) > p + 2:
            return
        if path[-1] == goal:
            found.append(tuple(path))
            return
        prev, cur = path[-2], path[-1]
        for kappa in range(2, p + 1):
            nxt = (kappa * cur[0] - prev[0], kappa * cur[1] - prev[1])
            if nxt[0] > 1 or nxt[1] < 0 or nxt[1] > 1:
                continue
            walk(path + [nxt])

    walk([start, second])
    return found


@pytest.mark.parametrize("p, q", [(2, 1), (7, 3), (11, 4), (13, 1), (17, 16), (997, 354)])
def test_seeded_vectors_equal_the_ones_derived_from_points(p, q):
    # lattice_chain seeds vectors from its recursion; a replaced chain,
    # even an unchanged one, starts empty and converts its own points
    chain = lattice_chain(p, q)
    assert "vectors" in vars(chain)
    fresh = dataclasses.replace(chain)
    assert "vectors" not in vars(fresh)
    assert chain.vectors == fresh.vectors
    assert all(type(x) is int for w in fresh.vectors for x in w)


def test_chain_by_exhaustive_search():
    # the DFS knows nothing about continued fractions; for each pair it
    # must find exactly one admissible chain, and it must be ours
    for p, q in coprime_pairs(12):
        solutions = _chains_by_search(p, q)
        assert len(solutions) == 1, (p, q, solutions)
        assert solutions[0] == lattice_chain(p, q).points


def test_chain_structure_sweep():
    for p, q in coprime_pairs(60):
        chain = lattice_chain(p, q)
        pts = chain.points
        assert pts[0] == (0, 1) and pts[-1] == (1, 0)
        assert len(pts) == chain.m + 2
        assert chain.chain_coeffs == tuple(reversed(hj_expand(p, q).dual_coeffs))
        for s, t in pts:
            a, b = int(s * p), int(t * p)
            assert (a, b) == (s * p, t * p)  # denominators divide p
            assert (a + q * b) % p == 0  # invariance of x^a y^b
            assert 0 <= s <= 1 and 0 <= t <= 1
        for i in range(len(pts) - 1):
            assert pts[i][0] < pts[i + 1][0]
            assert pts[i][1] > pts[i + 1][1]
        assert determinant_identity_holds(chain)


# ---------------------------------------------------------------- monomials


def test_monomials_examples():
    mono = invariant_monomials(lattice_chain(2, 1))
    assert mono.exponents == ((0, 2), (1, 1), (2, 0))

    mono = invariant_monomials(lattice_chain(5, 2))
    assert mono.exponents == ((0, 5), (1, 2), (3, 1), (5, 0))
    assert mono.descending[:2] == ((5, 0), (3, 1))


def test_monomial_count_and_relations_sweep():
    for p, q in coprime_pairs(60):
        exp = hj_expand(p, q)
        chain = lattice_chain(p, q)
        mono = invariant_monomials(chain)
        assert len(mono.exponents) == len(exp.dual_coeffs) + 2
        assert len(mono.exponents) == embedding_dimension(exp.coeffs)
        assert mono.descending[0] == (p, 0)
        assert mono.descending[1] == (p - q, 1)
        assert monomial_relation_holds(chain)


def test_format_monomial():
    assert format_monomial((3, 1)) == "x^3 y"
    assert format_monomial((0, 0)) == "1"
    assert format_monomial((1, 0)) == "x"
    assert format_monomial((0, 2)) == "y^2"
    assert format_monomial((1, 1)) == "x y"


# ------------------------------------------------------------------- charts


def test_atlas_examples():
    atlas = chart_atlas(lattice_chain(2, 1))
    assert [(c.u, c.v) for c in atlas.charts] == [((2, 0), (-1, 1)), ((1, -1), (0, 2))]

    atlas = chart_atlas(lattice_chain(5, 2))
    assert [(c.u, c.v) for c in atlas.charts] == [
        ((5, 0), (-2, 1)),
        ((2, -1), (-1, 3)),
        ((1, -3), (0, 5)),
    ]


def _dot(u, w):
    return u[0] * w[0] + u[1] * w[1]


def test_pairing_duality_sweep():
    # against w_i = p c_i: u_i.w_i = 0, u_i.w_{i+1} = p, v_i.w_i = p, v_i.w_{i+1} = 0
    for p, q in coprime_pairs(50):
        chain = lattice_chain(p, q)
        atlas = chart_atlas(chain)
        w = invariant_monomials(chain).exponents
        assert len(atlas.charts) == chain.m + 1
        for chart in atlas.charts:
            lo, hi = w[chart.index], w[chart.index + 1]
            assert (_dot(chart.u, lo), _dot(chart.u, hi)) == (0, p)
            assert (_dot(chart.v, lo), _dot(chart.v, hi)) == (p, 0)


def test_transition_cocycle_sweep():
    for p, q in coprime_pairs(60):
        atlas = chart_atlas(lattice_chain(p, q))
        assert transition_cocycle_holds(atlas)
        assert len(transition_matrices(atlas)) == len(atlas.chain_coeffs)


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _cocycle_by_matrix_products(atlas):
    """Reference: T_i [u_i; v_i] == [u_{i+1}; v_{i+1}] as 2x2 products."""
    charts = atlas.charts
    steps = transition_matrices(atlas)
    (ux, uy), (vx, vy) = charts[0].u, charts[0].v
    if len(steps) != len(charts) - 1 or ux * vy - uy * vx != atlas.p:
        return False
    return all(
        _mat_mul(step, (a.u, a.v)) == (b.u, b.v)
        for step, a, b in zip(steps, charts, charts[1:])
    )


_small_pairs = st.integers(2, 400).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1)))
_offset = st.integers(-3, 3)


@settings(max_examples=300, deadline=None)
@given(pair=_small_pairs, data=st.data())
def test_integer_steps_agree_with_matrix_products(pair, data):
    p, q = pair
    assume(gcd(p, q) == 1)
    atlas = chart_atlas(lattice_chain(p, q))
    assert transition_cocycle_holds(atlas) and _cocycle_by_matrix_products(atlas)
    # one chart changed by small offsets, which may all be zero
    index = data.draw(st.integers(0, len(atlas.charts) - 1))
    chart = atlas.charts[index]
    du = data.draw(st.tuples(_offset, _offset))
    dv = data.draw(st.tuples(_offset, _offset))
    changed = chart._replace(
        u=(chart.u[0] + du[0], chart.u[1] + du[1]),
        v=(chart.v[0] + dv[0], chart.v[1] + dv[1]),
    )
    charts = (*atlas.charts[:index], changed, *atlas.charts[index + 1 :])
    broken = dataclasses.replace(atlas, charts=charts)
    assert transition_cocycle_holds(broken) == _cocycle_by_matrix_products(broken)
    assert transition_cocycle_holds(broken) == (du == dv == (0, 0))


_pairs_to_ten_thousand = st.integers(2, 10**4).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, p - 1))
)


@settings(max_examples=150, deadline=None)
@given(pair=_pairs_to_ten_thousand, data=st.data())
def test_charts_are_named_tuples_that_pair_with_their_chain(pair, data):
    p, q = pair
    assume(gcd(p, q) == 1)
    chain = lattice_chain(p, q)
    atlas = chart_atlas(chain)
    w = chain.vectors
    assert len(atlas.charts) == len(w) - 1
    for i, chart in enumerate(atlas.charts):
        index, u, v = chart
        assert type(chart) is Chart and index == chart.index == i
        assert chart == (i, chart.u, chart.v) and (u, v) == (chart.u, chart.v)
        assert [_dot(u, w[i]), _dot(u, w[i + 1]), _dot(v, w[i]), _dot(v, w[i + 1])] == [0, p, p, 0]
    assert transition_cocycle_holds(atlas) and _cocycle_by_matrix_products(atlas)
    # one chart changed through _replace, perhaps by nothing, or the
    # charts cut or lengthened by one: the unpacked integer steps and the
    # matrix products give one verdict
    index = data.draw(st.integers(0, len(atlas.charts) - 1))
    chart = atlas.charts[index]
    (ux, uy), (vx, vy) = chart.u, chart.v
    du = data.draw(st.tuples(_offset, _offset))
    dv = data.draw(st.tuples(_offset, _offset))
    changed = chart._replace(u=(ux + du[0], uy + du[1]), v=(vx + dv[0], vy + dv[1]))
    assert type(changed) is Chart and changed.index == index
    charts = (*atlas.charts[:index], changed, *atlas.charts[index + 1 :])
    for charts in (charts, charts[:-1], (*charts, changed)):
        broken = dataclasses.replace(atlas, charts=charts)
        assert transition_cocycle_holds(broken) == _cocycle_by_matrix_products(broken)


# ------------------------------------------------------------ broken chains

BROKEN = [(7, 3), (11, 4), (13, 1), (17, 16)]


def _shift(chain, index, dt):
    """The chain with point index moved by dt along t."""
    s, t = chain.points[index]
    points = (*chain.points[:index], (s, t + dt), *chain.points[index + 1 :])
    return dataclasses.replace(chain, points=points)


@pytest.mark.parametrize("p, q", BROKEN)
def test_determinant_rejects_a_point_moved_by_a_lattice_step(p, q):
    chain = lattice_chain(p, q)
    for i in range(len(chain.points)):
        assert not determinant_identity_holds(_shift(chain, i, Fraction(1, p))), i


@pytest.mark.parametrize("p, q", BROKEN)
def test_monomial_relation_rejects_a_changed_coefficient(p, q):
    chain = lattice_chain(p, q)
    kappa = chain.chain_coeffs
    for i in range(len(kappa)):
        changed = (*kappa[:i], kappa[i] + 1, *kappa[i + 1 :])
        assert not monomial_relation_holds(dataclasses.replace(chain, chain_coeffs=changed)), i


@pytest.mark.parametrize("p, q", BROKEN + [(2, 1), (97, 35)])
def test_monomial_relation_keeps_its_verdict_on_wrong_length_coefficients(p, q):
    # one coefficient per interior point: too few or too many answer False,
    # as the cocycle check does, where too few raised IndexError and extras
    # went unread
    chain = lattice_chain(p, q)
    kappa = chain.chain_coeffs
    wrong = [kappa[:n] for n in range(len(kappa))]  # too few
    wrong += [kappa + (2,), kappa + (99, 1)]  # too many
    wrong += [(kappa[0] + 1, *kappa[1:n]) for n in range(1, len(kappa))]  # too few, one wrong
    for coeffs in wrong:
        assert not monomial_relation_holds(dataclasses.replace(chain, chain_coeffs=coeffs)), coeffs
    assert monomial_relation_holds(chain)


@pytest.mark.parametrize("p, q", BROKEN)
def test_cocycle_rejects_a_changed_chart(p, q):
    # every step is checked, so an interior chart, which neither end chart
    # sees, is caught too; (17, 16) has only its two end charts
    atlas = chart_atlas(lattice_chain(p, q))
    for index, chart in enumerate(atlas.charts):
        (ux, uy), (vx, vy) = chart.u, chart.v
        for u, v in (((5, 5), (99, 99)), ((ux + 1, uy), chart.v), ((ux, uy + 1), chart.v),
                     (chart.u, (vx + 1, vy)), (chart.u, (vx, vy + 1))):
            charts = list(atlas.charts)
            charts[index] = chart._replace(u=u, v=v)
            broken = dataclasses.replace(atlas, charts=tuple(charts))
            assert not transition_cocycle_holds(broken), (index, u, v)


def test_cocycle_rejects_a_missing_step():
    atlas = chart_atlas(lattice_chain(11, 4))
    assert not transition_cocycle_holds(dataclasses.replace(atlas, charts=atlas.charts[:-1]))
    assert not transition_cocycle_holds(
        dataclasses.replace(atlas, chain_coeffs=atlas.chain_coeffs[:-1])
    )


CONSUMERS = [invariant_monomials, chart_atlas, determinant_identity_holds, monomial_relation_holds]


def _off_the_lattice(i):
    return pytest.raises(ValueError, match=rf"chain point {i} \(.*\) is not on the lattice")


@pytest.mark.parametrize("p, q", BROKEN)
@pytest.mark.parametrize("check", CONSUMERS)
def test_point_off_the_lattice_is_named(p, q, check):
    chain = lattice_chain(p, q)
    for i in range(len(chain.points)):
        with _off_the_lattice(i):
            check(_shift(chain, i, Fraction(1, 2 * p)))


@pytest.mark.parametrize("p, q", BROKEN)
def test_warm_cache_never_reaches_a_replaced_chain(p, q):
    # the integer vectors are cached on the chain at first use; a chain
    # replaced after that must still be judged by its own points
    chain = lattice_chain(p, q)
    for check in CONSUMERS:
        check(chain)
    for i in range(len(chain.points)):
        moved = _shift(chain, i, Fraction(1, p))
        assert not determinant_identity_holds(moved), i
        assert not (transition_cocycle_holds(chart_atlas(moved)) and monomial_relation_holds(moved)), i
        off = _shift(chain, i, Fraction(1, 2 * p))
        for check in CONSUMERS:
            with _off_the_lattice(i):
                check(off)
    assert determinant_identity_holds(chain) and monomial_relation_holds(chain)
    assert transition_cocycle_holds(chart_atlas(chain))
    assert invariant_monomials(chain) == invariant_monomials(lattice_chain(p, q))


# -------------------------------------------------- large p, by hypothesis


def _partial_quotient_sum(p, q):
    total = 0
    while q:
        total += p // q
        p, q = q, p % q
    return total


@settings(max_examples=40, deadline=None)
@given(p=st.integers(10**6 - 1000, 10**6 + 1000), q=st.integers(1, 10**6 - 1001))
def test_identities_hold_near_a_million(p, q):
    assume(gcd(p, q) == 1)
    # the chain has about as many points as p/q has partial quotients in sum
    assume(_partial_quotient_sum(p, q) <= 5000)
    chain = lattice_chain(p, q)
    assert determinant_identity_holds(chain)
    assert monomial_relation_holds(chain)
    assert transition_cocycle_holds(chart_atlas(chain))
    # the conversion against the ascending recursion run in integers from
    # y^p and x y^t, t = -1/q mod p, with the chain's own coefficients
    w = [(0, p), (1, pow(-q, -1, p))]
    for kappa in chain.chain_coeffs:
        w.append((kappa * w[-1][0] - w[-2][0], kappa * w[-1][1] - w[-2][1]))
    assert w[-1] == (p, 0)
    assert invariant_monomials(chain).exponents == tuple(w)


_pairs_to_a_million = st.integers(2, 10**6).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, p - 1))
)


@settings(max_examples=200, deadline=None)
@given(pair=_pairs_to_a_million)
def test_integer_conversion_equals_the_fraction_one(pair):
    p, q = pair
    assume(gcd(p, q) == 1)
    assume(_partial_quotient_sum(p, q) <= 5000)
    chain = lattice_chain(p, q)
    # reference: Fraction multiplication, which shares no arithmetic
    # with the integer conversion under test
    want = tuple((int(s * p), int(t * p)) for s, t in chain.points)
    assert invariant_monomials(chain).exponents == want


@settings(max_examples=100, deadline=None)
@given(pair=_pairs_to_a_million)
def test_points_are_the_fractions_the_constructor_builds(pair):
    # lattice_chain fills Fraction's slots directly; its points must be
    # what Fraction(a, p) builds: same type, lowest terms, hash and repr
    p, q = pair
    assume(gcd(p, q) == 1)
    assume(_partial_quotient_sum(p, q) <= 5000)
    chain = lattice_chain(p, q)
    want = tuple((Fraction(a, p), Fraction(b, p)) for a, b in chain.vectors)
    assert chain.points == want
    assert hash(chain.points) == hash(want) and repr(chain.points) == repr(want)
    for got, ref in zip(itertools.chain(*chain.points), itertools.chain(*want)):
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (ref.numerator, ref.denominator)
    assert dataclasses.replace(chain) == chain


def test_one_resolve_expands_each_continued_fraction_once():
    # hj_expand, lattice_chain and cyclic_moduli (through moduli_report)
    # ask for p/q twice and p/(p - q) three times between them
    _expand.cache_clear()
    p, q = 997, 354
    hj_expand(p, q)
    lattice_chain(p, q)
    moduli_report(cyclic_group(p, q))
    info = _expand.cache_info()
    assert (info.misses, info.hits) == (2, 3)


def test_package_root_reexports():
    import sfkale

    assert sfkale.hj_expand is hj_expand
    assert sfkale.lattice_chain is lattice_chain
