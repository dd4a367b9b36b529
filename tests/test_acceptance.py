"""Top-level acceptance gate: one test per shipping criterion.

Each test pins its tolerance inline and fails loudly; run with -v to
get one pass/fail line per criterion.  Expected numbers are either
hand-evaluated closed forms or independent stencil oracles, never the
library's own output fed back to itself.
"""

import json
import math
from math import gcd

import numpy as np
import pytest

from sfkale import curvature as cv
from sfkale.cli import main
from sfkale.groups import GroupKind, GroupSpec
from sfkale.hj import (
    chart_atlas,
    determinant_identity_holds,
    embedding_dimension,
    hj_expand,
    invariant_monomials,
    lattice_chain,
    monomial_relation_holds,
    transition_cocycle_holds,
)
from sfkale.moduli import cyclic_moduli, noncyclic_moduli


def _cli_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def coprime_pairs(pmax):
    return [(p, q) for p in range(2, pmax + 1) for q in range(1, p) if gcd(p, q) == 1]


def test_criterion_01_small_action_table(capsys):
    # d = 2p - 1 and m = 2p - 5 for p >= 4, with (3, 1) and (5, 2)
    # in front, reproduced end to end through the CLI
    code, payload = _cli_json(capsys, "table", "--which", "1", "--pmax", "50", "--json")
    assert code == 0
    rows = {r["p"]: (r["family_dim"], r["moduli_dim"]) for r in payload["rows"]}
    assert len(rows) == 49
    assert rows[2] == (3, 1)
    assert rows[3] == (5, 2)
    for p in range(4, 51):
        assert rows[p] == (2 * p - 1, 2 * p - 5), p


def test_criterion_02_polyhedral_closed_forms():
    # smallest three admissible twists per congruence row, all fifteen
    # rows, hand-evaluated
    T, T3 = GroupKind.TETRAHEDRAL_PRODUCT, GroupKind.TETRAHEDRAL_INDEX3
    O, I = GroupKind.OCTAHEDRAL_PRODUCT, GroupKind.ICOSAHEDRAL_PRODUCT
    expected = [
        (T, (7, 13, 19), (19, 21, 23)),
        (T, (5, 11, 17), (15, 17, 19)),
        (T3, (3, 9, 15), (16, 18, 20)),
        (O, (13, 25, 37), (22, 24, 26)),
        (O, (5, 17, 29), (19, 21, 23)),
        (O, (7, 19, 31), (18, 20, 22)),
        (O, (11, 23, 35), (17, 19, 21)),
        (I, (31, 61, 91), (25, 27, 29)),
        (I, (7, 37, 67), (19, 21, 23)),
        (I, (11, 41, 71), (22, 24, 26)),
        (I, (13, 43, 73), (19, 21, 23)),
        (I, (17, 47, 77), (18, 20, 22)),
        (I, (19, 49, 79), (20, 22, 24)),
        (I, (23, 53, 83), (18, 20, 22)),
        (I, (29, 59, 89), (19, 21, 23)),
    ]
    for kind, ls, ms in expected:
        for l, m in zip(ls, ms):
            report = noncyclic_moduli(GroupSpec(kind=kind, l=l))
            assert report.moduli_dim == m, (kind, l)


def test_criterion_03_dual_expansion_identities():
    # for every coprime pair up to 200: equal coefficient excesses,
    # dual length k' = e - 2, excess = e + k - 3, and the dimension
    # concordance j + k - 2 = 2e + 3k - 8
    for p, q in coprime_pairs(200):
        exp = hj_expand(p, q)
        k, k_dual = len(exp.coeffs), len(exp.dual_coeffs)
        e = embedding_dimension(exp.coeffs)
        excess = sum(c - 1 for c in exp.coeffs)
        j = 2 * excess
        assert excess == sum(c - 1 for c in exp.dual_coeffs), (p, q)
        assert k_dual == e - 2, (p, q)
        assert excess == e + k - 3, (p, q)
        assert j + k - 2 == 2 * e + 3 * k - 8, (p, q)


def test_criterion_04_chain_and_atlas_identities():
    # exact integer identities for every coprime pair up to 200, on the
    # vectors p*c_i: link determinants = p, generator relations,
    # transition cocycle
    for p, q in coprime_pairs(200):
        chain = lattice_chain(p, q)
        assert determinant_identity_holds(chain), (p, q)
        assert monomial_relation_holds(chain), (p, q)
        assert transition_cocycle_holds(chart_atlas(chain)), (p, q)
        assert len(invariant_monomials(chain).exponents) == embedding_dimension(
            hj_expand(p, q).coeffs
        ), (p, q)


def test_criterion_05_hyperkahler_chain_dimensions():
    report = cyclic_moduli(2, 1)
    assert (report.family_dim, report.moduli_dim) == (3, 1)
    for k in range(2, 21):
        report = cyclic_moduli(k + 1, k)
        assert report.family_dim == 3 * k, k
        assert report.moduli_dim == 3 * k - 3, k


def test_criterion_06_scalar_flat_verification(capsys):
    code, payload = _cli_json(
        capsys,
        "verify-metric", "--potential", "flat",
        "--rmin", "1", "--rmax", "4", "--samples", "8", "--json",
    )
    assert code == 0 and payload["passed"]
    assert payload["max_abs_scalar"] < 1e-8

    for name in ("eguchi-hanson", "burns"):
        code, payload = _cli_json(
            capsys,
            "verify-metric", "--potential", name,
            "--rmin", "1", "--rmax", "8", "--samples", "32", "--json",
        )
        assert code == 0 and payload["passed"], name
        assert payload["metric_positive"], name
        assert payload["max_abs_scalar"] <= 1e-4, name


def test_criterion_07_linearized_operator():
    flat = cv.flat()
    points = [(1.3, 0.7 + 0.2j), (2.0, 0.5j), (1.0, 1.0), (0.9 + 0.4j, 1.1), (1.5, 1.5j)]

    # constants sit in the kernel
    for z in points:
        assert abs(cv.scalar_curvature_derivative(flat, lambda a, b: 7.0, z)) <= 1e-6

    # flat-background linearization is -(1/8) laplacian^2; for
    # f = 0.1 u^2 that is the constant -2.4
    f = lambda a, b: 0.1 * (abs(a) ** 2 + abs(b) ** 2) ** 2
    for z in points:
        got = cv.scalar_curvature_derivative(flat, f, z)
        assert abs(got + 2.4) / 2.4 <= 1e-3, z

    # independent nested-stencil bilaplacian oracle
    def lap(g, x, h):
        total = 0.0
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            total += (
                -g(x + 2 * e) + 16 * g(x + e) - 30 * g(x) + 16 * g(x - e) - g(x - 2 * e)
            ) / (12 * h * h)
        return total

    mixed = lambda a, b: 0.1 * ((abs(a) ** 2 + abs(b) ** 2) ** 2 + a.real**3)
    for z in points[:2]:
        z1, z2 = complex(z[0]), complex(z[1])
        x = np.array([z1.real, z1.imag, z2.real, z2.imag])
        gx = lambda y: mixed(complex(y[0], y[1]), complex(y[2], y[3]))
        want = -lap(lambda y: lap(gx, y, 0.05), x, 0.05) / 8.0
        got = cv.scalar_curvature_derivative(flat, mixed, z)
        assert abs(got - want) / abs(want) <= 1e-3, z

    # the symmetric quotient converges at second order in t
    z = (1.3, 0.7 + 0.2j)
    d = {t: cv.scalar_curvature_derivative(flat, mixed, z, t=t) for t in (4e-2, 2e-2, 1e-2)}
    ratio = (d[4e-2] - d[2e-2]) / (d[2e-2] - d[1e-2])
    assert 3.0 <= ratio <= 5.0


def test_criterion_08_decay_orders():
    radii = np.geomspace(2, 64, 10)
    eh = cv.decay_order(cv.eguchi_hanson(1.0), radii)
    assert abs(eh.mu - 4.0) <= 0.1
    burns = cv.decay_order(cv.burns(1.0), radii)
    assert abs(burns.mu - 2.0) <= 0.1


def test_criterion_09_stencil_convergence_orders():
    # Richardson ladders on a potential with no special structure:
    # halving h divides the stencil error by ~2^order
    base = lambda a, b: (abs(a) ** 2 + abs(b) ** 2) + 0.1 * (
        0.3 * a.real + 0.2 * a.imag + 0.25 * b.real + 0.15 * b.imag
    ) ** 6
    pot = cv.custom_general(base)
    z = (1.1, 0.6 + 0.3j)

    s2 = {h: cv.scalar_curvature(pot, z, h0=h, order=2) for h in (0.08, 0.04, 0.02)}
    ratio2 = (s2[0.08] - s2[0.04]) / (s2[0.04] - s2[0.02])
    assert ratio2 >= 3.5

    s4 = {h: cv.scalar_curvature(pot, z, h0=h, order=4) for h in (0.05, 0.025, 0.0125)}
    ratio4 = (s4[0.05] - s4[0.025]) / (s4[0.025] - s4[0.0125])
    assert ratio4 >= 14.0
