"""Set-up probe: time a fresh interpreter's import of sfkale plus the first
call into each layer a workload uses, and print the CPU seconds it took
and, beside them, the median CPU seconds of the reference kernel.

Usage: python3 perfbench/first_call.py <workload>   (PYTHONPATH must hold src)

Only sfkale is imported inside the timed span, so the figure is the
program's own start-up, not the benchmark's; the kernel runs after it.
"""

import math
import sys
import time

# the cli_verbs workload runs these; they live here so the probe imports nothing else
CLI_VERBS = (
    ("resolve", ("resolve", "--p", "7", "--q", "3", "--json")),
    ("moduli", ("moduli", "--group", "dprod:l=3,n=5", "--json")),
    ("table", ("table", "--which", "3", "--lmax", "200", "--json")),
    ("verify-metric", ("verify-metric", "--potential", "eguchi-hanson", "--rmin", "1",
                       "--rmax", "8", "--samples", "32", "--json")),
    ("decay", ("decay", "--potential", "burns", "--radii", "2:64:10", "--json")),
    ("riemenschneider", ("riemenschneider", "--pmax", "60", "--json")),
)


def exact_sweep():
    from sfkale import groups, hj, moduli

    hj.hj_expand(7, 3)
    chain = hj.lattice_chain(7, 3)
    hj.invariant_monomials(chain)
    atlas = hj.chart_atlas(chain)
    hj.determinant_identity_holds(chain)
    hj.monomial_relation_holds(chain)
    hj.transition_cocycle_holds(atlas)
    moduli.moduli_report(groups.cyclic_group(7, 3))
    moduli.moduli_report(groups.parse_group_spec("dprod:l=3,n=5"))
    moduli.riemenschneider_sweep(12)
    moduli.table3_rows(40)


def _potentials(cv):
    return [
        cv.flat(),
        cv.eguchi_hanson(1.0),
        cv.burns(1.0),
        cv.custom_radial(lambda u: u + math.log(u)),
        cv.custom_general(lambda z1, z2: (abs(z1) ** 2 + abs(z2) ** 2)
                          + math.log(abs(z1) ** 2 + abs(z2) ** 2)),
    ]


def metric_sweep():
    from sfkale import curvature as cv

    for pot in _potentials(cv)[:4]:
        cv.verify_scalar_flat(pot, cv.SamplePlan([[1.5, 0.0, 0.5, 0.0]]))


def metric_probe():
    from sfkale import curvature as cv

    z = (1.5 + 0.2j, 0.5 - 0.1j)
    pots = _potentials(cv)
    for pot in pots:
        cv.scalar_curvature(pot, z)
    for pot in pots[1:]:
        cv.hermitian_hessian(pot, z)
    cv.scalar_curvature_derivative(cv.flat(), lambda z1, z2: 0.1 * (abs(z1) ** 2 + abs(z2) ** 2) ** 2, z)
    radii = [2.0 * 1.5**i for i in range(10)]
    cv.decay_order(pots[1], radii)
    cv.decay_order(pots[2], radii)
    points = [[1.5, 0.0, 0.5, 0.0], [3.0, 1.0, 0.0, 0.5]]
    dev = cv.metric_deviations(pots[1], points)
    cv.weighted_sup_norm(list(zip(points, dev)), 2.0)


def cli_verbs():
    from sfkale import cli

    for _, argv in CLI_VERBS:
        cli.main(list(argv))


if __name__ == "__main__":
    t0 = time.process_time()
    import sfkale  # noqa: F401  (part of what is timed)

    {"exact_sweep": exact_sweep, "metric_sweep": metric_sweep, "metric_probe": metric_probe,
     "cli_verbs": cli_verbs}[sys.argv[1]]()
    elapsed = time.process_time() - t0

    from harness import median, reference_kernel

    print(elapsed, median([reference_kernel() for _ in range(21)]))
