"""The four benchmark workloads: seeded input streams, operations and their oracles.

exact_sweep    the resolve pipeline per coprime pair, group specs, one
               Riemenschneider sweep and one Table 3; all in hj, groups
               and moduli, never numpy.
metric_sweep   verify_scalar_flat over plans of several hundred points:
               the batch path of curvature and the engine behind it.
metric_probe   single-point curvature calls, derivatives, decay fits and
               norms: per-call set-up cost shows here, not in the sweep.
cli_verbs      one fresh `python -m sfkale.cli <verb> --json` process per
               operation: process start, imports, argparse and JSON.

Each workload is a stream of passes.  A pass is a fixed mix of
operations, and every operation gets an input drawn fresh from the
seed that no earlier operation of the run has seen, so a cache inside
the program only gains where real inputs would let it; potentials are
rebuilt per pass.  The operations call sfkale through its module
attributes, which the traced run wraps (Tracer.patched).  Nothing here
calls the private engine; it is measured through curvature and through
the Phi callables of the custom potentials (tracer.phi).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import random
import time
from math import gcd
from typing import Callable, Optional

import numpy as np

from sfkale import groups, hj, moduli
from sfkale import curvature as cv

import oracles
from first_call import CLI_VERBS
from harness import END, PHI_CALLS, PHI_S, START, Op, Tracer, median, run_child, time_children

# what a traced span counts as its points, for <name>.per_point_s
POINTS_OF = {
    "hj.lattice_chain": lambda args, chain: len(chain.points),
    "moduli.riemenschneider_sweep": lambda args, result: result["pairs_checked"],
    "curvature.SamplePlan": lambda args, plan: len(plan.points),
    "curvature.verify_scalar_flat": lambda args, report: len(args[1].points),
    "curvature.decay_order": lambda args, est: len(args[1]),
    "curvature.metric_deviations": lambda args, dev: len(args[1]),
}
TRACED_MODULES = (hj, groups, moduli, cv)

# ------------------------------------------------------------------ potentials


def burns_profile(u):
    return u + oracles.BURNS_M * math.log(u)


def burns_general(z1, z2):
    return burns_profile(abs(z1) ** 2 + abs(z2) ** 2)


def potential(family: str, tracer):
    """A potential by family name; custom callables go through tracer.phi."""
    if family == "flat":
        return cv.flat()
    if family == "eguchi_hanson":
        return cv.eguchi_hanson(oracles.EH_A)
    if family == "burns":
        return cv.burns(oracles.BURNS_M)
    if family == "custom_radial":
        return cv.custom_radial(tracer.phi(burns_profile))
    return cv.custom_general(tracer.phi(burns_general))


def _unit_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    d = rng.standard_normal((n, 4))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _probe_point(rng: np.random.Generator) -> np.ndarray:
    """A point with log-uniform radius in [1.2, 6] and a uniform direction."""
    return math.exp(rng.uniform(math.log(1.2), math.log(6.0))) * _unit_directions(rng, 1)[0]


def _as_z(x):
    return (complex(x[0], x[1]), complex(x[2], x[3]))


def _fmt(x):
    return "[" + ", ".join(f"{float(c):.17g}" for c in x) + "]"


class Accuracy(dict):
    """Running maxima of the accuracy columns."""

    def update_max(self, name, value):
        self[name] = max(self.get(name, 0.0), float(value))


@dataclasses.dataclass
class Workload:
    name: str
    unit: str  # what ops_per_s counts, for the printed report
    # (seed, part, quick, tracer, accuracy) -> iterator of passes; part 0 is the
    # timed stream and part 1 the traced one, drawn independently from the seed
    stream: Callable
    once: Optional[Callable] = None  # (seed, part, quick) -> ops run once before the passes
    children: bool = False  # the operations run in child processes, whose CPU time and RSS count


def fresh(draw, seen: set, tries: int = 1000):
    """A value of draw() not in seen (and now added to it), or None when none turns up."""
    for _ in range(tries):
        value = draw()
        if value not in seen:
            seen.add(value)
            return value
    return None


# ----------------------------------------------------------------- exact_sweep

EXACT_PASS_PAIRS = 500
SPEC_KINDS = ("dprod", "tprod", "oprod", "iprod", "d2", "t3")
SPEC_CONDITIONS = {
    "dprod": lambda l, n: gcd(l, 2 * n) == 1,
    "tprod": lambda l, n: gcd(l, 6) == 1,
    "oprod": lambda l, n: gcd(l, 6) == 1,
    "iprod": lambda l, n: gcd(l, 30) == 1,
    "d2": lambda l, n: l % 2 == 0 and gcd(l, n) == 1,
    "t3": lambda l, n: gcd(l, 6) == 3,
}


def random_spec(rng: random.Random):
    """A valid non-cyclic group with l > 1, as (kind, l, n, text)."""
    kind = rng.choice(SPEC_KINDS)
    dihedral = kind in ("dprod", "d2")
    while True:
        l = rng.randrange(2, 10**6)
        n = rng.randrange(2, 40) if dihedral else None
        if SPEC_CONDITIONS[kind](l, n):
            break
    text = f"{kind}:l={l},n={n}" if dihedral else f"{kind}:l={l}"
    return kind, l, n, text


def exact_band(seed: int, quick: bool):
    """(lo, width, pmax, lmax): the band of p, and the sizes of the two one-off calls.

    The band p in [lo, lo + 500) holds about 230,000 coprime pairs, so a
    run draws each pair at most once; it moves only a little with the
    seed, so every seed costs about the same.
    """
    rng = random.Random(seed)
    if quick:
        return rng.randrange(20, 30), 40, 20, 100
    return rng.randrange(500, 521), 500, 2 * rng.randrange(95, 100), 2 * rng.randrange(400, 500)


def resolve_pair(p, q):
    exp = hj.hj_expand(p, q)
    chain = hj.lattice_chain(p, q)
    mono = hj.invariant_monomials(chain)
    atlas = hj.chart_atlas(chain)
    identities = (
        hj.determinant_identity_holds(chain),
        hj.monomial_relation_holds(chain),
        hj.transition_cocycle_holds(atlas),
    )
    report = moduli.moduli_report(groups.cyclic_group(p, q))
    return exp, chain, mono, atlas, identities, report


def spec_report(text):
    spec = groups.parse_group_spec(text)
    return spec, moduli.moduli_report(spec)


def band_pairs(lo, width, rng, part):
    """The coprime pairs (p, q), lo <= p < lo + width and 0 < q < p, in a seeded order.

    Index i stands for p = lo + i // m, q = i % m; a seeded affine map
    k -> (a k + b) mod n visits every index once, so no pair repeats and
    nothing grows with the number drawn.  Part 0 walks the first half of
    that order and part 1 the second, so the two never meet.
    """
    m = lo + width
    n = width * m
    a = rng.randrange(n // 3, n)
    while gcd(a, n) != 1:
        a += 1
    b = rng.randrange(n)
    for k in range(part * (n // 2), (part + 1) * (n // 2)):
        p, q = divmod((a * k + b) % n, m)
        p += lo
        if 0 < q < p and gcd(p, q) == 1:
            yield p, q


def exact_stream(seed, part, quick, tracer, accuracy):
    """Passes of fresh coprime pairs from the band, with one fresh group spec per 25."""
    lo, width, _, _ = exact_band(seed, quick)
    rng = random.Random(f"{seed}/{part}")
    n_pairs = 8 if quick else EXACT_PASS_PAIRS
    pairs = band_pairs(lo, width, random.Random(seed), part)
    seen_specs = set()

    while True:
        ops = []
        for _ in range(n_pairs):
            pair = next(pairs, None)
            if pair is None:
                return  # the band is used up; the run ends with the passes it has
            p, q = pair
            ops.append(Op(
                "resolve", f"(p, q) = ({p}, {q})",
                lambda p=p, q=q: resolve_pair(p, q),
                lambda r, p=p, q=q: oracles.check_pair(p, q, *r),
            ))
        for _ in range(max(1, n_pairs // 25)):
            k, l, n, text = fresh(lambda: random_spec(rng), seen_specs)
            ops.append(Op(
                "group_spec", repr(text),
                lambda text=text: spec_report(text),
                lambda r, k=k, l=l, n=n: oracles.check_spec(k, l, n, *r),
            ))
        rng.shuffle(ops)
        yield ops


def exact_once(seed, part, quick):
    """The sweep and the table once per stream, at sizes no other stream of the run uses."""
    _, _, pmax, lmax = exact_band(seed, quick)
    pmax, lmax = pmax + part, lmax + part
    return [
        Op("riemenschneider_sweep", f"pmax = {pmax}", lambda: moduli.riemenschneider_sweep(pmax),
           lambda r: oracles.check_sweep(pmax, r)),
        Op("table3_rows", f"lmax = {lmax}", lambda: moduli.table3_rows(lmax),
           lambda r: oracles.check_table3(lmax, r)),
    ]


# ---------------------------------------------------------------- metric_sweep

SWEEP_FAMILIES = ("flat", "eguchi_hanson", "burns", "custom_radial")
SWEEP_POINTS = 256


def verify(pot, points):
    return cv.verify_scalar_flat(pot, cv.SamplePlan(points))


def check_verify(family, report, accuracy):
    s = np.asarray(report.scalar_values)
    if not (report.passed and report.metric_positive and np.isfinite(s).all()):
        return f"report failed: passed={report.passed} positive={report.metric_positive}"
    worst = int(np.argmax(np.abs(s)))
    if family != "flat":
        accuracy.update_max("s_abs_max", abs(s[worst]))
    return oracles.check_scalar(family, float(s[worst]))


def sweep_stream(seed, part, quick, tracer, accuracy):
    """Passes of one fresh plan per family: geometric radii over a factor 8, uniform directions."""
    rng = np.random.default_rng([seed, part])
    n = 8 if quick else SWEEP_POINTS
    while True:
        ops = []
        for family in SWEEP_FAMILIES:
            rmin = rng.uniform(1.0, 1.5)
            points = np.geomspace(rmin, 8.0 * rmin, n)[:, None] * _unit_directions(rng, n)
            pot = potential(family, tracer)
            ops.append(Op(
                f"verify_scalar_flat[{family}]",
                f"{n} points from {_fmt(points[0])}",
                lambda pot=pot, pts=points: verify(pot, pts),
                lambda r, f=family: check_verify(f, r, accuracy),
                units=n,
            ))
        yield ops


# ---------------------------------------------------------------- metric_probe

PROBE_FAMILIES = ("flat", "eguchi_hanson", "burns", "custom_radial", "custom_general")
HESSIAN_FAMILIES = PROBE_FAMILIES[1:]
DECAY_FAMILIES = ("eguchi_hanson", "burns")
PROBE_PASS_CYCLES = 24


def derivative_probe(fn, x):
    return cv.scalar_curvature_derivative(cv.flat(), fn, _as_z(x))


def norm_probe(pot, points, delta):
    dev = cv.metric_deviations(pot, points)
    return dev, cv.weighted_sup_norm(list(zip(points, dev)), delta)


def check_linearization(kind, c, x, got, accuracy):
    want = oracles.linearization_closed_form(kind, c, x)
    err = abs(got - want) / abs(want)
    accuracy.update_max("lin_rel_err", err)
    if not err <= oracles.LIN_REL_TOL:
        return f"L = {got}, closed form {want} (relative error {err:.3g})"
    return None


def check_decay(family, est, accuracy):
    if est.no_signal:
        return "decay fit found no signal"
    err = abs(est.mu - oracles.MU_EXACT[family])
    accuracy.update_max("decay_mu_err", err)
    if not err <= oracles.DECAY_TOL:
        return f"mu = {est.mu}, exact {oracles.MU_EXACT[family]}"
    return None


def check_norm(family, points, delta, result):
    dev, norm = result
    reason = oracles.check_deviations(family, points, dev)
    if reason:
        return reason
    want = oracles.weighted_sup(points, dev, delta)
    if not abs(norm - want) <= 1e-12 * max(1.0, want):
        return f"weighted sup norm {norm}, recomputed {want}"
    return None


def check_probe_scalar(family, s, accuracy):
    if family != "flat":
        accuracy.update_max("s_abs_max", abs(s))
    return oracles.check_scalar(family, s)


def probe_cycle(rng, pots, tracer, accuracy):
    """One cycle of 14 probes, each on its own fresh input.

    A cycle is five scalar curvatures, four Hessians, two derivatives,
    two decay fits and one norm.  Six probes are faster than the
    Eguchi-Hanson decay fit and six slower than the flat scalar
    curvature, and those two cost about the same, so the median latency
    sits inside that pair rather than in the gap between two clusters,
    where machine noise would move it most.
    """
    ops = []
    for f in PROBE_FAMILIES:
        x = _probe_point(rng)
        ops.append(Op(f"scalar_curvature[{f}]", f"z = {_fmt(x)}",
                      lambda pot=pots[f], x=x: cv.scalar_curvature(pot, _as_z(x)),
                      lambda s, f=f: check_probe_scalar(f, s, accuracy)))
    for f in HESSIAN_FAMILIES:
        x = _probe_point(rng)
        ops.append(Op(f"hermitian_hessian[{f}]", f"z = {_fmt(x)}",
                      lambda pot=pots[f], x=x: cv.hermitian_hessian(pot, _as_z(x)),
                      lambda g, f=f, x=x: oracles.check_hessian(f, x, g)))
    for kind in ("u2", "x6"):
        x = rng.uniform(-1.0, 1.0, 4)
        x[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4)
        if kind == "u2":
            c = rng.uniform(0.05, 0.2)
            fn = lambda z1, z2, c=c: c * (abs(z1) ** 2 + abs(z2) ** 2) ** 2
        else:
            c = rng.uniform(0.02, 0.08)
            fn = lambda z1, z2, c=c: c * z1.real**6
        ops.append(Op(f"scalar_curvature_derivative[{kind}]",
                      f"f = {c:.17g} {'u^2' if kind == 'u2' else 'x0^6'}, z = {_fmt(x)}",
                      lambda fn=tracer.phi(fn), x=x: derivative_probe(fn, x),
                      lambda got, kind=kind, c=c, x=x: check_linearization(kind, c, x, got, accuracy)))
    for f in DECAY_FAMILIES:
        r0 = rng.uniform(2.0, 3.0)
        radii = np.geomspace(r0, 32.0 * r0, 10)
        ops.append(Op(f"decay_order[{f}]", f"radii {r0:.17g} .. {32 * r0:.17g} (10)",
                      lambda pot=pots[f], radii=radii: cv.decay_order(pot, radii),
                      lambda est, f=f: check_decay(f, est, accuracy)))
    pts = np.geomspace(1.5, 12.0, 8)[:, None] * _unit_directions(rng, 8)
    delta = rng.uniform(1.0, 4.0)
    ops.append(Op("weighted_sup_norm[eguchi_hanson]", f"delta = {delta:.17g}, 8 points from {_fmt(pts[0])}",
                  lambda pot=pots["eguchi_hanson"], pts=pts, delta=delta: norm_probe(pot, pts, delta),
                  lambda r, pts=pts, delta=delta: check_norm("eguchi_hanson", pts, delta, r)))
    return ops


def probe_stream(seed, part, quick, tracer, accuracy):
    """Passes of PROBE_PASS_CYCLES cycles; the potentials are built anew for each pass."""
    rng = np.random.default_rng([seed, part])
    while True:
        pots = {f: potential(f, tracer) for f in PROBE_FAMILIES}
        ops = []
        for _ in range(1 if quick else PROBE_PASS_CYCLES):
            ops += probe_cycle(rng, pots, tracer, accuracy)
        yield ops


def census_points(seed: int, n: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 2])
    return [_probe_point(rng) for _ in range(n)]


# -------------------------------------------------------------------- cli_verbs


def cli_expected() -> dict[str, dict]:
    """The fields each verb's JSON must carry, from in-process library calls."""
    chain = hj.lattice_chain(7, 3)
    exp, atlas = hj.hj_expand(7, 3), hj.chart_atlas(chain)
    spec = groups.parse_group_spec("dprod:l=3,n=5")
    rep = moduli.moduli_report(spec)
    report = cv.verify_scalar_flat(
        cv.eguchi_hanson(1.0), cv.SamplePlan(cv.sample_points(1.0, 8.0, 32)), tol=1e-4
    )
    est = cv.decay_order(cv.burns(1.0), np.geomspace(2.0, 64.0, 10))
    return {
        "resolve": {
            "coeffs": list(exp.coeffs),
            "dual_coeffs": list(exp.dual_coeffs),
            "lattice_points": [[f"{s.numerator}/{s.denominator}", f"{t.numerator}/{t.denominator}"]
                               for s, t in chain.points],
            "monomials": [hj.format_monomial(m) for m in hj.invariant_monomials(chain).descending],
            "charts": [{"u": list(c.u), "v": list(c.v)} for c in atlas.charts],
            "identities": {"riemenschneider": "pass", "determinant": "pass", "cocycle": "pass"},
        },
        "moduli": {
            "group_order": groups.group_order(spec),
            "moduli_dim": rep.moduli_dim,
            "family_dim": rep.family_dim,
            "deformations": rep.deformations,
            "curves": rep.curves,
            "case": rep.case_tag,
        },
        "table": {"table": 3, "rows": moduli.table3_rows(200)},
        "verify-metric": {
            "passed": True,
            "max_abs_scalar": oracles.round12(report.max_abs_scalar),
            "scalar_values": [oracles.round12(s) for s in report.scalar_values],
        },
        "decay": {"no_signal": False, "mu": oracles.round12(est.mu)},
        "riemenschneider": moduli.riemenschneider_sweep(60),
    }


def check_cli(verb, proc, expected):
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    payload = json.loads(proc.stdout)
    for key, want in expected[verb].items():
        if payload.get(key) != want:
            return f"JSON field {key!r} = {str(payload.get(key))[:200]}, library gives {str(want)[:200]}"
    return None


def cli_stream(seed, part, quick, tracer, accuracy):
    """Passes of the six verbs with their fixed arguments, each in a fresh process.

    No process serves two operations, so nothing the program could
    cache in memory survives from one operation to the next.  The
    expected fields are computed here, before any pass is timed or traced.
    """
    expected = cli_expected()
    ops = [
        Op(verb, " ".join(argv),
           lambda v=verb, a=argv: tracer.call(f"cli.{v}", run_child, ("-m", "sfkale.cli", *a)),
           lambda proc, v=verb: check_cli(v, proc, expected))
        for verb, argv in CLI_VERBS
    ]
    return itertools.repeat(ops)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact_sweep", "ops (pairs and group specs)", exact_stream, exact_once),
        Workload("metric_sweep", "sample points", sweep_stream),
        Workload("metric_probe", "probes", probe_stream),
        Workload("cli_verbs", "verb processes", cli_stream, children=True),
    )
}


# ------------------------------------------------------------- traced extras

CENSUS = (
    ("scalar_o4", lambda pot, z: cv.scalar_curvature(pot, z, order=4)),
    ("scalar_o2", lambda pot, z: cv.scalar_curvature(pot, z, order=2)),
    ("hessian_o4", lambda pot, z: cv.hermitian_hessian(pot, z, order=4)),
)


def phi_census(points, h0: float = 1e-2) -> dict[str, float]:
    """Phi evaluations per point of a custom_general potential.

    calls_per_point counts every call; sites_per_point counts distinct
    lattice sites, keyed by their integer offset in steps h from the
    point, so the counts depend only on the stencils and repeat exactly
    for any point.  The timing pass runs without the site bookkeeping.
    """
    out = {}
    for cfg, evaluate in CENSUS:
        calls = sites = phi_s = call_s = 0.0
        for x in points:
            x = [float(c) for c in x]
            h = h0 * (1.0 + math.sqrt(sum(c * c for c in x)))
            seen = set()

            def counting(z1, z2):
                seen.add((round((z1.real - x[0]) / h), round((z1.imag - x[1]) / h),
                          round((z2.real - x[2]) / h), round((z2.imag - x[3]) / h)))
                return burns_general(z1, z2)

            tracer = Tracer()
            tracer.call("census", evaluate, cv.custom_general(tracer.phi(counting)), _as_z(x))
            calls += tracer.spans[0][PHI_CALLS]
            sites += len(seen)
            tracer = Tracer()
            tracer.call("census", evaluate, cv.custom_general(tracer.phi(burns_general)), _as_z(x))
            span = tracer.spans[0]
            phi_s += span[PHI_S]
            call_s += span[END] - span[START]
        n = len(points)
        out[f"phi.{cfg}.calls_per_point"] = calls / n
        out[f"phi.{cfg}.sites_per_point"] = sites / n
        out[f"phi.{cfg}.useful_ratio"] = sites / calls
        out[f"phi.{cfg}.s"] = phi_s / n
        out[f"phi.{cfg}.call_s"] = call_s / n
    return out


def cli_variant(verb: str, k: int) -> tuple[str, ...]:
    """The verb with its arguments moved by k, so no in-process call repeats another."""
    return {
        "resolve": ("resolve", "--p", str(7 + 2 * k), "--q", "2", "--json"),
        "moduli": ("moduli", "--group", f"dprod:l={3 + 2 * k},n=4", "--json"),
        "table": ("table", "--which", "3", "--lmax", str(200 + k), "--json"),
        "verify-metric": ("verify-metric", "--potential", "eguchi-hanson", "--rmin", f"{1 + 0.05 * k:g}",
                          "--rmax", "8", "--samples", "32", "--json"),
        "decay": ("decay", "--potential", "burns", "--radii", f"{2 + 0.1 * k:g}:64:10", "--json"),
        "riemenschneider": ("riemenschneider", "--pmax", str(60 + k), "--json"),
    }[verb]


def cli_main(argv) -> tuple[int, str]:
    from sfkale import cli  # only the cli workload pays for importing the front end

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_extras(repeats: int) -> dict[str, float]:
    """Interpreter start, import cost and in-process cli.main per verb.

    cli.main runs once per verb to finish lazy set-up, then `repeats`
    times on other arguments; a call that exits non-zero raises.
    """
    bare = median(time_children(("-c", "pass"), repeats))
    imported = median(time_children(("-c", "import sfkale.cli"), repeats))
    out = {"cli.interp_s": bare, "cli.import_s": imported - bare}
    for verb, _ in CLI_VERBS:
        times = []
        for k in range(repeats + 1):
            argv = cli_variant(verb, k)
            t0 = time.perf_counter()
            code, _ = cli_main(argv)
            times.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"cli.main({list(argv)}) returned {code}")
        out[f"cli.main.{verb}.s"] = median(times[1:])
    return out
