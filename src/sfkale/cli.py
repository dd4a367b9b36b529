"""Command-line front end.

Verbs: resolve, moduli, table, verify-metric, decay, riemenschneider.
Exit codes: 0 success, 1 usage or validation error, 2 mathematical
verification failure.  JSON mode always emits exactly one top-level
object; floats are printed with 12 significant digits and exact
rationals as "num/den" strings, so output is byte-for-byte
deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, hj, moduli
from .errors import SfkaleError
from .groups import format_group_spec, group_order, parse_group_spec


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for
    # verification failures here, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _round_float(x) -> float:
    return float(f"{float(x):.12g}")


def _json_value(x):
    if x is None or isinstance(x, (int, str, bool)):
        return x
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return None
    return _round_float(x)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _fraction_str(fr) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _cmd_resolve(args) -> int:
    exp = hj.hj_expand(args.p, args.q)
    chain = hj.lattice_chain(args.p, args.q)
    monomials = hj.invariant_monomials(chain)
    atlas = hj.chart_atlas(chain)

    riemenschneider_ok = moduli.riemenschneider_identities_hold(exp)
    determinant_ok = hj.determinant_identity_holds(chain)
    cocycle_ok = hj.transition_cocycle_holds(atlas) and hj.monomial_relation_holds(chain)

    verdict = {True: "pass", False: "fail"}
    payload = {
        "p": exp.p,
        "q": exp.q,
        "coeffs": list(exp.coeffs),
        "dual_coeffs": list(exp.dual_coeffs),
        "lattice_points": [
            [_fraction_str(s), _fraction_str(t)] for s, t in chain.points
        ],
        "monomials": [hj.format_monomial(m) for m in monomials.descending],
        "charts": [{"u": list(c.u), "v": list(c.v)} for c in atlas.charts],
        "identities": {
            "riemenschneider": verdict[riemenschneider_ok],
            "determinant": verdict[determinant_ok],
            "cocycle": verdict[cocycle_ok],
        },
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"singularity 1/{exp.p}({1},{exp.q})")
        print(f"  coeffs      [{', '.join(map(str, exp.coeffs))}]")
        print(f"  dual coeffs [{', '.join(map(str, exp.dual_coeffs))}]")
        pts = "  ".join(f"({a}, {b})" for a, b in payload["lattice_points"])
        print(f"  chain       {pts}")
        print(f"  monomials   {'  '.join(payload['monomials'])}")
        for c in atlas.charts:
            print(f"  chart {c.index}: u = {c.u}, v = {c.v}")
        ids = payload["identities"]
        print(
            "  identities  riemenschneider:{riemenschneider}  determinant:{determinant}"
            "  cocycle:{cocycle}".format(**ids)
        )
    all_ok = riemenschneider_ok and determinant_ok and cocycle_ok
    return 0 if all_ok else 2


def _cmd_moduli(args) -> int:
    spec = parse_group_spec(args.group)
    report = moduli.moduli_report(spec)
    payload = {
        "group": format_group_spec(spec),
        "kind": spec.kind.value,
        "group_order": group_order(spec),
        "moduli_dim": report.moduli_dim,
        "family_dim": report.family_dim,
        "deformations": report.deformations,
        "curves": report.curves,
        "case": report.case_tag,
        "note": report.formula_note,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"{'group':<14}{payload['group']} (order {payload['group_order']})")
        print(f"{'case':<14}{payload['case']}")
        for key in ("moduli_dim", "family_dim", "deformations", "curves"):
            val = payload[key]
            print(f"{key:<14}{'-' if val is None else val}")
        print(f"{'note':<14}{payload['note']}")
    return 0


def _cmd_table(args) -> int:
    if args.which == 1:
        rows = moduli.table1_rows(args.pmax)
        if args.json:
            _emit_json({"table": 1, "rows": rows})
        else:
            print(f"{'group':<12}{'d':>6}{'m':>6}")
            for row in rows:
                print(f"{row['label']:<12}{row['family_dim']:>6}{row['moduli_dim']:>6}")
    else:
        rows = moduli.table3_rows(args.lmax)
        if args.json:
            _emit_json({"table": 3, "rows": rows})
        else:
            print(f"{'family':<8}{'congruence':<16}{'l':>6}{'m':>6}")
            for row in rows:
                cong = f"{row['residue']} mod {row['modulus']}"
                print(f"{row['kind']:<8}{cong:<16}{row['l']:>6}{row['moduli_dim']:>6}")
    return 0


# the numeric verbs import curvature (and with it numpy) themselves, so
# the exact verbs start without numpy
_POTENTIALS = {
    "flat": lambda cv, args: cv.flat(),
    "eguchi-hanson": lambda cv, args: cv.eguchi_hanson(args.a),
    "burns": lambda cv, args: cv.burns(args.m),
}


def _add_potential_flags(sub) -> None:
    sub.add_argument("--potential", required=True, choices=sorted(_POTENTIALS))
    sub.add_argument("--a", type=float, default=1.0, help="eguchi-hanson length scale")
    sub.add_argument("--m", type=float, default=1.0, help="burns mass parameter")
    sub.add_argument("--order", type=int, choices=(2, 4), default=4)
    sub.add_argument("--h0", type=float, default=1e-2)


def _cmd_verify_metric(args) -> int:
    from . import curvature

    potential = _POTENTIALS[args.potential](curvature, args)
    points = curvature.sample_points(args.rmin, args.rmax, args.samples)
    plan = curvature.SamplePlan(points, h0=args.h0, order=args.order)
    report = curvature.verify_scalar_flat(potential, plan, tol=args.tol)
    payload = {
        "potential": potential.name,
        "parameter": _json_value(potential.parameter),
        "rmin": _json_value(args.rmin),
        "rmax": _json_value(args.rmax),
        "samples": args.samples,
        "order": args.order,
        "h0": _json_value(args.h0),
        "tolerance": _json_value(args.tol),
        "max_abs_scalar": _json_value(report.max_abs_scalar),
        "metric_positive": report.metric_positive,
        "passed": report.passed,
        "scalar_values": [_json_value(s) for s in report.scalar_values],
        "worst_index": report.worst_index,
        "degenerate_indices": list(report.degenerate_indices),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"potential   {potential.name} (parameter {potential.parameter:g})")
        print(
            f"samples     {args.samples} points, radii [{args.rmin:g}, {args.rmax:g}],"
            f" order {args.order}, h0 {args.h0:g}"
        )
        print(f"max |S|     {report.max_abs_scalar:.6e} (tolerance {args.tol:g})")
        radii = plan.radii
        if report.worst_index is not None:
            i = report.worst_index
            print(f"worst       point {i}, radius {radii[i]:g}")
        print(f"metric      {'positive definite' if report.metric_positive else 'DEGENERATE'}")
        for i in report.degenerate_indices:
            print(f"degenerate  point {i}, radius {radii[i]:g}")
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 2


def _parse_radii(text: str):
    import numpy as np

    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("radii must be given as R0:R1:steps")
    r0, r1, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 2 or r0 <= 0 or r1 <= r0:
        raise ValueError("radii need 0 < R0 < R1 and at least 2 steps")
    return np.geomspace(r0, r1, steps)


def _cmd_decay(args) -> int:
    from . import curvature

    potential = _POTENTIALS[args.potential](curvature, args)
    radii = _parse_radii(args.radii)
    est = curvature.decay_order(potential, radii, h0=args.h0, order=args.order)
    payload = {
        "potential": potential.name,
        "parameter": _json_value(potential.parameter),
        "no_signal": est.no_signal,
        "mu": _json_value(est.mu),
        "residual": _json_value(est.residual),
        "radii": [_json_value(r) for r in est.radii],
        "deviations": [_json_value(d) for d in est.deviations],
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"potential   {potential.name} (parameter {potential.parameter:g})")
        print(f"radii       {est.radii[0]:g} .. {est.radii[-1]:g} ({len(est.radii)} samples)")
        if est.no_signal:
            print("deviation below noise floor: no decay signal")
        else:
            print(f"decay order {est.mu:.4f} (fit residual {est.residual:.3e})")
    return 0


def _cmd_riemenschneider(args) -> int:
    report = moduli.riemenschneider_sweep(args.pmax)
    if args.json:
        _emit_json(report)
    else:
        print(f"pmax        {report['pmax']}")
        print(f"pairs       {report['pairs_checked']}")
        if report["failures"]:
            print(f"FAIL at {report['first_failure']}")
        else:
            print("all identities hold")
    return 0 if report["failures"] == 0 else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="sfkale", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("resolve", help="resolution data for a cyclic singularity")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("moduli", help="moduli dimensions for one group")
    p.add_argument("--group", required=True, help="e.g. cyclic:7,3 or dprod:l=3,n=5")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_moduli)

    p = sub.add_parser("table", help="regenerate a dimension table")
    p.add_argument("--which", type=int, choices=(1, 3), required=True)
    p.add_argument("--pmax", type=int, default=50)
    p.add_argument("--lmax", type=int, default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify-metric", help="sample the scalar curvature of a potential")
    _add_potential_flags(p)
    p.add_argument("--rmin", type=float, required=True)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_metric)

    p = sub.add_parser("decay", help="estimate the metric decay order")
    _add_potential_flags(p)
    p.add_argument("--radii", required=True, help="R0:R1:steps (geometric spacing)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("riemenschneider", help="sweep the dual-expansion identities")
    p.add_argument("--pmax", type=int, default=50)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_riemenschneider)

    return parser


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    print(exc.code, file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _exit_code(exc)
    try:
        return args.func(args)
    except SystemExit as exc:
        return _exit_code(exc)
    except (SfkaleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
