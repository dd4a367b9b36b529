"""Command-line front end.

Verbs: resolve, moduli, table, verify-metric, decay, riemenschneider.
Exit codes: 0 success, 1 usage or validation error, 2 mathematical
verification failure, 141 (128 + SIGPIPE) when the reader of stdout
closes the pipe early, as `sfkale ... | head -1` does.  JSON mode
always emits exactly one top-level object; floats are printed with 12
significant digits and exact rationals as "num/den" strings.  The
exact verbs (resolve, moduli, table, riemenschneider) are byte-for-byte
reproducible for fixed flags.  The numeric verbs (verify-metric, decay)
are not across machines: their JSON floats with 8 or more significant
digits move with the CPU kernels numpy picks, so tests/test_cli.py
masks them in its all-verbs digest; their text lines, with 7
significant digits or fewer, read the same under every kernel tried.

Each verb's handler returns (payload, text, code): the JSON payload, a
generator of text lines, formatted only if main prints them, and the
exit code.  No handler prints; main alone prints and maps errors to codes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__, hj, moduli
from .errors import SfkaleError
from .groups import format_group_spec, group_order, parse_group_spec


EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for
    # verification failures here, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _json_value(x):
    if x is None or isinstance(x, (int, str, bool)):
        return x
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return None
    return float(f"{x:.12g}")


def _ratio_str(a: int, p: int) -> str:
    g = math.gcd(a, p)
    return f"{a // g}/{p // g}"


def _cmd_resolve(args):
    exp = hj.hj_expand(args.p, args.q)
    chain = hj.lattice_chain(args.p, args.q)
    monomials = hj.invariant_monomials(chain)
    atlas = hj.chart_atlas(chain)

    identities = {
        "riemenschneider": moduli.riemenschneider_identities_hold(exp),
        "determinant": hj.determinant_identity_holds(chain),
        # on chart_atlas(chain) the cocycle's steps are monomial_relation_holds' relations
        "cocycle": hj.transition_cocycle_holds(atlas),
    }
    payload = {
        "p": exp.p,
        "q": exp.q,
        "coeffs": list(exp.coeffs),
        "dual_coeffs": list(exp.dual_coeffs),
        "lattice_points": [[_ratio_str(a, exp.p), _ratio_str(b, exp.p)] for a, b in chain.vectors],
        "monomials": [hj.format_monomial(m) for m in monomials.descending],
        "charts": [{"u": list(c.u), "v": list(c.v)} for c in atlas.charts],
        "identities": {name: "pass" if ok else "fail" for name, ok in identities.items()},
    }

    def text():
        yield f"singularity 1/{exp.p}(1,{exp.q})"
        yield f"  coeffs      [{', '.join(map(str, exp.coeffs))}]"
        yield f"  dual coeffs [{', '.join(map(str, exp.dual_coeffs))}]"
        pts = "  ".join(f"({a}, {b})" for a, b in payload["lattice_points"])
        yield f"  chain       {pts}"
        yield f"  monomials   {'  '.join(payload['monomials'])}"
        for c in atlas.charts:
            yield f"  chart {c.index}: u = {c.u}, v = {c.v}"
        yield (
            "  identities  riemenschneider:{riemenschneider}  determinant:{determinant}"
            "  cocycle:{cocycle}".format(**payload["identities"])
        )

    return payload, text(), 0 if all(identities.values()) else 2


def _cmd_moduli(args):
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

    def text():
        yield f"{'group':<14}{payload['group']} (order {payload['group_order']})"
        yield f"{'case':<14}{payload['case']}"
        for key in ("moduli_dim", "family_dim", "deformations", "curves"):
            yield f"{key:<14}{payload[key]}"
        yield f"{'note':<14}{payload['note']}"
    return payload, text(), 0


def _cmd_table(args):
    rows = moduli.table1_rows(args.pmax) if args.which == 1 else moduli.table3_rows(args.lmax)

    def text():
        if args.which == 1:
            yield f"{'group':<12}{'d':>6}{'m':>6}"
            for row in rows:
                yield f"{row['label']:<12}{row['family_dim']:>6}{row['moduli_dim']:>6}"
        else:
            yield f"{'family':<8}{'congruence':<16}{'l':>6}{'m':>6}"
            for row in rows:
                cong = f"{row['residue']} mod {row['modulus']}"
                yield f"{row['kind']:<8}{cong:<16}{row['l']:>6}{row['moduli_dim']:>6}"
    return {"table": args.which, "rows": rows}, text(), 0


# each potential with the flag of its parameter; the numeric verbs import
# curvature (and with it numpy) themselves, so the exact verbs start
# without numpy
_POTENTIALS = {
    "flat": (None, lambda cv, value: cv.flat()),
    "eguchi-hanson": ("a", lambda cv, value: cv.eguchi_hanson(value)),
    "burns": ("m", lambda cv, value: cv.burns(value)),
}


def _add_potential_flags(sub) -> None:
    sub.add_argument("--potential", required=True, choices=sorted(_POTENTIALS))
    sub.add_argument("--a", type=float, help="eguchi-hanson length scale (default 1)")
    sub.add_argument("--m", type=float, help="burns mass parameter (default 1)")
    sub.add_argument("--order", type=int, choices=(2, 4), default=4)
    sub.add_argument("--h0", type=float, default=1e-2)


def _potential(curvature, args):
    """The potential the flags name, its payload fields and its header line.

    A parameter flag given for another potential is a usage error.
    """
    for name, (flag, _) in _POTENTIALS.items():
        if flag and name != args.potential and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies to --potential {name}, not {args.potential}")
    flag, make = _POTENTIALS[args.potential]
    value = getattr(args, flag) if flag else None
    potential = make(curvature, 1.0 if value is None else value)
    fields = {"potential": potential.name, "parameter": _json_value(potential.parameter)}

    def header():
        return f"potential   {potential.name} (parameter {potential.parameter:g})"

    return potential, fields, header


def _cmd_verify_metric(args):
    from . import curvature

    potential, fields, header = _potential(curvature, args)
    points = curvature.sample_points(args.rmin, args.rmax, args.samples)
    plan = curvature.SamplePlan(points, h0=args.h0, order=args.order)
    report = curvature.verify_scalar_flat(potential, plan, tol=args.tol)
    payload = {
        **fields,
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

    def text():
        yield header()
        yield (
            f"samples     {args.samples} points, radii [{args.rmin:g}, {args.rmax:g}],"
            f" order {args.order}, h0 {args.h0:g}"
        )
        largest = "none finite" if report.max_abs_scalar is None else f"{report.max_abs_scalar:.6e}"
        yield f"max |S|     {largest} (tolerance {args.tol:g})"
        if report.worst_index is not None:
            i = report.worst_index
            yield f"worst       point {i}, radius {plan.radii[i]:g}"
        yield f"metric      {'positive definite' if report.metric_positive else 'DEGENERATE'}"
        for i in report.degenerate_indices:
            yield f"degenerate  point {i}, radius {plan.radii[i]:g}"
        yield "PASS" if report.passed else "FAIL"
    return payload, text(), 0 if report.passed else 2


def _parse_radii(text: str):
    import numpy as np

    try:
        r0, r1, steps = text.split(":")
        r0, r1, steps = float(r0), float(r1), int(steps)
    except ValueError:
        raise ValueError(f"radii must be given as R0:R1:steps, got {text}") from None
    if steps < 2 or not 0 < r0 < r1 < math.inf:
        raise ValueError(f"radii need finite 0 < R0 < R1 and at least 2 steps, got {text}")
    return np.geomspace(r0, r1, steps)


def _cmd_decay(args):
    from . import curvature

    potential, fields, header = _potential(curvature, args)
    radii = _parse_radii(args.radii)
    est = curvature.decay_order(potential, radii, h0=args.h0, order=args.order)
    payload = {
        **fields,
        "no_signal": est.no_signal,
        "mu": _json_value(est.mu),
        "residual": _json_value(est.residual),
        "radii": [_json_value(r) for r in est.radii],
        "deviations": [_json_value(d) for d in est.deviations],
    }

    def text():
        yield header()
        yield f"radii       {est.radii[0]:g} .. {est.radii[-1]:g} ({len(est.radii)} samples)"
        if est.no_signal:
            yield "deviation below noise floor: no decay signal"
        else:
            yield f"decay order {est.mu:.4f} (fit residual {est.residual:.3e})"
    return payload, text(), 0


def _cmd_riemenschneider(args):
    report = moduli.riemenschneider_sweep(args.pmax)

    def text():
        yield f"pmax        {report['pmax']}"
        yield f"pairs       {report['pairs_checked']}"
        if report["failures"]:
            yield f"FAIL at {report['first_failure']}"
        else:
            yield "all identities hold"
    return report, text(), 0 if report["failures"] == 0 else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="sfkale", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
        return p

    p = verb("resolve", _cmd_resolve, "resolution data for a cyclic singularity")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = verb("moduli", _cmd_moduli, "moduli dimensions for one group")
    p.add_argument("--group", required=True, help="e.g. cyclic:7,3 or dprod:l=3,n=5")

    p = verb("table", _cmd_table, "regenerate a dimension table")
    p.add_argument("--which", type=int, choices=(1, 3), required=True)
    p.add_argument("--pmax", type=int, default=50)
    p.add_argument("--lmax", type=int, default=100)

    p = verb("verify-metric", _cmd_verify_metric, "sample the scalar curvature of a potential")
    _add_potential_flags(p)
    p.add_argument("--rmin", type=float, required=True)
    p.add_argument("--rmax", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4)

    p = verb("decay", _cmd_decay, "estimate the metric decay order")
    _add_potential_flags(p)
    p.add_argument("--radii", required=True, help="R0:R1:steps (geometric spacing)")

    p = verb("riemenschneider", _cmd_riemenschneider, "sweep the dual-expansion identities")
    p.add_argument("--pmax", type=int, default=50)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload, text, code = args.func(args)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in text:
                print(line)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the interpreter's own
        # flush at exit does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except SystemExit as exc:
        # argparse exits with an int: 1 from _Parser.error, 0 after --help or --version
        return exc.code
    except (SfkaleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
