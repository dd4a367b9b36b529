"""The repository's benchmark: seeded workloads over both engines and the CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): exact_sweep, metric_sweep, metric_probe,
cli_verbs.  Each is a closed loop with one caller in one process; BLAS
threads are pinned to 1.  Every operation is checked by an oracle that
does not share the timed code (oracles.py); failures count in `failed`
and name the workload, operation and input.

--trace 0 measures the end-to-end metrics of BENCHMARK.json with
tracing off:
  setup_s      median over fresh interpreters of importing sfkale and
               making the first call into each layer the workload uses
  ops_per_s    operations (sample points for metric_sweep) per second of
               time spent inside the program
  op_p50_ms    median operation latency
  op_tail_ms   highest percentile with at least 10 samples beyond it
               (the maximum below 20 samples); the report names it
  rss_peak_mb  peak RSS of the workload process (of the verb processes
               for cli_verbs)
Times are CPU seconds (user plus system) of the process that runs the
program: this process, or each verb process for cli_verbs, or each
set-up interpreter.  The program is single-threaded (BLAS pinned), so on
an idle machine this is its wall time; on a shared host it leaves out
the time the CPU served other processes or other guests, which wall
time would count as the program's.  A shared host also changes how fast
the CPU runs, by half again within seconds; so a fixed pure-Python
reference kernel (harness.reference_kernel) is timed between operations,
and every time is scaled to a machine on which that kernel takes
harness.REF_KERNEL_S (0.25 ms, about a 2-vCPU Xeon VM at its usual
speed); each operation is scaled by the kernel samples just before and
after it.  The report prints the kernel's own median beside the figures.
The run is a stream of passes, each a fixed mix of operations on inputs
no earlier operation saw; the timings are taken per pass and reported
as the median over passes.

--trace 1 spends half the time untraced and half traced, on separate
input streams, then reports the per-layer metrics of BENCHMARK.json.
The traced half wraps every public function of hj, groups, moduli and
curvature wherever sfkale looks it up, so calls from one layer into
another get spans too.  <module>.<function>.s is the mean seconds per
call, .per_point_s the seconds per point (sample point, radius, chain
point, or pair checked by the sweep); self.<layer>.s is self time per
operation (spans minus child spans and Phi time); phi.* come from a
census of a counting custom_general potential; accuracy columns
(s_abs_max, decay_mu_err, lin_rel_err) are maxima over the whole run;
the report also lists the number of calls per span name.
A per-layer metric of a layer the workload does not use reads 0.

The last stdout line is the JSON result; lines before it are the
report.  Spans and the full record (environment, failures, latencies) are written
under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import harness
from harness import NullTracer, Tracer, closed_loop, median

for _var in harness.BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # harness does not import numpy; this runs before anything does


def benchmark_spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import sfkale from this checkout's src, never from anywhere else."""
    init = harness.SRC / "sfkale" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(harness.ROOT)} not found; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(harness.SRC))
    import sfkale

    if os.path.realpath(sfkale.__file__) != os.path.realpath(init):
        raise SystemExit(f"perfbench: imported sfkale from {sfkale.__file__}, not {init}")
    import workloads

    return workloads


def op_clock(w):
    return harness.children_cpu_seconds if w.children else time.process_time


def end_to_end(wl, w, seed, seconds, quick):
    accuracy = wl.Accuracy()
    tracer = NullTracer()
    once = w.once(seed, 0, quick) if w.once else []
    loop = closed_loop(w.name, w.stream(seed, 0, quick, tracer, accuracy), tracer, seconds, once,
                       op_clock(w))
    rss = harness.peak_rss_mb(children=w.children)
    setup = harness.child_seconds(
        ("perfbench/first_call.py", w.name), repeats=1 if quick else 9, warmup=0 if quick else 1
    )
    tail_s, tail_pct = loop.tail()
    counted = (f"median over {len(loop.passes)} passes of {len(loop.passes[0])} ops; "
               f"{loop.attempted} ops in {loop.wall_s:.1f} s; kernel {1e3 * loop.kernel():.4g} ms")
    metrics = {
        "setup_s": median(setup),
        "ops_per_s": loop.rate(),
        "op_p50_ms": 1e3 * loop.p50(),
        "op_tail_ms": 1e3 * tail_s,
        "rss_peak_mb": rss,
    }
    notes = {
        "setup_s": f"scaled CPU time, median of {len(setup)} fresh interpreters",
        "ops_per_s": f"{w.unit} per scaled CPU second inside the program, {counted}",
        "op_p50_ms": f"scaled CPU time, p50, {counted}",
        "op_tail_ms": f"scaled CPU time, p{tail_pct:.4g}, {counted}",
        "rss_peak_mb": "verb processes" if w.children else "workload process",
    }
    extra = {"fail_ratio": len(loop.failures) / loop.attempted, **accuracy}
    return [loop], metrics, notes, extra


def per_layer(wl, w, seed, seconds, quick):
    accuracy = wl.Accuracy()
    null = NullTracer()
    once = w.once(seed, 0, quick) if w.once else []
    untraced = closed_loop(w.name, w.stream(seed, 0, quick, null, accuracy), null, seconds / 2, once,
                           op_clock(w))
    tracer = Tracer()
    once = w.once(seed, 1, quick) if w.once else []
    with tracer.patched(wl.TRACED_MODULES, wl.POINTS_OF):
        traced = closed_loop(w.name, w.stream(seed, 1, quick, tracer, accuracy), tracer,
                             seconds / 2, once, op_clock(w))

    values: dict[str, float] = {}
    for layer, s in tracer.self_seconds().items():
        values[f"self.{layer}.s"] = s / traced.attempted
    layers = {m.__name__.rsplit(".", 1)[-1] for m in wl.TRACED_MODULES}
    calls = {}
    for name, spans in tracer.by_name().items():
        module = name.split(".", 1)[0]
        durations = [sp[harness.END] - sp[harness.START] for sp in spans]
        calls[name] = len(spans)
        if module in layers:
            values[f"{name}.s"] = sum(durations) / len(durations)
            if name in wl.POINTS_OF:
                values[f"{name}.per_point_s"] = sum(durations) / sum(sp[harness.POINTS] for sp in spans)
        elif module == "cli":
            values[f"{name}.wall_s"] = median(durations)
    untraced_rate = untraced.rate()
    traced_rate = traced.rate()
    values["trace.overhead"] = untraced_rate / traced_rate

    if w.name in ("metric_sweep", "metric_probe"):
        values.update(wl.phi_census(wl.census_points(seed, 1 if quick else 4)))
    if w.name == "cli_verbs":
        values.update(wl.cli_extras(repeats=1 if quick else 3))
    loops = [untraced, traced]
    values["fail_ratio"] = sum(len(l.failures) for l in loops) / sum(l.attempted for l in loops)
    values.update(accuracy)
    notes = {"trace.overhead": f"untraced {untraced_rate:.6g} / traced {traced_rate:.6g} {w.unit}/s"}
    return loops, values, notes, tracer, calls


def run(name: str, seed: int, seconds: float, trace: int, quick: bool = False) -> dict:
    """Run one workload and return the full record; record["result"] is the JSON line."""
    wl = import_program()
    w = wl.WORKLOADS[name]
    spec = benchmark_spec()
    tracer, calls = None, {}
    if trace:
        loops, values, notes, tracer, calls = per_layer(wl, w, seed, seconds, quick)
        declared = spec["per_layer"]
        extra = {}
    else:
        loops, values, notes, extra = end_to_end(wl, w, seed, seconds, quick)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    failures = [f for loop in loops for f in loop.failures]
    attempted = sum(loop.attempted for loop in loops)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "environment": harness.environment(),
        "notes": notes,
        "extra": extra,
        "undeclared": {k: v for k, v in values.items() if k not in metrics},
        "calls": calls,
        "failures": failures,
        "latencies_s": [{"once": loop.once, "scaled": loop.passes, "measured": loop.raw_passes,
                         "kernel_s": loop.kernel_s} for loop in loops],
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        },
    }
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = harness.OUT_DIR / f"{name}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id", "points",
                                  "phi_calls", "phi_s"], "spans": tracer.spans}, fh)
    return record


def report(record) -> None:
    env = record["environment"]
    print(f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']:g} "
          f"trace={record['trace']}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items() if k != "blas_threads")
          + " blas_threads=" + ",".join(f"{k}={v}" for k, v in env["blas_threads"].items()))
    for name, m in record["result"]["metrics"].items():
        note = record["notes"].get(name, "")
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {note}")
    for name, value in record["extra"].items():
        print(f"  {name:<44} {value:>14.6g}")
    for name, n in record["calls"].items():
        print(f"  calls {name:<38} {n:>14d}")
    res = record["result"]
    print(f"  failed {res['failed']} of {res['attempted']} operations")
    for f in record["failures"][:10]:
        print(f"FAIL {f['workload']} {f['op']} {f['input']}: {f['reason']}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("exact_sweep", "metric_sweep", "metric_probe", "cli_verbs"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs and one set-up interpreter, for the benchmark's own tests")
    args = ap.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, args.trace, args.quick)
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
