"""Write the benchmark's baseline: every workload over fixed seeds.

    python3 perfbench/sweep.py --trace 0    # seeds 1-10 -> perfbench/baseline.json
    python3 perfbench/sweep.py --trace 1    # seeds 1-3  -> perfbench/baseline_layers.json

Each run is the command of BENCHMARK.json with its run_seconds, one
after another from the repository root.  For every workload and metric
it prints and records the median and the spread (Q3 - Q1) / median of
statistics.quantiles(values, n=4); trace 0 also keeps every run's
value.  Metrics that read 0 on every run are left out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = {0: range(1, 11), 1: range(1, 4)}
OUT = {0: HERE / "baseline.json", 1: HERE / "baseline_layers.json"}


def run_once(spec, workload, seed, trace) -> dict:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    trace = ap.parse_args(argv).trace

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS[trace]:
            for name, metric in run_once(spec, workload, seed, trace)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(workload)
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            if not any(vals):
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            entry = {"median": med, "spread": (q3 - q1) / med}
            if trace == 0:
                entry["values"] = vals
            summary[workload][name] = entry
            print(f"  {name:<44} median {med:<12.6g} spread {entry['spread']:.4f}")
    env = json.loads(next((ROOT / ".bench_build" / "perfbench").glob(f"*-trace{trace}.json")).read_text())["environment"]
    OUT[trace].write_text(json.dumps({
        "environment": env,
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS[trace]),
        "workloads": summary,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
