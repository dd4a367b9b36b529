"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run every workload in --quick mode (tiny inputs, one set-up
interpreter), pin the Phi evaluation counts of the stencils, and check
that a corrupted program result is counted as a failure.
"""

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import harness  # noqa: E402
from harness import POINTS, REF_KERNEL_S, NullTracer, Op, Tracer, closed_loop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Phi calls and distinct lattice sites per point of the seed's stencils
PHI_COUNTS = {
    "scalar_o4": (5088, 673),
    "scalar_o2": (1392, 169),
    "hessian_o4": (96, 49),
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def quick_runs():
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_mode_emits_every_metric_with_its_unit(quick_runs, workload, trace):
    report, result = quick_runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    printed = {line.split()[0] for line in report if line.startswith("  ")}
    for name, metric in result["metrics"].items():
        assert name in printed
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name


def test_every_per_layer_metric_is_measured_by_some_workload(quick_runs):
    measured = {
        name
        for w in WORKLOADS
        for name, metric in quick_runs[(w, 1)][1]["metrics"].items()
        if metric["value"] != 0
    }
    # a perfect run has no failures, so fail_ratio legitimately reads 0
    assert {m["name"] for m in SPEC["per_layer"]} - measured == {"fail_ratio"}


def test_phi_counts_are_the_stencil_counts_for_any_point():
    wl = bench.import_program()
    for seed in (1, 2):
        census = wl.phi_census(wl.census_points(seed, 1))
        for cfg, (calls, sites) in PHI_COUNTS.items():
            assert census[f"phi.{cfg}.calls_per_point"] == calls, cfg
            assert census[f"phi.{cfg}.sites_per_point"] == sites, cfg
            assert census[f"phi.{cfg}.useful_ratio"] == sites / calls, cfg


def _inputs(wl, name, seed, part=0, passes=3):
    w = wl.WORKLOADS[name]
    stream = w.stream(seed, part, False, NullTracer(), wl.Accuracy())
    return [op.input for ops in itertools.islice(stream, passes) for op in ops]


def test_inputs_follow_the_seed_and_never_repeat():
    wl = bench.import_program()
    for name in ("exact_sweep", "metric_sweep", "metric_probe"):
        first = _inputs(wl, name, 5)
        assert first == _inputs(wl, name, 5), name
        assert first != _inputs(wl, name, 6), name
        assert first != _inputs(wl, name, 5, part=1), name
        assert len(set(first)) == len(first), name


def test_traced_run_spans_calls_between_layers_and_restores_them():
    wl = bench.import_program()
    real = wl.hj.hj_expand
    tracer = Tracer()
    with tracer.patched(wl.TRACED_MODULES, wl.POINTS_OF):
        assert wl.moduli.hj_expand is not real
        wl.moduli.moduli_report(wl.groups.cyclic_group(7, 3))
        wl.hj.lattice_chain(7, 3)
    assert wl.hj.hj_expand is real and wl.moduli.hj_expand is real
    spans = tracer.spans
    parents = {(sp[0], spans[sp[3]][0] if sp[3] >= 0 else None) for sp in spans}
    assert ("hj.hj_expand", "moduli.cyclic_moduli") in parents
    assert ("groups.validate_group", "moduli.moduli_report") in parents
    chain = [sp for sp in spans if sp[0] == "hj.lattice_chain"][0]
    assert chain[POINTS] == len(wl.hj.lattice_chain(7, 3).points) == 4
    self_s = tracer.self_seconds()
    assert set(self_s) == {"groups", "moduli", "hj", "phi"} and self_s["phi"] == 0


def test_corrupted_chain_is_counted_as_a_failure(monkeypatch):
    wl = bench.import_program()
    real = wl.hj.lattice_chain

    def corrupted(p, q):
        chain = real(p, q)
        (s, t), rest = chain.points[1], chain.points[2:]
        return dataclasses.replace(chain, points=(chain.points[0], (s, t + Fraction(1, p)), *rest))

    monkeypatch.setattr(wl.hj, "lattice_chain", corrupted)
    record = bench.run("exact_sweep", seed=3, seconds=0.1, trace=0, quick=True)
    result = record["result"]
    assert not result["correct"]
    resolves = [f for f in record["failures"] if f["op"] == "resolve"]
    assert resolves and len(resolves) == result["failed"]
    first = resolves[0]
    assert first["workload"] == "exact_sweep" and first["input"].startswith("(p, q) = (")
    assert "determinant" in first["reason"] or "close" in first["reason"]


def test_corrupted_curvature_is_counted_as_a_failure(monkeypatch):
    wl = bench.import_program()
    real = wl.cv.scalar_curvature
    monkeypatch.setattr(wl.cv, "scalar_curvature", lambda *a, **k: real(*a, **k) + 1e-3)
    w = wl.WORKLOADS["metric_probe"]
    passes = w.stream(3, 0, True, NullTracer(), wl.Accuracy())
    loop = closed_loop(w.name, itertools.islice(passes, 1), NullTracer(), 0.0)
    failed = {f["op"] for f in loop.failures}
    assert failed == {f"scalar_curvature[{f}]" for f in wl.PROBE_FAMILIES}
    assert all(f["input"].startswith("z = [") for f in loop.failures)


def test_times_are_scaled_to_the_reference_kernel(monkeypatch):
    # a machine at half the reference speed: the kernel takes twice REF_KERNEL_S
    monkeypatch.setattr(harness, "reference_kernel", lambda: 2 * REF_KERNEL_S)
    ticks = itertools.count(step=4e-3)  # every operation takes 4 ms of CPU
    ops = [Op("noop", str(i), lambda: None, lambda r: None) for i in range(3)]
    loop = closed_loop("test", iter([ops]), NullTracer(), 0.0, clock=lambda: next(ticks))
    assert loop.raw_passes == [[pytest.approx(4e-3)] * 3]
    assert loop.p50() == pytest.approx(2e-3)
    assert loop.rate() == pytest.approx(500.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
