"""Closed-loop runner, span tracer and statistics shared by the workloads.

Nothing here imports sfkale: the runner only calls the operations that
workloads.py builds, and the tracer only wraps callables it is handed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Iterator, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

perf_counter = time.perf_counter


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, timeout=120.0) -> subprocess.CompletedProcess:
    """Run one child python to completion (subprocess.run kills and reaps on timeout)."""
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=timeout,
    )


class NullTracer:
    """Untraced mode: every hook is a plain pass-through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, name, fn):
        return fn()

    def phi(self, fn):
        return fn

    def patched(self, modules, points_of):
        return contextlib.nullcontext()


# span fields; spans are plain lists so recording stays cheap
NAME, START, END, PARENT, OP_ID, POINTS, PHI_CALLS, PHI_S = range(8)


class Tracer:
    """In-memory spans around the calls into each layer.

    A span is [name, start, end, parent index, operation id, points,
    phi calls, phi seconds].  Calls into custom potential callables
    (Phi) are too many to span one by one, so they are counted and
    timed into the span that is open when they run.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = -1

    def call(self, name, fn, *args, **kwargs):
        return self._span(name, None, fn, args, kwargs)

    def _span(self, name, points_of, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op_id, 1, 0, 0.0]
        spans.append(span)
        stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            span[START] = start
            span[END] = end
        if points_of is not None:
            span[POINTS] = points_of(args, result)
        return result

    def op(self, name, fn):
        self._op_id += 1
        return self.call("bench." + name, fn)

    def phi(self, fn):
        spans, stack = self.spans, self._stack

        def counted(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                span = spans[stack[-1]]
                span[PHI_CALLS] += 1
                span[PHI_S] += perf_counter() - start

        return counted

    @contextlib.contextmanager
    def patched(self, modules, points_of):
        """Span every public function of `modules` wherever the program looks it up.

        Each function is replaced on its own module and under every
        name another module of the package imported it as, so calls
        from one layer into another are spanned too.  points_of maps a
        span name to a function of (args, result) giving the points the
        call handled.  Everything is restored on exit.
        """
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not callable(fn) or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if isinstance(fn, type) and f"{short}.{attr}" not in points_of:
                    continue  # classes are spanned only where a metric asks for them
                wrapped[id(fn)] = (fn, self._wrapper(f"{short}.{attr}", fn, points_of.get(f"{short}.{attr}")))
        package = modules[0].__name__.split(".", 1)[0]
        undo = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])
        try:
            yield
        finally:
            for mod, attr, value in undo:
                setattr(mod, attr, value)

    def _wrapper(self, name, fn, points_of):
        span = self._span

        def spanned(*args, **kwargs):
            return span(name, points_of, fn, args, kwargs)

        return spanned

    def by_name(self) -> dict[str, list[list]]:
        out: dict[str, list[list]] = {}
        for span in self.spans:
            out.setdefault(span[NAME], []).append(span)
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span duration minus child spans and Phi time.

        The layer is the span name up to its first dot; Phi time is its
        own layer, "phi".
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, float] = {}
        for span, inner in zip(self.spans, child):
            layer = span[NAME].split(".", 1)[0]
            own = span[END] - span[START] - inner - span[PHI_S]
            out[layer] = out.get(layer, 0.0) + own
            out["phi"] = out.get("phi", 0.0) + span[PHI_S]
        return out


@dataclasses.dataclass
class Op:
    """One closed-loop operation on an input no other operation sees.

    run() calls the program; check(result) returns None when an oracle
    that does not share the timed code path accepts the result, and a
    reason otherwise.  units counts what ops_per_s counts (one for most
    operations, the sample points of a verify_scalar_flat).
    """

    name: str
    input: str
    run: Callable
    check: Callable
    units: int = 1


# The reference kernel: a fixed piece of pure-Python work whose CPU time
# tracks the speed the host gives this machine at the moment.  On a shared
# host that speed moves by half again, within milliseconds and for seconds
# on end (other guests on the same cores), and pure-Python and numpy work
# move together with it.  So the benchmark times the kernel between
# operations and scales every time to a machine on which the kernel takes
# exactly REF_KERNEL_S.
REF_KERNEL_S = 0.25e-3
KERNEL_EVERY_S = 2.5e-3  # program CPU seconds between two kernel samples
KERNEL_MAX_RUNS = 25  # a sample is the median of up to this many kernel runs


def reference_kernel() -> float:
    """CPU seconds this thread spends on the fixed reference work.

    Thread CPU time, so neither other threads of the process nor time the
    CPU served anyone else count.
    """
    t0 = time.thread_time()
    table, acc = {}, 0
    for i in range(1400):
        acc += (i * 7919) % 104729
        table[i & 255] = acc
    return time.thread_time() - t0


def kernel_sample(since: float) -> float:
    """Median of kernel runs, one per KERNEL_EVERY_S of program time since the last sample.

    Up to KERNEL_MAX_RUNS, so a long operation is scaled by a steadier
    sample at the same share of kernel time as a short one.
    """
    runs = min(KERNEL_MAX_RUNS, max(1, int(since / KERNEL_EVERY_S)))
    return median([reference_kernel() for _ in range(runs)])


@dataclasses.dataclass
class LoopResult:
    """Latencies of one closed loop, one list per pass.

    A pass is a fixed mix of operations on fresh inputs.  passes holds
    the scaled latencies: each operation's CPU seconds times REF_KERNEL_S
    over the mean of the two kernel samples around it; raw_passes holds
    them as measured.  kernel_s is the median kernel sample of each pass.
    Each timing is taken per pass and the run reports the median over
    passes, so a few seconds of a slowed machine move a few passes, not
    the result.
    """

    passes: list[list[float]]
    raw_passes: list[list[float]]
    units: list[int]
    kernel_s: list[float]
    once: list[float]
    wall_s: float
    failures: list[dict]

    @property
    def attempted(self) -> int:
        return len(self.once) + sum(len(p) for p in self.passes)

    def rate(self) -> float:
        """Median over passes of units per scaled CPU second spent inside the program."""
        return median([u / sum(p) for u, p in zip(self.units, self.passes)])

    def p50(self) -> float:
        return median([median(p) for p in self.passes])

    def tail(self) -> tuple[float, float]:
        """Median over passes of the tail() of each pass, and its percentile."""
        tails = [tail(p) for p in self.passes]
        return median([t for t, _ in tails]), tails[0][1]

    def kernel(self) -> float:
        """Median over passes of the reference kernel's CPU seconds."""
        return median(self.kernel_s)


def closed_loop(workload: str, passes: Iterator[list[Op]], tracer, seconds: float,
                once: Sequence[Op] = (), clock: Callable[[], float] = time.process_time) -> LoopResult:
    """One caller: the next operation starts when the last one returns.

    The once operations run first; then whole passes run until seconds
    of wall time have passed or the input stream ends, so every pass has
    the same mix.  Only the call into the program is timed, on clock
    (CPU seconds of this process unless the caller says otherwise);
    building a pass and the oracle checks run outside the timed intervals.
    The reference kernel runs at the start and end of each pass and after
    every KERNEL_EVERY_S of program time, also outside the timed intervals;
    each operation is scaled by the two samples around it.
    """
    failures: list[dict] = []

    def run_op(op):
        t0 = clock()
        try:
            result = tracer.op(op.name, op.run)
        except Exception as exc:  # a failing operation is counted, not fatal
            t1 = clock()
            reason = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=4)}"
        else:
            t1 = clock()
            try:
                reason = op.check(result)
            except Exception as exc:  # a result the oracle cannot even read
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append({"workload": workload, "op": op.name, "input": op.input, "reason": reason})
        return t1 - t0

    start = perf_counter()
    deadline = start + seconds
    once_s = [run_op(op) for op in once]
    latencies, raw, units, kernel_s = [], [], [], []
    for ops in passes:
        # the benchmark's own objects (inputs, operations, oracles) move out of
        # the collector's reach, so its pauses are the program's alone
        gc.collect()
        gc.freeze()
        # a pass opens with the steadiest sample, as its first operation may be long
        samples, lat, scaled, since = [kernel_sample(KERNEL_MAX_RUNS * KERNEL_EVERY_S)], [], [], 0.0
        for i, op in enumerate(ops):
            lat.append(run_op(op))
            since += lat[-1]
            if since >= KERNEL_EVERY_S or i == len(ops) - 1:
                samples.append(kernel_sample(since))
                f = 2 * REF_KERNEL_S / (samples[-2] + samples[-1])
                scaled += [t * f for t in lat[len(scaled):]]
                since = 0.0
        latencies.append(scaled)
        raw.append(lat)
        units.append(sum(op.units for op in ops))
        kernel_s.append(median(samples))
        if perf_counter() >= deadline:
            break
    wall = perf_counter() - start
    gc.unfreeze()
    return LoopResult(latencies, raw, units, kernel_s, once_s, wall, failures)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it.

    With fewer than 20 samples that percentile would sit below the
    median, so the maximum (percentile 100) is reported instead.
    """
    s = sorted(values)
    n = len(s)
    if n < 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def median(values) -> float:
    return float(statistics.median(values))


def children_cpu_seconds() -> float:
    """User plus system CPU seconds of every child process reaped so far."""
    import resource

    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb(children: bool) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def time_children(argv, repeats: int, warmup: int = 1) -> list[float]:
    """Wall seconds of `repeats` fresh interpreters running argv, after warm-up runs."""
    out = []
    for i in range(warmup + repeats):
        t0 = perf_counter()
        proc = run_child(argv)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"child {argv} exited {proc.returncode}: {proc.stderr.strip()}")
        if i >= warmup:
            out.append(dt)
    return out


def child_seconds(argv, repeats: int, warmup: int = 1) -> list[float]:
    """Seconds that `repeats` fresh interpreters print, scaled to the reference kernel.

    Each prints as its last output line the seconds it measured and the
    median CPU seconds of the reference kernel in that interpreter.
    """
    out = []
    for i in range(warmup + repeats):
        proc = run_child(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"child {argv} exited {proc.returncode}: {proc.stderr.strip()}")
        if i >= warmup:
            seconds, kernel = map(float, proc.stdout.strip().splitlines()[-1].split())
            out.append(seconds * REF_KERNEL_S / kernel)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What a number depends on besides the code: interpreter, libraries, machine."""
    import importlib

    import numpy

    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    try:
        # the engine module may lose this hook; the label is then unknown
        backend = importlib.import_module("sfkale._engine").resolve_backend()[0]
    except (ImportError, AttributeError, RuntimeError, ValueError):
        backend = "unknown"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba,
        "backend": backend,
        "nproc": affinity,
        "cpu": _cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
