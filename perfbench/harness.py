"""Runs one workload and turns what it measured into metrics.

A run sets the workload up ``SETUP_REPS`` times (``setup_s`` is the median),
completes the first input once as a probe, then drives operations through
phases: the workload's warm-up, then either the timed loop (``--trace 0``)
or an untraced and a traced half (``--trace 1``). A phase ends at the
operation boundary nearest its share of ``--seconds``, and not before it
has run its minimum number of operations. The probe is repeated at the end
and must match the first one bitwise.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer

SETUP_REPS = 5

#: Layers whose self time per operation the traced run reports.
SELF_TIME_LAYERS = (
    "geometry.knn.k1", "geometry.knn.kN", "geometry.fps", "geometry.interpolate",
    "autodiff.backward", "encoder", "generator.seed", "generator.stage1",
    "generator.stage2", "generator.stage3", "losses.completion",
    "losses.partial_matching", "pipeline.forward", "pipeline.adam_step",
)

#: Exact work counts per operation: metric name -> span count key.
COUNT_METRICS = {
    "geometry.knn.k1.calls": "geometry.knn.k1.calls",
    "geometry.knn.k1.pairs": "geometry.knn.k1.pairs",
    "geometry.knn.kN.calls": "geometry.knn.kN.calls",
    "geometry.knn.kN.pairs": "geometry.knn.kN.pairs",
    "geometry.fps.calls": "geometry.fps.calls",
    "autodiff.tape_records": "autodiff.backward.tape_records",
}

#: Set-up spans whose median duration per set-up the traced run reports.
SETUP_SPANS = {"checkpoint.load_ms": "checkpoint.load", "data.load_dataset_ms": "data.load_dataset"}


class Phase:
    def __init__(self, name, budget_s, min_ops):
        self.name = name
        self.budget_s = budget_s
        self.min_ops = min_ops
        self.times = []

    def done(self, last_s):
        return (len(self.times) >= self.min_ops
                and sum(self.times) + last_s / 2 >= self.budget_s)


class Loop:
    """Times each operation, checks its output and moves through the phases.

    ``on_op`` is handed to ``workload.drive`` and returns False to stop.
    Time spent inside ``on_op`` (checks, phase changes) is not part of any
    operation's time.
    """

    def __init__(self, workload, phases, tracer):
        self.workload = workload
        self.phases = phases
        self.tracer = tracer
        self.current = 0
        self.records = []
        self.problems = []
        self.failed = 0
        self._last = time.perf_counter()

    def on_op(self, record):
        elapsed = time.perf_counter() - self._last
        phase = self.phases[self.current]
        phase.times.append(elapsed)
        self.records.append(record)
        problem = self.workload.check(record)
        if problem:
            self.failed += 1
            self.problems.append(f"op {len(self.records) - 1}: {problem}")
        keep_going = True
        if phase.done(elapsed):
            if phase.name == "traced":
                self.tracer.uninstall()
            self.current += 1
            keep_going = self.current < len(self.phases)
            if keep_going and self.phases[self.current].name == "traced":
                self.tracer.install()
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        self._last = time.perf_counter()
        return keep_going

    def abort(self, exc):
        """An operation raised: it and every required one after it fail."""
        if self.tracer is not None:
            self.tracer.uninstall()
        required = sum(p.min_ops for p in self.phases)
        prevented = max(0, required - len(self.records) - 1)
        self.failed += 1 + prevented
        self.problems.append(
            f"op {len(self.records)} raised {type(exc).__name__}: {exc}"
            f" ({prevented} required operations not run)"
        )
        return 1 + prevented


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    try:
        os_threads = len(os.listdir("/proc/self/task"))
    except OSError:
        os_threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "os_threads": os_threads,
    }


def run_workload(workload, seed, seconds, trace, root):
    """Run one workload; returns ``(result, report, tracer)``."""
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        return _run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, workdir):
    tracer = Tracer(workloads.layer_targets()) if trace else None
    if tracer is not None:
        tracer.op = "setup"
    setup_times = []
    for rep in range(SETUP_REPS):
        state = None  # free the previous set-up's model before building the next
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            state = workload.setup(workdir / f"setup{rep}", seed)
            setup_times.append(time.perf_counter() - start)

    problems = []
    attempted = 2  # the probe and its repeat
    failed = 0
    first = workload.probe(state)
    if trace:
        phases = [Phase("warmup", 0.0, workload.warmup),
                  Phase("untraced", seconds / 2, 1), Phase("traced", seconds / 2, 1)]
    else:
        phases = [Phase("warmup", 0.0, workload.warmup),
                  Phase("timed", seconds, workload.min_ops)]
    loop = Loop(workload, phases, tracer)
    if tracer is not None:
        tracer.op = 0
    try:
        workload.drive(state, loop.on_op)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
        attempted += loop.abort(exc)
    attempted += len(loop.records)
    failed += loop.failed
    problems += loop.problems

    again = workload.probe(state)
    for label, cloud in (("probe", first), ("probe repeat", again)):
        problem = workloads.check_cloud(cloud, workload.config.final_points)
        if problem:
            failed += 1
            problems.append(f"{label}: {problem}")
    if first.dtype != again.dtype or first.tobytes() != again.tobytes():
        failed += 1
        problems.append("probe repeat is not bitwise identical to the first probe")

    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "setup_s_reps": setup_times,
        "warmup_ms": [1000 * t for t in phases[0].times],
        "ops_total": attempted,
    }
    metrics = {}
    if not trace:
        timed = phases[1].times
        report["samples"] = len(timed)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        if timed:
            metrics["clouds_per_s"] = (len(timed) / sum(timed), "1/s")
            metrics["latency_ms_p50"] = (1000 * statistics.median(timed), "ms")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        )
        if len(timed) >= 2:
            p90 = statistics.quantiles(timed, n=10)[-1]
            beyond = sum(t > p90 for t in timed)
            report["samples_beyond_p90"] = beyond
            report["latency_ms_p90"] = 1000 * p90 if beyond >= 10 else None
        if not loop.failed and len(loop.records) >= workload.warmup + workload.min_ops:
            quality = workload.quality(loop.records)
            for name, value in quality.items():
                if not np.isfinite(value):
                    failed += 1
                    problems.append(f"{name} is not finite")
            report.update(quality)
            metrics["fidelity_x1000"] = (quality["fidelity_x1000"], "x1000")
    elif phases[1].times and phases[2].times:
        metrics.update(layer_metrics(tracer, phases))
    report["ops_failed"] = failed
    report["problems"] = problems
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, report, tracer


def layer_metrics(tracer, phases):
    """Per-operation layer metrics from the traced phase."""
    untraced, traced = phases[1].times, phases[2].times
    first = len(phases[0].times) + len(untraced)
    ops = range(first, first + len(traced))
    self_ns, counts, top_ns = tracer.per_op(ops)
    n = len(traced)
    wall_ns = 1e9 * sum(traced)
    out = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_ms"] = (self_ns[layer] / n / 1e6, "ms")
    # every operation has the same counts, so total / n is exact
    for metric, key in COUNT_METRICS.items():
        out[metric] = (counts[key] / n, "count")
    out["autodiff.tape_mb"] = (counts["autodiff.backward.tape_bytes"] / n / 1e6, "MB_computed")
    for metric, name in SETUP_SPANS.items():
        durations = tracer.durations(name, "setup")
        out[metric] = (statistics.median(durations) / 1e6 if durations else 0.0, "ms")
    out["trace.op_ms"] = (1000 * sum(traced) / n, "ms")
    out["trace.unattributed_pct"] = (100 * (wall_ns - top_ns) / wall_ns, "%")
    base = statistics.median(untraced)
    out["trace.overhead_pct"] = (100 * (statistics.median(traced) - base) / base, "%")
    return out
