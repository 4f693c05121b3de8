"""Smoke test of the benchmark itself, at ``ModelConfig.micro()`` scale.

Run from the root of a source checkout::

    python3 perfbench/smoke.py

For every workload it makes one untraced run and two traced runs with the
same seed, each of a few operations, and checks that:

* the outputs pass the benchmark's correctness checks;
* every end-to-end metric of ``BENCHMARK.json`` (untraced) and every
  per-layer metric (traced) is emitted with the unit the file gives it;
* the self times of the traced layers sum to no more than the traced wall
  time, and no wrapper is left installed after a run;
* the count metrics are exactly equal across the two traced runs.

Prints one line per workload and exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 3
SECONDS = 0.2


def emitted(result, declared):
    """Problems with the metrics of ``result`` against the declared list."""
    problems = []
    metrics = result["metrics"]
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"{spec['name']} missing")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{spec['name']} has unit {got['unit']!r}, not {spec['unit']!r}")
    if not result["correct"] or result["failed"]:
        problems.append(f"incorrect run: failed={result['failed']}")
    return problems


def main():
    harness = run.prepare()
    if harness is None:
        print("no pointfill sources next to perfbench/", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "MB_computed")]
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in workloads.layer_targets()]
    all_ok = True
    for name in workloads.WORKLOADS:
        problems = []
        result, _, _ = harness.run_workload(
            workloads.make(name, micro=True), SEED, SECONDS, 0, run.ROOT
        )
        problems += emitted(result, spec["end_to_end"])
        traced = []
        for _ in range(2):
            result, _, _ = harness.run_workload(
                workloads.make(name, micro=True), SEED, SECONDS, 1, run.ROOT
            )
            problems += emitted(result, spec["per_layer"])
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            self_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
            if not self_ms <= metrics["trace.op_ms"]:
                problems.append(
                    f"self times sum to {self_ms} ms, over the {metrics['trace.op_ms']} ms wall"
                )
            traced.append(metrics)
        for metric in counts:
            if traced[0][metric] != traced[1][metric]:
                problems.append(f"{metric} differs: {traced[0][metric]} vs {traced[1][metric]}")
        for owner, attr, original in originals:
            if vars(owner)[attr] is not original:
                problems.append(f"{owner.__name__}.{attr} still wrapped")
        all_ok &= not problems
        print(f"{name}: {'ok' if not problems else '; '.join(problems)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
