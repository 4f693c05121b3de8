"""The benchmark's workloads and the layer spans traced inside them.

Each workload builds its clouds with ``data.build_synthetic_dataset`` from
the workload seed, then runs a closed loop with one client: the next
operation starts only when the previous one has returned. An operation is
one training step (``run_training`` with one cloud per step) or one
completion (``CompletionModel.complete``). See README.md for why each
workload was chosen.
"""

from __future__ import annotations

import itertools

import numpy as np

from pointfill import autodiff, checkpoint, data, encoder, generator, geometry, losses, pipeline
from pointfill.pipeline import ModelConfig


class _Stop(Exception):
    """Raised from ``run_training``'s step callback to end the loop."""


class TrainingWorkload:
    """``run_training`` over a synthetic set, one cloud per step.

    The first epoch is the warm-up: it fills ``run_training``'s cache of
    downsampled loss targets, so every timed step does the same work. The
    first ``min_ops`` timed steps, a whole number of epochs, always run and
    are the window for ``final_loss`` and ``fidelity_x1000``. Every seed
    gives the same family mix per epoch, so the window compares like with
    like across seeds.
    """

    def __init__(self, name, config, shapes, min_ops):
        self.name = name
        self.config = config
        self.shapes = shapes
        self.warmup = shapes
        self.min_ops = min_ops

    def setup(self, workdir, seed):
        cfg = self.config
        data.build_synthetic_dataset(
            workdir, "train", self.shapes, seed=seed,
            gt_points=cfg.final_points, partial_points=cfg.input_points,
        )
        samples = [(p, g) for _, p, g in data.load_dataset(workdir / "train")]
        model = pipeline.CompletionModel(cfg)
        optimizer = pipeline.Adam(model, lr=1e-3)
        initial = [p.data.copy() for p in model.parameters()]
        return {"seed": seed, "samples": samples, "model": model,
                "optimizer": optimizer, "initial": initial}

    def probe(self, state):
        """Completion of the first input by the model's initial parameters."""
        params = state["model"].parameters()
        current = [p.data for p in params]
        for p, saved in zip(params, state["initial"]):
            p.data = saved.copy()
        try:
            return state["model"].complete(state["samples"][0][0])
        finally:
            for p, arr in zip(params, current):
                p.data = arr

    def drive(self, state, on_op):
        def on_step(row):
            if not on_op(row.breakdown):
                raise _Stop

        try:
            pipeline.run_training(
                state["model"], state["samples"], 10**9, state["optimizer"],
                seed=state["seed"], on_step=on_step,
            )
        except _Stop:
            pass

    def check(self, breakdown):
        values = (*breakdown.stage_cds, breakdown.partial_matching, breakdown.total)
        if not np.isfinite(values).all():
            return f"non-finite loss terms {values}"
        return None

    def quality(self, records):
        window = records[self.warmup: self.warmup + self.min_ops]
        return {
            "final_loss": float(np.mean([b.total for b in window])),
            # the partial-matching term is losses.fidelity of the step's
            # completion against its input
            "fidelity_x1000": 1000.0 * float(np.mean([b.partial_matching for b in window])),
        }


class CompletionWorkload:
    """``model.complete`` over a stream of distinct scans.

    The model is saved to a checkpoint and loaded back during set-up. Scan 0
    is the probe; the loop completes scans 1, 2, ... in order. The first
    ``min_ops`` timed completions, one per shape family, always run and give
    ``fidelity_x1000``, computed after the loop.
    """

    warmup = 1
    min_ops = len(data.FAMILIES)

    def __init__(self, name, config, scans):
        self.name = name
        self.config = config
        self.scans = scans

    def setup(self, workdir, seed):
        cfg = self.config
        data.build_synthetic_dataset(
            workdir, "scans", self.scans, seed=seed,
            gt_points=2 * cfg.input_points, partial_points=cfg.input_points,
        )
        scans = [p for _, p, _ in data.load_dataset(workdir / "scans")]
        path = workdir / "model.ckpt"
        checkpoint.save_checkpoint(pipeline.CompletionModel(cfg), path)
        return {"scans": scans, "model": checkpoint.load_checkpoint(path)}

    def probe(self, state):
        return state["model"].complete(state["scans"][0])

    def drive(self, state, on_op):
        scans = state["scans"]
        for i in itertools.count(1):
            scan = scans[i % len(scans)]
            if not on_op((scan, state["model"].complete(scan))):
                return

    def check(self, record):
        return check_cloud(record[1], self.config.final_points)

    def quality(self, records):
        window = records[self.warmup: self.warmup + self.min_ops]
        return {
            "fidelity_x1000": 1000.0 * float(
                np.mean([losses.fidelity(scan.astype(out.dtype), out) for scan, out in window])
            ),
        }


def check_cloud(cloud, points):
    if cloud.shape != (points, 3):
        return f"output shape {cloud.shape}, expected {(points, 3)}"
    if not np.isfinite(cloud).all():
        return "output has non-finite coordinates"
    return None


WORKLOADS = {
    "desk_train": (TrainingWorkload, ModelConfig.desk, {"shapes": 16, "min_ops": 16}),
    "complete_16k": (CompletionWorkload, ModelConfig.benchmark_16k, {"scans": 16}),
    "train_16k": (TrainingWorkload, ModelConfig.benchmark_16k, {"shapes": 1, "min_ops": 2}),
}


def make(name, micro=False):
    """The named workload; ``micro`` swaps in ``ModelConfig.micro()``."""
    cls, config, kwargs = WORKLOADS[name]
    return cls(name, ModelConfig.micro() if micro else config(), **kwargs)


def _knn(queries, reference, k):
    name = "geometry.knn.k1" if k == 1 else "geometry.knn.kN"
    return name, {"pairs": len(queries) * len(reference)}


def _backward(tape, loss):
    return "autodiff.backward", {
        "tape_records": len(tape.records),
        "tape_bytes": sum(r.output.data.nbytes for r in tape.records),
    }


def layer_targets():
    """(owner, attribute, label) for every traced callable.

    Stages are named by the order in which a forward pass first calls them.
    """
    stages = {}

    def stage(args, kwargs):
        return f"generator.stage{stages.setdefault(args[0], len(stages) + 1)}", None

    return [
        (geometry, "knn", lambda a, kw: _knn(*a, **kw)),
        (geometry, "farthest_point_sample", "geometry.fps"),
        (geometry, "interpolate_seed_features", "geometry.interpolate"),
        (encoder.Encoder, "__call__", "encoder"),
        (generator.SeedGenerator, "__call__", "generator.seed"),
        (generator.UpsampleStage, "__call__", stage),
        (pipeline.CompletionModel, "forward", "pipeline.forward"),
        (pipeline, "completion_loss", "losses.completion"),
        (pipeline, "partial_matching_loss", "losses.partial_matching"),
        (autodiff.Tape, "backward", lambda a, kw: _backward(*a, **kw)),
        (pipeline.Adam, "step", "pipeline.adam_step"),
        (data, "build_synthetic_dataset", "data.build_synthetic_dataset"),
        (data, "load_dataset", "data.load_dataset"),
        (checkpoint, "save_checkpoint", "checkpoint.save"),
        (checkpoint, "load_checkpoint", "checkpoint.load"),
    ]
