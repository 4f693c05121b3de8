"""Reproducibility protocols for pointfill: ``digest``.

Usage, from any directory, against the tree whose ``src`` is on the path::

    PYTHONPATH=<tree>/src python tools/protocol.py digest [--micro]

``digest`` prints one ``name sha256`` line per item. Two trees are bitwise
equal on everything it covers when ``diff`` of their outputs is empty. To
compare with an earlier commit, check that commit out into a second
directory (``git clone``, then ``git checkout <commit>``) and run the same
command with that directory's ``src``.

For each configuration, ``<config>.<item>`` covers:

- ``names``, ``params``: parameter names and values of the fresh model;
- ``complete``: ``complete()`` of a fixed partial cloud, fresh;
- ``trained.params``, ``trained.adam`` (step count and moments),
  ``trained.losses`` (every ``TrainLogRow``) and ``trained.complete``, after
  3 ``run_training`` steps with ``lr_decay_every=2``;
- ``ckpt``, ``ckpt_adam``: the trained model's checkpoint bytes, without and
  with optimizer state;
- ``reload.complete``: ``complete()`` of the model loaded from ``ckpt_adam``.

The configurations are desk float32 with each generator at ``batch_clouds``
1 and 2; desk float32 with ``seed_attention`` softmax, scaled (lam 1.7) and
log; desk float64; and micro (``init_seed=3``). Then come
``benchmark_16k.complete`` and one ``gradcheck.<case>`` line per case of
``pointfill gradcheck``, hashing the line the command prints.

``--micro`` builds the same configuration list on the micro layout (its
precision flip is float32) and skips ``benchmark_16k`` and the gradcheck
suite: a check of run determinism that takes seconds.

Only numpy and the ``pointfill`` API that has stood since commit ``d0dbd9f``
are used, so the script runs on every tree from there on. BLAS runs on one
thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning)

from pointfill import data, gradcheck  # noqa: E402
from pointfill.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from pointfill.generator import GENERATOR_VARIANTS  # noqa: E402
from pointfill.pipeline import Adam, CompletionModel, ModelConfig, run_training  # noqa: E402

STEPS = 3


def _sha(*items):
    """SHA-256 over arrays (dtype, shape and bytes), bytes and strings."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, str):
            item = item.encode()
        if isinstance(item, bytes):
            h.update(item)
        else:
            a = np.ascontiguousarray(item)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _samples(config, count=4):
    """``count`` (partial, gt) pairs sized for ``config``, one per family."""
    n_gt = max(64, config.input_points)
    out = []
    for i in range(count):
        spec = data.SyntheticShapeSpec(
            family=data.FAMILIES[i % len(data.FAMILIES)], seed=i,
            gt_points=n_gt, partial_points=16,
        )
        gt = data.generate_shape(spec)
        seen = data.occlude_viewpoint(gt, data.VIEWPOINTS[i], n_gt // 2)
        out.append((data.resample_input(seen, config.input_points, seed=i), gt))
    return out


def _configs(micro):
    """``(name, config, batch_clouds)`` for each configuration digested."""
    base = ModelConfig.micro if micro else ModelConfig.desk
    flip = "float32" if micro else "float64"
    out = [
        (f"{generator}.b{batch}", base(generator=generator), batch)
        for generator in GENERATOR_VARIANTS
        for batch in (1, 2)
    ]
    out += [
        ("seed_softmax", base(seed_attention="softmax"), 2),
        ("seed_scaled", base(seed_attention="scaled", attention_scale=1.7), 2),
        ("seed_log", base(seed_attention="log"), 2),
        (flip, base(precision=flip), 2),
    ]
    if not micro:
        out.append(("micro", ModelConfig.micro(init_seed=3), 2))
    return out


def _params(model):
    return [p.tensor.data for p in model.named_parameters()]


def _digest_config(name, config, batch, tmp, emit):
    samples = _samples(config)
    probe = samples[0][0]
    model = CompletionModel(config)
    emit(f"{name}.names", _sha("\n".join(p.name for p in model.named_parameters())))
    emit(f"{name}.params", _sha(*_params(model)))
    emit(f"{name}.complete", _sha(model.complete(probe)))
    optimizer = Adam(model, lr=1e-3)
    rows = run_training(model, samples, STEPS, optimizer, seed=0, lr_decay_every=2,
                        batch_clouds=batch)
    emit(f"{name}.trained.params", _sha(*_params(model)))
    moments = [store[key] for key in optimizer.moment1
               for store in (optimizer.moment1, optimizer.moment2)]
    emit(f"{name}.trained.adam", _sha(np.array([optimizer.step_count]), *moments))
    emit(f"{name}.trained.losses", _sha(*(
        np.array([r.step, *r.breakdown.stage_cds, r.breakdown.partial_matching,
                  r.breakdown.total]) for r in rows
    )))
    emit(f"{name}.trained.complete", _sha(model.complete(probe)))
    plain, with_adam = Path(tmp) / f"{name}.ckpt", Path(tmp) / f"{name}.adam.ckpt"
    save_checkpoint(model, plain)
    save_checkpoint(model, with_adam, optimizer=optimizer)
    emit(f"{name}.ckpt", _sha(plain.read_bytes()))
    emit(f"{name}.ckpt_adam", _sha(with_adam.read_bytes()))
    emit(f"{name}.reload.complete", _sha(load_checkpoint(with_adam).complete(probe)))


def digest(micro=False, out=sys.stdout):
    def emit(name, value):
        print(f"{name} {value}", file=out, flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        for name, config, batch in _configs(micro):
            _digest_config(name, config, batch, tmp, emit)
    if micro:
        return
    config = ModelConfig.benchmark_16k()
    emit("benchmark_16k.complete",
         _sha(CompletionModel(config).complete(_samples(config, 1)[0][0])))

    def report(case, rep):
        status = "pass" if rep.passed else "FAIL"
        emit(f"gradcheck.{case}", _sha(f"{case}: {status} ({rep.summary()})"))

    gradcheck.run_suite(report_fn=report)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("digest", help="print one 'name sha256' line per item")
    run.add_argument("--micro", action="store_true",
                     help="micro layout only; no benchmark_16k and no gradcheck")
    args = parser.parse_args(argv)
    digest(micro=args.micro)
    return 0


if __name__ == "__main__":
    sys.exit(main())
