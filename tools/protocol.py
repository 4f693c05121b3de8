"""Reproducibility protocols for pointfill: ``digest``, ``save``/``compare``,
``sweep``, ``tape`` and ``loc``.

Usage, from any directory, against the tree whose ``src`` is on the path::

    PYTHONPATH=<tree>/src python tools/protocol.py digest [--micro]
    PYTHONPATH=<tree>/src python tools/protocol.py save <file.npz>
    PYTHONPATH=<tree>/src python tools/protocol.py compare <a.npz> <b.npz>
    PYTHONPATH=<tree>/src python tools/protocol.py sweep [--generator <variant>]
    PYTHONPATH=<tree>/src python tools/protocol.py tape [--config desk|benchmark_16k|micro]
    PYTHONPATH=<tree>/src python tools/protocol.py loc

``digest`` prints one ``name sha256`` line per item. Two trees are bitwise
equal on everything it covers when ``diff`` of their outputs is empty. To
compare with an earlier commit, check that commit out into a second
directory (``git clone``, then ``git checkout <commit>``) and run the same
command with that directory's ``src``.

The first line, ``data.corpus``, hashes the name and bytes of each file
that ``data.build_synthetic_dataset`` writes for 5 shapes (one per family)
of 64 ground-truth and 32 partial points at seed 0.

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
``benchmark_16k.complete`` of the fresh model, ``benchmark_16k.trained.params``
and ``benchmark_16k.trained.losses`` after 2 ``run_training`` steps (the
only lines over the 16k backward, whose stage-3 attention runs 64 tiles
against 8 at desk scale; they take about 7 s), and one
``gradcheck.<case>`` line per case of ``pointfill gradcheck``, hashing the
line the command prints.

``--micro`` prints the same ``data.corpus`` line, then builds the same
configuration list on the micro layout (its precision flip is float32) and
skips ``benchmark_16k`` and the gradcheck suite: a check of run determinism
that takes seconds.

``save`` builds the float64 micro model (``init_seed=3``) and adds a fixed
0.05·N(0, 1) draw (seed 0) to each parameter that starts at zero: the last
layers of its coarse-point and offset heads, which would otherwise zero
every gradient behind them and make ``complete()`` a copy of the coarse
cloud. It writes the ``complete()`` output of a fixed partial cloud, the
loss terms of one ``run_training`` step and every parameter's gradient
after it to an ``.npz``. It then does the same for the float64 desk layout,
under names prefixed ``desk64.``: each of the micro model's
``upsample_attention`` calls fits in one tile, while the desk model's run 2
to 8 tiles, so only these arrays see the order in which tile sums are
added. Both take under a second on a 2-vCPU Xeon. ``compare`` prints one ``name difference`` line
per array: the largest absolute difference divided by the largest
magnitude in the first file (the absolute difference where that array is
all zero), or ``missing`` or the two shapes. It exits 1 when an array is
missing or misshapen or differs by more than ``BOUND`` (1e-12), the
re-reference protocol's output clause.

``sweep`` runs acceptance criterion 06's recipe at init seeds 0-4 (4.4
minutes on a 2-vCPU Xeon): desk float32, 64 training shapes built at seed
11 and 16 held-out shapes at seed 111, 200 steps of ``batch_clouds=2`` with
``lr_decay_every=150``. Per seed it prints the loss ratio (last step over
first), the held-out wins (a lower Chamfer-L2 than the input resampled to
the output size) and the mean held-out Chamfer-L2; then the mean and the
spread (largest minus smallest) of each over the five seeds. The model is
the desk layout's, ``uptrans``; ``--generator <variant>`` runs the same
recipe with another of ``GENERATOR_VARIANTS`` and prints the same lines.

``tape`` measures what one training step's tape holds, with tracemalloc
started after the model and its loss targets are built. It runs one
forward pass and loss of the config's model (desk by default) on one
synthetic shape at seed 21, then one backward pass, and prints: the
records on the tape; the bytes live when backward starts and the peak
during it; the bytes the records' adjoint closures keep at backward start,
each distinct array (by the memory it views) counted once under the first
record that holds it, in total and per op; the number of tiles
``upsample_attention`` runs at once (``tiles._tile_workers()``, read from
``autodiff`` on older trees: 2 on a 2-vCPU machine with BLAS pinned to one
thread), which the next figure depends on and the tracemalloc bytes do not;
and the process's ``ru_maxrss`` at the end, in MB as perfbench reports it
(``ru_maxrss / 1024``, which includes tracemalloc's own bookkeeping). A 16k
run takes about 3 s on a 2-vCPU Xeon.

``loc`` counts the lines of code of each module of the ``pointfill`` package
on the path: the lines that hold a token which is neither a comment nor part
of a module, class or function docstring. It prints one ``module lines`` line
per module, in name order, then ``total lines``.

Only numpy and the ``pointfill`` API that has stood since commit ``d0dbd9f``
are used, so the script runs on every tree from there on (``tape`` also
reads ``pipeline._forward_loss``, there since ``57e5e40``). BLAS runs on
one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import os
import resource
import sys
import tempfile
import tokenize
import tracemalloc
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning)

import pointfill  # noqa: E402
from pointfill import autodiff as ad  # noqa: E402
from pointfill import data, gradcheck, pipeline  # noqa: E402
from pointfill.losses import chamfer, downsample_targets  # noqa: E402
from pointfill.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from pointfill.generator import GENERATOR_VARIANTS  # noqa: E402
from pointfill.pipeline import Adam, CompletionModel, ModelConfig, run_training  # noqa: E402

STEPS = 3
STEPS_16K = 2
BOUND = 1e-12  # the re-reference protocol's largest relative difference


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


def _losses_sha(rows):
    return _sha(*(
        np.array([r.step, *r.breakdown.stage_cds, r.breakdown.partial_matching,
                  r.breakdown.total]) for r in rows
    ))


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
    emit(f"{name}.trained.losses", _losses_sha(rows))
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
        data.build_synthetic_dataset(tmp, "corpus", 5, seed=0, gt_points=64,
                                     partial_points=32)
        files = sorted((Path(tmp) / "corpus").iterdir())
        emit("data.corpus", _sha(*(item for f in files for item in (f.name, f.read_bytes()))))
        for name, config, batch in _configs(micro):
            _digest_config(name, config, batch, tmp, emit)
    if micro:
        return
    config = ModelConfig.benchmark_16k()
    samples = _samples(config, 1)
    model = CompletionModel(config)
    emit("benchmark_16k.complete", _sha(model.complete(samples[0][0])))
    rows = run_training(model, samples, STEPS_16K, Adam(model, lr=1e-3), seed=0)
    emit("benchmark_16k.trained.params", _sha(*_params(model)))
    emit("benchmark_16k.trained.losses", _losses_sha(rows))

    def report(case, rep):
        status = "pass" if rep.passed else "FAIL"
        emit(f"gradcheck.{case}", _sha(f"{case}: {status} ({rep.summary()})"))

    gradcheck.run_suite(report_fn=report)


def _save_model(config, prefix, arrays):
    samples = _samples(config, 1)
    model = CompletionModel(config)
    rng = np.random.default_rng(0)
    for p in model.named_parameters():
        if not np.any(p.tensor.data):  # the zero-initialized last layers
            p.tensor.data += 0.05 * rng.standard_normal(p.tensor.data.shape)
    arrays[f"{prefix}complete"] = model.complete(samples[0][0])
    (row,) = run_training(model, samples, 1, Adam(model, lr=1e-3))
    b = row.breakdown
    arrays[f"{prefix}losses"] = np.array([*b.stage_cds, b.partial_matching, b.total])
    for p in model.named_parameters():
        arrays[f"{prefix}grad.{p.name}"] = p.tensor.grad


def save(path):
    arrays = {}
    _save_model(ModelConfig.micro(init_seed=3), "", arrays)
    _save_model(ModelConfig.desk(precision="float64"), "desk64.", arrays)
    with open(path, "wb") as fh:  # np.savez would append .npz to a bare name
        np.savez(fh, **arrays)


def compare(path_a, path_b, out=sys.stdout):
    with np.load(path_a) as a, np.load(path_b) as b:
        first, second = dict(a), dict(b)
    status = 0
    for name in [*first, *(n for n in second if n not in first)]:
        if name not in first or name not in second:
            print(f"{name} missing", file=out)
            status = 1
        elif first[name].shape != second[name].shape:
            print(f"{name} shapes {first[name].shape} {second[name].shape}", file=out)
            status = 1
        else:
            x, y = first[name].astype(np.float64), second[name].astype(np.float64)
            scale = np.abs(x).max(initial=0.0)
            diff = np.abs(x - y).max(initial=0.0)
            rel = diff / scale if scale else diff
            print(f"{name} {rel:.3e}", file=out)
            if not rel <= BOUND:  # NaN fails too
                status = 1
    return status


# acceptance criterion 06's recipe; tests/test_acceptance.py keeps its own copy
SWEEP_SEEDS = range(5)
SWEEP_TRAIN = dict(count=64, seed=11)
SWEEP_TEST = dict(count=16, seed=111)
SWEEP_RUN = dict(steps=200, seed=0, lr_decay_every=150, batch_clouds=2)


def _sweep_seed(init_seed, train, test, generator):
    model = CompletionModel(ModelConfig.desk(precision="float32", init_seed=init_seed,
                                             generator=generator))
    rows = run_training(model, train, optimizer=Adam(model, lr=1e-3), **SWEEP_RUN)
    ratio = rows[-1].breakdown.total / rows[0].breakdown.total
    wins, cds = 0, []
    for partial, gt in test:
        pred = model.complete(partial).astype(np.float64)
        cds.append(chamfer(pred, gt, "l2").item())
        baseline = data.resample_input(partial, pred.shape[0], seed=0)
        wins += cds[-1] < chamfer(baseline, gt, "l2").item()
    return ratio, wins, float(np.mean(cds))


def sweep(generator="uptrans", out=sys.stdout):
    with tempfile.TemporaryDirectory() as tmp:
        sets = []
        for split, spec in (("train", SWEEP_TRAIN), ("test", SWEEP_TEST)):
            data.build_synthetic_dataset(tmp, split, spec["count"], seed=spec["seed"],
                                         gt_points=512, partial_points=512)
            sets.append([(p, g) for _, p, g in data.load_dataset(Path(tmp) / split)])
    results = []
    for init_seed in SWEEP_SEEDS:
        results.append(_sweep_seed(init_seed, *sets, generator))
        ratio, wins, cd = results[-1]
        print(f"seed {init_seed}: loss ratio {ratio:.3f}, held-out wins {wins}/"
              f"{SWEEP_TEST['count']}, mean held-out CD-L2 {cd:.4f}", file=out, flush=True)
    for label, column, fmt in (("loss ratio", 0, ".3f"), ("held-out wins", 1, ".1f"),
                               ("mean held-out CD-L2", 2, ".4f")):
        values = [r[column] for r in results]
        print(f"{label}: mean {np.mean(values):{fmt}}, spread "
              f"{max(values) - min(values):{fmt}}", file=out)


TAPE_CONFIGS = {"desk": ModelConfig.desk, "benchmark_16k": ModelConfig.benchmark_16k,
                "micro": ModelConfig.micro}
MIB = 2**20


def _closure_arrays(fn):
    """The distinct memory blocks an adjoint closure keeps, as {id: bytes}:
    the arrays in its cells, in the closures of the functions it holds, in
    the lists and tuples it holds and in the Tensors it holds, each counted
    by the array it views."""
    found, seen, todo = {}, set(), [fn]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj.nbytes
        elif isinstance(obj, ad.Tensor):
            todo.append(obj.data)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return found


def _tile_workers():
    """The tiles upsample_attention runs at once: ``tiles._tile_workers()``;
    on trees from ``7b17e86`` that have no ``tiles`` module, the function of
    that name in ``autodiff``; and 1 on older trees, which run one."""
    try:
        from pointfill import tiles
    except ImportError:
        tiles = ad
    return getattr(tiles, "_tile_workers", lambda: 1)()


def _op(record):
    name = record.backfn.__qualname__.split(".")[0]
    return "linear" if name == "_affine" else name


def tape(config_name="desk", out=sys.stdout):
    config = TAPE_CONFIGS[config_name]()
    spec = data.SyntheticShapeSpec(family=data.FAMILIES[0], seed=21,
                                   gt_points=config.final_points, partial_points=16)
    gt = data.generate_shape(spec)
    seen = data.occlude_viewpoint(gt, data.VIEWPOINTS[0], config.final_points // 2)
    partial = data.resample_input(seen, config.input_points, seed=21)
    model = CompletionModel(config)
    targets = downsample_targets(gt.astype(config.dtype),
                                 [config.seed_count, *config.stage_sizes])
    tracemalloc.start()
    try:
        with ad.Tape() as recorded:
            total, _ = pipeline._forward_loss(model, partial, targets)
        kept, per_op, counts = set(), {}, {}
        for record in recorded.records:
            op = _op(record)
            counts[op] = counts.get(op, 0) + 1
            for key, nbytes in _closure_arrays(record.backfn).items():
                if key not in kept:
                    kept.add(key)
                    per_op[op] = per_op.get(op, 0) + nbytes
        records = len(recorded.records)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        recorded.backward(total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"config {config_name}: {records} records", file=out)
    print(f"live at backward start {start / MIB:.1f} MiB", file=out)
    print(f"backward peak {peak / MIB:.1f} MiB", file=out)
    print(f"kept by closures {sum(per_op.values()) / MIB:.1f} MiB", file=out)
    for op, nbytes in sorted(per_op.items(), key=lambda item: -item[1]):
        print(f"  {op} {nbytes / MIB:.1f} MiB ({counts[op]} records)", file=out)
    # RSS grows with the tiles upsample_attention runs at once; tracemalloc
    # bytes do not
    print(f"tile workers {_tile_workers()}", file=out)
    print(f"ru_maxrss {rss:.1f} MB", file=out)


_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _code_lines(source):
    """The number of lines of ``source`` that hold a token which is neither a
    comment nor part of a module, class or function docstring."""
    docs, code = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        docstring = tok.type == tokenize.STRING and tok.start[0] in docs
        if tok.type not in _NOT_CODE and not docstring:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code)


def loc(out=sys.stdout):
    total = 0
    for path in sorted(Path(pointfill.__file__).parent.glob("*.py")):
        lines = _code_lines(path.read_text())
        total += lines
        print(f"{path.stem} {lines}", file=out)
    print(f"total {total}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("digest", help="print one 'name sha256' line per item")
    run.add_argument("--micro", action="store_true",
                     help="micro layout only; no benchmark_16k and no gradcheck")
    one = commands.add_parser("save", help="write micro and desk float64 outputs and "
                              "gradients to an .npz")
    one.add_argument("file")
    pair = commands.add_parser("compare", help="largest relative difference per array; "
                               f"exit 1 above {BOUND:g}")
    pair.add_argument("a")
    pair.add_argument("b")
    recipe = commands.add_parser("sweep", help="criterion 06's recipe at init seeds 0-4")
    recipe.add_argument("--generator", choices=GENERATOR_VARIANTS, default="uptrans",
                        help="the generator core of the model trained (default uptrans)")
    held = commands.add_parser("tape", help="what one training step's tape holds")
    held.add_argument("--config", choices=TAPE_CONFIGS, default="desk",
                      help="the model layout (default desk)")
    commands.add_parser("loc", help="lines of code per pointfill module, and the total")
    args = parser.parse_args(argv)
    if args.command == "digest":
        digest(micro=args.micro)
    elif args.command == "save":
        save(args.file)
    elif args.command == "compare":
        return compare(args.a, args.b)
    elif args.command == "tape":
        tape(args.config)
    elif args.command == "loc":
        loc()
    else:
        sweep(args.generator)
    return 0


if __name__ == "__main__":
    sys.exit(main())
