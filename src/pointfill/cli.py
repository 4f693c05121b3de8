"""Command line interface: train, complete, eval, gradcheck.

Exit codes: 0 success, 1 usage error, 2 numeric, validation or I/O failure.
Model settings come from a flat ``key = value`` config file; command line
flags override file values, and the fully resolved config is echoed next to
every output for provenance. ``train --generator/--attention/--lambda``
trains the generator and seed-attention variants the paper ablates.
BLAS threads are left to the environment (``OMP_NUM_THREADS`` and the like);
with one of those set, ``upsample_attention`` also runs its point tiles on
the CPUs the BLAS threads leave idle, with the same bits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import data as dataio
from . import gradcheck as gradsuite
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ContractError, FormatError, NumericsError, ParseError, ShapeError
from .autodiff import ATTENTION_VARIANTS
from .generator import GENERATOR_VARIANTS, seed_provenance
from .losses import chamfer, fidelity, fscore, mmd
from .pipeline import Adam, CompletionModel, ModelConfig, parse_config_text, run_training

USAGE_ERROR = 1
FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _resolve_config(args):
    mapping = {}
    if args.config:
        mapping.update(parse_config_text(Path(args.config).read_text(), source=args.config))
    # only the flags given override the config file
    flags = {"init_seed": args.seed, "generator": args.generator,
             "seed_attention": args.attention, "attention_scale": args.lam}
    mapping.update({k: str(v) for k, v in flags.items() if v is not None})
    return ModelConfig.from_mapping(mapping)


def _loss_log_lines(row):
    """The loss log lines of one training step, the header first on step 1."""
    b = row.breakdown
    cells = [str(row.step)]
    cells += [f"{v:.9g}" for v in b.stage_cds]
    cells += [f"{b.partial_matching:.9g}", f"{b.total:.9g}"]
    line = ",".join(cells) + "\n"
    if row.step == 1:
        line = ",".join(["step", *b.labels(), "l_part", "total"]) + "\n" + line
    return line


def _cmd_train(args):
    # refused here, before any file is written
    for flag, value in (("--steps", args.steps), ("--batch-clouds", args.batch_clouds),
                        ("--lr-decay-every", args.lr_decay_every)):
        if value is not None and value < 1:
            raise ContractError(f"{flag} must be >= 1, got {value}")
    if Path(args.out).is_dir():
        raise ContractError(f"--out {args.out} is a directory, not a checkpoint path")
    config = _resolve_config(args)
    seed = config.init_seed  # --seed if given, else the config's init_seed
    samples = [(p, g) for _, p, g in dataio.load_dataset(args.data)]
    samples = [
        (dataio.resample_input(p, config.input_points, seed=seed + i), g)
        for i, (p, g) in enumerate(samples)
    ]
    model = CompletionModel(config)
    optimizer = Adam(model, lr=args.lr)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # one flushed row per step, so an interrupted run keeps the steps it made
    with open(out.with_suffix(out.suffix + ".losses.csv"), "w") as log:

        def on_step(row):
            log.write(_loss_log_lines(row))
            log.flush()

        rows = run_training(
            model, samples, args.steps, optimizer, seed=seed,
            lr_decay_every=args.lr_decay_every, batch_clouds=args.batch_clouds,
            on_step=on_step,
        )
    save_checkpoint(model, out, optimizer=optimizer)
    out.with_suffix(out.suffix + ".config.txt").write_text(
        config.to_text(extra={"steps": args.steps, "lr": args.lr, "seed": seed})
    )
    print(f"trained {args.steps} steps; final loss {rows[-1].breakdown.total:.6g}")
    print(f"checkpoint written to {out}")
    return 0


def _cmd_complete(args):
    model = load_checkpoint(args.ckpt)
    cloud = dataio.read_cloud(args.input)
    cloud = dataio.resample_input(cloud, model.config.input_points, seed=args.seed)
    seeds, states = model.forward(cloud)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_xyz(out, states[-1].cloud.data)
    if args.export_stages:
        stage_dir = Path(args.export_stages)
        stage_dir.mkdir(parents=True, exist_ok=True)
        for i, state in enumerate(states, start=1):
            dataio.write_xyz(stage_dir / f"stage_{i}.xyz", state.cloud.data)
    if args.export_seeds:
        seeds_path = Path(args.export_seeds)
        seeds_path.parent.mkdir(parents=True, exist_ok=True)
        dataio.write_xyz(seeds_path, seeds.cloud.data)
        np.savetxt(
            str(seeds_path) + ".provenance.csv",
            seed_provenance(model.config.patch_points, model.config.seed_rate),
            fmt="%d", delimiter=",", header="seed_index,source_patch_index,kernel",
            comments="",
        )
    print(f"completion written to {out} ({states[-1].cloud.shape[0]} points)")
    return 0


# name -> value for one (partial, prediction, ground truth, mmd library)
_METRICS = {
    "cd-l1": lambda partial, pred, gt, library: 1000.0 * chamfer(pred, gt, "l1").item(),
    "cd-l2": lambda partial, pred, gt, library: 1000.0 * chamfer(pred, gt, "l2").item(),
    "fscore": lambda partial, pred, gt, library: fscore(pred, gt),
    "fidelity": lambda partial, pred, gt, library: fidelity(partial, pred),
    "mmd": lambda partial, pred, gt, library: mmd(pred, library)[0],
}


def _cmd_eval(args):
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise ContractError(
            f"--metrics {args.metrics!r} names no metric; choose from {tuple(_METRICS)}"
        )
    for m in metrics:
        if m not in _METRICS:
            raise ContractError(f"unknown metric {m!r}; choose from {tuple(_METRICS)}")
    if "mmd" in metrics and not args.mmd_library:
        raise ContractError("metric 'mmd' needs --mmd-library")
    model = None if args.predictions else load_checkpoint(args.ckpt)
    samples = dataio.load_dataset(args.data)
    library = None
    if args.mmd_library:
        library = [
            dataio.read_cloud(p) for p in sorted(Path(args.mmd_library).glob("*.xyz"))
        ]
        if not library:
            raise ContractError(f"no .xyz clouds in {args.mmd_library}")

    sums = np.zeros(len(metrics))
    for i, (sample_id, partial, gt) in enumerate(samples):
        if model is not None:
            resampled = dataio.resample_input(
                partial, model.config.input_points, seed=args.seed
            )
            pred = model.complete(resampled).astype(np.float64)
        else:
            pred = dataio.read_xyz(Path(args.predictions) / f"{sample_id}_pred.xyz")
        values = [_METRICS[m](partial, pred, gt, library) for m in metrics]
        sums += np.asarray(values)
        if i == 0:  # not before: a first sample that fails prints nothing
            print(",".join(["sample", *metrics]))
        print(",".join([sample_id, *[f"{v:.6g}" for v in values]]))
    means = sums / len(samples)
    print(",".join(["mean", *[f"{v:.6g}" for v in means]]))
    return 0


def _cmd_gradcheck(args):
    names = [args.op] if args.op else None
    failed = []

    def report(name, rep):
        status = "pass" if rep.passed else "FAIL"
        print(f"{name}: {status} ({rep.summary()})")
        if not rep.passed:
            failed.append(name)

    try:
        gradsuite.run_suite(names=names, tol=args.tol, report_fn=report)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if failed:
        print(f"{len(failed)} case(s) failed: {', '.join(failed)}", file=sys.stderr)
        return FAILURE
    return 0


def build_parser():
    parser = _Parser(prog="pointfill", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a dataset directory")
    p_train.add_argument("--config", help="flat key = value config file")
    p_train.add_argument("--data", required=True, help="directory of *_partial/_gt.xyz")
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.add_argument("--steps", type=int, default=200)
    p_train.add_argument(
        "--seed", type=int, default=None,
        help="run seed; overrides the config's init_seed (default 0)",
    )
    p_train.add_argument("--lr", type=float, default=1e-3)
    p_train.add_argument("--lr-decay-every", type=int, default=None)
    p_train.add_argument(
        "--batch-clouds", type=int, default=1,
        help="clouds accumulated per optimizer step (emulated batching)",
    )
    # each defaults to the config file's value, else the ModelConfig default
    p_train.add_argument("--generator", choices=GENERATOR_VARIANTS)
    p_train.add_argument(
        "--attention", choices=ATTENTION_VARIANTS,
        help="attention mode for the seed generator",
    )
    p_train.add_argument("--lambda", dest="lam", type=float)
    p_train.set_defaults(fn=_cmd_train)

    p_complete = sub.add_parser("complete", help="complete one partial cloud")
    p_complete.add_argument("--ckpt", required=True)
    p_complete.add_argument("--input", required=True, help=".xyz or ascii .ply cloud")
    p_complete.add_argument("--output", required=True)
    p_complete.add_argument("--export-stages", help="directory for per-stage clouds")
    p_complete.add_argument("--export-seeds", help="file for seeds (+ provenance table)")
    p_complete.add_argument("--seed", type=int, default=0)
    p_complete.set_defaults(fn=_cmd_complete)

    p_eval = sub.add_parser("eval", help="evaluate metrics over a dataset")
    source = p_eval.add_mutually_exclusive_group(required=True)
    source.add_argument("--ckpt", help="checkpoint to complete the partial clouds with")
    source.add_argument("--predictions", help="directory of <id>_pred.xyz files")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--metrics", default="cd-l1,cd-l2,fscore,fidelity")
    p_eval.add_argument("--mmd-library", help="directory of reference .xyz clouds")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(fn=_cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference audit suite")
    p_grad.add_argument("--op", help="run a single named case")
    p_grad.add_argument("--tol", type=float, default=gradsuite.TOL)
    p_grad.set_defaults(fn=_cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.fn(args)
    except (ContractError, NumericsError, FormatError, ParseError, ShapeError,
            UnicodeDecodeError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
