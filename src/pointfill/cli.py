"""Command line interface: train, complete, eval, gradcheck, ablate.

Exit codes: 0 success, 1 usage error, 2 numeric or validation failure.
Model settings come from a flat ``key = value`` config file; command line
flags override file values, and the fully resolved config is echoed next to
every output for provenance.
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
from .generator import GENERATOR_VARIANTS, export_seed_provenance
from .losses import chamfer, fidelity, fscore, mmd
from .pipeline import Adam, CompletionModel, ModelConfig, parse_config_text, run_training

USAGE_ERROR = 1
FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _resolve_config(args, overrides=None):
    mapping = {}
    if getattr(args, "config", None):
        mapping.update(parse_config_text(Path(args.config).read_text(), source=args.config))
    if getattr(args, "seed", None) is not None:
        mapping["init_seed"] = str(args.seed)
    if overrides:
        mapping.update(overrides)
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


def _cmd_train(args, overrides=None):
    # refused here, before any file is written
    for flag, value in (("--steps", args.steps), ("--batch-clouds", args.batch_clouds),
                        ("--lr-decay-every", args.lr_decay_every)):
        if value is not None and value < 1:
            raise ContractError(f"{flag} must be >= 1, got {value}")
    config = _resolve_config(args, overrides)
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


def _cmd_ablate(args):
    overrides = {"generator": args.generator, "seed_attention": args.attention}
    if args.lam is not None:
        overrides["attention_scale"] = str(args.lam)
    return _cmd_train(args, overrides)


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
        export_seed_provenance(
            str(seeds_path) + ".provenance.csv",
            model.config.patch_points, model.config.seed_rate,
        )
    print(f"completion written to {out} ({states[-1].cloud.shape[0]} points)")
    return 0


_METRICS = ("cd-l1", "cd-l2", "fscore", "fidelity", "mmd")


def _cmd_eval(args):
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    for m in metrics:
        if m not in _METRICS:
            raise ContractError(f"unknown metric {m!r}; choose from {_METRICS}")
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
        values = []
        for m in metrics:
            if m == "cd-l1":
                values.append(1000.0 * chamfer(pred, gt, "l1").item())
            elif m == "cd-l2":
                values.append(1000.0 * chamfer(pred, gt, "l2").item())
            elif m == "fscore":
                values.append(fscore(pred, gt))
            elif m == "fidelity":
                values.append(fidelity(partial, pred))
            else:
                values.append(mmd(pred, library)[0])
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


def _add_training_flags(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--data", required=True, help="directory of *_partial/_gt.xyz")
    parser.add_argument("--out", required=True, help="checkpoint output path")
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="run seed; overrides the config's init_seed (default 0)",
    )
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--lr-decay-every", type=int, default=None)
    parser.add_argument(
        "--batch-clouds", type=int, default=1,
        help="clouds accumulated per optimizer step (emulated batching)",
    )


def build_parser():
    parser = _Parser(prog="pointfill", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a dataset directory")
    _add_training_flags(p_train)
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

    p_ablate = sub.add_parser("ablate", help="train a generator/attention variant")
    p_ablate.add_argument(
        "--generator", default="uptrans", choices=GENERATOR_VARIANTS,
    )
    p_ablate.add_argument(
        "--attention", default="none", choices=ATTENTION_VARIANTS,
        help="attention mode for the seed generator",
    )
    p_ablate.add_argument("--lambda", dest="lam", type=float, default=None)
    _add_training_flags(p_ablate)
    p_ablate.set_defaults(fn=_cmd_ablate)
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
            UnicodeDecodeError, FileNotFoundError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
