"""Command line surface: exit codes, files produced, determinism."""

import dataclasses
import struct
import zlib

import numpy as np
import pytest

from pointfill import autodiff as ad
from pointfill import data, gradcheck, pipeline
from pointfill.attention import ATTENTION_VARIANTS
from pointfill.checkpoint import load_checkpoint, save_checkpoint
from pointfill.cli import build_parser, main
from pointfill.errors import ContractError, FormatError
from pointfill.generator import GENERATOR_VARIANTS
from pointfill.pipeline import CompletionModel, ModelConfig, parse_config_text

from .test_checkpoint import with_stage_attention, write_version


MICRO_CFG = (
    "input_points = 64\n"
    "stage1_points = 32\n"
    "stage1_channels = 16\n"
    "patch_points = 8\n"
    "patch_channels = 24\n"
    "encoder_k = 8\n"
    "seed_rate = 2\n"
    "seed_channels = 16\n"
    "coarse_points = 16\n"
    "channels = 16\n"
    "rates = 1,2\n"
    "attention_k = 8\n"
    "interp_k = 3\n"
)


@pytest.fixture
def micro_dataset(tmp_path):
    data.build_synthetic_dataset(
        tmp_path / "data", "train", 4, seed=0, gt_points=64, partial_points=64
    )
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(MICRO_CFG)
    return tmp_path


def run_train(root, out_name, extra=()):
    return main([
        "train",
        "--config", str(root / "micro.cfg"),
        "--data", str(root / "data" / "train"),
        "--out", str(root / out_name),
        "--steps", "6",
        "--seed", "3",
        *extra,
    ])


def micro_model():
    return CompletionModel(ModelConfig.from_mapping(parse_config_text(MICRO_CFG)))


def test_usage_error_exit_code():
    assert main(["train"]) == 1


def test_unknown_subcommand_exit_code():
    assert main(["frobnicate"]) == 1


def test_missing_data_directory_is_failure(tmp_path):
    code = main([
        "train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "m.ckpt"),
        "--steps", "1",
    ])
    assert code == 2


def test_train_writes_checkpoint_log_and_config(micro_dataset, capsys):
    assert run_train(micro_dataset, "model.ckpt") == 0
    out = capsys.readouterr().out
    assert "checkpoint written" in out
    assert (micro_dataset / "model.ckpt").exists()
    log = (micro_dataset / "model.ckpt.losses.csv").read_text().splitlines()
    assert log[0] == "step,cd_seeds,cd_stage1,cd_stage2,l_part,total"
    assert len(log) == 7
    resolved = (micro_dataset / "model.ckpt.config.txt").read_text()
    assert "channels = 16" in resolved
    assert "steps = 6" in resolved


def test_train_streams_loss_log_before_failing_step(micro_dataset, monkeypatch):
    log_path = micro_dataset / "model.ckpt.losses.csv"
    on_disk = []
    real_step = pipeline.Adam.step

    def step(self):
        if self.step_count == 2:  # the third optimizer step of the run
            on_disk.append(log_path.read_text())
            raise RuntimeError("injected failure")
        real_step(self)

    monkeypatch.setattr(pipeline.Adam, "step", step)
    with pytest.raises(RuntimeError, match="injected failure"):
        run_train(micro_dataset, "model.ckpt")
    lines = on_disk[0].splitlines()
    assert lines[0] == "step,cd_seeds,cd_stage1,cd_stage2,l_part,total"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
    assert log_path.read_text() == on_disk[0]


def test_train_is_bitwise_deterministic(micro_dataset):
    assert run_train(micro_dataset, "a.ckpt") == 0
    assert run_train(micro_dataset, "b.ckpt") == 0
    log_a = (micro_dataset / "a.ckpt.losses.csv").read_text()
    log_b = (micro_dataset / "b.ckpt.losses.csv").read_text()
    assert log_a == log_b
    assert (micro_dataset / "a.ckpt").read_bytes() == (micro_dataset / "b.ckpt").read_bytes()


def test_complete_fresh_model_duplicates_coarse_cloud(micro_dataset, capsys):
    # an untrained model has zero offsets: the output is the coarse cloud
    # with every point duplicated by the product of the rates
    root = micro_dataset
    model = CompletionModel(ModelConfig.from_mapping(
        dict(line.split(" = ") for line in MICRO_CFG.strip().splitlines())
    ))
    save_checkpoint(model, root / "fresh.ckpt")
    partial = root / "data" / "train" / "0000_sphere_partial.xyz"
    code = main([
        "complete", "--ckpt", str(root / "fresh.ckpt"),
        "--input", str(partial),
        "--output", str(root / "out.xyz"),
        "--export-stages", str(root / "stages"),
        "--export-seeds", str(root / "seeds.xyz"),
    ])
    assert code == 0
    out = data.read_xyz(root / "out.xyz")
    stage1 = data.read_xyz(root / "stages" / "stage_1.xyz")
    assert out.shape == (32, 3)
    np.testing.assert_allclose(out, np.repeat(stage1, 2, axis=0), atol=1e-5)
    seeds = data.read_xyz(root / "seeds.xyz")
    assert seeds.shape == (16, 3)
    # 8 patches at seed_rate 2: seed i descends from patch i // 2, kernel i % 2
    rows = "".join(f"{i},{i // 2},{i % 2}\n" for i in range(16))
    expected = "seed_index,source_patch_index,kernel\n" + rows
    assert (root / "seeds.xyz.provenance.csv").read_bytes() == expected.encode()


def test_complete_reads_ply_input(micro_dataset, tmp_path):
    root = micro_dataset
    assert run_train(root, "model.ckpt") == 0
    rng = np.random.default_rng(0)
    cloud = rng.standard_normal((80, 3))
    data.write_ply(tmp_path / "in.ply", cloud)
    code = main([
        "complete", "--ckpt", str(root / "model.ckpt"),
        "--input", str(tmp_path / "in.ply"),
        "--output", str(tmp_path / "out.xyz"),
    ])
    assert code == 0
    assert data.read_xyz(tmp_path / "out.xyz").shape == (32, 3)


def test_eval_gt_as_prediction_fixture(micro_dataset, capsys):
    # feeding the ground truth back as the prediction pins the metrics
    root = micro_dataset
    pred_dir = root / "preds"
    pred_dir.mkdir()
    for sample_id, _, gt in data.load_dataset(root / "data" / "train"):
        data.write_xyz(pred_dir / f"{sample_id}_pred.xyz", gt)
    code = main([
        "eval", "--data", str(root / "data" / "train"),
        "--predictions", str(pred_dir),
        "--metrics", "cd-l1,cd-l2,fscore",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "sample,cd-l1,cd-l2,fscore"
    mean = lines[-1].split(",")
    assert mean[0] == "mean"
    assert float(mean[1]) == pytest.approx(0.0, abs=1e-9)
    assert float(mean[2]) == pytest.approx(0.0, abs=1e-9)
    assert float(mean[3]) == pytest.approx(1.0)


def test_eval_with_model_and_mmd(micro_dataset, capsys):
    root = micro_dataset
    assert run_train(root, "model.ckpt") == 0
    capsys.readouterr()  # drain the training output
    lib = root / "library"
    lib.mkdir()
    for i, (_, _, gt) in enumerate(data.load_dataset(root / "data" / "train")):
        data.write_xyz(lib / f"ref{i}.xyz", gt)
    code = main([
        "eval", "--ckpt", str(root / "model.ckpt"),
        "--data", str(root / "data" / "train"),
        "--metrics", "cd-l1,fidelity,mmd",
        "--mmd-library", str(lib),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6  # header + 4 samples + mean
    assert all(len(line.split(",")) == 4 for line in lines)


def test_eval_rejects_unknown_metric(micro_dataset):
    code = main([
        "eval", "--data", str(micro_dataset / "data" / "train"),
        "--predictions", "whatever", "--metrics", "emd",
    ])
    assert code == 2


def test_gradcheck_single_op_and_exit_codes(capsys):
    assert main(["gradcheck", "--op", "chamfer_l1"]) == 0
    assert "chamfer_l1: pass" in capsys.readouterr().out
    assert main(["gradcheck", "--op", "no_such_case"]) == 1


def test_gradcheck_nan_tolerance_exits_two(capsys):
    # NaN compares False against every error, so it would pass any adjoint
    assert main(["gradcheck", "--op", "attention_head_softmax", "--tol", "nan"]) == 2
    assert "finite tol" in capsys.readouterr().err


def test_gradcheck_full_suite_exits_zero(capsys, monkeypatch):
    # without --op every registered case runs; a small registry stands in
    def wrong_adjoint():  # a recorded adjoint 3/2 times too large
        x = ad.Tensor(np.linspace(1.0, 2.0, 3), requires_grad=True)
        return lambda x: ad.reduce_sum(ad._emit(x.data * 2, [x], lambda g: (g * 3,))), [x]

    monkeypatch.setattr(gradcheck, "CASES", {"sqrt": gradcheck.CASES["sqrt"]})
    assert main(["gradcheck"]) == 0
    gradcheck.CASES["wrong_adjoint"] = wrong_adjoint
    assert main(["gradcheck"]) == 2
    out, err = capsys.readouterr()
    assert out.count("sqrt: pass") == 2 and out.count("FAIL") == 1
    assert "wrong_adjoint: FAIL" in out and "1 case(s) failed: wrong_adjoint" in err


# the ablation flags of train: --generator, --attention and --lambda


def test_ablate_trains_variant(micro_dataset, capsys):
    root = micro_dataset
    code = main([
        "train", "--generator", "graphconv", "--attention", "softmax",
        "--config", str(root / "micro.cfg"),
        "--data", str(root / "data" / "train"),
        "--out", str(root / "ablate.ckpt"),
        "--steps", "4", "--seed", "1",
    ])
    assert code == 0
    resolved = (root / "ablate.ckpt.config.txt").read_text()
    assert "generator = graphconv" in resolved
    log = (root / "ablate.ckpt.losses.csv").read_text().splitlines()
    assert len(log) == 5
    totals = [float(line.split(",")[-1]) for line in log[1:]]
    assert all(np.isfinite(totals))


@pytest.mark.parametrize(
    "flags, expected",
    [((), ("folding", "softmax", "2.5")),
     (("--generator", "deconv"), ("deconv", "softmax", "2.5")),
     (("--attention", "log", "--lambda", "0.5"), ("folding", "log", "0.5"))],
    ids=["no_flags", "generator_flag", "attention_flags"],
)
def test_ablate_flags_not_given_keep_config_values(micro_dataset, flags, expected):
    # the flags' defaults used to override the file: this trained uptrans/none
    root = micro_dataset
    (root / "micro.cfg").write_text(
        MICRO_CFG + "generator = folding\nseed_attention = softmax\nattention_scale = 2.5\n"
    )
    code = main([
        "train", *flags, "--config", str(root / "micro.cfg"),
        "--data", str(root / "data" / "train"), "--out", str(root / "ablate.ckpt"),
        "--steps", "1",
    ])
    assert code == 0
    resolved = parse_config_text((root / "ablate.ckpt.config.txt").read_text())
    keys = ("generator", "seed_attention", "attention_scale")
    assert tuple(resolved[k] for k in keys) == expected
    assert load_checkpoint(root / "ablate.ckpt").config.generator == expected[0]


def test_ablate_infinite_lambda_exits_2(micro_dataset, capsys):
    code = main([
        "train", "--attention", "scaled", "--lambda", "inf",
        "--config", str(micro_dataset / "micro.cfg"),
        "--data", str(micro_dataset / "data" / "train"),
        "--out", str(micro_dataset / "inf.ckpt"),
        "--steps", "1",
    ])
    assert code == 2
    assert "finite lam" in capsys.readouterr().err
    assert not (micro_dataset / "inf.ckpt").exists()


def test_ablate_offers_every_variant():
    parser = build_parser()
    for generator in GENERATOR_VARIANTS:
        for attention in ATTENTION_VARIANTS:
            args = parser.parse_args([
                "train", "--generator", generator, "--attention", attention,
                "--data", "d", "--out", "o",
            ])
            assert (args.generator, args.attention) == (generator, attention)


def test_ablate_command_is_gone_and_exits_1(capsys):
    assert main(["ablate", "--generator", "graphconv", "--data", "d", "--out", "o"]) == 1
    assert "invalid choice: 'ablate'" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["channels = abc", "rates = 1,x"])
def test_train_malformed_config_value_exits_2(micro_dataset, capsys, line):
    (micro_dataset / "micro.cfg").write_text(MICRO_CFG + line + "\n")
    assert run_train(micro_dataset, "model.ckpt") == 2
    key, value = (part.strip() for part in line.split("="))
    err = capsys.readouterr().err
    assert repr(key) in err and repr(value) in err


def train_without_seed_flag(root, out_name, extra=()):
    return main([
        "train", "--config", str(root / "micro.cfg"), "--data",
        str(root / "data" / "train"), "--out", str(root / out_name), "--steps", "2",
        *extra,
    ])


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_train_steps_below_one_exits_2_and_writes_nothing(micro_dataset, capsys, steps):
    assert run_train(micro_dataset, "model.ckpt", ("--steps", steps)) == 2
    assert "--steps" in capsys.readouterr().err
    assert not list(micro_dataset.glob("model.ckpt*"))


@pytest.mark.parametrize("lr", ["nan", "inf", "-1"])
def test_train_lr_not_finite_or_negative_exits_2_and_writes_nothing(micro_dataset, capsys, lr):
    # a NaN or infinite rate used to save a checkpoint of non-finite parameters
    # and a negative one trained uphill
    code = main([
        "train", "--config", str(micro_dataset / "micro.cfg"),
        "--data", str(micro_dataset / "data" / "train"),
        "--out", str(micro_dataset / "model.ckpt"), "--steps", "1", "--lr", lr,
    ])
    assert code == 2
    assert "lr" in capsys.readouterr().err
    assert not list(micro_dataset.glob("model.ckpt*"))


@pytest.mark.parametrize(
    "flag, value",
    [("--batch-clouds", "0"), ("--batch-clouds", "-2"),
     ("--lr-decay-every", "0"), ("--lr-decay-every", "-1")],
)
def test_train_schedule_flag_below_one_exits_2_and_writes_nothing(micro_dataset, capsys,
                                                                  flag, value):
    # a negative --lr-decay-every used to raise the learning rate every step
    assert run_train(micro_dataset, "model.ckpt", (flag, value)) == 2
    assert flag in capsys.readouterr().err
    assert not list(micro_dataset.glob("model.ckpt*"))


def test_eval_needs_a_checkpoint_or_predictions(micro_dataset, capsys):
    assert main(["eval", "--data", str(micro_dataset / "data" / "train")]) == 1
    err = capsys.readouterr().err
    assert "--ckpt" in err and "--predictions" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line", ["channels = 0", "attention_k = -2", "init_seed = -1"])
def test_train_config_value_below_range_exits_2(micro_dataset, capsys, line):
    (micro_dataset / "micro.cfg").write_text(MICRO_CFG + line + "\n")
    assert train_without_seed_flag(micro_dataset, "model.ckpt") == 2
    assert line.split("=")[0].strip() in capsys.readouterr().err


SIZE_FIELDS = (
    "input_points", "stage1_points", "stage1_channels", "patch_points",
    "patch_channels", "encoder_k", "seed_rate", "seed_channels",
    "coarse_points", "channels", "attention_k", "interp_k",
)


def micro_layout(**changes):
    """MICRO_CFG's fields with ``changes`` first, so the first key names the
    field at fault. The layout has 8 patches, 16 seeds and 16 coarse points."""
    layout = dataclasses.asdict(ModelConfig.from_mapping(parse_config_text(MICRO_CFG)))
    return {**changes, **{k: v for k, v in layout.items() if k not in changes}}


# neighborhoods larger than the points they search: each used to validate,
# then fail the first forward pass
OVER_SEARCHED = [
    micro_layout(attention_k=12), micro_layout(encoder_k=12),
    micro_layout(interp_k=20), micro_layout(attention_k=8, coarse_points=6),
]


# choices that are not a generator or attention the model can build: each
# used to validate, then fail at model construction after the data was read
BAD_CHOICES = [
    {"generator": "bogus"}, {"seed_attention": "hardmax"},
    {"attention_scale": 0.0, "seed_attention": "scaled"},
    {"attention_scale": float("nan"), "seed_attention": "scaled"},
]


# values not of their field's type: a rate of 2.5 was truncated to 2, a
# width of 64.5 failed at model construction, and the others validated
WRONG_TYPES = [
    {"rates": (1, 2.5)}, {"channels": 64.5}, {"init_seed": 1.5}, {"attention_k": True},
    {"rates": [1, 2]}, {"attention_scale": "1.0"}, {"generator": None},
]


@pytest.mark.parametrize(
    "overrides",
    [{name: 0} for name in SIZE_FIELDS] + [{"channels": -3}, {"init_seed": -1}]
    + OVER_SEARCHED + BAD_CHOICES + WRONG_TYPES,
    ids=lambda o: "{}={}".format(*next(iter(o.items()))),
)
def test_model_config_rejects_values_below_range(overrides):
    with pytest.raises(ContractError, match=next(iter(overrides))):
        ModelConfig(**overrides)


@pytest.mark.parametrize("generator", ["folding", "deconv"])
def test_cores_without_a_neighborhood_take_any_attention_k(generator):
    ModelConfig(**micro_layout(generator=generator, attention_k=12))


def test_train_with_an_over_searched_neighborhood_exits_2_and_writes_nothing(
        micro_dataset, capsys):
    (micro_dataset / "micro.cfg").write_text(MICRO_CFG + "interp_k = 20\n")
    out = micro_dataset / "out"
    assert main([
        "train", "--config", str(micro_dataset / "micro.cfg"),
        "--data", str(micro_dataset / "data" / "train"),
        "--out", str(out / "model.ckpt"), "--steps", "1",
    ]) == 2
    assert "interp_k" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config_lines, field",
    [("generator = bogus\n", "generator"),
     ("seed_attention = scaled\nattention_scale = 0\n", "attention_scale")],
    ids=["generator", "attention_scale"],
)
def test_train_with_a_config_that_cannot_build_names_the_field_before_reading_data(
        tmp_path, capsys, config_lines, field):
    (tmp_path / "micro.cfg").write_text(MICRO_CFG + config_lines)
    assert main([
        "train", "--config", str(tmp_path / "micro.cfg"),
        "--data", str(tmp_path / "absent"),
        "--out", str(tmp_path / "model.ckpt"), "--steps", "1",
    ]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "config_line, flag, expected",
    [("init_seed = 5\n", (), 5), ("init_seed = 5\n", ("--seed", "3"), 3), ("", (), 0)],
    ids=["config_only", "flag_overrides_config", "neither"],
)
def test_train_seed_flag_overrides_config_init_seed(micro_dataset, config_line, flag,
                                                     expected):
    (micro_dataset / "micro.cfg").write_text(MICRO_CFG + config_line)
    assert train_without_seed_flag(micro_dataset, "a.ckpt", flag) == 0
    resolved = parse_config_text((micro_dataset / "a.ckpt.config.txt").read_text())
    assert (resolved["init_seed"], resolved["seed"]) == (str(expected), str(expected))
    # one number names the run: the same run as passing that number as --seed
    (micro_dataset / "micro.cfg").write_text(MICRO_CFG)
    assert train_without_seed_flag(micro_dataset, "b.ckpt", ("--seed", str(expected))) == 0
    assert (micro_dataset / "a.ckpt").read_bytes() == (micro_dataset / "b.ckpt").read_bytes()


def test_train_config_file_with_undecodable_bytes_exits_2(micro_dataset):
    (micro_dataset / "micro.cfg").write_bytes(MICRO_CFG.encode() + b"channels = \xff\n")
    assert run_train(micro_dataset, "model.ckpt") == 2


def _corrupt(raw, kind):
    """A checkpoint byte string damaged in one place. The checksum is
    recomputed, so the damage reaches the parser check under test."""
    raw = raw[:-4]
    (config_len,) = struct.unpack_from("<I", raw, 8)
    if kind == "record_name_utf8":
        raw = raw[: 16 + config_len] + b"\xff" + raw[17 + config_len:]
    elif kind == "config_utf8":
        raw = raw[:12] + b"\xff" + raw[13:]
    elif kind == "extents_wrap":
        # first record: extents whose uint64 product wraps to 0, no data
        head = 12 + config_len
        (name_len,) = struct.unpack_from("<I", raw, head)
        head += 8 + name_len  # past name length, name and dtype code
        raw = raw[:head] + struct.pack("<4I", 3, 2**31, 2**31, 4)
    else:
        config = raw[12: 12 + config_len].replace(b"channels = 16", b"channels = abc")
        raw = raw[:8] + struct.pack("<I", len(config)) + config + raw[12 + config_len:]
    return raw + struct.pack("<I", zlib.crc32(raw))


@pytest.mark.parametrize(
    "kind", ["record_name_utf8", "config_utf8", "config_value", "extents_wrap"]
)
def test_complete_corrupt_checkpoint_exits_2(micro_dataset, capsys, kind):
    root = micro_dataset
    path = root / "bad.ckpt"
    save_checkpoint(micro_model(), path)
    damaged = _corrupt(path.read_bytes(), kind)
    assert damaged != path.read_bytes()
    path.write_bytes(damaged)
    with pytest.raises(FormatError):
        load_checkpoint(path)
    code = main([
        "complete", "--ckpt", str(path),
        "--input", str(root / "data" / "train" / "0000_sphere_partial.xyz"),
        "--output", str(root / "out.xyz"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "checkpoint" in err and "checksum" not in err


@pytest.mark.parametrize("value", ["log,softmax", "log,softmax,softmax"])
def test_complete_with_a_non_softmax_stage_attention_exits_2(micro_dataset, capsys,
                                                             value):
    # the stages always use softmax; a file asking for another normalization
    # must not complete with a model it does not describe
    root = micro_dataset
    path = root / "log.ckpt"
    save_checkpoint(micro_model(), path)
    path.write_bytes(with_stage_attention(path.read_bytes(), value))
    code = main([
        "complete", "--ckpt", str(path),
        "--input", str(root / "data" / "train" / "0000_sphere_partial.xyz"),
        "--output", str(root / "out.xyz"),
    ])
    assert code == 2
    assert "'stage_attention'" in capsys.readouterr().err
    assert not (root / "out.xyz").exists()


@pytest.mark.parametrize("command", ["complete", "eval"])
def test_attention_checkpoint_before_version_4_exits_2(micro_dataset, capsys, command):
    # its transformers had one first layer per kernel, not one shared layer
    root = micro_dataset
    write_version(root / "old.ckpt", micro_model(), 3)
    train = root / "data" / "train"
    where = {
        "complete": ["--input", str(train / "0000_sphere_partial.xyz"),
                     "--output", str(root / "out.xyz")],
        "eval": ["--data", str(train)],
    }[command]
    assert main([command, "--ckpt", str(root / "old.ckpt"), *where]) == 2
    captured = capsys.readouterr()
    assert "per-kernel attention layout" in captured.err
    assert captured.out == ""
    assert not (root / "out.xyz").exists()


@pytest.mark.parametrize("command", ["complete", "eval"])
def test_negative_seed_exits_2(micro_dataset, capsys, command):
    root = micro_dataset
    save_checkpoint(micro_model(), root / "fresh.ckpt")
    train = root / "data" / "train"
    where = {
        "complete": ["--input", str(train / "0000_sphere_partial.xyz"),
                     "--output", str(root / "out.xyz")],
        "eval": ["--data", str(train)],
    }[command]
    code = main([command, "--ckpt", str(root / "fresh.ckpt"), *where, "--seed", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "seed must be >= 0" in captured.err
    assert captured.out == ""
    assert not (root / "out.xyz").exists()


@pytest.mark.parametrize("count", ["abc", "-3", ""])
def test_complete_ply_with_a_bad_vertex_count_exits_2(micro_dataset, capsys, count):
    root = micro_dataset
    save_checkpoint(micro_model(), root / "fresh.ckpt")
    ply = root / "bad.ply"
    ply.write_text(
        f"ply\nformat ascii 1.0\nelement vertex {count}\nproperty float x\n"
        "property float y\nproperty float z\nend_header\n0 0 0\n"
    )
    code = main([
        "complete", "--ckpt", str(root / "fresh.ckpt"),
        "--input", str(ply), "--output", str(root / "out.xyz"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3: vertex count is not a non-negative integer" in err


@pytest.mark.parametrize("command", ["train", "complete", "eval"])
def test_directory_where_a_file_is_expected_exits_2(micro_dataset, capsys, command):
    # each of these used to escape main as IsADirectoryError, a traceback
    root = micro_dataset
    train = root / "data" / "train"
    argv = {
        "train": ["train", "--config", str(root), "--data", str(train),
                  "--out", str(root / "model.ckpt"), "--steps", "1"],
        "complete": ["complete", "--ckpt", str(root),
                     "--input", str(train / "0000_sphere_partial.xyz"),
                     "--output", str(root / "out.xyz")],
        "eval": ["eval", "--ckpt", str(root), "--data", str(train)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Is a directory" in captured.err
    assert captured.out == ""
    assert not list(root.glob("model.ckpt*")) and not (root / "out.xyz").exists()


def test_train_out_existing_directory_exits_2_and_writes_nothing(micro_dataset, capsys,
                                                                 monkeypatch):
    # it used to train every step and write <out>.losses.csv before
    # save_checkpoint failed on the directory
    (micro_dataset / "run").mkdir()
    before = sorted(micro_dataset.rglob("*"))

    def no_load(directory):
        raise AssertionError("dataset loaded before --out was checked")

    monkeypatch.setattr(data, "load_dataset", no_load)
    assert run_train(micro_dataset, "run") == 2
    assert "--out" in capsys.readouterr().err
    assert sorted(micro_dataset.rglob("*")) == before


def test_train_non_finite_coordinate_exits_2_naming_the_file(micro_dataset, capsys):
    # a NaN used to pass the reader, write an empty <out>.losses.csv and fail
    # at step 1 without naming the file
    gt = sorted((micro_dataset / "data" / "train").glob("*_gt.xyz"))[1]
    lines = gt.read_text().splitlines()
    lines[4] = "nan 0 0"
    gt.write_text("\n".join(lines) + "\n")
    assert run_train(micro_dataset, "model.ckpt") == 2
    assert f"{gt}: line 5: non-finite coordinate" in capsys.readouterr().err
    assert not list(micro_dataset.glob("model.ckpt*"))


@pytest.mark.parametrize("metrics", [",", "", " , "])
def test_eval_with_no_metric_exits_2_before_loading(micro_dataset, capsys, monkeypatch,
                                                    metrics):
    # "," used to print an empty sample/mean table and exit 0
    save_checkpoint(micro_model(), micro_dataset / "fresh.ckpt")

    def no_load(path):
        raise AssertionError("checkpoint loaded before --metrics was checked")

    monkeypatch.setattr("pointfill.cli.load_checkpoint", no_load)
    code = main([
        "eval", "--ckpt", str(micro_dataset / "fresh.ckpt"),
        "--data", str(micro_dataset / "data" / "train"), "--metrics", metrics,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "names no metric" in captured.err
    assert captured.out == ""
