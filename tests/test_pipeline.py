"""Model assembly, training behavior, parameter accounting, persistence."""

import numpy as np
import pytest

from pointfill import geometry
from pointfill.checkpoint import load_checkpoint, read_checkpoint, save_checkpoint
from pointfill.errors import ContractError, FormatError, NumericsError, ParseError
from pointfill.layers import Module
from pointfill.pipeline import (
    Adam,
    CompletionModel,
    ModelConfig,
    evaluate_loss,
    parse_config_text,
    run_training,
    train_step,
)

from .oracles import fps_oracle


def desk_config(**overrides):
    overrides.setdefault("precision", "float32")
    return ModelConfig.desk(**overrides)


def random_cloud(rng, n, spread=1.0):
    return spread * rng.standard_normal((n, 3))


# --- configuration ---------------------------------------------------------------


def test_stage_sizes_desk():
    assert desk_config().stage_sizes == [128, 256, 512]


def test_stage_sizes_benchmark_layouts():
    assert ModelConfig.benchmark_16k().stage_sizes == [512, 2048, 16384]
    assert ModelConfig.benchmark_8k().stage_sizes == [512, 2048, 8192]


def test_config_rejects_empty_rates():
    with pytest.raises(ContractError):
        ModelConfig(rates=())


def test_config_mapping_round_trip():
    cfg = desk_config(rates=(1, 2, 4), generator="pointwise", attention_scale=2.5)
    again = ModelConfig.from_mapping(cfg.to_mapping())
    assert again == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ContractError):
        ModelConfig.from_mapping({"not_a_key": "1"})


@pytest.mark.parametrize("key,value", [("channels", "abc"), ("rates", "1,x")])
def test_config_rejects_malformed_value_naming_key_and_value(key, value):
    with pytest.raises(ParseError, match=f"'{key}'.*'{value}'"):
        ModelConfig.from_mapping({key: value})


def test_config_text_strips_comments_and_round_trips():
    text = "# layout\nchannels = 32   # narrower\n\nrates = 1,2\n"
    assert parse_config_text(text) == {"channels": "32", "rates": "1,2"}
    cfg = desk_config(rates=(1, 2, 4), generator="pointwise", attention_scale=2.5)
    assert ModelConfig.from_mapping(parse_config_text(cfg.to_text())) == cfg


def test_config_text_rejects_line_without_equals():
    with pytest.raises(ParseError, match="line 2"):
        parse_config_text("channels = 32\nchannels 32\n")


# --- forward -----------------------------------------------------------------------


def test_forward_desk_stage_counts():
    rng = np.random.default_rng(0)
    model = CompletionModel(desk_config())
    seeds, states = model.forward(random_cloud(rng, 512))
    assert seeds.cloud.shape == (128, 3)
    assert [s.cloud.shape[0] for s in states] == [128, 256, 512]
    assert [s.features.shape[0] for s in states] == [128, 256, 512]


def test_fresh_model_outputs_duplicate_coarse_cloud():
    # offset heads start at zero, so each stage only duplicates its input
    rng = np.random.default_rng(1)
    model = CompletionModel(desk_config())
    partial = random_cloud(rng, 512)
    seeds, states = model.forward(partial)
    merged = np.concatenate([seeds.cloud.data, partial.astype(np.float32)], axis=0)
    coarse = merged[fps_oracle(merged, 128, 0)]
    np.testing.assert_array_equal(states[0].cloud.data, coarse)
    for prev, nxt, rate in zip(states, states[1:], model.config.rates[1:]):
        np.testing.assert_array_equal(
            nxt.cloud.data, np.repeat(prev.cloud.data, rate, axis=0)
        )


def test_forward_interpolates_seed_features_once_per_stage(monkeypatch):
    # each stage interpolates at its input cloud and hands that one tensor
    # to both its query builder and its core; the final cloud gets none
    queried = []
    interpolate = geometry.interpolate_seed_features

    def counted(queries, seeds, k=3):
        queried.append(len(queries))
        return interpolate(queries, seeds, k)

    monkeypatch.setattr(geometry, "interpolate_seed_features", counted)
    config = desk_config()
    CompletionModel(config).forward(random_cloud(np.random.default_rng(2), 512))
    assert len(queried) == len(config.rates)
    assert queried == [config.coarse_points, *config.stage_sizes[:-1]]


def test_forward_is_deterministic():
    rng = np.random.default_rng(2)
    partial = random_cloud(rng, 512)
    outs = []
    for _ in range(2):
        model = CompletionModel(desk_config(init_seed=7))
        outs.append(model.forward(partial)[1][-1].cloud.data)
    assert np.array_equal(outs[0], outs[1])


def test_forward_permutation_invariance_of_final_cloud():
    rng = np.random.default_rng(3)
    model = CompletionModel(desk_config(precision="float64"))
    partial = random_cloud(rng, 512)
    base = model.forward(partial)[1][-1].cloud.data
    permuted = model.forward(partial[rng.permutation(512)])[1][-1].cloud.data
    assert np.array_equal(base, permuted)


# --- training ------------------------------------------------------------------------


def toy_pair(rng, n=512):
    gt = random_cloud(rng, n, spread=0.5)
    partial = gt[gt[:, 0] > gt[:, 0].mean() - 0.3]
    partial = np.concatenate([partial, partial], axis=0)[:n]
    return partial, gt


def test_train_step_deterministic_breakdown():
    rng = np.random.default_rng(4)
    partial, gt = toy_pair(rng)
    results = []
    for _ in range(2):
        model = CompletionModel(desk_config(init_seed=5))
        opt = Adam(model, lr=1e-3)
        results.append(train_step(model, partial, gt, opt))
    assert results[0] == results[1]
    assert results[0].total == pytest.approx(
        sum(results[0].stage_cds) + results[0].partial_matching, abs=1e-6
    )


def test_evaluate_loss_matches_train_step_bitwise():
    rng = np.random.default_rng(6)
    for seed in range(4):
        partial, gt = toy_pair(rng)
        model = CompletionModel(desk_config(init_seed=seed))
        evaluated = evaluate_loss(model, partial, gt)
        assert evaluated == train_step(model, partial, gt, Adam(model, lr=1e-3))


def test_zero_learning_rate_keeps_parameters():
    rng = np.random.default_rng(6)
    partial, gt = toy_pair(rng)
    model = CompletionModel(desk_config())
    before = [p.tensor.data.copy() for p in model.named_parameters()]
    train_step(model, partial, gt, Adam(model, lr=0.0))
    after = [p.tensor.data for p in model.named_parameters()]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


@pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, -1e-3])
def test_adam_rejects_a_non_finite_or_negative_learning_rate(lr):
    with pytest.raises(ContractError, match="learning rate"):
        Adam(CompletionModel(ModelConfig.micro()), lr=lr)


def test_short_training_reduces_loss():
    rng = np.random.default_rng(7)
    samples = [toy_pair(rng) for _ in range(4)]
    model = CompletionModel(desk_config(init_seed=8))
    opt = Adam(model, lr=1e-3)
    rows = run_training(model, samples, steps=30, optimizer=opt, seed=0)
    assert rows[-1].breakdown.total < rows[0].breakdown.total


def test_non_finite_loss_raises_numerics_error():
    rng = np.random.default_rng(9)
    partial, gt = toy_pair(rng)
    model = CompletionModel(desk_config())
    # poison the seed coordinate head so NaN reaches the loss directly
    # (a relu would silence NaN in earlier layers)
    bad = {p.name: p.tensor for p in model.named_parameters()}
    bad["seed_generator.coord_map.lin1.b"].data[0] = np.nan
    with pytest.raises(NumericsError):
        train_step(model, partial, gt, Adam(model, lr=1e-3))


def test_learning_rate_decay_schedule():
    rng = np.random.default_rng(10)
    samples = [toy_pair(rng, n=512)]
    model = CompletionModel(desk_config())
    opt = Adam(model, lr=1e-3)
    seen = []
    original_step = opt.step

    def spy_step():
        seen.append(opt.lr)
        original_step()

    opt.step = spy_step
    run_training(model, samples, steps=4, optimizer=opt, seed=0, lr_decay_every=2)
    assert seen == [1e-3, 1e-3, 1e-4, 1e-4]


@pytest.mark.parametrize("every", [0, -1])
def test_learning_rate_decay_interval_below_one_is_refused(every):
    # -1 used to multiply the rate by 10 every step; 0 silently meant no decay
    rng = np.random.default_rng(10)
    model = CompletionModel(desk_config())
    with pytest.raises(ContractError, match="lr_decay_every"):
        run_training(model, [toy_pair(rng, n=512)], steps=2, optimizer=Adam(model),
                     lr_decay_every=every)


# --- parameter accounting ---------------------------------------------------------------


def test_parameter_count_benchmark_config_in_expected_band():
    model = CompletionModel(ModelConfig.benchmark_16k())
    count = model.parameter_count()
    assert 1_600_000 <= count <= 4_800_000


def test_parameter_count_empty_model_is_zero():
    class Hollow(Module):
        def named_parameters(self, prefix=""):
            return iter(())

    assert Hollow().parameter_count() == 0


def test_parameter_count_grows_with_width():
    narrow = CompletionModel(desk_config())
    wide = CompletionModel(desk_config(channels=128, seed_channels=128))
    assert wide.parameter_count() > narrow.parameter_count()


def test_parameter_names_unique_and_prefixed():
    model = CompletionModel(desk_config())
    names = [p.name for p in model.named_parameters()]
    assert len(names) == len(set(names))
    assert any(n.startswith("encoder.") for n in names)
    assert any(n.startswith("seed_generator.") for n in names)
    assert any(n.startswith("stages0.") for n in names)


# --- checkpointing ---------------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(11)
    model = CompletionModel(desk_config(init_seed=12))
    probe = random_cloud(rng, 512)
    before = model.forward(probe)[1][-1].cloud.data
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    after = loaded.forward(probe)[1][-1].cloud.data
    assert loaded.config == model.config
    assert np.array_equal(before, after)


def test_checkpoint_truncated_file(tmp_path):
    model = CompletionModel(desk_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_mismatched_model_names_first_offender(tmp_path):
    model = CompletionModel(desk_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    other = CompletionModel(desk_config(channels=128))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path, into=other)
    assert "point_lift" in str(err.value) or "shape" in str(err.value)


def test_checkpoint_optimizer_state_resumes_deterministically(tmp_path):
    rng = np.random.default_rng(13)
    samples = [toy_pair(rng) for _ in range(2)]

    # one continuous 6-step run
    model_a = CompletionModel(desk_config(init_seed=14))
    opt_a = Adam(model_a, lr=1e-3)
    run_training(model_a, samples, steps=6, optimizer=opt_a, seed=1)

    # the same run split 3 + 3 through a checkpoint
    model_b = CompletionModel(desk_config(init_seed=14))
    opt_b = Adam(model_b, lr=1e-3)
    rows = run_training(model_b, samples, steps=3, optimizer=opt_b, seed=1)
    path = tmp_path / "resume.ckpt"
    save_checkpoint(model_b, path, optimizer=opt_b)

    model_c = load_checkpoint(path)
    opt_c = Adam(model_c, lr=1e-3)
    load_checkpoint(path, into=model_c, optimizer=opt_c)
    assert opt_c.step_count == 3
    # replay the remaining epoch order: same seed, skipping consumed steps
    order_rng = np.random.default_rng(1)
    order = list(order_rng.permutation(2)) + list(order_rng.permutation(2)) + list(
        order_rng.permutation(2)
    )
    for idx in order[3:6]:
        train_step(model_c, samples[idx][0], samples[idx][1], opt_c)

    for pa, pc in zip(model_a.named_parameters(), model_c.named_parameters()):
        assert np.array_equal(pa.tensor.data, pc.tensor.data), pa.name


def test_checkpoint_without_optimizer_state_refuses_restore(tmp_path):
    model = CompletionModel(desk_config())
    path = tmp_path / "bare.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(FormatError):
        load_checkpoint(path, optimizer=Adam(model, lr=1e-3))


def test_read_checkpoint_exposes_config_and_arrays(tmp_path):
    model = CompletionModel(desk_config())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    mapping, arrays = read_checkpoint(path)
    assert mapping["channels"] == "64"
    assert all(a.dtype == np.float32 for a in arrays.values())
    assert len(arrays) == sum(1 for _ in model.named_parameters())
