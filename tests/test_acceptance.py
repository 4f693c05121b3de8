"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Budgets asserted here: the gradient suite under two
minutes, toy training under ten.
"""

import time

import numpy as np
import pytest

import pointfill as pf
from pointfill import autodiff as ad
from pointfill import data, gradcheck
from pointfill.cli import main as cli_main
from pointfill.generator import UpsampleTransformer
from pointfill.losses import chamfer, fscore, mmd, partial_matching_loss
from pointfill.pipeline import Adam, CompletionModel, ModelConfig, run_training

from .oracles import (
    chamfer_oracle,
    directed_nn_mean,
    fps_oracle,
    fscore_oracle,
    knn_oracle,
    mmd_oracle,
    softmax_over_neighbors,
)


def _ok(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def random_cloud(rng, n, spread=1.0):
    return spread * rng.standard_normal((n, 3))


# -- 1 ------------------------------------------------------------------------


def test_criterion_01_gradient_suite():
    t0 = time.time()
    results = gradcheck.run_suite(tol=1e-4, eps=1e-5)
    elapsed = time.time() - t0
    failed = [name for name, rep in results if not rep.passed]
    assert not failed, f"gradient suite failures: {failed}"
    for must in (
        "interpolation", "uptrans_softmax", "uptrans_none", "uptrans_scaled",
        "uptrans_log", "generator_folding", "generator_deconv",
        "generator_graphconv", "generator_pointwise", "chamfer_l1", "chamfer_l2",
        "partial_matching", "full_forward",
    ):
        assert must in dict(results)
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    _ok(1, f"gradient suite ({len(results)} cases, {elapsed:.1f}s)")


# -- 2 ------------------------------------------------------------------------


def _sizes(rng, count, low=8, high=256, big_every=10):
    sizes = []
    for i in range(count):
        if (i + 1) % big_every == 0:
            sizes.append(int(rng.integers(128, high + 1)))
        else:
            sizes.append(int(rng.integers(low, 65)))
    return sizes


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(2024)
    checked = {k: 0 for k in ("fps", "knn", "chamfer", "partial", "fscore", "mmd")}

    for n in _sizes(rng, 50):
        pts = random_cloud(rng, n)
        k = int(rng.integers(1, n + 1))
        start = int(rng.integers(0, n))
        np.testing.assert_array_equal(
            pf.farthest_point_sample(pts, k, start=start), fps_oracle(pts, k, start)
        )
        checked["fps"] += 1

    for n in _sizes(rng, 50):
        q = random_cloud(rng, max(4, n // 2))
        r = random_cloud(rng, n)
        k = int(rng.integers(1, min(n, 12) + 1))
        nbr = pf.knn(q, r, k)
        oracle_idx, oracle_dist = knn_oracle(q, r, k)
        np.testing.assert_array_equal(nbr.indices, oracle_idx)
        np.testing.assert_allclose(nbr.distances, oracle_dist, atol=1e-6)
        checked["knn"] += 1

    for n in _sizes(rng, 50):
        a = random_cloud(rng, n)
        b = random_cloud(rng, max(4, int(rng.integers(8, 65))))
        norm = "l1" if n % 2 else "l2"
        assert chamfer(a, b, norm).item() == pytest.approx(
            chamfer_oracle(a, b, norm), abs=1e-6
        )
        checked["chamfer"] += 1

    for n in _sizes(rng, 50):
        a = random_cloud(rng, n)
        b = random_cloud(rng, max(4, int(rng.integers(8, 65))))
        assert partial_matching_loss(a, b).item() == pytest.approx(
            directed_nn_mean(a, b), abs=1e-6
        )
        checked["partial"] += 1

    for _ in range(50):
        n = int(rng.integers(8, 49))
        gt = random_cloud(rng, n)
        pred = gt + 0.05 * rng.standard_normal((n, 3))
        thr = float(rng.uniform(0.02, 0.2))
        assert fscore(pred, gt, threshold=thr) == pytest.approx(
            fscore_oracle(pred, gt, thr), abs=1e-6
        )
        checked["fscore"] += 1

    for _ in range(50):
        pred = random_cloud(rng, int(rng.integers(8, 33)))
        library = [random_cloud(rng, int(rng.integers(8, 33))) for _ in range(4)]
        got_v, got_i = mmd(pred, library)
        want_v, want_i = mmd_oracle(pred, library)
        assert got_i == want_i
        assert got_v == pytest.approx(want_v, abs=1e-6)
        checked["mmd"] += 1

    assert all(v >= 50 for v in checked.values())
    _ok(2, f"oracle equivalence (50 instances x {len(checked)} ops)")


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_attention_invariants():
    rng = np.random.default_rng(3)
    # one core per attention setting from the same rng seed: the setting
    # draws nothing, so all three hold the same weights
    softmax, scaled, none = (
        UpsampleTransformer(np.random.default_rng(4), 16, rate=3, k=8, attention=a, lam=1.0)
        for a in ("softmax", "scaled", "none")
    )
    queries = ad.Tensor(rng.standard_normal((32, 16)))
    keys = ad.Tensor(rng.standard_normal((32, 16)))
    cloud = ad.Tensor(random_cloud(rng, 32))

    capture = {}
    out_soft = softmax(queries, keys, cloud, capture=capture)
    for weights in capture["weights"]:
        np.testing.assert_allclose(
            weights.data.sum(axis=1), np.ones((32, 16)), atol=1e-6
        )

    out_scaled = scaled(queries, keys, cloud)
    assert np.array_equal(out_soft.data, out_scaled.data)

    # none keeps the logits that the softmax normalizes
    raw_capture = {}
    none(queries, keys, cloud, capture=raw_capture)
    assert len(raw_capture["weights"]) == len(capture["weights"]) == 3
    for raw, weights in zip(raw_capture["weights"], capture["weights"]):
        np.testing.assert_allclose(
            softmax_over_neighbors(raw.data), weights.data, rtol=0, atol=1e-12
        )

    _ok(3, "attention invariants (sums, scaled@1 bitwise, softmax(none)=softmax)")


# -- 4 ------------------------------------------------------------------------


def test_criterion_04_stage_size_contract():
    desk_widths = dict(stage1_channels=64, patch_channels=128, seed_channels=64,
                       channels=64)
    # the 8k layout is the 16k one at rates (1, 4, 4)
    for overrides, want in (({}, [512, 2048, 16384]), ({"rates": (1, 4, 4)}, [512, 2048, 8192])):
        assert ModelConfig.benchmark_16k(**overrides).stage_sizes == want
        assert ModelConfig.benchmark_16k(**overrides, **desk_widths).stage_sizes == want
    _ok(4, "stage size contract (512/2048/16384 and 512/2048/8192)")


# -- 5 ------------------------------------------------------------------------


def test_criterion_05_permutation_property():
    rng = np.random.default_rng(5)
    model = CompletionModel(ModelConfig.desk(precision="float64", init_seed=6))
    partial = random_cloud(rng, 512)
    base = model.forward(partial)[1][-1].cloud.data
    permuted = model.forward(partial[rng.permutation(512)])[1][-1].cloud.data
    delta = chamfer(base, permuted, "l2").item()
    assert delta < 1e-6, f"permutation changed the output by chamfer {delta}"
    _ok(5, f"permutation property (chamfer delta {delta:.2e})")


# -- 6 ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    data.build_synthetic_dataset(root, "train", 64, seed=11, gt_points=512,
                                 partial_points=512)
    data.build_synthetic_dataset(root, "test", 16, seed=111, gt_points=512,
                                 partial_points=512)
    train = [(p, g) for _, p, g in data.load_dataset(root / "train")]
    test = [(p, g) for _, p, g in data.load_dataset(root / "test")]
    return train, test


def test_criterion_06_toy_training(toy_dataset):
    train, test = toy_dataset
    t0 = time.time()
    model = CompletionModel(ModelConfig.desk(precision="float32", init_seed=0))
    optimizer = Adam(model, lr=1e-3)
    rows = run_training(
        model, train, steps=200, optimizer=optimizer, seed=0,
        lr_decay_every=150, batch_clouds=2,
    )
    first = rows[0].breakdown.total
    last = rows[-1].breakdown.total
    assert last <= 0.5 * first, f"loss went {first:.4f} -> {last:.4f}"

    wins = 0
    for partial, gt in test:
        pred = model.complete(partial).astype(np.float64)
        cd_model = chamfer(pred, gt, "l2").item()
        baseline = data.resample_input(partial, pred.shape[0], seed=0)
        cd_baseline = chamfer(baseline, gt, "l2").item()
        wins += cd_model < cd_baseline
    elapsed = time.time() - t0
    assert wins >= int(np.ceil(0.75 * len(test))), f"beat baseline on {wins}/{len(test)}"
    assert elapsed < 600.0, f"toy training took {elapsed:.0f}s"
    _ok(6, f"toy training (loss x{last / first:.2f}, beats baseline {wins}/16, {elapsed:.0f}s)")


# -- 7 ------------------------------------------------------------------------


def test_criterion_07_ablation_harness(tmp_path):
    data.build_synthetic_dataset(tmp_path, "train", 8, seed=7, gt_points=64,
                                 partial_points=64)
    samples = [(p, g) for _, p, g in data.load_dataset(tmp_path / "train")]
    micro = dict(
        input_points=64, stage1_points=32, stage1_channels=16, patch_points=8,
        patch_channels=24, encoder_k=8, seed_rate=2, seed_channels=16,
        coarse_points=16, channels=16, rates=(1, 2), attention_k=8,
        precision="float32",
    )
    runs = []
    for variant in ("uptrans", "pointwise"):
        for mode in ("softmax", "none", "scaled", "log"):
            runs.append((variant, mode))
    for variant in ("folding", "deconv", "graphconv"):
        runs.append((variant, "none"))

    for variant, mode in runs:
        cfg = ModelConfig(
            generator=variant, seed_attention=mode, attention_scale=2.0, **micro
        )
        model = CompletionModel(cfg)
        rows = run_training(model, samples, steps=50, optimizer=Adam(model, lr=1e-3),
                            seed=1)
        totals = [r.breakdown.total for r in rows]
        assert len(totals) == 50
        assert np.isfinite(totals).all(), f"{variant}/{mode} diverged"
    _ok(7, f"ablation harness ({len(runs)} variant runs x 50 finite steps)")


# -- 8 ------------------------------------------------------------------------


def test_criterion_08_parameter_accounting():
    count = CompletionModel(ModelConfig.benchmark_16k()).parameter_count()
    assert 1_600_000 <= count <= 4_800_000, f"parameter count {count}"
    _ok(8, f"parameter accounting ({count / 1e6:.2f}M in [1.6M, 4.8M])")


# -- 9 ------------------------------------------------------------------------


def test_criterion_09_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    model = CompletionModel(ModelConfig.desk(precision="float32", init_seed=10))
    probe = random_cloud(rng, 512)
    before = model.forward(probe)[1][-1].cloud.data
    path = tmp_path / "round.ckpt"
    pf.save_checkpoint(model, path)
    after = pf.load_checkpoint(path).forward(probe)[1][-1].cloud.data
    assert np.array_equal(before, after)
    _ok(9, "checkpoint persistence (bitwise-identical probe forward)")


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_run_determinism(tmp_path):
    data.build_synthetic_dataset(tmp_path / "d", "train", 4, seed=13, gt_points=64,
                                 partial_points=64)
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(
        "input_points = 64\nstage1_points = 32\nstage1_channels = 16\n"
        "patch_points = 8\npatch_channels = 24\nencoder_k = 8\nseed_rate = 2\n"
        "seed_channels = 16\ncoarse_points = 16\nchannels = 16\nrates = 1,2\n"
        "attention_k = 8\n"
    )
    logs = []
    for name in ("one", "two"):
        code = cli_main([
            "train", "--config", str(cfg), "--data", str(tmp_path / "d" / "train"),
            "--out", str(tmp_path / f"{name}.ckpt"), "--steps", "8", "--seed", "21",
        ])
        assert code == 0
        logs.append((tmp_path / f"{name}.ckpt.losses.csv").read_bytes())
    assert logs[0] == logs[1]
    assert (tmp_path / "one.ckpt").read_bytes() == (tmp_path / "two.ckpt").read_bytes()
    _ok(10, "determinism (bitwise-identical loss logs across runs)")
