"""Generator cores: attention math, modes, variants, stage wrapper."""

import math

import numpy as np
import pytest

from pointfill import autodiff as ad
from pointfill import geometry
from pointfill.errors import ContractError
from pointfill.generator import (
    GENERATOR_VARIANTS,
    DeconvCore,
    FoldingCore,
    GraphConvCore,
    SeedGenerator,
    UpsampleStage,
    UpsampleTransformer,
    make_core,
    seed_provenance,
)
from pointfill.losses import chamfer
from pointfill.pipeline import CompletionModel, ModelConfig

from .oracles import softmax_over_neighbors


def random_cloud(rng, n, spread=1.0):
    return spread * rng.standard_normal((n, 3))


def make_seeds(rng, n, channels, dtype=np.float64):
    return geometry.PointSet(
        ad.Tensor(random_cloud(rng, n).astype(dtype)),
        ad.Tensor(rng.standard_normal((n, channels)).astype(dtype)),
    )


def uptrans_inputs(rng, n=8, c=6, dtype=np.float64):
    queries = ad.Tensor(rng.standard_normal((n, c)).astype(dtype))
    keys = ad.Tensor(rng.standard_normal((n, c)).astype(dtype))
    cloud = ad.Tensor(random_cloud(rng, n).astype(dtype))
    return queries, keys, cloud


# --- attention mode -------------------------------------------------------------


def test_attention_mode_validation():
    with pytest.raises(ContractError):
        UpsampleTransformer(np.random.default_rng(0), 6, rate=2, k=3, attention="hardmax")
    with pytest.raises(ContractError):
        UpsampleTransformer(np.random.default_rng(0), 6, rate=2, k=3, attention="scaled",
                            lam=0.0)


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_scaled_attention_needs_a_finite_positive_lam(lam):
    # an infinite scale turns every weight into NaN, which a later relu hides
    with pytest.raises(ContractError, match="finite lam"):
        UpsampleTransformer(np.random.default_rng(0), 6, rate=2, k=3, attention="scaled",
                            lam=lam)


# --- upsample transformer --------------------------------------------------------


def test_output_shape_is_rate_times_points():
    rng = np.random.default_rng(0)
    core = UpsampleTransformer(np.random.default_rng(1), 6, rate=2, k=3)
    q, k, cloud = uptrans_inputs(rng)
    out = core(q, k, cloud)
    assert out.shape == (16, 6)


def test_single_neighbor_softmax_reduces_to_value_plus_encoding():
    # with k = 1 the only neighbor is the point itself, the softmax weight
    # is exactly one, and each output row is value + pos_encoder(0)
    rng = np.random.default_rng(2)
    core = UpsampleTransformer(np.random.default_rng(3), 5, rate=1, k=1)
    q, k, cloud = uptrans_inputs(rng, n=6, c=5)
    out = core(q, k, cloud)
    values = core.value_map(core.value_mixer(ad.concat([k, q], axis=1)))
    zero = ad.Tensor(np.zeros((6, 3)))
    expected = ad.add(values, core.pos_encoder(zero))
    np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


def test_softmax_weights_sum_to_one_per_point_kernel_channel():
    rng = np.random.default_rng(4)
    core = UpsampleTransformer(np.random.default_rng(5), 6, rate=3, k=4,
                               seed_channels=4)
    q, k, cloud = uptrans_inputs(rng)
    seeds = make_seeds(rng, 5, 4)
    s = geometry.interpolate_seed_features(cloud.data, seeds, 2)
    capture = {}
    core(q, k, cloud, seed_features=s, capture=capture)
    assert len(capture["weights"]) == 3
    for w in capture["weights"]:
        assert w.shape == (8, 4, 6)
        np.testing.assert_allclose(w.data.sum(axis=1), np.ones((8, 6)), atol=1e-6)
        assert (w.data >= 0).all()


def _cores(seed, *attentions, **kwargs):
    """One UpsampleTransformer per attention setting, each built from an rng
    of ``seed``: the setting draws nothing, so their weights are equal."""
    return [UpsampleTransformer(np.random.default_rng(seed), attention=a, **kwargs)
            for a in attentions]


def test_mode_none_passes_raw_logits_through():
    rng = np.random.default_rng(6)
    none, softmax = _cores(7, "none", "softmax", channels=6, rate=2, k=3)
    q, k, cloud = uptrans_inputs(rng)
    raw, soft = {}, {}
    none(q, k, cloud, capture=raw)
    softmax(q, k, cloud, capture=soft)
    assert len(raw["weights"]) == len(soft["weights"]) == 2
    for logits, weights in zip(raw["weights"], soft["weights"]):
        np.testing.assert_allclose(
            softmax_over_neighbors(logits.data), weights.data, rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("rate", [1, 3])
@pytest.mark.parametrize("pointwise", [False, True], ids=["channelwise", "pointwise"])
def test_taped_upsample_transformer_appends_one_record_per_call(pointwise, rate):
    rng = np.random.default_rng(26)
    core = UpsampleTransformer(np.random.default_rng(27), 6, rate=rate, k=3,
                               pointwise=pointwise, attention="scaled", lam=2.0)
    q, k, cloud = uptrans_inputs(rng)
    with ad.Tape() as tape:
        out = core(q, k, cloud)
    ops = [rec.backfn.__qualname__.split(".")[0] for rec in tape.records]
    # one record for every kernel's MLP, normalization and weighted sum, and
    # nothing recorded after it: the rows come out stacked
    assert ops.count("upsample_attention") == 1
    assert ops[-1] == "upsample_attention"
    assert out.node is tape.records[-1].output
    assert out.shape == (8 * rate, 6)


def test_mode_none_differs_from_softmax():
    rng = np.random.default_rng(8)
    softmax, none = _cores(9, "softmax", "none", channels=6, rate=2, k=3)
    q, k, cloud = uptrans_inputs(rng)
    out_soft = softmax(q, k, cloud)
    out_none = none(q, k, cloud)
    assert np.abs(out_soft.data - out_none.data).max() > 1e-6


def test_scaled_softmax_at_unit_scale_is_bitwise_softmax():
    rng = np.random.default_rng(10)
    softmax, scaled = _cores(11, "softmax", "scaled", channels=7, rate=2, k=4)
    q, k, cloud = uptrans_inputs(rng, c=7)
    out_soft = softmax(q, k, cloud)
    out_scaled = scaled(q, k, cloud)
    assert np.array_equal(out_soft.data, out_scaled.data)


def test_log_softmax_weights_are_nonpositive():
    rng = np.random.default_rng(12)
    core = UpsampleTransformer(np.random.default_rng(13), 5, rate=1, k=3, attention="log")
    q, k, cloud = uptrans_inputs(rng, c=5)
    capture = {}
    core(q, k, cloud, capture=capture)
    assert (capture["weights"][0].data <= 0).all()
    assert (capture["weights"][0].data < 0).any()


def test_every_kernel_bank_parameter_gets_gradient():
    rng = np.random.default_rng(14)
    for attention in ("softmax", "none"):
        core = UpsampleTransformer(np.random.default_rng(15), 6, rate=2, k=3,
                                   seed_channels=4, attention=attention)
        q, k, cloud = uptrans_inputs(rng)
        seeds = make_seeds(rng, 5, 4)
        probe = rng.standard_normal((16, 6))
        with ad.Tape() as tape:
            out = core(
                q, k, cloud,
                seed_features=geometry.interpolate_seed_features(cloud.data, seeds, 2),
            )
            loss = ad.reduce_sum(ad.mul(out, ad.constant(probe)))
        tape.backward(loss)
        dead = [
            p.name
            for p in core.named_parameters()
            if p.tensor.grad is None or not np.abs(p.tensor.grad).sum() > 0
        ]
        assert not dead, f"{attention}: dead parameters {dead}"


def _held_tensors(obj, seen):
    """Every ad.Tensor reachable from ``obj`` through instance attributes,
    lists, tuples and dicts, found without Module's own walk."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, ad.Tensor):
        return [obj]
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [t for item in items for t in _held_tensors(item, seen)]


@pytest.mark.parametrize("generator", GENERATOR_VARIANTS)
@pytest.mark.parametrize("layout", ["desk", "benchmark_16k"])
def test_every_tensor_a_model_holds_is_a_parameter(layout, generator):
    # astype casts the parameters only, so a tensor outside them would keep
    # float64 in a float32 model
    model = CompletionModel(getattr(ModelConfig, layout)(generator=generator))
    held = _held_tensors(model, set())
    params = model.parameters()
    assert len({id(t) for t in params}) == len(params) == len(held)
    assert {id(t) for t in held} == {id(t) for t in params}
    assert all(t.requires_grad and t.dtype == np.float32 for t in held)


# --- generator variants ------------------------------------------------------------


VARIANTS = ("uptrans", "folding", "deconv", "graphconv", "pointwise")


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_output_contract(variant):
    rng = np.random.default_rng(16)
    core = make_core(variant, np.random.default_rng(17), 6, rate=2, k=3)
    q, k, cloud = uptrans_inputs(rng)
    out = core(q, k, cloud)
    assert out.shape == (16, 6)


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_permutation_equivariance(variant):
    rng = np.random.default_rng(18)
    core = make_core(variant, np.random.default_rng(19), 6, rate=2, k=3)
    q, k, cloud = uptrans_inputs(rng, n=12)
    base = core(q, k, cloud)
    perm = rng.permutation(12)
    out_perm = core(
        ad.Tensor(q.data[perm]), ad.Tensor(k.data[perm]), ad.Tensor(cloud.data[perm]),
    )
    # rows permute in kernel groups; compare the feature sets geometrically
    # by pairing them with the duplicated output coordinates
    base_rows = base.data
    perm_rows = out_perm.data
    expect = base_rows.reshape(12, 2, 6)[perm].reshape(24, 6)
    np.testing.assert_allclose(perm_rows, expect, atol=1e-10)


def test_graphconv_equal_neighbor_features_collapse_max():
    rng = np.random.default_rng(20)
    core = GraphConvCore(np.random.default_rng(21), 5, rate=2, k=3)
    cloud = ad.Tensor(random_cloud(rng, 7))
    row = rng.standard_normal(5)
    feats = ad.Tensor(np.tile(row, (7, 1)))
    out = core(feats, feats, cloud)
    single = ad.Tensor(row.reshape(1, 5))
    for m, kernel in enumerate(core.kernels):
        expected = kernel(single).data[0]
        np.testing.assert_allclose(out.data[m::2], np.tile(expected, (7, 1)), atol=1e-12)


def test_pointwise_softmax_weights_sum_to_one_per_point_and_kernel():
    rng = np.random.default_rng(22)
    core = make_core("pointwise", np.random.default_rng(23), 6, rate=2, k=4)
    q, k, cloud = uptrans_inputs(rng)
    capture = {}
    core(q, k, cloud, capture=capture)
    for w in capture["weights"]:
        assert w.shape == (8, 4, 1)
        np.testing.assert_allclose(w.data.sum(axis=1), np.ones((8, 1)), atol=1e-6)


def test_folding_grid_distinguishes_replicas():
    rng = np.random.default_rng(24)
    core = FoldingCore(np.random.default_rng(25), 5, rate=4)
    q = ad.Tensor(rng.standard_normal((6, 5)))
    out = core(q)
    groups = out.data.reshape(6, 4, 5)
    assert np.abs(groups[:, 0, :] - groups[:, 1, :]).max() > 1e-9


def test_deconv_replicas_are_independent_linear_maps():
    rng = np.random.default_rng(26)
    core = DeconvCore(np.random.default_rng(27), 4, rate=2)
    q = ad.Tensor(rng.standard_normal((5, 4)))
    out = core(q)
    for m, split in enumerate(core.splits):
        np.testing.assert_allclose(out.data[m::2], split(q).data, atol=1e-12)


# --- seed generator -----------------------------------------------------------------


def make_patches(rng, n=64, c=128, dtype=np.float64):
    return geometry.PointSet(
        ad.Tensor(random_cloud(rng, n).astype(dtype)),
        ad.Tensor(rng.standard_normal((n, c)).astype(dtype)),
    )


def test_seed_generator_benchmark_shapes():
    rng = np.random.default_rng(28)
    gen = SeedGenerator(np.random.default_rng(29), 256, 128, rate=2, k=16)
    gen.astype(np.float32)
    patches = make_patches(rng, n=128, c=256, dtype=np.float32)
    seeds = gen(patches)
    assert seeds.cloud.shape == (256, 3)
    assert seeds.features.shape == (256, 128)


def test_seed_provenance_groups_by_kernel():
    table = seed_provenance(4, 2)
    assert table.shape == (8, 3)
    np.testing.assert_array_equal(table[:, 0], np.arange(8))
    np.testing.assert_array_equal(table[:, 1], [0, 0, 1, 1, 2, 2, 3, 3])
    np.testing.assert_array_equal(table[:, 2], [0, 1, 0, 1, 0, 1, 0, 1])


def test_seed_generator_translation_snapshot():
    # every geometric path in the seed generator is relative, so an exact
    # dyadic translation of the patch centers leaves the seeds unchanged;
    # recorded here as a behavior snapshot
    rng = np.random.default_rng(30)
    gen = SeedGenerator(np.random.default_rng(31), 16, 8, rate=2, k=4)
    # free the zero-initialized coordinate head so the snapshot is nontrivial
    gen.coord_map.lin1.w.data = 0.2 * rng.standard_normal(gen.coord_map.lin1.w.shape)
    centers = rng.integers(-2048, 2049, size=(12, 3)).astype(np.float64) / 4096.0
    feats = ad.Tensor(rng.standard_normal((12, 16)))
    base = gen(geometry.PointSet(ad.Tensor(centers), feats))
    moved = gen(geometry.PointSet(ad.Tensor(centers + np.array([1.0, -0.5, 2.0])), feats))
    np.testing.assert_array_equal(base.cloud.data, moved.cloud.data)
    np.testing.assert_array_equal(base.features.data, moved.features.data)


# --- upsample stage -----------------------------------------------------------------


def make_state(rng, n=8, c=6, dtype=np.float64):
    cloud = ad.Tensor(random_cloud(rng, n).astype(dtype))
    feats = ad.Tensor(rng.standard_normal((n, c)).astype(dtype))
    return geometry.PointSet(cloud, feats)


def test_stage_rate_one_preserves_count():
    rng = np.random.default_rng(32)
    seeds = make_seeds(rng, 5, 4)
    stage = UpsampleStage(np.random.default_rng(33), 6, 4, rate=1, k=3, interp_k=2)
    state = make_state(rng)
    out = stage(state, seeds)
    assert out.cloud.shape == (8, 3)
    assert out.features.shape == (8, 6)


def test_fresh_stage_is_exact_duplication():
    # the offset head is zero-initialized, so a fresh stage only duplicates
    rng = np.random.default_rng(34)
    seeds = make_seeds(rng, 5, 4)
    stage = UpsampleStage(np.random.default_rng(35), 6, 4, rate=3, k=3, interp_k=2)
    state = make_state(rng)
    out = stage(state, seeds)
    np.testing.assert_array_equal(out.cloud.data, np.repeat(state.cloud.data, 3, axis=0))


def test_stage_children_stay_within_offset_bound():
    rng = np.random.default_rng(36)
    seeds = make_seeds(rng, 6, 4)
    stage = UpsampleStage(np.random.default_rng(37), 6, 4, rate=4, k=4, interp_k=2)
    # free the offset head so children actually move
    stage.offset_map.lin1.w.data = 0.1 * rng.standard_normal(
        stage.offset_map.lin1.w.shape
    )
    state = make_state(rng, n=12)
    out = stage(state, seeds)
    assert out.cloud.shape == (48, 3)
    parents = np.repeat(state.cloud.data, 4, axis=0)
    dist = np.linalg.norm(out.cloud.data - parents, axis=1)
    offsets = out.cloud.data - parents
    bound = np.linalg.norm(offsets, axis=1).max()
    assert (dist <= bound + 1e-12).all()
    assert bound > 0


def test_stage_permutation_equivariance_by_chamfer():
    rng = np.random.default_rng(40)
    seeds = make_seeds(rng, 6, 4)
    stage = UpsampleStage(np.random.default_rng(41), 6, 4, rate=2, k=4, interp_k=2)
    stage.offset_map.lin1.w.data = 0.1 * rng.standard_normal(
        stage.offset_map.lin1.w.shape
    )
    state = make_state(rng, n=10)
    base = stage(state, seeds)
    perm = rng.permutation(10)
    permuted_state = geometry.PointSet(
        ad.Tensor(state.cloud.data[perm]), ad.Tensor(state.features.data[perm])
    )
    out_perm = stage(permuted_state, seeds)
    assert chamfer(base.cloud.data, out_perm.cloud.data, "l2").item() < 1e-12
