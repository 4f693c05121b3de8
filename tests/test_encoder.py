"""Encoder: abstraction/refinement shapes, invariances, gradient coverage."""

import numpy as np
import pytest

from pointfill import autodiff as ad
from pointfill.encoder import Encoder, PointTransformerLayer, SetAbstraction
from pointfill.errors import ContractError


def quantized_cloud(rng, n, step=1.0 / 4096.0):
    """Coordinates on a dyadic grid so exact-arithmetic checks hold."""
    return rng.integers(-4096, 4097, size=(n, 3)).astype(np.float64) * step


def random_cloud(rng, n, spread=1.0):
    return spread * rng.standard_normal((n, 3))


# --- set abstraction -----------------------------------------------------------


def test_self_grouping_gives_constant_rows():
    # out_n = n with k = 1: every center groups only itself, so the lifted
    # input is the zero relative coordinate and all rows must agree
    rng = np.random.default_rng(0)
    sa = SetAbstraction(np.random.default_rng(1), 0, out_n=8, out_c=5, k=1,
                        dtype=np.float64)
    centers, feats = sa(random_cloud(rng, 8))
    assert feats.shape == (8, 5)
    np.testing.assert_allclose(feats.data, np.tile(feats.data[0], (8, 1)), atol=0)


def test_benchmark_stage_shapes():
    rng = np.random.default_rng(2)
    sa = SetAbstraction(np.random.default_rng(3), 0, out_n=512, out_c=128, k=16)
    centers, feats = sa(random_cloud(rng, 2048).astype(np.float32))
    assert centers.shape == (512, 3)
    assert feats.shape == (512, 128)


def test_max_pool_unchanged_by_duplicated_neighbors():
    rng = np.random.default_rng(4)
    base = random_cloud(rng, 3)
    doubled = np.concatenate([base, base], axis=0)
    sa_base = SetAbstraction(np.random.default_rng(5), 0, out_n=1, out_c=6, k=3,
                             dtype=np.float64)
    sa_doubled = SetAbstraction(np.random.default_rng(5), 0, out_n=1, out_c=6, k=6,
                                dtype=np.float64)
    _, feats_base = sa_base(base)
    _, feats_doubled = sa_doubled(doubled)
    np.testing.assert_array_equal(feats_base.data, feats_doubled.data)


def test_set_abstraction_needs_enough_points():
    sa = SetAbstraction(np.random.default_rng(6), 0, out_n=10, out_c=4, k=4)
    with pytest.raises(ContractError):
        sa(np.zeros((5, 3)) + np.arange(5)[:, None])


# --- point transformer layer -----------------------------------------------------


def test_refinement_preserves_shape():
    rng = np.random.default_rng(7)
    layer = PointTransformerLayer(np.random.default_rng(8), channels=128, k=16)
    cloud = random_cloud(rng, 512).astype(np.float32)
    feats = ad.tensor(rng.standard_normal((512, 128)).astype(np.float32))
    out = layer(cloud, feats)
    assert out.shape == (512, 128)


def test_refinement_single_neighbor_weights_are_one():
    rng = np.random.default_rng(9)
    layer = PointTransformerLayer(np.random.default_rng(10), channels=6, k=1,
                                  dtype=np.float64)
    cloud = random_cloud(rng, 5)
    feats = ad.tensor(rng.standard_normal((5, 6)))
    capture = {}
    x = layer.pre(feats)
    layer.core(x, x, ad.constant(cloud, like=feats), mode=None, capture=capture)
    np.testing.assert_allclose(capture["weights"][0].data, np.ones((5, 1, 6)), atol=0)


def test_refinement_is_permutation_equivariant():
    rng = np.random.default_rng(11)
    layer = PointTransformerLayer(np.random.default_rng(12), channels=7, k=4,
                                  dtype=np.float64)
    cloud = random_cloud(rng, 20)
    feats = rng.standard_normal((20, 7))
    base = layer(cloud, ad.tensor(feats)).data
    perm = rng.permutation(20)
    permuted = layer(cloud[perm], ad.tensor(feats[perm])).data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


# --- full encoder ------------------------------------------------------------------


def desk_encoder(seed=13, dtype=np.float64):
    return Encoder(np.random.default_rng(seed), 256, 64, 64, 128, k=16, dtype=dtype)


def test_encode_desk_shapes():
    rng = np.random.default_rng(14)
    patches = desk_encoder()(random_cloud(rng, 512))
    assert patches.cloud.shape == (64, 3)
    assert patches.features.shape == (64, 128)


def test_encode_benchmark_shapes():
    rng = np.random.default_rng(15)
    enc = Encoder(np.random.default_rng(16), 512, 128, 128, 256, k=16)
    patches = enc(random_cloud(rng, 2048).astype(np.float32))
    assert patches.cloud.shape == (128, 3)
    assert patches.features.shape == (128, 256)


def test_encode_rejects_small_inputs():
    with pytest.raises(ContractError):
        desk_encoder()(np.random.default_rng(17).standard_normal((100, 3)))


def test_encode_translation_moves_centers_and_fixes_features():
    # on a dyadic grid with a power-of-two-friendly shift, every coordinate
    # sum is exact, so relative geometry and thus the features are bitwise
    # identical while centers translate exactly
    rng = np.random.default_rng(18)
    cloud = quantized_cloud(rng, 512)
    shift = np.array([1.0, -2.0, 0.5])
    enc = desk_encoder()
    base = enc(cloud)
    moved = enc(cloud + shift)
    np.testing.assert_array_equal(moved.cloud.data, base.cloud.data + shift)
    np.testing.assert_array_equal(moved.features.data, base.features.data)


def test_encode_gradients_reach_every_parameter():
    rng = np.random.default_rng(19)
    enc = desk_encoder()
    probe = rng.standard_normal((64, 128))
    with ad.Tape() as tape:
        patches = enc(random_cloud(rng, 512))
        loss = ad.reduce_sum(ad.mul(patches.features, ad.constant(probe)))
    tape.backward(loss)
    dead = [
        p.name
        for p in enc.named_parameters()
        if p.tensor.grad is None or not np.abs(p.tensor.grad).sum() > 0
    ]
    assert not dead, f"parameters without gradient: {dead}"
