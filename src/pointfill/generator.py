"""Point generators: the neighborhood-attention upsampler (channel-wise or
point-wise), the seed generator built on it, the refinement stage wrapper,
and the alternative generator cores used for ablation runs.

The central operation turns each point into ``rate`` new feature rows by
attention over its k nearest neighbors. Each (point, neighbor) pair mixes
a positional term on the relative coordinates with a regional term from
the seed features interpolated at the points (positional only when none
are supplied). One MLP computes the weights, as in Point Transformer's
vector attention that SeedFormer's Upsample Transformer builds on; its
last layer has ``rate`` outputs. The logits are normalized over the
neighborhood by the transformer's attention setting (the seed generator's
is a config choice; refinement stages always use softmax). The pair terms,
the MLP, all ``rate`` heads and the weighted sums are one
``ad.upsample_attention`` record, whose docstring gives the equations.
Output rows are stacked head-fastest: row ``i * rate + m`` belongs to
source point ``i`` and head ``m``, matching plain row duplication of the
source cloud; ``seed_provenance`` returns that grouping as a table. The
module reads and writes no files.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from . import geometry
from .errors import ContractError, ShapeError
from .layers import Linear, Mlp2, Module


def _neighbor_rows(cloud_np, k):
    """Flattened self-kNN indices; row i*k+j is the j-th neighbor of i."""
    n = cloud_np.shape[0]
    if k > n:
        raise ContractError(f"attention neighborhood k={k} exceeds {n} points")
    return geometry.knn(cloud_np, cloud_np, k).indices.reshape(-1)


def _stack_heads(heads):
    """Interleave per-kernel (n, C) outputs kernel-fastest into (n * rate, C)
    rows: row i of their (n, rate * C) concatenation is head 0's row i, then
    head 1's, and so on, so one reshape stacks them. One head is returned
    as it is."""
    heads = list(heads)
    if len(heads) == 1:
        return heads[0]
    n, c = heads[0].shape
    return ad.reshape(ad.concat(heads, axis=1), (n * len(heads), c))


class UpsampleTransformer(Module):
    """Neighborhood attention producing ``rate`` rows per point.

    Channel-wise by default: every head emits one weight per neighbor and
    channel. With ``pointwise=True`` each head is a single column, so each
    neighbor gets one scalar weight, normalized over the neighborhood and
    shared by all channels (the ``pointwise`` generator variant). The heads
    share the hidden layer ``hidden`` that turns each (point, neighbor) row
    into their input.

    Args:
        rng: numpy Generator used for weight init.
        channels: feature width shared by queries, keys and outputs.
        rate: number of attention heads, i.e. generated rows per input
            point. Each head is a bias-free (channels, W) map on the shared
            hidden layer.
        k: neighborhood size for the attention.
        seed_channels: width of interpolated seed features, or None to run
            without the regional encoding term.
        pointwise: one scalar weight per neighbor instead of per channel.
        attention: how the logits are normalized over a neighborhood, one of
            ``ad.ATTENTION_VARIANTS``. ``softmax`` is the standard choice,
            ``none`` passes the logits through unchanged (weights may leave
            (0, 1), useful when generating points outside the seen region),
            ``scaled`` applies softmax to ``lam * logits`` and ``log`` uses
            log-softmax (weights are nonpositive by construction).
        lam: the ``scaled`` factor, finite and > 0.
    """

    def __init__(self, rng, channels, rate, k=16, seed_channels=None,
                 pointwise=False, attention="softmax", lam=1.0):
        if rate < 1:
            raise ContractError("rate must be >= 1")
        ad.check_attention(attention, lam)
        self.attention, self.lam = attention, lam
        self.channels = channels
        self.rate = rate
        self.k = k
        self.value_mixer = Mlp2(rng, 2 * channels, channels, channels)
        self.query_map = Linear(rng, channels, channels)
        self.key_map = Linear(rng, channels, channels)
        self.value_map = Linear(rng, channels, channels)
        self.pos_encoder = Mlp2(rng, 3, channels, channels)
        self.seed_encoder = (
            Mlp2(rng, seed_channels, channels, channels)
            if seed_channels
            else None
        )
        width = 1 if pointwise else channels
        self.hidden = Linear(rng, channels, channels)
        self.heads = []
        for m in range(rate):
            if m:
                # drawn and dropped: the init stream of checkpoint version
                # 3's layout, one first layer per head, so each parameter
                # starts at the value it had there
                Linear(rng, channels, channels)
            self.heads.append(Linear(rng, channels, width, bias=False))

    def __call__(self, queries, keys, cloud, seed_features=None, capture=None):
        """Run the attention upsampling.

        Args:
            queries: (n, channels) point-wise query features.
            keys: (n, channels) point-wise key features.
            cloud: (n, 3) Tensor of point coordinates.
            seed_features: optional (n, seed_channels) seed features
                interpolated at ``cloud``, for the regional encoding term.
            capture: optional dict for inspection in tests and demos.
                ``capture["weights"]`` receives each head's normalized
                weights, shaped (n, k, channels), or (n, k, 1) when
                point-wise; under ``none`` they are the raw logits.

        Returns:
            Tensor of shape (rate * n, channels).
        """
        n = cloud.shape[0]
        if queries.shape[0] != n or keys.shape[0] != n:
            raise ShapeError("queries, keys and cloud must agree on row count")
        nbrs = _neighbor_rows(cloud.data, self.k).reshape(n, self.k)
        values = self.value_map(self.value_mixer(ad.concat([keys, queries], axis=1)))
        q = self.query_map(queries)
        key_feats = self.key_map(keys)
        seed = None
        if seed_features is not None:
            if self.seed_encoder is None:
                raise ContractError("this transformer was built without seed encoding")
            # the first layer commutes with the pair difference, so it runs
            # on the n seed rows, not on the n * k pairs
            enc = self.seed_encoder
            seed = (ad.linear(seed_features, enc.lin0.w), enc.lin0.b, enc.lin1.w, enc.lin1.b)
        pos = self.pos_encoder
        weights = None
        if capture is not None:
            weights = capture["weights"] = []
        return ad.upsample_attention(
            cloud, q, key_feats, values, nbrs,
            (pos.lin0.w, pos.lin0.b, pos.lin1.w, pos.lin1.b), (self.hidden.w, self.hidden.b),
            [head.w for head in self.heads], seed, self.attention, self.lam, capture=weights,
        )


class FoldingCore(Module):
    """Per-replica generation from a fixed 2-d grid coordinate.

    Each replica appends its grid vertex to every point feature and runs a
    single shared map, so replicas differ only through the grid input.
    """

    def __init__(self, rng, channels, rate, **_):
        self.grid = _folding_grid(rate)
        self.shared_map = Mlp2(rng, channels + 2, channels, channels)

    def __call__(self, queries, keys=None, cloud=None, seed_features=None):
        n = queries.shape[0]
        grids = (ad.constant(np.tile(g, (n, 1)), like=queries) for g in self.grid)
        heads = (self.shared_map(ad.concat([queries, g], axis=1)) for g in grids)
        return _stack_heads(heads)


def _folding_grid(rate):
    side = int(np.ceil(np.sqrt(rate)))
    axis = np.linspace(-1.0, 1.0, side) if side > 1 else np.zeros(1)
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([uu.reshape(-1), vv.reshape(-1)], axis=1)[:rate]


class DeconvCore(Module):
    """Point-splitting: one learned linear map per replica."""

    def __init__(self, rng, channels, rate, **_):
        self.splits = [Linear(rng, channels, channels) for _ in range(rate)]

    def __call__(self, queries, keys=None, cloud=None, seed_features=None):
        return _stack_heads(split(queries) for split in self.splits)


class GraphConvCore(Module):
    """Channel-wise max over mapped neighbor features, one map per replica."""

    def __init__(self, rng, channels, rate, k=16, **_):
        self.channels = channels
        self.k = k
        self.kernels = [
            Mlp2(rng, channels, channels, channels) for _ in range(rate)
        ]

    def __call__(self, queries, keys=None, cloud=None, seed_features=None):
        n = queries.shape[0]
        nbrs = _neighbor_rows(cloud.data, self.k)
        k, c = self.k, self.channels
        mapped = (
            ad.reshape(kernel(ad.gather_rows(queries, nbrs)), (n, k, c))
            for kernel in self.kernels
        )
        return _stack_heads(ad.max_over_axis(m, axis=1) for m in mapped)


_CORES = {
    "uptrans": UpsampleTransformer,
    "folding": FoldingCore,
    "deconv": DeconvCore,
    "graphconv": GraphConvCore,
    "pointwise": functools.partial(UpsampleTransformer, pointwise=True),
}
GENERATOR_VARIANTS = tuple(_CORES)
NEIGHBORHOOD_VARIANTS = ("uptrans", "graphconv", "pointwise")  # cores that search k


def make_core(variant, rng, channels, rate, **options):
    if variant not in _CORES:
        raise ContractError(f"unknown generator variant {variant!r}")
    return _CORES[variant](rng, channels, rate, **options)


class SeedGenerator(Module):
    """Turns patch features into a coarse but complete set of seeds.

    Queries and keys are separate linear projections of the patch features;
    the generator core runs without seed encoding. Seed coordinates come
    from the generated seed features concatenated with the channel-wise
    max-pool of the patch features, through a shared two-layer map whose
    final layer starts at zero (like the stage offset heads), so training
    begins from a neutral seed cloud.
    """

    def __init__(self, rng, patch_channels, seed_channels, rate=2, k=16,
                 variant="uptrans", attention="none", lam=1.0):
        self.query_proj = Linear(rng, patch_channels, seed_channels)
        self.key_proj = Linear(rng, patch_channels, seed_channels)
        self.core = make_core(variant, rng, seed_channels, rate, k=k, attention=attention, lam=lam)
        self.coord_map = Mlp2(
            rng, seed_channels + patch_channels, seed_channels, 3, zero_last=True,
        )
        self.patch_channels = patch_channels

    def __call__(self, patches):
        """Args: patches: a PointSet of patch centers and features.

        Returns the seeds, a PointSet with ``rate * n_patches`` rows.
        """
        q = self.query_proj(patches.features)
        keys = self.key_proj(patches.features)
        feats = self.core(q, keys, patches.cloud)
        pooled = ad.reshape(
            ad.max_over_axis(patches.features, axis=0), (1, self.patch_channels)
        )
        tiled = ad.repeat_rows(pooled, feats.shape[0])
        coords = self.coord_map(ad.concat([feats, tiled], axis=1))
        return geometry.PointSet(coords, feats)


def seed_provenance(n_patches, rate):
    """Rows of (seed_index, source_patch_index, kernel) for a seed set.

    Seed row ``i * rate + m`` descends from patch ``i`` through kernel
    ``m``; this table makes the grouping explicit for export and analysis.
    """
    seed_idx = np.arange(n_patches * rate, dtype=np.int64)
    return np.stack([seed_idx, seed_idx // rate, seed_idx % rate], axis=1)


class UpsampleStage(Module):
    """One coarse-to-fine refinement stage.

    Interpolates the seed features once at the input cloud, builds queries
    from the previous stage's features concatenated with them, runs the
    generator core on the same tensor (keys are the previous stage's
    features), and moves duplicated points by predicted offsets. The offset
    head is zero-initialized so a fresh stage is an exact duplication. An
    attention core normalizes with softmax.
    """

    def __init__(self, rng, channels, seed_channels, rate, k=16, interp_k=3,
                 variant="uptrans"):
        self.rate = rate
        self.interp_k = interp_k
        self.query_builder = Mlp2(rng, channels + seed_channels, channels, channels)
        self.core = make_core(
            variant, rng, channels, rate, k=k, seed_channels=seed_channels
        )
        self.offset_map = Mlp2(rng, channels, channels, 3, zero_last=True)

    def __call__(self, points, seeds):
        """Refine ``points`` (a PointSet) into ``rate`` times as many, guided
        by the ``seeds`` PointSet; returns the new PointSet."""
        s = geometry.interpolate_seed_features(points.cloud.data, seeds, self.interp_k)
        queries = self.query_builder(ad.concat([points.features, s], axis=1))
        feats = self.core(queries, points.features, points.cloud, seed_features=s)
        offsets = self.offset_map(feats)
        new_cloud = ad.add(ad.repeat_rows(points.cloud, self.rate), offsets)
        return geometry.PointSet(new_cloud, feats)
