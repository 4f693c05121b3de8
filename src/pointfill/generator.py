"""Point generators: the neighborhood-attention upsampler (channel-wise or
point-wise), the seed generator built on it, the refinement stage wrapper,
and the alternative generator cores used for ablation runs.

The central operation turns each point into ``rate`` new feature rows. For
point ``i`` with neighborhood ``N(i)`` (k nearest neighbors), kernel ``m``
produces channel-wise attention logits

    a_hat[i, j, m] = kernel_m(query_map(q_i) - key_map(k_j) + delta_ij)

where ``delta_ij = pos_encoder(p_i - p_j) + seed_encoder(s_i - s_j)`` mixes
a positional term with a regional term from the seed features interpolated
at the points (positional only when none are supplied). The logits are
normalized over the neighborhood by the configured attention mode and
combined with the per-point values:

    h[i, m] = sum_j a[i, j, m] * (value_map(v_j) + delta_ij)

Each kernel, its normalization and that sum are one ``ad.attention_head``
record. Output rows are stacked kernel-fastest: row ``i * rate + m`` belongs to
source point ``i`` and kernel ``m``, matching plain row duplication of the
source cloud.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry
from .errors import ContractError, ShapeError
from .layers import Linear, Mlp2, Module

@dataclass
class AttentionMode:
    """How raw attention logits are normalized over a neighborhood.

    ``softmax`` is the standard choice, ``none`` passes the logits through
    unchanged (weights may leave (0, 1), useful when generating points
    outside the seen region), ``scaled`` applies softmax to ``lam * logits``
    (``lam`` finite and > 0) and ``log`` uses log-softmax (weights are
    nonpositive by construction).
    """

    variant: str = "softmax"
    lam: float = 1.0

    def __post_init__(self):
        ad.check_attention(self.variant, self.lam)


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

    Channel-wise by default: every kernel emits one weight per neighbor and
    channel. With ``pointwise=True`` the kernels end in a single column, so
    each neighbor gets one scalar weight, normalized over the neighborhood
    and shared by all channels (the ``pointwise`` generator variant).

    Args:
        rng: numpy Generator used for weight init.
        channels: feature width shared by queries, keys and outputs.
        rate: number of kernels, i.e. generated rows per input point.
        k: neighborhood size for the attention.
        seed_channels: width of interpolated seed features, or None to run
            without the regional encoding term.
        pointwise: one scalar weight per neighbor instead of per channel.
    """

    def __init__(self, rng, channels, rate, k=16, seed_channels=None,
                 dtype=np.float32, pointwise=False):
        if rate < 1:
            raise ContractError("rate must be >= 1")
        self.channels = channels
        self.rate = rate
        self.k = k
        self.value_mixer = Mlp2(rng, 2 * channels, channels, channels, dtype=dtype)
        self.query_map = Linear(rng, channels, channels, dtype=dtype)
        self.key_map = Linear(rng, channels, channels, dtype=dtype)
        self.value_map = Linear(rng, channels, channels, dtype=dtype)
        self.pos_encoder = Mlp2(rng, 3, channels, channels, dtype=dtype)
        self.seed_encoder = (
            Mlp2(rng, seed_channels, channels, channels, dtype=dtype)
            if seed_channels
            else None
        )
        self.width = 1 if pointwise else channels
        self.kernels = [
            Mlp2(rng, channels, channels, self.width, dtype=dtype, last_bias=False)
            for _ in range(rate)
        ]

    def __call__(self, queries, keys, cloud, seed_features=None, mode=None,
                 capture=None):
        """Run the attention upsampling.

        Args:
            queries: (n, channels) point-wise query features.
            keys: (n, channels) point-wise key features.
            cloud: (n, 3) Tensor of point coordinates.
            seed_features: optional (n, seed_channels) seed features
                interpolated at ``cloud``, for the regional encoding term.
            mode: AttentionMode; defaults to softmax.
            capture: optional dict for inspection in tests and demos.
                ``capture["weights"]`` receives each kernel's normalized
                weights, shaped (n, k, channels), or (n, k, 1) when
                point-wise; under ``none`` they are the raw logits.

        Returns:
            Tensor of shape (rate * n, channels).
        """
        n = cloud.shape[0]
        if queries.shape[0] != n or keys.shape[0] != n:
            raise ShapeError("queries, keys and cloud must agree on row count")
        mode = mode or AttentionMode("softmax")
        k, c = self.k, self.channels
        nbrs = _neighbor_rows(cloud.data, k)

        values = self.value_map(self.value_mixer(ad.concat([keys, queries], axis=1)))
        q = self.query_map(queries)
        key_feats = self.key_map(keys)

        delta = self.pos_encoder(ad.neighbor_diff(cloud, cloud, nbrs, k))
        if seed_features is not None:
            if self.seed_encoder is None:
                raise ContractError("this transformer was built without seed encoding")
            # no local name: without a tape the (n*k, seed_channels) difference
            # is freed before the kernel loop, which sets inference peak memory
            delta = ad.add(delta, self.seed_encoder(
                ad.neighbor_diff(seed_features, seed_features, nbrs, k)
            ))

        logits_in = ad.add(ad.neighbor_diff(q, key_feats, nbrs, k), delta)
        value_term = ad.reshape(ad.add(ad.gather_rows(values, nbrs), delta), (n, k, c))

        weights = None
        if capture is not None:
            weights = capture["weights"] = []
        heads = [
            ad.attention_head(
                logits_in, value_term, kernel.lin0.w, kernel.lin0.b, kernel.lin1.w,
                kernel.lin1.b, mode.variant, mode.lam, capture=weights,
            )
            for kernel in self.kernels
        ]
        return _stack_heads(heads)


class FoldingCore(Module):
    """Per-replica generation from a fixed 2-d grid coordinate.

    Each replica appends its grid vertex to every point feature and runs a
    single shared map, so replicas differ only through the grid input.
    """

    def __init__(self, rng, channels, rate, dtype=np.float32, **_):
        self.channels = channels
        self.rate = rate
        self.grid = _folding_grid(rate).astype(dtype)
        self.shared_map = Mlp2(rng, channels + 2, channels, channels, dtype=dtype)

    def __call__(self, queries, keys=None, cloud=None, seed_features=None,
                 mode=None, capture=None):
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

    def __init__(self, rng, channels, rate, dtype=np.float32, **_):
        self.channels = channels
        self.rate = rate
        self.splits = [Linear(rng, channels, channels, dtype=dtype) for _ in range(rate)]

    def __call__(self, queries, keys=None, cloud=None, seed_features=None,
                 mode=None, capture=None):
        return _stack_heads(split(queries) for split in self.splits)


class GraphConvCore(Module):
    """Channel-wise max over mapped neighbor features, one map per replica."""

    def __init__(self, rng, channels, rate, k=16, dtype=np.float32, **_):
        self.channels = channels
        self.rate = rate
        self.k = k
        self.kernels = [
            Mlp2(rng, channels, channels, channels, dtype=dtype) for _ in range(rate)
        ]

    def __call__(self, queries, keys=None, cloud=None, seed_features=None,
                 mode=None, capture=None):
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


def make_core(variant, rng, channels, rate, k=16, seed_channels=None,
              dtype=np.float32):
    if variant not in _CORES:
        raise ContractError(f"unknown generator variant {variant!r}")
    return _CORES[variant](
        rng, channels, rate, k=k, seed_channels=seed_channels, dtype=dtype
    )


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
                 mode=None, variant="uptrans", dtype=np.float32):
        self.rate = rate
        self.mode = mode or AttentionMode("none")
        self.query_proj = Linear(rng, patch_channels, seed_channels, dtype=dtype)
        self.key_proj = Linear(rng, patch_channels, seed_channels, dtype=dtype)
        self.core = make_core(
            variant, rng, seed_channels, rate, k=k, seed_channels=None, dtype=dtype
        )
        self.coord_map = Mlp2(
            rng, seed_channels + patch_channels, seed_channels, 3, dtype=dtype,
            zero_last=True,
        )
        self.patch_channels = patch_channels

    def __call__(self, patches):
        """Args: patches: a PointSet of patch centers and features.

        Returns the seeds, a PointSet with ``rate * n_patches`` rows.
        """
        q = self.query_proj(patches.features)
        keys = self.key_proj(patches.features)
        feats = self.core(q, keys, patches.cloud, mode=self.mode)
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


def export_seed_provenance(path, n_patches, rate):
    """Write the provenance table as a comma-delimited text file."""
    table = seed_provenance(n_patches, rate)
    with open(path, "w") as fh:
        fh.write("seed_index,source_patch_index,kernel\n")
        for row in table:
            fh.write(f"{row[0]},{row[1]},{row[2]}\n")


class UpsampleStage(Module):
    """One coarse-to-fine refinement stage.

    Interpolates the seed features once at the input cloud, builds queries
    from the previous stage's features concatenated with them, runs the
    generator core on the same tensor (keys are the previous stage's
    features), and moves duplicated points by predicted offsets. The offset
    head is zero-initialized so a fresh stage is an exact duplication.
    """

    def __init__(self, rng, channels, seed_channels, rate, k=16, interp_k=3,
                 mode=None, variant="uptrans", dtype=np.float32):
        self.rate = rate
        self.interp_k = interp_k
        self.mode = mode or AttentionMode("softmax")
        self.query_builder = Mlp2(
            rng, channels + seed_channels, channels, channels, dtype=dtype
        )
        self.core = make_core(
            variant, rng, channels, rate, k=k, seed_channels=seed_channels, dtype=dtype
        )
        self.offset_map = Mlp2(rng, channels, channels, 3, dtype=dtype, zero_last=True)

    def __call__(self, points, seeds):
        """Refine ``points`` (a PointSet) into ``rate`` times as many, guided
        by the ``seeds`` PointSet; returns the new PointSet."""
        s = geometry.interpolate_seed_features(points.cloud.data, seeds, self.interp_k)
        queries = self.query_builder(ad.concat([points.features, s], axis=1))
        feats = self.core(
            queries, points.features, points.cloud, seed_features=s, mode=self.mode
        )
        offsets = self.offset_map(feats)
        new_cloud = ad.add(ad.repeat_rows(points.cloud, self.rate), offsets)
        return geometry.PointSet(new_cloud, feats)
