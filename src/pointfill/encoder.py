"""Partial-input feature extractor.

Two set-abstraction stages, each followed by a neighborhood-attention
refinement layer, reduce the input cloud to a compact set of patch centers
with per-patch features. Every geometric quantity that feeds a feature path
is a relative coordinate, so features are invariant under rigid translation
while centers translate with the input.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import geometry
from .errors import ContractError
from .generator import UpsampleTransformer
from .layers import Mlp2, Module


class SetAbstraction(Module):
    """Downsample to ``out_n`` centers and pool a neighborhood feature each.

    Farthest point sampling picks the centers (starting from the
    lexicographically smallest point so the result is independent of the
    input storage order). Each center groups its k nearest input points;
    per-neighbor rows are the relative coordinates concatenated with the
    neighbor's feature (when present), lifted by a shared two-layer map and
    reduced by a channel-wise max.
    """

    def __init__(self, rng, in_channels, out_n, out_c, k=16):
        self.out_n = out_n
        self.out_c = out_c
        self.k = k
        self.lift = Mlp2(rng, 3 + in_channels, out_c, out_c)

    def __call__(self, cloud, features=None):
        cloud = geometry.as_cloud(cloud)
        n = cloud.shape[0]
        if self.out_n > n:
            raise ContractError(f"set abstraction needs >= {self.out_n} points, got {n}")
        if self.k > n:
            raise ContractError(f"set abstraction needs >= {self.k} points for grouping")
        center_idx = geometry.farthest_point_sample(
            cloud, self.out_n, start=geometry.canonical_start_index(cloud)
        )
        centers = cloud[center_idx]
        nbr = geometry.knn(centers, cloud, self.k).indices
        rel = cloud[nbr.reshape(-1)] - np.repeat(centers, self.k, axis=0)
        dtype = features.dtype if features is not None else self.lift.lin0.w.dtype
        rows = ad.Tensor(rel.astype(dtype, copy=False))
        if features is not None:
            if features.shape[0] != n:
                raise ContractError("features row count must match the cloud")
            rows = ad.concat([rows, ad.gather_rows(features, nbr.reshape(-1))], axis=1)
        lifted = ad.reshape(self.lift(rows), (self.out_n, self.k, self.out_c))
        return centers, ad.max_over_axis(lifted, axis=1)


class PointTransformerLayer(Module):
    """Residual neighborhood attention at a fixed point count.

    The single-kernel, softmax-normalized, seed-free case of the upsample
    transformer, wrapped between linear projections with a residual
    connection, refines per-point features in place.
    """

    def __init__(self, rng, channels, k=16):
        self.pre = Mlp2(rng, channels, channels, channels)
        self.core = UpsampleTransformer(rng, channels, rate=1, k=k)
        self.post = Mlp2(rng, channels, channels, channels)

    def __call__(self, cloud, features):
        if features.shape[0] != cloud.shape[0]:
            raise ContractError("feature rows must match the cloud")
        x = self.pre(features)
        cloud_t = ad.constant(cloud, like=features)
        h = self.core(x, x, cloud_t)
        return ad.add(features, self.post(h))


class Encoder(Module):
    """abstract -> refine -> abstract -> refine, yielding patch features."""

    def __init__(self, rng, stage1_n, stage1_c, patch_n, patch_c, k=16):
        self.abstract1 = SetAbstraction(rng, 0, stage1_n, stage1_c, k=k)
        self.refine1 = PointTransformerLayer(rng, stage1_c, k=k)
        self.abstract2 = SetAbstraction(rng, stage1_c, patch_n, patch_c, k=k)
        self.refine2 = PointTransformerLayer(rng, patch_c, k=k)
        self.min_points = max(stage1_n, k)

    def __call__(self, partial):
        """Encode a partial cloud into a PointSet of patch centers (a constant
        Tensor in the features' dtype) and patch features."""
        partial = geometry.as_cloud(partial, "partial")
        if partial.shape[0] < self.min_points:
            raise ContractError(
                f"encoder needs at least {self.min_points} points, got {partial.shape[0]}"
            )
        centers1, feats1 = self.abstract1(partial, None)
        feats1 = self.refine1(centers1, feats1)
        centers2, feats2 = self.abstract2(centers1, feats1)
        feats2 = self.refine2(centers2, feats2)
        return geometry.PointSet(ad.constant(centers2, like=feats2), feats2)
