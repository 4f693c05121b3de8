"""Inside the generator: seed creation, attention modes, upsampling stages.

Run: python3 demos/05_seeds_and_upsampling.py
"""

import numpy as np

from pointfill import autodiff as ad
from pointfill.geometry import PointSet
from pointfill.generator import (
    AttentionMode,
    SeedGenerator,
    UpsampleStage,
    UpsampleTransformer,
    seed_provenance,
)

rng = np.random.default_rng(11)

# The upsample transformer turns each point into `rate` feature rows by
# attending over its neighborhood with one kernel per replica.
core = UpsampleTransformer(np.random.default_rng(0), channels=16, rate=2, k=6,
                           dtype=np.float64)
cloud = ad.tensor(rng.standard_normal((24, 3)))
feats = ad.tensor(rng.standard_normal((24, 16)))
capture = {}
out = core(feats, feats, cloud, mode=AttentionMode("softmax"), capture=capture)
print(f"upsampled {cloud.shape[0]} points -> {out.shape[0]} feature rows")
w = capture["weights"][0].data
print("softmax weight sums (first 3 points, first 2 channels):")
print(w.sum(axis=1)[:3, :2].round(6))

# Attention modes change the normalization; without softmax the weights
# are free to leave (0, 1), which helps generate points beyond the input.
for mode in ("softmax", "none", "scaled", "log"):
    c = {}
    core(feats, feats, cloud, mode=AttentionMode(mode, lam=2.0), capture=c)
    vals = c["weights"][0].data
    print(f"mode {mode:8s} weight range [{vals.min():+.2f}, {vals.max():+.2f}]")

# The seed generator expands patch features into a seed set; each patch
# splits into `rate` seeds with a recorded provenance.
patches = PointSet(
    ad.tensor(rng.standard_normal((16, 3))), ad.tensor(rng.standard_normal((16, 32)))
)
gen = SeedGenerator(np.random.default_rng(1), patch_channels=32, seed_channels=16,
                    rate=2, k=6, dtype=np.float64)
seeds = gen(patches)
table = seed_provenance(16, 2)
print(f"\n{patches.cloud.shape[0]} patches -> {seeds.cloud.shape[0]} seeds")
print("provenance rows (seed, patch, kernel):", table[:4].tolist(), "...")

# A refinement stage interpolates the seed features at its points, then
# duplicates the points and moves them by learned offsets; fresh stages
# start as exact duplication (zero-initialized offsets).
stage = UpsampleStage(np.random.default_rng(2), channels=16, seed_channels=16,
                      rate=2, k=6, dtype=np.float64)
state = PointSet(cloud, feats)
refined = stage(state, seeds)
drift = np.linalg.norm(refined.cloud.data - np.repeat(cloud.data, 2, axis=0), axis=1)
print(f"\nfresh stage: {state.cloud.shape[0]} -> {refined.cloud.shape[0]} points, "
      f"max drift from parents {drift.max():.1e}")
