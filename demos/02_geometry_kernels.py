"""Geometric kernels: farthest point sampling, kNN, seed interpolation.

Run: python3 demos/02_geometry_kernels.py
"""

import numpy as np

from pointfill import autodiff as ad
from pointfill import geometry

rng = np.random.default_rng(7)

# Farthest point sampling spreads a subset over the cloud: from a dense
# ring of points it picks nearly equally spaced ones.
angles = np.sort(rng.uniform(0, 2 * np.pi, 64))
ring = np.stack([np.cos(angles), np.sin(angles), np.zeros(64)], axis=1)
picked = geometry.farthest_point_sample(ring, 8, start=0)
print("ring angles of the 8 farthest-point samples (degrees):")
print(np.sort(np.degrees(angles[picked])).round(1))

# kNN returns indices plus distances, rows sorted by distance.
queries = ring[:4] * 1.1
nbr = geometry.knn(queries, ring, k=3)
print("\nnearest ring neighbors of 4 scaled queries:")
for i in range(4):
    print(f"  query {i}: indices {nbr.indices[i]}, distances {nbr.distances[i].round(3)}")

# Inverse-distance interpolation propagates seed features to arbitrary
# query points; gradients flow into the seed features only.
seeds = geometry.PointSet(
    ad.tensor(np.array([[1.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0]])),
    ad.tensor(np.array([[1.0], [2.0], [3.0]]), requires_grad=True),
)
with ad.Tape() as tape:
    value = geometry.interpolate_seed_features(np.array([[0.0, 0, 0]]), seeds, k=3)
    loss = ad.reduce_sum(value)
tape.backward(loss)
print(f"\ninterpolated value at the origin: {value.item():.4f}  (= 2.75/1.75)")
print("d value / d seed features:", seeds.features.grad.ravel().round(4))

# Fusing two clouds and resampling keeps coverage of both.
left = rng.standard_normal((30, 3)) * 0.2 + [-2, 0, 0]
right = rng.standard_normal((30, 3)) * 0.2 + [2, 0, 0]
fused = geometry.fuse_and_resample(ad.tensor(left), ad.tensor(right), 10)
print("\nfused sample x-signs:", np.sign(fused.data[:, 0]).astype(int))
