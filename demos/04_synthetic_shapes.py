"""Synthetic shape corpus: generation, viewpoint occlusion, file formats.

Run: python3 demos/04_synthetic_shapes.py
Writes a small dataset under ./demo_output/shapes/.
"""

from pathlib import Path

import numpy as np

from pointfill import data

out = Path("demo_output/shapes")
out.mkdir(parents=True, exist_ok=True)

# One ground-truth sample per family.
for family in data.FAMILIES:
    spec = data.SyntheticShapeSpec(
        family=family, seed=3, gt_points=1024, partial_points=512
    )
    gt = data.generate_shape(spec)
    span = gt.max(axis=0) - gt.min(axis=0)
    print(f"{family:10s} extent {span.round(2)}")
    data.write_xyz(out / f"{family}.xyz", gt)

# Occlusion keeps the points most visible from a viewpoint; a sphere seen
# from +z loses its lower hemisphere.
sphere = data.generate_shape(
    data.SyntheticShapeSpec(family="sphere", seed=5, gt_points=1024, partial_points=512)
)
partial = data.occlude_viewpoint(sphere, viewpoint=[0, 0, 1], keep=512)
print(f"\nsphere from +z: kept {partial.shape[0]} points, "
      f"mean z {partial[:, 2].mean():+.2f} (full sphere: {sphere[:, 2].mean():+.2f})")
data.write_ply(out / "sphere_partial.ply", partial)

# resample_input forces an exact point count by duplication or subsetting.
small = data.resample_input(partial, 128, seed=0)
big = data.resample_input(partial, 2048, seed=0)
print(f"resampled to {small.shape[0]} and {big.shape[0]} points")

# A ready dataset with the on-disk layout the trainer and CLI consume.
ids = data.build_synthetic_dataset(
    out / "dataset", "train", 5, seed=9, gt_points=256, partial_points=256
)
print("\ndataset samples:", ", ".join(ids))
print("files live under", out / "dataset" / "train")
