"""Distance losses and evaluation metrics on crafted point sets.

Run: python3 demos/03_losses_and_metrics.py
"""

import numpy as np

from pointfill import autodiff as ad
from pointfill import losses

rng = np.random.default_rng(1)

cube = rng.uniform(-0.5, 0.5, size=(128, 3))
shifted = cube + np.array([0.3, 0.0, 0.0])

print("chamfer L1 cube vs itself:  ", losses.chamfer(cube, cube.copy(), "l1").item())
print("chamfer L1 cube vs shifted: ", round(losses.chamfer(cube, shifted, "l1").item(), 4))
print("chamfer L2 cube vs shifted: ", round(losses.chamfer(cube, shifted, "l2").item(), 4))

# The partial matching term is one-directional: a prediction larger than
# the input costs nothing as long as the input stays covered.
half = cube[cube[:, 0] > 0]
print("\npartial matching half -> full:", losses.partial_matching_loss(half, cube).item())
print("partial matching full -> half:",
      round(losses.partial_matching_loss(cube, half).item(), 4))

# F-Score at 1% of the bounding-box diagonal by default.
noisy = cube + 0.003 * rng.standard_normal(cube.shape)
print("\nfscore cube vs noisy cube:", round(losses.fscore(noisy, cube), 4))
print("fscore cube vs shifted:   ", round(losses.fscore(shifted, cube), 4))

# Library matching: which reference cloud is closest in chamfer L2?
library = [cube + [0, 0, 2], shifted, cube + 0.001 * rng.standard_normal(cube.shape)]
value, index = losses.mmd(cube, library)
print(f"\nclosest library entry: index {index} at chamfer-L2 {value:.6f}")

# Losses are differentiable through the coordinates of both clouds.
a = ad.Tensor(rng.standard_normal((12, 3)), requires_grad=True)
b = ad.Tensor(rng.standard_normal((9, 3)), requires_grad=True)
with ad.Tape() as tape:
    loss = losses.chamfer(a, b, "l1")
tape.backward(loss)
print("\nchamfer gradient norms:",
      round(float(np.linalg.norm(a.grad)), 4), "and",
      round(float(np.linalg.norm(b.grad)), 4))
