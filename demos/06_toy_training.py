"""End-to-end: train a small model on occluded shapes and evaluate it.

Run: python3 demos/06_toy_training.py          (about 20 s)
Writes completions under ./demo_output/training/. It runs BLAS on one
thread unless OMP_NUM_THREADS, OPENBLAS_NUM_THREADS or MKL_NUM_THREADS says
otherwise: spinning BLAS threads on a core another process holds can slow
training more than tenfold.
"""

import os
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pinning)

import pointfill as pf  # noqa: E402
from pointfill import data  # noqa: E402
from pointfill.losses import chamfer, fscore  # noqa: E402

out = Path("demo_output/training")
out.mkdir(parents=True, exist_ok=True)

data.build_synthetic_dataset(out / "data", "train", 16, seed=4, gt_points=512,
                             partial_points=512)
data.build_synthetic_dataset(out / "data", "test", 4, seed=44, gt_points=512,
                             partial_points=512)
train = [(p, g) for _, p, g in pf.load_dataset(out / "data" / "train")]
test = pf.load_dataset(out / "data" / "test")

config = pf.ModelConfig.desk(precision="float32", init_seed=0)
model = pf.CompletionModel(config)
print(f"desk model: {model.parameter_count():,} parameters, "
      f"stages {config.stage_sizes}")

optimizer = pf.Adam(model, lr=1e-3)
t0 = time.time()
rows = pf.run_training(model, train, steps=60, optimizer=optimizer, seed=0,
                       batch_clouds=2)
print(f"60 steps in {time.time() - t0:.0f}s; "
      f"loss {rows[0].breakdown.total:.3f} -> {rows[-1].breakdown.total:.3f}")

print("\nheld-out evaluation (chamfer L2 x1000, lower is better):")
for sample_id, partial, gt in test:
    pred = model.complete(partial).astype(np.float64)
    baseline = data.resample_input(partial, pred.shape[0], seed=0)
    cd_model = 1000 * chamfer(pred, gt, "l2").item()
    cd_base = 1000 * chamfer(baseline, gt, "l2").item()
    marker = "model wins" if cd_model < cd_base else "baseline wins"
    print(f"  {sample_id}: model {cd_model:7.2f} vs resampled-input {cd_base:7.2f}"
          f"  f-score {fscore(pred, gt):.2f}  [{marker}]")
    data.write_xyz(out / f"{sample_id}_pred.xyz", pred)

ckpt = out / "demo.ckpt"
pf.save_checkpoint(model, ckpt, optimizer=optimizer)
print(f"\ncheckpoint saved to {ckpt}")
print("try the CLI next, e.g.:")
print(f"  pointfill complete --ckpt {ckpt} "
      f"--input {out / 'data' / 'test' / (test[0][0] + '_partial.xyz')} "
      f"--output {out / 'cli_pred.xyz'}")
