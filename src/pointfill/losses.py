"""Training losses and evaluation metrics for point set prediction.

The loss-side functions (``chamfer``, ``partial_matching_loss``,
``completion_loss``) build differentiable graphs through the coordinates of
the clouds they receive; nearest-neighbor assignments themselves are
constants of the geometry. The metric-side functions (``fscore``,
``fidelity``, ``mmd``) return plain floats.

Reported tables conventionally multiply Chamfer values by 1000; that scaling
is applied at the reporting layer, never here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geometry
from .errors import ContractError


@dataclass
class LossBreakdown:
    """Per-term view of one training loss evaluation.

    ``stage_cds`` holds one Chamfer value per supervised output, seed cloud
    first, then each refinement stage in order.
    """

    stage_cds: tuple
    partial_matching: float
    total: float

    def labels(self):
        names = ["cd_seeds"]
        names += [f"cd_stage{i + 1}" for i in range(len(self.stage_cds) - 1)]
        return names


def _cloud_tensor(x, name):
    if isinstance(x, ad.Tensor):
        geometry.as_cloud(x.data, name)
        return x
    return ad.Tensor(geometry.as_cloud(x, name))


def _nearest_sq_dist(src, dst):
    """Differentiable squared distance from each src row to its nearest dst row."""
    idx = geometry.knn(src.data, dst.data, 1).indices[:, 0]
    diff = ad.neighbor_diff(src, dst, idx, 1)
    return ad.reduce_sum(ad.mul(diff, diff), axis=1)


def _directed_term(src, dst, norm):
    d2 = _nearest_sq_dist(src, dst)
    if norm == "l1":
        return ad.reduce_mean(ad.sqrt(d2))
    return ad.reduce_mean(d2)


def chamfer(a, b, norm="l1"):
    """Symmetric Chamfer distance between two clouds.

    ``0.5 * (mean_a min_b m(x, y) + mean_b min_a m(y, x))`` where ``m`` is
    the Euclidean distance for ``norm='l1'`` and its square for ``'l2'``.
    Returns a scalar Tensor, differentiable through both clouds.
    """
    if norm not in ("l1", "l2"):
        raise ContractError(f"chamfer: norm must be 'l1' or 'l2', got {norm!r}")
    ta = _cloud_tensor(a, "a")
    tb = _cloud_tensor(b, "b")
    both = ad.add(_directed_term(ta, tb, norm), _directed_term(tb, ta, norm))
    return ad.mul(both, 0.5)


def partial_matching_loss(input_partial, prediction):
    """Mean distance from each input point to its nearest predicted point.

    Unidirectional: the prediction must cover the input but may extend
    beyond it. Returns a scalar Tensor.
    """
    src = _cloud_tensor(input_partial, "input_partial")
    dst = _cloud_tensor(prediction, "prediction")
    return ad.reduce_mean(ad.sqrt(_nearest_sq_dist(src, dst)))


def downsample_targets(gt, sizes):
    """Per-output loss targets: gt farthest-point downsampled where larger."""
    gt = geometry.as_cloud(gt, "gt")
    targets = []
    for size in sizes:
        if gt.shape[0] > size:
            targets.append(gt[geometry.farthest_point_sample(gt, size, start=0)])
        else:
            targets.append(gt)
    return targets


def completion_loss(seed_coords, stage_clouds, targets):
    """Sum of per-output Chamfer-L1 terms against the ground truth.

    ``targets`` holds one cloud per output, seeds first: the ground truth
    farthest-point downsampled to each output's size whenever it is larger
    (``downsample_targets``), so coarse outputs are compared against an
    equally coarse but coverage-preserving target.

    Returns ``(total, terms)`` where ``terms`` lists the per-output scalar
    Tensors (seeds first, then each stage).
    """
    outputs = [seed_coords, *stage_clouds]
    if len(targets) != len(outputs):
        raise ContractError(f"completion_loss: {len(targets)} targets for {len(outputs)} outputs")
    terms = []
    for cloud, target in zip(outputs, targets):
        t = _cloud_tensor(cloud, "output")
        terms.append(chamfer(t, target, norm="l1"))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total, terms


def fscore(pred, gt, threshold=None):
    """F-Score at a distance threshold (default: 1% of the gt bbox diagonal).

    Precision is the fraction of predicted points within the threshold of
    some ground-truth point, recall the converse; returns ``2PR / (P + R)``
    (0 when both are 0).
    """
    p = geometry.as_cloud(pred, "pred")
    g = geometry.as_cloud(gt, "gt")
    if threshold is None:
        threshold = 0.01 * float(np.linalg.norm(g.max(axis=0) - g.min(axis=0)))
    if not (np.isfinite(threshold) and threshold > 0):
        raise ContractError(f"fscore: threshold must be finite and positive, got {threshold}")
    d_pg = geometry.knn(p, g, 1).distances[:, 0]
    d_gp = geometry.knn(g, p, 1).distances[:, 0]
    precision = float(np.mean(d_pg <= threshold))
    recall = float(np.mean(d_gp <= threshold))
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def fidelity(input_partial, pred):
    """Input-coverage distance: metric alias of the partial matching term."""
    return float(partial_matching_loss(input_partial, pred).item())


def mmd(pred, reference_library):
    """Minimum Chamfer-L2 between ``pred`` and a library of reference clouds.

    Returns ``(value, index)`` for the closest library entry.
    """
    library = list(reference_library)
    if not library:
        raise ContractError("mmd: empty reference library")
    best_value = None
    best_index = -1
    for i, candidate in enumerate(library):
        value = float(chamfer(pred, candidate, norm="l2").item())
        if best_value is None or value < best_value:
            best_value = value
            best_index = i
    return best_value, best_index
