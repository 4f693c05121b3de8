"""Brute-force reference implementations used to validate the kernels.

These are deliberately naive (full distance matrices, python sorts, double
loops, one loop step per sampled point) and independent of the library's
chunking, incremental updates or vectorization choices. Distance
comparisons use squared Euclidean distance, like the definitions they
mirror.
"""

import math

import numpy as np


def fps_oracle(points, k, start):
    """O(n^2 k) greedy max-min selection over a full distance matrix."""
    pts = np.asarray(points)
    n = pts.shape[0]
    d2 = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = pts[i] - pts[j]
            d2[i, j] = diff @ diff
    selected = [start]
    masked = d2[:, start].copy()
    masked[start] = -np.inf
    for _ in range(k - 1):
        best = int(np.argmax(masked))
        selected.append(best)
        for i in range(n):
            if masked[i] != -np.inf:
                masked[i] = min(masked[i], d2[i, best])
        masked[best] = -np.inf
    return np.asarray(selected)


def knn_oracle(queries, reference, k):
    """Per-query python sort over all reference points, ties by index."""
    q = np.asarray(queries)
    r = np.asarray(reference)
    indices = np.empty((q.shape[0], k), dtype=np.int64)
    distances = np.empty((q.shape[0], k))
    for i in range(q.shape[0]):
        d2 = [float((q[i] - r[j]) @ (q[i] - r[j])) for j in range(r.shape[0])]
        order = sorted(range(r.shape[0]), key=lambda j: (d2[j], j))[:k]
        indices[i] = order
        distances[i] = [np.sqrt(d2[j]) for j in order]
    return indices, distances


def directed_nn_mean(src, dst, squared=False):
    """Mean over src of the nearest-neighbor distance into dst."""
    total = 0.0
    for p in np.asarray(src):
        best = min(float((p - q) @ (p - q)) for q in np.asarray(dst))
        total += best if squared else np.sqrt(best)
    return total / len(src)


def chamfer_oracle(a, b, norm):
    squared = norm == "l2"
    return 0.5 * (
        directed_nn_mean(a, b, squared=squared) + directed_nn_mean(b, a, squared=squared)
    )


def fscore_oracle(pred, gt, threshold):
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    hits_p = sum(
        1
        for p in pred
        if min(np.sqrt((p - g) @ (p - g)) for g in gt) <= threshold
    )
    hits_g = sum(
        1
        for g in gt
        if min(np.sqrt((g - p) @ (g - p)) for p in pred) <= threshold
    )
    precision = hits_p / len(pred)
    recall = hits_g / len(gt)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def mmd_oracle(pred, library):
    values = [chamfer_oracle(pred, ref, "l2") for ref in library]
    best = int(np.argmin(values))
    return values[best], best


def softmax_over_neighbors(logits):
    """Softmax of (n, k, W) logits over the k neighbors (axis 1)."""
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def boxes_oracle(rng, n, boxes):
    """Area-weighted face sampling, one python loop step per point: the
    referee of ``data._sample_boxes`` (same draws, same arithmetic)."""
    faces = []
    areas = []
    for center, ext in boxes:
        for axis in range(3):
            for sign in (-1.0, 1.0):
                other = [a for a in range(3) if a != axis]
                faces.append((center, ext, axis, sign, other))
                areas.append(ext[other[0]] * ext[other[1]])
    areas = np.asarray(areas)
    choice = rng.choice(len(faces), size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.empty((n, 3))
    for i, f in enumerate(choice):
        center, ext, axis, sign, other = faces[f]
        p = np.array(center, dtype=float)
        p[axis] += sign * ext[axis] / 2.0
        p[other[0]] += u[i, 0] * ext[other[0]]
        p[other[1]] += u[i, 1] * ext[other[1]]
        pts[i] = p
    return pts


def cylinder_oracle(rng, n, radius, height):
    """Area-weighted cylinder surface sampling with one scalar draw per point:
    the referee of ``data._sample_cylinder`` (same draws, same arithmetic)."""
    lateral = 2.0 * math.pi * radius * height
    cap = math.pi * radius * radius
    total = lateral + 2.0 * cap
    which = rng.uniform(size=n)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    pts = np.empty((n, 3))
    for i in range(n):
        if which[i] < lateral / total:
            z = rng.uniform(-height / 2.0, height / 2.0)
            pts[i] = (radius * math.cos(theta[i]), radius * math.sin(theta[i]), z)
        else:
            r = radius * math.sqrt(rng.uniform())
            z = height / 2.0 if which[i] < (lateral + cap) / total else -height / 2.0
            pts[i] = (r * math.cos(theta[i]), r * math.sin(theta[i]), z)
    return pts
