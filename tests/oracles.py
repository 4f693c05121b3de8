"""Brute-force reference implementations used to validate the kernels.

These are deliberately naive (full distance matrices, python sorts and
double loops) and independent of the library's chunking, incremental
updates or vectorization choices. Distance comparisons use squared
Euclidean distance, like the definitions they mirror.
"""

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
