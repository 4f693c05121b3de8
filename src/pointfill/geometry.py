"""Geometric kernels: farthest point sampling, k nearest neighbors,
inverse-distance feature interpolation and point set fusion.

The index-producing kernels take plain (n, 3) float arrays and are pure
numpy. The feature interpolation and the fusion build differentiable
graphs over :class:`PointSet` and cloud Tensors. Interpolation gradients
flow through the seed features alone, never through the coordinates (the
weights are constants of the geometry); fusion gradients reach the picked
rows of both clouds.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, NumericsError

#: Distance floor used by the inverse-distance weights so a query sitting
#: exactly on a seed gets a finite, dominating weight.
DISTANCE_FLOOR = 1e-8


def as_cloud(points, name="cloud"):
    """Validate and return points as an (n, 3) float array.

    Integer and boolean coordinates come back as float64, so distances
    computed from them are not truncated to integers.
    """
    pts = np.asarray(points)
    if pts.dtype.kind in "biu":
        pts = pts.astype(np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ContractError(f"{name} must have shape (n, 3), got {pts.shape}")
    if pts.shape[0] < 1:
        raise ContractError(f"{name} must contain at least one point")
    if not np.isfinite(pts).all():
        raise NumericsError(f"{name} contains non-finite coordinates")
    return pts


@dataclass
class PointSet:
    """Points that carry features: an (n, 3) cloud Tensor and (n, C) feature
    rows. Patch centers, seeds and every stage's output are PointSets."""

    cloud: ad.Tensor  # (n, 3)
    features: ad.Tensor  # (n, channels)

    def __post_init__(self):
        if self.cloud.shape[0] != self.features.shape[0]:
            raise ContractError("point set cloud and features disagree on row count")


@dataclass
class NeighborIndex:
    """Per-query neighbor table: indices into a reference cloud plus the
    matching Euclidean distances, each row sorted by increasing distance."""

    indices: np.ndarray  # (n, k) int
    distances: np.ndarray  # (n, k) float, nondecreasing along axis 1


# per thread (and per asyncio task), like the active autodiff tape
_FREEZE = contextvars.ContextVar("pointfill_geometry_freeze", default=None)


class GeometryFreeze:
    """Record/replay of the discrete geometric decisions in a computation.

    Index selections (nearest neighbors, farthest point sampling) and the
    interpolation weights derived from neighbor distances are constants of
    the geometry: the backward pass deliberately does not differentiate
    through them. A freezer records them on its first pass and replays them
    on later passes, so finite differences probe exactly the function the
    adjoints differentiate. Each ``with freezer:`` block is one pass::

        freezer = GeometryFreeze()
        with freezer:
            first = fn(x)  # records
        with freezer:
            again = fn(x + dx)  # replays the first pass's decisions
    """

    def __init__(self):
        self.tape = []
        self._pos = 0
        self._recording = True

    def __enter__(self):
        if _FREEZE.get() is not None:
            raise ContractError("geometry freezers do not nest")
        self._recording = not self.tape
        self._pos = 0
        _FREEZE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _FREEZE.set(None)
        return False

    def take(self, compute):
        if self._recording:
            value = compute()
            self.tape.append(value)
            return value
        if self._pos >= len(self.tape):
            raise ContractError("geometry replay ran past the recorded tape")
        value = self.tape[self._pos]
        self._pos += 1
        return value


def _decide(compute):
    """Run a geometric decision, through the active freezer if there is one."""
    freezer = _FREEZE.get()
    return compute() if freezer is None else freezer.take(compute)


def _sq_dist(a, b, diff=None, out=None):
    """Squared Euclidean distances between broadcast coordinate-first
    (3, ...) arrays, written into ``out`` with ``diff`` as the (3, ...)
    scratch when given.

    Summed in the fixed order ``(dx*dx + dy*dy) + dz*dz``, one elementwise
    pass at a time, so the rounding does not depend on how numpy vectorizes
    a reduction on the machine at hand. Each coordinate plane is contiguous
    when the inputs' are.
    """
    d = np.subtract(a, b, out=diff)
    d *= d
    out = np.add(d[0], d[1], out=out)
    out += d[2]
    return out


def canonical_start_index(points):
    """Index of the lexicographically smallest point (x, then y, then z).

    Gives farthest point sampling a start that does not depend on the
    storage order of the cloud, which keeps the whole model equivariant
    under input permutations.
    """
    pts = as_cloud(points)
    return int(np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))[0])


def farthest_point_sample(points, k, start=0):
    """Greedy max-min subset selection.

    Returns ``k`` distinct indices; the first is ``start`` and each next one
    maximizes the minimum distance to everything selected so far, breaking
    ties by lowest index.
    """
    pts = as_cloud(points)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ContractError(f"farthest_point_sample: k={k} outside [1, {n}]")
    if not 0 <= start < n:
        raise ContractError(f"farthest_point_sample: start={start} out of range")
    return _decide(lambda: _fps_compute(pts, k, start))


def _fps_compute(pts, k, start):
    cols = np.ascontiguousarray(pts.T)  # (3, n): each plane contiguous
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = start
    min_d2 = _sq_dist(cols, cols[:, start, None])
    min_d2[start] = -np.inf
    diff, d2 = np.empty_like(cols), np.empty_like(min_d2)
    for i in range(1, k):
        nxt = int(np.argmax(min_d2))  # argmax takes the first max: lowest index
        chosen[i] = nxt
        np.minimum(min_d2, _sq_dist(cols, cols[:, nxt, None], diff, d2), out=min_d2)
        min_d2[nxt] = -np.inf
    return chosen


#: Query-reference pair count from which ``knn`` prunes its search with a
#: uniform grid over the reference cloud. Both paths return bitwise equal
#: tables; below this size comparing every pair is as fast.
GRID_KNN_MIN_PAIRS = 2**22

_GRID_CELL_POINTS = 8  # reference points per occupied cell, on a surface
_GRID_BLOCK_POINTS = 128  # queries per block, on a surface
_GRID_BOUND_POINTS = 4_096  # reference points, at least, behind the block bounds
_GRID_MARGIN = 1e-4  # relative slack that covers the rounding of distances
# pairs per distance block: its (3, rows, m) differences and (rows, m) sums
# are 2 MB of float64, in cache; 2**15 and 2**17 measured the same
_KNN_CHUNK_PAIRS = 2**16


def knn(queries, reference, k):
    """Exact k nearest neighbors by squared Euclidean distance.

    Ties are broken by lowest reference index; a reference point identical
    to the query is eligible. Distances are computed per pair from the raw
    coordinate differences, in blocks of whole query rows sized to stay in
    cache, and summed in the fixed order ``(dx*dx + dy*dy) + dz*dz``, so
    the result depends neither on a factored distance expansion nor on the
    machine's SIMD reduction order. From ``GRID_KNN_MIN_PAIRS`` (2**22)
    query-reference pairs on, each block of nearby queries compares only
    the reference points a spatial grid cannot rule out; the table is
    bitwise equal to comparing every pair.
    """
    q = as_cloud(queries, "queries")
    r = as_cloud(reference, "reference")
    if k > r.shape[0]:
        raise ContractError(f"knn: k={k} exceeds reference size {r.shape[0]}")
    if k < 1:
        raise ContractError("knn: k must be >= 1")
    if q.shape[0] * r.shape[0] >= GRID_KNN_MIN_PAIRS:
        return _decide(lambda: _knn_grid(q, r, k))
    return _decide(lambda: _knn_compute(q, r, k))


def _grid_cells(pts, per_cell):
    """Cell id of every point on a cubic grid over the bounding box, with
    about ``per_cell`` points per occupied cell when the points lie on a
    surface (cells per axis ~ sqrt(n / per_cell))."""
    lo = pts.min(axis=0)
    span = float((pts.max(axis=0) - lo).max())
    per_axis = max(1, int(np.sqrt(pts.shape[0] / per_cell)))
    size = span / per_axis if span > 0 else 1.0
    ijk = np.minimum(((pts - lo) / size).astype(np.int64), per_axis - 1)
    return (ijk[:, 0] * per_axis + ijk[:, 1]) * per_axis + ijk[:, 2]


def _group(ids):
    """Stable order of ``ids`` and the start of each run of equal ids in it."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    return order, starts


def _knn_grid(q, r, k):
    """``_knn_compute`` with the reference cloud pruned per block of queries.

    Reference points are bucketed into grid cells, each with the tight box
    of its points, and queries into coarser cells, the blocks. Any k
    distinct reference points bound a query's k-th neighbor distance by the
    largest distance from the query to them. Each block takes the k points
    nearest its mean within a spread subset of the reference (every
    ``m // max(4096, k)``-th point in cell order, so at least
    ``min(m, max(4096, k)) >= k`` points), and ``U``, the largest member-to-those-points distance, bounds
    every member's k-th neighbor distance. The subset makes ``U`` looser
    than the whole reference would, which widens the search but drops no
    neighbor, and makes the bound far cheaper to find. A cell whose box
    lies farther than ``U`` from the block's box holds only points strictly
    farther from each member than its k-th neighbor. Each block
    runs ``_knn_compute`` on the points of the cells that pass, in
    ascending index order: distances come from the same per-pair formula
    and ties meet in the same order, so the table is bitwise equal to the
    brute-force one. Bounds are taken in float64 with a relative margin
    that covers the rounding of the compared distances.
    """
    n, m = q.shape[0], r.shape[0]
    dtype = np.result_type(q, r)
    q64 = q.astype(np.float64)
    r64 = r.astype(np.float64)
    scale = max(np.abs(q64).max(), np.abs(r64).max())
    if 12.0 * scale * scale >= np.finfo(dtype).max:
        return _knn_compute(q, r, k)  # squared distances could overflow

    r_order, r_starts = _group(_grid_cells(r64, _GRID_CELL_POINTS))
    r_counts = np.diff(np.r_[r_starts, m])
    r_sorted = r64.T[:, r_order]  # (3, m) coordinate columns, like every box below
    cell_lo = np.minimum.reduceat(r_sorted, r_starts, axis=1)
    cell_hi = np.maximum.reduceat(r_sorted, r_starts, axis=1)

    q_order, q_starts = _group(_grid_cells(q64, _GRID_BLOCK_POINTS))
    q_counts = np.diff(np.r_[q_starts, n])
    q_sorted = q64.T[:, q_order]
    block_lo = np.minimum.reduceat(q_sorted, q_starts, axis=1)
    block_hi = np.maximum.reduceat(q_sorted, q_starts, axis=1)
    centers = np.add.reduceat(q_sorted, q_starts, axis=1) / q_counts
    stride = max(1, m // max(_GRID_BOUND_POINTS, k))
    near = r_order[::stride][_knn_compute(centers.T, r_sorted[:, ::stride].T, k).indices]

    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=q.dtype)
    for b, (lo, count) in enumerate(zip(q_starts, q_counts)):
        block = q_sorted[:, lo:lo + count, None]
        reach = np.sqrt(_sq_dist(block, r64[near[b]].T[:, None]).max())
        reach = (1.0 + _GRID_MARGIN) * reach + _GRID_MARGIN * scale
        # per axis, at most one of the two one-sided box gaps is nonzero
        above = np.maximum(cell_lo - block_hi[:, b, None], 0.0)
        below = np.maximum(block_lo[:, b, None] - cell_hi, 0.0)
        keep = np.flatnonzero(_sq_dist(above, below) <= reach * reach)
        counts = r_counts[keep]
        within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        cand = np.sort(r_order[np.repeat(r_starts[keep], counts) + within])
        members = q_order[lo:lo + count]
        # gathered as (3, c) columns: _knn_compute reads their transpose uncopied
        sub = _knn_compute(q[members], r.T[:, cand].T, k)
        indices[members] = cand[sub.indices]
        distances[members] = sub.distances
    return NeighborIndex(indices=indices, distances=distances)


def _knn_compute(q, r, k):
    n = q.shape[0]
    m = r.shape[0]
    q_cols = q.T[:, :, None]
    r_cols = np.ascontiguousarray(r.T)[:, None, :]  # one copy unless r is a transpose
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=q.dtype)
    chunk = max(1, _KNN_CHUNK_PAIRS // m)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        d2 = _sq_dist(q_cols[:, lo:hi], r_cols)
        order = _smallest_k(d2, k)
        indices[lo:hi] = order
        distances[lo:hi] = np.sqrt(np.take_along_axis(d2, order, axis=1))
    return NeighborIndex(indices=indices, distances=distances)


def _smallest_k(d2, k):
    """Per-row indices of the k smallest values, ordered by (value, index).

    The k-th smallest value ``v`` comes from a partition. A row with exactly
    k values ``<= v`` takes them in index order. Only a row with more, a tie
    at ``v``, ranks its values (those below ``v`` first, then the ties by
    index, then the rest) and takes its k lowest ranks with a second
    partition, so the lowest indices win the tie, as in a stable full sort.
    """
    rows, m = d2.shape
    if k == 1:
        return d2.argmin(axis=1)[:, None]  # argmin takes the first minimum
    vstar = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    within = d2 <= vstar
    exact = np.count_nonzero(within, axis=1) == k
    winners = np.empty((rows, k), dtype=np.int64)
    # flat positions are index-ascending within each row; a 2-d nonzero is slower
    winners[exact] = (np.flatnonzero(within[exact]) % m).reshape(-1, k)
    tied = np.flatnonzero(~exact)
    if tied.size:
        # fewer than k values lie below v, so the k lowest ranks are all of
        # them and then the lowest-index ties; the rank type holds -1 and m
        sub, v = d2[tied], vstar[tied]
        rank = np.where(sub == v, np.arange(m, dtype=np.min_scalar_type(-m - 1)), m)
        rank[sub < v] = -1
        kth = np.partition(rank, k - 1, axis=1)[:, k - 1:k]
        winners[tied] = (np.flatnonzero(rank <= kth) % m).reshape(-1, k)
    by_value = np.argsort(
        np.take_along_axis(d2, winners, axis=1), axis=1, kind="stable"
    )
    return np.take_along_axis(winners, by_value, axis=1)


def interpolate_seed_features(queries, seeds, k=3):
    """Inverse-distance weighted average of the k nearest seed features.

    For query ``p_i`` with neighbor seeds ``j``, the output row is
    ``sum_j w_ij f_j / sum_j w_ij`` with ``w_ij = 1 / max(d_ij, 1e-8)``.
    Differentiable with respect to the seed features; the weights are
    treated as constants of the geometry, so no gradient reaches the seed
    cloud.

    Args:
        queries: (m, 3) array of query coordinates.
        seeds: a PointSet (seed cloud Tensor + seed features).
        k: neighborhood size over the seeds.

    Returns:
        Tensor of shape (m, seed_channels).
    """
    q = as_cloud(queries, "queries")
    n_seeds = seeds.cloud.shape[0]
    if n_seeds < 1:
        raise ContractError("interpolate_seed_features: empty seed set")
    if k > n_seeds:
        raise ContractError(f"interpolate_seed_features: k={k} exceeds {n_seeds} seeds")
    nbr = knn(q, seeds.cloud.data, k)
    w = 1.0 / np.maximum(nbr.distances, DISTANCE_FLOOR)
    w = w / w.sum(axis=1, keepdims=True)
    return ad.neighbor_sum(seeds.features, nbr.indices.reshape(-1), w)


def fuse_and_resample(seed_cloud, partial, n0):
    """Concatenate two cloud Tensors and farthest-point-sample ``n0`` rows.

    The result is one ``concat`` record followed by one ``gather_rows``
    record, so under a tape the gradient of each picked row reaches the
    row of ``seed_cloud`` or ``partial`` it came from. Sampling starts at
    index 0 of the concatenation (the first seed). This builds the coarse
    cloud that the refinement stages consume.

    Args:
        seed_cloud: (s, 3) Tensor of seed coordinates.
        partial: (p, 3) Tensor of input coordinates, same dtype.
        n0: number of rows to keep, at most ``s + p``.

    Returns:
        Tensor of shape (n0, 3).
    """
    as_cloud(seed_cloud.data, "seeds")
    as_cloud(partial.data, "partial")
    merged = ad.concat([seed_cloud, partial], axis=0)  # FPS refuses n0 > s + p
    return ad.gather_rows(merged, farthest_point_sample(merged.data, n0, start=0))
