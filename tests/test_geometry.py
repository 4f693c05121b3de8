"""Geometric kernels against trivial cases and brute-force oracles."""

import threading
import tracemalloc

import numpy as np
import pytest

from pointfill import autodiff as ad
from pointfill import geometry
from pointfill.errors import ContractError

from .oracles import fps_oracle, knn_oracle


def random_cloud(rng, n, spread=1.0):
    return spread * rng.standard_normal((n, 3))


# --- farthest point sampling -------------------------------------------------


def test_fps_farthest_pair():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.1, 0, 0]])
    np.testing.assert_array_equal(geometry.farthest_point_sample(pts, 2, start=0), [0, 1])


def test_fps_full_permutation():
    rng = np.random.default_rng(0)
    pts = random_cloud(rng, 17)
    idx = geometry.farthest_point_sample(pts, 17, start=5)
    assert sorted(idx) == list(range(17))
    assert idx[0] == 5


def test_fps_rejects_bad_k():
    pts = np.zeros((4, 3))
    with pytest.raises(ContractError):
        geometry.farthest_point_sample(pts, 5, start=0)


@pytest.mark.parametrize("seed", range(8))
def test_fps_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 64))
    pts = random_cloud(rng, n)
    k = int(rng.integers(2, n + 1))
    start = int(rng.integers(0, n))
    got = geometry.farthest_point_sample(pts, k, start=start)
    np.testing.assert_array_equal(got, fps_oracle(pts, k, start))


def test_fps_64_points_16_samples_oracle():
    rng = np.random.default_rng(42)
    pts = random_cloud(rng, 64)
    np.testing.assert_array_equal(
        geometry.farthest_point_sample(pts, 16, start=0), fps_oracle(pts, 16, 0)
    )


def test_fps_handles_duplicate_points():
    pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
    idx = geometry.farthest_point_sample(pts, 4, start=0)
    assert sorted(idx) == [0, 1, 2, 3]


# --- k nearest neighbors -----------------------------------------------------


def test_knn_line():
    q = np.array([[0.0, 0, 0]])
    r = np.array([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    nbr = geometry.knn(q, r, 2)
    np.testing.assert_array_equal(nbr.indices, [[0, 1]])
    np.testing.assert_allclose(nbr.distances, [[1.0, 2.0]])


def test_knn_self_is_nearest():
    rng = np.random.default_rng(1)
    pts = random_cloud(rng, 10)
    nbr = geometry.knn(pts, pts, 1)
    np.testing.assert_array_equal(nbr.indices[:, 0], np.arange(10))
    np.testing.assert_allclose(nbr.distances, np.zeros((10, 1)))


def test_knn_rejects_large_k():
    pts = np.zeros((3, 3))
    with pytest.raises(ContractError):
        geometry.knn(pts, pts, 4)


def test_knn_matches_oracle_large():
    rng = np.random.default_rng(2)
    q = random_cloud(rng, 128)
    r = random_cloud(rng, 256)
    nbr = geometry.knn(q, r, 8)
    oracle_idx, oracle_dist = knn_oracle(q, r, 8)
    np.testing.assert_array_equal(nbr.indices, oracle_idx)
    np.testing.assert_allclose(nbr.distances, oracle_dist, atol=1e-9)


def test_knn_rows_nondecreasing_and_distances_consistent():
    rng = np.random.default_rng(3)
    q = random_cloud(rng, 40)
    r = random_cloud(rng, 70)
    nbr = geometry.knn(q, r, 5)
    assert (np.diff(nbr.distances, axis=1) >= 0).all()
    recomputed = np.linalg.norm(q[:, None, :] - r[nbr.indices], axis=2)
    np.testing.assert_allclose(nbr.distances, recomputed, atol=1e-6)


def test_knn_distance_ties_take_lowest_index():
    q = np.array([[0.0, 0, 0]])
    r = np.array([[0.0, 0, 1.0], [0.0, 0, -1.0], [1.0, 0, 0]])
    nbr = geometry.knn(q, r, 2)
    np.testing.assert_array_equal(nbr.indices, [[0, 1]])


@pytest.mark.parametrize("path", ["brute", "grid"])
def test_integer_clouds_match_their_float64_copies(monkeypatch, path):
    if path == "grid":
        monkeypatch.setattr(geometry, "GRID_KNN_MIN_PAIRS", 1)
    rng = np.random.default_rng(13)
    q, r = rng.integers(-9, 10, (60, 3)), rng.integers(-9, 10, (90, 3))
    got = geometry.knn(q, r, 4)
    want = geometry.knn(q.astype(np.float64), r.astype(np.float64), 4)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.distances.dtype == want.distances.dtype
    np.testing.assert_array_equal(got.distances, want.distances)
    np.testing.assert_array_equal(
        geometry.farthest_point_sample(r, 20), geometry.farthest_point_sample(r * 1.0, 20)
    )


# --- seed feature interpolation -----------------------------------------------


def make_seeds(coords, features):
    return geometry.PointSet(
        ad.Tensor(np.asarray(coords, dtype=np.float64)),
        ad.Tensor(np.asarray(features, dtype=np.float64), requires_grad=True),
    )


def test_point_set_rejects_mismatched_row_counts():
    with pytest.raises(ContractError, match="row count"):
        geometry.PointSet(ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros((5, 2))))


def test_interpolation_equidistant_average():
    seeds = make_seeds([[1.0, 0, 0], [-1.0, 0, 0]], [[2.0], [6.0]])
    out = geometry.interpolate_seed_features(np.array([[0.0, 0, 0]]), seeds, k=2)
    np.testing.assert_allclose(out.data, [[4.0]])


def test_interpolation_coincident_seed_dominates():
    seeds = make_seeds([[0.0, 0, 0], [1.0, 0, 0]], [[5.0], [50.0]])
    out = geometry.interpolate_seed_features(np.array([[0.0, 0, 0]]), seeds, k=2)
    np.testing.assert_allclose(out.data, [[5.0]], rtol=1e-4)


def test_interpolation_inverse_distance_value():
    # seeds at distances 1, 2, 4 with scalar features 1, 2, 3:
    # (1/1*1 + 1/2*2 + 1/4*3) / (1 + 1/2 + 1/4) = 2.75 / 1.75
    seeds = make_seeds(
        [[1.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0]], [[1.0], [2.0], [3.0]]
    )
    out = geometry.interpolate_seed_features(np.array([[0.0, 0, 0]]), seeds, k=3)
    np.testing.assert_allclose(out.data, [[2.75 / 1.75]], rtol=1e-12)


def test_interpolation_is_convex_combination():
    rng = np.random.default_rng(4)
    seeds = make_seeds(random_cloud(rng, 12), rng.standard_normal((12, 6)))
    queries = random_cloud(rng, 20)
    out = geometry.interpolate_seed_features(queries, seeds, k=3)
    nbr = geometry.knn(queries, seeds.cloud.data, 3)
    gathered = seeds.features.data[nbr.indices]  # (20, 3, 6)
    assert (out.data >= gathered.min(axis=1) - 1e-12).all()
    assert (out.data <= gathered.max(axis=1) + 1e-12).all()


def test_interpolation_permutation_invariant_in_seed_order():
    rng = np.random.default_rng(5)
    coords = random_cloud(rng, 9)
    feats = rng.standard_normal((9, 4))
    queries = random_cloud(rng, 11)
    base = geometry.interpolate_seed_features(queries, make_seeds(coords, feats), k=3)
    perm = rng.permutation(9)
    permuted = geometry.interpolate_seed_features(
        queries, make_seeds(coords[perm], feats[perm]), k=3
    )
    np.testing.assert_allclose(base.data, permuted.data, atol=1e-12)


def test_interpolation_gradients_reach_features_only():
    rng = np.random.default_rng(6)
    coords = ad.Tensor(random_cloud(rng, 8), requires_grad=True)
    feats = ad.Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    seeds = geometry.PointSet(coords, feats)
    with ad.Tape() as tape:
        out = geometry.interpolate_seed_features(random_cloud(rng, 5), seeds, k=3)
        loss = ad.reduce_sum(out)
    tape.backward(loss)
    assert feats.grad is not None and np.abs(feats.grad).sum() > 0
    assert coords.grad is None or np.abs(coords.grad).sum() == 0


def test_interpolation_rejects_bad_k():
    rng = np.random.default_rng(7)
    seeds = make_seeds(random_cloud(rng, 3), rng.standard_normal((3, 2)))
    with pytest.raises(ContractError):
        geometry.interpolate_seed_features(random_cloud(rng, 4), seeds, k=4)


# --- fusion -------------------------------------------------------------------


def test_fuse_identical_sets_covers_locations():
    rng = np.random.default_rng(8)
    pts = random_cloud(rng, 10)
    fused = geometry.fuse_and_resample(ad.Tensor(pts), ad.Tensor(pts.copy()), 10)
    # every distinct location appears once in the selection
    got = {tuple(np.round(row, 9)) for row in fused.data}
    want = {tuple(np.round(row, 9)) for row in pts}
    assert got == want


def test_fuse_disjoint_clusters_picks_one_each():
    a = np.array([[0.0, 0, 0], [0.01, 0, 0], [0.02, 0, 0]])
    b = a + np.array([10.0, 0, 0])
    fused = geometry.fuse_and_resample(ad.Tensor(a), ad.Tensor(b), 2).data
    assert (fused[:, 0] < 5).sum() == 1
    assert (fused[:, 0] > 5).sum() == 1


def test_fuse_matches_oracle():
    rng = np.random.default_rng(9)
    seeds = random_cloud(rng, 32)
    partial = random_cloud(rng, 48)
    merged = np.concatenate([seeds, partial], axis=0)
    fused = geometry.fuse_and_resample(ad.Tensor(seeds), ad.Tensor(partial), 40)
    np.testing.assert_array_equal(fused.data, merged[fps_oracle(merged, 40, 0)])


def test_fuse_gradient_reaches_exactly_the_picked_rows():
    rng = np.random.default_rng(19)
    seeds = ad.Tensor(random_cloud(rng, 16), requires_grad=True)
    partial = ad.Tensor(random_cloud(rng, 24), requires_grad=True)
    probe = rng.standard_normal((20, 3))
    with ad.Tape() as tape:
        fused = geometry.fuse_and_resample(seeds, partial, 20)
        loss = ad.reduce_sum(ad.mul(fused, ad.constant(probe)))
    tape.backward(loss)
    merged = np.concatenate([seeds.data, partial.data], axis=0)
    want = np.zeros_like(merged)
    want[fps_oracle(merged, 20, 0)] = probe  # FPS picks distinct rows
    np.testing.assert_array_equal(seeds.grad, want[:16])
    np.testing.assert_array_equal(partial.grad, want[16:])


def test_fuse_rejects_oversize():
    pts = ad.Tensor(np.zeros((4, 3)))
    with pytest.raises(ContractError):
        geometry.fuse_and_resample(pts, pts, 9)


# --- canonical start / freeze --------------------------------------------------


def test_canonical_start_is_permutation_invariant():
    rng = np.random.default_rng(10)
    pts = random_cloud(rng, 25)
    base = pts[geometry.canonical_start_index(pts)]
    perm = rng.permutation(25)
    permuted = pts[perm]
    np.testing.assert_array_equal(
        permuted[geometry.canonical_start_index(permuted)], base
    )


def test_geometry_freeze_holds_only_its_own_thread():
    pts = random_cloud(np.random.default_rng(12), 12)
    freezer = geometry.GeometryFreeze()
    found = []
    with freezer:
        worker = threading.Thread(target=lambda: found.append(geometry.knn(pts, pts, 3)))
        worker.start()
        worker.join(timeout=60)
        with pytest.raises(ContractError, match="do not nest"):
            with geometry.GeometryFreeze():
                pass
    assert not worker.is_alive() and len(found) == 1
    assert freezer.tape == []


def test_geometry_freeze_replays_first_pass():
    rng = np.random.default_rng(11)
    pts = random_cloud(rng, 12)
    freezer = geometry.GeometryFreeze()
    with freezer:
        first = geometry.knn(pts, pts, 3).indices.copy()
    moved = pts + rng.standard_normal(pts.shape)
    with freezer:
        replayed = geometry.knn(moved, moved, 3).indices
    np.testing.assert_array_equal(first, replayed)
    assert not np.array_equal(geometry.knn(moved, moved, 3).indices, first)


# --- grid-pruned kNN ------------------------------------------------------------


def sphere(rng, n):
    pts = rng.standard_normal((n, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def grid_case(name, rng):
    """(queries, reference, k) for one awkward input of the grid search."""
    if name == "duplicates":
        r = random_cloud(rng, 40)
        r = np.concatenate([r, r[rng.permutation(40)], r[:10]])
        return np.concatenate([r[:30], random_cloud(rng, 30)]), r, 4
    if name == "lattice_ties":  # equal distances across cell boundaries
        r = rng.integers(-4, 5, (90, 3)).astype(float)
        q = rng.integers(-8, 9, (60, 3)) / 2.0
        return q, r, 6
    if name == "flat_one_axis":
        q, r = random_cloud(rng, 60), random_cloud(rng, 90)
        q[:, 2] = r[:, 2] = 0.25
        return q, r, 3
    if name == "flat_two_axes":
        q, r = random_cloud(rng, 60), random_cloud(rng, 90)
        q[:, 1:] = r[:, 1:] = -1.5
        return q, r, 3
    if name == "identical":
        return np.zeros((50, 3)), np.zeros((40, 3)), 5  # zero extent and scale
    if name == "far_queries":  # a half-sphere reference, whole-sphere queries
        r = sphere(rng, 200)
        r = r[r[:, 2] >= -0.1]
        q = sphere(rng, 60)
        q[:30, 2] -= 3.0
        return q, r, 2
    if name == "k_equals_m":
        return random_cloud(rng, 60), random_cloud(rng, 25), 25
    if name == "one_query":
        return random_cloud(rng, 1), random_cloud(rng, 90), 7
    if name == "huge_coordinates":  # float32 squared distances overflow to inf
        r = np.zeros((50, 3))
        r[:, 0] = 5e19 - 2e17 * np.arange(50)
        return random_cloud(rng, 3), r, 1
    raise KeyError(name)


GRID_CASES = [
    "duplicates", "lattice_ties", "flat_one_axis", "flat_two_axes",
    "identical", "far_queries", "k_equals_m", "one_query", "huge_coordinates",
]


def assert_same_table(got, want):
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.distances.dtype == want.distances.dtype
    np.testing.assert_array_equal(got.distances, want.distances)


@pytest.mark.parametrize("fine", [False, True], ids=["default_grid", "fine_grid"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", GRID_CASES)
def test_grid_knn_bitwise_equals_brute_force_and_oracle(monkeypatch, name, dtype, fine):
    if fine:  # many small blocks and cells, so small inputs are pruned
        monkeypatch.setattr(geometry, "_GRID_CELL_POINTS", 1)
        monkeypatch.setattr(geometry, "_GRID_BLOCK_POINTS", 4)
    q, r, k = grid_case(name, np.random.default_rng(GRID_CASES.index(name)))
    q, r = q.astype(dtype), r.astype(dtype)
    with np.errstate(over="ignore"):
        got = geometry._knn_grid(q, r, k)
        assert_same_table(got, geometry._knn_compute(q, r, k))
        oracle_idx, oracle_dist = knn_oracle(q, r, k)
    np.testing.assert_array_equal(got.indices, oracle_idx)
    np.testing.assert_allclose(got.distances, oracle_dist, rtol=1e-6, atol=1e-12)


def test_grid_knn_compares_a_fraction_of_the_pairs(monkeypatch):
    rng = np.random.default_rng(20)
    q, r = sphere(rng, 4096), sphere(rng, 4096)
    compared = []
    brute = geometry._knn_compute

    def counting(a, b, k):
        compared.append(a.shape[0] * b.shape[0])
        return brute(a, b, k)

    monkeypatch.setattr(geometry, "_knn_compute", counting)
    got = geometry._knn_grid(q, r, 1)
    assert sum(compared) < q.shape[0] * r.shape[0] // 4
    monkeypatch.undo()
    assert_same_table(got, geometry._knn_compute(q, r, 1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", GRID_CASES)
def test_knn_tables_do_not_depend_on_the_chunk_size(monkeypatch, name, dtype):
    q, r, k = grid_case(name, np.random.default_rng(GRID_CASES.index(name)))
    q, r = q.astype(dtype), r.astype(dtype)
    with np.errstate(over="ignore"):
        want = geometry._knn_compute(q, r, k)
        for chunk in (1, 2**40):  # one query row per chunk; one chunk
            monkeypatch.setattr(geometry, "_KNN_CHUNK_PAIRS", chunk)
            assert_same_table(geometry._knn_compute(q, r, k), want)
            assert_same_table(geometry._knn_grid(q, r, k), want)


def subset_bound_case(name, rng):
    """(queries, reference) with a 16,384-point reference, so the block
    bounds come from every 4th reference point in cell order."""
    if name == "blob":  # an untrained prediction: every query near the centre
        return 0.02 * random_cloud(rng, 1_024), sphere(rng, 16_384)
    if name == "copies":  # the stride lands on duplicates of one point
        base = sphere(rng, 4_096)
        return sphere(rng, 1_024), np.concatenate([base, base, base, base])
    raise KeyError(name)


@pytest.mark.parametrize("fine", [False, True], ids=["default_grid", "fine_grid"])
@pytest.mark.parametrize("k", [1, 16])
@pytest.mark.parametrize("name", ["blob", "copies"])
def test_grid_knn_with_a_subset_bound_is_exact(monkeypatch, name, k, fine):
    assert 16_384 // geometry._GRID_BOUND_POINTS == 4
    if fine:  # small blocks, so each one's bound decides what it compares
        monkeypatch.setattr(geometry, "_GRID_CELL_POINTS", 1)
        monkeypatch.setattr(geometry, "_GRID_BLOCK_POINTS", 4)
    q, r = subset_bound_case(name, np.random.default_rng(23))
    q, r = q.astype(np.float32), r.astype(np.float32)
    got = geometry._knn_grid(q, r, k)
    assert_same_table(got, geometry._knn_compute(q, r, k))
    rows = np.arange(0, q.shape[0], 128)  # the python oracle is slow
    oracle_idx, oracle_dist = knn_oracle(q[rows], r, k)
    np.testing.assert_array_equal(got.indices[rows], oracle_idx)
    np.testing.assert_allclose(got.distances[rows], oracle_dist, rtol=1e-6)


def test_grid_knn_with_k_above_the_bound_subset_is_exact():
    # k > 4096: the stride shrinks so the subset still holds k points
    rng = np.random.default_rng(27)
    q, r = sphere(rng, 256).astype(np.float32), sphere(rng, 16_384).astype(np.float32)
    k = geometry._GRID_BOUND_POINTS + 4
    assert q.shape[0] * r.shape[0] >= geometry.GRID_KNN_MIN_PAIRS
    got = geometry.knn(q, r, k)
    assert_same_table(got, geometry._knn_compute(q, r, k))
    rows = [0, 255]  # the python oracle is slow
    oracle_idx, oracle_dist = knn_oracle(q[rows], r, k)
    np.testing.assert_array_equal(got.indices[rows], oracle_idx)
    np.testing.assert_allclose(got.distances[rows], oracle_dist, rtol=1e-6)


@pytest.mark.parametrize("sizes", [(8_192, 16_384), (16_384, 8_192)])
def test_knn_working_memory_stays_small(sizes):
    rng = np.random.default_rng(26)
    q, r = (sphere(rng, n).astype(np.float32) for n in sizes)
    tracemalloc.start()
    try:
        nbr = geometry.knn(q, r, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # float64 copies of both clouds and a few cache-sized distance blocks
    assert peak - nbr.indices.nbytes - nbr.distances.nbytes < 6e6


def spy_on_grid(monkeypatch):
    calls = []
    grid = geometry._knn_grid

    def spy(q, r, k):
        calls.append(q.shape[0] * r.shape[0])
        return grid(q, r, k)

    monkeypatch.setattr(geometry, "_knn_grid", spy)
    return calls


def test_knn_takes_grid_path_from_threshold(monkeypatch):
    assert geometry.GRID_KNN_MIN_PAIRS == 2_048 * 2_048
    rng = np.random.default_rng(21)
    q = sphere(rng, 2_048).astype(np.float32)
    r = sphere(rng, 2_048).astype(np.float32)
    calls = spy_on_grid(monkeypatch)
    assert_same_table(geometry.knn(q, r, 1), geometry._knn_compute(q, r, 1))
    assert calls == [2_048 * 2_048]
    geometry.knn(q[1:], r, 1)  # one pair row below the threshold: brute force
    assert calls == [2_048 * 2_048]


def test_geometry_freeze_replays_grid_knn(monkeypatch):
    rng = np.random.default_rng(22)
    q, r = sphere(rng, 16_384), sphere(rng, 1_024)
    calls = spy_on_grid(monkeypatch)
    freezer = geometry.GeometryFreeze()
    with freezer:
        first = geometry.knn(q, r, 2)
    with freezer:
        replayed = geometry.knn(q[::-1] + 1.0, r, 2)
    assert replayed is first and len(calls) == 1
    assert_same_table(first, geometry._knn_compute(q, r, 2))


# --- fixed summation order --------------------------------------------------------


def plain_sq_dist(a, b):
    d = a - b
    return (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", GRID_CASES)
def test_knn_distances_follow_the_fixed_summation_order(name, dtype):
    q, r, k = grid_case(name, np.random.default_rng(GRID_CASES.index(name)))
    q, r = q.astype(dtype), r.astype(dtype)
    with np.errstate(over="ignore"):
        d2 = plain_sq_dist(q[:, None, :], r)
        want = np.argsort(d2, axis=1, kind="stable")[:, :k]
        for got in (geometry._knn_compute(q, r, k), geometry._knn_grid(q, r, k)):
            np.testing.assert_array_equal(got.indices, want)
            assert got.distances.dtype == dtype
            np.testing.assert_array_equal(
                got.distances, np.sqrt(np.take_along_axis(d2, want, axis=1))
            )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fps_follows_the_fixed_summation_order(dtype):
    # from a start at the origin every distance to the unit sphere is 1 up to
    # rounding, so the picks depend on the exact order of the sum
    pts = np.concatenate([np.zeros((8, 3)), sphere(np.random.default_rng(24), 1_024)])
    pts = pts.astype(dtype)
    chosen = [0]
    min_d2 = np.full(pts.shape[0], np.inf, dtype=dtype)
    while len(chosen) < 64:
        np.minimum(min_d2, plain_sq_dist(pts, pts[chosen[-1]]), out=min_d2)
        min_d2[chosen] = -np.inf
        chosen.append(int(np.argmax(min_d2)))
    np.testing.assert_array_equal(geometry._fps_compute(pts, 64, 0), chosen)
