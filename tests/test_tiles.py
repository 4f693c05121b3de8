"""The tile runner: how points split into tiles, and how many tiles run at once."""

import os
import threading

import pytest

from pointfill import tiles as tl


@pytest.mark.parametrize("tile_rows", [2048, 48])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 16, 17, 40])
def test_attention_tiles_cover_the_points_on_16_row_boundaries(k, tile_rows, monkeypatch):
    monkeypatch.setattr(tl, "_TILE_ROWS", tile_rows)
    (_, size), *_ = tl._tiles(10**6, k)
    assert size * k <= max(tile_rows, 16 * k)
    for n in (1, 5, size - 1, size, size + 1, 3 * size + 1, 3 * size + size // 2):
        bounds = list(tl._tiles(n, k))
        assert [a for a, _ in bounds[1:]] == [b for _, b in bounds[:-1]]
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a * k % 16 == 0 for a, _ in bounds)
        assert len(bounds) == 1 or all((b - a) * k > 1 for a, b in bounds)  # no one-row GEMM


def test_tile_workers_are_the_cpus_blas_threads_leave(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for name in tl._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    assert tl._tile_workers() == 1  # BLAS unpinned may use every CPU itself
    for settings, workers in [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2),  # 4 CPUs, at most _MAX_TILES_IN_FLIGHT
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OMP_NUM_THREADS": "3"}, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 1),  # the largest
        ({"OPENBLAS_NUM_THREADS": "0"}, 1),
        ({"OPENBLAS_NUM_THREADS": "many"}, 1),
    ]:
        for name in tl._BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for name, value in settings.items():
            monkeypatch.setenv(name, value)
        assert tl._tile_workers() == workers, settings


def test_one_tile_worker_runs_every_tile_on_the_caller(monkeypatch):
    monkeypatch.setattr(tl, "_tile_workers", lambda: 1)
    before = set(threading.enumerate())
    seen = []
    tl._each_tile(330, 16, lambda a, b: threading.current_thread(), seen.append)
    assert len(seen) >= 6 and set(seen) == {threading.current_thread()}
    assert set(threading.enumerate()) <= before
