"""The tile runner: a loop over point tiles that may run on several threads.

``_each_tile(n, k, run, merge)`` splits n points of k (point, neighbour)
rows each into tiles of about ``_TILE_ROWS`` rows (``_tiles``) and calls
``run`` on each. Up to ``_tile_workers()`` tiles run at once: the calling
thread and the threads of one process-wide pool, remade in a forked child.
The rule it keeps: results are merged on the calling thread in tile order,
whatever order the tiles finish in, so a sum that ``merge`` forms, and so
every output and gradient built on it, has the same bits at any worker
count. The module does no maths; :mod:`pointfill.attention` is its caller.
"""

import contextvars
import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

# (Point, neighbor) rows per upsample_attention tile. A tile builds its pair
# rows from the per-point arrays: relative coordinates, position and seed
# hidden rows, x, value rows, hidden rows and each head's logits, and in
# the adjoint their gradients and a flat scatter index. A (512, 128)
# float32 block is 0.25 MB, so a block is still in a per-core L2 when the
# next step reads it; full (n*k, C) blocks at 16k points are 16.8 MB. Up to
# _tile_workers() tiles run at once, and two 512-row tiles hold what one
# 1024-row tile did: with two 1024-row tiles at once a desk step's backward
# peaked 5.8-6.6 MB above the tape it started from, over the 5 MB that
# test_train_step_backward_frees_memory_as_it_goes allows.
_TILE_ROWS = 512

# the variables that set numpy's BLAS threads, whichever BLAS it was built on
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Each tile in flight holds its own blocks: a desk step's backward peaked
# 1.8 MB above its start at one tile at once, 3.3-3.5 MB at two, 3.8-4.3 MB
# at three, 4.6-5.4 MB at four and 8.0-9.9 MB at eight, against the 5 MB
# bound. While the caller runs a copy of a stalled pool tile (_TileQueue),
# one more tile is in flight.
_MAX_TILES_IN_FLIGHT = 2


def _tiles(n, k):
    """``(start, stop)`` point ranges covering n points of k rows each.

    A tile holds about _TILE_ROWS rows and starts on a 16-row boundary. On
    OpenBLAS, a GEMM over such a row range gives the same bits as those rows
    of the GEMM over all rows; from a 4-row boundary, width-1 products (which
    numpy runs as a gemv) did not. A last tile under half a tile joins the
    one before, so no tile is a one-row GEMM, also a gemv.
    """
    step = 16 // math.gcd(k, 16)
    size = max(1, _TILE_ROWS // (k * step)) * step
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] < size // 2:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def _tile_workers():
    """How many tiles upsample_attention runs at once: the usable CPUs over
    the BLAS threads that _BLAS_THREAD_VARIABLES set (the largest value set),
    at most _MAX_TILES_IN_FLIGHT, or 1 when none is set, as BLAS may then use
    every CPU itself."""
    values = [os.environ.get(name, "").strip() for name in _BLAS_THREAD_VARIABLES]
    try:
        threads = max(int(v) for v in values if v)
    except ValueError:  # none set, or a value that is not a number
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(_MAX_TILES_IN_FLIGHT, max(1, cpus // threads)) if threads > 0 else 1


_POOL_LOCK = threading.Lock()
_pool = None  # (threads, executor) that run tiles beside their caller


def _tile_pool(threads):
    """The process's executor of ``threads`` threads, made on first use and
    remade when the count changes."""
    global _pool
    with _POOL_LOCK:
        if _pool is None or _pool[0] != threads:
            # an earlier pool's threads end once no caller holds it
            _pool = (threads, ThreadPoolExecutor(threads, thread_name_prefix="pointfill-tile"))
        return _pool[1]


def _forget_pool():
    # a forked child has none of its parent's threads: it makes its own pool
    global _pool, _POOL_LOCK
    _pool, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


class _TileQueue:
    """The tiles of one ``_each_tile`` call. The calling thread and the pool
    threads that help it claim them first come, first served; only the
    caller merges, in tile order. At most ``window`` tiles are claimed and
    not yet merged.

    When the caller can claim no tile and the front one, running on a pool
    thread, has not ended after as long as the caller's last tile took, the
    caller runs that tile too and the first copy to end is kept: a pool
    thread that stops, its CPU taken by the host or a busier process, holds
    the call up for about one tile, not for as long as it is stopped. A run
    gives the same result on any thread, so either copy will do. The wait
    is at least a switch interval, the longest a thread that has finished
    its tile may wait for the GIL to hand the result over.
    """

    def __init__(self, tiles, run, window):
        self.tiles, self.run, self.window = tiles, run, window
        self.claimed = self.merged = 0
        self.results = {}  # tile number -> (raised, value) until merged
        self.stopped = False  # a tile raised, or the caller left
        self.lock = threading.Condition()
        self.patience = sys.getswitchinterval()  # how long the caller waits for a tile

    def _claim(self):
        # under the lock: the next tile's number, or None if none may start
        if self.stopped or self.claimed == len(self.tiles) or \
                self.claimed >= self.merged + self.window:
            return None
        self.claimed += 1
        return self.claimed - 1

    def _run(self, i):
        try:
            result = (False, self.run(*self.tiles[i]))
        except BaseException as exc:  # raised by the caller, in tile order
            result = (True, exc)
        with self.lock:
            if i >= self.merged and i not in self.results:  # the first copy to end
                self.results[i] = result
                self.stopped = self.stopped or result[0]
                self.lock.notify_all()

    def help(self):
        """A pool thread's part: run tiles until none is left to claim."""
        while True:
            with self.lock:
                while (i := self._claim()) is None:
                    if self.stopped or self.claimed == len(self.tiles):
                        return
                    self.lock.wait()  # the window is full until the caller merges
            self._run(i)

    def drain(self, merge):
        """The caller's part: merge the front tile once it is done, else run
        the next tile, else wait for the front tile to be done and, if it
        is not done in time, run it too."""
        while (front := self.merged) < len(self.tiles):
            with self.lock:
                if front in self.results:
                    i = None
                elif (i := self._claim()) is None:
                    if self.stopped:  # a tile raised: no copies, wait for the front
                        self.lock.wait()
                        continue
                    if self.lock.wait_for(lambda: front in self.results, self.patience):
                        continue
                    i = front
            if i is None:
                self._merge_front(merge)
            else:
                start = time.perf_counter()
                self._run(i)
                self.patience = max(time.perf_counter() - start, sys.getswitchinterval())

    def _merge_front(self, merge):
        # a method of its own, so the merged result dies when it returns; it
        # stays in results until merged, so a late copy finds it there
        with self.lock:
            raised, value = self.results[self.merged]
        if raised:
            raise value
        merge(value)
        with self.lock:
            del self.results[self.merged]
            self.merged += 1
            self.lock.notify_all()

    def stop(self):
        with self.lock:
            self.stopped = True
            self.lock.notify_all()


def _each_tile(n, k, run, merge=None):
    """Call ``run(a, b)`` on each tile of ``_tiles(n, k)`` and pass each
    result to ``merge``, first tile first.

    Up to _tile_workers() tiles run at once: the calling thread and
    _tile_workers() - 1 pool threads each claim the next tile whenever they
    are free, so a pool thread that starts late or runs slowly leaves its
    share to the caller, and the caller waits only for a tile that is
    running, and for a stalled one about as long as a tile takes before it
    runs a copy (``_TileQueue``). So ``run`` must write nothing that it
    does not return, and give the same result on any thread; ``merge``
    runs on the calling thread. Results are merged in tile order whatever
    order the tiles finish in, so the sums ``merge`` forms have the same
    bits at any worker count. A pool thread runs in a copy of the caller's
    context, so the caller's ``np.errstate`` holds there. If a tile raises,
    the call raises once every tile in flight has finished. At one worker
    this is a plain loop.
    """
    merge = merge or (lambda part: None)
    tiles = list(_tiles(n, k))
    workers = _tile_workers()
    if workers < 2 or len(tiles) < 2:
        for a, b in tiles:
            merge(run(a, b))
        return
    # one tile of slack: a thread that finishes before the front tile has
    # can start another
    queue = _TileQueue(tiles, run, workers + 1)
    pool = _tile_pool(workers - 1)
    helpers = [pool.submit(contextvars.copy_context().run, queue.help)
               for _ in range(workers - 1)]
    try:
        queue.drain(merge)
    except BaseException:
        _stop(queue, helpers)
        wait(helpers)  # a call that raises returns once none of its tiles runs
        raise
    # every tile is merged, so a pool thread that still runs one runs a
    # copy, which writes only what it returns and whose result is dropped
    _stop(queue, helpers)


def _stop(queue, helpers):
    queue.stop()
    for helper in helpers:
        helper.cancel()  # one that has not started yet never will

