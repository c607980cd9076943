"""One thread budget per process, spent on sample tiles.

The budget is BLAS's own thread count (numpy's bundled OpenBLAS), read when
a tile region starts, so ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` or
the library default set it and ``OPENBLAS_NUM_THREADS=1`` gives a
single-threaded process.  Without a BLAS whose thread count can be read and
set, the budget is 1.

:func:`spread` runs one layer pass as a region.  The batch is cut into
tiles of whole samples exactly as without threads; the tiles are grouped
into one contiguous run per thread of the budget; the calling thread takes
the first run and a lazily created pool the others.  BLAS is pinned to one
thread around every pass, a single run included (a budget of 1, or a single
tile, which runs inline on the calling thread), and its count is restored
afterwards.  A single run needs the pin too: a GEMM run at BLAS's own count
leaves OpenBLAS's worker busy-waiting for new work (its ``THREAD_TIMEOUT``)
on a core the next region's tile threads need, so a single-tile pass at a
budget above 1 gets one thread.  Every tile is computed by the same code
wherever it runs, and cross-sample reductions stay with the caller, after
the region, so results are bit-identical at every budget.

Only one region runs at a time: one opened while another is running (from
another thread, or from inside a tile) runs inline.  A forked child drops
the parent's pool and lock, whose threads it does not have; a forked worker
sets its budget with :func:`set_worker_threads`.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from typing import Callable, List, Optional, Tuple

import numpy as np

#: Environment variables that set a BLAS or OpenMP thread count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"

_pool = None
_pool_workers = 0
_region = threading.Lock()
_local = threading.local()


def _openblas_paths() -> List[str]:
    """Loaded shared libraries whose file name mentions OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            lines = maps.readlines()
    except OSError:
        return []  # not Linux: no way to find the library, so no budget
    paths = set()
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5].strip()):
            paths.add(fields[5].strip())
    return sorted(paths)


@functools.lru_cache(maxsize=None)
def _binding() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """numpy's OpenBLAS thread-count ``(get, set)`` pair, or ``None``.

    Looked up on first use: importing this module opens no file.
    """
    for path in _openblas_paths():
        library = ctypes.CDLL(path)
        get, set_ = getattr(library, _GET, None), getattr(library, _SET, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def blas_threads() -> int:
    """BLAS's current thread count: the budget a region starting now gets."""
    binding = _binding()
    return max(1, int(binding[0]())) if binding else 1


def set_blas_threads(count: int) -> int:
    """Set BLAS's thread count (a no-op without a binding); return the old one."""
    previous = blas_threads()
    binding = _binding()
    if binding:
        binding[1](max(1, int(count)))
    return previous


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux: count every CPU
        return os.cpu_count() or 1


def worker_share(workers: int) -> Optional[int]:
    """BLAS threads for each of ``workers`` processes sharing this host.

    ``None`` when the user already set one of :data:`THREAD_VARS`: their
    setting wins.
    """
    if any(os.environ.get(name) for name in THREAD_VARS):
        return None
    return max(1, _cpus() // max(1, workers))


def set_worker_threads(workers: int) -> None:
    """Give one of ``workers`` worker processes the BLAS threads it starts with.

    A forked worker inherits BLAS as its parent loaded it, before the caller
    may have set a thread variable.  So the count is read here, from the
    current environment, as a freshly started OpenBLAS reads it:
    ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, capped at the CPUs.
    Without either, the worker gets its :func:`worker_share`.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            set_blas_threads(min(int(value), _cpus()))
            return
    share = worker_share(workers)
    if share is not None:
        set_blas_threads(share)


def scratch(size: int) -> np.ndarray:
    """``size`` float64s of this thread's scratch, kept across calls.

    One buffer per thread, grown to the largest request, serves every
    layer's tiles.  A layer's tile work uses it for one tile at a time and
    calls no other layer, so no two users on one thread overlap.
    """
    buffer = getattr(_local, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _local.buffer = np.empty(size)
    return buffer[:size]


def sample_tile(x: np.ndarray, tile_bytes: int) -> int:
    """Whole samples of ``x`` per tile of at most ``tile_bytes`` (at least 1)."""
    return max(1, tile_bytes // max(x[:1].nbytes, 1))


def _executor(workers: int):
    global _pool, _pool_workers
    if _pool is None or _pool_workers < workers:
        from concurrent.futures import ThreadPoolExecutor

        if _pool is not None:
            _pool.shutdown()
        _pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-tiles")
        _pool_workers = workers
    return _pool


def spread(n: int, tile: int, work: Callable[[int, int], None]) -> None:
    """Run ``work(first, last)`` over ``range(n)`` as contiguous runs of tiles.

    Tiles are ``tile`` samples long and start at multiples of ``tile``; each
    run covers whole tiles, so ``work`` walks the same tile boundaries
    whatever the budget.  Runs share nothing but the arrays the caller hands
    them, and write disjoint sample ranges of them.  Every run, a single one
    included, sees BLAS pinned to one thread, and BLAS's count is restored
    when the region ends, on an exception too.  Every run finishes before
    this returns, and the first exception raised in any of them reaches the
    caller.
    """
    tiles = -(-n // tile)
    if not _region.acquire(blocking=False):
        work(0, n)
        return
    try:
        budget = set_blas_threads(1)
        try:
            runs = min(budget, tiles)
            if runs <= 1:
                work(0, n)
                return
            bounds = [min(n, tile * (tiles * run // runs)) for run in range(runs + 1)]
            pool = _executor(runs - 1)
            futures = [pool.submit(work, bounds[run], bounds[run + 1])
                       for run in range(1, runs)]
            try:
                work(bounds[0], bounds[1])
            finally:
                # Wait for every run, failed or not: they write the caller's arrays.
                errors = [future.exception() for future in futures]
            for error in errors:
                if error is not None:
                    raise error
        finally:
            set_blas_threads(budget)
    finally:
        _region.release()


def _forget_parent_threads() -> None:
    global _pool, _pool_workers, _region
    _pool, _pool_workers = None, 0
    _region = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent_threads)
