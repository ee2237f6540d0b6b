"""Split numpy work over BLAS's thread count, with BLAS held to one thread.

OpenBLAS's workers spin for a while after every multi-threaded call, so an
elementwise pass run right after one shares its core with them. Inside
:func:`held` BLAS runs on the calling thread only, and :func:`split` gives
each of ``w`` workers, ``w`` being the thread count BLAS had on entry, one
contiguous part of the rows, columns or chunks of a pass: one part on the
calling thread and the rest on a pool made on first use, which starts a
thread only when none is idle, up to min(32, cores + 4). With no OpenBLAS
thread control found, or a count of 1, there is one worker and no thread is
started.

Parts run only numpy calls. Each runs in a copy of the caller's context, so
the caller's ``np.errstate`` holds in it.
"""

from __future__ import annotations

import contextvars
import ctypes
import threading
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from pathlib import Path

_SPELLINGS = ("openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_")

_lock = threading.Lock()
_blas: tuple | None = None  # (get, set), or () when no OpenBLAS control was found
_depth = 0  # scopes open across all threads
_count = 1  # BLAS's thread count when the outermost scope opened
_pool: ThreadPoolExecutor | None = None


def _find_blas() -> tuple:
    """The loaded OpenBLAS's ``(get, set)`` thread-count functions, or ()
    when none is mapped or none that is mapped opens."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ()
    # a line is "address perms offset dev inode [path]", and a path may hold spaces
    fields = (line.split(maxsplit=5) for line in maps.splitlines())
    paths = {f[5].removesuffix(" (deleted)") for f in fields if len(f) == 6}
    libs = {path for path in paths if "openblas" in path.lower() and ".so" in path}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:  # gone or unreadable since it was mapped
            continue
        for spelling in _SPELLINGS:
            get = getattr(handle, spelling.format("get"), None)
            put = getattr(handle, spelling.format("set"), None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                return get, put
    return ()


@contextmanager
def held() -> Iterator[int]:
    """Hold BLAS to one thread; yields the worker count.

    The outermost open scope, in any thread, reads BLAS's count and the last
    one to close restores it, so nested scopes and scopes open in two
    threads at once share one count and never leave BLAS at one thread.
    """
    global _blas, _depth, _count
    with _lock:
        if _blas is None:
            _blas = _find_blas()
        if _depth == 0:
            _count = max(1, _blas[0]()) if _blas else 1
            if _count > 1:
                _blas[1](1)
        _depth += 1
        workers = _count
    try:
        yield workers
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _count > 1:
                _blas[1](_count)


def split(fn: Callable[[slice], object], n: int) -> list:
    """``fn(part)`` for contiguous slices of ``range(n)``, one per worker of
    a :func:`held` scope that this call opens.

    The first slice runs on the calling thread and the others on the pool.
    Every part finishes before this returns or raises; the first part's
    error, in slice order, is raised. Returns the parts' results in order.
    """
    global _pool
    with held() as workers:
        parts = max(1, min(workers, n))
        bounds = [n * i // parts for i in range(parts + 1)]
        slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        if parts == 1:
            return [fn(slices[0])]
        with _lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(thread_name_prefix="star_kge")
        futures = [_pool.submit(contextvars.copy_context().run, fn, part) for part in slices[1:]]
        try:
            first = fn(slices[0])
        finally:
            wait(futures)
        return [first] + [f.result() for f in futures]
