"""Split numpy work over BLAS's thread count, with BLAS held to one thread.

OpenBLAS's workers spin for a while after every multi-threaded call, so an
elementwise pass run right after one shares its core with them. Inside a
:func:`lanes` scope BLAS runs on the calling thread only, and the scope has
``w`` lanes, ``w`` being the thread count BLAS had when the outermost open
scope opened: lane 0 is the calling thread, and each other lane is a
persistent helper thread, made on first use. :func:`split` is the one
place that hands a helper work: it cuts a pass's rows, columns or chunks
into one contiguous part per lane, runs part 0 itself and waits for the
others before it returns, so no job outlives the call that queued it. With
no OpenBLAS thread control found, or a count of 1, there is one lane and no
thread is started. Inside a helper's part every scope has one lane, so no
lane waits on itself.

Parts run only numpy calls. Each runs in a copy of the caller's context, so
the caller's ``np.errstate`` holds in it.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
import weakref
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from queue import SimpleQueue

_SPELLINGS = ("openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_")

_lock = threading.Lock()
_blas: tuple | None = None  # (get, set), or () when no OpenBLAS control was found
_depth = 0  # scopes open across all threads; ``_local.depth`` counts one thread's own
_count = 1  # BLAS's thread count when the outermost scope opened
_pool: list[_Lane] | None = None  # the helper lanes 1, 2, ..., made on first use
_local = threading.local()  # ``helper`` is set on a lane's thread


class _Lane:
    """A helper thread running the jobs of its queue in order; the thread
    ends once the lane is dropped."""

    def __init__(self, number: int):
        self.queue: SimpleQueue = SimpleQueue()
        threading.Thread(target=_serve, args=(self.queue,), name=f"star_kge-lane-{number}", daemon=True).start()
        weakref.finalize(self, self.queue.put, None)


def _serve(queue: SimpleQueue) -> None:
    _local.helper = True
    while (job := queue.get()) is not None:
        job()


def _forget_lanes() -> None:
    """In a forked child: the parent's helper threads were not copied, and
    its lock may have been held by one of its other threads. Only the
    forking thread's own scopes are open in the child; when it has none,
    the parent's hold on BLAS is released."""
    global _lock, _pool, _depth
    _lock = threading.Lock()
    _pool = None
    held, _depth = _depth, getattr(_local, "depth", 0)
    if held and not _depth and _count > 1:
        _blas[1](_count)


os.register_at_fork(after_in_child=_forget_lanes)


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
def lanes() -> Iterator[int]:
    """Hold BLAS to one thread and make the helper lanes; yields the scope's
    lane count.

    The outermost open scope, in any thread, reads BLAS's count and the last
    one to close restores it, so nested scopes and scopes open in two
    threads at once share one count and never leave BLAS at one thread. A
    scope queues no work and waits for none: only :func:`split` does.
    """
    global _blas, _depth, _count, _pool
    try:
        with _lock:
            _depth += 1
            _local.depth = getattr(_local, "depth", 0) + 1
            if _depth == 1:
                if _blas is None:
                    _blas = _find_blas()
                _count = max(1, _blas[0]()) if _blas else 1
                if _count > 1:
                    _blas[1](1)
            count = 1 if getattr(_local, "helper", False) else _count
            if count > 1:
                if _pool is None:
                    _pool = []
                _pool.extend(_Lane(number) for number in range(len(_pool) + 1, count))
        yield count
    finally:
        with _lock:
            _depth -= 1
            _local.depth -= 1
            if _depth == 0 and _count > 1:
                _blas[1](_count)


def split(fn: Callable[[slice], object], n: int) -> list:
    """``fn(part)`` for contiguous slices of ``range(n)``, one per lane of a
    :func:`lanes` scope that this call opens.

    The first slice runs on the calling thread and each other one on its own
    helper, queued with a marker behind it, so that once this returns no
    helper holds a part, nor what the part holds. Every part finishes before
    this returns or raises; the first part's error, in slice order, is
    raised. Returns the parts' results in order.
    """
    with lanes() as count:
        parts = max(1, min(count, n))
        bounds = [n * i // parts for i in range(parts + 1)]
        results: list = [None] * parts
        errors: list = [None] * parts

        def part(i: int) -> None:
            try:
                results[i] = fn(slice(bounds[i], bounds[i + 1]))
            except BaseException as error:  # raised below, once every part is done
                errors[i] = error

        done = []
        for i, helper in enumerate(_pool[: parts - 1] if parts > 1 else [], start=1):
            mark = threading.Lock()
            mark.acquire()
            helper.queue.put(partial(contextvars.copy_context().run, part, i))
            helper.queue.put(mark.release)
            done.append(mark)
        part(0)
        for mark in done:
            mark.acquire()
    for error in errors:
        if error is not None:
            raise error
    return results
