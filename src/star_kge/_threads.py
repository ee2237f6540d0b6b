"""Split numpy work over BLAS's thread count, with BLAS held to one thread.

OpenBLAS's workers spin for a while after every multi-threaded call, so an
elementwise pass run right after one shares its core with them. Inside a
:func:`lanes` scope BLAS runs on the calling thread only, and the scope's
work gets ``w`` lanes, ``w`` being the thread count BLAS had when the
outermost open scope opened: lane 0 is the calling thread, which runs its
jobs at once, and each other lane is a persistent helper thread, made on
first use, that runs the jobs queued on it in FIFO order. So a job queued on
a lane sees the effects of the jobs queued there before it, and the scope
waits for them all once, when it closes. :func:`split` is one such scope
with one contiguous part of a pass's rows, columns or chunks per lane. With
no OpenBLAS thread control found, or a count of 1, there is one lane and no
thread is started. Inside a helper's job every scope has one lane, so no
lane waits on itself.

Jobs run only numpy calls. Each runs in a copy of the caller's context, so
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
    """A helper thread running the jobs of its queue in FIFO order; the
    thread ends once the lane is dropped."""

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


class Lanes:
    """The jobs of one :func:`lanes` scope over ``count`` lanes."""

    def __init__(self, helpers: list[_Lane]):
        self.count = len(helpers) + 1
        self._helpers = helpers
        self._handed = 0  # helpers 0.._handed-1 were handed a job, the scope's close waits on them
        self._errors: dict[int, BaseException] = {}  # each lane's first error

    def each(self, fn: Callable[[int], object], n: int) -> None:
        """``fn(i)`` for i in ``range(n)`` on lane ``i % count``.

        The helpers' jobs are queued first, each behind the jobs already on
        its lane; then lane 0's run here, in order, and an error of theirs
        is raised at once. A helper's error waits for the scope to close.
        """
        self._handed = max(self._handed, min(n, self.count) - 1)
        for i in range(n):
            if lane := i % self.count:
                self._helpers[lane - 1].queue.put(partial(self._run, lane, contextvars.copy_context(), fn, i))
        for i in range(0, n, self.count):
            fn(i)

    def _run(self, lane: int, context: contextvars.Context, fn: Callable[[int], object], i: int) -> None:
        try:
            context.run(fn, i)
        except BaseException as error:  # kept for the scope's close, which re-raises it
            self._errors.setdefault(lane, error)


@contextmanager
def lanes() -> Iterator[Lanes]:
    """Hold BLAS to one thread and open one lane per worker; yields the
    scope's :class:`Lanes`.

    The outermost open scope, in any thread, reads BLAS's count and the last
    one to close restores it, so nested scopes and scopes open in two
    threads at once share one count and never leave BLAS at one thread.
    Leaving the scope waits for every queued job, with one marker on each
    helper that was handed a job in it, then raises the first error of the
    lowest lane that had one. When the body raises, every
    queued job still finishes first and the body's error is the one raised.
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
            helpers = []
            if _count > 1 and not getattr(_local, "helper", False):
                if _pool is None:
                    _pool = []
                _pool.extend(_Lane(number) for number in range(len(_pool) + 1, _count))
                helpers = _pool[: _count - 1]
        scope = Lanes(helpers)
        try:
            yield scope
        finally:
            done = []
            for helper in helpers[: scope._handed]:
                mark = threading.Lock()
                mark.acquire()
                helper.queue.put(mark.release)  # runs once every job queued before it has
                done.append(mark)
            for mark in done:
                mark.acquire()
        if scope._errors:
            raise scope._errors[min(scope._errors)]
    finally:
        with _lock:
            _depth -= 1
            _local.depth -= 1
            if _depth == 0 and _count > 1:
                _blas[1](_count)


def split(fn: Callable[[slice], object], n: int) -> list:
    """``fn(part)`` for contiguous slices of ``range(n)``, one per lane of a
    :func:`lanes` scope that this call opens.

    The first slice runs on the calling thread and the others on the
    helpers. Every part finishes before this returns or raises; the first
    part's error, in slice order, is raised. Returns the parts' results in
    order.
    """
    with lanes() as scope:
        parts = max(1, min(scope.count, n))
        bounds = [n * i // parts for i in range(parts + 1)]
        results: list = [None] * parts

        def part(i: int) -> None:
            results[i] = fn(slice(bounds[i], bounds[i + 1]))

        scope.each(part, parts)
    return results
