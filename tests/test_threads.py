import multiprocessing
import sys
import threading
import time
import weakref
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from star_kge import _threads
from conftest import queued_lanes


def test_split_gives_each_worker_one_contiguous_part_in_order(fake_blas):
    blas = fake_blas(3)
    seen = []

    def part(rows):
        seen.append(blas.count)
        return rows.start, rows.stop

    assert _threads.split(part, 10) == [(0, 3), (3, 6), (6, 10)]
    assert seen == [1, 1, 1]  # BLAS at one thread in every part
    assert blas.count == 3 and blas.sets == [1, 3]


def test_fewer_items_than_workers_gives_one_part_each(fake_blas):
    fake_blas(4)
    assert _threads.split(lambda rows: (rows.start, rows.stop), 2) == [(0, 1), (1, 2)]
    assert _threads.split(lambda rows: (rows.start, rows.stop), 0) == [(0, 0)]


def _proc_maps(text):
    """Makes ``_find_blas`` read ``text`` as the process's memory map, or
    fail to read it for None, when the next scope opens."""

    def install(fake_blas, monkeypatch):
        def read_text():
            if text is None:
                raise PermissionError("maps")
            return text

        fake_blas(None)
        monkeypatch.setattr(_threads, "_blas", None)
        monkeypatch.setattr(_threads, "Path", lambda path: SimpleNamespace(read_text=read_text))

    return install


@pytest.mark.parametrize(
    "install",
    [
        lambda fake_blas, monkeypatch: fake_blas(None),
        lambda fake_blas, monkeypatch: fake_blas(1),
        _proc_maps(None),
        _proc_maps("7f00-7f10 r-xp 00000000 08:01 42 /usr/lib/libm.so.6\n"),
        _proc_maps("7f00-7f10 r-xp 00000000 08:01 42 /nonexistent/my dir/libopenblas.so (deleted)\n"),
    ],
    ids=["no-control", "one-thread", "unreadable-maps", "no-openblas-mapped", "openblas-will-not-open"],
)
def test_one_worker_runs_on_the_caller_and_starts_no_thread(fake_blas, monkeypatch, install):
    blas = install(fake_blas, monkeypatch)
    callers = []
    parts = _threads.split(lambda rows: callers.append(threading.current_thread()) or rows, 9)
    assert parts == [slice(0, 9)]
    assert callers == [threading.current_thread()]
    assert _threads._pool is None
    assert blas.sets == [] if blas else _threads._blas == ()


def test_helper_error_is_raised_after_every_part_finishes(fake_blas):
    blas = fake_blas(2)
    done = []

    def part(rows):
        if rows.start > 0:
            raise ValueError("helper part")
        time.sleep(0.05)
        done.append(rows.start)

    with pytest.raises(ValueError, match="helper part"):
        _threads.split(part, 4)
    assert done == [0]
    assert blas.count == 2


def test_caller_error_waits_for_the_helpers(fake_blas):
    blas = fake_blas(3)
    done = []

    def part(rows):
        if rows.start == 0:
            raise KeyError("caller part")
        time.sleep(0.05)
        done.append(rows.start)
        raise ValueError("later part")

    with pytest.raises(KeyError, match="caller part"):  # the first part's error, in part order
        _threads.split(part, 6)
    assert sorted(done) == [2, 4]
    assert blas.count == 3


def test_join_waits_for_every_queued_job_when_the_callers_job_raises(fake_blas):
    """Two splits in one scope, the caller's part of the second raising:
    every part of both has run once the error leaves the scope, no helper
    has a job left queued, and BLAS has its count back."""
    blas = fake_blas(3)
    done = []

    def job(rows):
        if rows.start == 0:
            raise KeyError("caller job")
        time.sleep(0.05)
        done.append(rows.start)

    with pytest.raises(KeyError, match="caller job"):
        with _threads.lanes():
            _threads.split(lambda rows: time.sleep(0.05) or done.append(-rows.start), 3)
            _threads.split(job, 3)
    assert sorted(done) == [-2, -1, 0, 1, 2]
    assert all(lane.queue.empty() for lane in _threads._pool)
    assert blas.count == 3


def test_the_first_error_in_part_order_is_raised(fake_blas):
    fake_blas(3)

    def part(rows):
        if rows.start == 1:
            time.sleep(0.05)  # part 2 fails first in time
            raise ValueError("part 1")
        if rows.start == 2:
            raise KeyError("part 2")

    with pytest.raises(ValueError, match="part 1"):
        _threads.split(part, 3)


def test_parts_run_under_the_callers_errstate(fake_blas):
    fake_blas(2)
    with np.errstate(divide="raise", over="ignore"):
        modes = _threads.split(lambda rows: np.geterr(), 2)
    assert [(m["divide"], m["over"]) for m in modes] == [("raise", "ignore")] * 2
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        _threads.split(lambda rows: np.ones(1) / np.zeros(1) if rows.start else None, 2)


def test_lane_jobs_run_under_the_callers_errstate(fake_blas):
    """A helper made under one errstate runs each later part under the
    errstate its caller has when that part is queued."""
    fake_blas(2)
    with _threads.lanes():
        _threads.split(lambda rows: None, 2)  # makes the helper under the default errstate
        with np.errstate(divide="raise", over="ignore"):
            modes = _threads.split(lambda rows: np.geterr(), 2)
        assert [(m["divide"], m["over"]) for m in modes] == [("raise", "ignore")] * 2
        with np.errstate(divide="ignore"):
            assert _threads.split(lambda rows: float(np.ones(1)[0] / 0.0), 2) == [np.inf] * 2
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            _threads.split(lambda rows: np.ones(1) / np.zeros(1) if rows.start else None, 2)


def test_each_split_sees_every_part_of_the_one_before(fake_blas):
    """More lanes than cores and a short switch interval: every part of a
    split still sees what every part of the split before it wrote, as each
    rank slot sees the prologue and the caller sees every slot's counts."""
    fake_blas(4)
    cells, seen = [None] * 4, [[] for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(200):
            _threads.split(lambda part: cells.__setitem__(part.start, round_), 4)
            _threads.split(lambda part: seen[part.start].append(cells == [round_] * 4), 4)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [[True] * 200] * 4


def test_a_scope_waits_only_on_the_helpers_it_handed_a_job(fake_blas, monkeypatch):
    """A one-part split or an empty scope is no round trip through a helper:
    nothing goes on any helper's queue."""
    fake_blas(3)
    puts = queued_lanes(monkeypatch, 3)
    assert _threads.split(lambda rows: rows, 1) == [slice(0, 1)]
    with _threads.lanes():
        pass
    assert puts == []
    assert _threads.split(lambda rows: rows, 2) == [slice(0, 1), slice(1, 2)]
    assert puts == [1, 1]  # lane 1's part, then its release marker; lane 2 idles


def _summing(array):
    return lambda rows: float(array[rows].sum())


def test_a_finished_split_holds_nothing(fake_blas):
    """No helper keeps a part, nor what it closed over, once the split has
    returned: a rank call's tile buffers would outlive it."""
    fake_blas(2)
    array = np.ones(8)
    alive = weakref.ref(array)
    assert _threads.split(_summing(array), 8) == [4.0, 4.0]
    del array
    deadline = time.monotonic() + 5
    while alive() is not None and time.monotonic() < deadline:
        time.sleep(0.001)
    assert alive() is None


def test_a_split_inside_a_lane_job_runs_on_that_thread(fake_blas):
    """A helper that queued a part behind its own running job would wait on
    itself for ever."""
    fake_blas(2)
    results = []

    def part(rows):
        outer = threading.get_ident()
        inner = _threads.split(lambda cols: (cols.start, cols.stop, threading.get_ident() == outer), 4)
        return [bounds for *bounds, _ in inner], all(same for *_, same in inner)

    caller = threading.Thread(target=lambda: results.append(_threads.split(part, 2)), daemon=True)
    caller.start()
    caller.join(timeout=10)
    assert not caller.is_alive(), "a nested split waited on its own lane"
    # the caller's part splits again over both lanes; the helper's part runs as one
    assert results == [[([[0, 2], [2, 4]], False), ([[0, 4]], True)]]


def _split_in_child():
    assert _threads.split(lambda rows: rows.stop - rows.start, 4) == [2, 2]


def test_a_child_forked_after_a_split_starts_its_own_lanes(fake_blas):
    fake_blas(2)
    _threads.split(lambda rows: None, 2)  # the parent's helper now waits on its queue
    child = multiprocessing.get_context("fork").Process(target=_split_in_child)
    child.start()
    child.join(timeout=20)
    if child.is_alive():
        child.kill()
        child.join(timeout=5)
        pytest.fail("the forked child's first split hung")
    assert child.exitcode == 0


def _scopes_in_child(blas, depth, count):
    assert _threads.split(lambda rows: rows.stop - rows.start, 4) == [2, 2]
    assert (_threads._depth, blas.count) == (depth, count)


@pytest.mark.parametrize("own", [0, 1])
def test_a_child_forked_while_another_thread_holds_a_scope_keeps_only_its_own(fake_blas, own):
    """Another thread's scope is not copied into a forked child: the child
    counts only the forking thread's ``own`` open scopes, and with none open
    its BLAS is back at the parent's count."""
    blas = fake_blas(2)
    inside, leave = threading.Event(), threading.Event()

    def hold():
        with _threads.lanes():
            inside.set()
            leave.wait(timeout=20)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert inside.wait(timeout=5)
        with _threads.lanes() if own else nullcontext():
            child = multiprocessing.get_context("fork").Process(target=_scopes_in_child, args=(blas, own, 2 - own))
            child.start()
            child.join(timeout=20)
    finally:
        leave.set()
        holder.join(timeout=5)
    assert not holder.is_alive()
    if child.is_alive():
        child.kill()
        child.join(timeout=5)
        pytest.fail("the forked child's split hung")
    assert child.exitcode == 0
    assert _threads._depth == 0 and blas.count == 2


def test_nested_scopes_share_the_outer_count(fake_blas):
    blas = fake_blas(2)
    with _threads.lanes() as outer:
        with _threads.lanes() as inner:
            assert (outer, inner, blas.count) == (2, 2, 1)
        assert blas.count == 1
    assert blas.count == 2 and blas.sets == [1, 2]


def test_a_lane_that_cannot_start_releases_the_hold(fake_blas, monkeypatch):
    blas = fake_blas(2)

    def refuse(number):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(_threads, "_Lane", refuse)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        with _threads.lanes():
            pass
    assert blas.count == 2 and blas.sets == [1, 2]
    assert _threads._depth == 0


@pytest.mark.parametrize("first_out", [0, 1])
def test_overlapping_scopes_in_two_threads_restore_the_count(fake_blas, first_out):
    """The second thread in must not read the one thread the first set, and
    whichever leaves last restores the count read by the first."""
    blas = fake_blas(2)
    inside = threading.Barrier(2)
    leave = [threading.Event(), threading.Event()]
    workers = [None, None]

    def scope(i):
        with _threads.lanes() as count:
            workers[i] = count
            inside.wait(timeout=5)
            leave[i].wait(timeout=5)

    threads = [threading.Thread(target=scope, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    leave[first_out].set()
    threads[first_out].join(timeout=5)
    assert blas.count == 1  # the other thread is still inside
    leave[1 - first_out].set()
    threads[1 - first_out].join(timeout=5)
    assert workers == [2, 2]
    assert blas.count == 2 and blas.sets == [1, 2]


def test_openblas_count_is_held_and_restored():
    blas = _threads._find_blas()
    if not blas:
        pytest.skip("no OpenBLAS thread control in this numpy")
    get, _ = blas
    before = get()
    inside = _threads.split(lambda rows: get(), 4)
    assert inside == [1] * min(before, 4)
    assert get() == before


def _mapped_openblas():
    for line in Path("/proc/self/maps").read_text().splitlines():
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in fields[5].lower() and ".so" in fields[5]:
            return fields[5]
    pytest.skip("no OpenBLAS mapped into this process")


@pytest.mark.parametrize("shape", ["path-with-space", "deleted-suffix"])
def test_mapped_path_is_the_whole_sixth_field(monkeypatch, tmp_path, shape):
    """A maps path may hold spaces, and the kernel marks a replaced file
    with a " (deleted)" suffix; either way the library still opens."""
    if not _threads._find_blas():
        pytest.skip("no OpenBLAS thread control in this numpy")
    lib = Path(_mapped_openblas())
    if shape == "path-with-space":
        spaced = tmp_path / "my dir" / lib.name
        spaced.parent.mkdir()
        spaced.symlink_to(lib)
        line = f"7f00-7f10 r-xp 00000000 08:01 42                {spaced}\n"
    else:
        line = f"7f00-7f10 r-xp 00000000 08:01 42 {lib} (deleted)\n"
    monkeypatch.setattr(_threads, "Path", lambda path: SimpleNamespace(read_text=lambda: line))
    assert _threads._find_blas()
