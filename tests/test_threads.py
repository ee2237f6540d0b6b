import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from star_kge import _threads


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


def test_parts_run_under_the_callers_errstate(fake_blas):
    fake_blas(2)
    with np.errstate(divide="raise", over="ignore"):
        modes = _threads.split(lambda rows: np.geterr(), 2)
    assert [(m["divide"], m["over"]) for m in modes] == [("raise", "ignore")] * 2
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        _threads.split(lambda rows: np.ones(1) / np.zeros(1) if rows.start else None, 2)


def test_nested_scopes_share_the_outer_count(fake_blas):
    blas = fake_blas(2)
    with _threads.held() as outer:
        with _threads.held() as inner:
            assert (outer, inner, blas.count) == (2, 2, 1)
        assert blas.count == 1
    assert blas.count == 2 and blas.sets == [1, 2]


@pytest.mark.parametrize("first_out", [0, 1])
def test_overlapping_scopes_in_two_threads_restore_the_count(fake_blas, first_out):
    """The second thread in must not read the one thread the first set, and
    whichever leaves last restores the count read by the first."""
    blas = fake_blas(2)
    inside = threading.Barrier(2)
    leave = [threading.Event(), threading.Event()]
    workers = [None, None]

    def scope(i):
        with _threads.held() as w:
            workers[i] = w
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
