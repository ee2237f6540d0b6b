"""Every writer of the package replaces its files whole: one that fails part
way through a write leaves the previous bytes and no ``.tmp`` behind."""

import io

import pytest

from conftest import make_store
from star_kge.analysis import count_two_paths, dataset_imbalance, export_arc_data
from star_kge.cli import _write_json
from star_kge.model import init_embeddings


def _store(version):
    return make_store([(0, 0, 1), (1, 1, 2), (2, 0, 3 + version)], valid=[(1, 0, 3)], test=[(0, 1, 2)])


def _export(fmt):
    def write(out, version):
        report = dataset_imbalance(count_two_paths(_store(version)))
        export_arc_data(report, out / f"pairs.{fmt}", fmt=fmt)

    return write


WRITERS = {
    "json": lambda out, version: _write_json(out / "report.json", {"version": version}),
    "checkpoint": lambda out, version: init_embeddings(5, 2, 4, seed=version).save_checkpoint(out / "model.bin"),
    "arc-csv": _export("csv"),
    "arc-svg": _export("svg"),
    "store": lambda out, version: _store(version).save(out),
}


class _HalfWritten(io.TextIOBase):
    """A file that takes half of the first write it is given, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError("No space left on device")

    def close(self):
        self._fh.close()
        super().close()


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_the_previous_bytes(tmp_path, monkeypatch, writer):
    out = tmp_path / "out"
    out.mkdir()
    WRITERS[writer](out, 0)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert before
    real_open = open
    monkeypatch.setattr("star_kge._files.open", lambda *a, **k: _HalfWritten(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[writer](out, 1)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_makes_a_missing_directory(tmp_path, writer):
    out = tmp_path / "new" / "dir"
    WRITERS[writer](out, 0)
    written = [path.name for path in out.iterdir()]
    assert written and not any(name.endswith(".tmp") for name in written)
