"""Every writer of the package replaces its files whole: one that fails part
way through a write leaves the previous bytes and no ``.tmp`` behind."""

import io

import pytest

from conftest import make_store
from star_kge.analysis import count_two_paths, dataset_imbalance, export_arc_data
from star_kge.cli import _write_json, build_parser
from star_kge.model import init_embeddings


def _store(version):
    return make_store([(0, 0, 1), (1, 1, 2), (2, 0, 3 + version)], valid=[(1, 0, 3)], test=[(0, 1, 2)])


def _export(fmt):
    def write(out, version):
        report = dataset_imbalance(count_two_paths(_store(version)))
        export_arc_data(report, out / f"pairs.{fmt}", fmt=fmt)

    return write


def _per_relation(out, version):
    data = out.parent / "in"
    if not data.exists():  # the inputs of both versions, made before any write can fail
        data.mkdir()
        (data / "train.tsv").write_text("a\tr\tb\nb\tq\tc\nc\tr\ta\n", encoding="utf-8")
        for seed in (0, 1):
            init_embeddings(3, 2, 4, init_scale=0.5, seed=seed).save_checkpoint(data / f"model{seed}.bin")
    train, checkpoint = str(data / "train.tsv"), str(data / f"model{version}.bin")
    args = build_parser().parse_args(
        ["eval", "--checkpoint", checkpoint, "--train", train, "--test", train, "--per-relation", str(out / "rel.csv")]
    )
    args.func(args)


WRITERS = {
    "json": lambda out, version: _write_json(out / "report.json", {"version": version}),
    "checkpoint": lambda out, version: init_embeddings(5, 2, 4, seed=version).save_checkpoint(out / "model.bin"),
    "per-relation-csv": _per_relation,
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
