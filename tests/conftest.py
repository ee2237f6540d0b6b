import os
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from star_kge.data import TripleStore, Vocab, load_dataset

#: directory expected to hold WN18RR/ and FB15K237/ with train.txt etc.;
#: benchmark-dependent tests skip when it is absent
DATA_DIR = Path(os.environ.get("STAR_KGE_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def dataset_path(name: str, split: str) -> Path:
    for candidate in (DATA_DIR / name / f"{split}.txt", DATA_DIR / name / f"{split}.tsv"):
        if candidate.exists():
            return candidate
    pytest.skip(
        f"{name} {split} file not found under {DATA_DIR} "
        "(set STAR_KGE_DATA_DIR to run benchmark-dependent tests)"
    )


SPLITS = ("train", "valid", "test")


def reload_saved(store, directory):
    """``store`` written by ``TripleStore.save`` and read back with
    ``load_dataset`` on the three TSVs it wrote."""
    store.save(directory)
    return load_dataset(*(Path(directory) / f"{name}.tsv" for name in SPLITS))


def named_splits(store):
    """Every split's triples as ``(head, relation, tail)`` names, as a TSV
    carries them."""
    ents, rels = store.vocab.entity_names, store.vocab.relation_names
    return {name: [(ents[h], rels[r], ents[t]) for h, r, t in store.split(name).tolist()] for name in SPLITS}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_store(triples, num_entities=None, num_relations=None, valid=(), test=()):
    """Build a store from integer triples without touching the filesystem."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    valid = np.asarray(list(valid), dtype=np.int64).reshape(-1, 3)
    test = np.asarray(list(test), dtype=np.int64).reshape(-1, 3)
    stacked = [triples] + ([valid] if len(valid) else []) + ([test] if len(test) else [])
    all_rows = np.concatenate(stacked)
    ne = num_entities if num_entities is not None else int(all_rows[:, [0, 2]].max()) + 1
    nr = num_relations if num_relations is not None else int(all_rows[:, 1].max()) + 1
    vocab = Vocab([f"e{i}" for i in range(ne)], [f"r{i}" for i in range(nr)])
    return TripleStore(vocab, triples, valid, test)


@pytest.fixture
def toy_store():
    # 5 entities, 2 relations, a small tangle with shared answers for filtering
    return make_store(
        [
            (0, 0, 1),
            (0, 0, 2),
            (1, 0, 2),
            (2, 1, 3),
            (3, 1, 4),
            (4, 0, 0),
        ],
        valid=[(1, 1, 3)],
        test=[(0, 0, 3), (2, 1, 4)],
    )


class FakeBlas:
    """Stands in for OpenBLAS's thread-count control in ``star_kge._threads``:
    ``count`` is the count it reports and ``sets`` every count set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, count):
        self.count = count
        self.sets.append(count)


@pytest.fixture
def fake_blas(monkeypatch):
    """``install(count)`` makes ``star_kge._threads`` see a BLAS of ``count``
    threads (none at all for None) and start from no pool; returns the
    :class:`FakeBlas`, or None."""
    from star_kge import _threads

    def install(count):
        fake = None if count is None else FakeBlas(count)
        monkeypatch.setattr(_threads, "_blas", () if fake is None else (fake.get, fake.set))
        monkeypatch.setattr(_threads, "_pool", None)
        return fake

    return install


def queued_lanes(monkeypatch, workers):
    """Makes the ``workers - 1`` helper lanes of ``star_kge._threads``; the
    returned list then gets the number of every lane that something is
    queued on."""
    from star_kge import _threads

    _threads.split(lambda rows: None, workers)
    queued = []
    for number, lane in enumerate(_threads._pool, start=1):
        put = partial(lambda n, real, job: queued.append(n) or real(job), number, lane.queue.put)
        monkeypatch.setattr(lane, "queue", SimpleNamespace(put=put))
    return queued
