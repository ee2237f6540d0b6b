"""The benchmark's layer tracer finds the package's functions by name.

A renamed or deleted function would only empty its per-layer metrics in a
benchmark run; here it fails the test run instead. The spans nest as the
per-layer self times assume, and the tracer's one span stack holds only
while every traced call runs on the calling thread.
"""

import functools
import importlib.util
import threading
from pathlib import Path

import numpy as np
import pytest

from star_kge import _threads
from star_kge.evaluation import evaluate
from star_kge.model import init_embeddings
from star_kge.training import TrainConfig, train
from conftest import make_store

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    assert tracing.WRAPPED
    assert tracing.Tracer().absent == []


@pytest.mark.parametrize("workers", [1, 2])
def test_one_score_span_per_block_and_tile(monkeypatch, fake_blas, workers):
    """``evaluate`` ranks its split in one ``evaluation.filtered_rank`` span.
    Inside it, each block's tiles are dealt one per worker in turn, and
    each tile of the calling thread's share has its GEMM in one
    ``model.score_batch`` span, so the rank self time excludes it."""
    tracing = load_tracing()
    fake_blas(workers)
    ne = 7
    triples = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 4), (4, 0, 5), (5, 1, 6), (6, 0, 0)]
    store = make_store(triples, num_entities=ne, num_relations=2)
    table = init_embeddings(ne, 2, 4, init_scale=1.0, seed=3)
    monkeypatch.setattr("star_kge.evaluation.BLOCK_ROWS", 3)
    monkeypatch.setattr("star_kge.evaluation.BLOCK_SCORES", 6)  # 2-entity tiles

    tracer = tracing.Tracer()
    with tracer.active():
        evaluate("train", table, store)
    spans = tracer.spans
    ranks = [i for i, s in enumerate(spans) if s[tracing.NAME] == "evaluation.filtered_rank"]
    tiles = [s for s in spans if s[tracing.NAME] == "model.score_batch"]
    tile_count = -(-ne // 2)
    groups = -(-tile_count // workers)  # a block's tiles go in groups of one per worker
    blocks = -(-2 * len(triples) // 3)
    assert len(ranks) == 1
    assert len(tiles) == blocks * groups
    assert [s[tracing.PARENT] for s in tiles] == ranks * len(tiles)

    samples = tracing.layer_samples(spans)
    assert len(samples["model.score_batch_us"]) == len(tiles)
    rank_self = np.array(samples["evaluation.rank_self_us"])
    rank_total = np.array(samples["evaluation.filtered_rank_us"])
    assert len(rank_self) == 1 and (rank_self > 0).all()
    gemm = sum(s[tracing.END] - s[tracing.START] for s in tiles)
    assert np.allclose(rank_total - rank_self, gemm)


def test_each_training_batch_is_one_loss_three_adagrad_and_one_enforce_span():
    """The training per-layer metrics read these spans; each batch makes them
    at the top level, in this order."""
    tracing = load_tracing()
    triples = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 4), (4, 0, 5), (5, 1, 6), (6, 0, 0)]
    store = make_store(triples, num_entities=7, num_relations=2)

    tracer = tracing.Tracer()
    with tracer.active():
        train(store, TrainConfig(n=4, epochs=1, batch_size=3))
    top = [s[tracing.NAME] for s in tracer.spans if s[tracing.PARENT] == -1]
    one_batch = ["training.batch_loss"] + ["training.adagrad_update"] * 3 + ["model.enforce_kind"]
    # init_embeddings projects the fresh table once before the first batch
    assert top == ["model.enforce_kind"] + one_batch * 3


@pytest.mark.parametrize("workers", [2, 3])
def test_traced_calls_stay_on_the_calling_thread_and_nest(monkeypatch, fake_blas, workers):
    """Training and ranking split their passes over two or three workers,
    yet every call of a traced name runs on the calling thread, and every
    span lies inside its parent's."""
    tracing = load_tracing()
    fake_blas(workers)
    callers = []

    class CallerTracer(tracing.Tracer):
        def _wrap(self, fn, name):
            traced = super()._wrap(fn, name)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                callers.append((name, threading.get_ident()))
                return traced(*args, **kwargs)

            return wrapper

    triples = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 4), (4, 0, 5), (5, 1, 6), (6, 0, 0)]
    store = make_store(triples, num_entities=7, num_relations=2, valid=[(1, 1, 5)], test=[(2, 0, 4), (5, 0, 1)])
    monkeypatch.setattr("star_kge.evaluation.BLOCK_ROWS", 3)
    monkeypatch.setattr("star_kge.evaluation.BLOCK_SCORES", 6)  # four 2-entity tiles per block
    tracer = CallerTracer()
    with tracer.active():
        table, _ = train(store, TrainConfig(n=4, epochs=2, batch_size=3, eval_every=1))  # validation ranks too
        evaluate("test", table, store)

    assert _threads._pool is not None  # the passes did run on a helper thread too
    names = {name for name, _ in callers}
    assert {"training.batch_loss", "evaluation.filtered_rank", "model.score_batch"} <= names
    assert {ident for _, ident in callers} == {threading.get_ident()}
    spans = tracer.spans
    assert len(spans) == len(callers)
    for _, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][tracing.START] <= start and end <= spans[parent][tracing.END]
