"""The benchmark's layer tracer finds the package's functions by name.

A renamed or deleted function would only empty its per-layer metrics in a
benchmark run; here it fails the test run instead. The spans nest as the
per-layer self times assume.
"""

import importlib.util
from pathlib import Path

import numpy as np

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


def test_one_score_span_per_block_and_tile(monkeypatch):
    """Each tile's GEMM is a ``model.score_batch`` span inside its block's
    ``evaluation.filtered_rank`` span, so the rank self time excludes it."""
    tracing = load_tracing()
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
    blocks = [i for i, s in enumerate(spans) if s[tracing.NAME] == "evaluation.filtered_rank"]
    tiles = [s for s in spans if s[tracing.NAME] == "model.score_batch"]
    assert len(blocks) == -(-2 * len(triples) // 3)
    assert len(tiles) == len(blocks) * -(-ne // 2)
    assert sorted(s[tracing.PARENT] for s in tiles) == sorted(blocks * -(-ne // 2))

    samples = tracing.layer_samples(spans)
    assert len(samples["model.score_batch_us"]) == len(tiles)
    rank_self = np.array(samples["evaluation.rank_self_us"])
    rank_total = np.array(samples["evaluation.filtered_rank_us"])
    assert len(rank_self) == len(blocks) and (rank_self > 0).all()
    gemm = [sum(s[tracing.END] - s[tracing.START] for s in tiles if s[tracing.PARENT] == b) for b in blocks]
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
