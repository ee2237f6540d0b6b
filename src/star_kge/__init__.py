"""Knowledge-graph embedding with block-rotation + translation relation matrices.

The exports below load their submodule on first access (PEP 562), so
importing ``star_kge.cli`` does not load numpy and ``--threads`` can pin the
BLAS thread pools first.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "EmbeddingTable": "model",
    "EvalReport": "evaluation",
    "RegConfig": "regularization",
    "RelationClass": "data",
    "RelationParams": "model",
    "ScoreGradient": "model",
    "TrainConfig": "training",
    "TripleStore": "data",
    "Vocab": "data",
    "adagrad_update": "training",
    "batch_loss": "training",
    "classify_relations": "data",
    "evaluate": "evaluation",
    "filtered_rank": "evaluation",
    "init_embeddings": "model",
    "load_dataset": "data",
    "load_triples": "data",
    "materialize_star_matrix": "model",
    "penalty_terms_batch": "regularization",
    "score": "model",
    "score_batch": "model",
    "score_gradients": "model",
    "train": "training",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
