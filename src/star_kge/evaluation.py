"""Filtered link-prediction ranking: MRR, Hits@K and breakdowns.

For every evaluated triple (h, r, t) two queries are ranked: the tail
query (h, r, ?) and the head query (t, r~, ?) through the reciprocal
relation row, so a model is never transposed. All other known-true
answers of a query (over train + valid + test) are removed before the
rank is taken ("filtered" setting).

Queries are ranked in blocks: one matrix product in homogeneous
coordinates, ``[q, 1] @ [E, 1]^T`` with the table's stored ``[E, 1]^T``,
scores a block of queries against every entity with the score's ``+ 1``
inside the product; the known answers of each row (from the array
:class:`~star_kge.data.FilterIndex`) are masked by scattering ``-inf``, and
rivals are counted row-wise. :func:`evaluate` builds one workspace per call,
a score block and a bool mask block, and every block writes into a prefix.

Ties are broken either pessimistically (true answer placed after every
equal-scored rival, the default, so a constant model scores no better
than chance) or uniformly at random. A tie is exact only up to the GEMM's
rounding: BLAS may give identical entity rows scores that differ in the
last bit, depending on the block height, so on a model with duplicate
entity vectors pessimistic ranks can move by a few places with the block
height.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import FilterIndex, RelationClass, TripleStore, reciprocal_queries
from .model import EmbeddingTable, score_batch

TIE_RULES = ("pessimistic", "random")
HITS_AT = (1, 3, 10)

#: float64 scores held by one ranking block (16 MB); a block ranks
#: ``max(1, BLOCK_SCORES // |E|)`` queries, 51 at WN18RR's 40,943 entities
BLOCK_SCORES = 2**21


@dataclass
class EvalReport:
    mrr: float
    hits: dict[int, float]
    per_relation: dict[int, tuple[float, int]]
    per_class: dict[str, float]
    direction: str
    num_queries: int
    tie_rule: str = "pessimistic"
    split: str = ""
    ranking_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "direction": self.direction,
            "tie_rule": self.tie_rule,
            "num_queries": self.num_queries,
            "ranking_s": self.ranking_s,
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
            "per_relation": {
                str(rid): {"mrr": m, "count": c} for rid, (m, c) in sorted(self.per_relation.items())
            },
            "per_class": dict(sorted(self.per_class.items())),
        }


def _count_rows(mask) -> np.ndarray:
    """Row-wise ``count_nonzero``; one call per row is about twice as fast as
    ``axis=1`` on rows as wide as an entity table."""
    return np.fromiter(map(np.count_nonzero, mask), dtype=np.int64, count=len(mask))


def filtered_rank(
    query,
    table: EmbeddingTable,
    filter_index: FilterIndex,
    tie_rule: str = "pessimistic",
    rng: np.random.Generator | None = None,
    *,
    _workspace: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Filtered rank (>= 1) of the true answer of (head, rel, true_tail) queries.

    ``query`` is one triple, which gives an ``int``, or a ``(k, 3)`` block,
    which gives an array of k ranks scored by one matrix product. ``rel``
    may be a reciprocal relation id for head prediction. Every query triple
    must be present in the filter index, otherwise the store and the query
    disagree and a ValueError naming the query is raised. ``_workspace`` is
    private: :func:`evaluate` passes ``(scores, mask)``, both at least k rows
    high, to be reused across blocks.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    query = np.asarray(query, dtype=np.int64)
    block = query.reshape(-1, 3)
    row, answer = filter_index.known_answers(block)
    k = len(block)
    scores = mask = None
    if _workspace is not None:
        scores, mask = _workspace[0][:k], _workspace[1][:k]
    scores = score_batch(table, block[:, 0], block[:, 1], _out=scores)
    s_true = scores[np.arange(k), block[:, 2]][:, None]
    scores[row, answer] = -np.inf  # the true answer too: it never outranks itself
    at_least = _count_rows(np.greater_equal(scores, s_true, out=mask))
    if tie_rule == "pessimistic":
        ranks = 1 + at_least
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        greater = _count_rows(np.greater(scores, s_true, out=mask))
        ranks = 1 + greater + rng.integers(0, at_least - greater + 1)
    return int(ranks[0]) if query.ndim == 1 else ranks


def evaluate(
    split: str,
    table: EmbeddingTable,
    store: TripleStore,
    classes: list[RelationClass] | None = None,
    tie_rule: str = "pessimistic",
    direction: str = "both",
    seed: int = 0,
) -> EvalReport:
    """Rank every triple of a split in the requested direction(s).

    Queries go to :func:`filtered_rank` in blocks of
    ``max(1, BLOCK_SCORES // |E|)`` rows, in the order tail query then head
    query of each triple, all in one workspace allocated per call.
    Per-relation results merge the head and tail queries of each original
    relation; per-class results group relations by their complexity class
    when ``classes`` is given.
    """
    halves = {"tail": [0], "head": [1], "both": [0, 1]}.get(direction)
    if halves is None:
        raise ValueError(f"direction must be tail, head or both, got {direction!r}")
    triples = store.split(split)
    if len(triples) == 0:
        raise ValueError(f"split {split!r} is empty")
    rng = np.random.default_rng(seed)
    nr = store.num_relations

    # (tail, head) halves of reciprocal_queries, interleaved per triple
    queries = reciprocal_queries(triples, nr).reshape(2, -1, 3)[halves].swapaxes(0, 1).reshape(-1, 3)
    rels = np.repeat(triples[:, 1], len(halves))

    ne = table.num_entities
    height = min(len(queries), max(1, BLOCK_SCORES // ne))
    start = time.perf_counter()
    workspace = np.empty((height, ne)), np.empty((height, ne), dtype=bool)
    ranks = np.concatenate(
        [
            filtered_rank(queries[i : i + height], table, store.filter_index, tie_rule, rng, _workspace=workspace)
            for i in range(0, len(queries), height)
        ]
    )
    ranking_s = time.perf_counter() - start

    rr = 1.0 / ranks
    hits = {k: float(np.mean(ranks <= k)) for k in HITS_AT}
    count = np.bincount(rels, minlength=nr)
    rr_sum = np.bincount(rels, weights=rr, minlength=nr)
    per_relation = {
        rid: (float(rr_sum[rid] / count[rid]), int(count[rid])) for rid in np.flatnonzero(count).tolist()
    }

    per_class: dict[str, float] = {}
    if classes is not None:
        label_of = {c.relation_id: c.label for c in classes}
        totals: dict[str, list[float]] = {}
        for rid in per_relation:
            label = label_of.get(rid)
            if label is not None:
                total = totals.setdefault(label, [0.0, 0])
                total[0] += rr_sum[rid]
                total[1] += count[rid]
        per_class = {label: float(s / n) for label, (s, n) in totals.items()}

    return EvalReport(
        mrr=float(rr.mean()),
        hits=hits,
        per_relation=per_relation,
        per_class=per_class,
        direction=direction,
        num_queries=len(rr),
        tie_rule=tie_rule,
        split=split,
        ranking_s=ranking_s,
    )
