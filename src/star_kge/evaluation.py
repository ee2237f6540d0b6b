"""Filtered link-prediction ranking: MRR, Hits@K and breakdowns.

For every evaluated triple (h, r, t) two queries are ranked: the tail
query (h, r, ?) and the head query (t, r~, ?) through the reciprocal
relation row, so a model is never transposed. All other known-true
answers of a query (over train + valid + test) are removed before the
rank is taken ("filtered" setting).

Queries are ranked in blocks of up to ``BLOCK_ROWS``. A block's ``[q, 1]``
rows are built once, and each entity tile is one product with a column
slice of the table's stored ``[E, 1]^T``, the score's ``+ 1`` inside it.
The known answers in the tile (from the array
:class:`~star_kge.data.FilterIndex`) are masked by scattering ``-inf``, and
rivals are counted by a uint16 row sum of the mask while the tile is in
cache, so the table is read once per block and no score block larger than
a tile is written. :func:`evaluate` allocates one workspace per call.

Ties are broken either pessimistically (true answer placed after every
equal-scored rival, the default, so a constant model scores no better
than chance) or uniformly at random. BLAS may give identical entity rows
scores that differ in the last bits, depending on the kernel and the tile
shape, so a tie is decided up to the GEMM's rounding bound: a rival counts
as tied with the target when its score is within ``2 b_i`` of it, where
``b_i`` bounds the rounding error of any one score of query i (see
:func:`filtered_rank`). Ranks of exact duplicates therefore do not depend
on the block height or the tile width.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import FilterIndex, RelationClass, TripleStore, reciprocal_queries
from .model import EmbeddingTable, _check_range, score_batch, transform_query

TIE_RULES = ("pessimistic", "random")
HITS_AT = (1, 3, 10)

#: queries ranked per block: the whole entity table is read once per block
BLOCK_ROWS = 153
#: float64 scores held by one tile (8 MB, inside the cache where the score
#: fill still runs at full speed); a block of k queries is scored against
#: ``BLOCK_SCORES // k`` entities at a time, 6,853 at 153 queries
BLOCK_SCORES = 2**20
#: widest tile, so that a row's count of rivals in one tile fits a uint16;
#: it binds only on short blocks of wide tables, such as a single query
TILE_WIDTH_MAX = 2**16 - 1


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


class _Workspace:
    """Private buffers of the ranking pass for blocks of up to ``rows`` queries.

    ``scores`` and ``mask`` hold one tile, ``rows`` high and ``width``
    entities wide, ``query`` a block's ``[q, 1]`` rows, and ``col_max`` the
    bound ``max_e |[E, 1]_ke|`` per coordinate k.
    """

    def __init__(self, table: EmbeddingTable, rows: int):
        rows = max(rows, 1)
        self.width = min(table.num_entities, max(1, BLOCK_SCORES // rows), TILE_WIDTH_MAX)
        self.scores = np.empty(rows * self.width)
        self.mask = np.empty(rows * self.width, dtype=bool)
        self.query = np.ones((rows, table.n + 1))
        hom = table._hom_rows
        self.col_max = np.maximum(hom.max(axis=1), -hom.min(axis=1))

    def block_query(self, table: EmbeddingTable, heads, rels) -> np.ndarray:
        """Range-check a block's ids and build its ``[q, 1]`` rows; returns
        the ``(k, n+1)`` prefix of ``query`` that holds them."""
        _check_range(heads, table.num_entities, "head")
        _check_range(rels, table.num_relation_rows, "relation")
        q = self.query[: len(heads)]
        q[:, :-1] = transform_query(table.entity_embeddings[heads], table.rel_c[rels], table.rel_tau[rels])
        return q

    def count(self, compare, tile, bound) -> np.ndarray:
        """Row-wise count of ``compare(tile, bound)``: one uint16 sum of the
        mask's bytes, exact while the tile is at most ``TILE_WIDTH_MAX`` wide."""
        mask = self.mask[: tile.size].reshape(tile.shape)
        return np.add.reduce(compare(tile, bound, out=mask).view(np.uint8), axis=1, dtype=np.uint16)


def filtered_rank(
    query,
    table: EmbeddingTable,
    filter_index: FilterIndex,
    tie_rule: str = "pessimistic",
    rng: np.random.Generator | None = None,
    *,
    _workspace: _Workspace | None = None,
):
    """Filtered rank (>= 1) of the true answer of (head, rel, true_tail) queries.

    ``query`` is one triple, which gives an ``int``, or a ``(k, 3)`` block,
    which gives an array of k ranks. ``rel`` may be a reciprocal relation id
    for head prediction. Every query triple must be present in the filter
    index, otherwise the store and the query disagree and a ValueError naming
    the query is raised; a head or relation id outside the table raises
    IndexError.

    The ids are checked and the ``[q, 1]`` rows built once per block. The
    block is scored in entity tiles of ``min(BLOCK_SCORES // k,
    TILE_WIDTH_MAX)`` columns, one :func:`~star_kge.model.score_batch` call
    each that is only the GEMM, and every tile is masked and counted (a
    uint16 sum per row, which the width cap keeps exact) while it is still
    in cache. The target score ``s_t`` is the row-wise dot product of
    ``[q, 1]`` with the target's stored column. Ties are decided up to the
    GEMM's rounding bound ``b_i = gamma_{n+1} sum_k |q_ik| max_e |[E, 1]_ke|``:
    two scores whose exact values are equal differ by at most ``2 b_i``, so
    the pessimistic rank is ``1 + #(s_e >= s_t - 2 b_i)`` and the random
    rule's strictly better rivals are ``#(s_e > s_t + 2 b_i)``.
    ``_workspace`` is private: :func:`evaluate` passes one at least k rows
    high, to be reused across blocks; without it one is made for this call.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    query = np.asarray(query, dtype=np.int64)
    block = query.reshape(-1, 3)
    row, answer = filter_index.known_answers(block)
    k, ne = len(block), table.num_entities
    ws = _workspace if _workspace is not None else _Workspace(table, k)

    heads, rels, targets = block.T
    q = ws.block_query(table, heads, rels)
    # row sums of C-order (k, n+1) products: the same rounding at any k
    s_true = (q * table._hom_rows.T[targets]).sum(axis=1)
    nu = q.shape[1] * np.finfo(np.float64).eps / 2  # (n+1) u, and gamma_{n+1} = nu / (1 - nu)
    slack = 2 * nu / (1 - nu) * (np.abs(q) * ws.col_max).sum(axis=1)  # 2 b_i
    low = (s_true - slack)[:, None]
    high = (s_true + slack)[:, None]

    at_least = np.zeros(k, dtype=np.int64)
    greater = np.zeros(k, dtype=np.int64)
    for lo in range(0, ne, ws.width):
        w = min(ws.width, ne - lo)
        tile = score_batch(table, heads, rels, _tile=(q, slice(lo, lo + w), ws.scores[: k * w].reshape(k, w)))
        inside = (answer >= lo) & (answer < lo + w)
        tile[row[inside], answer[inside] - lo] = -np.inf  # the true answer too: it never outranks itself
        at_least += ws.count(np.greater_equal, tile, low)
        if tie_rule == "random":
            greater += ws.count(np.greater, tile, high)
    if tie_rule == "pessimistic":
        ranks = 1 + at_least
    else:
        if rng is None:
            rng = np.random.default_rng(0)
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

    Queries go to :func:`filtered_rank` in blocks of up to ``BLOCK_ROWS``
    rows, in the order tail query then head query of each triple, all in one
    workspace allocated per call.
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

    height = min(len(queries), BLOCK_ROWS)
    start = time.perf_counter()
    workspace = _Workspace(table, height)
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
