"""Filtered link-prediction ranking: MRR, Hits@K and breakdowns.

For every evaluated triple (h, r, t) two queries are ranked: the tail
query (h, r, ?) and the head query (t, r~, ?) through the reciprocal
relation row, so a model is never transposed. All other known-true
answers of a query (over train + valid + test) are removed before the
rank is taken ("filtered" setting).

Queries are ranked in pair order, sorted by their ``(src, rel)`` pair, in
blocks of up to ``BLOCK_ROWS``, so the repeats of a pair share a block;
MRR, Hits@K and the per-relation and per-class sums are taken over the
ranks in that order. A block's ``[q, 1]`` rows are built once per distinct
pair, and each entity tile is one product of them with a column slice of
the table's stored ``[E, 1]^T``, the score's ``+ 1`` inside it. A pair's
known answers are its run in the one sorted code array of
:class:`~star_kge.data.FilterIndex`, found with two ``np.searchsorted``
calls. Those in a tile are masked by scattering ``-inf`` into the pair's
row, each repeat of a pair is counted on a copy of that masked row, and
rivals are counted by a uint16 row sum of the mask while the tile is in
cache, so the table is read once per block and no score block larger than
a tile is written. With BLAS held to one thread (:mod:`._threads`), the
tiles go in groups of one per worker: one :func:`score_batch` call scores a
group's tiles side by side, then each worker masks, copies and counts the
tile it scored. Helper threads run numpy calls only, and the counts are
integers, so ranks do not depend on the worker count. :func:`evaluate`
allocates one workspace per call.

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

from . import _threads
from .data import FilterIndex, RelationClass, TripleStore, _fresh, reciprocal_queries
from .model import EmbeddingTable, _query_rows, score_batch

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
    num_queries: int
    relation_names: list[str]
    tie_rule: str = "pessimistic"
    split: str = ""
    ranking_s: float = 0.0
    threads: int = 1

    def to_dict(self) -> dict:
        return {
            "split": self.split,
            "tie_rule": self.tie_rule,
            "num_queries": self.num_queries,
            "ranking_s": self.ranking_s,
            "threads": self.threads,
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
            "per_relation": {
                str(rid): {"name": self.relation_names[rid], "mrr": m, "count": c}
                for rid, (m, c) in sorted(self.per_relation.items())
            },
            "per_class": dict(sorted(self.per_class.items())),
        }


class _Workspace:
    """Private buffers of the ranking pass for blocks of up to ``rows`` queries
    on ``workers`` workers.

    ``scores[i]`` and ``mask[i]`` hold the tile of slot i, up to ``rows``
    high and ``width`` entities wide; there is one slot per worker, but no
    more than a block has tiles. ``col_max`` is the bound
    ``max_e |[E, 1]_ke|`` per coordinate k; a non-finite entity coordinate
    makes it non-finite, which raises ValueError (see :func:`filtered_rank`).
    """

    def __init__(self, table: EmbeddingTable, rows: int, workers: int):
        rows = max(rows, 1)
        self.width = min(table.num_entities, max(1, BLOCK_SCORES // rows), TILE_WIDTH_MAX)
        self.slots = min(workers, -(-table.num_entities // self.width))
        self.scores = np.empty((self.slots, rows * self.width))
        self.mask = np.empty((self.slots, rows * self.width), dtype=bool)
        hom = table._hom_rows
        self.col_max = np.maximum(hom.max(axis=1), -hom.min(axis=1))
        if not np.isfinite(self.col_max).all():
            raise ValueError("the entity table holds a non-finite value, so its ranks would be meaningless")

    def tile(self, slot: int, rows: int, cols: slice) -> np.ndarray:
        """``slot``'s tile for ``rows`` queries scored at entity columns ``cols``."""
        width = cols.stop - cols.start
        return self.scores[slot, : rows * width].reshape(rows, width)

    def count(self, slot: int, compare, tile, bound) -> np.ndarray:
        """Row-wise count of ``compare(tile, bound)`` in ``slot``'s mask: one
        uint16 sum of its bytes, exact while the tile is at most
        ``TILE_WIDTH_MAX`` wide."""
        mask = self.mask[slot, : tile.size].reshape(tile.shape)
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

    ``query`` is one ``(3,)`` triple, which gives an ``int``, or a ``(k, 3)``
    block, which gives an array of k ranks in block order; another shape
    raises ValueError. ``rel`` may be a reciprocal relation id for head
    prediction. Every query triple must be present in the filter index,
    otherwise the store and the query disagree and a ValueError naming the
    first such query of the block is raised; a head or relation id outside
    the table raises IndexError.

    The block's d distinct ``(head, rel)`` pairs are ranked once each: their
    ids are checked, their ``[q, 1]`` rows built and their known answers
    expanded once. The block is scored in entity tiles of ``min(BLOCK_SCORES
    // k, TILE_WIDTH_MAX)`` columns, in groups of one tile per workspace
    slot: one :func:`~star_kge.model.score_batch` call per group is only the
    GEMMs of the d pair rows, one tile per worker. Then, on each worker in
    one :func:`._threads.split`, the known answers are masked in each pair's
    row of its tile, the ``k - d`` repeats are copied into the rest of the
    tile, and every row is counted (a uint16 sum per row, which the width
    cap keeps exact) while the tile is still in cache. Each query
    keeps its own bounds: its target score ``s_t`` is the row-wise dot
    product of its pair's ``[q, 1]`` with the target's stored column, and
    the random rule draws once per query in block order. Ties are decided
    up to the GEMM's rounding bound
    ``b_i = gamma_{n+1} sum_k |q_ik| max_e |[E, 1]_ke|``:
    two scores whose exact values are equal differ by at most ``2 b_i``, so
    the pessimistic rank is ``1 + #(s_e >= s_t - 2 b_i)`` and the random
    rule's strictly better rivals are ``#(s_e > s_t + 2 b_i)``. A non-finite
    entity table or bound ``s_t - 2 b_i`` raises ValueError: a NaN score
    would count no rival, so the answer would rank first.
    ``_workspace`` is private: :func:`evaluate` passes one at least k rows
    high, to be reused across blocks; without it one is made for this call,
    with a slot per worker of the :func:`._threads.held` scope it opens.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    query = np.asarray(query, dtype=np.int64)
    if query.ndim not in (1, 2) or query.shape[-1] != 3:
        raise ValueError(f"query must be a (3,) triple or a (k, 3) block, got shape {query.shape}")
    block = query.reshape(-1, 3)
    base = filter_index._pair_codes(block)
    # tile rows 0..d-1 hold the block's d distinct pairs, each with its first
    # query; rows d..k-1 hold the repeats in pair order, copies of their pair's row
    order = np.argsort(base, kind="stable")
    lead = _fresh(base[order])
    tile_rows = np.concatenate([order[lead], order[~lead]])  # the query of every tile row
    repeats = (np.cumsum(lead) - 1)[~lead]  # the pair row that each repeat copies
    k, d, ne = len(block), np.count_nonzero(lead), table.num_entities
    pair_rows = np.concatenate([np.arange(d), repeats])  # the pair of every tile row
    heads, rels, targets = block[tile_rows].T
    row, answer = filter_index._answers(base[tile_rows[:d]])
    with _threads.held() as workers:
        ws = _workspace if _workspace is not None else _Workspace(table, k, workers)
        # inf in a relation row would warn (inf - inf) part way; it is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            q = _query_rows(table, heads[:d], rels[:d])
            # row sums of C-order (k, n+1) products: the same rounding at any k
            s_true = (q[pair_rows] * table._hom_rows.T[targets]).sum(axis=1)
            nu = q.shape[1] * np.finfo(np.float64).eps / 2  # (n+1) u, and gamma_{n+1} = nu / (1 - nu)
            slack = (2 * nu / (1 - nu) * (np.abs(q) * ws.col_max).sum(axis=1))[pair_rows]  # 2 b_i
            low = (s_true - slack)[:, None]
            high = (s_true + slack)[:, None]
        finite = np.isfinite(low[:, 0]) & np.isfinite(high[:, 0])
        if not finite.all():
            first = tuple(block[tile_rows[~finite].min()].tolist())
            raise ValueError(
                f"query {first} has a non-finite score bound: its relation row or its scores are not finite"
            )

        def count(slot):
            """Per tile row of ``slot``'s tile in the current group: rivals
            >= low, rivals > high."""
            cols = group[slot]
            tile = ws.tile(slot, k, cols)
            inside = (answer >= cols.start) & (answer < cols.stop)
            tile[row[inside], answer[inside] - cols.start] = -np.inf  # the true answer too: it never outranks itself
            np.take(tile[:d], repeats, axis=0, out=tile[d:], mode="clip")  # "clip" writes to out unbuffered
            counts = np.zeros((2, k), dtype=np.int64)
            counts[0] = ws.count(slot, np.greater_equal, tile, low)
            if tie_rule == "random":
                counts[1] = ws.count(slot, np.greater, tile, high)
            return counts

        counts = np.zeros((2, k), dtype=np.int64)
        span = ws.slots * ws.width
        for start in range(0, ne, span):
            # one tile per slot: part i of both splits scores, then counts, slot i's tile
            group = [slice(lo, min(lo + ws.width, ne)) for lo in range(start, min(start + span, ne), ws.width)]
            tiles = [(cols, ws.tile(i, k, cols)[:d]) for i, cols in enumerate(group)]
            score_batch(table, heads[:d], rels[:d], _tile=(q, tiles))
            counts += sum(_threads.split(lambda part: sum(map(count, range(part.start, part.stop))), len(group)))
    at_least, greater = counts[:, np.argsort(tile_rows)]  # back in query order
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
) -> EvalReport:
    """Rank both queries of every triple of a split.

    The queries of :func:`~star_kge.data.reciprocal_queries` are sorted
    stably by their pair code ``src * 2|R| + rel`` and go to
    :func:`filtered_rank` in that pair order, in blocks of up to
    ``BLOCK_ROWS`` rows, all in one workspace allocated per call. BLAS is
    held to one thread while they rank, and each block's tiles are split
    over its thread count, which the report gives as ``threads``. MRR,
    Hits@K and the breakdowns are taken over the ranks in that same order.
    The random tie rule draws from ``default_rng(0)`` in pair order, so a
    report is reproducible.
    Per-relation results merge the tail queries (relation ``r``) and head
    queries (``r + |R|``) of each original relation ``r``, read as
    ``rel % |R|``, and carry its name; per-class results group relations
    by their complexity class when ``classes`` is given.
    """
    triples = store.split(split)
    if len(triples) == 0:
        raise ValueError(f"split {split!r} is empty")
    rng = np.random.default_rng(0)
    nr = store.num_relations

    queries = reciprocal_queries(triples, nr)
    height = min(len(queries), BLOCK_ROWS)
    start = time.perf_counter()
    # pair order, so that the repeats of a (src, rel) pair share a block
    queries = queries[np.argsort(queries[:, 0] * (2 * nr) + queries[:, 1], kind="stable")]
    with _threads.held() as workers:
        workspace = _Workspace(table, height, workers)
        ranks = np.concatenate(
            [
                filtered_rank(queries[i : i + height], table, store.filter_index, tie_rule, rng, _workspace=workspace)
                for i in range(0, len(queries), height)
            ]
        )
    ranking_s = time.perf_counter() - start

    rels = queries[:, 1] % nr  # a head query's reciprocal row counts for its original relation
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
        num_queries=len(rr),
        relation_names=store.vocab.relation_names,
        tie_rule=tie_rule,
        split=split,
        ranking_s=ranking_s,
        threads=workers,
    )
