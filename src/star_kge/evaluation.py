"""Filtered link-prediction ranking: MRR, Hits@K and breakdowns.

For every evaluated triple (h, r, t) two queries are ranked: the tail
query (h, r, ?) and the head query (t, r~, ?) through the reciprocal
relation row, so a model is never transposed. All other known-true
answers of a query (over train + valid + test) are removed before the
rank is taken ("filtered" setting).

Queries are ranked in pair order, sorted by their ``(src, rel)`` pair, so
the repeats of a pair share a block of up to ``BLOCK_ROWS`` queries; MRR,
Hits@K and the per-relation and per-class sums are taken over the ranks in
that order. :func:`evaluate` passes the whole sorted split to one
:func:`filtered_rank` call, which cuts it into blocks in input order and
does the per-query work for all of them at once: one filter lookup, two
stable argsorts that group each block's repeats of a pair and lay out its
tile rows, the ``[q, 1]`` rows of every block's distinct pairs and every
query's bounds. A pair's known answers are its run in the one sorted code
array of :class:`~star_kge.data.FilterIndex`, found with two
``np.searchsorted`` calls. The entity columns are cut into tiles once, and
each tile is one product of a block's ``[q, 1]`` rows with a column slice
of the table's stored ``[E, 1]^T``, the score's ``+ 1`` inside it. The
known answers in a tile are masked by scattering ``-inf`` into their
pair's row, each repeat of a pair is counted on a copy of that masked row,
and rivals are counted by a uint16 row sum of the mask while the tile is
in cache, so the table is read once per block and no score block larger
than a tile is written. All blocks rank in one :func:`._threads.lanes`
scope, which holds BLAS to one thread. A block's tiles go in groups of one
per lane: tile i of every group is scored, then masked, copied and
counted, on lane i, which runs its jobs in order, so a lane's tile buffer
is reused only once it is counted, and the lanes meet once per call, when
the scope closes. Helper threads run numpy calls only, and the counts are
integers, so ranks do not depend on the worker count. Each call allocates
one tile buffer and one mask per lane, no more than there are tiles.

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
from functools import partial

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


def filtered_rank(
    query,
    table: EmbeddingTable,
    filter_index: FilterIndex,
    tie_rule: str = "pessimistic",
    rng: np.random.Generator | None = None,
):
    """Filtered rank (>= 1) of the true answer of (head, rel, true_tail) queries.

    ``query`` is one ``(3,)`` triple, which gives an ``int``, or a ``(k, 3)``
    array, which gives an array of k ranks in input order; another shape
    raises ValueError. ``rel`` may be a reciprocal relation id for head
    prediction. Every query triple must be present in the filter index,
    otherwise the store and the query disagree and a ValueError naming the
    first such query in input order is raised; a head or relation id
    outside the table raises IndexError. Every query is checked against the
    index first, so when one input has both, the ValueError wins.

    The input is cut, in input order, into blocks of ``BLOCK_ROWS``
    queries, and each block ranks its d distinct ``(head, rel)`` pairs once
    each. One prologue serves every block: one stable argsort of the key
    ``block * pair_span + pair code`` puts each block's repeats of a pair in
    one run, led by the pair's first query, and a second stable argsort, of
    ``2 * block + (not a lead)``, lays out each block's tile rows: its d
    leads, then its repeats, each in pair order. The ids of every lead are
    checked, its ``[q, 1]`` row built and its known answers expanded once.
    The entity columns are cut once into tiles of ``min(BLOCK_SCORES //
    min(k, BLOCK_ROWS), TILE_WIDTH_MAX)`` columns, and a block is scored in
    groups of one tile per lane, all in one :func:`._threads.lanes` scope:
    slot i's tile goes on lane i. One :func:`~star_kge.model.score_batch`
    call per group queues the GEMMs of the block's d pair rows, one tile per
    lane, and then one job per lane, queued behind its GEMM, masks the known
    answers in each pair's row of the tile, copies the ``k - d`` repeats
    into the rest of the tile, and counts every row (a uint16 sum per row,
    which the width cap keeps exact) into the slot's totals while the tile
    is still in cache. Each lane runs its jobs in order, so a slot's tile is
    not rewritten before it is counted, and the call waits for the lanes
    once, when its scope closes. Each query keeps its own bounds: its target
    score ``s_t`` is the row-wise dot product of its pair's ``[q, 1]`` with
    the target's stored column, and the random rule draws once per query,
    in input order, in one call after the scope closes, as calls on the
    ``BLOCK_ROWS`` slices in turn with one generator would. Ties are decided
    up to the GEMM's rounding bound
    ``b_i = gamma_{n+1} sum_k |q_ik| max_e |[E, 1]_ke|``:
    two scores whose exact values are equal differ by at most ``2 b_i``, so
    the pessimistic rank is ``1 + #(s_e >= s_t - 2 b_i)`` and the random
    rule's strictly better rivals are ``#(s_e > s_t + 2 b_i)``. A non-finite
    entity table or bound ``s_t - 2 b_i`` raises ValueError: a NaN score
    would count no rival, so the answer would rank first.
    """
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    query = np.asarray(query, dtype=np.int64)
    if query.ndim not in (1, 2) or query.shape[-1] != 3:
        raise ValueError(f"query must be a (3,) triple or a (k, 3) block, got shape {query.shape}")
    queries = query.reshape(-1, 3)
    k, ne = len(queries), table.num_entities
    base = filter_index._pair_codes(queries)
    # sorted by (block, pair): the rows of block b stay at [b * BLOCK_ROWS, ...), and a
    # lead is the first row of a pair's run, so the first row of every block is one
    block_of = np.arange(k) // BLOCK_ROWS  # each row's block
    key = block_of * (int(base.max(initial=0)) + 1) + base
    order = np.argsort(key, kind="stable")
    lead = _fresh(key[order])
    pair = np.cumsum(lead) - 1  # each row's pair, counted over the whole input
    firsts = np.append(pair[::BLOCK_ROWS], np.count_nonzero(lead))  # each block's first pair, then the end
    local = pair - firsts[block_of]  # a row's pair row in its block's tile
    # a block's tile holds its d pairs in rows 0..d-1, each with its first query,
    # then its repeats in pair order, each a copy of its pair's row
    layout = np.argsort(block_of * 2 + ~lead, kind="stable")  # the sorted row of every tile row
    tile_rows = order[layout]  # the query of every tile row
    pair_rows = pair[layout]  # the pair of every tile row
    copies = local[~lead]  # the pair row that each repeat copies, block after block
    leads = order[lead]  # the first query of every pair
    heads, rels = queries[leads, :2].T
    targets = queries[tile_rows, 2]
    row, answer = filter_index._answers(base[leads])
    cuts = np.searchsorted(row, firsts)  # block b's known answers are row[cuts[b]:cuts[b + 1]]
    with _threads.lanes() as lanes:
        height = max(min(k, BLOCK_ROWS), 1)
        width = max(1, min(ne, BLOCK_SCORES // height, TILE_WIDTH_MAX))
        columns = [slice(c, min(c + width, ne)) for c in range(0, ne, width)]  # every entity tile
        slots = min(lanes.count, len(columns))  # one tile buffer per lane, no more than there are tiles
        scores = np.empty((slots, height * width))
        masks = np.empty((slots, height * width), dtype=bool)
        hom = table._hom_rows
        col_max = np.maximum(hom.max(axis=1), -hom.min(axis=1))  # max_e |[E, 1]_ke|, per coordinate
        if not np.isfinite(col_max).all():
            raise ValueError("the entity table holds a non-finite value, so its ranks would be meaningless")
        # inf in a relation row would warn (inf - inf) part way; it is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            q = _query_rows(table, heads, rels)
            # row sums of C-order (k, n+1) products: the same rounding at any k
            s_true = (q[pair_rows] * hom.T[targets]).sum(axis=1)
            nu = q.shape[1] * np.finfo(np.float64).eps / 2  # (n+1) u, and gamma_{n+1} = nu / (1 - nu)
            slack = (2 * nu / (1 - nu) * (np.abs(q) * col_max).sum(axis=1))[pair_rows]  # 2 b_i
            low = (s_true - slack)[:, None]
            high = (s_true + slack)[:, None]
        finite = np.isfinite(low[:, 0]) & np.isfinite(high[:, 0])
        if not finite.all():
            first = tuple(queries[tile_rows[~finite].min()].tolist())
            raise ValueError(
                f"query {first} has a non-finite score bound: its relation row or its scores are not finite"
            )
        counts = np.zeros((slots, 2, k), dtype=np.int64)  # per slot, per tile row: rivals >= low, > high
        rivals = [(np.greater_equal, low), (np.greater, high)][: 2 if tie_rule == "random" else 1]

        def view(buffer, slot, rows, cols):
            """``slot``'s tile in ``buffer`` for the queries ``rows`` at entity columns ``cols``."""
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            return buffer[slot, : shape[0] * shape[1]].reshape(shape)

        def count(block, group, slot):
            """Add the rivals of ``slot``'s tile of ``block`` in ``group`` into the slot's counts."""
            rows, d, row, answer, repeats = block
            cols = group[slot]
            tile = view(scores, slot, rows, cols)
            inside = (answer >= cols.start) & (answer < cols.stop)
            tile[row[inside], answer[inside] - cols.start] = -np.inf  # the true answer too: it never outranks itself
            np.take(tile[:d], repeats, axis=0, out=tile[d:], mode="clip")  # "clip" writes to out unbuffered
            mask = view(masks, slot, rows, cols)
            for side, (compare, bound) in enumerate(rivals):
                # one uint16 sum of the mask's bytes per row, exact while a tile is at most TILE_WIDTH_MAX wide
                hit = compare(tile, bound[rows], out=mask).view(np.uint8)
                counts[slot, side, rows] += np.add.reduce(hit, axis=1, dtype=np.uint16)

        for b, lo in enumerate(range(0, k, BLOCK_ROWS)):
            rows = slice(lo, min(lo + BLOCK_ROWS, k))
            f0, f1 = firsts[b], firsts[b + 1]
            a0, a1 = cuts[b], cuts[b + 1]
            block = (rows, f1 - f0, row[a0:a1] - f0, answer[a0:a1], copies[lo - f0 : rows.stop - f1])
            for g in range(0, len(columns), slots):
                # slot i's tile is scored, then counted, on lane i: each lane runs its jobs in order
                group = columns[g : g + slots]
                tiles = [(cols, view(scores, i, rows, cols)[: f1 - f0]) for i, cols in enumerate(group)]
                score_batch(table, heads[f0:f1], rels[f0:f1], _tile=(q[f0:f1], tiles, lanes))
                lanes.each(partial(count, block, group), len(group))
    at_least, greater = totals = np.empty((2, k), dtype=np.int64)
    totals[:, tile_rows] = counts.sum(axis=0)  # back to input order
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
    stably by their pair code ``src * 2|R| + rel`` and go to one
    :func:`filtered_rank` call in that pair order, which cuts them into
    blocks of up to ``BLOCK_ROWS`` rows and ranks them all in one
    :func:`._threads.lanes` scope, which holds BLAS to one thread. Each
    block's tiles are split over the scope's lanes, whose count the report
    gives as ``threads``. MRR, Hits@K and the breakdowns are taken over the
    ranks in that same order.
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
    nr = store.num_relations

    queries = reciprocal_queries(triples, nr)
    start = time.perf_counter()
    # pair order, so that the repeats of a (src, rel) pair share a block
    queries = queries[np.argsort(queries[:, 0] * (2 * nr) + queries[:, 1], kind="stable")]
    with _threads.lanes() as scope:  # filtered_rank's scope nests in it, so it ranks on scope.count lanes
        ranks = filtered_rank(queries, table, store.filter_index, tie_rule, np.random.default_rng(0))
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
        threads=scope.count,
    )
