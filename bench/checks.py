"""Correctness oracles the benchmark runs on every run.

They share no code with the package's fast paths: scores come from the
materialised (n+1) x (n+1) relation matrices, filters from an index built
from the generated triples, ranks from a sort, and two-path counts from a
quadratic join. Each function returns ``(ok, detail)``.
"""

from __future__ import annotations

import numpy as np
from star_kge import RegConfig, TrainConfig, batch_loss, filtered_rank, materialize_star_matrix

from graphs import Graph

#: tolerance of the loss oracle, relative to max(1, |loss|); loose enough for
#: a float32 score path (float32 eps is 1.2e-7, a 40,943-term log-sum-exp
#: loses a few hundred of those at most)
LOSS_RTOL = 1e-4
#: largest |ri| * |rj| product a sampled pair may have, so that the
#: quadratic join stays well under a second
JOIN_BUDGET = 2e7


def _ids(names, package_names):
    """Package id of each name; -1 for a name the package lacks."""
    index = {name: i for i, name in enumerate(package_names)}
    return np.array([index.get(n, -1) for n in names], dtype=np.int64)


def _augmented(entities):
    return np.hstack([entities, np.ones((entities.shape[0], 1))])


def oracle_scores(table, src_rows, rel_rows):
    """Scores of every entity for each (source row, relation row) query,
    through [h, 1] M [e, 1] on the materialised matrices."""
    ents = _augmented(table.entity_embeddings)
    q = np.stack(
        [ents[s] @ materialize_star_matrix(table.relation(int(r))) for s, r in zip(src_rows, rel_rows)]
    )
    return q @ ents.T


def sort_rank(scores, true_idx, excluded) -> int:
    """Rank by an explicit sort; the true answer sorts after equal rivals."""
    keep = np.ones(len(scores), dtype=bool)
    keep[list(excluded)] = False
    keep[true_idx] = True
    cand = np.flatnonzero(keep)
    order = np.lexsort((cand == true_idx, -scores[cand]))
    return int(np.flatnonzero(cand[order] == true_idx)[0]) + 1


def check_ranks(graph, store, table, rng, num_triples):
    """Package ranks of sampled test queries, both directions, equal the oracle."""
    ent = _ids(graph.entity_names, store.vocab.entity_names)
    rel = _ids(graph.relation_names, store.vocab.relation_names)
    nr = graph.num_relations
    every = graph.all_triples()
    picks = graph.test[rng.choice(len(graph.test), size=min(num_triples, len(graph.test)), replace=False)]
    queries, answers = [], []
    for h, r, t in picks.tolist():
        tails = every[(every[:, 0] == h) & (every[:, 1] == r), 2]
        heads = every[(every[:, 2] == t) & (every[:, 1] == r), 0]
        queries.append((ent[h], rel[r], ent[t]))
        answers.append(set(ent[tails].tolist()))
        queries.append((ent[t], rel[r] + nr, ent[h]))
        answers.append(set(ent[heads].tolist()))
    scores = oracle_scores(table, [q[0] for q in queries], [q[1] for q in queries])
    bad = []
    for k, (q, known) in enumerate(zip(queries, answers)):
        got = filtered_rank(q, table, store.filter_index)
        want = sort_rank(scores[k], q[2], known - {q[2]})
        if got != want:
            bad.append((q, got, want))
    return not bad, f"{len(bad)} of {len(queries)} ranks differ: {bad[:3]}"


def check_loss(store, table, rng, batch_size):
    """Unregularised loss of a fixed batch equals the mean cross-entropy
    recomputed from the materialised matrices."""
    batch = store.train[rng.choice(len(store.train), size=min(batch_size, len(store.train)), replace=False)]
    got, _ = batch_loss(batch, table, TrainConfig(n=table.n, epochs=1, reg=RegConfig()))
    h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]
    src = np.concatenate([h, t])
    rel = np.concatenate([r, r + store.num_relations])
    tgt = np.concatenate([t, h])
    scores = oracle_scores(table, src, rel)
    top = scores.max(axis=1)
    lse = top + np.log(np.exp(scores - top[:, None]).sum(axis=1))
    want = float(np.mean(lse - scores[np.arange(len(tgt)), tgt]))
    ok = abs(got - want) <= LOSS_RTOL * max(1.0, abs(want))
    return ok, f"batch loss {got!r} vs oracle {want!r}"


def check_round_trip(saved, loaded):
    """A checkpoint load returns exactly the bytes that were saved."""
    same = (
        saved.model_kind == loaded.model_kind
        and saved.num_relations == loaded.num_relations
        and all(
            a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in (
                (saved.entity_embeddings, loaded.entity_embeddings),
                (saved.rel_c, loaded.rel_c),
                (saved.rel_tau, loaded.rel_tau),
            )
        )
    )
    return same, "checkpoint round trip is not bit-exact"


def join_pairs(graph: Graph, rng, count):
    """Seeded relation pairs whose join fits :data:`JOIN_BUDGET`; a symmetric
    relation with itself comes first, so that e1 = e3 chains are checked."""
    sizes = np.bincount(graph.train[:, 1], minlength=graph.num_relations)
    fits = [(i, j) for i in range(graph.num_relations) for j in range(graph.num_relations)
            if 0 < sizes[i] * sizes[j] <= JOIN_BUDGET]
    pairs = [(i, i) for i in np.flatnonzero(graph.symmetric).tolist() if (i, i) in fits][:1]
    rest = [p for p in fits if p not in pairs]
    picks = rng.choice(len(rest), size=min(count, len(rest)), replace=False)
    return pairs + [rest[k] for k in sorted(picks.tolist())]


def quadratic_join(train, i, j, exclude_degenerate):
    """Chains (e1, ri, e2), (e2, rj, e3) by comparing every triple pair."""
    a = train[train[:, 1] == i]
    b = train[train[:, 1] == j]
    total = 0
    step = max(1, int(4e6 // max(len(b), 1)))
    for lo in range(0, len(a), step):
        ah, at = a[lo : lo + step, 0][:, None], a[lo : lo + step, 2][:, None]
        hit = at == b[None, :, 0]
        if exclude_degenerate:
            hit &= (ah != at) & (b[None, :, 0] != b[None, :, 2]) & (ah != b[None, :, 2])
        total += int(hit.sum())
    return total


def check_two_paths(graph, pair_counts, relation_names, pairs):
    """Counts of ``pair_counts`` (relations ordered as ``relation_names``)
    equal the join."""
    rel = _ids(graph.relation_names, relation_names)
    bad = []
    for i, j in pairs:
        got = int(pair_counts.counts[rel[i], rel[j]])
        want = quadratic_join(graph.train, i, j, pair_counts.degenerate_excluded)
        if got != want:
            bad.append(((i, j), got, want))
    return not bad, f"{len(bad)} of {len(pairs)} pair counts differ: {bad}"
