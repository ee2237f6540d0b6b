"""Independent oracles used by the tests.

Kept deliberately separate from the package: finite differences, a
sort-based ranking oracle, a quadratic-time two-hop join and a line-by-line
triple reader double-check the production paths without sharing code with
them. The whole-matrix training step is the exception: it shares the block
kernels and the penalty terms with the package, because what it checks is
the pass structure of the blocked step, not the kernels.
"""

import numpy as np

from star_kge.model import block_grad, block_rotate, block_rotate_t
from star_kge.regularization import penalty_terms_batch
from star_kge.training import ADAGRAD_EPS, BatchGradients, DivergenceError


def central_diff(f, x0, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        x = x0.copy()
        x.flat[i] = x0.flat[i] + step
        fp = f(x)
        x.flat[i] = x0.flat[i] - step
        fm = f(x)
        g.flat[i] = (fp - fm) / (2.0 * step)
    return g


def gradient_rel_error(analytic, fd):
    """Max absolute deviation scaled by the gradient's own magnitude."""
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    denom = max(float(np.abs(analytic).max(initial=0.0)), float(np.abs(fd).max(initial=0.0)), 1e-12)
    return float(np.abs(analytic - fd).max(initial=0.0)) / denom


def sort_rank(scores, true_idx, excluded, tie_rule="pessimistic", rng=None):
    """Rank of the true candidate by explicit sorting (not counting).

    Pessimistic: the true candidate sorts after every equal-scored rival.
    Random: candidate order is shuffled before a stable sort by score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    candidates = [i for i in range(len(scores)) if i == true_idx or i not in excluded]
    if tie_rule == "random":
        assert rng is not None
        rng.shuffle(candidates)
    # stable sort: descending score; among equals the true candidate goes last
    # under the pessimistic rule, or keeps its shuffled slot under random
    if tie_rule == "pessimistic":
        candidates.sort(key=lambda i: (-scores[i], i == true_idx))
    else:
        candidates.sort(key=lambda i: -scores[i])
    return candidates.index(true_idx) + 1


def classify_relations_loop(triples, num_relations, threshold=1.5):
    """Relation classes by one full-mask pass per relation.

    Returns ``(classified, missing)``: ``(rid, tphr, hptr, label)`` for every
    relation with train triples, in id order, and the ids of the others.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    heads, rels, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    classified, missing = [], []
    for rid in range(num_relations):
        mask = rels == rid
        n = int(mask.sum())
        if n == 0:
            missing.append(rid)
            continue
        tphr = n / len(np.unique(heads[mask]))
        hptr = n / len(np.unique(tails[mask]))
        many_tails, many_heads = tphr > threshold, hptr > threshold
        label = {
            (False, False): "1-to-1",
            (True, False): "1-to-N",
            (False, True): "N-to-1",
            (True, True): "N-to-N",
        }[(many_tails, many_heads)]
        classified.append((rid, tphr, hptr, label))
    return classified, missing


def read_triples_loop(path):
    """(head, relation, tail) name tuples by iterating the file line by line.

    Universal newlines, blank lines skipped; a line without exactly three
    tab-separated fields raises ValueError naming the file and line number.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            rows.append(tuple(parts))
    return rows


def encode_loop(splits):
    """Grow a vocabulary name by name over the splits, then dedupe each split.

    Returns ``(entity_names, relation_names, encoded, dropped)``: ``encoded``
    holds one ``(k, 3)`` id array per split with first occurrences kept in
    order, ``dropped`` the number of duplicate lines of each split.
    """
    ents, rels = {}, {}
    encoded, dropped = [], []
    for rows in splits:
        ids = [
            (ents.setdefault(h, len(ents)), rels.setdefault(r, len(rels)), ents.setdefault(t, len(ents)))
            for h, r, t in rows
        ]
        kept = list(dict.fromkeys(ids))
        encoded.append(np.array(kept, dtype=np.int64).reshape(-1, 3))
        dropped.append(len(ids) - len(kept))
    return list(ents), list(rels), encoded, dropped


def brute_force_two_paths(triples, num_relations, exclude_degenerate=False):
    """Quadratic join over all triple pairs sharing a middle entity."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    counts = np.zeros((num_relations, num_relations), dtype=np.int64)
    for h1, r1, t1 in triples.tolist():
        for h2, r2, t2 in triples.tolist():
            if t1 != h2:
                continue
            if exclude_degenerate and (h1 == t1 or h2 == t2 or h1 == t2):
                continue
            counts[r1, r2] += 1
    return counts


def batch_loss_whole(batch, table, config, tail_weights=None, head_weights=None):
    """The training step in whole-matrix passes: one fresh score matrix, six
    full passes over it and the transposed backward GEMM ``dS^T Q``."""
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    ents = table.entity_embeddings
    h, r, t = batch[:, 0], batch[:, 1], batch[:, 2]
    src = np.concatenate([h, t])
    rel = np.concatenate([r, r + table.num_relations])
    tgt = np.concatenate([t, h])
    nq = len(src)

    if tail_weights is None and head_weights is None:
        w = np.ones(nq)
    else:
        tw = np.ones(table.num_entities) if tail_weights is None else tail_weights
        hw = np.ones(table.num_entities) if head_weights is None else head_weights
        m = len(batch)
        w = np.concatenate([tw[tgt[:m]], hw[tgt[m:]]])

    H = ents[src]
    RC = table.rel_c[rel]
    TAU = table.rel_tau[rel]
    T = ents[tgt]

    Q = block_rotate_t(RC, H) + TAU
    scores = Q @ ents.T
    rows = np.arange(nq)
    tgt_scores = scores[rows, tgt].copy()
    smax = scores.max(axis=1)
    scores -= smax[:, None]
    np.exp(scores, out=scores)
    row_sums = scores.sum(axis=1)
    ce = smax + np.log(row_sums) - tgt_scores

    reg_vals, reg_dH, reg_dT, reg_dRC, reg_dTAU = penalty_terms_batch(H, T, RC, TAU, config.reg)
    lam = config.reg.lam if config.reg.kind != "none" else 0.0
    loss = float((w @ ce + lam * reg_vals.sum()) / nq)
    if not np.isfinite(loss):
        raise DivergenceError("non-finite batch loss")

    dS = scores
    dS /= row_sums[:, None]
    dS[rows, tgt] -= 1.0
    dS *= (w / nq)[:, None]

    d_entities = dS.T @ Q
    V = dS @ ents
    scale = lam / nq
    np.add.at(d_entities, src, block_rotate(RC, V) + scale * reg_dH)
    np.add.at(d_entities, tgt, scale * reg_dT)
    d_rel_c = np.zeros_like(table.rel_c)
    d_rel_tau = np.zeros_like(table.rel_tau)
    np.add.at(d_rel_c, rel, block_grad(H, V) + scale * reg_dRC)
    np.add.at(d_rel_tau, rel, V + scale * reg_dTAU)
    return loss, BatchGradients(d_entities, d_rel_c, d_rel_tau)


def adagrad_update_whole(param, grad, accumulator, lr):
    """In-place Adagrad step over the whole table at once."""
    accumulator += grad * grad
    param -= lr * grad / np.sqrt(accumulator + ADAGRAD_EPS)
