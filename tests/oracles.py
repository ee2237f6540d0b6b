"""Independent oracles used by the tests.

Kept deliberately separate from the package: finite differences, a
sort-based ranking oracle and a quadratic-time two-hop join double-check
the production paths without sharing code with them.
"""

import numpy as np


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
