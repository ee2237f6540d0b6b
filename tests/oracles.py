"""Independent oracles used by the tests.

Kept deliberately separate from the package: finite differences, a
sort-based ranking oracle, exact rational scores, a quadratic-time two-hop join, a line-by-line
triple reader and encoder, a dict-of-sets filter index and a dict-of-sets
synthetic-KG generator double-check the production paths without sharing
code with them (the generator shares only the spec classes). A score
through the materialised relation matrix, the homogeneous translation
matrix and the lattice spec of acceptance criterion 6 live here too, since
only tests use them. The whole-matrix training step is the exception: it
shares the block kernels and the penalty terms with the package, because
what it checks is the pass structure of the blocked step, not the kernels.
"""

from fractions import Fraction

import numpy as np

from star_kge.data import TripleStore, Vocab
from star_kge.model import (
    EmbeddingTable,
    RelationParams,
    block_grad,
    block_rotate,
    block_rotate_t,
    homogeneous,
    materialize_star_matrix,
)
from star_kge.regularization import penalty_terms_batch
from star_kge.synthetic import (
    CompositionRule,
    RelationRule,
    SynthResult,
    SynthSpec,
    SynthSpecError,
    _grid_side,
)
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


def init_embeddings_one_shot(num_entities, num_relations, n, model_kind, init_scale, seed):
    """A fresh table from one ``(|E|, n)`` entity draw, then the relation
    draw, then the kind's constraints."""
    rng = np.random.default_rng(seed)
    ent = rng.normal(0.0, init_scale, size=(num_entities, n))
    rc = rng.normal(0.0, init_scale, size=(2 * num_relations, n))
    table = EmbeddingTable(ent, rc, np.zeros_like(rc), num_relations, model_kind)
    table.enforce_kind()
    return table


def score_via_matrix(h, rel: RelationParams, t) -> float:
    """Score through the materialized matrix: [h^T, 1] M [t; 1]."""
    return float(homogeneous(h) @ materialize_star_matrix(rel) @ homogeneous(t))


def translation_matrix(tau) -> np.ndarray:
    """Homogeneous-coordinate matrix [[I, tau], [0, 1]] adding tau to a point."""
    tau = np.asarray(tau, dtype=np.float64)
    n = tau.shape[0]
    m = np.eye(n + 1)
    m[:n, n] = tau
    return m


def apply_translation_matrix(x, tau) -> np.ndarray:
    """Translate x by tau through the homogeneous matrix product: ``x + tau``
    by the matrix route. The trailing homogeneous coordinate stays exactly 1."""
    x = np.asarray(x, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if x.shape != tau.shape:
        raise ValueError("x and tau must have equal length")
    return (translation_matrix(tau) @ homogeneous(x))[:-1]


def exact_scores(table, src, rel) -> list[Fraction]:
    """Exact score of ``(src, rel, e)`` for every entity e: ``[h, 1] M [e, 1]^T``
    through the materialised matrix, in ``fractions.Fraction`` arithmetic on
    the stored float64 values, once per distinct entity vector."""
    m = materialize_star_matrix(table.relation(rel))
    h = [Fraction(x) for x in homogeneous(table.entity_embeddings[src]).tolist()]
    hm = [sum(h[i] * Fraction(m[i, j]) for i in range(len(h))) for j in range(len(h))]
    rows, inverse = np.unique(table.entity_embeddings, axis=0, return_inverse=True)
    distinct = [sum(a * Fraction(x) for a, x in zip(hm, homogeneous(row).tolist())) for row in rows]
    return [distinct[i] for i in inverse.ravel().tolist()]


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


def first_appearance_argsort(key):
    """Dense ids of equal keys in order of first appearance, and the index
    of the first item of every id, from an ``np.argsort`` of the keys and
    one of the runs' first indices."""
    key = np.asarray(key)
    order = np.argsort(key)
    ordered = key[order]
    fresh = np.ones(len(key), dtype=bool)
    fresh[1:] = ordered[1:] != ordered[:-1]
    first = np.minimum.reduceat(order, np.flatnonzero(fresh))
    rank = np.argsort(first)
    id_of_run = np.empty_like(rank)
    id_of_run[rank] = np.arange(len(rank))
    ids = np.empty_like(order)
    ids[order] = id_of_run[np.cumsum(fresh) - 1]
    return ids, first[rank]


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


def encode_frozen_loop(rows, entity_names, relation_names):
    """Encode name rows with a fixed vocabulary, then dedupe.

    Returns ``(encoded, dropped)`` like one split of :func:`encode_loop`, or
    the VocabularyError text: the first unknown head, else the first
    unknown relation, else the first unknown tail.
    """
    ents = {name: i for i, name in enumerate(entity_names)}
    rels = {name: i for i, name in enumerate(relation_names)}
    for col, kind, known in ((0, "entity", ents), (1, "relation", rels), (2, "entity", ents)):
        for row in rows:
            if row[col] not in known:
                return f"unknown {kind} {row[col]!r}"
    ids = [(ents[h], rels[r], ents[t]) for h, r, t in rows]
    kept = list(dict.fromkeys(ids))
    return np.array(kept, dtype=np.int64).reshape(-1, 3), len(ids) - len(kept)


def filter_sets(splits, num_relations):
    """Known answers of every ``(source, relation)`` pair as a dict of sets:
    tails of ``(h, r)`` and heads of ``(t, r + num_relations)`` over all splits."""
    known = {}
    for triples in splits:
        for h, r, t in np.asarray(triples, dtype=np.int64).reshape(-1, 3).tolist():
            known.setdefault((h, r), set()).add(t)
            known.setdefault((t, r + num_relations), set()).add(h)
    return known


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


def grid_composition_spec(
    side: int = 14,
    offset: tuple[int, int] = (1, 0),
    quarter_turns: int = 1,
    seed: int = 0,
    holdout_fraction: float = 0.2,
    paired_holdout_fraction: float = 0.0,
) -> SynthSpec:
    """A lattice KG with one non-commuting relation pair and both composed orders.

    ``turn`` rotates the lattice about its center, ``shift`` translates by
    ``offset``; ``turn_then_shift`` and ``shift_then_turn`` are the two
    composition orders, which land on different cells for every head (the
    rotated offset differs from the offset). With a half turn
    (``quarter_turns=2``) both composed relations are involutions, so their
    edges come in mirror pairs and the paired-holdout knob controls how many
    held-out facts keep a recoverable twin in train.
    """
    return SynthSpec(
        num_entities=side * side,
        relations=[
            RelationRule("turn", "grid_rotation", quarter_turns=quarter_turns),
            RelationRule("shift", "grid_translation", offset=offset),
            RelationRule("turn_then_shift", "composed"),
            RelationRule("shift_then_turn", "composed"),
        ],
        compositions=[
            CompositionRule("turn", "shift", "turn_then_shift", commutes=False),
            CompositionRule("shift", "turn", "shift_then_turn", commutes=False),
        ],
        seed=seed,
        holdout_fraction=holdout_fraction,
        paired_holdout_fraction=paired_holdout_fraction,
    )


# reference synthetic-KG generator ---------------------------------------------
#
# The dict-of-sets generator that star_kge.synthetic replaced, kept as the
# parity reference: relations are dicts of sets, compositions triple-nested
# loops, and an audit pass re-checks the symmetric and inverse rules edge by
# edge. Its class body is unchanged apart from the name.


def _rotate_cell(cell, side, quarter_turns):
    """Rotate a lattice cell about the grid center by 90-degree steps."""
    i, j = cell
    for _ in range(quarter_turns % 4):
        i, j = j, side - 1 - i
    return i, j


def _shift_cell(cell, offset):
    return cell[0] + offset[0], cell[1] + offset[1]


def _in_grid(cell, side):
    return 0 <= cell[0] < side and 0 <= cell[1] < side


class DictOfSetsGenerator:
    def __init__(self, spec: SynthSpec):
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        self.maps: dict[str, dict[int, set[int]]] = {}
        self.uses_grid = any(r.kind.startswith("grid_") for r in spec.relations)
        self.side = _grid_side(spec.num_entities) if self.uses_grid else 0

    def _cell_of(self, e: int):
        return divmod(e, self.side)

    def _id_of(self, cell) -> int:
        return cell[0] * self.side + cell[1]

    def _base_pairs(self, rule: RelationRule) -> dict[int, set[int]]:
        ne = self.spec.num_entities
        rng = self.rng
        pairs: dict[int, set[int]] = {}
        if rule.kind == "grid_rotation":
            for e in range(ne):
                pairs[e] = {self._id_of(_rotate_cell(self._cell_of(e), self.side, rule.quarter_turns))}
        elif rule.kind == "grid_translation":
            for e in range(ne):
                target = _shift_cell(self._cell_of(e), rule.offset)
                if _in_grid(target, self.side):
                    pairs[e] = {self._id_of(target)}
        elif rule.kind == "permutation":
            perm = rng.permutation(ne)
            for e in range(ne):
                pairs[e] = {int(perm[e])}
        elif rule.kind == "fan_in":
            need = rule.num_tails * (rule.heads_per_tail + 1)
            if need > ne:
                raise SynthSpecError(
                    f"fan_in rule {rule.name!r} needs {need} entities, have {ne}"
                )
            chosen = rng.choice(ne, size=need, replace=False)
            for g in range(rule.num_tails):
                block = chosen[g * (rule.heads_per_tail + 1) : (g + 1) * (rule.heads_per_tail + 1)]
                tail = int(block[0])
                for head in block[1:]:
                    pairs.setdefault(int(head), set()).add(tail)
        elif rule.kind == "symmetric":
            if 2 * rule.num_pairs > ne:
                raise SynthSpecError(f"symmetric rule {rule.name!r} needs more entities")
            chosen = rng.choice(ne, size=2 * rule.num_pairs, replace=False)
            for k in range(rule.num_pairs):
                a, b = int(chosen[2 * k]), int(chosen[2 * k + 1])
                pairs.setdefault(a, set()).add(b)
                pairs.setdefault(b, set()).add(a)
        elif rule.kind == "inverse_of":
            src = self.maps.get(rule.of)
            if src is None:
                raise SynthSpecError(
                    f"relation {rule.name!r} is inverse_of unknown or later relation {rule.of!r}"
                )
            for h, tails in src.items():
                for t in tails:
                    pairs.setdefault(t, set()).add(h)
        elif rule.kind == "composed":
            pass  # populated by composition rules
        return pairs

    def _compose(self, first: str, second: str) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {}
        f, s = self.maps[first], self.maps[second]
        for e1, mids in f.items():
            for e2 in mids:
                for e3 in s.get(e2, ()):
                    out.setdefault(e1, set()).add(e3)
        return out

    def build(self) -> SynthResult:
        spec = self.spec
        composed_names = set()
        for rule in spec.relations:
            self.maps[rule.name] = self._base_pairs(rule)
            if rule.kind == "composed":
                composed_names.add(rule.name)

        by_name = {r.name for r in spec.relations}
        for comp in spec.compositions:
            for name in (comp.first, comp.second, comp.composed):
                if name not in by_name:
                    raise SynthSpecError(f"composition references unknown relation {name!r}")
            if comp.composed not in composed_names:
                raise SynthSpecError(
                    f"composition target {comp.composed!r} must have kind 'composed'"
                )
            chains = self._compose(comp.first, comp.second)
            if comp.commutes:
                swapped = self._compose(comp.second, comp.first)
                if chains != swapped:
                    raise SynthSpecError(
                        f"{comp.first!r} and {comp.second!r} are declared commuting "
                        "but their composition orders disagree"
                    )
            for h, tails in chains.items():
                self.maps[comp.composed].setdefault(h, set()).update(tails)
        for name in composed_names:
            if not self.maps[name]:
                raise SynthSpecError(f"composed relation {name!r} received no triples")

        self._audit()

        vocab = Vocab(
            [f"e{k:04d}" for k in range(spec.num_entities)], [r.name for r in spec.relations]
        )
        rel_id = {r.name: k for k, r in enumerate(spec.relations)}
        all_triples: list[tuple[int, int, int]] = []
        holdout_eligible: list[int] = []
        for rule in spec.relations:
            rid = rel_id[rule.name]
            for h in sorted(self.maps[rule.name]):
                for t in sorted(self.maps[rule.name][h]):
                    if rule.name in composed_names:
                        holdout_eligible.append(len(all_triples))
                    all_triples.append((h, rid, t))

        triples = np.array(all_triples, dtype=np.int64).reshape(-1, 3)
        held = self._pick_holdout(triples, holdout_eligible)
        held_idx = np.flatnonzero(held)
        valid_idx = held_idx[0::2]
        test_idx = held_idx[1::2]
        train_idx = np.flatnonzero(~held)

        store = TripleStore(vocab, triples[train_idx], triples[valid_idx], triples[test_idx])
        discriminating = self._mark_discriminating(triples[test_idx], rel_id)
        train_set = {tuple(row) for row in triples[train_idx].tolist()}
        hard = np.array(
            [(t, r, h) not in train_set for h, r, t in triples[test_idx].tolist()], dtype=bool
        )
        manifest = {
            "num_entities": spec.num_entities,
            "relations": [r.name for r in spec.relations],
            "seed": spec.seed,
            "holdout_fraction": spec.holdout_fraction,
            "splits": {
                "train": int(len(train_idx)),
                "valid": int(len(valid_idx)),
                "test": int(len(test_idx)),
            },
            "discriminating_test_queries": int(discriminating.sum()),
            "mirror_free_test_triples": int(hard.sum()),
        }
        return SynthResult(store, spec, discriminating, manifest, test_mirror_free=hard)

    def _pick_holdout(self, triples: np.ndarray, eligible: list[int]) -> np.ndarray:
        """Choose held-out rows, controlling how many lose their mirror twin too.

        A paired pick removes both (h, r, t) and (t, r, h); a single pick
        keeps the mirror edge in train (when one exists).
        """
        spec = self.spec
        held = np.zeros(len(triples), dtype=bool)
        if spec.holdout_fraction == 0 or not eligible:
            return held
        index_of = {tuple(row): i for i, row in enumerate(triples.tolist())}
        target = int(round(spec.holdout_fraction * len(eligible)))
        pair_budget = int(round(spec.paired_holdout_fraction * target))
        order = self.rng.permutation(np.array(eligible))
        picked = 0
        paired = 0
        for idx in order:
            if picked >= target:
                break
            if held[idx]:
                continue
            h, r, t = triples[idx].tolist()
            mirror = index_of.get((t, r, h)) if h != t else None
            mirror_available = mirror is not None and not held[mirror]
            if paired + 2 <= pair_budget and mirror_available and picked + 2 <= target:
                held[idx] = held[mirror] = True
                picked += 2
                paired += 2
            elif mirror is None or not held[mirror]:
                held[idx] = True
                picked += 1
        return held

    def _audit(self):
        """Generated triples must satisfy every declared rule."""
        for rule in self.spec.relations:
            pairs = self.maps[rule.name]
            if rule.kind == "symmetric":
                for h, tails in pairs.items():
                    for t in tails:
                        if h not in pairs.get(t, set()):
                            raise SynthSpecError(
                                f"symmetric relation {rule.name!r} misses ({t}, {h})"
                            )
            if rule.kind == "inverse_of":
                src = self.maps[rule.of]
                for h, tails in src.items():
                    for t in tails:
                        if h not in pairs.get(t, set()):
                            raise SynthSpecError(
                                f"inverse relation {rule.name!r} misses ({t}, {h})"
                            )

    def _mark_discriminating(self, test_triples: np.ndarray, rel_id: dict[str, int]) -> np.ndarray:
        """Tag held-out composed queries whose two application orders disagree."""
        flags = np.zeros(len(test_triples), dtype=bool)
        swapped_answers: dict[int, dict[int, set[int]]] = {}
        for comp in self.spec.compositions:
            if comp.commutes:
                continue
            rid = rel_id[comp.composed]
            swapped_answers[rid] = self._compose(comp.second, comp.first)
        for k, (h, r, t) in enumerate(test_triples.tolist()):
            other = swapped_answers.get(r)
            if other is None:
                continue
            alt = other.get(h, set())
            if alt and alt != self.maps[self.spec.relations[r].name].get(h, set()):
                flags[k] = True
        return flags
