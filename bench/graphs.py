"""Seeded knowledge graphs with the shape of WN18RR.

A graph is generated from a seed alone: entity and relation counts and the
train/valid/test sizes are exact, no triple occurs twice across the splits,
and no triple is a self-loop. Skew follows the real dataset where its
figures are published, and is stated as assumed where they are not:

* published (WN18RR as released by Dettmers et al., AAAI 2018): entity,
  relation and split counts, the train triples of each relation, and which
  relations are symmetric, so the e1 = e3 exclusion of the two-path
  analysis does real work;
* assumed: each relation's complexity class (all four occur), Zipf entity
  popularity (:data:`POPULARITY_EXPONENT`) from which each relation draws
  its head and tail pools, so entity degree is heavy-tailed, and the mean
  fan-out of each "many" side (:func:`_fans`), which a "many" side fills by
  repeating a pool of hubs with Zipf multiplicities while a "one" side uses
  each entity once.

After the split every entity appears in train, except a stated share
(``UNSEEN_SHARE``) that appears only in valid or test: a plain Zipf draw
leaves about a fifth of the WN entities out of train, which distorts
evaluation. The program under test sees only the TSV files written by
:func:`write_tsv`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ONE_TO_ONE, ONE_TO_N, N_TO_ONE, N_TO_N = "1-to-1", "1-to-N", "N-to-1", "N-to-N"

#: share of entities that appear only in valid/test (real WN18RR: about 0.5%)
UNSEEN_SHARE = 0.002
#: Zipf exponent of entity popularity and of hub multiplicities
POPULARITY_EXPONENT = 1.0
HUB_EXPONENT = 1.0


@dataclass(frozen=True)
class RelSpec:
    name: str
    size: int  # triples over all three splits
    label: str  # planned complexity class
    symmetric: bool
    fan: float  # mean triples per entity on a "many" side


def _fans(layout, labels):
    """Fixed per-relation fan-outs (assumed): hubs of 1-to-N/N-to-1 relations
    hold 3-30 answers on average, N-to-N entities 2.5-8. They belong to the
    shape, so graphs of different seeds have the same structure and cost."""
    hub = layout.uniform(3.0, 30.0, size=len(labels))
    many = layout.uniform(2.5, 8.0, size=len(labels))
    return np.where(np.asarray(labels) == N_TO_N, many, hub)


@dataclass(frozen=True)
class Shape:
    name: str
    num_entities: int
    splits: tuple[int, int, int]  # train, valid, test
    relations: tuple[RelSpec, ...]
    entity_prefix: str

    @property
    def num_triples(self) -> int:
        return sum(self.splits)


@dataclass
class Graph:
    """Generated triples in generator ids, plus the names written to disk."""

    shape: Shape
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    entity_names: list[str]
    relation_names: list[str]
    symmetric: np.ndarray  # bool per relation

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def all_triples(self) -> np.ndarray:
        return np.concatenate([self.train, self.valid, self.test])


def _apportion(weights, total, minimum, even):
    """Integer sizes proportional to ``weights`` that sum to ``total`` exactly;
    entries flagged ``even`` (symmetric relations) stay even."""
    w = np.asarray(weights, dtype=np.float64)
    sizes = np.maximum(np.floor(w / w.sum() * total).astype(np.int64), minimum)
    sizes[even] += sizes[even] % 2
    free = np.flatnonzero(~even)
    sizes[free[np.argmax(sizes[free])]] += total - sizes.sum()
    return sizes


def wn18rr_shape(scale: float = 1.0) -> Shape:
    """WN18RR: 40,943 entities, 11 relations, 86,835/3,034/3,134 triples.

    Relation shares follow the real train split, and the four symmetric
    relations are the real ones; the classes are assumed. ``scale`` < 1
    gives the tiny graphs of the smoke mode.
    """
    rels = [
        ("_hypernym", 34796, N_TO_ONE, False),
        ("_derivationally_related_form", 29715, ONE_TO_ONE, True),
        ("_member_meronym", 7402, ONE_TO_N, False),
        ("_has_part", 4816, ONE_TO_N, False),
        ("_synset_domain_topic_of", 3116, N_TO_ONE, False),
        ("_instance_hypernym", 2921, N_TO_ONE, False),
        ("_also_see", 1299, N_TO_N, True),
        ("_verb_group", 1138, ONE_TO_ONE, True),
        ("_member_of_domain_region", 923, ONE_TO_N, False),
        ("_member_of_domain_usage", 629, ONE_TO_N, False),
        ("_similar_to", 80, ONE_TO_ONE, True),
    ]
    splits = tuple(max(int(round(s * scale)), 8) for s in (86835, 3034, 3134))
    sizes = _apportion(
        [r[1] for r in rels], sum(splits), 12, np.array([r[3] for r in rels])
    )
    return Shape(
        "wn18rr",
        max(int(round(40943 * scale)), 60),
        splits,
        tuple(
            RelSpec(n, int(s), lab, sym, float(fan))
            for (n, _, lab, sym), s, fan in zip(rels, sizes, _fans(np.random.default_rng(11), [r[2] for r in rels]))
        ),
        "0",
    )



# generation ---------------------------------------------------------------------


def _pool(rng, log_pop, k, exclude=None):
    """``k`` distinct entities, biased to popular ones (Gumbel top-k)."""
    keys = log_pop + rng.gumbel(size=log_pop.shape[0])
    if exclude is not None:
        keys[exclude] = -np.inf
    return np.argpartition(-keys, k - 1)[:k]


def _hub_side(rng, pool, n):
    """``n`` draws over ``pool`` with Zipf multiplicities, in random order."""
    p = np.arange(1, len(pool) + 1, dtype=np.float64) ** -HUB_EXPONENT
    counts = rng.multinomial(n, p / p.sum())
    out = np.repeat(pool, counts)
    rng.shuffle(out)
    return out


def _fix_self_loops(rng, heads, tails, swap_heads):
    """Swap endpoints on the "one" side until no triple is a self-loop.

    Swapping within one side keeps both sides' multisets, so the planned
    class and the distinctness of the "one" side survive.
    """
    side = heads if swap_heads else tails
    for _ in range(100):
        loops = np.flatnonzero(heads == tails)
        if len(loops) == 0:
            return
        partners = rng.integers(0, len(heads), size=len(loops))
        for i, j in zip(loops.tolist(), partners.tolist()):
            side[i], side[j] = side[j], side[i]
    raise RuntimeError("could not remove self-loops")


def _unique_pairs(rng, draw, n, symmetric):
    """Draw unique, loop-free pairs with ``draw(k) -> (a, b)`` until ``n`` exist."""
    pairs = np.empty((0, 2), dtype=np.int64)
    for _ in range(200):
        a, b = draw(max(2 * (n - len(pairs)), 64))
        cand = np.stack([a, b], axis=1)
        cand = cand[cand[:, 0] != cand[:, 1]]
        if symmetric:
            cand.sort(axis=1)
        merged = np.concatenate([pairs, cand])
        _, first = np.unique(merged, axis=0, return_index=True)
        pairs = merged[np.sort(first)]
        if len(pairs) >= n:
            return pairs[:n]
    raise RuntimeError(f"relation pool too small for {n} unique pairs")


def _relation_triples(rng, log_pop, spec: RelSpec):
    """(h, t) pairs of one relation with its planned class."""
    n = spec.size // 2 if spec.symmetric else spec.size
    ne = log_pop.shape[0]
    if spec.label == ONE_TO_ONE:
        if spec.symmetric:
            # disjoint halves keep every entity once per side after mirroring
            pool = _pool(rng, log_pop, 2 * n)
            pairs = np.stack([pool[:n], pool[n:]], axis=1)
        else:
            heads = _pool(rng, log_pop, n)
            tails = rng.permutation(_pool(rng, log_pop, n))
            _fix_self_loops(rng, heads, tails, swap_heads=False)
            pairs = np.stack([heads, tails], axis=1)
    elif spec.label in (ONE_TO_N, N_TO_ONE):
        hub_pool = _pool(rng, log_pop, max(1, int(n / spec.fan)))
        hubs = _hub_side(rng, hub_pool, n)
        # with few hubs a swap cannot clear a self-loop, so keep them apart
        ones = _pool(rng, log_pop, n, exclude=hub_pool if ne - len(hub_pool) >= n else None)
        if spec.label == ONE_TO_N:
            _fix_self_loops(rng, hubs, ones, swap_heads=False)
            pairs = np.stack([hubs, ones], axis=1)
        else:
            _fix_self_loops(rng, ones, hubs, swap_heads=True)
            pairs = np.stack([ones, hubs], axis=1)
    else:
        k = min(ne, max(3, int(np.ceil(n / spec.fan)), int(np.ceil(np.sqrt(4 * n)))))
        head_pool = _pool(rng, log_pop, k)
        tail_pool = head_pool if spec.symmetric else _pool(rng, log_pop, k)
        ph = np.arange(1, len(head_pool) + 1, dtype=np.float64) ** -HUB_EXPONENT
        pt = np.arange(1, len(tail_pool) + 1, dtype=np.float64) ** -HUB_EXPONENT
        # flatten the tails of the Zipf so pools this dense still have room
        ph, pt = np.sqrt(ph), np.sqrt(pt)

        def draw(k):
            return (
                head_pool[rng.choice(len(head_pool), size=k, p=ph / ph.sum())],
                tail_pool[rng.choice(len(tail_pool), size=k, p=pt / pt.sum())],
            )

        pairs = _unique_pairs(rng, draw, n, spec.symmetric)
    if spec.symmetric:
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
    return pairs


def _cover_train(rng, train, held_out, sym, label_of, num_entities, unseen_target):
    """Rewire "one"-side train endpoints so that every entity is in train,
    except up to ``unseen_target`` entities that occur in valid/test only.

    An endpoint is rewired only when its entity keeps another train
    occurrence, so no entity is uncovered by the repair.
    """
    in_train = np.zeros(num_entities, dtype=bool)
    in_train[train[:, 0]] = True
    in_train[train[:, 2]] = True
    in_held = np.zeros(num_entities, dtype=bool)
    in_held[held_out[:, 0]] = True
    in_held[held_out[:, 2]] = True
    missing = np.flatnonzero(~in_train)
    keep_unseen = rng.permutation(missing[in_held[missing]])[:unseen_target]
    todo = rng.permutation(np.setdiff1d(missing, keep_unseen))

    m = len(train)
    ents = np.concatenate([train[:, 0], train[:, 2]])
    order = rng.permutation(2 * m)
    first = np.zeros(2 * m, dtype=bool)
    _, first_pos = np.unique(ents[order], return_index=True)
    first[order[first_pos]] = True
    rel = train[:, 1]
    labels = label_of[rel]
    head_ok = (labels == N_TO_ONE) | (labels == ONE_TO_ONE) | (labels == N_TO_N)
    tail_ok = (labels == ONE_TO_N) | (labels == ONE_TO_ONE) | (labels == N_TO_N)
    slot_ok = np.concatenate([head_ok, tail_ok]) & ~np.concatenate([sym[rel], sym[rel]]) & ~first
    slots = rng.permutation(np.flatnonzero(slot_ok))
    if len(slots) < len(todo):
        raise RuntimeError("not enough train endpoints to cover every entity")
    held_keys = set(map(tuple, held_out.tolist()))
    train = train.copy()
    used = 0
    for e in todo.tolist():
        while True:
            s = int(slots[used])
            used += 1
            row, col = s % m, (0 if s < m else 2)
            cand = train[row].copy()
            cand[col] = e
            if tuple(cand.tolist()) not in held_keys:
                train[row] = cand
                break
    return train


def generate(shape: Shape, seed: int) -> Graph:
    """Generate one graph of ``shape``; the same seed gives the same graph."""
    rng = np.random.default_rng([seed, len(shape.relations), shape.num_entities])
    ne = shape.num_entities
    pop = np.arange(1, ne + 1, dtype=np.float64) ** -POPULARITY_EXPONENT
    log_pop = np.log(pop)[rng.permutation(ne)]
    parts = []
    for rid, spec in enumerate(shape.relations):
        pairs = _relation_triples(rng, log_pop, spec)
        parts.append(np.stack([pairs[:, 0], np.full(len(pairs), rid), pairs[:, 1]], axis=1))
    triples = np.concatenate(parts).astype(np.int64)
    if len(triples) != shape.num_triples:
        raise RuntimeError(f"generated {len(triples)} triples, expected {shape.num_triples}")
    triples = triples[rng.permutation(len(triples))]
    n_train, n_valid, _ = shape.splits
    train, held = triples[:n_train], triples[n_train:]
    sym = np.array([r.symmetric for r in shape.relations])
    label_of = np.array([r.label for r in shape.relations])
    train = _cover_train(rng, train, held, sym, label_of, ne, int(round(UNSEEN_SHARE * ne)))

    # entities that occur nowhere would shrink the vocabulary: there are none
    # after the repair, which every entity outside train passes through
    entity_names = [f"{shape.entity_prefix}{i:07d}" for i in rng.permutation(ne)]
    return Graph(
        shape,
        train,
        held[:n_valid],
        held[n_valid:],
        entity_names,
        [r.name for r in shape.relations],
        sym,
    )


def write_tsv(graph: Graph, directory) -> dict[str, Path]:
    """Write train/valid/test as ``head<TAB>relation<TAB>tail`` files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    en, rn = graph.entity_names, graph.relation_names
    paths = {}
    for split in ("train", "valid", "test"):
        path = directory / f"{split}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{en[h]}\t{rn[r]}\t{en[t]}\n" for h, r, t in getattr(graph, split).tolist())
        paths[split] = path
    return paths


# descriptors --------------------------------------------------------------------


def filter_set_sizes(graph: Graph) -> np.ndarray:
    """Answer-set size of every (source, relation) query key, both directions."""
    t = graph.all_triples()
    nr = graph.num_relations
    keys = np.concatenate([t[:, 0] * (2 * nr) + t[:, 1], t[:, 2] * (2 * nr) + t[:, 1] + nr])
    _, counts = np.unique(keys, return_counts=True)
    return counts


def describe(graph: Graph) -> dict:
    """Shape descriptors that explain where a workload spends its time."""
    fs = filter_set_sizes(graph)
    deg = np.bincount(graph.all_triples()[:, [0, 2]].ravel(), minlength=graph.num_entities)
    in_train = np.zeros(graph.num_entities, dtype=bool)
    in_train[graph.train[:, [0, 2]].ravel()] = True
    return {
        "shape": graph.shape.name,
        "num_entities": graph.num_entities,
        "num_relations": graph.num_relations,
        "splits": {s: int(len(getattr(graph, s))) for s in ("train", "valid", "test")},
        "symmetric_relations": int(graph.symmetric.sum()),
        "entities_not_in_train": int((~in_train).sum()),
        "entity_degree": {
            "mean": float(deg.mean()),
            "p50": float(np.percentile(deg, 50)),
            "p99": float(np.percentile(deg, 99)),
            "max": int(deg.max()),
        },
        "filter_set_size": {
            "mean": float(fs.mean()),
            "p99": float(np.percentile(fs, 99)),
            "max": int(fs.max()),
        },
    }
