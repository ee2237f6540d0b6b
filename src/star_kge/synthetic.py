"""Controlled toy knowledge graphs with known relational algebra.

Relations are declared as generator rules; triples follow deterministically
from the rules and a seed. Grid rules place the entities on a square
lattice and realize relations as planar maps (quarter-turn rotations about
the grid center, unit translations), which compose into genuinely
non-commuting pairs: rotating then shifting lands on a different cell than
shifting then rotating. Composition rules materialize the composed relation
and, when marked non-commuting, the held-out test triples whose answer
differs between the two application orders are tagged as
order-discriminating queries.

Rule kinds
----------
``grid_rotation(quarter_turns)``   bijective lattice rotation
``grid_translation(offset)``       partial lattice shift (border-clipped)
``permutation()``                  random entity bijection
``fan_in(num_tails, heads_per_tail)``  N-to-1 groups
``symmetric(num_pairs)``           random symmetric pairs
``inverse_of(of)``                 reverse of an earlier relation
``composed``                       filled in by a composition rule
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import TripleStore, Vocab

RULE_KINDS = (
    "grid_rotation",
    "grid_translation",
    "permutation",
    "fan_in",
    "symmetric",
    "inverse_of",
    "composed",
)


class SynthSpecError(ValueError):
    """The spec is malformed or declares an unsatisfiable rule set."""


@dataclass
class RelationRule:
    name: str
    kind: str
    quarter_turns: int = 1
    offset: tuple[int, int] = (1, 0)
    num_tails: int = 4
    heads_per_tail: int = 3
    num_pairs: int = 8
    of: str = ""

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise SynthSpecError(f"unknown rule kind {self.kind!r} for relation {self.name!r}")


@dataclass
class CompositionRule:
    first: str
    second: str
    composed: str
    commutes: bool


@dataclass
class SynthSpec:
    num_entities: int
    relations: list[RelationRule]
    compositions: list[CompositionRule] = field(default_factory=list)
    seed: int = 0
    holdout_fraction: float = 0.0
    #: share of the held-out edges whose mirror edge (t, r, h) is held out too;
    #: only meaningful for symmetric composed relations, where a lone held-out
    #: direction stays recoverable from its trained twin while a fully held
    #: pair can only be answered through the composition itself
    paired_holdout_fraction: float = 0.0

    def __post_init__(self):
        if self.num_entities < 2:
            raise SynthSpecError("need at least 2 entities")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise SynthSpecError("holdout_fraction must lie in [0, 1)")
        if not 0.0 <= self.paired_holdout_fraction <= 1.0:
            raise SynthSpecError("paired_holdout_fraction must lie in [0, 1]")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise SynthSpecError("duplicate relation names")


@dataclass
class SynthResult:
    """Generated store plus the metadata the store itself cannot carry."""

    store: TripleStore
    spec: SynthSpec
    #: parallel to store.test: True where the query discriminates the
    #: application order of a non-commuting composition
    test_discriminating: np.ndarray
    manifest: dict
    #: parallel to store.test: True where the mirror edge (t, r, h) is absent
    #: from train, so the fact is reachable only through composition
    test_mirror_free: np.ndarray | None = None


def _grid_side(num_entities: int) -> int:
    side = math.isqrt(num_entities)
    if side * side != num_entities:
        raise SynthSpecError(
            f"grid rules need a square entity count, got {num_entities}"
        )
    return side


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


class _Generator:
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


def generate_full(spec: SynthSpec) -> SynthResult:
    """Generate the store plus rule metadata (held-out query tags etc.)."""
    return _Generator(spec).build()


def generate(spec: SynthSpec) -> TripleStore:
    """Generate just the triple store for a spec."""
    return generate_full(spec).store


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
