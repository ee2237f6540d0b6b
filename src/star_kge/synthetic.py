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
``inverse_of(of)``                 reverse of an earlier, non-composed relation
``composed``                       filled in by a composition rule
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import TripleStore, Vocab, _expand_runs

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
        for count in ("num_tails", "heads_per_tail", "num_pairs"):
            if getattr(self, count) < 0:
                raise SynthSpecError(
                    f"relation {self.name!r}: {count} must be >= 0, got {getattr(self, count)}"
                )


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


class _Generator:
    """Builds every relation as one sorted array of distinct pair codes
    ``h * num_entities + t``."""

    def __init__(self, spec: SynthSpec):
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        self.maps: dict[str, np.ndarray] = {}
        self.kinds = {r.name: r.kind for r in spec.relations}
        if any(r.kind.startswith("grid_") for r in spec.relations):
            self.side = _grid_side(spec.num_entities)
            self.cells = np.divmod(np.arange(spec.num_entities), self.side)

    def _base_pairs(self, rule: RelationRule) -> np.ndarray:
        ne = self.spec.num_entities
        rng = self.rng
        heads = np.arange(ne)
        if rule.kind == "grid_rotation":
            i, j = self.cells
            for _ in range(rule.quarter_turns % 4):  # a quarter turn about the grid center
                i, j = j, self.side - 1 - i
            return heads * ne + i * self.side + j
        if rule.kind == "grid_translation":
            i, j = self.cells[0] + rule.offset[0], self.cells[1] + rule.offset[1]
            inside = (i >= 0) & (i < self.side) & (j >= 0) & (j < self.side)
            return (heads * ne + i * self.side + j)[inside]
        if rule.kind == "permutation":
            return heads * ne + rng.permutation(ne)
        if rule.kind == "fan_in":
            need = rule.num_tails * (rule.heads_per_tail + 1)
            if need > ne:
                raise SynthSpecError(
                    f"fan_in rule {rule.name!r} needs {need} entities, have {ne}"
                )
            groups = rng.choice(ne, size=need, replace=False)
            groups = groups.reshape(rule.num_tails, rule.heads_per_tail + 1)
            return np.sort((groups[:, 1:] * ne + groups[:, :1]).ravel())
        if rule.kind == "symmetric":
            if 2 * rule.num_pairs > ne:
                raise SynthSpecError(f"symmetric rule {rule.name!r} needs more entities")
            a, b = rng.choice(ne, size=2 * rule.num_pairs, replace=False).reshape(-1, 2).T
            return np.sort(np.concatenate([a * ne + b, b * ne + a]))
        if rule.kind == "inverse_of":
            src = self.maps.get(rule.of)
            if src is None:
                raise SynthSpecError(
                    f"relation {rule.name!r} is inverse_of unknown or later relation {rule.of!r}"
                )
            if self.kinds[rule.of] == "composed":
                raise SynthSpecError(
                    f"relation {rule.name!r} is inverse_of composed relation {rule.of!r}; "
                    "composed relations are filled in after every base rule, so its "
                    "inverse would stay empty"
                )
            return np.sort(src % ne * ne + src // ne)
        return np.empty(0, dtype=np.int64)  # composed: filled in by composition rules

    def _compose(self, first: str, second: str) -> np.ndarray:
        """Codes of ``first`` then ``second``: a sorted join on the middle entity."""
        ne = self.spec.num_entities
        f, s = self.maps[first], self.maps[second]
        mid, s_head = f % ne, s // ne
        lo = np.searchsorted(s_head, mid)
        row, at = _expand_runs(lo, np.searchsorted(s_head, mid, side="right") - lo)
        return np.unique(f[row] // ne * ne + s[at] % ne)

    def build(self) -> SynthResult:
        spec = self.spec
        ne = spec.num_entities
        for rule in spec.relations:
            self.maps[rule.name] = self._base_pairs(rule)

        for comp in spec.compositions:
            for name in (comp.first, comp.second, comp.composed):
                if name not in self.kinds:
                    raise SynthSpecError(f"composition references unknown relation {name!r}")
            if self.kinds[comp.composed] != "composed":
                raise SynthSpecError(
                    f"composition target {comp.composed!r} must have kind 'composed'"
                )
            chains = self._compose(comp.first, comp.second)
            if comp.commutes and not np.array_equal(chains, self._compose(comp.second, comp.first)):
                raise SynthSpecError(
                    f"{comp.first!r} and {comp.second!r} are declared commuting "
                    "but their composition orders disagree"
                )
            self.maps[comp.composed] = np.union1d(self.maps[comp.composed], chains)
        for rule in spec.relations:
            if rule.kind == "composed" and not len(self.maps[rule.name]):
                raise SynthSpecError(f"composed relation {rule.name!r} received no triples")

        vocab = Vocab([f"e{k:04d}" for k in range(ne)], [r.name for r in spec.relations])
        pairs = [self.maps[r.name] for r in spec.relations]
        rel = np.repeat(np.arange(len(pairs)), [len(p) for p in pairs])
        pair = np.concatenate(pairs)
        triples = np.stack([pair // ne, rel, pair % ne], axis=1)
        codes = rel * ne * ne + pair  # rows are sorted by (r, h, t): strictly increasing
        composed = np.array([r.kind == "composed" for r in spec.relations])
        held = self._pick_holdout(codes, np.flatnonzero(composed[rel]))
        held_idx = np.flatnonzero(held)
        valid_idx = held_idx[0::2]
        test_idx = held_idx[1::2]
        train_idx = np.flatnonzero(~held)

        store = TripleStore(vocab, triples[train_idx], triples[valid_idx], triples[test_idx])
        discriminating = self._mark_discriminating(triples[test_idx])
        h, r, t = triples[test_idx].T
        hard = ~np.isin((r * ne + t) * ne + h, codes[train_idx])
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

    def _pick_holdout(self, codes: np.ndarray, eligible: np.ndarray) -> np.ndarray:
        """Choose held-out rows, controlling how many lose their mirror twin too.

        ``codes`` are the sorted triple codes ``(r * |E| + h) * |E| + t``. A
        paired pick removes both (h, r, t) and (t, r, h); a single pick
        keeps the mirror edge in train (when one exists).
        """
        spec = self.spec
        ne = spec.num_entities
        held = np.zeros(len(codes), dtype=bool)
        if spec.holdout_fraction == 0 or not len(eligible):
            return held
        rh, t = np.divmod(codes, ne)
        r, h = np.divmod(rh, ne)
        mirror_code = (r * ne + t) * ne + h
        mirror = np.minimum(np.searchsorted(codes, mirror_code), len(codes) - 1)
        mirror[(codes[mirror] != mirror_code) | (h == t)] = -1
        mirror = mirror.tolist()
        target = int(round(spec.holdout_fraction * len(eligible)))
        pair_budget = int(round(spec.paired_holdout_fraction * target))
        picked = 0
        paired = 0
        for idx in self.rng.permutation(eligible).tolist():
            if picked >= target:
                break
            m = mirror[idx]
            if held[idx] or (m >= 0 and held[m]):
                continue
            if m >= 0 and paired + 2 <= pair_budget and picked + 2 <= target:
                held[m] = True
                picked += 1
                paired += 2
            held[idx] = True
            picked += 1
        return held

    def _mark_discriminating(self, test_triples: np.ndarray) -> np.ndarray:
        """Tag held-out composed queries whose two application orders disagree:
        the head has answers in the swapped order, and they differ."""
        ne = self.spec.num_entities
        names = [r.name for r in self.spec.relations]
        swapped = {
            comp.composed: self._compose(comp.second, comp.first)
            for comp in self.spec.compositions
            if not comp.commutes
        }
        flags = np.zeros(len(test_triples), dtype=bool)
        for name, other in swapped.items():
            heads = np.intersect1d(other // ne, np.setxor1d(other, self.maps[name]) // ne)
            flags |= (test_triples[:, 1] == names.index(name)) & np.isin(test_triples[:, 0], heads)
        return flags


def generate_full(spec: SynthSpec) -> SynthResult:
    """Generate the store plus rule metadata (held-out query tags etc.)."""
    return _Generator(spec).build()


def generate(spec: SynthSpec) -> TripleStore:
    """Generate just the triple store for a spec."""
    return generate_full(spec).store
