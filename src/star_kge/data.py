"""Triple ingestion, vocabularies, filter indexes and relation statistics.

Triple files are the community-standard three-column TSV
(``head<TAB>relation<TAB>tail``), UTF-8 encoded. Entities and relations
receive dense 0-based ids in order of first appearance. For every
relation id ``r`` the reciprocal relation (tail-to-head direction) is
addressed as ``r + num_relations``; reciprocal triples are enumerable
but never written back to disk.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

CLASS_ONE_TO_ONE = "1-to-1"
CLASS_ONE_TO_N = "1-to-N"
CLASS_N_TO_ONE = "N-to-1"
CLASS_N_TO_N = "N-to-N"

#: tails-per-head / heads-per-tail cutoff separating simple from complex relations
COMPLEXITY_THRESHOLD = 1.5


class TripleParseError(ValueError):
    """A triple file line could not be parsed."""


class VocabularyError(KeyError):
    """A name was not found in a frozen vocabulary."""


@dataclass
class Vocab:
    """Dense, 0-based name<->id maps for entities and original relations."""

    entity_names: list[str] = field(default_factory=list)
    relation_names: list[str] = field(default_factory=list)
    _ent_ids: dict[str, int] = field(default_factory=dict, repr=False)
    _rel_ids: dict[str, int] = field(default_factory=dict, repr=False)
    frozen: bool = False

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def entity_id(self, name: str) -> int:
        try:
            return self._ent_ids[name]
        except KeyError:
            if self.frozen:
                raise VocabularyError(f"unknown entity {name!r} (vocabulary is frozen)") from None
            eid = len(self.entity_names)
            self.entity_names.append(name)
            self._ent_ids[name] = eid
            return eid

    def relation_id(self, name: str) -> int:
        try:
            return self._rel_ids[name]
        except KeyError:
            if self.frozen:
                raise VocabularyError(f"unknown relation {name!r} (vocabulary is frozen)") from None
            rid = len(self.relation_names)
            self.relation_names.append(name)
            self._rel_ids[name] = rid
            return rid

    @classmethod
    def from_lists(cls, entity_names, relation_names, frozen=True) -> "Vocab":
        v = cls(list(entity_names), list(relation_names), frozen=False)
        v._ent_ids = {name: i for i, name in enumerate(v.entity_names)}
        v._rel_ids = {name: i for i, name in enumerate(v.relation_names)}
        if len(v._ent_ids) != len(v.entity_names):
            raise VocabularyError("duplicate entity names in vocabulary")
        if len(v._rel_ids) != len(v.relation_names):
            raise VocabularyError("duplicate relation names in vocabulary")
        v.frozen = frozen
        return v


def _parse_file(path) -> list[tuple[str, str, str]]:
    """Read one TSV triple file into (head, relation, tail) name tuples."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise TripleParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            rows.append((parts[0], parts[1], parts[2]))
    return rows


def _encode(rows, vocab: Vocab) -> np.ndarray:
    out = np.empty((len(rows), 3), dtype=np.int64)
    for i, (h, r, t) in enumerate(rows):
        out[i, 0] = vocab.entity_id(h)
        out[i, 1] = vocab.relation_id(r)
        out[i, 2] = vocab.entity_id(t)
    return out


def _dedupe(triples: np.ndarray, label: str) -> np.ndarray:
    if len(triples) == 0:
        return triples
    seen = dict.fromkeys(map(tuple, triples.tolist()))
    if len(seen) != len(triples):
        logger.warning(
            "dropped %d duplicate triples from %s split", len(triples) - len(seen), label
        )
        return np.array(list(seen), dtype=np.int64)
    return triples


class FilterIndex:
    """Known answers of every ``(source, relation)`` query, in CSR form.

    ``keys`` holds the sorted, distinct int64 codes
    ``src * num_relation_rows + rel``; the answers of ``keys[i]`` are
    ``answers[offsets[i]:offsets[i + 1]]``, sorted and distinct. Built from
    parallel ``src``, ``rel`` and ``answer`` arrays with one lexsort and a
    run-boundary dedupe.
    """

    def __init__(self, src, rel, answer, num_relation_rows: int):
        self.num_relation_rows = int(num_relation_rows)
        code = np.asarray(src, dtype=np.int64) * self.num_relation_rows + rel
        order = np.lexsort((answer, code))
        code, answers = code[order], np.asarray(answer, dtype=np.int64)[order]
        fresh = np.ones(len(code), dtype=bool)
        fresh[1:] = (code[1:] != code[:-1]) | (answers[1:] != answers[:-1])
        code, self.answers = code[fresh], answers[fresh]
        starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]]) if len(code) else code
        self.keys = code[starts]
        self.offsets = np.append(starts, len(code))

    def known_answers(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Every known answer of a block of ``(src, rel, true_answer)`` queries.

        Returns parallel arrays ``(row, answer)``: ``answer`` is a known
        answer of query ``row``. The block is looked up with one
        ``searchsorted``. A query whose pair is not in the index, or whose
        true answer is not among the pair's answers, raises ValueError.
        """
        q = np.asarray(queries, dtype=np.int64).reshape(-1, 3)
        code = q[:, 0] * self.num_relation_rows + q[:, 1]
        pos = np.searchsorted(self.keys, code)
        found = pos < len(self.keys)
        found[found] = self.keys[pos[found]] == code[found]
        pos[~found] = 0  # with found False, count is offsets[0] - offsets[0] = 0
        count = self.offsets[pos + found] - self.offsets[pos]
        row = np.repeat(np.arange(len(q)), count)
        first = np.repeat(self.offsets[pos] - (np.cumsum(count) - count), count)
        answer = self.answers[first + np.arange(len(row))]
        covered = np.zeros(len(q), dtype=bool)
        covered[row[answer == q[row, 2]]] = True
        if not covered.all():
            h, r, t = q[np.argmin(covered)].tolist()
            raise ValueError(f"query ({h}, {r}, {t}) is not covered by the filter index")
        return row, answer


class TripleStore:
    """Integer-encoded triples with splits and a filtered-ranking index.

    The :class:`FilterIndex` holds the known answers of every
    ``(head_id, relation_id)`` query over the union of all splits, covering
    reciprocal relation ids as well, so that every query seen during
    evaluation can exclude the other known-true answers.
    """

    def __init__(self, vocab: Vocab, train: np.ndarray, valid=None, test=None):
        self.vocab = vocab
        self.train = np.asarray(train, dtype=np.int64).reshape(-1, 3)
        self.valid = (
            np.asarray(valid, dtype=np.int64).reshape(-1, 3)
            if valid is not None
            else np.empty((0, 3), dtype=np.int64)
        )
        self.test = (
            np.asarray(test, dtype=np.int64).reshape(-1, 3)
            if test is not None
            else np.empty((0, 3), dtype=np.int64)
        )
        self._check_ids()
        self.filter_index = self._build_filter_index()
        self._flag_unseen_entities()

    @property
    def num_entities(self) -> int:
        return self.vocab.num_entities

    @property
    def num_relations(self) -> int:
        return self.vocab.num_relations

    def split(self, name: str) -> np.ndarray:
        if name not in ("train", "valid", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def reciprocal_triples(self, split="train") -> np.ndarray:
        """Reciprocal view (t, r + |R|, h) of a split; never persisted."""
        s = self.split(split)
        out = np.empty_like(s)
        out[:, 0] = s[:, 2]
        out[:, 1] = s[:, 1] + self.num_relations
        out[:, 2] = s[:, 0]
        return out

    def _check_ids(self):
        ne, nr = self.num_entities, self.num_relations
        for name in ("train", "valid", "test"):
            s = getattr(self, name)
            if len(s) == 0:
                continue
            if s[:, [0, 2]].min() < 0 or s[:, [0, 2]].max() >= ne:
                raise ValueError(f"{name} split contains entity ids outside [0, {ne})")
            if s[:, 1].min() < 0 or s[:, 1].max() >= nr:
                raise ValueError(f"{name} split contains relation ids outside [0, {nr})")

    def _build_filter_index(self) -> FilterIndex:
        h, r, t = np.concatenate([self.train, self.valid, self.test]).T
        return FilterIndex(
            np.concatenate([h, t]),
            np.concatenate([r, r + self.num_relations]),
            np.concatenate([t, h]),
            2 * self.num_relations,
        )

    def _flag_unseen_entities(self):
        seen = np.zeros(self.num_entities, dtype=bool)
        if len(self.train):
            seen[self.train[:, 0]] = True
            seen[self.train[:, 2]] = True
        self.entities_not_in_train = np.flatnonzero(~seen)
        if len(self.entities_not_in_train):
            logger.warning(
                "%d entities appear only in valid/test splits", len(self.entities_not_in_train)
            )

    # persistence -----------------------------------------------------------

    def save(self, directory) -> None:
        """Write vocab files, per-split TSVs and a JSON manifest."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "entities.txt").write_text(
            "".join(f"{n}\n" for n in self.vocab.entity_names), encoding="utf-8"
        )
        (directory / "relations.txt").write_text(
            "".join(f"{n}\n" for n in self.vocab.relation_names), encoding="utf-8"
        )
        for name in ("train", "valid", "test"):
            s = getattr(self, name)
            with open(directory / f"{name}.tsv", "w", encoding="utf-8") as fh:
                for h, r, t in s.tolist():
                    fh.write(
                        f"{self.vocab.entity_names[h]}\t"
                        f"{self.vocab.relation_names[r]}\t"
                        f"{self.vocab.entity_names[t]}\n"
                    )
        manifest = {
            "format": "star-kge-store-v1",
            "num_entities": self.num_entities,
            "num_relations": self.num_relations,
            "splits": {name: int(len(getattr(self, name))) for name in ("train", "valid", "test")},
        }
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")

    @classmethod
    def load(cls, directory) -> "TripleStore":
        directory = Path(directory)
        manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
        if manifest.get("format") != "star-kge-store-v1":
            raise ValueError(f"unrecognized store manifest in {directory}")
        ents = (directory / "entities.txt").read_text(encoding="utf-8").splitlines()
        rels = (directory / "relations.txt").read_text(encoding="utf-8").splitlines()
        vocab = Vocab.from_lists(ents, rels, frozen=True)
        splits = {}
        for name in ("train", "valid", "test"):
            rows = _parse_file(directory / f"{name}.tsv")
            splits[name] = _encode(rows, vocab)
        return cls(vocab, splits["train"], splits["valid"], splits["test"])


def load_triples(path, vocab: Vocab | None = None) -> TripleStore:
    """Load a single TSV file as the train split of a new store.

    With ``vocab`` given the vocabulary is frozen and unknown names raise
    :class:`VocabularyError`; otherwise the vocabulary is built in file
    order. Duplicate lines are dropped with a warning since they would bias
    the per-relation head/tail statistics.
    """
    rows = _parse_file(path)
    if vocab is None:
        vocab = Vocab()
    triples = _dedupe(_encode(rows, vocab), "train")
    vocab.frozen = True
    return TripleStore(vocab, triples)


def load_dataset(train_path, valid_path=None, test_path=None) -> TripleStore:
    """Load a train/valid/test dataset with a shared vocabulary.

    The vocabulary covers the union of all splits so evaluation never meets
    an unknown entity; entities absent from train are flagged with a warning.
    """
    vocab = Vocab()
    rows = {"train": _parse_file(train_path)}
    rows["valid"] = _parse_file(valid_path) if valid_path else []
    rows["test"] = _parse_file(test_path) if test_path else []
    enc = {name: _dedupe(_encode(r, vocab), name) for name, r in rows.items()}
    vocab.frozen = True
    return TripleStore(vocab, enc["train"], enc["valid"], enc["test"])


@dataclass
class RelationClass:
    """Complexity classification of one relation from train-split statistics."""

    relation_id: int
    tphr: float
    hptr: float
    label: str


def _classify(tphr: float, hptr: float) -> str:
    th = COMPLEXITY_THRESHOLD
    if tphr <= th and hptr <= th:
        return CLASS_ONE_TO_ONE
    if tphr > th and hptr <= th:
        return CLASS_ONE_TO_N
    if tphr <= th and hptr > th:
        return CLASS_N_TO_ONE
    return CLASS_N_TO_N


def classify_relations(store: TripleStore) -> list[RelationClass]:
    """Classify every original relation as 1-to-1 / 1-to-N / N-to-1 / N-to-N.

    tphr is the mean number of train tails per distinct head of the relation,
    hptr the mean number of heads per distinct tail. Relations without train
    triples are excluded and reported.
    """
    if len(store.train) == 0:
        raise ValueError("train split is empty")
    heads, rels, tails = store.train[:, 0], store.train[:, 1], store.train[:, 2]
    nr, ne = store.num_relations, store.num_entities

    def distinct_per_relation(ents):
        # a sort and its run boundaries: np.unique took ~20x as long on
        # 87k train triples (numpy 2.4)
        code = np.sort(rels * ne + ents)
        fresh = np.r_[True, code[1:] != code[:-1]]
        return np.bincount(code[fresh] // ne, minlength=nr).tolist()

    counts = np.bincount(rels, minlength=nr).tolist()
    n_heads = distinct_per_relation(heads)
    n_tails = distinct_per_relation(tails)
    out = []
    missing = []
    for rid in range(nr):
        n = counts[rid]
        if n == 0:
            missing.append(rid)
            continue
        tphr = n / n_heads[rid]
        hptr = n / n_tails[rid]
        out.append(RelationClass(rid, tphr, hptr, _classify(tphr, hptr)))
    if missing:
        logger.warning("%d relations have no train triples and were not classified", len(missing))
    return out


def entity_frequency(store: TripleStore, side: str) -> tuple[np.ndarray, int]:
    """Count train-split appearances of every entity as tail or head.

    Returns the per-entity count array (entities that never appear get 0)
    and the maximum count.
    """
    if side not in ("head", "tail"):
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")
    if len(store.train) == 0:
        raise ValueError("train split is empty")
    col = 0 if side == "head" else 2
    counts = np.bincount(store.train[:, col], minlength=store.num_entities).astype(np.int64)
    return counts, int(counts.max())
