"""Triple ingestion, vocabularies, filter indexes and relation statistics.

Triple files are the community-standard three-column TSV
(``head<TAB>relation<TAB>tail``), UTF-8 encoded, read with universal
newlines and split into lines at ``\\n`` only: ``\\x0b``, ``\\x85`` or
``\\u2028`` stay inside names. Blank lines are skipped. Entities and
relations receive dense 0-based ids in order of first appearance over
train, then valid, then test, within a line the head before the tail.
For every relation id ``r`` the reciprocal relation (tail-to-head
direction) is addressed as ``r + num_relations``; reciprocal triples are
enumerable but never written back to disk.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from collections import defaultdict
from itertools import repeat
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
    """A name is missing from a vocabulary, or a vocabulary repeats a name."""


@dataclass
class Vocab:
    """Dense, 0-based name<->id maps for entities and original relations.

    Built once from complete name lists: the id of a name is its position.
    """

    entity_names: list[str]
    relation_names: list[str]

    def __post_init__(self):
        self.entity_names = list(self.entity_names)
        self.relation_names = list(self.relation_names)
        self._ent_ids = dict(zip(self.entity_names, range(len(self.entity_names))))
        self._rel_ids = dict(zip(self.relation_names, range(len(self.relation_names))))
        if len(self._ent_ids) != len(self.entity_names):
            raise VocabularyError("duplicate entity names in vocabulary")
        if len(self._rel_ids) != len(self.relation_names):
            raise VocabularyError("duplicate relation names in vocabulary")

    @classmethod
    def _of_ids(cls, ent_ids: dict, rel_ids: dict) -> "Vocab":
        """The vocabulary of name->id dicts whose ids count up in insertion order."""
        vocab = cls.__new__(cls)
        vocab.entity_names, vocab.relation_names = list(ent_ids), list(rel_ids)
        vocab._ent_ids, vocab._rel_ids = ent_ids, rel_ids
        return vocab

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file with universal newlines, split at
    ``\\n`` only; a final ``\\n`` ends the last line, as in splitlines()."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _read_names(path) -> list[str]:
    """Read one TSV triple file into the flat name list ``[h, r, t, ...]``.

    Blank lines are skipped but still count toward the line numbers that
    :class:`TripleParseError` reports.
    """
    lines = _read_lines(path)
    fields = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines)) + 1
    for i in np.flatnonzero(fields != 3).tolist():
        if lines[i]:
            raise TripleParseError(
                f"{path}:{i + 1}: expected 3 tab-separated fields, got {fields[i]}"
            )
    rows = list(filter(None, lines))
    return "\t".join(rows).split("\t") if rows else []


def _encode(splits: list[list[str]], vocab: Vocab | None = None) -> tuple[Vocab, list[np.ndarray]]:
    """Id triples of flat name lists, and the vocabulary that encoded them.

    Each name is hashed once: entity names go through one dict, heads and
    tails interleaved line by line, relation names through another. For a
    given ``vocab`` these are its own dicts, so an unknown name raises
    :class:`VocabularyError`. Otherwise they grow: each dict's missing-key
    factory is its own ``__len__``, so a new name takes the next id in
    order of first appearance over the splits.
    """
    if vocab is None:
        ents, rels = defaultdict(), defaultdict()
        ents.default_factory, rels.default_factory = ents.__len__, rels.__len__
    else:
        ents, rels = vocab._ent_ids, vocab._rel_ids
    out = []
    for names in splits:
        ids = np.empty((len(names) // 3, 3), dtype=np.int64)
        pairs = names[:]
        del pairs[1::3]  # [h0, t0, h1, t1, ...]
        try:
            ids[:, ::2] = np.fromiter(map(ents.__getitem__, pairs), np.int64, len(pairs)).reshape(-1, 2)
            ids[:, 1] = np.fromiter(map(rels.__getitem__, names[1::3]), np.int64, len(ids))
        except KeyError:
            # name the first unknown head, else relation, else tail
            for col, kind, known in ((0, "entity", ents), (1, "relation", rels), (2, "entity", ents)):
                name = next((n for n in names[col::3] if n not in known), None)
                if name is not None:
                    raise VocabularyError(f"unknown {kind} {name!r}") from None
        out.append(ids)
    if vocab is None:
        # without a factory the dicts raise KeyError for unknown names, as a
        # vocabulary's must, and no dict -> bound __len__ -> dict cycle
        # keeps them alive until a gc pass
        ents.default_factory = rels.default_factory = None
        vocab = Vocab._of_ids(ents, rels)
    return vocab, out


def _fresh(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values in a sorted array."""
    fresh = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return fresh


def _dedupe(triples: np.ndarray, vocab: Vocab, label: str) -> np.ndarray:
    """Drop repeated triples, keeping first occurrences in file order."""
    h, r, t = triples.T
    code = (h * vocab.num_relations + r) * vocab.num_entities + t
    if _fresh(np.sort(code)).all():
        return triples
    first = np.unique(code, return_index=True)[1]
    logger.warning("dropped %d duplicate triples from %s split", len(triples) - len(first), label)
    return triples[np.sort(first)]


def _expand_runs(lo: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand the index runs ``[lo[k], lo[k] + count[k])`` into parallel
    ``(row, at)``: ``at`` walks every run in turn and ``row`` holds the
    ``k`` of the run each index came from."""
    row = np.repeat(np.arange(len(count)), count)
    at = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(len(row))
    return row, at


class FilterIndex:
    """Known answers of every ``(source, relation)`` query, in CSR form.

    ``keys`` holds the sorted, distinct int64 codes
    ``src * num_relation_rows + rel``; the answers of ``keys[i]`` are
    ``answers[offsets[i]:offsets[i + 1]]``, sorted and distinct. Built from
    parallel ``src``, ``rel`` and ``answer`` arrays by sorting one int64 key
    ``(src * num_relation_rows + rel) * span + answer`` per pair, with
    ``span`` one more than the largest answer, dropping repeats at run
    boundaries and splitting the key back with ``np.divmod``.
    """

    def __init__(self, src, rel, answer, num_relation_rows: int):
        self.num_relation_rows = int(num_relation_rows)
        answer = np.asarray(answer, dtype=np.int64)
        span = int(answer.max()) + 1 if len(answer) else 1
        key = np.sort((np.asarray(src, dtype=np.int64) * self.num_relation_rows + rel) * span + answer)
        code, self.answers = np.divmod(key[_fresh(key)], span)
        starts = np.flatnonzero(_fresh(code))
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
        row, at = _expand_runs(self.offsets[pos], count)
        answer = self.answers[at]
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
        seen[self.train[:, 0]] = True
        seen[self.train[:, 2]] = True
        self.entities_not_in_train = np.flatnonzero(~seen)
        # without train triples every entity is unseen; the empty split is
        # the error that training and the CLI report
        if len(self.train) and len(self.entities_not_in_train):
            logger.warning(
                "%d entities appear only in valid/test splits", len(self.entities_not_in_train)
            )

    # persistence -----------------------------------------------------------

    def save(self, directory) -> None:
        """Write vocab files, per-split TSVs and a JSON manifest."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        ents, rels = self.vocab.entity_names, self.vocab.relation_names
        (directory / "entities.txt").write_text("".join(f"{n}\n" for n in ents), encoding="utf-8")
        (directory / "relations.txt").write_text("".join(f"{n}\n" for n in rels), encoding="utf-8")
        for name in ("train", "valid", "test"):
            lines = (f"{ents[h]}\t{rels[r]}\t{ents[t]}\n" for h, r, t in getattr(self, name).tolist())
            (directory / f"{name}.tsv").write_text("".join(lines), encoding="utf-8")
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
        vocab = Vocab(_read_lines(directory / "entities.txt"), _read_lines(directory / "relations.txt"))
        splits = [_read_names(directory / f"{name}.tsv") for name in ("train", "valid", "test")]
        vocab, ids = _encode(splits, vocab)
        return cls(vocab, *ids)


def load_triples(path, vocab: Vocab | None = None) -> TripleStore:
    """Load a single TSV file as the train split of a new store.

    With ``vocab`` given, unknown names raise :class:`VocabularyError`;
    otherwise the vocabulary is built in file order. Duplicate lines are
    dropped with a warning since they would bias the per-relation head/tail
    statistics.
    """
    vocab, (train,) = _encode([_read_names(path)], vocab)
    return TripleStore(vocab, _dedupe(train, vocab, "train"))


def load_dataset(train_path, valid_path=None, test_path=None) -> TripleStore:
    """Load a train/valid/test dataset with a shared vocabulary.

    The vocabulary covers the union of all splits so evaluation never meets
    an unknown entity; entities absent from train are flagged with a warning.
    """
    names = [_read_names(path) if path else [] for path in (train_path, valid_path, test_path)]
    vocab, splits = _encode(names)
    return TripleStore(vocab, *map(_dedupe, splits, repeat(vocab), ("train", "valid", "test")))


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
        # one-key np.sort and its run boundaries, as in the rest of this
        # module: np.unique took ~20x as long on 87k train triples (numpy 2.4)
        code = np.sort(rels * ne + ents)
        return np.bincount(code[_fresh(code)] // ne, minlength=nr).tolist()

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
