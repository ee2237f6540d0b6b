"""Triple ingestion, vocabularies, filter indexes and relation statistics.

Triple files are the community-standard three-column TSV
(``head<TAB>relation<TAB>tail``), UTF-8 encoded, read with universal
newlines and split into lines at ``\\n`` only: ``\\x0b``, ``\\x85`` or
``\\u2028`` stay inside names. Blank lines are skipped. Entities and
relations receive dense 0-based ids in order of first appearance over
train, then valid, then test, within a line the head before the tail.
For every relation id ``r`` the reciprocal relation (tail-to-head
direction) is addressed as ``r + num_relations``. Training, ranking and the
filter index all take their queries from :func:`reciprocal_queries`;
reciprocal triples are never written back to disk.

Ingest works on bytes and makes no Python string per field. A file that
passes ``bytes.isascii()`` is UTF-8 without a decode. Its bytes are
tokenised with one numpy scan for tab and newline bytes (:func:`_tokenise`)
and joined with the other files' into one buffer, the only copy kept
(:func:`_encode`). Every field gets a 64-bit key from its length and its
8-byte words, and one ``np.sort`` of one word per field, the key's top
bits above the field's index, interns the fields (:func:`_intern`); each
field is then checked word for word against the first field of its key,
so a key collision cannot merge two names. Only the first field of each
id is decoded to a ``str``.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from ._files import replacing

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
    """A vocabulary repeats a name."""


@dataclass
class Vocab:
    """Dense, 0-based ids of entity and original relation names.

    Built once from complete name lists: the id of a name is its position.
    """

    entity_names: list[str]
    relation_names: list[str]

    def __post_init__(self):
        self.entity_names = list(self.entity_names)
        self.relation_names = list(self.relation_names)
        if len(set(self.entity_names)) != len(self.entity_names):
            raise VocabularyError("duplicate entity names in vocabulary")
        if len(set(self.relation_names)) != len(self.relation_names):
            raise VocabularyError("duplicate relation names in vocabulary")

    @classmethod
    def _distinct(cls, entity_names: list[str], relation_names: list[str]) -> "Vocab":
        """The vocabulary of name lists known to hold no repeats, unchecked."""
        vocab = cls.__new__(cls)
        vocab.entity_names, vocab.relation_names = entity_names, relation_names
        return vocab

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)


def _tokenise(path) -> tuple[bytes, np.ndarray]:
    """The bytes of one TSV triple file, and the ``(k, 3, 2)`` start and
    end offsets in them of the fields of its k triple lines.

    ASCII bytes are UTF-8; any other file is checked with one ``decode``,
    so bad input raises UnicodeDecodeError as a text read would. ``\\r\\n``
    and lone ``\\r`` become ``\\n``, as in universal newlines. Tab and
    newline bytes never occur inside a multi-byte UTF-8 sequence, so one
    scan for them finds every field end. Blank lines are skipped but still
    count toward the line numbers that :class:`TripleParseError` reports.
    """
    data = Path(path).read_bytes()
    if not data.isascii():
        data.decode("utf-8")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, np.uint8)
    sep = buf - np.uint8(ord("\t"))  # tab and newline wrap to 0 and 1, in place below
    end = np.flatnonzero(np.less(sep, 2, out=sep.view(bool)))
    del sep
    fields = np.empty((len(end), 2), dtype=np.int64)
    fields[0, 0] = 0
    np.add(end[:-1], 1, out=fields[1:, 0])
    fields[:, 1] = end
    del end
    eol = np.flatnonzero(buf[fields[:, 1]] == ord("\n"))  # the last field of every line
    tabs = np.diff(eol, prepend=-1) - 1
    blank = (tabs == 0) & (fields[eol, 0] == fields[eol, 1])
    bad = (tabs != 2) & ~blank
    if bad.any():
        i = int(np.argmax(bad))
        raise TripleParseError(f"{path}:{i + 1}: expected 3 tab-separated fields, got {tabs[i] + 1}")
    if blank.any():
        keep = np.ones(len(fields), dtype=bool)
        keep[eol[blank]] = False
        fields = fields[keep]
    return data, fields.reshape(-1, 3, 2)


#: ``_BYTE_MASKS[b]`` keeps the first ``b`` bytes of a little-endian word
_BYTE_MASKS = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, in place: a bijection of uint64 that
    spreads every bit."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _first_appearance(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of equal 64-bit keys in order of first appearance, and the
    index of the first item of every id, from one ``np.sort``.

    Each of the n items becomes one uint64 word: its key's top ``64 - b``
    bits above its own index, ``b`` the bit length of ``n - 1``. Among the
    sorted words, a run of equal top bits holds its indices ascending, so
    the run's first item is its first appearance. A run whose full keys
    differ (they differ only in the low ``b`` bits) is sorted again by its
    full keys, stably, which splits it exactly. Each first appearance's id
    is the count of first appearances before it.
    """
    n = len(key)
    b = np.uint64(max(n - 1, 0).bit_length())
    key = np.asarray(key).view(np.uint64)
    low = (np.uint64(1) << b) - np.uint64(1)
    at = np.arange(n, dtype=np.int64)
    word = key & ~low
    word |= at.view(np.uint64)
    word.sort()
    np.bitwise_and(word, low, out=at.view(np.uint64))  # the index of every sorted item
    word ^= at.view(np.uint64)  # its top bits
    fresh = _fresh(word)
    full = np.take(key, at, out=word, mode="clip")  # "clip" writes to out unbuffered
    change = full[1:] != full[:-1]
    if np.count_nonzero(change) > np.count_nonzero(fresh[1:]):
        run = np.cumsum(fresh)
        split = np.flatnonzero(change) + 1
        mixed = np.flatnonzero(np.isin(run, run[split[~fresh[split]]]))
        again = np.argsort(full[mixed], kind="stable")
        at[mixed], full[mixed] = at[mixed][again], full[mixed][again]
        fresh = _fresh(full)
    starts = np.flatnonzero(fresh)
    head = at[starts]
    mark = np.zeros(n, dtype=bool)
    mark[head] = True
    first = np.flatnonzero(mark)
    rank = full.view(np.int64)
    rank[first] = np.arange(len(first))
    ids = np.empty(n, dtype=np.int64)
    ids[at] = np.repeat(rank[head], np.diff(starts, append=n))
    return ids, first


def _intern(data: bytes, fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of the fields ``data[start:end]``, given as ``(start, end)``
    rows, in order of first appearance, equal bytes sharing an id; and the
    index of each id's first field.

    A field's 64-bit key starts from its length and takes in its
    little-endian 8-byte words one at a time through :func:`_mix`. The
    words at byte ``at`` of every field longer than ``at`` (``alive``) are
    one gather from an unaligned ``<u8`` view of ``data`` with a stride of
    one byte, masked to the field's end; ``data`` must hold 8 more bytes
    after the last field. Fields are grouped by key with
    :func:`_first_appearance`, and then every word of every field is
    checked against the first field of its group. Should two distinct
    fields share all 64 bits of their key, every field is keyed by its
    bytes instead, so ids are exact either way.
    """
    start, end = fields.T
    length = end - start
    window = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    key, places, alive = length.astype(np.uint64), [], slice(None)
    for at in range(0, int(length.max(initial=1)), 8):
        if at:  # narrow the last place's fields, or at 8 all of them
            alive = np.flatnonzero(length > at) if at == 8 else alive[length[alive] > at]
        word = window[start[alive] + at] & _BYTE_MASKS[np.minimum(length[alive] - at, 8)]
        key[alive] = _mix(key[alive] ^ word)
        places.append((alive, word))
    ids, first = _first_appearance(key)
    rep = first[ids]
    same = (length[rep] == length).all()
    spread = np.empty(len(key), dtype=np.uint64)
    for alive, word in places:
        if not same:
            break
        spread[alive] = word
        same = (spread[rep[alive]] == word).all()
    if same:
        return ids, first
    seen = {}
    exact = np.array([seen.setdefault(data[s:e], len(seen)) for s, e in fields.tolist()], dtype=np.int64)
    return exact, np.unique(exact, return_index=True)[1]


def _decode(data: bytes, fields: np.ndarray) -> list[str]:
    """The fields of triple files, as ``(start, end)`` rows, decoded to
    strings at once: each field is gathered with the tab or newline that
    ends it, and no field holds a newline."""
    start, end = fields.T
    length = end - start + 1
    text = np.frombuffer(data, np.uint8)[_run_index(start, length)]
    text[np.cumsum(length) - 1] = ord("\n")
    return text.tobytes().decode("utf-8").split("\n")[:-1]


def _encode(paths) -> tuple[Vocab, list[np.ndarray]]:
    """Id triples of TSV triple files (``None`` for an absent split), and
    the vocabulary that encoded them.

    The files are joined into one byte buffer. Entities (heads and tails,
    interleaved line by line over the files) and relations are interned
    separately by :func:`_intern`, and only the first field of every id is
    decoded, into the vocabulary.
    """
    files = [_tokenise(path) if path else (b"", np.empty((0, 3, 2), dtype=np.int64)) for path in paths]
    texts, spans = zip(*files)
    del files
    data = b"".join(texts + (bytes(8),))
    for span, at in zip(spans, np.cumsum([0, *map(len, texts)]).tolist()):
        span += at
    del texts  # the joined bytes are now the only copy
    # axis=None flattens each (k, 2, 2) head-and-tail view straight into the one copy
    ents = np.concatenate([span[:, ::2] for span in spans], axis=None).reshape(-1, 2)
    rels = np.concatenate([span[:, 1] for span in spans])
    lines = np.cumsum([len(span) for span in spans])[:-1]
    del spans
    ent_ids, ent_first = _intern(data, ents)
    rel_ids, rel_first = _intern(data, rels)
    pairs = zip(np.split(ent_ids, 2 * lines), np.split(rel_ids, lines))
    out = [np.stack([e[::2], r, e[1::2]], axis=1) for e, r in pairs]
    return Vocab._distinct(_decode(data, ents[ent_first]), _decode(data, rels[rel_first])), out


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


def reciprocal_queries(triples, num_relations: int) -> np.ndarray:
    """The 2m ``(source, relation, answer)`` queries of m triples ``(h, r, t)``:
    rows ``0..m-1`` are the tail queries ``(h, r, t)`` and rows ``m..2m-1``
    the head queries ``(t, r + num_relations, h)``."""
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    queries = np.concatenate([triples, triples[:, ::-1]])
    queries[len(triples) :, 1] += num_relations
    return queries


def _run_index(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The index runs ``[lo[k], lo[k] + count[k])``, back to back."""
    at = np.repeat(lo - (np.cumsum(count) - count), count)
    at += np.arange(len(at))
    return at


def _expand_runs(lo: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand the index runs ``[lo[k], lo[k] + count[k])`` into parallel
    ``(row, at)``: ``at`` walks every run in turn and ``row`` holds the
    ``k`` of the run each index came from."""
    return np.repeat(np.arange(len(count)), count), _run_index(lo, count)


def _runs_in(codes: np.ndarray, base: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs ``[base[k] * span, (base[k] + 1) * span)`` of the sorted
    ``codes``, found with two ``np.searchsorted`` calls and expanded by
    :func:`_expand_runs`: ``codes[at]`` lies in the run of ``base[row]``."""
    lo = np.searchsorted(codes, base * span)
    return _expand_runs(lo, np.searchsorted(codes, (base + 1) * span) - lo)


class FilterIndex:
    """Known answers of every ``(source, relation)`` query, as one sorted code array.

    ``codes`` holds the sorted, distinct int64 codes
    ``(src * num_relation_rows + rel) * span + answer`` of the parallel
    ``src``, ``rel`` and ``answer`` arrays, with ``span`` one more than the
    largest answer, so the answers of a pair are one run of codes, ascending.
    A block of queries finds its runs with two ``np.searchsorted`` calls
    (:func:`_runs_in`).
    """

    def __init__(self, src, rel, answer, num_relation_rows: int):
        self.num_relation_rows = int(num_relation_rows)
        answer = np.asarray(answer, dtype=np.int64)
        self.span = int(answer.max()) + 1 if len(answer) else 1
        codes = np.sort((np.asarray(src, dtype=np.int64) * self.num_relation_rows + rel) * self.span + answer)
        self.codes = codes[_fresh(codes)]

    def known_answers(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Every known answer of a block of ``(src, rel, true_answer)`` queries.

        Returns parallel arrays ``(row, answer)``: ``answer`` is a known
        answer of query ``row``. A query whose pair is not in the index, or
        whose true answer is not among the pair's answers, raises ValueError.
        """
        return self._answers(self._pair_codes(np.asarray(queries, dtype=np.int64).reshape(-1, 3)))

    def _pair_codes(self, q: np.ndarray) -> np.ndarray:
        """The pair codes ``src * num_relation_rows + rel`` of ``(k, 3)``
        queries, each checked by one ``np.searchsorted`` of its full code.

        A relation outside ``[0, num_relation_rows)`` or an answer outside
        ``[0, span)`` would alias into another pair's run, so such a query
        is not covered either. ValueError names the first query not covered.
        """
        src, rel, answer = q.T
        base = src * self.num_relation_rows + rel
        code = base * self.span + answer
        # "clip" keeps a code past the last one in range; an empty index covers nothing
        found = self.codes.take(np.searchsorted(self.codes, code), mode="clip") == code if len(self.codes) else False
        covered = found & (rel >= 0) & (rel < self.num_relation_rows) & (answer >= 0) & (answer < self.span)
        if not covered.all():
            h, r, t = q[np.argmin(covered)].tolist()
            raise ValueError(f"query ({h}, {r}, {t}) is not covered by the filter index")
        return base

    def _answers(self, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Parallel ``(row, answer)``: every known answer of pair ``base[row]``."""
        row, at = _runs_in(self.codes, base, self.span)
        return row, self.codes[at] - (base * self.span)[row]  # a subtraction, not a slower ``%``


class TripleStore:
    """Integer-encoded triples with splits and a filtered-ranking index.

    The :class:`FilterIndex` holds the known answers of every
    ``(head_id, relation_id)`` query over the union of all splits, covering
    reciprocal relation ids as well, so that every query seen during
    evaluation can exclude the other known-true answers. It is built on
    first access, so a store that is never ranked never sorts its pairs.
    """

    def __init__(self, vocab: Vocab, train: np.ndarray, valid=None, test=None):
        self.vocab = vocab
        self.train = np.asarray(train, dtype=np.int64).reshape(-1, 3)
        self.valid, self.test = (
            np.asarray(() if s is None else s, dtype=np.int64).reshape(-1, 3) for s in (valid, test)
        )
        self._check_ids()
        self._flag_unseen_entities()

    @property
    def num_entities(self) -> int:
        return self.vocab.num_entities

    @property
    def num_relations(self) -> int:
        return self.vocab.num_relations

    @functools.cached_property
    def filter_index(self) -> FilterIndex:
        every = np.concatenate([self.train, self.valid, self.test])
        return FilterIndex(*reciprocal_queries(every, self.num_relations).T, 2 * self.num_relations)

    def split(self, name: str) -> np.ndarray:
        if name not in ("train", "valid", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

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

    def _flag_unseen_entities(self):
        seen, held_out = np.zeros((2, self.num_entities), dtype=bool)
        seen[self.train[:, [0, 2]]] = True
        held_out[np.concatenate([self.valid, self.test])[:, [0, 2]]] = True
        self.entities_not_in_train = np.flatnonzero(~seen)
        # without train triples every entity is unseen; the empty split is
        # the error that training and the CLI report
        only_held_out = np.count_nonzero(held_out & ~seen)
        if len(self.train) and only_held_out:
            logger.warning("%d entities appear only in valid/test splits", only_held_out)

    # persistence -----------------------------------------------------------

    def save(self, directory) -> None:
        """Write the three splits as ``train.tsv``, ``valid.tsv`` and ``test.tsv``."""
        directory = Path(directory)
        ents, rels = self.vocab.entity_names, self.vocab.relation_names
        for name in ("train", "valid", "test"):
            lines = (f"{ents[h]}\t{rels[r]}\t{ents[t]}\n" for h, r, t in getattr(self, name).tolist())
            with replacing(directory / f"{name}.tsv", encoding="utf-8") as fh:
                fh.write("".join(lines))


def load_triples(path) -> TripleStore:
    """Load a single TSV file as the train split of a new store.

    The vocabulary is built in file order. Duplicate lines are dropped with
    a warning since they would bias the per-relation head/tail statistics.
    """
    return load_dataset(path)


def load_dataset(train_path, valid_path=None, test_path=None) -> TripleStore:
    """Load a train/valid/test dataset with a shared vocabulary.

    The vocabulary covers the union of all splits so evaluation never meets
    an unknown entity; entities absent from train are flagged with a warning.
    """
    vocab, splits = _encode([train_path, valid_path, test_path])
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
