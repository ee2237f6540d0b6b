import hashlib
import importlib.util
import logging
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from star_kge import data
from star_kge.data import (
    CLASS_N_TO_ONE,
    CLASS_ONE_TO_ONE,
    RelationClass,
    TripleParseError,
    TripleStore,
    Vocab,
    VocabularyError,
    classify_relations,
    entity_frequency,
    load_dataset,
    load_triples,
    reciprocal_queries,
)
from conftest import dataset_path, make_store
from oracles import (
    classify_relations_loop,
    encode_frozen_loop,
    encode_loop,
    filter_sets,
    first_appearance_argsort,
    read_triples_loop,
)


def write_tsv(path, rows):
    path.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
    return path


class TestLoadTriples:
    def test_minimal_two_line_file(self, tmp_path):
        path = write_tsv(tmp_path / "train.tsv", [("A", "r", "B"), ("B", "r", "C")])
        store = load_triples(path)
        assert store.num_entities == 3
        assert store.num_relations == 1
        assert len(store.train) == 2
        np.testing.assert_array_equal(store.train, [[0, 0, 1], [1, 0, 2]])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("A\tr\tB\nA\tB\n", encoding="utf-8")
        with pytest.raises(TripleParseError, match=":2:"):
            load_triples(path)

    def test_frozen_vocab_rejects_unknown_entity(self, tmp_path):
        vocab = Vocab(["A", "B"], ["r"])
        path = write_tsv(tmp_path / "train.tsv", [("A", "r", "Z")])
        with pytest.raises(VocabularyError, match="Z"):
            load_triples(path, vocab)

    def test_duplicates_dropped_with_warning(self, tmp_path, caplog):
        path = write_tsv(tmp_path / "train.tsv", [("A", "r", "B")] * 3)
        with caplog.at_level("WARNING"):
            store = load_triples(path)
        assert len(store.train) == 1
        assert "duplicate" in caplog.text

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("A\tr\tB\n\nB\tr\tC\n", encoding="utf-8")
        assert len(load_triples(path).train) == 2


#: names run to about 20 characters: a prefix, one of them 8 UTF-8 bytes
#: long so that names share their first word, then letters, NUL, multi-byte
#: characters and characters that str.splitlines() would break at; lines are
#: well-formed, malformed or blank, ended by LF, CRLF or a lone CR
_NAME = st.tuples(
    st.sampled_from(["", "a", "abcdefgh", "ab\u20ac\u20ac", "\x00" * 8]),
    st.text(alphabet="ab\x00\x0b\x0c\x1c\x85\xe9\u2028\u2029\u20ac\U0001d11e", max_size=12),
).map("".join)
_LINE = st.one_of(
    st.tuples(_NAME, _NAME, _NAME).map("\t".join),
    st.lists(_NAME, min_size=1, max_size=5).map("\t".join),
    st.just(""),
)
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
#: a file of lines, each repeated 1-3 times so that duplicate triples occur
_FILE = st.lists(st.tuples(_LINE, _ENDS, st.integers(1, 3)), max_size=12).map(
    lambda lines: "".join((line + end) * times for line, end, times in lines)
)


class TestReaderMatchesLoop:
    """The array reader and encoder against the line-by-line oracle."""

    @staticmethod
    def _load(fn, *args):
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("star_kge.data")
        logger.addHandler(handler)
        try:
            return fn(*args), [r.getMessage() for r in records if "duplicate" in r.getMessage()]
        finally:
            logger.removeHandler(handler)

    @staticmethod
    def _oracle(paths):
        try:
            rows = [read_triples_loop(p) if p else [] for p in paths]
        except ValueError as exc:
            return str(exc)
        ents, rels, encoded, dropped = encode_loop(rows)
        splits = ("train", "valid", "test")
        warned = [f"dropped {n} duplicate triples from {s} split" for n, s in zip(dropped, splits) if n]
        return ents, rels, encoded, warned

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(_FILE, st.none() | _FILE, st.none() | _FILE))
    @example(texts=("a\tr\tb\n" * 3, "b\tr\ta\r\n" * 2, None))  # splits of repeated lines
    @example(texts=("a\tr\tb\n", "a\tr\tb\n", "a\tr\tb\n"))  # one triple in every split, kept
    @example(texts=("a\tr\tb\n", "", ""))  # empty splits
    @example(texts=("a\tr\tb\n", "b\tr\tc\nd\tr\ta\n", None))  # unknown tail, then head: the head is named
    @example(texts=("a\tr\tb\n", "a\tq\tc\n", None))  # unknown relation and tail: the relation is named
    @example(texts=("caf\u00e9\tr\x85\ta\u2028b\n", "a\u2028b\tr\u00e9\tz\n", "z\tr\x85\tcaf\u00e9\n"))  # no file is ASCII
    def test_load_dataset_and_load_triples(self, texts):
        self._check(texts)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(_FILE, st.none() | _FILE, st.none() | _FILE))
    @example(texts=("a\tr\tb\nb\tq\ta\n" * 2, "a\tr\tc\n", None))
    def test_every_name_key_colliding_still_gives_exact_ids(self, texts):
        # every field gets key 0, so the byte check must catch each distinct name
        with mock.patch("star_kge.data._mix", np.zeros_like):
            self._check(texts)

    def _check(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, text in zip(("train", "valid", "test"), texts):
                path = None
                if text is not None:
                    path = Path(tmp) / f"{name}.tsv"
                    with open(path, "w", encoding="utf-8", newline="") as fh:
                        fh.write(text)
                paths.append(path)
            want = self._oracle(paths)
            if isinstance(want, str):
                with pytest.raises(TripleParseError) as err:
                    load_dataset(*paths)
                assert str(err.value) == want
            else:
                store, warned = self._load(load_dataset, *paths)
                assert (store.vocab.entity_names, store.vocab.relation_names) == want[:2]
                for split, ids in zip(("train", "valid", "test"), want[2]):
                    np.testing.assert_array_equal(store.split(split), ids)
                assert warned == want[3]

            want = self._oracle(paths[:1])
            if isinstance(want, str):
                with pytest.raises(TripleParseError) as err:
                    load_triples(paths[0])
                assert str(err.value) == want
            else:
                store, warned = self._load(load_triples, paths[0])
                assert (store.vocab.entity_names, store.vocab.relation_names) == want[:2]
                np.testing.assert_array_equal(store.train, want[2][0])
                assert warned == want[3]
                frozen, warned = self._load(load_triples, paths[0], store.vocab)
                np.testing.assert_array_equal(frozen.train, store.train)
                assert warned == want[3]
                self._check_frozen(paths[1], store.vocab)

    def _check_frozen(self, path, vocab):
        """``path`` loaded under ``vocab``: the same ids, dedupe warning or
        VocabularyError text as the oracle, and ``vocab`` left as it was."""
        if path is None:
            return
        try:
            rows = read_triples_loop(path)
        except ValueError:
            return  # the parse error is checked by the caller
        names = (list(vocab.entity_names), list(vocab.relation_names))
        want = encode_frozen_loop(rows, *names)
        if isinstance(want, str):
            with pytest.raises(VocabularyError) as err:
                load_triples(path, vocab)
            assert err.value.args == (want,)
        else:
            store, warned = self._load(load_triples, path, vocab)
            np.testing.assert_array_equal(store.train, want[0])
            assert warned == ([f"dropped {want[1]} duplicate triples from train split"] if want[1] else [])
        assert vars(vocab) == {"entity_names": names[0], "relation_names": names[1]}


#: uint64 hashes with heavy repeats as the interning sees them, small int64
#: keys that all share their zero top bits, and uint64 keys that share their
#: top bits and differ only in the low 8
_KEY_ARRAYS = st.one_of(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6)
    .flatmap(lambda values: st.lists(st.sampled_from(values), max_size=80))
    .map(lambda keys: np.array(keys, dtype=np.uint64)),
    st.lists(st.integers(0, 20), max_size=80).map(lambda keys: np.array(keys, dtype=np.int64)),
    st.lists(st.integers(0, 255), max_size=300).map(
        lambda keys: np.array(keys, dtype=np.uint64) | np.uint64(0xFFFF_FFFF_FFFF_FF00)
    ),
)


class TestFirstAppearance:
    @settings(max_examples=300, deadline=None)
    @given(_KEY_ARRAYS)
    @example(key=np.array([], dtype=np.uint64))
    @example(key=np.array([], dtype=np.int64))
    @example(key=np.array([2**64 - 1], dtype=np.uint64))
    @example(key=np.array([0], dtype=np.int64))
    @example(key=np.zeros(5, dtype=np.uint64))
    def test_matches_argsort_oracle(self, key):
        ids, first = data._first_appearance(key)
        want_ids, want_first = first_appearance_argsort(key)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(first, want_first)

    def test_keys_sharing_their_top_bits_split_without_the_byte_fallback(self, tmp_path):
        # a one-byte name's key is then (1 ^ byte) | 0xFF..00: distinct names
        # keep distinct keys, and at 200 lines every key shares the top bits
        # above the 8 or 9 index bits, so each side is one run to split
        names = [chr(c) for c in range(ord("!"), ord("~") + 1)]
        rows = [(names[i % 94], names[(7 * i) % 11], names[(31 * i + 5) % 94]) for i in range(200)]
        path = write_tsv(tmp_path / "train.tsv", rows)
        spy = mock.Mock(wraps=data._first_appearance)
        with (
            mock.patch("star_kge.data._mix", lambda z: z | np.uint64(0xFFFF_FFFF_FFFF_FF00)),
            mock.patch("star_kge.data._first_appearance", spy),
        ):
            store = load_triples(path)
        ents, rels, (encoded,), _ = encode_loop([read_triples_loop(path)])
        assert (store.vocab.entity_names, store.vocab.relation_names) == (ents, rels)
        np.testing.assert_array_equal(store.train, encoded)
        # one call per side on the 64-bit keys, and none on byte keys
        assert [call.args[0].dtype for call in spy.call_args_list] == [np.uint64, np.uint64]


@st.composite
def _split_graphs(draw):
    """``(num_entities, num_relations, train, valid, test)``: triples repeat
    inside a split and across splits, self-loops are common and entities
    may appear only in valid/test or nowhere."""
    ne, nr = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, ne - 1), st.integers(0, nr - 1), st.integers(0, ne - 1))
    train = draw(st.lists(triple, max_size=20))
    again = st.sampled_from(train) | triple if train else triple
    valid = draw(st.lists(again, max_size=6))
    test = draw(st.lists(again, max_size=6))
    return ne, nr, train, valid, test


class TestFilterIndex:
    @settings(max_examples=200, deadline=None)
    @given(_split_graphs())
    @example(case=(1, 1, [(0, 0, 0), (0, 0, 0)], [], []))  # one entity: a repeated self-loop
    @example(case=(4, 2, [(0, 0, 1)], [], [(2, 1, 3), (0, 0, 1)]))  # test-only entities
    @example(case=(3, 2, [], [], []))  # no triples
    def test_matches_dict_of_sets(self, case):
        ne, nr, train, valid, test = case
        index = make_store(train, num_entities=ne, num_relations=nr, valid=valid, test=test).filter_index
        known = filter_sets([train, valid, test], nr)
        pairs = sorted(known)  # (src, rel) order is code order: rel < 2 * nr
        assert index.keys.dtype == index.offsets.dtype == index.answers.dtype == np.int64
        assert index.keys.tolist() == [src * 2 * nr + rel for src, rel in pairs]
        assert index.offsets.tolist() == np.cumsum([0] + [len(known[p]) for p in pairs]).tolist()
        assert index.answers.tolist() == [a for p in pairs for a in sorted(known[p])]
        triples = train + valid + test
        queries = triples + [(t, r + nr, h) for h, r, t in triples]
        if queries:
            row, answer = index.known_answers(queries)
            want = [(i, a) for i, (src, rel, _) in enumerate(queries) for a in sorted(known[(src, rel)])]
            assert list(zip(row.tolist(), answer.tolist())) == want

    def test_covers_every_triple_in_both_directions(self, toy_store):
        nr = toy_store.num_relations
        for split in ("train", "valid", "test"):
            triples = toy_store.split(split).tolist()
            for h, r, t in triples:
                _, tails = toy_store.filter_index.known_answers([(h, r, t)])
                _, heads = toy_store.filter_index.known_answers([(t, r + nr, h)])
                assert t in tails
                assert h in heads
            # the builder: every tail query (h, r, t), then every head query (t, r + |R|, h)
            queries = reciprocal_queries(toy_store.split(split), nr)
            assert queries.dtype == np.int64 and queries.shape == (2 * len(triples), 3)
            assert queries.tolist() == triples + [[t, r + nr, h] for h, r, t in triples]
            row, answer = toy_store.filter_index.known_answers(queries)
            assert {(i, q[2]) for i, q in enumerate(queries.tolist())} <= set(zip(row.tolist(), answer.tolist()))

    def test_array_layout(self):
        # (0, r0, 1) twice across splits, and its reciprocal answer twice
        store = make_store([(0, 0, 2), (0, 0, 1), (3, 0, 1)], num_entities=4, valid=[(0, 0, 1)], test=[(0, 0, 2)])
        index = store.filter_index
        r_rows = 2 * store.num_relations
        np.testing.assert_array_equal(index.keys, [0 * r_rows + 0, 1 * r_rows + 1, 2 * r_rows + 1, 3 * r_rows + 0])
        np.testing.assert_array_equal(index.offsets, [0, 2, 4, 5, 6])
        np.testing.assert_array_equal(index.answers, [1, 2, 0, 3, 0, 1])
        row, answer = index.known_answers([(1, 1, 3), (0, 0, 2)])
        assert row.tolist() == [0, 0, 1, 1]
        assert answer.tolist() == [0, 3, 1, 2]

    def test_missing_pair_raises(self, toy_store):
        with pytest.raises(ValueError, match=r"query \(4, 1, 0\) is not covered"):
            toy_store.filter_index.known_answers([(0, 0, 1), (4, 1, 0)])
        empty = TripleStore(Vocab(["a"], ["r"]), np.empty((0, 3), dtype=np.int64))
        with pytest.raises(ValueError, match="not covered"):
            empty.filter_index.known_answers([(0, 0, 0)])

    def test_reciprocal_triples_never_reach_disk(self, toy_store, tmp_path):
        toy_store.save(tmp_path / "store")
        reloaded = TripleStore.load(tmp_path / "store")
        assert reloaded.train[:, 1].max() < toy_store.num_relations

    def test_reciprocal_enumeration(self, toy_store):
        rec = reciprocal_queries(toy_store.train, toy_store.num_relations)[len(toy_store.train) :]
        np.testing.assert_array_equal(rec[:, 0], toy_store.train[:, 2])
        np.testing.assert_array_equal(rec[:, 2], toy_store.train[:, 0])
        np.testing.assert_array_equal(
            rec[:, 1], toy_store.train[:, 1] + toy_store.num_relations
        )


class TestRoundTrip:
    def test_save_load_preserves_ids_and_triples(self, toy_store, tmp_path):
        toy_store.save(tmp_path / "store")
        reloaded = TripleStore.load(tmp_path / "store")
        assert reloaded.vocab.entity_names == toy_store.vocab.entity_names
        assert reloaded.vocab.relation_names == toy_store.vocab.relation_names
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(reloaded.split(split), toy_store.split(split))

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("train.tsv", lambda lines: lines[:-2], "splits .*'train': 6.*found .*'train': 4"),
            ("test.tsv", lambda lines: [], "splits .*'test': 2.*found .*'test': 0"),
            ("entities.txt", lambda lines: lines + ["extra\n"], "num_entities 5, found 6"),
        ],
        ids=["truncated-split", "emptied-split", "extra-vocabulary-line"],
    )
    def test_load_rejects_files_that_disagree_with_the_manifest(self, toy_store, tmp_path, name, edit, message):
        toy_store.save(tmp_path / "store")
        path = tmp_path / "store" / name
        path.write_text("".join(edit(path.read_text(encoding="utf-8").splitlines(keepends=True))), encoding="utf-8")
        with pytest.raises(ValueError, match=f"manifest records {message}"):
            TripleStore.load(tmp_path / "store")

    def test_names_with_unicode_line_breaks_survive(self, tmp_path):
        names = ["a\u2028b", "c\x85d", "e\x0bf", "g\x1ch"]
        train = [(names[0], "r\u2028", names[1]), (names[2], "r\x85", names[3])]
        write_tsv(tmp_path / "train.tsv", train)
        write_tsv(tmp_path / "test.tsv", [(names[3], "r\x0b\x1c", names[0])])
        store = load_dataset(tmp_path / "train.tsv", test_path=tmp_path / "test.tsv")
        assert store.vocab.entity_names == names
        assert store.vocab.relation_names == ["r\u2028", "r\x85", "r\x0b\x1c"]
        store.save(tmp_path / "store")
        reloaded = TripleStore.load(tmp_path / "store")
        assert reloaded.vocab == store.vocab
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(reloaded.split(split), store.split(split))

    def test_duplicate_names_rejected(self):
        with pytest.raises(VocabularyError, match="entity"):
            Vocab(["a", "a"], ["r"])
        with pytest.raises(VocabularyError, match="relation"):
            Vocab(["a"], ["r", "r"])

    def test_out_of_range_ids_rejected(self):
        vocab = Vocab(["a", "b"], ["r"])
        with pytest.raises(ValueError, match="entity ids"):
            TripleStore(vocab, np.array([[0, 0, 5]]))


class TestReaderEdgeCases:
    def test_invalid_utf8_raises_as_a_text_read_would(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_bytes(b"a\tr\tb\nc\tr\t\xff\n")
        valid = write_tsv(tmp_path / "valid.tsv", [("caf\u00e9", "r", "a")])
        with pytest.raises(UnicodeDecodeError) as want:
            path.read_text(encoding="utf-8")
        # alone, or as the test split after files that decode
        for load in (load_triples, load_dataset, lambda bad: load_dataset(valid, valid, bad)):
            with pytest.raises(UnicodeDecodeError) as err:
                load(path)
            assert str(err.value) == str(want.value)

    def test_byte_order_mark_stays_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_bytes(b"\xef\xbb\xbfa\tr\tb\nb\tr\ta\n")
        # as in a text read with encoding="utf-8": "\ufeffa" and "a" are two names
        assert load_triples(path).vocab.entity_names == ["\ufeffa", "b", "a"]

    @pytest.mark.parametrize(
        "text",
        ["a\tr\tb\rb\tr\tc\r", "a\tr\tb\r\nb\tr\tc", "a\tr\tb\nb\tr\tc", "\ra\tr\tb\r\r\nb\tr\tc\n\n"],
        ids=["cr-only", "crlf-no-final-newline", "no-final-newline", "blank-lines"],
    )
    def test_line_ends(self, tmp_path, text):
        path = tmp_path / "train.tsv"
        path.write_bytes(text.encode("utf-8"))
        store = load_triples(path)
        assert store.vocab.entity_names == ["a", "b", "c"]
        np.testing.assert_array_equal(store.train, [[0, 0, 1], [1, 0, 2]])

    def test_cr_only_line_numbers(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_bytes(b"a\tr\tb\r\ra\tb")
        with pytest.raises(TripleParseError, match=r":3: expected 3 tab-separated fields, got 2$"):
            load_triples(path)

    def test_empty_files(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_bytes(b"")
        store = load_dataset(path, path, path)
        assert store.vocab.entity_names == store.vocab.relation_names == []
        for split in ("train", "valid", "test"):
            assert store.split(split).shape == (0, 3)
        frozen = load_triples(path, Vocab(["a"], ["r"]))
        assert frozen.train.shape == (0, 3)

    def test_save_load_round_trips_non_ascii_names(self, tmp_path):
        names = ["caf\u00e9", "\u65e5\u672c\u8a9e", "\U0001d11e", "a\x00b", "ab\u20ac\u20acx", "ab\u20ac\u20acy"]
        rows = [(names[i], "r\u00e9l\u00e0tion", names[(i + 1) % len(names)]) for i in range(len(names))]
        write_tsv(tmp_path / "train.tsv", rows)
        write_tsv(tmp_path / "test.tsv", [(names[5], "\u2192", names[0])])
        store = load_dataset(tmp_path / "train.tsv", test_path=tmp_path / "test.tsv")
        assert store.vocab.entity_names == names
        assert store.vocab.relation_names == ["r\u00e9l\u00e0tion", "\u2192"]
        store.save(tmp_path / "store")
        reloaded = TripleStore.load(tmp_path / "store")
        assert reloaded.vocab == store.vocab
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(reloaded.split(split), store.split(split))

    def test_given_vocabulary_names_the_unknown_non_ascii_name(self, tmp_path):
        path = write_tsv(tmp_path / "train.tsv", [("caf\u00e9", "r", "ab\u20ac\u20acx")])
        with pytest.raises(VocabularyError) as err:
            load_triples(path, Vocab(["caf\u00e9", "ab\u20ac\u20acy"], ["r"]))
        assert err.value.args == ("unknown entity 'ab\u20ac\u20acx'",)


def _bench_graph_files(scale, seed, directory, monkeypatch):
    """The train, valid and test files of the benchmark's WN18RR-shaped graph."""
    spec = importlib.util.spec_from_file_location(
        "bench_graphs", Path(__file__).resolve().parents[1] / "bench" / "graphs.py"
    )
    graphs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, graphs)  # dataclasses look their module up
    spec.loader.exec_module(graphs)
    paths = graphs.write_tsv(graphs.generate(graphs.wn18rr_shape(scale), seed), directory)
    return paths["train"], paths["valid"], paths["test"]


class TestRecordedIngest:
    def test_wn18rr_shaped_graph_matches_recorded_sha256(self, tmp_path, monkeypatch):
        # sha256 of what the dict-encoder ingest loaded for this graph
        store = load_dataset(*_bench_graph_files(0.01, 5, tmp_path, monkeypatch))
        digest = hashlib.sha256()
        for names in (store.vocab.entity_names, store.vocab.relation_names):
            digest.update("\n".join(names).encode("utf-8") + b"\0")
        for split in ("train", "valid", "test"):
            digest.update(np.ascontiguousarray(store.split(split), dtype="<i8").tobytes())
        assert (store.num_entities, store.num_relations, len(store.train)) == (409, 11, 868)
        assert digest.hexdigest() == "a2c6dd48484da9a5681506d9474dc0ff8c7afcb5010a1b27d7ead26c5401991c"

    def test_peak_memory_is_at_most_six_and_a_half_times_the_file_bytes(self, tmp_path, monkeypatch):
        # one copy of the file bytes, the field offsets and the interning's
        # words: about 6.1x; an ingest that kept each file's bytes beside the
        # joined copy and its offsets twice peaked at about 10.3x
        paths = _bench_graph_files(0.1, 11, tmp_path, monkeypatch)
        load_dataset(*paths)  # allocations of a first call (caches, lazy imports) stay out of the peak
        tracemalloc.start()
        try:
            load_dataset(*paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * sum(path.stat().st_size for path in paths)


class TestClassify:
    def test_two_heads_one_tail_is_n_to_one(self):
        store = make_store([(0, 0, 2), (1, 0, 2)], num_entities=3)
        (cls,) = classify_relations(store)
        assert cls.tphr == 1.0
        assert cls.hptr == 2.0
        assert cls.label == CLASS_N_TO_ONE

    def test_single_triple_is_one_to_one(self):
        store = make_store([(0, 0, 1)])
        (cls,) = classify_relations(store)
        assert cls.tphr == cls.hptr == 1.0
        assert cls.label == CLASS_ONE_TO_ONE

    def test_all_four_classes(self):
        # r0: 1-1; r1: 1-N (one head, many tails); r2: N-1; r3: N-N
        triples = [(0, 0, 1)]
        triples += [(0, 1, t) for t in range(1, 4)]
        triples += [(h, 2, 0) for h in range(1, 4)]
        triples += [(h, 3, t) for h in range(3) for t in range(3)]
        labels = {c.relation_id: c.label for c in classify_relations(make_store(triples))}
        assert labels == {0: "1-to-1", 1: "1-to-N", 2: "N-to-1", 3: "N-to-N"}

    def test_invariant_to_triple_order(self, rng):
        triples = [(int(h), int(r), int(t)) for h, r, t in rng.integers(0, 6, size=(40, 3))]
        triples = list(dict.fromkeys(triples))
        a = classify_relations(make_store(triples, num_entities=6, num_relations=6))
        shuffled = list(triples)
        rng.shuffle(shuffled)
        b = classify_relations(make_store(shuffled, num_entities=6, num_relations=6))
        assert {(c.relation_id, c.tphr, c.hptr, c.label) for c in a} == {
            (c.relation_id, c.tphr, c.hptr, c.label) for c in b
        }

    def test_unused_relation_excluded(self, caplog):
        store = make_store([(0, 0, 1)], num_relations=2)
        with caplog.at_level("WARNING"):
            classes = classify_relations(store)
        assert [c.relation_id for c in classes] == [0]
        assert "not classified" in caplog.text


    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda ne: st.integers(1, 5).flatmap(
                lambda nr: st.tuples(
                    st.just(ne),
                    st.just(nr),
                    st.lists(
                        st.tuples(st.integers(0, ne - 1), st.integers(0, nr - 1), st.integers(0, ne - 1)),
                        min_size=1,
                        max_size=40,
                        unique=True,
                    ),
                )
            )
        )
    )
    def test_matches_per_relation_loop(self, case):
        import logging

        ne, nr, triples = case
        store = make_store(triples, num_entities=ne, num_relations=nr)
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("star_kge.data")
        logger.addHandler(handler)
        try:
            got = classify_relations(store)
        finally:
            logger.removeHandler(handler)
        want, missing = classify_relations_loop(triples, nr)
        assert all(isinstance(c, RelationClass) for c in got)
        assert [(c.relation_id, c.tphr, c.hptr, c.label) for c in got] == want
        warned = [r.getMessage() for r in records if "not classified" in r.getMessage()]
        assert warned == ([f"{len(missing)} relations have no train triples and were not classified"] if missing else [])


class TestEntityFrequency:
    def test_tail_counts(self):
        store = make_store([(0, 0, 1), (2, 0, 1)])
        counts, max_count = entity_frequency(store, "tail")
        assert counts[1] == 2
        assert max_count == 2

    def test_absent_entity_counts_zero(self):
        store = make_store([(0, 0, 1)], num_entities=5)
        counts, _ = entity_frequency(store, "tail")
        assert counts[4] == 0

    def test_matches_exhaustive_recount(self, rng):
        triples = list(dict.fromkeys(map(tuple, rng.integers(0, 10, size=(60, 3)).tolist())))
        store = make_store(triples, num_entities=10, num_relations=10)
        counts, max_count = entity_frequency(store, "head")
        manual = [sum(1 for h, _, _ in triples if h == e) for e in range(10)]
        np.testing.assert_array_equal(counts, manual)
        assert max_count == max(manual)

    def test_bad_side_rejected(self, toy_store):
        with pytest.raises(ValueError):
            entity_frequency(toy_store, "middle")


class TestDatasetVocab:
    def test_union_vocabulary_flags_test_only_entities(self, tmp_path, caplog):
        write_tsv(tmp_path / "train.tsv", [("A", "r", "B")])
        write_tsv(tmp_path / "test.tsv", [("A", "r", "C")])
        with caplog.at_level("WARNING"):
            store = load_dataset(tmp_path / "train.tsv", test_path=tmp_path / "test.tsv")
        assert store.num_entities == 3
        assert list(store.entities_not_in_train) == [2]
        assert "1 entities appear only in valid/test splits" in caplog.text

    def test_vocabulary_wider_than_its_splits_warns_only_of_held_out_entities(self, caplog):
        with caplog.at_level("WARNING"):
            make_store([(0, 0, 1)], num_entities=4)
        assert "appear only in valid/test" not in caplog.text
        caplog.clear()
        with caplog.at_level("WARNING"):
            store = make_store([(0, 0, 1)], num_entities=6, valid=[(1, 0, 2)], test=[(3, 0, 0)])
        assert "2 entities appear only in valid/test splits" in caplog.text
        assert list(store.entities_not_in_train) == [2, 3, 4, 5]


@pytest.mark.dataset
class TestWN18RR:
    def test_table_statistics(self):
        store = load_dataset(
            dataset_path("WN18RR", "train"),
            dataset_path("WN18RR", "valid"),
            dataset_path("WN18RR", "test"),
        )
        assert len(store.train) == 86_835
        assert store.num_entities == 40_943
        assert store.num_relations == 11

    def test_classes_cover_four_kinds_and_match_recount(self):
        store = load_dataset(dataset_path("WN18RR", "train"))
        classes = classify_relations(store)
        assert len(classes) == 11
        assert {c.label for c in classes} == {"1-to-1", "1-to-N", "N-to-1", "N-to-N"}
        # recompute one relation exhaustively
        probe: RelationClass = classes[0]
        rows = store.train[store.train[:, 1] == probe.relation_id]
        assert probe.tphr == len(rows) / len(set(rows[:, 0].tolist()))
        assert probe.hptr == len(rows) / len(set(rows[:, 2].tolist()))

    def test_tail_counts_match_scan(self):
        store = load_dataset(dataset_path("WN18RR", "train"))
        counts, max_count = entity_frequency(store, "tail")
        scan = np.zeros(store.num_entities, dtype=np.int64)
        for _, _, t in store.train.tolist():
            scan[t] += 1
        np.testing.assert_array_equal(counts, scan)
        assert max_count == scan.max()


@pytest.mark.dataset
class TestFB15K237:
    def test_table_statistics(self):
        store = load_dataset(
            dataset_path("FB15K237", "train"),
            dataset_path("FB15K237", "valid"),
            dataset_path("FB15K237", "test"),
        )
        assert len(store.train) == 272_115
        assert store.num_entities == 14_541
        assert store.num_relations == 237
