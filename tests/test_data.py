import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from conftest import dataset_path, make_store
from oracles import classify_relations_loop, encode_loop, read_triples_loop


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


#: names mix letters with characters that str.splitlines() would break at;
#: lines are well-formed, malformed or blank, ended by LF, CRLF or a lone CR
_NAME = st.text(alphabet="ab\x0b\x0c\x1c\x85\u2028\u2029", max_size=2)
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
    def test_load_dataset_and_load_triples(self, texts):
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


class TestFilterIndex:
    def test_covers_every_triple_in_both_directions(self, toy_store):
        nr = toy_store.num_relations
        for split in ("train", "valid", "test"):
            for h, r, t in toy_store.split(split).tolist():
                _, tails = toy_store.filter_index.known_answers([(h, r, t)])
                _, heads = toy_store.filter_index.known_answers([(t, r + nr, h)])
                assert t in tails
                assert h in heads

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
        rec = toy_store.reciprocal_triples("train")
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
