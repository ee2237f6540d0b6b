import json
import re
import time

import numpy as np
import pytest

from star_kge import _threads
from star_kge.analysis import count_two_paths
from star_kge.data import classify_relations, load_triples, reciprocal_queries
from star_kge.evaluation import TIE_RULES, evaluate, filtered_rank
from star_kge.model import _query_rows, init_embeddings, score_batch
from conftest import make_store
from oracles import exact_scores, filter_sets, sort_rank


def trained_toy(store, epochs=60, seed=0):
    from star_kge.training import TrainConfig, train

    cfg = TrainConfig(n=8, epochs=epochs, lr=0.2, batch_size=32, seed=seed, init_scale=0.1)
    table, _ = train(store, cfg)
    return table


def pair_order(triples, num_relations):
    """The queries that evaluate() hands to filtered_rank: those of
    reciprocal_queries, stably sorted by pair code ``src * 2|R| + rel``."""
    queries = reciprocal_queries(triples, num_relations).tolist()
    return sorted(queries, key=lambda q: q[0] * 2 * num_relations + q[1])


class TestFilteredRank:
    def test_unique_maximum_ranks_first(self):
        store = make_store([(0, 0, 1), (0, 0, 2)], num_entities=4)
        table = init_embeddings(4, 1, 4, seed=0)
        # make candidate 1 the clear winner for (0, r0)
        table.rel_c[:] = 0.0
        table.rel_tau[0] = 0.0
        table.entity_embeddings[:] = 0.0
        table.rel_tau[0, 0] = 1.0
        table.entity_embeddings[1, 0] = 5.0
        table.entity_embeddings[2, 0] = 3.0
        assert filtered_rank((0, 0, 1), table, store.filter_index) == 1
        # entity 1 is filtered away for the (0, r0, 2) query, so 2 ranks first
        assert filtered_rank((0, 0, 2), table, store.filter_index) == 1

    def test_all_equal_scores_tie_rules(self):
        m = 6
        store = make_store([(0, 0, 1)], num_entities=m)
        table = init_embeddings(m, 1, 4, seed=0)
        table.entity_embeddings[:] = 0.0  # every candidate scores 1.0
        table.rel_c[:] = 0.0
        table.rel_tau[:] = 0.0
        assert filtered_rank((0, 0, 1), table, store.filter_index, "pessimistic") == m
        rng = np.random.default_rng(7)
        draws = [
            filtered_rank((0, 0, 1), table, store.filter_index, "random", rng)
            for _ in range(4000)
        ]
        assert min(draws) == 1 and max(draws) == m
        assert np.mean(draws) == pytest.approx((m + 1) / 2, rel=0.05)

    def test_query_missing_from_filter_rejected(self):
        store = make_store([(0, 0, 1)], num_entities=3)
        table = init_embeddings(3, 1, 4, seed=0)
        with pytest.raises(ValueError, match="filter"):
            filtered_rank((0, 0, 2), table, store.filter_index)
        with pytest.raises(ValueError, match="^tie_rule must be one of .*, got 'optimistic'$"):
            filtered_rank((0, 0, 1), table, store.filter_index, "optimistic")

    @pytest.mark.parametrize(
        "query, shape",
        [([0, 0, 1, 2, 0, 3], "(6,)"), ([[0, 0, 1, 2, 0, 3]] * 2, "(2, 6)"), ([], "(0,)")],
        ids=["two-triples-flat", "six-wide-block", "empty"],
    )
    def test_query_of_another_shape_rejected(self, query, shape):
        store = make_store([(0, 0, 1), (2, 0, 3)], num_entities=4)
        table = init_embeddings(4, 1, 4, seed=0)
        with pytest.raises(ValueError, match=rf"got shape {re.escape(shape)}$"):
            filtered_rank(query, table, store.filter_index)

    def test_matches_sort_oracle_on_all_queries(self, rng):
        triples = list(dict.fromkeys(map(tuple, rng.integers(0, 5, size=(12, 3)).tolist())))
        triples = [(h, r % 2, t) for h, r, t in triples]
        store = make_store(triples, num_entities=5, num_relations=2)
        table = init_embeddings(5, 2, 6, init_scale=1.0, seed=3)
        nr = store.num_relations
        for h, r, t in store.train.tolist():
            for query in ((h, r, t), (t, r + nr, h)):
                got = filtered_rank(query, table, store.filter_index)
                scores = score_batch(table, query[0], query[1])
                _, known = store.filter_index.known_answers([query])
                excluded = set(known.tolist()) - {query[2]}
                assert got == sort_rank(scores, query[2], excluded)

    def test_random_tie_rule_matches_sort_oracle_distributionally(self):
        store = make_store([(0, 0, 1)], num_entities=5)
        table = init_embeddings(5, 1, 4, seed=0)
        table.entity_embeddings[:] = 0.0
        table.entity_embeddings[2, :] = 1.0  # one candidate clearly separated
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        scores = score_batch(table, 0, 0)
        ours = [
            filtered_rank((0, 0, 1), table, store.filter_index, "random", rng1)
            for _ in range(500)
        ]
        oracle = [sort_rank(scores, 1, set(), "random", rng2) for _ in range(500)]
        assert np.mean(ours) == pytest.approx(np.mean(oracle), rel=0.1)

    def test_filtered_rank_never_exceeds_raw_rank(self, rng):
        triples = list(dict.fromkeys(map(tuple, rng.integers(0, 6, size=(15, 3)).tolist())))
        store = make_store(triples, num_entities=6, num_relations=6)
        table = init_embeddings(6, 6, 4, init_scale=1.0, seed=8)
        for h, r, t in store.train.tolist():
            filtered = filtered_rank((h, r, t), table, store.filter_index)
            scores = score_batch(table, h, r)
            raw = sort_rank(scores, t, set())
            assert filtered <= raw

    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    def test_empty_input_hands_no_helper_a_job(self, monkeypatch, fake_blas, toy_store, tie_rule):
        table = init_embeddings(toy_store.num_entities, toy_store.num_relations, 4, seed=0)
        fake_blas(2)
        jobs = []
        monkeypatch.setattr(_threads.Lanes, "_run", lambda self, lane, *args: jobs.append(lane))
        ranks = filtered_rank(np.empty((0, 3), dtype=np.int64), table, toy_store.filter_index, tie_rule)
        assert ranks.dtype == np.int64 and ranks.shape == (0,)
        assert jobs == []


class TestNonFiniteTables:
    """A NaN score counts no rival, so it would rank every answer first."""

    @staticmethod
    def table_and_store():
        store = make_store([(0, 0, 1), (1, 0, 2), (2, 0, 3)], num_entities=5)
        return init_embeddings(5, 1, 4, init_scale=1.0, seed=0), store

    @pytest.mark.parametrize("cells, value", [(..., np.nan), ((3, 1), np.inf)], ids=["all-nan", "one-inf"])
    def test_non_finite_entity_table_raises(self, cells, value):
        table, store = self.table_and_store()
        table.entity_embeddings[cells] = value
        with pytest.raises(ValueError, match="entity table holds a non-finite value"):
            evaluate("train", table, store)
        with pytest.raises(ValueError, match="entity table holds a non-finite value"):
            filtered_rank((0, 0, 1), table, store.filter_index)

    @pytest.mark.parametrize("value", [np.nan, np.inf])  # inf also makes inf - inf in the bound
    def test_non_finite_relation_row_raises(self, value):
        table, store = self.table_and_store()
        table.rel_c[0, 0] = value
        with pytest.raises(ValueError, match=r"query \(0, 0, 1\) has a non-finite score bound"):
            evaluate("train", table, store)
        # the reciprocal row is finite: head queries still rank
        assert filtered_rank((1, 1, 0), table, store.filter_index) >= 1


class TestBlockedRanking:
    @staticmethod
    def spy_blocks(monkeypatch):
        """Record every block that evaluate() ranks, with its ranks.

        filtered_rank cuts its input into ``BLOCK_ROWS`` slices; the spy
        checks that the ``_tile`` calls of ``score_batch`` score, slice after
        slice and in as many groups for each, that slice's distinct pairs.
        """
        import star_kge.evaluation as evaluation

        calls, scored = [], []
        real, real_score_batch = evaluation.filtered_rank, evaluation.score_batch

        def score_spy(table, heads, rels, *, _tile):
            scored.append(list(zip(heads.tolist(), rels.tolist())))
            return real_score_batch(table, heads, rels, _tile=_tile)

        def spy(queries, *args, **kwargs):
            scored.clear()
            ranks = real(queries, *args, **kwargs)
            queries, height = np.array(queries).reshape(-1, 3), evaluation.BLOCK_ROWS
            cuts = range(0, len(queries), height)
            blocks = [(queries[i : i + height], np.atleast_1d(ranks)[i : i + height]) for i in cuts]
            groups = len(scored) // len(blocks)
            pairs = [sorted({(src, rel) for src, rel, _ in block.tolist()}) for block, _ in blocks]
            assert groups >= 1 and scored == [p for p in pairs for _ in range(groups)]
            calls.extend(blocks)
            return ranks

        monkeypatch.setattr(evaluation, "score_batch", score_spy)
        monkeypatch.setattr(evaluation, "filtered_rank", spy)
        return calls

    @pytest.mark.parametrize("constant", [False, True])
    def test_three_row_blocks_equal_sort_oracle(self, monkeypatch, rng, constant):
        triples = list(dict.fromkeys(map(tuple, rng.integers(0, 7, size=(14, 3)).tolist())))
        triples = [(h, r % 2, t) for h, r, t in triples]
        store = make_store(triples, num_entities=7, num_relations=2)
        table = init_embeddings(7, 2, 6, init_scale=1.0, seed=4)
        if constant:
            table.entity_embeddings[:] = 0.0  # every candidate ties
        monkeypatch.setattr("star_kge.evaluation.BLOCK_ROWS", 3)
        monkeypatch.setattr("star_kge.evaluation.BLOCK_SCORES", 6)  # 2-entity tiles
        calls = self.spy_blocks(monkeypatch)
        report = evaluate("train", table, store)

        assert [len(block) for block, _ in calls[:-1]] == [3] * (len(calls) - 1)
        queries = np.concatenate([block for block, _ in calls])
        ranks = np.concatenate([r for _, r in calls])
        # the blocks are cut from the queries in pair order
        assert queries.tolist() == pair_order(store.train, store.num_relations)
        expected = []
        for query in queries.tolist():
            scores = score_batch(table, query[0], query[1])
            _, known = store.filter_index.known_answers([query])
            expected.append(sort_rank(scores, query[2], set(known.tolist()) - {query[2]}))
        assert ranks.tolist() == expected
        assert report.mrr == np.mean(1.0 / ranks)
        if constant:
            # every unfiltered rival ties with the answer, which goes last
            known = [len(store.filter_index.known_answers([q])[1]) for q in queries.tolist()]
            assert expected == [7 - k + 1 for k in known]

    @pytest.mark.parametrize("tie_rule", ["pessimistic", "random"])
    def test_block_equals_single_calls(self, rng, tie_rule):
        triples = list(dict.fromkeys(map(tuple, rng.integers(0, 9, size=(20, 3)).tolist())))
        triples = [(h, r % 3, t) for h, r, t in triples]
        store = make_store(triples, num_entities=9, num_relations=3)
        table = init_embeddings(9, 3, 6, init_scale=1.0, seed=6)
        table.entity_embeddings[::3] = 0.0  # a few exact ties
        queries = reciprocal_queries(store.train, store.num_relations)
        block = filtered_rank(queries, table, store.filter_index, tie_rule, np.random.default_rng(3))
        single_rng = np.random.default_rng(3)
        singles = [filtered_rank(q, table, store.filter_index, tie_rule, single_rng) for q in queries.tolist()]
        assert block.shape == (len(queries),)
        assert block.tolist() == singles
        assert all(type(rank) is int for rank in singles)

    def test_random_rule_without_rng_draws_from_seed_zero(self, rng):
        triples = list(dict.fromkeys(map(tuple, rng.integers(0, 8, size=(16, 3)).tolist())))
        store = make_store(triples, num_entities=8, num_relations=8)
        table = init_embeddings(8, 8, 6, init_scale=1.0, seed=5)
        table.entity_embeddings[::2] = 0.0  # exact ties for the random rule to break
        block = reciprocal_queries(store.train, store.num_relations)
        unseeded = filtered_rank(block, table, store.filter_index, "random")
        seeded = filtered_rank(block, table, store.filter_index, "random", np.random.default_rng(0))
        assert unseeded.tolist() == seeded.tolist()
        pessimistic = filtered_rank(block, table, store.filter_index)
        assert (unseeded < pessimistic).any()  # the ties were broken by draws, not pessimistically

    def test_workspace_ranks_equal_workspace_free_calls(self, monkeypatch, rng):
        triples = list(dict.fromkeys(map(tuple, rng.integers(0, 8, size=(16, 3)).tolist())))
        triples = [(h, r % 2, t) for h, r, t in triples]
        store = make_store(triples, num_entities=8, num_relations=2)
        table = init_embeddings(8, 2, 6, init_scale=1.0, seed=8)
        table.entity_embeddings[::3] = 0.0  # exact ties for the random rule to break
        monkeypatch.setattr("star_kge.evaluation.BLOCK_ROWS", 3)
        monkeypatch.setattr("star_kge.evaluation.BLOCK_SCORES", 6)  # 2-entity tiles
        calls = self.spy_blocks(monkeypatch)
        report = evaluate("train", table, store, tie_rule="random")

        assert 0 < len(calls[-1][0]) < 3 and all(len(block) == 3 for block, _ in calls[:-1])
        free_rng = np.random.default_rng(0)  # evaluate's fixed seed
        free = [filtered_rank(block, table, store.filter_index, "random", free_rng) for block, _ in calls]
        assert np.concatenate([r for _, r in calls]).tolist() == np.concatenate(free).tolist()
        single_rng = np.random.default_rng(0)
        queries = np.concatenate([block for block, _ in calls]).tolist()
        singles = [filtered_rank(q, table, store.filter_index, "random", single_rng) for q in queries]
        assert singles == np.concatenate(free).tolist()
        assert report.mrr == np.mean(1.0 / np.concatenate(free))

    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    def test_long_input_equals_calls_on_its_block_slices(self, monkeypatch, tie_rule):
        """One call cuts its input into ``BLOCK_ROWS`` slices in input order
        and draws once over all of them, as calls on the slices in turn with
        one generator do."""
        import star_kge.evaluation as evaluation

        store, table = TestRepeatedPairs.hub_case()  # exact ties: every third entity row is zero
        monkeypatch.setattr(evaluation, "BLOCK_ROWS", 5)
        monkeypatch.setattr(evaluation, "BLOCK_SCORES", 5 * 16)  # 16-entity tiles
        queries = reciprocal_queries(store.test, store.num_relations)
        queries = queries[np.random.default_rng(7).permutation(len(queries))]
        # pair (0, r0) has 24 queries, so it straddles block boundaries
        first = [i for i, (src, rel, _) in enumerate(queries.tolist()) if (src, rel) == (0, 0)]
        assert len({i // 5 for i in first}) > 1 and len(queries) % 5 != 0

        whole = filtered_rank(queries, table, store.filter_index, tie_rule, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        slices = [queries[i : i + 5] for i in range(0, len(queries), 5)]
        parts = [filtered_rank(part, table, store.filter_index, tie_rule, rng) for part in slices]
        assert whole.tolist() == np.concatenate(parts).tolist()
        if tie_rule == "random":
            assert (whole < filtered_rank(queries, table, store.filter_index)).any()  # ties were drawn

    def test_long_input_names_its_first_failing_query_in_input_order(self, monkeypatch):
        """Blocks of two: the first failing query in input order is named, even
        when a later block holds one that comes first in pair order, and an
        uncovered query anywhere wins over an id outside the table."""
        monkeypatch.setattr("star_kge.evaluation.BLOCK_ROWS", 2)
        store = make_store([(0, 0, 1), (1, 0, 2), (2, 1, 0), (3, 1, 1)], num_entities=4, num_relations=2)
        narrow = init_embeddings(3, 2, 4, seed=0)  # head 3 is outside it
        uncovered = [(0, 0, 1), (3, 1, 1), (1, 0, 2), (1, 0, 0), (2, 1, 0), (0, 0, 2)]
        with pytest.raises(ValueError, match=r"query \(1, 0, 0\) is not covered by the filter index"):
            filtered_rank(uncovered, narrow, store.filter_index)
        with pytest.raises(IndexError, match="head id 3"):
            filtered_rank([(0, 0, 1), (1, 0, 2), (2, 1, 0), (3, 1, 1)], narrow, store.filter_index)
        table = init_embeddings(4, 2, 4, seed=0)
        table.rel_c[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"query \(3, 1, 1\) has a non-finite score bound"):
            filtered_rank([(0, 0, 1), (3, 1, 1), (2, 1, 0), (1, 0, 2)], table, store.filter_index)

    def test_uncovered_query_in_block_is_named(self):
        store = make_store([(0, 0, 1), (1, 0, 2), (2, 0, 3)], num_entities=4)
        table = init_embeddings(4, 1, 4, seed=0)
        block = [(0, 0, 1), (1, 0, 2), (1, 0, 3), (2, 0, 3)]
        with pytest.raises(ValueError, match=r"query \(1, 0, 3\) is not covered by the filter index"):
            filtered_rank(block, table, store.filter_index)
        with pytest.raises(ValueError, match=r"query \(3, 0, 0\)"):
            filtered_rank([(0, 0, 1), (3, 0, 0)], table, store.filter_index)

    def test_first_uncovered_query_in_block_order_is_named(self):
        store = make_store([(0, 0, 1), (2, 0, 0)], num_entities=3)
        table = init_embeddings(3, 1, 4, seed=0)
        # (1, 1, 2) repeats the covered pair of (1, 1, 0); (0, 0, 2) comes
        # first in pair order, but later in the block
        block = [(1, 1, 0), (1, 1, 2), (0, 0, 2)]
        with pytest.raises(ValueError, match=r"query \(1, 1, 2\) is not covered by the filter index"):
            filtered_rank(block, table, store.filter_index)

    def test_ids_outside_the_table_are_index_errors(self):
        """A store wider than the table: its ids are checked once per block."""
        store = make_store([(0, 0, 1), (3, 0, 2)], num_entities=4, num_relations=2)
        table = init_embeddings(3, 1, 4, seed=0)
        with pytest.raises(IndexError, match="head id 3"):
            filtered_rank([(0, 0, 1), (3, 0, 2)], table, store.filter_index)
        with pytest.raises(IndexError, match="relation id 2"):
            filtered_rank((1, 2, 0), table, store.filter_index)

    def test_report_states_ranking_time(self, toy_store):
        table = init_embeddings(toy_store.num_entities, toy_store.num_relations, 4, seed=0)
        report = evaluate("train", table, toy_store)
        assert report.ranking_s > 0.0
        assert report.to_dict()["ranking_s"] == report.ranking_s


class TestRepeatedPairs:
    """evaluate() scores and masks each distinct (src, rel) pair of a block
    once; a repeat is counted on a copy of its pair's row."""

    NE = 160

    @classmethod
    def hub_case(cls):
        """A test split in which pair (0, r0) repeats 24 times with 130 known
        answers and pair (150, r1~) 6 times, among a few other triples;
        every third entity row is zero, so those rivals tie exactly."""
        train = [(0, 0, t) for t in range(1, 107)] + [(t, 1, t + 1) for t in range(100, 140)]
        test = [(0, 0, t) for t in range(107, 131)] + [(x, 1, 150) for x in range(140, 146)]
        test += [(151, 2, 152), (153, 2, 0), (0, 2, 154), (155, 0, 3)]
        store = make_store(train, num_entities=cls.NE, num_relations=3, test=test)
        table = init_embeddings(cls.NE, 3, 6, init_scale=1.0, seed=11)
        table.entity_embeddings[::3] = 0.0
        return store, table

    @staticmethod
    def check_against_sort_oracle(store, table, queries, ranks, tie_rule):
        known = filter_sets([store.train, store.valid, store.test], store.num_relations)
        for (src, rel, answer), rank in zip(queries, ranks):
            scores = score_batch(table, src, rel)
            pessimistic = sort_rank(scores, answer, known[(src, rel)] - {answer})
            if tie_rule == "pessimistic":
                assert rank == pessimistic
            else:
                rivals = np.delete(scores, sorted(known[(src, rel)]))
                assert 1 + np.count_nonzero(rivals > scores[answer]) <= rank <= pessimistic

    def test_hub_case_shape(self):
        store, _ = self.hub_case()
        queries = reciprocal_queries(store.test, store.num_relations).tolist()
        assert sum(q[:2] == [0, 0] for q in queries) == 24
        assert len(store.filter_index.known_answers([(0, 0, 107)])[1]) == 130

    @pytest.mark.parametrize("small_blocks", [True, False])
    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    def test_hub_ranks_equal_sort_oracle_and_single_calls(self, monkeypatch, tie_rule, small_blocks):
        store, table = self.hub_case()
        if small_blocks:
            monkeypatch.setattr("star_kge.evaluation.BLOCK_ROWS", 7)
            monkeypatch.setattr("star_kge.evaluation.BLOCK_SCORES", 7 * 16)  # 16-entity tiles
        calls = TestBlockedRanking.spy_blocks(monkeypatch)
        report = evaluate("test", table, store, tie_rule=tie_rule)
        queries = np.concatenate([block for block, _ in calls]).tolist()
        ranks = np.concatenate([r for _, r in calls]).tolist()
        assert queries == pair_order(store.test, store.num_relations)

        single_rng = np.random.default_rng(0)  # evaluate's fixed seed, drawn in pair order
        assert ranks == [filtered_rank(q, table, store.filter_index, tie_rule, single_rng) for q in queries]
        self.check_against_sort_oracle(store, table, queries, ranks, tie_rule)
        assert report.mrr == np.mean(1.0 / np.array(ranks))

    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    def test_block_of_one_pair(self, monkeypatch, tie_rule):
        store, table = self.hub_case()
        block = [(0, 0, t) for t in range(130, 106, -1)]
        monkeypatch.setattr("star_kge.evaluation.BLOCK_SCORES", len(block) * 50)  # 50-entity tiles
        ranks = filtered_rank(block, table, store.filter_index, tie_rule, np.random.default_rng(4))
        single_rng = np.random.default_rng(4)
        assert ranks.tolist() == [filtered_rank(q, table, store.filter_index, tie_rule, single_rng) for q in block]
        self.check_against_sort_oracle(store, table, block, ranks.tolist(), tie_rule)

    def test_each_tile_is_as_high_as_the_blocks_distinct_pairs(self, monkeypatch):
        import star_kge.evaluation as evaluation

        store, table = self.hub_case()
        monkeypatch.setattr(evaluation, "BLOCK_ROWS", 16)
        monkeypatch.setattr(evaluation, "BLOCK_SCORES", 16 * 40)  # 40-entity tiles
        heights = []
        real_score_batch = evaluation.score_batch

        def spy(*args, _tile, **kwargs):
            query, tiles, _ = _tile
            heights.extend((len(query), len(out)) for _, out in tiles)
            return real_score_batch(*args, _tile=_tile, **kwargs)

        monkeypatch.setattr(evaluation, "score_batch", spy)
        calls = TestBlockedRanking.spy_blocks(monkeypatch)
        evaluate("test", table, store)
        distinct = [len({(src, rel) for src, rel, _ in block.tolist()}) for block, _ in calls]
        assert heights == [(d, d) for d in distinct for _ in range(-(-self.NE // 40))]
        # pair (0, r0) fills block 0 and opens block 1, so 24 - 2 of its
        # queries are copies; pair (150, r1~) is scored once for 6 queries
        assert distinct[0] == 1
        assert sum(len(block) for block, _ in calls) - sum(distinct) == 22 + 5


class TestTiles:
    @staticmethod
    def duplicate_vector_case(ne=301, n=8, seed=0):
        """A store whose entity rows are copies of 3 random (non-dyadic)
        vectors, so every score is rounded and many rivals tie exactly."""
        rng = np.random.default_rng(seed)
        triples = list(dict.fromkeys(map(tuple, rng.integers(0, ne, size=(ne // 2, 3)).tolist())))
        triples = [(h, r % 3, t) for h, r, t in triples]
        store = make_store(triples, num_entities=ne, num_relations=3)
        table = init_embeddings(ne, 3, n, init_scale=1.0, seed=seed + 1)
        table.entity_embeddings = rng.normal(size=(3, n))[rng.integers(0, 3, ne)]
        return store, table

    @pytest.mark.parametrize("small_tiles", [True, False])
    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    def test_exact_ties_rank_alike_in_blocks_and_alone(self, monkeypatch, tie_rule, small_tiles):
        store, table = self.duplicate_vector_case()
        if small_tiles:
            monkeypatch.setattr("star_kge.evaluation.BLOCK_ROWS", 3)
            monkeypatch.setattr("star_kge.evaluation.BLOCK_SCORES", 6)  # 2-entity tiles
        calls = TestBlockedRanking.spy_blocks(monkeypatch)
        evaluate("train", table, store, tie_rule=tie_rule)
        queries = np.concatenate([block for block, _ in calls]).tolist()
        ranks = np.concatenate([r for _, r in calls]).tolist()
        if small_tiles:
            assert all(len(block) == 3 for block, _ in calls[:-1])

        single_rng = np.random.default_rng(0)  # evaluate's fixed seed
        assert ranks == [filtered_rank(q, table, store.filter_index, tie_rule, single_rng) for q in queries]
        for (src, rel, answer), rank in zip(queries, ranks):
            scores = exact_scores(table, src, rel)
            _, known = store.filter_index.known_answers([(src, rel, answer)])
            rivals = [scores[e] for e in sorted(set(range(store.num_entities)) - set(known.tolist()))]
            at_least = sum(s >= scores[answer] for s in rivals)
            if tie_rule == "pessimistic":
                assert rank == 1 + at_least
            else:
                assert 1 + sum(s > scores[answer] for s in rivals) <= rank <= 1 + at_least

    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    def test_ranks_do_not_depend_on_tile_width(self, monkeypatch, tie_rule):
        ne = 7
        triples = [(1, 0, 0), (2, 0, 6), (3, 1, 0), (0, 1, 6), (6, 0, 3), (4, 1, 5), (5, 0, 2), (2, 1, 1)]
        store = make_store(triples, num_entities=ne, num_relations=2)
        table = init_embeddings(ne, 2, 6, init_scale=1.0, seed=9)
        queries = reciprocal_queries(store.train, store.num_relations)
        # targets in the first tile and in the ragged last one of widths 2 and 3
        assert {0, ne - 1} <= set(queries[:, 2].tolist())
        ranks = {}
        for width in (1, 2, 3, ne):
            monkeypatch.setattr("star_kge.evaluation.BLOCK_SCORES", width * len(queries))
            got = filtered_rank(queries, table, store.filter_index, tie_rule, np.random.default_rng(2))
            ranks[width] = got.tolist()
        assert ranks[1] == ranks[2] == ranks[3] == ranks[ne]

    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    def test_single_query_wider_than_a_uint16_count(self, tie_rule):
        """All |E| - 1 > 65,535 rivals outrank the target. One tile that wide
        would wrap its uint16 row count; the capped width keeps it exact."""
        ne = 2**16 + 2  # 65,537 rivals: a uint16 count of them all would read 1
        store = make_store([(0, 0, 1)], num_entities=ne)
        table = init_embeddings(ne, 1, 2, seed=0)
        table.entity_embeddings = np.array([1.0, 0.0])
        table.entity_embeddings[1] = 0.0
        table.rel_c[:] = [1.0, 0.0]  # identity blocks
        table.rel_tau[:] = 0.0  # so the target scores 1 and every rival 2
        rank = filtered_rank((0, 0, 1), table, store.filter_index, tie_rule, np.random.default_rng(0))
        oracle = sort_rank(score_batch(table, 0, 0), 1, set(), tie_rule, np.random.default_rng(0))
        assert rank == oracle == ne

    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    def test_capped_tile_width_equals_sort_oracle(self, monkeypatch, rng, tie_rule):
        import star_kge.evaluation as evaluation

        ne = 9
        triples = list(dict.fromkeys(map(tuple, rng.integers(0, ne, size=(20, 3)).tolist())))
        triples = [(h, r % 3, t) for h, r, t in triples]
        store = make_store(triples, num_entities=ne, num_relations=3)
        table = init_embeddings(ne, 3, 6, init_scale=1.0, seed=6)  # no exact ties: both rules rank alike
        monkeypatch.setattr(evaluation, "TILE_WIDTH_MAX", 2)
        widths = []
        real_score_batch = evaluation.score_batch

        def spy(*args, _tile, **kwargs):
            widths.extend(cols.stop - cols.start for cols, _ in _tile[1])
            return real_score_batch(*args, _tile=_tile, **kwargs)

        monkeypatch.setattr(evaluation, "score_batch", spy)
        calls = TestBlockedRanking.spy_blocks(monkeypatch)
        evaluate("train", table, store, tie_rule=tie_rule)
        assert len(calls) == 1 and widths == [2, 2, 2, 2, 1]
        block, ranks = calls[0]
        expected = []
        for src, rel, answer in block.tolist():
            _, known = store.filter_index.known_answers([(src, rel, answer)])
            expected.append(sort_rank(score_batch(table, src, rel), answer, set(known.tolist()) - {answer}))
        assert ranks.tolist() == expected

    def test_column_slice_equals_full_columns(self):
        ne = 7
        table = init_embeddings(ne, 2, 6, seed=0)
        rng = np.random.default_rng(4)
        # small integers: every product and sum is exact, so tiles must agree bitwise
        table.entity_embeddings = rng.integers(-4, 5, size=(ne, 6)).astype(float)
        table.rel_c[:] = rng.integers(-3, 4, size=table.rel_c.shape)
        table.rel_tau[:] = rng.integers(-3, 4, size=table.rel_tau.shape)
        heads, rels = np.array([0, 3, 6, 2]), np.array([0, 1, 2, 3])
        full = score_batch(table, heads, rels)
        # the block's [q, 1] rows as filtered_rank builds them, once for every tile
        q = _query_rows(table, heads, rels)
        with _threads.lanes() as lanes:
            for lo, hi in ((0, 2), (2, 4), (6, 7), (0, ne), (3, 3)):
                out = np.empty((4, hi - lo))
                score_batch(table, heads, rels, _tile=(q, [(slice(lo, hi), out)], lanes))
                assert out.tobytes() == full[:, lo:hi].tobytes()


class TestWorkers:
    """Each block's tiles are scored and counted in groups of one per worker;
    ranks and reports do not depend on the worker count."""

    CASES = {
        "hub": (TestRepeatedPairs.hub_case, "test"),
        "duplicate-vectors": (TestTiles.duplicate_vector_case, "train"),
    }

    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    @pytest.mark.parametrize(
        "case, width",
        # tiles per block: 10, 3 (the last group holds one tile), 61 and 4
        [("hub", 16), ("hub", 60), ("duplicate-vectors", 5), ("duplicate-vectors", 100)],
    )
    def test_report_bytes_do_not_depend_on_the_worker_count(self, monkeypatch, fake_blas, tie_rule, case, width):
        make, split = self.CASES[case]
        store, table = make()
        monkeypatch.setattr("star_kge.evaluation.BLOCK_ROWS", 7)
        monkeypatch.setattr("star_kge.evaluation.BLOCK_SCORES", 7 * width)
        payloads = []
        for workers in (1, 2, 3):
            fake_blas(workers)
            payload = evaluate(split, table, store, classify_relations(store), tie_rule).to_dict()
            assert payload.pop("threads") == workers
            del payload["ranking_s"]
            payloads.append(json.dumps(payload).encode())
        assert payloads[0] == payloads[1] == payloads[2]

    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    def test_slow_helper_lanes_give_the_one_worker_report(self, monkeypatch, fake_blas, tie_rule):
        """The ranks are read only once every lane has run its jobs: with the
        helpers slowed, two workers still give the one-worker report."""
        store, table = TestRepeatedPairs.hub_case()
        monkeypatch.setattr("star_kge.evaluation.BLOCK_ROWS", 7)
        monkeypatch.setattr("star_kge.evaluation.BLOCK_SCORES", 7 * 16)  # ten tiles per block
        real_run = _threads.Lanes._run

        def slow_run(self, lane, *args):
            if lane >= 1:
                time.sleep(0.002)
            return real_run(self, lane, *args)

        payloads = []
        for workers in (1, 2):
            fake_blas(workers)
            if workers == 2:
                monkeypatch.setattr(_threads.Lanes, "_run", slow_run)
            payload = evaluate("test", table, store, classify_relations(store), tie_rule).to_dict()
            assert payload.pop("threads") == workers
            del payload["ranking_s"]
            payloads.append(json.dumps(payload).encode())
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("tie_rule", TIE_RULES)
    def test_single_queries_do_not_depend_on_the_worker_count(self, monkeypatch, fake_blas, tie_rule):
        store, table = TestRepeatedPairs.hub_case()
        monkeypatch.setattr("star_kge.evaluation.BLOCK_SCORES", 50)  # a single query's tiles: 50, 50, 50, 10
        queries = reciprocal_queries(store.test, store.num_relations).tolist()
        ranks = []
        for workers in (1, 2):
            fake_blas(workers)
            rng = np.random.default_rng(0)
            ranks.append([filtered_rank(q, table, store.filter_index, tie_rule, rng) for q in queries])
        assert ranks[0] == ranks[1]
        TestRepeatedPairs.check_against_sort_oracle(store, table, queries, ranks[1], tie_rule)


class TestEvaluate:
    def test_perfectly_ranked_single_triple(self):
        store = make_store([(0, 0, 1)], num_entities=2)
        table = init_embeddings(2, 1, 4, seed=0)
        table.entity_embeddings[:] = 0.0
        table.rel_c[:] = 0.0
        table.rel_tau[:] = 0.0
        table.rel_tau[0, 0] = 1.0  # tail query favors entity 1
        table.rel_tau[1, 1] = 1.0  # head query favors entity 0
        table.entity_embeddings[1, 0] = 1.0
        table.entity_embeddings[0, 1] = 1.0
        report = evaluate("train", table, store)
        assert report.mrr == 1.0
        assert all(v == 1.0 for v in report.hits.values())

    def test_known_rank_arithmetic(self, monkeypatch):
        store = make_store([(0, 0, 1)], num_entities=5)
        table = init_embeddings(5, 1, 4, seed=0)
        # one block holds both queries of the triple
        monkeypatch.setattr(
            "star_kge.evaluation.filtered_rank", lambda *a, **k: np.array([1, 4])
        )
        report = evaluate("train", table, store)
        assert report.mrr == pytest.approx((1 + 0.25) / 2)
        assert report.hits[1] == 0.5
        assert report.hits[3] == 0.5
        assert report.hits[10] == 1.0

    def test_hits_monotone_and_bounded(self, rng):
        triples = list(dict.fromkeys(map(tuple, rng.integers(0, 8, size=(20, 3)).tolist())))
        store = make_store(triples, num_entities=8, num_relations=8)
        table = init_embeddings(8, 8, 4, init_scale=1.0, seed=2)
        report = evaluate("train", table, store)
        assert report.hits[1] <= report.hits[3] <= report.hits[10] <= 1.0
        assert report.mrr >= report.hits[1]

    def test_per_relation_counts_sum_to_queries(self, toy_store):
        table = init_embeddings(toy_store.num_entities, toy_store.num_relations, 4, seed=0)
        report = evaluate("train", table, toy_store)
        assert sum(c for _, c in report.per_relation.values()) == report.num_queries
        assert report.num_queries == 2 * len(toy_store.train)

    def test_per_class_grouping(self, toy_store):
        table = init_embeddings(toy_store.num_entities, toy_store.num_relations, 4, seed=0)
        classes = classify_relations(toy_store)
        report = evaluate("train", table, toy_store, classes)
        assert set(report.per_class) == {c.label for c in classes}

    def test_direction_splits(self, toy_store, monkeypatch):
        table = init_embeddings(toy_store.num_entities, toy_store.num_relations, 4, seed=0)
        calls = TestBlockedRanking.spy_blocks(monkeypatch)
        report = evaluate("train", table, toy_store)
        queries = np.concatenate([block for block, _ in calls]).tolist()
        # each triple's tail query (h, r, t) and head query (t, r + |R|, h), in pair order
        assert queries == pair_order(toy_store.train, toy_store.num_relations)
        assert report.num_queries == len(queries)
        ranks = np.concatenate([ranks for _, ranks in calls]).tolist()
        assert report.mrr == np.mean(1.0 / np.array(ranks))

    def test_filter_index_is_built_on_first_evaluate(self, tmp_path, monkeypatch):
        rows = [("a", "r", "b"), ("a", "r", "c"), ("b", "s", "c"), ("c", "r", "a"), ("c", "s", "b"), ("b", "r", "b")]
        path = tmp_path / "train.tsv"
        path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
        store = load_triples(path)
        count_two_paths(store)
        assert "filter_index" not in vars(store)

        table = init_embeddings(store.num_entities, store.num_relations, 4, init_scale=1.0, seed=2)
        calls = TestBlockedRanking.spy_blocks(monkeypatch)
        evaluate("train", table, store)
        assert "filter_index" in vars(store)
        known = filter_sets([store.train], store.num_relations)
        queries = np.concatenate([block for block, _ in calls]).tolist()
        want = [sort_rank(score_batch(table, s, r), a, known[(s, r)] - {a}) for s, r, a in queries]
        assert np.concatenate([ranks for _, ranks in calls]).tolist() == want

    def test_empty_split_rejected(self):
        store = make_store([(0, 0, 1)])
        table = init_embeddings(2, 1, 4, seed=0)
        with pytest.raises(ValueError, match="empty"):
            evaluate("valid", table, store)

    def test_invariant_under_entity_relabeling(self, rng):
        triples = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 0), (0, 1, 2)]
        store = make_store(triples, num_entities=4, num_relations=2)
        table = init_embeddings(4, 2, 6, init_scale=1.0, seed=21)
        report = evaluate("train", table, store)

        perm = rng.permutation(4)
        renamed = make_store(
            [(int(perm[h]), r, int(perm[t])) for h, r, t in triples],
            num_entities=4,
            num_relations=2,
        )
        permuted = table.copy()
        permuted.entity_embeddings = table.entity_embeddings[np.argsort(perm)]
        renamed_report = evaluate("train", permuted, renamed)
        assert renamed_report.mrr == report.mrr
        assert renamed_report.hits == report.hits

    def test_equals_scalar_path_mean(self, toy_store):
        table = init_embeddings(toy_store.num_entities, toy_store.num_relations, 4, seed=1)
        report = evaluate("test", table, toy_store)
        # one query per call, averaged in the pair order that evaluate() sums in
        queries = pair_order(toy_store.test, toy_store.num_relations)
        ranks = [filtered_rank(q, table, toy_store.filter_index) for q in queries]
        assert report.mrr == np.mean(1.0 / np.array(ranks))


class TestReportShape:
    def test_json_round_trip(self, toy_store):
        table = init_embeddings(toy_store.num_entities, toy_store.num_relations, 4, seed=0)
        report = evaluate("train", table, toy_store, classify_relations(toy_store))
        payload = json.loads(json.dumps(report.to_dict()))
        assert list(payload) == [
            "split", "tie_rule", "num_queries", "ranking_s", "threads", "mrr", "hits", "per_relation", "per_class"
        ]
        assert payload["num_queries"] == report.num_queries
        assert set(payload["hits"]) == {"1", "3", "10"}

    def test_trained_toy_reaches_mrr_one(self):
        # fully memorizable graph: a 4-cycle plus its reverse relation
        forward = [(i, 0, (i + 1) % 4) for i in range(4)]
        backward = [(t, 1, h) for h, _, t in forward]
        store = make_store(forward + backward, num_entities=4, num_relations=2)
        table = trained_toy(store, epochs=80)
        assert evaluate("train", table, store).mrr == 1.0
