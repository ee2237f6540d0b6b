import csv

import numpy as np
import pytest

from star_kge.analysis import (
    PairCounts,
    count_two_paths,
    dataset_imbalance,
    export_arc_data,
)
from conftest import dataset_path, make_store
from oracles import brute_force_two_paths, pair_imbalance


def random_store(rng, num_entities=8, num_relations=3, num_triples=30, messy=False):
    """Distinct random triples; ``messy`` forces about a quarter of them to be
    self-loops and repeats about a quarter of them instead of deduplicating."""
    rows = rng.integers(0, num_entities, size=(num_triples, 2))
    rels = rng.integers(0, num_relations, size=num_triples)
    if messy:
        loops = rng.random(num_triples) < 0.25
        rows[loops, 1] = rows[loops, 0]
    triples = [(int(h), int(r), int(t)) for (h, t), r in zip(rows, rels)]
    if messy:
        triples += [triples[i] for i in rng.integers(0, num_triples, size=num_triples // 4)]
    else:
        triples = list(dict.fromkeys(triples))
    return make_store(triples, num_entities=num_entities, num_relations=num_relations)


class TestCountTwoPaths:
    def test_single_forward_chain(self):
        # a -r0-> b -r1-> c: one chain in order (0, 1), none reversed
        store = make_store([(0, 0, 1), (1, 1, 2)], num_relations=2)
        counts = count_two_paths(store)
        assert counts.pair(0, 1) == (1, 0)

    def test_one_and_two_chain_configuration(self):
        # chains: (a,b,c) realizes r1 then r0 twice via two r1 in-edges,
        # and (b,c,d) realizes r0 then r1 once
        store = make_store(
            [(0, 1, 2), (4, 1, 2), (2, 0, 3), (3, 1, 5)],
            num_entities=6,
            num_relations=2,
        )
        counts = count_two_paths(store)
        assert counts.pair(0, 1) == (1, 2)

    def test_triangle_counts_both_returns(self):
        store = make_store([(0, 0, 1), (1, 0, 0)], num_relations=1)
        counts = count_two_paths(store)
        # (a, b, a) and (b, a, b) both realize r0 then r0
        assert counts.counts[0, 0] == 2

    def test_middle_entity_degree_identity(self, rng):
        store = random_store(rng, num_triples=50)
        counts = count_two_paths(store)
        in_deg = np.bincount(store.train[:, 2], minlength=store.num_entities)
        out_deg = np.bincount(store.train[:, 0], minlength=store.num_entities)
        assert counts.total == int((in_deg * out_deg).sum())

    @pytest.mark.parametrize("exclude", [False, True])
    def test_matches_quadratic_join(self, exclude, rng):
        # entities 0 and 1 linked by r0 and r1 in each direction, a self-loop
        # on 0 and the one-way pair 1 -> 2
        fixed = [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0), (0, 2, 0), (1, 2, 2)]
        stores = [make_store(fixed, num_entities=3, num_relations=3)]
        stores += [
            random_store(
                rng,
                num_entities=int(rng.integers(3, 10)),
                num_relations=int(rng.integers(1, 5)),
                num_triples=int(rng.integers(5, 60)),
                messy=k % 2 == 1,
            )
            for k in range(50)
        ]
        for store in stores:
            fast = count_two_paths(store, exclude_degenerate=exclude)
            slow = brute_force_two_paths(
                store.train, store.num_relations, exclude_degenerate=exclude
            )
            np.testing.assert_array_equal(fast.counts, slow)

    def test_self_loops_and_exclusion(self):
        # self loop a -r0-> a plus a -r0-> b: degenerate chains disappear
        store = make_store([(0, 0, 0), (0, 0, 1)], num_relations=1)
        everything = count_two_paths(store)
        strict = count_two_paths(store, exclude_degenerate=True)
        assert everything.counts[0, 0] == 2  # (a,a,a) and (a,a,b)
        assert strict.counts[0, 0] == 0


class TestPairImbalance:
    def test_single_order_is_fully_imbalanced(self):
        counts = PairCounts(np.array([[0, 1], [0, 0]]), 2)
        assert pair_imbalance(counts, 0, 1) == 1.0

    def test_one_against_two_is_exactly_one_third(self):
        counts = PairCounts(np.array([[0, 1], [2, 0]]), 2)
        assert pair_imbalance(counts, 0, 1) == 1.0 / 3.0

    def test_equal_counts_are_balanced(self):
        counts = PairCounts(np.array([[0, 7], [7, 0]]), 2)
        assert pair_imbalance(counts, 0, 1) == 0.0

    def test_symmetric_in_the_pair(self):
        counts = PairCounts(np.array([[0, 3], [9, 0]]), 2)
        assert pair_imbalance(counts, 0, 1) == pair_imbalance(counts, 1, 0)

    def test_empty_pair_rejected(self):
        counts = PairCounts(np.zeros((2, 2), dtype=np.int64), 2)
        with pytest.raises(ValueError):
            pair_imbalance(counts, 0, 1)


class TestDatasetImbalance:
    def test_all_single_gives_one(self):
        counts = PairCounts(np.array([[0, 1], [0, 0]]), 2)
        assert dataset_imbalance(counts).Psi == 1.0

    def test_all_both_gives_zero(self):
        counts = PairCounts(np.array([[0, 1], [2, 0]]), 2)
        assert dataset_imbalance(counts).Psi == 0.0

    def test_mixed_mass_weighting(self):
        # pair (0,1): both orders, 3 chains; pair (0,2): single order, 1 chain
        c = np.zeros((3, 3), dtype=np.int64)
        c[0, 1], c[1, 0] = 1, 2
        c[0, 2] = 1
        report = dataset_imbalance(PairCounts(c, 3))
        assert report.triple_both == 3
        assert report.triple_single == 1
        assert report.Psi == 0.25

    def test_diagonal_policy(self):
        c = np.zeros((2, 2), dtype=np.int64)
        c[0, 0] = 4
        c[0, 1] = 1
        with_diag = dataset_imbalance(PairCounts(c, 2), include_diagonal=True)
        without = dataset_imbalance(PairCounts(c, 2), include_diagonal=False)
        assert with_diag.triple_both == 4 and with_diag.triple_single == 1
        assert without.triple_both == 0 and without.triple_single == 1
        assert with_diag.psi[(0, 0)] == 0.0
        assert (0, 0) not in without.psi

    def test_psi_values_bounded(self, rng):
        store = random_store(rng, num_triples=80)
        report = dataset_imbalance(count_two_paths(store))
        assert 0.0 <= report.Psi <= 1.0
        assert all(0.0 <= v <= 1.0 for v in report.psi.values())

    def test_no_chains_rejected(self):
        counts = PairCounts(np.zeros((2, 2), dtype=np.int64), 2)
        with pytest.raises(ValueError):
            dataset_imbalance(counts)


class TestExport:
    def test_empty_report_writes_header_only_csv(self, tmp_path):
        counts = PairCounts(np.array([[0, 1], [0, 0]]), 2)
        report = dataset_imbalance(counts)
        report.psi = {}
        path = export_arc_data(report, tmp_path / "pairs.csv", "csv")
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows == [["rel_i", "rel_j", "count_ij", "count_ji", "psi"]]
        # and an SVG with no arc
        svg = export_arc_data(report, tmp_path / "arcs.svg", "svg").read_text()
        assert svg.endswith("<!-- no relation pairs --></svg>") and "<path" not in svg

    def test_two_relation_toy_writes_one_arc(self, tmp_path):
        store = make_store([(0, 0, 1), (1, 1, 2)], num_relations=2)
        report = dataset_imbalance(count_two_paths(store))
        report.relation_names = store.vocab.relation_names
        svg = export_arc_data(report, tmp_path / "arcs.svg", "svg").read_text()
        assert svg.count("<path") == 1
        assert "rgb(" in svg
        csv_path = export_arc_data(report, tmp_path / "pairs.csv", "csv")
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert len(rows) == 2
        assert rows[1][:2] == ["r0", "r1"]

    @pytest.mark.parametrize("named", [True, False])
    def test_csv_rows_are_the_report_pair_rows(self, tmp_path, rng, named):
        report = dataset_imbalance(count_two_paths(random_store(rng, num_relations=4)))
        if named:
            report.relation_names = ["r,0", 'r"1', "r 2", "r3"]  # quoting is the csv module's
        pairs = report.to_dict()["pairs"]
        assert len(pairs) > 1
        with open(export_arc_data(report, tmp_path / "pairs.csv", "csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [
            [p["name_i"], p["name_j"], str(p["count_ij"]), str(p["count_ji"]), f"{p['psi']:.6f}"] for p in pairs
        ]
        if not named:
            assert [row[:2] for row in rows[1:]] == [[str(p["i"]), str(p["j"])] for p in pairs]

    def test_svg_escapes_relation_names(self, tmp_path):
        import xml.etree.ElementTree as ET

        store = make_store([(0, 0, 1), (1, 1, 2)], num_relations=2)
        report = dataset_imbalance(count_two_paths(store))
        report.relation_names = ["r<1&x", 'say "hi"']
        root = ET.parse(export_arc_data(report, tmp_path / "arcs.svg", "svg")).getroot()
        texts = [el.text for el in root.iter() if el.tag.endswith(("text", "title"))]
        assert texts[-2:] == ["r<1&x", 'say "hi"']
        assert any(text.startswith('r<1&x / say "hi": ') for text in texts)

    def test_unknown_format_rejected(self, tmp_path):
        counts = PairCounts(np.array([[0, 1], [0, 0]]), 2)
        report = dataset_imbalance(counts)
        with pytest.raises(ValueError):
            export_arc_data(report, tmp_path / "x.bin", "png")


@pytest.mark.dataset
class TestBenchmarks:
    def test_wn18rr_imbalance_near_reported_value(self):
        from star_kge.data import load_triples

        store = load_triples(dataset_path("WN18RR", "train"))
        report = dataset_imbalance(count_two_paths(store))
        assert 0.000 <= report.Psi <= 0.013

    def test_wn18rr_dominant_balanced_pair(self):
        from star_kge.data import load_triples

        store = load_triples(dataset_path("WN18RR", "train"))
        report = dataset_imbalance(count_two_paths(store))
        names = store.vocab.relation_names
        heaviest = max(
            ((i, j) for (i, j) in report.psi if i != j),
            key=lambda p: report.counts.counts[p[0], p[1]] + report.counts.counts[p[1], p[0]],
        )
        pair_names = {names[heaviest[0]], names[heaviest[1]]}
        assert pair_names == {"_hypernym", "_derivationally_related_form"}
        assert report.psi[heaviest] < 0.5  # the dominant arc is a balanced one

    def test_fb15k237_imbalance_near_reported_value(self):
        from star_kge.data import load_triples

        store = load_triples(dataset_path("FB15K237", "train"))
        report = dataset_imbalance(count_two_paths(store))
        assert 0.75 <= report.Psi <= 0.85
