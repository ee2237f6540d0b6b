"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them
as they happen).

Benchmark-dependent checks skip when the public dataset files are not
available (set STAR_KGE_DATA_DIR); the small-dimension benchmark ordering
check is additionally marked ``slow`` and excluded from the default run.
"""

import json
import os
import time

import numpy as np
import pytest

from star_kge.data import load_triples
from star_kge.evaluation import evaluate, filtered_rank
from star_kge.model import (
    RelationParams,
    init_embeddings,
    score,
    score_batch,
    score_gradients,
)
from star_kge.regularization import RegConfig, penalty_terms_batch
from star_kge.synthetic import generate_full
from star_kge.training import TrainConfig, batch_loss, train
from conftest import dataset_path, make_store
from oracles import (
    brute_force_two_paths,
    central_diff,
    gradient_rel_error,
    grid_composition_spec,
    pair_imbalance,
    sort_rank,
)


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def terms(h, rel, t, reg):
    """``penalty_terms_batch`` on one 1-D query row: (value, d_h, d_t, d_rc, d_tau)."""
    return penalty_terms_batch(h, t, rel.r_c, rel.tau, reg)


def _stacked_matrix_scores(H, RC, TAU, T):
    """Independent oracle: materialize every relation matrix and take the
    homogeneous quadratic form, fully vectorized."""
    B, n = H.shape
    M = np.zeros((B, n + 1, n + 1))
    idx = np.arange(0, n, 2)
    M[:, idx, idx] = RC[:, 0::2]
    M[:, idx, idx + 1] = -RC[:, 1::2]
    M[:, idx + 1, idx] = RC[:, 1::2]
    M[:, idx + 1, idx + 1] = RC[:, 0::2]
    M[:, n, :n] = TAU
    M[:, n, n] = 1.0
    Hh = np.concatenate([H, np.ones((B, 1))], axis=1)
    Th = np.concatenate([T, np.ones((B, 1))], axis=1)
    return np.einsum("bi,bij,bj->b", Hh, M, Th)


class TestCriterion1:
    def test_kernel_equals_materialized_matrix(self):
        """10,000 draws at each n in {2,4,8,16}: relative deviation < 1e-10, < 5 s."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        worst = 0.0
        for n in (2, 4, 8, 16):
            H = rng.normal(size=(10_000, n))
            T = rng.normal(size=(10_000, n))
            RC = rng.normal(size=(10_000, n))
            TAU = rng.normal(size=(10_000, n))
            oracle = _stacked_matrix_scores(H, RC, TAU, T)
            kernel = np.array(
                [score(H[i], RelationParams(RC[i], TAU[i]), T[i]) for i in range(10_000)]
            )
            rel = np.abs(kernel - oracle) / np.maximum(np.abs(kernel), np.abs(oracle))
            worst = max(worst, float(rel.max()))
        wall = time.perf_counter() - t0
        report(
            1,
            worst < 1e-10 and wall < 5.0,
            f"max relative deviation {worst:.2e} over 40,000 draws in {wall:.2f}s",
        )


class TestCriterion2:
    def test_all_gradient_families_match_finite_differences(self):
        """Score, Fro, DURA (both variants) and the full batch objective:
        relative error < 1e-4 at step 1e-5 over 100 random configs, < 30 s."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(100):
            n = int(rng.choice([2, 4, 6, 8]))
            num_entities = int(rng.integers(2, 7))
            rel = RelationParams(rng.normal(size=n), rng.normal(size=n))
            h, t = rng.normal(size=n), rng.normal(size=n)

            g = score_gradients(h, rel, t)
            pairs = [
                (g.d_h, central_diff(lambda x: score(x, rel, t), h)),
                (g.d_t, central_diff(lambda x: score(h, rel, x), t)),
                (g.d_r_c, central_diff(lambda x: score(h, RelationParams(x, rel.tau), t), rel.r_c)),
                (g.d_tau, central_diff(lambda x: score(h, RelationParams(rel.r_c, x), t), rel.tau)),
            ]
            fro = RegConfig(kind="Fro")
            pairs.append((terms(h, rel, t, fro)[1], central_diff(lambda x: terms(x, rel, t, fro)[0], h)))
            for variant in ("literal", "exact"):
                dura = RegConfig(kind="DURA", dura_variant=variant)
                _, d_h, _, d_rc, _ = terms(h, rel, t, dura)
                pairs.append((d_h, central_diff(lambda x: terms(x, rel, t, dura)[0], h)))
                pairs.append(
                    (d_rc, central_diff(lambda x: terms(h, RelationParams(x, rel.tau), t, dura)[0], rel.r_c))
                )

            # full batch objective over every parameter simultaneously
            triples = np.column_stack(
                [
                    rng.integers(0, num_entities, size=3),
                    rng.integers(0, 2, size=3),
                    rng.integers(0, num_entities, size=3),
                ]
            )
            store = make_store(triples, num_entities=num_entities, num_relations=2)
            reg = RegConfig(
                kind=str(rng.choice(["none", "Fro", "DURA"])),
                lam=0.05,
                dura_variant=str(rng.choice(["literal", "exact"])),
            )
            cfg = TrainConfig(n=n, epochs=0, reg=reg, seed=trial)
            table = init_embeddings(num_entities, 2, n, init_scale=0.6, seed=trial)
            table.rel_tau[:] = rng.normal(size=table.rel_tau.shape) * 0.4
            _, grads = batch_loss(store.train, table, cfg)
            shapes = [table.entity_embeddings.shape, table.rel_c.shape, table.rel_tau.shape]
            sizes = [int(np.prod(s)) for s in shapes]

            def objective(theta):
                t2 = table.copy()
                t2.entity_embeddings = theta[: sizes[0]].reshape(shapes[0])
                t2.rel_c = theta[sizes[0] : sizes[0] + sizes[1]].reshape(shapes[1])
                t2.rel_tau = theta[sizes[0] + sizes[1] :].reshape(shapes[2])
                return batch_loss(store.train, t2, cfg)[0]

            theta0 = np.concatenate(
                [table.entity_embeddings.ravel(), table.rel_c.ravel(), table.rel_tau.ravel()]
            )
            fd = central_diff(objective, theta0)
            analytic = np.concatenate(
                [grads.d_entities.ravel(), grads.d_rel_c.ravel(), grads.d_rel_tau.ravel()]
            )
            pairs.append((analytic, fd))

            for a, b in pairs:
                worst = max(worst, gradient_rel_error(a, b))
        wall = time.perf_counter() - t0
        report(
            2,
            worst < 1e-4 and wall < 30.0,
            f"max gradient relative error {worst:.2e} over 100 configs in {wall:.1f}s",
        )


class TestCriterion3:
    def test_pattern_suite_at_n8(self):
        """The full pattern/kernel verification suite at n=8, 100 trials, < 10 s."""
        from star_kge.patterns import run_verify_suite

        t0 = time.perf_counter()
        rows = run_verify_suite(n=8, trials=100, seed=0)
        wall = time.perf_counter() - t0
        by_name = {r.pattern: r for r in rows}
        needed = [
            "Composition",
            "Commutativity",
            "NonCommutativity",
            "Symmetry",
            "AntiSymmetry",
            "Inversion",
            "ComplexRelationsMargin",
            "ETerm",
            "KernelOracle",
            "ScoreGradients",
        ]
        ok = all(by_name[nm].passed for nm in needed) and wall < 10.0
        failing = [nm for nm in needed if not by_name[nm].passed]
        report(3, ok, f"checks {'all pass' if not failing else 'FAILING: ' + str(failing)} in {wall:.1f}s")


class TestCriterion4:
    def test_toy_pair_ratios_are_exact(self):
        """The two toy chain configurations give pair ratios exactly 1 and 1/3."""
        from star_kge.analysis import count_two_paths

        one_way = make_store([(0, 0, 1), (1, 1, 2)], num_relations=2)
        psi_single = pair_imbalance(count_two_paths(one_way), 0, 1)
        both_ways = make_store(
            [(0, 1, 2), (4, 1, 2), (2, 0, 3), (3, 1, 5)], num_entities=6, num_relations=2
        )
        psi_mixed = pair_imbalance(count_two_paths(both_ways), 0, 1)
        report(
            4,
            psi_single == 1.0 and psi_mixed == 1.0 / 3.0,
            f"toy pair ratios: {psi_single} (expect 1.0), {psi_mixed} (expect 1/3)",
        )

    @pytest.mark.dataset
    def test_wn18rr_dataset_ratio(self):
        from star_kge.analysis import count_two_paths, dataset_imbalance

        t0 = time.perf_counter()
        store = load_triples(dataset_path("WN18RR", "train"))
        psi = dataset_imbalance(count_two_paths(store)).Psi
        wall = time.perf_counter() - t0
        report(4, 0.000 <= psi <= 0.013 and wall < 120, f"WN18RR Psi = {psi:.4f} in {wall:.0f}s")

    @pytest.mark.dataset
    def test_fb15k237_dataset_ratio(self):
        from star_kge.analysis import count_two_paths, dataset_imbalance

        t0 = time.perf_counter()
        store = load_triples(dataset_path("FB15K237", "train"))
        psi = dataset_imbalance(count_two_paths(store)).Psi
        wall = time.perf_counter() - t0
        report(4, 0.75 <= psi <= 0.85 and wall < 120, f"FB15K237 Psi = {psi:.4f} in {wall:.0f}s")


class TestCriterion5:
    def test_fifty_random_graphs_match_quadratic_join(self):
        """Path counting equals the O(T^2) join exactly on 50 random KGs."""
        from star_kge.analysis import count_two_paths

        rng = np.random.default_rng(11)
        checked = 0
        for k in range(50):
            ne = int(rng.integers(4, 40))
            nr = int(rng.integers(1, 8))
            nt = int(rng.integers(5, 1001))
            rows = np.column_stack(
                [
                    rng.integers(0, ne, size=nt),
                    rng.integers(0, nr, size=nt),
                    rng.integers(0, ne, size=nt),
                ]
            )
            triples = np.array(sorted({tuple(r) for r in rows.tolist()}), dtype=np.int64)
            store = make_store(triples, num_entities=ne, num_relations=nr)
            exclude = bool(k % 3 == 0)
            fast = count_two_paths(store, exclude_degenerate=exclude).counts
            slow = brute_force_two_paths(store.train, nr, exclude_degenerate=exclude)
            np.testing.assert_array_equal(fast, slow)
            checked += 1
        report(5, checked == 50, f"{checked}/50 random graphs match the quadratic join exactly")


class TestCriterion6:
    def test_translation_separates_models_on_noncommutative_graph(self):
        """The full model solves the lattice KG (test MRR >= 0.9 within 200
        epochs at n=8); with translations frozen at zero the same budget
        scores strictly lower on the order-discriminating held-out queries,
        mean over 5 seeds each. Runtime < 5 min."""
        t0 = time.perf_counter()
        result = generate_full(
            grid_composition_spec(
                side=14,
                offset=(1, 0),
                quarter_turns=2,
                seed=7,
                holdout_fraction=0.25,
                paired_holdout_fraction=0.2,
            )
        )
        store = result.store
        assert result.test_discriminating.sum() >= 20

        def disc_mrr(table):
            nr = store.num_relations
            rrs = []
            for flag, (h, r, t) in zip(result.test_discriminating, store.test.tolist()):
                if not flag:
                    continue
                rrs.append(1.0 / filtered_rank((h, r, t), table, store.filter_index))
                rrs.append(1.0 / filtered_rank((t, r + nr, h), table, store.filter_index))
            return float(np.mean(rrs))

        def run(kind, seed):
            cfg = TrainConfig(
                n=8,
                epochs=200,
                lr=1.0,
                batch_size=100,
                seed=seed,
                reg=RegConfig("DURA", lam=0.01),
                eval_every=20,
                init_scale=1e-2,
            )
            table, _ = train(store, cfg, kind)
            return evaluate("test", table, store).mrr, disc_mrr(table)

        seeds = range(5)
        star = [run("STaR", s) for s in seeds]
        frozen = [run("ComplEx", s) for s in seeds]
        star_test = float(np.mean([v[0] for v in star]))
        star_disc = float(np.mean([v[1] for v in star]))
        frozen_disc = float(np.mean([v[1] for v in frozen]))
        wall = time.perf_counter() - t0
        report(
            6,
            star_test >= 0.9 and star_disc > frozen_disc and wall < 300,
            f"full model test MRR {star_test:.3f} (>= 0.9), discriminating-subset MRR "
            f"{star_disc:.3f} vs {frozen_disc:.3f} frozen-translation, in {wall:.0f}s",
        )


@pytest.mark.slow
@pytest.mark.dataset
class TestCriterion7:
    def test_small_dimension_benchmark_ordering(self):
        """At n=32 with the duality penalty and identical budgets (3 seeds
        each), the full model's mean validation MRR must not trail the
        frozen-translation configuration by more than 0.005."""
        from star_kge.data import load_dataset

        epochs = int(os.environ.get("STAR_KGE_SLOW_EPOCHS", "8"))
        store = load_dataset(
            dataset_path("WN18RR", "train"),
            dataset_path("WN18RR", "valid"),
            dataset_path("WN18RR", "test"),
        )

        def run(kind, seed):
            cfg = TrainConfig(
                n=32,
                epochs=epochs,
                lr=0.1,
                batch_size=100,
                w0=0.1,
                seed=seed,
                reg=RegConfig("DURA", lam=0.1),
                eval_every=max(epochs // 4, 1),
                init_scale=1e-3,
            )
            table, log = train(store, cfg, kind)
            return max(r["valid_mrr"] for r in log if r["valid_mrr"] is not None)

        star = [run("STaR", s) for s in range(3)]
        frozen = [run("ComplEx", s) for s in range(3)]
        gap = float(np.mean(star)) - float(np.mean(frozen))
        report(
            7,
            gap >= -0.005,
            f"valid MRR mean {np.mean(star):.4f} (full) vs {np.mean(frozen):.4f} "
            f"(frozen translation), gap {gap:+.4f} at {epochs} epochs",
        )


class TestCriterion8:
    def test_filtered_ranks_equal_sort_oracle_under_both_tie_rules(self):
        """Batch evaluator ranks = brute-force sorting oracle on toy KGs,
        exactly; tied-score behavior matches each tie rule; report
        monotonicity invariants hold."""
        rng = np.random.default_rng(5)
        mismatches = 0
        queries = 0
        for _ in range(10):
            ne = int(rng.integers(4, 21))
            nr = int(rng.integers(1, 4))
            nt = int(rng.integers(ne, 3 * ne))
            rows = {
                (int(h), int(r), int(t))
                for h, r, t in zip(
                    rng.integers(0, ne, nt), rng.integers(0, nr, nt), rng.integers(0, ne, nt)
                )
            }
            store = make_store(sorted(rows), num_entities=ne, num_relations=nr)
            table = init_embeddings(ne, nr, 6, init_scale=1.0, seed=int(rng.integers(1 << 30)))
            for h, r, t in store.train.tolist():
                for query in ((h, r, t), (t, r + nr, h)):
                    scores = score_batch(table, query[0], query[1])
                    _, known = store.filter_index.known_answers([query])
                    excluded = set(known.tolist()) - {query[2]}
                    expected = sort_rank(scores, query[2], excluded)
                    # continuous scores have no ties, so both rules coincide
                    for rule in ("pessimistic", "random"):
                        got = filtered_rank(
                            query, table, store.filter_index, rule, np.random.default_rng(0)
                        )
                        queries += 1
                        if got != expected:
                            mismatches += 1
            rep = evaluate("train", table, store)
            assert rep.hits[1] <= rep.hits[3] <= rep.hits[10] <= 1.0
            assert rep.mrr >= rep.hits[1]

        # degenerate constant model: every candidate ties
        m = 9
        store = make_store([(0, 0, 1)], num_entities=m)
        table = init_embeddings(m, 1, 4, seed=0)
        table.entity_embeddings[:] = 0.0
        pess = filtered_rank((0, 0, 1), table, store.filter_index, "pessimistic")
        tied_ok = pess == m
        draws = [
            filtered_rank((0, 0, 1), table, store.filter_index, "random", np.random.default_rng(s))
            for s in range(3000)
        ]
        tied_ok &= abs(np.mean(draws) - (m + 1) / 2) < 0.15
        report(
            8,
            mismatches == 0 and tied_ok,
            f"{queries} filtered ranks equal the sort oracle; tie handling matches both rules",
        )


class TestCriterion9:
    def test_bitwise_identical_runs(self, tmp_path):
        """Same config + seed twice (single-threaded) => identical checkpoint
        bytes and identical report JSON."""
        from star_kge.cli import main

        spec = tmp_path / "kg.spec"
        spec.write_text(
            "num_entities = 49\nseed = 2\nholdout_fraction = 0.2\n"
            "relation.0.name = turn\nrelation.0.kind = grid_rotation\n"
            "relation.0.quarter_turns = 2\n"
            "relation.1.name = shift\nrelation.1.kind = grid_translation\n"
            "relation.1.offset = 1,0\n"
            "relation.2.name = turn_then_shift\nrelation.2.kind = composed\n"
            "relation.3.name = shift_then_turn\nrelation.3.kind = composed\n"
            "compose.0 = turn, shift, turn_then_shift, noncommuting\n"
            "compose.1 = shift, turn, shift_then_turn, noncommuting\n",
            encoding="utf-8",
        )
        kg = tmp_path / "kg"
        assert main(["synth", "--spec", str(spec), "--out", str(kg)]) == 0

        blobs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(
                "model_kind = STaR\nn = 8\nlr = 0.3\nbatch_size = 32\nepochs = 6\n"
                "seed = 13\neval_every = 3\ninit_scale = 0.01\n"
                "reg.kind = DURA\nreg.lambda = 0.01\n"
                f"data.train = {kg / 'train.tsv'}\n"
                f"data.valid = {kg / 'valid.tsv'}\n"
                f"data.test = {kg / 'test.tsv'}\n"
                f"out_dir = {out}\n",
                encoding="utf-8",
            )
            assert main(["train", "--config", str(cfg), "--threads", "1"]) == 0
            blobs.append(
                (
                    (out / "checkpoint.bin").read_bytes(),
                    (out / "eval_valid.json").read_bytes(),
                    (out / "eval_test.json").read_bytes(),
                )
            )
        same = blobs[0] == blobs[1]
        mrr = json.loads(blobs[0][2].decode())["mrr"]
        report(9, same, f"two seeded runs produced identical bytes (test MRR {mrr:.3f})")
