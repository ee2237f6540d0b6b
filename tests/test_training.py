import math

import numpy as np
import pytest

from star_kge.data import entity_frequency
from star_kge.model import init_embeddings
from star_kge.regularization import RegConfig
from star_kge.training import (
    DivergenceError,
    TrainConfig,
    adagrad_update,
    batch_loss,
    tail_weight,
    train,
)
from conftest import make_store
from oracles import central_diff, gradient_rel_error


def tiny_config(**kw):
    defaults = dict(n=4, epochs=0, lr=0.1, batch_size=4, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTailWeight:
    def test_zero_w0_gives_uniform_weights(self):
        counts = np.array([3, 0, 7])
        for e in range(3):
            assert tail_weight(e, counts, 0.0) == 1.0

    def test_maximal_entity_gets_weight_one(self):
        counts = np.array([2, 9, 5])
        assert tail_weight(1, counts, 0.7) == 1.0

    def test_unseen_entity_at_w0_point_one(self):
        counts = np.array([4, 0])
        assert tail_weight(1, counts, 0.1) == pytest.approx(0.9)

    def test_vectorized_ids(self):
        counts = np.array([4, 2, 0])
        np.testing.assert_allclose(
            tail_weight(np.array([0, 1, 2]), counts, 0.5), [1.0, 0.75, 0.5]
        )

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            tail_weight(0, np.array([]), 0.1)


class TestBatchLoss:
    def test_single_entity_gives_zero_cross_entropy(self):
        store = make_store([(0, 0, 0)], num_entities=1)
        table = init_embeddings(1, 1, 4, seed=0)
        loss, _ = batch_loss(store.train, table, tiny_config())
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_uniform_scores_give_log_candidate_count(self):
        store = make_store([(0, 0, 1)], num_entities=4)
        table = init_embeddings(4, 1, 4, seed=0)
        table.entity_embeddings[:] = 0.0  # every candidate scores exactly 1
        loss, _ = batch_loss(store.train, table, tiny_config())
        assert loss == pytest.approx(math.log(4.0))

    def test_non_finite_loss_aborts_with_diagnostic(self):
        store = make_store([(0, 0, 1)], num_entities=3)
        table = init_embeddings(3, 1, 4, seed=0)
        table.entity_embeddings[0, 0] = np.nan
        with pytest.raises(DivergenceError, match="score"):
            batch_loss(store.train, table, tiny_config())

    def test_empty_batch_rejected(self):
        table = init_embeddings(3, 1, 4, seed=0)
        with pytest.raises(ValueError):
            batch_loss(np.empty((0, 3), dtype=np.int64), table, tiny_config())

    @pytest.mark.parametrize(
        "reg",
        [
            RegConfig("none"),
            RegConfig("Fro", lam=0.05),
            RegConfig("DURA", lam=0.1, dura_variant="literal"),
            RegConfig("DURA", lam=0.1, dura_variant="exact"),
        ],
        ids=["none", "fro", "dura-literal", "dura-exact"],
    )
    def test_full_objective_gradient_matches_finite_differences(self, reg, rng):
        num_entities, num_relations, n = 5, 2, 4
        store = make_store(
            [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 4), (4, 0, 0)],
            num_entities=num_entities,
            num_relations=num_relations,
        )
        cfg = tiny_config(w0=0.3, reg=reg)
        tail_counts, _ = entity_frequency(store, "tail")
        head_counts, _ = entity_frequency(store, "head")
        tw = tail_weight(np.arange(num_entities), tail_counts, cfg.w0)
        hw = tail_weight(np.arange(num_entities), head_counts, cfg.w0)

        table = init_embeddings(num_entities, num_relations, n, init_scale=0.5, seed=17)
        table.rel_tau[:] = rng.normal(size=table.rel_tau.shape) * 0.5
        _, grads = batch_loss(store.train, table, cfg, tw, hw)

        shapes = [table.entity_embeddings.shape, table.rel_c.shape, table.rel_tau.shape]
        sizes = [int(np.prod(s)) for s in shapes]

        def objective(theta):
            t2 = table.copy()
            t2.entity_embeddings = theta[: sizes[0]].reshape(shapes[0])
            t2.rel_c = theta[sizes[0] : sizes[0] + sizes[1]].reshape(shapes[1])
            t2.rel_tau = theta[sizes[0] + sizes[1] :].reshape(shapes[2])
            return batch_loss(store.train, t2, cfg, tw, hw)[0]

        theta0 = np.concatenate(
            [table.entity_embeddings.ravel(), table.rel_c.ravel(), table.rel_tau.ravel()]
        )
        fd = central_diff(objective, theta0, step=1e-5)
        analytic = np.concatenate(
            [grads.d_entities.ravel(), grads.d_rel_c.ravel(), grads.d_rel_tau.ravel()]
        )
        assert gradient_rel_error(analytic, fd) < 1e-4

    def test_loss_nonnegative_without_regularization(self, rng):
        for seed in range(10):
            store = make_store(
                rng.integers(0, 6, size=(8, 3)).tolist(), num_entities=6, num_relations=6
            )
            table = init_embeddings(6, 6, 4, init_scale=1.0, seed=seed)
            loss, _ = batch_loss(store.train, table, tiny_config())
            assert loss >= 0.0


class TestMirrorSymmetry:
    def test_reversed_store_with_swapped_relation_rows_gives_equal_loss(self, rng):
        triples = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 0, 4)]
        store = make_store(triples, num_entities=5, num_relations=2)
        reversed_store = make_store(
            [(t, r, h) for h, r, t in triples], num_entities=5, num_relations=2
        )
        cfg = tiny_config(reg=RegConfig("DURA", lam=0.07), optimizer="SGD")

        table = init_embeddings(5, 2, 4, init_scale=0.8, seed=2)
        table.rel_tau[:] = rng.normal(size=table.rel_tau.shape)
        mirror = table.copy()
        nr = 2  # swap original and reciprocal relation rows
        mirror.rel_c = np.concatenate([table.rel_c[nr:], table.rel_c[:nr]])
        mirror.rel_tau = np.concatenate([table.rel_tau[nr:], table.rel_tau[:nr]])

        for _ in range(5):  # a few full-batch descent steps stay mirror-identical
            loss_a, g_a = batch_loss(store.train, table, cfg)
            loss_b, g_b = batch_loss(reversed_store.train, mirror, cfg)
            assert loss_a == pytest.approx(loss_b, rel=1e-12)
            table.entity_embeddings -= cfg.lr * g_a.d_entities
            table.rel_c -= cfg.lr * g_a.d_rel_c
            table.rel_tau -= cfg.lr * g_a.d_rel_tau
            mirror.entity_embeddings -= cfg.lr * g_b.d_entities
            mirror.rel_c -= cfg.lr * g_b.d_rel_c
            mirror.rel_tau -= cfg.lr * g_b.d_rel_tau


class TestAdagrad:
    def test_first_step_is_signed_learning_rate(self):
        param = np.array([1.0, 1.0])
        grad = np.array([0.5, -2.0])
        acc = np.zeros(2)
        adagrad_update(param, grad, acc, lr=0.1)
        np.testing.assert_allclose(param, [1.0 - 0.1, 1.0 + 0.1], atol=1e-6)

    def test_zero_gradient_changes_nothing(self):
        param = np.array([3.0, -4.0])
        acc = np.array([1.0, 2.0])
        adagrad_update(param, np.zeros(2), acc, lr=0.1)
        np.testing.assert_array_equal(param, [3.0, -4.0])

    def test_second_identical_step_shrinks_by_sqrt_two(self):
        lr, g = 0.1, np.array([0.7])
        param = np.array([0.0])
        acc = np.zeros(1)
        adagrad_update(param, g, acc, lr)
        first = -param[0]
        before = param[0]
        adagrad_update(param, g, acc, lr)
        second = before - param[0]
        assert second == pytest.approx(first / math.sqrt(2.0), rel=1e-9)

    def test_accumulator_monotone(self, rng):
        param = rng.normal(size=8)
        acc = np.zeros(8)
        prev = acc.copy()
        for _ in range(10):
            adagrad_update(param, rng.normal(size=8), acc, lr=0.05)
            assert np.all(acc >= prev)
            prev = acc.copy()


class TestTrain:
    def test_zero_epochs_returns_initialized_table(self, toy_store):
        cfg = tiny_config(epochs=0, seed=5)
        table, log = train(toy_store, cfg)
        fresh = init_embeddings(
            toy_store.num_entities, toy_store.num_relations, cfg.n, "STaR", cfg.init_scale, 5
        )
        np.testing.assert_array_equal(table.entity_embeddings, fresh.entity_embeddings)
        assert log == []

    def test_deterministic_under_seed(self, toy_store):
        cfg = tiny_config(epochs=4, seed=11, w0=0.2, reg=RegConfig("DURA", lam=0.05))
        t1, log1 = train(toy_store, cfg)
        t2, log2 = train(toy_store, cfg)
        np.testing.assert_array_equal(t1.entity_embeddings, t2.entity_embeddings)
        np.testing.assert_array_equal(t1.rel_c, t2.rel_c)
        np.testing.assert_array_equal(t1.rel_tau, t2.rel_tau)
        assert [r["mean_loss"] for r in log1] == [r["mean_loss"] for r in log2]

    def test_loss_decreases_on_memorizable_graph(self):
        # two families of facts, one shared child: the non-commuting toy setup
        triples = [
            (0, 0, 1),  # tom has-wife mary
            (0, 1, 2),  # tom has-child bill
            (3, 1, 2),  # lily has-child bill
            (1, 1, 4),  # mary has-child ann
        ]
        store = make_store(triples, num_entities=5, num_relations=2)
        cfg = tiny_config(epochs=10, lr=0.1, batch_size=10, seed=1, init_scale=0.1)
        _, log = train(store, cfg)
        losses = [r["mean_loss"] for r in log]
        assert losses[-1] < losses[0]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_keeps_best_validation_checkpoint(self, toy_store):
        cfg = tiny_config(epochs=6, eval_every=2, seed=3)
        table, log = train(toy_store, cfg)
        evaluated = [r["valid_mrr"] for r in log if r["valid_mrr"] is not None]
        assert len(evaluated) == 3
        from star_kge.evaluation import evaluate

        assert evaluate("valid", table, toy_store).mrr == pytest.approx(max(evaluated))

    def test_divergence_reports_epoch_and_batch(self, toy_store, monkeypatch):
        import star_kge.training as training_module

        def broken_init(*args, **kwargs):
            table = init_embeddings(*args, **kwargs)
            table.entity_embeddings[0, 0] = np.nan
            return table

        monkeypatch.setattr(training_module, "init_embeddings", broken_init)
        with pytest.raises(DivergenceError, match="epoch 0"):
            train(toy_store, tiny_config(epochs=1))

    @pytest.mark.parametrize("matrix", ["rel_c", "rel_tau"])
    def test_divergence_in_relation_matrix_is_named(self, toy_store, monkeypatch, matrix):
        import star_kge.training as training_module

        tables = []

        def recording_init(*args, **kwargs):
            tables.append(init_embeddings(*args, **kwargs))
            return tables[-1]

        def poisoned_update(param, grad, accumulator, lr):
            adagrad_update(param, grad, accumulator, lr)
            if param is getattr(tables[0], matrix):
                param[0, 0] = np.nan

        monkeypatch.setattr(training_module, "init_embeddings", recording_init)
        monkeypatch.setattr(training_module, "adagrad_update", poisoned_update)
        with pytest.raises(DivergenceError, match=f"epoch 0, batch 0: non-finite {matrix}"):
            train(toy_store, tiny_config(epochs=1))

    def test_complex_kind_keeps_translation_zero(self, toy_store):
        table, _ = train(toy_store, tiny_config(epochs=3), model_kind="ComplEx")
        assert np.all(table.rel_tau == 0.0)

    def test_tar_kind_keeps_unit_blocks(self, toy_store):
        table, _ = train(toy_store, tiny_config(epochs=3), model_kind="TaR")
        blocks = table.rel_c.reshape(table.rel_c.shape[0], -1, 2)
        np.testing.assert_allclose(np.linalg.norm(blocks, axis=2), 1.0, atol=1e-9)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(w0=1.5)
        with pytest.raises(ValueError):
            tiny_config(batch_size=0)
        with pytest.raises(ValueError):
            tiny_config(optimizer="Adam")
