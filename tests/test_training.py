import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import star_kge.training as training
from star_kge.data import entity_frequency
from star_kge.model import MODEL_KINDS, block_rotate_t, init_embeddings
from star_kge.regularization import RegConfig, penalty_terms_batch
from star_kge.training import (
    DivergenceError,
    OptimizerState,
    TrainConfig,
    adagrad_update,
    batch_loss,
    tail_weight,
    train,
)
from conftest import make_store
from oracles import adagrad_update_whole, batch_loss_whole, central_diff, gradient_rel_error


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


REGS = (
    RegConfig("none"),
    RegConfig("Fro", lam=0.05),
    RegConfig("DURA", lam=0.1, dura_variant="literal"),
    RegConfig("DURA", lam=0.1, dura_variant="exact"),
)
TABLES = ("entity_embeddings", "rel_c", "rel_tau")
GRADS = ("d_entities", "d_rel_c", "d_rel_tau")
ACCUMULATORS = ("acc_entities", "acc_rel_c", "acc_rel_tau")


@st.composite
def step_cases(draw):
    """A random small store and step config, with ``BLOCK_BYTES`` set so
    that a score block holds ``height`` rows; a batch of m triples has 2m."""
    ne = draw(st.integers(1, 40))
    num_train = draw(st.integers(1, 25))
    batch_size = draw(st.integers(1, num_train + 5))  # a ragged last batch, or more than |train|
    height = draw(st.integers(1, 2 * batch_size + 1))
    return {
        "ne": ne,
        "nr": draw(st.integers(1, 3)),
        "n": draw(st.sampled_from((2, 4, 6))),
        "num_train": num_train,
        "batch_size": batch_size,
        "block_bytes": height * 8 * ne + draw(st.integers(0, 8 * ne - 1)),
        "kind": draw(st.sampled_from(MODEL_KINDS)),
        "reg": draw(st.sampled_from(REGS)),
        "w0": draw(st.sampled_from((0.0, 0.1))),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }


#: 9 triples in batches of 4 (ragged 4/4/1); 3 score rows per block cut the
#: 8-row batches mid-batch; 888 bytes is 27 entity rows at n=4, and 37 is no
#: multiple of 27
CUT_MID_BATCH = {
    "ne": 37, "nr": 2, "n": 4, "num_train": 9, "batch_size": 4, "block_bytes": 3 * 8 * 37,
    "kind": "STaR", "reg": REGS[2], "w0": 0.1, "seed": 7,
}
BATCH_OVER_TRAIN = dict(CUT_MID_BATCH, num_train=5, batch_size=9, kind="TaR", reg=REGS[3], w0=0.0)
#: one entity, so the whole-matrix entity gradient is exactly 0 and the fold
#: leaves the rounding residue of c * Q - a * Q (about 4e-19)
ONE_ENTITY = {
    "ne": 1, "nr": 1, "n": 2, "num_train": 1, "batch_size": 1, "block_bytes": 8,
    "kind": "STaR", "reg": REGS[0], "w0": 0.0, "seed": 0,
}
#: a large init scale, so each query's target scores at least 30 above every
#: rival: the probability of the target rounds to 1 and a * T cancels c * (Z E)
SATURATED = {
    "ne": 3, "nr": 1, "n": 6, "num_train": 2, "batch_size": 2, "block_bytes": 8 * 3,
    "kind": "STaR", "reg": REGS[0], "w0": 0.0, "seed": 55, "init_scale": 4.0,
}


def _case_setup(case, epochs=1):
    rng = np.random.default_rng(case["seed"])
    ne, nr = case["ne"], case["nr"]
    triples = rng.integers(0, [ne, nr, ne], size=(case["num_train"], 3))
    store = make_store(triples, num_entities=ne, num_relations=nr)
    cfg = tiny_config(
        n=case["n"], epochs=epochs, batch_size=case["batch_size"], w0=case["w0"], reg=case["reg"],
        seed=case["seed"], init_scale=case.get("init_scale", 0.5),
    )
    weights = (None, None)
    if cfg.w0 > 0:
        weights = tuple(
            tail_weight(np.arange(ne), entity_frequency(store, side)[0], cfg.w0) for side in ("tail", "head")
        )
    return store, cfg, weights


def _query_terms(batch, table, cfg, tw, hw):
    """The per-query operands of ``batch_loss``: weights a = w / 2m, H, RC,
    TAU and T, in the order of ``training._query_arrays``."""
    src, rel, tgt = training._query_arrays(batch, table.num_relations)
    m = len(batch)
    w = np.ones(2 * m) if cfg.w0 == 0 else np.concatenate([tw[tgt[:m]], hw[tgt[m:]]])
    ents = table.entity_embeddings
    return w / (2 * m), ents[src], table.rel_c[rel], table.rel_tau[rel], ents[tgt]


def fold_atol(batch, table, cfg, tw, hw):
    """A bound on |folded - whole-matrix| for every entry of every gradient.

    Both steps round the same exact gradient. A result computed by a chain
    of K roundings lies within gamma_K * M of its exact value, where
    gamma_K = K u / (1 - K u), u = eps / 2, and M sums the magnitudes of
    the terms on the chain (Higham, "Accuracy and Stability of Numerical
    Algorithms", ch. 3); the two steps then differ by at most 2 gamma_K M.
    The longest chain is a GEMM over |E| or 2m terms, at most 8 scalings
    and subtractions, and scatter-adds of up to 3 * 2m rows, so
    K = |E| + 8m + 8. M sums, over the 2m queries with p_i the softmax row
    (entries summing to 1) and e = max |E|:
    - V_i = a_i (p_i E - T_i), with terms of size at most 2 a_i e; the
      block products block_rotate(RC_i, V_i) and block_grad(H_i, V_i) sum
      two products per entry, scaling that by 2 max|RC_i| and 2 max|H_i|;
    - the entity-gradient GEMM and its one-hot term, a_i (p_ij + 1) |Q_i|,
      at most 2 a_i max|Q_i| per entry;
    - the penalty gradients, times lam / 2m, in the same scatter-adds.
    """
    a, H, RC, TAU, T = _query_terms(batch, table, cfg, tw, hw)
    Q = block_rotate_t(RC, H) + TAU
    vmax = 2 * a * np.abs(table.entity_embeddings).max()
    M = np.sum(vmax * (1 + 2 * np.abs(RC).max(axis=1) + 2 * np.abs(H).max(axis=1)))
    M += np.sum(2 * a * np.abs(Q).max(axis=1))
    if cfg.reg.kind != "none":
        reg_grads = penalty_terms_batch(H, T, RC, TAU, cfg.reg)[1:]
        M += cfg.reg.lam / len(a) * sum(np.abs(g).sum() for g in reg_grads)
    u = np.finfo(np.float64).eps / 2
    k = table.num_entities + 4 * len(a) + 8
    return 2 * (k * u / (1 - k * u)) * M


class TestBlockedStep:
    """The row-blocked step against the whole-matrix oracle of tests/oracles.py."""

    @settings(max_examples=80, deadline=None)
    @given(step_cases())
    @example(CUT_MID_BATCH)
    @example(BATCH_OVER_TRAIN)
    @example(ONE_ENTITY)
    @example(SATURATED)
    def test_matches_whole_matrix_oracle(self, case):
        store, cfg, (tw, hw) = _case_setup(case)
        table = init_embeddings(case["ne"], case["nr"], cfg.n, case["kind"], cfg.init_scale, cfg.seed)
        want_table = table.copy()
        state = OptimizerState.for_table(table, "Adagrad")
        want_state = OptimizerState.for_table(want_table, "Adagrad")
        # reused and stale between batches, as in train()
        scores = np.full((2 * min(cfg.batch_size, len(store.train)), case["ne"]), np.nan)
        with mock.patch.object(training, "BLOCK_BYTES", case["block_bytes"]):
            for start in range(0, len(store.train), cfg.batch_size):
                batch = store.train[start : start + cfg.batch_size]
                loss, grads = batch_loss(batch, table, cfg, tw, hw, _scores=scores)
                want_loss, want = batch_loss_whole(batch, want_table, cfg, tw, hw)
                assert loss == want_loss
                # the fold scales the small GEMM operands instead of dS and
                # moves the one-hot term out of the GEMMs: the same gradient,
                # rounded in another order
                atol = fold_atol(batch, table, cfg, tw, hw)
                for name in GRADS:
                    np.testing.assert_allclose(
                        getattr(grads, name), getattr(want, name), rtol=1e-12, atol=atol, err_msg=name
                    )
                # both optimisers step on the oracle's gradient, so the tables stay comparable
                for name, grad, acc in zip(TABLES, GRADS, ACCUMULATORS):
                    adagrad_update(getattr(table, name), getattr(want, grad), getattr(state, acc), cfg.lr)
                    adagrad_update_whole(
                        getattr(want_table, name), getattr(want, grad), getattr(want_state, acc), cfg.lr
                    )
                    np.testing.assert_array_equal(getattr(table, name), getattr(want_table, name))
                    np.testing.assert_array_equal(getattr(state, acc), getattr(want_state, acc))
                table.enforce_kind()
                want_table.enforce_kind()

    def test_saturated_example_saturates(self):
        case = SATURATED
        store, cfg, (tw, hw) = _case_setup(case)
        table = init_embeddings(case["ne"], case["nr"], cfg.n, case["kind"], cfg.init_scale, cfg.seed)
        _, H, RC, TAU, _ = _query_terms(store.train, table, cfg, tw, hw)
        scores = (block_rotate_t(RC, H) + TAU) @ table.entity_embeddings.T
        tgt = training._query_arrays(store.train, table.num_relations)[2]
        is_tgt = np.arange(table.num_entities) == tgt[:, None]
        margins = scores[is_tgt] - np.where(is_tgt, -np.inf, scores).max(axis=1)
        assert margins.min() >= 30

    @settings(max_examples=30, deadline=None)
    @given(step_cases())
    @example(CUT_MID_BATCH)
    @example(BATCH_OVER_TRAIN)
    def test_stale_workspace_gives_bitwise_equal_step(self, case):
        """NaN-filled buffers, a full batch and a short last batch that uses
        a prefix of the score buffer, against calls that allocate their own."""
        store, cfg, (tw, hw) = _case_setup(case)
        table = init_embeddings(case["ne"], case["nr"], cfg.n, case["kind"], cfg.init_scale, cfg.seed)
        ne = case["ne"]
        scores = np.empty((2 * min(cfg.batch_size, len(store.train)), ne))
        grad_t = np.empty((cfg.n, ne))
        d_entities = np.empty((ne, cfg.n))
        with mock.patch.object(training, "BLOCK_BYTES", case["block_bytes"]):
            for start in range(0, len(store.train), cfg.batch_size):
                batch = store.train[start : start + cfg.batch_size]
                for buffer in (scores, grad_t, d_entities):
                    buffer.fill(np.nan)
                loss, grads = batch_loss(
                    batch, table, cfg, tw, hw, _scores=scores, _grad_t=grad_t, _d_entities=d_entities
                )
                want_loss, want = batch_loss(batch, table, cfg, tw, hw)
                assert grads.d_entities is d_entities
                assert loss == want_loss
                for name in GRADS:
                    np.testing.assert_array_equal(getattr(grads, name), getattr(want, name))

    @settings(max_examples=30, deadline=None)
    @given(step_cases())
    @example(CUT_MID_BATCH)
    @example(BATCH_OVER_TRAIN)
    def test_train_with_reused_buffer_equals_fresh_buffer_loop(self, case):
        store, cfg, (tw, hw) = _case_setup(case, epochs=2)
        with mock.patch.object(training, "BLOCK_BYTES", case["block_bytes"]):
            got, log = train(store, cfg, case["kind"])
            # train()'s loop with a fresh score matrix for every batch
            rng = np.random.default_rng(cfg.seed)
            want = init_embeddings(case["ne"], case["nr"], cfg.n, case["kind"], cfg.init_scale, cfg.seed)
            state = OptimizerState.for_table(want, cfg.optimizer)
            mean_losses = []
            for _ in range(cfg.epochs):
                order = rng.permutation(len(store.train))
                total = 0.0
                for start in range(0, len(order), cfg.batch_size):
                    batch = store.train[order[start : start + cfg.batch_size]]
                    loss, grads = batch_loss(batch, want, cfg, tw, hw)
                    training._apply_updates(want, grads, state, cfg)
                    want.enforce_kind()
                    total += loss * 2 * len(batch)
                mean_losses.append(total / (2 * len(order)))
        assert [r["mean_loss"] for r in log] == mean_losses
        for name in TABLES:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
