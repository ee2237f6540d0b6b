import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import star_kge.training as training
from star_kge.data import reciprocal_queries
from star_kge.model import MODEL_KINDS, block_rotate_t, init_embeddings
from star_kge.regularization import RegConfig, penalty_terms_batch
from star_kge.training import (
    BatchGradients,
    DivergenceError,
    TrainConfig,
    adagrad_update,
    batch_loss,
    train,
)
from conftest import make_store
from oracles import adagrad_update_whole, batch_loss_whole, central_diff, gradient_rel_error


def tiny_config(**kw):
    defaults = dict(n=4, epochs=0, lr=0.1, batch_size=4, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTailWeight:
    """The (2, |E|) frequency weight table that train() hands batch_loss."""

    def test_zero_w0_gives_uniform_weights(self):
        store = make_store([(0, 0, 2), (1, 0, 2), (2, 0, 0)], num_entities=4)
        weights = training._weight_table(store, 0.0)
        assert weights.shape == (2, 4)
        assert (weights == 1.0).all()

    def test_maximal_entity_gets_weight_one(self):
        store = make_store([(0, 0, 1), (2, 0, 1), (1, 0, 2)], num_entities=3)
        weights = training._weight_table(store, 0.7)
        assert weights[0, 1] == 1.0  # two tails
        assert weights[1, 0] == weights[1, 1] == weights[1, 2] == 1.0  # one head each

    def test_unseen_entity_at_w0_point_one(self):
        store = make_store([(0, 0, 1)], num_entities=3)
        weights = training._weight_table(store, 0.1)
        assert weights[0, 2] == pytest.approx(0.9)
        assert weights[1, 2] == pytest.approx(0.9)

    def test_vectorized_ids(self):
        """Row 0 comes from the tail counts and row 1 from the head counts."""
        triples = [(1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0), (1, 0, 1), (0, 0, 1), (1, 0, 2)]
        store = make_store(triples, num_entities=4, num_relations=2)
        weights = training._weight_table(store, 0.5)
        np.testing.assert_array_equal(weights[0], [1.0, 0.75, 0.625, 0.5])  # tails 4, 2, 1, 0
        np.testing.assert_array_equal(weights[1], [0.625, 1.0, 0.75, 0.5])  # heads 1, 4, 2, 0


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
        with pytest.raises(DivergenceError, match="score") as exc:
            batch_loss(store.train, table, tiny_config())
        assert "max |score| = nan" in str(exc.value)
        # finite scores and an overflowing penalty: the message gives the
        # largest |score| of the batch, recomputed after the loss failed
        table = init_embeddings(3, 1, 4, init_scale=0.5, seed=0)
        cfg = tiny_config(reg=RegConfig("Fro", lam=1e308))
        _, H, RC, TAU, _ = _query_terms(store.train, table, None)
        want = np.abs((block_rotate_t(RC, H) + TAU) @ table.entity_embeddings.T).max()
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="score") as exc:
            batch_loss(store.train, table, cfg)
        assert f"max |score| = {want:.3e})" in str(exc.value)

    def test_empty_batch_rejected(self):
        table = init_embeddings(3, 1, 4, seed=0)
        with pytest.raises(ValueError):
            batch_loss(np.empty((0, 3), dtype=np.int64), table, tiny_config())
        # nor does the update step take a gradient of another shape
        with pytest.raises(ValueError, match="^param, grad and accumulator shapes must match$"):
            adagrad_update(table.rel_c, table.rel_c.copy(), np.zeros((2, 2)), 0.1)

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
        weights = training._weight_table(store, cfg.w0)

        table = init_embeddings(num_entities, num_relations, n, init_scale=0.5, seed=17)
        table.rel_tau[:] = rng.normal(size=table.rel_tau.shape) * 0.5
        _, grads = batch_loss(store.train, table, cfg, weights)

        shapes = [table.entity_embeddings.shape, table.rel_c.shape, table.rel_tau.shape]
        sizes = [int(np.prod(s)) for s in shapes]

        def objective(theta):
            t2 = table.copy()
            t2.entity_embeddings = theta[: sizes[0]].reshape(shapes[0])
            t2.rel_c = theta[sizes[0] : sizes[0] + sizes[1]].reshape(shapes[1])
            t2.rel_tau = theta[sizes[0] + sizes[1] :].reshape(shapes[2])
            return batch_loss(store.train, t2, cfg, weights)[0]

        theta0 = np.concatenate(
            [table.entity_embeddings.ravel(), table.rel_c.ravel(), table.rel_tau.ravel()]
        )
        fd = central_diff(objective, theta0, step=1e-5)
        analytic = np.concatenate(
            [grads.d_entities.ravel(), grads.d_rel_c.ravel(), grads.d_rel_tau.ravel()]
        )
        assert gradient_rel_error(analytic, fd) < 1e-4

    def test_weight_of_no_penalty_leaves_loss_and_gradients_bitwise(self, rng):
        # 'none' penalties are exact zeros, so lambda times them adds nothing
        store = make_store(rng.integers(0, [6, 3, 6], size=(8, 3)).tolist(), num_entities=6, num_relations=3)
        table = init_embeddings(6, 3, 4, init_scale=0.5, seed=3)
        table.rel_tau[:] = rng.normal(size=table.rel_tau.shape)
        got = [batch_loss(store.train, table, tiny_config(reg=RegConfig("none", lam=lam))) for lam in (0.1, 0.0)]
        (loss, grads), (want_loss, want_grads) = got
        assert loss == want_loss
        for name in ("d_entities", "d_rel_c", "d_rel_tau"):
            assert getattr(grads, name).tobytes() == getattr(want_grads, name).tobytes()

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
        cfg = tiny_config(reg=RegConfig("DURA", lam=0.07))

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

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 7), st.integers(1, 9)),
        chunk=st.integers(1, 70),
        fortran=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_chunked_step_is_bitwise_the_whole_array_step(self, shape, chunk, fortran, seed):
        """Flat chunks of ``chunk`` elements, which cut rows anywhere, on C-order
        arrays; a Fortran-order parameter is stepped whole, still in place."""
        rng = np.random.default_rng(seed)
        param, grad, acc = rng.normal(size=(3,) + shape)
        acc = acc * acc
        if fortran:
            param = np.asfortranarray(param)
        want = [param.copy(), grad, acc.copy()]
        with mock.patch.object(training, "BLOCK_BYTES", 8 * chunk):
            if not fortran:
                assert len(training._chunks(param, grad, acc)) == -(-param.size // chunk)
            adagrad_update(param, grad, acc, lr=0.3)
        adagrad_update_whole(*want, lr=0.3)
        np.testing.assert_array_equal(param, want[0])
        np.testing.assert_array_equal(acc, want[2])


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
        with pytest.raises(DivergenceError, match="^epoch 0, batch 0: non-finite batch loss"):
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
        with pytest.raises(DivergenceError, match=f"^epoch 0, batch 0: non-finite {matrix} after update$"):
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
        for optimizer in ("Adam", "SGD"):
            with pytest.raises(ValueError, match="optimizer"):
                tiny_config(optimizer=optimizer)
        for lr in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="lr must be positive"):
                tiny_config(lr=lr)
        with pytest.raises(ValueError, match="init_scale"):
            tiny_config(init_scale=math.nan)
        with pytest.raises(ValueError, match="reg.lambda"):
            RegConfig(kind="DURA", lam=math.nan)
        empty = make_store(np.empty((0, 3)), num_entities=3, num_relations=1, valid=[(0, 0, 1)])
        with pytest.raises(ValueError, match="^train split is empty$"):
            train(empty, tiny_config())

    @pytest.mark.parametrize(
        "make",
        [
            lambda: tiny_config(lr=math.inf),
            lambda: tiny_config(init_scale=math.inf),
            lambda: RegConfig("DURA", lam=math.inf),
        ],
        ids=["lr", "init_scale", "reg.lambda"],
    )
    def test_infinite_value_rejected(self, make):
        with pytest.raises(ValueError, match="must be finite, got inf"):
            make()


REGS = (
    RegConfig("none"),
    RegConfig("Fro", lam=0.05),
    RegConfig("DURA", lam=0.1, dura_variant="literal"),
    RegConfig("DURA", lam=0.1, dura_variant="exact"),
)
TABLES = ("entity_embeddings", "rel_c", "rel_tau")
GRADS = ("d_entities", "d_rel_c", "d_rel_tau")


@st.composite
def step_cases(draw):
    """A random small store and step config, with ``BLOCK_BYTES`` set so
    that an Adagrad chunk of the (n, |E|) entity transpose holds ``height``
    rows and part of the next."""
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


#: 9 triples in batches of 4 (ragged 4/4/1); 3 rows per Adagrad block cut
#: the 4-row entity transpose mid-table
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

#: one query's best rival outscores its target by about 1,224, beyond exp's
#: range of ~709, so its row takes the max-shift fallback; the others do not
RIVAL_BEYOND_EXP = {
    "ne": 5, "nr": 1, "n": 4, "num_train": 3, "batch_size": 3, "block_bytes": 8 * 5,
    "kind": "STaR", "reg": REGS[1], "w0": 0.0, "seed": 3, "init_scale": 5.0,
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
    weights = training._weight_table(store, cfg.w0) if cfg.w0 > 0 else None
    return store, cfg, weights


def _query_terms(batch, table, weights):
    """The per-query operands of ``batch_loss``: weights a = w / 2m, H, RC,
    TAU and T, in the order of ``data.reciprocal_queries``."""
    src, rel, tgt = reciprocal_queries(batch, table.num_relations).T
    w = np.ones(len(src)) if weights is None else weights[rel // table.num_relations, tgt]
    ents = table.entity_embeddings
    return w / len(src), ents[src], table.rel_c[rel], table.rel_tau[rel], ents[tgt]


def fold_atol(batch, table, cfg, weights):
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

    The two softmax rows are not rounded from the same exact values: the
    step exponentiates S_ij - s_t and the oracle S_ij - smax. A shift common
    to a row cancels in p_i, so only each entry's own argument error
    counts. With A_i = max_j sum_k |Q_ik E_jk| as in :func:`loss_atol`, the
    step's GEMM over n + 1 terms (and its max-shift fallback) errs by at
    most 3 gamma_{n+2} A_i per entry, and so do the oracle's S_ij and
    S_ij - smax. exp turns that into a relative error of each Z_ij, and
    normalising at most doubles it, so the two sides' p_ij differ by at
    most s_i p_ij with s_i = 2 expm1(6 gamma_{n+2} A_i). Carried through
    V_i, whose p_i E term moves by at most s_i a_i e, the block products and
    the entity-gradient GEMM, whose a_i p_ij Q_i moves by at most
    s_i a_i max|Q_i|, that adds sum_i s_i a_i (e F_i + max|Q_i|) to the
    bound, where F_i = 1 + 2 max|RC_i| + 2 max|H_i| is V_i's fan-out above.
    """
    a, H, RC, TAU, T = _query_terms(batch, table, weights)
    Q = block_rotate_t(RC, H) + TAU
    ents = table.entity_embeddings
    e = np.abs(ents).max()
    fan = 1 + 2 * np.abs(RC).max(axis=1) + 2 * np.abs(H).max(axis=1)
    qmax = np.abs(Q).max(axis=1)
    M = np.sum(2 * a * e * fan) + np.sum(2 * a * qmax)
    if cfg.reg.kind != "none":
        reg_grads = penalty_terms_batch(H, T, RC, TAU, cfg.reg)[1:]
        M += cfg.reg.lam / len(a) * sum(np.abs(g).sum() for g in reg_grads)
    u = np.finfo(np.float64).eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    A = (np.abs(Q) @ np.abs(ents).T).max(axis=1)
    softmax = 2 * np.expm1(6 * gamma(table.n + 2) * A)
    return 2 * gamma(table.num_entities + 4 * len(a) + 8) * M + np.sum(softmax * a * (e * fan + qmax))


def loss_atol(batch, table, cfg, weights):
    """A bound on |loss - oracle loss| for one batch.

    Derived like :func:`fold_atol`, to first order in u = eps / 2, with
    gamma_K = K u / (1 - K u). numpy's float64 ``exp`` and ``log`` are taken
    to be within 2 ulps (a relative 4u; measured within 1 ulp of libm). Per
    query i let A_i = max_j sum_k |Q_ik E_jk|, which bounds every |S_ij| and
    |s_t|, and L = log |E|; then 0 <= ce_i <= C_i = 2 A_i + L. The two
    cross-entropies differ by at most:
    - the shifted argument S_ij - s_t: s_t rounds n times and the GEMM
      n + 1 more over sum_k |Q_ik E_jk| + |s_t|, 3 gamma_{n+2} A_i; its
      max-shift fallback subtracts a row max of at most 2 A_i and adds it
      back, 6 u A_i and u L more;
    - the oracle's S_ij, 2 gamma_n A_i (a rival and the target), and its
      S_ij - smax, of size at most 2 A_i (1 + gamma_n), 3 u A_i;
    - exp, the row sum over |E| positive terms and log, in each step:
      4u + gamma_|E| + 4u C_i;
    - the oracle's smax + log(row sum) - s_t cancellation, u (A_i + L)
      and u C_i.
    The weighted sum over 2m queries, the penalty sum added to it and the
    division by 2m round both losses by gamma_{2m+2} of the sum of their
    terms' magnitudes.
    """
    a, H, RC, TAU, T = _query_terms(batch, table, weights)
    nq = len(a)
    Q = block_rotate_t(RC, H) + TAU
    ents = table.entity_embeddings
    u = np.finfo(np.float64).eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    n, ne = table.n, table.num_entities
    A = (np.abs(Q) @ np.abs(ents).T).max(axis=1)
    L = np.log(ne)
    C = 2 * A + L
    per_query = (
        (3 * gamma(n + 2) + 6 * u) * A + u * L  # the shifted argument and its fallback
        + 2 * gamma(n) * A + 3 * u * A  # the oracle's scores and S - smax
        + 2 * (4 * u + gamma(ne)) + 4 * u * (C + L)  # exp, row sum and log, both sides
        + u * (A + L) + u * C  # the oracle's smax + log - s_t
    )
    w = a * nq
    reg_mass = 0.0
    if cfg.reg.kind != "none":
        reg_mass = cfg.reg.lam * np.abs(penalty_terms_batch(H, T, RC, TAU, cfg.reg)[0]).sum()
    return (w @ per_query + 2 * gamma(nq + 2) * (w @ (C + per_query) + reg_mass)) / nq


def _assert_near_oracle(loss, grads, batch, table, cfg, weights=None):
    """The step's loss and gradients against the whole-matrix oracle's;
    returns the oracle's gradients."""
    want_loss, want = batch_loss_whole(batch, table, cfg, weights)
    # the step shifts each row by s_t inside the GEMM where the oracle
    # subtracts its max: the same loss, rounded another way
    assert abs(loss - want_loss) <= loss_atol(batch, table, cfg, weights)
    # the fold scales the small GEMM operands instead of dS and moves the
    # one-hot term out of the GEMMs: the same gradient, rounded in another order
    atol = fold_atol(batch, table, cfg, weights)
    for name in GRADS:
        np.testing.assert_allclose(getattr(grads, name), getattr(want, name), rtol=1e-12, atol=atol, err_msg=name)
    return want


class TestBlockedStep:
    """The training step against the whole-matrix, max-shifted oracle of tests/oracles.py."""

    @settings(max_examples=80, deadline=None)
    @given(step_cases())
    @example(CUT_MID_BATCH)
    @example(BATCH_OVER_TRAIN)
    @example(ONE_ENTITY)
    @example(SATURATED)
    @example(RIVAL_BEYOND_EXP)
    def test_matches_whole_matrix_oracle(self, case):
        store, cfg, weights = _case_setup(case)
        table = init_embeddings(case["ne"], case["nr"], cfg.n, case["kind"], cfg.init_scale, cfg.seed)
        want_table = table.copy()
        want_accs = [np.zeros_like(getattr(want_table, name)) for name in TABLES]
        # reused and stale between batches, as in train()
        ws = training._Workspace(table, min(cfg.batch_size, len(store.train)))
        ws.scores.fill(np.nan)
        with mock.patch.object(training, "BLOCK_BYTES", case["block_bytes"]):
            for start in range(0, len(store.train), cfg.batch_size):
                batch = store.train[start : start + cfg.batch_size]
                loss, grads = batch_loss(batch, table, cfg, weights, _workspace=ws)
                want = _assert_near_oracle(loss, grads, batch, want_table, cfg, weights)
                # both optimisers step on the oracle's gradient, so the tables stay comparable;
                # the entity gradient as the contiguous (n, |E|) transpose that train() steps in chunks
                d_entities = np.ascontiguousarray(want.d_entities.T).T
                ws.step(table, BatchGradients(d_entities, want.d_rel_c, want.d_rel_tau), cfg.lr)
                for name, grad, want_acc in zip(TABLES, GRADS, want_accs):
                    adagrad_update_whole(getattr(want_table, name), getattr(want, grad), want_acc, cfg.lr)
                want_table.enforce_kind()
                for name, acc, want_acc in zip(TABLES, ws.accumulators, (want_accs[0].T, *want_accs[1:])):
                    np.testing.assert_array_equal(getattr(table, name), getattr(want_table, name))
                    np.testing.assert_array_equal(acc, want_acc)

    def test_saturated_example_saturates(self):
        case = SATURATED
        store, cfg, weights = _case_setup(case)
        table = init_embeddings(case["ne"], case["nr"], cfg.n, case["kind"], cfg.init_scale, cfg.seed)
        _, H, RC, TAU, _ = _query_terms(store.train, table, weights)
        scores = (block_rotate_t(RC, H) + TAU) @ table.entity_embeddings.T
        tgt = reciprocal_queries(store.train, table.num_relations)[:, 2]
        is_tgt = np.arange(table.num_entities) == tgt[:, None]
        margins = scores[is_tgt] - np.where(is_tgt, -np.inf, scores).max(axis=1)
        assert margins.min() >= 30

    def test_rival_beyond_exp_example_overflows(self):
        case = RIVAL_BEYOND_EXP
        store, cfg, weights = _case_setup(case)
        table = init_embeddings(case["ne"], case["nr"], cfg.n, case["kind"], cfg.init_scale, cfg.seed)
        _, H, RC, TAU, T = _query_terms(store.train, table, weights)
        Q = block_rotate_t(RC, H) + TAU
        gaps = (Q @ table.entity_embeddings.T).max(axis=1) - np.sum(Q * T, axis=1)
        assert gaps.max() > 1000 and np.sum(gaps < 700) == len(gaps) - 1

    def test_scores_far_below_zero(self, rng):
        """Every score is about -1,000, so exp of an unshifted score is 0;
        each row is shifted by its own target's score and stays finite."""
        store = make_store([(0, 0, 1), (2, 1, 3), (4, 0, 5)], num_entities=6, num_relations=2)
        table = init_embeddings(6, 2, 4, seed=0)
        table.entity_embeddings = 1 + 0.01 * rng.normal(size=(6, 4))
        table.rel_c[:] = 0.0
        table.rel_tau[:] = -250 + rng.normal(size=table.rel_tau.shape)
        cfg = tiny_config(reg=RegConfig("DURA", lam=0.1))
        _, H, RC, TAU, _ = _query_terms(store.train, table, None)
        scores = (block_rotate_t(RC, H) + TAU) @ table.entity_embeddings.T
        assert np.all((-1100 < scores) & (scores < -900))
        assert np.all(np.exp(scores).sum(axis=1) == 0)
        loss, grads = batch_loss(store.train, table, cfg)
        assert np.isfinite(loss)
        _assert_near_oracle(loss, grads, store.train, table, cfg)

    @settings(max_examples=30, deadline=None)
    @given(step_cases())
    @example(CUT_MID_BATCH)
    @example(BATCH_OVER_TRAIN)
    def test_stale_workspace_gives_bitwise_equal_step(self, case):
        """NaN-filled buffers, a full batch and a short last batch that uses
        a prefix of the score buffer, against calls that allocate their own."""
        store, cfg, weights = _case_setup(case)
        table = init_embeddings(case["ne"], case["nr"], cfg.n, case["kind"], cfg.init_scale, cfg.seed)
        ws = training._Workspace(table, min(cfg.batch_size, len(store.train)))
        with mock.patch.object(training, "BLOCK_BYTES", case["block_bytes"]):
            for start in range(0, len(store.train), cfg.batch_size):
                batch = store.train[start : start + cfg.batch_size]
                for buffer in (ws.scores, ws.grad_t):
                    buffer.fill(np.nan)
                loss, grads = batch_loss(batch, table, cfg, weights, _workspace=ws)
                want_loss, want = batch_loss(batch, table, cfg, weights)
                assert np.shares_memory(grads.d_entities, ws.grad_t)
                assert loss == want_loss
                for name in GRADS:
                    np.testing.assert_array_equal(getattr(grads, name), getattr(want, name))

    @settings(max_examples=30, deadline=None)
    @given(step_cases())
    @example(CUT_MID_BATCH)
    @example(BATCH_OVER_TRAIN)
    def test_train_with_reused_buffer_equals_fresh_buffer_loop(self, case):
        store, cfg, weights = _case_setup(case, epochs=2)
        with mock.patch.object(training, "BLOCK_BYTES", case["block_bytes"]):
            got, log = train(store, cfg, case["kind"])
            # train()'s loop with fresh score and gradient buffers for every batch
            rng = np.random.default_rng(cfg.seed)
            want = init_embeddings(case["ne"], case["nr"], cfg.n, case["kind"], cfg.init_scale, cfg.seed)
            optimizer = training._Workspace(want, 1)  # only its accumulators are used
            mean_losses = []
            for _ in range(cfg.epochs):
                order = rng.permutation(len(store.train))
                total = 0.0
                for start in range(0, len(order), cfg.batch_size):
                    batch = store.train[order[start : start + cfg.batch_size]]
                    loss, grads = batch_loss(batch, want, cfg, weights)
                    optimizer.step(want, grads, cfg.lr)
                    total += loss * 2 * len(batch)
                mean_losses.append(total / (2 * len(order)))
        assert [r["mean_loss"] for r in log] == mean_losses
        for name in TABLES:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestSplitStep:
    """The step's row, column and chunk parts over BLAS's thread count."""

    @pytest.mark.parametrize("workers", [2, 3, "live"])
    @pytest.mark.parametrize("case", [CUT_MID_BATCH, RIVAL_BEYOND_EXP, SATURATED], ids=["cut", "rival", "saturated"])
    def test_split_step_matches_the_one_part_step(self, fake_blas, monkeypatch, case, workers):
        store, cfg, weights = _case_setup(case)
        table = init_embeddings(case["ne"], case["nr"], cfg.n, case["kind"], cfg.init_scale, cfg.seed)
        batch = store.train[: cfg.batch_size]
        fake_blas(1)
        want_loss, want = batch_loss(batch, table, cfg, weights)
        if workers == "live":
            monkeypatch.setattr(training._threads, "_blas", None)  # look up this process's BLAS again
        else:
            fake_blas(workers)
        loss, grads = batch_loss(batch, table, cfg, weights)
        # each part rounds as the whole does, but a GEMM's rounding may
        # depend on its shape: bound the difference as the oracle's
        assert abs(loss - want_loss) <= loss_atol(batch, table, cfg, weights)
        atol = fold_atol(batch, table, cfg, weights)
        for name in GRADS:
            np.testing.assert_allclose(getattr(grads, name), getattr(want, name), rtol=1e-12, atol=atol, err_msg=name)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_adagrad_split_is_bitwise_one_whole_pass(self, fake_blas, rng, workers):
        blas = fake_blas(workers)
        param, grad, acc = rng.normal(size=(3, 6, 37))
        acc = acc * acc
        want = [param.copy(), grad, acc.copy()]
        with mock.patch.object(training, "BLOCK_BYTES", 8 * 19):
            assert len(training._chunks(param, grad, acc)) >= workers
            adagrad_update(param, grad, acc, lr=0.3)
        adagrad_update_whole(*want, lr=0.3)
        np.testing.assert_array_equal(param, want[0])
        np.testing.assert_array_equal(acc, want[2])
        assert blas.sets == [1, workers]

    def test_no_blas_control_starts_no_thread_and_repeats_bitwise(self, fake_blas, toy_store):
        fake_blas(None)
        cfg = tiny_config(epochs=3, seed=4, reg=RegConfig("DURA", lam=0.05))
        (t1, log1), (t2, log2) = train(toy_store, cfg), train(toy_store, cfg)
        assert training._threads._pool is None
        for name in TABLES:
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))
        assert [r["mean_loss"] for r in log1] == [r["mean_loss"] for r in log2]
        assert [r["threads"] for r in log1] == [1, 1, 1]

    def test_epoch_record_names_the_worker_count(self, fake_blas, toy_store):
        blas = fake_blas(3)
        _, log = train(toy_store, tiny_config(epochs=2))
        assert [r["threads"] for r in log] == [3, 3]
        assert blas.count == 3

    def test_each_pass_holds_blas_once(self, fake_blas, toy_store):
        """One hold per epoch's batch loop and per validation pass, not one
        per batch or per ranked block."""
        from star_kge.evaluation import evaluate

        blas = fake_blas(2)
        table, _ = train(toy_store, TrainConfig(n=4, epochs=2, batch_size=3, eval_every=1))
        assert blas.sets == [1, 2] * 4
        evaluate("test", table, toy_store)
        assert blas.sets == [1, 2] * 5

    def test_count_restored_after_normal_returns(self, fake_blas, toy_store):
        blas = fake_blas(2)
        table = init_embeddings(toy_store.num_entities, toy_store.num_relations, 4, seed=0)
        ws = training._Workspace(table, len(toy_store.train))
        loss, grads = batch_loss(toy_store.train, table, tiny_config(), _workspace=ws)
        assert blas.count == 2
        ws.step(table, grads, 0.1)
        assert blas.count == 2 and blas.sets[-1] == 2

    def test_count_restored_after_divergence(self, fake_blas, toy_store):
        blas = fake_blas(2)
        table = init_embeddings(toy_store.num_entities, toy_store.num_relations, 4, seed=0)
        ws = training._Workspace(table, len(toy_store.train))
        _, grads = batch_loss(toy_store.train, table, tiny_config(), _workspace=ws)
        grads.d_entities[-1, -1] = np.nan  # in the last worker's part of the finiteness sweep
        with pytest.raises(DivergenceError, match="non-finite entity_embeddings"):
            ws.step(table, grads, 0.1)
        assert blas.count == 2
        with pytest.raises(DivergenceError, match="non-finite batch loss"):
            batch_loss(toy_store.train, table, tiny_config(), _workspace=ws)
        assert blas.count == 2

    def test_count_restored_after_a_helper_part_raises(self, fake_blas, toy_store):
        blas = fake_blas(2)
        table = init_embeddings(toy_store.num_entities, toy_store.num_relations, 4, seed=0)
        # a score buffer for one triple: the caller's half of the rows fits,
        # the helper's half finds no rows to write into
        small = training._Workspace(table, 1)
        with pytest.raises(ValueError):
            batch_loss(toy_store.train[:2], table, tiny_config(), _workspace=small)
        assert blas.count == 2
        ws = training._Workspace(table, len(toy_store.train))
        _, grads = batch_loss(toy_store.train, table, tiny_config(), _workspace=ws)
        ws.accumulators[0].flags.writeable = False  # every Adagrad part raises
        with pytest.raises(ValueError, match="read-only"):
            ws.step(table, grads, 0.1)
        assert blas.count == 2 and blas.sets[-1] == 2

    def test_two_threads_training_at_once_restore_the_count(self, fake_blas, toy_store):
        blas = fake_blas(2)
        cfg = tiny_config(epochs=20, reg=RegConfig("DURA", lam=0.05))
        logs = [None, None]

        def run(i):
            logs[i] = train(toy_store, cfg)[1]

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert [r["threads"] for log in logs for r in log] == [2] * 40
        assert blas.count == 2 and blas.sets[-1] == 2
