import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from star_kge.model import (
    _CKPT_HEADER,
    _CKPT_MAGIC,
    _CKPT_VERSION,
    _COPY_ROWS,
    MODEL_KINDS,
    EmbeddingTable,
    RelationParams,
    block_grad,
    block_rotate,
    block_rotate_t,
    homogeneous,
    init_embeddings,
    materialize_star_matrix,
    score,
    score_batch,
    score_gradients,
    transform_query,
)
from oracles import (
    apply_translation_matrix,
    central_diff,
    gradient_rel_error,
    init_embeddings_one_shot,
    score_via_matrix,
    translation_matrix,
)


def random_relation(rng, n):
    return RelationParams(rng.normal(size=n), rng.normal(size=n))


class TestScore:
    def test_hand_worked_example(self):
        # one block (2, 3), translation (5, 7):
        # 2*(1*0 + 0*1) + 3*(0*0 - 1*1) + 7 + 1 = 5
        rel = RelationParams(np.array([2.0, 3.0]), np.array([5.0, 7.0]))
        assert score(np.array([1.0, 0.0]), rel, np.array([0.0, 1.0])) == 5.0
        assert score_via_matrix(np.array([1.0, 0.0]), rel, np.array([0.0, 1.0])) == 5.0

    def test_identity_rotation_is_dot_product(self, rng):
        n = 8
        rc = np.zeros(n)
        rc[0::2] = 1.0
        rel = RelationParams(rc, np.zeros(n))
        h, t = rng.normal(size=n), rng.normal(size=n)
        assert score(h, rel, t) == pytest.approx(h @ t + 1.0, abs=1e-12)

    def test_zero_blocks_score_is_head_independent(self, rng):
        n = 6
        tau = rng.normal(size=n)
        rel = RelationParams(np.zeros(n), tau)
        t = rng.normal(size=n)
        expected = tau @ t + 1.0
        for _ in range(10):
            h = rng.normal(size=n)
            assert score(h, rel, t) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_matches_materialized_matrix(self, n, rng):
        for _ in range(300):
            rel = random_relation(rng, n)
            h, t = rng.normal(size=n), rng.normal(size=n)
            fast = score(h, rel, t)
            slow = score_via_matrix(h, rel, t)
            assert abs(fast - slow) <= 1e-10 * max(1.0, abs(fast), abs(slow))

    def test_decomposition_into_bilinear_and_translation_parts(self, rng):
        n = 8
        for _ in range(50):
            rel = random_relation(rng, n)
            h, t = rng.normal(size=n), rng.normal(size=n)
            total = score(h, rel, t)
            parts = h @ block_rotate(rel.r_c, t) + rel.tau @ t + 1.0
            assert total == pytest.approx(parts, abs=1e-12)

    def test_conjugation_swaps_head_and_tail_when_tau_is_zero(self, rng):
        n = 8
        for _ in range(50):
            rel = RelationParams(rng.normal(size=n), np.zeros(n))
            h, t = rng.normal(size=n), rng.normal(size=n)
            assert score(h, rel, t) == pytest.approx(score(t, rel.conjugate(), h), abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        rel = RelationParams(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            score(np.zeros(2), rel, np.zeros(4))
        with pytest.raises(ValueError):
            score(np.zeros(3), RelationParams(np.zeros(4), np.zeros(4)), np.zeros(3))
        with pytest.raises(ValueError, match="^relation dimension 4 != entity dimension 2$"):
            score(np.zeros(2), rel, np.zeros(2))
        with pytest.raises(ValueError, match="^h must be a vector or a stack of vectors$"):
            score(0.0, rel, np.zeros(4))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            RelationParams(np.zeros(3), np.zeros(3))


class TestMaterialize:
    def test_two_dimensional_layout(self):
        rel = RelationParams(np.array([2.0, 3.0]), np.array([5.0, 7.0]))
        expected = np.array([[2.0, -3.0, 0.0], [3.0, 2.0, 0.0], [5.0, 7.0, 1.0]])
        np.testing.assert_array_equal(materialize_star_matrix(rel), expected)

    def test_identity_configuration(self):
        rc = np.array([1.0, 0.0, 1.0, 0.0])
        rel = RelationParams(rc, np.zeros(4))
        np.testing.assert_array_equal(materialize_star_matrix(rel), np.eye(5))

    def test_oracle_on_thousand_draws(self, rng):
        n = 8
        for _ in range(1000):
            rel = random_relation(rng, n)
            h, t = rng.normal(size=n), rng.normal(size=n)
            hh = np.concatenate([h, [1.0]])
            tt = np.concatenate([t, [1.0]])
            assert abs(hh @ materialize_star_matrix(rel) @ tt - score(h, rel, t)) < 1e-10

    def test_stack_is_the_per_row_matrices_bit_for_bit(self, rng):
        rc, tau = rng.normal(size=(2, 5, 6))
        stacked = materialize_star_matrix(RelationParams(rc, tau))
        assert stacked.shape == (5, 7, 7)
        for i in range(5):
            one = materialize_star_matrix(RelationParams(rc[i], tau[i]))
            assert stacked[i].tobytes() == one.tobytes()


class TestTranslationMatrix:
    def test_hand_example(self):
        np.testing.assert_array_equal(
            apply_translation_matrix(np.array([1.0, 2.0]), np.array([3.0, 4.0])),
            np.array([4.0, 6.0]),
        )

    def test_zero_translation_is_identity(self, rng):
        x = rng.normal(size=6)
        np.testing.assert_array_equal(apply_translation_matrix(x, np.zeros(6)), x)

    def test_matrix_route_equals_plain_addition(self, rng):
        for _ in range(20):
            x, tau = rng.normal(size=4), rng.normal(size=4)
            np.testing.assert_array_equal(apply_translation_matrix(x, tau), x + tau)

    def test_homogeneous_coordinate_stays_one(self, rng):
        tau = rng.normal(size=4)
        m = translation_matrix(tau)
        y = m @ homogeneous(rng.normal(size=4))
        assert y[-1] == 1.0

    def test_homogeneous_appends_one_on_last_axis_of_any_rank(self, rng):
        x = rng.normal(size=4)
        np.testing.assert_array_equal(homogeneous(x), np.append(x, 1.0))
        stacked = rng.normal(size=(2, 3, 4))
        hx = homogeneous(stacked)
        assert hx.shape == (2, 3, 5)
        np.testing.assert_array_equal(hx[..., :4], stacked)
        np.testing.assert_array_equal(hx[..., 4], 1.0)


class TestScoreBatch:
    def test_single_entity_table(self):
        table = init_embeddings(1, 1, 4, seed=3)
        expected = score(table.entity_embeddings[0], table.relation(0), table.entity_embeddings[0])
        np.testing.assert_allclose(score_batch(table, 0, 0), [expected], rtol=1e-12)

    def test_matches_looped_scores(self, rng):
        table = init_embeddings(50, 3, 8, init_scale=1.0, seed=9)
        for head in (0, 17, 49):
            for rel_id in (0, 5):
                vec = score_batch(table, head, rel_id)
                rel = table.relation(rel_id)
                h = table.entity_embeddings[head]
                for j in range(table.num_entities):
                    direct = score(h, rel, table.entity_embeddings[j])
                    assert abs(vec[j] - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_identity_rotation_reduces_to_matrix_vector(self, rng):
        table = init_embeddings(10, 1, 4, init_scale=1.0, seed=4)
        table.rel_c[0, 0::2] = 1.0
        table.rel_c[0, 1::2] = 0.0
        table.rel_tau[0] = 0.0
        h = table.entity_embeddings[2]
        np.testing.assert_allclose(
            score_batch(table, 2, 0), table.entity_embeddings @ h + 1.0, rtol=1e-12
        )

    def test_out_of_range_ids(self):
        table = init_embeddings(4, 1, 4, seed=0)
        with pytest.raises(IndexError):
            score_batch(table, 4, 0)
        with pytest.raises(IndexError):
            score_batch(table, 0, 2)

    def test_arrays_equal_stacked_scalar_calls(self, rng):
        table = init_embeddings(40, 3, 8, init_scale=1.0, seed=12)
        table.rel_tau[:] = rng.normal(size=table.rel_tau.shape)
        heads = rng.integers(0, 40, size=7)
        rels = rng.integers(0, table.num_relation_rows, size=7)
        block = score_batch(table, heads, rels)
        assert block.shape == (7, 40)
        stacked = np.stack([score_batch(table, h, r) for h, r in zip(heads.tolist(), rels.tolist())])
        np.testing.assert_allclose(block, stacked, rtol=1e-12, atol=1e-12)
        assert score_batch(table, heads[:1], rels[:1]).shape == (1, 40)
        assert score_batch(table, 3, 1).shape == (40,)

    def test_array_ids_checked(self):
        table = init_embeddings(4, 1, 4, seed=0)
        with pytest.raises(IndexError, match="head id 4"):
            score_batch(table, np.array([0, 4]), np.array([0, 1]))
        with pytest.raises(IndexError, match="relation id -1"):
            score_batch(table, np.array([0, 1]), np.array([0, -1]))
        with pytest.raises(ValueError, match="matching"):
            score_batch(table, np.array([0, 1]), np.array([0]))

    def test_fortran_ordered_table_matches_c_ordered(self, rng):
        table = init_embeddings(30, 2, 8, init_scale=1.0, seed=11)
        table.rel_tau[:] = rng.normal(size=table.rel_tau.shape)
        fortran = EmbeddingTable(
            np.asfortranarray(table.entity_embeddings),
            np.asfortranarray(table.rel_c),
            np.asfortranarray(table.rel_tau),
            table.num_relations,
        )
        assert not fortran.entity_embeddings.flags.c_contiguous
        for head in (0, 13, 29):
            for rel_id in range(table.num_relation_rows):
                np.testing.assert_allclose(
                    score_batch(fortran, head, rel_id), score_batch(table, head, rel_id), rtol=1e-12
                )


class TestGradients:
    def test_translation_gradient_is_the_tail(self):
        rel = RelationParams(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
        g = score_gradients(np.array([3.0, 4.0]), rel, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(g.d_tau, [0.0, 1.0])

    def test_against_finite_differences(self, rng):
        n = 8
        for _ in range(100):
            rel = random_relation(rng, n)
            h, t = rng.normal(size=n), rng.normal(size=n)
            g = score_gradients(h, rel, t)
            checks = [
                (g.d_h, central_diff(lambda x: score(x, rel, t), h)),
                (g.d_t, central_diff(lambda x: score(h, rel, x), t)),
                (g.d_r_c, central_diff(lambda x: score(h, RelationParams(x, rel.tau), t), rel.r_c)),
                (g.d_tau, central_diff(lambda x: score(h, RelationParams(rel.r_c, x), t), rel.tau)),
            ]
            for analytic, fd in checks:
                assert gradient_rel_error(analytic, fd) < 1e-4

    def test_diagonal_configuration_reduces_to_elementwise(self, rng):
        n = 6
        rc = rng.normal(size=n)
        rc[1::2] = 0.0
        rel = RelationParams(rc, np.zeros(n))
        h, t = rng.normal(size=n), rng.normal(size=n)
        g = score_gradients(h, rel, t)
        a = np.repeat(rc[0::2], 2)
        np.testing.assert_allclose(g.d_h, a * t, rtol=1e-12)
        np.testing.assert_allclose(g.d_t, a * h, rtol=1e-12)

    def test_stacked_rows_match_one_triple_calls(self, rng):
        rc, tau, h, t = rng.normal(size=(4, 5, 6))
        rel = RelationParams(rc, tau)
        s, g = score(h, rel, t), score_gradients(h, rel, t)
        assert s.shape == (5,)
        for i in range(5):
            one = RelationParams(rc[i], tau[i])
            assert s[i] == score(h[i], one, t[i])
            gi = score_gradients(h[i], one, t[i])
            for name in ("d_h", "d_t", "d_r_c", "d_tau"):
                np.testing.assert_array_equal(getattr(g, name)[i], getattr(gi, name))
        with pytest.raises(ValueError, match="shape"):
            RelationParams(rc, tau[0])


class TestBlockOps:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_rotate_matches_matrix(self, blocks, rows, seed):
        n = 2 * blocks
        r = np.random.default_rng(seed)
        RC, V, H, T = (r.normal(size=(rows, n)) for _ in range(4))
        rotated, rotated_t, grads = block_rotate(RC, V), block_rotate_t(RC, V), block_grad(H, T)

        def bilinear(h, t):
            return lambda x: h @ materialize_star_matrix(RelationParams(x, np.zeros(n)))[:n, :n] @ t

        # each batched row and the matching per-vector call against the oracle
        for i in range(rows):
            m = materialize_star_matrix(RelationParams(RC[i], np.zeros(n)))[:n, :n]
            fd = central_diff(bilinear(H[i], T[i]), RC[i])
            for got in (rotated[i], block_rotate(RC[i], V[i])):
                np.testing.assert_allclose(got, m @ V[i], atol=1e-12)
            for got in (rotated_t[i], block_rotate_t(RC[i], V[i])):
                np.testing.assert_allclose(got, m.T @ V[i], atol=1e-12)
            for got in (grads[i], block_grad(H[i], T[i])):
                assert gradient_rel_error(got, fd) < 1e-6

    def test_transform_query_reproduces_score(self, rng):
        n = 8
        rel = random_relation(rng, n)
        h, t = rng.normal(size=n), rng.normal(size=n)
        q = transform_query(h, rel.r_c, rel.tau)
        assert q @ t + 1.0 == pytest.approx(score(h, rel, t), abs=1e-12)


class TestInit:
    def test_deterministic_under_seed(self):
        a = init_embeddings(20, 3, 8, seed=7)
        b = init_embeddings(20, 3, 8, seed=7)
        np.testing.assert_array_equal(a.entity_embeddings, b.entity_embeddings)
        np.testing.assert_array_equal(a.rel_c, b.rel_c)
        np.testing.assert_array_equal(a.rel_tau, b.rel_tau)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("num_entities", [1, _COPY_ROWS, 2 * _COPY_ROWS + 5])
    def test_block_draw_equals_one_shot_draw(self, kind, num_entities):
        table = init_embeddings(num_entities, 3, 6, model_kind=kind, init_scale=0.3, seed=num_entities)
        want = init_embeddings_one_shot(num_entities, 3, 6, kind, 0.3, seed=num_entities)
        for got, expected in [
            (table.entity_embeddings, want.entity_embeddings),
            (table.rel_c, want.rel_c),
            (table.rel_tau, want.rel_tau),
        ]:
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expected).tobytes()
        assert np.all(table._hom_rows[-1] == 1.0)

    def test_complex_kind_zeroes_translation(self):
        t = init_embeddings(5, 2, 4, model_kind="ComplEx", seed=0)
        assert np.all(t.rel_tau == 0.0)

    def test_distmult_kind_zeroes_off_diagonals(self):
        t = init_embeddings(5, 2, 4, model_kind="DistMult", seed=0)
        assert np.all(t.rel_tau == 0.0)
        assert np.all(t.rel_c[:, 1::2] == 0.0)

    def test_tar_kind_normalizes_blocks(self):
        t = init_embeddings(5, 2, 8, model_kind="TaR", seed=0)
        blocks = t.rel_c.reshape(t.rel_c.shape[0], -1, 2)
        np.testing.assert_allclose(np.linalg.norm(blocks, axis=2), 1.0, atol=1e-12)

    def test_empirical_scale(self):
        t = init_embeddings(10_000, 2, 10, init_scale=1e-3, seed=1)
        std = t.entity_embeddings.std()
        assert abs(std - 1e-3) < 0.2e-3

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            init_embeddings(5, 2, 7, seed=0)

    @pytest.mark.parametrize(
        "scale, message",
        [
            (0.0, "init_scale must be positive, got 0.0"),
            (-1.0, "init_scale must be positive, got -1.0"),
            (float("nan"), "init_scale must be positive, got nan"),
            (float("inf"), "init_scale must be finite, got inf"),
        ],
    )
    def test_scale_outside_zero_to_inf_rejected(self, scale, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            init_embeddings(5, 2, 4, init_scale=scale, seed=0)


class TestEntityLayout:
    """Entities live in one C-order (n+1, |E|) array whose last row is 1."""

    @staticmethod
    def assert_homogeneous(table):
        rows = table._hom_rows
        assert rows.shape == (table.n + 1, table.num_entities) and rows.flags.c_contiguous
        assert np.shares_memory(table.entity_embeddings, rows)
        assert (rows[-1] == 1.0).all()

    def test_last_row_is_one_after_train_copy_load_and_assignment(self, toy_store, tmp_path, rng):
        from star_kge.training import TrainConfig, train

        table, _ = train(toy_store, TrainConfig(n=4, epochs=3, lr=0.5, eval_every=1))
        self.assert_homogeneous(table)
        self.assert_homogeneous(table.copy())
        table.save_checkpoint(tmp_path / "model.bin")
        self.assert_homogeneous(EmbeddingTable.load_checkpoint(tmp_path / "model.bin")[0])
        table.entity_embeddings = rng.normal(size=table.entity_embeddings.shape)
        self.assert_homogeneous(table)

    def test_assignment_copies(self, rng):
        table = init_embeddings(4100, 1, 2, seed=0)  # more rows than two copy blocks
        source = rng.normal(size=(4100, 2))
        held = source.copy()
        table.entity_embeddings = source
        source[:] = 0.0
        np.testing.assert_array_equal(table.entity_embeddings, held)

    def test_checkpoint_body_is_row_major_entities_then_relations(self, tmp_path, rng):
        """The file is its header, then the row-major (n, |E|) entity rows as
        the table stores them, then rel_c and rel_tau."""
        rel_c, rel_tau = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        table = EmbeddingTable(rng.normal(size=(7, 4)), rel_c, rel_tau, 1, "TaR")
        path = tmp_path / "model.bin"
        table.save_checkpoint(path)
        header = _CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, 4, 7, 2, MODEL_KINDS.index("TaR"))
        body = b"".join(a.astype("<f8").tobytes() for a in (table._hom_rows[:-1], table.rel_c, table.rel_tau))
        assert path.read_bytes() == header + body


class TestCheckpoint:
    def test_bytes_match_recorded_sha256(self, tmp_path):
        # sha256 of the version-2 file, whose body is the table's (n, |E|)
        # entity rows, rel_c and rel_tau, each written whole
        path = tmp_path / "model.bin"
        init_embeddings(5000, 3, 8, seed=4).save_checkpoint(path, epoch=3, config_hash="abc")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "feef2a4b22ccbaaf12662833daad2def8fd44aef56da75d574915bcefdd36f37"

    def test_round_trip_is_bitwise(self, tmp_path, rng):
        table = init_embeddings(12, 3, 6, model_kind="TaR", init_scale=0.5, seed=5)
        path = tmp_path / "model.bin"
        table.save_checkpoint(path, epoch=17, config_hash="abc123")
        loaded, sidecar = EmbeddingTable.load_checkpoint(path)
        np.testing.assert_array_equal(loaded.entity_embeddings, table.entity_embeddings)
        np.testing.assert_array_equal(loaded.rel_c, table.rel_c)
        np.testing.assert_array_equal(loaded.rel_tau, table.rel_tau)
        assert loaded.model_kind == "TaR"
        assert loaded.num_relations == 3
        assert sidecar == {"config_hash": "abc123", "epoch": 17, "epochs_run": 17}

    @pytest.mark.parametrize("fail_in", ["binary", "sidecar"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch, fail_in):
        path = tmp_path / "model.bin"
        a = init_embeddings(12, 3, 6, init_scale=0.5, seed=5)
        a.save_checkpoint(path, epoch=1)
        saved = sorted(tmp_path.iterdir())
        b = init_embeddings(12, 3, 6, init_scale=0.5, seed=6)

        def disk_full(*args, **kwargs):
            raise OSError("No space left on device")

        class Unwritable:
            __array__ = disk_full

        if fail_in == "binary":
            b.rel_tau = Unwritable()  # header, entities and blocks are written first
        else:
            monkeypatch.setattr("star_kge.model.json.dumps", disk_full)
        with pytest.raises(OSError, match="No space left"):
            b.save_checkpoint(path, epoch=2)

        assert sorted(tmp_path.iterdir()) == saved  # no temporary file left
        loaded, sidecar = EmbeddingTable.load_checkpoint(path)
        np.testing.assert_array_equal(loaded.entity_embeddings, a.entity_embeddings)
        np.testing.assert_array_equal(loaded.rel_c, a.rel_c)
        np.testing.assert_array_equal(loaded.rel_tau, a.rel_tau)
        assert sidecar["epoch"] == 1

    def test_zero_dimension_rejected(self, tmp_path):
        message = "^embedding dimension must be positive and even, got 0$"
        with pytest.raises(ValueError, match=message):
            EmbeddingTable(np.empty((20, 0)), np.empty((2, 0)), np.empty((2, 0)), 1)
        # and the table's other shape and kind checks
        ents, rows = np.zeros((20, 4)), np.zeros((2, 4))
        with pytest.raises(ValueError, match="^model_kind must be one of .*, got 'TransE'$"):
            EmbeddingTable(ents, rows, rows, 1, "TransE")
        with pytest.raises(ValueError, match=r"^relation parameter matrices must be \(rows, n\) like entities$"):
            EmbeddingTable(ents, rows, np.zeros((2, 6)), 1)
        with pytest.raises(ValueError, match="^expected one relation row per original and reciprocal relation$"):
            EmbeddingTable(ents, rows, rows, 2)
        # a header-only file whose header says n = 0 has the size it promises
        path = tmp_path / "zero.bin"
        path.write_bytes(_CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, 0, 20, 2, 0))
        with pytest.raises(ValueError, match=message):
            EmbeddingTable.load_checkpoint(path)

    def test_zero_entities_rejected(self, tmp_path):
        message = "^a table needs at least one entity, got 0$"
        with pytest.raises(ValueError, match=message):
            EmbeddingTable(np.empty((0, 4)), np.empty((2, 4)), np.empty((2, 4)), 1)
        with pytest.raises(ValueError, match=message):
            init_embeddings(0, 1, 4)
        # a file whose header says |E| = 0 holds only the two relation rows
        path = tmp_path / "empty.bin"
        path.write_bytes(_CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, 4, 0, 2, 0) + bytes(8 * 2 * 2 * 4))
        with pytest.raises(ValueError, match=message):
            EmbeddingTable.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            EmbeddingTable.load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        table = init_embeddings(4, 1, 4, seed=0)
        path = tmp_path / "model.bin"
        table.save_checkpoint(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="size"):
            EmbeddingTable.load_checkpoint(path)
