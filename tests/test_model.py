import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from star_kge.model import (
    EmbeddingTable,
    RelationParams,
    apply_translation_matrix,
    block_grad,
    block_rotate,
    block_rotate_t,
    init_embeddings,
    materialize_star_matrix,
    score,
    score_batch,
    score_gradients,
    score_via_matrix,
    translation_matrix,
    transform_query,
)
from oracles import central_diff, gradient_rel_error


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
        y = m @ np.concatenate([rng.normal(size=4), [1.0]])
        assert y[-1] == 1.0


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

    def test_single_precision_option(self):
        table = init_embeddings(20, 2, 8, init_scale=1.0, seed=6)
        fast32 = score_batch(table, 3, 1, dtype=np.float32)
        full = score_batch(table, 3, 1)
        assert fast32.dtype == np.float32
        np.testing.assert_allclose(fast32, full, rtol=1e-5)


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
        q = transform_query(h, rel)
        assert q @ t + 1.0 == pytest.approx(score(h, rel, t), abs=1e-12)


class TestInit:
    def test_deterministic_under_seed(self):
        a = init_embeddings(20, 3, 8, seed=7)
        b = init_embeddings(20, 3, 8, seed=7)
        np.testing.assert_array_equal(a.entity_embeddings, b.entity_embeddings)
        np.testing.assert_array_equal(a.rel_c, b.rel_c)
        np.testing.assert_array_equal(a.rel_tau, b.rel_tau)

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


class TestCheckpoint:
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
        assert sidecar["epoch"] == 17
        assert sidecar["config_hash"] == "abc123"

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
