import numpy as np
import pytest

from star_kge.model import RelationParams, materialize_star_matrix
from star_kge.regularization import RegConfig, dura_terms_batch, penalty_terms_batch
from oracles import central_diff, gradient_rel_error


def random_relation(rng, n, tau_zero=False):
    tau = np.zeros(n) if tau_zero else rng.normal(size=n)
    return RelationParams(rng.normal(size=n), tau)


def terms(h, rel, t, kind, variant="literal"):
    """``penalty_terms_batch`` on one 1-D query row: (value, d_h, d_t, d_rc, d_tau)."""
    return penalty_terms_batch(h, t, rel.r_c, rel.tau, RegConfig(kind=kind, dura_variant=variant))


def fro_penalty(h, rel, t):
    return terms(h, rel, t, "Fro")[0]


def dura_penalty(h, rel, t, variant):
    return terms(h, rel, t, "DURA", variant)[0]


class TestFro:
    def test_zero_parameters(self):
        rel = RelationParams(np.zeros(4), np.zeros(4))
        assert fro_penalty(np.zeros(4), rel, np.zeros(4)) == 0.0

    def test_sum_of_squares_example(self):
        rel = RelationParams(np.array([1.0, 1.0]), np.array([2.0, 0.0]))
        assert fro_penalty(np.array([1.0, 0.0]), rel, np.array([0.0, 1.0])) == 8.0

    def test_gradient_is_twice_each_parameter(self, rng):
        n = 6
        rel = random_relation(rng, n)
        h, t = rng.normal(size=n), rng.normal(size=n)
        _, d_h, d_t, d_rc, d_tau = terms(h, rel, t, "Fro")
        np.testing.assert_allclose(d_h, 2 * h)
        np.testing.assert_allclose(d_t, 2 * t)
        np.testing.assert_allclose(d_rc, 2 * rel.r_c)
        np.testing.assert_allclose(d_tau, 2 * rel.tau)
        fd = central_diff(lambda x: fro_penalty(x, rel, t), h, step=1e-6)
        assert gradient_rel_error(d_h, fd) < 1e-6


class TestDura:
    def test_zero_parameters(self):
        rel = RelationParams(np.zeros(4), np.zeros(4))
        for variant in ("literal", "exact"):
            assert dura_penalty(np.zeros(4), rel, np.zeros(4), variant) == 0.0

    def test_hand_expanded_example(self):
        # identity block, tau = (0, 1), h = (1, 0), t = (0, 1):
        # literal: 1 + 1 + |(1,1)|^2 + 1 + 1 = 6; exact adds (tau.t)^2 + tau.t more
        rel = RelationParams(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        h, t = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert dura_penalty(h, rel, t, "literal") == 6.0
        assert dura_penalty(h, rel, t, "exact") == 8.0

    def test_variants_agree_when_translation_is_zero(self, rng):
        n = 8
        for _ in range(20):
            rel = random_relation(rng, n, tau_zero=True)
            h, t = rng.normal(size=n), rng.normal(size=n)
            lit = dura_penalty(h, rel, t, "literal")
            exact = dura_penalty(h, rel, t, "exact")
            assert lit == pytest.approx(exact, abs=1e-12)
            # both reduce to the plain bilinear form
            rc = materialize_star_matrix(rel)[:n, :n]
            expected = (
                h @ h + t @ t + np.sum((h @ rc) ** 2) + np.sum((rc @ t) ** 2)
            )
            assert lit == pytest.approx(expected, abs=1e-10)

    def test_exact_variant_matches_materialized_expansion(self, rng):
        # penalty + 4 must equal the homogeneous-coordinate norm sum
        n = 8
        for _ in range(50):
            rel = random_relation(rng, n)
            h, t = rng.normal(size=n), rng.normal(size=n)
            m = materialize_star_matrix(rel)
            hh = np.concatenate([h, [1.0]])
            tt = np.concatenate([t, [1.0]])
            via_matrix = (
                hh @ hh + np.sum((m @ tt) ** 2) + tt @ tt + np.sum((hh @ m) ** 2) - 4.0
            )
            assert abs(dura_penalty(h, rel, t, "exact") - via_matrix) <= 1e-10 * max(
                1.0, abs(via_matrix)
            )

    def test_unknown_variant_rejected(self, rng):
        rel = random_relation(rng, 4)
        with pytest.raises(ValueError, match="variant"):
            dura_terms_batch(np.zeros(4), np.zeros(4), rel.r_c, rel.tau, "fancy")

    @pytest.mark.parametrize("variant", ["literal", "exact"])
    def test_gradients_against_finite_differences(self, variant, rng):
        n = 6
        for _ in range(25):
            rel = random_relation(rng, n)
            h, t = rng.normal(size=n), rng.normal(size=n)
            _, d_h, d_t, d_rc, d_tau = terms(h, rel, t, "DURA", variant)
            checks = [
                (d_h, central_diff(lambda x: dura_penalty(x, rel, t, variant), h, step=1e-6)),
                (d_t, central_diff(lambda x: dura_penalty(h, rel, x, variant), t, step=1e-6)),
                (
                    d_rc,
                    central_diff(
                        lambda x: dura_penalty(h, RelationParams(x, rel.tau), t, variant),
                        rel.r_c,
                        step=1e-6,
                    ),
                ),
                (
                    d_tau,
                    central_diff(
                        lambda x: dura_penalty(h, RelationParams(rel.r_c, x), t, variant),
                        rel.tau,
                        step=1e-6,
                    ),
                ),
            ]
            for analytic, fd in checks:
                assert gradient_rel_error(analytic, fd) < 1e-6

    @pytest.mark.parametrize("variant", ["literal", "exact"])
    def test_block_permutation_invariance(self, variant, rng):
        n = 8
        rel = random_relation(rng, n)
        h, t = rng.normal(size=n), rng.normal(size=n)
        perm = rng.permutation(n // 2)
        idx = np.ravel(np.column_stack([2 * perm, 2 * perm + 1]))
        permuted = RelationParams(rel.r_c[idx], rel.tau[idx])
        assert dura_penalty(h, rel, t, variant) == pytest.approx(
            dura_penalty(h[idx], permuted, t[idx], variant), abs=1e-10
        )
        assert fro_penalty(h, rel, t) == pytest.approx(
            fro_penalty(h[idx], permuted, t[idx]), abs=1e-10
        )


class TestRegConfig:
    def test_none_kind_contributes_zero(self, rng):
        rel = random_relation(rng, 4)
        cfg = RegConfig(kind="none", lam=0.0)
        value, *grads = penalty_terms_batch(rng.normal(size=4), rng.normal(size=4), rel.r_c, rel.tau, cfg)
        assert value == 0.0
        assert all(not g.any() for g in grads)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            RegConfig(kind="Fro", lam=-0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RegConfig(kind="N3", lam=0.1)
