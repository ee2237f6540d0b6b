import numpy as np
import pytest

import star_kge.patterns as patterns
from star_kge.model import RelationParams, materialize_star_matrix, score
from star_kge.patterns import (
    check_antisymmetry_mode,
    check_commutativity,
    check_composition_closure,
    check_E_term,
    check_inversion,
    check_kernel_oracle,
    check_margin_scaling,
    check_score_gradients,
    check_symmetry_mode,
    compose_relation_params,
    noncommuting_pair,
    random_relation,
    run_pattern_suite,
    run_verify_suite,
)


def identity_relation(n):
    rc = np.zeros(n)
    rc[0::2] = 1.0
    return RelationParams(rc, np.zeros(n))


def hom_score(h, m, t):
    """[h, 1] M [t; 1] for one pair, one vector product at a time."""
    return float(np.concatenate([h, [1.0]]) @ m @ np.concatenate([t, [1.0]]))


class TestCompositionClosure:
    def test_identity_composed_with_identity(self):
        res = check_composition_closure(identity_relation(4), identity_relation(4))
        assert res.passed
        composed = compose_relation_params(identity_relation(4), identity_relation(4))
        np.testing.assert_array_equal(materialize_star_matrix(composed), np.eye(5))

    def test_random_pairs_close_with_translation_formula(self, rng):
        n = 8
        for _ in range(50):
            r1 = random_relation(rng, n)
            r2 = random_relation(rng, n)
            res = check_composition_closure(r1, r2)
            assert res.passed, res.witness
            # composed translation row equals tau1^T R2 + tau2^T
            m = materialize_star_matrix(r1) @ materialize_star_matrix(r2)
            rc2 = materialize_star_matrix(r2)[:n, :n]
            np.testing.assert_allclose(m[n, :n], r1.tau @ rc2 + r2.tau, atol=1e-12)

    def test_score_under_composed_params(self, rng):
        n = 8
        r1, r2 = random_relation(rng, n), random_relation(rng, n)
        composed = compose_relation_params(r1, r2)
        m = materialize_star_matrix(r1) @ materialize_star_matrix(r2)
        from star_kge.model import score

        for _ in range(20):
            h, t = rng.normal(size=n), rng.normal(size=n)
            hh, tt = np.concatenate([h, [1.0]]), np.concatenate([t, [1.0]])
            assert abs(score(h, composed, t) - hh @ m @ tt) < 1e-10

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            check_composition_closure(random_relation(rng, 4), random_relation(rng, 6))
        with pytest.raises(ValueError, match="^relations must share a dimension and a row count$"):
            check_commutativity(random_relation(rng, 4), random_relation(rng, 6), expect_commute=True)


class TestCommutativity:
    def test_zero_translation_pairs_commute(self, rng):
        for _ in range(20):
            r1 = random_relation(rng, 8, tau_zero=True)
            r2 = random_relation(rng, 8, tau_zero=True)
            assert check_commutativity(r1, r2, expect_commute=True).passed

    def test_rotation_and_translation_do_not_commute(self, rng):
        for _ in range(20):
            rot, trans = noncommuting_pair(rng, 8)
            res = check_commutativity(rot, trans, expect_commute=False)
            assert res.passed
            assert res.residual > 1e-3  # comfortably away from the tolerance

    def test_relation_commutes_with_itself(self, rng):
        rel = random_relation(rng, 8)
        assert check_commutativity(rel, rel, expect_commute=True).passed

    def test_noncommutativity_reports_the_smallest_norm(self, rng):
        rot, trans = noncommuting_pair(rng, 8, 20)
        m1, m2 = materialize_star_matrix(rot), materialize_star_matrix(trans)
        norms = [np.linalg.norm(a @ b - b @ a) for a, b in zip(m1, m2)]
        res = check_commutativity(rot, trans, expect_commute=False)
        assert res.passed and res.residual == pytest.approx(min(norms))
        rot.r_c[5] = identity_relation(8).r_c  # the identity commutes with every relation
        res = check_commutativity(rot, trans, expect_commute=False)
        assert not res.passed and res.residual == 0.0
        np.testing.assert_array_equal(res.witness["rel2_tau"], trans.tau[5])

    def test_failed_expectation_carries_witness(self, rng):
        rot, trans = noncommuting_pair(rng, 8)
        res = check_commutativity(rot, trans, expect_commute=True)
        assert not res.passed
        assert res.witness is not None
        assert res.witness["residual"] > 0


class TestSymmetry:
    def test_diagonal_configuration_is_symmetric(self, rng):
        n = 8
        rc = rng.normal(size=n)
        rc[1::2] = 0.0
        res = check_symmetry_mode(RelationParams(rc, np.zeros(n)), trials=100)
        assert res.passed and res.applicable
        assert res.residual < 1e-10

    def test_identity_is_trivially_symmetric(self):
        res = check_symmetry_mode(identity_relation(6))
        assert res.passed and res.applicable

    def test_generic_relation_reported_inapplicable(self, rng):
        res = check_symmetry_mode(random_relation(rng, 8))
        assert not res.applicable


class TestAntiSymmetryInfo:
    def test_zero_blocks_score_head_independent(self, rng):
        rel = RelationParams(np.zeros(8), rng.normal(size=8))
        res = check_antisymmetry_mode(rel)
        assert res.passed and res.applicable
        assert "head" in res.detail

    def test_nonzero_blocks_inapplicable(self, rng):
        res = check_antisymmetry_mode(random_relation(rng, 8))
        assert not res.applicable


class TestInversion:
    def test_identity_is_self_inverse(self):
        res = check_inversion(identity_relation(4))
        assert res.passed and res.applicable

    def test_conjugation_inverts_random_rotations(self, rng):
        for _ in range(20):
            rel = random_relation(rng, 8, tau_zero=True)
            res = check_inversion(rel, trials=100)
            assert res.passed and res.applicable
            assert res.residual < 1e-10

    def test_nonzero_translation_reports_inapplicable(self, rng):
        res = check_inversion(random_relation(rng, 8))
        assert not res.applicable
        assert res.passed  # inapplicable is not a failure


class TestMarginScaling:
    def test_alpha_one_is_identity(self, rng):
        res = check_margin_scaling(random_relation(rng, 8), alpha=1.0)
        assert res.passed and res.residual < 1e-12

    def test_alpha_two_random_parameters(self, rng):
        for _ in range(20):
            res = check_margin_scaling(random_relation(rng, 8), alpha=2.0)
            assert res.passed
            assert res.residual < 1e-10

    def test_negative_alpha_still_holds(self, rng):
        res = check_margin_scaling(random_relation(rng, 8), alpha=-1.0)
        assert res.passed

    def test_one_alpha_per_stacked_row(self, rng):
        rel, alpha = random_relation(rng, 8, 3), np.array([1.0, 2.0, -3.0])
        res = check_margin_scaling(rel, alpha, trials=20)
        assert res.passed and res.residual < 1e-10
        res = check_margin_scaling(rel, alpha, trials=20, tol=-1.0)
        (row,) = [i for i in range(3) if np.array_equal(res.witness["rel1_tau"], rel.tau[i])]
        assert res.witness["alpha"] == alpha[row]
        with pytest.raises(ValueError, match="alpha"):
            check_margin_scaling(rel, np.array([1.0, 0.0, 2.0]))

    def test_zero_alpha_rejected(self, rng):
        with pytest.raises(ValueError):
            check_margin_scaling(random_relation(rng, 8), alpha=0.0)


class TestETerm:
    def test_zero_translation_contributes_nothing(self, rng):
        rel = random_relation(rng, 8, tau_zero=True)
        res = check_E_term(rel)
        assert res.passed and res.residual < 1e-12

    def test_translation_contribution_head_independent(self, rng):
        for _ in range(20):
            res = check_E_term(random_relation(rng, 8))
            assert res.passed
            assert res.residual < 1e-10

    def test_zero_tail_kills_the_term(self, rng):
        from star_kge.model import score

        rel = random_relation(rng, 8)
        h = rng.normal(size=8)
        t = np.zeros(8)
        assert score(h, rel, t) == score(h, rel.with_zero_tau(), t)


def skew_entry(real):
    """``materialize_star_matrix`` plus a head/tail-asymmetric entry that grows
    with |tau|, so every sampled identity breaks by a different amount on
    each draw and the worst draw is unique."""

    def skewed(rel):
        m = real(rel)
        m[..., 0, 1] += 0.5 * (1.0 + np.abs(rel.tau).sum(-1))
        return m

    return skewed


def draw_residual(name, rel, d):
    """The sampled check's residual for one relation and one draw d, a tuple
    (h, t) or (t, h1, ..., h4), one vector product at a time."""
    m = patterns.materialize_star_matrix(rel)
    if name == "symmetry":
        return abs(hom_score(d[0], m, d[1]) - hom_score(d[1], m, d[0]))
    if name == "inversion":
        m2 = patterns.materialize_star_matrix(rel.conjugate())
        return abs(hom_score(d[0], m, d[1]) - hom_score(d[1], m2, d[0]))
    if name == "margin":
        m2 = patterns.materialize_star_matrix(rel.scaled(2.0))
        return abs(2.0 * hom_score(d[0], m, d[1]) - hom_score(d[0], m2, d[1]) - 1.0)
    if name == "antisymmetry":
        return max(abs(hom_score(h, m, d[0]) - (rel.tau @ d[0] + 1.0)) for h in d[1:])
    m0 = patterns.materialize_star_matrix(rel.with_zero_tau())
    diffs = [hom_score(h, m, d[0]) - hom_score(h, m0, d[0]) for h in d[1:]]
    return max(max(abs(x - rel.tau @ d[0]) for x in diffs), max(diffs) - min(diffs))


def per_trial_oracle(name, rel, seed, trials, n):
    """The check's draws and residuals from a per-trial loop on a fresh
    generator: (list of draw tuples, residuals, generator after the draws)."""
    g = np.random.default_rng(seed)
    k = 5 if name in ("antisymmetry", "eterm") else 2
    draws = [tuple(g.normal(size=n) for _ in range(k)) for _ in range(trials)]
    return draws, np.array([draw_residual(name, rel, d) for d in draws]), g


SAMPLED = {
    "symmetry": (lambda rng: random_relation(rng, 6, tau_zero=True, diagonal=True), check_symmetry_mode),
    "antisymmetry": (lambda rng: random_relation(rng, 6, zero_blocks=True), check_antisymmetry_mode),
    "inversion": (lambda rng: random_relation(rng, 6, tau_zero=True), check_inversion),
    "margin": (
        lambda rng: random_relation(rng, 6),
        lambda rel, **kw: check_margin_scaling(rel, 2.0, **kw),
    ),
    "eterm": (lambda rng: random_relation(rng, 6), check_E_term),
}


class TestHarness:
    """The batched draws against the per-trial loops they replaced."""

    @pytest.mark.parametrize("name", sorted(SAMPLED))
    @pytest.mark.parametrize("skewed", [False, True])
    def test_forced_failure_witness_is_worst_per_trial_draw(self, name, skewed, rng, monkeypatch):
        if skewed:
            monkeypatch.setattr(
                patterns, "materialize_star_matrix", skew_entry(patterns.materialize_star_matrix)
            )
        make_rel, check = SAMPLED[name]
        rel = make_rel(rng)
        seeded = np.random.default_rng(11)
        res = check(rel, trials=25, tol=-1.0, rng=seeded)
        draws, resid, fresh = per_trial_oracle(name, rel, 11, 25, 6)
        assert not res.passed and res.applicable
        # same stream: the generator ends where the per-trial loop ends
        assert seeded.normal() == fresh.normal()
        # the witness is one draw (h, t) or (t, h1..h4), and its residual recomputes
        drawn = [res.witness[k] for k in ("h", "t") if k in res.witness]
        hits = [i for i, d in enumerate(draws) if all(map(np.array_equal, d, drawn))]
        assert len(hits) == 1
        assert res.residual == res.witness["residual"]
        assert res.residual == pytest.approx(resid[hits[0]], rel=1e-9, abs=1e-13)
        if skewed:  # residuals are spread out: the witness is the unique worst draw
            assert hits[0] == int(np.argmax(resid))
            assert resid.max() > 1e-3

    def test_kernel_oracle_witness_recomputes(self, monkeypatch):
        monkeypatch.setattr(
            patterns, "materialize_star_matrix", skew_entry(patterns.materialize_star_matrix)
        )
        res = check_kernel_oracle(n=6, trials=40, seed=4)
        assert not res.passed
        w = res.witness
        rel = RelationParams(np.array(w["rel1_r_c"]), np.array(w["rel1_tau"]))
        fast = score(w["h"], rel, w["t"])
        slow = hom_score(w["h"], patterns.materialize_star_matrix(rel), w["t"])
        assert res.residual == pytest.approx(abs(fast - slow) / max(1.0, abs(fast), abs(slow)))
        g = np.random.default_rng(4)
        rels = random_relation(g, 6, 40)  # all relations first, then the vectors
        hs, ts = g.normal(size=(2, 40, 6))
        worst = 0.0
        for r_c, tau, h, t in zip(rels.r_c, rels.tau, hs, ts):
            r = RelationParams(r_c, tau)
            fast = score(h, r, t)
            slow = hom_score(h, patterns.materialize_star_matrix(r), t)
            worst = max(worst, abs(fast - slow) / max(1.0, abs(fast), abs(slow)))
        assert res.residual == pytest.approx(worst, rel=1e-9)

    @pytest.mark.parametrize("name", sorted(SAMPLED))
    def test_stack_is_one_loop_over_trials_then_rows(self, name, rng, monkeypatch):
        monkeypatch.setattr(
            patterns, "materialize_star_matrix", skew_entry(patterns.materialize_star_matrix)
        )
        make_rel, check = SAMPLED[name]
        rows = [make_rel(rng) for _ in range(3)]
        stack = RelationParams(np.stack([r.r_c for r in rows]), np.stack([r.tau for r in rows]))
        seeded, fresh = np.random.default_rng(5), np.random.default_rng(5)
        res = check(stack, trials=7, tol=-1.0, rng=seeded)
        k = 5 if name in ("antisymmetry", "eterm") else 2
        draws, resid = {}, np.empty((7, 3))
        for trial in range(7):
            for row, rel in enumerate(rows):
                draws[trial, row] = tuple(fresh.normal(size=6) for _ in range(k))
                resid[trial, row] = draw_residual(name, rel, draws[trial, row])
        assert seeded.normal() == fresh.normal()
        assert not res.passed and res.residual == pytest.approx(resid.max(), rel=1e-9)
        trial, row = np.unravel_index(np.argmax(resid), resid.shape)
        drawn = [res.witness[k] for k in ("h", "t") if k in res.witness]
        assert all(map(np.array_equal, draws[trial, row], drawn))
        np.testing.assert_array_equal(res.witness["rel1_r_c"], rows[row].r_c)
        np.testing.assert_array_equal(res.witness["rel1_tau"], rows[row].tau)

    def test_witness_is_first_of_tied_worst_and_nan_fails(self):
        rel = identity_relation(2)
        draws = np.arange(8.0).reshape(4, 2)
        res = patterns._result("X", "d", np.array([0.0, 3.0, 1.0, 3.0]), 1.0, rel, h=draws, alpha=2.0)
        assert not res.passed and res.residual == 3.0
        np.testing.assert_array_equal(res.witness["h"], draws[1])
        assert res.witness["alpha"] == 2.0 and res.witness["rel1_tau"] is rel.tau
        res = patterns._result("X", "d", np.array([0.0, np.nan, 5.0]), 10.0, rel, h=draws)
        assert not res.passed and np.isnan(res.residual)
        np.testing.assert_array_equal(res.witness["h"], draws[1])
        assert patterns._result("X", "d", np.zeros(3), 0.0, rel, h=draws).passed

    @pytest.mark.parametrize("name", sorted(SAMPLED))
    def test_zero_trials_rejected(self, name, rng):
        make_rel, check = SAMPLED[name]
        with pytest.raises(ValueError, match="trials"):
            check(make_rel(rng), trials=0)


class TestSuite:
    def test_full_suite_passes_at_n8(self):
        rows = run_pattern_suite(n=8, trials=100, seed=0)
        assert {r.pattern for r in rows} == {
            "Composition",
            "Commutativity",
            "NonCommutativity",
            "Symmetry",
            "AntiSymmetry",
            "Inversion",
            "ComplexRelationsMargin",
            "ETerm",
        }
        for row in rows:
            assert row.passed, (row.pattern, row.witness)

    def test_symmetric_generic_relation_fails_the_symmetry_row(self, monkeypatch):
        real = patterns.random_relation

        def symmetric_generic(rng, n, trials=None, **kinds):
            if trials is None:  # the one unstacked draw, the generic relation
                return real(rng, n, tau_zero=True, diagonal=True)
            return real(rng, n, trials, **kinds)

        monkeypatch.setattr(patterns, "random_relation", symmetric_generic)
        rows = {r.pattern: r for r in run_pattern_suite(n=4, trials=5, seed=0)}
        sym = rows["Symmetry"]
        assert not sym.passed
        assert sym.detail == "generic relation unexpectedly symmetric"
        assert sym.residual < 1e-10 and {"h", "t"} <= set(sym.witness)
        assert all(row.passed for name, row in rows.items() if name != "Symmetry")

    def test_verify_suite_adds_kernel_checks(self):
        rows = run_verify_suite(n=4, trials=10, seed=1)
        names = [r.pattern for r in rows]
        assert "KernelOracle" in names and "ScoreGradients" in names
        assert all(r.passed for r in rows)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            run_pattern_suite(n=7)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            run_pattern_suite(n=4, trials=trials)
        with pytest.raises(ValueError, match="trials"):
            run_verify_suite(n=4, trials=trials)

    @pytest.mark.parametrize("trials", [0, -1])
    @pytest.mark.parametrize("check", [check_kernel_oracle, check_score_gradients])
    def test_kernel_checks_reject_no_trials(self, check, trials):
        with pytest.raises(ValueError, match=f"^trials must be at least 1, got {trials}$"):
            check(n=4, trials=trials)

    def test_injected_sign_error_fails_closure_with_witness(self, rng, monkeypatch):
        # corrupt the composed-parameter extraction the way a kernel sign bug would
        real = patterns.compose_relation_params

        def corrupted(rel1, rel2):
            out = real(rel1, rel2)
            out.tau = -out.tau
            return out

        monkeypatch.setattr(patterns, "compose_relation_params", corrupted)
        res = check_composition_closure(random_relation(rng, 8), random_relation(rng, 8))
        assert not res.passed
        assert res.witness is not None
        assert res.witness["residuals"]["tau_formula"] > 1e-6

    def test_results_serialize_to_json(self):
        import json

        rows = run_pattern_suite(n=4, trials=5, seed=2)
        blob = json.dumps([r.to_dict() for r in rows])
        assert "Composition" in blob
