"""Executable checks of the relation-pattern algebra, at the matrix level.

Every check works through :func:`materialize_star_matrix` (never the fast
scoring kernel) so the suite doubles as an independent validation of the
kernel. The checked identities:

* Composition closure: the product of two relation matrices keeps the
  [[R, 0], [tau^T, 1]] shape, with composed translation
  tau3^T = tau1^T R2 + tau2^T.
* Commutativity: two relations with zero translation commute (block
  matrices multiply like complex numbers); a pure rotation and a pure
  translation do not.
* Symmetry: with diagonal blocks (off-diagonal components zero) and zero
  translation the score is symmetric in head and tail.
* Inversion: with zero translation, conjugating the blocks transposes the
  matrix, so s(h, r, t) = s(t, conj(r), h).
* Margin scaling: alpha * s(h, r, t) = s(h, alpha * r, t) + (alpha - 1),
  exactly, since the score is affine in the relation parameters.
* Translation term: s(h, r, t) - s(h, r with tau = 0, t) = tau . t,
  independent of the head.

The anti-symmetry entry is informational: with all blocks zero the score
collapses to tau . t + 1, which ignores the head entirely; the check
asserts that head-independence rather than a distance-model equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    RelationParams,
    ScoreGradient,
    block_rotate,
    block_rotate_t,
    materialize_star_matrix,
    score,
    score_gradients,
    score_via_matrix,
)

DEFAULT_TOL = 1e-10

PATTERNS = (
    "Symmetry",
    "AntiSymmetry",
    "Composition",
    "Commutativity",
    "NonCommutativity",
    "Inversion",
    "ComplexRelationsMargin",
    "ETerm",
)


@dataclass
class PatternCheckResult:
    pattern: str
    passed: bool
    applicable: bool = True
    residual: float = 0.0
    witness: dict | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        out = {
            "pattern": self.pattern,
            "passed": self.passed,
            "applicable": self.applicable,
            "residual": self.residual,
            "detail": self.detail,
        }
        if self.witness is not None:
            out["witness"] = {
                k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in self.witness.items()
            }
        return out


def _witness(rel1=None, rel2=None, residual=0.0, **extra):
    w = {"residual": float(residual)}
    if rel1 is not None:
        w["rel1_r_c"], w["rel1_tau"] = rel1.r_c, rel1.tau
    if rel2 is not None:
        w["rel2_r_c"], w["rel2_tau"] = rel2.r_c, rel2.tau
    w.update(extra)
    return w


def _block_pattern_residual(m: np.ndarray) -> float:
    """How far an n x n matrix is from the 2x2-block rotation-scaling layout."""
    n = m.shape[0]
    allowed = np.zeros((n, n), dtype=bool)
    idx = np.arange(0, n, 2)
    allowed[idx, idx] = allowed[idx, idx + 1] = True
    allowed[idx + 1, idx] = allowed[idx + 1, idx + 1] = True
    off = np.abs(m[~allowed]).max() if (~allowed).any() else 0.0
    diag_mismatch = np.abs(m[idx, idx] - m[idx + 1, idx + 1]).max()
    skew_mismatch = np.abs(m[idx, idx + 1] + m[idx + 1, idx]).max()
    return float(max(off, diag_mismatch, skew_mismatch))


def compose_relation_params(rel1: RelationParams, rel2: RelationParams) -> RelationParams:
    """Parameters of the composed relation: blocks multiply like complex
    numbers, translations compose as tau3 = R2^T tau1 + tau2."""
    rc = block_rotate(rel1.r_c, rel2.r_c)
    tau = block_rotate_t(rel2.r_c, rel1.tau) + rel2.tau
    return RelationParams(rc, tau)


def check_composition_closure(
    rel1: RelationParams, rel2: RelationParams, tol: float = DEFAULT_TOL, rng=None
) -> PatternCheckResult:
    """Product of two relation matrices stays in relation-matrix form.

    Extracts the composed parameters from the product, verifies the block
    structure, the composed-translation formula, a round-trip
    materialization, and score agreement on random entity pairs.
    """
    if rel1.n != rel2.n:
        raise ValueError("relations must share a dimension")
    n = rel1.n
    m = materialize_star_matrix(rel1) @ materialize_star_matrix(rel2)
    scale = max(1.0, float(np.abs(m).max()))

    residuals = {
        "last_column": float(np.abs(m[:n, n]).max()),
        "corner": abs(float(m[n, n]) - 1.0),
        "block_pattern": _block_pattern_residual(m[:n, :n]),
    }
    extracted = RelationParams(
        np.ravel(np.column_stack([m[np.arange(0, n, 2), np.arange(0, n, 2)],
                                  m[np.arange(1, n, 2), np.arange(0, n, 2)]])),
        m[n, :n].copy(),
    )
    residuals["roundtrip"] = float(np.abs(materialize_star_matrix(extracted) - m).max())
    composed = compose_relation_params(rel1, rel2)
    residuals["tau_formula"] = float(np.abs(composed.tau - extracted.tau).max())
    residuals["rc_formula"] = float(np.abs(composed.r_c - extracted.r_c).max())

    if rng is None:
        rng = np.random.default_rng(0)
    score_resid = 0.0
    for _ in range(4):
        h = rng.normal(size=n)
        t = rng.normal(size=n)
        hh = np.concatenate([h, [1.0]])
        tt = np.concatenate([t, [1.0]])
        score_resid = max(score_resid, abs(float(hh @ m @ tt) - score(h, composed, t)))
    residuals["score"] = score_resid

    worst = max(residuals.values())
    passed = worst <= tol * scale
    return PatternCheckResult(
        "Composition",
        passed,
        residual=worst,
        witness=None if passed else _witness(rel1, rel2, worst, residuals=residuals),
        detail="product keeps the [[R,0],[tau^T,1]] form with tau3 = R2^T tau1 + tau2",
    )


def check_commutativity(
    rel1: RelationParams, rel2: RelationParams, expect_commute: bool, tol: float = DEFAULT_TOL
) -> PatternCheckResult:
    """Compare the two products of the relation matrices against expectation."""
    if rel1.n != rel2.n:
        raise ValueError("relations must share a dimension")
    m1 = materialize_star_matrix(rel1)
    m2 = materialize_star_matrix(rel2)
    dist = float(np.linalg.norm(m1 @ m2 - m2 @ m1))
    commutes = dist < tol
    passed = commutes == expect_commute
    return PatternCheckResult(
        "Commutativity" if expect_commute else "NonCommutativity",
        passed,
        residual=dist,
        witness=None if passed else _witness(rel1, rel2, dist, expected_commute=expect_commute),
        detail=f"Frobenius distance between the two product orders = {dist:.3e}",
    )


def check_symmetry_mode(
    rel: RelationParams, trials: int = 100, tol: float = DEFAULT_TOL, rng=None
) -> PatternCheckResult:
    """With diagonal blocks and zero translation the score must be symmetric.

    A relation outside that configuration is reported as inapplicable, not
    failed.
    """
    if np.abs(rel.r_c[1::2]).max(initial=0.0) != 0.0 or np.abs(rel.tau).max(initial=0.0) != 0.0:
        return PatternCheckResult(
            "Symmetry",
            passed=True,
            applicable=False,
            detail="relation is not in the diagonal-block, zero-translation configuration",
        )
    if rng is None:
        rng = np.random.default_rng(0)
    m = materialize_star_matrix(rel)
    worst = 0.0
    witness = None
    for _ in range(trials):
        h = rng.normal(size=rel.n)
        t = rng.normal(size=rel.n)
        hh = np.concatenate([h, [1.0]])
        tt = np.concatenate([t, [1.0]])
        resid = abs(float(hh @ m @ tt) - float(tt @ m @ hh))
        if resid > worst:
            worst = resid
            witness = _witness(rel, residual=resid, h=h, t=t)
    passed = worst <= tol
    return PatternCheckResult(
        "Symmetry",
        passed,
        residual=worst,
        witness=None if passed else witness,
        detail="s(h, r, t) = s(t, r, h) for the diagonal-block degeneration",
    )


def find_asymmetry_witness(
    rel: RelationParams, trials: int = 100, tol: float = DEFAULT_TOL, rng=None
) -> dict | None:
    """Search for (h, t) with s(h, r, t) != s(t, r, h); None if not found."""
    if rng is None:
        rng = np.random.default_rng(0)
    m = materialize_star_matrix(rel)
    for _ in range(trials):
        h = rng.normal(size=rel.n)
        t = rng.normal(size=rel.n)
        hh = np.concatenate([h, [1.0]])
        tt = np.concatenate([t, [1.0]])
        gap = abs(float(hh @ m @ tt) - float(tt @ m @ hh))
        if gap > tol:
            return _witness(rel, residual=gap, h=h, t=t)
    return None


def check_antisymmetry_mode(
    rel: RelationParams, trials: int = 100, tol: float = DEFAULT_TOL, rng=None
) -> PatternCheckResult:
    """With all blocks zero the score is tau . t + 1, independent of the head.

    Informational: this degeneration ranks tails by translation affinity
    alone; it is not a distance-model equivalence, so only the
    head-independence is asserted.
    """
    if np.abs(rel.r_c).max(initial=0.0) != 0.0:
        return PatternCheckResult(
            "AntiSymmetry",
            passed=True,
            applicable=False,
            detail="relation blocks are not zero",
        )
    if rng is None:
        rng = np.random.default_rng(0)
    m = materialize_star_matrix(rel)
    worst = 0.0
    witness = None
    for _ in range(trials):
        t = rng.normal(size=rel.n)
        tt = np.concatenate([t, [1.0]])
        vals = []
        for _ in range(4):
            h = rng.normal(size=rel.n)
            hh = np.concatenate([h, [1.0]])
            vals.append(float(hh @ m @ tt))
        expected = float(rel.tau @ t) + 1.0
        resid = max(abs(v - expected) for v in vals)
        if resid > worst:
            worst = resid
            witness = _witness(rel, residual=resid, t=t)
    passed = worst <= tol
    return PatternCheckResult(
        "AntiSymmetry",
        passed,
        residual=worst,
        witness=None if passed else witness,
        detail=(
            "zero-block score equals tau . t + 1 for every head; "
            "s(h,r,t) = s(t,r,h) would require tau . t = tau . h (informational)"
        ),
    )


def check_inversion(
    rel: RelationParams, trials: int = 100, tol: float = DEFAULT_TOL, rng=None
) -> PatternCheckResult:
    """With zero translation, block conjugation transposes the relation matrix.

    Then s(h, r, t) = s(t, conj(r), h). A relation with nonzero translation
    leaves the matrix family under transposition, so the check reports
    inapplicable.
    """
    if np.abs(rel.tau).max(initial=0.0) != 0.0:
        return PatternCheckResult(
            "Inversion",
            passed=True,
            applicable=False,
            detail="translation must be zero (transposition leaves the matrix family)",
        )
    if rng is None:
        rng = np.random.default_rng(0)
    m1 = materialize_star_matrix(rel)
    m2 = materialize_star_matrix(rel.conjugate())
    worst = 0.0
    witness = None
    for _ in range(trials):
        h = rng.normal(size=rel.n)
        t = rng.normal(size=rel.n)
        hh = np.concatenate([h, [1.0]])
        tt = np.concatenate([t, [1.0]])
        resid = abs(float(hh @ m1 @ tt) - float(tt @ m2 @ hh))
        if resid > worst:
            worst = resid
            witness = _witness(rel, residual=resid, h=h, t=t)
    passed = worst <= tol
    return PatternCheckResult(
        "Inversion",
        passed,
        residual=worst,
        witness=None if passed else witness,
        detail="s(h, r, t) = s(t, conjugate(r), h) when the translation is zero",
    )


def check_margin_scaling(
    rel: RelationParams, alpha: float, trials: int = 100, tol: float = DEFAULT_TOL, rng=None
) -> PatternCheckResult:
    """alpha * s(h, r, t) = s(h, alpha * r, t) + (alpha - 1), exactly.

    The score is affine in (r_c, tau) with constant part 1, so scaling the
    relation parameters rescales every margin while shifting scores by a
    constant.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if rng is None:
        rng = np.random.default_rng(0)
    m = materialize_star_matrix(rel)
    m_scaled = materialize_star_matrix(rel.scaled(alpha))
    worst = 0.0
    witness = None
    for _ in range(trials):
        h = rng.normal(size=rel.n)
        t = rng.normal(size=rel.n)
        hh = np.concatenate([h, [1.0]])
        tt = np.concatenate([t, [1.0]])
        lhs = alpha * float(hh @ m @ tt)
        rhs = float(hh @ m_scaled @ tt) + (alpha - 1.0)
        resid = abs(lhs - rhs)
        if resid > worst:
            worst = resid
            witness = _witness(rel, residual=resid, alpha=alpha, h=h, t=t)
    scale = max(1.0, abs(alpha))
    passed = worst <= tol * scale
    return PatternCheckResult(
        "ComplexRelationsMargin",
        passed,
        residual=worst,
        witness=None if passed else witness,
        detail="scaling the relation parameters rescales the score margin adaptively",
    )


def check_E_term(
    rel: RelationParams, trials: int = 100, tol: float = DEFAULT_TOL, rng=None
) -> PatternCheckResult:
    """The translation contributes exactly tau . t, independent of the head."""
    if rng is None:
        rng = np.random.default_rng(0)
    m = materialize_star_matrix(rel)
    m0 = materialize_star_matrix(rel.with_zero_tau())
    worst = 0.0
    witness = None
    for _ in range(trials):
        t = rng.normal(size=rel.n)
        tt = np.concatenate([t, [1.0]])
        expected = float(rel.tau @ t)
        diffs = []
        for _ in range(4):
            h = rng.normal(size=rel.n)
            hh = np.concatenate([h, [1.0]])
            diffs.append(float(hh @ m @ tt) - float(hh @ m0 @ tt))
        resid = max(
            max(abs(d - expected) for d in diffs),
            max(diffs) - min(diffs),
        )
        if resid > worst:
            worst = resid
            witness = _witness(rel, residual=resid, t=t)
    passed = worst <= tol
    return PatternCheckResult(
        "ETerm",
        passed,
        residual=worst,
        witness=None if passed else witness,
        detail="s(h, r, t) - s(h, r with tau=0, t) = tau . t for every head",
    )


# random parameter draws ------------------------------------------------------


def random_relation(rng, n, tau_zero=False, diagonal=False, unit_blocks=False, zero_blocks=False):
    rc = rng.normal(size=n)
    if diagonal:
        rc[1::2] = 0.0
    if zero_blocks:
        rc[:] = 0.0
    if unit_blocks:
        # angles bounded away from 0 so the rotation is never near-identity
        angles = rng.uniform(0.2, 2 * np.pi - 0.2, size=n // 2)
        rc[0::2] = np.cos(angles)
        rc[1::2] = np.sin(angles)
    if tau_zero:
        tau = np.zeros(n)
    else:
        tau = rng.normal(size=n)
        while np.linalg.norm(tau) < 0.5:
            tau = rng.normal(size=n)
    return RelationParams(rc, tau)


def noncommuting_pair(rng, n) -> tuple[RelationParams, RelationParams]:
    """Pure unit-norm rotation vs pure translation: these never commute
    (away from the identity rotation and the zero translation)."""
    rotation = random_relation(rng, n, tau_zero=True, unit_blocks=True)
    identity_blocks = np.zeros(n)
    identity_blocks[0::2] = 1.0
    translation = RelationParams(identity_blocks, random_relation(rng, n).tau)
    return rotation, translation


# suite -----------------------------------------------------------------------


def _aggregate(pattern: str, results: list[PatternCheckResult], detail: str) -> PatternCheckResult:
    failures = [r for r in results if r.applicable and not r.passed]
    worst = max((r.residual for r in results), default=0.0)
    if failures:
        first = failures[0]
        return PatternCheckResult(
            pattern, False, residual=first.residual, witness=first.witness, detail=detail
        )
    return PatternCheckResult(pattern, True, residual=worst, detail=detail)


def run_pattern_suite(
    n: int = 8, trials: int = 100, seed: int = 0, tol: float = DEFAULT_TOL
) -> list[PatternCheckResult]:
    """Run every pattern check on fresh random parameters; one result per row."""
    if n % 2 != 0 or n <= 0:
        raise ValueError(f"n must be positive and even, got {n}")
    rng = np.random.default_rng(seed)
    per_trial = 8  # inner (h, t) draws are enough per parameter draw
    rows: list[PatternCheckResult] = []

    comp = [
        check_composition_closure(random_relation(rng, n), random_relation(rng, n), tol, rng)
        for _ in range(trials)
    ]
    rows.append(_aggregate("Composition", comp, "matrix products keep the relation-matrix form"))

    commut = []
    for _ in range(trials):
        r1 = random_relation(rng, n, tau_zero=True)
        r2 = random_relation(rng, n, tau_zero=True)
        commut.append(check_commutativity(r1, r2, expect_commute=True, tol=tol))
    same = random_relation(rng, n)
    commut.append(check_commutativity(same, same, expect_commute=True, tol=tol))
    rows.append(
        _aggregate("Commutativity", commut, "zero-translation relations always commute")
    )

    noncommut = []
    for _ in range(trials):
        rot, trans = noncommuting_pair(rng, n)
        noncommut.append(check_commutativity(rot, trans, expect_commute=False, tol=tol))
        g1 = random_relation(rng, n)
        g2 = random_relation(rng, n)
        noncommut.append(check_commutativity(g1, g2, expect_commute=False, tol=tol))
    rows.append(
        _aggregate(
            "NonCommutativity",
            noncommut,
            "rotation vs translation (and generic translated pairs) do not commute",
        )
    )

    sym = [
        check_symmetry_mode(
            random_relation(rng, n, tau_zero=True, diagonal=True), per_trial, tol, rng
        )
        for _ in range(trials)
    ]
    # sanity: a generic relation must *not* be symmetric
    generic = random_relation(rng, n)
    if find_asymmetry_witness(generic, trials=64, tol=tol, rng=rng) is None:
        sym.append(
            PatternCheckResult(
                "Symmetry",
                False,
                residual=0.0,
                witness=_witness(generic),
                detail="generic relation unexpectedly symmetric",
            )
        )
    rows.append(
        _aggregate("Symmetry", sym, "diagonal-block, zero-translation relations score symmetrically")
    )

    anti = [
        check_antisymmetry_mode(random_relation(rng, n, zero_blocks=True), per_trial, tol, rng)
        for _ in range(trials)
    ]
    rows.append(
        _aggregate(
            "AntiSymmetry", anti, "zero-block score is head-independent (informational degeneration)"
        )
    )

    inv = [
        check_inversion(random_relation(rng, n, tau_zero=True), per_trial, tol, rng)
        for _ in range(trials)
    ]
    inv.append(check_inversion(random_relation(rng, n), per_trial, tol, rng))
    rows.append(_aggregate("Inversion", inv, "block conjugation inverts zero-translation relations"))

    margins = []
    for i in range(trials):
        alpha = (1.0, 2.0, -1.0)[i % 3] if i < 3 else float(rng.uniform(-3, 3) or 1.0)
        if alpha == 0.0:
            alpha = 0.5
        margins.append(check_margin_scaling(random_relation(rng, n), alpha, per_trial, tol, rng))
    rows.append(
        _aggregate(
            "ComplexRelationsMargin",
            margins,
            "alpha * score = score(alpha * params) + (alpha - 1)",
        )
    )

    eterm = [check_E_term(random_relation(rng, n), per_trial, tol, rng) for _ in range(trials)]
    rows.append(_aggregate("ETerm", eterm, "translation contributes a head-independent tau . t"))
    return rows


# kernel self-checks used by the verify command --------------------------------


def check_kernel_oracle(
    n: int = 8, trials: int = 1000, seed: int = 0, tol: float = DEFAULT_TOL
) -> PatternCheckResult:
    """Vectorized score vs the materialized-matrix product on random draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    for _ in range(trials):
        rel = random_relation(rng, n)
        h = rng.normal(size=n)
        t = rng.normal(size=n)
        fast = score(h, rel, t)
        slow = score_via_matrix(h, rel, t)
        resid = abs(fast - slow) / max(1.0, abs(fast), abs(slow))
        if resid > worst:
            worst = resid
            witness = _witness(rel, residual=resid, h=h, t=t)
    passed = worst <= tol
    return PatternCheckResult(
        "KernelOracle",
        passed,
        residual=worst,
        witness=None if passed else witness,
        detail="vectorized kernel equals the explicit matrix product",
    )


def _central_difference(f, x0, step=1e-5):
    g = np.zeros_like(x0)
    for i in range(len(x0)):
        x = x0.copy()
        x[i] = x0[i] + step
        fp = f(x)
        x[i] = x0[i] - step
        fm = f(x)
        g[i] = (fp - fm) / (2 * step)
    return g


def check_score_gradients(
    n: int = 8, trials: int = 25, seed: int = 0, tol: float = 1e-4
) -> PatternCheckResult:
    """Analytic score gradients vs central finite differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    for _ in range(trials):
        rel = random_relation(rng, n)
        h = rng.normal(size=n)
        t = rng.normal(size=n)
        g: ScoreGradient = score_gradients(h, rel, t)
        pairs = [
            (g.d_h, _central_difference(lambda x: score(x, rel, t), h)),
            (g.d_t, _central_difference(lambda x: score(h, rel, x), t)),
            (g.d_r_c, _central_difference(lambda x: score(h, RelationParams(x, rel.tau), t), rel.r_c)),
            (g.d_tau, _central_difference(lambda x: score(h, RelationParams(rel.r_c, x), t), rel.tau)),
        ]
        for analytic, fd in pairs:
            denom = max(float(np.abs(analytic).max()), 1e-12)
            resid = float(np.abs(analytic - fd).max()) / denom
            if resid > worst:
                worst = resid
                witness = _witness(rel, residual=resid)
    passed = worst <= tol
    return PatternCheckResult(
        "ScoreGradients",
        passed,
        residual=worst,
        witness=None if passed else witness,
        detail="analytic score gradients match central finite differences",
    )


def run_verify_suite(n=8, trials=100, seed=0, tol=DEFAULT_TOL) -> list[PatternCheckResult]:
    """Pattern suite plus kernel oracle and gradient checks (CLI `verify`)."""
    rows = run_pattern_suite(n=n, trials=trials, seed=seed, tol=tol)
    rows.append(check_kernel_oracle(n=n, trials=max(trials * 10, 100), seed=seed + 1, tol=tol))
    rows.append(check_score_gradients(n=n, trials=max(trials // 4, 5), seed=seed + 2))
    return rows
