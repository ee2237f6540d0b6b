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

Each check takes one relation or a (k, n) stack of them (see
:class:`RelationParams`; :func:`materialize_star_matrix`, :func:`score` and
:func:`score_gradients` all work row by row on stacks) and runs once on the
whole stack. Its residual is the worst over all trials and relation rows,
and a failure's witness is the first worst (trial, row). NonCommutativity
is the exception: its residual is the smallest commutator norm, which must
stay at or above the tolerance. ``run_pattern_suite`` makes one check call
per row on stacks of ``trials`` relations, so ``verify`` holds
O(trials * n^2) floats at once. At n = 8 and ``--trials 1000`` its arrays
peak at 10.6 MB (tracemalloc), 6.5 MB of it the kernel oracle's 10,000
relation matrices, and the process at 48 MB resident.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import (
    RelationParams,
    block_rotate,
    block_rotate_t,
    homogeneous,
    materialize_star_matrix,
    score,
    score_gradients,
)

DEFAULT_TOL = 1e-10


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


def _witness(rel=None, residual=0.0, **extra):
    w = {"residual": float(residual)}
    if rel is not None:
        w["rel1_r_c"], w["rel1_tau"] = rel.r_c, rel.tau
    return w | extra


# sampling harness ------------------------------------------------------------


def _bilinear(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, 1] M [b; 1] for every stacked row pair of a and b; the leading
    axes of a stack of matrices M broadcast against those of a and b."""
    return ((homogeneous(a)[..., None, :] @ m)[..., 0, :] * homogeneous(b)).sum(-1)


def _draws(rng, trials: int, k: int, rel: RelationParams) -> np.ndarray:
    """k standard-normal n-vectors per trial and relation row, as a (k, trials,
    *rows, n) array: the stream of a loop over trials, then rows, drawing k
    ``normal(size=n)`` vectors each."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if rng is None:
        rng = np.random.default_rng(0)
    return np.moveaxis(rng.normal(size=(trials, *rel.r_c.shape[:-1], k, rel.n)), -2, 0)


def _at(v, i):
    """v at draw i: arrays indexed, dicts value by value, anything else whole."""
    if isinstance(v, dict):
        return {key: _at(x, i) for key, x in v.items()}
    return v[i] if isinstance(v, np.ndarray) else v


def _result(pattern, detail, resid, tol, rel=None, smallest=False, **draws) -> PatternCheckResult:
    """One row from the residuals of every (trial, relation row) draw.

    The check passes when every residual is at most ``tol`` (at least, with
    ``smallest``); ``tol`` may hold one bound per residual. The reported
    residual is the first worst, the largest (smallest) among the failing
    residuals if any fail, else among all; a NaN counts as the worst and
    fails. A failure's witness is that draw: array keywords (and the values
    of dict keywords) are indexed at it, a stacked ``rel`` at its row (the
    last index), and other keywords are kept whole.
    """
    resid = np.asarray(resid)
    sign = -1.0 if smallest else 1.0
    key = sign * resid
    fails = ~(key <= sign * np.asarray(tol))
    i = np.unravel_index(np.argmax(np.where(fails, key, -np.inf) if fails.any() else key), resid.shape)
    worst = float(resid[i])
    if not fails.any():
        return PatternCheckResult(pattern, True, residual=worst, detail=detail)
    if rel is not None and rel.r_c.ndim > 1:
        rel = RelationParams(rel.r_c[i[-1]], rel.tau[i[-1]])
    witness = _witness(rel, worst, **_at(draws, i))
    return PatternCheckResult(pattern, False, residual=worst, witness=witness, detail=detail)


def _inapplicable(pattern: str, detail: str) -> PatternCheckResult:
    return PatternCheckResult(pattern, passed=True, applicable=False, detail=detail)


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

    Extracts the composed parameters from the product and verifies a
    round-trip materialization (which differs from the product wherever the
    product leaves the block layout or has a nonzero last column or a corner
    other than 1), the composed-translation formula, and score agreement on
    random entity pairs. Each row's bound is tol * max(1, max |M1 M2|).
    """
    if rel1.r_c.shape != rel2.r_c.shape:
        raise ValueError("relations must share a dimension and a row count")
    n = rel1.n
    m = materialize_star_matrix(rel1) @ materialize_star_matrix(rel2)
    # each block's first column holds (a, b) at rows 2k, 2k + 1 of column 2k
    extracted = RelationParams(m[..., np.arange(n), np.arange(n) // 2 * 2], m[..., n, :n])
    composed = compose_relation_params(rel1, rel2)
    h, t = _draws(rng, 4, 2, rel1)
    residuals = {
        "roundtrip": np.abs(materialize_star_matrix(extracted) - m).max((-2, -1)),
        "tau_formula": np.abs(composed.tau - extracted.tau).max(-1),
        "rc_formula": np.abs(composed.r_c - extracted.r_c).max(-1),
        "score": np.abs(_bilinear(h, m, t) - score(h, composed, t)).max(0),
    }
    worst = np.max(list(residuals.values()), axis=0)
    bound = tol * np.maximum(1.0, np.abs(m).max((-2, -1)))
    detail = "product keeps the [[R,0],[tau^T,1]] form with tau3 = R2^T tau1 + tau2"
    return _result(
        "Composition", detail, worst, bound, rel1, rel2_r_c=rel2.r_c, rel2_tau=rel2.tau, residuals=residuals
    )


def check_commutativity(
    rel1: RelationParams, rel2: RelationParams, expect_commute: bool, tol: float = DEFAULT_TOL
) -> PatternCheckResult:
    """Compare the two products of the relation matrices against expectation.

    The residual is the Frobenius norm of M1 M2 - M2 M1: with
    ``expect_commute`` the largest over the rows, which must be at most tol,
    otherwise the smallest, which must be at least tol.
    """
    if rel1.r_c.shape != rel2.r_c.shape:
        raise ValueError("relations must share a dimension and a row count")
    m1 = materialize_star_matrix(rel1)
    m2 = materialize_star_matrix(rel2)
    dist = np.linalg.norm(m1 @ m2 - m2 @ m1, axis=(-2, -1))
    if expect_commute:
        pattern, detail = "Commutativity", "the two product orders agree (largest ||M1 M2 - M2 M1||_F)"
    else:
        pattern, detail = "NonCommutativity", "the two product orders differ (smallest ||M1 M2 - M2 M1||_F)"
    return _result(pattern, detail, dist, tol, rel1, not expect_commute, rel2_r_c=rel2.r_c, rel2_tau=rel2.tau)


def check_symmetry_mode(
    rel: RelationParams, trials: int = 100, tol: float = DEFAULT_TOL, rng=None
) -> PatternCheckResult:
    """With diagonal blocks and zero translation the score must be symmetric.

    A relation outside that configuration (any row of a stack) is reported
    as inapplicable, not failed.
    """
    if np.abs(rel.r_c[..., 1::2]).max(initial=0.0) != 0.0 or np.abs(rel.tau).max(initial=0.0) != 0.0:
        return _inapplicable(
            "Symmetry", "relation is not in the diagonal-block, zero-translation configuration"
        )
    m = materialize_star_matrix(rel)
    h, t = _draws(rng, trials, 2, rel)
    resid = np.abs(_bilinear(h, m, t) - _bilinear(t, m, h))
    detail = "s(h, r, t) = s(t, r, h) for the diagonal-block degeneration"
    return _result("Symmetry", detail, resid, tol, rel, h=h, t=t)


def check_antisymmetry_mode(
    rel: RelationParams, trials: int = 100, tol: float = DEFAULT_TOL, rng=None
) -> PatternCheckResult:
    """With all blocks zero the score is tau . t + 1, independent of the head.

    Informational: this degeneration ranks tails by translation affinity
    alone; it is not a distance-model equivalence, so only the
    head-independence is asserted.
    """
    if np.abs(rel.r_c).max(initial=0.0) != 0.0:
        return _inapplicable("AntiSymmetry", "relation blocks are not zero")
    m = materialize_star_matrix(rel)
    draws = _draws(rng, trials, 5, rel)
    t, heads = draws[0], draws[1:]
    resid = np.abs(_bilinear(heads, m, t) - (np.vecdot(t, rel.tau) + 1.0)).max(0)
    detail = "zero-block score is tau . t + 1 for every head (informational degeneration)"
    return _result("AntiSymmetry", detail, resid, tol, rel, t=t)


def check_inversion(
    rel: RelationParams, trials: int = 100, tol: float = DEFAULT_TOL, rng=None
) -> PatternCheckResult:
    """With zero translation, block conjugation transposes the relation matrix.

    Then s(h, r, t) = s(t, conj(r), h). A relation with nonzero translation
    leaves the matrix family under transposition, so the check reports
    inapplicable.
    """
    if np.abs(rel.tau).max(initial=0.0) != 0.0:
        return _inapplicable(
            "Inversion", "translation must be zero (transposition leaves the matrix family)"
        )
    m1 = materialize_star_matrix(rel)
    m2 = materialize_star_matrix(rel.conjugate())
    h, t = _draws(rng, trials, 2, rel)
    resid = np.abs(_bilinear(h, m1, t) - _bilinear(t, m2, h))
    detail = "s(h, r, t) = s(t, conjugate(r), h) when the translation is zero"
    return _result("Inversion", detail, resid, tol, rel, h=h, t=t)


def check_margin_scaling(
    rel: RelationParams, alpha, trials: int = 100, tol: float = DEFAULT_TOL, rng=None
) -> PatternCheckResult:
    """alpha * s(h, r, t) = s(h, alpha * r, t) + (alpha - 1), exactly.

    The score is affine in (r_c, tau) with constant part 1, so scaling the
    relation parameters rescales every margin while shifting scores by a
    constant. ``alpha`` is one nonzero number or one per relation row; a
    row's bound is tol * max(1, |alpha|).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if (alpha == 0).any():
        raise ValueError("alpha must be nonzero")
    m = materialize_star_matrix(rel)
    m_scaled = materialize_star_matrix(rel.scaled(alpha))
    h, t = _draws(rng, trials, 2, rel)
    resid = np.abs(alpha * _bilinear(h, m, t) - (_bilinear(h, m_scaled, t) + (alpha - 1.0)))
    detail = "alpha * s(h, r, t) = s(h, alpha * r, t) + (alpha - 1)"
    bound = tol * np.maximum(1.0, np.abs(alpha))
    return _result(
        "ComplexRelationsMargin", detail, resid, bound, rel, alpha=np.broadcast_to(alpha, resid.shape), h=h, t=t
    )


def check_E_term(
    rel: RelationParams, trials: int = 100, tol: float = DEFAULT_TOL, rng=None
) -> PatternCheckResult:
    """The translation contributes exactly tau . t, independent of the head."""
    m = materialize_star_matrix(rel)
    m0 = materialize_star_matrix(rel.with_zero_tau())
    draws = _draws(rng, trials, 5, rel)
    t, heads = draws[0], draws[1:]
    diffs = _bilinear(heads, m, t) - _bilinear(heads, m0, t)
    resid = np.maximum(np.abs(diffs - np.vecdot(t, rel.tau)).max(0), np.ptp(diffs, axis=0))
    detail = "s(h, r, t) - s(h, r with tau=0, t) = tau . t for every head"
    return _result("ETerm", detail, resid, tol, rel, t=t)


# random parameter draws ------------------------------------------------------


def random_relation(
    rng, n, trials=None, *, tau_zero=False, diagonal=False, unit_blocks=False, zero_blocks=False
) -> RelationParams:
    """One random relation, or with ``trials`` a (trials, n) stack of them.

    Translations are redrawn until their norm is at least 0.5.
    """
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    shape = (n,) if trials is None else (trials, n)
    rc = rng.normal(size=shape)
    if diagonal:
        rc[..., 1::2] = 0.0
    if zero_blocks:
        rc[:] = 0.0
    if unit_blocks:
        # angles bounded away from 0 so the rotation is never near-identity
        angles = rng.uniform(0.2, 2 * np.pi - 0.2, size=shape[:-1] + (n // 2,))
        rc[..., 0::2] = np.cos(angles)
        rc[..., 1::2] = np.sin(angles)
    if tau_zero:
        return RelationParams(rc, np.zeros(shape))
    tau = rng.normal(size=shape)
    short = np.linalg.norm(tau, axis=-1) < 0.5
    while short.any():
        tau[short] = rng.normal(size=(int(short.sum()), n))
        short = np.linalg.norm(tau, axis=-1) < 0.5
    return RelationParams(rc, tau)


def noncommuting_pair(rng, n, trials=None) -> tuple[RelationParams, RelationParams]:
    """Pure unit-norm rotation vs pure translation: these never commute
    (away from the identity rotation and the zero translation). With
    ``trials``, two stacks of that many pairs."""
    rotation = random_relation(rng, n, trials, tau_zero=True, unit_blocks=True)
    identity_blocks = np.zeros_like(rotation.r_c)
    identity_blocks[..., 0::2] = 1.0
    translation = RelationParams(identity_blocks, random_relation(rng, n, trials).tau)
    return rotation, translation


def _rows(a: RelationParams, b: RelationParams) -> RelationParams:
    """One stack of the rows of a, then of b (each a relation or a stack)."""
    return RelationParams(np.vstack([a.r_c, b.r_c]), np.vstack([a.tau, b.tau]))


# suite -----------------------------------------------------------------------


def run_pattern_suite(
    n: int = 8, trials: int = 100, seed: int = 0, tol: float = DEFAULT_TOL
) -> list[PatternCheckResult]:
    """Run every pattern check on fresh random parameters; one result per row.

    Each row is one check call on a stack of ``trials`` random relations
    (or relation pairs); the sampled checks draw 8 vector sets per relation.
    """
    if n % 2 != 0 or n <= 0:
        raise ValueError(f"n must be positive and even, got {n}")
    rng = np.random.default_rng(seed)
    per_row = 8  # inner (h, t) draws are enough per relation
    stack = partial(random_relation, rng, n, trials)
    comp = check_composition_closure(stack(), stack(), tol, rng)
    commut = check_commutativity(stack(tau_zero=True), stack(tau_zero=True), expect_commute=True, tol=tol)
    rot, trans = noncommuting_pair(rng, n, trials)  # stacked with as many generic translated pairs
    noncommut = check_commutativity(_rows(rot, stack()), _rows(trans, stack()), expect_commute=False, tol=tol)
    sym = check_symmetry_mode(stack(tau_zero=True, diagonal=True), per_row, tol, rng)
    generic = random_relation(rng, n)  # must *not* score its one (h, t) draw symmetrically
    h, t = _draws(rng, 1, 2, generic)
    m = materialize_star_matrix(generic)
    gap = np.abs(_bilinear(h, m, t) - _bilinear(t, m, h))
    asym = _result("Symmetry", "generic relation unexpectedly symmetric", gap, tol, generic, smallest=True, h=h, t=t)
    if sym.passed and not asym.passed:
        sym = asym
    alpha = rng.uniform(-3.0, 3.0, size=trials)
    alpha[:3] = (1.0, 2.0, -1.0)[:trials]
    alpha[alpha == 0.0] = 1.0
    return [
        comp,
        commut,
        noncommut,
        sym,
        check_antisymmetry_mode(stack(zero_blocks=True), per_row, tol, rng),
        check_inversion(stack(tau_zero=True), per_row, tol, rng),
        check_margin_scaling(stack(), alpha, per_row, tol, rng),
        check_E_term(stack(), per_row, tol, rng),
    ]


# kernel self-checks used by the verify command --------------------------------


def check_kernel_oracle(
    n: int = 8, trials: int = 1000, seed: int = 0, tol: float = DEFAULT_TOL
) -> PatternCheckResult:
    """Vectorized score vs the materialized-matrix product on random draws:
    a stack of ``trials`` relations, then one (h, t) pair per relation."""
    rng = np.random.default_rng(seed)
    rel = random_relation(rng, n, trials)
    h, t = rng.normal(size=(2, trials, n))
    fast = score(h, rel, t)
    slow = _bilinear(h, materialize_star_matrix(rel), t)
    resid = np.abs(fast - slow) / np.maximum(1.0, np.maximum(np.abs(fast), np.abs(slow)))
    detail = "vectorized kernel equals the explicit matrix product"
    return _result("KernelOracle", detail, resid, tol, rel, h=h, t=t)


def _central_difference(f, x0, step=1e-5):
    """Central differences of f at every row of x0, where f maps a stack of
    rows to one value per row."""
    g = np.zeros_like(x0)
    for i in range(x0.shape[-1]):
        x = x0.copy()
        x[..., i] = x0[..., i] + step
        fp = f(x)
        x[..., i] = x0[..., i] - step
        fm = f(x)
        g[..., i] = (fp - fm) / (2 * step)
    return g


def check_score_gradients(
    n: int = 8, trials: int = 25, seed: int = 0, tol: float = 1e-4
) -> PatternCheckResult:
    """Analytic score gradients vs central finite differences, on a stack of
    ``trials`` relations with one (h, t) pair per relation."""
    rng = np.random.default_rng(seed)
    rel = random_relation(rng, n, trials)
    h, t = rng.normal(size=(2, trials, n))
    g = score_gradients(h, rel, t)
    pairs = [
        (g.d_h, _central_difference(lambda x: score(x, rel, t), h)),
        (g.d_t, _central_difference(lambda x: score(h, rel, x), t)),
        (g.d_r_c, _central_difference(lambda x: score(h, RelationParams(x, rel.tau), t), rel.r_c)),
        (g.d_tau, _central_difference(lambda x: score(h, RelationParams(rel.r_c, x), t), rel.tau)),
    ]
    resid = np.max(
        [np.abs(a - fd).max(-1) / np.maximum(np.abs(a).max(-1), 1e-12) for a, fd in pairs], axis=0
    )
    detail = "analytic score gradients match central finite differences"
    return _result("ScoreGradients", detail, resid, tol, rel, h=h, t=t)


def run_verify_suite(n=8, trials=100, seed=0, tol=DEFAULT_TOL) -> list[PatternCheckResult]:
    """Pattern suite plus kernel oracle and gradient checks (CLI `verify`)."""
    rows = run_pattern_suite(n=n, trials=trials, seed=seed, tol=tol)
    rows.append(check_kernel_oracle(n=n, trials=max(trials * 10, 100), seed=seed + 1, tol=tol))
    rows.append(check_score_gradients(n=n, trials=max(trials // 4, 5), seed=seed + 2))
    return rows
