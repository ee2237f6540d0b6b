"""Frobenius and duality-based penalty terms with analytic gradients.

Both penalties are per-query: they touch only the source, target and
relation parameters of that query. :func:`penalty_terms_batch` is the one
entry point; it takes stacked ``(k, n)`` query rows or single 1-D rows and
returns the values and the gradients in all four parameter vectors. The
duality penalty ("DURA") exists in two variants:

* ``literal`` - ||h||^2 + ||t||^2 + ||h^T R + tau^T||^2 + ||R t||^2 + tau.t,
  the form this model family is usually trained with;
* ``exact``   - the full expansion of
  ||h^||^2 + ||M t^||^2 + ||t^||^2 + ||h^T M||^2 - 4 over the homogeneous
  relation matrix M, which additionally carries (tau.t)^2 and doubles the
  cross term: ... + (tau.t)^2 + 2 tau.t.

The literal form drops the (tau.t)^2 term and halves the cross term
relative to the exact expansion; both are provided because the discrepancy
is real and the two optimize differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import block_grad, block_rotate, block_rotate_t

REG_KINDS = ("none", "Fro", "DURA")
DURA_VARIANTS = ("literal", "exact")


@dataclass
class RegConfig:
    """Which penalty to apply and with what weight."""

    kind: str = "none"
    lam: float = 0.0
    dura_variant: str = "literal"

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise ValueError(f"reg.kind must be one of {REG_KINDS}, got {self.kind!r}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"reg.lambda must be {'finite' if self.lam >= 0 else '>= 0'}, got {self.lam}")
        if self.dura_variant not in DURA_VARIANTS:
            raise ValueError(
                f"reg.dura_variant must be one of {DURA_VARIANTS}, got {self.dura_variant!r}"
            )


def _sq(x):
    return np.sum(x * x, axis=-1)


def fro_terms_batch(H, T, RC, TAU):
    """Frobenius penalty and gradients for stacked query rows.

    Returns (values, d_H, d_T, d_RC, d_TAU) with one row per query.
    """
    values = _sq(H) + _sq(T) + _sq(RC) + _sq(TAU)
    return values, 2.0 * H, 2.0 * T, 2.0 * RC, 2.0 * TAU


def dura_terms_batch(H, T, RC, TAU, variant="literal"):
    """Duality penalty and gradients for stacked query rows.

    U = R^T h + tau (the transformed head row) and W = R t are shared by
    both variants; the variants differ only in how the tau.t coupling
    enters.
    """
    if variant not in DURA_VARIANTS:
        raise ValueError(f"unknown DURA variant {variant!r}")
    U = block_rotate_t(RC, H) + TAU
    W = block_rotate(RC, T)
    tau_t = np.sum(TAU * T, axis=-1)

    values = _sq(H) + _sq(T) + _sq(U) + _sq(W)
    d_H = 2.0 * H + 2.0 * block_rotate(RC, U)
    d_T = 2.0 * T + 2.0 * block_rotate_t(RC, W)
    d_TAU = 2.0 * U
    d_RC = 2.0 * (block_grad(H, U) + block_grad(W, T))

    if variant == "literal":
        values = values + tau_t
        d_T = d_T + TAU
        d_TAU = d_TAU + T
    else:
        values = values + tau_t * tau_t + 2.0 * tau_t
        coeff = (2.0 * tau_t + 2.0)[..., None]
        d_T = d_T + coeff * TAU
        d_TAU = d_TAU + coeff * T
    return values, d_H, d_T, d_RC, d_TAU


def penalty_terms_batch(H, T, RC, TAU, config: RegConfig):
    """Dispatch on config.kind; 'none' contributes exact zeros."""
    if config.kind == "none":
        z = np.zeros(H.shape[:-1])
        return z, np.zeros_like(H), np.zeros_like(T), np.zeros_like(RC), np.zeros_like(TAU)
    if config.kind == "Fro":
        return fro_terms_batch(H, T, RC, TAU)
    return dura_terms_batch(H, T, RC, TAU, config.dura_variant)
