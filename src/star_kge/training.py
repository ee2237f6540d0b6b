"""Full-softmax cross-entropy training with reciprocal queries.

Every train triple (h, r, t) contributes two queries per batch: predict t
among all entities for (h, r, ?) and predict h for (t, r~, ?) where r~ is
the reciprocal relation row. Each query's cross-entropy is weighted by the
frequency weight of its target entity,

    w(e) = w0 * count(e) / max_count + (1 - w0),

and each query adds lambda times the regularization penalty of its own
(source, relation, target) parameters. The batch objective is the mean
over the 2 * batch_size queries.

A training step makes one pass over the 2 * batch_size x |E| score
matrix besides the GEMMs: one in-place ``exp``. The table stores its
entities as [E, 1]^T, so the forward GEMM [Q, -s_t] [E, 1]^T, with
s_t = Q . E[tgt] from 2 * batch_size dot products, yields S - s_t: each
query is shifted by its own target's score, not its max, and the target's
exp(0) keeps every row sum from underflowing. This leaves
Z = exp(S - s_t), and the cross-entropy is log(rowsum(Z)). A row in which a
rival beats the target by more than ~709 overflows; it alone is recomputed
shifted by its max. With a = w / (2 * batch_size) and c = a / rowsum(Z),
the score gradient is dS = diag(c) Z - diag(a) onehot(tgt), and it is
never formed:

    dS^T Q = Z^T (c * Q) - scatter_tgt(a * Q)
    dS E   = c * (Z E) - a * E[tgt]

and only the 2 * batch_size x n operands are scaled. The backward GEMM
Z [E, 1] gives Z E and, in its last column, the row sums, so no pass sums
Z. The GEMMs read the table's (n+1) x |E| rows and Z as stored; the entity
gradient (c * Q)^T Z is written n x |E| and ``d_entities`` is its
transpose. :func:`train` reuses the score and entity-gradient buffers for
every batch. :func:`adagrad_update` gives every flat chunk the same ufunc
sequence as a whole-array pass, so the optimiser step is bitwise that of
one; the loss and the folded gradients differ from a whole-matrix
max-shifted step by rounding.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .data import TripleStore, entity_frequency, reciprocal_queries
from .model import EmbeddingTable, block_grad, block_rotate, block_rotate_t, init_embeddings
from .regularization import RegConfig, penalty_terms_batch

logger = logging.getLogger(__name__)

OPTIMIZERS = ("Adagrad",)
ADAGRAD_EPS = 1e-10

#: bytes of one flat chunk per array in the Adagrad pass (128 KB: with its temporaries, inside L2)
BLOCK_BYTES = 2**17


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or non-finite parameters."""


@dataclass
class TrainConfig:
    n: int
    epochs: int
    lr: float = 0.1
    batch_size: int = 100
    w0: float = 0.0
    reg: RegConfig = field(default_factory=RegConfig)
    seed: int = 0
    optimizer: str = "Adagrad"
    eval_every: int = 0
    init_scale: float = 1e-3

    def __post_init__(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError(f"n must be positive and even, got {self.n}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be {'finite' if self.lr > 0 else 'positive'}, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.w0 <= 1.0:
            raise ValueError(f"w0 must lie in [0, 1], got {self.w0}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.eval_every < 0:
            raise ValueError("eval_every must be >= 0 (0 disables validation)")
        if not 0 < self.init_scale < np.inf:
            raise ValueError(
                f"init_scale must be {'finite' if self.init_scale > 0 else 'positive'}, got {self.init_scale}"
            )


@dataclass
class OptimizerState:
    """Adagrad accumulators (elementwise squared-gradient sums), laid out like their tables."""

    acc_entities: np.ndarray
    acc_rel_c: np.ndarray
    acc_rel_tau: np.ndarray

    @classmethod
    def for_table(cls, table: EmbeddingTable) -> "OptimizerState":
        return cls(
            np.zeros_like(table.entity_embeddings),
            np.zeros_like(table.rel_c),
            np.zeros_like(table.rel_tau),
        )


@dataclass
class BatchGradients:
    """Dense gradients of the batch objective for every parameter matrix."""

    d_entities: np.ndarray
    d_rel_c: np.ndarray
    d_rel_tau: np.ndarray


def tail_weight(entity_id, counts: np.ndarray, w0: float):
    """Frequency weight w0 * count / max_count + (1 - w0).

    ``counts`` comes from :func:`star_kge.data.entity_frequency` (tail counts
    for tail queries, head counts for head queries).
    """
    counts = np.asarray(counts)
    if counts.size == 0:
        raise ValueError("empty entity counts")
    max_count = counts.max()
    if max_count < 1:
        raise ValueError("entity counts must contain at least one appearance")
    return w0 * (counts[entity_id] / max_count) + (1.0 - w0)


def _chunks(*arrays: np.ndarray) -> list:
    """Matching flat chunks of at most ``BLOCK_BYTES`` (and at least one
    element) of C-contiguous arrays, or the whole arrays when one is not."""
    if not all(a.flags.c_contiguous for a in arrays):
        return [arrays]
    flat = [a.reshape(-1) for a in arrays]
    step = max(1, BLOCK_BYTES // flat[0].itemsize)
    return [[f[lo : lo + step] for f in flat] for lo in range(0, flat[0].size, step)]


def batch_loss(
    batch: np.ndarray,
    table: EmbeddingTable,
    config: TrainConfig,
    tail_weights: np.ndarray | None = None,
    head_weights: np.ndarray | None = None,
    *,
    _scores: np.ndarray | None = None,
    _grad_t: np.ndarray | None = None,
) -> tuple[float, BatchGradients]:
    """Mean weighted cross-entropy plus penalties over one batch of triples.

    ``tail_weights`` / ``head_weights`` are per-entity weight arrays
    (default: uniform 1). Returns the scalar loss and dense gradients of the
    mean objective for every parameter matrix. ``_scores`` (at least
    2 * len(batch) rows by |E|) and ``_grad_t`` (n by |E|, C order) are
    private float64 work buffers that :func:`train` reuses across batches;
    each one not given is allocated. The returned ``d_entities`` is the
    ``(|E|, n)`` transpose of ``_grad_t``.

    The softmax is one ``exp`` pass: the forward GEMM multiplies
    ``[Q, -s_t]`` by the table's ``[E, 1]^T`` rows, so each query's scores
    arrive shifted by its target's score, and the backward GEMM
    ``Z @ [E, 1]`` yields the row sums in its last column. A row whose sum
    overflows (a rival beats the target by more than ~709) is recomputed
    alone, shifted by its max. max |score| is computed only for the
    :class:`DivergenceError` message.
    """
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    ents = table.entity_embeddings
    src, rel, tgt = reciprocal_queries(batch, table.num_relations).T
    nq = len(src)

    if tail_weights is None and head_weights is None:
        w = np.ones(nq)
    else:
        tw = np.ones(table.num_entities) if tail_weights is None else tail_weights
        hw = np.ones(table.num_entities) if head_weights is None else head_weights
        m = len(batch)
        w = np.concatenate([tw[tgt[:m]], hw[tgt[m:]]])

    H = ents[src]
    RC = table.rel_c[rel]
    TAU = table.rel_tau[rel]
    T = ents[tgt]

    # [Q, -s_t] @ [E, 1]^T is S - s_t, so the target's own exp(0) keeps
    # every row sum >= ~1 and no max pass is needed
    Q = block_rotate_t(RC, H) + TAU
    Qh = np.concatenate([Q, -np.einsum("ij,ij->i", Q, T)[:, None]], axis=1)
    scores = np.empty((nq, len(ents))) if _scores is None else _scores[:nq]
    np.matmul(Qh, table._hom_rows, out=scores)
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(scores, out=scores)
        # Z @ [E, 1]: Z E, and in the last column the row sums
        ZE = scores @ table._hom_rows.T
    ce = np.log(ZE[:, -1])
    for i in np.flatnonzero(~np.isfinite(ZE).all(axis=1)):
        # a rival beat the target by more than ~709, so exp, the row sum or
        # Z E overflowed: redo this row shifted by its own max
        row = np.matmul(Qh[i], table._hom_rows, out=scores[i])
        smax = row.max()
        row -= smax
        np.exp(row, out=row)
        ZE[i] = row @ table._hom_rows.T
        ce[i] = smax + np.log(ZE[i, -1])

    reg_vals, reg_dH, reg_dT, reg_dRC, reg_dTAU = penalty_terms_batch(H, T, RC, TAU, config.reg)
    lam = config.reg.lam
    loss = float((w @ ce + lam * reg_vals.sum()) / nq)
    if not np.isfinite(loss):
        max_abs_score = np.abs(np.matmul(Q, ents.T, out=scores), out=scores).max()
        raise DivergenceError(
            f"non-finite batch loss (max |score| = {max_abs_score:.3e}); "
            "lower the learning rate or raise the regularization weight"
        )

    # d loss / d scores is diag(c) Z - diag(a) onehot(tgt); the backward
    # GEMMs read Z as it is and the small operands carry c and a
    a = (w / nq)[:, None]
    c = a / ZE[:, -1:]
    d_entities = np.matmul((c * Q).T, scores, out=_grad_t).T
    V = c * ZE[:, :-1] - a * T
    d_src = block_rotate(RC, V)
    d_RC = block_grad(H, V)
    d_TAU = V

    scale = lam / nq
    np.add.at(d_entities, src, d_src + scale * reg_dH)
    np.add.at(d_entities, tgt, scale * reg_dT - a * Q)
    d_rel_c = np.zeros_like(table.rel_c)
    d_rel_tau = np.zeros_like(table.rel_tau)
    np.add.at(d_rel_c, rel, d_RC + scale * reg_dRC)
    np.add.at(d_rel_tau, rel, d_TAU + scale * reg_dTAU)
    return loss, BatchGradients(d_entities, d_rel_c, d_rel_tau)


def adagrad_update(param: np.ndarray, grad: np.ndarray, accumulator: np.ndarray, lr: float):
    """In-place Adagrad step: acc += g^2; param -= lr * g / sqrt(acc + eps), in flat chunks."""
    if param.shape != grad.shape or param.shape != accumulator.shape:
        raise ValueError("param, grad and accumulator shapes must match")
    for p, g, acc in _chunks(param, grad, accumulator):
        acc += g * g
        p -= lr * g / np.sqrt(acc + ADAGRAD_EPS)


def _apply_updates(table, grads, state, config):
    # Adagrad is elementwise, so stepping the contiguous (n, |E|) transposes is bitwise the same
    adagrad_update(table.entity_embeddings.T, grads.d_entities.T, state.acc_entities.T, config.lr)
    adagrad_update(table.rel_c, grads.d_rel_c, state.acc_rel_c, config.lr)
    adagrad_update(table.rel_tau, grads.d_rel_tau, state.acc_rel_tau, config.lr)


def train(
    store: TripleStore,
    config: TrainConfig,
    model_kind: str = "STaR",
    on_epoch: Callable[[dict], None] | None = None,
) -> tuple[EmbeddingTable, list[dict]]:
    """Train a fresh table on the store's train split.

    Shuffles triples each epoch under the config seed, runs filtered
    validation every ``eval_every`` epochs (when a valid split exists) and
    returns the checkpoint with the best validation MRR, or the final table
    when validation never ran. The log holds one record per epoch:
    {epoch, mean_loss, valid_mrr, wall_ms}; ``on_epoch``, when given, is
    called with each record as soon as its epoch ends.
    """
    from .evaluation import evaluate  # local import to avoid a module cycle

    if len(store.train) == 0:
        raise ValueError("train split is empty")
    rng = np.random.default_rng(config.seed)
    table = init_embeddings(
        store.num_entities, store.num_relations, config.n, model_kind, config.init_scale, config.seed
    )
    state = OptimizerState.for_table(table)

    if config.w0 > 0.0:
        tail_counts, _ = entity_frequency(store, "tail")
        head_counts, _ = entity_frequency(store, "head")
        tail_w = tail_weight(np.arange(store.num_entities), tail_counts, config.w0)
        head_w = tail_weight(np.arange(store.num_entities), head_counts, config.w0)
    else:
        tail_w = head_w = None

    scores = np.empty((2 * min(config.batch_size, len(store.train)), store.num_entities))
    grad_t = np.empty((config.n, store.num_entities))
    can_validate = config.eval_every > 0 and len(store.valid) > 0
    best_mrr = -np.inf
    best_table = None
    best_epoch = -1
    log: list[dict] = []

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(store.train))
        loss_sum = 0.0
        query_count = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = store.train[idx]
            try:
                loss, grads = batch_loss(batch, table, config, tail_w, head_w, _scores=scores, _grad_t=grad_t)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"epoch {epoch}, batch {start // config.batch_size}: {exc}"
                ) from None
            _apply_updates(table, grads, state, config)
            table.enforce_kind()
            for name in ("entity_embeddings", "rel_c", "rel_tau"):
                if not np.isfinite(getattr(table, name)).all():
                    raise DivergenceError(
                        f"epoch {epoch}, batch {start // config.batch_size}: "
                        f"non-finite {name} after update"
                    )
            loss_sum += loss * 2 * len(batch)
            query_count += 2 * len(batch)
        mean_loss = loss_sum / query_count

        valid_mrr = None
        if can_validate and (epoch + 1) % config.eval_every == 0:
            valid_mrr = evaluate("valid", table, store).mrr
            if valid_mrr > best_mrr:
                best_mrr = valid_mrr
                best_table = table.copy()
                best_epoch = epoch
        log.append(
            {
                "epoch": epoch,
                "mean_loss": mean_loss,
                "valid_mrr": valid_mrr,
                "wall_ms": (time.perf_counter() - t0) * 1000.0,
            }
        )
        if on_epoch is not None:
            on_epoch(log[-1])

    if best_table is not None:
        logger.info("best validation MRR %.4f at epoch %d", best_mrr, best_epoch)
        return best_table, log
    return table, log
