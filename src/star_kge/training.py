"""Full-softmax cross-entropy training with reciprocal queries.

Every train triple (h, r, t) contributes two queries per batch: predict t
among all entities for (h, r, ?) and predict h for (t, r~, ?) where r~ is
the reciprocal relation row. Each query's cross-entropy is weighted by the
frequency weight of its target entity,

    w(e) = w0 * count(e) / max_count + (1 - w0),

counted over train tails for a tail query and over train heads for a
head query. :func:`train` holds the weights as one (2, |E|) table, and a
query reads its weight in row ``rel // |R|``: its relation id gives its
direction (``rel < |R|`` is a tail query). Each query adds lambda times
the regularization penalty of its own (source, relation, target)
parameters. The batch objective is the mean over the 2 * batch_size
queries.

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
transpose. :func:`train` builds one private workspace that holds the score
buffer, the entity gradient and the Adagrad accumulators for every batch;
:func:`batch_loss` called without one allocates its own.
:func:`adagrad_update` gives every flat chunk the same ufunc sequence as a
whole-array pass, so the optimiser step is bitwise that of one; the loss
and the folded gradients differ from a whole-matrix max-shifted step by
rounding.

The step runs on BLAS's thread count ``w`` with BLAS held to one thread
(:mod:`._threads`): the forward GEMM, ``exp`` and ``Z [E, 1]`` in ``w``
row parts, (c * Q)^T Z in ``w`` entity-column parts, and Adagrad and the
entity finiteness sweep in ``w`` chunk or row parts. :func:`train` runs
each epoch's batch loop in one :func:`._threads.lanes` scope, so BLAS is
held and restored once per loop, not once per split pass. Runs at one ``w``
are bitwise repeatable; the GEMM parts may round differently at another
``w``.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import _threads
from .data import TripleStore, reciprocal_queries
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
class BatchGradients:
    """Dense gradients of the batch objective for every parameter matrix."""

    d_entities: np.ndarray
    d_rel_c: np.ndarray
    d_rel_tau: np.ndarray


def _weight_table(store: TripleStore, w0: float) -> np.ndarray:
    """The (2, |E|) frequency weights ``w0 * count / max_count + (1 - w0)``:
    row 0 from the train tail counts, for tail queries, and row 1 from the
    head counts, for head queries. At w0 = 0 every weight is exactly 1.0."""
    counts = np.stack([np.bincount(store.train[:, col], minlength=store.num_entities) for col in (2, 0)])
    return w0 * (counts / counts.max(axis=1, keepdims=True)) + (1.0 - w0)


def _chunks(*arrays: np.ndarray) -> list:
    """Matching flat chunks of at most ``BLOCK_BYTES`` (and at least one
    element) of C-contiguous arrays, or the whole arrays when one is not."""
    if not all(a.flags.c_contiguous for a in arrays):
        return [arrays]
    flat = [a.reshape(-1) for a in arrays]
    step = max(1, BLOCK_BYTES // flat[0].itemsize)
    return [[f[lo : lo + step] for f in flat] for lo in range(0, flat[0].size, step)]


class _Workspace:
    """Private training state for batches of up to ``rows`` triples.

    ``scores`` is the ``2 * rows`` by |E| score buffer, ``grad_t`` the
    ``(n, |E|)`` entity gradient, and ``accumulators`` Adagrad's
    squared-gradient sums in table order, the entity one laid out as the
    ``(n, |E|)`` transpose that :meth:`step` updates. ``overflow_rows``
    counts the query rows that took :func:`batch_loss`'s max-shift fallback;
    :func:`train` resets it at the start of every epoch.
    """

    def __init__(self, table: EmbeddingTable, rows: int):
        ne = table.num_entities
        self.scores = np.empty((2 * rows, ne))
        self.grad_t = np.empty((table.n, ne))
        self.accumulators = (np.zeros((table.n, ne)), np.zeros_like(table.rel_c), np.zeros_like(table.rel_tau))
        self.overflow_rows = 0

    def step(self, table: EmbeddingTable, grads: BatchGradients, lr: float) -> None:
        """Adagrad on every table, then ``enforce_kind``; raises
        :class:`DivergenceError` naming the first table left non-finite."""
        acc_e, acc_c, acc_tau = self.accumulators
        # Adagrad is elementwise, so stepping the contiguous (n, |E|) transposes is bitwise the same
        adagrad_update(table.entity_embeddings.T, grads.d_entities.T, acc_e, lr)
        adagrad_update(table.rel_c, grads.d_rel_c, acc_c, lr)
        adagrad_update(table.rel_tau, grads.d_rel_tau, acc_tau, lr)
        table.enforce_kind()
        ent_t = table.entity_embeddings.T
        if not all(_threads.split(lambda rows: np.isfinite(ent_t[rows]).all(), len(ent_t))):
            raise DivergenceError("non-finite entity_embeddings after update")
        for name in ("rel_c", "rel_tau"):
            if not np.isfinite(getattr(table, name)).all():
                raise DivergenceError(f"non-finite {name} after update")


def batch_loss(
    batch: np.ndarray,
    table: EmbeddingTable,
    config: TrainConfig,
    weights: np.ndarray | None = None,
    *,
    _workspace: _Workspace | None = None,
) -> tuple[float, BatchGradients]:
    """Mean weighted cross-entropy plus penalties over one batch of triples.

    ``weights`` is a (2, |E|) table of per-entity weights, row 0 for tail
    queries and row 1 for head queries (default: uniform 1); a query reads
    its target's weight in row ``rel // |R|``. Returns the scalar loss and
    dense gradients of the mean objective for every parameter matrix.
    ``_workspace`` is private: :func:`train` passes one for batches of at
    least len(batch) triples, to be reused across batches; without it one is
    made for this call. The returned ``d_entities`` is the ``(|E|, n)``
    transpose of its ``grad_t``.

    The softmax is one ``exp`` pass: the forward GEMM multiplies
    ``[Q, -s_t]`` by the table's ``[E, 1]^T`` rows, so each query's scores
    arrive shifted by its target's score, and the backward GEMM
    ``Z @ [E, 1]`` yields the row sums in its last column. A row whose sum
    overflows (a rival beats the target by more than ~709) is recomputed
    alone, shifted by its max, and counted in the workspace's
    ``overflow_rows``. max |score| is computed only for the
    :class:`DivergenceError` message.
    """
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    ws = _workspace if _workspace is not None else _Workspace(table, len(batch))
    ents = table.entity_embeddings
    src, rel, tgt = reciprocal_queries(batch, table.num_relations).T
    nq = len(src)
    w = np.ones(nq) if weights is None else weights[rel // table.num_relations, tgt]

    H = ents[src]
    RC = table.rel_c[rel]
    TAU = table.rel_tau[rel]
    T = ents[tgt]

    Q = block_rotate_t(RC, H) + TAU
    Qh = np.concatenate([Q, -np.einsum("ij,ij->i", Q, T)[:, None]], axis=1)
    scores = ws.scores[:nq]
    ZE = np.empty((nq, table.n + 1))

    def softmax_rows(rows):
        # [Q, -s_t] @ [E, 1]^T is S - s_t, so the target's own exp(0) keeps
        # every row sum >= ~1 and no max pass is needed
        np.matmul(Qh[rows], table._hom_rows, out=scores[rows])
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(scores[rows], out=scores[rows])
            # Z @ [E, 1]: Z E, and in the last column the row sums
            np.matmul(scores[rows], table._hom_rows.T, out=ZE[rows])

    _threads.split(softmax_rows, nq)
    ce = np.log(ZE[:, -1])
    overflow = np.flatnonzero(~np.isfinite(ZE).all(axis=1))
    ws.overflow_rows += len(overflow)
    for i in overflow:
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
    cQ = (c * Q).T
    _threads.split(lambda cols: np.matmul(cQ, scores[:, cols], out=ws.grad_t[:, cols]), table.num_entities)
    d_entities = ws.grad_t.T
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
    chunks = _chunks(param, grad, accumulator)

    def step(part):
        for p, g, acc in chunks[part]:
            acc += g * g
            p -= lr * g / np.sqrt(acc + ADAGRAD_EPS)

    _threads.split(step, len(chunks))


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
    {epoch, mean_loss, valid_mrr, wall_ms, validation_ms, queries_per_s,
    threads, overflow_rows}.
    ``wall_ms`` spans the whole epoch, validation included;
    ``validation_ms`` is the wall time of the validation ``evaluate`` alone,
    None when the epoch ran none; ``queries_per_s`` is the epoch's
    2 * |train| queries over the seconds of its batch loop alone, and
    ``threads`` the worker count that loop split each step over: the lane
    count of the one :func:`._threads.lanes` scope that the loop runs in.
    ``overflow_rows`` is the number of the epoch's query rows in which a
    rival beat the target by more than ~709, so that :func:`batch_loss`
    redid the row shifted by its max.
    ``on_epoch``, when given, is called with each record as soon as its
    epoch ends.
    """
    # looked up at call time, so that a patched star_kge.evaluation.evaluate takes effect
    from .evaluation import evaluate

    if len(store.train) == 0:
        raise ValueError("train split is empty")
    rng = np.random.default_rng(config.seed)
    table = init_embeddings(
        store.num_entities, store.num_relations, config.n, model_kind, config.init_scale, config.seed
    )

    weights = _weight_table(store, config.w0)
    ws = _Workspace(table, min(config.batch_size, len(store.train)))
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
        ws.overflow_rows = 0
        loop_start = time.perf_counter()
        # BLAS stays at one thread between the batches' split passes too
        with _threads.lanes() as workers:
            for start in range(0, len(order), config.batch_size):
                batch = store.train[order[start : start + config.batch_size]]
                try:
                    loss, grads = batch_loss(batch, table, config, weights, _workspace=ws)
                    ws.step(table, grads, config.lr)
                except DivergenceError as exc:
                    raise DivergenceError(f"epoch {epoch}, batch {start // config.batch_size}: {exc}") from None
                loss_sum += loss * 2 * len(batch)
                query_count += 2 * len(batch)
        loop_s = time.perf_counter() - loop_start
        mean_loss = loss_sum / query_count

        valid_mrr = validation_ms = None
        if can_validate and (epoch + 1) % config.eval_every == 0:
            valid_start = time.perf_counter()
            valid_mrr = evaluate("valid", table, store).mrr
            validation_ms = (time.perf_counter() - valid_start) * 1000.0
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
                "validation_ms": validation_ms,
                "queries_per_s": query_count / loop_s,
                "threads": workers,
                "overflow_rows": ws.overflow_rows,
            }
        )
        if on_epoch is not None:
            on_epoch(log[-1])

    if best_table is not None:
        logger.info("best validation MRR %.4f at epoch %d", best_mrr, best_epoch)
        return best_table, log
    return table, log
