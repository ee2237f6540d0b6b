"""Relation parameterization and the bilinear scoring kernel.

A relation is an (n+1) x (n+1) homogeneous-coordinate matrix

    [[R, 0],
     [tau^T, 1]]

where R is block-diagonal with 2x2 blocks [[a, -b], [b, a]] (a rotation
scaled by sqrt(a^2 + b^2)) built from the interleaved parameter vector
``r_c``, and ``tau`` is a translation offset acting on the head side.
The score of (h, r, t) is [h^T, 1] M [t; 1], which unfolds to

    h^T R t + tau . t + 1.

Each block is the complex number a + ib, and R acting on the pair
(v1, v2) is the complex product (a + ib)(v1 + i v2). The kernels
(:func:`block_rotate`, :func:`block_rotate_t`, :func:`block_grad`) therefore
work on zero-copy ``complex128`` views of the interleaved float64 vectors.
:func:`materialize_star_matrix` builds the explicit real matrix without
that view and stays the independent test oracle and the substrate for the
relation-pattern checks.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._files import replacing

MODEL_KINDS = ("STaR", "TaR", "ComplEx", "DistMult")
_MODEL_KIND_CODES = {k: i for i, k in enumerate(MODEL_KINDS)}

_CKPT_MAGIC = b"STARCKPT"
_CKPT_VERSION = 2
_CKPT_HEADER = struct.Struct("<8sIIQQB")

#: entity rows per block when copying into or drawing the (|E|, n) view: one
#: whole-table transposing copy is ~3x slower
_COPY_ROWS = 2048


def _check_vector(v, n=None, name="vector"):
    """v as float64: one vector or a stack of them, of even length (n if given)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0:
        raise ValueError(f"{name} must be a vector or a stack of vectors")
    if v.shape[-1] % 2 != 0:
        raise ValueError(f"{name} length must be even, got {v.shape[-1]}")
    if n is not None and v.shape[-1] != n:
        raise ValueError(f"{name} has length {v.shape[-1]}, expected {n}")
    return v


@dataclass
class RelationParams:
    """Per-relation parameters: block vector ``r_c`` and translation ``tau``.

    Consecutive pairs (r_c[2k], r_c[2k+1]) form one 2x2 block; both vectors
    have the embedding dimension n (even). Both may also be (k, n) arrays,
    a stack of k relations with one relation per row.
    """

    r_c: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        self.r_c = _check_vector(self.r_c, name="r_c")
        self.tau = _check_vector(self.tau, n=self.n, name="tau")
        if self.tau.shape != self.r_c.shape:
            raise ValueError(f"tau has shape {self.tau.shape}, r_c {self.r_c.shape}")

    @property
    def n(self) -> int:
        return self.r_c.shape[-1]

    def conjugate(self) -> "RelationParams":
        """Negate the off-diagonal block components (complex conjugation)."""
        return RelationParams(_c(self.r_c).conj().view(np.float64), self.tau.copy())

    def scaled(self, alpha) -> "RelationParams":
        """Both vectors times alpha: one number, or one per row of a stack."""
        alpha = np.asarray(alpha)[..., None]
        return RelationParams(alpha * self.r_c, alpha * self.tau)

    def with_zero_tau(self) -> "RelationParams":
        return RelationParams(self.r_c.copy(), np.zeros_like(self.tau))


@dataclass
class ScoreGradient:
    """Partial derivatives of the score with respect to each parameter vector."""

    d_h: np.ndarray
    d_t: np.ndarray
    d_r_c: np.ndarray
    d_tau: np.ndarray


def _c(x):
    """Complex view of an interleaved float64 array; copies only when x is
    not already C-contiguous float64 (``.view`` needs a contiguous last axis)."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.complex128)


def block_rotate(r_c, v):
    """Apply the block matrix R to v: per block (a + ib)(v1 + i v2)."""
    return (_c(r_c) * _c(v)).view(np.float64)


def block_rotate_t(r_c, v):
    """Apply R transposed to v: per block (a - ib)(v1 + i v2)."""
    return (_c(r_c).conj() * _c(v)).view(np.float64)


def block_grad(x, y):
    """Gradient of x^T R y with respect to r_c: per block x * conj(y)."""
    return (_c(x) * _c(y).conj()).view(np.float64)


def transform_query(h, r_c, tau) -> np.ndarray:
    """Map head vectors to the query direction R^T h + tau.

    The score against any tail t is then ``query . t + 1``, so ranking all
    tails is a single matrix product. ``h``, ``r_c`` and ``tau`` are single
    vectors or matching rows of a batch.
    """
    return block_rotate_t(r_c, h) + tau


def _check_triple(h, rel: RelationParams, t):
    h = _check_vector(h, name="h")
    t = _check_vector(t, n=h.shape[-1], name="t")
    if rel.n != h.shape[-1]:
        raise ValueError(f"relation dimension {rel.n} != entity dimension {h.shape[-1]}")
    return h, t


def score(h, rel: RelationParams, t):
    """Score one (head, relation, tail) triple: h^T R t + tau . t + 1.

    Stacked rows of h, t and the relation score row by row (their leading
    axes broadcast) into an array; one triple gives a float.
    """
    h, t = _check_triple(h, rel, t)
    s = np.vecdot(transform_query(h, rel.r_c, rel.tau), t) + 1.0
    return float(s) if s.ndim == 0 else s


def _check_range(ids, bound, what):
    bad = (ids < 0) | (ids >= bound)
    if bad.any():
        raise IndexError(f"{what} id {ids.flat[np.argmax(bad)]} out of range [0, {bound})")


def homogeneous(x) -> np.ndarray:
    """Append the homogeneous coordinate 1 along the last axis of x."""
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def _query_rows(table: "EmbeddingTable", heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
    """The ``(k, n+1)`` rows ``[q, 1]``, ``q = transform_query(...)``, of k
    head and relation ids, range-checked first: a head or relation id outside
    the table raises IndexError."""
    _check_range(heads, table.num_entities, "head")
    _check_range(rels, table.num_relation_rows, "relation")
    return homogeneous(transform_query(table.entity_embeddings[heads], table.rel_c[rels], table.rel_tau[rels]))


def score_batch(table: "EmbeddingTable", head_id, rel_id, *, _tile=None) -> np.ndarray:
    """Score (head, relation) queries against every entity.

    With scalar ids, entry j equals ``score(head, rel, entity_j)``. With
    arrays of k head ids and k relation ids, row i of the ``(k, |E|)`` result
    scores query i. The scores come from one matrix product in homogeneous
    coordinates, ``[q, 1] @ [E, 1]^T`` with ``q = transform_query(...)``,
    against the ``(n+1, |E|)`` rows the table stores, so the score's ``+ 1``
    costs no second pass. ``_tile`` is private: ``filtered_rank`` passes
    ``(query, cols, out)``, its block's ``[q, 1]`` rows from
    :func:`_query_rows`, an entity column slice and the tile's view of its
    slot's tile buffer. The call is then that one GEMM, written into
    ``out``, and returns None. The ids are not read.
    """
    if _tile is not None:
        query, cols, out = _tile
        np.matmul(query, table._hom_rows[:, cols], out=out)
        return None
    heads, rels = np.asarray(head_id), np.asarray(rel_id)
    if heads.shape != rels.shape or heads.ndim > 1:
        raise ValueError(f"head ids {heads.shape} and relation ids {rels.shape} must be matching scalars or 1-D")
    scores = _query_rows(table, np.atleast_1d(heads), np.atleast_1d(rels)) @ table._hom_rows
    return scores[0] if heads.ndim == 0 else scores


def materialize_star_matrix(rel: RelationParams) -> np.ndarray:
    """Build the explicit (n+1) x (n+1) relation matrix [[R, 0], [tau^T, 1]].

    A (k, n) stack of relations gives the (k, n+1, n+1) stack of their
    matrices. Test oracle and pattern-check substrate only; scoring goes
    through the vectorized kernel.
    """
    n = rel.n
    m = np.zeros(rel.r_c.shape[:-1] + (n + 1, n + 1))
    a, b = rel.r_c[..., 0::2], rel.r_c[..., 1::2]
    idx = np.arange(0, n, 2)
    m[..., idx, idx] = a
    m[..., idx, idx + 1] = -b
    m[..., idx + 1, idx] = b
    m[..., idx + 1, idx + 1] = a
    m[..., n, :n] = rel.tau
    m[..., n, n] = 1.0
    return m


def score_gradients(h, rel: RelationParams, t) -> ScoreGradient:
    """Exact partial derivatives of :func:`score` in all four parameter
    vectors; stacked rows give one row of each derivative per triple."""
    h, t = _check_triple(h, rel, t)
    return ScoreGradient(
        block_rotate(rel.r_c, t), transform_query(h, rel.r_c, rel.tau), block_grad(h, t), t.copy()
    )


class EmbeddingTable:
    """Dense entity and relation parameter matrices for one model.

    Relation rows cover originals and reciprocals: row ``r`` holds relation
    r, row ``r + num_relations`` its reciprocal, each with independent
    parameters. ``model_kind`` restricts the parameterization:

    * STaR    - unconstrained blocks plus translation,
    * TaR     - unit-norm blocks (pure rotation) plus translation,
    * ComplEx - unconstrained blocks, translation pinned to zero,
    * DistMult- diagonal blocks only, translation pinned to zero.

    Entities are stored once as ``[E, 1]^T``: a C-order (n+1, |E|) array
    whose last row is 1. ``entity_embeddings`` is the (|E|, n) view of its
    first n rows; assigning to it copies into them.
    """

    def __init__(self, entity_embeddings, rel_c, rel_tau, num_relations, model_kind="STaR"):
        if model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {model_kind!r}")
        ne, n = np.shape(entity_embeddings)
        if ne < 1:
            raise ValueError(f"a table needs at least one entity, got {ne}")
        if n % 2 != 0 or n <= 0:
            raise ValueError(f"embedding dimension must be positive and even, got {n}")
        self._hom_rows = np.ones((n + 1, ne))
        self.entity_embeddings = entity_embeddings
        self.rel_c = np.asarray(rel_c, dtype=np.float64)
        self.rel_tau = np.asarray(rel_tau, dtype=np.float64)
        self.num_relations = int(num_relations)
        self.model_kind = model_kind
        if self.rel_c.shape != self.rel_tau.shape or self.rel_c.shape[1] != n:
            raise ValueError("relation parameter matrices must be (rows, n) like entities")
        if self.rel_c.shape[0] != 2 * self.num_relations:
            raise ValueError("expected one relation row per original and reciprocal relation")

    @property
    def entity_embeddings(self) -> np.ndarray:
        return self._hom_rows[:-1].T

    @entity_embeddings.setter
    def entity_embeddings(self, value) -> None:
        value = np.broadcast_to(value, (self.num_entities, self.n))
        for lo in range(0, len(value), _COPY_ROWS):
            self.entity_embeddings[lo : lo + _COPY_ROWS] = value[lo : lo + _COPY_ROWS]

    @property
    def n(self) -> int:
        return self.entity_embeddings.shape[1]

    @property
    def num_entities(self) -> int:
        return self.entity_embeddings.shape[0]

    @property
    def num_relation_rows(self) -> int:
        return self.rel_c.shape[0]

    def relation(self, rel_id: int) -> RelationParams:
        return RelationParams(self.rel_c[rel_id], self.rel_tau[rel_id])

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(
            self.entity_embeddings,
            self.rel_c.copy(),
            self.rel_tau.copy(),
            self.num_relations,
            self.model_kind,
        )

    def enforce_kind(self) -> None:
        """Project parameters back onto the model_kind constraint set."""
        if self.model_kind in ("ComplEx", "DistMult"):
            self.rel_tau[:] = 0.0
        if self.model_kind == "DistMult":
            self.rel_c[:, 1::2] = 0.0
        if self.model_kind == "TaR":
            blocks = self.rel_c.reshape(self.rel_c.shape[0], -1, 2)
            norms = np.linalg.norm(blocks, axis=2, keepdims=True)
            np.maximum(norms, 1e-12, out=norms)
            blocks /= norms

    # checkpoint io ---------------------------------------------------------

    def save_checkpoint(self, path, epoch: int = 0, config_hash: str = "", epochs_run: int | None = None) -> None:
        """Write the binary checkpoint plus its JSON sidecar.

        The sidecar's ``epoch`` is how many epochs the saved table trained,
        and ``epochs_run`` how many the saving run made (default ``epoch``).

        Layout: fixed little-endian header (magic, version, n, |E|, relation
        rows, model kind code), the one record of shape and kind, followed by
        the float64 arrays as the table stores them: the (n, |E|) entity
        rows, then the block and translation matrices. Both files are
        written in full through :func:`~star_kge._files.replacing` before
        the binary and then the sidecar are renamed over their targets, so
        a save that fails part way leaves the previous checkpoint whole.
        """
        path = Path(path)
        sidecar_path = Path(str(path) + ".json")
        header = _CKPT_HEADER.pack(
            _CKPT_MAGIC,
            _CKPT_VERSION,
            self.n,
            self.num_entities,
            self.num_relation_rows,
            _MODEL_KIND_CODES[self.model_kind],
        )
        sidecar = {
            "config_hash": config_hash,
            "epoch": int(epoch),
            "epochs_run": int(epoch if epochs_run is None else epochs_run),
        }
        # the inner file, the binary, is renamed first, once both are written
        with replacing(sidecar_path, encoding="utf-8") as side, replacing(path, "wb") as fh:
            fh.write(header)
            for part in (self._hom_rows[:-1], self.rel_c, self.rel_tau):
                fh.write(np.ascontiguousarray(part, dtype="<f8"))
            side.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
            side.flush()  # so that a full disk fails before either rename

    @classmethod
    def load_checkpoint(cls, path) -> tuple["EmbeddingTable", dict]:
        path = Path(path)
        raw = path.read_bytes()
        if len(raw) < _CKPT_HEADER.size:
            raise ValueError(f"{path}: truncated checkpoint")
        magic, version, n, ne, nrows, kind_code = _CKPT_HEADER.unpack_from(raw)
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        if version != _CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        kinds = {v: k for k, v in _MODEL_KIND_CODES.items()}
        if kind_code not in kinds:
            raise ValueError(f"{path}: unknown model kind code {kind_code}")
        expected = _CKPT_HEADER.size + 8 * (ne * n + 2 * nrows * n)
        if len(raw) != expected:
            raise ValueError(f"{path}: size {len(raw)} != expected {expected}")
        body = np.frombuffer(raw, dtype="<f8", offset=_CKPT_HEADER.size)
        ent = body[: ne * n].reshape(n, ne).T
        rc = body[ne * n : ne * n + nrows * n].reshape(nrows, n).copy()
        tau = body[ne * n + nrows * n :].reshape(nrows, n).copy()
        if nrows % 2 != 0:
            raise ValueError(f"{path}: relation row count {nrows} is not even")
        table = cls(ent, rc, tau, nrows // 2, kinds[kind_code])
        sidecar_path = Path(str(path) + ".json")
        sidecar = {}
        if sidecar_path.exists():
            try:
                sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
            except ValueError as exc:  # malformed JSON or not UTF-8
                raise ValueError(f"{sidecar_path}: {exc}") from exc
        return table, sidecar


def init_embeddings(
    num_entities: int,
    num_relations: int,
    n: int,
    model_kind: str = "STaR",
    init_scale: float = 1e-3,
    seed: int = 0,
) -> EmbeddingTable:
    """Draw a fresh table: entities and blocks ~ N(0, init_scale^2), tau = 0.

    Deterministic under a fixed seed. Kind constraints are applied after the
    draw (TaR blocks renormalized, DistMult off-diagonals zeroed).
    """
    if n % 2 != 0 or n <= 0:
        raise ValueError(f"embedding dimension must be positive and even, got {n}")
    if not 0 < init_scale < np.inf:
        raise ValueError(f"init_scale must be {'finite' if init_scale > 0 else 'positive'}, got {init_scale}")
    rng = np.random.default_rng(seed)
    rows = 2 * num_relations
    zeros = np.broadcast_to(0.0, (num_entities, n))
    table = EmbeddingTable(zeros, np.empty((rows, n)), np.zeros((rows, n)), num_relations, model_kind)
    # row blocks of a C-order draw take the generator's stream in the same
    # order, so this is the one-shot (|E|, n) draw without its temporary
    ent = table.entity_embeddings
    for lo in range(0, num_entities, _COPY_ROWS):
        block = ent[lo : lo + _COPY_ROWS]
        block[...] = rng.normal(0.0, init_scale, size=block.shape)
    table.rel_c[:] = rng.normal(0.0, init_scale, size=(rows, n))
    table.enforce_kind()
    return table
