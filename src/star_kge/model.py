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

MODEL_KINDS = ("STaR", "TaR", "ComplEx", "DistMult")
_MODEL_KIND_CODES = {k: i for i, k in enumerate(MODEL_KINDS)}

_CKPT_MAGIC = b"STARCKPT"
_CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<8sIIQQB")


def _check_vector(v, n=None, name="vector"):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional")
    if v.shape[0] % 2 != 0:
        raise ValueError(f"{name} length must be even, got {v.shape[0]}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
    return v


@dataclass
class RelationParams:
    """Per-relation parameters: block vector ``r_c`` and translation ``tau``.

    Consecutive pairs (r_c[2k], r_c[2k+1]) form one 2x2 block; both vectors
    have the embedding dimension n (even).
    """

    r_c: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        self.r_c = _check_vector(self.r_c, name="r_c")
        self.tau = _check_vector(self.tau, n=self.r_c.shape[0], name="tau")

    @property
    def n(self) -> int:
        return self.r_c.shape[0]

    def conjugate(self) -> "RelationParams":
        """Negate the off-diagonal block components (complex conjugation)."""
        return RelationParams(_c(self.r_c).conj().view(np.float64), self.tau.copy())

    def scaled(self, alpha: float) -> "RelationParams":
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


def transform_query(h, rel: RelationParams) -> np.ndarray:
    """Map a head vector to the query direction R^T h + tau.

    The score against any tail t is then ``query . t + 1``, so ranking all
    tails is a single matrix-vector product.
    """
    return block_rotate_t(rel.r_c, h) + rel.tau


def score(h, rel: RelationParams, t) -> float:
    """Score one (head, relation, tail) triple: h^T R t + tau . t + 1."""
    h = _check_vector(h, name="h")
    t = _check_vector(t, n=h.shape[0], name="t")
    if rel.n != h.shape[0]:
        raise ValueError(f"relation dimension {rel.n} != entity dimension {h.shape[0]}")
    return float(transform_query(h, rel) @ t) + 1.0


def score_batch(
    table: "EmbeddingTable", head_id: int, rel_id: int, dtype=np.float64
) -> np.ndarray:
    """Score one (head, relation) query against every entity.

    Entry j equals ``score(head, rel, entity_j)``; computed as a single
    matrix-vector product against the entity table. ``dtype=np.float32``
    runs the product in single precision (ranking large tables faster at
    reduced accuracy); everything else in the package stays 64-bit.
    """
    if not 0 <= head_id < table.num_entities:
        raise IndexError(f"head id {head_id} out of range [0, {table.num_entities})")
    if not 0 <= rel_id < table.num_relation_rows:
        raise IndexError(f"relation id {rel_id} out of range [0, {table.num_relation_rows})")
    q = transform_query(table.entity_embeddings[head_id], table.relation(rel_id))
    if dtype == np.float32:
        ents = table.entity_embeddings.astype(np.float32)
        return ents @ q.astype(np.float32) + np.float32(1.0)
    return table.entity_embeddings @ q + 1.0


def translation_matrix(tau) -> np.ndarray:
    """Homogeneous-coordinate matrix [[I, tau], [0, 1]] adding tau to a point."""
    tau = np.asarray(tau, dtype=np.float64)
    n = tau.shape[0]
    m = np.eye(n + 1)
    m[:n, n] = tau
    return m


def apply_translation_matrix(x, tau) -> np.ndarray:
    """Translate x by tau through the homogeneous matrix product.

    Equivalent to ``x + tau``; exists to exercise the matrix route. The
    trailing homogeneous coordinate stays exactly 1.
    """
    x = np.asarray(x, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if x.shape != tau.shape:
        raise ValueError("x and tau must have equal length")
    xh = np.concatenate([x, [1.0]])
    y = translation_matrix(tau) @ xh
    return y[:-1]


def materialize_star_matrix(rel: RelationParams) -> np.ndarray:
    """Build the explicit (n+1) x (n+1) relation matrix [[R, 0], [tau^T, 1]].

    Test oracle and pattern-check substrate only; scoring goes through the
    vectorized kernel.
    """
    n = rel.n
    m = np.zeros((n + 1, n + 1))
    a, b = rel.r_c[0::2], rel.r_c[1::2]
    idx = np.arange(0, n, 2)
    m[idx, idx] = a
    m[idx, idx + 1] = -b
    m[idx + 1, idx] = b
    m[idx + 1, idx + 1] = a
    m[n, :n] = rel.tau
    m[n, n] = 1.0
    return m


def score_via_matrix(h, rel: RelationParams, t) -> float:
    """Score through the materialized matrix: [h^T, 1] M [t; 1]."""
    hh = np.concatenate([np.asarray(h, dtype=np.float64), [1.0]])
    tt = np.concatenate([np.asarray(t, dtype=np.float64), [1.0]])
    return float(hh @ materialize_star_matrix(rel) @ tt)


def score_gradients(h, rel: RelationParams, t) -> ScoreGradient:
    """Exact partial derivatives of :func:`score` in all four parameter vectors."""
    h = _check_vector(h, name="h")
    t = _check_vector(t, n=h.shape[0], name="t")
    if rel.n != h.shape[0]:
        raise ValueError(f"relation dimension {rel.n} != entity dimension {h.shape[0]}")
    return ScoreGradient(
        block_rotate(rel.r_c, t), transform_query(h, rel), block_grad(h, t), t.copy()
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
    """

    def __init__(self, entity_embeddings, rel_c, rel_tau, num_relations, model_kind="STaR"):
        if model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {model_kind!r}")
        self.entity_embeddings = np.asarray(entity_embeddings, dtype=np.float64)
        self.rel_c = np.asarray(rel_c, dtype=np.float64)
        self.rel_tau = np.asarray(rel_tau, dtype=np.float64)
        self.num_relations = int(num_relations)
        self.model_kind = model_kind
        n = self.entity_embeddings.shape[1]
        if n % 2 != 0:
            raise ValueError(f"embedding dimension must be even, got {n}")
        if self.rel_c.shape != self.rel_tau.shape or self.rel_c.shape[1] != n:
            raise ValueError("relation parameter matrices must be (rows, n) like entities")
        if self.rel_c.shape[0] != 2 * self.num_relations:
            raise ValueError("expected one relation row per original and reciprocal relation")

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
            self.entity_embeddings.copy(),
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

    def save_checkpoint(self, path, epoch: int = 0, config_hash: str = "") -> None:
        """Write the binary checkpoint plus its JSON sidecar.

        Layout: fixed little-endian header (magic, version, n, |E|, relation
        rows, model kind code) followed by the row-major float64 entity,
        block and translation matrices.
        """
        path = Path(path)
        header = _CKPT_HEADER.pack(
            _CKPT_MAGIC,
            _CKPT_VERSION,
            self.n,
            self.num_entities,
            self.num_relation_rows,
            _MODEL_KIND_CODES[self.model_kind],
        )
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(self.entity_embeddings, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.rel_c, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.rel_tau, dtype="<f8").tobytes())
        sidecar = {
            "config_hash": config_hash,
            "epoch": int(epoch),
            "model_kind": self.model_kind,
            "n": self.n,
            "num_entities": self.num_entities,
            "num_relations": self.num_relations,
        }
        Path(str(path) + ".json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

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
        ent = body[: ne * n].reshape(ne, n).copy()
        rc = body[ne * n : ne * n + nrows * n].reshape(nrows, n).copy()
        tau = body[ne * n + nrows * n :].reshape(nrows, n).copy()
        if nrows % 2 != 0:
            raise ValueError(f"{path}: relation row count {nrows} is not even")
        table = cls(ent, rc, tau, nrows // 2, kinds[kind_code])
        sidecar_path = Path(str(path) + ".json")
        sidecar = {}
        if sidecar_path.exists():
            sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
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
    if init_scale <= 0:
        raise ValueError("init_scale must be positive")
    rng = np.random.default_rng(seed)
    ent = rng.normal(0.0, init_scale, size=(num_entities, n))
    rc = rng.normal(0.0, init_scale, size=(2 * num_relations, n))
    tau = np.zeros((2 * num_relations, n))
    table = EmbeddingTable(ent, rc, tau, num_relations, model_kind)
    table.enforce_kind()
    return table
