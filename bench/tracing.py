"""Outside-in layer tracing: spans around the package's own functions.

The tracer replaces module-level names that the package's callers look up
at call time (``star_kge.training.batch_loss`` is looked up by ``train`` on
every batch) and methods of ``EmbeddingTable`` with wrappers that record a
span, and restores the originals afterwards. The package itself is never
edited. Spans stay in memory; :func:`layer_samples` turns them into the
per-layer samples, where a span's self time is its duration minus that of
its direct child spans (calls run on one thread, so children never overlap).

A wrapped name that the package no longer defines is reported as absent,
so a refactor that deletes a function shows up as missing samples, not as
a crash of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

#: (module, attribute path, span name) of every wrapped callable
WRAPPED = (
    ("star_kge.training", "batch_loss", "training.batch_loss"),
    ("star_kge.training", "penalty_terms_batch", "regularization.penalty"),
    ("star_kge.training", "block_rotate", "model.block_rotate"),
    ("star_kge.training", "block_rotate_t", "model.block_rotate_t"),
    ("star_kge.training", "adagrad_update", "training.adagrad_update"),
    ("star_kge.evaluation", "filtered_rank", "evaluation.filtered_rank"),
    ("star_kge.evaluation", "score_batch", "model.score_batch"),
    ("star_kge.model", "EmbeddingTable.enforce_kind", "model.enforce_kind"),
    ("star_kge.model", "EmbeddingTable.save_checkpoint", "model.checkpoint_save"),
    ("star_kge.model", "EmbeddingTable.load_checkpoint", "model.checkpoint_load"),
)

NAME, START, END, PARENT = range(4)


class Tracer:
    """Collects spans ``[name, start, end, parent_index]`` while installed."""

    def __init__(self, wrapped=WRAPPED):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrapped = wrapped
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        for module, path, _ in wrapped:
            if self._resolve(module, path) is None:
                self.absent.append(f"{module}.{path}")

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    @staticmethod
    def _resolve(module, path):
        """(owner, attribute, static value) for ``module.path``, or None."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        try:
            return owner, attr, inspect.getattr_static(owner, attr)
        except AttributeError:
            return None

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for module, path, name in self._wrapped:
            found = self._resolve(module, path)
            if found is None:
                continue
            owner, attr, static = found
            if isinstance(static, (classmethod, staticmethod)):
                replacement = type(static)(self._wrap(static.__func__, name))
            else:
                replacement = self._wrap(static, name)
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, static))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, static = self._restore.pop()
            setattr(owner, attr, static)

    @contextmanager
    def active(self):
        """Wrap the package for the duration of the block."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextmanager
    def span(self, name):
        """A span recorded by the benchmark around its own call into a layer;
        a no-op while the tracer is not installed."""
        if not self.installed:
            yield
            return
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        try:
            yield
        finally:
            spans[idx][END] = time.perf_counter()
            stack.pop()


#: per-layer timing metrics: name -> unit; samples are per call unless the
#: derivation in :func:`layer_samples` says otherwise
TIMINGS = {
    "data.load_dataset_ms": "ms",
    "data.classify_relations_ms": "ms",
    "model.checkpoint_load_ms": "ms",
    "model.checkpoint_save_ms": "ms",
    "training.batch_loss_ms": "ms",
    "training.batch_loss_self_ms": "ms",
    "regularization.penalty_ms": "ms",
    "model.block_rotate_ms": "ms",
    "training.adagrad_update_ms": "ms",
    "model.enforce_kind_ms": "ms",
    "training.loop_self_ms": "ms",
    "evaluation.filtered_rank_us": "us",
    "model.score_batch_us": "us",
    "evaluation.rank_self_us": "us",
    "evaluation.aggregate_ms": "ms",
    "analysis.load_triples_ms": "ms",
    "analysis.count_two_paths_ms": "ms",
    "analysis.count_two_paths_exclude_degenerate_ms": "ms",
    "analysis.dataset_imbalance_ms": "ms",
    "analysis.export_csv_ms": "ms",
    "analysis.export_svg_ms": "ms",
}

_ROTATIONS = ("model.block_rotate", "model.block_rotate_t")
_TRAIN_CHILDREN_IN_LOOP = ("training.batch_loss", "training.adagrad_update", "model.enforce_kind")


def layer_samples(spans) -> dict[str, list[float]]:
    """Samples in seconds for every metric of :data:`TIMINGS`.

    * ``*_self_*``: span minus its direct children;
    * ``model.block_rotate_ms``, ``training.adagrad_update_ms``: summed per
      batch (rotations inside one ``batch_loss``; the three Adagrad calls
      between one ``batch_loss`` and the next);
    * ``training.loop_self_ms``: per batch, the part of ``train()`` outside
      ``batch_loss``, Adagrad and ``enforce_kind``. A batch runs from the
      start of its ``batch_loss`` to the start of the next; the first also
      holds the set-up inside ``train()``, the last runs to its end;
    * ``evaluation.aggregate_ms``: per ``evaluate()`` call, its self time.
    """
    dur = [s[END] - s[START] for s in spans]
    children: list[list[int]] = [[] for _ in spans]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
        by_name.setdefault(s[NAME], []).append(i)

    def durations(name):
        return [dur[i] for i in by_name.get(name, ())]

    def self_times(name):
        return [dur[i] - sum(dur[c] for c in children[i]) for i in by_name.get(name, ())]

    out = {
        "data.load_dataset_ms": durations("data.load_dataset"),
        "data.classify_relations_ms": durations("data.classify_relations"),
        "model.checkpoint_load_ms": durations("model.checkpoint_load"),
        "model.checkpoint_save_ms": durations("model.checkpoint_save"),
        "training.batch_loss_ms": durations("training.batch_loss"),
        "training.batch_loss_self_ms": self_times("training.batch_loss"),
        "regularization.penalty_ms": durations("regularization.penalty"),
        "model.enforce_kind_ms": durations("model.enforce_kind"),
        "evaluation.filtered_rank_us": durations("evaluation.filtered_rank"),
        "model.score_batch_us": durations("model.score_batch"),
        "evaluation.rank_self_us": self_times("evaluation.filtered_rank"),
        "evaluation.aggregate_ms": self_times("evaluation.evaluate"),
        "analysis.load_triples_ms": durations("analysis.load_triples"),
        "analysis.count_two_paths_ms": durations("analysis.count_two_paths"),
        "analysis.count_two_paths_exclude_degenerate_ms": durations(
            "analysis.count_two_paths_exclude_degenerate"
        ),
        "analysis.dataset_imbalance_ms": durations("analysis.dataset_imbalance"),
        "analysis.export_csv_ms": durations("analysis.export_csv"),
        "analysis.export_svg_ms": durations("analysis.export_svg"),
    }
    rotations_seen = any(name in by_name for name in _ROTATIONS)
    out["model.block_rotate_ms"] = (
        [
            sum(dur[c] for c in children[i] if spans[c][NAME] in _ROTATIONS)
            for i in by_name.get("training.batch_loss", ())
        ]
        if rotations_seen
        else []
    )
    adagrad, loop_self = [], []
    for t in by_name.get("training.train", ()):
        kids = children[t]
        starts = [k for k in kids if spans[k][NAME] == "training.batch_loss"]
        if not starts:
            continue
        bounds = [spans[t][START]] + [spans[k][START] for k in starts[1:]] + [spans[t][END]]
        for b in range(len(starts)):
            lo, hi = bounds[b], bounds[b + 1]
            inside = [k for k in kids if lo <= spans[k][START] < hi]
            adagrad.append(sum(dur[k] for k in inside if spans[k][NAME] == "training.adagrad_update"))
            in_loop = sum(dur[k] for k in inside if spans[k][NAME] in _TRAIN_CHILDREN_IN_LOOP)
            loop_self.append(hi - lo - in_loop)
    out["training.adagrad_update_ms"] = adagrad
    out["training.loop_self_ms"] = loop_self
    return out
