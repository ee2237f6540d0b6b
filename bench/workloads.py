"""The workloads and the closed-loop measurement of one run.

Every workload runs the whole user job on its graph, through the package's
public API only: set-up (``load_dataset``, ``classify_relations``, and
``load_checkpoint`` where a model is evaluated), ``train``, a checkpoint
round trip, ``evaluate``, and both ``analyze`` pipelines. What differs is
how many units of each phase a round holds, which decides the layer that
dominates. Every workload reports every end-to-end metric, so that a
change is compared on each metric and workload.

The loop is closed: each call starts when the previous one has returned.
A unit of a phase (one set-up, one ``train()`` call, one ``evaluate()``
call, one analyze pipeline) is timed as a whole, and each metric is the
median over its units of the unit's time divided by the machine-speed index
measured just before and after it (see :mod:`reference`). A run repeats
rounds of every phase until ``--seconds`` of measurement have passed, so
that each metric's units are spread over the whole run rather than bunched
at one end of it.

In a traced run one round runs, and every unit runs twice, untraced and
then traced; the untraced copies give the base of ``trace.overhead_ratio``.
"""

from __future__ import annotations

import gc
import logging
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from star_kge import (
    EmbeddingTable,
    RegConfig,
    TrainConfig,
    TripleStore,
    classify_relations,
    evaluate,
    load_dataset,
    load_triples,
    train,
)
from star_kge.analysis import count_two_paths, dataset_imbalance, export_arc_data

import checks
import graphs
from reference import Reference, speed_index
from tracing import TIMINGS, Tracer, layer_samples


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    checkpoint_in_setup: bool  # evaluate a saved model instead of the trained one
    eval_splits: tuple[str, ...]
    rounds: dict  # units per phase in one round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wn18rr-train",
            "WN18RR shape; trains from scratch (train() is the largest phase, ~35%: |E|-wide GEMMs, exp over 200 x 40,943 scores), ranks valid with that model",
            checkpoint_in_setup=False,
            eval_splits=("valid",),
            rounds={"setup": 2, "train": 3, "eval": 1, "analyze": 1},
        ),
        Workload(
            "wn18rr-eval",
            "WN18RR shape; a saved model at a trained score scale, loaded in set-up, ranks valid and test (~50% of the run, one 40,943-row GEMV per query)",
            checkpoint_in_setup=True,
            eval_splits=("valid", "test"),
            rounds={"setup": 2, "train": 2, "eval": 1, "analyze": 1},
        ),
    )
}
#: units per phase in the one round of the smoke mode
SMOKE_ROUNDS = {"setup": 2, "train": 1, "eval": 1, "analyze": 1}

BATCH_SIZE = 100
#: length of the seeded train cut, in batches
TRAIN_BATCHES = 10
DIM = 32
DURA_LAMBDA = 0.1
#: sample sizes of the correctness checks
RANK_CHECK_TRIPLES = 20
JOIN_CHECK_PAIRS = 4

#: end-to-end metrics: name -> (unit, phase whose units give the samples)
END_TO_END = {
    "setup_s": ("s", "setup"),
    "train_queries_per_s": ("queries/s", "train"),
    "eval_queries_per_s": ("queries/s", "eval"),
    "analyze_s": ("s", "analyze"),
    "analyze_exclude_degenerate_s": ("s", "analyze_exclude_degenerate"),
}


class OpFailed(Exception):
    """A call into the package raised; the ledger has recorded it."""


class Ledger:
    """Counts ops (one call into the package, or one correctness check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, what, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is counted, not fatal
            self.failed += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(what) from exc

    def check(self, what, fn, *args):
        """Run a check returning ``(ok, detail)``; a raise counts as a failure."""
        try:
            ok, detail = self.call(f"check {what}", fn, *args)
        except OpFailed:
            return False
        if not ok:
            self.failed += 1
            self.failures.append(f"check {what}: {detail}")
            print(f"check {what} failed: {detail}", file=sys.stderr)
        return ok


@dataclass
class Unit:
    phase: str
    seconds: float
    work: int  # queries for the rate phases, 1 otherwise
    traced: bool
    reference: dict  # kind -> mean of the kernel times just before and after


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path, smoke=False):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = Path(workdir)
        self.smoke = smoke
        self.ledger = Ledger()
        self.tracer = Tracer() if trace else None
        self.reference = Reference()
        self._between: dict = {}  # kernel times since the last unit ended
        self.units: list[Unit] = []
        self.rng = np.random.default_rng([seed, 7])
        self.descriptors: dict = {}
        self.checkpoint_bytes = 0
        self.rounds = 0
        self.measured_s = 0.0
        self.peak_rss_mb = 0.0
        self.analysis: dict = {}  # exclude_degenerate -> (relation names, PairCounts, Psi)

    # measurement ------------------------------------------------------------

    def _modes(self, reps):
        return [False] * reps if self.tracer is None else [False, True] * reps

    def _timed(self, phase, traced, fn, work=lambda result: 1):
        """Run ``fn`` as one unit; returns its result, or None if an op failed."""
        gc.collect()
        # the kernels timed after one unit also count as timed before the next
        before = self._between or self.reference.measure()
        try:
            with self.tracer.active() if traced else nullcontext():
                t0 = time.perf_counter()
                result = fn()
                dt = time.perf_counter() - t0
        except OpFailed:
            return None
        finally:
            self._between = after = self.reference.measure()
        around = {kind: (before[kind] + after[kind]) / 2 for kind in before}
        self.units.append(Unit(phase, dt, work(result), traced, around))
        return result

    def _call(self, span, fn, *args, **kwargs):
        with self.tracer.span(span) if self.tracer else nullcontext():
            return self.ledger.call(span, fn, *args, **kwargs)

    # phases -----------------------------------------------------------------

    def _setup(self):
        store = self._call("data.load_dataset", load_dataset, *self.paths)
        classes = self._call("data.classify_relations", classify_relations, store)
        table = None
        if self.w.checkpoint_in_setup:
            # looked up at call time, so a traced unit sees the wrapped method
            table, _ = self.ledger.call("model.checkpoint_load", lambda: EmbeddingTable.load_checkpoint(self.model_path))
        return store, classes, table

    def _round_trip(self, table):
        path = self.workdir / "roundtrip.ckpt"
        self.ledger.call("model.checkpoint_save", lambda: table.save_checkpoint(path))
        loaded, _ = self.ledger.call("model.checkpoint_load", lambda: EmbeddingTable.load_checkpoint(path))
        self.checkpoint_bytes = path.stat().st_size
        return loaded

    def _analyze(self, exclude_degenerate):
        count_span = "analysis.count_two_paths" + ("_exclude_degenerate" if exclude_degenerate else "")
        store = self._call("analysis.load_triples", load_triples, self.paths[0])
        counts = self._call(count_span, count_two_paths, store, exclude_degenerate=exclude_degenerate)
        report = self._call("analysis.dataset_imbalance", dataset_imbalance, counts)
        report.relation_names = store.vocab.relation_names
        self._call("analysis.export_csv", export_arc_data, report, self.workdir / "pairs.csv", "csv")
        self._call("analysis.export_svg", export_arc_data, report, self.workdir / "pairs.svg", "svg")
        return store.vocab.relation_names, counts, report.Psi

    # the run ------------------------------------------------------------------

    def prepare(self):
        """Untimed: the seeded graph as TSV files, and for evaluation a model."""
        scale = 0.01 if self.smoke else 1.0
        self.graph = graphs.generate(graphs.wn18rr_shape(scale), self.seed)
        written = graphs.write_tsv(self.graph, self.workdir)
        self.paths = (written["train"], written["valid"], written["test"])
        self.model_path = self.workdir / "model.ckpt"
        if self.w.checkpoint_in_setup:
            # rows at the scale of a trained model: |score| up to about 10
            rng = np.random.default_rng([self.seed, 11])
            ne, nr = self.graph.num_entities, self.graph.num_relations
            EmbeddingTable(
                rng.normal(0.0, 0.5, size=(ne, DIM)),
                rng.normal(0.0, 1.0, size=(2 * nr, DIM)),
                rng.normal(0.0, 0.1, size=(2 * nr, DIM)),
                nr,
            ).save_checkpoint(self.model_path)
        self.descriptors["graph"] = graphs.describe(self.graph)
        self.descriptors["prep_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def execute(self):
        start = time.perf_counter()
        plan = SMOKE_ROUNDS if self.smoke else self.w.rounds
        self.descriptors["resident_before_rounds_mb"] = _resident_mb()
        last = None
        while True:
            round_start = time.perf_counter()
            # the previous round's store is dropped first: alive, it would
            # raise peak memory and slow the collector during the next load
            last = None
            last = self._round(plan)
            if last is None:
                return
            self.rounds += 1
            # another round if that ends the run nearer to --seconds
            now = time.perf_counter()
            if self.smoke or self.tracer is not None or now - start + (now - round_start) / 2 > self.seconds:
                break
        self.measured_s = time.perf_counter() - start
        # before the checks, whose oracles hold score matrices of their own;
        # less the reference kernels' buffers, resident all through the rounds
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.descriptors["peak_rss_with_reference_mb"] = peak_mb
        self.descriptors["reference_resident_mb"] = self.reference.resident_bytes / 2**20
        self.peak_rss_mb = peak_mb - self.reference.resident_bytes / 2**20
        self._checks(*last)

    def _round(self, plan):
        """One unit or more of every phase; returns (store, model, classes),
        or None when an op failed so that the round cannot go on."""
        state = None
        for traced in self._modes(plan["setup"]):
            state = None
            state = self._timed("setup", traced, self._setup)
        if state is None:
            return None
        store, classes, table = state

        if self.rounds == 0:
            batches = 2 if self.smoke else TRAIN_BATCHES
            self.cut_idx = np.sort(self.rng.permutation(len(store.train))[: batches * BATCH_SIZE])
            self.train_config = TrainConfig(
                n=DIM,
                epochs=1,
                lr=0.1,
                batch_size=BATCH_SIZE,
                w0=0.1,
                reg=RegConfig("DURA", DURA_LAMBDA, "literal"),
                seed=self.seed,
                optimizer="Adagrad",
                eval_every=0,
            )
            self.descriptors["train_cut_triples"] = len(self.cut_idx)
        # rebuilt on every round's store, so that nothing of an earlier round
        # stays alive
        cut = TripleStore(store.vocab, store.train[self.cut_idx])
        queries = 2 * len(cut.train)

        trained = None
        for traced in self._modes(plan["train"]):
            out = self._timed(
                "train", traced, lambda: self._call("training.train", train, cut, self.train_config), lambda r: queries
            )
            if out is not None:
                self.ledger.check("train loss finite", lambda: (
                    all(np.isfinite(rec["mean_loss"]) for rec in out[1]), f"log {out[1]}"))
                trained = out
        model = table if self.w.checkpoint_in_setup else (trained[0] if trained else None)
        if model is None:
            return None

        if self.rounds == 0:
            for traced in self._modes(1):
                loaded = self._timed("checkpoint", traced, lambda: self._round_trip(model))
                if loaded is not None:
                    self.ledger.check("checkpoint round trip", checks.check_round_trip, model, loaded)

        for traced in self._modes(plan["eval"]):
            for split in self.w.eval_splits:
                self._timed(
                    "eval",
                    traced,
                    lambda: self._call("evaluation.evaluate", evaluate, split, model, store, classes),
                    lambda report: report.num_queries,
                )

        for traced in self._modes(plan["analyze"]):
            for exclude in (False, True):
                phase = "analyze_exclude_degenerate" if exclude else "analyze"
                # only the counts and relation names stay alive: a whole
                # store held would slow the collector during the next unit
                out = self._timed(phase, traced, lambda: self._analyze(exclude))
                if out is not None:
                    self.analysis[exclude] = out
        return store, model, classes

    def _checks(self, store, model, classes):
        rng = np.random.default_rng([self.seed, 13])
        self.ledger.check("filtered ranks", checks.check_ranks, self.graph, store, model, rng, RANK_CHECK_TRIPLES)
        self.ledger.check("batch loss", checks.check_loss, store, model, rng, BATCH_SIZE)
        pairs = checks.join_pairs(self.graph, rng, JOIN_CHECK_PAIRS)
        for exclude, (relation_names, counts, _) in sorted(self.analysis.items()):
            self.ledger.check(
                f"two-path counts (exclude_degenerate={exclude})",
                checks.check_two_paths,
                self.graph,
                counts,
                relation_names,
                pairs,
            )
        labels = [c.label for c in classes]
        self.descriptors["class_mix"] = {lab: labels.count(lab) for lab in sorted(set(labels))}
        policy = {False: "default", True: "exclude_degenerate"}
        self.descriptors["two_path_total"] = {policy[ex]: out[1].total for ex, out in self.analysis.items()}
        self.descriptors["Psi"] = {policy[ex]: out[2] for ex, out in self.analysis.items()}
        ne = store.num_entities
        self.descriptors["entity_table_bytes"] = ne * DIM * 8
        self.descriptors["score_matrix_bytes_per_batch"] = 2 * BATCH_SIZE * ne * 8
        self.descriptors["rounds"] = self.rounds
        self.descriptors["phase_seconds"] = {
            p: sum(u.seconds for u in self.units if u.phase == p) for p in sorted({u.phase for u in self.units})
        }
        self.descriptors["units"] = {p: sum(u.phase == p for u in self.units) for p in sorted({u.phase for u in self.units})}

    # results ------------------------------------------------------------------

    def _per_work(self, phase, traced, scaled=False):
        """Seconds per unit of work of each of the phase's units; if
        ``scaled``, each over the machine-speed index measured around it."""
        return [
            u.seconds / u.work / (speed_index(u.reference) if scaled else 1.0)
            for u in self.units
            if u.phase == phase and u.traced == traced
        ]

    def end_to_end(self, scaled=True) -> dict:
        """Medians over the untraced units, scaled to the nominal machine
        speed unless ``scaled`` is false, and the peak RSS of the run."""
        metrics = {}
        for name, (unit, phase) in END_TO_END.items():
            per = self._per_work(phase, False, scaled)
            value = statistics.median(per) if per else 0.0
            if unit == "queries/s" and value:
                value = 1.0 / value
            metrics[name] = {"value": value, "unit": unit}
        metrics["peak_rss_mb"] = {"value": self.peak_rss_mb, "unit": "MB"}
        return metrics

    def per_layer(self) -> dict:
        """p50, p90 and sample count of every layer timing of a traced run,
        with the tracing overhead per end-to-end metric."""
        samples = layer_samples(self.tracer.spans)
        metrics = {}
        for name, unit in TIMINGS.items():
            values = np.asarray(samples[name]) * (1e3 if unit == "ms" else 1e6)
            for q in (50, 90):
                metrics[f"{name}.p{q}"] = {
                    "value": float(np.percentile(values, q)) if len(values) else 0.0,
                    "unit": unit,
                }
            metrics[f"{name}.n"] = {"value": len(values), "unit": "count"}
        metrics["model.checkpoint_bytes"] = {"value": self.checkpoint_bytes, "unit": "bytes"}
        for name, (_, phase) in END_TO_END.items():
            # each traced unit over the untraced copy run just before it
            base, traced = self._per_work(phase, False, True), self._per_work(phase, True, True)
            ratios = [t / b for b, t in zip(base, traced)]
            metrics[f"trace.overhead_ratio.{name}"] = {
                "value": statistics.median(ratios) if ratios else 0.0,
                "unit": "ratio",
            }
        for kind, times in self.reference.samples.items():
            metrics[f"bench.reference_{kind}_ms"] = {"value": 1e3 * statistics.median(times), "unit": "ms"}
        return metrics


def _resident_mb() -> float:
    """Resident set size of this process now, from /proc/self/statm."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * resource.getpagesize() / 2**20


def run(workload_name, seed, seconds, trace, workdir, smoke=False):
    """Prepare and measure one run; returns the :class:`Run` with its results."""
    logging.getLogger("star_kge").setLevel(logging.ERROR)  # the unseen-entity warning is expected
    r = Run(WORKLOADS[workload_name], seed, seconds, trace, workdir, smoke)
    r.prepare()
    gc.collect()
    r.execute()
    return r
