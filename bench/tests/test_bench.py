"""Tests of the benchmark's output schema, generator, checks and tracer.

They never gate on timings. Run from the repository root with

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import graphs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from star_kge import EmbeddingTable, classify_relations, load_dataset, train  # noqa: E402
from star_kge.analysis import count_two_paths  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(tmp_path, *args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


# output schema -------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_the_result_schema(tmp_path, workload, trace):
    proc = run_cli(
        tmp_path,
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--smoke", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert got["value"] > 0, m["name"]

    record = json.loads((tmp_path / f"BENCH_{workload}_seed3_trace{trace}.json").read_text())
    env = record["environment"]
    for key in ("seed", "git_commit", "python", "numpy", "blas", "blas_threads_pinned", "nproc"):
        assert key in env
    assert env["seed"] == 3
    assert set(env["blas_threads_pinned"].values()) == {str(env["nproc"])}
    desc = record["descriptors"]
    assert set(desc["graph"]["filter_set_size"]) == {"mean", "p99", "max"}
    assert sum(desc["class_mix"].values()) == desc["graph"]["num_relations"]
    assert desc["two_path_total"]["default"] >= desc["two_path_total"]["exclude_degenerate"] > 0
    assert desc["entity_table_bytes"] > 0 and desc["score_matrix_bytes_per_batch"] > 0
    assert record["result"] == result


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = run_cli(
        tmp_path, "--workload", "wn18rr-train", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "bench" / "run.py",
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_every_metric_the_code_reports():
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    for name in tracing.TIMINGS:
        assert {f"{name}.p50", f"{name}.p90", f"{name}.n"} <= layer_names
    assert {m["name"] for m in SPEC["end_to_end"]} == set(workloads.END_TO_END) | {"peak_rss_mb"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


# generator -----------------------------------------------------------------------


def tiny(seed=5):
    return graphs.generate(graphs.wn18rr_shape(0.01), seed)


def test_generator_sizes_uniqueness_and_determinism():
    g = tiny()
    spec = g.shape
    assert tuple(len(s) for s in (g.train, g.valid, g.test)) == spec.splits
    every = g.all_triples()
    assert len(np.unique(every, axis=0)) == len(every)
    assert not (every[:, 0] == every[:, 2]).any()
    assert set(np.unique(every[:, [0, 2]])) == set(range(spec.num_entities))
    assert set(np.unique(g.train[:, 1])) == set(range(len(spec.relations)))
    again = tiny()
    assert all(np.array_equal(a, b) for a, b in zip((g.train, g.valid, g.test), (again.train, again.valid, again.test)))
    assert not np.array_equal(g.train, tiny(seed=6).train)


def test_full_wn_shape_has_every_class_symmetry_and_train_coverage(tmp_path):
    g = graphs.generate(graphs.wn18rr_shape(), 2)
    paths = graphs.write_tsv(g, tmp_path)
    store = load_dataset(paths["train"], paths["valid"], paths["test"])
    assert (store.num_entities, store.num_relations) == (40943, 11)
    assert (len(store.train), len(store.valid), len(store.test)) == (86835, 3034, 3134)
    planned = {r.name: r.label for r in g.shape.relations}
    got = {store.vocab.relation_names[c.relation_id]: c.label for c in classify_relations(store)}
    assert got == planned
    assert set(got.values()) == {graphs.ONE_TO_ONE, graphs.ONE_TO_N, graphs.N_TO_ONE, graphs.N_TO_N}
    assert 0 < len(store.entities_not_in_train) <= round(graphs.UNSEEN_SHARE * 40943)
    counts = count_two_paths(store)
    assert count_two_paths(store, exclude_degenerate=True).total < counts.total  # symmetric pairs


# correctness checks --------------------------------------------------------------


@pytest.fixture
def trained(tmp_path):
    g = tiny()
    paths = graphs.write_tsv(g, tmp_path)
    store = load_dataset(paths["train"], paths["valid"], paths["test"])
    config = workloads.TrainConfig(n=8, epochs=1, batch_size=100, reg=workloads.RegConfig("DURA", 0.1))
    table, _ = train(store, config)
    return g, store, table


def test_rank_check_passes_and_catches_an_off_by_one(trained, monkeypatch):
    g, store, table = trained
    assert checks.check_ranks(g, store, table, np.random.default_rng(0), 10)[0]
    real = checks.filtered_rank
    monkeypatch.setattr(checks, "filtered_rank", lambda q, t, f: real(q, t, f) + 1)
    assert not checks.check_ranks(g, store, table, np.random.default_rng(0), 10)[0]


def test_loss_check_passes_and_catches_a_shifted_loss(trained, monkeypatch):
    g, store, table = trained
    assert checks.check_loss(store, table, np.random.default_rng(0), 50)[0]
    real = checks.batch_loss
    monkeypatch.setattr(checks, "batch_loss", lambda *a: (real(*a)[0] * (1 + 1e-3), None))
    assert not checks.check_loss(store, table, np.random.default_rng(0), 50)[0]


def test_round_trip_check_catches_one_changed_bit(trained, tmp_path):
    _, _, table = trained
    table.save_checkpoint(tmp_path / "m.ckpt")
    loaded, _ = EmbeddingTable.load_checkpoint(tmp_path / "m.ckpt")
    assert checks.check_round_trip(table, loaded)[0]
    bits = loaded.rel_tau.view(np.uint64)
    bits[0, 0] ^= 1
    assert not checks.check_round_trip(table, loaded)[0]


def test_two_path_check_matches_and_catches_a_wrong_count(trained):
    g, store, _ = trained
    pairs = checks.join_pairs(g, np.random.default_rng(1), 6)
    assert g.symmetric[pairs[0][0]] and pairs[0][0] == pairs[0][1]
    for exclude in (False, True):
        counts = count_two_paths(store, exclude_degenerate=exclude)
        assert checks.check_two_paths(g, counts, store.vocab.relation_names, pairs)[0]
    i, j = (store.vocab.relation_names.index(g.relation_names[k]) for k in pairs[0])
    counts.counts[i, j] += 1
    assert not checks.check_two_paths(g, counts, store.vocab.relation_names, pairs)[0]


def test_ledger_counts_raises_and_failed_checks_without_stopping():
    ledger = workloads.Ledger()
    with pytest.raises(workloads.OpFailed):
        ledger.call("boom", lambda: 1 / 0)
    assert ledger.check("false", lambda: (False, "no")) is False
    assert ledger.check("raises", lambda: 1 / 0) is False
    assert ledger.check("true", lambda: (True, "")) is True
    assert (ledger.attempted, ledger.failed) == (4, 3)


# tracer --------------------------------------------------------------------------


def test_tracer_reports_absent_names_and_restores_originals():
    import star_kge.training as training

    original = training.batch_loss
    wrapped = tracing.WRAPPED + (("star_kge.training", "no_such_function", "x.y"),)
    tracer = tracing.Tracer(wrapped)
    assert tracer.absent == ["star_kge.training.no_such_function"]
    load = EmbeddingTable.__dict__["load_checkpoint"]
    with tracer.active():
        assert training.batch_loss is not original
        assert isinstance(EmbeddingTable.__dict__["load_checkpoint"], classmethod)
    assert training.batch_loss is original
    assert EmbeddingTable.__dict__["load_checkpoint"] is load


def test_layer_samples_self_time_and_per_batch_split():
    S = lambda name, start, end, parent: [name, start, end, parent]  # noqa: E731
    spans = [
        S("training.train", 0.0, 10.0, -1),
        S("model.enforce_kind", 0.5, 1.0, 0),  # from init, counts to batch 0
        S("training.batch_loss", 1.0, 4.0, 0),
        S("model.block_rotate_t", 1.5, 2.0, 2),
        S("regularization.penalty", 2.0, 3.0, 2),
        S("training.adagrad_update", 4.0, 4.5, 0),
        S("training.batch_loss", 5.0, 7.0, 0),
        S("training.adagrad_update", 7.0, 8.0, 0),
        S("evaluation.evaluate", 20.0, 30.0, -1),
        S("evaluation.filtered_rank", 21.0, 24.0, 8),
        S("model.score_batch", 21.0, 23.0, 9),
    ]
    out = tracing.layer_samples(spans)
    assert out["training.batch_loss_self_ms"] == [1.5, 2.0]
    assert out["model.block_rotate_ms"] == [0.5, 0.0]
    assert out["training.adagrad_update_ms"] == [0.5, 1.0]
    assert out["training.loop_self_ms"] == [5.0 - 0.5 - 3.0 - 0.5, 5.0 - 2.0 - 1.0]
    assert out["evaluation.rank_self_us"] == [1.0]
    assert out["evaluation.aggregate_ms"] == [7.0]
    assert set(out) == set(tracing.TIMINGS)


# reference kernels ---------------------------------------------------------------


def test_reference_kernels_time_every_unit_and_stay_out_of_peak_rss(tmp_path):
    from reference import NOMINAL_S, Reference, speed_index

    ref = Reference()
    times = ref.measure()
    assert set(times) == set(NOMINAL_S) and all(t > 0 and ref.samples[k] == [t] for k, t in times.items())
    assert 10 * 2**20 < ref.resident_bytes < 20 * 2**20
    assert speed_index(NOMINAL_S) == pytest.approx(1.0)
    assert speed_index({k: 2 * t for k, t in NOMINAL_S.items()}) == pytest.approx(2.0)

    run = workloads.Run(workloads.WORKLOADS["wn18rr-train"], 3, 1.0, False, tmp_path, smoke=True)
    run.prepare()
    run.execute()
    assert run.units and all(set(u.reference) == set(NOMINAL_S) for u in run.units)
    raw, scaled = run.end_to_end(scaled=False), run.end_to_end()
    assert raw["peak_rss_mb"] == scaled["peak_rss_mb"]
    assert scaled["peak_rss_mb"]["value"] == pytest.approx(
        run.descriptors["peak_rss_with_reference_mb"] - run.reference.resident_bytes / 2**20
    )
    assert all(scaled[m]["value"] > 0 for m in workloads.END_TO_END)
