import csv
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from star_kge.cli import main

LATTICE_SPEC = Path(__file__).resolve().parent.parent / "configs" / "lattice_noncommuting.spec"

SYNTH_SPEC = """
num_entities = 36
seed = 3
holdout_fraction = 0.2
relation.0.name = turn
relation.0.kind = grid_rotation
relation.0.quarter_turns = 1
relation.1.name = shift
relation.1.kind = grid_translation
relation.1.offset = 1,0
relation.2.name = turn_then_shift
relation.2.kind = composed
relation.3.name = shift_then_turn
relation.3.kind = composed
compose.0 = turn, shift, turn_then_shift, noncommuting
compose.1 = shift, turn, shift_then_turn, noncommuting
"""


def write_train_config(path, data_dir, out_dir, **overrides):
    values = {
        "model_kind": "STaR",
        "n": 8,
        "lr": 0.2,
        "batch_size": 64,
        "epochs": 5,
        "w0": 0.0,
        "seed": 1,
        "optimizer": "Adagrad",
        "eval_every": 2,
        "init_scale": 0.01,
        "reg.kind": "DURA",
        "reg.lambda": 0.01,
        "reg.dura_variant": "literal",
        "data.train": str(data_dir / "train.tsv"),
        "data.valid": str(data_dir / "valid.tsv"),
        "data.test": str(data_dir / "test.tsv"),
        "out_dir": str(out_dir),
    }
    values.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


@pytest.fixture
def synth_dir(tmp_path):
    spec = tmp_path / "kg.spec"
    spec.write_text(SYNTH_SPEC, encoding="utf-8")
    out = tmp_path / "kg"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_writes_splits_and_manifest(self, synth_dir):
        manifest = json.loads((synth_dir / "synth_manifest.json").read_text())
        assert manifest["splits"]["train"] > 0
        assert manifest["splits"]["test"] > 0
        assert manifest["discriminating_test_queries"] >= 1
        assert (synth_dir / "train.tsv").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            ("relation.1.offset = 1,0", "relation.1.offset = a,0"),
            ("relation.0.quarter_turns = 1", "relation.0.quarter_turns = two"),
            ("relation.0.quarter_turns = 1", "relation.0.quarter_turns = 1.5"),
            ("relation.0.kind = grid_rotation", "relation.0.kind = symmetric\nrelation.0.num_pairs = -2"),
            ("relation.0.kind = grid_rotation", "relation.0.kind = fan_in\nrelation.0.heads_per_tail = -3"),
            ("holdout_fraction = 0.2", "holdout_fraction = 0.2\npaired_holdout_fraction = true"),
        ],
        ids=["offset-word", "turns-word", "turns-float", "negative-pairs", "negative-heads", "fraction-bool"],
    )
    def test_bad_rule_values_are_usage_errors(self, tmp_path, capsys, edit):
        spec = tmp_path / "bad.spec"
        spec.write_text(SYNTH_SPEC.replace(*edit), encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_inverse_of_composed_relation_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text(
            SYNTH_SPEC + "relation.4.name = back\nrelation.4.kind = inverse_of\nrelation.4.of = turn_then_shift\n",
            encoding="utf-8",
        )
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "inverse_of composed relation 'turn_then_shift'" in capsys.readouterr().err

    def test_lattice_config_writes_its_recorded_files(self, tmp_path):
        # sha256 of the files the dict-of-sets generator wrote for this config
        recorded = {
            "synth_manifest.json": "8cf494cba5b873bd77f1272431c911e570712daafeda4d05c86c814fc65b27d4",
            "test.tsv": "0a084c03534c12302487d016924b771688233e67c5796dd6e1c16c0d7119b06f",
            "train.tsv": "38d87039aab5a45be7978f44fdd3f7fafa963c3641fcc563160be370f185af3e",
            "valid.tsv": "221113242c64c01b711c64b31c5686a1ef680fe3a375ec2808b7ae8ef53adb79",
        }
        out = tmp_path / "kg"
        assert main(["synth", "--spec", str(LATTICE_SPEC), "--out", str(out)]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert written == recorded

    def test_lattice_config_is_criterion_6_spec(self):
        from star_kge.config import load_flat_config, synth_spec_from_dict
        from oracles import grid_composition_spec

        assert synth_spec_from_dict(load_flat_config(LATTICE_SPEC)) == grid_composition_spec(
            side=14, quarter_turns=2, seed=7, holdout_fraction=0.25, paired_holdout_fraction=0.2
        )


class TestTrain:
    def test_writes_checkpoint_logs_and_reports(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, out)
        assert main(["train", "--config", str(cfg)]) == 0
        assert (out / "config.json").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "checkpoint.bin.json").exists()
        assert (out / "eval_valid.json").exists()
        assert (out / "eval_test.json").exists()
        log_lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 5
        row = json.loads(log_lines[0])
        assert set(row) == {
            "epoch", "mean_loss", "valid_mrr", "wall_ms", "validation_ms", "queries_per_s", "threads", "overflow_rows"
        }
        assert row["threads"] >= 1
        assert type(row["overflow_rows"]) is int and row["overflow_rows"] >= 0
        assert 0 < row["queries_per_s"] < math.inf
        # eval_every = 2: epochs 1 and 3 validate, and only they are timed
        rows = [json.loads(line) for line in log_lines]
        assert [r["validation_ms"] is None for r in rows] == [r["valid_mrr"] is None for r in rows]
        assert [r["valid_mrr"] is None for r in rows] == [True, False, True, False, True]
        assert all(0 < r["validation_ms"] < r["wall_ms"] for r in rows if r["validation_ms"] is not None)

    def test_repeats_emit_mean_and_std(self, synth_dir, tmp_path):
        out = tmp_path / "runs"
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, out, epochs=2)
        assert main(["train", "--config", str(cfg), "--repeats", "3"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["repeats"] == 3
        for split in ("valid", "test"):
            assert {"mean", "std"} <= set(summary["metrics"][split]["mrr"])
        assert (out / "run_0" / "checkpoint.bin").exists()
        assert (out / "run_2" / "eval_test.json").exists()

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_is_usage_error(self, synth_dir, tmp_path, capsys, repeats):
        out = tmp_path / "runs"
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, out, epochs=1)
        assert main(["train", "--config", str(cfg), "--repeats", repeats]) == 2
        assert capsys.readouterr() == ("", f"error: --repeats must be at least 1, got {repeats}\n")
        assert not out.exists()

    def test_invalid_model_kind_names_the_field(self, synth_dir, tmp_path, capsys):
        cfg = write_train_config(
            tmp_path / "train.cfg", synth_dir, tmp_path / "x", model_kind="RESCAL"
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert "model_kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("n", "8.5"), ("epochs", "2.9"), ("batch_size", "true"), ("seed", "1.0"), ("eval_every", "two")],
    )
    def test_non_integer_count_is_usage_error(self, synth_dir, tmp_path, capsys, key, value):
        out = tmp_path / "x"
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, out, **{key: value})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be an integer, got ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("lr", "true", "lr must be a finite number, got True"),
            ("lr", "-1", "lr must be positive, got -1.0"),
            ("lr", "0", "lr must be positive, got 0.0"),
            ("lr", "nan", "lr must be a finite number, got nan"),
            ("lr", "fast", "lr must be a finite number, got 'fast'"),
            ("w0", "false", "w0 must be a finite number, got False"),
            ("init_scale", "nan", "init_scale must be a finite number, got nan"),
            ("init_scale", "inf", "init_scale must be a finite number, got inf"),
            ("reg.lambda", "nan", "reg.lambda must be a finite number, got nan"),
            ("reg.lambda", "inf", "reg.lambda must be a finite number, got inf"),
        ],
    )
    def test_bad_float_value_is_usage_error(self, synth_dir, tmp_path, capsys, key, value, message):
        out = tmp_path / "x"
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, out, **{key: value})
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_empty_train_split_is_usage_error(self, synth_dir, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        cfg = write_train_config(
            tmp_path / "train.cfg", synth_dir, tmp_path / "x", **{"data.train": str(empty)}
        )
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "empty" in err
        assert "Traceback" not in err

    def test_divergence_keeps_the_streamed_epoch_records(self, synth_dir, tmp_path, monkeypatch, capsys):
        import star_kge.training as training

        real_batch_loss = training.batch_loss
        calls = []

        def diverge_in_epoch_2(batch, table, *args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # one batch per epoch: the first batch of epoch 2
                table.rel_c[:] = np.nan
            return real_batch_loss(batch, table, *args, **kwargs)

        monkeypatch.setattr(training, "batch_loss", diverge_in_epoch_2)
        out = tmp_path / "run"
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, out, batch_size=10**6)
        assert main(["train", "--config", str(cfg)]) == 1
        assert "epoch 2, batch 0" in capsys.readouterr().err
        rows = [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]
        assert [row["epoch"] for row in rows] == [0, 1]
        assert not (out / "checkpoint.bin").exists()

    def test_sidecar_records_the_epochs_of_the_saved_table(self, synth_dir, tmp_path, monkeypatch):
        """Validation peaks before the last epoch, so the checkpoint is the
        best-validation table and its sidecar says how long that one trained."""
        import dataclasses

        import star_kge.evaluation as evaluation

        real = evaluation.evaluate
        # validation MRR per epoch; the first maximum is after epoch 2
        scripted = [0.2, 0.5, 0.3, 0.5]

        def scripted_validation(split, *args, **kwargs):
            report = real(split, *args, **kwargs)
            return dataclasses.replace(report, mrr=scripted.pop(0)) if scripted else report

        monkeypatch.setattr(evaluation, "evaluate", scripted_validation)
        out = tmp_path / "run"
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, out, epochs=4, eval_every=1)
        assert main(["train", "--config", str(cfg), "--threads", "1"]) == 0
        assert not scripted
        sidecar = json.loads((out / "checkpoint.bin.json").read_text())
        assert (sidecar["epoch"], sidecar["epochs_run"]) == (2, 4)
        # validation draws nothing from the training RNG, so the saved table
        # is that of a 2-epoch run without validation
        short = tmp_path / "short"
        cfg = write_train_config(tmp_path / "short.cfg", synth_dir, short, epochs=2, eval_every=0)
        assert main(["train", "--config", str(cfg), "--threads", "1"]) == 0
        assert (out / "checkpoint.bin").read_bytes() == (short / "checkpoint.bin").read_bytes()
        sidecar = json.loads((short / "checkpoint.bin.json").read_text())
        assert (sidecar["epoch"], sidecar["epochs_run"]) == (2, 2)

    def test_out_flag_holds_every_output_and_keeps_the_config_hash(self, synth_dir, tmp_path):
        configured = tmp_path / "configured"
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, configured, epochs=2)
        out = tmp_path / "flag"
        assert main(["train", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        assert not configured.exists()
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.bin", "checkpoint.bin.json", "config.json", "eval_test.json", "eval_valid.json", "train_log.jsonl"
        ]
        assert json.loads((out / "config.json").read_text())["out_dir"] == str(out)
        # the hash leaves out the paths, so the same run without --out shares it
        assert main(["train", "--config", str(cfg), "--threads", "1"]) == 0
        hashes = [json.loads((d / "checkpoint.bin.json").read_text())["config_hash"] for d in (out, configured)]
        assert hashes[0] == hashes[1]
        assert (out / "checkpoint.bin").read_bytes() == (configured / "checkpoint.bin").read_bytes()

    def test_determinism_bitwise_checkpoints(self, synth_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = write_train_config(tmp_path / f"{name}.cfg", synth_dir, out, epochs=3)
            assert main(["train", "--config", str(cfg), "--threads", "1"]) == 0
            outs.append(out)
        blob_a = (outs[0] / "checkpoint.bin").read_bytes()
        blob_b = (outs[1] / "checkpoint.bin").read_bytes()
        assert blob_a == blob_b
        assert (outs[0] / "eval_test.json").read_bytes() == (outs[1] / "eval_test.json").read_bytes()


def run_cli(*argv):
    """``star-kge`` in a fresh interpreter, so that its logging set-up is its own."""
    import subprocess
    import sys

    import star_kge

    env = dict(os.environ, PYTHONPATH=str(Path(star_kge.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "star_kge.cli", *argv], env=env, capture_output=True, text=True)


class TestLogging:
    def test_best_epoch_and_warnings_are_bare_stderr_lines(self, synth_dir, tmp_path):
        train = (synth_dir / "train.tsv").read_text(encoding="utf-8")
        dup = tmp_path / "train_dup.tsv"
        dup.write_text(train + train.splitlines(keepends=True)[0], encoding="utf-8")
        cfg = write_train_config(
            tmp_path / "train.cfg", synth_dir, tmp_path / "run", epochs=2, **{"data.train": str(dup)}
        )
        done = run_cli("train", "--config", str(cfg))
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()
        assert "dropped 1 duplicate triples from train split" in lines
        assert any(line.startswith("best validation MRR ") for line in lines)

    def test_usage_error_prints_error_first(self, synth_dir, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        cfg = write_train_config(
            tmp_path / "train.cfg", synth_dir, tmp_path / "x", **{"data.train": str(empty)}
        )
        done = run_cli("train", "--config", str(cfg))
        assert done.returncode == 2
        assert done.stderr.startswith("error:")
        assert "empty" in done.stderr


class TestEval:
    def test_memorizable_toy_scores_perfect_mrr(self, tmp_path):
        from star_kge.data import load_dataset
        from star_kge.model import init_embeddings

        data = tmp_path / "toy"
        data.mkdir()
        (data / "train.tsv").write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
        # the test split re-ranks the training facts: a hand-built checkpoint
        # whose translations point straight at the answers must reach MRR 1
        (data / "test.tsv").write_text("a\tr\tb\n", encoding="utf-8")
        store = load_dataset(data / "train.tsv", test_path=data / "test.tsv")
        table = init_embeddings(store.num_entities, store.num_relations, 4, seed=0)
        table.entity_embeddings[:] = 0.0
        for e in range(3):
            table.entity_embeddings[e, e] = 1.0
        table.rel_c[:] = 0.0
        table.rel_tau[0] = table.entity_embeddings[1]  # (a, r, ?) points at b
        table.rel_tau[1] = table.entity_embeddings[0]  # (b, r~, ?) points at a
        ckpt = tmp_path / "toy.bin"
        table.save_checkpoint(ckpt)

        out = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--checkpoint",
                str(ckpt),
                "--train",
                str(data / "train.tsv"),
                "--test",
                str(data / "test.tsv"),
                "--split",
                "test",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["mrr"] == 1.0

    def test_prints_tie_rule_and_ranking_time(self, tmp_path, capsys):
        from star_kge.data import load_dataset
        from star_kge.model import init_embeddings

        data = tmp_path / "toy"
        data.mkdir()
        (data / "train.tsv").write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
        (data / "test.tsv").write_text("a\tr\tc\n", encoding="utf-8")
        store = load_dataset(data / "train.tsv", test_path=data / "test.tsv")
        ckpt = tmp_path / "toy.bin"
        init_embeddings(store.num_entities, store.num_relations, 4, seed=0).save_checkpoint(ckpt)
        out = tmp_path / "report.json"
        args = ["eval", "--checkpoint", str(ckpt), "--train", str(data / "train.tsv")]
        args += ["--test", str(data / "test.tsv"), "--tie-rule", "random", "--out", str(out)]
        assert main(args) == 0
        shown = json.loads(capsys.readouterr().out)
        assert set(shown) == {"mrr", "hits", "num_queries", "tie_rule", "ranking_s", "threads"}
        assert shown["tie_rule"] == "random"
        assert shown["ranking_s"] > 0.0
        written = json.loads(out.read_text())
        assert written["ranking_s"] == shown["ranking_s"]
        assert written["threads"] == shown["threads"] >= 1

    def test_eval_on_test_split(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, out, epochs=2)
        assert main(["train", "--config", str(cfg)]) == 0
        report_path = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--checkpoint",
                str(out / "checkpoint.bin"),
                "--train",
                str(synth_dir / "train.tsv"),
                "--valid",
                str(synth_dir / "valid.tsv"),
                "--test",
                str(synth_dir / "test.tsv"),
                "--split",
                "test",
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert 0.0 < payload["mrr"] <= 1.0
        # one named entry per relation present in the test split
        test_rels = {
            r for _, r, _ in np.loadtxt(synth_dir / "test.tsv", dtype=str, delimiter="\t", ndmin=2)
        }
        entries = payload["per_relation"].values()
        assert sorted(e["name"] for e in entries) == sorted(test_rels)
        assert sum(e["count"] for e in entries) == payload["num_queries"]
        assert all(0.0 < e["mrr"] <= 1.0 for e in entries)
        assert payload["per_class"]

    def test_empty_split_is_usage_error(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, out, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        code = main(
            [
                "eval",
                "--checkpoint",
                str(out / "checkpoint.bin"),
                "--train",
                str(synth_dir / "train.tsv"),
                "--split",
                "test",
            ]
        )
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_empty_train_file_is_usage_error(self, tmp_path, capsys):
        from star_kge.model import init_embeddings

        empty = tmp_path / "empty.tsv"
        empty.write_text("\n", encoding="utf-8")
        ckpt = tmp_path / "model.bin"
        init_embeddings(1, 1, 4, seed=0).save_checkpoint(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--train", str(empty)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "empty" in err
        assert "Traceback" not in err


class TestVerify:
    def test_default_run_passes(self, capsys, tmp_path):
        json_path = tmp_path / "checks.json"
        assert main(["verify", "--n", "8", "--trials", "20", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "Composition" in out and "PASS" in out and "FAIL" not in out and "N/A" not in out
        rows = json.loads(json_path.read_text())
        assert all(r["passed"] for r in rows)

    @pytest.mark.parametrize("flag", [["--threads=1"], ["--threads", "1"]])
    def test_both_threads_forms_pin_blas(self, monkeypatch, capsys, flag):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "unset")  # restored to the original at teardown
            monkeypatch.delenv(var)
        assert main(["verify", *flag, "--n", "4", "--trials", "5"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error_before_numpy_loads(self, threads):
        import subprocess
        import sys

        import star_kge

        env = dict(os.environ, PYTHONPATH=str(Path(star_kge.__file__).parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        code = (
            "import os, sys; from star_kge.cli import main; "
            f"code = main(['verify', '--threads', '{threads}']); "
            "print(code, 'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["2", "False", "None"]
        assert out.stderr == f"error: --threads must be at least 1, got {threads}\n"

    def test_cli_import_leaves_numpy_unloaded(self):
        """numpy must load after --threads has pinned the BLAS pools."""
        import subprocess
        import sys

        import star_kge

        env = dict(os.environ, PYTHONPATH=str(Path(star_kge.__file__).parents[1]))
        code = "import sys, star_kge.cli; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_python_m_star_kge_runs_the_cli_with_numpy_unloaded_until_pinned(self):
        """``python -m star_kge`` works from a source checkout, and numpy is
        still unloaded when ``--threads`` pins the BLAS pools."""
        import subprocess
        import sys

        import star_kge

        env = dict(os.environ, PYTHONPATH=str(Path(star_kge.__file__).parents[1]))
        argv = ["verify", "--n", "4", "--trials", "2"]
        out = subprocess.run([sys.executable, "-m", "star_kge", *argv], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "PASS" in out.stdout
        code = (
            "import runpy, sys; import star_kge.cli as cli; pin = cli._pin_threads; "
            "cli._pin_threads = lambda n: (print('numpy' in sys.modules, n), pin(n)); "
            f"sys.argv = ['star_kge', *{argv!r}, '--threads', '1']; "
            "runpy.run_module('star_kge', run_name='__main__', alter_sys=True)"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[0] == "False 1"

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_usage_error_not_a_pass(self, capsys, trials):
        assert main(["verify", "--n", "4", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "trials" in captured.err
        assert "PASS" not in captured.out


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_unwritable_output_is_usage_error(command, tmp_path, capsys):
    blocker = tmp_path / "plain_file"
    blocker.write_text("", encoding="utf-8")
    out = str(blocker / "report.json")  # its parent is a regular file
    if command == "verify":
        argv = ["verify", "--n", "4", "--trials", "2", "--json", out]
    else:
        train = tmp_path / "train.tsv"
        train.write_text("a\tr1\tb\nb\tr2\tc\n", encoding="utf-8")
        argv = ["analyze", "--train", str(train), "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_failed_json_write_keeps_the_previous_file(tmp_path, monkeypatch):
    from star_kge.cli import _write_json

    path = tmp_path / "report.json"
    _write_json(path, {"mrr": 0.5})
    written = path.read_bytes()

    def disk_full(*args):
        raise OSError("No space left on device")

    monkeypatch.setattr("star_kge._files.os.replace", disk_full)
    with pytest.raises(OSError, match="No space left"):
        _write_json(path, {"mrr": 0.75})
    assert path.read_bytes() == written
    assert sorted(tmp_path.iterdir()) == [path]  # no .tmp left behind
    monkeypatch.undo()
    _write_json(path, {"mrr": 0.75})
    assert json.loads(path.read_text(encoding="utf-8")) == {"mrr": 0.75}
    assert sorted(tmp_path.iterdir()) == [path]


class TestAnalyze:
    def test_report_csv_and_svg(self, tmp_path):
        train = tmp_path / "train.tsv"
        train.write_text("a\tr1\tb\nb\tr2\tc\nc\tr1\td\n", encoding="utf-8")
        report = tmp_path / "report.json"
        svg = tmp_path / "arcs.svg"
        pairs = tmp_path / "pairs.csv"
        code = main(
            [
                "analyze",
                "--train",
                str(train),
                "--out",
                str(report),
                "--svg",
                str(svg),
                "--csv",
                str(pairs),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["Psi"] == 0.0  # both orders of (r1, r2) occur once each
        assert svg.read_text().startswith("<svg")
        assert len(list(csv.reader(pairs.read_text().splitlines()))) >= 2

    @staticmethod
    def _seeded_train(path, seed=7, lines=120, entities=60, relations=12):
        """A train file from a 64-bit LCG, so its bytes depend on no library's
        random stream; it holds self-loops, repeated lines and reversed edges."""
        rows, x = [], seed
        for _ in range(lines):
            x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
            rows.append(((x >> 45) % entities, (x >> 20) % relations, (x >> 33) % entities))
        rows += rows[::13] + [(t, (r + 1) % relations, h) for h, r, t in rows[::11]]
        rows += [(h, r, h) for h, r, _ in rows[::17]]
        path.write_text("".join(f"e{h}\tr{r}\te{t}\n" for h, r, t in rows), encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "flags, recorded",
        [
            (
                [],
                {
                    "report.json": "d220d12d158a93cb96f7471ad1893c281eb5d2d8804334fbe740c5ee74b5d29c",
                    "pairs.csv": "ed020cedbde981c754c0470875e3e177abbb2a4e3111cc8751f103c040c8f325",
                    "arcs.svg": "87661d34f816ae66a2f5b4aa2b1e440ebf8042431a4187fb9225b589eb0a3a2c",
                },
            ),
            (
                ["--exclude-degenerate"],
                {
                    "report.json": "e4836ba2fa31197f440aba8ad4e4da80b968c19c04ed944888be2a281540a32c",
                    "pairs.csv": "3b696704b104fed14732b7033f0f17226ebaecf3580398a75880993eb80483dc",
                    "arcs.svg": "dbd8a494e85e621742922f7818acf40521ae04a22a54e182bd7cad4b6572827e",
                },
            ),
        ],
        ids=["default", "exclude-degenerate"],
    )
    def test_outputs_match_recorded_bytes(self, tmp_path, flags, recorded):
        # sha256 of the files the lexsort/np.unique ingest and the argsort
        # reverse-edge join wrote for this graph
        train = self._seeded_train(tmp_path / "train.tsv")
        out = tmp_path / "out"
        out.mkdir()
        argv = ["analyze", "--train", str(train), "--out", str(out / "report.json")]
        argv += ["--csv", str(out / "pairs.csv"), "--svg", str(out / "arcs.svg"), *flags]
        assert main(argv) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert written == recorded

    def test_invalid_utf8_is_usage_error(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_bytes(b"a\tr\tb\n\xc3\x28\tr\ta\n")
        out = tmp_path / "report.json"
        assert main(["analyze", "--train", str(train), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: 'utf-8' codec can't decode byte 0xc3 in position 6: invalid continuation byte\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n\n\n"])
    def test_empty_train_file_is_usage_error(self, tmp_path, capsys, text):
        train = tmp_path / "train.tsv"
        train.write_text(text, encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["analyze", "--train", str(train), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "empty" in err and "Traceback" not in err
        assert not out.exists()


#: every usage error the CLI reports, as (argv, the one error message), with
#: {d} for the directory of the files that ``bad_input_dir`` writes
BAD_INPUT = {
    "train-unknown-key": (["train", "--config", "{d}/unknown.cfg"], "unknown config keys: momentum"),
    "train-missing-config": (
        ["train", "--config", "{d}/nope.cfg"],
        "[Errno 2] No such file or directory: '{d}/nope.cfg'",
    ),
    "train-config-not-utf8": (
        ["train", "--config", "{d}/bad.cfg"],
        "{d}/bad.cfg: 'utf-8' codec can't decode byte 0xff in position 24: invalid start byte",
    ),
    "train-line-without-equals": (["train", "--config", "{d}/noeq.cfg"], "line 1: expected 'key = value', got 'n 4'"),
    "train-empty-key": (["train", "--config", "{d}/nokey.cfg"], "line 1: empty key"),
    "train-duplicate-key": (["train", "--config", "{d}/twice.cfg"], "line 3: duplicate key 'n'"),
    "train-no-train-path": (["train", "--config", "{d}/notrain.cfg"], "missing required key data.train"),
    "train-odd-n": (["train", "--config", "{d}/oddn.cfg"], "n must be positive and even, got 7"),
    "train-negative-epochs": (["train", "--config", "{d}/epochs.cfg"], "epochs must be >= 0"),
    "train-negative-eval-every": (
        ["train", "--config", "{d}/evalevery.cfg"],
        "eval_every must be >= 0 (0 disables validation)",
    ),
    "train-unknown-dura-variant": (
        ["train", "--config", "{d}/dura.cfg"],
        "reg.dura_variant must be one of ('literal', 'exact'), got 'foo'",
    ),
    "train-repeats-0": (["train", "--config", "{d}/ok.cfg", "--repeats", "0"], "--repeats must be at least 1, got 0"),
    "train-threads-0": (["train", "--config", "{d}/ok.cfg", "--threads", "0"], "--threads must be at least 1, got 0"),
    "eval-empty-split": (
        ["eval", "--checkpoint", "{d}/ok.bin", "--train", "{d}/train.tsv", "--split", "test"],
        "split 'test' is empty",
    ),
    "eval-entity-mismatch": (
        ["eval", "--checkpoint", "{d}/seven.bin", "--train", "{d}/train.tsv", "--test", "{d}/train.tsv"],
        "checkpoint has 7 entities, dataset has 3",
    ),
    "eval-missing-checkpoint": (
        ["eval", "--checkpoint", "{d}/nope.bin", "--train", "{d}/train.tsv", "--test", "{d}/train.tsv"],
        "[Errno 2] No such file or directory: '{d}/nope.bin'",
    ),
    "eval-truncated-checkpoint": (
        ["eval", "--checkpoint", "{d}/short.bin", "--train", "{d}/train.tsv", "--test", "{d}/train.tsv"],
        "{d}/short.bin: size 128 != expected 257",
    ),
    "eval-checkpoint-shorter-than-header": (
        ["eval", "--checkpoint", "{d}/tiny.bin", "--train", "{d}/train.tsv", "--test", "{d}/train.tsv"],
        "{d}/tiny.bin: truncated checkpoint",
    ),
    "eval-checkpoint-version": (
        ["eval", "--checkpoint", "{d}/v1.bin", "--train", "{d}/train.tsv", "--test", "{d}/train.tsv"],
        "{d}/v1.bin: unsupported checkpoint version 1",
    ),
    "eval-checkpoint-kind-code": (
        ["eval", "--checkpoint", "{d}/kind.bin", "--train", "{d}/train.tsv", "--test", "{d}/train.tsv"],
        "{d}/kind.bin: unknown model kind code 255",
    ),
    "eval-checkpoint-odd-relation-rows": (
        ["eval", "--checkpoint", "{d}/oddrows.bin", "--train", "{d}/train.tsv", "--test", "{d}/train.tsv"],
        "{d}/oddrows.bin: relation row count 3 is not even",
    ),
    "eval-checkpoint-sidecar-malformed": (
        ["eval", "--checkpoint", "{d}/badjson.bin", "--train", "{d}/train.tsv", "--test", "{d}/train.tsv"],
        "{d}/badjson.bin.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "eval-checkpoint-sidecar-not-utf8": (
        ["eval", "--checkpoint", "{d}/badutf8.bin", "--train", "{d}/train.tsv", "--test", "{d}/train.tsv"],
        "{d}/badutf8.bin.json: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte",
    ),
    "eval-nan-checkpoint": (
        ["eval", "--checkpoint", "{d}/nan.bin", "--train", "{d}/train.tsv", "--test", "{d}/train.tsv"],
        "the entity table holds a non-finite value, so its ranks would be meaningless",
    ),
    "eval-zero-dimension-checkpoint": (
        ["eval", "--checkpoint", "{d}/zero.bin", "--train", "{d}/train.tsv", "--test", "{d}/train.tsv"],
        "embedding dimension must be positive and even, got 0",
    ),
    "eval-empty-train": (
        ["eval", "--checkpoint", "{d}/ok.bin", "--train", "{d}/empty.tsv"],
        "train split {d}/empty.tsv is empty",
    ),
    "analyze-empty": (
        ["analyze", "--train", "{d}/empty.tsv", "--out", "{d}/r.json"],
        "train split {d}/empty.tsv is empty",
    ),
    "analyze-two-fields": (
        ["analyze", "--train", "{d}/two.tsv", "--out", "{d}/r.json"],
        "{d}/two.tsv:1: expected 3 tab-separated fields, got 2",
    ),
    "analyze-not-utf8": (
        ["analyze", "--train", "{d}/bad.tsv", "--out", "{d}/r.json"],
        "'utf-8' codec can't decode byte 0xc3 in position 6: invalid continuation byte",
    ),
    "analyze-missing": (
        ["analyze", "--train", "{d}/nope.tsv", "--out", "{d}/r.json"],
        "[Errno 2] No such file or directory: '{d}/nope.tsv'",
    ),
    "analyze-chainless": (
        ["analyze", "--train", "{d}/chainless.tsv", "--out", "{d}/r.json"],
        "no two-hop chains at all, imbalance ratio is undefined",
    ),
    "analyze-unwritable-out": (
        ["analyze", "--train", "{d}/train.tsv", "--out", "{d}/blocker/r.json"],
        "[Errno 17] File exists: '{d}/blocker'",
    ),
    "verify-odd-n": (["verify", "--n", "7"], "n must be positive and even, got 7"),
    "verify-no-trials": (["verify", "--trials", "0"], "trials must be at least 1, got 0"),
    "verify-unwritable-json": (
        ["verify", "--n", "4", "--trials", "2", "--json", "{d}/blocker/c.json"],
        "[Errno 17] File exists: '{d}/blocker'",
    ),
    "synth-unknown-key": (["synth", "--spec", "{d}/colour.spec", "--out", "{d}/kg"], "unknown synth spec key 'colour'"),
    "synth-no-num-entities": (
        ["synth", "--spec", "{d}/noentities.spec", "--out", "{d}/kg"],
        "missing required key num_entities",
    ),
    "synth-no-relations": (["synth", "--spec", "{d}/norelations.spec", "--out", "{d}/kg"], "spec declares no relations"),
    "synth-unknown-field": (
        ["synth", "--spec", "{d}/field.spec", "--out", "{d}/kg"],
        "relation.0: unknown fields ['colour']",
    ),
    "synth-malformed-compose": (
        ["synth", "--spec", "{d}/compose.spec", "--out", "{d}/kg"],
        "compose.0 must be 'first, second, composed, commuting|noncommuting'",
    ),
    "synth-malformed-offset": (
        ["synth", "--spec", "{d}/offset.spec", "--out", "{d}/kg"],
        "relation.0.offset must be 'di,dj'",
    ),
    "synth-unknown-rule-kind": (
        ["synth", "--spec", "{d}/spiral.spec", "--out", "{d}/kg"],
        "unknown rule kind 'spiral' for relation 'a'",
    ),
    "synth-one-entity": (["synth", "--spec", "{d}/one.spec", "--out", "{d}/kg"], "need at least 2 entities"),
    "synth-holdout-fraction": (
        ["synth", "--spec", "{d}/holdout.spec", "--out", "{d}/kg"],
        "holdout_fraction must lie in [0, 1)",
    ),
    "synth-paired-holdout-fraction": (
        ["synth", "--spec", "{d}/paired.spec", "--out", "{d}/kg"],
        "paired_holdout_fraction must lie in [0, 1]",
    ),
    "synth-symmetric-too-few-entities": (
        ["synth", "--spec", "{d}/pairs.spec", "--out", "{d}/kg"],
        "symmetric rule 'a' needs more entities",
    ),
    "synth-no-kind": (["synth", "--spec", "{d}/nokind.spec", "--out", "{d}/kg"], "relation.0 needs both name and kind"),
    "synth-aliased-index": (
        ["synth", "--spec", "{d}/aliased.spec", "--out", "{d}/kg"],
        "synth spec key 'relation.01.name': write the index as 1",
    ),
    "synth-tab-in-name": (
        ["synth", "--spec", "{d}/tabname.spec", "--out", "{d}/kg"],
        "relation name 'a\\tb' holds a tab or line break, which a TSV line cannot store",
    ),
    "synth-spec-not-utf8": (
        ["synth", "--spec", "{d}/bad.spec", "--out", "{d}/kg"],
        "{d}/bad.spec: 'utf-8' codec can't decode byte 0xff in position 16: invalid start byte",
    ),
    "synth-missing-spec": (
        ["synth", "--spec", "{d}/nope.spec", "--out", "{d}/kg"],
        "[Errno 2] No such file or directory: '{d}/nope.spec'",
    ),
}


@pytest.fixture
def bad_input_dir(tmp_path):
    from star_kge.model import _CKPT_HEADER, _CKPT_MAGIC, _CKPT_VERSION, init_embeddings

    d = tmp_path
    (d / "train.tsv").write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
    (d / "chainless.tsv").write_text("a\tr\tb\n", encoding="utf-8")
    (d / "empty.tsv").write_text("", encoding="utf-8")
    (d / "two.tsv").write_text("a\tr\n", encoding="utf-8")
    (d / "bad.tsv").write_bytes(b"a\tr\tb\n\xc3\x28\tr\ta\n")
    (d / "blocker").write_text("", encoding="utf-8")  # a regular file where a directory is wanted
    (d / "nokind.spec").write_text("num_entities = 10\nrelation.0.name = x\n", encoding="utf-8")
    (d / "aliased.spec").write_text("num_entities = 10\nrelation.1.name = a\nrelation.01.name = b\n", encoding="utf-8")
    (d / "tabname.spec").write_text("num_entities = 10\nrelation.0.name = a\tb\nrelation.0.kind = symmetric\n", encoding="utf-8")
    (d / "bad.cfg").write_bytes(b"data.train = x.tsv\nn = 4\xff\n")
    (d / "bad.spec").write_bytes(b"num_entities = 1\xff0\n")
    (d / "ok.cfg").write_text(f"data.train = {d / 'train.tsv'}\nout_dir = {d / 'run'}\n", encoding="utf-8")
    (d / "unknown.cfg").write_text((d / "ok.cfg").read_text(encoding="utf-8") + "momentum = 0.9\n", encoding="utf-8")
    for name, extra in [
        ("noeq", "n 4\n"),
        ("nokey", " = 4\n"),
        ("twice", "n = 4\nlr = 0.1\nn = 6\n"),
        ("oddn", "n = 7\n"),
        ("epochs", "epochs = -1\n"),
        ("evalevery", "eval_every = -1\n"),
        ("dura", "reg.dura_variant = foo\n"),
    ]:
        # the bad line first, so that a line-numbered message names line 1
        (d / f"{name}.cfg").write_text(extra + (d / "ok.cfg").read_text(encoding="utf-8"), encoding="utf-8")
    (d / "notrain.cfg").write_text("n = 4\n", encoding="utf-8")
    relation = "relation.0.name = a\nrelation.0.kind = symmetric\n"
    for name, text in [
        ("colour", "num_entities = 10\ncolour = red\n" + relation),
        ("noentities", relation),
        ("norelations", "num_entities = 10\n"),
        ("field", "num_entities = 10\n" + relation + "relation.0.colour = red\n"),
        ("compose", "num_entities = 10\n" + relation + "compose.0 = a, a\n"),
        ("offset", "num_entities = 10\n" + relation + "relation.0.offset = 1\n"),
        ("spiral", "num_entities = 10\nrelation.0.name = a\nrelation.0.kind = spiral\n"),
        ("one", "num_entities = 1\n" + relation),
        ("holdout", "num_entities = 10\nholdout_fraction = 1.0\n" + relation),
        ("paired", "num_entities = 10\npaired_holdout_fraction = 1.5\n" + relation),
        ("pairs", "num_entities = 10\n" + relation + "relation.0.num_pairs = 6\n"),
    ]:
        (d / f"{name}.spec").write_text(text, encoding="utf-8")
    init_embeddings(3, 1, 4, seed=0).save_checkpoint(d / "ok.bin")
    init_embeddings(7, 1, 4, seed=0).save_checkpoint(d / "seven.bin")
    (d / "short.bin").write_bytes((d / "ok.bin").read_bytes()[:128])
    for name, sidecar in [("badjson", b"{epoch: 1}\n"), ("badutf8", b'{"epoch": "\xff"}\n')]:
        (d / f"{name}.bin").write_bytes((d / "ok.bin").read_bytes())
        (d / f"{name}.bin.json").write_bytes(sidecar)
    nan = init_embeddings(3, 1, 4, seed=0)
    nan.entity_embeddings[1, 2] = np.nan
    nan.save_checkpoint(d / "nan.bin")
    # a header-only file whose header says n = 0 has the size it promises
    (d / "zero.bin").write_bytes(_CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, 0, 3, 2, 0))
    (d / "tiny.bin").write_bytes(_CKPT_MAGIC)
    # a version-1 body, entities (|E|, n) row-major, has the current size
    body = (d / "ok.bin").read_bytes()[_CKPT_HEADER.size :]
    (d / "v1.bin").write_bytes(_CKPT_HEADER.pack(_CKPT_MAGIC, 1, 4, 3, 2, 0) + body)
    (d / "kind.bin").write_bytes(_CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, 4, 3, 2, 255))
    # 3 entities and 3 relation rows of n = 4, at the size the header promises
    (d / "oddrows.bin").write_bytes(_CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, 4, 3, 3, 0) + bytes(8 * (12 + 24)))
    return d


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_bad_input_is_one_error_line(case, bad_input_dir, capsys):
    argv, message = BAD_INPUT[case]
    assert main([arg.format(d=bad_input_dir) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: {message.format(d=bad_input_dir)}"
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert "Traceback" not in err
