import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from star_kge.cli import main

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

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("num_entities = 10\nrelation.0.name = x\n", encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "kind" in capsys.readouterr().err


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
        assert set(row) == {"epoch", "mean_loss", "valid_mrr", "wall_ms"}

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

    def test_invalid_model_kind_names_the_field(self, synth_dir, tmp_path, capsys):
        cfg = write_train_config(
            tmp_path / "train.cfg", synth_dir, tmp_path / "x", model_kind="RESCAL"
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert "model_kind" in capsys.readouterr().err

    def test_unknown_key_is_usage_error(self, synth_dir, tmp_path, capsys):
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, tmp_path / "x")
        cfg.write_text(cfg.read_text() + "momentum = 0.9\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "momentum" in capsys.readouterr().err

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
        assert set(shown) == {"mrr", "hits", "num_queries", "tie_rule", "ranking_s"}
        assert shown["tie_rule"] == "random"
        assert shown["ranking_s"] > 0.0
        assert json.loads(out.read_text())["ranking_s"] == shown["ranking_s"]

    def test_eval_on_test_split(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, out, epochs=2)
        assert main(["train", "--config", str(cfg)]) == 0
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "per_relation.csv"
        cls_path = tmp_path / "per_class.json"
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
                "--per-relation",
                str(csv_path),
                "--per-class",
                str(cls_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert 0.0 < payload["mrr"] <= 1.0
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        # header plus one row per relation present in the test split
        assert rows[0] == ["relation", "proportion", "mrr"]
        test_rels = {
            r for _, r, _ in np.loadtxt(synth_dir / "test.tsv", dtype=str, delimiter="\t", ndmin=2)
        }
        assert len(rows) - 1 == len(test_rels)
        assert json.loads(cls_path.read_text())

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

    def test_dimension_mismatch_is_usage_error(self, synth_dir, tmp_path, capsys):
        from star_kge.model import init_embeddings

        table = init_embeddings(7, 4, 4, seed=0)  # wrong entity count
        ckpt = tmp_path / "bad.bin"
        table.save_checkpoint(ckpt)
        code = main(
            [
                "eval",
                "--checkpoint",
                str(ckpt),
                "--train",
                str(synth_dir / "train.tsv"),
                "--test",
                str(synth_dir / "test.tsv"),
            ]
        )
        assert code == 2
        assert "entities" in capsys.readouterr().err


class TestVerify:
    def test_default_run_passes(self, capsys, tmp_path):
        json_path = tmp_path / "checks.json"
        assert main(["verify", "--n", "8", "--trials", "20", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "Composition" in out and "PASS" in out and "FAIL" not in out
        rows = json.loads(json_path.read_text())
        assert all(r["passed"] for r in rows)

    @pytest.mark.parametrize("flag", [["--threads=1"], ["--threads", "1"]])
    def test_both_threads_forms_pin_blas(self, monkeypatch, capsys, flag):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "unset")  # restored to the original at teardown
            monkeypatch.delenv(var)
        assert main(["verify", *flag, "--n", "4", "--trials", "5"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_cli_import_leaves_numpy_unloaded(self):
        """numpy must load after --threads has pinned the BLAS pools."""
        import subprocess
        import sys

        import star_kge

        env = dict(os.environ, PYTHONPATH=str(Path(star_kge.__file__).parents[1]))
        code = "import sys, star_kge.cli; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_odd_dimension_is_usage_error(self, capsys):
        assert main(["verify", "--n", "7"]) == 2
        assert "even" in capsys.readouterr().err

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

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert (
            main(["analyze", "--train", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "r")])
            == 2
        )
