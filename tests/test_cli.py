import csv
import hashlib
import json
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

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("num_entities = 10\nrelation.0.name = x\n", encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "kind" in capsys.readouterr().err


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
            "entities.txt": "38512920d297cfd94c2c166d2fe1a7c530ab4712fcb9cf8035011d4bbcfef993",
            "manifest.json": "5067d7325776cf3c74574bc3acc354fb35abe32769b8671de8267985e21bbfa2",
            "relations.txt": "5cbca257fe0566ab316c45e487cae79bd2a8f63492a4d06c71143e6f166c3984",
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

    def test_unknown_key_is_usage_error(self, synth_dir, tmp_path, capsys):
        cfg = write_train_config(tmp_path / "train.cfg", synth_dir, tmp_path / "x")
        cfg.write_text(cfg.read_text() + "momentum = 0.9\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "momentum" in capsys.readouterr().err

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

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert (
            main(["analyze", "--train", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "r")])
            == 2
        )

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
