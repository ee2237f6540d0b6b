import json
import re
from pathlib import Path

import pytest

from star_kge.cli import build_parser, main
from star_kge.config import (
    _KEYS,
    _integer,
    _number,
    _parse_value,
    load_flat_config,
    parse_flat_config,
    run_config_from_dict,
)

ROOT = Path(__file__).resolve().parent.parent


def flatten(nested: dict, prefix: str = "") -> dict:
    """Dotted flat keys of a nested manifest, skipping unset (None) values."""
    out = {}
    for key, value in nested.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        elif value is not None:
            out[f"{prefix}{key}"] = value
    return out


def readme_key_rows() -> list:
    """``(key, default cell)`` rows of the README's training-key table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("## Configuration dialect", 1)[1].split("\n\n")[2]
    rows = []
    for line in table.splitlines()[2:]:
        key, _, default = (cell.strip() for cell in line.strip("|").split("|"))
        assert re.fullmatch(r"`[\w.]+`", key), f"one key per row, got {key}"
        rows.append((key.strip("`"), default))
    return rows


def readme_typed_keys() -> tuple[list, list]:
    """The keys that the README's sentence under the training-key table
    names as integers, and those it names as finite numbers."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = " ".join(text.split("## Configuration dialect", 1)[1].split("\n\n")[3].split())
    integers, numbers = re.fullmatch(r"(.*) must be integers; (.*?) must be finite numbers\b.*", paragraph).groups()
    return re.findall(r"`([\w.]+)`", integers), re.findall(r"`([\w.]+)`", numbers)


def readme_command_examples() -> list:
    """``(subcommand, text)`` for each example of the README's command-line
    block: a run of comment lines and the ``star-kge`` commands they describe."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for example in block.split("\n\n"):
        commands = set(re.findall(r"^star-kge (\w+)", example, re.MULTILINE))
        assert len(commands) == 1, f"one subcommand per example, got {commands}"
        examples.append((commands.pop(), example))
    return examples


def readme_command_flags() -> list:
    """``(subcommand, flags)`` for each example of the README's command-line block."""
    return [(command, set(re.findall(r"--[a-z][a-z-]*", example))) for command, example in readme_command_examples()]


def readme_comment(command: str) -> str:
    """The comment lines of the README's command-line example of ``command``."""
    example = dict(readme_command_examples())[command]
    return "\n".join(line for line in example.splitlines() if line.startswith("#"))


class TestManifest:
    def test_shipped_config_hash_is_pinned(self):
        cfg = load_flat_config(ROOT / "configs" / "wn18rr_star_n32.cfg")
        assert run_config_from_dict(cfg).config_hash() == "853490547a1dce76"

    def test_all_defaults_hash_is_pinned(self):
        assert run_config_from_dict({"data.train": "x"}).config_hash() == "cca0c33088c16e1c"

    @pytest.mark.parametrize(
        "moved",
        [
            {"out_dir": "/elsewhere/run"},
            {"data.train": "/data/wn/train.txt", "data.valid": "/data/wn/valid.txt", "data.test": "/data/wn/test.txt"},
        ],
        ids=["out_dir", "data-directory"],
    )
    def test_hash_identifies_settings_not_directories(self, moved):
        base = {"data.train": "wn/train.txt", "data.valid": "wn/valid.txt", "data.test": "wn/test.txt", "lr": 0.05}
        here, there = run_config_from_dict(base), run_config_from_dict(base | moved)
        assert here.to_dict() != there.to_dict()
        assert here.config_hash() == there.config_hash()
        assert here.config_hash() != run_config_from_dict(base | {"lr": 0.5}).config_hash()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"data.train": "x"},
            load_flat_config(ROOT / "configs" / "wn18rr_star_n32.cfg"),
            {"data.train": "a", "data.test": "b", "model_kind": "ComplEx", "lr": 1, "reg.kind": "Fro"},
            parse_flat_config("data.train = 'a b.tsv'\nmodel_kind = \"DistMult\"\n"),
        ],
        ids=["defaults", "shipped", "partial", "quoted"],
    )
    def test_flattened_manifest_reads_back_equal(self, cfg):
        run = run_config_from_dict(cfg)
        assert run_config_from_dict(flatten(run.to_dict())) == run


class TestReadmeTable:
    def test_table_lists_every_key_once(self):
        assert sorted(key for key, _ in readme_key_rows()) == sorted(_KEYS)

    def test_default_cells_match_the_dataclass_defaults(self):
        defaults = flatten(run_config_from_dict({"data.train": "x"}).to_dict())
        for key, cell in readme_key_rows():
            if cell == "-":
                # no default: required, or unset
                assert key == "data.train" or key not in defaults, key
            else:
                assert _parse_value(cell) == defaults[key], key

    def test_command_examples_use_only_defined_flags(self):
        subparsers = next(a for a in build_parser()._actions if isinstance(a.choices, dict)).choices
        examples = readme_command_flags()
        assert sorted(command for command, _ in examples) == sorted(subparsers)
        for command, flags in examples:
            defined = set(subparsers[command]._option_string_actions)
            assert flags <= defined, (command, sorted(flags - defined))

    def test_command_comments_name_every_logged_and_printed_key(self, tmp_path, capsys):
        """``train``'s comment names every key of an epoch record, and
        ``eval``'s every key that the command prints."""
        from star_kge.data import load_dataset
        from star_kge.training import TrainConfig, train

        (tmp_path / "train.tsv").write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
        (tmp_path / "test.tsv").write_text("a\tr\tc\n", encoding="utf-8")
        store = load_dataset(tmp_path / "train.tsv", test_path=tmp_path / "test.tsv")
        table, log = train(store, TrainConfig(n=4, epochs=1, batch_size=2))
        table.save_checkpoint(tmp_path / "model.bin")
        args = ["eval", "--checkpoint", str(tmp_path / "model.bin"), "--train", str(tmp_path / "train.tsv")]
        assert main(args + ["--test", str(tmp_path / "test.tsv")]) == 0
        printed = json.loads(capsys.readouterr().out)
        for command, keys in (("train", log[0]), ("eval", printed)):
            comment = readme_comment(command)
            missing = [key for key in keys if not re.search(rf"\b{key}\b", comment)]
            assert not missing, (command, missing)

    def test_typed_key_sentence_matches_the_parsers(self):
        integers, numbers = readme_typed_keys()
        assert sorted(integers) == sorted(key for key, (_, _, parse) in _KEYS.items() if parse is _integer)
        assert sorted(numbers) == sorted(key for key, (_, _, parse) in _KEYS.items() if parse is _number)
