import re
from pathlib import Path

import pytest

from star_kge.config import _KEYS, _integer, _number, _parse_value, load_flat_config, run_config_from_dict

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
        ],
        ids=["defaults", "shipped", "partial"],
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

    def test_typed_key_sentence_matches_the_parsers(self):
        integers, numbers = readme_typed_keys()
        assert sorted(integers) == sorted(key for key, (_, _, parse) in _KEYS.items() if parse is _integer)
        assert sorted(numbers) == sorted(key for key, (_, _, parse) in _KEYS.items() if parse is _number)
