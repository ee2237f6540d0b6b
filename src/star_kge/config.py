"""Flat key-value run configuration with dotted sections.

The dialect is one ``key = value`` pair per line; ``#`` starts a comment
line, section nesting is spelled with dots (``reg.lambda = 0.05``) and list
entries with numeric segments (``relation.0.kind = grid_rotation``).
Values parse as bool, int, float or (optionally quoted) string.

The training keys, their meanings and defaults are tabled in the README
("Configuration dialect"); ``_KEYS`` below declares each one once, with the
field that holds it and its parser. The parsers reject a float, bool or
word for an integer key and a bool, word, nan or inf for a number key with
a :class:`ConfigError`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .model import MODEL_KINDS
from .regularization import RegConfig
from .synthetic import CompositionRule, RelationRule, SynthSpec
from .training import TrainConfig


class ConfigError(ValueError):
    """A run configuration is missing, malformed or inconsistent."""


def _parse_value(raw: str):
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        return raw[1:-1]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_flat_config(text: str) -> dict:
    out: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_value(raw)
    return out


def load_flat_config(path) -> dict:
    return parse_flat_config(Path(path).read_text(encoding="utf-8"))


@dataclass
class RunConfig:
    """Everything one training run needs, resolvable to a reproducibility manifest."""

    train_path: str
    model_kind: str = "STaR"
    valid_path: str | None = None
    test_path: str | None = None
    out_dir: str = "run"
    train: TrainConfig = field(default_factory=lambda: TrainConfig(n=32, epochs=10))

    def to_dict(self) -> dict:
        """The manifest: every key of ``_KEYS``, nested at its dots."""
        holders = {RunConfig: self, TrainConfig: self.train, RegConfig: self.train.reg}
        out: dict = {}
        for key, (holder, name, _) in _KEYS.items():
            *sections, leaf = key.split(".")
            node = out
            for section in sections:
                node = node.setdefault(section, {})
            node[leaf] = getattr(holders[holder], name)
        return out

    def config_hash(self) -> str:
        """The hash of the manifest less its paths (``data.*`` and
        ``out_dir``): runs of equal settings share it wherever their files are."""
        settings = self.to_dict()
        del settings["data"], settings["out_dir"]
        blob = json.dumps(settings, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def _integer(key: str, value) -> int:
    """A parsed value that must be an integer: no float, bool or word."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _number(key: str, value) -> float:
    """A parsed value that must be a finite number: no bool, word, nan or inf."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _text(key: str, value) -> str:
    return str(value)


def _model_kind(key: str, value) -> str:
    kind = str(value)
    if kind not in MODEL_KINDS:
        raise ConfigError(f"{key} must be one of {MODEL_KINDS}, got {kind!r}")
    return kind


#: every training key: the dataclass that holds it, its field there and its
#: parser; the defaults are those of the dataclasses
_KEYS = {
    "model_kind": (RunConfig, "model_kind", _model_kind),
    "data.train": (RunConfig, "train_path", _text),
    "data.valid": (RunConfig, "valid_path", _text),
    "data.test": (RunConfig, "test_path", _text),
    "out_dir": (RunConfig, "out_dir", _text),
    "n": (TrainConfig, "n", _integer),
    "lr": (TrainConfig, "lr", _number),
    "batch_size": (TrainConfig, "batch_size", _integer),
    "epochs": (TrainConfig, "epochs", _integer),
    "w0": (TrainConfig, "w0", _number),
    "seed": (TrainConfig, "seed", _integer),
    "optimizer": (TrainConfig, "optimizer", _text),
    "eval_every": (TrainConfig, "eval_every", _integer),
    "init_scale": (TrainConfig, "init_scale", _number),
    "reg.kind": (RegConfig, "kind", _text),
    "reg.lambda": (RegConfig, "lam", _number),
    "reg.dura_variant": (RegConfig, "dura_variant", _text),
}


def run_config_from_dict(cfg: dict) -> RunConfig:
    unknown = sorted(set(cfg) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "data.train" not in cfg:
        raise ConfigError("missing required key data.train")
    given: dict = {RunConfig: {}, TrainConfig: {}, RegConfig: {}}
    for key, (holder, name, parse) in _KEYS.items():
        if key in cfg:
            given[holder][name] = parse(key, cfg[key])
    try:
        run = RunConfig(**given[RunConfig])
        reg = replace(run.train.reg, **given[RegConfig])
        run.train = replace(run.train, reg=reg, **given[TrainConfig])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return run


def _offset(key: str, value) -> tuple[int, int]:
    parts = str(value).split(",")
    if len(parts) != 2:
        raise ConfigError(f"{key} must be 'di,dj'")
    return tuple(_integer(key, _parse_value(p)) for p in parts)


#: parsers of the top-level synth-spec keys and of the fields of a ``relation.<k>`` group
_SPEC_KEYS = {
    "num_entities": _integer,
    "seed": _integer,
    "holdout_fraction": _number,
    "paired_holdout_fraction": _number,
}
_RELATION_FIELDS = {"name": _text, "kind": _text, "of": _text, "offset": _offset}
_RELATION_FIELDS |= dict.fromkeys(("quarter_turns", "num_tails", "heads_per_tail", "num_pairs"), _integer)


def synth_spec_from_dict(cfg: dict) -> SynthSpec:
    """Assemble a synthetic-KG spec from indexed flat keys.

    Relations are spelled ``relation.<k>.<field>``; compositions as
    ``compose.<k> = first, second, composed, commuting|noncommuting``.
    """
    relations: dict[int, dict] = {}
    compositions: dict[int, str] = {}
    for key, value in cfg.items():
        if key in _SPEC_KEYS:
            continue
        parts = key.split(".")
        if parts[0] == "relation" and len(parts) == 3 and parts[1].isdigit():
            relations.setdefault(int(parts[1]), {})[parts[2]] = value
        elif parts[0] == "compose" and len(parts) == 2 and parts[1].isdigit():
            compositions[int(parts[1])] = str(value)
        else:
            raise ConfigError(f"unknown synth spec key {key!r}")
    if "num_entities" not in cfg:
        raise ConfigError("missing required key num_entities")
    if not relations:
        raise ConfigError("spec declares no relations")

    rules = []
    for k in sorted(relations):
        fields = relations[k]
        if "name" not in fields or "kind" not in fields:
            raise ConfigError(f"relation.{k} needs both name and kind")
        unknown = sorted(set(fields) - set(_RELATION_FIELDS))
        if unknown:
            raise ConfigError(f"relation.{k}: unknown fields {unknown}")
        rules.append(RelationRule(**{f: _RELATION_FIELDS[f](f"relation.{k}.{f}", v) for f, v in fields.items()}))

    comps = []
    for k in sorted(compositions):
        parts = [p.strip() for p in compositions[k].split(",")]
        if len(parts) != 4 or parts[3] not in ("commuting", "noncommuting"):
            raise ConfigError(
                f"compose.{k} must be 'first, second, composed, commuting|noncommuting'"
            )
        comps.append(CompositionRule(parts[0], parts[1], parts[2], parts[3] == "commuting"))

    scalars = {key: parse(key, cfg[key]) for key, parse in _SPEC_KEYS.items() if key in cfg}
    try:
        return SynthSpec(relations=rules, compositions=comps, **scalars)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
