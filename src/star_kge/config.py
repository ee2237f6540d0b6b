"""Flat key-value run configuration with dotted sections.

The dialect is one ``key = value`` pair per line; ``#`` starts a comment
line, section nesting is spelled with dots (``reg.lambda = 0.05``) and list
entries with numeric segments (``relation.0.kind = grid_rotation``).
Values parse as bool, int, float or (optionally quoted) string.

Recognized training keys::

    model_kind   STaR | TaR | ComplEx | DistMult
    n, lr, batch_size, epochs, w0, seed, optimizer, eval_every, init_scale
    reg.kind     none | Fro | DURA
    reg.lambda   penalty weight
    reg.dura_variant  literal | exact
    data.train, data.valid, data.test   TSV paths
    out_dir      output directory

``n``, ``batch_size``, ``epochs``, ``seed`` and ``eval_every`` must parse
as integers: a float, bool or word is a :class:`ConfigError`. ``lr``,
``w0``, ``init_scale``, ``reg.lambda`` and the synth-spec fractions must
parse as finite numbers: a bool, word, nan or inf is one too.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

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


_TRAIN_KEYS = {
    "model_kind",
    "n",
    "lr",
    "batch_size",
    "epochs",
    "w0",
    "seed",
    "optimizer",
    "eval_every",
    "init_scale",
    "reg.kind",
    "reg.lambda",
    "reg.dura_variant",
    "data.train",
    "data.valid",
    "data.test",
    "out_dir",
}


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
        return {
            "model_kind": self.model_kind,
            "data": {
                "train": self.train_path,
                "valid": self.valid_path,
                "test": self.test_path,
            },
            "out_dir": self.out_dir,
            "n": self.train.n,
            "lr": self.train.lr,
            "batch_size": self.train.batch_size,
            "epochs": self.train.epochs,
            "w0": self.train.w0,
            "seed": self.train.seed,
            "optimizer": self.train.optimizer,
            "eval_every": self.train.eval_every,
            "init_scale": self.train.init_scale,
            "reg": {
                "kind": self.train.reg.kind,
                "lambda": self.train.reg.lam,
                "dura_variant": self.train.reg.dura_variant,
            },
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def run_config_from_dict(cfg: dict) -> RunConfig:
    unknown = sorted(set(cfg) - _TRAIN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "data.train" not in cfg:
        raise ConfigError("missing required key data.train")
    model_kind = str(cfg.get("model_kind", "STaR"))
    from .model import MODEL_KINDS

    if model_kind not in MODEL_KINDS:
        raise ConfigError(f"model_kind must be one of {MODEL_KINDS}, got {model_kind!r}")
    try:
        reg = RegConfig(
            kind=str(cfg.get("reg.kind", "none")),
            lam=_number("reg.lambda", cfg.get("reg.lambda", 0.0)),
            dura_variant=str(cfg.get("reg.dura_variant", "literal")),
        )
        train = TrainConfig(
            n=_integer("n", cfg.get("n", 32)),
            epochs=_integer("epochs", cfg.get("epochs", 10)),
            lr=_number("lr", cfg.get("lr", 0.1)),
            batch_size=_integer("batch_size", cfg.get("batch_size", 100)),
            w0=_number("w0", cfg.get("w0", 0.0)),
            reg=reg,
            seed=_integer("seed", cfg.get("seed", 0)),
            optimizer=str(cfg.get("optimizer", "Adagrad")),
            eval_every=_integer("eval_every", cfg.get("eval_every", 0)),
            init_scale=_number("init_scale", cfg.get("init_scale", 1e-3)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(
        train_path=str(cfg["data.train"]),
        model_kind=model_kind,
        valid_path=str(cfg["data.valid"]) if "data.valid" in cfg else None,
        test_path=str(cfg["data.test"]) if "data.test" in cfg else None,
        out_dir=str(cfg.get("out_dir", "run")),
        train=train,
    )


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


def synth_spec_from_dict(cfg: dict) -> SynthSpec:
    """Assemble a synthetic-KG spec from indexed flat keys.

    Relations are spelled ``relation.<k>.<field>``; compositions as
    ``compose.<k> = first, second, composed, commuting|noncommuting``.
    """
    scalar_keys = {"num_entities", "seed", "holdout_fraction", "paired_holdout_fraction"}
    relations: dict[int, dict] = {}
    compositions: dict[int, str] = {}
    for key, value in cfg.items():
        parts = key.split(".")
        if key in scalar_keys:
            continue
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
        fields = dict(relations[k])
        if "name" not in fields or "kind" not in fields:
            raise ConfigError(f"relation.{k} needs both name and kind")
        kwargs = {"name": str(fields.pop("name")), "kind": str(fields.pop("kind"))}
        if "offset" in fields:
            parts = str(fields.pop("offset")).split(",")
            if len(parts) != 2:
                raise ConfigError(f"relation.{k}.offset must be 'di,dj'")
            kwargs["offset"] = tuple(_integer(f"relation.{k}.offset", _parse_value(p)) for p in parts)
        for name in ("quarter_turns", "num_tails", "heads_per_tail", "num_pairs"):
            if name in fields:
                kwargs[name] = _integer(f"relation.{k}.{name}", fields.pop(name))
        if "of" in fields:
            kwargs["of"] = str(fields.pop("of"))
        if fields:
            raise ConfigError(f"relation.{k}: unknown fields {sorted(fields)}")
        rules.append(RelationRule(**kwargs))

    comps = []
    for k in sorted(compositions):
        parts = [p.strip() for p in compositions[k].split(",")]
        if len(parts) != 4 or parts[3] not in ("commuting", "noncommuting"):
            raise ConfigError(
                f"compose.{k} must be 'first, second, composed, commuting|noncommuting'"
            )
        comps.append(CompositionRule(parts[0], parts[1], parts[2], parts[3] == "commuting"))

    try:
        return SynthSpec(
            num_entities=_integer("num_entities", cfg["num_entities"]),
            relations=rules,
            compositions=comps,
            seed=_integer("seed", cfg.get("seed", 0)),
            holdout_fraction=_number("holdout_fraction", cfg.get("holdout_fraction", 0.0)),
            paired_holdout_fraction=_number("paired_holdout_fraction", cfg.get("paired_holdout_fraction", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
