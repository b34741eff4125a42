"""Flat key-value run configuration.

Plain text files with ``key = value`` lines and ``#`` comments. Unknown
keys are rejected. Each key names one field of a section (the model
spec, the training settings, the HU window, the data settings); the
field's type gives the parser and its default is the key's default.
Values the section rejects are reported with the line that set them.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from .model import ModelSpec
from .preprocess import WindowSpec
from .train import TrainConfig


class ConfigError(ValueError):
    """Unparseable configuration or unknown/invalid key."""


@dataclass
class DataConfig:
    resize: int = 256
    folds: int = 4
    fold_index: int = 0

    def __post_init__(self):
        if self.resize < 16 or self.resize % 16:
            raise ValueError(f"resize must be a positive multiple of 16, got {self.resize}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if not 0 <= self.fold_index < self.folds:
            raise ValueError(f"fold index {self.fold_index} out of range for {self.folds} folds")


@dataclass
class RunConfig:
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    window: WindowSpec = field(default_factory=WindowSpec)
    data: DataConfig = field(default_factory=DataConfig)


# key -> (section, field), in the order render_config writes them
KEYS = {
    "model.variant": ("model", "variant"),
    "model.base-depth": ("model", "base_depth"),
    "model.kernel": ("model", "kernel"),
    "model.num-classes": ("model", "num_classes"),
    "train.iterations": ("train", "iterations"),
    "train.batch-size": ("train", "batch_size"),
    "train.lr": ("train", "lr"),
    "train.dropout": ("model", "dropout_rate"),
    "train.eval-every": ("train", "eval_every"),
    "train.augment": ("train", "augment"),
    "data.window-low": ("window", "low"),
    "data.window-high": ("window", "high"),
    "data.resize": ("data", "resize"),
    "seed": ("train", "seed"),
    "folds": ("data", "folds"),
    "fold-index": ("data", "fold_index"),
}

SECTIONS = typing.get_type_hints(RunConfig)


def _bool(s):
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parser(kind):
    return _bool if kind is bool else kind


# key -> the parser of its field's type, resolved once at import
_HINTS = {section: typing.get_type_hints(cls) for section, cls in SECTIONS.items()}
_PARSERS = {key: _parser(_HINTS[section][name]) for key, (section, name) in KEYS.items()}


def _rejects(cls, **values):
    try:
        cls(**values)
    except ValueError:
        return True
    return False


def _build(cls, settings):
    """One section from its {field: (lineno, key, value)} settings. A
    rejected section names the first line whose value the section rejects
    on its own, or else the last line that set one of its fields."""
    try:
        return cls(**{name: value for name, (_, _, value) in settings.items()})
    except ValueError as exc:
        lines = sorted((n, key, name, value) for name, (n, key, value) in settings.items())
        n, key, _, _ = next((s for s in lines if _rejects(cls, **{s[2]: s[3]})), lines[-1])
        raise ConfigError(f"line {n}: bad value for {key!r}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    settings = {section: {} for section in SECTIONS}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, name = KEYS[key]
        try:
            settings[section][name] = (lineno, key, _PARSERS[key](value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return RunConfig(**{s: _build(cls, settings[s]) for s, cls in SECTIONS.items()})


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def render_config(cfg: RunConfig) -> str:
    """Snapshot that parses back to an identical configuration."""
    lines = []
    for key, (section, name) in KEYS.items():
        value = getattr(getattr(cfg, section), name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
