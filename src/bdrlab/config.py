"""Experiment configuration: a strict, typed INI dialect.

Sections mirror the package's modules. Unknown sections or keys are
rejected by name, and serialization is canonical, so a config round-trips
byte-identically through parse -> serialize.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

from .data import ProtocolError, phase_sizes
from .memory import GLOBAL
from .training import LOSS_VARIANTS, SettingError, TrainConfig


class ConfigError(ValueError):
    """Unparseable or semantically invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig(TrainConfig):
    """A whole experiment: the dataset, the protocol and the runs, plus the
    inherited training settings that every run shares; a run of seed s uses
    ``replace(cfg, seed=s)`` and names its loss variant to ``run_experiment``."""

    # dataset
    dataset_kind: str = "gaussian"
    classes: int = 8
    per_class: int = 120
    dim: int = 8
    separation: float = 2.25
    ring_noise: float = 0.1
    idx_images: str = ""
    idx_labels: str = ""
    # protocol
    initial_classes: int = 4
    increment: int = 2
    # run
    variants: tuple = ("ce", "bdr")
    seeds: tuple = (0,)
    out: str = "runs"

    def __post_init__(self):
        super().__post_init__()
        kind = self.dataset_kind
        lowest_seed = min(self.seeds, default=0)
        checks = [
            ("dataset_kind", kind in ("gaussian", "rings", "idx"), f"unknown dataset kind {kind!r}"),
            ("separation", self.separation > 0, f"separation must be positive, got {self.separation}"),
            ("ring_noise", self.ring_noise >= 0, f"noise must be non-negative, got {self.ring_noise}"),
            ("seeds", bool(self.seeds), "at least one seed is required"),
            ("seeds", lowest_seed >= 0, f"seeds must be non-negative, got {lowest_seed}"),
        ]
        # per_class: each class keeps a sample to train on and holds one out for testing
        for name, least in (("classes", 2), ("per_class", 2), ("dim", 2)):
            value = getattr(self, name)
            checks.append((name, value >= least, f"{name} must be at least {least}, got {value}"))
        if kind == "idx":
            for name in ("idx_images", "idx_labels"):
                checks.append((name, bool(getattr(self, name)), "dataset kind 'idx' needs both images and labels paths"))
        elif self.memory_mode == GLOBAL:  # an idx file's class count is known only once it is read
            short = self.memory_budget < self.classes
            message = f"a global budget of {self.memory_budget} leaves some of {self.classes} classes no exemplar"
            checks.append(("memory_budget", not short, message))
        unknown = [v for v in self.variants if v not in LOSS_VARIANTS]
        message = f"unknown loss variant {', '.join(unknown)}, expected any of {', '.join(LOSS_VARIANTS)}"
        checks.append(("variants", not unknown, message))
        for name in ("variants", "seeds"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1}, key=values.index)
            checks.append((name, not repeated, f"{', '.join(map(str, repeated))} listed more than once"))
        for name, ok, message in checks:
            if not ok:
                raise SettingError(name, message)
        if kind != "idx":
            phase_sizes(self.classes, self.initial_classes, self.increment)

    def as_dict(self):
        """Every config key's value, by attribute, in ``_SCHEMA`` order."""
        out = {}
        for attr in _KEY_OF:
            value = getattr(self, attr)
            out[attr] = list(value) if isinstance(value, tuple) else value
        return out


def _parse_str_list(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(parts)


def _parse_int_list(text):
    return tuple(int(p) for p in _parse_str_list(text))


def _fmt(value):
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# section -> key -> (attribute, parser)
_SCHEMA = {
    "dataset": {
        "kind": ("dataset_kind", str.strip),
        "classes": ("classes", int),
        "per_class": ("per_class", int),
        "dim": ("dim", int),
        "separation": ("separation", float),
        "noise": ("ring_noise", float),
        "images": ("idx_images", str.strip),
        "labels": ("idx_labels", str.strip),
    },
    "protocol": {
        "initial_classes": ("initial_classes", int),
        "increment": ("increment", int),
    },
    "memory": {
        "mode": ("memory_mode", str.strip),
        "budget": ("memory_budget", int),
        "selection": ("memory_selection", str.strip),
    },
    "train": {
        "epochs": ("epochs", int),
        "batch_size": ("batch_size", int),
        "lr": ("lr", float),
        "momentum": ("sgd_momentum", float),
        "distill_weight": ("distill_weight", float),
        "distill_temperature": ("distill_temperature", float),
        "variance_source": ("variance_source", str.strip),
        "hidden": ("hidden", _parse_int_list),
    },
    "balance": {
        "m": ("m", float),
        "m_prime": ("m_prime", float),
        "beta": ("beta", float),
        "tau": ("tau", float),
    },
    "run": {
        "variants": ("variants", _parse_str_list),
        "seeds": ("seeds", _parse_int_list),
        "out": ("out", str.strip),
    },
}


# config attribute -> (section, key), for error messages
_KEY_OF = {attr: (section, key) for section, keys in _SCHEMA.items() for key, (attr, _) in keys.items()}


def protocol_error(exc: ProtocolError):
    """The config error for a class count the protocol cannot split."""
    return ConfigError(f"bad value for 'initial_classes' or 'increment' in [protocol]: {exc}")


def _bad_value(attr, detail):
    section, key = _KEY_OF[attr]
    return ConfigError(f"bad value for '{key}' in [{section}]: {detail}")


def parse_value(attr, text):
    """``text`` read by the parser of the config key that sets ``attr``."""
    section, key = _KEY_OF[attr]
    try:
        return _SCHEMA[section][key][1](text)
    except ValueError as exc:
        raise _bad_value(attr, f"{text!r} ({exc})") from exc


def checked(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """``replace(cfg, **overrides)``, with a rejected setting reported as a
    config error that names its key."""
    try:
        return replace(cfg, **overrides)
    except SettingError as exc:
        raise _bad_value(exc.name, exc) from exc
    except ProtocolError as exc:
        raise protocol_error(exc) from exc


def parse_config(text) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    overrides = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            attr = _SCHEMA[section][key][0]
            overrides[attr] = parse_value(attr, raw)
    return checked(ExperimentConfig(), **overrides)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, _) in keys.items():
            lines.append(f"{key} = {_fmt(getattr(cfg, attr))}")
        lines.append("")
    return "\n".join(lines)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
