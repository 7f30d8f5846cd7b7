"""Experiment configuration: a strict, typed INI dialect.

Sections mirror the package's modules. Unknown sections or keys are
rejected by name, and serialization is canonical, so a config round-trips
byte-identically through parse -> serialize.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace

from .data import ProtocolError, phase_sizes
from .memory import GLOBAL, HERDING, PER_CLASS, RANDOM
from .training import SettingError, TrainConfig


class ConfigError(ValueError):
    """Unparseable or semantically invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
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
    # memory
    memory_mode: str = PER_CLASS
    memory_budget: int = 5
    memory_selection: str = HERDING
    # train
    epochs: int = 12
    batch_size: int = 32
    lr: float = 0.03
    sgd_momentum: float = 0.9
    distill_weight: float = 1.0
    distill_temperature: float = 2.0
    variance_source: str = "feature"
    hidden: tuple = (64, 64)
    # balance
    m: float = 0.8
    m_prime: float = 0.8
    beta: float = 0.99
    tau: float = 1.0
    # run
    variants: tuple = ("ce", "bdr")
    seeds: tuple = (0,)
    out: str = "runs"

    def train_config(self, variant, seed):
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            sgd_momentum=self.sgd_momentum,
            seed=int(seed),
            loss_variant=variant,
            distill_weight=self.distill_weight,
            distill_temperature=self.distill_temperature,
            hidden=self.hidden,
            memory_mode=self.memory_mode,
            memory_budget=self.memory_budget,
            memory_selection=self.memory_selection,
            m=self.m,
            m_prime=self.m_prime,
            beta=self.beta,
            tau=self.tau,
            variance_source=self.variance_source,
        )

    def as_dict(self):
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


def _parse_int(text):
    return int(text)


def _parse_float(text):
    return float(text)


def _parse_str(text):
    return text.strip()


def _parse_int_list(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _parse_str_list(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(parts)


def _fmt(value):
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# section -> key -> (attribute, parser)
_SCHEMA = {
    "dataset": {
        "kind": ("dataset_kind", _parse_str),
        "classes": ("classes", _parse_int),
        "per_class": ("per_class", _parse_int),
        "dim": ("dim", _parse_int),
        "separation": ("separation", _parse_float),
        "noise": ("ring_noise", _parse_float),
        "images": ("idx_images", _parse_str),
        "labels": ("idx_labels", _parse_str),
    },
    "protocol": {
        "initial_classes": ("initial_classes", _parse_int),
        "increment": ("increment", _parse_int),
    },
    "memory": {
        "mode": ("memory_mode", _parse_str),
        "budget": ("memory_budget", _parse_int),
        "selection": ("memory_selection", _parse_str),
    },
    "train": {
        "epochs": ("epochs", _parse_int),
        "batch_size": ("batch_size", _parse_int),
        "lr": ("lr", _parse_float),
        "momentum": ("sgd_momentum", _parse_float),
        "distill_weight": ("distill_weight", _parse_float),
        "distill_temperature": ("distill_temperature", _parse_float),
        "variance_source": ("variance_source", _parse_str),
        "hidden": ("hidden", _parse_int_list),
    },
    "balance": {
        "m": ("m", _parse_float),
        "m_prime": ("m_prime", _parse_float),
        "beta": ("beta", _parse_float),
        "tau": ("tau", _parse_float),
    },
    "run": {
        "variants": ("variants", _parse_str_list),
        "seeds": ("seeds", _parse_int_list),
        "out": ("out", _parse_str),
    },
}


# ExperimentConfig / TrainConfig field -> (section, key), for error messages
_KEY_OF = {attr: (section, key) for section, keys in _SCHEMA.items() for key, (attr, _) in keys.items()}
_KEY_OF["loss_variant"] = ("run", "variants")


def validate(cfg: ExperimentConfig):
    """Reject a config that could not run, naming the offending key.

    The protocol and training checks are the ones ``split_phases`` and
    ``TrainConfig`` apply at run time, run here for every variant.
    """
    if cfg.dataset_kind not in ("gaussian", "rings", "idx"):
        raise ConfigError(f"unknown dataset kind {cfg.dataset_kind!r}")
    if cfg.dataset_kind == "idx" and (not cfg.idx_images or not cfg.idx_labels):
        raise ConfigError("dataset kind 'idx' needs both images and labels paths")
    if cfg.memory_mode not in (PER_CLASS, GLOBAL):
        raise ConfigError(f"unknown memory mode {cfg.memory_mode!r}")
    if cfg.memory_selection not in (RANDOM, HERDING):
        raise ConfigError(f"unknown memory selection {cfg.memory_selection!r}")
    if not cfg.seeds:
        raise ConfigError("at least one seed is required")
    if cfg.dataset_kind != "idx":  # an idx file's class count is known only once it is read
        try:
            phase_sizes(cfg.classes, cfg.initial_classes, cfg.increment)
        except ProtocolError as exc:
            raise ConfigError(f"bad value for 'initial_classes' or 'increment' in [protocol]: {exc}") from exc
    for variant in cfg.variants:
        try:
            cfg.train_config(variant, cfg.seeds[0])
        except SettingError as exc:
            section, key = _KEY_OF[exc.name]
            raise ConfigError(f"bad value for '{key}' in [{section}]: {exc}") from exc
    return cfg


def parse_config(text) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    overrides = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            entry = _SCHEMA[section].get(key)
            if entry is None:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            attr, parse = entry
            try:
                overrides[attr] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for '{key}' in [{section}]: {raw!r} ({exc})") from exc
    return validate(replace(ExperimentConfig(), **overrides))


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
