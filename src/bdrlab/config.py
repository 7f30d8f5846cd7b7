"""Experiment configuration: a strict, typed INI dialect.

Sections mirror the package's modules. Unknown sections or keys are
rejected by name. ``ExperimentConfig`` holds every setting and checks each
one when it is built, so a bad value fails the same way from a file, a
``sweep --values`` entry or Python.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .data import ProtocolError, phase_sizes
from .memory import GLOBAL, HERDING, PER_CLASS, RANDOM
from .training import LOSS_VARIANTS


class ConfigError(ValueError):
    """Unparseable or semantically invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A whole experiment: the dataset, the protocol, the training settings
    and the runs. Every setting is checked once, when the object is built;
    a run of seed s uses ``replace(cfg, seed=s)`` and names its loss variant
    to ``run_experiment``."""

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
    seed: int = 0  # the seed of one run, one of ``seeds``

    def __post_init__(self):
        kind = self.dataset_kind
        temperature = self.distill_temperature
        lowest_seed = min(self.seeds, default=0)
        checks = [
            ("lr", self.lr > 0, f"learning rate must be positive, got {self.lr}"),
            ("sgd_momentum", 0.0 <= self.sgd_momentum < 1.0, f"momentum must lie in [0, 1), got {self.sgd_momentum}"),
            ("distill_weight", self.distill_weight >= 0, f"distill weight must be non-negative, got {self.distill_weight}"),
            ("distill_temperature", temperature > 0, f"distill_temperature must be positive, got {temperature}"),
            ("tau", self.tau >= 0, f"tau must be non-negative, got {self.tau}"),
            ("hidden", all(h >= 1 for h in self.hidden), f"hidden widths must be at least 1, got {self.hidden}"),
        ]
        for name in ("epochs", "batch_size", "memory_budget"):
            value = getattr(self, name)
            checks.append((name, value >= 1, f"{name} must be at least 1, got {value}"))
        message = f"initial_classes must be at least 0, got {self.initial_classes}"
        checks.append(("initial_classes", self.initial_classes >= 0, message))
        for name in ("m", "m_prime", "beta"):
            value = getattr(self, name)
            checks.append((name, 0.0 <= value <= 1.0, f"{name} must lie in [0, 1], got {value}"))
        choices = {
            "variance_source": ("feature", "logit"),
            "memory_mode": (PER_CLASS, GLOBAL),
            "memory_selection": (HERDING, RANDOM),
        }
        for name, allowed in choices.items():
            value = getattr(self, name)
            checks.append((name, value in allowed, f"{name} must be one of {', '.join(allowed)}, got {value!r}"))
        checks += [
            ("dataset_kind", kind in ("gaussian", "rings", "idx"), f"unknown dataset kind {kind!r}"),
            ("separation", self.separation > 0, f"separation must be positive, got {self.separation}"),
            ("ring_noise", self.ring_noise >= 0, f"noise must be non-negative, got {self.ring_noise}"),
            ("seeds", bool(self.seeds), "at least one seed is required"),
            ("seeds", lowest_seed >= 0, f"seeds must be non-negative, got {lowest_seed}"),
        ]
        # after the range rules, so a NaN keeps their message
        for section in _SCHEMA.values():
            for key, (attr, parse) in section.items():
                if parse is float:
                    value = getattr(self, attr)
                    checks.append((attr, math.isfinite(value), f"{key} must be finite, got {value}"))
        # per_class: each class keeps a sample to train on and holds one out for testing
        for name, least in (("classes", 2), ("per_class", 2), ("dim", 2)):
            value = getattr(self, name)
            checks.append((name, value >= least, f"{name} must be at least {least}, got {value}"))
        if kind == "idx":
            for name in ("idx_images", "idx_labels"):
                checks.append((name, bool(getattr(self, name)), "dataset kind 'idx' needs both images and labels paths"))
        unknown = [v for v in self.variants if v not in LOSS_VARIANTS]
        message = f"unknown loss variant {', '.join(unknown)}, expected any of {', '.join(LOSS_VARIANTS)}"
        checks.append(("variants", not unknown, message))
        for name in ("variants", "seeds"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1}, key=values.index)
            checks.append((name, not repeated, f"{', '.join(map(str, repeated))} listed more than once"))
        for name, ok, message in checks:
            if not ok:
                raise _bad_value(name, message)
        if kind != "idx":  # an idx file's class count is checked once the file is read
            check_class_count(self, self.classes)

    def as_dict(self):
        """Every config key's value, by attribute, in ``_SCHEMA`` order."""
        out = {}
        for attr in _KEY_OF:
            value = getattr(self, attr)
            out[attr] = list(value) if isinstance(value, tuple) else value
        return out


def check_class_count(cfg: ExperimentConfig, classes):
    """The two rules on the dataset's class count: a global budget leaves
    each class an exemplar, and the protocol splits the classes into its
    phases."""
    if cfg.memory_mode == GLOBAL and cfg.memory_budget < classes:
        message = f"a global budget of {cfg.memory_budget} leaves some of {classes} classes no exemplar"
        raise _bad_value("memory_budget", message)
    try:
        phase_sizes(classes, cfg.initial_classes, cfg.increment)
    except ProtocolError as exc:
        raise _bad_value(("initial_classes", "increment"), exc) from exc


def _parse_str_list(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(parts)


def _parse_int_list(text):
    return tuple(int(p) for p in _parse_str_list(text))


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


def _bad_value(name, detail):
    """The config error for the attribute ``name``, or a tuple of attributes
    of one section, named by their keys."""
    keys = [_KEY_OF[attr] for attr in ((name,) if isinstance(name, str) else name)]
    named = " or ".join(f"'{key}'" for _, key in keys)
    return ConfigError(f"bad value for {named} in [{keys[0][0]}]: {detail}")


def parse_value(attr, text):
    """``text`` read by the parser of the config key that sets ``attr``."""
    section, key = _KEY_OF[attr]
    try:
        return _SCHEMA[section][key][1](text)
    except ValueError as exc:
        raise _bad_value(attr, f"{text!r} ({exc})") from exc


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
    return ExperimentConfig(**overrides)


def load_config(path) -> ExperimentConfig:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_config(text)
