"""Experiment configuration: a strict, typed INI dialect.

Sections mirror the package's modules. Unknown sections or keys are
rejected by name, ``[DEFAULT]`` included. Each setting is declared once, as
an ``ExperimentConfig`` field that carries its section, key, default and
parser; ``_SCHEMA`` is read from those fields. The class checks every
setting when it is built, so a bad value fails the same way from a file, a
``sweep --values`` entry or Python.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .data import ProtocolError, phase_sizes
from .memory import GLOBAL, HERDING, PER_CLASS, RANDOM
from .training import LOSS_VARIANTS


class ConfigError(ValueError):
    """Unparseable or semantically invalid experiment configuration."""


def _parse_str_list(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(parts)


def _parse_int_list(text):
    return tuple(int(p) for p in _parse_str_list(text))


def _key(section, key, default, parse):
    """The field of the config key ``key`` in ``[section]``, read by ``parse``.
    Its default stays a class attribute."""
    return field(default=default, metadata={"section": section, "key": key, "parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    """A whole experiment: the dataset, the protocol, the training settings
    and the runs. Every setting is checked once, when the object is built;
    a run of seed s uses ``replace(cfg, seed=s)`` and names its loss variant
    to ``run_experiment``."""

    dataset_kind: str = _key("dataset", "kind", "gaussian", str.strip)
    classes: int = _key("dataset", "classes", 8, int)
    per_class: int = _key("dataset", "per_class", 120, int)
    dim: int = _key("dataset", "dim", 8, int)
    separation: float = _key("dataset", "separation", 2.25, float)
    ring_noise: float = _key("dataset", "noise", 0.1, float)
    idx_images: str = _key("dataset", "images", "", str.strip)
    idx_labels: str = _key("dataset", "labels", "", str.strip)
    initial_classes: int = _key("protocol", "initial_classes", 4, int)
    increment: int = _key("protocol", "increment", 2, int)
    memory_mode: str = _key("memory", "mode", PER_CLASS, str.strip)
    memory_budget: int = _key("memory", "budget", 5, int)
    memory_selection: str = _key("memory", "selection", HERDING, str.strip)
    epochs: int = _key("train", "epochs", 12, int)
    batch_size: int = _key("train", "batch_size", 32, int)
    lr: float = _key("train", "lr", 0.03, float)
    sgd_momentum: float = _key("train", "momentum", 0.9, float)
    distill_weight: float = _key("train", "distill_weight", 1.0, float)
    distill_temperature: float = _key("train", "distill_temperature", 2.0, float)
    variance_source: str = _key("train", "variance_source", "feature", str.strip)
    hidden: tuple = _key("train", "hidden", (64, 64), _parse_int_list)
    m: float = _key("balance", "m", 0.8, float)
    m_prime: float = _key("balance", "m_prime", 0.8, float)
    beta: float = _key("balance", "beta", 0.99, float)
    tau: float = _key("balance", "tau", 1.0, float)
    variants: tuple = _key("run", "variants", ("ce", "bdr"), _parse_str_list)
    seeds: tuple = _key("run", "seeds", (0,), _parse_int_list)
    out: str = _key("run", "out", "runs", str.strip)
    seed: int = 0  # the seed of one run, one of ``seeds``; not a config key

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


# section -> key -> (attribute, parser), in field order
_SCHEMA = {}
for _field in fields(ExperimentConfig):
    if _field.metadata:
        _SCHEMA.setdefault(_field.metadata["section"], {})[_field.metadata["key"]] = (_field.name, _field.metadata["parse"])

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
    # no default section: a [DEFAULT] header is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",), default_section="")
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
