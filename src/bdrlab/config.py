"""Experiment configuration: a strict, typed INI dialect.

Sections mirror the package's modules. Unknown sections or keys are
rejected by name, ``[DEFAULT]`` included. Each setting is declared once, as
one ``_key(...)`` line: an ``ExperimentConfig`` field that carries its
section, key, default, parser, the rule its value must meet and the runs it
acts on; ``_SCHEMA`` is read from those fields. The class checks every
setting when it is built, so a bad value fails the same way from a file, a
``sweep --values`` entry or Python.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .data import ProtocolError, phase_sizes
from .memory import GLOBAL, HERDING, PER_CLASS, RANDOM
from .training import LOSS_BDR, LOSS_VARIANTS


class ConfigError(ValueError):
    """Unparseable or semantically invalid experiment configuration."""


def _parse_str_list(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(parts)


def _parse_int_list(text):
    return tuple(int(p) for p in _parse_str_list(text))


def _key(section, key, default, parse, rule, acts_on=()):
    """The field of the config key ``key`` in ``[section]``, read by ``parse``.
    Its default stays a class attribute. ``rule`` is the ``(test, text)``
    pair every value must pass, or None when no value is wrong on its own;
    a float key must be finite as well. ``acts_on`` names the loss variants
    or dataset kinds the key acts on; empty, it acts on every run."""
    return field(default=default, metadata=dict(section=section, key=key, parse=parse, rule=rule, acts_on=acts_on))


def _at_least(least):
    return (lambda value: value >= least), f"must be at least {least}"


def _one_of(*allowed):
    return (lambda value: value in allowed), f"must be one of {', '.join(allowed)}"


def _listed_once(rule):
    """The rule on a list: one or more values, each passing ``rule``, none twice."""
    test, text = rule
    return (
        (lambda values: values and len(set(values)) == len(values) and all(map(test, values))),
        f"{text}, one or more, each listed once",
    )


_POSITIVE = (lambda value: value > 0), "must be positive"
_NON_NEGATIVE = (lambda value: value >= 0), "must be non-negative"
_UNIT_INTERVAL = (lambda value: 0.0 <= value <= 1.0), "must lie in [0, 1]"


@dataclass(frozen=True)
class ExperimentConfig:
    """A whole experiment: the dataset, the protocol, the training settings
    and the runs. Every setting is checked once, when the object is built;
    a run of seed s uses ``replace(cfg, seed=s)`` and names its loss variant
    to ``run_experiment``."""

    dataset_kind: str = _key("dataset", "kind", "gaussian", str.strip, _one_of("gaussian", "rings", "idx"))
    # per_class >= 2: each class keeps a sample to train on and holds one out for testing
    classes: int = _key("dataset", "classes", 8, int, _at_least(2), acts_on=("gaussian", "rings"))
    per_class: int = _key("dataset", "per_class", 120, int, _at_least(2), acts_on=("gaussian", "rings"))
    dim: int = _key("dataset", "dim", 8, int, _at_least(2), acts_on=("gaussian",))
    separation: float = _key("dataset", "separation", 2.25, float, _POSITIVE, acts_on=("gaussian",))
    ring_noise: float = _key("dataset", "noise", 0.1, float, _NON_NEGATIVE, acts_on=("rings",))
    idx_images: str = _key("dataset", "images", "", str.strip, None, acts_on=("idx",))
    idx_labels: str = _key("dataset", "labels", "", str.strip, None, acts_on=("idx",))
    initial_classes: int = _key("protocol", "initial_classes", 4, int, _at_least(0))
    increment: int = _key("protocol", "increment", 2, int, None)  # the phase split checks it
    memory_mode: str = _key("memory", "mode", PER_CLASS, str.strip, _one_of(PER_CLASS, GLOBAL))
    memory_budget: int = _key("memory", "budget", 5, int, _at_least(1))
    memory_selection: str = _key("memory", "selection", HERDING, str.strip, _one_of(HERDING, RANDOM))
    epochs: int = _key("train", "epochs", 12, int, _at_least(1))
    batch_size: int = _key("train", "batch_size", 32, int, _at_least(1))
    lr: float = _key("train", "lr", 0.03, float, _POSITIVE)
    sgd_momentum: float = _key("train", "momentum", 0.9, float, ((lambda v: 0.0 <= v < 1.0), "must lie in [0, 1)"))
    distill_weight: float = _key("train", "distill_weight", 1.0, float, _NON_NEGATIVE)
    distill_temperature: float = _key("train", "distill_temperature", 2.0, float, _POSITIVE)
    variance_source: str = _key(
        "train", "variance_source", "feature", str.strip, _one_of("feature"), acts_on=(LOSS_BDR,)
    )
    hidden: tuple = _key(
        "train", "hidden", (64, 64), _parse_int_list, ((lambda v: v and min(v) >= 1), "must be widths of at least 1")
    )
    m: float = _key("balance", "m", 0.8, float, _UNIT_INTERVAL, acts_on=(LOSS_BDR,))
    m_prime: float = _key("balance", "m_prime", 0.8, float, _UNIT_INTERVAL, acts_on=(LOSS_BDR,))
    beta: float = _key("balance", "beta", 0.99, float, _UNIT_INTERVAL, acts_on=(LOSS_BDR,))
    tau: float = _key("balance", "tau", 1.0, float, _NON_NEGATIVE, acts_on=(LOSS_BDR,))
    variants: tuple = _key("run", "variants", ("ce", "bdr"), _parse_str_list, _listed_once(_one_of(*LOSS_VARIANTS)))
    seeds: tuple = _key("run", "seeds", (0,), _parse_int_list, _listed_once(_at_least(0)))
    out: str = _key("run", "out", "runs", str.strip, None)  # any directory name
    seed: int = 0  # the seed of one run, one of ``seeds``; not a config key

    def __post_init__(self):
        for f in fields(self):
            value, rule = getattr(self, f.name), f.metadata.get("rule")
            if rule and not rule[0](value):
                raise _bad_value(f.name, f"{f.name} {rule[1]}, got {value!r}")
            # after the rule, so a NaN keeps its range message
            if f.metadata.get("parse") is float and not math.isfinite(value):
                raise _bad_value(f.name, f"{f.name} must be finite, got {value!r}")
        if self.dataset_kind == "idx":
            for name in ("idx_images", "idx_labels"):
                if not getattr(self, name):
                    raise _bad_value(name, "dataset kind 'idx' needs both images and labels paths")
        else:  # an idx file's class count is checked once the file is read
            check_class_count(self, self.classes)

    def as_trained(self, variant):
        """The settings that act on a run of ``variant``, by attribute, in
        ``_SCHEMA`` order: every key outside ``[run]`` that acts on the
        variant or the dataset kind, with B as the size of the first phase
        (S when B is 0). Two runs of one seed with equal settings train alike."""
        out = {}
        for f in fields(self):
            if f.metadata.get("section", "run") == "run":  # the run list, or ``seed``, which is no key
                continue
            acts_on = f.metadata["acts_on"]
            if not acts_on or variant in acts_on or self.dataset_kind in acts_on:
                value = getattr(self, f.name)
                out[f.name] = list(value) if isinstance(value, tuple) else value
        out["initial_classes"] = self.initial_classes or self.increment
        if self.distill_weight == 0:  # the temperature acts only through the distillation term
            del out["distill_temperature"]
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


# section -> key -> (attribute, parser), in field order; config attribute -> (section, key)
_SCHEMA, _KEY_OF = {}, {}
for _field in fields(ExperimentConfig):
    if _field.metadata:
        _section, _name = _KEY_OF[_field.name] = _field.metadata["section"], _field.metadata["key"]
        _SCHEMA.setdefault(_section, {})[_name] = (_field.name, _field.metadata["parse"])


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
