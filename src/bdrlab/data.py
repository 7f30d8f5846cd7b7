"""Labeled datasets and the incremental phase protocol.

Synthetic generators (gaussian blobs with means on a sphere, concentric
rings), an IDX image/label reader, and the splitter that turns one labeled
set into a deterministic stream of phases: an initial block of classes
followed by fixed-size increments, each with a stratified held-out test
slice. Class indices are global and stable: a class keeps the same output
slot in every later phase.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import DATA, SPLIT, rng_for

TEST_FRACTION = 1.0 / 6.0

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class ProtocolError(ValueError):
    """The class count cannot be divided into the requested phases."""


class IdxFormatError(ValueError):
    """Malformed IDX file."""


@dataclass(frozen=True)
class LabeledSet:
    """Float64 feature matrix plus integer class labels in [0, class_count)."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ValueError(f"features must be a non-empty N x d matrix, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {self.features.shape[0]} samples"
            )
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError(f"labels must lie in [0, {self.class_count})")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def indices_of_class(self, label):
        return np.flatnonzero(self.labels == label)


def concat_sets(sets):
    """Concatenate labeled sets; class_count becomes the largest of the parts."""
    sets = list(sets)
    if not sets:
        raise ValueError("nothing to concatenate")
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise ValueError(f"feature dimension mismatch across sets: {sorted(dims)}")
    feats = np.concatenate([s.features for s in sets], axis=0)
    labels = np.concatenate([s.labels for s in sets])
    return LabeledSet(feats, labels, max(s.class_count for s in sets))


@dataclass(frozen=True)
class PhaseStream:
    """Ordered per-phase train/test sets under a (B, S) protocol. Each
    phase's sets count every class seen through that phase, so the class
    split is read off them."""

    phases: tuple
    test_phases: tuple

    @property
    def num_phases(self):
        return len(self.phases)

    @property
    def dim(self):
        return self.phases[0].dim

    def classes_through(self, phase):
        return self.phases[phase].class_count

    def classes_before(self, phase):
        return self.classes_through(phase - 1) if phase > 0 else 0


def make_gaussian_mixture(classes, per_class, dim, separation, seed=0):
    """Isotropic unit-noise blobs whose means sit on a sphere of the given radius."""
    rng = rng_for(seed, DATA, 0)
    directions = rng.standard_normal((classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = separation * directions
    feats = np.concatenate(
        [means[k] + rng.standard_normal((per_class, dim)) for k in range(classes)], axis=0
    )
    labels = np.repeat(np.arange(classes), per_class)
    return LabeledSet(feats, labels, classes)


def make_rings(classes, per_class, noise, seed=0):
    """Concentric 2-D annuli at radii 1..K with gaussian radial jitter."""
    rng = rng_for(seed, DATA, 1)
    parts = []
    for k in range(classes):
        radius = (k + 1) + noise * rng.standard_normal(per_class)
        angle = rng.uniform(0.0, 2.0 * np.pi, per_class)
        parts.append(np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1))
    feats = np.concatenate(parts, axis=0)
    labels = np.repeat(np.arange(classes), per_class)
    return LabeledSet(feats, labels, classes)


def _read_idx(path, magic_wanted, header_fmt):
    blob = Path(path).read_bytes()
    header_len = struct.calcsize(header_fmt)
    if len(blob) < header_len:
        raise IdxFormatError(f"{path}: file ends at offset {len(blob)}, header needs {header_len} bytes")
    fields = struct.unpack_from(header_fmt, blob, 0)
    if fields[0] != magic_wanted:
        raise IdxFormatError(f"{path}: bad magic 0x{fields[0]:08x} at offset 0 (expected 0x{magic_wanted:08x})")
    return blob, fields, header_len


def load_idx(images_path, labels_path):
    """Read an IDX image/label pair (big-endian headers) into a LabeledSet.

    Pixel bytes are scaled to [0, 1]. Every class from 0 to the largest
    label needs 2 samples, so that ``split_phases`` can hold one out.
    """
    blob, (magic, count, rows, cols), off = _read_idx(images_path, IDX_IMAGES_MAGIC, ">IIII")
    expected = off + count * rows * cols
    if len(blob) != expected:
        raise IdxFormatError(
            f"{images_path}: payload ends at offset {len(blob)}, expected {expected} "
            f"for {count} images of {rows}x{cols}"
        )
    pixels = np.frombuffer(blob, np.uint8, offset=off).reshape(count, rows * cols)

    lblob, (lmagic, lcount), loff = _read_idx(labels_path, IDX_LABELS_MAGIC, ">II")
    if len(lblob) != loff + lcount:
        raise IdxFormatError(f"{labels_path}: payload ends at offset {len(lblob)}, expected {loff + lcount}")
    if lcount != count:
        raise IdxFormatError(
            f"count mismatch at offset 4: {images_path} has {count}, {labels_path} has {lcount}"
        )
    labels = np.frombuffer(lblob, np.uint8, offset=loff).astype(np.int64)
    counts = np.bincount(labels, minlength=1)
    short = np.flatnonzero(counts < 2)
    if short.size:
        raise IdxFormatError(
            f"{labels_path}: class {short[0]} has {counts[short[0]]} sample(s); every class in "
            f"[0, {counts.size - 1}] needs 2, one to train on and one to test"
        )
    feats = pixels.astype(np.float64) / 255.0
    return LabeledSet(feats, labels, counts.size)


def phase_sizes(total, initial_classes, increment):
    """Classes per phase: B (S when B = 0), then blocks of S that must use up
    all ``total`` classes exactly."""
    first = increment if initial_classes == 0 else initial_classes
    if first < 1 or increment < 1 or first > total or (total - first) % increment != 0:
        raise ProtocolError(
            f"cannot split {total} classes with initial block {initial_classes} and increment {increment}"
        )
    return [first] + [increment] * ((total - first) // increment)


def split_phases(data, initial_classes, increment, seed=0):
    """Partition a labeled set into an incremental phase stream.

    Classes are shuffled into a seed-deterministic order, relabeled to their
    position in that order, and dealt out as B classes (S when B = 0) plus
    increments of S. Each phase carves out a stratified test slice of at
    least one sample per class, so every class needs two samples.
    """
    total = data.class_count
    sizes = phase_sizes(total, initial_classes, increment)
    rng = rng_for(seed, SPLIT, 0)
    class_order = rng.permutation(total)

    train_phases = []
    test_phases = []
    position = 0
    for size in sizes:
        train_rows, train_labels, test_rows, test_labels = [], [], [], []
        for slot in range(position, position + size):
            source_class = int(class_order[slot])
            idx = rng.permutation(data.indices_of_class(source_class))
            if idx.size < 2:
                raise ValueError(f"class {source_class} has {idx.size} sample(s); a train/test split needs 2")
            n_test = max(1, int(idx.size * TEST_FRACTION))
            test_rows.append(data.features[idx[:n_test]])
            test_labels.append(np.full(n_test, slot, dtype=np.int64))
            train_rows.append(data.features[idx[n_test:]])
            train_labels.append(np.full(idx.size - n_test, slot, dtype=np.int64))
        seen = position + size
        train_phases.append(LabeledSet(np.concatenate(train_rows), np.concatenate(train_labels), seen))
        test_phases.append(LabeledSet(np.concatenate(test_rows), np.concatenate(test_labels), seen))
        position = seen
    return PhaseStream(phases=tuple(train_phases), test_phases=tuple(test_phases))
