"""Bounded per-class exemplar storage replayed into later phases.

Samples are stored verbatim, in selection order, so trimming under a global
budget always keeps the most representative prefix. Selection features come
from the model as trained at insertion time and are never recomputed.
"""

from __future__ import annotations

import numpy as np

from .data import LabeledSet
from .seeding import SELECT, rng_for

PER_CLASS = "per_class"
GLOBAL = "global"
RANDOM = "random"
HERDING = "herding"


class MemoryConfigError(ValueError):
    """The memory budget cannot accommodate the stored classes."""


def herding_select(features, quota):
    """Greedy picks whose running feature mean tracks the class mean.

    At step k the candidate minimising ||mean - (sum_chosen + f) / k|| wins;
    ties resolve to the lowest index. Returns indices in selection order.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim == 1:
        f = f[:, None]
    n = f.shape[0]
    if n == 0:
        raise ValueError("no samples to select from")
    if not 1 <= quota <= n:
        raise ValueError(f"quota {quota} out of range for {n} samples")
    target = f.mean(axis=0)
    chosen = []
    running = np.zeros_like(target)
    available = np.ones(n, dtype=bool)
    for k in range(1, quota + 1):
        dist = np.linalg.norm(target - (running + f) / k, axis=1)
        dist[~available] = np.inf
        pick = int(np.argmin(dist))
        chosen.append(pick)
        available[pick] = False
        running += f[pick]
    return np.asarray(chosen, dtype=np.int64)


class _ClassStore:
    __slots__ = ("rows", "source_indices")

    def __init__(self, rows, source_indices):
        self.rows = rows
        self.source_indices = source_indices

    def trimmed(self, quota):
        return _ClassStore(self.rows[:quota], self.source_indices[:quota])


class ExemplarMemory:
    """Exemplar store with a per-class cap or a shared global budget."""

    def __init__(self, mode=PER_CLASS, budget=5, selection=HERDING, seed=0):
        if mode not in (PER_CLASS, GLOBAL):
            raise MemoryConfigError(f"unknown budget mode {mode!r}")
        if selection not in (RANDOM, HERDING):
            raise MemoryConfigError(f"unknown selection rule {selection!r}")
        if budget < 1:
            raise MemoryConfigError(f"budget must be at least 1, got {budget}")
        self.mode = mode
        self.budget = int(budget)
        self.selection = selection
        self.seed = int(seed)
        self._store = {}
        self._updates = 0

    def classes(self):
        return sorted(self._store)

    @property
    def size(self):
        return sum(store.rows.shape[0] for store in self._store.values())

    def stored_count(self, label):
        store = self._store.get(label)
        return 0 if store is None else store.rows.shape[0]

    def rows_for(self, label):
        return self._store[label].rows

    def index_map(self):
        """class -> source-sample indices, for the run report."""
        return {int(k): [int(i) for i in s.source_indices] for k, s in sorted(self._store.items())}

    def update(self, phase_data: LabeledSet, features_of):
        """Insert this phase's classes and re-trim everything to quota.

        ``features_of`` maps an (n, d) sample matrix to the feature matrix of
        the just-trained model; it drives herding and is not kept around.
        """
        new_classes = sorted(int(c) for c in np.unique(phase_data.labels))
        for label in new_classes:
            if label in self._store:
                raise ValueError(f"class {label} is already stored; phases must bring disjoint classes")
        total_classes = len(self._store) + len(new_classes)
        if self.mode == PER_CLASS:
            quota = self.budget
        else:
            quota = self.budget // total_classes
            if quota == 0:
                raise MemoryConfigError(
                    f"global budget {self.budget} spread over {total_classes} classes leaves no quota"
                )
        for label in new_classes:
            idx = phase_data.indices_of_class(label)
            rows = phase_data.features[idx]
            take = min(quota, idx.size)
            if self.selection == HERDING:
                order = herding_select(features_of(rows), take)
            else:
                rng = rng_for(self.seed, SELECT, self._updates, label)
                order = rng.permutation(idx.size)[:take]
            self._store[label] = _ClassStore(rows[order].copy(), idx[order].copy())
        if self.mode == GLOBAL:
            for label in list(self._store):
                self._store[label] = self._store[label].trimmed(quota)
        self._updates += 1
        return self

    def as_labeled_set(self, class_count):
        """Stored exemplars as one LabeledSet, or None when empty."""
        if not self._store:
            return None
        rows = []
        labels = []
        for label in self.classes():
            store = self._store[label]
            rows.append(store.rows)
            labels.append(np.full(store.rows.shape[0], label, dtype=np.int64))
        return LabeledSet(np.concatenate(rows), np.concatenate(labels), class_count)


def merged_training_set(memory: ExemplarMemory, phase_data: LabeledSet) -> LabeledSet:
    """The phase's samples plus every stored exemplar; counts per class stay
    recoverable through ``class_counts``."""
    replay = memory.as_labeled_set(phase_data.class_count)
    if replay is None:
        return phase_data
    if replay.dim != phase_data.dim:
        raise ValueError(f"feature dimension mismatch: memory {replay.dim} vs phase {phase_data.dim}")
    feats = np.concatenate([replay.features, phase_data.features])
    labels = np.concatenate([replay.labels, phase_data.labels])
    count = max(phase_data.class_count, int(labels.max()) + 1)
    return LabeledSet(feats, labels, count)
