"""Bounded per-class exemplar storage replayed into later phases.

Each class stores its samples verbatim with their source indices, both in
selection order, so trimming under a global budget keeps the most
representative prefix of each. Selection features come from the model as
trained at insertion time and are never recomputed. The settings are taken
as given: ``config.ExperimentConfig`` checks them once, when it is built.
"""

from __future__ import annotations

import numpy as np

from .data import LabeledSet, concat_sets
from .seeding import SELECT, rng_for

PER_CLASS = "per_class"
GLOBAL = "global"
RANDOM = "random"
HERDING = "herding"


def herding_select(features, quota):
    """Greedy picks whose running feature mean tracks the class mean.

    At step k the candidate minimising ||mean - (sum_chosen + f) / k|| wins;
    ties resolve to the lowest index. Returns indices in selection order.
    """
    f = np.asarray(features, dtype=np.float64)
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


class ExemplarMemory:
    """Exemplar store with a per-class cap or a shared global budget."""

    def __init__(self, mode, budget, selection, seed):
        self.mode = mode
        self.budget = budget
        self.selection = selection
        self.seed = seed
        self._store = {}  # class -> (rows, source indices), both in selection order
        self._updates = 0

    def index_map(self):
        """class -> source-sample indices, for the run report."""
        return {int(k): [int(i) for i in idx] for k, (_, idx) in sorted(self._store.items())}

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
        quota = self.budget if self.mode == PER_CLASS else self.budget // total_classes
        for label in new_classes:
            idx = phase_data.indices_of_class(label)
            rows = phase_data.features[idx]
            take = min(quota, idx.size)
            if self.selection == HERDING:
                order = herding_select(features_of(rows), take)
            else:
                rng = rng_for(self.seed, SELECT, self._updates, label)
                order = rng.permutation(idx.size)[:take]
            self._store[label] = (rows[order].copy(), idx[order].copy())
        if self.mode == GLOBAL:
            for label, (rows, idx) in self._store.items():
                self._store[label] = (rows[:quota], idx[:quota])
        self._updates += 1
        return self

    def as_labeled_set(self, class_count):
        """Stored exemplars as one LabeledSet, or None when empty."""
        if not self._store:
            return None
        classes = sorted(self._store)
        rows = [self._store[label][0] for label in classes]
        labels = np.repeat(np.asarray(classes, dtype=np.int64), [r.shape[0] for r in rows])
        return LabeledSet(np.concatenate(rows), labels, class_count)


def merged_training_set(memory: ExemplarMemory, phase_data: LabeledSet) -> LabeledSet:
    """The stored exemplars, in class order, then the phase's samples."""
    replay = memory.as_labeled_set(phase_data.class_count)
    return phase_data if replay is None else concat_sets([replay, phase_data])
