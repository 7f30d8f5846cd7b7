import numpy as np
import pytest

from bdrlab.data import LabeledSet, make_gaussian_mixture
from bdrlab.memory import (
    ExemplarMemory,
    herding_select,
    merged_training_set,
)

IDENTITY = lambda rows: rows  # features == raw samples


def _set_of(features, labels, classes):
    return LabeledSet(np.asarray(features, float), np.asarray(labels, np.int64), classes)


def _rows(memory, label):
    """The rows stored for ``label`` in selection order, as the replay set holds them."""
    replay = memory.as_labeled_set(max(memory.index_map()) + 1)
    return replay.features[replay.labels == label]


def _stored_counts(memory):
    return [len(indices) for indices in memory.index_map().values()]


def _brute_force_first_pick(features):
    """Enumerate every candidate for the first greedy pick."""
    f = np.asarray(features, float)
    mu = f.mean(axis=0)
    dists = [np.linalg.norm(mu - f[i]) for i in range(len(f))]
    return int(np.argmin(dists))


class TestHerdingSelect:
    def test_single_sample(self):
        np.testing.assert_array_equal(herding_select(np.array([[1.0]]), 1), [0])

    def test_identical_features_tie_break_by_index(self):
        order = herding_select(np.ones((4, 2)), 4)
        np.testing.assert_array_equal(order, [0, 1, 2, 3])

    def test_first_pick_matches_brute_force(self):
        features = np.array([[0.0], [10.0], [5.0]])
        order = herding_select(features, 3)
        assert order[0] == _brute_force_first_pick(features) == 2

    def test_first_pick_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            features = rng.standard_normal((rng.integers(2, 12), 3))
            assert herding_select(features, 1)[0] == _brute_force_first_pick(features)

    def test_running_mean_tracks_class_mean(self):
        # the greedy criterion at step k minimises the distance of the
        # running selection mean to the class mean; verify step-by-step
        rng = np.random.default_rng(1)
        features = rng.standard_normal((8, 2))
        mu = features.mean(axis=0)
        order = herding_select(features, 4)
        total = np.zeros(2)
        chosen = []
        for k, pick in enumerate(order, start=1):
            best = None
            for cand in range(8):
                if cand in chosen:
                    continue
                d = np.linalg.norm(mu - (total + features[cand]) / k)
                if best is None or d < best[0] - 1e-12:
                    best = (d, cand)
            assert pick == best[1]
            chosen.append(pick)
            total += features[pick]

    def test_input_order_insensitive_except_ties(self):
        rng = np.random.default_rng(2)
        features = rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        base = herding_select(features, 3)
        shuffled = herding_select(features[perm], 3)
        assert [tuple(features[i]) for i in base] == [tuple(features[perm][i]) for i in shuffled]

    def test_shuffled_duplicates_select_equal_values(self):
        # duplicated rows make ties: indices may differ after a shuffle but
        # the multiset of selected feature values may not
        rng = np.random.default_rng(5)
        unique = rng.standard_normal((4, 2))
        features = np.concatenate([unique, unique])
        perm = rng.permutation(8)
        base = sorted(map(tuple, features[herding_select(features, 5)]))
        shuffled = sorted(map(tuple, features[perm][herding_select(features[perm], 5)]))
        assert base == shuffled

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            herding_select(np.zeros((0, 2)), 1)


class TestExemplarMemory:
    def test_per_class_quota(self):
        memory = ExemplarMemory(mode="per_class", budget=2, selection="herding", seed=0)
        data = _set_of(np.arange(10)[:, None], np.zeros(10), 1)
        memory.update(data, IDENTITY)
        assert len(memory.index_map()[0]) == 2

    def test_global_budget_split(self):
        memory = ExemplarMemory(mode="global", budget=6, selection="herding", seed=0)
        data = _set_of(np.arange(12)[:, None], np.repeat([0, 1, 2], 4), 3)
        memory.update(data, IDENTITY)
        assert [len(memory.index_map()[c]) for c in (0, 1, 2)] == [2, 2, 2]

    def test_global_trim_keeps_selection_prefix(self):
        memory = ExemplarMemory(mode="global", budget=4, selection="herding", seed=0)
        first = _set_of(np.arange(6)[:, None], np.repeat([0, 1], 3), 2)
        memory.update(first, IDENTITY)
        before = {c: _rows(memory, c) for c in memory.index_map()}
        second = _set_of(100 + np.arange(6)[:, None], np.repeat([2, 3], 3), 4)
        memory.update(second, IDENTITY)
        for c in (0, 1):
            assert len(memory.index_map()[c]) == 1
            np.testing.assert_array_equal(_rows(memory, c), before[c][:1])

    def test_herding_quota_one_stores_nearest_to_mean(self):
        memory = ExemplarMemory(mode="per_class", budget=1, selection="herding", seed=0)
        data = _set_of([[0.0], [10.0], [5.0]], [0, 0, 0], 1)
        memory.update(data, IDENTITY)
        np.testing.assert_array_equal(_rows(memory, 0), [[5.0]])

    def test_random_selection_seed_deterministic(self):
        picks = []
        for _ in range(2):
            memory = ExemplarMemory(mode="per_class", budget=3, selection="random", seed=11)
            data = _set_of(np.arange(20)[:, None], np.zeros(20), 1)
            memory.update(data, IDENTITY)
            picks.append(_rows(memory, 0).ravel().tolist())
        assert picks[0] == picks[1]

    def test_budget_never_exceeded_over_random_sequences(self):
        rng = np.random.default_rng(3)
        for mode, budget in (("per_class", 3), ("global", 10)):
            memory = ExemplarMemory(mode=mode, budget=budget, selection="random", seed=1)
            next_class = 0
            for _ in range(4):
                classes = int(rng.integers(1, 4))
                sizes = rng.integers(2, 9, classes)
                rows = np.concatenate([rng.standard_normal((s, 2)) for s in sizes])
                labels = np.concatenate([np.full(s, next_class + i) for i, s in enumerate(sizes)])
                next_class += classes
                memory.update(_set_of(rows, labels, next_class), IDENTITY)
                if mode == "per_class":
                    assert all(count <= budget for count in _stored_counts(memory))
                else:
                    assert sum(_stored_counts(memory)) <= budget

    def test_stored_rows_are_verbatim_samples(self):
        rng = np.random.default_rng(4)
        data = _set_of(rng.standard_normal((10, 3)), np.zeros(10), 1)
        memory = ExemplarMemory(mode="per_class", budget=4, selection="herding", seed=0)
        memory.update(data, IDENTITY)
        for row in _rows(memory, 0):
            assert any(np.array_equal(row, sample) for sample in data.features)

    def test_index_map_points_at_sources(self):
        data = _set_of(np.arange(8)[:, None], np.repeat([0, 1], 4), 2)
        memory = ExemplarMemory(mode="per_class", budget=2, selection="herding", seed=0)
        memory.update(data, IDENTITY)
        for cls, indices in memory.index_map().items():
            for stored, src in zip(_rows(memory, cls), indices):
                np.testing.assert_array_equal(stored, data.features[src])


class TestMergedTrainingSet:
    def test_empty_memory_passthrough(self):
        data = _set_of(np.arange(4)[:, None], [0, 0, 1, 1], 2)
        merged = merged_training_set(ExemplarMemory(mode="per_class", budget=2, selection="herding", seed=0), data)
        assert merged is data

    def test_counts_after_merge(self):
        memory = ExemplarMemory(mode="per_class", budget=2, selection="herding", seed=0)
        old = _set_of(np.arange(8)[:, None], np.repeat([0, 1], 4), 2)
        memory.update(old, IDENTITY)
        new = _set_of(100 + np.arange(100)[:, None], np.full(100, 2), 3)
        merged = merged_training_set(memory, new)
        assert merged.n == 104
        counts = np.bincount(merged.labels)
        assert counts[0] == 2 and counts[1] == 2 and counts[2] == 100

    def test_dimension_mismatch(self):
        memory = ExemplarMemory(mode="per_class", budget=2, selection="herding", seed=0)
        memory.update(_set_of(np.arange(4)[:, None], [0] * 4, 1), IDENTITY)
        wide = _set_of(np.zeros((3, 2)), [1, 1, 1], 2)
        with pytest.raises(ValueError, match="dimension"):
            merged_training_set(memory, wide)
