import struct

import numpy as np
import pytest

from bdrlab.data import (
    IdxFormatError,
    LabeledSet,
    ProtocolError,
    load_idx,
    make_gaussian_mixture,
    make_rings,
    split_phases,
)
from bdrlab.balance import ce_with_offset


def _train_linear_probe(features, labels, classes, steps=400, lr=0.5):
    """Full-batch softmax regression, used as an independent separability oracle."""
    rng = np.random.default_rng(0)
    w = rng.normal(0.0, 0.01, (features.shape[1], classes))
    b = np.zeros(classes)
    zero = np.zeros(classes)
    for _ in range(steps):
        _, dlogits = ce_with_offset(features @ w + b, zero, labels)
        w -= lr * (features.T @ dlogits)
        b -= lr * dlogits.sum(axis=0)
    logits = features @ w + b
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def _train_two_layer(features, labels, classes, width=64, steps=1500, lr=0.3):
    rng = np.random.default_rng(1)
    w1 = rng.normal(0.0, np.sqrt(2.0 / features.shape[1]), (features.shape[1], width))
    b1 = np.zeros(width)
    w2 = rng.normal(0.0, 0.01, (width, classes))
    b2 = np.zeros(classes)
    zero = np.zeros(classes)
    for _ in range(steps):
        pre = features @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        _, d2 = ce_with_offset(hidden @ w2 + b2, zero, labels)
        d1 = (d2 @ w2.T) * (pre > 0.0)
        for p, g in ((w1, features.T @ d1), (b1, d1.sum(axis=0)), (w2, hidden.T @ d2), (b2, d2.sum(axis=0))):
            p -= lr * g
    hidden = np.maximum(features @ w1 + b1, 0.0)
    logits = hidden @ w2 + b2
    return float(np.mean(np.argmax(logits, axis=1) == labels))


class TestGaussianMixture:
    def test_counts(self):
        data = make_gaussian_mixture(2, 5, 2, 1.0, seed=0)
        assert data.n == 10
        assert np.bincount(data.labels).tolist() == [5, 5]

    def test_same_seed_identical(self):
        a = make_gaussian_mixture(3, 4, 5, 2.0, seed=7)
        b = make_gaussian_mixture(3, 4, 5, 2.0, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_wide_separation_linearly_separable(self):
        data = make_gaussian_mixture(3, 200, 4, 50.0, seed=3)
        acc = _train_linear_probe(data.features, data.labels, 3)
        assert acc > 0.99


class TestRings:
    def test_zero_noise_radial_order(self):
        data = make_rings(2, 50, 0.0, seed=0)
        radii = np.linalg.norm(data.features, axis=1)
        assert radii[data.labels == 0].max() < radii[data.labels == 1].min()

    def test_zero_per_class_rejected(self):
        with pytest.raises(ValueError):
            make_rings(2, 0, 0.1)

    def test_nonlinear_separability_gap(self):
        # rings defeat a linear probe but not a small relu net
        data = make_rings(3, 100, 0.05, seed=5)
        linear = _train_linear_probe(data.features, data.labels, 3)
        nonlinear = _train_two_layer(data.features, data.labels, 3)
        assert linear < 0.60
        assert nonlinear > 0.90


def _write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    ipath = tmp_path / "images.idx"
    lpath = tmp_path / "labels.idx"
    ipath.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes())
    lpath.write_bytes(struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes())
    return str(ipath), str(lpath)


class TestLoadIdx:
    def test_header_arithmetic(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (10, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 3, 10, dtype=np.uint8)
        ipath, lpath = _write_idx_pair(tmp_path, images, labels)
        data = load_idx(ipath, lpath)
        assert data.n == 10
        assert data.dim == 784

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4))
        lpath = tmp_path / "labels.idx"
        lpath.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx(str(p), str(lpath))

    def test_byte_scaling(self, tmp_path):
        images = np.full((2, 2, 2), 255, dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        ipath, lpath = _write_idx_pair(tmp_path, images, labels)
        data = load_idx(ipath, lpath)
        assert data.features.max() == 1.0

    def test_truncated_payload_names_offset(self, tmp_path):
        p = tmp_path / "short.idx"
        p.write_bytes(struct.pack(">IIII", 0x00000803, 3, 2, 2) + bytes(5))
        lpath = tmp_path / "labels.idx"
        lpath.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes(3))
        with pytest.raises(IdxFormatError, match="offset"):
            load_idx(str(p), str(lpath))

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        labels = np.zeros(4, dtype=np.uint8)
        ipath, lpath = _write_idx_pair(tmp_path, images, labels)
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_idx(ipath, lpath)


class TestLabeledSet:
    def test_features_are_coerced_to_a_float64_array(self):
        data = LabeledSet([[1, 2], [3, 4]], np.array([0, 1]), 2)
        assert type(data.features) is np.ndarray and data.features.dtype == np.float64
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])


class TestSplitPhases:
    def test_phase_sizes_with_initial_block(self):
        data = make_gaussian_mixture(8, 30, 3, 4.0, seed=0)
        stream = split_phases(data, 4, 2, seed=0)
        sizes = [len({int(c) for c in phase.labels}) for phase in stream.phases]
        assert sizes == [4, 2, 2]

    def test_phase_sizes_without_initial_block(self):
        data = make_gaussian_mixture(8, 30, 3, 4.0, seed=0)
        stream = split_phases(data, 0, 2, seed=0)
        assert [len(set(p.labels.tolist())) for p in stream.phases] == [2, 2, 2, 2]

    def test_indivisible_protocol(self):
        data = make_gaussian_mixture(10, 12, 3, 4.0, seed=0)
        with pytest.raises(ProtocolError, match="10.*4.*4"):
            split_phases(data, 4, 4, seed=0)

    def test_disjoint_and_covering(self):
        data = make_gaussian_mixture(8, 30, 3, 4.0, seed=1)
        stream = split_phases(data, 4, 2, seed=1)
        seen = set()
        for phase in stream.phases:
            classes = {int(c) for c in phase.labels}
            assert not classes & seen
            seen |= classes
        assert seen == set(range(8))

    def test_same_seed_bit_identical(self):
        data = make_gaussian_mixture(6, 24, 3, 4.0, seed=2)
        a = split_phases(data, 2, 2, seed=9)
        b = split_phases(data, 2, 2, seed=9)
        for pa, pb in zip(a.phases + a.test_phases, b.phases + b.test_phases):
            np.testing.assert_array_equal(pa.features, pb.features)
            np.testing.assert_array_equal(pa.labels, pb.labels)

    def test_different_seeds_change_class_order(self):
        data = make_gaussian_mixture(8, 12, 3, 4.0, seed=2)
        orders = {tuple(split_phases(data, 4, 2, seed=s).class_order) for s in range(6)}
        assert len(orders) > 1

    def test_per_class_counts_conserved(self):
        data = make_gaussian_mixture(6, 30, 3, 4.0, seed=3)
        stream = split_phases(data, 2, 2, seed=3)
        totals = np.zeros(6, dtype=np.int64)
        for phase, test in zip(stream.phases, stream.test_phases):
            for part in (phase, test):
                totals += np.bincount(part.labels, minlength=6)
        assert all(count == 30 for count in totals)

    def test_test_split_is_one_sixth(self):
        data = make_gaussian_mixture(4, 120, 3, 4.0, seed=4)
        stream = split_phases(data, 2, 2, seed=4)
        for test in stream.test_phases:
            for count in np.unique(test.labels, return_counts=True)[1]:
                assert count == 20

    def test_class_without_a_test_sample_rejected(self):
        labels = np.array([0, 0, 0, 1, 1, 1, 2])
        data = LabeledSet(np.random.default_rng(0).standard_normal((7, 2)), labels, 3)
        with pytest.raises(ValueError, match="class 2 has 1 sample"):
            split_phases(data, 2, 1, seed=0)

    def test_single_phase_stream_allowed(self):
        data = make_gaussian_mixture(4, 12, 3, 4.0, seed=5)
        stream = split_phases(data, 4, 1, seed=5)
        assert stream.num_phases == 1
