import copy
import math
import pickle
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from bdrlab import training
from bdrlab.balance import ce_with_offset, log_softmax
from bdrlab.config import ConfigError, ExperimentConfig
from bdrlab.data import LabeledSet, make_gaussian_mixture, split_phases
from bdrlab.diagnostics import cauchy_gap
from bdrlab.memory import merged_training_set
from bdrlab.seeding import BATCH, INIT, rng_for
from bdrlab.tensor import Tensor, matmul, relu
from bdrlab.training import (
    LOSS_VARIANTS,
    SGD,
    Classifier,
    DivergenceError,
    _contribution_sums,
    _old_phase_curvature,
    _old_phase_hvp,
    _phase_loss,
    distill_loss,
    first_phase,
    run_experiment,
    teacher_targets,
    train_phase,
)
from bdrlab.verification import finite_diff_check, frozen_mask_forward, frozen_mask_hessian, kinked_relu_problem


# every config field, by attribute, and one value its rule rejects
KEYED_FIELDS = {f.name: f for f in fields(ExperimentConfig) if f.metadata}
BAD_SETTINGS = {
    "dataset_kind": "images",
    "classes": 1,
    "per_class": 1,
    "dim": 1,
    "separation": 0.0,
    "ring_noise": -0.1,
    "initial_classes": -1,
    "memory_mode": "ring",
    "memory_budget": 0,
    "memory_selection": "greedy",
    "epochs": 0,
    "batch_size": 0,
    "lr": float("nan"),
    "sgd_momentum": 1.0,
    "distill_weight": -1.0,
    "distill_temperature": 0.0,
    "variance_source": "weights",
    "hidden": (8, 0),
    "m": 1.5,
    "m_prime": 1.2,
    "beta": -0.1,
    "tau": -1.0,
    "variants": ("ce", "focal"),
    "seeds": (0, 0),
}


def small_config(**overrides):
    base = dict(epochs=4, batch_size=16, lr=0.05, seed=0, hidden=(16, 16), memory_budget=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def full_run(stream, config, variant="ce"):
    """Phase 0 of ``stream`` and then ``variant`` from it."""
    return run_experiment(first_phase(stream, config), variant)


def backward(model, acts, dlogits):
    """``Classifier.backward`` into a fresh vector: (gradient, row deltas)."""
    grad = np.empty_like(model.flat)
    return grad, model.backward(acts, dlogits, grad)


def split(model, grad, acts, deltas, new_rows):
    """``_contribution_sums`` into a fresh pair of vectors."""
    return _contribution_sums(model, grad, acts, deltas, new_rows, np.empty((2, grad.size)))


def flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def arrays(pairs):
    """The arrays of per-layer ``(weight, bias)`` pairs, in ``flat``'s order."""
    return [p for pair in pairs for p in pair]


class TestClassifier:
    def test_parameters_are_float64_arrays_and_copies_share_none(self):
        model = Classifier(4, (8, 6), 3, rng_for(0, INIT, 0))
        clone = model.copy()
        for p, q in zip(arrays(model.layers), arrays(clone.layers)):
            assert type(p) is np.ndarray and p.dtype == np.float64
            assert np.array_equal(p, q) and not np.shares_memory(p, q)

    def test_parameters_are_views_of_one_flat_vector(self):
        model = Classifier(4, (8, 6), 3, rng_for(0, INIT, 0))
        for classes in (3, 5):  # as built, then with a grown head
            if classes > model.n_classes:
                model.expand_head(classes - model.n_classes, rng_for(0, INIT, 1))
            assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous
            assert [w.shape for w, _ in model.layers] == [(4, 8), (8, 6), (6, classes)]
            assert all(np.shares_memory(p, model.flat) for p in arrays(model.layers))
            assert np.array_equal(flatten(arrays(model.layers)), model.flat)
            # any vector laid out as flat is cut the same way: its views tile
            # it, each entry once and in order
            vec = np.arange(model.flat.size, dtype=np.float64)
            parts = arrays(model.views(vec))
            assert [p.shape for p in parts] == [p.shape for p in arrays(model.layers)]
            assert all(np.shares_memory(p, vec) for p in parts)
            assert np.array_equal(flatten(parts), vec)

    @pytest.mark.parametrize(
        "duplicate",
        [Classifier.copy, copy.deepcopy, lambda model: pickle.loads(pickle.dumps(model))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_step_on_a_copy_leaves_the_original_unchanged(self, duplicate):
        model = Classifier(4, (8, 6), 3, rng_for(0, INIT, 0))
        before = model.flat.copy()
        clone = duplicate(model)
        assert not np.shares_memory(clone.flat, model.flat)
        assert all(np.shares_memory(p, clone.flat) for p in arrays(clone.layers))
        SGD(clone.flat, 0.5).step(np.ones_like(clone.flat))
        assert np.array_equal(model.flat, before)
        for moved, kept in zip(arrays(clone.layers), arrays(model.layers)):
            assert np.array_equal(moved, kept - 0.5)

    def test_relu_equals_the_masked_select_bit_for_bit(self):
        # BLAS never yields -0.0 from ``h @ w``, so the first layer's weight is
        # a stand-in whose product with any input is the chosen pre-activation
        # block; its bias of -0.0 adds back every value, sign bit included
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf, 1.5, -2.5]
        rng = np.random.default_rng(3)
        a = rng.permutation(np.resize(special, 64 * 40)).reshape(64, 40)

        class FixedProduct:
            __array_ufunc__ = None  # makes ``h @ self`` call __rmatmul__

            def __rmatmul__(self, h):
                return a.copy()

        model = Classifier(5, (40,), 3, rng_for(0, INIT, 0))
        model.layers[0] = (FixedProduct(), np.full(40, -0.0))
        with np.errstate(invalid="ignore"):
            acts = model.forward(rng.standard_normal((64, 5)))
        want = np.where(a > 0, a, 0.0)
        assert np.array_equal(acts.features, want)
        assert np.array_equal(np.signbit(acts.features), np.signbit(want))
        assert np.array_equal(acts.masks[0], a > 0)


class TestExpandHead:
    def test_old_logits_preserved(self):
        rng = np.random.default_rng(0)
        model = Classifier(4, (8,), 4, rng_for(0, INIT, 0))
        x = rng.standard_normal((5, 4))
        before = model.forward(x).logits
        model.expand_head(2, rng_for(0, INIT, 1))
        after = model.forward(x).logits
        np.testing.assert_allclose(after[:, :4], before, atol=1e-12)
        assert model.n_classes == 6

    def test_new_class_logits_near_zero(self):
        rng = np.random.default_rng(1)
        model = Classifier(4, (8,), 2, rng_for(0, INIT, 0))
        model.expand_head(3, rng_for(0, INIT, 1))
        # sigma = 0.01 head columns against unit-norm features: |z| < 0.1 is a 10-sigma event
        features = rng.standard_normal((50, 8))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        w, b = model.layers[-1]
        logits = features @ w[:, 2:] + b[2:]
        assert np.abs(logits).max() < 0.1

    def test_two_small_expansions_match_one_big_for_old_rows(self):
        a = Classifier(3, (6,), 2, rng_for(7, INIT, 0))
        b = Classifier(3, (6,), 2, rng_for(7, INIT, 0))
        a.expand_head(2, rng_for(7, INIT, 1))
        a.expand_head(2, rng_for(7, INIT, 2))
        b.expand_head(4, rng_for(7, INIT, 1))
        np.testing.assert_array_equal(a.layers[-1][0][:, :2], b.layers[-1][0][:, :2])

    def test_grown_head_is_a_view_that_a_step_moves(self):
        model = Classifier(4, (8,), 2, rng_for(0, INIT, 0))
        model.expand_head(3, rng_for(0, INIT, 1))
        assert model.flat.size == sum(p.size for p in arrays(model.layers))
        assert all(np.shares_memory(p, model.flat) for p in arrays(model.layers))
        w, b = (p.copy() for p in model.layers[-1])
        SGD(model.flat, 0.25).step(np.ones_like(model.flat))
        assert np.array_equal(model.layers[-1][0], w - 0.25)
        assert np.array_equal(model.layers[-1][1], b - 0.25)

    def test_zero_growth_rejected(self):
        model = Classifier(3, (6,), 2, rng_for(0, INIT, 0))
        with pytest.raises(ValueError):
            model.expand_head(0, rng_for(0, INIT, 1))


class TestDistillLoss:
    def test_identical_logits_zero(self):
        logits = np.array([[1.0, -2.0, 0.5], [0.1, 0.2, 0.3]])
        loss, grad = distill_loss(logits, teacher_targets(logits, 2.0), 2.0, 1.0)
        assert loss == 0.0
        assert not grad.any()

    def test_closed_form_two_class(self):
        # teacher [1,0] vs student [0,1] at unit temperature: KL between the
        # two softened distributions, whose log-ratio is exactly 1
        p = np.exp(log_softmax(np.array([[1.0, 0.0]])))[0]
        expected = p[0] * 1.0 + p[1] * -1.0
        loss, _ = distill_loss([[0.0, 1.0]], teacher_targets([[1.0, 0.0]], 1.0), 1.0, 1.0)
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.462, abs=1e-3)

    def test_high_temperature_matches_quadratic_expansion(self):
        # for T large, loss ~ mean over batch of sum((delta - mean(delta))^2) / (2K)
        rng = np.random.default_rng(2)
        student = rng.standard_normal((4, 5)) * 0.3
        teacher = student + rng.standard_normal((4, 5)) * 0.05
        loss, _ = distill_loss(student, teacher_targets(teacher, 100.0), 100.0, 1.0)
        delta = teacher - student
        centered = delta - delta.mean(axis=1, keepdims=True)
        series = float((centered**2).sum(axis=1).mean()) / (2 * 5)
        assert loss == pytest.approx(series, rel=1e-2)

    def test_targets_of_a_row_do_not_depend_on_the_other_rows(self):
        # a phase takes the targets once and each step indexes its rows
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((50, 9)) * 3.0
        idx = rng.permutation(50)[:13]
        for batch, whole in zip(teacher_targets(logits[idx], 2.0), teacher_targets(logits, 2.0)):
            assert np.array_equal(batch, whole[idx])

    def test_slice_mismatch(self):
        with pytest.raises(ValueError, match="slices"):
            distill_loss(np.zeros((2, 3)), teacher_targets(np.zeros((2, 4)), 2.0), 2.0, 1.0)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(3)
        targets = teacher_targets(rng.standard_normal((3, 4)), 2.0)
        err = finite_diff_check(lambda x: distill_loss(x, targets, 2.0, 1.0), rng.standard_normal((3, 4)))
        assert err < 1e-5

    def test_gradient_is_weighted_and_zero_on_new_columns(self):
        rng = np.random.default_rng(4)
        logits, targets = rng.standard_normal((3, 5)), teacher_targets(rng.standard_normal((3, 2)), 2.0)
        loss, grad = distill_loss(logits, targets, 2.0, 1.0)
        weighted_loss, weighted_grad = distill_loss(logits, targets, 2.0, 0.25)
        assert weighted_loss == loss
        np.testing.assert_allclose(weighted_grad, 0.25 * grad, rtol=1e-15)
        assert not grad[:, 2:].any()


def _one_class_set(n=40, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledSet(rng.standard_normal((n, dim)), np.zeros(n, dtype=np.int64), 1)


def _tape_layers(model):
    # the classifier's parameters as tape leaves, in ``Classifier.layers`` pairs
    return [tuple(Tensor(p, requires_grad=True) for p in layer) for layer in model.layers]


def _tape_logits(layers, x):
    # the classifier's forward pass built on the autodiff tape, from its
    # ``(weight, bias)`` pairs, head last
    h = Tensor(x)
    for w, b in layers[:-1]:
        h = relu(matmul(h, w) + b)
    w, b = layers[-1]
    return matmul(h, w) + b


class TestKernelAgainstTape:
    # the tape is the reference for the classifier's numpy forward/backward;
    # each closed-form dlogits enters it as the logits' output adjoint

    K, OLD = 5, 3

    def _setup(self, variant):
        rng = np.random.default_rng(12)
        model = Classifier(6, (9, 7), self.K, rng_for(1, INIT, 0))
        x = rng.standard_normal((23, 6))
        y = rng.permutation(np.arange(23) % self.K)
        loss_fn, _ = _phase_loss(variant, model, LabeledSet(x, y, self.K), ExperimentConfig())
        teacher_logits = rng.standard_normal((23, self.OLD))
        return model, x, y, loss_fn, teacher_logits

    @pytest.mark.parametrize("distill", [False, True], ids=["plain", "distill"])
    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_gradients_equal_the_tapes(self, variant, distill):
        model, x, y, loss_fn, teacher_logits = self._setup(variant)

        acts = model.forward(x)
        _, dlogits = loss_fn(acts.logits, y)
        if distill:  # the loss terms' logit gradients summed, as in train_phase
            dlogits = dlogits + distill_loss(acts.logits, teacher_targets(teacher_logits, 2.0), 2.0, 0.7)[1]

        # the reference: one tape backward with the summed adjoint at the logits
        layers = _tape_layers(model)
        tape_logits = _tape_logits(layers, x)
        assert np.array_equal(acts.logits, tape_logits.data)
        (tape_logits * dlogits).sum().backward()
        expected = [p.grad for p in arrays(layers)]

        grads = arrays(model.views(backward(model, acts, dlogits)[0]))
        assert [g.shape for g in grads] == [p.shape for p in arrays(model.layers)]
        for got, want in zip(grads, expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("old_classes", [0, OLD], ids=["phase_zero", "incremental"])
    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_one_pass_split_matches_two_sub_batch_passes(self, variant, old_classes):
        model, x, y, loss_fn, _ = self._setup(variant)
        acts = model.forward(x)
        grad, deltas = backward(model, acts, loss_fn(acts.logits, y)[1])
        sums = split(model, grad, acts, deltas, y >= old_classes)

        for got, rows in zip(sums, (y >= old_classes, y < old_classes)):
            want = self._sub_batch_sum(model, x, y, loss_fn, rows)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("layout", ["old_majority", "single_old", "even"])
    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_split_remainder_matches_two_sub_batch_passes(self, variant, layout):
        # the smaller row group is summed directly and the other one is the
        # remainder of the batch gradient: cover either side being the remainder
        model, x, _, loss_fn, _ = self._setup(variant)
        rng = np.random.default_rng(5)
        if layout == "old_majority":
            y = rng.integers(0, self.OLD, 23)
            y[[4, 17]] = [self.OLD, self.K - 1]
        elif layout == "single_old":
            y = rng.integers(self.OLD, self.K, 23)
            y[9] = 1
        else:
            x = x[:22]
            y = np.resize([0, self.OLD, 1, self.K - 1, 2, self.OLD], 22)  # 11 new rows, 11 old
        new_rows = y >= self.OLD
        acts = model.forward(x)
        grad, deltas = backward(model, acts, loss_fn(acts.logits, y)[1])
        sums = split(model, grad, acts, deltas, new_rows)

        for got, rows in zip(sums, (new_rows, ~new_rows)):
            want = self._sub_batch_sum(model, x, y, loss_fn, rows)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @staticmethod
    def _sub_batch_sum(model, x, y, loss_fn, rows):
        # reference: the sub-batch's summed loss through its own tape pass
        if not rows.any():
            return np.zeros(model.flat.size)
        layers = _tape_layers(model)
        sub_logits = _tape_logits(layers, x[rows])
        _, sub_dlogits = loss_fn(sub_logits.data, y[rows])
        (sub_logits * (sub_dlogits * float(rows.sum()))).sum().backward()
        return flatten([p.grad for p in arrays(layers)])


class TestTrainPhase:
    def test_single_class_reaches_full_accuracy(self):
        data = _one_class_set()
        config = small_config(distill_weight=0.0)
        model = Classifier(3, config.hidden, 1, rng_for(0, INIT, 0))
        train_phase(model, data, config, 0)
        assert np.all(model.predict(data.features) == data.labels)

    def test_phase_zero_epoch_means_decrease(self):
        data = make_gaussian_mixture(4, 40, 6, 3.0, seed=1)
        config = small_config(epochs=6)
        model = Classifier(6, config.hidden, 4, rng_for(0, INIT, 0))
        trace = train_phase(model, data, config, 0)
        losses = trace.column("loss_new")
        epochs = trace.column("epoch")
        means = [losses[epochs == e].mean() for e in range(6)]
        assert all(a > b for a, b in zip(means, means[1:]))

    @pytest.mark.filterwarnings("error")
    def test_divergence_raises_with_step(self):
        # a non-finite activation anywhere must surface as a divergence error
        # naming the step, not as a bare numeric exception
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20, 3))
        x[7, 1] = np.inf
        data = LabeledSet(x, rng.integers(0, 2, 20).astype(np.int64), 2)
        config = small_config(epochs=1, batch_size=20, hidden=(16,))
        model = Classifier(3, config.hidden, 2, rng_for(0, INIT, 0))
        with pytest.raises(DivergenceError, match="step 0"):
            train_phase(model, data, config, 0)

    @pytest.mark.filterwarnings("error")
    def test_nan_hidden_weight_diverges_at_step_zero(self):
        # a NaN pre-activation reaches the logits instead of leaving a unit
        # that is silently dead for the rest of training
        data = make_gaussian_mixture(2, 20, 6, 3.0, seed=4)
        config = small_config(epochs=2, batch_size=20, hidden=(16,))
        model = Classifier(6, config.hidden, 2, rng_for(0, INIT, 0))
        model.layers[0][0][:, 3] = np.nan
        with pytest.raises(DivergenceError, match="step 0"):
            train_phase(model, data, config, 0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gradient_ends_before_its_update(self):
        # the loss stays finite, but the squared gradient norm overflows
        data = make_gaussian_mixture(2, 20, 6, 3.0, seed=4)
        data = LabeledSet(data.features * 1e200, data.labels, data.class_count)
        config = small_config(epochs=1, batch_size=8, hidden=(16,))
        model = Classifier(6, config.hidden, 2, rng_for(0, INIT, 0))
        before = [p.copy() for p in arrays(model.layers)]
        with pytest.raises(DivergenceError, match="non-finite gradient at phase 0, step"):
            train_phase(model, data, config, 0)
        for p, unchanged in zip(arrays(model.layers), before):
            np.testing.assert_array_equal(p, unchanged)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_runaway_learning_rate_diverges_in_every_variant(self, variant):
        # bdr's balance update meets the blown-up features first: its
        # non-finite variance must end as the same typed divergence
        # (class 0 is old: the arriving one-class model grows a column for 1)
        data = make_gaussian_mixture(2, 20, 6, 3.0, seed=4)
        config = ExperimentConfig(epochs=6, batch_size=8, hidden=(16,), lr=1e8)
        model = Classifier(6, config.hidden, 1, rng_for(0, INIT, 0))
        with pytest.raises(DivergenceError, match="phase 1, step"):
            train_phase(model, data, config, 1, variant)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_teacher_temperature_diverges_without_a_warning(self):
        # the teacher's tempered logits overflow in the phase's set-up, which
        # must end as the typed divergence, not as a numpy warning first
        data = make_gaussian_mixture(4, 20, 6, 3.0, seed=4)
        config = small_config(distill_weight=1.0, distill_temperature=1e-310)
        model = Classifier(6, config.hidden, 2, rng_for(0, INIT, 0))
        with pytest.raises(DivergenceError, match="phase 1, step 0"):
            train_phase(model, data, config, 1)

    def test_trace_identity_links_contributions_to_total(self):
        # recorded ||grad||^2 equals the recomputation from the stored
        # new/old contribution sums
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=2), 2, 2, seed=2)
        config = small_config(epochs=2)
        result = full_run(stream, config)
        checked = 0
        for trace in result.traces:
            for row in trace.rows:
                recomputed = (
                    row.grad_new_norm**2 + 2.0 * row.contrib_inner + row.grad_old_norm**2
                ) / row.batch_size**2
                assert recomputed == pytest.approx(row.grad_total_sq, rel=1e-8, abs=1e-8)
                checked += 1
        assert checked > 0

    def test_teacher_parameters_frozen(self, monkeypatch):
        # the model a phase inherits is its teacher: the targets are taken
        # from it before training moves it, chunk by chunk
        data, config, model, _ = self._distilling_phase()
        teacher = model.copy()
        recorded = []

        def targets(logits, temperature, original=training.teacher_targets):
            recorded.append((np.array(logits), original(logits, temperature)))
            return recorded[-1][1]

        monkeypatch.setattr(training, "teacher_targets", targets)
        train_phase(model, data, config, 1)
        (logits, got), = recorded
        chunks = range(0, data.n, config.batch_size)
        want = np.concatenate([teacher.forward(data.features[i : i + config.batch_size]).logits for i in chunks])
        np.testing.assert_array_equal(logits, want)
        for a, b in zip(got, teacher_targets(want, config.distill_temperature)):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(model.layers[0][0], teacher.layers[0][0])  # training moved the model

    @staticmethod
    def _distilling_phase():
        # returns the phase-1 inputs, the model as phase 0 leaves it, with
        # every forward call of it recorded as (input rows, logits)
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=3), 2, 2, seed=3)
        config = small_config(epochs=3, batch_size=13)
        model = Classifier(4, config.hidden, 2, rng_for(0, INIT, 0))
        train_phase(model, stream.phases[0], config, 0)
        calls = []

        def recorded(x):
            acts = Classifier.forward(model, x)
            calls.append((np.array(x), acts.logits.copy()))
            return acts

        model.forward = recorded
        return stream.phases[1], config, model, calls

    def test_teacher_scores_each_row_once_per_phase(self):
        data, config, model, calls = self._distilling_phase()
        trace = train_phase(model, data, config, 1)
        scored = math.ceil(data.n / config.batch_size)
        assert len(calls) == scored + len(trace.rows)
        assert len(trace.rows) == config.epochs * scored
        np.testing.assert_array_equal(np.concatenate([x for x, _ in calls[:scored]]), data.features)
        assert {logits.shape[1] for _, logits in calls[:scored]} == {2}  # the old head
        assert {logits.shape[1] for _, logits in calls[scored:]} == {data.class_count}
        assert model.n_classes == data.class_count == 4

    def test_a_distilling_step_makes_one_backward_pass(self, monkeypatch):
        data, config, model, _ = self._distilling_phase()
        calls = []

        def counted(net, acts, dlogits, out, backward=Classifier.backward):
            calls.append(net)
            return backward(net, acts, dlogits, out)

        monkeypatch.setattr(Classifier, "backward", counted)
        trace = train_phase(model, data, config, 1)
        assert len(trace.rows) > 0
        assert len(calls) == len(trace.rows)

    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_record_describes_the_update_gradient(self, variant, monkeypatch):
        # the second step of a distilling phase without momentum: the step
        # moves the parameters by lr times the recorded gradient. The student
        # has left its teacher, so the consolidation gradient is not zero.
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=3), 2, 2, seed=3)
        start = first_phase(stream, small_config())
        data = merged_training_set(start.memory, stream.phases[1])
        config = replace(start.config, epochs=2, batch_size=data.n, sgd_momentum=0.0)
        model, teacher = start.model.copy(), start.model.copy()
        before = []

        def recorded(optimizer, grad, step=SGD.step):
            before.append(optimizer.params.copy())
            step(optimizer, grad)

        monkeypatch.setattr(SGD, "step", recorded)
        trace = train_phase(model, data, config, 1, variant)
        row = trace.rows[1]
        update = (before[1] - model.flat) / config.lr
        assert row.grad_total_sq == pytest.approx(float(update @ update), rel=1e-10)

        # the split rebuilt from the same batch: the full gradient's row groups
        first, second = model.copy(), model.copy()
        first.flat[...], second.flat[...] = before
        rng = rng_for(config.seed, BATCH, 1)
        batches = [(data.features[idx], data.labels[idx], idx) for idx in (rng.permutation(data.n) for _ in range(2))]
        loss_fn, track = _phase_loss(variant, first, data, config)
        if track is not None:
            track(1, 0, first.forward(batches[0][0]), batches[0][1])
        x, y, idx = batches[1]
        acts = second.forward(x)
        if track is not None:
            track(1, 1, acts, y)
        teacher_logits = teacher.forward(data.features).logits[idx]
        targets = teacher_targets(teacher_logits, config.distill_temperature)
        _, old_dlogits = distill_loss(acts.logits, targets, config.distill_temperature, config.distill_weight)
        assert np.abs(old_dlogits).max() > 1e-6
        grad, deltas = backward(second, acts, loss_fn(acts.logits, y)[1] + old_dlogits)
        grad_new, grad_old = split(second, grad, acts, deltas, y >= 2)
        want = data.n * update
        assert np.linalg.norm(grad_new + grad_old - want) <= 1e-12 * np.linalg.norm(want)
        assert row.grad_new_norm == pytest.approx(float(np.linalg.norm(grad_new)), rel=1e-10)
        assert row.grad_old_norm == pytest.approx(float(np.linalg.norm(grad_old)), rel=1e-10)
        assert row.contrib_inner == pytest.approx(float(grad_new @ grad_old), rel=1e-10)

    def test_cached_teacher_logits_give_the_per_batch_distillation_loss(self):
        data, config, model, calls = self._distilling_phase()
        teacher = model.copy()
        trace = train_phase(model, data, config, 1)
        scored = math.ceil(data.n / config.batch_size)
        rng = rng_for(config.seed, BATCH, 1)
        batches = [
            perm[start : start + config.batch_size]
            for perm in (rng.permutation(data.n) for _ in range(config.epochs))
            for start in range(0, data.n, config.batch_size)
        ]
        assert len(batches) == len(trace.rows) == len(calls) - scored
        for idx, row, (x, logits) in zip(batches, trace.rows, calls[scored:]):
            np.testing.assert_array_equal(x, data.features[idx])
            want, _ = distill_loss(
                logits,
                teacher_targets(teacher.forward(data.features[idx]).logits, config.distill_temperature),
                config.distill_temperature,
                config.distill_weight,
            )
            if row.step == 0:  # the student still equals the teacher: zero up to rounding
                assert abs(row.loss_old) <= 1e-15 and abs(want) <= 1e-15
            else:
                assert abs(row.loss_old - want) <= 1e-12 * abs(want)

    @staticmethod
    def _phase_one_of_a_run(variant="ce", **overrides):
        # a run's phase-1 inputs rebuilt from its shared first phase, and the run
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=3), 2, 2, seed=3)
        config = small_config(epochs=2, **overrides)
        start = first_phase(stream, config)
        run = run_experiment(start, variant)
        model = start.model.copy().expand_head(2, rng_for(config.seed, INIT, 1))
        return stream, config, start, model, run.traces[1]

    def test_bdr_phase_builds_its_balance_state_as_the_run_does(self):
        stream, config, start, _, run_trace = self._phase_one_of_a_run("bdr")
        data = merged_training_set(start.memory, stream.phases[1])
        trace = train_phase(start.model.copy(), data, config, 1, "bdr")
        assert len(trace.balance_rows) == 4 * len(trace.rows) > 0
        assert trace.balance_rows == run_trace.balance_rows
        assert trace.rows == run_trace.rows

    def test_without_distillation_loss_old_is_the_ce_on_the_replayed_exemplars(self):
        _, _, start, model, run_trace = self._phase_one_of_a_run(distill_weight=0.0)
        replay = start.memory.as_labeled_set(2)
        want, _ = ce_with_offset(model.forward(replay.features).logits, np.zeros(4), replay.labels)
        first = run_trace.rows[0]
        assert (first.phase, first.step) == (1, 0)
        assert first.loss_old == want
        assert len({row.loss_old for row in run_trace.rows}) > 1  # scored again at every step


class TestRunExperiment:
    def test_single_phase_avg_equals_last(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=4), 4, 1, seed=4)
        report = full_run(stream, small_config()).report
        assert report["avg"] == report["last"]
        assert len(report["phases"]) == 1

    def test_same_seed_same_report(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=5), 2, 2, seed=5)
        a = full_run(stream, small_config()).report
        b = full_run(stream, small_config()).report
        assert a == b

    def test_incremental_loop_matches_plain_supervised_on_one_phase(self):
        # with a single phase there is no teacher, no schedule, no replay: the
        # loop must be numerically identical to calling train_phase directly
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=6), 4, 1, seed=6)
        config = small_config()
        looped = full_run(stream, config)
        direct = Classifier(4, config.hidden, 4, rng_for(config.seed, INIT, 0))
        direct_trace = train_phase(direct, stream.phases[0], config, 0)
        looped_losses = looped.traces[0].column("loss_new")
        np.testing.assert_array_equal(looped_losses, direct_trace.column("loss_new"))
        test = stream.test_phases[0]
        acc = 100.0 * float(np.mean(direct.predict(test.features) == test.labels))
        assert looped.report["phases"][0]["accuracy"]["overall"] == acc

    def test_memory_serialised_into_report(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=7), 2, 2, seed=7)
        report = full_run(stream, small_config()).report
        assert set(report["memory"]) == {"0", "1", "2", "3"}
        assert all(len(v) == 3 for v in report["memory"].values())

    def test_destruction_and_bound_reported_for_incremental_phases(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=8), 2, 2, seed=8)
        result = full_run(stream, small_config())
        report = result.report
        assert report["phases"][0]["destruction"] is None
        entry = report["phases"][1]
        assert entry["destruction"]["f_max"] >= 0.0
        assert entry["bound"]["min_cauchy_gap"] >= -1e-8
        trace = result.traces[1]
        assert len(trace.column("grad_total_sq")) == len(trace.column("contrib_inner"))

    def test_report_holds_per_phase_summaries_and_the_trace_rebuilds_the_gap(self):
        # schema 2: no per-step list in the report; the step trace, whose rows
        # the step CSV holds, rebuilds the smallest gap bit for bit
        stream = split_phases(make_gaussian_mixture(6, 40, 4, 3.0, seed=18), 2, 2, seed=18)
        config = small_config(batch_size=12)
        result = full_run(stream, config)
        assert result.report["schema_version"] == 2
        for entry, trace in zip(result.report["phases"][1:], result.traces[1:]):
            assert set(entry["destruction"]) == {"initial", "peak", "f_max", "step_of_peak", "converged", "box"}
            assert set(entry["bound"]) == {
                "sigma_max", "sigma_converged", "sigma_hvps", "sigma_residual",
                "grad_sq_sum_to_peak", "bound", "bound_minus_f_max", "min_cauchy_gap",
            }
            assert not any(isinstance(v, list) for v in entry["bound"].values())
            size, batch = entry["train_size"], config.batch_size
            assert size % batch != 0  # the short last batch of each epoch is covered
            sizes = [min(batch, size - start) for start in range(0, size, batch)] * config.epochs
            np.testing.assert_array_equal(trace.column("batch_size"), sizes)
            gaps = cauchy_gap(
                trace.column("grad_total_sq"), trace.column("contrib_inner"), np.asarray(sizes, dtype=np.float64)
            )
            assert float(gaps.min()) == entry["bound"]["min_cauchy_gap"]

    def test_bound_records_how_the_curvature_estimate_ended(self):
        stream = split_phases(make_gaussian_mixture(6, 30, 4, 3.0, seed=8), 2, 2, seed=8)
        report = full_run(stream, small_config()).report
        for entry in report["phases"][1:]:
            bound = entry["bound"]
            assert bound["sigma_converged"] is True
            assert isinstance(bound["sigma_hvps"], int) and bound["sigma_hvps"] >= 1
            assert 0.0 <= bound["sigma_residual"] <= 1e-6 * abs(bound["sigma_max"])

    def test_bdr_schedule_rows_recorded(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=10), 2, 2, seed=10)
        result = full_run(stream, small_config(), "bdr")
        assert not result.traces[0].balance_rows  # phase 0 has no schedule
        rows = result.traces[1].balance_rows
        assert rows, "incremental phase must dump the balance trajectory"
        assert {r[0] for r in rows} == {1}
        assert {r[2] for r in rows} == set(range(4))
        sums = {}  # (phase, step) -> [sum of omega, sum of pi_hat]
        for phase, step, _, omega, pi_hat in rows:
            total = sums.setdefault((phase, step), [0.0, 0.0])
            total[0] += omega
            total[1] += pi_hat
        assert len(sums) == len(result.traces[1].rows)  # every step writes its rows
        for omega_sum, pi_hat_sum in sums.values():
            assert omega_sum == pytest.approx(1.0, abs=1e-9)
            assert pi_hat_sum == pytest.approx(1.0, abs=1e-9)

    def test_logit_variance_source_drives_the_schedule(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=10), 2, 2, seed=10)
        omegas = {}
        for source in ("feature", "logit"):
            rows = full_run(stream, small_config(variance_source=source), "bdr").traces[1].balance_rows
            assert rows and np.isfinite(np.asarray(rows, dtype=np.float64)).all()
            omegas[source] = np.array([omega for _, _, _, omega, _ in rows])
        assert omegas["feature"].shape == omegas["logit"].shape
        assert not np.array_equal(omegas["feature"], omegas["logit"])


def _trace_rows(result):
    return [(list(t.rows), list(t.balance_rows)) for t in result.traces]


class TestSharedFirstPhase:
    # the variants of a seed continue from one first phase exactly as if each
    # had trained phase 0 itself

    def test_continuation_matches_full_run(self):
        stream = split_phases(make_gaussian_mixture(6, 30, 4, 3.0, seed=12), 2, 2, seed=12)
        start = first_phase(stream, small_config())
        for variant in LOSS_VARIANTS:
            shared = run_experiment(start, variant)
            alone = full_run(stream, small_config(), variant)
            assert shared.report == alone.report
            assert _trace_rows(shared) == _trace_rows(alone)

    def test_record_is_not_mutated(self):
        stream = split_phases(make_gaussian_mixture(6, 30, 4, 3.0, seed=13), 2, 2, seed=13)
        start = first_phase(stream, small_config())
        first = run_experiment(start, "ce")
        for variant in ("cr", "bdr"):
            run_experiment(start, variant)
        again = run_experiment(start, "ce")
        assert again.report == first.report
        assert _trace_rows(again) == _trace_rows(first)

    def test_unknown_variant_rejected_and_record_kept(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=14), 2, 2, seed=14)
        start = first_phase(stream, small_config())
        kept = copy.deepcopy((arrays(start.model.layers), start.memory.index_map(), start.trace, start.entry))
        with pytest.raises(ValueError, match="unknown loss variant 'focal'"):
            run_experiment(start, "focal")
        params, index_map, trace, entry = kept
        assert all(np.array_equal(p, q) for p, q in zip(arrays(start.model.layers), params))
        assert (start.memory.index_map(), start.trace, start.entry) == (index_map, trace, entry)
        assert run_experiment(start, "ce").report == full_run(stream, small_config()).report

    def test_single_phase_stream(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=16), 4, 1, seed=16)
        start = first_phase(stream, small_config())
        assert start.sigma_max is None
        shared = run_experiment(start, "bdr")
        alone = full_run(stream, small_config(), "bdr")
        assert shared.report == alone.report
        assert len(shared.report["phases"]) == 1
        assert shared.report["variant"] == "bdr"


class TestOldPhaseCurvature:
    """Exact Hessian-vector products on a ReLU net (hidden 12, 12) at a point
    where every hidden unit has a row on its kink."""

    @pytest.fixture(scope="class")
    def problem(self):
        net, sets = kinked_relu_problem()
        return net, sets, _old_phase_hvp(net, sets), frozen_mask_hessian(net, sets)

    def test_problem_writes_through_the_parameter_views(self, problem):
        net = problem[0]
        assert all(np.shares_memory(p, net.flat) for p in arrays(net.layers))
        assert np.array_equal(flatten(arrays(net.layers)), net.flat)

    def test_a_product_allocates_no_row_sized_array(self):
        # two old phases of 600 and 300 rows through hidden layers of 32
        # units: each row-sized array of a hidden layer takes 600 * 32 * 8 B
        rng = np.random.default_rng(6)
        net = Classifier(4, (32, 32), 3, rng)
        sets = [LabeledSet(rng.standard_normal((n, 4)), rng.integers(0, 3, n), 3) for n in (600, 300)]
        hvp = _old_phase_hvp(net, sets)
        u, v = rng.standard_normal((2, net.flat.size))
        first = hvp(u)
        kept = first.copy()
        tracemalloc.start()
        try:
            second = hvp(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600 * 32 * 8
        # Lanczos keeps the previous product while it takes the next one
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert np.array_equal(hvp(u), kept)

    def test_point_sits_on_kinks(self, problem):
        net, sets, _, _ = problem
        on_kink = 0
        for s in sets:
            acts = net.forward(s.features)
            on_kink += sum(int((h @ w + b == 0.0).sum()) for h, (w, b) in zip(acts.inputs, net.layers[:-1]))
        assert on_kink >= 12

    def test_frozen_mask_forward_with_the_computed_masks_is_the_forward_pass(self, problem):
        net, sets, _, _ = problem
        x = np.concatenate([s.features for s in sets])
        acts = net.forward(x)
        frozen = frozen_mask_forward(net, x, acts.masks)
        assert len(frozen.inputs) == len(acts.inputs) and len(frozen.masks) == len(acts.masks)
        for a, b in zip(acts.inputs + [acts.logits], frozen.inputs + [frozen.logits]):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
        for a, b in zip(acts.masks, frozen.masks):
            assert np.array_equal(a, b)

    def test_hvp_is_symmetric(self, problem):
        net, _, hvp, _ = problem
        rng = np.random.default_rng(0)
        for _ in range(5):
            u, v = rng.standard_normal((2, net.flat.size))
            hu, hv = hvp(u), hvp(v)
            scale = np.linalg.norm(u) * np.linalg.norm(hv) + np.linalg.norm(v) * np.linalg.norm(hu)
            assert abs(u @ hv - v @ hu) <= 1e-12 * scale

    def test_hvp_equals_the_frozen_mask_hessian_column_by_column(self, problem):
        _, _, hvp, dense = problem
        atol = 1e-6 * np.abs(dense).max()
        for j, unit in enumerate(np.eye(dense.shape[0])):
            np.testing.assert_allclose(hvp(unit), dense[:, j], rtol=0.0, atol=atol)

    def test_lanczos_equals_the_dense_top_eigenvalue(self, problem):
        net, sets, _, dense = problem
        estimate = _old_phase_curvature(net, sets)
        assert estimate.converged
        assert estimate.value == pytest.approx(np.linalg.eigvalsh(dense).max(), rel=1e-6)

    def test_parameters_are_only_read(self):
        stream = split_phases(make_gaussian_mixture(6, 30, 4, 3.0, seed=17), 2, 2, seed=17)
        start = first_phase(stream, small_config())
        model = start.model.copy()
        before = [p.copy() for p in arrays(model.layers)]
        _old_phase_curvature(model, stream.phases[:1], seed=0)
        assert all(np.array_equal(p, q) for p, q in zip(arrays(model.layers), before))


class TestTrainConfigValidation:
    def test_bad_lr(self):
        with pytest.raises(ValueError):
            ExperimentConfig(lr=0.0)

    def test_bad_momentum_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(m=1.5)

    @pytest.mark.parametrize("attr, bad", list(BAD_SETTINGS.items()), ids=list(BAD_SETTINGS))
    def test_bad_setting_names_its_field(self, attr, bad):
        meta = KEYED_FIELDS[attr].metadata
        named = f"bad value for '{meta['key']}' in [{meta['section']}]: {attr} "
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig(**{attr: bad})

    def test_every_keyed_field_but_four_declares_its_rule(self):
        # increment: the phase split checks it; images and labels: the idx rule; out: any name
        unruled = {name for name, f in KEYED_FIELDS.items() if f.metadata["rule"] is None}
        assert unruled == {"increment", "idx_images", "idx_labels", "out"}
        assert set(BAD_SETTINGS) == set(KEYED_FIELDS) - unruled

    @pytest.mark.parametrize("momentum", [-0.1, 1.0, 5.0])
    def test_sgd_momentum_outside_unit_interval(self, momentum):
        with pytest.raises(ValueError, match="momentum"):
            ExperimentConfig(sgd_momentum=momentum)
