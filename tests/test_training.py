import numpy as np
import pytest

from bdrlab import balance
from bdrlab.data import LabeledSet, make_gaussian_mixture, split_phases
from bdrlab.seeding import INIT, rng_for
from bdrlab.tensor import Tensor, log_softmax, matmul, relu
from bdrlab.training import (
    LOSS_VARIANTS,
    Classifier,
    DivergenceError,
    TrainConfig,
    _contribution_sums,
    _flatten,
    _variant_loss_fn,
    distill_loss,
    run_experiment,
    train_phase,
)


def small_config(**overrides):
    base = dict(epochs=4, batch_size=16, lr=0.05, seed=0, hidden=(16, 16), memory_budget=3)
    base.update(overrides)
    return TrainConfig(**base)


class TestExpandHead:
    def test_old_logits_preserved(self):
        rng = np.random.default_rng(0)
        model = Classifier(4, (8,), 4, rng_for(0, INIT, 0))
        x = rng.standard_normal((5, 4))
        before = model.logits_np(x)
        model.expand_head(2, rng_for(0, INIT, 1))
        after = model.logits_np(x)
        np.testing.assert_allclose(after[:, :4], before, atol=1e-12)
        assert model.n_classes == 6

    def test_new_class_logits_near_zero(self):
        rng = np.random.default_rng(1)
        model = Classifier(4, (8,), 2, rng_for(0, INIT, 0))
        model.expand_head(3, rng_for(0, INIT, 1))
        # sigma = 0.01 head columns against unit-norm features: |z| < 0.1 is a 10-sigma event
        features = rng.standard_normal((50, 8))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        logits = features @ model.head_w.data[:, 2:] + model.head_b.data[2:]
        assert np.abs(logits).max() < 0.1

    def test_two_small_expansions_match_one_big_for_old_rows(self):
        a = Classifier(3, (6,), 2, rng_for(7, INIT, 0))
        b = Classifier(3, (6,), 2, rng_for(7, INIT, 0))
        a.expand_head(2, rng_for(7, INIT, 1))
        a.expand_head(2, rng_for(7, INIT, 2))
        b.expand_head(4, rng_for(7, INIT, 1))
        np.testing.assert_array_equal(a.head_w.data[:, :2], b.head_w.data[:, :2])

    def test_zero_growth_rejected(self):
        model = Classifier(3, (6,), 2, rng_for(0, INIT, 0))
        with pytest.raises(ValueError):
            model.expand_head(0, rng_for(0, INIT, 1))


class TestDistillLoss:
    def test_identical_logits_zero(self):
        logits = np.array([[1.0, -2.0, 0.5], [0.1, 0.2, 0.3]])
        loss = distill_loss(Tensor(logits), logits.copy(), 2.0)
        assert loss.item() == 0.0

    def test_closed_form_two_class(self):
        # teacher [1,0] vs student [0,1] at unit temperature: KL between the
        # two softened distributions, whose log-ratio is exactly 1
        p = np.exp(log_softmax(np.array([[1.0, 0.0]])))[0]
        expected = p[0] * 1.0 + p[1] * -1.0
        loss = distill_loss(Tensor([[0.0, 1.0]]), np.array([[1.0, 0.0]]), 1.0)
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert loss.item() == pytest.approx(0.462, abs=1e-3)

    def test_high_temperature_matches_quadratic_expansion(self):
        # for T large, loss ~ mean over batch of sum((delta - mean(delta))^2) / (2K)
        rng = np.random.default_rng(2)
        student = rng.standard_normal((4, 5)) * 0.3
        teacher = student + rng.standard_normal((4, 5)) * 0.05
        loss = distill_loss(Tensor(student), teacher, 100.0).item()
        delta = teacher - student
        centered = delta - delta.mean(axis=1, keepdims=True)
        series = float((centered**2).sum(axis=1).mean()) / (2 * 5)
        assert loss == pytest.approx(series, rel=1e-2)

    def test_slice_mismatch(self):
        with pytest.raises(ValueError, match="slices"):
            distill_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 4)), 2.0)

    def test_gradient_against_finite_differences(self):
        from bdrlab.tensor import finite_diff_check

        rng = np.random.default_rng(3)
        teacher = rng.standard_normal((3, 4))
        err = finite_diff_check(
            lambda x: distill_loss(x, teacher, 2.0), Tensor(rng.standard_normal((3, 4)))
        )
        assert err < 1e-5


def _one_class_set(n=40, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledSet(Tensor(rng.standard_normal((n, dim))), np.zeros(n, dtype=np.int64), 1)


def _tape_logits(model, x):
    # the classifier's forward pass built on the autodiff tape
    h = Tensor(x)
    for w, b in model.layers:
        h = relu(matmul(h, w) + b)
    return matmul(h, model.head_w) + model.head_b


class TestKernelAgainstTape:
    # the tape is the reference for the classifier's numpy forward/backward

    K, OLD = 5, 3

    def _setup(self, variant):
        rng = np.random.default_rng(12)
        model = Classifier(6, (9, 7), self.K, rng_for(1, INIT, 0))
        x = rng.standard_normal((23, 6))
        y = rng.permutation(np.arange(23) % self.K)
        schedule = balance.init_schedule(
            balance.class_priors(np.bincount(y)), balance.compensation(rng.uniform(0.5, 2.0, self.K)), 0.8, 0.8, 0.99
        )
        teacher_logits = rng.standard_normal((23, self.OLD))
        return model, x, y, _variant_loss_fn(variant, self.K, y, schedule), teacher_logits

    @pytest.mark.parametrize("distill", [False, True], ids=["plain", "distill"])
    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_gradients_equal_the_tapes(self, variant, distill):
        model, x, y, loss_fn, teacher_logits = self._setup(variant)

        tape_logits = _tape_logits(model, x)
        loss_fn(tape_logits, y).backward()
        if distill:
            (distill_loss(tape_logits[:, : self.OLD], teacher_logits, 2.0) * 0.7).backward()
        expected = [p.grad for p in model.params()]

        # one backward per loss term, summed per parameter afterwards, as in train_phase
        acts = model.forward(x)
        assert np.array_equal(acts.logits, tape_logits.data)
        logits = Tensor(acts.logits, requires_grad=True)
        loss_fn(logits, y).backward()
        grads, _ = model.backward(acts, logits.grad)
        if distill:
            old_logits = Tensor(acts.logits, requires_grad=True)
            (distill_loss(old_logits[:, : self.OLD], teacher_logits, 2.0) * 0.7).backward()
            old_grads, _ = model.backward(acts, old_logits.grad)
            grads = [g + h for g, h in zip(grads, old_grads)]

        assert [g.shape for g in grads] == [p.data.shape for p in model.params()]
        for got, want in zip(grads, expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("old_classes", [0, OLD], ids=["phase_zero", "incremental"])
    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_one_pass_split_matches_two_sub_batch_passes(self, variant, old_classes):
        model, x, y, loss_fn, _ = self._setup(variant)
        acts = model.forward(x)
        logits = Tensor(acts.logits, requires_grad=True)
        loss_fn(logits, y).backward()
        grads, deltas = model.backward(acts, logits.grad)
        split = _contribution_sums(grads, acts, deltas, y >= old_classes)

        # reference: each sub-batch's summed loss through its own tape pass
        for got, rows in zip(split, (y >= old_classes, y < old_classes)):
            for p in model.params():
                p.grad = None
            if rows.any():
                (loss_fn(_tape_logits(model, x[rows]), y[rows]) * float(rows.sum())).backward()
                want = _flatten([p.grad for p in model.params()])
            else:
                want = np.zeros(got.size)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestTrainPhase:
    def test_single_class_reaches_full_accuracy(self):
        data = _one_class_set()
        config = small_config(distill_weight=0.0)
        model = Classifier(3, config.hidden, 1, rng_for(0, INIT, 0))
        model, _ = train_phase(model, data, config, 0)
        assert model.accuracy(data.features.data, data.labels) == 100.0

    def test_phase_zero_epoch_means_decrease(self):
        data = make_gaussian_mixture(4, 40, 6, 3.0, seed=1)
        config = small_config(epochs=6)
        model = Classifier(6, config.hidden, 4, rng_for(0, INIT, 0))
        _, trace = train_phase(model, data, config, 0)
        losses = trace.column("loss_new")
        epochs = trace.column("epoch")
        means = [losses[epochs == e].mean() for e in range(6)]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_divergence_raises_with_step(self):
        # a non-finite activation anywhere must surface as a divergence error
        # naming the step, not as a bare numeric exception
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20, 3))
        x[7, 1] = np.inf
        data = LabeledSet(Tensor(x), rng.integers(0, 2, 20).astype(np.int64), 2)
        config = small_config(epochs=1, batch_size=20, hidden=(16,))
        model = Classifier(3, config.hidden, 2, rng_for(0, INIT, 0))
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError, match="step 0"):
            train_phase(model, data, config, 0)

    def test_trace_identity_links_contributions_to_total(self):
        # recorded ||grad||^2 equals the recomputation from the stored
        # new/old contribution sums
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=2), 2, 2, seed=2)
        config = small_config(epochs=2)
        result = run_experiment(stream, config)
        checked = 0
        for trace in result.traces:
            for row in trace.rows:
                recomputed = (
                    row.grad_new_norm**2 + 2.0 * row.contrib_inner + row.grad_old_norm**2
                ) / row.batch_size**2
                assert recomputed == pytest.approx(row.grad_total_sq, rel=1e-8, abs=1e-8)
                checked += 1
        assert checked > 0

    def test_teacher_parameters_frozen(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=3), 2, 2, seed=3)
        config = small_config(epochs=2)
        model = Classifier(4, config.hidden, 2, rng_for(0, INIT, 0))
        model, _ = train_phase(model, stream.phases[0], config, 0)
        teacher = model.copy(frozen=True)
        snapshot = [p.data.copy() for p in teacher.params()]
        model.expand_head(2, rng_for(0, INIT, 1))
        train_phase(model, stream.phases[1], config, 1, teacher=teacher, old_classes=2)
        for p, snap in zip(teacher.params(), snapshot):
            np.testing.assert_array_equal(p.data, snap)


class TestRunExperiment:
    def test_single_phase_avg_equals_last(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=4), 4, 1, seed=4)
        report = run_experiment(stream, small_config()).report
        assert report["avg"] == report["last"]
        assert len(report["phases"]) == 1

    def test_same_seed_same_report(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=5), 2, 2, seed=5)
        a = run_experiment(stream, small_config()).report
        b = run_experiment(stream, small_config()).report
        assert a == b

    def test_incremental_loop_matches_plain_supervised_on_one_phase(self):
        # with a single phase there is no teacher, no schedule, no replay: the
        # loop must be numerically identical to calling train_phase directly
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=6), 4, 1, seed=6)
        config = small_config()
        looped = run_experiment(stream, config)
        direct = Classifier(4, config.hidden, 4, rng_for(config.seed, INIT, 0))
        direct, direct_trace = train_phase(direct, stream.phases[0], config, 0)
        looped_losses = looped.traces[0].column("loss_new")
        np.testing.assert_array_equal(looped_losses, direct_trace.column("loss_new"))
        acc = direct.accuracy(
            np.concatenate([t.features.data for t in stream.test_phases[:1]]),
            np.concatenate([t.labels for t in stream.test_phases[:1]]),
        )
        assert looped.report["phases"][0]["accuracy"]["overall"] == acc

    def test_memory_serialised_into_report(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=7), 2, 2, seed=7)
        report = run_experiment(stream, small_config()).report
        assert set(report["memory"]) == {"0", "1", "2", "3"}
        assert all(len(v) == 3 for v in report["memory"].values())

    def test_destruction_and_bound_reported_for_incremental_phases(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=8), 2, 2, seed=8)
        report = run_experiment(stream, small_config()).report
        assert report["phases"][0]["destruction"] is None
        entry = report["phases"][1]
        assert entry["destruction"]["f_max"] >= 0.0
        assert entry["bound"]["min_cauchy_gap"] >= -1e-8
        assert len(entry["bound"]["cauchy_lhs"]) == len(entry["bound"]["cauchy_rhs"])

    def test_reweight_variant_runs(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=9), 2, 2, seed=9)
        report = run_experiment(stream, small_config(loss_variant="reweight")).report
        assert np.isfinite(report["avg"])

    def test_bdr_schedule_rows_recorded(self):
        stream = split_phases(make_gaussian_mixture(4, 30, 4, 3.0, seed=10), 2, 2, seed=10)
        result = run_experiment(stream, small_config(loss_variant="bdr"))
        assert not result.traces[0].balance_rows  # phase 0 has no schedule
        rows = result.traces[1].balance_rows
        assert rows, "incremental phase must dump the balance trajectory"
        steps = {r[0] for r in rows}
        classes = {r[1] for r in rows}
        assert classes == set(range(4))
        psi = np.array([r[2] for r in rows if r[0] == min(steps)])
        assert psi.sum() == pytest.approx(1.0, abs=1e-9)


class TestTrainConfigValidation:
    def test_bad_lr(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_variant="focal")

    def test_bad_momentum_range(self):
        with pytest.raises(ValueError):
            TrainConfig(m=1.5)

    @pytest.mark.parametrize("momentum", [-0.1, 1.0, 5.0])
    def test_sgd_momentum_outside_unit_interval(self, momentum):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig(sgd_momentum=momentum)
