import numpy as np
import pytest

from bdrlab import balance, verification
from bdrlab.balance import (
    ClassStats,
    bdr_loss,
    ce_with_offset,
    class_priors,
    compensation,
    init_schedule,
    momentum_update,
    offsets,
    scalar_variance,
    stats_from_pass,
)
from bdrlab.config import ExperimentConfig
from bdrlab.data import LabeledSet
from bdrlab.seeding import INIT, rng_for
from bdrlab.training import LOSS_CR, Classifier, _phase_loss
from bdrlab.verification import _point_risk_minimizer, balanced_risk_equivalence, risk_decision_rule


class TestClassPriors:
    def test_symmetry(self):
        np.testing.assert_allclose(class_priors([2, 2]), [0.5, 0.5])

    def test_direct_arithmetic(self):
        np.testing.assert_allclose(class_priors([30, 10]), [0.75, 0.25])

    def test_replay_regime(self):
        # 500-per-class current phase against 20-exemplar memory
        psi = class_priors([500, 500, 20, 20])
        np.testing.assert_allclose(psi, [25 / 52, 25 / 52, 1 / 52, 1 / 52], atol=1e-15)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            class_priors([3, 0])


class TestScalarVariance:
    def test_single_sample_at_mean(self):
        assert scalar_variance([[1.0, 2.0]], [1.0, 2.0]) == 0.0

    def test_direct_evaluation(self):
        assert scalar_variance([[0.0], [2.0]], [1.0]) == 1.0

    def test_dimension_average(self):
        assert scalar_variance([[0.0, 0.0], [2.0, 2.0]], [1.0, 1.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scalar_variance([[0.0, 1.0]], [1.0])


class TestCompensation:
    def test_equal_variances_uniform(self):
        # all-zero variances (one training row per class) floor alike
        for variances in ([2.0, 2.0, 2.0], [0.0, 0.0, 0.0]):
            np.testing.assert_allclose(compensation(variances), [1 / 3] * 3)

    def test_direct_evaluation(self):
        np.testing.assert_allclose(compensation([1.0, 3.0]), [0.75, 0.25])

    def test_single_class(self):
        np.testing.assert_allclose(compensation([4.2]), [1.0])

    def test_floor_prevents_infinite_weight(self):
        weights = compensation([0.0, 1.0])
        assert np.isfinite(weights).all() and weights.sum() == pytest.approx(1.0)

    def test_monotone_in_own_variance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.uniform(0.1, 4.0, 5)
            target = int(rng.integers(0, 5))
            lowered = v.copy()
            lowered[target] *= 0.5
            assert compensation(lowered)[target] > compensation(v)[target]


class TestInitSchedule:
    def test_direct_blend(self):
        s = init_schedule([0.75, 0.25], [0.25, 0.75], m=0.8, m_prime=0.8, beta=0.99, tau=1.0)
        np.testing.assert_allclose(s.pi_init, [0.65, 0.35], atol=1e-15)
        np.testing.assert_allclose(s.pi_hat, s.pi_init)

    def test_m_one_is_pure_priors(self):
        s = init_schedule([0.9, 0.1], [0.5, 0.5], m=1.0, m_prime=0.5, beta=0.5, tau=1.0)
        np.testing.assert_allclose(s.pi_init, [0.9, 0.1])

    def test_m_zero_is_pure_weights(self):
        s = init_schedule([0.9, 0.1], [0.5, 0.5], m=0.0, m_prime=0.5, beta=0.5, tau=1.0)
        np.testing.assert_allclose(s.pi_init, [0.5, 0.5])


def _fresh_state(counts, means, variances, m=0.8, m_prime=0.8, beta=0.99, tau=1.0):
    stats = ClassStats(
        mean=np.asarray(means, float),
        variance=np.asarray(variances, float),
        count=np.asarray(counts, float),
    )
    schedule = init_schedule(
        class_priors(counts), compensation(stats.variance), m=m, m_prime=m_prime, beta=beta, tau=tau
    )
    return stats, schedule


class TestMomentumUpdate:
    def test_mean_blend_direct(self):
        stats, schedule = _fresh_state([1, 1], [[2.0], [0.0]], [1.0, 1.0])
        momentum_update(stats, schedule, np.array([[4.0]]), np.array([0]))
        np.testing.assert_allclose(stats.mean[0], [3.0])

    def test_absent_classes_untouched(self):
        stats, schedule = _fresh_state([3, 3], [[1.0], [2.0]], [0.5, 0.7])
        before_hat = schedule.pi_hat.copy()
        momentum_update(stats, schedule, np.zeros((0, 1)), np.zeros(0, dtype=int))
        np.testing.assert_array_equal(stats.mean, [[1.0], [2.0]])
        np.testing.assert_array_equal(stats.variance, [0.5, 0.7])
        np.testing.assert_allclose(schedule.pi_hat, before_hat)

    def test_beta_one_freezes_pi_hat(self):
        stats, schedule = _fresh_state([2, 2], [[0.0], [1.0]], [1.0, 2.0], beta=1.0)
        frozen = schedule.pi_hat.copy()
        rng = np.random.default_rng(0)
        for _ in range(10):
            momentum_update(stats, schedule, rng.standard_normal((4, 1)), rng.integers(0, 2, 4))
        np.testing.assert_array_equal(schedule.pi_hat, frozen)

    def test_unknown_class_rejected(self):
        stats, schedule = _fresh_state([2, 2], [[0.0], [1.0]], [1.0, 2.0])
        with pytest.raises(IndexError):
            momentum_update(stats, schedule, np.ones((1, 1)), np.array([5]))

    def test_variance_blend_uses_new_mean(self):
        stats, schedule = _fresh_state([1], [[0.0]], [0.5])
        momentum_update(stats, schedule, np.array([[2.0]]), np.array([0]))
        # new mean (1*0 + 2)/2 = 1; deviation from it (2-1)^2 = 1,
        # so variance (1*0.5 + 1)/2; the stale mean would give 2.25
        np.testing.assert_allclose(stats.mean[0], [1.0])
        assert stats.variance[0] == pytest.approx(0.75)

    def test_trajectory_deterministic(self):
        rng = np.random.default_rng(1)
        batches = [(rng.standard_normal((5, 2)), rng.integers(0, 3, 5)) for _ in range(20)]
        trajectories = []
        for _ in range(2):
            stats, schedule = _fresh_state([5, 5, 5], np.zeros((3, 2)), [1.0, 1.0, 1.0], beta=0.5)
            hats = []
            for f, y in batches:
                momentum_update(stats, schedule, f, y)
                hats.append(schedule.pi_hat.copy())
            trajectories.append(np.array(hats))
        np.testing.assert_array_equal(trajectories[0], trajectories[1])

    def test_variance_convergence_pulls_pi_prime_to_documented_limit(self):
        # if all class variances converge to a common value, the running blend
        # tends to m' * priors + (1 - m') * uniform (time-averaged: per-step
        # batch noise keeps the estimates wobbling around the limit)
        stats, schedule = _fresh_state([10, 30], np.zeros((2, 1)), [3.0, 0.2], m_prime=0.7, beta=0.0)
        rng = np.random.default_rng(2)
        tail = []
        for step in range(4000):
            y = rng.integers(0, 2, 8)
            f = rng.standard_normal((8, 1))  # same distribution for both classes
            momentum_update(stats, schedule, f, y)
            if step >= 3500:
                tail.append(schedule.pi_prime.copy())
        limit = 0.7 * schedule.priors + 0.3 * np.full(2, 0.5)
        np.testing.assert_allclose(np.mean(tail, axis=0), limit, atol=0.05)


class TestNormalizationInvariants:
    def test_all_vectors_sum_to_one_after_updates(self):
        rng = np.random.default_rng(3)
        stats, schedule = _fresh_state([4, 7, 2], rng.standard_normal((3, 2)), [0.5, 1.5, 2.5])
        for _ in range(50):
            f = rng.standard_normal((6, 2))
            y = rng.integers(0, 3, 6)
            omega = momentum_update(stats, schedule, f, y)
            for vec in (schedule.priors, schedule.pi_init, schedule.pi_prime, omega):
                assert abs(vec.sum() - 1.0) < 1e-9
            assert np.all(schedule.pi_hat > 0)


class TestOffsets:
    def test_uniform_weights_reduce_to_plain_ce(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((5, 4))
        y = rng.integers(0, 4, 5)
        uniform = np.full(4, 0.25)
        schedule = init_schedule(uniform, uniform, m=0.5, m_prime=0.5, beta=0.9, tau=1.0)
        plain, _ = ce_with_offset(z, np.zeros(4), y)
        assert bdr_loss(z, y, schedule)[0] == pytest.approx(plain, abs=1e-12)

    def test_direct_log_values(self):
        schedule = init_schedule([0.75, 0.25], [0.75, 0.25], m=1.0, m_prime=1.0, beta=1.0, tau=1.0)
        np.testing.assert_allclose(offsets(schedule), np.log([0.75, 0.25]), atol=1e-12)

    def test_tau_zero_gives_plain_ce_exactly(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((3, 3))
        y = rng.integers(0, 3, 3)
        schedule = init_schedule([0.7, 0.2, 0.1], [0.1, 0.2, 0.7], m=0.8, m_prime=0.8, beta=0.99, tau=0.0)
        loss, grad = bdr_loss(z, y, schedule)
        plain, plain_grad = ce_with_offset(z, np.zeros(3), y)
        assert loss == plain
        assert np.array_equal(grad, plain_grad)

    def test_tau_scales_offsets(self):
        schedule = init_schedule([0.75, 0.25], [0.75, 0.25], m=1.0, m_prime=1.0, beta=1.0, tau=2.0)
        np.testing.assert_allclose(offsets(schedule), 2.0 * np.log([0.75, 0.25]))


class TestBdrLoss:
    def test_direct_evaluation(self):
        schedule = init_schedule([0.75, 0.25], [0.75, 0.25], m=1.0, m_prime=1.0, beta=1.0, tau=1.0)
        loss, _ = bdr_loss([[0.0, 0.0]], np.array([1]), schedule)
        assert loss == pytest.approx(-np.log(0.25), abs=1e-12)

    def test_class_count_mismatch(self):
        schedule = init_schedule([0.5, 0.5], [0.5, 0.5], m=1.0, m_prime=1.0, beta=1.0, tau=1.0)
        with pytest.raises(ValueError):
            bdr_loss([[0.0, 0.0, 0.0]], np.array([0]), schedule)

    def test_favoured_class_gradient_is_suppressed(self):
        schedule = init_schedule([0.75, 0.25], [0.75, 0.25], m=1.0, m_prime=1.0, beta=1.0, tau=1.0)
        z = np.array([[0.3, -0.1]])
        _, grad = bdr_loss(z, np.array([0]), schedule)
        _, plain_grad = ce_with_offset(z, np.zeros(2), np.array([0]))
        assert abs(grad[0, 0]) < abs(plain_grad[0, 0])

    def test_two_class_closed_form_with_offsets(self):
        # gradient on the true logit equals the saturation formula on the
        # offset-shifted gap
        rng = np.random.default_rng(6)
        for _ in range(50):
            z_vals = rng.normal(0.0, 3.0, (1, 2))
            pi = rng.dirichlet([2.0, 2.0])
            schedule = init_schedule(pi, pi, m=1.0, m_prime=1.0, beta=1.0, tau=1.0)
            _, grad = bdr_loss(z_vals, np.array([0]), schedule)
            shifted_gap = (z_vals[0, 0] + np.log(pi[0])) - (z_vals[0, 1] + np.log(pi[1]))
            closed = -1.0 / (1.0 + np.exp(shifted_gap))
            assert grad[0, 0] == pytest.approx(closed, abs=1e-10)


def _cr_loss(counts):
    """cr's classification loss for a training set with ``counts`` rows per class."""
    labels = np.repeat(np.arange(len(counts)), counts)
    data = LabeledSet(np.zeros((labels.size, 2)), labels, len(counts))
    model = Classifier(2, (3,), len(counts), rng_for(0, INIT, 0))
    loss_fn, track = _phase_loss(LOSS_CR, model, data, ExperimentConfig())
    assert track is None
    return loss_fn


class TestBalCeLoss:
    # cr trains on logits shifted by the log class priors of its training set

    def test_balanced_counts_equal_plain_ce(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((4, 3))
        y = rng.integers(0, 3, 4)
        plain, _ = ce_with_offset(z, np.zeros(3), y)
        assert _cr_loss([10, 10, 10])(z, y)[0] == pytest.approx(plain, abs=1e-12)

    def test_direct_evaluation(self):
        loss, _ = _cr_loss([9, 1])(np.array([[0.0, 0.0]]), np.array([1]))
        assert loss == pytest.approx(-np.log(0.1), abs=1e-12)

    def test_majority_class_gradient_shrinks(self):
        z = np.array([[0.0, 0.0]])
        _, grad = _cr_loss([9, 1])(z, np.array([0]))
        _, plain_grad = ce_with_offset(z, np.zeros(2), np.array([0]))
        assert abs(grad[0, 0]) < abs(plain_grad[0, 0])

    def test_is_ce_with_log_prior_offsets(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((5, 3))
        y = rng.integers(0, 3, 5)
        loss, grad = _cr_loss([6, 3, 1])(z, y)
        want_loss, want_grad = ce_with_offset(z, np.log(class_priors([6, 3, 1])), y)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)


class TestStatsFromPass:
    def test_exact_snapshot(self):
        f = np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0]])
        y = np.array([0, 0, 1])
        stats = stats_from_pass(f, y, 2)
        np.testing.assert_allclose(stats.mean[0], [1.0, 1.0])
        assert stats.variance[0] == pytest.approx(1.0)
        assert stats.variance[1] == 0.0
        np.testing.assert_array_equal(stats.count, [2, 1])

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="class 1"):
            stats_from_pass(np.zeros((2, 2)), np.zeros(2, dtype=int), 2)


class TestBalancedRiskEquivalence:
    def test_skewed_priors_agreement(self):
        table = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        assert balanced_risk_equivalence(table, np.array([0.9, 0.1]), seed=0)

    def test_symmetric_uniform_trivial(self):
        table = np.array([[0.8, 0.2], [0.2, 0.8]])
        assert balanced_risk_equivalence(table, np.array([0.5, 0.5]), seed=0)

    def test_unadjusted_disagrees_adjusted_agrees(self):
        table = np.array([[0.6, 0.4], [0.4, 0.6]])
        priors = np.array([0.9, 0.1])
        balanced = np.argmax(table, axis=0)
        plain = risk_decision_rule(table, priors, adjusted=False, seed=0)
        assert np.any(plain != balanced)
        assert balanced_risk_equivalence(table, priors, seed=0)

    def test_malformed_table_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            balanced_risk_equivalence(np.array([[0.5, 0.9], [0.5, 0.5]]), np.array([0.5, 0.5]))

    def test_domain_limits_enforced(self):
        table = np.full((6, 3), 1 / 3)
        with pytest.raises(ValueError):
            balanced_risk_equivalence(table, np.full(6, 1 / 6))

    def test_near_tie_is_decided_by_the_likelier_class(self):
        # at point 0 class 1 leads class 0 by 6.9e-5, relative
        table = np.array([[0.01536533, 0.98463467], [0.01536639, 0.98463361]])
        priors = np.array([0.5, 0.5])
        np.testing.assert_array_equal(np.argmax(table, axis=0), [1, 0])
        for seed in range(10):
            np.testing.assert_array_equal(risk_decision_rule(table, priors, seed=seed), [1, 0])
            np.testing.assert_array_equal(risk_decision_rule(table, priors, adjusted=False, seed=seed), [1, 0])
            assert balanced_risk_equivalence(table, priors, seed=seed)

    def test_minimizer_matches_the_weights_from_random_starts(self):
        # the risk's minimum puts softmax(v + a) at w / sum(w); a zero weight
        # has its minimum at infinity, which the solve approaches to tolerance
        rng = np.random.default_rng(0)
        zeros = 0
        for case in range(300):
            k = int(rng.integers(2, 6))
            weights = rng.uniform(0.0, 1.0, k) * (rng.random(k) < 0.7)
            weights[rng.integers(k)] += 0.05
            zeros += int(np.sum(weights == 0.0))
            log_adjust = np.log(rng.dirichlet(np.ones(k))) if case % 2 else np.zeros(k)
            scores = _point_risk_minimizer(weights, log_adjust, rng) + log_adjust
            softmax = np.exp(scores - scores.max())
            np.testing.assert_allclose(softmax / softmax.sum(), weights / weights.sum(), rtol=0.0, atol=1e-7)
        assert zeros > 0

    def test_exhausted_newton_budget_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(verification, "_NEWTON_ITERATIONS", 1)
        with pytest.raises(FloatingPointError, match="did not converge"):
            risk_decision_rule(np.array([[0.6, 0.4], [0.4, 0.6]]), np.array([0.9, 0.1]))
        check = verification.check_balanced_risk()
        assert not check.passed
        assert "did not converge" in check.detail
