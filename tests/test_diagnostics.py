import warnings

import numpy as np
import pytest

from bdrlab.diagnostics import (
    TopEigen,
    cauchy_gap,
    destruction_report,
    f_max,
    hessian_top_eigen,
    metrics,
    old_loss_distribution,
    peak_bound,
)
from bdrlab.tensor import Tensor, matmul


class TestFMax:
    def test_definitional(self):
        rise, step = f_max([1.0, 0.5, 2.5, 0.3])
        assert rise == 1.5 and step == 2

    def test_monotone_decreasing(self):
        rise, step = f_max([3.0, 2.0, 1.0])
        assert rise == 0.0 and step == 0

    def test_constant(self):
        rise, _ = f_max([1.0, 1.0, 1.0])
        assert rise == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            f_max([])


def _sums_gap(a, b, n):
    """cauchy_gap from contribution sums a and b over n rows: ||(a + b) / n||^2
    and a . b, as a training step records them."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    total_sq = float((a + b) @ (a + b)) / (n * n)
    return total_sq, cauchy_gap(total_sq, float(a @ b), n)


class TestCauchyCheck:
    def test_equal_contributions(self):
        a = np.array([1.0, 0.0])
        lhs, gap = _sums_gap(a, a.copy(), 2)
        assert lhs == 1.0 and lhs - gap == 1.0 and gap == 0.0

    def test_orthogonal_contributions(self):
        lhs, gap = _sums_gap([1.0, 0.0], [0.0, 1.0], 2)
        assert lhs == pytest.approx(0.5)
        assert lhs - gap == 0.0
        assert gap == pytest.approx(0.5)

    def test_cancellation(self):
        a = np.array([2.0, -1.0])
        lhs, gap = _sums_gap(a, -a, 3)
        norm_sq = float(a @ a)
        assert lhs == 0.0
        assert lhs - gap == pytest.approx(-4.0 * norm_sq / 9.0)
        assert gap == pytest.approx(4.0 * norm_sq / 9.0)

    def test_gap_identity_battery(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            dim = rng.integers(1, 60)
            n = int(rng.integers(1, 300))
            a, b = rng.standard_normal(dim), rng.standard_normal(dim)
            _, gap = _sums_gap(a, b, n)
            assert gap == pytest.approx(float((a - b) @ (a - b)) / (n * n), abs=1e-10)

    def test_lhs_never_below_rhs(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a, b = rng.standard_normal(10), rng.standard_normal(10)
            _, gap = _sums_gap(a, b, 4)
            assert gap >= -1e-8

    def test_elementwise_over_a_phase(self):
        total_sq = np.array([1.0, 0.5, 2.0])
        inner = np.array([0.25, 0.0, 1.0])
        n = np.array([2.0, 2.0, 1.0])
        np.testing.assert_array_equal(cauchy_gap(total_sq, inner, n), [0.75, 0.5, -2.0])


class TestMetrics:
    def test_plain_mean_and_last(self):
        assert metrics([80.0, 70.0, 60.0]) == (70.0, 60.0)

    def test_single_phase(self):
        assert metrics([88.5]) == (88.5, 88.5)

    def test_not_count_weighted(self):
        # the average ignores how many classes each phase holds
        avg, _ = metrics([100.0, 0.0])
        assert avg == 50.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics([])


class TestOldLossDistribution:
    def test_constant_trace(self):
        box = old_loss_distribution([2.0] * 10)
        assert box["min"] == box["q1"] == box["median"] == box["q3"] == box["max"] == 2.0
        assert box["outlier_count"] == 0

    def test_linear_interpolation_convention(self):
        box = old_loss_distribution(np.arange(1.0, 101.0))
        assert box["median"] == pytest.approx(50.5)
        assert box["q1"] == pytest.approx(25.75)
        assert box["q3"] == pytest.approx(75.25)

    def test_single_spike_is_one_outlier(self):
        trace = [1.0] * 30 + [50.0]
        box = old_loss_distribution(trace)
        assert box["outlier_count"] == 1
        assert box["max"] == 50.0


class TestHessianTopEigen:
    def test_identity_hessian(self):
        # beta_1 = 0 at step 1, so T_1 is 1x1 with no off-diagonal entry
        grad_fn = lambda v: v.copy()  # loss 0.5 ||v||^2
        assert hessian_top_eigen(grad_fn, 4) == TopEigen(1.0, True, 1, 0.0)

    def test_diagonal_closed_form(self):
        scale = np.array([1.0, 3.0])
        grad_fn = lambda v: scale * v
        assert hessian_top_eigen(grad_fn, 2, max_iter=2000, tol=1e-10).value == pytest.approx(3.0, abs=1e-3)

    def test_additivity_of_summed_quadratics(self):
        # two quadratics with top eigenvalues 1 and 2 on the same axis
        a = np.diag([1.0, 0.2])
        b = np.diag([2.0, 0.1])
        grad_fn = lambda v: (a + b) @ v
        assert hessian_top_eigen(grad_fn, 2, max_iter=2000, tol=1e-10).value == pytest.approx(3.0, abs=1e-3)

    def test_through_autodiff_gradients(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        eig = np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
        matrix = (q * eig) @ q.T

        def loss(v):
            row = Tensor(v.data[None, :]) if not isinstance(v, Tensor) else v
            return 0.5 * (matmul(row, matrix) * row).sum()

        def grad_fn(vec):
            leaf = Tensor(vec[None, :].copy(), requires_grad=True)
            (0.5 * (matmul(leaf, matrix) * leaf).sum()).backward()
            return leaf.grad.ravel()

        assert hessian_top_eigen(grad_fn, 6, max_iter=3000, tol=1e-10).value == pytest.approx(5.0, rel=1e-3)

    def test_random_psd_battery(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dim = int(rng.integers(2, 21))
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            eig = rng.uniform(0.1, 10.0, dim)
            matrix = (q * eig) @ q.T
            est = hessian_top_eigen(lambda v: matrix @ v, dim, max_iter=5000, tol=1e-10, seed=int(rng.integers(1 << 31))).value
            assert est == pytest.approx(eig.max(), rel=1e-3)

    def test_nonconvergence_warns_and_returns_estimate(self):
        matrix = np.diag([2.0, *np.linspace(0.0, 1.0, 99)])
        with pytest.warns(RuntimeWarning, match="did not converge"):
            estimate = hessian_top_eigen(lambda v: matrix @ v, 100, max_iter=10, tol=0.0).value
        assert estimate == pytest.approx(2.0, abs=1e-6)

    def test_warning_names_the_estimate_and_its_last_change(self):
        matrix = np.diag([2.0, 1.0, 0.5])
        with pytest.warns(RuntimeWarning) as caught:
            estimate = hessian_top_eigen(lambda v: matrix @ v, 3, max_iter=2, tol=0.0).value
        text = str(caught[0].message)
        assert text.startswith("Lanczos did not converge within 2 steps")
        assert f"last estimate {estimate!r} (last change " in text

    def test_every_nonconverged_estimate_warns_under_the_default_filter(self):
        # the default filter prints a given text once per code location, so
        # two different estimates must give two different texts
        matrix = np.diag([2.0, 1.0, 0.5])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for iters in (1, 2):
                hessian_top_eigen(lambda v: matrix @ v, 3, max_iter=iters, tol=0.0)
        assert [str(w.message).startswith("Lanczos did not converge") for w in caught] == [True, True]

    def test_indefinite_operator_gives_the_largest_algebraic_eigenvalue(self):
        # power iteration returned -5, the eigenvalue of largest magnitude
        matrix = np.diag([-5.0, 3.0, 1.0])
        estimate = hessian_top_eigen(lambda v: matrix @ v, 3)
        assert estimate.converged
        assert estimate.value == pytest.approx(3.0, rel=1e-12)

    def test_estimate_records_its_hvps_and_residual(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        matrix = (q * np.linspace(-2.0, 7.0, 30)) @ q.T
        calls = []
        estimate = hessian_top_eigen(lambda v: calls.append(1) or matrix @ v, 30, tol=1e-8, seed=5)
        assert estimate.converged and estimate.hvps == len(calls) < 30
        assert estimate.value == pytest.approx(7.0, rel=1e-12)
        assert 0.0 < estimate.residual <= 1e-8 * 7.0

    def test_nonconverged_estimate_is_recorded(self):
        matrix = np.diag([2.0, 1.0, 0.5])
        with pytest.warns(RuntimeWarning, match="residual"):
            estimate = hessian_top_eigen(lambda v: matrix @ v, 3, max_iter=1, tol=0.0)
        assert not estimate.converged and estimate.hvps == 1 and estimate.residual > 0.0


class TestDestructionReport:
    def test_peak_and_convergence(self):
        losses = [0.1, 0.5, 2.0, 1.0, 0.3, 0.2]
        epochs = [0, 0, 1, 1, 2, 2]
        report = destruction_report(losses, epochs)
        assert report["initial"] == 0.1
        assert report["peak"] == 2.0
        assert report["f_max"] == pytest.approx(1.9)
        assert report["step_of_peak"] == 2
        assert report["converged"] == pytest.approx(0.25)

    def test_f_max_never_negative(self):
        report = destruction_report([3.0, 1.0, 0.5], [0, 0, 1])
        assert report["f_max"] == 0.0


class TestPeakBound:
    def test_zero_steps_zero_bound(self):
        assert peak_bound(0, 0.1, 5.0, 0.0) == 0.0

    def test_formula(self):
        assert peak_bound(4, 0.5, 2.0, 3.0) == pytest.approx(0.5 * 4 * 0.25 * 2.0 * 3.0)


class TestCrossRunCorrelation:
    def test_grad_traffic_correlates_with_peak_destruction(self):
        # across runs, more squared-gradient traffic up to the peak should
        # come with a larger peak rise in the old loss
        from dataclasses import replace

        from bdrlab.config import ExperimentConfig
        from bdrlab.cli import build_stream
        from bdrlab.training import first_phase, run_experiment

        cfg = ExperimentConfig(classes=6, per_class=48, dim=4, initial_classes=2,
                               increment=2, epochs=4, batch_size=16, hidden=(24, 24))
        traffic, rises = [], []
        for seed in range(12):
            stream = build_stream(cfg, seed)
            report = run_experiment(first_phase(stream, replace(cfg, seed=seed)), "ce").report
            for entry in report["phases"]:
                if entry["bound"] is None:
                    continue
                traffic.append(entry["bound"]["grad_sq_sum_to_peak"])
                rises.append(entry["destruction"]["f_max"])
        # Spearman's rho is Pearson's correlation of the ranks when neither
        # series has ties
        assert len(set(traffic)) == len(traffic) and len(set(rises)) == len(rises)
        correlation = np.corrcoef(np.argsort(np.argsort(traffic)), np.argsort(np.argsort(rises)))[0, 1]
        assert correlation > 0.0
