"""Measurements of the old-knowledge destruction transient.

Pure functions over recorded traces plus the curvature machinery behind the
peak-forgetting bound: the peak is bounded by
(N_s / 2) * lr^2 * sigma_max(sum of old-phase Hessians) * sum of squared
gradient norms up to the peak, with equality in the underlying gradient
decomposition exactly when new-class and old-class contributions match.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


def f_max(old_loss_trace):
    """Peak of the trace minus its first value, and the index of the peak."""
    t = np.asarray(old_loss_trace, dtype=np.float64)
    if t.size == 0:
        raise ValueError("empty loss trace")
    peak = int(np.argmax(t))
    return float(t[peak] - t[0]), peak


def cauchy_check(grad_new_sum, grad_old_sum, n_total):
    """Evaluate both sides of the gradient-balance inequality.

    lhs = ||(a + b) / N||^2, rhs = 4 (a . b) / N^2; the gap equals
    ||a - b||^2 / N^2, so it is zero exactly when the two contribution sums
    coincide.
    """
    a = np.asarray(grad_new_sum, dtype=np.float64).ravel()
    b = np.asarray(grad_old_sum, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"contribution shapes differ: {a.shape} vs {b.shape}")
    scale = float(n_total) * float(n_total)
    s = a + b
    lhs = float(np.dot(s, s)) / scale
    rhs = 4.0 * float(np.dot(a, b)) / scale
    return lhs, rhs, lhs - rhs


def metrics(per_phase_accuracies):
    """(mean of the per-phase accuracies, final accuracy)."""
    accs = np.asarray(per_phase_accuracies, dtype=np.float64)
    if accs.size == 0:
        raise ValueError("no per-phase accuracies")
    return float(accs.mean()), float(accs[-1])


@dataclass
class BoxplotStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    outliers: np.ndarray  # values beyond 1.5 IQR from the quartiles

    @property
    def outlier_count(self):
        return int(self.outliers.size)

    def as_dict(self):
        return {
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "outlier_count": self.outlier_count,
        }


def old_loss_distribution(trace):
    """Tukey boxplot statistics of a loss trace (linear-interpolation quartiles)."""
    t = np.asarray(trace, dtype=np.float64)
    if t.size == 0:
        raise ValueError("empty loss trace")
    q1, median, q3 = np.percentile(t, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = t[(t < lo) | (t > hi)]
    return BoxplotStats(float(t.min()), float(q1), float(median), float(q3), float(t.max()), outliers)


@dataclass
class DestructionReport:
    initial: float
    peak: float
    f_max: float
    step_of_peak: int
    converged: float
    box: BoxplotStats

    def as_dict(self):
        return {
            "initial": self.initial,
            "peak": self.peak,
            "f_max": self.f_max,
            "step_of_peak": self.step_of_peak,
            "converged": self.converged,
            "box": self.box.as_dict(),
        }


def destruction_report(old_losses, epochs):
    """Summarise one phase's old-loss trace: the peak rise from the starting
    value and where it settled (mean over the final epoch's steps)."""
    t = np.asarray(old_losses, dtype=np.float64)
    e = np.asarray(epochs)
    rise, peak_step = f_max(t)
    converged = float(t[e == e[-1]].mean())
    return DestructionReport(
        initial=float(t[0]),
        peak=float(t[peak_step]),
        f_max=rise,
        step_of_peak=peak_step,
        converged=converged,
        box=old_loss_distribution(t),
    )


def hessian_top_eigen(grad_fn, theta, iters=200, tol=1e-3, fd_step=1e-4, seed=0):
    """Dominant curvature at ``theta`` by power iteration on Hessian-vector
    products taken as central finite differences of ``grad_fn``.

    Converged once successive Rayleigh quotients differ by less than ``tol``;
    otherwise warns and returns the last estimate. The warning names the
    estimate and its last change, so each non-converged estimate prints
    under Python's default once-per-text filter.
    """
    theta = np.asarray(theta, dtype=np.float64).ravel()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(theta.size)
    v /= np.linalg.norm(v)
    rayleigh = None
    change = float("nan")
    for _ in range(iters):
        hv = (grad_fn(theta + fd_step * v) - grad_fn(theta - fd_step * v)) / (2.0 * fd_step)
        current = float(v @ hv)
        norm = float(np.linalg.norm(hv))
        if norm == 0.0:
            return 0.0
        v = hv / norm
        if rayleigh is not None:
            change = abs(current - rayleigh)
            if change < tol:
                return current
        rayleigh = current
    warnings.warn(
        f"power iteration did not converge within {iters} iterations; returning last estimate "
        f"{rayleigh!r} (last change {change:.3e}, tolerance {tol:.0e})",
        RuntimeWarning,
    )
    return rayleigh


@dataclass
class BoundReport:
    sigma_max: float
    grad_sq_sum_to_peak: float
    bound: float
    f_max: float
    bound_minus_f_max: float
    cauchy_lhs: np.ndarray
    cauchy_rhs: np.ndarray
    min_cauchy_gap: float

    def as_dict(self):
        return {
            "sigma_max": self.sigma_max,
            "grad_sq_sum_to_peak": self.grad_sq_sum_to_peak,
            "bound": self.bound,
            "f_max": self.f_max,
            "bound_minus_f_max": self.bound_minus_f_max,
            "cauchy_lhs": [float(v) for v in self.cauchy_lhs],
            "cauchy_rhs": [float(v) for v in self.cauchy_rhs],
            "min_cauchy_gap": self.min_cauchy_gap,
        }


def peak_bound(steps_to_peak, lr, sigma_max, grad_sq_sum):
    """(N_s / 2) * lr^2 * sigma_max * sum of squared gradient norms."""
    return 0.5 * steps_to_peak * lr * lr * sigma_max * grad_sq_sum


def bound_report(old_losses, grad_total_sq, contrib_inner, batch_sizes, lr, sigma_max):
    """Assemble the per-phase bound evaluation from recorded step data.

    The unknown additive constant in the bound is not estimated, so the
    margin ``bound_minus_f_max`` is reported, never asserted.
    """
    rise, peak_step = f_max(old_losses)
    gsq = np.asarray(grad_total_sq, dtype=np.float64)
    inner = np.asarray(contrib_inner, dtype=np.float64)
    n = np.asarray(batch_sizes, dtype=np.float64)
    grad_sum = float(gsq[:peak_step].sum())
    bound = peak_bound(peak_step, lr, sigma_max, grad_sum)
    rhs = 4.0 * inner / (n * n)
    gaps = gsq - rhs
    return BoundReport(
        sigma_max=float(sigma_max),
        grad_sq_sum_to_peak=grad_sum,
        bound=float(bound),
        f_max=rise,
        bound_minus_f_max=float(bound - rise),
        cauchy_lhs=gsq,
        cauchy_rhs=rhs,
        min_cauchy_gap=float(gaps.min()) if gaps.size else 0.0,
    )
