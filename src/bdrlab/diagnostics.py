"""Measurements of the old-knowledge destruction transient.

Pure functions over recorded traces plus the curvature estimate behind the
peak-forgetting bound. The per-phase summaries return the dicts that the run
report stores, with plain ``float`` and ``int`` values; per-step values stay
in the step trace. The peak is bounded by (N_s / 2) * lr^2 *
sigma_max(sum of old-phase Hessians) * sum of squared gradient norms up to
the peak, with equality in the underlying gradient decomposition exactly when
new-class and old-class contributions match: ``cauchy_gap`` is that
decomposition's gap, the one formula both the report and ``verify`` use.
sigma_max is taken by Lanczos on Hessian-vector products, as PyHessian does
(Yao et al. 2020, arXiv:1912.07145).
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np


def f_max(old_loss_trace):
    """Peak of the trace minus its first value, and the index of the peak."""
    t = np.asarray(old_loss_trace, dtype=np.float64)
    if t.size == 0:
        raise ValueError("empty loss trace")
    peak = int(np.argmax(t))
    return float(t[peak] - t[0]), peak


def cauchy_gap(grad_total_sq, contrib_inner, n):
    """Gap of the gradient-balance inequality over a batch of ``n`` rows:
    ||(a + b) / n||^2 - 4 (a . b) / n^2, from the first term and a . b for
    the new-class and old-class contribution sums a and b. It equals
    ||a - b||^2 / n^2, so it is zero exactly when the two sums coincide.
    Elementwise over arrays, so one call covers a phase's steps.
    """
    return grad_total_sq - 4.0 * contrib_inner / (n * n)


def metrics(per_phase_accuracies):
    """(mean of the per-phase accuracies, final accuracy)."""
    accs = np.asarray(per_phase_accuracies, dtype=np.float64)
    if accs.size == 0:
        raise ValueError("no per-phase accuracies")
    return float(accs.mean()), float(accs[-1])


def old_loss_distribution(trace):
    """Tukey boxplot statistics of a loss trace (linear-interpolation
    quartiles) as the report stores them; ``outlier_count`` counts the values
    beyond 1.5 IQR from the quartiles."""
    t = np.asarray(trace, dtype=np.float64)
    if t.size == 0:
        raise ValueError("empty loss trace")
    q1, median, q3 = np.percentile(t, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    return {
        "min": float(t.min()),
        "q1": float(q1),
        "median": float(median),
        "q3": float(q3),
        "max": float(t.max()),
        "outlier_count": int(np.count_nonzero((t < lo) | (t > hi))),
    }


def destruction_report(old_losses, epochs):
    """Summarise one phase's old-loss trace as the report stores it: the peak
    rise from the starting value and where it settled (mean over the final
    epoch's steps)."""
    t = np.asarray(old_losses, dtype=np.float64)
    e = np.asarray(epochs)
    rise, peak_step = f_max(t)
    return {
        "initial": float(t[0]),
        "peak": float(t[peak_step]),
        "f_max": rise,
        "step_of_peak": peak_step,
        "converged": float(t[e == e[-1]].mean()),
        "box": old_loss_distribution(t),
    }


class TopEigen(NamedTuple):
    """The top Ritz value, whether it met the tolerance, the Hessian-vector
    products taken and the residual ||Hy - value * y|| at its unit vector y."""

    value: float
    converged: bool
    hvps: int
    residual: float


def hessian_top_eigen(hvp, size, tol=1e-6, max_iter=200, seed=0):
    """Largest algebraic eigenvalue of the symmetric operator ``hvp`` on
    vectors of length ``size`` by the Lanczos three-term recurrence from a
    start vector drawn from ``seed``, holding three vectors.

    After step k the top Ritz value theta of T_k, with unit eigenvector s,
    has residual beta_k * |s_k|: converged once that is at most
    ``tol * |theta|``, or when beta_k = 0. Otherwise warns, naming the
    estimate and its residual so each one prints under Python's default
    once-per-text filter, and returns the last estimate.

    T_k is solved densely by ``np.linalg.eigh``, O(k^3) per step. That costs
    about what a tridiagonal solver does while k stays small (each benchmark
    estimate stops by k = 27); only a non-converging estimate pays more, about
    0.8 ms a step at k = 100 and 3 ms at k = 200 (2-vCPU VM).
    """
    v = np.random.default_rng(seed).standard_normal(size)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(size)
    alphas, betas = [], []
    beta = 0.0
    theta = change = residual = float("nan")
    for step in range(1, max_iter + 1):
        w = hvp(v) - beta * v_prev
        alphas.append(float(v @ w))
        w -= alphas[-1] * v
        beta = float(np.linalg.norm(w))
        ritz, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        change = abs(ritz[-1] - theta)
        theta, residual = float(ritz[-1]), beta * abs(float(vectors[-1, -1]))
        if beta == 0.0 or residual <= tol * abs(theta):
            return TopEigen(theta, True, step, residual)
        betas.append(beta)
        v_prev, v = v, w / beta
    warnings.warn(
        f"Lanczos did not converge within {max_iter} steps; returning last estimate {theta!r} "
        f"(last change {change:.3e}, residual {residual:.3e}, relative tolerance {tol:.0e})",
        RuntimeWarning,
    )
    return TopEigen(theta, False, max_iter, residual)


def peak_bound(steps_to_peak, lr, sigma_max, grad_sq_sum):
    """(N_s / 2) * lr^2 * sigma_max * sum of squared gradient norms."""
    return 0.5 * steps_to_peak * lr * lr * sigma_max * grad_sq_sum


def bound_report(destruction, grad_total_sq, contrib_inner, batch_sizes, lr, curvature):
    """Assemble the per-phase bound evaluation from the phase's
    ``destruction_report``, which gives the peak rise and its step, the
    recorded step data and the old-phase curvature estimate (a
    ``TopEigen``). Of the per-step gaps only the smallest is kept; the step
    trace holds their inputs.

    The unknown additive constant in the bound is not estimated, so the
    margin ``bound_minus_f_max`` is reported, never asserted.
    """
    rise, peak_step = destruction["f_max"], destruction["step_of_peak"]
    gsq = np.asarray(grad_total_sq, dtype=np.float64)
    inner = np.asarray(contrib_inner, dtype=np.float64)
    n = np.asarray(batch_sizes, dtype=np.float64)
    grad_sum = float(gsq[:peak_step].sum())
    bound = peak_bound(peak_step, lr, curvature.value, grad_sum)
    gaps = cauchy_gap(gsq, inner, n)
    return {
        "sigma_max": curvature.value,
        "sigma_converged": curvature.converged,
        "sigma_hvps": curvature.hvps,
        "sigma_residual": curvature.residual,
        "grad_sq_sum_to_peak": grad_sum,
        "bound": float(bound),
        "bound_minus_f_max": float(bound - rise),
        "min_cauchy_gap": float(gaps.min()) if gaps.size else 0.0,
    }
