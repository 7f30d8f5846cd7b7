"""Self-contained verification battery behind ``bdrlab verify``.

Each check is an independent oracle: finite differences against the
closed-form loss gradients and the classifier's backward pass, closed forms
against those gradients, exhaustive identities on random inputs, a dense
frozen-mask Hessian against the exact curvature estimate, an analytic
quadratic toy where the peak-forgetting bound must hold with no
slack term, and the balanced-risk oracle: a numeric expected-risk minimizer,
one damped Newton solve per point in numpy, checked against the
balanced-error optimum. A solve that runs out of iterations fails the check
rather than deciding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import balance
from .balance import ce_with_offset
from .data import LabeledSet
from .diagnostics import cauchy_gap, f_max, hessian_top_eigen, peak_bound
from .training import Activations, Classifier, _old_phase_hvp, distill_loss, teacher_targets


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def finite_diff_check(f, x, step=1e-5):
    """Worst relative disagreement between the gradient ``f`` reports at
    ``x`` and central finite differences of its value.

    ``f`` maps a float64 array to ``(value, gradient)``: a closed-form loss
    head, or a tape function through ``tensor.value_and_grad``. Relative error per
    coordinate is floored at 1e-8 in the denominator, so a constant function
    scores exactly 0.
    """
    x = np.array(x, dtype=np.float64)
    value, grad = f(x.copy())
    if not np.isfinite(value):
        raise FloatingPointError("f(x) is not finite")
    analytic = np.array(grad, dtype=np.float64).ravel()
    if analytic.size != x.size:
        raise ValueError(f"gradient has {analytic.size} entries for {x.size} inputs")
    flat = x.ravel()
    numeric = np.zeros_like(analytic)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)[0]
        flat[i] = orig - step
        lo = f(x)[0]
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * step)
    if analytic.size == 0:
        return 0.0
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / scale).max())


def frozen_mask_forward(model, x, masks):
    """``Classifier.forward`` with the hidden ReLU masks fixed to ``masks``.
    A fixed mask can hide a negative pre-activation, so the ReLU is
    ``np.where`` on the mask rather than ``np.maximum``."""
    h = np.asarray(x, dtype=np.float64)
    inputs = []
    for (w, b), mask in zip(model.layers[:-1], masks):
        inputs.append(h)
        h = np.where(mask, h @ w + b, 0.0)
    inputs.append(h)
    w, b = model.layers[-1]
    return Activations(inputs, masks, h @ w + b)


def _net_loss(model, x, labels, masks=None):
    """Cross-entropy of a classifier as a function of its flat parameters,
    with the gradient from ``Classifier.backward``; ``masks`` fixes the
    ReLU masks."""

    def f(theta):
        model.flat[...] = theta
        acts = model.forward(x) if masks is None else frozen_mask_forward(model, x, masks)
        value, dlogits = ce_with_offset(acts.logits, np.zeros(model.n_classes), labels)
        grad = np.empty_like(theta)
        model.backward(acts, dlogits, grad)
        return value, grad

    return f


def check_gradient_oracle(instances=100, seed=0, tol=1e-5):
    """Finite differences vs the closed-form gradient of every loss head and
    vs ``Classifier.backward`` on a small ReLU net."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    cases = 0
    while cases < instances:
        b, k, d = rng.integers(2, 6), rng.integers(2, 6), rng.integers(2, 6)
        old = int(rng.integers(1, k + 1))
        labels = rng.integers(0, k, b)
        offs = rng.normal(0.0, 1.5, k)
        priors = rng.uniform(1.0, 5.0, k)  # up to 5:1 skew
        priors /= priors.sum()
        schedule = balance.init_schedule(priors, rng.dirichlet(np.ones(k)), 0.8, 0.8, 0.99, tau=1.5)
        teacher = rng.standard_normal((b, old))
        temperature, weight = rng.uniform(0.5, 4.0), rng.uniform(0.1, 2.0)
        net = Classifier(d, rng.integers(2, 6, 2), k, rng)

        def distill(x):
            value, grad = distill_loss(x, teacher_targets(teacher, temperature), temperature, weight)
            return weight * value, grad

        checks = [
            (rng.standard_normal((b, k)), lambda x: ce_with_offset(x, offs, labels)),
            (rng.standard_normal((b, k)), lambda x: balance.bdr_loss(x, labels, schedule)),
            (rng.standard_normal((b, k)), distill),
            # jittered so no bias is zero: a zero bias behind dead units sits on a kink
            (net.flat + rng.normal(0.0, 0.1, net.flat.size), _net_loss(net, rng.standard_normal((b, d)), labels)),
        ]
        for value, fn in checks:
            worst = max(worst, finite_diff_check(fn, value))
            cases += 1
    return CheckResult(
        "gradient oracle",
        worst < tol,
        f"{cases} instances, max relative error {worst:.3e} (tolerance {tol:.0e})",
    )


def check_shift_invariance(trials=200, seed=1, tol=1e-12):
    """Adding a constant to every offset must not change the loss, even a
    constant large enough that an unstabilised softmax would overflow."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        b, k = rng.integers(1, 8), rng.integers(2, 7)
        z = rng.normal(0.0, 3.0, (b, k))
        offs = rng.normal(0.0, 2.0, k)
        shift = rng.normal(0.0, 5.0) if trial % 4 else rng.choice([-900.0, 900.0])
        labels = rng.integers(0, k, b)
        base, _ = ce_with_offset(z, offs, labels)
        moved, _ = ce_with_offset(z, offs + shift, labels)
        worst = max(worst, abs(base - moved))
    return CheckResult("offset shift invariance", worst < tol, f"max deviation {worst:.3e}")


def check_binary_saturation(tol=1e-10):
    """Two-class gradient on the true logit matches -1/(1 + e^gap) and decays.

    The same gaps are replayed at logit magnitude ~800, where only a
    stabilised softmax keeps the gradient finite.
    """
    gaps = np.linspace(-20.0, 20.0, 401)
    worst = 0.0
    magnitudes = []
    for gap in gaps:
        for base in (0.0, 800.0):
            _, grad = ce_with_offset(np.array([[base + gap / 2.0, base - gap / 2.0]]), np.zeros(2), np.array([0]))
            grad_true = grad[0, 0]
            closed = -1.0 / (1.0 + np.exp(gap))
            worst = max(worst, abs(grad_true - closed))
            if base == 0.0:
                magnitudes.append(abs(grad_true))
    decreasing = all(m1 > m2 for m1, m2 in zip(magnitudes, magnitudes[1:]))
    vanishes = magnitudes[-1] < 1e-8
    return CheckResult(
        "binary saturation closed form",
        worst < tol and decreasing and vanishes,
        f"max deviation {worst:.3e}, strictly decreasing={decreasing}, tail={magnitudes[-1]:.1e}",
    )


def _gap_of(a, b, n):
    """``cauchy_gap`` from contribution sums a and b over ``n`` rows, fed as
    a run feeds it: ||(a + b) / n||^2 and a . b."""
    s = a + b
    return cauchy_gap(float(np.dot(s, s)) / (n * n), float(np.dot(a, b)), n)


def check_cauchy_identity(trials=1000, seed=2, tol=1e-10):
    """gap == ||a-b||^2 / N^2 for random pairs, and exactly 0 when a == b."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dim = rng.integers(1, 80)
        n = int(rng.integers(1, 500))
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        expect = float(np.dot(a - b, a - b)) / (n * n)
        worst = max(worst, abs(_gap_of(a, b, n) - expect))
    a = rng.standard_normal(32)
    equal_gap = _gap_of(a, a.copy(), 7)
    exact_zero = equal_gap == 0.0
    return CheckResult(
        "gradient-balance gap identity",
        worst < tol and exact_zero,
        f"max deviation {worst:.3e}, equal-contribution gap is exactly {equal_gap}",
    )


# -- balanced-risk equivalence oracle ----------------------------------------


_NEWTON_ITERATIONS = 100


def _point_risk_minimizer(weights, log_adjust, rng):
    # the risk is convex in the score vector, so one converged solve is its minimum
    total = weights.sum()
    v = rng.standard_normal(weights.size)

    def risk(v):
        z = v + log_adjust
        logp = z - z.max() - np.log(np.exp(z - z.max()).sum())
        return -(weights @ logp), np.exp(logp)

    value, s = risk(v)
    for _ in range(_NEWTON_ITERATIONS):
        grad = total * s - weights
        if np.abs(grad).max() <= 1e-8 * total:
            return v
        # least squares: the Hessian is singular along the all-ones vector
        step = np.linalg.lstsq(total * (np.diag(s) - np.outer(s, s)), -grad, rcond=None)[0]
        # far from the minimum a tiny softmax entry makes the step huge; moving
        # no score by more than 2 keeps it out of saturated corners
        step /= max(1.0, np.abs(step).max() / 2.0)
        t = 1.0
        while risk(v + t * step)[0] > value + 1e-4 * t * (grad @ step):
            t /= 2.0  # Armijo backtracking; it ends by t = 0 at the latest, a null step
        v = v + t * step
        value, s = risk(v)
    raise FloatingPointError(f"risk minimizer did not converge in {_NEWTON_ITERATIONS} Newton iterations")


def risk_decision_rule(conditional_table, priors, adjusted=True, seed=0):
    """Per-point argmax decisions of the numeric expected-risk minimizer.

    ``adjusted`` adds log priors to the scores inside the loss (the balanced
    risk); without it the plain risk is minimized. The search is a brute
    numeric minimization per point, from a start drawn from ``seed``,
    independent of any closed form; a point whose solve does not converge
    raises ``FloatingPointError``.
    """
    p_x_given_y = np.asarray(conditional_table, dtype=np.float64)
    psi = np.asarray(priors, dtype=np.float64)
    k, n_points = p_x_given_y.shape
    rng = np.random.default_rng(seed)
    log_adjust = np.log(psi) if adjusted else np.zeros(k)
    decisions = np.full(n_points, -1, dtype=np.int64)
    for x in range(n_points):
        weights = p_x_given_y[:, x] * psi
        if weights.sum() <= 0.0:
            continue  # unreachable point
        decisions[x] = np.argmax(_point_risk_minimizer(weights, log_adjust, rng))
    return decisions


def _validate_table(conditional_table, priors):
    p = np.asarray(conditional_table, dtype=np.float64)
    psi = np.asarray(priors, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"conditional table must be 2-D (classes x points), got shape {p.shape}")
    k, n_points = p.shape
    if k > 5 or n_points > 12:
        raise ValueError(f"oracle domain is limited to 5 classes x 12 points, got {k} x {n_points}")
    if np.any(p < 0) or not np.allclose(p.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("malformed table: rows must be distributions over the points")
    if psi.shape != (k,) or np.any(psi <= 0) or not np.isclose(psi.sum(), 1.0, atol=1e-6):
        raise ValueError("priors must be a positive distribution over the classes")
    return p, psi


def balanced_risk_equivalence(conditional_table, priors, seed=0):
    """True when the balanced-risk minimizer decides like the balanced-error
    optimum at every reachable point.

    The balanced-error optimum picks argmax_y P(x|y) per point; the other
    side is found by numeric minimization of the prior-adjusted expected
    cross-entropy over score tables, so the two routes share no algebra.
    """
    p, psi = _validate_table(conditional_table, priors)
    adjusted = risk_decision_rule(p, psi, adjusted=True, seed=seed)
    reached = np.flatnonzero(adjusted >= 0)
    # a decision is optimal when its likelihood is within 1e-9 of the point's best
    return bool(np.all(p[adjusted[reached], reached] >= p[:, reached].max(axis=0) - 1e-9))


def _random_problem(rng):
    k = int(rng.integers(2, 6))
    n_points = int(rng.integers(3, 13))
    table = rng.uniform(0.05, 1.0, (k, n_points))
    table /= table.sum(axis=1, keepdims=True)
    priors = rng.uniform(1.0, 20.0, k)  # up to 20:1 skew
    priors /= priors.sum()
    return table, priors


def disagreement_problem():
    """A table where the plain risk minimizer picks the frequent class at a
    point the balanced-optimal rule assigns to the rare class."""
    table = np.array([[0.6, 0.4], [0.4, 0.6]])
    priors = np.array([0.9, 0.1])
    return table, priors


def check_balanced_risk(problems=50, seed=3):
    """Balanced-risk minimizers must match the balanced-error optimum; the
    unadjusted minimizer must disagree on the constructed skewed problem.
    A risk minimization that does not converge fails the check."""
    rng = np.random.default_rng(seed)
    name = "balanced-risk equivalence oracle"
    try:
        failures = sum(
            not balanced_risk_equivalence(*_random_problem(rng), seed=int(rng.integers(1 << 31))) for _ in range(problems)
        )
        table, priors = disagreement_problem()
        adjusted_ok = balanced_risk_equivalence(table, priors, seed=0)
        plain_disagrees = bool(np.any(risk_decision_rule(table, priors, adjusted=False, seed=0) != np.argmax(table, axis=0)))
    except FloatingPointError as err:
        return CheckResult(name, False, str(err))
    return CheckResult(
        name,
        failures == 0 and adjusted_ok and plain_disagrees,
        f"{problems} random problems, {failures} disagreements; "
        f"constructed case: adjusted agrees={adjusted_ok}, unadjusted disagrees={plain_disagrees}",
    )


def _random_psd(rng, dim):
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigenvalues = rng.uniform(0.1, 10.0, dim)
    return (basis * eigenvalues) @ basis.T, float(eigenvalues.max())


def kinked_relu_problem(seed=8):
    """A ReLU net (hidden 12, 12) and two old phases of 25 and 24 rows; each
    hidden bias is minus the unit's median pre-activation over the 49 rows,
    which puts one row on every unit's kink."""
    rng = np.random.default_rng(seed)
    net = Classifier(4, (12, 12), 3, rng)
    *hidden, (w, _) = net.layers
    w[...] = rng.normal(0.0, 1.0, w.shape)
    sets = [LabeledSet(rng.standard_normal((n, 4)), rng.integers(0, 3, n), 3) for n in (25, 24)]
    h = np.concatenate([s.features for s in sets])
    for w, b in hidden:
        b[...] = -np.median(h @ w, axis=0)
        h = np.maximum(h @ w + b, 0.0)
    return net, sets


def frozen_mask_hessian(model, old_sets, step=1e-5):
    """Dense Hessian of the summed old-phase cross-entropies by central
    differences of the closed-form gradient, with every ReLU mask frozen at
    the model's parameters, so no difference crosses a kink."""
    probe, theta = model.copy(), model.flat
    losses = [_net_loss(probe, s.features, s.labels, model.forward(s.features).masks) for s in old_sets]
    grad = lambda vec: sum(loss(vec)[1] for loss in losses)
    return np.stack([(grad(theta + step * e) - grad(theta - step * e)) / (2.0 * step) for e in np.eye(theta.size)], 1)


def check_hessian_estimator(problems=20, seed=4, tol=1e-3, kink_tol=1e-6):
    """Lanczos within ``tol`` of the top eigenvalue of PSD quadratics; on the
    kinked ReLU net, exact Hessian-vector products within ``kink_tol`` of the
    dense frozen-mask Hessian, column by column, and of its top eigenvalue."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(problems):
        dim = int(rng.integers(2, 21))
        matrix, top = _random_psd(rng, dim)
        estimate = hessian_top_eigen(lambda v: matrix @ v, dim, tol=1e-10, max_iter=5000, seed=int(rng.integers(1 << 31)))
        worst = max(worst, abs(estimate.value - top) / top)
    net, sets = kinked_relu_problem()
    dense = frozen_mask_hessian(net, sets)
    hvp = _old_phase_hvp(net, sets)
    columns = np.stack([hvp(e) for e in np.eye(dense.shape[0])], 1)
    column_err = np.abs(columns - dense).max() / np.abs(dense).max()
    top = np.linalg.eigvalsh(dense).max()
    kink_err = abs(hessian_top_eigen(hvp, dense.shape[0], seed=seed).value - top) / abs(top)
    return CheckResult(
        "curvature estimator",
        bool(worst < tol and column_err < kink_tol and kink_err < kink_tol),
        f"{problems} quadratics, max relative error {worst:.3e}; kinked ReLU net: Hessian columns "
        f"within {column_err:.1e}, top eigenvalue within {kink_err:.1e}",
    )


def check_toy_bound(problems=10, seed=5):
    """Quadratic toy with a fully-learnt previous phase: the peak-forgetting
    bound must hold with zero slack."""
    rng = np.random.default_rng(seed)
    ok = True
    details = []
    for _ in range(problems):
        dim = int(rng.integers(2, 9))
        old_hessian, sigma = _random_psd(rng, dim)  # its top eigenvalue, known exactly
        new_hessian, new_top = _random_psd(rng, dim)
        target = rng.standard_normal(dim) * 2.0
        lr = min(0.1, 1.0 / new_top)
        theta = np.zeros(dim)  # previous-phase optimum; old loss is 0 here
        old_losses = [0.0]
        grad_sq = []
        for _step in range(40):
            grad = new_hessian @ (theta - target)
            grad_sq.append(float(np.dot(grad, grad)))
            theta = theta - lr * grad
            old_losses.append(0.5 * float(theta @ old_hessian @ theta))
        rise, peak = f_max(old_losses)
        bound = peak_bound(peak, lr, sigma, float(np.sum(grad_sq[:peak])))
        margin = bound - rise
        ok = ok and margin >= -1e-9 * max(1.0, bound)
        details.append(margin)
    smallest = min(details) if details else 0.0
    return CheckResult(
        "peak-forgetting bound on analytic toy",
        ok,
        f"{problems} toys, smallest bound margin {smallest:.3e}",
    )


def check_compensation_monotonic(trials=200, seed=6):
    """Lowering one class's variance must strictly raise its weight."""
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(trials):
        k = int(rng.integers(2, 8))
        variances = rng.uniform(0.2, 5.0, k)
        target = int(rng.integers(0, k))
        before = balance.compensation(variances)[target]
        lowered = variances.copy()
        lowered[target] *= rng.uniform(0.1, 0.9)
        after = balance.compensation(lowered)[target]
        ok = ok and after > before
    return CheckResult("compensation monotonicity", ok, f"{trials} perturbations, all strict increases" if ok else "violation found")


def check_exact_reduction(trials=1000, seed=7, tol=1e-12):
    """Uniform mixing weights (or tau = 0) must reproduce plain cross-entropy."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        b, k = int(rng.integers(1, 9)), int(rng.integers(2, 7))
        z = rng.normal(0.0, 3.0, (b, k))
        labels = rng.integers(0, k, b)
        plain, _ = ce_with_offset(z, np.zeros(k), labels)
        uniform = np.full(k, 1.0 / k)
        schedule = balance.init_schedule(uniform, uniform, m=1.0, m_prime=0.8, beta=0.99, tau=1.0)
        worst = max(worst, abs(balance.bdr_loss(z, labels, schedule)[0] - plain))
        skewed = balance.init_schedule(
            rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)), m=0.8, m_prime=0.8, beta=0.99, tau=0.0
        )
        worst = max(worst, abs(balance.bdr_loss(z, labels, skewed)[0] - plain))
    return CheckResult("exact reduction to plain cross-entropy", worst < tol, f"max deviation {worst:.3e}")


def run_all():
    return [
        check_gradient_oracle(),
        check_shift_invariance(),
        check_binary_saturation(),
        check_cauchy_identity(),
        check_exact_reduction(),
        check_compensation_monotonic(),
        check_hessian_estimator(),
        check_toy_bound(),
        check_balanced_risk(),
    ]
