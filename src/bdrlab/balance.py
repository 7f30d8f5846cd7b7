"""Class-balancing logit offsets for replay training.

Each class carries two signals: a quantity prior (its share of the merged
training set) and a training-status weight (normalized inverse intra-class
feature variance). Blending them gives per-class mixing weights whose log,
added to the logits, throttles the gradient pull of classes that are ahead
-- which is what keeps a flood of new-class samples from trampling the old
decision boundaries, without the over-correction a pure frequency prior
causes.

ce, cr and bdr all train with one closed-form head, ``ce_with_offset``: it
returns the batch-mean cross-entropy of the shifted logits and its gradient
at the logits, ``softmax(logits + offsets) - onehot`` over the batch size.

Conventions fixed here:
  * intra-class variance reduces to one scalar per class by averaging the
    per-dimension variances;
  * variances are floored at ``VARIANCE_FLOOR`` before inversion so a
    collapsed class cannot produce an infinite weight;
  * the initial mix is frozen at phase start and momentum-blended with the
    running mix on every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANCE_FLOOR = 1e-8


class DegenerateTrainingError(ValueError):
    """The network stopped carrying signal: every unit of its last hidden
    layer is dead, or every class's intra-class variance is zero, so the
    training status is undefined."""


def log_softmax(z):
    """Row-wise log-softmax of a 2-D numpy array, stabilised by max-subtraction."""
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def checked_logits(logits):
    """The logits as a float64 matrix; a non-finite logit raises ``FloatingPointError``."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError(f"logits must be a non-empty batch x classes matrix, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite logit")
    return z


def _checked_labels(labels, n, k):
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match batch size {n}")
    y = y.astype(np.int64)
    if y.min() < 0 or y.max() >= k:
        bad = int(y[(y < 0) | (y >= k)][0])
        raise IndexError(f"label {bad} out of range for {k} classes")
    return y


def ce_with_offset(logits, offsets, labels):
    """Mean cross-entropy of softmax(logits + offsets) against integer labels.

    Returns ``(loss, dlogits)``. Offsets enter as per-class constants, so
    the gradient is taken at the logits only. Strongly negative offsets stay
    exact thanks to the max-subtraction in ``log_softmax``.
    """
    z = checked_logits(logits)
    n, k = z.shape
    off = np.asarray(offsets, dtype=np.float64)
    if off.shape != (k,):
        raise ValueError(f"offsets shape {off.shape} does not match {k} classes")
    if not np.all(np.isfinite(off)):
        raise FloatingPointError("non-finite offset")
    y = _checked_labels(labels, n, k)
    logp = log_softmax(z + off)
    rows = np.arange(n)
    grad = np.exp(logp)
    grad[rows, y] -= 1.0
    grad *= 1.0 / n
    return -float(logp[rows, y].sum() / n), grad  # the mean, without np.mean's call overhead


def class_priors(counts):
    """Normalized class frequencies; every class must have at least one sample."""
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"counts must be a non-empty vector, got shape {c.shape}")
    if np.any(c < 1):
        raise ValueError(f"every class needs at least one sample, got counts {c.tolist()}")
    return c / c.sum()


def scalar_variance(features, mean):
    """Mean squared deviation from ``mean``, averaged over samples and dimensions."""
    f = np.asarray(features, dtype=np.float64)
    m = np.asarray(mean, dtype=np.float64).ravel()
    if f.shape[0] == 0 or f.shape[1] != m.size:
        raise ValueError(f"features shape {f.shape} does not match mean of size {m.size}")
    return float(((f - m) ** 2).mean())


def compensation(variances):
    """Normalized inverse-variance weights: lower variance, higher weight."""
    v = np.asarray(variances, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"variances must be a non-empty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise FloatingPointError(f"variances must be finite, got {v.tolist()}")
    if np.any(v < 0):
        raise ValueError(f"variances must be non-negative, got {v.tolist()}")
    if not np.any(v > 0):
        raise DegenerateTrainingError(
            "all-zero variances: training status is degenerate (constant features, as from dead ReLU units)"
        )
    inv = 1.0 / np.maximum(v, VARIANCE_FLOOR)
    return inv / inv.sum()


@dataclass
class ClassStats:
    """Running per-class feature statistics over the merged training set."""

    mean: np.ndarray  # K x f feature means
    variance: np.ndarray  # K scalar intra-class variances
    count: np.ndarray  # K per-class totals in the merged set (fixed per phase)


def stats_from_pass(features, labels, class_count):
    """Phase-start snapshot: exact means and variances from one full pass."""
    f = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    means = np.zeros((class_count, f.shape[1]))
    variances = np.zeros(class_count)
    counts = np.zeros(class_count)
    for k in range(class_count):
        rows = f[y == k]
        if rows.shape[0] == 0:
            raise ValueError(f"class {k} has no samples in the merged training set")
        means[k] = rows.mean(axis=0)
        variances[k] = scalar_variance(rows, means[k])
        counts[k] = rows.shape[0]
    return ClassStats(means, variances, counts)


@dataclass
class OffsetSchedule:
    """Per-class mixing weights and the hyper-parameters that move them."""

    priors: np.ndarray  # quantity priors, fixed per phase
    pi_init: np.ndarray  # initial blend, frozen at phase start
    pi_prime: np.ndarray  # running blend, refreshed every step
    pi_hat: np.ndarray  # momentum combination used in the loss
    m_prime: float
    beta: float
    tau: float


def init_schedule(priors, weights_at_init, m, m_prime, beta, tau):
    """Freeze the phase-start blend of priors and status weights.

    ``m`` only acts here; ``m_prime`` takes over during training and ``beta``
    controls how much the frozen blend keeps dominating. The four settings
    are taken as given: ``config.ExperimentConfig`` checks them once, when it
    is built.
    """
    psi = np.asarray(priors, dtype=np.float64)
    omega = np.asarray(weights_at_init, dtype=np.float64)
    if psi.shape != omega.shape or psi.ndim != 1:
        raise ValueError(f"priors shape {psi.shape} does not match weights shape {omega.shape}")
    pi = m * psi + (1.0 - m) * omega
    return OffsetSchedule(
        priors=psi.copy(),
        pi_init=pi,
        pi_prime=pi.copy(),
        pi_hat=pi.copy(),
        m_prime=m_prime,
        beta=beta,
        tau=tau,
    )


def momentum_update(stats: ClassStats, schedule: OffsetSchedule, batch_features, batch_labels):
    """Fold one batch into the running statistics and refresh the mixing weights.

    Classes absent from the batch keep their statistics. The blend weight is
    n/(n + n_k) with n the class's fixed total in the merged set and n_k its
    batch count, so sparse classes track their drift quickly. Returns the
    fresh status weights.
    """
    f = np.asarray(batch_features, dtype=np.float64)
    y = np.asarray(batch_labels)
    if y.size and (y.min() < 0 or y.max() >= stats.count.size):
        bad = int(y[(y < 0) | (y >= stats.count.size)][0])
        raise IndexError(f"unknown class id {bad} for {stats.count.size} tracked classes")
    for k in np.unique(y):
        rows = f[y == k]
        n_k = rows.shape[0]
        n = stats.count[k]
        keep = n / (n + n_k)
        new_mean = keep * stats.mean[k] + rows.sum(axis=0) / (n + n_k)
        batch_sq = ((rows - new_mean) ** 2).mean(axis=1).sum()
        stats.variance[k] = keep * stats.variance[k] + batch_sq / (n + n_k)
        stats.mean[k] = new_mean
    omega = compensation(stats.variance)
    schedule.pi_prime = schedule.m_prime * schedule.priors + (1.0 - schedule.m_prime) * omega
    schedule.pi_hat = schedule.beta * schedule.pi_init + (1.0 - schedule.beta) * schedule.pi_prime
    return omega


def offsets(schedule: OffsetSchedule):
    """Per-class logit offsets: tau * log of the current mixing weights."""
    p = schedule.pi_hat
    if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
        raise FloatingPointError(f"mixing weights must be positive and finite, got {p.tolist()}")
    return schedule.tau * np.log(p)


def bdr_loss(logits, labels, schedule: OffsetSchedule):
    """Cross-entropy on logits shifted by the schedule's current offsets;
    returns ``(loss, dlogits)``."""
    k = np.shape(logits)[1]
    if schedule.pi_hat.size != k:
        raise ValueError(f"schedule covers {schedule.pi_hat.size} classes but logits have {k}")
    return ce_with_offset(logits, offsets(schedule), labels)
