"""Phase-wise incremental training with pluggable classification losses.

Each incremental phase inherits the previous model, widens its head for the
new classes, and trains on the current samples merged with the replayed
exemplars. The total loss is the chosen classification variant plus a
temperature-softened consolidation term against the frozen previous model.
Every step also records the gradient decomposition into new-class and
old-class contribution sums, which feeds the destruction diagnostics.

The classifier runs its own numpy forward and backward pass; the autodiff
tape of ``tensor`` only differentiates the loss heads, on a leaf over the
logits. A step is one forward pass plus one backward pass per loss term.
The new/old split comes from the classification loss's single backward
pass: a weight's gradient is a sum of per-row outer products of layer input
and row delta, so summing over the new-class or old-class rows alone gives
each contribution (Goodfellow 2015, arXiv:1510.01799).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import balance
from .data import LabeledSet, PhaseStream, concat_sets
from .diagnostics import bound_report, destruction_report, hessian_top_eigen, metrics
from .memory import ExemplarMemory, merged_training_set
from .seeding import BATCH, INIT, rng_for
from .tensor import Tensor, ce_with_offset, kl_to_softmax, log_softmax, weighted_ce

LOSS_CE = "ce"
LOSS_CR = "cr"
LOSS_BDR = "bdr"
LOSS_REWEIGHT = "reweight"
LOSS_VARIANTS = (LOSS_CE, LOSS_CR, LOSS_BDR, LOSS_REWEIGHT)

HEAD_INIT_SCALE = 0.01


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class SettingError(ValueError):
    """A ``TrainConfig`` field holds an invalid value; ``name`` is the field."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


@dataclass
class TrainConfig:
    epochs: int = 12
    batch_size: int = 32
    lr: float = 0.03
    sgd_momentum: float = 0.9
    seed: int = 0
    loss_variant: str = LOSS_CE
    distill_weight: float = 1.0
    distill_temperature: float = 2.0
    hidden: tuple = (64, 64)
    memory_mode: str = "per_class"
    memory_budget: int = 5
    memory_selection: str = "herding"
    m: float = 0.8
    m_prime: float = 0.8
    beta: float = 0.99
    tau: float = 1.0
    variance_source: str = "feature"
    lr_decay: float = 0.1
    lr_decay_point: float = 2.0 / 3.0

    def __post_init__(self):
        checks = [
            ("lr", self.lr > 0, f"learning rate must be positive, got {self.lr}"),
            ("sgd_momentum", 0.0 <= self.sgd_momentum < 1.0, f"momentum must lie in [0, 1), got {self.sgd_momentum}"),
            ("distill_weight", self.distill_weight >= 0, f"distill weight must be non-negative, got {self.distill_weight}"),
            ("batch_size", self.batch_size >= 1, f"batch size must be at least 1, got {self.batch_size}"),
            ("epochs", self.epochs >= 1, f"epochs must be at least 1, got {self.epochs}"),
            (
                "loss_variant",
                self.loss_variant in LOSS_VARIANTS,
                f"unknown loss variant {self.loss_variant!r}, expected one of {LOSS_VARIANTS}",
            ),
            (
                "variance_source",
                self.variance_source in ("feature", "logit"),
                f"variance source must be 'feature' or 'logit', got {self.variance_source!r}",
            ),
        ]
        for name in ("m", "m_prime", "beta"):
            value = getattr(self, name)
            checks.append((name, 0.0 <= value <= 1.0, f"{name} must lie in [0, 1], got {value}"))
        for name, ok, message in checks:
            if not ok:
                raise SettingError(name, message)


class Activations(NamedTuple):
    """One forward pass: every layer's input (the head's last), the hidden
    ReLU masks and the logits."""

    inputs: list
    masks: list
    logits: np.ndarray

    @property
    def features(self):
        """Penultimate features: the head's input."""
        return self.inputs[-1]


class Classifier:
    """ReLU stack over the inputs plus a linear head that grows with the classes."""

    def __init__(self, in_dim, hidden_sizes, n_classes, rng):
        self.in_dim = int(in_dim)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.layers = []
        fan_in = self.in_dim
        for width in self.hidden_sizes:
            w = Tensor(rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, width)), requires_grad=True)
            b = Tensor(np.zeros(width), requires_grad=True)
            self.layers.append((w, b))
            fan_in = width
        self.head_w = Tensor(rng.normal(0.0, HEAD_INIT_SCALE, (fan_in, n_classes)), requires_grad=True)
        self.head_b = Tensor(np.zeros(n_classes), requires_grad=True)

    @property
    def n_classes(self):
        return self.head_w.data.shape[1]

    @property
    def feature_dim(self):
        return self.head_w.data.shape[0]

    def params(self):
        out = []
        for w, b in self.layers:
            out.extend((w, b))
        out.extend((self.head_w, self.head_b))
        return out

    def forward(self, x):
        """Numpy forward pass over a batch of rows, kept for ``backward``."""
        h = np.asarray(x, dtype=np.float64)
        inputs, masks = [], []
        for w, b in self.layers:
            inputs.append(h)
            a = h @ w.data + b.data
            mask = a > 0.0  # subgradient at exactly 0 is 0
            masks.append(mask)
            h = np.where(mask, a, 0.0)
        inputs.append(h)
        return Activations(inputs, masks, h @ self.head_w.data + self.head_b.data)

    def backward(self, acts, dlogits):
        """Gradients of a loss whose gradient at the logits is ``dlogits``.

        Returns the parameter gradients in ``params()`` order and, per layer
        (head last), the row deltas: the loss gradient at that layer's
        pre-activation, one row per sample. The numpy operations and their
        order are the tape's, so the gradients equal its bit for bit.
        """
        weights = [w for w, _ in self.layers] + [self.head_w]
        grads, deltas = [], []
        g = dlogits
        for i in reversed(range(len(weights))):
            deltas.append(g)
            grads += (g.sum(axis=0), acts.inputs[i].T @ g)
            if i > 0:
                g = (g @ weights[i].data.T) * acts.masks[i - 1]
        return grads[::-1], deltas[::-1]

    def features_np(self, x):
        return self.forward(x).features

    def logits_np(self, x):
        return self.forward(x).logits

    def predict(self, x):
        return np.argmax(self.logits_np(x), axis=1)

    def accuracy(self, x, labels):
        """Top-1 accuracy in percent on raw logits (no training-time offsets)."""
        return 100.0 * float(np.mean(self.predict(x) == np.asarray(labels)))

    def copy(self, frozen=False):
        clone = Classifier.__new__(Classifier)
        clone.in_dim = self.in_dim
        clone.hidden_sizes = self.hidden_sizes
        clone.layers = [
            (Tensor(w.data.copy(), requires_grad=not frozen), Tensor(b.data.copy(), requires_grad=not frozen))
            for w, b in self.layers
        ]
        clone.head_w = Tensor(self.head_w.data.copy(), requires_grad=not frozen)
        clone.head_b = Tensor(self.head_b.data.copy(), requires_grad=not frozen)
        return clone

    def expand_head(self, extra_classes, rng):
        """Append columns for new classes; existing rows stay bit-identical."""
        if extra_classes < 1:
            raise ValueError(f"head must grow by at least one class, got {extra_classes}")
        new_w = rng.normal(0.0, HEAD_INIT_SCALE, (self.feature_dim, extra_classes))
        self.head_w = Tensor(
            np.concatenate([self.head_w.data, new_w], axis=1), requires_grad=self.head_w.requires_grad
        )
        self.head_b = Tensor(
            np.concatenate([self.head_b.data, np.zeros(extra_classes)]), requires_grad=self.head_b.requires_grad
        )
        return self


class SGD:
    """Plain momentum SGD over a fixed parameter list."""

    def __init__(self, params, lr, momentum=0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads):
        """Apply one update from the gradients, given in parameter order."""
        for p, v, g in zip(self.params, self._velocity, grads):
            v *= self.momentum
            v += g
            p.data -= self.lr * v


def distill_loss(student_logits: Tensor, teacher_logits, temperature):
    """Temperature-softened divergence from the teacher's old-class logits,
    scaled by temperature^2; exactly zero when the logits coincide."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    t = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(teacher_logits, dtype=np.float64)
    if t.shape != student_logits.data.shape:
        raise ValueError(f"old-class slices differ: student {student_logits.data.shape} vs teacher {t.shape}")
    inv = 1.0 / float(temperature)
    target_logp = log_softmax(t * inv)
    return kl_to_softmax(student_logits * inv, target_logp) * (temperature * temperature)


@dataclass
class StepRecord:
    phase: int
    epoch: int
    step: int
    loss_new: float
    loss_old: float
    grad_new_norm: float
    grad_old_norm: float
    grad_total_sq: float
    contrib_inner: float
    batch_size: int


@dataclass
class StepTrace:
    rows: list = field(default_factory=list)
    balance_rows: list = field(default_factory=list)  # (step, class, psi, omega, pi_hat)

    def column(self, name):
        return np.asarray([getattr(r, name) for r in self.rows])


@dataclass
class BalanceState:
    stats: balance.ClassStats
    schedule: balance.OffsetSchedule


def _flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def _set_flat_params(model, vec):
    offset = 0
    for p in model.params():
        size = p.data.size
        p.data = vec[offset : offset + size].reshape(p.data.shape).copy()
        offset += size


def _variant_loss_fn(variant, k, labels, schedule):
    """Per-batch classification loss closure for the active variant."""
    if variant == LOSS_CE:
        zero = np.zeros(k)
        return lambda logits, y: ce_with_offset(logits, zero, y)
    if variant == LOSS_CR:
        counts = np.bincount(labels, minlength=k)
        priors = balance.class_priors(counts)
        tau = schedule.tau if schedule is not None else 1.0
        return lambda logits, y: balance.bal_ce_loss(logits, y, priors, tau)
    if variant == LOSS_BDR:
        if schedule is None:
            raise ValueError("bdr training needs an initialized offset schedule")
        return lambda logits, y: balance.bdr_loss(logits, y, schedule)
    if variant == LOSS_REWEIGHT:
        counts = np.bincount(labels, minlength=k)
        priors = balance.class_priors(counts)
        class_weights = (1.0 / priors) / k
        return lambda logits, y: weighted_ce(logits, y, class_weights[y])
    raise ValueError(f"unknown loss variant {variant!r}")


def _contribution_sums(grads, acts, deltas, new_rows):
    """Summed per-sample gradients of the classification loss, split into the
    batch's new-class rows and old-class rows.

    ``grads`` and ``deltas`` come from the loss's backward pass over the whole
    batch (``Classifier.backward``). The loss is a batch mean, so each sum is
    scaled back up by the batch size.
    """
    scale = float(new_rows.size)
    sums = []
    for rows in (new_rows, ~new_rows):
        if rows.all():
            parts = grads
        elif not rows.any():
            parts = [np.zeros_like(g) for g in grads]
        else:
            parts = []
            for h, d in zip(acts.inputs, deltas):
                d = d[rows]
                parts += (h[rows].T @ d, d.sum(axis=0))
        sums.append(scale * _flatten(parts))
    return sums[0], sums[1]


def _probe_ce(model, probe):
    feats, labels = probe
    logits = model.logits_np(feats)
    logp = log_softmax(logits)
    return float(-logp[np.arange(len(labels)), labels].mean())


def train_phase(
    model,
    data: LabeledSet,
    config: TrainConfig,
    phase_index,
    balance_state: BalanceState | None = None,
    teacher: Classifier | None = None,
    old_classes=0,
    old_loss_probe=None,
):
    """SGD over one phase's merged training set.

    Phase 0 (``old_classes`` = 0) trains with plain cross-entropy regardless
    of the configured variant; later phases add the consolidation term when a
    teacher is given. Returns the model and the per-step trace.
    """
    feats = data.features.data
    labels = data.labels
    n = data.n
    k = model.n_classes
    variant = config.loss_variant if old_classes > 0 else LOSS_CE
    schedule = balance_state.schedule if balance_state is not None else None
    loss_fn = _variant_loss_fn(variant, k, labels, schedule)
    distilling = teacher is not None and config.distill_weight > 0 and old_classes > 0
    optimizer = SGD(model.params(), config.lr, config.sgd_momentum)
    rng = rng_for(config.seed, BATCH, phase_index)
    trace = StepTrace()
    decay_from = math.ceil(config.epochs * config.lr_decay_point)
    step = 0
    for epoch in range(config.epochs):
        optimizer.lr = config.lr * (config.lr_decay if epoch >= decay_from else 1.0)
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            y = labels[idx]
            acts = model.forward(feats[idx])
            if balance_state is not None:
                source = acts.features if config.variance_source == "feature" else acts.logits
                omega = balance.momentum_update(balance_state.stats, schedule, source, y)
                for cls in range(k):
                    trace.balance_rows.append(
                        (step, cls, float(schedule.priors[cls]), float(omega[cls]), float(schedule.pi_hat[cls]))
                    )
            # each loss term is differentiated from its own leaf over the
            # logits and gets its own backward pass through the network
            logits = Tensor(acts.logits, requires_grad=True)
            try:
                loss_new = loss_fn(logits, y)
                loss_old_term = None
                loss_old_value = 0.0
                if distilling:
                    teacher_logits = teacher.logits_np(feats[idx])
                    old_logits = Tensor(acts.logits, requires_grad=True)
                    loss_old_term = distill_loss(
                        old_logits[:, :old_classes], teacher_logits, config.distill_temperature
                    )
                    loss_old_value = loss_old_term.item()
                elif old_loss_probe is not None:
                    loss_old_value = _probe_ce(model, old_loss_probe)
            except FloatingPointError as exc:
                raise DivergenceError(
                    f"non-finite loss at phase {phase_index}, step {step}: {exc}"
                ) from exc
            if not np.isfinite(loss_new.data) or not np.isfinite(loss_old_value):
                raise DivergenceError(f"non-finite loss at phase {phase_index}, step {step}")

            loss_new.backward()
            grads, deltas = model.backward(acts, logits.grad)
            grad_total_sq = float(np.sum(_flatten(grads) ** 2))
            grad_new, grad_old = _contribution_sums(grads, acts, deltas, y >= old_classes)
            if loss_old_term is not None:
                (loss_old_term * config.distill_weight).backward()
                old_grads, _ = model.backward(acts, old_logits.grad)
                grads = [g + h for g, h in zip(grads, old_grads)]
            optimizer.step(grads)

            trace.rows.append(
                StepRecord(
                    phase=phase_index,
                    epoch=epoch,
                    step=step,
                    loss_new=loss_new.item(),
                    loss_old=loss_old_value,
                    grad_new_norm=float(np.linalg.norm(grad_new)),
                    grad_old_norm=float(np.linalg.norm(grad_old)),
                    grad_total_sq=grad_total_sq,
                    contrib_inner=float(np.dot(grad_new, grad_old)),
                    batch_size=int(idx.size),
                )
            )
            step += 1
    return model, trace


def _old_phase_curvature(model, old_sets, iters=150, tol=1e-2, seed=0):
    """Top eigenvalue of the summed old-phase Hessians at the model's current
    parameters, via finite-difference Hessian-vector products."""
    theta = _flatten(p.data for p in model.params())

    def grad_fn(vec):
        _set_flat_params(model, vec)
        total = None
        for phase_set in old_sets:
            acts = model.forward(phase_set.features.data)
            logits = Tensor(acts.logits, requires_grad=True)
            ce_with_offset(logits, np.zeros(model.n_classes), phase_set.labels).backward()
            grads, _ = model.backward(acts, logits.grad)
            # phase by phase, in the order the tape summed them
            total = grads if total is None else [a + b for a, b in zip(total, grads)]
        return _flatten(total)

    sigma = hessian_top_eigen(grad_fn, theta, iters=iters, tol=tol, seed=seed)
    _set_flat_params(model, theta)
    return sigma


def _evaluate(model, stream: PhaseStream, phase):
    """Overall / old-group / new-group test accuracy over all seen classes."""
    test = concat_sets(stream.test_phases[: phase + 1])
    pred = model.predict(test.features.data)
    correct = pred == test.labels
    overall = 100.0 * float(correct.mean())
    new_start = stream.class_range(phase).start
    new_mask = test.labels >= new_start
    acc_new = 100.0 * float(correct[new_mask].mean()) if new_mask.any() else None
    old_mask = ~new_mask
    acc_old = 100.0 * float(correct[old_mask].mean()) if old_mask.any() else None
    return overall, acc_old, acc_new


@dataclass
class RunResult:
    report: dict
    traces: list  # one StepTrace per phase


def run_experiment(stream: PhaseStream, config: TrainConfig) -> RunResult:
    """Execute the full phase loop and assemble the machine-readable report."""
    model = Classifier(
        stream.dim, config.hidden, len(stream.class_range(0)), rng_for(config.seed, INIT, 0)
    )
    memory = ExemplarMemory(
        mode=config.memory_mode,
        budget=config.memory_budget,
        selection=config.memory_selection,
        seed=config.seed,
    )
    traces = []
    accuracies = []
    phase_reports = []
    for t, phase in enumerate(stream.phases):
        balance_state = None
        teacher = None
        probe = None
        sigma_max = None
        old_count = stream.classes_before(t)
        if t == 0:
            train_set = phase
        else:
            curvature_model = model.copy()
            teacher = model.copy(frozen=True)
            model.expand_head(len(stream.class_range(t)), rng_for(config.seed, INIT, t))
            train_set = merged_training_set(memory, phase)
            if config.loss_variant == LOSS_BDR:
                acts = model.forward(train_set.features.data)
                source = acts.features if config.variance_source == "feature" else acts.logits
                stats = balance.stats_from_pass(source, train_set.labels, model.n_classes)
                priors = balance.class_priors(np.bincount(train_set.labels, minlength=model.n_classes))
                schedule = balance.init_schedule(
                    priors, stats.weights(), config.m, config.m_prime, config.beta, config.tau
                )
                balance_state = BalanceState(stats, schedule)
            if config.distill_weight <= 0:
                replay = memory.as_labeled_set(old_count)
                if replay is not None:
                    probe = (replay.features.data, replay.labels)
            sigma_max = _old_phase_curvature(curvature_model, stream.phases[:t], seed=config.seed)
        model, trace = train_phase(
            model, train_set, config, t, balance_state, teacher, old_count, probe
        )
        traces.append(trace)
        memory.update(phase, features_of=model.features_np)
        overall, acc_old, acc_new = _evaluate(model, stream, t)
        accuracies.append(overall)
        entry = {
            "phase": t,
            "classes_seen": stream.classes_through(t),
            "train_size": train_set.n,
            "accuracy": {"overall": overall, "old_group": acc_old, "new_group": acc_new},
            "destruction": None,
            "bound": None,
        }
        if t > 0:
            old_losses = trace.column("loss_old")
            entry["destruction"] = destruction_report(old_losses, trace.column("epoch")).as_dict()
            entry["bound"] = bound_report(
                old_losses,
                trace.column("grad_total_sq"),
                trace.column("contrib_inner"),
                trace.column("batch_size"),
                config.lr,
                sigma_max,
            ).as_dict()
        phase_reports.append(entry)
    avg, last = metrics(accuracies)
    report = {
        "schema_version": 1,
        "variant": config.loss_variant,
        "seed": config.seed,
        "phases": phase_reports,
        "avg": avg,
        "last": last,
        "memory": {str(k): v for k, v in memory.index_map().items()},
    }
    return RunResult(report=report, traces=traces)
