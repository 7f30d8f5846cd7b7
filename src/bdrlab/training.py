"""Phase-wise incremental training with pluggable classification losses.

Each incremental phase inherits the previous model, widens its head for the
new classes, and trains on the current samples merged with the replayed
exemplars. The total loss is the chosen classification variant plus a
temperature-softened consolidation term against the frozen previous model.
Every step also records the gradient decomposition into new-class and
old-class contribution sums, which feeds the destruction diagnostics. The
step trace is the run's only per-step record: the report entry of a phase
holds per-phase summaries of it.

The classifier runs its own numpy forward and backward pass over plain
float64 arrays. Every loss head is closed-form: it returns the loss and its
gradient at the logits, which goes straight into ``Classifier.backward``.
A step is one forward pass plus one backward pass: backward is linear, so
the consolidation term's logit gradient is added to the classification
one and the sum goes through ``Classifier.backward`` once. The frozen
teacher's logits are computed once per phase, in ``batch_size`` chunks of
the training set, and each step reads its rows. The step record describes
the update gradient, classification plus weighted consolidation, and its
new/old split comes from that same backward pass: a weight's gradient is a
sum of per-row outer products of layer input and row delta, so summing
over the smaller of the new-class and old-class row groups gives its
contribution directly (Goodfellow 2015, arXiv:1510.01799), and the other
group's is the batch gradient minus it.

A phase is set up in ``train_phase``, which decides before the first step
what the phase trains with: the loss, bdr's offset schedule and where
``loss_old`` comes from. It is closed in ``_close_phase``, which stores the
exemplars, builds the whole report entry and takes the next phase's
old-phase curvature. Phase 0 has no old classes and trains with plain
cross-entropy whatever the variant, so a run splits in two: ``first_phase``
trains and closes phase 0, and ``run_experiment`` continues from copies of
that record. The variants of a seed share one record; ``bdrlab run``
computes it once per seed and charges it to the seed's first variant.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import balance
from .balance import DegenerateTrainingError, ce_with_offset, checked_logits, log_softmax, weighted_ce
from .data import LabeledSet, PhaseStream, concat_sets
from .diagnostics import TopEigen, bound_report, destruction_report, hessian_top_eigen, metrics
from .memory import GLOBAL, HERDING, PER_CLASS, RANDOM, ExemplarMemory, merged_training_set
from .seeding import BATCH, INIT, rng_for

LOSS_CE = "ce"
LOSS_CR = "cr"
LOSS_BDR = "bdr"
LOSS_REWEIGHT = "reweight"
LOSS_VARIANTS = (LOSS_CE, LOSS_CR, LOSS_BDR, LOSS_REWEIGHT)

HEAD_INIT_SCALE = 0.01
LR_DECAY = 0.1  # learning-rate factor over the last third of each phase's epochs
LR_DECAY_POINT = 2.0 / 3.0


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class SettingError(ValueError):
    """A config field holds an invalid value; ``name`` is the field."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


@dataclass(frozen=True)
class TrainConfig:
    """Every per-run setting, checked once when the object is built."""

    epochs: int = 12
    batch_size: int = 32
    lr: float = 0.03
    sgd_momentum: float = 0.9
    seed: int = 0
    loss_variant: str = LOSS_CE
    distill_weight: float = 1.0
    distill_temperature: float = 2.0
    hidden: tuple = (64, 64)
    memory_mode: str = PER_CLASS
    memory_budget: int = 5
    memory_selection: str = HERDING
    m: float = 0.8
    m_prime: float = 0.8
    beta: float = 0.99
    tau: float = 1.0
    variance_source: str = "feature"

    def __post_init__(self):
        temperature = self.distill_temperature
        checks = [
            ("lr", self.lr > 0, f"learning rate must be positive, got {self.lr}"),
            ("sgd_momentum", 0.0 <= self.sgd_momentum < 1.0, f"momentum must lie in [0, 1), got {self.sgd_momentum}"),
            ("distill_weight", self.distill_weight >= 0, f"distill weight must be non-negative, got {self.distill_weight}"),
            ("distill_temperature", temperature > 0, f"distill_temperature must be positive, got {temperature}"),
            ("tau", self.tau >= 0, f"tau must be non-negative, got {self.tau}"),
            ("hidden", all(h >= 1 for h in self.hidden), f"hidden widths must be at least 1, got {self.hidden}"),
        ]
        for name in ("epochs", "batch_size", "memory_budget"):
            value = getattr(self, name)
            checks.append((name, value >= 1, f"{name} must be at least 1, got {value}"))
        for name in ("m", "m_prime", "beta"):
            value = getattr(self, name)
            checks.append((name, 0.0 <= value <= 1.0, f"{name} must lie in [0, 1], got {value}"))
        choices = {
            "loss_variant": LOSS_VARIANTS,
            "variance_source": ("feature", "logit"),
            "memory_mode": (PER_CLASS, GLOBAL),
            "memory_selection": (HERDING, RANDOM),
        }
        for name, allowed in choices.items():
            value = getattr(self, name)
            checks.append((name, value in allowed, f"{name} must be one of {', '.join(allowed)}, got {value!r}"))
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
            self.layers.append((rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, width)), np.zeros(width)))
            fan_in = width
        self.head_w = rng.normal(0.0, HEAD_INIT_SCALE, (fan_in, n_classes))
        self.head_b = np.zeros(n_classes)

    @property
    def n_classes(self):
        return self.head_w.shape[1]

    def params(self):
        out = []
        for w, b in self.layers:
            out.extend((w, b))
        out.extend((self.head_w, self.head_b))
        return out

    def forward(self, x):
        """Numpy forward pass over a batch of rows, kept for ``backward``.

        The ReLU is ``np.maximum(a, 0.0)``, which equals ``np.where(a > 0, a,
        0.0)`` bit for bit, signed zeros included, except at NaN: a NaN
        pre-activation reaches the logits, and training ends in a
        ``DivergenceError`` rather than with a silently dead unit.
        """
        h = np.asarray(x, dtype=np.float64)
        inputs, masks = [], []
        for w, b in self.layers:
            inputs.append(h)
            a = h @ w + b
            masks.append(a > 0.0)  # subgradient at exactly 0 is 0
            h = np.maximum(a, 0.0)
        inputs.append(h)
        return Activations(inputs, masks, h @ self.head_w + self.head_b)

    def backward(self, acts, dlogits):
        """Gradients of a loss whose gradient at the logits is ``dlogits``.

        Returns the parameter gradients in ``params()`` order and, per layer
        (head last), the row deltas: the loss gradient at that layer's
        pre-activation, one row per sample. The numpy operations and their
        order are those of the reference tape in ``tensor``, so the
        gradients equal its bit for bit.
        """
        weights = [w for w, _ in self.layers] + [self.head_w]
        grads, deltas = [], []
        g = dlogits
        for i in reversed(range(len(weights))):
            deltas.append(g)
            grads += (g.sum(axis=0), acts.inputs[i].T @ g)
            if i > 0:
                g = (g @ weights[i].T) * acts.masks[i - 1]
        return grads[::-1], deltas[::-1]

    def predict(self, x):
        """Top-1 classes; a non-finite logit raises ``FloatingPointError``."""
        return np.argmax(checked_logits(self.forward(x).logits), axis=1)

    def copy(self):
        return copy.deepcopy(self)

    def expand_head(self, extra_classes, rng):
        """Append columns for new classes; existing rows stay bit-identical."""
        if extra_classes < 1:
            raise ValueError(f"head must grow by at least one class, got {extra_classes}")
        new_w = rng.normal(0.0, HEAD_INIT_SCALE, (self.head_w.shape[0], extra_classes))
        self.head_w = np.concatenate([self.head_w, new_w], axis=1)
        self.head_b = np.concatenate([self.head_b, np.zeros(extra_classes)])
        return self


class SGD:
    """Plain momentum SGD over a fixed parameter list."""

    def __init__(self, params, lr, momentum=0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p) for p in self.params]

    def step(self, grads):
        """Apply one update from the gradients, given in parameter order."""
        for p, v, g in zip(self.params, self._velocity, grads):
            v *= self.momentum
            v += g
            p -= self.lr * v


def distill_loss(logits, teacher_logits, old_classes, temperature, weight):
    """Temperature-softened divergence of the first ``old_classes`` logits
    from the teacher's, scaled by temperature^2; exactly zero when the
    logits coincide.

    Returns ``(loss, dlogits)``: the loss is unweighted, as the trace
    records it, and ``dlogits`` is the gradient of ``weight`` times the loss
    at the full logits, weight * T * (softmax(z/T) - softmax(t/T)) over the
    batch size on the old columns and zero on the new ones.
    """
    z = np.asarray(logits, dtype=np.float64)
    student = z[:, :old_classes]
    t = np.asarray(teacher_logits, dtype=np.float64)
    if t.shape != student.shape:
        raise ValueError(f"old-class slices differ: student {student.shape} vs teacher {t.shape}")
    inv = 1.0 / float(temperature)
    target_logp = log_softmax(t * inv)
    target = np.exp(target_logp)
    logp = log_softmax(checked_logits(student * inv))
    kl = (target * (target_logp - logp)).sum(axis=1)
    sq = temperature * temperature
    grad = np.zeros_like(z)
    grad[:, :old_classes] += ((np.exp(logp) - target) * ((weight * sq) / t.shape[0])) * inv
    return float(kl.mean()) * sq, grad


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


def _flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def _phase_loss(variant, model, data: LabeledSet, config: TrainConfig):
    """The classification loss of a phase that trains ``model`` on ``data``
    with ``variant``: a ``(logits, labels) -> (loss, dlogits)`` closure, and
    for bdr the step's balance update (None for the other variants).

    cr, bdr and reweight read the class priors of ``data``. bdr freezes its
    offset schedule from those priors and the training-status statistics of
    one pass of ``model`` over ``data``; its update ``track(step, acts, y)``
    blends a batch into those statistics, moves the schedule's offsets, and
    returns the step's (step, class, psi, omega, pi_hat) balance rows.
    """
    k = model.n_classes
    if variant == LOSS_CE:
        zero = np.zeros(k)
        return (lambda logits, y: ce_with_offset(logits, zero, y)), None
    priors = balance.class_priors(np.bincount(data.labels, minlength=k))
    if variant == LOSS_CR:
        return (lambda logits, y: balance.bal_ce_loss(logits, y, priors)), None
    if variant == LOSS_REWEIGHT:
        class_weights = (1.0 / priors) / k
        return (lambda logits, y: weighted_ce(logits, y, class_weights[y])), None
    # the config has checked the variant, so what is left is bdr
    source = "features" if config.variance_source == "feature" else "logits"
    stats = balance.stats_from_pass(getattr(model.forward(data.features), source), data.labels, k)
    schedule = balance.init_schedule(
        priors, balance.compensation(stats.variance), config.m, config.m_prime, config.beta, config.tau
    )

    def track(step, acts, y):
        omega = balance.momentum_update(stats, schedule, getattr(acts, source), y)
        return [(step, c, float(schedule.priors[c]), float(omega[c]), float(schedule.pi_hat[c])) for c in range(k)]

    return (lambda logits, y: balance.bdr_loss(logits, y, schedule)), track


def _contribution_sums(flat, acts, deltas, new_rows):
    """Summed per-sample gradients of the step's loss, split into the batch's
    new-class rows and old-class rows.

    ``flat`` is the loss's batch gradient flattened in ``params()`` order,
    and ``deltas`` the row deltas of the same backward pass
    (``Classifier.backward``). The loss is a batch mean, so each sum is the
    batch size times its rows' share of ``flat``. The smaller row group is
    summed directly, from its rows' outer products; the other group is the
    remainder, ``scale * flat`` minus that sum, so only its rounding differs
    from a direct sum.
    """
    scale = float(new_rows.size)
    n_new = int(np.count_nonzero(new_rows))
    if n_new == new_rows.size:
        return scale * flat, np.zeros_like(flat)
    if n_new == 0:
        return np.zeros_like(flat), scale * flat
    new_is_direct = 2 * n_new <= new_rows.size
    rows = new_rows if new_is_direct else ~new_rows
    parts = []
    for h, d in zip(acts.inputs, deltas):
        d = d[rows]
        parts += (h[rows].T @ d, d.sum(axis=0))
    direct = scale * _flatten(parts)
    rest = scale * flat
    rest -= direct
    return (direct, rest) if new_is_direct else (rest, direct)


def train_phase(model, data: LabeledSet, config: TrainConfig, phase_index, teacher=None, old_classes=0):
    """SGD of ``model``, in place, over one phase's merged training set;
    returns the phase's ``StepTrace``.

    Everything the phase trains with is decided here, before the first step.
    Phase 0 (``old_classes`` = 0) trains with plain cross-entropy whatever
    the configured variant, and bdr freezes its offset schedule from the
    model and the set as the phase starts (``_phase_loss``). ``loss_old`` is
    the consolidation term against ``teacher`` when one is given and
    ``distill_weight`` is positive. The teacher is frozen and the set fixed,
    so its logits are computed once, in ``batch_size`` chunks in
    training-set order, and each step reads its rows; a row's BLAS result
    can depend on the rows sharing its matmul, so these logits may differ
    from per-batch ones at rounding level. Otherwise ``loss_old`` is the
    plain cross-entropy, at each step, of the set's old-class rows: in a run
    these are the replayed exemplars, which ``merged_training_set`` puts
    first. That cross-entropy takes no part in the update.

    The steps run with numpy's overflow and invalid-value warnings off: a
    step whose loss or gradient record is non-finite ends, before its
    update, as a ``DivergenceError``. An epoch in which no unit of the last
    hidden layer fires on any batch ends as a ``DegenerateTrainingError``.
    """
    feats = data.features
    labels = data.labels
    n = data.n
    variant = config.loss_variant if old_classes > 0 else LOSS_CE
    loss_fn, track = _phase_loss(variant, model, data, config)
    old_loss = None  # (logits, batch rows) -> (loss_old, its dlogits or None)
    replayed = labels < old_classes
    if teacher is not None and config.distill_weight > 0 and old_classes > 0:
        teacher_logits = np.concatenate(
            [teacher.forward(feats[i : i + config.batch_size]).logits for i in range(0, n, config.batch_size)]
        )

        def old_loss(logits, idx):
            return distill_loss(
                logits, teacher_logits[idx], old_classes, config.distill_temperature, config.distill_weight
            )

    elif replayed.any():
        replay_x, replay_y, zero = feats[replayed], labels[replayed], np.zeros(model.n_classes)

        def old_loss(logits, idx):
            return ce_with_offset(model.forward(replay_x).logits, zero, replay_y)[0], None

    optimizer = SGD(model.params(), config.lr, config.sgd_momentum)
    rng = rng_for(config.seed, BATCH, phase_index)
    trace = StepTrace()
    decay_from = math.ceil(config.epochs * LR_DECAY_POINT)
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value ends as a DivergenceError
        for epoch in range(config.epochs):
            optimizer.lr = config.lr * (LR_DECAY if epoch >= decay_from else 1.0)
            perm = rng.permutation(n)
            live = not model.layers  # without a hidden layer no unit can die
            for start in range(0, n, config.batch_size):
                idx = perm[start : start + config.batch_size]
                y = labels[idx]
                acts = model.forward(feats[idx])
                live = live or acts.masks[-1].any()
                try:
                    if track is not None:
                        trace.balance_rows += track(step, acts, y)
                    loss_new, dlogits = loss_fn(acts.logits, y)
                    loss_old, old_dlogits = (0.0, None) if old_loss is None else old_loss(acts.logits, idx)
                except FloatingPointError as exc:
                    raise DivergenceError(
                        f"non-finite loss at phase {phase_index}, step {step}: {exc}"
                    ) from exc
                if not np.isfinite(loss_new) or not np.isfinite(loss_old):
                    raise DivergenceError(f"non-finite loss at phase {phase_index}, step {step}")

                if old_dlogits is not None:  # backward is linear: one pass for the summed loss
                    dlogits = dlogits + old_dlogits
                grads, deltas = model.backward(acts, dlogits)
                flat = _flatten(grads)
                grad_new, grad_old = _contribution_sums(flat, acts, deltas, y >= old_classes)
                record = StepRecord(
                    phase=phase_index,
                    epoch=epoch,
                    step=step,
                    loss_new=loss_new,
                    loss_old=loss_old,
                    grad_new_norm=float(np.linalg.norm(grad_new)),
                    grad_old_norm=float(np.linalg.norm(grad_old)),
                    grad_total_sq=float(np.dot(flat, flat)),
                    contrib_inner=float(np.dot(grad_new, grad_old)),
                    batch_size=int(idx.size),
                )
                gradient = (record.grad_new_norm, record.grad_old_norm, record.grad_total_sq, record.contrib_inner)
                if not all(map(math.isfinite, gradient)):
                    raise DivergenceError(f"non-finite gradient at phase {phase_index}, step {step}")
                optimizer.step(grads)
                trace.rows.append(record)
                step += 1
            if not live:
                raise DegenerateTrainingError(
                    f"dead network: no unit of the last hidden layer fired in phase {phase_index}, epoch {epoch}"
                )
    return trace


def _old_phase_hvp(model, old_sets):
    """Exact Hessian-vector products, over flat vectors in ``params()`` order,
    of the summed old-phase mean cross-entropies at the model's parameters,
    which are only read. Pearlmutter's R-operator (1994): each product is one
    R-forward and one R-backward pass over a forward and backward pass per
    phase cached here. ReLU'' = 0 almost everywhere, so the masks enter as
    constants, and R(input) = 0 drops the first layer's two products with it.
    """
    weights = [w for w, _ in model.layers] + [model.head_w]
    params = model.params()
    splits = np.cumsum([p.size for p in params])[:-1]
    cache = []
    for phase_set in old_sets:
        acts = model.forward(phase_set.features)
        _, dlogits = ce_with_offset(acts.logits, np.zeros(model.n_classes), phase_set.labels)
        _, deltas = model.backward(acts, dlogits)
        probs = np.exp(log_softmax(acts.logits))
        # the products never read the first layer's delta or the logits
        cache.append((acts.inputs, acts.masks, deltas[1:], probs, 1.0 / phase_set.n))

    def hvp(vec):
        out = np.zeros_like(vec)
        hv = [part.reshape(p.shape) for part, p in zip(np.split(out, splits), params)]
        dirs = [part.reshape(p.shape) for part, p in zip(np.split(vec, splits), params)]
        for inputs, masks, deltas, probs, scale in cache:
            r_in = [None]  # R of each layer's input
            for i, w in enumerate(weights):
                r_a = inputs[i] @ dirs[2 * i] + dirs[2 * i + 1]
                if i > 0:
                    r_a += r_in[i] @ w
                if i < len(masks):
                    r_in.append(r_a * masks[i])
            # R of the logit gradient (p - onehot) / n: the softmax Jacobian times R(z)
            r_g = (probs * (r_a - (probs * r_a).sum(axis=1, keepdims=True))) * scale
            for i in reversed(range(len(weights))):
                hv[2 * i] += inputs[i].T @ r_g
                hv[2 * i + 1] += r_g.sum(axis=0)
                if i > 0:
                    hv[2 * i] += r_in[i].T @ deltas[i - 1]
                    r_g = (r_g @ weights[i].T + deltas[i - 1] @ dirs[2 * i].T) * masks[i - 1]
        return out

    return hvp


def _old_phase_curvature(model, old_sets, seed=0):
    """Top eigenvalue of the summed old-phase Hessians at the model's
    parameters: Lanczos on exact Hessian-vector products, as a ``TopEigen``."""
    return hessian_top_eigen(_old_phase_hvp(model, old_sets), _flatten(model.params()).size, seed=seed)


@dataclass
class RunResult:
    report: dict
    traces: list  # one StepTrace per phase


@dataclass(frozen=True)
class FirstPhase:
    """Phase 0 of a run and the phase-1 curvature computed from its model.

    Phase 0 trains with plain cross-entropy whatever the loss variant, so
    every variant of a seed shares this record. ``run_experiment`` copies
    the model and the memory out of it and never changes it.
    """

    config: TrainConfig  # as given; phase 0 reads no loss_variant
    model: Classifier
    memory: ExemplarMemory
    trace: StepTrace
    entry: dict  # the phase-0 report entry
    sigma_max: TopEigen | None  # phase 1's old-phase curvature estimate; None with one phase


def _close_phase(stream, t, model, memory, data, trace, config, sigma_max):
    """Close phase t, trained on ``data`` with step trace ``trace``: store its
    exemplars and build its report entry. The entry holds the test accuracy
    over every class seen so far, overall and split into the old and the new
    classes, and from phase 1 on the destruction and the bound reports;
    ``sigma_max`` is the phase's old-phase curvature, taken when the previous
    phase closed. Returns the entry and the next phase's curvature, taken at
    the model as phase t leaves it (None after the last phase). Evaluation
    runs first and, like the curvature pass, rejects a non-finite logit, so
    a model left non-finite ends in a ``DivergenceError``, not an entry."""
    test = concat_sets(stream.test_phases[: t + 1])
    next_sigma_max = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite logit raises below
            correct = model.predict(test.features) == test.labels
        if t + 1 < stream.num_phases:
            next_sigma_max = _old_phase_curvature(model, stream.phases[: t + 1], seed=config.seed)
    except FloatingPointError as exc:
        raise DivergenceError(f"non-finite model at the end of phase {t}: {exc}") from exc
    memory.update(stream.phases[t], features_of=lambda x: model.forward(x).features)
    old = test.labels < stream.classes_before(t)
    entry = {
        "phase": t,
        "classes_seen": stream.classes_through(t),
        "train_size": data.n,
        "accuracy": {
            "overall": 100.0 * float(correct.mean()),
            "old_group": 100.0 * float(correct[old].mean()) if old.any() else None,
            "new_group": 100.0 * float(correct[~old].mean()),  # every class holds out a test sample
        },
        "destruction": None,
        "bound": None,
    }
    if t > 0:
        old_losses = trace.column("loss_old")
        entry["destruction"] = destruction_report(old_losses, trace.column("epoch"))
        entry["bound"] = bound_report(
            old_losses,
            trace.column("grad_total_sq"),
            trace.column("contrib_inner"),
            trace.column("batch_size"),
            config.lr,
            sigma_max,
        )
    return entry, next_sigma_max


def first_phase(stream: PhaseStream, config: TrainConfig) -> FirstPhase:
    """Train phase 0, fill the exemplar memory and take phase 1's curvature."""
    model = Classifier(stream.dim, config.hidden, stream.classes_through(0), rng_for(config.seed, INIT, 0))
    memory = ExemplarMemory(
        mode=config.memory_mode, budget=config.memory_budget, selection=config.memory_selection, seed=config.seed
    )
    trace = train_phase(model, stream.phases[0], config, 0)
    entry, sigma_max = _close_phase(stream, 0, model, memory, stream.phases[0], trace, config, None)
    return FirstPhase(config, model, memory, trace, entry, sigma_max)


def run_experiment(stream: PhaseStream, config: TrainConfig, start: FirstPhase | None = None) -> RunResult:
    """Execute the full phase loop and assemble the machine-readable report.

    ``start`` is the run's first phase, from ``first_phase`` on the same
    stream with a config that differs at most in ``loss_variant``; without
    it the first phase is trained here. Each later phase starts from a copy
    of the previous model as its teacher, grows the head, merges the replay
    set, trains and closes.
    """
    if start is None:
        start = first_phase(stream, config)
    differing = [
        f.name
        for f in fields(TrainConfig)
        if f.name != "loss_variant" and getattr(start.config, f.name) != getattr(config, f.name)
    ]
    if differing:
        raise ValueError(f"first phase was built with different settings: {', '.join(differing)}")
    model = start.model.copy()
    memory = copy.deepcopy(start.memory)
    traces = [start.trace]
    phase_reports = [copy.deepcopy(start.entry)]
    sigma_max = start.sigma_max
    for t in range(1, stream.num_phases):
        teacher = model.copy()
        model.expand_head(stream.classes_through(t) - stream.classes_before(t), rng_for(config.seed, INIT, t))
        train_set = merged_training_set(memory, stream.phases[t])
        traces.append(train_phase(model, train_set, config, t, teacher, stream.classes_before(t)))
        entry, sigma_max = _close_phase(stream, t, model, memory, train_set, traces[-1], config, sigma_max)
        phase_reports.append(entry)
    avg, last = metrics([entry["accuracy"]["overall"] for entry in phase_reports])
    report = {
        "schema_version": 2,
        "variant": config.loss_variant,
        "seed": config.seed,
        "phases": phase_reports,
        "avg": avg,
        "last": last,
        "memory": {str(k): v for k, v in memory.index_map().items()},
    }
    return RunResult(report=report, traces=traces)
