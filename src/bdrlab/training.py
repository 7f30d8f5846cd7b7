"""Phase-wise incremental training with pluggable classification losses.

Each incremental phase inherits the previous model, which is its teacher:
the model scores the phase's training set (the current samples merged with
the replayed exemplars) once, then widens its head for the new classes and
trains. The total loss is the chosen classification variant plus a
temperature-softened consolidation term against those recorded outputs.
Every step also records the gradient decomposition into new-class and
old-class contribution sums, which feeds the destruction diagnostics. The
step trace is the run's only per-step record: the report entry of a phase
holds per-phase summaries of it.

The classifier runs its own numpy forward and backward pass. Its float64
parameters live in one flat vector; ``Classifier.layers`` holds each
layer's weight and bias as views of it, head last, and
``Classifier.views`` cuts any vector so laid out into the same pairs. So
backward writes the gradient into one flat buffer that a phase reuses
across its steps, and the SGD update is three whole-vector operations.
Every loss head is closed-form: it returns the loss and its gradient at
the logits, which goes straight into ``Classifier.backward``.
A step is one forward pass plus one backward pass: backward is linear, so
the consolidation term's logit gradient is added to the classification
one and the sum goes through ``Classifier.backward`` once. The teacher's
logits, and the tempered softmax targets taken from them, are computed
once per phase, in ``batch_size`` chunks of the training set, and each
step reads its rows. The step record describes
the update gradient, classification plus weighted consolidation, and its
new/old split comes from that same backward pass: a weight's gradient is a
sum of per-row outer products of layer input and row delta, so summing
over the smaller of the new-class and old-class row groups gives its
contribution directly (Goodfellow 2015, arXiv:1510.01799), and the other
group's is the batch gradient minus it.

Every phase, phase 0 included, runs through ``_run_phase``: it merges the
replay set, trains with ``train_phase``, which decides before the first
step what the phase trains with (the teacher's targets, the head's growth,
the loss, bdr's offset schedule and where ``loss_old`` comes from), then
stores the exemplars, builds the whole report entry and takes the next
phase's old-phase curvature. A loss variant acts only against old classes,
so phase 0 is plain cross-entropy and a run splits in two: ``first_phase``
runs phase 0, and ``run_experiment`` continues a variant from copies of
that record. The variants of a seed share one record; ``bdrlab run``
computes it once per seed and charges it to the seed's first variant.

A ``config`` argument is a ``config.ExperimentConfig``, whose settings were
checked when it was built; this module reads its fields and does not
import it, since ``config.py`` imports ``LOSS_VARIANTS`` from here.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import balance
from .balance import ce_with_offset, checked_logits, log_softmax
from .data import LabeledSet, PhaseStream, concat_sets
from .diagnostics import TopEigen, bound_report, destruction_report, hessian_top_eigen, metrics
from .memory import ExemplarMemory, merged_training_set
from .seeding import BATCH, INIT, rng_for

LOSS_CE = "ce"
LOSS_CR = "cr"
LOSS_BDR = "bdr"
LOSS_VARIANTS = (LOSS_CE, LOSS_CR, LOSS_BDR)

HEAD_INIT_SCALE = 0.01
LR_DECAY = 0.1  # learning-rate factor over the last third of each phase's epochs
LR_DECAY_POINT = 2.0 / 3.0


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class DegenerateTrainingError(ValueError):
    """The network stopped carrying signal: no unit of its last hidden layer
    fired on any batch of an epoch."""


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
    """ReLU stack over the inputs plus a linear head that grows with the classes.

    The parameters live in one float64 vector, ``flat``. ``layers`` holds
    each layer's ``(weight, bias)`` as views of it, in ``flat``'s order with
    the head last, so an update of ``flat`` moves them all; a writer assigns
    into a view (``w[...] = ...``) rather than rebinding it. ``views`` cuts
    any vector laid out as ``flat`` the same way, and no other code reads
    the layout.
    """

    def __init__(self, in_dim, hidden_sizes, n_classes, rng):
        parts = []
        fan_in = in_dim
        for width in hidden_sizes:
            parts += (rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, width)), np.zeros(width))
            fan_in = width
        parts += (rng.normal(0.0, HEAD_INIT_SCALE, (fan_in, n_classes)), np.zeros(n_classes))
        self._bind(np.concatenate([p.ravel() for p in parts]), [p.shape for p in parts])

    def _bind(self, flat, shapes):
        """Make ``flat`` the parameter vector, cut into arrays of ``shapes``."""
        self.flat = flat
        self._shapes = shapes
        stops = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        self._cuts = list(zip([0] + stops, stops, shapes))
        self.layers = self.views(flat)

    @property
    def n_classes(self):
        return self.layers[-1][1].size

    def views(self, vec):
        """``vec``, a vector laid out as ``flat``, as one ``(weight, bias)``
        pair of views per layer, head last."""
        parts = [vec[start:stop].reshape(shape) for start, stop, shape in self._cuts]
        return list(zip(parts[::2], parts[1::2]))

    def forward(self, x):
        """Numpy forward pass over a batch of rows, kept for ``backward``.

        The ReLU is ``np.maximum(a, 0.0)``, which equals ``np.where(a > 0, a,
        0.0)`` bit for bit, signed zeros included, except at NaN: a NaN
        pre-activation reaches the logits, and training ends in a
        ``DivergenceError`` rather than with a silently dead unit.
        """
        h = np.asarray(x, dtype=np.float64)
        inputs, masks = [], []
        for w, b in self.layers[:-1]:
            inputs.append(h)
            a = h @ w + b
            masks.append(a > 0.0)  # subgradient at exactly 0 is 0
            h = np.maximum(a, 0.0)
        inputs.append(h)
        w, b = self.layers[-1]
        return Activations(inputs, masks, h @ w + b)

    def backward(self, acts, dlogits, out):
        """Gradients of a loss whose gradient at the logits is ``dlogits``,
        written into ``out``, a vector laid out as ``flat``.

        Returns, per layer (head last), the row deltas: the loss gradient at
        that layer's pre-activation, one row per sample. The numpy
        operations and their order are those of the reference tape in
        ``tensor``, so the gradients equal its bit for bit.
        """
        grads = self.views(out)
        deltas = []
        g = dlogits
        for i, (grad_w, grad_b) in reversed(list(enumerate(grads))):
            deltas.append(g)
            g.sum(axis=0, out=grad_b)
            np.matmul(acts.inputs[i].T, g, out=grad_w)
            if i > 0:
                g = (g @ self.layers[i][0].T) * acts.masks[i - 1]
        return deltas[::-1]

    def predict(self, x):
        """Top-1 classes; a non-finite logit raises ``FloatingPointError``."""
        return np.argmax(checked_logits(self.forward(x).logits), axis=1)

    def copy(self):
        return copy.deepcopy(self)

    def __getstate__(self):  # a copy or a pickle rebuilds the views over its own vector
        return self.flat, self._shapes

    def __setstate__(self, state):
        self._bind(*state)

    def expand_head(self, extra_classes, rng):
        """Append columns for new classes; existing rows stay bit-identical."""
        if extra_classes < 1:
            raise ValueError(f"head must grow by at least one class, got {extra_classes}")
        w, b = self.layers[-1]
        new_w = rng.normal(0.0, HEAD_INIT_SCALE, (w.shape[0], extra_classes))
        parts = [p for layer in self.layers[:-1] for p in layer]
        parts += (np.concatenate([w, new_w], axis=1), np.concatenate([b, np.zeros(extra_classes)]))
        self._bind(np.concatenate([p.ravel() for p in parts]), [p.shape for p in parts])
        return self


class SGD:
    """Plain momentum SGD over a flat parameter vector, updated in place."""

    def __init__(self, params, lr, momentum=0.0):
        self.params = params
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity = np.zeros_like(params)

    def step(self, grad):
        """Apply one update from the gradient, laid out as the parameters."""
        v = self._velocity
        v *= self.momentum
        v += grad
        self.params -= self.lr * v


def teacher_targets(teacher_logits, temperature):
    """The targets of ``distill_loss``: the teacher's temperature-softened
    log-softmax and its probabilities. Each row's values depend on that row
    alone, so a phase takes them once over its training set and each step
    indexes its rows."""
    logp = log_softmax(np.asarray(teacher_logits, dtype=np.float64) * (1.0 / float(temperature)))
    return logp, np.exp(logp)


def distill_loss(logits, targets, temperature, weight):
    """Temperature-softened divergence of the first old-class logits from
    the teacher's, scaled by temperature^2; exactly zero when the logits
    coincide. ``targets`` is ``teacher_targets`` of the teacher's logits on
    the batch, one column per old class.

    Returns ``(loss, dlogits)``: the loss is unweighted, as the trace
    records it, and ``dlogits`` is the gradient of ``weight`` times the loss
    at the full logits, weight * T * (softmax(z/T) - softmax(t/T)) over the
    batch size on the old columns and zero on the new ones.
    """
    z = np.asarray(logits, dtype=np.float64)
    target_logp, target = targets
    old_classes = target.shape[1]
    student = z[:, :old_classes]
    if target.shape != student.shape:
        raise ValueError(f"old-class slices differ: student {student.shape} vs teacher {target.shape}")
    inv = 1.0 / float(temperature)
    logp = log_softmax(checked_logits(student * inv))
    kl = (target * (target_logp - logp)).sum(axis=1)
    sq = temperature * temperature
    grad = np.zeros_like(z)
    grad[:, :old_classes] += ((np.exp(logp) - target) * ((weight * sq) / target.shape[0])) * inv
    return float(kl.sum() / kl.size) * sq, grad  # the mean, without np.mean's call overhead


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
    balance_rows: list = field(default_factory=list)  # (phase, step, class, omega, pi_hat)

    def column(self, name):
        return np.asarray([getattr(r, name) for r in self.rows])


def _phase_loss(variant, model, data: LabeledSet, config):
    """The classification loss of a phase that trains ``model`` on ``data``
    with ``variant``: a ``(logits, labels) -> (loss, dlogits)`` closure, and
    for bdr the step's balance update (None for the other variants).

    Every variant is cross-entropy on shifted logits: ce shifts them by
    zero and cr by the log class priors of ``data``. bdr freezes its offset
    schedule from those priors and the training-status statistics of one
    pass of ``model`` over ``data``; its update ``track(phase, step, acts,
    y)`` blends a batch into those statistics, moves the schedule's offsets
    and returns the step's balance rows, one per class.
    """
    k = model.n_classes
    if variant == LOSS_CE:
        zero = np.zeros(k)
        return (lambda logits, y: ce_with_offset(logits, zero, y)), None
    priors = balance.class_priors(np.bincount(data.labels, minlength=k))
    if variant == LOSS_CR:
        log_priors = np.log(priors)
        return (lambda logits, y: ce_with_offset(logits, log_priors, y)), None
    # run_experiment has checked the variant, so what is left is bdr
    stats = balance.stats_from_pass(model.forward(data.features).features, data.labels, k)
    schedule = balance.init_schedule(
        priors, balance.compensation(stats.variance), config.m, config.m_prime, config.beta, config.tau
    )

    def track(phase, step, acts, y):
        omega = balance.momentum_update(stats, schedule, acts.features, y)
        return [(phase, step, c, *row) for c, row in enumerate(zip(omega.tolist(), schedule.pi_hat.tolist()))]

    return (lambda logits, y: balance.bdr_loss(logits, y, schedule)), track


def _contribution_sums(model, grad, acts, deltas, new_rows, out):
    """Summed per-sample gradients of the step's loss, split into the batch's
    new-class rows and old-class rows, written into the two rows of ``out``
    and returned as ``(new, old)``.

    ``grad`` is the loss's batch gradient, laid out as ``model.flat``, and
    ``deltas`` the row deltas of the same backward pass
    (``Classifier.backward``). The loss is a batch mean, so each sum is the
    batch size times its rows' share of ``grad``. The smaller row group is
    summed directly, from its rows' outer products; the other group is the
    remainder, ``scale * grad`` minus that sum, so only its rounding differs
    from a direct sum.
    """
    scale = float(new_rows.size)
    n_new = int(np.count_nonzero(new_rows))
    new, old = out
    if n_new in (0, new_rows.size):
        whole, empty = (new, old) if n_new else (old, new)
        np.multiply(grad, scale, out=whole)
        empty.fill(0.0)
        return new, old
    new_is_direct = 2 * n_new <= new_rows.size
    rows = new_rows if new_is_direct else ~new_rows
    direct, rest = (new, old) if new_is_direct else (old, new)
    for h, d, (part_w, part_b) in zip(acts.inputs, deltas, model.views(direct)):
        d = d[rows]
        np.matmul(h[rows].T, d, out=part_w)
        d.sum(axis=0, out=part_b)
    direct *= scale
    np.multiply(grad, scale, out=rest)
    rest -= direct
    return new, old


def train_phase(model, data: LabeledSet, config, phase_index, variant=LOSS_CE):
    """SGD of ``model``, in place, over one phase's merged training set with
    the loss ``variant``; returns the phase's ``StepTrace``.

    ``model`` arrives as the previous phase left it. When ``data`` holds
    more classes than its head, the head's classes are the old ones and the
    arriving model is the phase's teacher: with a positive
    ``distill_weight`` it scores the set once, before its head grows, in
    ``batch_size`` chunks in training-set order, and its tempered targets
    (``teacher_targets``, row by row) are the consolidation term's; each
    step reads its rows. A row's BLAS result can depend on the rows sharing
    its matmul, so these logits may differ from per-batch ones at rounding
    level. The head then grows to ``data.class_count`` classes, from the
    phase's ``INIT`` stream.

    Everything else the phase trains with is decided here too, before the
    first step. bdr freezes its offset schedule from the grown model and the
    set (``_phase_loss``). Without distillation ``loss_old`` is the plain
    cross-entropy, at each step, of the set's old-class rows: in a run these
    are the replayed exemplars, which ``merged_training_set`` puts first.
    That cross-entropy takes no part in the update.

    The whole phase, set-up included, runs with numpy's overflow and
    invalid-value warnings off: a step whose loss or gradient record is
    non-finite ends, before its update, as a ``DivergenceError``. An epoch
    in which no unit of the last hidden layer fires on any batch ends as a
    ``DegenerateTrainingError``.
    """
    feats = data.features
    labels = data.labels
    n = data.n
    old_classes = model.n_classes if data.class_count > model.n_classes else 0
    old_loss = None  # (logits, batch rows) -> (loss_old, its dlogits or None)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value ends as a DivergenceError
        if old_classes:
            if config.distill_weight > 0:
                target_logp, target = teacher_targets(
                    np.concatenate(
                        [model.forward(feats[i : i + config.batch_size]).logits for i in range(0, n, config.batch_size)]
                    ),
                    config.distill_temperature,
                )

                def old_loss(logits, idx):
                    return distill_loss(
                        logits, (target_logp[idx], target[idx]), config.distill_temperature, config.distill_weight
                    )

            model.expand_head(data.class_count - old_classes, rng_for(config.seed, INIT, phase_index))
        loss_fn, track = _phase_loss(variant, model, data, config)
        replayed = labels < old_classes
        if old_loss is None and replayed.any():
            replay_x, replay_y, zero = feats[replayed], labels[replayed], np.zeros(model.n_classes)

            def old_loss(logits, idx):
                return ce_with_offset(model.forward(replay_x).logits, zero, replay_y)[0], None

        optimizer = SGD(model.flat, config.lr, config.sgd_momentum)
        grad = np.empty_like(model.flat)  # each step's gradient and its new/old split, reused by every step
        split = np.empty((2, grad.size))
        rng = rng_for(config.seed, BATCH, phase_index)
        trace = StepTrace()
        decay_from = math.ceil(config.epochs * LR_DECAY_POINT)
        step = 0
        for epoch in range(config.epochs):
            optimizer.lr = config.lr * (LR_DECAY if epoch >= decay_from else 1.0)
            perm = rng.permutation(n)
            live = len(model.layers) == 1  # without a hidden layer no unit can die
            for start in range(0, n, config.batch_size):
                idx = perm[start : start + config.batch_size]
                y = labels[idx]
                acts = model.forward(feats[idx])
                live = live or acts.masks[-1].any()
                try:
                    if track is not None:
                        trace.balance_rows += track(phase_index, step, acts, y)
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
                deltas = model.backward(acts, dlogits, grad)
                grad_new, grad_old = _contribution_sums(model, grad, acts, deltas, y >= old_classes, split)
                record = StepRecord(
                    phase=phase_index,
                    epoch=epoch,
                    step=step,
                    loss_new=loss_new,
                    loss_old=loss_old,
                    grad_new_norm=math.sqrt(np.dot(grad_new, grad_new)),  # np.linalg.norm's own formula
                    grad_old_norm=math.sqrt(np.dot(grad_old, grad_old)),
                    grad_total_sq=float(np.dot(grad, grad)),
                    contrib_inner=float(np.dot(grad_new, grad_old)),
                    batch_size=int(idx.size),
                )
                gradient = (record.grad_new_norm, record.grad_old_norm, record.grad_total_sq, record.contrib_inner)
                if not all(map(math.isfinite, gradient)):
                    raise DivergenceError(f"non-finite gradient at phase {phase_index}, step {step}")
                optimizer.step(grad)
                trace.rows.append(record)
                step += 1
            if not live:
                raise DegenerateTrainingError(
                    f"dead network: no unit of the last hidden layer fired in phase {phase_index}, epoch {epoch}"
                )
    return trace


def _old_phase_hvp(model, old_sets):
    """Exact Hessian-vector products, over vectors laid out as ``model.flat``,
    of the summed old-phase mean cross-entropies at the model's parameters,
    which are only read. Pearlmutter's R-operator (1994): each product is one
    R-forward and one R-backward pass over a forward and backward pass per
    phase cached here. ReLU'' = 0 almost everywhere, so the masks enter as
    constants, and R(input) = 0 drops the first layer's two products with it.

    The passes write into one workspace, allocated here and sized to the
    largest old phase, which each phase uses through its first rows; so a
    product allocates only the vector it returns, which the caller may keep.
    """
    layers = model.layers
    grad = np.empty_like(model.flat)  # the cached passes' gradients are not read
    cache = []
    for phase_set in old_sets:
        acts = model.forward(phase_set.features)
        _, dlogits = ce_with_offset(acts.logits, np.zeros(model.n_classes), phase_set.labels)
        deltas = model.backward(acts, dlogits, grad)
        probs = np.exp(log_softmax(acts.logits))
        # the products never read the first layer's delta or the logits
        cache.append((acts.inputs, acts.masks, deltas[1:], probs, 1.0 / phase_set.n))
    rows = max(s.n for s in old_sets)
    # per layer: R of its pre-activation, masked in place into R of the next
    # layer's input, and R of the loss gradient there. Each also holds a
    # product term while its own value is not yet or no longer read: r_g in
    # the R-forward pass, r_a in the R-backward pass
    r_a, r_g = ([np.empty((rows, w.shape[1])) for w, _ in layers] for _ in range(2))
    w_term = [np.empty_like(w) for w, _ in layers]
    b_term = [np.empty_like(b) for _, b in layers]
    row_sum = np.empty((rows, 1))

    def hvp(vec):
        out = np.zeros_like(vec)
        hv, dirs = model.views(out), model.views(vec)
        for inputs, masks, deltas, probs, scale in cache:
            n = probs.shape[0]
            for i, ((w, _), (dir_w, dir_b)) in enumerate(zip(layers, dirs)):
                a = r_a[i][:n]
                np.matmul(inputs[i], dir_w, out=a)
                a += dir_b
                if i > 0:
                    a += np.matmul(r_a[i - 1][:n], w, out=r_g[i][:n])
                if i < len(masks):
                    a *= masks[i]
            # R of the logit gradient (p - onehot) / n: the softmax Jacobian times R(z)
            g = r_g[-1][:n]
            np.multiply(probs, a, out=g)
            np.sum(g, axis=1, keepdims=True, out=row_sum[:n])
            np.subtract(a, row_sum[:n], out=g)
            g *= probs
            g *= scale
            for i, (hv_w, hv_b) in reversed(list(enumerate(hv))):
                g = r_g[i][:n]
                hv_w += np.matmul(inputs[i].T, g, out=w_term[i])
                hv_b += np.sum(g, axis=0, out=b_term[i])
                if i > 0:
                    hv_w += np.matmul(r_a[i - 1][:n].T, deltas[i - 1], out=w_term[i])
                    below = r_g[i - 1][:n]
                    np.matmul(g, layers[i][0].T, out=below)
                    below += np.matmul(deltas[i - 1], dirs[i][0].T, out=r_a[i - 1][:n])
                    below *= masks[i - 1]
        return out

    return hvp


def _old_phase_curvature(model, old_sets, seed=0):
    """Top eigenvalue of the summed old-phase Hessians at the model's
    parameters: Lanczos on exact Hessian-vector products, as a ``TopEigen``."""
    return hessian_top_eigen(_old_phase_hvp(model, old_sets), model.flat.size, seed=seed)


@dataclass
class RunResult:
    report: dict
    traces: list  # one StepTrace per phase


@dataclass(frozen=True)
class FirstPhase:
    """Phase 0 of a run on ``stream`` and the phase-1 curvature from its model.

    Phase 0 trains with plain cross-entropy, so every variant of a seed
    shares this record. ``run_experiment`` copies the model and the memory
    out of it and never changes it.
    """

    stream: PhaseStream
    config: object  # the run's settings, a config.ExperimentConfig
    model: Classifier
    memory: ExemplarMemory
    trace: StepTrace
    entry: dict  # the phase-0 report entry
    sigma_max: TopEigen | None  # phase 1's old-phase curvature estimate; None with one phase


def _run_phase(stream, t, model, memory, config, variant, sigma_max):
    """Train and close phase t of ``stream`` with the loss ``variant``.

    ``model`` and ``memory`` arrive as phase t-1 left them and are updated
    in place: the phase trains on its samples merged with the replayed
    exemplars (``train_phase`` grows the head), then stores its exemplars
    and builds its report entry. The entry holds the test accuracy over
    every class seen so far, overall and split into the old and the new
    classes, and from phase 1 on the destruction and the bound reports;
    ``sigma_max`` is the phase's old-phase curvature, taken when the
    previous phase closed. Returns the step trace, the entry and the next
    phase's curvature, taken at the model as phase t leaves it (None after
    the last phase). Evaluation runs first and, like the curvature pass,
    rejects a non-finite logit, so a model left non-finite ends in a
    ``DivergenceError``, not an entry."""
    data = merged_training_set(memory, stream.phases[t])
    trace = train_phase(model, data, config, t, variant)
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
        entry["destruction"] = destruction_report(trace.column("loss_old"), trace.column("epoch"))
        entry["bound"] = bound_report(
            entry["destruction"],
            trace.column("grad_total_sq"),
            trace.column("contrib_inner"),
            trace.column("batch_size"),
            config.lr,
            sigma_max,
        )
    return trace, entry, next_sigma_max


def first_phase(stream: PhaseStream, config) -> FirstPhase:
    """Train phase 0, fill the exemplar memory and take phase 1's curvature."""
    model = Classifier(stream.dim, config.hidden, stream.classes_through(0), rng_for(config.seed, INIT, 0))
    memory = ExemplarMemory(
        mode=config.memory_mode, budget=config.memory_budget, selection=config.memory_selection, seed=config.seed
    )
    trace, entry, sigma_max = _run_phase(stream, 0, model, memory, config, LOSS_CE, None)
    return FirstPhase(stream, config, model, memory, trace, entry, sigma_max)


def run_experiment(start: FirstPhase, variant) -> RunResult:
    """Continue ``start``, a run's first phase, on its stream and settings
    with the loss ``variant``, and assemble the machine-readable report.

    The run works on copies of the first phase's model and memory, which
    each later phase's ``_run_phase`` trains and closes in place; the model
    a phase inherits is its teacher.
    """
    if variant not in LOSS_VARIANTS:
        raise ValueError(f"unknown loss variant {variant!r}, expected one of {', '.join(LOSS_VARIANTS)}")
    stream, config = start.stream, start.config
    model = start.model.copy()
    memory = copy.deepcopy(start.memory)
    traces = [start.trace]
    phase_reports = [copy.deepcopy(start.entry)]
    sigma_max = start.sigma_max
    for t in range(1, stream.num_phases):
        trace, entry, sigma_max = _run_phase(stream, t, model, memory, config, variant, sigma_max)
        traces.append(trace)
        phase_reports.append(entry)
    avg, last = metrics([entry["accuracy"]["overall"] for entry in phase_reports])
    report = {
        "schema_version": 2,
        "variant": variant,
        "seed": config.seed,
        "phases": phase_reports,
        "avg": avg,
        "last": last,
        "memory": {str(k): v for k, v in memory.index_map().items()},
    }
    return RunResult(report=report, traces=traces)
