"""Desk-scale laboratory for memory-replay class-incremental learning.

Phase-protocol datasets, bounded exemplar replay, class-balancing logit
offsets with momentum-tracked training status, closed-form loss heads that
return their gradient at the logits, an incremental trainer over a numpy
ReLU classifier, and diagnostics for the destruction-reconstruction dynamics
of old knowledge. ``bdrlab.tensor`` is a small reverse-mode tape kept as the
independent reference for those gradients.
"""

from .balance import (
    ClassStats,
    DegenerateTrainingError,
    OffsetSchedule,
    bal_ce_loss,
    bdr_loss,
    ce_with_offset,
    class_priors,
    compensation,
    init_schedule,
    momentum_update,
    offsets,
    scalar_variance,
    weighted_ce,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config, serialize_config
from .data import (
    IdxFormatError,
    LabeledSet,
    PhaseStream,
    ProtocolError,
    load_idx,
    make_gaussian_mixture,
    make_rings,
    split_phases,
)
from .diagnostics import (
    TopEigen,
    cauchy_gap,
    f_max,
    hessian_top_eigen,
    metrics,
    old_loss_distribution,
)
from .memory import ExemplarMemory, MemoryConfigError, herding_select, merged_training_set
from .tensor import Tensor, finite_diff_check, matmul, relu, value_and_grad
from .training import (
    Classifier,
    DivergenceError,
    FirstPhase,
    TrainConfig,
    distill_loss,
    first_phase,
    run_experiment,
    train_phase,
)

__version__ = "0.1.0"
