"""Desk-scale laboratory for memory-replay class-incremental learning.

A minimal autodiff engine, phase-protocol datasets, bounded exemplar replay,
class-balancing logit offsets with momentum-tracked training status, an
incremental trainer, and diagnostics for the destruction-reconstruction
dynamics of old knowledge.
"""

from .balance import (
    ClassStats,
    OffsetSchedule,
    bal_ce_loss,
    bdr_loss,
    class_priors,
    compensation,
    init_schedule,
    balanced_risk_equivalence,
    momentum_update,
    offsets,
    scalar_variance,
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
    BoundReport,
    DestructionReport,
    cauchy_check,
    f_max,
    hessian_top_eigen,
    metrics,
    old_loss_distribution,
)
from .memory import ExemplarMemory, MemoryConfigError, herding_select, merged_training_set
from .tensor import Tensor, ce_with_offset, finite_diff_check, matmul, relu
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
