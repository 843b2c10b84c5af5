"""Heralded device-independent QKD with entangled coherent states.

Closed-form key rates under loss, dark counts, and misalignment; a
truncated-Fock-space oracle that re-derives the same statistics from the
full quantum model; and intensity-optimized rate-versus-distance sweeps
against the Bell-state baseline and the repeaterless capacity bound.
"""

from .fock import (
    CutoffError,
    HeraldProbabilities,
    TruncatedOpticalState,
    beamsplitter_apply,
    coherent_fock,
    misalignment_rotate,
    threshold_detect,
)
from .oracle import (
    CatStateDecomposition,
    VerificationReport,
    acceptance_grid,
    oracle_stats,
    verify_grid,
)
from .optimize import (
    MuOptimum,
    SweepConfig,
    SweepRow,
    find_crossover,
    optimize_mu,
    sweep,
)
from .params import DetectorStats, KeyRatePoint, ParameterError, ProtocolParams
from .rates import (
    bell_state_stats,
    binary_entropy,
    channel_efficiency,
    ecs_ideal_stats,
    ecs_lossy_stats,
    ecs_misaligned_stats,
    ecs_point,
    key_rate,
    plob_bound,
)

__all__ = [
    "CatStateDecomposition",
    "CutoffError",
    "DetectorStats",
    "HeraldProbabilities",
    "KeyRatePoint",
    "MuOptimum",
    "ParameterError",
    "ProtocolParams",
    "SweepConfig",
    "SweepRow",
    "TruncatedOpticalState",
    "VerificationReport",
    "acceptance_grid",
    "beamsplitter_apply",
    "bell_state_stats",
    "binary_entropy",
    "channel_efficiency",
    "coherent_fock",
    "ecs_ideal_stats",
    "ecs_lossy_stats",
    "ecs_misaligned_stats",
    "ecs_point",
    "find_crossover",
    "key_rate",
    "misalignment_rotate",
    "optimize_mu",
    "oracle_stats",
    "plob_bound",
    "sweep",
    "threshold_detect",
    "verify_grid",
]
