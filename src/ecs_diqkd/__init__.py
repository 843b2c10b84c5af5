"""Heralded device-independent QKD with entangled coherent states.

Closed-form key rates under loss, dark counts, and misalignment; a
truncated-Fock-space oracle that re-derives the same statistics from the
full quantum model; and intensity-optimized rate-versus-distance sweeps
against the Bell-state baseline and the repeaterless capacity bound.

The closed forms and sweeps need only the standard library.  The Fock-space
names need numpy, so they are imported from :mod:`.fock` and :mod:`.oracle`
on first use.
"""

import importlib

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

# The Fock-space names and the module each lives in.
_LAZY = {
    "CutoffError": "fock",
    "beamsplitter_apply": "fock",
    "coherent_fock": "fock",
    "misalignment_rotate": "fock",
    "threshold_detect": "fock",
    "VerificationReport": "oracle",
    "acceptance_grid": "oracle",
    "cat_branch": "oracle",
    "oracle_stats": "oracle",
    "verify_grid": "oracle",
}


def __getattr__(name: str):
    """The Fock-space modules and names, imported (with numpy) when first asked for."""
    if name in ("fock", "oracle"):
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "CutoffError",
    "DetectorStats",
    "KeyRatePoint",
    "MuOptimum",
    "ParameterError",
    "ProtocolParams",
    "SweepConfig",
    "SweepRow",
    "VerificationReport",
    "acceptance_grid",
    "beamsplitter_apply",
    "bell_state_stats",
    "binary_entropy",
    "cat_branch",
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
