"""Validated parameter records and statistics containers shared by all modules.

Every record in the package is an immutable ``collections.namedtuple``
subclass.  One that validates does so in ``__new__``, which ``_replace`` and
``_make`` skip, so a changed record is rebuilt through its class.
"""

from __future__ import annotations

import math
from collections import namedtuple

# Algebraic ceiling of the CHSH combination (Tsirelson bound), with the slack
# we grant to floating-point results produced by the closed forms or oracle.
CHSH_MAX = 2.0 * math.sqrt(2.0)
CHSH_TOL = 1e-9

# Defaults of the oracle comparison (``verify``), here so the CLI can show
# them without importing the oracle and numpy.
DEFAULT_N_MAX = 30
DEFAULT_TOL = 1e-8
# Detector efficiency of the rejected literal e_zz reading that verify_grid
# adjudicates against; the reference operating point's eta_d.
DEFAULT_ETA_D_LITERAL = 0.8


class ParameterError(ValueError):
    """An input violates a documented precondition or invariant."""


def check_point(
    mu: float | None = None,
    eta: float | None = None,
    p_d: float | None = None,
    e_d: float | None = None,
    *,
    beta_db_per_km: float | None = None,
    distance_km: float | None = None,
    eta_name: str = "eta",
) -> None:
    """Reject a model input outside its range, NaN and inf included.

    The one statement of the six range rules, shared by the closed forms,
    the oracle, the Fock readout and the configs; ``None`` skips a rule.
    ``eta_name`` names the efficiency in the message: ``eta`` for an arm
    transmittance, ``eta_d`` for a detector efficiency.  A rejection of one
    input begins with that input's name, here and in ``fock.check_n_max``,
    ``oracle.verify_grid`` and ``SweepConfig``, so a caller can put
    its own name in its place, as the CLI puts the flag.
    """
    if beta_db_per_km is not None and not 0.0 <= beta_db_per_km < math.inf:
        raise ParameterError(f"beta_db_per_km must be finite and >= 0, got {beta_db_per_km}")
    if distance_km is not None and not 0.0 <= distance_km < math.inf:
        raise ParameterError(f"distance_km must be finite and >= 0, got {distance_km}")
    if mu is not None and not 0.0 < mu < math.inf:
        raise ParameterError(f"mu must be finite and > 0, got {mu}")
    if eta is not None and not 0.0 < eta <= 1.0:
        raise ParameterError(f"{eta_name} must be in (0, 1], got {eta}")
    if p_d is not None and not 0.0 <= p_d < 1.0:
        raise ParameterError(f"p_d must be in [0, 1), got {p_d}")
    if e_d is not None and not 0.0 <= e_d <= 0.5:
        raise ParameterError(f"e_d must be in [0, 0.5], got {e_d}")


def check_stats(q_zz: float, s: float, e_zz: float) -> None:
    """Reject a heralded-statistics triple outside its range.

    The one statement of the rules that :class:`DetectorStats` and the
    intensity search share: ``q_zz`` and ``e_zz`` in [0, 1], and ``|s|`` at
    most ``CHSH_MAX`` plus ``CHSH_TOL``.  Each rule is written so that NaN
    fails it.
    """
    if not 0.0 <= q_zz <= 1.0:
        raise ParameterError(f"q_zz must be in [0, 1], got {q_zz}")
    if not 0.0 <= e_zz <= 1.0:
        raise ParameterError(f"e_zz must be in [0, 1], got {e_zz}")
    if not abs(s) <= CHSH_MAX + CHSH_TOL:
        raise ParameterError(f"|s| exceeds 2*sqrt(2): {s}")


class ProtocolParams(namedtuple("ProtocolParams", "mu beta_db_per_km eta_d p_d e_d distance_km",
                                 defaults=(0.2, 0.8, 1e-7, 0.0, 0.0))):
    """Physical inputs of one protocol evaluation; every field a float.

    Attributes:
        mu: coherent-state intensity (mean photon number of each pulse), > 0.
        beta_db_per_km: fiber loss coefficient in dB/km, >= 0.
        eta_d: threshold-detector efficiency, in (0, 1].
        p_d: dark count probability per detector per gate, in [0, 1).
        e_d: optical misalignment error (1 - cos(delta0)) / 2, in [0, 0.5].
        distance_km: total separation between the two users; the central
            station sits midway, so each arm sees half of it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_point(self.mu, self.eta_d, self.p_d, self.e_d, beta_db_per_km=self.beta_db_per_km,
                    distance_km=self.distance_km, eta_name="eta_d")
        return self


class DetectorStats(namedtuple("DetectorStats", "q_zz s e_zz")):
    """Heralded statistics triple of floats: gain, CHSH value, and Z-basis error rate.

    `s` is a signed combination of correlators; it can legitimately fall
    below zero when dark counts dominate at extreme loss, so only the
    algebraic ceiling |s| <= 2*sqrt(2) is enforced here.
    """

    __slots__ = ()

    def __new__(cls, q_zz: float, s: float, e_zz: float):
        check_stats(q_zz, s, e_zz)
        return tuple.__new__(cls, (q_zz, s, e_zz))


class KeyRatePoint(namedtuple("KeyRatePoint", "rate stats params")):
    """Secret key rate per protocol trial together with its inputs."""

    __slots__ = ()

    def __new__(cls, rate: float, stats: DetectorStats, params: ProtocolParams):
        if rate < 0.0:
            raise ParameterError(f"rate must be clamped to >= 0, got {rate}")
        if rate > stats.q_zz + 1e-12:
            raise ParameterError(f"rate {rate} exceeds the heralded gain {stats.q_zz}")
        return tuple.__new__(cls, (rate, stats, params))
