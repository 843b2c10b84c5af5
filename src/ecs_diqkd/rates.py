"""Closed-form heralded statistics, key rate, baseline, and capacity bound.

Every function here is a pure function of its arguments.  The heralded
statistics take the per-arm transmittance ``eta`` directly (i.e. after
:func:`channel_efficiency`), so tests can probe the detector model
independently of the fiber geometry.

Exponentials are arranged in expm1/log1p form wherever two nearly equal
terms would otherwise cancel: dark count probabilities sit seven orders of
magnitude below one, and the raw expressions lose most of their digits at
small ``mu * eta``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .params import DetectorStats, KeyRatePoint, ParameterError, ProtocolParams, check_point

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy in bits; the limits at 0 and 1 return exactly 0."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"binary_entropy argument must be in [0, 1], got {x}")
    return _entropy(x)


def _entropy(x: float) -> float:
    """:func:`binary_entropy` for an ``x`` the caller knows lies in [0, 1]."""
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log1p(-x) / _LN2)


def key_rate(stats: DetectorStats) -> float:
    """Secret key rate per trial from the heralded statistics.

    No CHSH violation (s <= 2) means no extractable key, and the square
    root is never evaluated there.  A negative bracket means "abort", not
    negative bits, so the result is clamped to zero.
    """
    if stats.s <= 2.0:
        return 0.0
    q_zz, s, e_zz = stats
    margin = key_rate_margin(q_zz, s, e_zz)
    return margin if margin > 0.0 else 0.0


def key_rate_margin(q_zz: float, s: float, e_zz: float) -> float:
    """q_zz times the rate bracket 1 - h(e_zz) - h(x), before the clamp.

    Defined for s > 2 and a triple that passes :func:`params.check_stats`,
    which the caller guarantees.  Negative where the protocol aborts, and
    never below -1, since q_zz <= 1 and each entropy is at most 1.
    """
    # s > 2 puts x above 1/2; s may carry the permitted 1e-9 slack above
    # 2*sqrt(2), so clamp x back to at most 1.
    x = 0.5 * (1.0 + math.sqrt((s / 2.0) ** 2 - 1.0))
    if x > 1.0:
        x = 1.0
    return q_zz * (1.0 - _entropy(e_zz) - _entropy(x))


def channel_efficiency(distance_km: float, beta_db_per_km: float, eta_d: float) -> float:
    """Per-arm transmittance: detector efficiency times half-distance fiber loss.

    The central station sits midway between the users, so each optical pulse
    travels ``distance_km / 2``.
    """
    check_point(eta=eta_d, beta_db_per_km=beta_db_per_km, distance_km=distance_km,
                eta_name="eta_d")
    return _fiber_transmittance(distance_km / 2.0, beta_db_per_km, eta_d)


def _fiber_transmittance(length_km: float, beta_db_per_km: float, eta_d: float) -> float:
    """``eta_d`` times the loss of ``length_km`` of fiber; callers check the inputs."""
    return eta_d * 10.0 ** (-beta_db_per_km * length_km / 10.0)


def ecs_ideal_stats(mu: float) -> DetectorStats:
    """Heralded statistics for lossless arms and ideal threshold detectors."""
    check_point(mu)
    q_zz = -math.expm1(-2.0 * mu)
    s = _SQRT2 * (1.0 + math.exp(-2.0 * mu))
    return DetectorStats(q_zz=q_zz, s=s, e_zz=0.0)


def ecs_lossy_stats(mu: float, eta: float, p_d: float) -> DetectorStats:
    """Heralded statistics with arm transmittance ``eta`` and dark counts.

    The raw expressions
        Q_zz = (1-p_d) [1 - (1-2 p_d) e^(-2 mu eta)]
        S    = 2 sqrt(2) {sinh(2 mu) - cosh[2 mu (1-eta)]
               + (1-p_d) e^(-2 mu (1-eta))} / [e^(2 mu) - (1-2 p_d) e^(2 mu (1-eta))]
        e_zz = p_d e^(2 mu (1-eta)) / [e^(2 mu) - (1-2 p_d) e^(2 mu (1-eta))]
    are those of :func:`ecs_misaligned_stats` at ``e_d = 0``, which evaluates them.
    """
    return ecs_misaligned_stats(mu, eta, p_d, 0.0)


def ecs_misaligned_stats(mu: float, eta: float, p_d: float, e_d: float) -> DetectorStats:
    """Heralded statistics with loss, dark counts, and misalignment ``e_d``.

    Equivalent rearrangement of the raw expressions
        Q_zz = (1-p_d) [e^(-2 mu eta e_d) + e^(2 mu (-eta + eta e_d))
               - 2 (1-p_d) e^(-2 mu eta)]
        S    = sqrt(2) w / [e^(2 mu (1-eta e_d)) + e^(2 mu (1-eta+eta e_d))
               - 2 (1-p_d) e^(2 mu (1-eta))]
        w    = 2 sinh[2 mu (1-eta e_d)] - 2 cosh[2 mu (1-eta+eta e_d)]
               + 2 (1-p_d) e^(-2 mu (1-eta))
        e_zz = [e^(2 mu (1-eta+eta e_d)) - (1-p_d) e^(2 mu (1-eta))] / [same denom]
    in cancellation-free form.  The e_zz numerator uses eta throughout: at
    e_d = 0 these are the lossy expressions, so :func:`ecs_lossy_stats` is
    this function there, and the Fock-space oracle confirms this reading
    (see the verify command).
    """
    check_point(mu, eta, p_d, e_d)
    (triple,) = _ecs_misaligned((mu,), eta, p_d, e_d)
    return DetectorStats(*triple)


def _ecs_misaligned(
    mus: Sequence[float], eta: float, p_d: float, e_d: float
) -> list[tuple[float, float, float]]:
    """The ``(q_zz, s, e_zz)`` of :func:`ecs_misaligned_stats` at each of ``mus``, unchecked.

    One row ``(eta, p_d, e_d)``, many intensities: the one implementation
    of the misaligned closed form.  Each triple is bit-identical to the
    scalar expression, since the loop does its floating-point operations in
    its order.  The caller checks the inputs with ``check_point`` and the
    triples with ``check_stats``.
    """
    # Row constants, hoisted unchanged: the same operation on the same
    # operands rounds the same way wherever it is done.
    bright = 1.0 - e_d
    two_p_d = 2.0 * p_d
    kept = 1.0 - p_d
    two_minus_eta = 2.0 - eta
    lost = 1.0 - eta
    tilt = 1.0 - 2.0 * e_d
    triples = []
    for mu in mus:
        # m2, me2 and a are the scalar form's 2.0*mu, 2.0*mu*eta and
        # 2.0*mu*(1.0 - eta), rounded left to right as there.  Their negations
        # are exact too, since IEEE rounding is sign-symmetric: -2.0*mu*eta,
        # parsed (-2.0*mu)*eta, is -me2, and -2.0*mu*(1.0 - eta) is -a.
        # mu*eta*tilt stays as written: me2 / 2 can differ from mu*eta where
        # that product is subnormal.
        m2 = 2.0 * mu
        me2 = m2 * eta
        a = m2 * lost
        x_dim = me2 * e_d        # intensity routed to the dim port
        x_bright = me2 * bright  # intensity routed to the bright port
        dim = math.expm1(x_dim)
        bracket = dim + math.expm1(x_bright) + two_p_d
        if bracket <= 0.0:
            raise ParameterError("degenerate denominator in misaligned statistics")
        q_zz = kept * math.exp(-me2) * bracket
        w = (
            4.0 * math.cosh(mu * two_minus_eta) * math.sinh(mu * eta * tilt)
            - 2.0 * math.exp(-a) * (math.expm1(-x_dim) + p_d)
        )
        s = _SQRT2 * w / (math.exp(a) * bracket)
        triples.append((q_zz, s, (dim + p_d) / bracket))
    return triples


def bell_state_stats(eta: float, p_d: float) -> DetectorStats:
    """Heralded statistics of the two-photon Bell-state-measurement baseline."""
    check_point(eta=eta, p_d=p_d)
    q_zz = (1.0 - p_d) ** 2 * (
        eta**2 / 2.0 + (4.0 * eta - 3.0 * eta**2) * p_d + 4.0 * (1.0 - eta) ** 2 * p_d**2
    )
    denom = (
        8.0 * eta * (1.0 - 2.0 * p_d) * p_d
        + 8.0 * p_d**2
        + eta**2 * (1.0 - 6.0 * p_d + 8.0 * p_d**2)
    )
    if denom == 0.0:
        raise ParameterError("degenerate denominator in Bell-state statistics")
    s = 2.0 * _SQRT2 * eta**2 * (1.0 - p_d) / denom
    e_zz = 0.5 * (1.0 - eta**2 * (1.0 - 2.0 * p_d) / denom)
    return DetectorStats(q_zz=q_zz, s=s, e_zz=e_zz)


def plob_bound(distance_km: float, beta_db_per_km: float, eta_d: float) -> float:
    """Repeaterless secret-key capacity -log2(1 - eta_AB) of the full path.

    Unlike :func:`channel_efficiency` there is no midpoint halving: the bound
    applies to the end-to-end transmittance between the two users.
    """
    check_point(eta=eta_d, beta_db_per_km=beta_db_per_km, distance_km=distance_km,
                eta_name="eta_d")
    eta_ab = _fiber_transmittance(distance_km, beta_db_per_km, eta_d)
    if eta_ab >= 1.0:
        raise ParameterError("capacity bound diverges at unit transmittance")
    return -math.log1p(-eta_ab) / _LN2


def ecs_point(params: ProtocolParams) -> KeyRatePoint:
    """Evaluate the full pipeline at one parameter record."""
    eta = channel_efficiency(params.distance_km, params.beta_db_per_km, params.eta_d)
    stats = ecs_misaligned_stats(params.mu, eta, params.p_d, params.e_d)
    return KeyRatePoint(rate=key_rate(stats), stats=stats, params=params)
