"""Intensity optimization, distance sweeps, and crossover location."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import DetectorStats, ParameterError, check_point
from .rates import (
    _fiber_transmittance,
    bell_state_stats,
    channel_efficiency,
    ecs_misaligned_stats,
    key_rate,
    key_rate_margin,
    plob_bound,
)

PROTOCOLS = ("ecs", "bell", "plob")
MU_SEARCH_BOUNDS = (1e-4, 1.0)
SEED_GRID_SIZE = 200
# Bracket refinement tolerance in mu; far tighter than the audit-grid
# guarantee so the certified maximum is met with slack.
GOLDEN_XTOL = 1e-9
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Largest distance grid a SweepConfig accepts.  An optimized row costs about
# 1.4 ms, so a grid this size takes a few minutes; a tiny step over a long
# range would otherwise run for hours or days.
MAX_SWEEP_ROWS = 100_000


@dataclass(frozen=True)
class MuOptimum:
    """Result of the one-dimensional intensity search.

    ``flagged`` marks the degenerate case where the rate vanished over the
    whole search interval; ``mu_star`` is then the interval midpoint.
    ``mu_star`` and ``rate_star`` are plain floats.
    """

    mu_star: float
    rate_star: float
    flagged: bool = False


@dataclass(frozen=True)
class SweepConfig:
    """Distance grid plus the channel parameters shared by every row.

    ``mu = None`` optimizes the intensity at each distance; a number fixes it.
    Construction is the one validation of these inputs: every number must be
    finite and in range, the grid must hold at most ``MAX_SWEEP_ROWS``, and
    the ecs and bell rates need a transmittance above 0 at ``l_max_km``.
    """

    l_min_km: float = 0.0
    l_max_km: float = 600.0
    l_step_km: float = 5.0
    beta_db_per_km: float = 0.2
    eta_d: float = 0.8
    p_d: float = 1e-7
    e_d: float = 0.0
    mu: float | None = None
    protocols: tuple[str, ...] = PROTOCOLS

    def __post_init__(self) -> None:
        check_point(self.mu, self.eta_d, self.p_d, self.e_d,
                    beta_db_per_km=self.beta_db_per_km, eta_name="eta_d")
        for name in ("l_min_km", "l_max_km", "l_step_km"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.l_min_km > self.l_max_km:
            raise ParameterError("l_min_km must not exceed l_max_km")
        if self.l_min_km < 0.0:
            raise ParameterError("l_min_km must be >= 0")
        if not self.l_step_km > 0.0:
            raise ParameterError("l_step_km must be > 0")
        if (self.l_max_km - self.l_min_km) / self.l_step_km + 1e-9 >= MAX_SWEEP_ROWS:
            raise ParameterError(
                f"the distance grid exceeds {MAX_SWEEP_ROWS} rows; widen l_step_km "
                "or narrow the range"
            )
        if not self.protocols:
            raise ParameterError("protocol set must not be empty")
        unknown = set(self.protocols) - set(PROTOCOLS)
        if unknown:
            raise ParameterError(f"unknown protocols: {sorted(unknown)}")
        # channel_efficiency at l_max_km, through its private helper so that
        # calls of the public function still count row evaluations only.
        eta_far = _fiber_transmittance(self.l_max_km / 2.0, self.beta_db_per_km, self.eta_d)
        if eta_far == 0.0 and {"ecs", "bell"} & set(self.protocols):
            raise ParameterError(f"the arm transmittance underflows to 0 at {self.l_max_km} "
                                 "km; the ecs and bell rates need a shorter distance")


@dataclass(frozen=True)
class SweepRow:
    """One distance point; fields are None for protocols not requested."""

    distance_km: float
    mu: float | None = None
    q_zz: float | None = None
    s: float | None = None
    e_zz: float | None = None
    rate_ecs: float | None = None
    rate_bell: float | None = None
    rate_plob: float | None = None
    flagged: bool = False


def _signed_rate(stats: DetectorStats) -> float:
    """Key rate before its clamp, continued below the CHSH threshold.

    Where s > 2 this is :func:`key_rate_margin`, at least -1; where s <= 2 it
    is -1 - (2 - s), below every margin and still falling as s falls, so a
    bracket that straddles s = 2 stays unimodal.
    """
    if stats.s > 2.0:
        return key_rate_margin(stats)
    return -1.0 - (2.0 - stats.s)


def _golden_max(objective, seeds: np.ndarray, best: int, best_value: float) -> tuple[float, float]:
    """Golden-section refinement of the seed bracket around ``seeds[best]``.

    Returns the best (mu, value) ever evaluated, the seed included.
    """
    a = seeds[max(best - 1, 0)]
    b = seeds[min(best + 1, len(seeds) - 1)]
    best_mu, best_value = float(seeds[best]), best_value
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > GOLDEN_XTOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)
        if fc > best_value:
            best_mu, best_value = c, fc
        if fd > best_value:
            best_mu, best_value = d, fd
    return float(best_mu), best_value


def optimize_mu(
    distance_km: float,
    beta_db_per_km: float,
    eta_d: float,
    p_d: float,
    e_d: float,
) -> MuOptimum:
    """Maximize the key rate over the intensity at one distance.

    A 200-point log-spaced seed grid picks the best basin (defending against
    multimodality), then golden-section refinement narrows the surrounding
    bracket; the best point ever evaluated is returned, so the result can
    never fall below the seed grid.

    Both steps score :func:`_signed_rate`, which equals :func:`key_rate`
    wherever either is positive and keeps falling where the rate is clamped
    to 0, so a positive window narrower than one seed cell, as where the
    rate falls to zero with distance, is still found.
    """
    eta = channel_efficiency(distance_km, beta_db_per_km, eta_d)

    def stats_at(mu: float) -> DetectorStats:
        return ecs_misaligned_stats(mu, eta, p_d, e_d)

    lo, hi = MU_SEARCH_BOUNDS
    seeds = np.geomspace(lo, hi, SEED_GRID_SIZE)
    seed_stats = [stats_at(m) for m in seeds]
    if any(stats.s > 2.0 for stats in seed_stats):
        signed = [_signed_rate(stats) for stats in seed_stats]
        best = int(np.argmax(signed))
        mu, rate = _golden_max(lambda m: _signed_rate(stats_at(m)), seeds, best, signed[best])
        if rate > 0.0:
            return MuOptimum(mu_star=mu, rate_star=rate, flagged=False)
    return MuOptimum(mu_star=0.5 * (lo + hi), rate_star=0.0, flagged=True)


def sweep_distances(config: SweepConfig) -> list[float]:
    """The inclusive distance grid, built by index to avoid drift."""
    span = config.l_max_km - config.l_min_km
    count = int(math.floor(span / config.l_step_km + 1e-9)) + 1
    return [config.l_min_km + i * config.l_step_km for i in range(count)]


def sweep_row(config: SweepConfig, distance_km: float) -> SweepRow:
    """Every requested protocol's rate at one distance: the one rate dispatch.

    The ECS fields come from one evaluation of the statistics at ``mu``,
    fixed or optimized; ``rate_ecs`` equals the optimizer's ``rate_star``.
    """
    eta = channel_efficiency(distance_km, config.beta_db_per_km, config.eta_d)
    mu = q_zz = s = e_zz = rate_ecs = rate_bell = rate_plob = None
    flagged = False
    if "ecs" in config.protocols:
        mu = config.mu
        if mu is None:
            optimum = optimize_mu(
                distance_km, config.beta_db_per_km, config.eta_d, config.p_d, config.e_d
            )
            mu, flagged = optimum.mu_star, optimum.flagged
        stats = ecs_misaligned_stats(mu, eta, config.p_d, config.e_d)
        q_zz, s, e_zz, rate_ecs = stats.q_zz, stats.s, stats.e_zz, key_rate(stats)
    if "bell" in config.protocols:
        rate_bell = key_rate(bell_state_stats(eta, config.p_d))
    if "plob" in config.protocols:
        rate_plob = plob_bound(distance_km, config.beta_db_per_km, config.eta_d)
    return SweepRow(
        distance_km=distance_km,
        mu=mu,
        q_zz=q_zz,
        s=s,
        e_zz=e_zz,
        rate_ecs=rate_ecs,
        rate_bell=rate_bell,
        rate_plob=rate_plob,
        flagged=flagged,
    )


def sweep(config: SweepConfig, jobs: int = 1) -> list[SweepRow]:
    """Evaluate every grid distance; rows are returned ordered by distance.

    ``jobs`` is accepted for older callers and ignored: rows are evaluated
    in this process.
    """
    return [sweep_row(config, distance) for distance in sweep_distances(config)]


def find_crossover(
    protocol_pair: tuple[str, str],
    config: SweepConfig,
    bracket: tuple[float, float],
) -> float | None:
    """Distance where the rate difference changes sign, to +-0.5 km.

    A coarse scan locates the first strict sign change inside the bracket
    (both rates can be identically zero at an endpoint, e.g. past every
    cutoff distance), then bisection narrows it.  Returns None when the
    difference never changes sign, including a protocol against itself.
    """
    first, second = protocol_pair
    lo, hi = bracket
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi or lo < 0.0:
        raise ParameterError(f"invalid bracket {bracket}")
    pair_config = replace(config, protocols=(first, second))

    def diff(distance_km: float) -> float:
        row = sweep_row(pair_config, distance_km)
        return getattr(row, f"rate_{first}") - getattr(row, f"rate_{second}")

    # Plain floats, so an overflow raises as it does everywhere else rather
    # than warning from numpy scalar arithmetic.
    grid = np.linspace(lo, hi, 65).tolist()
    values = [diff(distance) for distance in grid]
    for i in range(len(grid) - 1):
        if values[i] == 0.0 or (values[i] > 0.0) != (values[i + 1] > 0.0):
            break
    else:
        return None
    if values[i] == 0.0:
        # A zero grid value with a nonzero neighbour still brackets the
        # change; without one there is nothing to locate.
        if values[i + 1] == 0.0:
            return None
        return grid[i]
    lo, f_lo = grid[i], values[i]
    hi = grid[i + 1]
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        f_mid = diff(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
