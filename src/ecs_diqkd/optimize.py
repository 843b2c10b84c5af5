"""Intensity optimization, distance sweeps, and crossover location."""

from __future__ import annotations

import math
import struct
import sys
from collections import namedtuple

from .params import ParameterError, check_point, check_stats
from .rates import (
    _ecs_misaligned,
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
# The 200 log-spaced seeds of the intensity search, frozen as packed
# little-endian float64: the hex that
# np.geomspace(*MU_SEARCH_BOUNDS, 200).astype("<f8").tobytes().hex() printed
# under numpy 2.4.6.  Python's 10.0 ** y rounds 17 of them one ulp away from
# numpy's power, and the printed optimum depends on the exact seeds, so they
# are stored rather than computed.
SEEDS: tuple[float, ...] = struct.unpack("<200d", bytes.fromhex(
    "2d431cebe2361a3fd4385c80c9741b3fc0781d40bfc11c3f57c3c7c97a1e1e3fedcb6a63bb8b1f3f379f53b1"
    "2485203f9001484d7b4d213f370260674f1f223f0acbf11514fb223f64cdfbe241e1233f04d3410e57d2243f"
    "9fd08bd2d7ce253fa3742cae4ed7263fa939f7ae4cec273f9aa6cfc1690e293f275ffd05453e2a3f71b97224"
    "857c2b3ff1b635abd8c92c3fc2831d6df6262e3f94ff18e69d942f3fc7a71ad2cb89303f4d0acfda5a52313f"
    "80cde90d6a24323f441a2ba26c00333f5a768443dbe6333f3174485534d8343f32067d37fcd4353fb57a768f"
    "bddd363f6cf3e29309f3373fe70d705c7815393f2d6c3635a9453a3f21df18f642843b3f371e475ef4d13c3f"
    "d43d1674742f3e3f467663e9829d3f3f16255c42748e403f06dcb4c73b57413f6e6e77248629423f5525d7af"
    "c605433fba2ac23776ec433f72dd234313de443fe1aa4a5722db453fb77d97402ee4463f63a09e5ec8f9473f"
    "55d4e3f3881c493f2c595d790f4d4a3f09b3ebf5028c4b3f1628f65912da4c3fa5355edff4374e3f319dfe6d"
    "6aa64f3fba9376021e93503f266d5c141e5c513f8b8b70aba32e523fbe7b623f220b533f7b9e26c012f2533f"
    "a7254bd8f3e3543fc17971324ae1553f562112c2a0ea563f7d14b30f8900583f1349ba889b23593f483f08d3"
    "77545a3f8b6a8824c5935b3f647ce79e32e25c3fd2dfa1af77405e3f3d149f7454af5f3fe48ac812c997603f"
    "f9cf28c10161613f91e83ca3c233623f92cb39517f10633faba523ddb0f7633f3d853515d6e9643f04516ec9"
    "73e7653f0c2e691415f1663f334aa9a74b07683fc0e3821bb02a693fed61cd42e25b6a3f50678c82899b6b3f"
    "59f1bf2d55ea6c3f90e18de5fc486e3f48aef9fd40b86f3f6ebcb073759c703fb2327dcee665713f7466440c"
    "e338723f86e1c9e5dd15733f61342b8f50fd733f35565afab9ef743f0b32be1c9fed753f26911f388bf7763f"
    "98620a27100e783f6044cdacc631793fd82e43c94e637a3f5337951050a37b3f998b24077af27c3f9d10cf81"
    "84517e3f1971c30a30c17f3fd8f48d2523a1803f72dfbc3ccd6a813f6b03efe6043e823fe4a87ffd3d1b833f"
    "cf5eafd6f102843f2b1431889ff5843f6841de2cccf3853fd25cb82d03fe863f4aa55f8ed614883f6833293d"
    "df38893f263e0067bd6a8a3fef9440cf18ab8b3f417eba2ba1fa8c3f7f7312850e5a8e3f7195b19b21ca8f3f"
    "5f1bbf28d2a5903f533c4b0cb56f913ff6daa4332843923fb32bc8989f20933f465922b49408943f6c5c31bf"
    "86fb943ff1c64bfafaf9953f2ac8b6f57c04973fa88032de9e1b983fcda126cdf93f993f65529b1c2e729a3f"
    "ec662cbfe3b29b3ff62a279cca029d3f6c4105f09a629e3f1b8779b115d39f3fe831a37d82aaa03f6bcb8b3d"
    "9e74a13fe725cef24c48a23faa9210b80226a33f4078f627390ea43fdfedd29f6f01a53fc02d84852b00a63f"
    "3b2f9e90f80aa73fbb890c176922a83f0ea9555d1647a93f8258abeaa079aa3f8cc0f6e0b0baab3ff2211059"
    "f60aad3f65e254c3296bae3ffbe4d04c0cdcaf3f2c55992434afb03fd92ae2d08879b13f6b3ad324734db23f"
    "4025c65b672bb33f6e309e32df13b43f3ba98d2a5a07b53f460405cf5d06b63f1313f2fe7511b73f517c7739"
    "3529b83f418b46ee344eb93f0268c7d11581ba3f9de13d3580c2bb3f10221b632413bd3f42efaeffba73be3f"
    "1e816d6e05e5bf3fa6bc001ee7b3c03fce14b2c6747ec13f138c1cca9a52c23fb2495684cd30c33fbb168cd4"
    "8619c43ff290d95f460dc53f54fc4bd7910cc63fc6193641f517c73ffe3afd450330c83f1ab389805555c93f"
    "f2c286d28c88ca3f6936a0bc51cacb3fd918eeba541bcd3fc031c1a54e7cce3fc460051701eecf3fa6ba386a"
    "9bb8d03f855f5f1f6283d13fdaab12e3c357d23f0d852e323536d33f58e0320e301fd43f42c92e403413d53f"
    "11ebd69ec712d63f810eee57761ed73f2fcf273dd336d83ffeb3af14785cd93ff8d580ed0590da3fed57bc77"
    "25d2db3f93222f618723dd3f8da439b6e484de3f72bc4e47fff6df3f52bca00951bde03f64fd4ddb5088e13f"
    "2e481e70ee5ce23f377bbc659e3be33fc66205e0da24e43f439805cc2319e53f27c92326ff18e63f8ce19d43"
    "f924e73f3069811fa53de83f084a49ab9c63e93f61384d238197ea3fcc0b3167fbd9eb3f528a8456bc2bed3f"
    "5873c6317d8dee3f000000000000f03f"
))
# Bracket refinement tolerance in mu; far tighter than the audit-grid
# guarantee so the certified maximum is met with slack.
GOLDEN_XTOL = 1e-9
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Largest distance grid a SweepConfig accepts.  An optimized row costs about
# 0.32 ms (one core of a 2-vCPU Xeon VM), so a grid this size takes about
# half a minute; a tiny step over a long range would otherwise run for hours
# or days.
MAX_SWEEP_ROWS = 100_000


class MuOptimum(namedtuple("MuOptimum", "mu_star rate_star flagged", defaults=(False,))):
    """Result of the one-dimensional intensity search.

    ``flagged`` marks the degenerate case where the rate vanished over the
    whole search interval; ``mu_star`` is then the interval midpoint.
    ``mu_star`` and ``rate_star`` are plain floats.
    """

    __slots__ = ()


class SweepConfig(namedtuple(
    "SweepConfig", "l_min_km l_max_km l_step_km beta_db_per_km eta_d p_d e_d mu protocols",
    defaults=(0.0, 600.0, 5.0, 0.2, 0.8, 1e-7, 0.0, None, PROTOCOLS),
)):
    """Distance grid plus the channel parameters shared by every row.

    ``protocols`` is a tuple of names from ``PROTOCOLS`` and the other fields
    are floats; ``mu = None`` optimizes the intensity at each distance, a
    number fixes it.  Construction is the one validation of these inputs:
    every number must be finite and in range, the grid must hold at most
    ``MAX_SWEEP_ROWS``, the ecs and bell rates need a transmittance above 0
    at ``l_max_km``, and the bell rate, which squares it, needs that square
    to be a normal float.  The defaults are in ``SweepConfig._field_defaults``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_point(self.mu, self.eta_d, self.p_d, self.e_d,
                    beta_db_per_km=self.beta_db_per_km, eta_name="eta_d")
        for name in ("l_min_km", "l_max_km", "l_step_km"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.l_min_km > self.l_max_km:
            raise ParameterError(f"l_min_km must not exceed {self.l_max_km}, got {self.l_min_km}")
        if self.l_min_km < 0.0:
            raise ParameterError(f"l_min_km must be >= 0, got {self.l_min_km}")
        if not self.l_step_km > 0.0:
            raise ParameterError(f"l_step_km must be > 0, got {self.l_step_km}")
        if (self.l_max_km - self.l_min_km) / self.l_step_km + 1e-9 >= MAX_SWEEP_ROWS:
            raise ParameterError(
                f"the distance grid exceeds {MAX_SWEEP_ROWS} rows; use a larger step "
                "or a shorter range"
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
        if eta_far**2 < sys.float_info.min and "bell" in self.protocols:
            raise ParameterError(f"the squared arm transmittance underflows at {self.l_max_km} "
                                 "km; the bell rate needs a shorter distance")
        return self


class SweepRow(namedtuple(
    "SweepRow", "distance_km mu q_zz s e_zz rate_ecs rate_bell rate_plob flagged",
    defaults=(None, None, None, None, None, None, None, False),
)):
    """One distance point: float fields, None for protocols not requested."""

    __slots__ = ()


def _signed_rates(triples: list[tuple[float, float, float]]) -> list[float]:
    """Each triple's key rate before its clamp, continued below the CHSH threshold.

    Each triple first passes :func:`params.check_stats`, as a
    :class:`DetectorStats` would.  Where s > 2 the value is
    :func:`key_rate_margin`, at least -1; where s <= 2 it is -1 - (2 - s),
    below every margin and still falling as s falls, so a bracket that
    straddles s = 2 stays unimodal.
    """
    values = []
    for q_zz, s, e_zz in triples:
        check_stats(q_zz, s, e_zz)
        values.append(key_rate_margin(q_zz, s, e_zz) if s > 2.0 else -1.0 - (2.0 - s))
    return values


def _golden_max(objective, best: int, best_value: float) -> tuple[float, float]:
    """Golden-section refinement of the seed bracket around ``SEEDS[best]``.

    Returns the best (mu, value) ever evaluated, the seed included.
    """
    a = SEEDS[max(best - 1, 0)]
    b = SEEDS[min(best + 1, len(SEEDS) - 1)]
    best_mu = SEEDS[best]
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
    return best_mu, best_value


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

    Both steps score through :func:`_signed_rates`, the seeds in one call
    and each probe in its own, on the triples of one list-taking kernel.
    The score equals :func:`key_rate` wherever either is positive and keeps
    falling where the rate is clamped to 0, so a positive window narrower
    than one seed cell, as where the rate falls to zero with distance, is
    still found.

    Inputs are checked once per search, not per evaluation:
    :func:`channel_efficiency` checks the distance, loss and detector
    efficiency, then ``check_point`` the arm transmittance, ``p_d`` and
    ``e_d``, in the order and with the messages of
    :func:`ecs_misaligned_stats`.  Each scored ``(q_zz, s, e_zz)`` passes
    :func:`params.check_stats`, as a :class:`DetectorStats` would.
    """
    eta = channel_efficiency(distance_km, beta_db_per_km, eta_d)
    check_point(eta=eta, p_d=p_d, e_d=e_d)

    seed_stats = _ecs_misaligned(SEEDS, eta, p_d, e_d)
    signed = _signed_rates(seed_stats)
    if any(s > 2.0 for _, s, _ in seed_stats):
        best = signed.index(max(signed))  # the first maximum, as np.argmax picks
        mu, rate = _golden_max(
            lambda m: _signed_rates(_ecs_misaligned((m,), eta, p_d, e_d))[0],
            best, signed[best],
        )
        if rate > 0.0:
            return MuOptimum(mu_star=mu, rate_star=rate, flagged=False)
    lo, hi = MU_SEARCH_BOUNDS
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
    # Through the class, not _replace alone, so the pair is checked.
    pair_config = SweepConfig(*config._replace(protocols=(first, second)))

    def diff(distance_km: float) -> float:
        row = sweep_row(pair_config, distance_km)
        return getattr(row, f"rate_{first}") - getattr(row, f"rate_{second}")

    # np.linspace(lo, hi, 65) by numpy's recipe, with its branch for a step
    # that underflows to 0.  Plain floats, so an overflow raises as it does
    # everywhere else.
    delta = hi - lo
    step = delta / 64
    grid = [(i * step if step else i / 64 * delta) + lo for i in range(64)] + [hi]
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
