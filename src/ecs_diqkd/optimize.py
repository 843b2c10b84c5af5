"""Intensity optimization, distance sweeps, and crossover location."""

from __future__ import annotations

import math
import struct
import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence

from .params import ParameterError, check_point, check_stats
from .rates import (
    _ecs_misaligned,
    _fiber_transmittance,
    _signed_rate,
    bell_state_stats,
    channel_efficiency,
    ecs_misaligned_stats,
    key_rate,
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
# Largest distance grid a SweepConfig accepts.  A row that runs the
# intensity search costs about 0.35 ms, and one past the CHSH horizon about
# 12 us (one core of a 2-vCPU Xeon VM), so a grid this size takes under a
# minute; a tiny step over a long range would otherwise run for hours or
# days.
MAX_SWEEP_ROWS = 100_000


class MuOptimum(namedtuple("MuOptimum", "mu_star rate_star flagged", defaults=(False,))):
    """Result of the one-dimensional intensity search.

    ``flagged`` marks the degenerate case where the rate vanished over the
    whole search interval; ``mu_star`` is then the interval midpoint.  A
    sweep row past the CHSH horizon gets this placeholder without a search
    (see :func:`sweep`).  ``mu_star`` and ``rate_star`` are plain floats.
    """

    __slots__ = ()


_PLACEHOLDER = MuOptimum(mu_star=0.5 * (MU_SEARCH_BOUNDS[0] + MU_SEARCH_BOUNDS[1]),
                         rate_star=0.0, flagged=True)
# The CHSH horizon of a sweep (see _walk): how far below s = 2 a row's best
# seed must lie, above twice the kernel's rounding in s, and the least arm
# transmittance at which that rounding bound holds.
_HORIZON_MARGIN = 1e-12
_HORIZON_ETA_MIN = 1e-290
# The seed screen (see _screen): seeds per block of its walk down from
# mu = 1, a divisor of the 200 seeds, and the relative slack of its gain
# bound, far above the rounding that bound must cover.
_SCREEN_BLOCK = 10
_GAIN_SLACK = 1e-12


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
    "SweepRow",
    "distance_km mu q_zz s e_zz rate_ecs rate_bell rate_plob flagged bell_q_zz bell_s bell_e_zz",
    defaults=(None, None, None, None, None, None, None, False, None, None, None),
)):
    """One distance point: float fields, None for protocols not requested.

    The CSV and JSON writers leave out ``flagged`` (the row took the placeholder
    optimum) and ``bell_q_zz``, ``bell_s``, ``bell_e_zz``, the Bell statistics.
    """

    __slots__ = ()


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

    Both steps score the triples of one list-taking kernel through
    :func:`rates._signed_rate`, :func:`key_rate` before its clamp: the seed
    screen (:func:`_screen`) walks down from mu = 1 in blocks and stops
    once its best score exceeds a bound on every lower seed's gain, and
    each probe scores one intensity.  The score equals :func:`key_rate`
    wherever either is positive and keeps falling where the rate is clamped
    to 0, so a positive window narrower than one seed cell, as where the
    rate falls to zero with distance, is still found.

    Inputs are checked once per search, not per evaluation:
    :func:`channel_efficiency` checks the distance, loss and detector
    efficiency, then ``check_point`` the arm transmittance, ``p_d`` and
    ``e_d``, in the order and with the messages of
    :func:`ecs_misaligned_stats`.  Each evaluated ``(q_zz, s, e_zz)`` passes
    :func:`params.check_stats`, as a :class:`DetectorStats` would; the seeds
    the screen's stop leaves out would pass it too, or be refused by the kernel.
    """
    eta = channel_efficiency(distance_km, beta_db_per_km, eta_d)
    return _search(eta, p_d, e_d)[0]


def _search(eta: float, p_d: float, e_d: float) -> tuple[MuOptimum, bool]:
    """:func:`optimize_mu` at arm transmittance ``eta``, and whether every seed has
    s <= 2 - _HORIZON_MARGIN; the caller computed ``eta`` by :func:`channel_efficiency`.
    """
    check_point(eta=eta, p_d=p_d, e_d=e_d)

    def probe(mu: float) -> float:
        (triple,) = _ecs_misaligned((mu,), eta, p_d, e_d)
        check_stats(*triple)
        return _signed_rate(*triple)

    best, value, top_s = _screen(eta, p_d, e_d)
    if top_s <= 2.0:
        return _PLACEHOLDER, top_s <= 2.0 - _HORIZON_MARGIN
    mu, rate = _golden_max(probe, best, value)
    if rate > 0.0:
        return MuOptimum(mu_star=mu, rate_star=rate, flagged=False), False
    return _PLACEHOLDER, False


def _gain_bound(mu: float, eta: float, p_d: float) -> float:
    """A bound on the computed ``q_zz`` of every seed up to ``mu`` (see :func:`_screen`)."""
    return (2.0 * mu * eta + 2.0 * p_d) * (1.0 + _GAIN_SLACK)


def _screen(eta: float, p_d: float, e_d: float) -> tuple[int, float, float]:
    """The seed screen: the first maximum of the seeds' scores, its score, and the top s.

    The index and score are those of ``signed.index(max(signed))`` over
    the :func:`rates._signed_rate` of every triple of
    ``_ecs_misaligned(SEEDS, eta, p_d, e_d)``, the first maximum, as
    np.argmax picks; the top s is the largest s of the seeds walked.  The
    walk goes from mu = 1 down, in blocks of _SCREEN_BLOCK seeds.  Each
    block goes through the kernel and ``check_stats`` in ascending order,
    then its seeds are scored in descending order, and a score >= the best
    so far becomes the best, so a tie goes to the lower seed.

    Skip.  A seed with s > 2 and q_zz below the best is not scored: each
    entropy is >= 0 in floats, so its score, q_zz times a factor of at
    most 1, is at most q_zz.

    Stop.  With t = 2 mu eta, a = e_d and b = 1 - a, exactly
        q_zz = (1 - p_d) [e^(-ta) - e^(-t) + e^(-tb) - e^(-t) + 2 p_d e^(-t)]
             <= (1 - p_d) (2 mu eta + 2 p_d),
    since e^(-tc) - e^(-t) <= t (1 - c) (it is the integral of e^-x <= 1
    over [tc, t]) and a + b = 1.  The kernel's q_zz is within 20 ulp of the
    exact value at its float inputs: about 1 ulp from 1 - p_d, 4 from
    exp(-2 mu eta), 13 from the bracket (a sum of nonnegative terms, each
    expm1 within 2 ulp and 3 times its argument's error) and 2 from the
    products.  :func:`_gain_bound` rounds at most 4 ulp low, so with
    _GAIN_SLACK it bounds the computed q_zz at mu and, as the exact bound
    rises with mu, at every lower seed.  So once the best score exceeds
    the bound at a block's top seed, no seed of that block or below can
    reach it, and the walk stops.  The best score then exceeds 0, which
    only a seed with s > 2 gives.  The ulp counts hold at every seed the
    kernel takes: it raises unless the bracket is a normal double
    (>= 2**-1022), beside which a subnormal product, off by at most
    2**-1075, is about an ulp, as beside the larger bound; a few ulp in
    all against _GAIN_SLACK.  So a seed the stop leaves out cannot beat
    the best: its bracket is normal and its score below the bound, or the
    kernel refuses it.  At eta >= _HORIZON_ETA_MIN none is refused (step 3
    of :func:`_walk`); below it a search raises only where its walk does.
    """
    block = _SCREEN_BLOCK
    best, best_value, top_s = -1, -math.inf, -math.inf
    for start in range(len(SEEDS) - block, -1, -block):
        if best_value > _gain_bound(SEEDS[start + block - 1], eta, p_d):
            break
        triples = _ecs_misaligned(SEEDS[start:start + block], eta, p_d, e_d)
        for q_zz, s, e_zz in triples:
            check_stats(q_zz, s, e_zz)
        for i in range(start + block - 1, start - 1, -1):
            q_zz, s, e_zz = triples[i - start]
            if s > top_s:
                top_s = s
            if s > 2.0 and q_zz < best_value:
                continue
            value = _signed_rate(q_zz, s, e_zz)
            if value >= best_value:
                best, best_value = i, value
    return best, best_value, top_s


def sweep_distances(config: SweepConfig) -> list[float]:
    """The inclusive distance grid, built by index to avoid drift."""
    span = config.l_max_km - config.l_min_km
    count = int(math.floor(span / config.l_step_km + 1e-9)) + 1
    return [config.l_min_km + i * config.l_step_km for i in range(count)]


def sweep_row(config: SweepConfig, distance_km: float) -> SweepRow:
    """Every requested protocol's rate at one distance: the one rate dispatch.

    The ECS fields come from one evaluation of the statistics at ``mu``,
    fixed or optimized; ``rate_ecs`` equals the optimizer's ``rate_star``.
    The Bell fields and ``rate_bell`` come from one :func:`bell_state_stats`.
    It is the walk (:func:`_walk`) of one row, which never skips a search.
    """
    (row,) = _walk(config, (distance_km,))
    return row


def _walk(config: SweepConfig, distances: Sequence[float]) -> Iterator[SweepRow]:
    """The :func:`sweep_row` of each distance, skipping searches past the CHSH horizon.

    Rows are yielded lazily, in the order of ``distances``: a row is
    evaluated only when it is asked for, so a caller that stops early, as
    the crossover scan does, never evaluates the later rows or meets their
    errors.

    A row whose intensity search finds no seed with s > 2 - _HORIZON_MARGIN,
    at an arm transmittance eta_h >= _HORIZON_ETA_MIN, is past the horizon.
    A later row with _HORIZON_ETA_MIN <= eta <= eta_h takes the placeholder
    optimum without a search, and still evaluates the statistics at it, the
    Bell rate and the bound.  That is what :func:`optimize_mu` returns there,
    and it raises nothing there, so every row equals its ``sweep_row``.  Any
    order is exact; ascending distance skips the most.  The argument:

    Write t = 2 mu eta <= 2 (mu and eta are at most 1), a = e_d <= 1/2,
    b = 1 - a, X = exp(-t a), Y = exp(-t b), q = exp(-4 mu), and then
        s / sqrt2 = [X - Y - q (1/X + 1/Y) + 2 (1 - p_d) q / (XY)]
                    / [X + Y - 2 (1 - p_d) XY].

    1. Level sets.  s is not monotone in eta (ds/deta < 0 occurs near
       s = -1.4 at p_d > 0.6), but at any level c = sqrt2 g with
       1 <= g <= sqrt2, once s <= c it stays <= c as eta falls at fixed mu.
       With A = 1 - X and B = 1 - Y, s > c iff
           F = M - 2 p_d (q + g X^2 Y^2) > 0,
           M = XY [(1 - g) B - (1 + g) A + 2 g A B] + q (A + B),
       and dF/dt >= dM/dt = XY K + q (aX + bY), where
       K = (g - 1)(1 + a) X + (g + 1)(1 + b) Y - 4 g XY.  M > 0 means
       q (A + B) > XY R, R = (g - 1) B + (1 + g) A - 2 g A B, so there
           (A + B) dM/dt > XY G,   G = R (aX + bY) + K (A + B).
       G is affine in g, and G >= 0 at g = 1 and g = sqrt2 for 0 <= a <= 1/2
       and 0 < t <= 2: G = t^2 [g - 1 + a + 3a^2 - 2a^3 + 2ag (1 - a)]
       + O(t^3), G = (g - 1) B^2 at a = 0, and a 40-digit grid of 101 a by
       161 t in [1e-7, 10] finds no negative G.  So F > 0 forces dF/dt > 0:
       F cannot fall to 0 as t grows.
    2. Rounding.  Counting the kernel's roundings to first order, with
       libm's exp, expm1, cosh and sinh within 2 ulp, the computed s is
       within 4e-14 of the exact s of its float inputs: every term of w and
       of the bracket is at most 9 times the bracket, which is at least
       2 mu eta.  The worst seen in 20,000 random 50-digit samples was
       1.7e-15.  At eta >= _HORIZON_ETA_MIN the bracket exceeds 1e-294, so
       underflow, at most 2**-1075 an operation, adds nothing of note.
       A seed at eta_h computed at s <= 2 - margin is exactly below
       2 - margin + 4e-14, so by step 1 exactly below that at eta <= eta_h,
       and computed below 2 - margin + 8e-14 < 2: no seed passes the search's
       s > 2 test, and the search returns the placeholder.
    3. No raise.  The bracket is at least expm1(x_bright) >= 1e-294, a
       normal double.  q_zz is
       k (X + Y) - 2 k^2 XY with k = 1 - p_d, X + Y <= 1 + XY and
       XY = e^-t >= e^-2, so at most 1 - e^-2.  e_zz is in [0, 1], as
       rounding is monotone.  s >= -sqrt2, since the numerator is at least
       -2 p_d q / (XY), the denominator at least 2 p_d XY, and
       q e^(2t) <= 1.  s <= 2 sqrt2, since with N and D the numerator and
       denominator, 2D - N = X + 3Y - 4kXY + q (X + Y - 2k) / (XY) falls as
       k rises, and at k = 1, where X + Y <= 2 and q <= e^(-2t) = (XY)^2
       (as eta <= 1), it is at least
           X + 3Y - 6XY + XY (X + Y) = X (1 - Y)^2 + Y (1 - X)(3 - X) >= 0.
       By step 2 the computed s lies within 4e-14 of [-sqrt2, 2 sqrt2],
       inside CHSH_TOL = 1e-9; the largest seen is 2 sqrt2 - 2.8e-4, at
       mu 1e-4, eta 1, p_d 0 and e_d 0, where s = sqrt2 (1 + e^(-2 mu)).
       So ``check_stats`` passes every seed, and the seed screen
       (:func:`_screen`) may leave out the seeds below its stop.

    Rows below _HORIZON_ETA_MIN keep their search: there a search may
    raise ``degenerate denominator`` on its smallest seeds, whose brackets
    can be subnormal, and a placeholder would not.
    """
    horizon_eta = 0.0  # eta_h; no row is past the horizon while it is 0
    for distance_km in distances:
        eta = channel_efficiency(distance_km, config.beta_db_per_km, config.eta_d)
        mu = q_zz = s = e_zz = rate_ecs = rate_bell = rate_plob = None
        bell_q_zz = bell_s = bell_e_zz = None
        flagged = False
        if "ecs" in config.protocols:
            mu = config.mu
            if mu is None:
                if _HORIZON_ETA_MIN <= eta <= horizon_eta:
                    optimum = _PLACEHOLDER
                else:
                    optimum, past_horizon = _search(eta, config.p_d, config.e_d)
                    if past_horizon and eta >= _HORIZON_ETA_MIN:
                        horizon_eta = eta
                mu, flagged = optimum.mu_star, optimum.flagged
            stats = ecs_misaligned_stats(mu, eta, config.p_d, config.e_d)
            q_zz, s, e_zz, rate_ecs = stats.q_zz, stats.s, stats.e_zz, key_rate(stats)
        if "bell" in config.protocols:
            bell = bell_state_stats(eta, config.p_d)
            bell_q_zz, bell_s, bell_e_zz, rate_bell = bell.q_zz, bell.s, bell.e_zz, key_rate(bell)
        if "plob" in config.protocols:
            rate_plob = plob_bound(distance_km, config.beta_db_per_km, config.eta_d)
        yield SweepRow(
            distance_km=distance_km,
            mu=mu,
            q_zz=q_zz,
            s=s,
            e_zz=e_zz,
            rate_ecs=rate_ecs,
            rate_bell=rate_bell,
            rate_plob=rate_plob,
            flagged=flagged,
            bell_q_zz=bell_q_zz,
            bell_s=bell_s,
            bell_e_zz=bell_e_zz,
        )


def sweep(config: SweepConfig, jobs: int = 1) -> list[SweepRow]:
    """Evaluate every grid distance; rows are returned ordered by distance.

    Each row equals :func:`sweep_row` at its distance.  With an optimized
    intensity, rows past the CHSH horizon, where no seed reached s > 2 at a
    shorter distance, print the flagged placeholder (mu 0.50005, rate 0)
    without a search.  ``jobs`` is accepted for older callers and ignored:
    rows are evaluated in this process.
    """
    return list(_walk(config, sweep_distances(config)))


def find_crossover(
    protocol_pair: tuple[str, str],
    config: SweepConfig,
    bracket: tuple[float, float],
) -> float | None:
    """Distance where the rate difference changes sign, to +-0.5 km.

    A coarse scan locates the first change between strictly opposite signs
    inside the bracket, the same in both pair orders, then bisection narrows
    it.  A zero followed by a nonzero value is the crossing; two zeros (e.g.
    past every cutoff distance, or where PLOB underflows) end the scan.
    Returns None when the difference never changes sign, including a
    protocol against itself.
    The scan walks its 65 points in ascending order as :func:`sweep` walks
    its rows, so scan points past the CHSH horizon skip the intensity search,
    and it stops at the first bracketed sign change: later scan points, and
    any error they would raise, are never evaluated.  Each bisection probe
    is a :func:`sweep_row`.
    """
    first, second = protocol_pair
    lo, hi = bracket
    # Through the class, not _replace alone, so the pair and bracket are checked.
    pair_config = SweepConfig(*config._replace(
        l_min_km=lo, l_max_km=hi, l_step_km=hi - lo, protocols=(first, second)))

    def diff(row: SweepRow) -> float:
        return getattr(row, f"rate_{first}") - getattr(row, f"rate_{second}")

    # np.linspace(lo, hi, 65) by numpy's recipe, with its branch for a step
    # that underflows to 0.  Plain floats, so an overflow raises as it does
    # everywhere else.
    delta = hi - lo
    step = delta / 64
    grid = [(i * step if step else i / 64 * delta) + lo for i in range(64)] + [hi]
    rows = iter(_walk(pair_config, grid))
    f_next = diff(next(rows))
    for i in range(len(grid) - 1):
        f_i, f_next = f_next, diff(next(rows))
        # Signs, not the product, which underflows for two tiny rates.
        if f_i == 0.0 or (f_next != 0.0 and (f_i > 0.0) != (f_next > 0.0)):
            break
    else:
        return None
    if f_i == 0.0:
        # A zero grid value with a nonzero neighbour still brackets the
        # change; without one there is nothing to locate.
        if f_next == 0.0:
            return None
        return grid[i]
    lo, f_lo = grid[i], f_i
    hi = grid[i + 1]
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        f_mid = diff(sweep_row(pair_config, mid))
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
