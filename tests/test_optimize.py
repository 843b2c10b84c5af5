"""Intensity optimization, sweeps, and crossover location."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ecs_diqkd import optimize
from ecs_diqkd.optimize import (
    MAX_SWEEP_ROWS,
    MU_SEARCH_BOUNDS,
    SweepConfig,
    find_crossover,
    optimize_mu,
    sweep,
    sweep_distances,
    sweep_row,
)
from ecs_diqkd.params import ParameterError, check_stats
from ecs_diqkd.rates import (
    _ecs_misaligned,
    binary_entropy,
    channel_efficiency,
    ecs_misaligned_stats,
    key_rate,
)

FIG2 = dict(beta_db_per_km=0.2, eta_d=0.8, p_d=1e-7, e_d=0.0)


def _audit_rate(distance_km, mu, **kw):
    eta = channel_efficiency(distance_km, kw["beta_db_per_km"], kw["eta_d"])
    return key_rate(ecs_misaligned_stats(mu, eta, kw["p_d"], kw["e_d"]))


@pytest.mark.parametrize("distance_km", [0.0, 120.0, 300.0])
def test_optimizer_beats_audit_grid(distance_km):
    optimum = optimize_mu(distance_km, **FIG2)
    assert not optimum.flagged
    audit = np.geomspace(*MU_SEARCH_BOUNDS, 2000)
    rates = np.array([_audit_rate(distance_km, m, **FIG2) for m in audit])
    best = int(np.argmax(rates))
    assert optimum.rate_star >= rates[best] - 1e-12
    # and the located intensity sits within one audit-grid cell of the best
    spacing = audit[min(best + 1, 1999)] - audit[max(best - 1, 0)]
    assert abs(optimum.mu_star - audit[best]) <= spacing + 1e-5


def test_optimizer_flags_dead_channel():
    optimum = optimize_mu(900.0, **FIG2)
    assert optimum.flagged
    assert optimum.rate_star == 0.0
    assert optimum.mu_star == pytest.approx(0.5 * sum(MU_SEARCH_BOUNDS))


# Channels where the positive-rate window is narrower than one seed-grid
# cell, so no seed is positive: (distance_km, eta_d, p_d, e_d).
NARROW_WINDOWS = [
    (420.0, 0.6548170864153608, 4.526894339408258e-08, 0.04891344442039911),
    (496.78320716586995, 0.6433447922850227, 1.1505485768527515e-08, 0.037659561657988117),
]


def _offset_audit_best(distance_km, eta_d, p_d, e_d, points=200):
    """Best rate on a log grid offset by half a cell from the seed grid."""
    lo, hi = MU_SEARCH_BOUNDS
    eta = channel_efficiency(distance_km, 0.2, eta_d)
    return max(
        key_rate(ecs_misaligned_stats(lo * (hi / lo) ** ((i + 0.5) / points), eta, p_d, e_d))
        for i in range(points)
    )


@pytest.mark.parametrize("channel", NARROW_WINDOWS)
def test_optimizer_finds_window_narrower_than_a_seed_cell(channel):
    distance_km, eta_d, p_d, e_d = channel
    optimum = optimize_mu(distance_km, 0.2, eta_d, p_d, e_d)
    assert not optimum.flagged
    assert type(optimum.mu_star) is float and type(optimum.rate_star) is float
    audit = _offset_audit_best(distance_km, eta_d, p_d, e_d)
    assert audit > 0.0
    assert optimum.rate_star >= audit
    eta = channel_efficiency(distance_km, 0.2, eta_d)
    assert optimum.rate_star == key_rate(ecs_misaligned_stats(optimum.mu_star, eta, p_d, e_d))


def _counted_search(monkeypatch, *args):
    # The search scores the bare kernel, not the public ecs_misaligned_stats.
    # The kernel takes a sequence of intensities, so each one counts.
    calls = []
    closed_form = optimize._ecs_misaligned

    def counted(*a):
        calls.extend(a[0])
        return closed_form(*a)

    monkeypatch.setattr(optimize, "_ecs_misaligned", counted)
    return optimize_mu(*args), len(calls)


def test_optimizer_evaluation_counts_per_branch(monkeypatch):
    # A positive seed: the screen walks down from mu = 1 and stops at its gain
    # bound after 80 seeds, then 36 golden-section probes.
    optimum, calls = _counted_search(monkeypatch, 300.0, 0.2, 0.8, 1e-7, 0.0)
    assert not optimum.flagged and calls == 116
    assert type(optimum.mu_star) is float
    # No seed violates CHSH: the seed grid alone, and the exact placeholder.
    optimum, calls = _counted_search(monkeypatch, 600.0, 0.2, 0.8, 1e-7, 0.0)
    assert calls == 200
    assert optimum == optimize.MuOptimum(0.5 * sum(MU_SEARCH_BOUNDS), 0.0, True)
    # Some seed violates CHSH but no window exists: refined, then the same
    # placeholder.
    optimum, calls = _counted_search(monkeypatch, 450.0, 0.2, 0.8, 1e-7, 0.03)
    assert calls > 200
    assert optimum == optimize.MuOptimum(0.5 * sum(MU_SEARCH_BOUNDS), 0.0, True)


def _reference_search(distance_km, beta_db_per_km, eta_d, p_d, e_d):
    """``optimize_mu`` scoring checked records, as it did before the kernel.

    Every point goes through the public ``ecs_misaligned_stats`` and
    ``binary_entropy``, with the same continuation below s = 2.
    """
    eta = channel_efficiency(distance_km, beta_db_per_km, eta_d)

    def signed(stats):
        if stats.s <= 2.0:
            return -1.0 - (2.0 - stats.s)
        x = min(0.5 * (1.0 + math.sqrt((stats.s / 2.0) ** 2 - 1.0)), 1.0)
        return stats.q_zz * (1.0 - binary_entropy(stats.e_zz) - binary_entropy(x))

    seed_stats = [ecs_misaligned_stats(mu, eta, p_d, e_d) for mu in optimize.SEEDS]
    if any(stats.s > 2.0 for stats in seed_stats):
        values = [signed(stats) for stats in seed_stats]
        best = values.index(max(values))
        mu, rate = optimize._golden_max(
            lambda mu: signed(ecs_misaligned_stats(mu, eta, p_d, e_d)), best, values[best]
        )
        if rate > 0.0:
            return optimize.MuOptimum(mu_star=mu, rate_star=rate, flagged=False)
    return optimize.MuOptimum(mu_star=0.5 * sum(MU_SEARCH_BOUNDS), rate_star=0.0, flagged=True)


def _outcome(search, *args):
    try:
        return repr(search(*args))
    except ParameterError as exc:
        return f"ParameterError: {exc}"


# The arm transmittance 0.8 * 10**(-0.01 L) at 0.2 dB/km falls through the
# CHSH horizon's least transmittance near L = 28,990 km.
_HORIZON_ETA_KM = 100.0 * (290.0 + math.log10(0.8))


def test_search_on_bare_triples_equals_the_checked_search():
    rng = np.random.default_rng(20261018)
    channels = [(0.2, 0.8, 1e-7, 0.0)] + [
        (0.2, float(rng.uniform(0.5, 1.0)), float(10.0 ** rng.uniform(-9, -5)),
         float(rng.uniform(0.0, 0.05)))
        for _ in range(10)
    ]
    searches = [(distance, *channel) for channel in channels for distance in range(0, 701, 20)]
    searches += [(distance, 0.2, eta_d, p_d, e_d) for distance, eta_d, p_d, e_d in NARROW_WINDOWS]
    # Extremes: maximal misalignment, heavy dark counts, and eta = 1 at
    # every distance, where the screen's stop bound is tightest.
    extremes = [(0.2, 0.8, 1e-7, 0.5), (0.2, 0.8, 0.5, 0.0), (0.2, 0.8, 0.99, 0.02),
                (0.0, 1.0, 0.0, 0.0), (0.0, 1.0, 1e-7, 0.5), (0.0, 1.0, 0.5, 0.1)]
    searches += [(distance, *channel) for channel in extremes for distance in (0.0, 100.0, 400.0)]
    flagged = 0
    for args in searches:
        expected = _reference_search(*args)
        assert repr(optimize_mu(*args)) == repr(expected), args
        flagged += expected.flagged
    assert 0 < flagged < len(searches)
    # Rows on both sides of _HORIZON_ETA_MIN, and a seeded sample of extreme
    # searches, errors included.  The reference takes all 200 seeds, so it
    # parts from the screen only where a seed below the screen's stop has a
    # subnormal bracket (see test_search_reads_out_where_only_seeds_below_its_stop_underflow).
    around = [(_HORIZON_ETA_KM + offset, 0.2, 0.8, p_d, e_d)
              for offset in (-20.0, -1e-6, 1e-6, 20.0, 3000.0)
              for p_d, e_d in ((0.0, 0.0), (0.0, 0.3), (1e-7, 0.02), (0.5, 0.5))]
    assert any(channel_efficiency(*args[:3]) < optimize._HORIZON_ETA_MIN for args in around)
    assert any(channel_efficiency(*args[:3]) >= optimize._HORIZON_ETA_MIN for args in around)
    sampled = [
        (float(rng.choice([rng.uniform(0.0, 700.0), 10.0 ** rng.uniform(0.0, 4.55)])),
         float(rng.choice([0.0, 0.2, rng.uniform(0.0, 1.0)])),
         float(rng.choice([1.0, rng.uniform(0.01, 1.0)])),
         float(rng.choice([0.0, 0.5, 0.99, 10.0 ** rng.uniform(-12, -0.005)])),
         float(rng.choice([0.0, 0.5, rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.05)])))
        for _ in range(300)
    ]
    outcomes = [_outcome(_reference_search, *args) for args in around + sampled]
    for args, expected in zip(around + sampled, outcomes):
        assert _outcome(optimize_mu, *args) == expected, args
    assert any(outcome.startswith("ParameterError") for outcome in outcomes)
    assert any("flagged=False" in outcome for outcome in outcomes)
    # One check per search keeps every message and its order of precedence.
    for args, message in (
        ((40_000.0, 0.2, 0.8, 1e-7, 0.0), "eta must be in (0, 1], got 0.0"),
        ((100.0, 0.2, 0.8, 1.5, 0.0), "p_d must be in [0, 1), got 1.5"),
        ((100.0, 0.2, 0.8, 1e-7, math.nan), "e_d must be in [0, 0.5], got nan"),
        ((100.0, 0.2, 0.8, -1e-7, 0.7), "p_d must be in [0, 1), got -1e-07"),
        ((-1.0, 0.2, 0.8, 1.5, 0.0), "distance_km must be finite and >= 0, got -1.0"),
        ((32_000.0, 0.2, 0.8, 0.0, 0.0), "degenerate denominator in misaligned statistics"),
    ):
        assert _outcome(optimize_mu, *args) == f"ParameterError: {message}"
        assert _outcome(_reference_search, *args) == f"ParameterError: {message}"


# Rows at the extremes of the seed screen's stop bound and of CHSH: every
# transmittance from 1 down to the horizon's least, no to heavy dark counts,
# no to maximal misalignment, and a seeded sample between.
_EXTREME_ROWS = [
    (eta, p_d, e_d)
    for eta in (1.0, 0.5, 1e-3, 1e-100, optimize._HORIZON_ETA_MIN)
    for p_d in (0.0, 1e-7, 0.5, 0.99)
    for e_d in (0.0, 1e-9, 0.02, 0.3, 0.5)
]


def _sampled_rows(count):
    rng = np.random.default_rng(20261020)
    return [(float(10.0 ** rng.uniform(-290, 0)),
             float(rng.choice([0.0, 10.0 ** rng.uniform(-12, -0.005)])),
             float(rng.uniform(0.0, 0.5)))
            for _ in range(count)]


def _floor_rows(count):
    """Rows below _HORIZON_ETA_MIN, down to 1e-308, at no to subnormal dark counts."""
    rng = np.random.default_rng(20261022)
    fixed = [(eta, p_d, e_d) for eta in (1e-300, 1e-305, 1e-308)
             for p_d in (0.0, 5e-324, 1e-310) for e_d in (0.0, 0.02, 0.3, 0.5)]
    return fixed + [(float(10.0 ** rng.uniform(-308, -290)),
                     float(rng.choice([0.0, 10.0 ** rng.uniform(-323, -290)])),
                     float(rng.uniform(0.0, 0.5)))
                    for _ in range(count)]


def test_seed_gains_lie_below_the_screens_stop_bound():
    # Exactly, q_zz <= (1 - p_d)(2 mu eta + 2 p_d); the stop bound adds
    # _GAIN_SLACK for rounding, which here never needs more than a few ulp.
    # Below _HORIZON_ETA_MIN some products are subnormal; a seed the kernel
    # takes has a normal bracket, beside which their rounding is an ulp or so.
    worst = 0.0
    taken = 0
    for eta, p_d, e_d in _EXTREME_ROWS + _sampled_rows(200) + _floor_rows(100):
        for mu in optimize.SEEDS:
            try:
                ((q_zz, _, _),) = _ecs_misaligned((mu,), eta, p_d, e_d)
            except ParameterError:
                assert eta < optimize._HORIZON_ETA_MIN
                continue
            taken += eta < optimize._HORIZON_ETA_MIN
            assert q_zz <= optimize._gain_bound(mu, eta, p_d), (mu, eta, p_d, e_d)
            worst = max(worst, q_zz / (2.0 * mu * eta + 2.0 * p_d))
    assert taken > 1000
    assert 0.99 < worst <= 1.0 + 1e-14


def test_search_reads_out_where_only_seeds_below_its_stop_underflow():
    # At p_d 0 the smallest seeds' brackets are subnormal past about 30,386 km,
    # but the screen stops well above them, so the optimum still reads out.
    optimum = optimize_mu(30500.0, 0.2, 0.8, 0.0, 0.0)
    assert optimum.mu_star == 0.08557353937837865 and not optimum.flagged
    # At 31,000 km a seed the screen walks has a subnormal bracket.
    with pytest.raises(ParameterError,
                       match="^degenerate denominator in misaligned statistics$"):
        optimize_mu(31000.0, 0.2, 0.8, 0.0, 0.0)


def test_sweep_keeps_the_search_below_the_horizon_transmittance():
    # No seed violates CHSH at e_d 0.3, so rows after the first take the
    # placeholder, but only down to _HORIZON_ETA_MIN (29,000 km at eta_d 1);
    # below it each row searches, and where the search walks a subnormal
    # bracket it raises, as sweep_row does.
    config = SweepConfig(l_min_km=28_900.0, l_max_km=30_700.0, l_step_km=50.0,
                         eta_d=1.0, p_d=0.0, e_d=0.3, protocols=("ecs",))
    message = "^degenerate denominator in misaligned statistics$"
    with pytest.raises(ParameterError, match=message):
        sweep_row(config, 30_400.0)
    with pytest.raises(ParameterError, match=message):
        sweep(config)


def test_every_seed_passes_check_stats_above_the_horizon_transmittance():
    # The screen's stop skips the checks of the seeds below it, which is
    # exact because none of them can raise (step 3 of _walk): s stays below
    # 2 sqrt(2) plus the kernel's rounding, and q_zz and e_zz in range.
    top = -math.inf
    for eta, p_d, e_d in _EXTREME_ROWS + _sampled_rows(200):
        for q_zz, s, e_zz in _ecs_misaligned(optimize.SEEDS, eta, p_d, e_d):
            check_stats(q_zz, s, e_zz)
            assert -math.sqrt(2.0) - 4e-14 <= s and q_zz <= 1.0 - math.exp(-2.0) + 1e-15
            top = max(top, s)
    # The largest s sits at mu 1e-4, eta 1, p_d 0 and e_d 0: sqrt2 (1 + e^(-2 mu)).
    assert top == pytest.approx(2.0 * math.sqrt(2.0) - 2.828e-4, abs=1e-6)


def test_seed_table_is_the_log_grid():
    seeds = optimize.SEEDS
    assert len(seeds) == 200 and all(type(mu) is float for mu in seeds)
    assert all(a < b for a, b in zip(seeds, seeds[1:]))
    assert (seeds[0], seeds[-1]) == MU_SEARCH_BOUNDS
    # Each seed is 10**y on the linspace(-4, 0, 200) exponent grid, up to
    # the rounding of the power, which differs between numpy and libm.
    step = 4.0 / 199
    for i, mu in enumerate(seeds):
        assert abs(mu - 10.0 ** (i * step - 4.0)) <= 2 * math.ulp(mu), i


def test_crossover_scan_is_linspace(monkeypatch):
    scanned = []

    # The scan walks its points as a sweep walks its rows.
    def no_crossing(config, distances):
        scanned.extend(distances)
        return [optimize.SweepRow(distance, rate_ecs=1.0, rate_plob=0.0) for distance in distances]

    monkeypatch.setattr(optimize, "_walk", no_crossing)
    config = SweepConfig(**FIG2)
    rng = np.random.default_rng(20261018)
    # The first three are subnormal brackets whose step underflows to 0.
    brackets = [(0.0, 5e-324), (0.0, 1e-322), (2e-323, 1e-322), (0.0, 1e-320),
                (1e-300, 2e-300), (5.0, 5.000000000000001)]
    for _ in range(1200):
        lo = float(rng.choice([0.0, rng.uniform(0.0, 1000.0), 10.0 ** rng.uniform(-12, 6)]))
        brackets.append((lo, lo + float(10.0 ** rng.uniform(-14, 6))))
    gated = 0
    for lo, hi in brackets:
        if not lo < hi:
            continue
        scanned.clear()
        if channel_efficiency(hi, FIG2["beta_db_per_km"], FIG2["eta_d"]) == 0.0:
            # Past the arm-transmittance gate of SweepConfig: refused unscanned.
            gated += 1
            with pytest.raises(ParameterError, match="^the arm transmittance underflows"):
                find_crossover(("ecs", "plob"), config, (lo, hi))
            assert scanned == []
            continue
        assert find_crossover(("ecs", "plob"), config, (lo, hi)) is None
        assert scanned == np.linspace(lo, hi, 65).tolist(), (lo, hi)
        assert all(type(distance) is float for distance in scanned)
    assert gated == 124


def test_optimal_intensity_below_violation_boundary():
    # A source that cannot violate the inequality even losslessly is never
    # optimal, so mu* stays below the ideal-case boundary wherever rate > 0.
    for distance_km in (0.0, 150.0, 400.0):
        optimum = optimize_mu(distance_km, **FIG2)
        assert optimum.rate_star > 0.0
        assert optimum.mu_star <= 0.4407


def test_sweep_grid_construction():
    config = SweepConfig(l_min_km=0.0, l_max_km=600.0, l_step_km=5.0)
    grid = sweep_distances(config)
    assert len(grid) == 121
    assert grid[0] == 0.0 and grid[-1] == 600.0
    single = SweepConfig(l_min_km=50.0, l_max_km=50.0, l_step_km=5.0)
    assert sweep_distances(single) == [50.0]


def test_sweep_single_point():
    rows = sweep(SweepConfig(l_min_km=50.0, l_max_km=50.0, l_step_km=5.0))
    assert len(rows) == 1
    row = rows[0]
    assert row.distance_km == 50.0
    assert row.rate_ecs > 0.0
    assert row.rate_bell > 0.0
    assert row.rate_plob > 0.0
    assert row.q_zz is not None and row.s is not None and row.e_zz is not None


def test_sweep_respects_protocol_subset():
    rows = sweep(
        SweepConfig(l_min_km=0.0, l_max_km=10.0, l_step_km=10.0, protocols=("plob",))
    )
    for row in rows:
        assert row.mu is None and row.rate_ecs is None and row.rate_bell is None
        assert row.rate_plob > 0.0


def test_sweep_fixed_intensity():
    config = SweepConfig(
        l_min_km=0.0, l_max_km=20.0, l_step_km=10.0, mu=0.2, protocols=("ecs",)
    )
    for row in sweep(config):
        assert row.mu == 0.2
        assert not row.flagged


def test_sweep_deterministic():
    config = SweepConfig(l_min_km=0.0, l_max_km=100.0, l_step_km=20.0)
    assert sweep(config) == sweep(config)


def test_sweep_is_sweep_row_per_distance():
    config = SweepConfig(l_min_km=0.0, l_max_km=60.0, l_step_km=20.0, e_d=0.01)
    rows = [sweep_row(config, distance) for distance in sweep_distances(config)]
    assert sweep(config) == rows
    assert sweep(config, jobs=4) == rows  # accepted and ignored
    for row in rows:
        eta = channel_efficiency(row.distance_km, 0.2, 0.8)
        stats = ecs_misaligned_stats(row.mu, eta, 1e-7, 0.01)
        assert (row.q_zz, row.s, row.e_zz, row.rate_ecs) == (
            stats.q_zz, stats.s, stats.e_zz, key_rate(stats)
        )
        assert row.rate_ecs == optimize_mu(row.distance_km, 0.2, 0.8, 1e-7, 0.01).rate_star


# Channels whose sweep reaches the CHSH horizon, where no seed has s > 2:
# p_d = 0 at e_d = 1 - 1/sqrt(2) + k * 2.5e-8, where s is flat in eta near
# 2 - 5.7e-4 at the smallest seed; the same at e_d shifted by
# (1 - exp(-4 mu)) / 2 for mu = SEEDS[0], where that seed's s sits at 2 at
# short range and the best seed's s falls below 2 only mid-sweep; heavy
# dark counts; maximal misalignment; and the golden corpus's narrow-window
# channel.
_FLAT_E_D = 1.0 - 2.0**-0.5
_SEED_FLAT_E_D = _FLAT_E_D + 0.5 * math.expm1(-4.0 * optimize.SEEDS[0])
HORIZON_CHANNELS = [
    *(dict(p_d=0.0, e_d=_FLAT_E_D + k * 2.5e-8) for k in (-1, 0, 1)),
    *(dict(p_d=0.0, e_d=_SEED_FLAT_E_D + k * 2.5e-8) for k in (1, 2)),
    dict(p_d=0.1), dict(p_d=0.5), dict(e_d=0.5),
    dict(eta_d=0.8967793831163791, p_d=9.510356531350182e-06, e_d=0.027001023328068474),
]


def _unskipped_crossover(protocol_pair, config, bracket):
    """``find_crossover``'s scan and bisection, one ``sweep_row`` per point."""
    first, second = protocol_pair
    pair_config = SweepConfig(*config._replace(protocols=protocol_pair))

    def diff(distance_km):
        row = sweep_row(pair_config, distance_km)
        return getattr(row, f"rate_{first}") - getattr(row, f"rate_{second}")

    grid = np.linspace(*bracket, 65).tolist()
    values = [diff(distance) for distance in grid]
    for i in range(64):
        if values[i] == 0.0 or (values[i] > 0.0) != (values[i + 1] > 0.0):
            break
    else:
        return None
    if values[i] == 0.0:
        return None if values[i + 1] == 0.0 else grid[i]
    lo, f_lo, hi = grid[i], values[i], grid[i + 1]
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


@pytest.mark.parametrize("channel", HORIZON_CHANNELS, ids=repr)
def test_rows_past_the_chsh_horizon_equal_their_sweep_row(channel, monkeypatch):
    config = SweepConfig(l_max_km=700.0, l_step_km=5.0, **channel)
    for pair in (("ecs", "plob"), ("ecs", "bell")):
        assert repr(find_crossover(pair, config, (0.0, 700.0))) == repr(
            _unskipped_crossover(pair, config, (0.0, 700.0))
        )
    expected = [sweep_row(config, distance) for distance in sweep_distances(config)]
    searched = []
    search = optimize._search

    def counted(eta, *args):
        searched.append(eta)
        return search(eta, *args)

    monkeypatch.setattr(optimize, "_search", counted)
    assert sweep(config) == expected
    # The horizon was reached: some rows took the placeholder unsearched.
    skipped = [row for row in expected
               if channel_efficiency(row.distance_km, config.beta_db_per_km, config.eta_d)
               not in searched]
    assert skipped and all(row.flagged and row.rate_ecs == 0.0 for row in skipped)


@pytest.mark.parametrize("pair", [("ecs", "plob"), ("ecs", "bell")])
def test_crossover_scan_stops_at_its_first_bracket(pair, monkeypatch):
    config = SweepConfig(**FIG2)
    bracket = (0.0, 700.0)
    expected = _unskipped_crossover(pair, config, bracket)
    grid = np.linspace(*bracket, 65).tolist()
    pair_config = SweepConfig(*config._replace(protocols=pair))
    values = [getattr(row, f"rate_{pair[0]}") - getattr(row, f"rate_{pair[1]}")
              for row in (sweep_row(pair_config, distance) for distance in grid)]
    i = next(i for i in range(64)
             if values[i] == 0.0 or (values[i] > 0.0) != (values[i + 1] > 0.0))
    searched = []
    search = optimize._search

    def counted(eta, *args):
        searched.append(eta)
        return search(eta, *args)

    monkeypatch.setattr(optimize, "_search", counted)
    assert repr(find_crossover(pair, config, bracket)) == repr(expected)
    # Every scan point up to the bracketing pair is searched, then only
    # bisection probes inside that pair: no later scan point is evaluated.
    # The search takes the arm transmittance, which falls with distance.
    etas = [channel_efficiency(distance, config.beta_db_per_km, config.eta_d)
            for distance in grid]
    assert searched[:i + 2] == etas[:i + 2]
    assert all(etas[i] > eta > etas[i + 1] for eta in searched[i + 2:])
    assert i + 2 < 65


def test_a_searched_row_computes_its_transmittance_once(monkeypatch):
    distances = []
    efficiency = optimize.channel_efficiency

    def counted(distance_km, *args):
        distances.append(distance_km)
        return efficiency(distance_km, *args)

    monkeypatch.setattr(optimize, "channel_efficiency", counted)
    config = SweepConfig(l_max_km=700.0, l_step_km=50.0, protocols=("ecs",))
    rows = sweep(config)
    assert distances == sweep_distances(config)
    assert any(not row.flagged for row in rows)
    distances.clear()
    optimize_mu(100.0, **FIG2)
    assert distances == [100.0]


def test_sweep_flags_dead_rows_without_aborting():
    rows = sweep(SweepConfig(l_min_km=580.0, l_max_km=600.0, l_step_km=10.0))
    assert len(rows) == 3
    assert all(row.flagged for row in rows)  # far beyond the cutoff distance
    assert all(row.rate_ecs == 0.0 for row in rows)
    assert all(row.rate_bell is not None for row in rows)


def test_sweep_config_validation():
    with pytest.raises(ParameterError):
        SweepConfig(l_min_km=10.0, l_max_km=0.0)
    with pytest.raises(ParameterError):
        SweepConfig(l_step_km=0.0)
    with pytest.raises(ParameterError):
        SweepConfig(protocols=())
    with pytest.raises(ParameterError):
        SweepConfig(protocols=("ecs", "morse"))
    with pytest.raises(ParameterError):
        SweepConfig(mu=-0.1)
    bad = [
        dict(beta_db_per_km=math.nan), dict(beta_db_per_km=math.inf), dict(eta_d=0.0),
        dict(p_d=math.nan), dict(e_d=0.6), dict(mu=math.nan), dict(mu=math.inf),
        dict(l_min_km=math.nan), dict(l_max_km=math.inf), dict(l_step_km=math.inf),
        dict(l_step_km=math.nan),
        # one row more than the cap; only the capacity bound is defined so far out
        dict(l_max_km=MAX_SWEEP_ROWS * 5.0, protocols=("plob",)),
        # the transmittance underflows to 0 past about 32,361 km at 0.2 dB/km
        dict(l_max_km=40_000.0), dict(l_max_km=40_000.0, protocols=("bell",)),
        # the bell rate squares it, which leaves the normal floats past about 15,373 km
        dict(l_max_km=15_374.0), dict(l_max_km=16_000.0, protocols=("bell", "plob")),
    ]
    for fields in bad:
        with pytest.raises(ParameterError):
            SweepConfig(**fields)
    largest = SweepConfig(l_max_km=(MAX_SWEEP_ROWS - 1) * 5.0, protocols=("plob",))
    assert len(sweep_distances(largest)) == MAX_SWEEP_ROWS
    assert SweepConfig(l_max_km=32_000.0, protocols=("ecs", "plob")).l_max_km == 32_000.0
    assert SweepConfig(l_max_km=15_372.0).l_max_km == 15_372.0


def test_sweep_ecs_dominates_bell_at_intercity_distances():
    rows = sweep(
        SweepConfig(l_min_km=150.0, l_max_km=400.0, l_step_km=25.0, **FIG2)
    )
    assert all(row.rate_ecs > row.rate_bell for row in rows)


def test_crossover_self_comparison_is_none():
    config = SweepConfig(**FIG2)
    assert find_crossover(("bell", "bell"), config, (50.0, 200.0)) is None


def test_crossover_none_without_sign_change():
    config = SweepConfig(**FIG2)
    # The Bell baseline dominates everywhere this close in.
    assert find_crossover(("ecs", "bell"), config, (5.0, 30.0)) is None


def test_crossover_treats_exact_zeros_alike_in_both_pair_orders():
    # At p_d 0 and e_d 0.3 the ECS rate is 0 and the PLOB bound underflows
    # to 0 near 16,200 km: a positive or negative difference meets a zero,
    # which has no sign, so neither order reports a crossing there.
    config = SweepConfig(p_d=0.0, e_d=0.3)
    for pair in (("plob", "ecs"), ("ecs", "plob")):
        assert find_crossover(pair, config, (0.0, 20000.0)) is None, pair
    config = SweepConfig(**FIG2)
    assert (find_crossover(("plob", "ecs"), config, (100.0, 250.0))
            == find_crossover(("ecs", "plob"), config, (100.0, 250.0)))


def test_crossover_brackets_a_real_sign_change():
    config = SweepConfig(**FIG2)
    crossing = find_crossover(("ecs", "plob"), config, (100.0, 250.0))
    assert crossing is not None

    def diff(distance):
        eta = channel_efficiency(distance, 0.2, 0.8)
        ecs = optimize_mu(distance, **FIG2).rate_star
        from ecs_diqkd.rates import plob_bound

        return ecs - plob_bound(distance, 0.2, 0.8)

    assert diff(crossing - 1.0) * diff(crossing + 1.0) < 0.0


def test_crossover_rejects_bad_bracket():
    config = SweepConfig(**FIG2)
    with pytest.raises(ParameterError):
        find_crossover(("ecs", "bell"), config, (200.0, 100.0))
    for bracket in ((math.nan, 100.0), (100.0, math.nan), (100.0, math.inf), (-math.inf, 100.0)):
        with pytest.raises(ParameterError):
            find_crossover(("ecs", "bell"), config, bracket)


def test_crossover_bracket_meets_the_underflow_rules_of_sweep_config():
    # As on the CLI: no scan row past the squared-transmittance gate.
    with pytest.raises(ParameterError, match="^the squared arm transmittance underflows at 31000.0"):
        find_crossover(("ecs", "bell"), SweepConfig(p_d=0.0), (16000.0, 31000.0))
