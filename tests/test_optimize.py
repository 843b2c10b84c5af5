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
from ecs_diqkd.params import ParameterError
from ecs_diqkd.rates import binary_entropy, channel_efficiency, ecs_misaligned_stats, key_rate

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
    # A positive seed: the seed grid plus the golden-section refinement only.
    optimum, calls = _counted_search(monkeypatch, 300.0, 0.2, 0.8, 1e-7, 0.0)
    assert not optimum.flagged and calls == 236
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


def test_search_on_bare_triples_equals_the_checked_search():
    rng = np.random.default_rng(20261018)
    channels = [(0.2, 0.8, 1e-7, 0.0)] + [
        (0.2, float(rng.uniform(0.5, 1.0)), float(10.0 ** rng.uniform(-9, -5)),
         float(rng.uniform(0.0, 0.05)))
        for _ in range(10)
    ]
    searches = [(distance, *channel) for channel in channels for distance in range(0, 701, 20)]
    searches += [(distance, 0.2, eta_d, p_d, e_d) for distance, eta_d, p_d, e_d in NARROW_WINDOWS]
    flagged = 0
    for args in searches:
        expected = _reference_search(*args)
        assert repr(optimize_mu(*args)) == repr(expected), args
        flagged += expected.flagged
    assert 0 < flagged < len(searches)
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

    def no_crossing(config, distance_km):
        scanned.append(distance_km)
        return optimize.SweepRow(distance_km, rate_ecs=1.0, rate_plob=0.0)

    monkeypatch.setattr(optimize, "sweep_row", no_crossing)
    config = SweepConfig(**FIG2)
    rng = np.random.default_rng(20261018)
    # The first three are subnormal brackets whose step underflows to 0.
    brackets = [(0.0, 5e-324), (0.0, 1e-322), (2e-323, 1e-322), (0.0, 1e-320),
                (1e-300, 2e-300), (5.0, 5.000000000000001)]
    for _ in range(1200):
        lo = float(rng.choice([0.0, rng.uniform(0.0, 1000.0), 10.0 ** rng.uniform(-12, 6)]))
        brackets.append((lo, lo + float(10.0 ** rng.uniform(-14, 6))))
    for lo, hi in brackets:
        if not lo < hi:
            continue
        scanned.clear()
        assert find_crossover(("ecs", "plob"), config, (lo, hi)) is None
        assert scanned == np.linspace(lo, hi, 65).tolist(), (lo, hi)
        assert all(type(distance) is float for distance in scanned)


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
