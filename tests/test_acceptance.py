"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line; each
criterion asserts at its stated tolerance.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ecs_diqkd.fock import beamsplitter_apply, coherent_fock, mode_product
from ecs_diqkd.optimize import (
    MU_SEARCH_BOUNDS,
    SweepConfig,
    find_crossover,
    optimize_mu,
    sweep,
)
from ecs_diqkd.oracle import verify_grid
from ecs_diqkd.rates import (
    bell_state_stats,
    channel_efficiency,
    ecs_ideal_stats,
    ecs_lossy_stats,
    ecs_misaligned_stats,
    key_rate,
)

FIG2 = dict(beta_db_per_km=0.2, eta_d=0.8, p_d=1e-7, e_d=0.0)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _bisect(f, lo: float, hi: float, xtol: float) -> float:
    """Root of f in [lo, hi], where f changes sign, to within xtol."""
    lo_negative = f(lo) < 0.0
    assert lo_negative != (f(hi) < 0.0), "no sign change in the bracket"
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_chsh_violation_threshold():
    root = _bisect(lambda mu: ecs_ideal_stats(mu).s - 2.0, 0.3, 0.6, xtol=1e-13)
    analytic = -math.log(math.sqrt(2.0) - 1.0) / 2.0
    ok = abs(root - 0.4407) <= 1e-4 and abs(root - analytic) <= 1e-10
    _report(1, ok, f"violation boundary at mu = {root:.6f} (analytic {analytic:.6f})")


def test_criterion_2_oracle_equivalence():
    start = time.time()
    report = verify_grid()  # default acceptance grid, tol 1e-8, n_max 30
    elapsed = time.time() - start
    detail = (
        f"{len(report.points)} grid points in {elapsed:.1f}s; "
        f"max |dQ|={report.max_dev_q_zz:.2e} |dS|={report.max_dev_s:.2e} "
        f"|de|={report.max_dev_e_zz:.2e}; oracle supports the "
        f"'{report.supported_e_zz_reading}' e_zz reading "
        f"(literal eta_d deviates by {report.max_dev_e_zz_literal:.2e})"
    )
    ok = report.passed and report.supported_e_zz_reading == "eta" and elapsed < 60.0
    _report(2, ok, detail)


def test_criterion_3_reduction_identities():
    worst = 0.0
    for mu in np.linspace(0.01, 1.0, 100):
        ideal = ecs_ideal_stats(mu)
        lossless = ecs_lossy_stats(mu, 1.0, 0.0)
        worst = max(
            worst,
            abs(lossless.q_zz - ideal.q_zz),
            abs(lossless.s - ideal.s),
            abs(lossless.e_zz - ideal.e_zz),
        )
        for eta, p_d in ((1.0, 0.0), (0.4, 1e-7), (0.08, 1e-5)):
            lossy = ecs_lossy_stats(mu, eta, p_d)
            aligned = ecs_misaligned_stats(mu, eta, p_d, 0.0)
            worst = max(
                worst,
                abs(aligned.q_zz - lossy.q_zz),
                abs(aligned.s - lossy.s),
                abs(aligned.e_zz - lossy.e_zz),
            )
    _report(3, worst < 1e-12, f"worst field deviation across reductions = {worst:.2e}")


def test_criterion_4_bell_state_comparison():
    config = SweepConfig(**FIG2)
    low = find_crossover(("ecs", "bell"), config, (50.0, 200.0))
    high = find_crossover(("ecs", "bell"), config, (350.0, 550.0))
    rate_ecs = optimize_mu(400.0, **FIG2).rate_star
    rate_bell = key_rate(bell_state_stats(channel_efficiency(400.0, 0.2, 0.8), 1e-7))
    ratio = rate_ecs / rate_bell
    low_ok = low is not None and 85.0 <= low <= 115.0
    high_ok = high is not None and 382.5 <= high <= 517.5
    ratio_ok = ratio >= 10**3.5
    detail = (
        f"crossovers at {low and round(low, 1)} km (want 100 +- 15%) and "
        f"{high and round(high, 1)} km (want 450 +- 15%); "
        f"rate ratio at 400 km = 10^{math.log10(ratio):.2f} (want >= 10^3.5)"
    )
    _report(4, low_ok and high_ok and ratio_ok, detail)


def test_criterion_5_capacity_bound_crossing():
    config = SweepConfig(**FIG2)
    crossing = find_crossover(("ecs", "plob"), config, (100.0, 250.0))
    crossing_ok = crossing is not None and 130.0 <= crossing <= 170.0
    rows = sweep(
        SweepConfig(l_min_km=150.0, l_max_km=450.0, l_step_km=10.0,
                    beta_db_per_km=0.2, eta_d=0.8, p_d=1e-7, e_d=0.07)
    )
    beating = [r.distance_km for r in rows if r.rate_ecs > r.rate_plob]
    detail = (
        f"bound first beaten at {crossing and round(crossing, 1)} km "
        f"(want 150 +- 20); with e_d=0.07 the rate exceeds the bound over "
        f"{len(beating)} grid distances"
        + (f" ({beating[0]:.0f}-{beating[-1]:.0f} km)" if beating else "")
    )
    _report(5, crossing_ok and len(beating) > 0, detail)


def test_criterion_6_scaling_laws():
    distances = np.arange(200.0, 351.0, 10.0)
    ecs_rates = [optimize_mu(d, **FIG2).rate_star for d in distances]
    bell_rates = [
        key_rate(bell_state_stats(channel_efficiency(d, 0.2, 0.8), 1e-7))
        for d in distances
    ]
    slope_ecs = np.polyfit(distances, np.log10(ecs_rates), 1)[0]
    slope_bell = np.polyfit(distances, np.log10(bell_rates), 1)[0]
    ecs_ok = abs(slope_ecs - (-0.01)) <= 0.15 * 0.01
    bell_ok = abs(slope_bell - (-0.02)) <= 0.15 * 0.02
    detail = (
        f"log10-rate slopes over 200-350 km: ecs {slope_ecs:.5f}/km "
        f"(want -0.01 +- 15%), bell {slope_bell:.5f}/km (want -0.02 +- 15%)"
    )
    _report(6, ecs_ok and bell_ok, detail)


def test_criterion_7_parity_law():
    n_max = 30
    even = np.arange(n_max + 1) % 2 == 0
    worst = 0.0
    for mu in (0.1, 0.5, 1.0):
        alpha = math.sqrt(mu)
        for signs, parity, bright_mode, keep in (
            ((+1, +1), +1, 0, even),
            ((+1, +1), -1, 0, ~even),
            ((+1, -1), +1, 1, even),
            ((+1, -1), -1, 1, ~even),
        ):
            first = mode_product(
                coherent_fock(signs[0] * alpha, n_max),
                coherent_fock(signs[1] * alpha, n_max),
            )
            second = mode_product(
                coherent_fock(-signs[0] * alpha, n_max),
                coherent_fock(-signs[1] * alpha, n_max),
            )
            norm = math.sqrt(2.0 * (1.0 + parity * math.exp(-4.0 * mu)))
            state = (first + parity * second) / norm
            joint = np.abs(beamsplitter_apply(state, 0.5)[..., 0]) ** 2
            dark_mass = joint.sum(axis=bright_mode)[1:].sum()
            wrong_parity = joint.sum(axis=1 - bright_mode)[~keep].sum()
            worst = max(worst, dark_mass, wrong_parity)
    _report(7, worst < 1e-12, f"largest off-pattern photon-number mass = {worst:.2e}")


def test_criterion_8_optimizer_certificate():
    rng = np.random.default_rng(20240817)
    audit = np.geomspace(*MU_SEARCH_BOUNDS, 2000)
    worst_gap = -math.inf
    for distance in rng.uniform(0.0, 500.0, size=20):
        eta = channel_efficiency(distance, 0.2, 0.8)
        rates = np.array(
            [key_rate(ecs_misaligned_stats(m, eta, 1e-7, 0.0)) for m in audit]
        )
        optimum = optimize_mu(distance, **FIG2)
        worst_gap = max(worst_gap, float(rates.max() - optimum.rate_star))
    _report(
        8,
        worst_gap <= 1e-12,
        f"max audit-grid surplus over 20 random rows = {worst_gap:.2e}",
    )
