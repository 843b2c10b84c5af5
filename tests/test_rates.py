"""Closed-form statistics, key rate, baseline, and bound."""

from __future__ import annotations

import decimal
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecs_diqkd import oracle, rates
from ecs_diqkd.fock import mode_product, threshold_detect, vacuum_state
from ecs_diqkd.optimize import SEEDS, SweepConfig, optimize_mu
from ecs_diqkd.oracle import cat_branch, oracle_stats, verify_grid
from ecs_diqkd.params import DetectorStats, ParameterError, ProtocolParams, check_stats
from ecs_diqkd.rates import (
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

SQRT8 = 2.0 * math.sqrt(2.0)
MU_GRID = np.linspace(0.01, 1.0, 100)


def test_binary_entropy_known_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # frozen from a 40-digit evaluation of -x log2 x - (1-x) log2 (1-x)
    assert binary_entropy(0.11) == pytest.approx(0.4999159581645280, abs=1e-12)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ParameterError):
        binary_entropy(-1e-9)
    with pytest.raises(ParameterError):
        binary_entropy(1.0 + 1e-9)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetry(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_key_rate_maximal_point():
    stats = DetectorStats(q_zz=1.0, s=SQRT8, e_zz=0.0)
    assert key_rate(stats) == pytest.approx(1.0, abs=1e-12)


def test_key_rate_zero_without_violation():
    assert key_rate(DetectorStats(q_zz=0.5, s=2.0, e_zz=0.0)) == 0.0
    assert key_rate(DetectorStats(q_zz=0.5, s=1.2, e_zz=0.1)) == 0.0


def test_key_rate_tolerates_ceiling_slack():
    # s may carry up to 1e-9 of numerical slack above 2*sqrt(2); the
    # entropy argument is clamped rather than erroring.
    stats = DetectorStats(q_zz=1.0, s=SQRT8 + 0.9e-9, e_zz=0.0)
    assert key_rate(stats) == pytest.approx(1.0, abs=1e-8)


def test_key_rate_ideal_quarter_intensity():
    stats = ecs_ideal_stats(0.25)
    rate = key_rate(stats)
    assert 0.0 < rate < stats.q_zz
    # frozen from a 40-digit evaluation of the ideal-case closed forms
    assert rate == pytest.approx(0.08698712742165916, abs=1e-12)


def test_key_rate_stays_within_gain():
    for mu in np.linspace(0.02, 0.9, 12):
        for eta in (0.05, 0.3, 1.0):
            for e_d in (0.0, 0.03):
                rate = key_rate(ecs_misaligned_stats(mu, eta, 1e-7, e_d))
                q = ecs_misaligned_stats(mu, eta, 1e-7, e_d).q_zz
                assert 0.0 <= rate <= q


def test_bright_gain_never_rounds_past_one():
    # The exact gain is at most 1, but exp(-2 mu eta) * bracket rounded past
    # it for about 3% of mu in [1, 40] at eta 1 and p_d 0, first near 19.
    for mu in np.linspace(1.0, 40.0, 4001).tolist():
        for eta in (1.0, 0.9, 0.5):
            for e_d in (0.0, 0.02):
                assert ecs_misaligned_stats(mu, eta, 0.0, e_d).q_zz <= 1.0


def test_channel_efficiency():
    assert channel_efficiency(0.0, 0.2, 0.8) == pytest.approx(0.8)
    assert channel_efficiency(100.0, 0.2, 0.8) == pytest.approx(0.08, abs=1e-15)
    assert channel_efficiency(100.0, 0.0, 1.0) == 1.0


def test_ideal_stats_vacuum_limit():
    stats = ecs_ideal_stats(1e-9)
    assert stats.q_zz == pytest.approx(0.0, abs=1e-8)
    assert stats.s == pytest.approx(SQRT8, abs=1e-8)
    assert stats.e_zz == 0.0


def test_ideal_stats_violation_boundary():
    # S crosses 2 at mu = -ln(sqrt(2) - 1) / 2 = 0.44069...
    assert ecs_ideal_stats(0.44069).s == pytest.approx(2.0, abs=1e-4)


def test_ideal_stats_quarter_intensity():
    stats = ecs_ideal_stats(0.25)
    assert stats.q_zz == pytest.approx(0.3934693402873666, abs=1e-12)
    assert stats.s == pytest.approx(2.271977447333802, abs=1e-12)


def test_lossy_reduces_to_ideal():
    for mu in MU_GRID:
        ideal = ecs_ideal_stats(mu)
        lossy = ecs_lossy_stats(mu, 1.0, 0.0)
        assert lossy.q_zz == pytest.approx(ideal.q_zz, abs=1e-12)
        assert lossy.s == pytest.approx(ideal.s, abs=1e-12)
        assert lossy.e_zz == pytest.approx(ideal.e_zz, abs=1e-12)


def test_misaligned_reduces_to_lossy():
    # The lossy statistics are the misaligned ones at e_d = 0, bit for bit;
    # _lossy_verbatim below is the independent reference for both.
    for mu in MU_GRID:
        for eta, p_d in ((1.0, 0.0), (0.3, 1e-7), (0.05, 1e-5)):
            assert ecs_misaligned_stats(mu, eta, p_d, 0.0) == ecs_lossy_stats(mu, eta, p_d)


def _lossy_verbatim(mu, eta, p_d):
    """Raw textbook arrangement, valid away from cancellation regimes."""
    q = (1 - p_d) * (1 - (1 - 2 * p_d) * math.exp(-2 * mu * eta))
    den = math.exp(2 * mu) - (1 - 2 * p_d) * math.exp(2 * mu * (1 - eta))
    s = (
        2
        * math.sqrt(2)
        * (
            math.sinh(2 * mu)
            - math.cosh(2 * mu * (1 - eta))
            + (1 - p_d) * math.exp(-2 * mu * (1 - eta))
        )
        / den
    )
    e = p_d * math.exp(2 * mu * (1 - eta)) / den
    return q, s, e


def _misaligned_verbatim(mu, eta, p_d, e_d):
    q = (1 - p_d) * (
        math.exp(-2 * mu * eta * e_d)
        + math.exp(2 * mu * (-eta + eta * e_d))
        - 2 * (1 - p_d) * math.exp(-2 * mu * eta)
    )
    den = (
        math.exp(2 * mu * (1 - eta * e_d))
        + math.exp(2 * mu * (1 - eta + eta * e_d))
        - 2 * (1 - p_d) * math.exp(2 * mu * (1 - eta))
    )
    w = (
        2 * math.sinh(2 * mu * (1 - eta * e_d))
        - 2 * math.cosh(2 * mu * (1 - eta + eta * e_d))
        + 2 * (1 - p_d) * math.exp(-2 * mu * (1 - eta))
    )
    s = math.sqrt(2) * w / den
    e = (
        math.exp(2 * mu * (1 - eta + eta * e_d))
        - (1 - p_d) * math.exp(2 * mu * (1 - eta))
    ) / den
    return q, s, e


def test_lossy_matches_verbatim_arrangement():
    # The implementation rearranges the expressions for stability; at
    # moderate parameters both arrangements agree to near machine precision.
    for mu, eta, p_d in [(0.3, 0.4, 1e-3), (0.7, 0.9, 0.05), (0.15, 0.6, 0.0)]:
        stats = ecs_lossy_stats(mu, eta, p_d)
        q, s, e = _lossy_verbatim(mu, eta, p_d)
        assert stats.q_zz == pytest.approx(q, rel=1e-12)
        assert stats.s == pytest.approx(s, rel=1e-10, abs=1e-12)
        assert stats.e_zz == pytest.approx(e, rel=1e-10, abs=1e-15)


def test_misaligned_matches_verbatim_arrangement():
    for mu, eta, p_d, e_d in [
        (0.3, 0.4, 1e-3, 0.05),
        (0.7, 0.9, 0.02, 0.2),
        (0.15, 0.6, 0.0, 0.5),
    ]:
        stats = ecs_misaligned_stats(mu, eta, p_d, e_d)
        q, s, e = _misaligned_verbatim(mu, eta, p_d, e_d)
        assert stats.q_zz == pytest.approx(q, rel=1e-12)
        assert stats.s == pytest.approx(s, rel=1e-10, abs=1e-12)
        assert stats.e_zz == pytest.approx(e, rel=1e-10, abs=1e-15)


def test_lossy_e_zz_vanishes_without_dark_counts():
    assert ecs_lossy_stats(0.25, 0.5, 0.0).e_zz == 0.0


def test_misaligned_full_decoherence_limit():
    # e_d = 1/2 scrambles the relative phase completely; the heralds carry
    # no Z-basis information and the error rate saturates at one half.
    assert ecs_misaligned_stats(0.1, 0.08, 0.0, 0.5).e_zz == pytest.approx(0.5, abs=1e-12)


def test_chsh_ceiling_across_grid():
    for mu in MU_GRID[::7]:
        for eta in (0.01, 0.05, 0.2, 0.5, 1.0):
            for p_d in (0.0, 1e-7, 1e-5, 1e-3):
                for e_d in (0.0, 0.01, 0.07, 0.5):
                    stats = ecs_misaligned_stats(mu, eta, p_d, e_d)
                    assert stats.s <= SQRT8 + 1e-9


def test_s_monotone_in_transmittance():
    etas = np.linspace(0.01, 1.0, 40)
    for mu in (0.05, 0.25, 0.6):
        for p_d in (0.0, 1e-7):
            values = [ecs_lossy_stats(mu, eta, p_d).s for eta in etas]
            assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))


def test_bell_state_known_points():
    perfect = bell_state_stats(1.0, 0.0)
    assert perfect.q_zz == pytest.approx(0.5, abs=1e-15)
    assert perfect.s == pytest.approx(SQRT8, abs=1e-12)
    assert perfect.e_zz == 0.0

    half = bell_state_stats(0.5, 0.0)
    assert half.q_zz == pytest.approx(0.125, abs=1e-15)
    assert half.s == pytest.approx(SQRT8, abs=1e-12)
    assert half.e_zz == 0.0

    lossy = bell_state_stats(0.08, 1e-7)
    assert lossy.s < SQRT8
    assert lossy.e_zz > 0.0


def test_bell_state_rejects_zero_efficiency():
    with pytest.raises(ParameterError):
        bell_state_stats(0.0, 0.0)
    # At p_d 0 the denominator is eta**2: a subnormal one has lost digits, and
    # s could round past 2*sqrt(2) (to 3.0 at 3.5e-162), so it is refused too.
    for eta in (1.1e-155, 1e-160, 3.5e-162, 1.6e-162):
        with pytest.raises(ParameterError,
                           match="^degenerate denominator in Bell-state statistics$"):
            bell_state_stats(eta, 0.0)
    # Nor is a transmittance formed from a NaN distance or an infinite loss.
    for call, field in (
        (lambda: channel_efficiency(math.nan, 0.2, 0.8), "distance_km"),
        (lambda: plob_bound(math.nan, 0.2, 0.8), "distance_km"),
        (lambda: plob_bound(10.0, math.inf, 0.8), "beta_db_per_km"),
    ):
        with pytest.raises(ParameterError, match=f"^{field} must be"):
            call()


def test_plob_known_values():
    # eta_AB = 0.5 at L = 50 log10(1.6) with beta = 0.2, eta_d = 0.8
    l_half = 50.0 * math.log10(1.6)
    assert plob_bound(l_half, 0.2, 0.8) == pytest.approx(1.0, abs=1e-12)
    # frozen from a 40-digit evaluation at eta_AB = 0.008
    assert plob_bound(100.0, 0.2, 0.8) == pytest.approx(0.011587974275211835, abs=1e-15)


def test_plob_first_order_expansion():
    rate = plob_bound(500.0, 0.2, 0.8)
    eta_ab = 0.8 * 10 ** (-0.2 * 500.0 / 10.0)
    assert rate == pytest.approx(eta_ab / math.log(2.0), rel=1e-6)


def test_plob_strictly_decreasing():
    distances = np.linspace(0.0, 500.0, 60)
    values = [plob_bound(d, 0.2, 0.8) for d in distances]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_plob_divergence_is_domain_error():
    with pytest.raises(ParameterError):
        plob_bound(0.0, 0.0, 1.0)


def test_param_validation():
    with pytest.raises(ParameterError):
        ProtocolParams(mu=0.0)
    with pytest.raises(ParameterError):
        ProtocolParams(mu=0.1, eta_d=0.0)
    with pytest.raises(ParameterError):
        ProtocolParams(mu=0.1, p_d=1.0)
    with pytest.raises(ParameterError):
        ProtocolParams(mu=0.1, e_d=0.6)
    with pytest.raises(ParameterError):
        ProtocolParams(mu=0.1, distance_km=-1.0)
    with pytest.raises(ParameterError, match="^mu must be"):
        ProtocolParams(mu=math.inf)
    with pytest.raises(ParameterError, match="^mu must be"):
        ecs_lossy_stats(math.inf, 0.5, 0.0)
    with pytest.raises(ParameterError, match="^distance_km must be"):
        ProtocolParams(mu=0.1, distance_km=math.nan)
    for beta in (-0.1, math.nan, math.inf):
        with pytest.raises(ParameterError):
            ProtocolParams(mu=0.1, beta_db_per_km=beta)
    with pytest.raises(ParameterError):
        DetectorStats(q_zz=1.2, s=0.0, e_zz=0.0)
    with pytest.raises(ParameterError):
        DetectorStats(q_zz=0.5, s=SQRT8 + 1e-6, e_zz=0.0)
    with pytest.raises(ParameterError, match="^e_zz must be"):
        DetectorStats(q_zz=0.5, s=2.5, e_zz=1.5)


def test_nan_chsh_value_is_rejected(monkeypatch):
    message = "^\\|s\\| exceeds 2\\*sqrt\\(2\\): nan$"
    with pytest.raises(ParameterError, match=message):
        check_stats(0.5, math.nan, 0.1)
    with pytest.raises(ParameterError, match=message):
        DetectorStats(q_zz=0.5, s=math.nan, e_zz=0.1)
    # A NaN CHSH value from the oracle's readout is a per-point error of the
    # comparison, not a pass.  Only the CHSH setting pairs (the columns after
    # the raw-key pair's four) are spoiled, so the gain and error rate stay finite.
    dark_counts = oracle.dark_counts

    def nan_chsh(sums, p_d):
        heralds = dark_counts(sums, p_d)
        heralds[:, len(oracle.OUTCOME_PAIRS):] = math.nan
        return heralds

    monkeypatch.setattr(oracle, "dark_counts", nan_chsh)
    report = verify_grid([(0.25, 0.5, 1e-5, 0.01)])
    assert not report.passed
    (point,) = report.errors
    assert point.error == "|s| exceeds 2*sqrt(2): nan"


def _scalar_misaligned(mu, eta, p_d, e_d):
    """The misaligned closed form as one scalar expression, which the list kernel must match."""
    x_dim = 2.0 * mu * eta * e_d
    x_bright = 2.0 * mu * eta * (1.0 - e_d)
    dim = math.expm1(x_dim)
    bracket = dim + math.expm1(x_bright) + 2.0 * p_d
    if not bracket >= sys.float_info.min:
        raise ParameterError("degenerate denominator in misaligned statistics")
    q_zz = (1.0 - p_d) * math.exp(-2.0 * mu * eta) * bracket
    w = (
        4.0 * math.cosh(mu * (2.0 - eta)) * math.sinh(mu * eta * (1.0 - 2.0 * e_d))
        - 2.0 * math.exp(-2.0 * mu * (1.0 - eta)) * (math.expm1(-x_dim) + p_d)
    )
    s = math.sqrt(2.0) * w / (math.exp(2.0 * mu * (1.0 - eta)) * bracket)
    e_zz = (dim + p_d) / bracket
    return q_zz, s, e_zz


def test_list_kernel_is_the_scalar_expression_bit_for_bit():
    # Arm transmittances from 1 down to the 700 km value at 0.2 dB/km, plus
    # one where 2*mu*eta is subnormal at the small seeds only, and subnormal ones.
    etas = [channel_efficiency(d, 0.2, eta_d) for eta_d in (1.0, 0.8) for d in range(0, 701, 50)]
    etas += [1e-305, 1e-310, 5e-324]
    # The default channel, e_d at 0 and 1/2, p_d at 0 and 1e-5; both seed
    # orders, so that a degenerate denominator can follow good points.
    channels = [(p_d, e_d) for p_d in (1e-7, 0.0, 1e-5) for e_d in (0.0, 0.03, 0.5)]
    raised_after = []
    for eta in etas:
        for p_d, e_d in channels:
            for mus in (SEEDS, SEEDS[::-1]):
                expected = []
                for mu in mus:
                    try:
                        expected.append(_scalar_misaligned(mu, eta, p_d, e_d))
                    except ParameterError:
                        break
                first = len(expected)
                args = (eta, p_d, e_d)
                assert repr(rates._ecs_misaligned(mus[:first], *args)) == repr(expected), args
                if first < len(mus):
                    raised_after.append(first)
                    with pytest.raises(ParameterError, match="^degenerate denominator"):
                        rates._ecs_misaligned(mus[: first + 1], *args)
    # p_d = 0, for each e_d: at 1e-310 and 5e-324 at the first seed in both
    # orders; at 1e-305 at the first seed in order, and after good points in
    # reverse.
    assert len(raised_after) == 18 and raised_after.count(0) == 15


def _decimal_misaligned(mu, eta, p_d, e_d):
    """The raw expressions of :func:`ecs_misaligned_stats`' docstring in
    50-digit decimal arithmetic, from the exact values of the floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        mu, eta, p_d, e_d = map(decimal.Decimal, (mu, eta, p_d, e_d))
        k = 1 - p_d
        dim, bright = 2 * mu * (1 - eta * e_d), 2 * mu * (1 - eta + eta * e_d)
        q_zz = k * ((-2 * mu * eta * e_d).exp() + (2 * mu * (eta * e_d - eta)).exp()
                    - 2 * k * (-2 * mu * eta).exp())
        denom = dim.exp() + bright.exp() - 2 * k * (2 * mu * (1 - eta)).exp()
        w = (dim.exp() - (-dim).exp() - bright.exp() - (-bright).exp()
             + 2 * k * (-2 * mu * (1 - eta)).exp())
        s = decimal.Decimal(2).sqrt() * w / denom
        e_zz = (bright.exp() - k * (2 * mu * (1 - eta)).exp()) / denom
        return float(q_zz), float(s), float(e_zz)


def test_bright_pulses_are_computed_or_refused_by_name():
    # The expressions overflow from mu 354.5; every mu past 350 is refused
    # with a message that names the limit, not the CHSH bound.
    for mu in (354.75, 400.0, 1e6, 1e300):
        with pytest.raises(ParameterError, match=r"^mu must be at most 350 .*, got "):
            ecs_misaligned_stats(mu, 0.5, 1e-7, 0.02)
    for mu, eta, p_d, e_d in itertools.product(
            (300.0, 350.0), (1.0, 0.5, 1e-3, 1e-8), (0.0, 1e-7, 0.5), (0.0, 0.02, 0.5)):
        actual = ecs_misaligned_stats(mu, eta, p_d, e_d)
        for value, reference in zip(actual, _decimal_misaligned(mu, eta, p_d, e_d)):
            assert math.isclose(value, reference, rel_tol=1e-12), (mu, eta, p_d, e_d)


def test_ecs_point_pipeline():
    point = ecs_point(ProtocolParams(mu=0.25, distance_km=0.0, eta_d=1.0, p_d=0.0))
    assert point.rate == pytest.approx(0.08698712742165916, abs=1e-12)
    assert point.rate <= point.stats.q_zz


# Every public entry point that takes each input, with the others in range.
ENTRY_POINTS = {
    "mu": (
        ecs_ideal_stats,
        lambda v: ecs_lossy_stats(v, 0.5, 0.0),
        lambda v: ecs_misaligned_stats(v, 0.5, 0.0, 0.0),
        lambda v: oracle_stats(v, 0.5, 0.0, 0.0),
        lambda v: verify_grid([(v, 0.5, 0.0, 0.0)]),
        lambda v: cat_branch(v, 0.0, +1),
        lambda v: ProtocolParams(mu=v),
        lambda v: SweepConfig(mu=v),
    ),
    "eta": (
        lambda v: ecs_lossy_stats(0.1, v, 0.0),
        lambda v: ecs_misaligned_stats(0.1, v, 0.0, 0.0),
        lambda v: bell_state_stats(v, 0.0),
        lambda v: oracle_stats(0.1, v, 0.0, 0.0),
        lambda v: verify_grid([(0.1, v, 0.0, 0.0)]),
    ),
    "eta_d": (
        lambda v: channel_efficiency(10.0, 0.2, v),
        lambda v: plob_bound(10.0, 0.2, v),
        lambda v: optimize_mu(10.0, 0.2, v, 0.0, 0.0),
        lambda v: verify_grid([(0.1, 0.5, 0.0, 0.0)], eta_d_literal=v),
        lambda v: ProtocolParams(mu=0.1, eta_d=v),
        lambda v: SweepConfig(eta_d=v),
    ),
    "p_d": (
        lambda v: ecs_lossy_stats(0.1, 0.5, v),
        lambda v: ecs_misaligned_stats(0.1, 0.5, v, 0.0),
        lambda v: bell_state_stats(0.5, v),
        lambda v: oracle_stats(0.1, 0.5, v, 0.0),
        lambda v: verify_grid([(0.1, 0.5, v, 0.0)]),
        lambda v: threshold_detect(mode_product(vacuum_state(4), vacuum_state(4)), v),
        lambda v: optimize_mu(10.0, 0.2, 0.8, v, 0.0),
        lambda v: ProtocolParams(mu=0.1, p_d=v),
        lambda v: SweepConfig(p_d=v),
    ),
    "e_d": (
        lambda v: ecs_misaligned_stats(0.1, 0.5, 0.0, v),
        lambda v: oracle_stats(0.1, 0.5, 0.0, v),
        lambda v: verify_grid([(0.1, 0.5, 0.0, v)]),
        lambda v: optimize_mu(10.0, 0.2, 0.8, 0.0, v),
        lambda v: ProtocolParams(mu=0.1, e_d=v),
        lambda v: SweepConfig(e_d=v),
    ),
}
OUT_OF_RANGE = {"mu": 0.0, "eta": 1.5, "eta_d": 0.0, "p_d": 1.0, "e_d": 0.6}


@pytest.mark.parametrize(
    "field, value",
    [(field, value) for field, bad in OUT_OF_RANGE.items()
     for value in (math.nan, math.inf, -math.inf, bad)],
)
def test_bad_value_gives_one_message_from_every_entry_point(field, value):
    messages = set()
    for call in ENTRY_POINTS[field]:
        with pytest.raises(ParameterError) as info:
            call(value)
        messages.add(str(info.value))
    assert len(messages) == 1
    message = messages.pop()
    assert message.startswith(f"{field} must be") and message.endswith(f"got {value}")
