"""The Fock-space verifier against the closed forms and its own invariants."""

from __future__ import annotations

import csv
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecs_diqkd import cli, fock, oracle
from ecs_diqkd.fock import (
    CutoffError,
    beamsplitter_apply,
    coherent_fock,
    loss_apply,
    misalignment_rotate,
    mode_product,
    threshold_detect,
    vacuum_state,
)
from ecs_diqkd.oracle import (
    CHSH_PAIRS,
    SETTING_ANGLES,
    acceptance_grid,
    cat_branch,
    misaligned_e_zz_literal,
    oracle_stats,
    verify_grid,
)
from ecs_diqkd.optimize import SweepConfig
from ecs_diqkd.params import ParameterError
from ecs_diqkd.rates import (
    channel_efficiency,
    ecs_ideal_stats,
    ecs_lossy_stats,
    ecs_misaligned_stats,
)

N_MAX = 30


def test_setting_table():
    assert SETTING_ANGLES["A0"] == SETTING_ANGLES["B1"] == 0.0
    assert SETTING_ANGLES["A1"] == math.pi / 4
    assert SETTING_ANGLES["A2"] == -math.pi / 4
    assert SETTING_ANGLES["B2"] == math.pi / 2


def test_decomposition_normalizations():
    # The priors are (M+-)^2 / 2 with M+- = sqrt(1 +- sin(theta) e^(-2 mu)).
    overlap = math.exp(-2.0 * 0.25)
    *_, prior_plus = cat_branch(0.25, math.pi / 4, +1)
    *_, prior_minus = cat_branch(0.25, math.pi / 4, -1)
    assert prior_plus == pytest.approx((1.0 + overlap / math.sqrt(2.0)) / 2.0, abs=1e-15)
    assert prior_minus == pytest.approx((1.0 - overlap / math.sqrt(2.0)) / 2.0, abs=1e-15)
    assert prior_plus + prior_minus == pytest.approx(1.0, abs=1e-15)


def test_decomposition_z_basis_amplitudes():
    # theta = 0 projects onto the bare coherent states.
    assert cat_branch(0.3, 0.0, +1)[:2] == pytest.approx((1.0, 0.0))
    assert cat_branch(0.3, 0.0, -1)[:2] == pytest.approx((0.0, -1.0))


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(min_value=0.01, max_value=1.0),
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_decomposition_superposition_normalization(mu, theta):
    # |c1|^2 + |c2|^2 + 2 c1 c2 <alpha|-alpha> = 1 for both outcomes
    overlap = math.exp(-2.0 * mu)
    for outcome in (+1, -1):
        c1, c2, _ = cat_branch(mu, theta, outcome)
        assert c1 * c1 + c2 * c2 + 2.0 * c1 * c2 * overlap == pytest.approx(1.0, abs=1e-12)


def test_two_party_state_resolution():
    # Combining the two initial states resolves into the four Bell (x)
    # two-mode-superposition terms with weights sqrt(N+-) / (2 sqrt(2)).
    mu = 0.35
    alpha = math.sqrt(mu)
    dim = N_MAX + 1
    plus = coherent_fock(alpha, N_MAX)[:, 0].real
    minus = coherent_fock(-alpha, N_MAX)[:, 0].real

    e_up = np.array([1.0, 0.0])
    e_dn = np.array([0.0, 1.0])

    # Direct product of the two local entangled states, axes
    # (spin_a, spin_b, opt_a, opt_b).
    local_a = [(e_up, plus), (e_dn, minus)]
    direct = np.zeros((2, 2, dim, dim))
    for sa, oa in local_a:
        for sb, ob in local_a:
            direct += 0.5 * np.einsum("i,j,k,l->ijkl", sa, sb, oa, ob)

    n_plus = 2.0 * (1.0 + math.exp(-4.0 * mu))
    n_minus = 2.0 * (1.0 - math.exp(-4.0 * mu))

    def bell(sign, flip):
        a = np.einsum("i,j->ij", e_up, e_dn if flip else e_up)
        b = np.einsum("i,j->ij", e_dn, e_up if flip else e_dn)
        return (a + sign * b) / math.sqrt(2.0)

    def ecs(sign, flip, norm):
        a = np.einsum("k,l->kl", plus, minus if flip else plus)
        b = np.einsum("k,l->kl", minus, plus if flip else minus)
        return (a + sign * b) / math.sqrt(norm)

    resolved = np.zeros((2, 2, dim, dim))
    for sign, flip, norm in [(+1, False, n_plus), (-1, False, n_minus),
                             (+1, True, n_plus), (-1, True, n_minus)]:
        weight = math.sqrt(norm) / (2.0 * math.sqrt(2.0))
        resolved += weight * np.einsum("ij,kl->ijkl", bell(sign, flip), ecs(sign, flip, norm))

    assert np.max(np.abs(direct - resolved)) < 1e-12


def test_oracle_matches_ideal_case():
    ideal = ecs_ideal_stats(0.25)
    actual = oracle_stats(0.25, 1.0, 0.0, 0.0)
    assert actual.q_zz == pytest.approx(ideal.q_zz, abs=1e-8)
    assert actual.s == pytest.approx(ideal.s, abs=1e-8)
    assert actual.e_zz == pytest.approx(ideal.e_zz, abs=1e-8)


def test_oracle_vacuum_limit_of_chsh():
    # s approaches 2 sqrt(2) from below as the intensity vanishes.
    s_small = oracle_stats(0.002, 0.4, 0.0, 0.0).s
    s_smaller = oracle_stats(0.0005, 0.4, 0.0, 0.0).s
    ceiling = 2.0 * math.sqrt(2.0)
    assert s_small < s_smaller < ceiling
    assert s_smaller > ceiling - 0.01


def test_oracle_matches_lossy_closed_form():
    closed = ecs_lossy_stats(0.1, 0.08, 1e-7)
    actual = oracle_stats(0.1, 0.08, 1e-7, 0.0)
    assert actual.q_zz == pytest.approx(closed.q_zz, abs=1e-8)
    assert actual.s == pytest.approx(closed.s, abs=1e-8)
    assert actual.e_zz == pytest.approx(closed.e_zz, abs=1e-8)


def test_oracle_matches_misaligned_closed_form():
    closed = ecs_misaligned_stats(0.1, 0.08, 1e-7, 0.01)
    actual = oracle_stats(0.1, 0.08, 1e-7, 0.01)
    assert actual.q_zz == pytest.approx(closed.q_zz, abs=1e-8)
    assert actual.s == pytest.approx(closed.s, abs=1e-8)
    assert actual.e_zz == pytest.approx(closed.e_zz, abs=1e-8)


def test_oracle_full_decoherence_limit():
    assert oracle_stats(0.1, 0.08, 0.0, 0.5).e_zz == pytest.approx(0.5, abs=1e-8)


def test_oracle_truncation_insensitivity():
    coarse = oracle_stats(0.25, 0.5, 1e-5, 0.01, n_max=30)
    fine = oracle_stats(0.25, 0.5, 1e-5, 0.01, n_max=60)
    assert coarse.q_zz == pytest.approx(fine.q_zz, abs=1e-10)
    assert coarse.s == pytest.approx(fine.s, abs=1e-10)
    assert coarse.e_zz == pytest.approx(fine.e_zz, abs=1e-10)


def test_oracle_cutoff_certificate():
    with pytest.raises(CutoffError):
        oracle_stats(1.0, 0.5, 0.0, 0.0, n_max=10)


def test_oracle_herald_sum_check_fails_nan_heralds(monkeypatch):
    def nan_readout(sums, p_d):
        return np.full(sums.shape, np.nan)

    monkeypatch.setattr(oracle, "dark_counts", nan_readout)
    with pytest.raises(CutoffError, match="sum to nan"):
        oracle_stats(0.25, 0.5, 1e-5, 0.01)


def test_oracle_herald_sum_message_prints_a_huge_sum_in_short_form(monkeypatch):
    def huge_readout(sums, p_d):
        return np.full(sums.shape, 1e267)

    monkeypatch.setattr(oracle, "dark_counts", huge_readout)
    with pytest.raises(CutoffError, match=r"sum to 1\.6e\+268; cutoff too small$"):
        oracle_stats(0.25, 0.5, 1e-5, 0.01)


def test_oracle_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        oracle_stats(0.0, 0.5, 0.0, 0.0)
    with pytest.raises(ParameterError):
        oracle_stats(0.1, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        oracle_stats(0.1, 0.5, 0.0, 0.6)
    for mu in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            oracle_stats(mu, 0.5, 0.0, 0.0)
    with pytest.raises(ParameterError, match="^mu must be"):
        cat_branch(math.inf, 0.0, +1)
    # The cutoff follows verify_grid's rule: an integer in [1, MAX_N_MAX].
    for n_max in (0, oracle.MAX_N_MAX + 1, 1000):
        with pytest.raises(ParameterError, match=r"^n_max must be in \[1, 200\]"):
            oracle_stats(0.1, 0.5, 0.0, 0.0, n_max=n_max)
    for n_max in (60.5, 30.0, True, "30"):
        with pytest.raises(ParameterError, match="^n_max must be an integer"):
            oracle_stats(0.1, 0.5, 0.0, 0.0, n_max=n_max)


def test_acceptance_grid_shape():
    grid = acceptance_grid()
    assert len(grid) == 5 * 4 * 3 * 3
    assert (0.25, 1.0, 0.0, 0.0) in grid


def test_verify_point_does_not_depend_on_its_call_mates():
    # No optical state cached across calls and no batch widened across
    # points: a point checked alone reads the same as in the whole grid,
    # where it shares its optical state with the two points that differ from
    # it only in p_d.
    points = acceptance_grid()
    together = verify_grid(points=points).points
    assert [check[:4] for check in together] == points
    for point, shared in zip(points, together):
        assert repr(verify_grid(points=[point]).points[0]) == repr(shared)


def test_oracle_builds_no_splitter_blocks():
    # The oracle reads the central splitter at its edges and sends loss
    # through fock.loss_apply, so it builds no splitter blocks: no miss for
    # the grid, 20 off-grid etas or a second grid run.
    blocks = fock._beamsplitter_blocks
    blocks.cache_clear()
    assert verify_grid().passed
    assert blocks.cache_info().misses == 0
    rng = np.random.default_rng(20261020)
    for eta in rng.uniform(0.06, 0.99, size=20):
        assert eta not in oracle.ACCEPTANCE_ETAS
        verify_grid(points=[(0.1, float(eta), 1e-7, 0.01)])
    assert verify_grid().passed
    info = blocks.cache_info()
    assert (info.misses, info.currsize) == (0, 0)


def test_verify_builds_one_optical_state_per_dark_count_group(monkeypatch):
    # p_d enters only the readout: the 180 grid points need 60 optical states.
    calls = []
    optical_state = oracle._optical_state

    def counted(*args):
        calls.append(args)
        return optical_state(*args)

    monkeypatch.setattr(oracle, "_optical_state", counted)
    assert verify_grid().passed
    assert len(calls) == 60


def test_verify_sums_regions_once_per_optical_state(monkeypatch):
    # The region sums are p_d-free: the 180 grid points take 60 readouts of
    # the central splitter, each from the two side bases and the 2 x 2
    # factors of all arms, and one dark-count map per point.
    passes, maps = [], []
    readout_sums, dark_counts = oracle._readout_sums, oracle.dark_counts

    def counted_sums(basis_a, basis_b, factor):
        passes.append((basis_a.shape, basis_b.shape, factor.shape))
        return readout_sums(basis_a, basis_b, factor)

    def counted_maps(sums, p_d):
        maps.append(p_d)
        return dark_counts(sums, p_d)

    monkeypatch.setattr(oracle, "_readout_sums", counted_sums)
    monkeypatch.setattr(oracle, "dark_counts", counted_maps)
    assert verify_grid().passed
    assert passes == [((N_MAX + 1, 2), (N_MAX + 1, 2), (len(oracle.ARMS), 2, 2))] * 60
    assert sorted(maps) == sorted(p_d for _, _, p_d, _ in acceptance_grid())


def test_verify_reads_out_a_failed_optical_state_as_an_error_per_point():
    # All three p_d siblings of an uncertifiable point carry the same error.
    points = [(1.0, 0.5, p_d, 0.0) for p_d in oracle.ACCEPTANCE_PDS]
    report = verify_grid(points=points + [(0.1, 0.5, 1e-7, 0.01)], n_max=10)
    assert [check.error is None for check in report.points] == [False, False, False, True]
    assert len({check.error for check in report.errors}) == 1


def test_verify_reads_out_bright_points_at_the_largest_cutoff():
    # The edge readout builds no splitter blocks, whose rounding at large
    # photon numbers once failed these points' norm certificate.
    points = [(mu, 1.0, 1e-7, 0.01) for mu in (30.0, 35.0, 40.0, 45.0)]
    report = verify_grid(points=points, n_max=oracle.MAX_N_MAX)
    assert report.errors == []
    assert max(check.max_dev() for check in report.points) < 1e-8


def test_verify_reads_out_faint_points():
    # The B2 branch's normalisation 1 - e^(-2 mu) is formed without
    # cancelling, and its odd branch has exactly no even part, so faint
    # pulses keep their herald sum at 1 instead of failing it.
    channels = [(eta, e_d) for eta in (1.0, 0.3, 0.2) for e_d in (0.0, 0.02)]
    points = [(10.0**-k, eta, 0.0, e_d) for k in range(8, 15) for eta, e_d in channels]
    report = verify_grid(points=points)
    assert report.errors == []
    assert max(check.max_dev() for check in report.points) < 1e-8
    # Down to mu 1e-300.  At p_d 0 and mu <= 1e-16 the
    # literal e_zz reading divides by zero, so verify_grid is checked at
    # p_d 1e-7 and the oracle alone at p_d 0.
    faint = [10.0**-k for k in (15, 16, 17, 20, 30, 50, 100, 200, 300)]
    report = verify_grid(points=[(mu, eta, 1e-7, e_d) for mu in faint for eta, e_d in channels])
    assert report.errors == []
    assert max(check.max_dev() for check in report.points) < 1e-8
    for mu in faint:
        for eta, e_d in channels:
            expected = ecs_misaligned_stats(mu, eta, 0.0, e_d)
            assert max(map(abs, np.subtract(oracle_stats(mu, eta, 0.0, e_d), expected))) < 1e-8


def test_cat_branch_is_exactly_even_or_odd_where_sin_theta_is_one():
    for mu in (1e-300, 1e-17, 0.3):
        for theta in (math.pi / 2, -math.pi / 2):
            for outcome in (+1, -1):
                c_plus, c_minus, _ = cat_branch(mu, theta, outcome)
                assert c_plus == c_minus or c_plus == -c_minus


def test_verify_adjudicates_e_zz_reading():
    report = verify_grid(
        points=[(0.1, 0.08, 1e-7, 0.01), (0.25, 0.5, 1e-5, 0.07)], tol=1e-8
    )
    assert report.passed
    assert report.supported_e_zz_reading == "eta"
    assert report.max_dev_e_zz < 1e-8
    # the literal eta_d reading misses by orders of magnitude more
    assert report.max_dev_e_zz_literal > 1e3 * report.max_dev_e_zz


def test_literal_reading_breaks_lossless_reduction():
    # At e_d = 0 the literal arrangement fails to reduce to the lossy error
    # rate whenever eta != eta_d, which is what disqualifies it.
    eta = 0.08
    lossy = ecs_lossy_stats(0.1, eta, 1e-7).e_zz
    literal = misaligned_e_zz_literal(0.1, eta, 0.8, 1e-7, 0.0)
    assert abs(literal - lossy) > 0.1


def test_verify_reports_cutoff_failures():
    # At n_max 10 the bright point leaves too much tail mass; the dim one not.
    report = verify_grid(points=[(1.0, 0.5, 0.0, 0.0), (0.1, 0.5, 1e-7, 0.01)], n_max=10)
    assert not report.passed
    failed, certified = report.points
    assert report.errors == [failed]
    assert "n_max=10 leaves tail mass" in failed.error
    assert certified.error is None
    # The failed point has no deviations, and the maxima skip it.
    for field in ("dev_q_zz", "dev_s", "dev_e_zz", "dev_e_zz_literal"):
        assert math.isnan(getattr(failed, field))
        assert getattr(report, f"max_{field}") == getattr(certified, field)


def test_verify_with_no_point_read_out_has_no_maxima():
    report = verify_grid(points=[(1.0, 0.5, 0.0, 0.0), (1.0, 0.5, 1e-7, 0.0)], n_max=10)
    assert len(report.errors) == 2
    for field in ("dev_q_zz", "dev_s", "dev_e_zz", "dev_e_zz_literal"):
        assert math.isnan(getattr(report, f"max_{field}"))
    assert report.supported_e_zz_reading == "undetermined"
    assert not report.passed


def test_verify_reads_out_every_row_the_default_sweep_prints(capsys):
    # The rows users read: mu* from the optimizer (placeholder rows at the
    # flagged mu included) and arm transmittances down to the far end of
    # the default grid, then the ECS rows of a 0-700 km channel, where eta
    # falls to 8e-8 and 51 of 141 rows are placeholders, most past the CHSH
    # horizon, printed without a search.  Each printed triple is the closed
    # form at its row, and the oracle agrees with it.
    for argv, config, count, placeholders in (
        (["sweep"], SweepConfig(), 121, 28),
        (["sweep", "--l-max", "700", "--e-d", "0.01", "--protocols", "ecs"],
         SweepConfig(l_max_km=700.0, e_d=0.01), 141, 51),
    ):
        assert cli.main(argv) == cli.EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == count
        assert sum(row["mu"] == "0.50005" and row["rate_ecs"] == "0.0" for row in rows) == (
            placeholders
        )
        points = []
        for row in rows:
            eta = channel_efficiency(
                float(row["distance_km"]), config.beta_db_per_km, config.eta_d
            )
            point = (float(row["mu"]), eta, config.p_d, config.e_d)
            assert ecs_misaligned_stats(*point) == tuple(
                float(row[f]) for f in ("q_zz", "s", "e_zz")
            )
            points.append(point)
        report = verify_grid(points=points)
        assert not report.errors
        assert report.passed
        assert max(check.max_dev() for check in report.points) < 1e-8


@pytest.mark.parametrize(
    "tol, n_max",
    [(math.nan, 30), (math.inf, 30), (0.0, 30), (-1e-8, 30), (1e-8, 0), (1e-8, 201)],
)
def test_verify_rejects_bad_settings(tol, n_max):
    with pytest.raises(ParameterError):
        verify_grid(points=[(0.25, 1.0, 0.0, 0.0)], tol=tol, n_max=n_max)


@pytest.mark.parametrize(
    "kwargs",
    [{"eta_d_literal": math.nan}, {"eta_d_literal": 0.0}, {"eta_d_literal": 2.0},
     {"points": [(math.nan, 1.0, 0.0, 0.0)]}, {"points": [(0.25, 1.0, 0.0, 0.9)]}],
    ids=repr,
)
def test_verify_rejects_bad_literal_eta_d_and_points(kwargs, monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("oracle work started")

    monkeypatch.setattr(oracle, "_optical_state", refuse)
    with pytest.raises(ParameterError):
        verify_grid(**{"points": [(0.25, 1.0, 0.0, 0.0)], **kwargs})


def _reference_oracle(mu: float, eta: float, p_d: float, e_d: float, n_max: int = N_MAX):
    """The oracle's model, one arm and one eigenvector product at a time.

    Built only from the public single-state operations: every arm mixture
    gets its own loss beamsplitter, and every pure product its own central
    beamsplitter and readout.  Loss goes through the splitter blocks, not
    ``loss_apply``, so this also checks the oracle's vacuum column.
    """
    alpha = math.sqrt(mu)
    delta0 = math.acos(1.0 - 2.0 * e_d)
    arms, priors = {}, {}
    for role, theta in SETTING_ANGLES.items():
        for outcome in (+1, -1):
            c_plus, c_minus, prior = cat_branch(mu, theta, outcome)
            pulse = (
                c_plus * coherent_fock(alpha, n_max) + c_minus * coherent_fock(-alpha, n_max)
            )
            arm = beamsplitter_apply(mode_product(pulse, vacuum_state(n_max)), eta)
            if role.startswith("B"):
                arm = misalignment_rotate(arm, delta0)
            psi = arm[..., 0]
            weights, vectors = np.linalg.eigh(psi @ psi.conj().T)
            keep = weights > 1e-14
            arms[role, outcome] = (weights[keep], vectors[:, keep])
            priors[role, outcome] = prior

    def heralds(role_a, a, role_b, b):
        (w_a, v_a), (w_b, v_b) = arms[role_a, a], arms[role_b, b]
        totals = np.zeros(4)
        for p in range(len(w_a)):
            for q in range(len(w_b)):
                joint = mode_product(v_a[:, p:p + 1], v_b[:, q:q + 1])
                joint = beamsplitter_apply(joint, 0.5)
                totals += w_a[p] * w_b[q] * threshold_detect(joint, p_d)[:, 0]
        return totals  # d1_only, d2_only, none, both

    q_zz = error_mass = 0.0
    for a in (+1, -1):
        for b in (+1, -1):
            weight = priors["A0", a] * priors["B1", b]
            d1, d2, _, _ = heralds("A0", a, "B1", b)
            q_zz += weight * (d1 + d2)
            error_mass += weight * (d1 if a != b else d2)
    s = 0.0
    for role_a, role_b, sign in CHSH_PAIRS:
        flip = -1.0 if SETTING_ANGLES[role_b] == 0.0 else 1.0
        numerator = success = 0.0
        for a in (+1, -1):
            for b in (+1, -1):
                weight = priors[role_a, a] * priors[role_b, b]
                d1, d2, _, _ = heralds(role_a, a, role_b, b)
                numerator += weight * a * b * (d1 + flip * d2)
                success += weight * (d1 + d2)
        s += sign * numerator / success
    return q_zz, s, error_mass / q_zz


@pytest.mark.parametrize(
    "point",
    [
        (0.1, 0.08, 1e-7, 0.01),
        (0.25, 0.5, 1e-5, 0.07),
        (0.5, 1.0, 1e-6, 0.03),
        (0.01, 0.2, 3e-8, 0.2),
        (0.37, 0.61, 2e-5, 0.5),
        (0.25, 1.0, 1e-6, 0.0),  # every arm a pure state
        (0.3, 1e-6, 1e-7, 0.02),
    ],
)
def test_oracle_matches_per_product_reference(point):
    actual = oracle_stats(*point)
    q_zz, s, e_zz = _reference_oracle(*point)
    assert abs(actual.q_zz - q_zz) <= 1e-12
    assert abs(actual.s - s) <= 1e-12
    assert abs(actual.e_zz - e_zz) <= 1e-12


# The region the acceptance grid certifies: mu, eta, p_d and e_d each span
# the grid's own range.  Every example is a fresh transmittance, which the
# loss step takes without building splitter blocks.  200 examples take
# about 1 s, which keeps the whole suite well under its time before the
# oracle was batched.
@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(min_value=0.01, max_value=0.5),
    eta=st.floats(min_value=0.05, max_value=1.0),
    p_d=st.one_of(st.just(0.0), st.floats(min_value=1e-8, max_value=1e-5)),
    e_d=st.floats(min_value=0.0, max_value=0.07),
)
def test_oracle_matches_closed_form_at_random_points(mu, eta, p_d, e_d):
    closed = ecs_misaligned_stats(mu, eta, p_d, e_d)
    actual = oracle_stats(mu, eta, p_d, e_d)
    assert abs(actual.q_zz - closed.q_zz) < 1e-8
    assert abs(actual.s - closed.s) < 1e-8
    assert abs(actual.e_zz - closed.e_zz) < 1e-8


# Below the acceptance grid, down to the transmittances where the paper's
# ECS rate beats the PLOB bound, the click probabilities are of order
# mu eta.  A readout that forms them as differences of no-click
# probabilities near 1 errs by about 1e-16 / (mu eta) relative, up to 4e-8
# here; summing the clicked events keeps them to roundoff.  On the grid
# points without misalignment e_zz is a small ratio of dark-count terms,
# which the grid tests hold only to 1e-8 absolute; a readout that is not a
# sum of squares (a Gram form of each pair) lost up to 6e-10 relative of it.
def test_oracle_matches_closed_form_at_low_transmittance():
    rng = np.random.default_rng(20261018)
    points = []
    for _ in range(40):
        eta = float(10.0 ** rng.uniform(-8.0, math.log10(0.05)))
        mu = float(10.0 ** rng.uniform(-3.0, 0.0))
        p_d = float(10.0 ** rng.uniform(-9.0, -5.0))
        points.append((mu, eta, p_d, float(rng.uniform(0.0, 0.07))))
    points += [point for point in acceptance_grid() if point[3] == 0.0 and point[2] > 0.0]
    assert len(points) == 80
    for point in points:
        closed = ecs_misaligned_stats(*point)
        actual = oracle_stats(*point)
        assert actual.q_zz == pytest.approx(closed.q_zz, rel=1e-12, abs=0.0), point
        assert actual.s == pytest.approx(closed.s, rel=0.0, abs=1e-12), point
        assert actual.e_zz == pytest.approx(closed.e_zz, rel=1e-12, abs=0.0), point


def _arm_cases():
    """(mu, eta, e_d, n_max) of the acceptance grid, 40 seeded points, and eta = 1, e_d = 0."""
    cases = sorted({(mu, eta, e_d, N_MAX) for mu, eta, _, e_d in acceptance_grid()})
    rng = np.random.default_rng(20261019)
    for k in range(40):
        eta = float(10.0 ** rng.uniform(-8.0, 0.0))
        mu = float(10.0 ** rng.uniform(-3.0, 0.0))
        cases.append((mu, eta, float(rng.uniform(0.0, 0.5)), (30, 60)[k % 2]))
    return cases + [(0.3, 1.0, 0.0, N_MAX)]


def _arm_states(mu: float, eta: float, e_d: float, n_max: int) -> np.ndarray:
    """Every arm's lost state, shape (len(ARMS), signal, environment), built
    from its own conditional pulse rather than from the two coherent pulses."""
    alpha = math.sqrt(mu)
    c_plus, c_minus, _ = np.array(
        [cat_branch(mu, SETTING_ANGLES[role], outcome) for role, outcome in oracle.ARMS]
    ).T
    pulses = c_plus * coherent_fock(alpha, n_max) + c_minus * coherent_fock(-alpha, n_max)
    arms = beamsplitter_apply(mode_product(pulses, vacuum_state(n_max)), eta)
    bob = [role.startswith("B") for role, _ in oracle.ARMS]
    arms[..., bob] = misalignment_rotate(arms[..., bob], math.acos(1.0 - 2.0 * e_d))
    return np.moveaxis(arms, -1, 0)


def _pure_arms(eta: float, e_d: float) -> list[int]:
    """The arms whose lost state is pure: A0 and B1 always, every arm at eta = 1, e_d = 0."""
    if eta == 1.0 and e_d == 0.0:
        return list(range(len(oracle.ARMS)))
    return [arm for arm, (role, _) in enumerate(oracle.ARMS) if role in ("A0", "B1")]


def _central_steps(monkeypatch) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Record each call of the oracle's central-splitter readout as (bases, factors, sums).

    The bases, shape (2, n_max + 1, 2), are Alice's then Bob's; each arm's
    2x2 factor F is in its side's coordinates; the sums are the readout's
    region sums, shape (4, 80), of every pair's four component products.
    """
    steps = []
    readout_sums = oracle._readout_sums

    def recorded(basis_a, basis_b, factor):
        sums = readout_sums(basis_a, basis_b, factor)
        steps.append((np.stack([basis_a, basis_b]), factor, sums))
        return sums

    monkeypatch.setattr(oracle, "_readout_sums", recorded)
    return steps


def test_arm_factor_reproduces_the_mixture(monkeypatch):
    # In its side's coordinates, every arm's factor F rebuilds its density
    # matrix as F F+, and mapped back by the side's basis it rebuilds it in
    # Fock space, so the basis spans the arm.  A pure arm's F leaves its
    # second column empty up to rounding.
    steps = _central_steps(monkeypatch)
    for mu, eta, e_d, n_max in _arm_cases():
        oracle._optical_state(mu, eta, e_d, n_max)
        bases, factors, _ = steps.pop()
        psi = _arm_states(mu, eta, e_d, n_max)
        rho = psi @ psi.conj().swapaxes(1, 2)
        for arm, factor in enumerate(factors):
            basis = bases[int(oracle.ARMS[arm][0].startswith("B"))]
            mixture = factor @ factor.conj().T
            in_side = basis.conj().T @ rho[arm] @ basis
            assert np.max(np.abs(mixture - in_side)) <= 1e-14, (mu, eta, e_d, n_max, arm)
            in_fock = basis @ mixture @ basis.conj().T
            assert np.max(np.abs(in_fock - rho[arm])) <= 1e-14, (mu, eta, e_d, n_max, arm)
        for arm in _pure_arms(eta, e_d):
            second = np.sum(np.abs(factors[arm, :, 1]) ** 2)
            assert second <= 1e-28, (mu, eta, e_d, n_max, arm)


@pytest.mark.parametrize("extra", [1e-3, math.nan], ids=["third component", "nan"])
def test_arm_span_certificate_fires(monkeypatch, extra):
    # An amplitude of the lost |alpha> outside the span of the basis (or a
    # NaN one) leaves each arm that carries that pulse outside it too.
    def corrupt(state, transmittance):
        out = loss_apply(state, transmittance)
        out[5, 2, 0] += extra  # signal |5>, environment |2>, pulse |alpha>
        return out

    monkeypatch.setattr(oracle, "loss_apply", corrupt)
    with pytest.raises(CutoffError, match=r"arm \('A0', 1\) leaves mass .* outside the span"):
        oracle_stats(0.25, 0.37, 1e-5, 0.01)


def _eta_floor_cases() -> list[tuple[float, float, float, int]]:
    """(mu, eta, e_d, n_max) of eight seeded points at eta 1e-8."""
    rng = np.random.default_rng(20261020)
    return [(float(10.0 ** rng.uniform(-3.0, 0.0)), 1e-8, float(rng.uniform(0.0, 0.5)), n_max)
            for n_max in (30, 60) for _ in range(4)]


def test_edge_readout_matches_the_formed_splitter_output(monkeypatch):
    # The readout takes V12, only1 and only2 from the central splitter's edge
    # rows and lit as the in-cutoff mass less them, so the herald sum no
    # longer checks the edges.  Against region_sums of beamsplitter_apply's
    # output, combined from the four basis products: V12, only1 and only2
    # within 1e-14 of each product's mass (of the sum itself at eta 1e-8,
    # where the edges are faint), and lit within 1e-14.  The bright points
    # (mu 30 to 45) check the blocks at the largest cutoff.
    steps = _central_steps(monkeypatch)
    grid = sorted({(mu, eta, e_d, N_MAX) for mu, eta, _, e_d in acceptance_grid()})
    bright = [(mu, 1.0, 0.01, oracle.MAX_N_MAX) for mu in (30.0, 35.0, 40.0, 45.0)]
    cases = grid + _eta_floor_cases() + [(20.0, 0.5, 0.03, 120)] + bright
    assert len(grid) == 60
    for mu, eta, e_d, n_max in cases:
        oracle._optical_state(mu, eta, e_d, n_max)
        bases, factors, readout = steps.pop()
        outputs = beamsplitter_apply(
            mode_product(bases[0][:, [0, 0, 1, 1]], bases[1][:, [0, 1, 0, 1]]), 0.5
        )
        coefficients = []
        for (role_a, role_b), (a, b) in itertools.product(oracle.ROLE_PAIRS, oracle.OUTCOME_PAIRS):
            i, j = oracle.ARMS.index((role_a, a)), oracle.ARMS.index((role_b, b))
            for p, q in itertools.product(range(2), repeat=2):
                coefficients.append([factors[i, x, p] * factors[j, y, q]
                                     for x, y in itertools.product(range(2), repeat=2)])
        formed = fock.region_sums(outputs @ np.array(coefficients).T)
        assert readout.shape == formed.shape == (4, 80)
        scale = formed[:3] if eta == 1e-8 else formed.sum(axis=0)
        assert np.all(np.abs(readout[:3] - formed[:3]) <= 1e-14 * scale), (mu, eta, e_d, n_max)
        assert np.max(np.abs(readout[3] - formed[3])) <= 1e-14, (mu, eta, e_d, n_max)


def test_oracle_working_set_stays_below_the_formed_batch():
    # A point at MAX_N_MAX forms no (d^2, 80) batch, which alone is 51.7 MB,
    # and no splitter blocks, which are 43 MB.
    tracemalloc.start()
    try:
        oracle_stats(0.3, 0.41, 1e-6, 0.02, n_max=oracle.MAX_N_MAX)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


def test_optical_state_splits_two_pulses_and_four_basis_products(monkeypatch):
    # Loss acts on |alpha> and |-alpha> only, whatever the number of arms,
    # and the central splitter is read from the side bases without a call.
    batches = []

    def recorder(operation, name):
        def recorded(state, transmittance):
            batches.append((name, state.shape[-1], transmittance))
            return operation(state, transmittance)
        return recorded

    monkeypatch.setattr(oracle, "loss_apply", recorder(loss_apply, "loss"))
    monkeypatch.setattr(oracle, "beamsplitter_apply", recorder(beamsplitter_apply, "splitter"))
    oracle_stats(0.25, 0.37, 1e-5, 0.01)
    assert batches == [("loss", 2, 0.37)]
