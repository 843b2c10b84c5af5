"""First-principles verifier of the heralded statistics.

For every measurement setting pair and spin outcome pair, this module builds
the conditional optical state sent to the central station, evolves it through
loss, misalignment, and the symmetric beamsplitter in a truncated Fock space
(by linearity, from the two coherent pulses and the products of basis vectors),
reads out threshold detectors with dark counts, applies the classical flip
rule, and aggregates the same triple the closed forms predict.  Each arm's
mixed state is F F+ for a 2x2 factor F in its side's basis, so a pair of
arms is the sum of four pure products, and its herald probabilities are
the sum of their readouts.  It never
calls anything in :mod:`ecs_diqkd.rates` to produce its numbers; the rates
module is imported only by the comparison report at the bottom.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

import numpy as np

from . import rates
from .fock import (
    MAX_N_MAX,
    TAIL_MASS_BOUND,
    CutoffError,
    _squared_sums,
    beamsplitter_apply,
    check_n_max,
    coherent_fock,
    dark_counts,
    loss_apply,
    misalignment_rotate,
    mode_product,
    poisson_tail,
    region_sums,
    threshold_detect,  # noqa: F401  unused; bound because benchmarks/tracer.py wraps it
    vacuum_state,
)
from .params import (
    DEFAULT_ETA_D_LITERAL,
    DEFAULT_N_MAX,
    DEFAULT_TOL,
    DetectorStats,
    ParameterError,
    check_point,
)

# Largest squared norm an arm state may leave outside the two-dimensional
# basis of its side.  The exact model leaves none; rounding left at most
# 1.6e-30 on the acceptance grid, 1.3e-29 on 200 seeded points with eta down
# to 1e-8 (n_max 30 and 60), and 3.5e-31 at mu = 20 with n_max = 120.
_SPAN_RESIDUAL_BOUND = 1e-14

# Spin measurement directions chi_theta = cos(theta) sigma_z + sin(theta) sigma_x.
SETTING_ANGLES: dict[str, float] = {
    "A0": 0.0,
    "A1": math.pi / 4.0,
    "A2": -math.pi / 4.0,
    "B1": 0.0,
    "B2": math.pi / 2.0,
}

# Correlator signs of the CHSH combination <A1B1> - <A1B2> + <A2B1> + <A2B2>.
CHSH_PAIRS: tuple[tuple[str, str, float], ...] = (
    ("A1", "B1", +1.0),
    ("A1", "B2", -1.0),
    ("A2", "B1", +1.0),
    ("A2", "B2", +1.0),
)


def cat_branch(mu: float, theta: float, outcome: int) -> tuple[float, float, float]:
    """Spin-conditional branch of one entangled atom-light cat state.

    Measuring the atom along chi_theta with outcome +/-1 projects the optical
    pulse onto c_plus |alpha> + c_minus |-alpha>, normalized by
    M+- = sqrt(1 +- sin(theta) e^(-2 mu)); the outcome has prior (M+-)^2 / 2.
    Returns ``(c_plus, c_minus, prior)``.
    """
    check_point(mu)
    overlap = math.exp(-2.0 * mu)  # <alpha|-alpha> for real alpha
    half = theta / 2.0
    if outcome > 0:
        m = math.sqrt(1.0 + math.sin(theta) * overlap)
        return math.cos(half) / m, math.sin(half) / m, m * m / 2.0
    m = math.sqrt(1.0 - math.sin(theta) * overlap)
    return math.sin(half) / m, -math.cos(half) / m, m * m / 2.0


# Setting pairs whose heralds the aggregation reads: the raw-key pair, then
# the CHSH test pairs.
ROLE_PAIRS: tuple[tuple[str, str], ...] = (("A0", "B1"),) + tuple(
    (role_a, role_b) for role_a, role_b, _ in CHSH_PAIRS
)
OUTCOME_PAIRS: tuple[tuple[int, int], ...] = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
# One arm per (role, outcome); Bob's arms carry the misalignment drift.
ARMS: tuple[tuple[str, int], ...] = tuple(
    (role, outcome) for role in SETTING_ANGLES for outcome in (+1, -1)
)
# The arms (Alice's, Bob's) of each (role pair, outcome pair), in the order
# of the prior's rows.
_PAIR_ARMS = np.array([(ARMS.index((role_a, a)), ARMS.index((role_b, b)))
                       for role_a, role_b in ROLE_PAIRS for a, b in OUTCOME_PAIRS]).T
# Spin parity a * b of each outcome pair, and the sign a D2 herald gives
# Bob's outcome in each role pair: flipped (-1) only when his basis is Z.
_PARITY = np.array([a * b for a, b in OUTCOME_PAIRS])
_FLIP = np.array([[-1.0 if SETTING_ANGLES[role_b] == 0.0 else 1.0] for _, role_b in ROLE_PAIRS])

# The p_d-free part of one point: the spin-outcome prior of each (role pair, outcome
# pair), and the fock.region_sums, shape (4, 80), of every pair's four component
# products, read from the basis-product outputs and coefficients of _central_output
# without forming the products' (d, d, 80) output.
_OpticalState = namedtuple("_OpticalState", "prior sums")


def _optical_state(mu: float, eta: float, e_d: float, n_max: int) -> _OpticalState:
    """Everything of a point that dark counts do not enter.

    Each arm leaves its source as c_plus |alpha> + c_minus |-alpha>, and
    loss, Bob's misalignment phase and the central beamsplitter are linear,
    so they act only on the two pulses and on products of basis vectors.
    Environment photon number m leaves a lost pulse in |+-t alpha>
    (t = sqrt(eta)) up to a factor, so environment column 0 of the lost
    pair spans every arm: one QR gives Alice's basis.  Bob's is hers rotated
    by the drift, which is diagonal in photon number, so an arm has the same
    coordinates C (2 x environment) on either side, and its mixture there is
    C C+.  With C+ = Q R, F = R+ is a 2x2 factor with F F+ = C C+, so the
    pair (i, j) is the sum of the four pure products F_i[:, p] (x) F_j[:, q],
    whatever the arms' ranks.  The detector formulas are linear in the joint
    photon-number distribution, so a pair's readout sums its products'
    readouts, each a map of four region sums; u (x) v leaves the central
    beamsplitter as the sum of u_x v_y times the output of basis product (x, y).
    """
    certify_cutoff(mu, n_max)
    dim = n_max + 1
    alpha = math.sqrt(mu)
    delta0 = math.acos(1.0 - 2.0 * e_d)
    # |-alpha> is |alpha> with its odd rows negated, exactly: IEEE rounding
    # is sign-symmetric.
    pulses = np.hstack([coherent_fock(alpha, n_max)] * 2)
    pulses[1::2, 1] *= -1.0
    # lost[n, m, k]: signal n, environment m, pulse k (|alpha> first).
    lost = loss_apply(pulses, eta)
    basis_a, _ = np.linalg.qr(lost[:, 0, :])
    flat = lost.reshape(dim, 2 * dim)  # environment and pulse on one axis
    coords = basis_a.conj().T @ flat
    residuals = (flat - basis_a @ coords).reshape(dim * dim, 2)
    basis_b = misalignment_rotate(mode_product(basis_a, vacuum_state(n_max)), delta0)[:, 0, :]

    # psi[arm] = c_plus psi_plus + c_minus psi_minus of its side, as
    # (signal, environment); rho = psi psi+ = basis (arm_coords arm_coords+) basis+.
    branches = np.array([cat_branch(mu, SETTING_ANGLES[role], outcome) for role, outcome in ARMS])
    amplitudes = branches[:, :2, np.newaxis]
    # Summed from each arm's residual itself (one column per arm), not as a
    # difference of norms near 1; written so that a NaN mass fails the check too.
    outside = _squared_sums((residuals @ branches[:, :2].T).view(np.float64))
    bad = np.flatnonzero(~(outside <= _SPAN_RESIDUAL_BOUND))
    if bad.size:
        raise CutoffError(f"arm {ARMS[bad[0]]} leaves mass {outside[bad[0]]:.3e} "
                          "outside the span of its side's basis")
    arm_coords = (coords.reshape(2 * dim, 2) @ amplitudes).reshape(-1, 2, dim)
    factor = np.linalg.qr(arm_coords.conj().swapaxes(1, 2), mode="r").conj().swapaxes(1, 2)
    alice, bob = _PAIR_ARMS
    prior = (branches[alice, 2] * branches[bob, 2]).reshape(len(ROLE_PAIRS), len(OUTCOME_PAIRS))
    return _OpticalState(prior, region_sums(*_central_output(basis_a, basis_b, factor)))


def _central_output(
    basis_a: np.ndarray, basis_b: np.ndarray, factor: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The central splitter's output of the four basis products, shape (d, d, 4), and
    the (4, 80) coefficients that combine them into every pair's four component
    products, pair-major."""
    # Basis products (x, y) in the order 00, 01, 10, 11, and the coefficients
    # F_i[x, p] F_j[y, q] of product (p, q) of every pair (i, j).
    alice, bob = _PAIR_ARMS
    outputs = beamsplitter_apply(
        mode_product(basis_a[:, [0, 0, 1, 1]], basis_b[:, [0, 1, 0, 1]]), 0.5
    )
    coefficients = np.einsum("cxp,cyq->xycpq", factor[alice], factor[bob]).reshape(4, -1)
    return outputs, coefficients


def _pair_heralds(state: _OpticalState, p_d: float) -> np.ndarray:
    """Herald probabilities of every (role pair, outcome pair): the dark-count readout.

    Maps every component product's region sums through the dark counts,
    then sums each pair's four; the readout is linear in the photon-number
    distribution, so the sum is the pair's readout.  Returns
    shape ``(4, len(ROLE_PAIRS), len(OUTCOME_PAIRS))``; axis 0 follows the
    rows of :func:`fock.dark_counts` (d1_only, d2_only, none, both).
    """
    heralds = dark_counts(state.sums, p_d)
    sums = heralds.reshape(len(heralds), len(ROLE_PAIRS), len(OUTCOME_PAIRS), 4).sum(axis=-1)
    total = sum(sums)  # d1_only + d2_only + none + both, in that order
    # Written so that a NaN sum fails the check too.
    bad = np.argwhere(~(abs(total - 1.0) <= 1e-10))
    if bad.size:
        r, o = bad[0]
        raise CutoffError(
            f"herald probabilities of {(*ROLE_PAIRS[r], *OUTCOME_PAIRS[o])} sum to "
            f"{total[r, o]:.12f}; cutoff too small"
        )
    return sums


def certify_cutoff(mu: float, n_max: int) -> None:
    """Require tail mass below the bound for the brightest mode involved.

    After the central beamsplitter the constructively interfering output
    carries intensity 2 mu, the largest anywhere in the pipeline.
    """
    tail = poisson_tail(2.0 * mu, n_max)
    if tail >= TAIL_MASS_BOUND:
        raise CutoffError(
            f"n_max={n_max} leaves tail mass {tail:.3e} at intensity {2.0 * mu:.4f}"
        )


def _detector_stats(state: _OpticalState, p_d: float) -> DetectorStats:
    """The statistics of :func:`oracle_stats` from one optical state and dark counts p_d."""
    d1, d2 = _pair_heralds(state, p_d)[:2]
    prior = state.prior
    # Summed as Python floats in outcome order: ndarray.sum adds in another
    # order, and a zero gain must raise ZeroDivisionError, not warn.
    success = (prior * (d1 + d2)).tolist()
    correlated = (prior * _PARITY * (d1 + _FLIP * d2)).tolist()

    # Raw key pair (A0, B1), row 0: gain and Z-basis error rate after the
    # flip rule.  D1 heralds keep b; D2 heralds flip it.  An error is a != b_final.
    q_zz = sum(success[0])
    e_zz = sum((prior[0] * np.where(_PARITY < 0, d1[0], d2[0])).tolist()) / q_zz

    # CHSH pairs, rows 1 on: correlators conditioned on success.
    s = sum(sign * sum(correlated[row]) / sum(success[row])
            for row, (_, _, sign) in enumerate(CHSH_PAIRS, start=1))

    return DetectorStats(q_zz=q_zz, s=s, e_zz=e_zz)


def oracle_stats(
    mu: float, eta: float, p_d: float, e_d: float = 0.0, n_max: int = DEFAULT_N_MAX
) -> DetectorStats:
    """Heralded statistics computed from the full quantum model.

    Aggregation follows the protocol steps: a trial succeeds when exactly
    one detector clicks; Bob flips his outcome on a D2 herald only when his
    basis is Z; the gain and error rate come from the Z/Z setting pair and
    the CHSH value from the four test pairs, with correlators conditioned
    on success.
    """
    check_point(mu, eta, p_d, e_d)
    check_n_max(n_max)
    return _detector_stats(_optical_state(mu, eta, e_d, n_max), p_d)


# --- comparison against the closed forms -----------------------------------

# Module-level alias so the comparison path (and fault-injection tests) can
# substitute the closed form without touching the rates module itself.
ecs_misaligned_stats = rates.ecs_misaligned_stats

ACCEPTANCE_MUS = (0.01, 0.05, 0.1, 0.25, 0.5)
ACCEPTANCE_ETAS = (0.05, 0.2, 0.5, 1.0)
ACCEPTANCE_PDS = (0.0, 1e-7, 1e-5)
ACCEPTANCE_EDS = (0.0, 0.01, 0.07)


def acceptance_grid() -> list[tuple[float, float, float, float]]:
    """The default verification grid of (mu, eta, p_d, e_d) tuples."""
    return [
        (mu, eta, p_d, e_d)
        for mu in ACCEPTANCE_MUS
        for eta in ACCEPTANCE_ETAS
        for p_d in ACCEPTANCE_PDS
        for e_d in ACCEPTANCE_EDS
    ]


def misaligned_e_zz_literal(
    mu: float, eta: float, eta_d: float, p_d: float, e_d: float
) -> float:
    """The rejected alternative e_zz reading, with eta_d in the numerator.

    Kept only so the verifier can adjudicate between the two readings; it
    does not reduce to the lossy formula at e_d = 0 unless eta_d == eta.
    """
    num = math.exp(2.0 * mu * (1.0 - eta_d + eta * e_d)) - (1.0 - p_d) * math.exp(
        2.0 * mu * (1.0 - eta)
    )
    den = (
        math.exp(2.0 * mu * (1.0 - eta * e_d))
        + math.exp(2.0 * mu * (1.0 - eta + eta * e_d))
        - 2.0 * (1.0 - p_d) * math.exp(2.0 * mu * (1.0 - eta))
    )
    return num / den


class PointCheck(namedtuple(
    "PointCheck", "mu eta p_d e_d dev_q_zz dev_s dev_e_zz dev_e_zz_literal error",
    defaults=(math.nan, math.nan, math.nan, math.nan, None),
)):
    """Deviations between closed forms and oracle at one grid point; float fields.

    A point the oracle cannot read out (cutoff not certified, statistics out
    of range) keeps NaN deviations and its ``error``; otherwise that is None.
    """

    __slots__ = ()

    def max_dev(self) -> float:
        return max(self.dev_q_zz, self.dev_s, self.dev_e_zz)


class VerificationReport(namedtuple("VerificationReport", "points tol n_max eta_d_literal")):
    """Outcome of an oracle-versus-closed-form sweep.

    ``points`` is a list of :class:`PointCheck`; the other fields are the
    settings that produced it.
    """

    __slots__ = ()

    @property
    def errors(self) -> list[PointCheck]:
        return [p for p in self.points if p.error is not None]

    def _max_dev(self, field: str) -> float:
        """Largest deviation of one field over the points without an error; NaN if none."""
        return max((getattr(p, field) for p in self.points if p.error is None), default=math.nan)

    @property
    def max_dev_q_zz(self) -> float:
        return self._max_dev("dev_q_zz")

    @property
    def max_dev_s(self) -> float:
        return self._max_dev("dev_s")

    @property
    def max_dev_e_zz(self) -> float:
        return self._max_dev("dev_e_zz")

    @property
    def max_dev_e_zz_literal(self) -> float:
        return self._max_dev("dev_e_zz_literal")

    @property
    def supported_e_zz_reading(self) -> str:
        """``eta`` or ``eta_d``, whichever reading deviates less; ``undetermined``
        when no point was read out."""
        if len(self.errors) == len(self.points):
            return "undetermined"
        return "eta" if self.max_dev_e_zz <= self.max_dev_e_zz_literal else "eta_d"

    @property
    def failures(self) -> list[PointCheck]:
        return [p for p in self.points if p.error is None and p.max_dev() >= self.tol]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.errors


def check_verify_settings(
    tol: float,
    n_max: int,
    eta_d_literal: float,
    points: Sequence[tuple[float, float, float, float]],
) -> None:
    """Reject bad ``verify_grid`` inputs before any oracle work.

    The tolerance must be finite and > 0 (a NaN or infinite one would pass
    every deviation), the cutoff an integer in [1, MAX_N_MAX], the literal
    eta_d in (0, 1], and every point inside the ranges of :func:`check_point`.
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    check_n_max(n_max)
    check_point(eta=eta_d_literal, eta_name="eta_d")
    for point in points:
        check_point(*point)


def verify_grid(
    points: list[tuple[float, float, float, float]] | None = None,
    tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
    eta_d_literal: float = DEFAULT_ETA_D_LITERAL,
) -> VerificationReport:
    """Compare closed forms with the oracle over a grid of parameter tuples."""
    points = acceptance_grid() if points is None else points
    check_verify_settings(tol, n_max, eta_d_literal, points)
    # Dark counts enter only the readout, so points that differ only in p_d
    # share one optical state.  It lives for one group of this call: optical
    # states are not cached across calls (only the central splitter's blocks
    # and the loss binomials are, per n_max), and no batch spans two optical
    # states.
    groups: dict[tuple[float, float, float], list[int]] = {}
    for index, (mu, eta, _, e_d) in enumerate(points):
        groups.setdefault((mu, eta, e_d), []).append(index)
    checks: list[PointCheck | None] = [None] * len(points)
    for (mu, eta, e_d), members in groups.items():
        try:
            state, failure = _optical_state(mu, eta, e_d, n_max), None
        except CutoffError as exc:
            state, failure = None, str(exc)
        for index in members:
            mu, eta, p_d, e_d = points[index]
            outcome = dict(error=failure)
            if state is not None:
                try:
                    actual = _detector_stats(state, p_d)
                except ParameterError as exc:  # a CutoffError, or a triple out of range
                    outcome = dict(error=str(exc))
                else:
                    closed = ecs_misaligned_stats(mu, eta, p_d, e_d)
                    literal = misaligned_e_zz_literal(mu, eta, eta_d_literal, p_d, e_d)
                    outcome = dict(
                        dev_q_zz=abs(actual.q_zz - closed.q_zz),
                        dev_s=abs(actual.s - closed.s),
                        dev_e_zz=abs(actual.e_zz - closed.e_zz),
                        dev_e_zz_literal=abs(actual.e_zz - literal),
                    )
            checks[index] = PointCheck(mu, eta, p_d, e_d, **outcome)
    return VerificationReport(
        points=checks, tol=tol, n_max=n_max, eta_d_literal=eta_d_literal
    )
