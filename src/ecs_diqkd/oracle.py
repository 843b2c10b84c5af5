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
from functools import lru_cache

import numpy as np

from . import rates
from .fock import (
    TAIL_MASS_BOUND,
    CutoffError,
    _sqrt_binomials,
    _squared_sums,
    beamsplitter_apply,  # noqa: F401  unused; bound because benchmarks/tracer.py wraps it
    check_n_max,
    coherent_fock,
    dark_counts,
    loss_apply,
    mode_product,  # noqa: F401  unused; bound because benchmarks/tracer.py wraps it
    poisson_tail,
    threshold_detect,  # noqa: F401  unused; bound because benchmarks/tracer.py wraps it
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

_SQRT2 = math.sqrt(2.0)

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

    All is formed from rise = sin((pi/2 + theta)/2) and fall =
    sin((pi/2 - theta)/2): cos(theta/2), sin(theta/2) = (rise +- fall)/sqrt2,
    and with s = sin(theta), (M+-)^2 = 2 rise^2 + s expm1(-2 mu) or
    2 fall^2 - s expm1(-2 mu), two terms of one sign.  Where s = +-1 a branch
    is all even or all odd and its M is about sqrt(2 mu), so the raw
    1 - s e^(-2 mu) would cancel, and an ulp between the amplitudes (as
    between sin(pi/4) and cos(pi/4)) would leave a spurious part magnified
    by 1/M.  There fall or rise is exactly 0, and the amplitudes exactly
    equal or opposite.
    """
    check_point(mu)
    drop = math.sin(theta) * math.expm1(-2.0 * mu)  # s (<alpha|-alpha> - 1) for real alpha
    rise = math.sin((math.pi / 2.0 + theta) / 2.0)
    fall = math.sin((math.pi / 2.0 - theta) / 2.0)
    cos_half, sin_half = (rise + fall) / _SQRT2, (rise - fall) / _SQRT2
    if outcome > 0:
        m = math.sqrt(2.0 * rise * rise + drop)
        return cos_half / m, sin_half / m, m * m / 2.0
    m = math.sqrt(2.0 * fall * fall - drop)
    return sin_half / m, -cos_half / m, m * m / 2.0


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
# pair), and the fock.region_sums, shape (4, 20), of each pair after the central
# splitter: the sums of its four component products, which _readout_sums reads
# from the four basis products without forming the splitter's output.
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
    photon-number distribution, so a pair's readout maps the sums of its
    products' four region sums (:func:`_readout_sums`).  Whatever p_d, its
    heralds add up to those four, so their sum is checked here, once.
    """
    certify_cutoff(mu, n_max)
    dim = n_max + 1
    alpha = math.sqrt(mu)
    delta0 = math.acos(1.0 - 2.0 * e_d)
    # |-alpha> is |alpha> with its odd rows negated, exactly: IEEE rounding
    # is sign-symmetric.
    pulses = coherent_fock(alpha, n_max) * _readout_tables(n_max).parity
    # lost[n, m, k]: signal n, environment m, pulse k (|alpha> first).
    lost = loss_apply(pulses, eta)
    basis_a, _ = np.linalg.qr(lost[:, 0, :])
    flat = lost.reshape(dim, 2 * dim)  # environment and pulse on one axis
    coords = basis_a.conj().T @ flat
    residuals = (flat - basis_a @ coords).reshape(dim * dim, 2)
    basis_b = basis_a * np.exp(1j * (np.arange(dim) * delta0))[:, np.newaxis]

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
    sums = _readout_sums(basis_a, basis_b, factor).reshape(4, prior.size, -1).sum(axis=-1)
    mass = sums.sum(axis=0)
    # Written so that a NaN mass fails the check too.
    bad = np.flatnonzero(~(abs(mass - 1.0) <= 1e-10))
    if bad.size:
        r, o = divmod(bad[0], len(OUTCOME_PAIRS))
        raise CutoffError(
            f"herald probabilities of {(*ROLE_PAIRS[r], *OUTCOME_PAIRS[o])} sum to "
            f"{mass[bad[0]]:.12g}; cutoff too small"
        )
    return _OpticalState(prior, sums)


# The arrays of an optical state and its readout that depend on n_max alone;
# d = n_max + 1.
#   parity[n, j]: 1 for j = 0 and (-1)^n for j = 1 (the pulses |alpha>, |-alpha>).
#   gather[N, x, m]: the flat index of basis[N - m (mod d), x] in a C-ordered (d, 2) basis.
#   weights[e, N, 0, m]: 2^(-N/2) sqrt(C(N, m)) on edge e = 0, times (-1)^m on edge
#     e = 1; 0 where m > N, so the rows the index wraps to add nothing.
#   regions[r, (e, N)]: 1 where row (e, N) of both edges belongs to region r of
#     V12 (edge 0, N = 0), only1 (edge 0, N > 0) and only2 (edge 1, N > 0).
#   in_cutoff[k, m]: 1 where k + m <= n_max.
_ReadoutTables = namedtuple("_ReadoutTables", "parity gather weights regions in_cutoff")


@lru_cache(maxsize=8)
def _readout_tables(n_max: int) -> _ReadoutTables:
    """The read-only :data:`_ReadoutTables` of one cutoff, built once per n_max."""
    dim = n_max + 1
    k = np.arange(dim)
    antidiagonal = (k[:, np.newaxis] - k) % dim
    weights = _sqrt_binomials(n_max)[antidiagonal, k] * 0.5 ** (k[:, np.newaxis] / 2.0)
    parity = np.stack([np.ones(dim), (-1.0) ** k], axis=1)
    regions = np.zeros((3, 2, dim))
    regions[0, 0, 0] = regions[1, 0, 1:] = regions[2, 1, 1:] = 1.0
    tables = _ReadoutTables(
        parity=parity,
        gather=2 * antidiagonal[:, np.newaxis, :] + np.arange(2)[:, np.newaxis],
        weights=(parity.T[:, np.newaxis, :] * weights)[:, :, np.newaxis, :],
        regions=regions.reshape(3, 2 * dim),
        in_cutoff=(k[:, np.newaxis] + k <= n_max).astype(float),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _readout_sums(basis_a: np.ndarray, basis_b: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """The fock.region_sums, shape (4, 80), of every pair's four component products
    after the central splitter, pair-major, without forming the splitter's output.

    The splitter's mode map [[t, r], [r, -t]] is real and its own inverse, so its
    output |N, 0> reads the input along the column loss_apply forms: at T = 1/2,

        out[N, 0] = sum_{k+m=N} 2^(-N/2) sqrt(C(N, k)) u[k] v[m]

    for basis product u (x) v, and out[0, N] is that sum with the odd rows of v
    negated.  One product of the Toeplitz array of both edges, rows (e, N, x),
    with v_y gives both edges of all four basis products.  Blocks with
    N <= n_max are not cropped, so lit is the mass at k + m <= n_max less the
    edges; the mass check of :func:`_optical_state` certifies the rest.
    """
    dim = len(basis_a)
    tables = _readout_tables(dim - 1)
    # sides[s, c, x, p] is F_i[x, p] (s = 0) or F_j[x, p] (s = 1) of pair c = (i, j).
    sides = factor[_PAIR_ARMS]
    alice, bob = sides.transpose(0, 2, 1, 3)
    # Coefficients F_i[x, p] F_j[y, q] of product (p, q) of every pair, rows (x, y).
    coefficients = (alice[:, np.newaxis, :, :, np.newaxis]
                    * bob[np.newaxis, :, :, np.newaxis, :]).reshape(4, -1)
    # toeplitz[e, N, x, m] = 2^(-N/2) sqrt(C(N, m)) u_x[N - m], times (-1)^m on edge 1.
    toeplitz = tables.weights * basis_a.take(tables.gather)
    # Edge e at N of basis product (x, y) is row (e, N), column (x, y).
    edges = (toeplitz.reshape(4 * dim, dim) @ basis_b).reshape(2 * dim, 4) @ coefficients
    squares = tables.regions @ np.square(edges.view(np.float64))
    v12, only1, only2 = squares[:, 0::2] + squares[:, 1::2]
    # Product (p, q) of pair (i, j) is u (x) v, u = basis_a F_i[:, p] and v = basis_b
    # F_j[:, q]: its mass at k + m <= n_max is sum_{k+m <= n_max} |u[k]|^2 |v[m]|^2.
    # Bob's phase has modulus 1, so |v| is read from basis_a too.
    squares = np.square((basis_a @ sides.transpose(2, 0, 1, 3).reshape(2, -1)).view(np.float64))
    u_mass, v_mass = (squares[:, 0::2] + squares[:, 1::2]).reshape(dim, 2, -1, 2).swapaxes(0, 1)
    v_mass = (tables.in_cutoff @ v_mass.reshape(dim, -1)).reshape(u_mass.shape)
    mass = (u_mass.transpose(1, 2, 0) @ v_mass.swapaxes(0, 1)).reshape(-1)
    return np.stack([v12, only1, only2, mass - v12 - only1 - only2])


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
    d1, d2 = dark_counts(state.sums, p_d)[:2].reshape(2, len(ROLE_PAIRS), len(OUTCOME_PAIRS))
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
    Numerator and denominator are divided by e^(2 mu (1 - eta)) and written
    with expm1, so a faint pulse's denominator keeps its size instead of
    cancelling to 0 as e^x + e^y - 2 e^z would.
    """
    num = math.expm1(2.0 * mu * (eta - eta_d + eta * e_d)) + p_d
    den = (math.expm1(2.0 * mu * eta * (1.0 - e_d)) + math.expm1(2.0 * mu * eta * e_d)
           + 2.0 * p_d)
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


def verify_grid(
    points: list[tuple[float, float, float, float]] | None = None,
    tol: float = DEFAULT_TOL,
    n_max: int = DEFAULT_N_MAX,
    eta_d_literal: float = DEFAULT_ETA_D_LITERAL,
) -> VerificationReport:
    """Compare closed forms with the oracle over a grid of parameter tuples.

    Bad settings raise ``ParameterError`` before any oracle work, and nothing
    else does: the tolerance must be finite and > 0 (a NaN or infinite one would
    pass every deviation), the cutoff an integer in [1, fock.MAX_N_MAX], the
    literal eta_d in (0, 1], and every point inside the ranges of
    :func:`check_point`.  A point that cannot be read out keeps its error.
    """
    points = acceptance_grid() if points is None else points
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    check_n_max(n_max)
    check_point(eta=eta_d_literal, eta_name="eta_d")
    for point in points:
        check_point(*point)
    # Dark counts enter only the readout, so points that differ only in p_d
    # share one optical state.  It lives for one group of this call: optical
    # states are not cached across calls (only the loss binomials and the
    # readout tables are, per n_max), and no batch spans two optical states.
    groups: dict[tuple[float, float, float], list[int]] = {}
    for index, (mu, eta, _, e_d) in enumerate(points):
        groups.setdefault((mu, eta, e_d), []).append(index)
    checks: list[PointCheck | None] = [None] * len(points)
    for (mu, eta, e_d), members in groups.items():
        try:
            state, failure = _optical_state(mu, eta, e_d, n_max), None
        except ParameterError as exc:  # a CutoffError, or an input the state rejects
            state, failure = None, str(exc)
        except ArithmeticError as exc:
            state, failure = None, f"arithmetic failure ({exc!r})"
        for index in members:
            mu, eta, p_d, e_d = points[index]
            outcome = dict(error=failure)
            if state is not None:
                try:
                    actual = _detector_stats(state, p_d)
                    closed = ecs_misaligned_stats(mu, eta, p_d, e_d)
                    literal = misaligned_e_zz_literal(mu, eta, eta_d_literal, p_d, e_d)
                except ParameterError as exc:  # a triple out of range, or a closed form's refusal
                    outcome = dict(error=str(exc))
                except ArithmeticError as exc:
                    outcome = dict(error=f"arithmetic failure ({exc!r})")
                else:
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
