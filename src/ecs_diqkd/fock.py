"""Truncated Fock-space optical states and linear-optics operations.

The verifier in :mod:`ecs_diqkd.oracle` is built entirely out of the four
operations here: coherent-state construction, a two-mode beamsplitter, a
single-mode phase rotation, and a threshold-detector readout.  Nothing in
this file knows about cat states or the closed forms.

Conventions:
    * A state is a complex ndarray with one axis per mode, each of length
      ``n_max + 1``, then one trailing batch axis that stacks independent
      states of the same modes; a single state is a batch of one.  The
      constructors return one-mode batches, shape ``(n_max + 1, B)``;
      ``mode_product`` joins two of them into the one shape every other
      operation takes, the two-mode batch ``(n_max + 1, n_max + 1, B)``.
      Every operation acts on each element on its own, certifies each
      element, and a readout returns one value per element.  In
      ``mode_product`` a batch of one joins every element of the other
      factor.
    * ``beamsplitter_apply`` with transmittance T implements the mode map
      with matrix [[t, r], [r, -t]], t = sqrt(T), r = sqrt(1 - T); at
      T = 1/2 this is the symmetric splitter sending coherent amplitudes
      (x, y) to ((x + y)/sqrt(2), (x - y)/sqrt(2)).
    * Loss with transmittance eta is the same unitary coupling a signal
      mode to a fresh vacuum environment mode.
"""

from __future__ import annotations

import math
from functools import lru_cache
from numbers import Integral

import numpy as np

from .params import ParameterError, check_point

# Largest Fock cutoff a state may have.  The oracle holds the central
# splitter's output for all four component products of each of its 20 arm
# pairs at once, so its peak memory grows about as n_max**2: one
# oracle_stats call at (mu, eta, p_d, e_d) = (0.3, 0.37, 1e-6, 0.02) in a
# fresh process peaks at 177 MB resident at 200 and 32 MB at 30 (2-vCPU
# Xeon, numpy 2.4).  That peak includes the call's two splitter-block
# cache entries, 43 MB each at 200; the cache keeps at most 8, about
# 350 MB at this cutoff.
MAX_N_MAX = 200
# Certified bound on the photon-number tail mass lost to truncation.
TAIL_MASS_BOUND = 1e-12
# Allowed norm drift across one unitary application; more signals that the
# state pushed real amplitude past the per-mode cutoff.
NORM_DRIFT_TOL = 1e-10


class CutoffError(ParameterError):
    """The Fock cutoff is too small for the state being represented."""


def poisson_tail(intensity: float, n_max: int) -> float:
    """P(n > n_max) for a coherent state of the given intensity |alpha|^2.

    Terms e^(-mu) mu^n / n! are formed in log space.  Below the tail's
    median (intensity <= n_max + 1) the tail is summed directly, so a tiny
    tail keeps its relative precision; above it the tail is at least 1/2
    and one minus the n_max + 1 head terms loses nothing.
    """
    if not 0.0 <= intensity < math.inf:
        raise ParameterError(f"intensity must be finite and >= 0, got {intensity}")
    if intensity == 0.0:
        return 0.0
    log_mu = math.log(intensity)

    def term(n: int) -> float:
        return math.exp(n * log_mu - intensity - math.lgamma(n + 1))

    if intensity > n_max + 1:
        return 1.0 - math.fsum(term(n) for n in range(n_max + 1))
    total = 0.0
    n = n_max + 1
    while True:
        value = term(n)
        total += value
        if value <= total * 2.0**-60:
            return total
        n += 1


def check_n_max(n_max: int) -> None:
    """Require the Fock cutoff to be an integer in [1, MAX_N_MAX]."""
    if isinstance(n_max, bool) or not isinstance(n_max, Integral):
        raise ParameterError(f"n_max must be an integer, got {n_max!r}")
    if not 1 <= n_max <= MAX_N_MAX:
        raise ParameterError(f"n_max must be in [1, {MAX_N_MAX}], got {n_max}")


def vacuum_state(n_max: int) -> np.ndarray:
    """Single-mode vacuum, a batch of one."""
    check_n_max(n_max)
    amps = np.zeros((n_max + 1, 1), dtype=complex)
    amps[0] = 1.0
    return amps


def mode_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-mode state of one-mode batches: ``a`` is the first mode, ``b`` the second.

    The product is taken element by element; a batch of one joins every
    element of the other factor, and otherwise the batches must have the
    same length.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ParameterError("mode_product needs one-mode states: a mode and a trailing batch axis")
    if a.shape[0] != b.shape[0]:
        raise ParameterError("cannot combine states with different cutoffs")
    if a.shape[-1] != b.shape[-1] and 1 not in (a.shape[-1], b.shape[-1]):
        raise ParameterError(f"cannot pair batches of {a.shape[-1]} and {b.shape[-1]} states")
    return a[:, np.newaxis, :] * b[np.newaxis, :, :]


def coherent_fock(alpha: complex, n_max: int) -> np.ndarray:
    """Single-mode coherent state: coefficients e^(-|a|^2/2) a^n / sqrt(n!).

    Raises CutoffError unless the Poisson tail beyond ``n_max`` is below
    ``TAIL_MASS_BOUND``.
    """
    check_n_max(n_max)
    intensity = abs(alpha) ** 2
    tail = poisson_tail(intensity, n_max)
    if tail >= TAIL_MASS_BOUND:
        raise CutoffError(
            f"n_max={n_max} leaves tail mass {tail:.3e} for intensity {intensity:.4f}"
        )
    # Filled as a vector: writing rows of an (n_max + 1, 1) array one at a
    # time costs several times more.
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = math.exp(-intensity / 2.0)
    for n in range(1, n_max + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps[:, np.newaxis]


# Sized to the transmittances that repeat: an oracle point uses two (its
# eta and 1/2), the default verify grid four, and each off-grid point one
# new eta, so a stream that keeps returning to the grid keeps its blocks
# while off-grid etas pass through.  An entry is 0.16 MB at n_max 30 and
# 43 MB at MAX_N_MAX, so the cache holds at most about 350 MB.
@lru_cache(maxsize=8)
def _beamsplitter_blocks(
    n_max: int, transmittance: float
) -> tuple[tuple[slice, np.ndarray], ...]:
    """Per-total-photon-number blocks of the two-mode beamsplitter unitary.

    Block N maps inputs |n, N-n> to outputs |k, N-k>, and comes with the
    rows it acts on in the flat (n, m) state, where |n, m> is row
    n * (n_max + 1) + m: the rows of |k, N-k> for k in [lo, hi] are
    N + k * n_max, one basic slice.  Block N is built from block N-1 by one
    creation operator: a+ -> t c+ + r d+ raises n, and on the n = 0 column
    b+ -> r c+ - t d+ raises N - n, so

        U_N[k, n] = (t sqrt(k) U_{N-1}[k-1, n-1] + r sqrt(N-k) U_{N-1}[k, n-1]) / sqrt(n)
        U_N[k, 0] = (r sqrt(k) U_{N-1}[k-1, 0] - t sqrt(N-k) U_{N-1}[k, 0]) / sqrt(N)

    which expands (t a1+ + r a2+)^n (r a1+ - t a2+)^m |0,0> one factor at a
    time.  Blocks with N > n_max are cropped to the indices both modes can
    hold; the entries they need from block N-1 lie inside its crop, and the
    norm-drift check in :func:`beamsplitter_apply` certifies that no real
    amplitude lived outside.  Rounding grows with N: against 60-digit
    entries the error is about 2e-13 at N = 30 and 7e-10 at N = 55, where a
    state within the tail bound carries no weight.
    """
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    block = np.ones((1, 1))
    blocks = [(slice(0, 1), block)]
    for total in range(1, 2 * n_max + 1):
        prev_lo = max(0, total - 1 - n_max)
        lo, hi = max(0, total - n_max), min(n_max, total)
        k = np.arange(lo, hi + 1)
        # Row j of ``padded`` is row prev_lo - 1 + j of block N-1; the zero
        # rows stand for the output numbers that block cannot hold.
        padded = np.zeros((block.shape[0] + 2, block.shape[1]))
        padded[1:-1] = block
        lower = padded[k - prev_lo]  # rows k - 1
        same = padded[k - prev_lo + 1]  # rows k
        up = np.sqrt(k)[:, np.newaxis]
        across = np.sqrt(total - k)[:, np.newaxis]
        block = np.empty((k.size, k.size))
        n = np.arange(max(lo, 1), hi + 1)
        prev_cols = n - 1 - prev_lo
        block[:, n - lo] = (
            t * up * lower[:, prev_cols] + r * across * same[:, prev_cols]
        ) / np.sqrt(n)
        if lo == 0:
            block[:, 0] = (
                r * up[:, 0] * lower[:, 0] - t * across[:, 0] * same[:, 0]
            ) / math.sqrt(total)
        rows = slice(total + lo * n_max, total + hi * n_max + 1, n_max)
        blocks.append((rows, block))
    return tuple(blocks)


def _check_two_mode(state: np.ndarray) -> None:
    """Require a two-mode batch, shape ``(n_max + 1, n_max + 1, B)``."""
    if state.ndim != 3 or state.shape[0] != state.shape[1]:
        raise ParameterError(
            f"expected a two-mode batch of shape (n_max + 1, n_max + 1, B), got {state.shape}"
        )


def beamsplitter_apply(state: np.ndarray, transmittance: float) -> np.ndarray:
    """Apply the beamsplitter unitary to the two modes in Fock space.

    Transmittance 1/2 gives the symmetric splitter with outputs
    c = (a + b)/sqrt(2) and d = (a - b)/sqrt(2); other values model loss by
    coupling a signal mode (the first) to a vacuum environment mode.  The
    batch axis rides along through the block products, and the norm of
    each batch element is certified on its own.
    """
    _check_two_mode(state)
    if not 0.0 <= transmittance <= 1.0:
        raise ParameterError(f"transmittance must be in [0, 1], got {transmittance}")

    dim = state.shape[0]
    # Rows are the flat (n, m) index and columns the real and imaginary
    # parts of every batch element, so the real blocks act on both at once.
    # Each block reads and writes its rows as strided views: no gathers.
    work = np.ascontiguousarray(state.reshape(dim * dim, -1), dtype=complex).view(np.float64)
    out = np.empty_like(work)
    for rows, block in _beamsplitter_blocks(dim - 1, transmittance):
        np.matmul(block, work[rows], out=out[rows])

    before, after = np.sqrt(_squared_sums(work)), np.sqrt(_squared_sums(out))
    # Written so that a NaN norm fails the check too.
    drift = ~(np.abs(after - before) <= NORM_DRIFT_TOL * np.maximum(1.0, before))
    if np.any(drift):
        where = int(np.flatnonzero(drift)[0])
        raise CutoffError(
            f"beamsplitter pushed amplitude past the per-mode cutoff in batch element {where} "
            f"(norm {before[where]:.12f} -> {after[where]:.12f})"
        )
    return out.view(complex).reshape(state.shape)


def _squared_sums(region: np.ndarray) -> np.ndarray:
    """Summed ``re**2 + im**2`` of each batch element in a region of a float64 view.

    The last axis of ``region`` holds the real and imaginary part of every
    batch element in turn; one einsum sums the squares over all axes, so no
    squared-amplitude array is formed.
    """
    axes = list(range(region.ndim))
    squares = np.einsum(region, axes, region, axes, axes[-1:])
    return squares[0::2] + squares[1::2]


def misalignment_rotate(state: np.ndarray, delta0: float | np.ndarray) -> np.ndarray:
    """Phase rotation e^(i n delta0) of the first mode; exactly norm-preserving.

    ``delta0`` is one angle for every batch element or one angle per element.
    """
    _check_two_mode(state)
    angles = np.asarray(delta0, dtype=float)
    if angles.ndim and angles.shape != state.shape[-1:]:
        raise ParameterError("per-element angles need a batch of the same length")
    if not np.all(np.isfinite(angles)):
        raise ParameterError(f"misalignment angles must be finite, got {delta0}")
    phases = np.exp(1j * np.multiply.outer(np.arange(state.shape[0]), angles))
    return state * phases.reshape(state.shape[0], 1, angles.size)


def threshold_detect(state: np.ndarray, p_d: float) -> np.ndarray:
    """Threshold-detector readout with independent dark counts.

    Returns shape ``(4, B)``: per batch element, the rows P(D1 only),
    P(D2 only), P(none) and P(both), in that order.

    D1 watches the first mode and D2 the second.  With V12 = P(n_1 = n_2 = 0),
    only1 = P(n_1 > 0, n_2 = 0), only2 = P(n_1 = 0, n_2 > 0) and
    lit = P(n_1 > 0, n_2 > 0) summed straight from the joint photon-number
    distribution:

        P(D1 only) = (1-p_d) (only1 + p_d V12)
        P(D2 only) = (1-p_d) (only2 + p_d V12)
        P(none)    = (1-p_d)^2 V12
        P(both)    = lit + p_d (only1 + only2) + p_d^2 V12

    Each click probability is a sum of clicked events, never a difference
    of no-click probabilities near 1, so it keeps its relative precision
    however faint the light.
    """
    _check_two_mode(state)
    check_point(p_d=p_d)
    parts = np.ascontiguousarray(state, dtype=complex).view(np.float64)
    v12 = _squared_sums(parts[0, 0])
    only1 = _squared_sums(parts[1:, 0])
    only2 = _squared_sums(parts[0, 1:])
    lit = _squared_sums(parts[1:, 1:])
    d1 = (1.0 - p_d) * (only1 + p_d * v12)
    d2 = (1.0 - p_d) * (only2 + p_d * v12)
    no_click = (1.0 - p_d) ** 2 * v12
    both = lit + p_d * (only1 + only2) + p_d**2 * v12
    return np.stack([d1, d2, no_click, both])
