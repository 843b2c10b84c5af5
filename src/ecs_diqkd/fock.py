"""Truncated Fock-space optical states and linear-optics operations.

The verifier in :mod:`ecs_diqkd.oracle` uses coherent-state construction, loss, a
single-mode phase rotation and the dark-count map of the threshold-detector readout.
It reads the two-mode beamsplitter at its output's edges, and its tests check that
against ``beamsplitter_apply`` and ``region_sums``.  Nothing in this file knows about
cat states or the closed forms.

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
      mode to a fresh vacuum environment mode.  ``loss_apply`` takes the
      signal alone and forms only the columns of inputs |N, 0>, so it needs
      no splitter blocks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from numbers import Integral

import numpy as np

from .params import ParameterError, check_point

# Largest Fock cutoff a state may have.  The oracle reads the central splitter's
# edges through a (d, 2, d) Toeplitz array per optical state, d = n_max + 1, so its
# working set grows about as n_max**2: one oracle_stats call at (mu, eta, p_d, e_d)
# = (0.3, 0.37, 1e-6, 0.02) in a fresh process peaks at 44 MB resident at 200 and
# 30 MB at 30 (2-vCPU Xeon, numpy 2.4).
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


# Only direct callers of ``beamsplitter_apply`` build blocks (the oracle and
# loss need none).  An entry holds about (2/3) n_max**3 floats: 0.16 MB at
# n_max 30, 9.4 MB at 120 and 43 MB at MAX_N_MAX, so the cache holds at most
# about 350 MB.
@lru_cache(maxsize=8)
def _beamsplitter_blocks(
    n_max: int, transmittance: float
) -> tuple[tuple[slice, np.ndarray], ...]:
    """Per-total-photon-number blocks of the two-mode beamsplitter unitary.

    Block N maps inputs |n, N-n> to outputs |k, N-k>, and comes with the
    rows it acts on in the flat (n, m) state, where |n, m> is row
    n * (n_max + 1) + m: the rows of |k, N-k> for k in [lo, hi] are
    N + k * n_max, one basic slice.  Block N is built from block N-1 by
    one rule.  Adding a photon to input a (a+ -> t c+ + r d+) or to input b
    (b+ -> r c+ - t d+) gives two exact relations; weighted by n/N and
    (N - n)/N and added, they give, with U' = U_{N-1},

        U_N[k, n] = ( sqrt(n)     (t sqrt(k) U'[k-1, n-1] + r sqrt(N-k) U'[k, n-1])
                    + sqrt(N - n) (r sqrt(k) U'[k-1, n]   - t sqrt(N-k) U'[k, n]) ) / N

    in which no coefficient exceeds 1: Risbo's step from spin j - 1/2 to
    spin j for Wigner d-functions (T. Risbo, J. Geodesy 70, 383 (1996)).
    Blocks with N > n_max are cropped to the indices both modes can hold;
    the entries they need from block N-1 lie inside its crop, and the
    norm-drift check in :func:`beamsplitter_apply` certifies that no real
    amplitude lived outside.
    """
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    block = np.ones((1, 1))
    blocks = [(slice(0, 1), block)]
    for total in range(1, 2 * n_max + 1):
        lo, hi = max(0, total - n_max), min(n_max, total)
        # Block N-1 with a zero row and column on each side, which stand for
        # the numbers it cannot hold; ``minus`` and ``same`` pick its rows
        # (or columns) k - 1 and k for k in [lo, hi].
        padded = np.zeros((block.shape[0] + 2,) * 2)
        padded[1:-1, 1:-1] = block
        start = lo - max(0, total - 1 - n_max)
        minus, same = slice(start, start + hi - lo + 1), slice(start + 1, start + hi - lo + 2)
        k = np.arange(lo, hi + 1)
        root, rest = np.sqrt(k), np.sqrt(total - k)
        up, across = root[:, np.newaxis], rest[:, np.newaxis]
        block = (
            root * (t * up * padded[minus, minus] + r * across * padded[same, minus])
            + rest * (r * up * padded[minus, same] - t * across * padded[same, same])
        ) / total
        rows = slice(total + lo * n_max, total + hi * n_max + 1, n_max)
        blocks.append((rows, block))
    return tuple(blocks)


def _check_two_mode(state: np.ndarray) -> None:
    """Require a two-mode batch, shape ``(n_max + 1, n_max + 1, B)``, with a valid n_max."""
    if state.ndim != 3 or state.shape[0] != state.shape[1]:
        raise ParameterError(
            f"expected a two-mode batch of shape (n_max + 1, n_max + 1, B), got {state.shape}"
        )
    check_n_max(state.shape[0] - 1)


def beamsplitter_apply(state: np.ndarray, transmittance: float) -> np.ndarray:
    """Apply the beamsplitter unitary to the two modes in Fock space.

    Transmittance 1/2 gives the symmetric splitter with outputs
    c = (a + b)/sqrt(2) and d = (a - b)/sqrt(2); with the second mode in
    vacuum, other values model loss, which :func:`loss_apply` forms without
    blocks.  The batch axis rides along through the block products, and the
    norm of each batch element is certified on its own.
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
    _certify_norm(work, out, "beamsplitter")
    return out.view(complex).reshape(state.shape)


@lru_cache(maxsize=8)
def _sqrt_binomials(n_max: int) -> np.ndarray:
    """sqrt(C(k + m, k)) at [k, m] for k + m <= n_max, 0 past the cutoff."""
    n = range(n_max + 1)
    binomials = [[math.comb(k + m, k) if k + m <= n_max else 0 for m in n] for k in n]
    return np.sqrt(np.array(binomials, dtype=float))


def loss_apply(state: np.ndarray, transmittance: float) -> np.ndarray:
    """Send a one-mode batch through loss: the beamsplitter with a vacuum environment.

    Takes shape ``(n_max + 1, B)`` and returns the two-mode batch (signal,
    environment, B).  The mode map [[t, r], [r, -t]] sends |N, 0> to
    sum_k sqrt(C(N, k)) t^k r^(N-k) |k, N-k>, so

        out[k, m] = sqrt(C(k + m, k)) t^k r^m state[k + m]     (k + m <= n_max)

    and 0 otherwise: column N of block N of ``beamsplitter_apply`` at this
    transmittance, which never needs cropping.  t^k and r^m are formed as
    T^(k/2) and (1 - T)^(m/2), one rounding each, so every amplitude keeps
    its relative precision however small t or r is.  The norm of each batch
    element is certified as in ``beamsplitter_apply``.
    """
    if state.ndim != 2:
        raise ParameterError(f"expected a one-mode batch of shape (n_max + 1, B), got {state.shape}")
    check_n_max(state.shape[0] - 1)
    if not 0.0 <= transmittance <= 1.0:
        raise ParameterError(f"transmittance must be in [0, 1], got {transmittance}")

    dim = state.shape[0]
    halves = np.arange(dim) / 2.0
    weights = (
        _sqrt_binomials(dim - 1)
        * np.power(transmittance, halves)[:, np.newaxis]
        * np.power(1.0 - transmittance, halves)
    )
    # The state followed by zero rows, read as the Hankel array
    # hankel[k, m] = padded[k + m] through a strided view: no gather.
    padded = np.zeros((2 * dim - 1, state.shape[1]), dtype=complex)
    padded[:dim] = state
    hankel = np.lib.stride_tricks.as_strided(
        padded, shape=(dim, dim, state.shape[1]),
        strides=(padded.strides[0], *padded.strides), writeable=False,
    )
    out = np.multiply(weights[:, :, np.newaxis], hankel, out=np.empty(hankel.shape, complex))
    _certify_norm(padded.view(np.float64), out.view(np.float64), "loss")
    return out


def _certify_norm(before: np.ndarray, after: np.ndarray, operation: str) -> None:
    """Raise CutoffError unless each batch element keeps its norm to ``NORM_DRIFT_TOL``.

    ``before`` and ``after`` are float64 views of the input and output,
    their last axis the real and imaginary parts of every batch element.
    """
    before, after = np.sqrt(_squared_sums(before)), np.sqrt(_squared_sums(after))
    # Written so that a NaN norm fails the check too.
    drift = ~(np.abs(after - before) <= NORM_DRIFT_TOL * np.maximum(1.0, before))
    if np.any(drift):
        where = int(np.flatnonzero(drift)[0])
        raise CutoffError(
            f"{operation} pushed amplitude past the per-mode cutoff in batch element {where} "
            f"(norm {before[where]:.12f} -> {after[where]:.12f})"
        )


def _squared_sums(region: np.ndarray) -> np.ndarray:
    """Summed ``re**2 + im**2`` of each batch element in a region of a float64 view.

    The last axis of ``region`` holds the real and imaginary part of every
    batch element in turn; one einsum sums the squares over all axes, so no
    squared-amplitude array is formed.
    """
    axes = list(range(region.ndim))
    squares = np.einsum(region, axes, region, axes, axes[-1:])
    return squares[0::2] + squares[1::2]


def misalignment_rotate(state: np.ndarray, delta0: float) -> np.ndarray:
    """Phase e^(i n delta0) on the first mode of every batch element; exactly norm-preserving."""
    _check_two_mode(state)
    if not math.isfinite(delta0):
        raise ParameterError(f"misalignment angle must be finite, got {delta0}")
    phases = np.exp(1j * (np.arange(state.shape[0]) * delta0))
    return state * phases[:, np.newaxis, np.newaxis]


def region_sums(state: np.ndarray) -> np.ndarray:
    """V12 = P(n_1 = n_2 = 0), only1 = P(n_1 > 0 = n_2), only2 = P(n_1 = 0 < n_2) and
    lit = P(n_1, n_2 > 0) of a two-mode batch, shape ``(4, B)``; dark counts do not
    enter them.  Each is summed from the squared amplitudes of its own region.
    """
    _check_two_mode(state)
    state = np.ascontiguousarray(state, dtype=complex)
    row, column = state[0].view(np.float64), state[1:, 0].view(np.float64)
    return np.stack([
        _squared_sums(row[0]), _squared_sums(column), _squared_sums(row[1:]),
        _squared_sums(state[1:, 1:].view(np.float64)),
    ])


def dark_counts(sums: np.ndarray, p_d: float) -> np.ndarray:
    """Threshold-detector readout of :func:`region_sums` with independent dark counts p_d.

    D1 watches the first mode and D2 the second.  Per column, the rows are:

        P(D1 only) = (1-p_d) (only1 + p_d V12)
        P(D2 only) = (1-p_d) (only2 + p_d V12)
        P(none)    = (1-p_d)^2 V12
        P(both)    = lit + p_d (only1 + only2) + p_d^2 V12

    Each click probability is a sum of clicked events, never a difference
    of no-click probabilities near 1, so it keeps its relative precision
    however faint the light.
    """
    check_point(p_d=p_d)
    v12, only1, only2, lit = sums
    d1 = (1.0 - p_d) * (only1 + p_d * v12)
    d2 = (1.0 - p_d) * (only2 + p_d * v12)
    no_click = (1.0 - p_d) ** 2 * v12
    both = lit + p_d * (only1 + only2) + p_d**2 * v12
    return np.stack([d1, d2, no_click, both])


def threshold_detect(state: np.ndarray, p_d: float) -> np.ndarray:
    """:func:`dark_counts` of the :func:`region_sums` of a two-mode batch, shape ``(4, B)``."""
    return dark_counts(region_sums(state), p_d)
