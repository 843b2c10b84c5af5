"""Fock-space plumbing: coherent states, beamsplitters, detectors."""

from __future__ import annotations

import decimal
import math

import numpy as np
import pytest

from ecs_diqkd.fock import (
    MAX_N_MAX,
    CutoffError,
    _beamsplitter_blocks,
    beamsplitter_apply,
    coherent_fock,
    loss_apply,
    misalignment_rotate,
    mode_product,
    poisson_tail,
    threshold_detect,
    vacuum_state,
)
from ecs_diqkd.params import ParameterError

N_MAX = 30


def test_coherent_vacuum():
    state = coherent_fock(0.0, N_MAX)
    assert state.shape == (N_MAX + 1, 1)
    assert state[0, 0] == 1.0
    assert np.all(state[1:] == 0.0)


def test_coherent_norm_and_vacuum_probability():
    mu = 0.7
    state = coherent_fock(math.sqrt(mu), N_MAX)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
    assert abs(state[0, 0]) ** 2 == pytest.approx(math.exp(-mu), rel=1e-12)


def test_coherent_overlap_identity():
    # <alpha|-alpha> = e^(-2 |alpha|^2), reconstructed from coefficients
    mu = 0.6
    plus = coherent_fock(math.sqrt(mu), N_MAX)
    minus = coherent_fock(-math.sqrt(mu), N_MAX)
    overlap = np.vdot(plus, minus)
    assert overlap == pytest.approx(math.exp(-2.0 * mu), abs=1e-12)


def test_coherent_cutoff_certificate():
    with pytest.raises(CutoffError):
        coherent_fock(3.0, 10)  # intensity 9, heavy tail past n = 10
    assert poisson_tail(9.0, 10) > 1e-12


def _decimal_poisson_tail(intensity: float, n_max: int) -> float:
    """P(n > n_max) for Poisson mean ``intensity``, summed term by term in
    50-digit decimal arithmetic, whose exponent range holds every term."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        mu = decimal.Decimal(intensity)
        term = (-mu).exp()
        for n in range(1, n_max + 2):
            term = term * mu / n
        # term is P(n_max + 1); the terms rise up to n = mu, then fall.
        total, n = decimal.Decimal(0), n_max + 1
        while n <= intensity or term > total.scaleb(-50):
            total += term
            n += 1
            term = term * mu / n
        return float(total)


@pytest.mark.parametrize("n_max", [0, 1, 5, 10, 30, 60])
def test_poisson_tail_matches_scipy(n_max):
    # The reference was scipy.stats.poisson.sf; it is now the 50-digit sum above.
    # Intensities span 1e-6 to 100, far above n_max for the small cutoffs.
    # Below 1e-290 poisson_tail's double terms sit in or near the subnormal
    # range, where they hold fewer digits, so both values need only be that
    # small.
    edges = [n_max, n_max + 0.5, n_max + 1.0, n_max + 1.5]
    intensities = list(np.geomspace(1e-6, 100.0, 97)) + edges
    for intensity in intensities:
        intensity = float(intensity)
        ours = poisson_tail(intensity, n_max)
        reference = _decimal_poisson_tail(intensity, n_max)
        if reference < 1e-290:
            assert ours < 1e-290, (intensity, ours, reference)
        else:
            assert ours == pytest.approx(reference, rel=1e-10, abs=0.0), intensity
    assert poisson_tail(0.0, 5) == 0.0


@pytest.mark.parametrize("intensity", [math.nan, math.inf, -1.0])
def test_poisson_tail_rejects_bad_intensity(intensity):
    with pytest.raises(ParameterError, match="intensity must be finite"):
        poisson_tail(intensity, 10)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_coherent_fock_rejects_non_finite_amplitude(alpha):
    with pytest.raises(ParameterError, match="intensity must be finite"):
        coherent_fock(alpha, 10)


def test_constructors_check_the_cutoff():
    # The rule oracle_stats applies: an integer in [1, MAX_N_MAX].
    constructors = (vacuum_state, lambda n_max: coherent_fock(1e-9, n_max),
                    lambda n_max: coherent_fock(0.3, n_max))
    for make in constructors:
        for n_max in (2.5, 30.0, True, "30"):
            with pytest.raises(ParameterError, match="^n_max must be an integer"):
                make(n_max)
        for n_max in (-1, 0, MAX_N_MAX + 1):
            with pytest.raises(ParameterError, match=r"^n_max must be in \[1, 200\]"):
                make(n_max)
        assert make(MAX_N_MAX).shape == (MAX_N_MAX + 1, 1)


def _comb(n: int, ks: np.ndarray) -> np.ndarray:
    """Binomial coefficients C(n, k) for each k, exact before the cast to float."""
    return np.array([math.comb(n, int(k)) for k in ks], dtype=float)


def _binomial_blocks(n_max: int, transmittance: float) -> list[np.ndarray]:
    """Blocks read off (t a1+ + r a2+)^n (r a1+ - t a2+)^m |0,0> by expanding
    both binomials and convolving their coefficients."""
    t, r = math.sqrt(transmittance), math.sqrt(1.0 - transmittance)
    blocks = []
    for total in range(2 * n_max + 1):
        idx = np.arange(max(0, total - n_max), min(n_max, total) + 1)
        block = np.empty((idx.size, idx.size))
        for col, n in enumerate(idx):
            m = total - n
            i, j = np.arange(n + 1), np.arange(m + 1)
            coeffs = np.convolve(
                _comb(n, i) * t**i * r ** (n - i), _comb(m, j) * r**j * (-t) ** (m - j)
            )
            scale = [math.factorial(k) * math.factorial(total - k) for k in idx]
            block[:, col] = coeffs[idx] * np.sqrt(
                np.array(scale, dtype=float) / (math.factorial(n) * math.factorial(m))
            )
        blocks.append(block)
    return blocks


def _block_modes(n_max: int, total: int, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """The (n, m) mode numbers of a block's rows, checked to be (k, N - k)."""
    dim = n_max + 1
    n, m = np.divmod(np.arange(dim * dim)[rows], dim)
    assert np.array_equal(n, np.arange(max(0, total - n_max), min(n_max, total) + 1))
    assert np.array_equal(n + m, np.full(n.size, total))
    return n, m


@pytest.mark.parametrize("transmittance", [0.5, 0.2, 0.83, 1.0])
def test_beamsplitter_blocks_match_binomial_build(transmittance):
    # n_max = 12 keeps every block below the photon numbers where the
    # alternating binomial sums of the reference lose digits.
    n_max = 12
    blocks = _beamsplitter_blocks(n_max, transmittance)
    assert len(blocks) == 2 * n_max + 1
    for total, ((rows, block), expected) in enumerate(
        zip(blocks, _binomial_blocks(n_max, transmittance))
    ):
        _block_modes(n_max, total, rows)
        assert np.max(np.abs(block - expected)) < 1e-13, total


def test_beamsplitter_blocks_are_orthogonal():
    # Uncropped blocks (total photon number <= n_max) are real orthogonal.
    n_max = 30
    for transmittance in (0.5, 0.37):
        blocks = _beamsplitter_blocks(n_max, transmittance)
        for total, (rows, block) in enumerate(blocks[: n_max + 1]):
            n, _ = _block_modes(n_max, total, rows)
            assert np.max(np.abs(block @ block.T - np.eye(n.size))) < 1e-12
        for total, (rows, _) in enumerate(blocks[n_max + 1:], start=n_max + 1):
            _block_modes(n_max, total, rows)


def _gather_scatter_reference(state: np.ndarray, transmittance: float) -> np.ndarray:
    """``beamsplitter_apply`` without its certificate, each block's rows
    gathered by a fancy index and scattered back."""
    dim = state.shape[0]
    work = np.ascontiguousarray(state.reshape(dim * dim, -1), dtype=complex).view(np.float64)
    out = np.empty_like(work)
    for total, (_, block) in enumerate(_beamsplitter_blocks(dim - 1, transmittance)):
        k = np.arange(max(0, total - dim + 1), min(dim - 1, total) + 1)
        flat = k * dim + (total - k)
        out[flat] = block @ work[flat]
    return out.view(complex).reshape(state.shape)


def _random_states(n_max: int, sizes: tuple[int, ...], scale: float = 1.0):
    """Random two-mode batches, one per size, times ``scale``.

    Amplitude past total photon number n_max is tiny enough to pass the norm
    certificate, yet drives every cropped block.  Each batch comes in C,
    Fortran and reversed-batch layouts.
    """
    rng = np.random.default_rng(n_max)
    dim = n_max + 1
    outside = np.add.outer(np.arange(dim), np.arange(dim)) > n_max
    for size in sizes:
        state = rng.normal(size=(dim, dim, size)) + 1j * rng.normal(size=(dim, dim, size))
        state[outside] *= 1e-12
        state *= scale
        yield size, {"C": np.ascontiguousarray(state), "Fortran": np.asfortranarray(state),
                     "reversed batch": state[..., ::-1]}


@pytest.mark.parametrize("n_max", [1, 2, 7, 30])
@pytest.mark.parametrize("transmittance", [0.0, 0.37, 0.5, 1.0])
def test_beamsplitter_row_views_match_gather_scatter_bit_for_bit(n_max, transmittance):
    for size, layouts in _random_states(n_max, (1, 10, 52)):
        for layout, view in layouts.items():
            expected = _gather_scatter_reference(view, transmittance)
            assert np.array_equal(beamsplitter_apply(view, transmittance), expected), (
                size, layout)


def _abs_squared_readout(state: np.ndarray, p_d: float) -> np.ndarray:
    """``threshold_detect`` read from a full ``np.abs(state)**2`` joint distribution."""
    joint = np.abs(state) ** 2
    v12 = joint[0, 0]
    only1 = joint[1:, 0].sum(axis=0)
    only2 = joint[0, 1:].sum(axis=0)
    lit = joint[1:, 1:].sum(axis=(0, 1))
    return np.stack([
        (1.0 - p_d) * (only1 + p_d * v12),
        (1.0 - p_d) * (only2 + p_d * v12),
        (1.0 - p_d) ** 2 * v12,
        lit + p_d * (only1 + only2) + p_d**2 * v12,
    ])


@pytest.mark.parametrize("n_max", [1, 7, 30])
@pytest.mark.parametrize("scale", [1.0, 1e-8])
def test_threshold_detect_reads_every_layout_alike_and_matches_abs_squared(n_max, scale):
    # The readout sums squares straight from the state's float64 view; the
    # largest relative gap to the abs**2 reference measured here is 1.6e-15.
    for size, layouts in _random_states(n_max, (1, 10, 80), scale):
        state = layouts["C"]
        for p_d in (0.0, 1e-5):
            herald = threshold_detect(state, p_d)
            assert np.array_equal(threshold_detect(layouts["Fortran"], p_d), herald)
            reversed_batch = threshold_detect(layouts["reversed batch"], p_d)
            assert np.array_equal(reversed_batch[:, ::-1], herald), (size, p_d)
            reference = _abs_squared_readout(state, p_d)
            assert np.all(np.abs(herald - reference) <= 1e-14 * reference), (size, p_d)


def test_beamsplitter_certificate_fails_a_nan_state():
    with pytest.raises(CutoffError, match="batch element 0"):
        beamsplitter_apply(np.full((11, 11, 1), np.nan, dtype=complex), 0.5)


def _batch(*states: np.ndarray) -> np.ndarray:
    """Stack batches of one into one batch."""
    return np.concatenate(states, axis=-1)


def test_batched_operations_match_each_element():
    alphas = [(0.4, -0.7), (0.0, 0.3), (0.9, 0.9)]
    singles = [
        mode_product(coherent_fock(a, N_MAX), coherent_fock(b, N_MAX)) for a, b in alphas
    ]
    batch = mode_product(
        _batch(*(coherent_fock(a, N_MAX) for a, _ in alphas)),
        _batch(*(coherent_fock(b, N_MAX) for _, b in alphas)),
    )
    assert batch.shape == (N_MAX + 1, N_MAX + 1, 3)
    assert np.array_equal(batch, _batch(*singles))

    # One angle per call, so each element gets its own.
    angles = [0.0, 0.3, -1.1]
    rotated = _batch(*(misalignment_rotate(batch[..., b:b + 1], angle)
                       for b, angle in enumerate(angles)))
    out = beamsplitter_apply(rotated, 0.37)
    herald = threshold_detect(out, 1e-3)
    for b, single in enumerate(singles):
        expected = beamsplitter_apply(misalignment_rotate(single, angles[b]), 0.37)
        assert np.max(np.abs(out[..., b:b + 1] - expected)) < 1e-15
        assert np.linalg.norm(out[..., b]) == pytest.approx(np.linalg.norm(expected), abs=1e-15)
        single_herald = threshold_detect(expected, 1e-3)
        for got, want in zip(herald, single_herald):
            assert got[b] == pytest.approx(want[0], abs=1e-15)

    # A batch of one joins every element, on either side.
    firsts = _batch(*(coherent_fock(a, N_MAX) for a, _ in alphas))
    joined = mode_product(firsts, vacuum_state(N_MAX))
    assert joined.shape == (N_MAX + 1, N_MAX + 1, 3)
    assert np.array_equal(joined[:, 0, :], firsts)
    joined = mode_product(vacuum_state(N_MAX), firsts)
    assert joined.shape == (N_MAX + 1, N_MAX + 1, 3)
    assert np.array_equal(joined[0], firsts)


def test_batched_cutoff_overflow_in_one_element():
    # Element 0 is harmless; element 1 holds total photon number 2 n_max,
    # which no output pair can hold.  The check must catch that one element.
    fine = mode_product(coherent_fock(0.3, N_MAX), vacuum_state(N_MAX))
    overflow = np.zeros((N_MAX + 1, N_MAX + 1, 1), dtype=complex)
    overflow[N_MAX, N_MAX] = 1.0
    batch = _batch(fine, overflow, fine)
    with pytest.raises(CutoffError, match="batch element 1"):
        beamsplitter_apply(batch, 0.5)
    beamsplitter_apply(_batch(fine, fine), 0.5)


def _vacuum_pair() -> np.ndarray:
    """Two-mode vacuum, a batch of one."""
    return mode_product(vacuum_state(N_MAX), vacuum_state(N_MAX))


def test_batched_validation():
    pair = _batch(vacuum_state(N_MAX), vacuum_state(N_MAX))
    with pytest.raises(ParameterError, match="cannot pair batches of 2 and 3 states"):
        mode_product(pair, _batch(pair, vacuum_state(N_MAX)))
    with pytest.raises(ParameterError, match="different cutoffs"):
        mode_product(pair, vacuum_state(N_MAX - 1))
    # A vector without its batch axis would read as a batch of no modes.
    with pytest.raises(ParameterError, match="trailing batch axis"):
        mode_product(vacuum_state(N_MAX)[:, 0], vacuum_state(N_MAX))
    with pytest.raises(ParameterError, match="trailing batch axis"):
        mode_product(_vacuum_pair(), vacuum_state(N_MAX))


@pytest.mark.parametrize(
    "state",
    [
        vacuum_state(N_MAX),
        np.zeros((N_MAX + 1,) * 3 + (1,), dtype=complex),
        np.zeros((N_MAX + 1, N_MAX, 1), dtype=complex),
    ],
    ids=["one-mode", "three-mode", "unequal-cutoffs"],
)
def test_operations_take_only_two_mode_batches(state):
    operations = (
        lambda s: beamsplitter_apply(s, 0.5),
        lambda s: misalignment_rotate(s, 0.1),
        lambda s: threshold_detect(s, 0.0),
    )
    for operation in operations:
        with pytest.raises(ParameterError, match="two-mode batch of shape"):
            operation(state)


def test_beamsplitter_coherent_identity():
    # |alpha>|alpha> -> |sqrt(2) alpha>|0>
    alpha = 0.5
    state = mode_product(coherent_fock(alpha, N_MAX), coherent_fock(alpha, N_MAX))
    out = beamsplitter_apply(state, 0.5)
    expected = mode_product(
        coherent_fock(math.sqrt(2.0) * alpha, N_MAX), vacuum_state(N_MAX)
    )
    assert np.allclose(out, expected, atol=1e-12)


def test_beamsplitter_single_photon():
    # |1, 0> -> (|1, 0> + |0, 1>) / sqrt(2)
    amps = np.zeros((N_MAX + 1, N_MAX + 1, 1), dtype=complex)
    amps[1, 0] = 1.0
    out = beamsplitter_apply(amps, 0.5)
    root_half = 1.0 / math.sqrt(2.0)
    assert out[1, 0, 0] == pytest.approx(root_half, abs=1e-14)
    assert out[0, 1, 0] == pytest.approx(root_half, abs=1e-14)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def _mean_photons(state: np.ndarray) -> list[float]:
    """Mean photon number of each mode of a two-mode state (a batch of one)."""
    joint = np.abs(state[..., 0]) ** 2
    n = np.arange(state.shape[0])
    return [float(n @ joint.sum(axis=1)), float(n @ joint.sum(axis=0))]


def test_beamsplitter_loss_splits_coherent_state():
    alpha, eta = 0.8, 0.3
    state = mode_product(coherent_fock(alpha, N_MAX), vacuum_state(N_MAX))
    out = beamsplitter_apply(state, eta)
    assert _mean_photons(out) == pytest.approx([eta * alpha**2, (1 - eta) * alpha**2], rel=1e-10)


def _ecs_state(mu: float, signs: tuple[int, int], parity: int) -> np.ndarray:
    """(|s1 a>|s2 a> + parity |-s1 a>|-s2 a>) normalized, in Fock space."""
    alpha = math.sqrt(mu)
    s1, s2 = signs
    first = mode_product(coherent_fock(s1 * alpha, N_MAX), coherent_fock(s2 * alpha, N_MAX))
    second = mode_product(
        coherent_fock(-s1 * alpha, N_MAX), coherent_fock(-s2 * alpha, N_MAX)
    )
    norm = math.sqrt(2.0 * (1.0 + parity * math.exp(-4.0 * mu)))
    return (first + parity * second) / norm


def test_parity_law_after_central_beamsplitter():
    # The four two-mode superpositions evolve to (even, 0), (odd, 0),
    # (0, even), (0, odd) photon-number support.
    mu = 0.5
    even = np.arange(N_MAX + 1) % 2 == 0
    cases = [
        ((+1, +1), +1, 0, even),
        ((+1, +1), -1, 0, ~even),
        ((+1, -1), +1, 1, even),
        ((+1, -1), -1, 1, ~even),
    ]
    for signs, parity, bright_mode, keep in cases:
        out = beamsplitter_apply(_ecs_state(mu, signs, parity), 0.5)
        joint = np.abs(out[..., 0]) ** 2
        dark_mode = 1 - bright_mode
        dark_marginal = joint.sum(axis=bright_mode)
        assert dark_marginal[1:].sum() < 1e-12  # the other output port is vacuum
        bright_marginal = joint.sum(axis=dark_mode)
        assert bright_marginal[~keep].sum() < 1e-12
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)


def test_beamsplitter_rejects_cutoff_overflow():
    amps = np.zeros((N_MAX + 1, N_MAX + 1, 1), dtype=complex)
    amps[N_MAX, N_MAX] = 1.0  # total photon number 2 n_max cannot fit one mode
    with pytest.raises(CutoffError, match="in batch element 0"):
        beamsplitter_apply(amps, 0.5)


def test_beamsplitter_transmittance_validation():
    with pytest.raises(ParameterError, match="transmittance must be in"):
        beamsplitter_apply(_vacuum_pair(), 1.5)


def _loss_inputs(n_max: int) -> np.ndarray:
    """A one-mode batch: two random complex states with weight up to n_max,
    and a coherent state."""
    rng = np.random.default_rng(n_max)
    states = rng.normal(size=(n_max + 1, 2)) + 1j * rng.normal(size=(n_max + 1, 2))
    states /= np.linalg.norm(states, axis=0)
    return np.hstack([states, coherent_fock(0.8 * np.exp(0.3j), n_max)])


LOSS_ETAS = (1e-8, 1e-6, 0.05, 0.37, 0.5, 0.999, 1.0)


@pytest.mark.parametrize("n_max", [30, 60])
def test_loss_is_the_splitter_on_a_vacuum_environment(n_max):
    # loss_apply forms the vacuum column of each splitter block in closed
    # form; the blocks' ladder adds positive terms along it, so both keep
    # relative precision on every entry.
    states = _loss_inputs(n_max)
    for eta in LOSS_ETAS:
        lost = loss_apply(states, eta)
        split = beamsplitter_apply(mode_product(states, vacuum_state(n_max)), eta)
        assert lost.shape == split.shape
        assert np.array_equal(lost == 0, split == 0), eta
        nonzero = split != 0
        gap = np.abs(lost[nonzero] - split[nonzero]) / np.abs(split[nonzero])
        assert np.max(gap) <= 1e-14, eta


def _decimal_loss_weights(state: np.ndarray, eta: float) -> dict[tuple[int, int], decimal.Decimal]:
    """|out[k, m]|^2 = C(k + m, k) eta^k (1 - eta)^m |state[k + m]|^2 in
    50-digit decimal arithmetic, from the exact values of the floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        n_max = state.size - 1
        t2 = decimal.Decimal(eta)
        r2 = 1 - t2
        up, across = [decimal.Decimal(1)], [decimal.Decimal(1)]
        for _ in range(n_max):
            up.append(up[-1] * t2)
            across.append(across[-1] * r2)
        mass = [decimal.Decimal(float(x.real)) ** 2 + decimal.Decimal(float(x.imag)) ** 2
                for x in state]
        return {(k, m): math.comb(k + m, k) * up[k] * across[m] * mass[k + m]
                for k in range(n_max + 1) for m in range(n_max + 1 - k)}


@pytest.mark.parametrize("n_max", [30, 200])
def test_loss_weights_match_a_decimal_reference(n_max):
    # t^k and r^m are each formed by one power of eta or 1 - eta, so no
    # weight loses digits to a large k or a small eta.  At n_max 200 one
    # random state, whose weight reaches every N, keeps the reference cheap;
    # a small eta leaves weight >= 1e-250 only at small k, which n_max 30 covers.
    states = _loss_inputs(n_max)
    if n_max == 200:
        states, etas = states[:, :1], (0.37, 0.999)
    else:
        etas = LOSS_ETAS
    for eta in etas:
        weights = np.abs(loss_apply(states, eta)) ** 2
        for b in range(states.shape[1]):
            checked = 0
            for (k, m), reference in _decimal_loss_weights(states[:, b], eta).items():
                if reference >= decimal.Decimal("1e-250"):
                    gap = abs(decimal.Decimal(float(weights[k, m, b])) - reference) / reference
                    assert gap <= decimal.Decimal("1e-13"), (eta, b, k, m)
                    checked += 1
            assert checked >= n_max + 1, (eta, b)


def test_loss_at_full_and_zero_transmittance_moves_the_state_exactly():
    states = _loss_inputs(N_MAX)
    kept = loss_apply(states, 1.0)
    assert np.array_equal(kept[:, 0], states)
    assert not np.any(kept[:, 1:])
    gone = loss_apply(states, 0.0)
    assert np.array_equal(gone[0], states)
    assert not np.any(gone[1:])


def test_loss_checks_its_input():
    with pytest.raises(CutoffError, match="batch element 1"):
        loss_apply(np.hstack([vacuum_state(10), np.full((11, 1), np.nan)]), 0.37)
    with pytest.raises(ParameterError, match="transmittance must be in"):
        loss_apply(vacuum_state(10), 1.5)
    with pytest.raises(ParameterError, match="one-mode batch"):
        loss_apply(_vacuum_pair(), 0.37)


def test_coherent_state_of_minus_alpha_negates_the_odd_rows_exactly():
    # The oracle forms |-alpha> this way.
    for intensity in np.geomspace(1e-4, 6.0, 40):
        plus = coherent_fock(math.sqrt(intensity), N_MAX)
        signs = (-1.0) ** np.arange(N_MAX + 1)[:, np.newaxis]
        assert np.array_equal(coherent_fock(-math.sqrt(intensity), N_MAX), plus * signs)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_misalignment_rejects_non_finite_angles(angle):
    batch = _batch(_vacuum_pair(), _vacuum_pair())
    for value in (angle, np.float64(angle)):
        with pytest.raises(ParameterError, match="^misalignment angle must be finite"):
            misalignment_rotate(batch, value)


def test_misalignment_identity_at_zero():
    state = mode_product(coherent_fock(0.4, N_MAX), coherent_fock(0.4, N_MAX))
    out = misalignment_rotate(state, 0.0)
    assert np.array_equal(out, state)


@pytest.mark.parametrize("relative_sign", [+1, -1])
def test_misalignment_routing_through_beamsplitter(relative_sign):
    # With drift delta0 = arccos(1 - 2 e_d) on the first arm, equal-sign inputs
    # route intensity 2 mu (1 - e_d) to the first port and 2 mu e_d to the
    # second; opposite-sign inputs swap the two.
    mu, e_d = 0.3, 0.04
    delta0 = math.acos(1.0 - 2.0 * e_d)
    alpha = math.sqrt(mu)
    state = mode_product(
        coherent_fock(alpha, N_MAX), coherent_fock(relative_sign * alpha, N_MAX)
    )
    state = misalignment_rotate(state, delta0)
    out = beamsplitter_apply(state, 0.5)
    bright, dim = 2.0 * mu * (1.0 - e_d), 2.0 * mu * e_d
    expected = [bright, dim] if relative_sign > 0 else [dim, bright]
    assert _mean_photons(out) == pytest.approx(expected, rel=1e-10)


def test_threshold_detect_vacuum():
    d1_only, d2_only, none, both = threshold_detect(_vacuum_pair(), 0.0)
    assert none == 1.0
    assert d1_only == d2_only == both == 0.0


def test_threshold_detect_dark_counts_on_vacuum():
    p_d = 0.25
    herald = threshold_detect(_vacuum_pair(), p_d)
    assert herald.shape == (4, 1)
    d1_only, d2_only, none, both = herald
    assert d1_only == pytest.approx(p_d * (1 - p_d), abs=1e-15)
    assert d2_only == pytest.approx(p_d * (1 - p_d), abs=1e-15)
    assert none == pytest.approx((1 - p_d) ** 2, abs=1e-15)
    assert both == pytest.approx(p_d**2, abs=1e-15)
    assert sum(herald) == pytest.approx(1.0, abs=1e-12)


def test_threshold_detect_bright_port():
    mu = 0.25
    state = mode_product(
        coherent_fock(math.sqrt(2.0 * mu), N_MAX), vacuum_state(N_MAX)
    )
    d1_only, d2_only, _, _ = threshold_detect(state, 0.0)
    assert d1_only == pytest.approx(-math.expm1(-2.0 * mu), rel=1e-12)
    assert d2_only == 0.0


def test_threshold_detect_validation():
    for p_d in (1.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="^p_d must be"):
            threshold_detect(_vacuum_pair(), p_d)
