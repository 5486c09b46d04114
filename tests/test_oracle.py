import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ottopair import cycle, medium, oracle
from ottopair.entanglement import spin_pair_hamiltonian
from ottopair.errors import DomainError, NumericalError, UnknownModel
from ottopair.medium import BathPair, MediumKind
from ottopair.oracle import (
    _MODELS,
    _block_levels,
    _grouped,
    _stack_size,
    exact_spin_spectrum,
    mode_heat_check,
    oscillator_cycle_heat_check,
    oscillator_spectrum_check,
    run_verification,
    spin_cycle_heat_check,
    spin_spectrum_check,
    suggest_truncation,
    thermal_energy_check,
    truncated_oscillator_matrix,
    truncated_oscillator_spectrum,
)

OSC = MediumKind.OSCILLATOR
SPIN = MediumKind.SPIN
BATHS = BathPair(2.0, 1.0)
BETAS = (BATHS.beta_h, BATHS.beta_c)


def test_exact_spin_spectrum_block_values():
    assert np.allclose(exact_spin_spectrum(4.0, 1.0, 1.0), [4.0, 7.0, 9.0, 12.0])
    root = math.sqrt(17.0)
    assert np.allclose(exact_spin_spectrum(4.0, 1.0, -1.0), [8 - root, 8.0, 8.0, 8 + root])
    assert np.allclose(exact_spin_spectrum(4.0, 0.0, 0.0), [4.0, 8.0, 8.0, 12.0])


def test_spin_spectrum_shift_equivalence():
    # exact spectrum equals the two-mode ladder up to one common offset
    rng = np.random.default_rng(0)
    for _ in range(200):
        omega = rng.uniform(0.5, 8.0)
        j_x, j_y = rng.uniform(-2.0, 2.0, 2)
        if math.hypot(omega, 0.5 * (j_x - j_y)) - abs(0.5 * (j_x + j_y)) <= 1e-6:
            continue
        assert spin_spectrum_check(omega, j_x, j_y, 1.0)[0] < 1e-12


def test_truncated_matrix_uncoupled_is_diagonal():
    h = truncated_oscillator_matrix(3.0, 0.0, 0.0, n_max=3)
    n = np.arange(4)
    expected = 3.0 * (n[:, None] + n[None, :] + 1.0).ravel()
    assert np.allclose(h, np.diag(expected))
    assert h.shape == (16, 16)
    with pytest.raises(DomainError):
        truncated_oscillator_matrix(1.0, 2.0, 0.0, n_max=3)
    with pytest.raises(DomainError):
        truncated_oscillator_matrix(3.0, 0.0, 0.0, n_max=0)


def test_truncated_matrix_is_symmetric():
    h = truncated_oscillator_matrix(2.5, 0.7, -0.3, n_max=6)
    assert np.abs(h - h.T).max() == 0.0


def test_truncated_spectrum_matches_ladder_within_1e8():
    # low-lying levels reproduce n_a w_a + n_b w_b + (w_a + w_b)/2
    for lx, lp in ((1.0, 1.0), (1.0, -1.0), (0.9, 0.3)):
        res, _ = oscillator_spectrum_check(4.0, lx, lp, 1.0, n_max=16, levels=20)
        assert res < 1e-8


def test_truncated_xx_ground_energy_is_omega():
    # zero point (w_a + w_b)/2 = omega for the xx coupling
    spectrum = truncated_oscillator_spectrum(4.0, 1.0, 1.0, n_max=12)
    assert spectrum[0] == pytest.approx(4.0, abs=1e-10)


def test_suggest_truncation_behavior():
    shallow = suggest_truncation(0.3, 1.0)
    deep = suggest_truncation(5.0, 1.0)
    assert shallow > deep
    assert suggest_truncation(1.0, 1.0) <= 64
    with pytest.raises(NumericalError):
        suggest_truncation(0.05, 1.0)  # tail would need > 200 levels
    with pytest.raises(NumericalError):
        suggest_truncation(0.1, 1.0)  # terms beyond 200 still sum to ~2e-9 of Z
    # the doubling check compares depth 200 with 128 and fails here, but the
    # terms beyond 200 are below 1e-12 of Z, so the cap is accepted
    assert suggest_truncation(0.199, 1.0) == 200
    with pytest.raises(DomainError):
        suggest_truncation(-1.0, 1.0)


def test_partition_factorization_spin_exact():
    rng = np.random.default_rng(1)
    for _ in range(100):
        omega = rng.uniform(1.0, 6.0)
        j_x, j_y = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        beta = rng.uniform(0.05, 3.0)
        assert spin_spectrum_check(omega, j_x, j_y, beta)[1] < 1e-12


def test_partition_factorization_oscillator_deep_truncation():
    # beta * omega_min >= 1 with n_max = 60
    _, res = oscillator_spectrum_check(4.0, 1.0, 1.0, 0.4, n_max=60)
    assert res < 1e-10


def test_partition_factorization_cold_limit():
    # ground-state dominance: residual collapses as beta grows
    _, res = oscillator_spectrum_check(4.0, 0.8, 0.2, 6.0, n_max=12)
    assert res < 1e-13


def test_thermal_energy_oscillator():
    assert thermal_energy_check(OSC, 1.0, 1.0, n_max=60) < 1e-10
    assert thermal_energy_check(OSC, 3.0, 0.21) < 1e-10
    # zero-point limit: brute Boltzmann mean energy -> omega / 2
    energies = (np.arange(41) + 0.5) * 3.0
    w = np.exp(-50.0 * (energies - energies[0]))
    assert energies @ (w / w.sum()) == pytest.approx(1.5, rel=1e-12)


def test_thermal_energy_spin_exact():
    rng = np.random.default_rng(2)
    for _ in range(100):
        assert thermal_energy_check(SPIN, rng.uniform(0.5, 8.0), rng.uniform(0.02, 5.0)) < 1e-13


def test_mode_heat_checks():
    assert mode_heat_check(OSC, 4.0, 3.0, *BETAS) < 1e-12
    assert mode_heat_check(SPIN, 4.0, 3.0, *BETAS) < 1e-13
    # refrigerator-side frequencies too
    assert mode_heat_check(OSC, 5.0, 2.0, *BETAS) < 1e-12


def test_spin_cycle_heat_check_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        omega = rng.uniform(1.0, 6.0)
        omega_prime = omega * rng.uniform(0.3, 1.5)
        j_x, j_y = rng.uniform(-1.5, 1.5, 2)
        t_c = rng.uniform(0.4, 2.0)
        baths = BathPair(t_c * rng.uniform(1.3, 3.5), t_c)
        assert spin_cycle_heat_check(
            omega, omega_prime, j_x, j_y, baths.beta_h, baths.beta_c
        ) < 1e-12


def test_oscillator_cycle_heat_check():
    assert oscillator_cycle_heat_check(4.0, 3.0, 1.0, "xx", *BETAS, n_max=40) < 1e-12
    assert oscillator_cycle_heat_check(4.0, 3.0, 1.0, "xy", *BETAS, n_max=40) < 1e-12
    assert oscillator_cycle_heat_check(5.0, 2.0, 0.5, "xx", *BETAS, n_max=60) < 1e-12
    with pytest.raises(UnknownModel):
        oscillator_cycle_heat_check(4.0, 3.0, 1.0, "general", *BETAS)


def test_run_verification_quick_passes():
    report = run_verification("quick", seed=123)
    assert report.ok
    assert len(report.checks) == 11
    # the 34 xx spin draws, each at its hot and its cold point
    assert [c.draws for c in report.checks if c.name == "spin concurrence"] == [68]
    table = report.format_table()
    assert "oscillator partition" in table and "pass" in table
    for check in report.checks:
        assert check.max_residual < check.threshold


@pytest.mark.parametrize("seed", [488576684, 438145231])
def test_run_verification_quick_passes_near_truncation_cap(seed):
    # these draws reach beta * omega ~ 0.2, where the oscillator sums need
    # the full 200-level cap
    report = run_verification("quick", seed=seed)
    assert report.ok, report.format_table()


def test_run_verification_rejects_unknown_level():
    from ottopair.errors import UnknownModel

    with pytest.raises(UnknownModel):
        run_verification("exhaustive")


def _per_draw_spin_residuals(omega, omega_prime, j_x, j_y, t_h, t_c, beta_z, beta_e):
    """The five spin checks for one draw, written out with scalar calls:
    one eigensolve per matrix, `@` for every Boltzmann average."""
    baths = BathPair(t_h, t_c)
    beta_h, beta_c = baths.beta_h, baths.beta_c

    def weights(beta, energies):
        w = np.exp(-beta * (energies - energies.min()))
        return w / w.sum()

    def transport(e_hot, e_cold):
        p_hot, p_cold = weights(beta_h, e_hot), weights(beta_c, e_cold)
        return float(e_hot @ (p_hot - p_cold)), float(e_cold @ (p_cold - p_hot))

    h = spin_pair_hamiltonian(omega, j_x, j_y)
    brute = np.sort(np.linalg.eigvalsh(h))
    w_a, w_b = medium.spin_normal_modes(omega, j_x, j_y)
    w_a_prime, w_b_prime = medium.spin_normal_modes(omega_prime, j_x, j_y)
    e0 = brute[0]
    ladder = np.sort([e0, e0 + w_b, e0 + w_a, e0 + w_a + w_b])
    spectrum = np.abs(brute - ladder).max() / max(1.0, abs(brute[-1]))
    z_exact = np.exp(-beta_z * (brute - 2.0 * omega)).sum()
    z_closed = 4.0 * np.cosh(0.5 * beta_z * w_a) * np.cosh(0.5 * beta_z * w_b)
    partition = abs(z_exact - z_closed) / z_exact

    levels = np.array([0.5 * omega, 1.5 * omega])
    closed = omega - 0.5 * omega * np.tanh(0.5 * beta_e * omega)
    energy = abs(float(levels @ weights(beta_e, levels)) - closed) / max(1.0, abs(closed))

    n = np.array([0.5, 1.5])
    b_h, b_c = transport(n * w_a, n * w_a_prime)
    q_h, q_c, w = cycle.mode_heats(SPIN, w_a, w_a_prime, baths)
    heat = max(abs(q_h - b_h), abs(q_c - b_c), abs(w - b_h - b_c)) / max(1.0, abs(q_h), abs(q_c))

    def block_levels(h):
        inner = np.linalg.eigvalsh(h[1:3, 1:3])
        outer = np.linalg.eigvalsh(h[np.ix_([0, 3], [0, 3])])
        return np.concatenate([inner, outer])

    h_prime = spin_pair_hamiltonian(omega_prime, j_x, j_y)
    b_h, b_c = transport(block_levels(h), block_levels(h_prime))
    qa = cycle.mode_heats(SPIN, w_a, w_a_prime, baths)
    qb = cycle.mode_heats(SPIN, w_b, w_b_prime, baths)
    q_h, q_c = qa[0] + qb[0], qa[1] + qb[1]
    heats = max(abs(q_h - b_h), abs(q_c - b_c)) / max(1.0, abs(q_h), abs(q_c))
    return spectrum, partition, energy, heat, heats


def test_stacked_spin_checks_equal_per_draw_computation_bit_for_bit():
    rng = np.random.default_rng(11)
    n = 300
    omega = rng.uniform(2.0, 6.0, n)
    omega_prime = omega * rng.uniform(0.4, 1.4, n)
    cap = 0.35 * np.minimum(omega, omega_prime)
    j_x = rng.uniform(-1.0, 1.0, n) * cap
    # xx, xy and general couplings in turn
    model = np.arange(n) % 3
    general = rng.uniform(-1.0, 1.0, n) * cap
    j_y = np.select([model == 0, model == 1], [j_x, -j_x], general)
    t_c = rng.uniform(0.5, 2.0, n)
    t_h = t_c * rng.uniform(1.5, 4.0, n)
    beta_h, beta_c = 1.0 / t_h, 1.0 / t_c
    beta_z, beta_e = rng.uniform(0.2, 2.0, n), rng.uniform(0.05, 2.0, n)

    w_a = medium.spin_mode_frequencies(omega, j_x, j_y)[0]
    w_a_prime = medium.spin_mode_frequencies(omega_prime, j_x, j_y)[0]
    stacked = np.stack([
        *spin_spectrum_check(omega, j_x, j_y, beta_z),
        thermal_energy_check(SPIN, omega, beta_e),
        mode_heat_check(SPIN, w_a, w_a_prime, beta_h, beta_c),
        spin_cycle_heat_check(omega, omega_prime, j_x, j_y, beta_h, beta_c),
    ])
    columns = (omega, omega_prime, j_x, j_y, t_h, t_c, beta_z, beta_e)
    per_draw = np.array([_per_draw_spin_residuals(*draw) for draw in zip(*columns)]).T
    assert stacked.shape == per_draw.shape == (5, n)
    assert np.array_equal(stacked, per_draw)
    assert stacked.max() < 1e-12


@pytest.mark.parametrize("model", ["xx", "xy", "general"])
@pytest.mark.parametrize("n_max", [1, 2, 3, 9, 16, 24])
def test_block_spectrum_matches_the_dense_eigensolve(model, n_max):
    # the blocks solved (N or n1 - n2 sectors for xx and xy, parity x
    # exchange otherwise) hold the whole dense spectrum
    rng = np.random.default_rng(n_max)
    for _ in range(5):
        omega = rng.uniform(2.0, 6.0)
        values = rng.uniform(-0.4, 0.4, 2 if model == "general" else 1) * omega
        coupling = medium.model_coupling(model, *values)
        dense = np.linalg.eigvalsh(truncated_oscillator_matrix(omega, *coupling, n_max))
        blocks = truncated_oscillator_spectrum(omega, *coupling, n_max)
        assert blocks.shape == dense.shape == ((n_max + 1) ** 2,)
        assert np.abs(blocks - dense).max() <= 1e-13 * max(1.0, np.abs(dense).max())


@pytest.mark.parametrize("model", ["xx", "xy"])
@pytest.mark.parametrize("n_max", [1, 9, 40])
def test_fock_blocks_are_the_conserved_blocks_of_the_dense_matrix(model, n_max):
    omega, lam = 3.7, 0.9
    h = truncated_oscillator_matrix(omega, *medium.model_coupling(model, lam), n_max)
    n1, n2 = np.divmod(np.arange(h.shape[0]), n_max + 1)
    label = n1 + n2 if model == "xx" else n1 - n2
    # no dense entry links two different blocks
    rows, cols = np.nonzero(h)
    assert np.array_equal(label[rows], label[cols])
    expected_levels, expected_mult = [], []
    for block in range(label.max() + 1):
        states = np.flatnonzero(label == block)
        expected_levels.append(np.linalg.eigvalsh(h[np.ix_(states, states)]))
        # xy: the d < 0 blocks mirror the d > 0 ones
        expected_mult.append(np.full(states.size, 2.0 if model == "xy" and block > 0 else 1.0))
    levels, mult = _block_levels(omega, *medium.model_coupling(model, lam), model, n_max)
    assert np.array_equal(levels, np.concatenate(expected_levels))
    assert np.array_equal(mult, np.concatenate(expected_mult))
    # with multiplicities the blocks hold the whole dense spectrum
    assert np.allclose(np.sort(np.repeat(levels, mult.astype(int))), np.linalg.eigvalsh(h))


@pytest.mark.parametrize("model", ["xx", "xy"])
def test_block_levels_are_each_block_solved_alone_at_the_verify_cutoffs(model):
    # `verify` solves blocks at cutoff 16 (spectra) and 18 to 31 (cycle
    # heats); a stack of two draws, each with its own pad level, gives the
    # levels of each block of each draw solved alone, bit for bit
    rng = np.random.default_rng(31)
    for n_max in (16, *range(18, 32)):
        omega = rng.uniform(2.0, 6.0, 2)
        lam = rng.uniform(-0.4, 0.4, 2) * omega
        levels, _ = _block_levels(omega, *medium.model_coupling(model, lam), model, n_max)
        n1, n2 = np.divmod(np.arange((n_max + 1) ** 2), n_max + 1)
        label = n1 + n2 if model == "xx" else n1 - n2
        for k in range(2):
            h = truncated_oscillator_matrix(omega[k], *medium.model_coupling(model, lam[k]), n_max)
            alone = [np.linalg.eigvalsh(h[np.ix_(label == block, label == block)])
                     for block in range(label.max() + 1)]
            assert np.array_equal(levels[k], np.concatenate(alone))


def test_general_block_levels_are_the_parity_exchange_blocks_of_the_dense_matrix():
    # the blocks of parity n1 + n2 = 0, 1 in the basis (|a b> +- |b a>)/sqrt(2),
    # a < b, plus |a a> in the even symmetric one, solved alone from the
    # dense matrix; a stack of two draws at `verify`'s spectrum cutoff
    n_max, d = 16, 17
    omega, lambda_x, lambda_p = np.array([3.7, 5.1]), np.array([0.9, -1.8]), np.array([-0.3, 0.7])
    levels, mult = _block_levels(omega, lambda_x, lambda_p, "general", n_max)
    assert (mult == 1).all()
    for k in range(2):
        h = truncated_oscillator_matrix(omega[k], lambda_x[k], lambda_p[k], n_max)
        alone = []
        for parity, sign in itertools.product((0, 1), (1.0, -1.0)):
            pairs = [(a, b) for a in range(d) for b in range(a if sign > 0 else a + 1, d)
                     if (a + b) % 2 == parity]
            u = np.zeros((d * d, len(pairs)))
            for col, (a, b) in enumerate(pairs):
                root = 1.0 if a == b else 0.5**0.5
                u[[a * d + b, b * d + a], col] = (root, sign * root)
            alone.append(np.linalg.eigvalsh(u.T @ h @ u))
        expected = np.concatenate(alone)
        assert np.abs(levels[k] - expected).max() <= 1e-13 * np.abs(expected).max()


def _eigensolve_widths(monkeypatch, omega, lambda_x, lambda_p, n_max):
    """The shape of each matrix or stack `truncated_oscillator_spectrum`
    hands to `np.linalg.eigvalsh`."""
    shapes = []
    solve = np.linalg.eigvalsh

    def spy(a):
        shapes.append(a.shape)
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    truncated_oscillator_spectrum(omega, lambda_x, lambda_p, n_max)
    return shapes


@pytest.mark.parametrize(
    "lambda_x, lambda_p",
    [(0.9, 0.9), (-1.3, -1.3), (0.9, -0.9), (-1.3, 1.3), (0.0, 0.0)],
    ids=["xx", "xx-negative", "xy", "xy-negative", "uncoupled"],
)
def test_conserving_pairs_solve_only_their_sectors(monkeypatch, lambda_x, lambda_p):
    # lambda_x == lambda_p conserves n1 + n2 and lambda_x == -lambda_p
    # conserves n1 - n2: no solved block is wider than a sector's n_max + 1
    # states
    shapes = _eigensolve_widths(monkeypatch, 4.0, lambda_x, lambda_p, 16)
    assert shapes
    assert max(shape[-1] for shape in shapes) <= 17


def test_general_pair_keeps_the_four_parity_exchange_blocks(monkeypatch):
    shapes = _eigensolve_widths(monkeypatch, 4.0, 0.9, 0.3, 16)
    assert [shape[-2:] for shape in shapes] == [(81, 81), (64, 64), (72, 72), (72, 72)]


@pytest.mark.parametrize(
    "lambda_x, lambda_p", [(2.0, 2.0), (2.0, -2.0), (2.0, 0.5)], ids=["xx", "xy", "general"]
)
@pytest.mark.parametrize(
    "omega, n_max", [(2.0, 16), (1.5, 16), (4.0, 0), (4.0, -3)],
    ids=["omega-at-edge", "omega-below-edge", "n_max-0", "n_max-negative"],
)
def test_every_spectrum_path_refuses_the_same_inputs(lambda_x, lambda_p, omega, n_max):
    # the sector path (xx, xy) refuses what the four-block path refuses
    with pytest.raises(DomainError):
        truncated_oscillator_spectrum(omega, lambda_x, lambda_p, n_max)


@pytest.mark.parametrize(
    "omega, omega_prime, n_max",
    [(2.0, 1.0, 16), (1.5, 1.0, 16), (4.0, 2.0, 16), (4.0, 1.5, 16), (4.0, 3.0, 0),
     (4.0, 3.0, -3)],
    ids=["omega-at-edge", "omega-below-edge", "omega-prime-at-edge", "omega-prime-below-edge",
         "n_max-0", "n_max-negative"],
)
@pytest.mark.parametrize("model", ["xx", "xy"])
def test_transport_refuses_what_the_spectrum_refuses(model, omega, omega_prime, n_max):
    # lam = 2 puts the edge max(|lambda_x|, |lambda_p|) at 2 for both points
    with pytest.raises(DomainError):
        oscillator_cycle_heat_check(omega, omega_prime, 2.0, model, *BETAS, n_max)


@pytest.mark.parametrize("n_max", [1, 9, 16, 24])
@pytest.mark.parametrize(
    "model, lambda_x, lambda_p", [("xx", 0.9, 0.9), ("xy", 0.9, -0.9), ("general", 0.9, 0.3)]
)
def test_stack_size_is_the_largest_eigensolve_input_of_one_draw(
    monkeypatch, model, lambda_x, lambda_p, n_max
):
    # the chunk cap of `_grouped` divides _STACK_DOUBLES by this size
    shapes = _eigensolve_widths(monkeypatch, 4.0, lambda_x, lambda_p, n_max)
    assert _stack_size(model, n_max) == max(math.prod(shape) for shape in shapes)


def test_stacked_oscillator_checks_equal_per_draw_computation_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(12)
    # 40 draws per model: more than one chunk of the xx (6 draws), xy (13)
    # and general (9) spectrum stacks at cutoff 16
    n = 120
    omega = rng.uniform(2.0, 6.0, n)
    values = rng.uniform(-0.4, 0.4, (2, n)) * omega
    model = np.arange(n) % 3
    lx = values[0]
    lp = np.select([model == 0, model == 1], [lx, -lx], values[1])
    assert (lx[model == 1] > 0).any() and (lx[model == 1] < 0).any()
    beta = rng.uniform(2.5, 6.0, n) / np.minimum(*medium.oscillator_mode_frequencies(omega, lx, lp))
    # beta * w from 0.21 (the 200-level cap) up, so the ladders differ in depth
    w = rng.uniform(1.5, 8.0, n)
    beta_e = rng.uniform(0.21, 4.0, n) / w
    w_hot = rng.uniform(1.5, 8.0, n)
    w_cold = w_hot * rng.uniform(0.3, 1.4, n)
    beta_c = rng.uniform(0.5, 2.0, n)
    beta_h = beta_c / rng.uniform(1.5, 4.0, n)
    # cycle draws at mixed cutoffs, each deep enough for its baths (as in
    # `run_verification`); one xx draw at cutoff 29 fills a chunk
    cycle_n_max = np.array([13, 24, 20, 24, 13, 17, 29, 20, 24, 29, 24, 13])
    lam = values[0, :12] * 0.6
    x = 36.0 / (cycle_n_max - 4) / (omega[:12] - 0.4 * omega[:12])
    cycle_betas = (x, x / 0.7)

    widths = []
    solve = np.linalg.eigvalsh

    def spy(a):
        widths.append(a.shape)
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    spectrum, partition = _grouped(
        lambda *draws: oscillator_spectrum_check(*draws[:-1]), model, omega, lx, lp, beta,
        size=lambda branch: _stack_size(_MODELS[branch], 16),
    )
    heats = {
        name: _grouped(
            lambda *draws: oscillator_cycle_heat_check(*draws[:3], name, *draws[3:]),
            cycle_n_max, omega[:12], 0.7 * omega[:12], lam, *cycle_betas,
            size=lambda n_max: _stack_size(name, n_max),
        )
        for name in ("xx", "xy")
    }
    stacked = [
        spectrum, partition,
        thermal_energy_check(OSC, w, beta_e),
        mode_heat_check(OSC, w_hot, w_cold, beta_h, beta_c),
    ]
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    # the draws share their stacks (55 eigensolve calls here, against 288
    # one draw at a time), and no stack holds more than the cap
    assert len(widths) <= 55
    assert max(math.prod(shape) for shape in widths) <= oracle._STACK_DOUBLES

    per_draw = [
        *zip(*(oscillator_spectrum_check(*map(float, draw)) for draw in zip(omega, lx, lp, beta))),
        [thermal_energy_check(OSC, *map(float, draw)) for draw in zip(w, beta_e)],
        [mode_heat_check(OSC, *map(float, draw)) for draw in zip(w_hot, w_cold, beta_h, beta_c)],
    ]
    for got, expected in zip(stacked, per_draw):
        assert np.array_equal(got, expected)
    for name, got in heats.items():
        expected = [
            oscillator_cycle_heat_check(o, 0.7 * o, l, name, b_h, b_c, int(n_max))
            for o, l, b_h, b_c, n_max in zip(omega, lam, *cycle_betas, cycle_n_max)
        ]
        assert np.array_equal(got, expected)
        assert got.max() < 1e-10
    assert max(r.max() for r in stacked) < 1e-10


def test_verify_does_not_import_numpy_ma():
    # np.unique imports numpy.ma, which costs every verify process its import
    code = (
        "import sys\n"
        "from ottopair.oracle import run_verification\n"
        "run_verification('quick', 0)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(oracle.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
