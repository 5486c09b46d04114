import math

import numpy as np
import pytest

from ottopair.errors import DomainError, NumericalError, UnknownModel
from ottopair.medium import BathPair, MediumKind, OscillatorCoupling, SpinCoupling
from ottopair.oracle import (
    TruncatedFockSpec,
    exact_spin_spectrum,
    mode_heat_check,
    oscillator_cycle_heat_check,
    oscillator_spectrum_check,
    partition_factorization_check,
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
        assert spin_spectrum_check(omega, j_x, j_y) < 1e-12


def test_truncated_matrix_uncoupled_is_diagonal():
    h = truncated_oscillator_matrix(3.0, 0.0, 0.0, n_max=3)
    n = np.arange(4)
    expected = 3.0 * (n[:, None] + n[None, :] + 1.0).ravel()
    assert np.allclose(h, np.diag(expected))
    assert TruncatedFockSpec(3).dimension == 16
    with pytest.raises(DomainError):
        truncated_oscillator_matrix(1.0, 2.0, 0.0, n_max=3)
    with pytest.raises(DomainError):
        TruncatedFockSpec(0)


def test_truncated_matrix_is_symmetric():
    h = truncated_oscillator_matrix(2.5, 0.7, -0.3, n_max=6)
    assert np.abs(h - h.T).max() == 0.0


def test_truncated_spectrum_matches_ladder_within_1e8():
    # low-lying levels reproduce n_a w_a + n_b w_b + (w_a + w_b)/2
    for lx, lp in ((1.0, 1.0), (1.0, -1.0), (0.9, 0.3)):
        res = oscillator_spectrum_check(4.0, lx, lp, n_max=16, levels=20)
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
        coupling = SpinCoupling(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        beta = rng.uniform(0.05, 3.0)
        assert partition_factorization_check(omega, coupling, beta) < 1e-12


def test_partition_factorization_oscillator_deep_truncation():
    # beta * omega_min >= 1 with n_max = 60
    res = partition_factorization_check(4.0, OscillatorCoupling(1.0, 1.0), 0.4, n_max=60)
    assert res < 1e-10


def test_partition_factorization_cold_limit():
    # ground-state dominance: residual collapses as beta grows
    res = partition_factorization_check(4.0, OscillatorCoupling(0.8, 0.2), 6.0, n_max=12)
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
    assert mode_heat_check(OSC, 4.0, 3.0, BATHS) < 1e-12
    assert mode_heat_check(SPIN, 4.0, 3.0, BATHS) < 1e-13
    # refrigerator-side frequencies too
    assert mode_heat_check(OSC, 5.0, 2.0, BATHS) < 1e-12


def test_spin_cycle_heat_check_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        omega = rng.uniform(1.0, 6.0)
        omega_prime = omega * rng.uniform(0.3, 1.5)
        j_x, j_y = rng.uniform(-1.5, 1.5, 2)
        t_c = rng.uniform(0.4, 2.0)
        baths = BathPair(t_c * rng.uniform(1.3, 3.5), t_c)
        assert spin_cycle_heat_check(omega, omega_prime, j_x, j_y, baths) < 1e-12


def test_oscillator_cycle_heat_check():
    assert oscillator_cycle_heat_check(4.0, 3.0, 1.0, "xx", BATHS, n_max=40) < 1e-12
    assert oscillator_cycle_heat_check(4.0, 3.0, 1.0, "xy", BATHS, n_max=40) < 1e-12
    assert oscillator_cycle_heat_check(5.0, 2.0, 0.5, "xx", BATHS, n_max=60) < 1e-12
    with pytest.raises(UnknownModel):
        oscillator_cycle_heat_check(4.0, 3.0, 1.0, "general", BATHS)


def test_run_verification_quick_passes():
    report = run_verification("quick", seed=123)
    assert report.ok
    assert len(report.checks) == 10
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
