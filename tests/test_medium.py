import math

import numpy as np
import pytest

from ottopair.errors import DomainError, UnknownModel
from ottopair.medium import (
    BathPair,
    MediumKind,
    mode_pairs_for_cycle,
    model_coupling,
    oscillator_normal_modes,
    oscillator_mode_frequencies,
    spin_mode_frequencies,
    spin_normal_modes,
    standard_cycle,
)
from ottopair.oracle import exact_spin_spectrum, truncated_oscillator_spectrum

OSC = MediumKind.OSCILLATOR
SPIN = MediumKind.SPIN


def test_oscillator_normal_modes_xx_point():
    assert oscillator_normal_modes(4.0, 1.0, 1.0) == (5.0, 3.0)


def test_oscillator_normal_modes_zero_coupling():
    w_a, w_b = oscillator_normal_modes(2.7, 0.0, 0.0)
    assert w_a == w_b == 2.7


def test_oscillator_normal_modes_xy_degenerate():
    w_a, w_b = oscillator_normal_modes(4.0, 1.0, -1.0)
    assert w_a == pytest.approx(math.sqrt(15.0), rel=1e-15)
    assert w_b == pytest.approx(math.sqrt(15.0), rel=1e-15)


def test_oscillator_normal_modes_rejects_unstable():
    with pytest.raises(DomainError):
        oscillator_normal_modes(3.0, 3.5, -3.5)
    with pytest.raises(DomainError):
        oscillator_normal_modes(3.0, 0.5, 3.0)  # equality is unstable too
    with pytest.raises(DomainError):
        oscillator_normal_modes(1e-300, 0.0, 0.0)  # frequencies underflow to 0


def test_spin_normal_modes_examples():
    assert spin_normal_modes(4.0, 1.0, 1.0) == (5.0, 3.0)
    w_a, w_b = spin_normal_modes(4.0, 1.0, -1.0)
    assert w_a == pytest.approx(math.sqrt(17.0), rel=1e-15)
    assert w_b == pytest.approx(math.sqrt(17.0), rel=1e-15)
    w_a, w_b = spin_normal_modes(2.2, 0.0, 0.0)
    assert w_a == w_b == 2.2


def test_spin_normal_modes_rejects_nonpositive_spacing():
    with pytest.raises(DomainError):
        spin_normal_modes(1.0, 3.0, 3.0)
    with pytest.raises(DomainError):
        spin_normal_modes(-1.0, 0.1, 0.1)


def test_spin_general_formula_matches_exact_spectrum():
    # the general (l_plus, l_minus) form is only trusted because the exact
    # 4x4 spectrum certifies it: gaps must reproduce both mode frequencies
    rng = np.random.default_rng(11)
    for _ in range(300):
        omega = rng.uniform(0.5, 8.0)
        j_x, j_y = rng.uniform(-2.0, 2.0, 2)
        s = math.hypot(omega, 0.5 * (j_x - j_y))
        if s - abs(0.5 * (j_x + j_y)) <= 1e-6:
            continue
        w_a, w_b = spin_normal_modes(omega, j_x, j_y)
        e = exact_spin_spectrum(omega, j_x, j_y)
        gaps = np.sort([e[1] - e[0], e[2] - e[0], e[3] - e[0]])
        want = np.sort([w_b, w_a, w_a + w_b])
        assert np.abs(gaps - want).max() < 1e-12 * max(1.0, e[-1])


def test_oscillator_modes_match_truncated_fock_spectrum():
    rng = np.random.default_rng(12)
    for _ in range(20):
        omega = rng.uniform(2.0, 6.0)
        lx, lp = rng.uniform(-0.4, 0.4, 2) * omega
        w_a, w_b = oscillator_normal_modes(omega, lx, lp)
        brute = truncated_oscillator_spectrum(omega, lx, lp, n_max=16)[:12]
        n = np.arange(13)
        ladder = np.sort(((n[:, None] + 0.5) * w_a + (n[None, :] + 0.5) * w_b).ravel())[:12]
        assert np.abs(brute - ladder).max() < 1e-8


def test_mode_pairs_for_cycle_tracks_branches():
    baths = BathPair(2.0, 1.0)
    a, b = mode_pairs_for_cycle(standard_cycle(OSC, "xx", 4.0, 3.0, 1.0, baths))
    assert a == (5.0, 4.0)
    assert b == (3.0, 2.0)

    a, b = mode_pairs_for_cycle(standard_cycle(SPIN, "xy", 4.0, 3.0, 1.0, baths))
    assert a[0] == pytest.approx(math.sqrt(17.0), rel=1e-15)
    assert a[1] == pytest.approx(math.sqrt(10.0), rel=1e-15)
    assert a == b

    a, b = mode_pairs_for_cycle(standard_cycle(SPIN, "xx", 4.0, 3.0, 0.0, baths))
    assert a == b == (4.0, 3.0)


def test_branch_order_with_nonnegative_couplings():
    rng = np.random.default_rng(4)
    for _ in range(200):
        omega = rng.uniform(1.0, 8.0)
        lx, lp = rng.uniform(0.0, 0.9, 2) * omega
        w_a, w_b = oscillator_normal_modes(omega, lx, lp)
        assert w_a >= w_b
        j_x, j_y = rng.uniform(0.0, 0.9, 2) * omega  # keeps l_plus < s
        w_a, w_b = spin_normal_modes(omega, j_x, j_y)
        assert w_a >= w_b


def test_zero_coupling_continuity():
    for omega in (0.5, 3.0, 7.7):
        w_a, _ = oscillator_normal_modes(omega, 1e-9, -1e-9)
        assert abs(w_a - omega) < 1e-8
        w_a, _ = spin_normal_modes(omega, 1e-9, 1e-9)
        assert abs(w_a - omega) < 1e-8


def test_bath_pair_validation():
    baths = BathPair(2.0, 1.0)
    assert baths.beta_h == 0.5 and baths.beta_c == 1.0
    assert baths.carnot_efficiency == 0.5
    assert baths.carnot_cop == 1.0
    inf, nan = math.inf, math.nan
    for t_h, t_c in ((1.0, 1.0), (1.0, 2.0), (2.0, -1.0), (0.0, 0.0), (inf, 1.0), (nan, 1.0)):
        with pytest.raises(DomainError):
            BathPair(t_h, t_c)


def test_array_kernels_flag_invalid_points_as_nan():
    w_a, w_b = oscillator_mode_frequencies(np.array([4.0, 3.0]), 3.5, -3.5)
    assert np.isnan(w_a[1]) and np.isnan(w_b[1])
    assert w_a[0] == pytest.approx(math.sqrt(0.5 * 7.5))
    w_a, w_b = spin_mode_frequencies(np.array([4.0, 1.0]), 3.0, 3.0)
    assert w_b[1] < 0 or np.isnan(w_b[1])
    assert np.isnan(w_b[1])
    assert w_a[0] == 7.0 and w_b[0] == 1.0
    # a 0-d call, as the pattern search makes, of the xx and general forms
    for j_y, want in ((1.0, (5.0, 3.0)), (-1.0, (math.hypot(4.0, 1.0),) * 2)):
        w_a, w_b = spin_mode_frequencies(4.0, 1.0, j_y)
        assert w_a.shape == w_b.shape == () and (w_a, w_b) == want
    # a broadcast call mixing xx (|omega|) and general couplings, as the grid
    # slices make; every entry is the closed form with math.hypot, or nan
    omega = np.array([[4.0], [0.5], [-1.0], [5e-324]])
    j_x = np.array([1.0, 1.5, -0.0, 3.0, 0.2])
    j_y = np.array([[1.0, -0.5, 0.0, 3.0, -0.2]])
    w_a, w_b = spin_mode_frequencies(omega, j_x, j_y)
    assert w_a.shape == w_b.shape == (4, 5)
    for i, j in np.ndindex(w_a.shape):
        o, l_plus, l_minus = omega[i, 0], 0.5 * (j_x[j] + j_y[0, j]), 0.5 * (j_x[j] - j_y[0, j])
        s = math.hypot(o, l_minus)
        want = (s + l_plus, s - l_plus) if o > 0.0 and s > abs(l_plus) else (math.nan,) * 2
        assert np.array_equal([w_a[i, j], w_b[i, j]], want, equal_nan=True), (i, j)
    assert np.isnan(w_a).any() and not np.isnan(w_a).all()


def test_model_coupling_maps_named_models():
    assert model_coupling("xx", 0.3) == (0.3, 0.3)
    assert model_coupling("xy", 0.3) == (0.3, -0.3)
    assert model_coupling("general", 0.3, -0.1) == (0.3, -0.1)
    lam = np.array([0.0, 0.5, -1.5])
    for model, want in (("xx", lam), ("xy", -lam)):
        cx, cy = model_coupling(model, lam)
        assert np.array_equal(cx, lam) and np.array_equal(cy, want)
    cx, cy = model_coupling("general", lam, 2 * lam)
    assert np.array_equal(cx, lam) and np.array_equal(cy, 2 * lam)
    for model in ("bogus", "x"):
        with pytest.raises(UnknownModel):
            model_coupling(model, 0.3)
