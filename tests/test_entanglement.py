import math
import warnings

import numpy as np
import pytest

from ottopair.entanglement import (
    SPIN_FLIP,
    concurrence,
    concurrence_batch,
    spin_pair_hamiltonian,
    spin_pair_hamiltonian_batch,
    thermal_state,
    thermal_state_batch,
    validate_density_matrix,
    xx_thermal_concurrence,
)
from ottopair.errors import DomainError, NumericalError
from ottopair.medium import BathPair

BATHS = BathPair(2.0, 1.0)


def _random_state(rng, rank=4):
    # random mixture of pure states: Hermitian, trace one, PSD
    psi = rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))
    weights = rng.uniform(0.1, 1.0, rank)
    rho = sum(
        w * np.outer(v, v.conj()) / (v.conj() @ v) for w, v in zip(weights, psi)
    )
    return rho / np.trace(rho).real


def _random_unitary(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_hamiltonian_matrix_elements():
    h = spin_pair_hamiltonian(4.0, 0.0, 0.0)
    assert np.allclose(h, np.diag([12.0, 8.0, 8.0, 4.0]))
    h = spin_pair_hamiltonian(4.0, 1.0, 1.0)
    assert h[1, 2] == h[2, 1] == 1.0 and h[0, 3] == 0.0
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [4.0, 7.0, 9.0, 12.0])
    h = spin_pair_hamiltonian(4.0, 1.0, -1.0)
    assert h[0, 3] == h[3, 0] == 1.0 and h[1, 2] == 0.0
    root = math.sqrt(17.0)
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [8.0 - root, 8.0, 8.0, 8.0 + root])
    with pytest.raises(DomainError):
        spin_pair_hamiltonian(0.0, 1.0, 1.0)


def test_hamiltonian_batch_matches_scalar():
    rng = np.random.default_rng(0)
    omega = rng.uniform(1.0, 6.0, 10)
    j_x = rng.uniform(-2.0, 2.0, 10)
    j_y = rng.uniform(-2.0, 2.0, 10)
    batch = spin_pair_hamiltonian_batch(omega, j_x, j_y)
    for i in range(10):
        w, lp, lm = omega[i], 0.5 * (j_x[i] + j_y[i]), 0.5 * (j_x[i] - j_y[i])
        want = [[3 * w, 0, 0, lm], [0, 2 * w, lp, 0], [0, lp, 2 * w, 0], [lm, 0, 0, w]]
        assert (batch[i] == np.array(want)).all()
        assert (spin_pair_hamiltonian(w, j_x[i], j_y[i]) == batch[i]).all()


def test_thermal_state_limits():
    h = spin_pair_hamiltonian(4.0, 1.0, 1.0)
    hot = thermal_state(h, 1e-9)
    assert np.allclose(hot, np.eye(4) / 4.0, atol=1e-8)
    cold = thermal_state(h, 200.0)
    evals, vecs = np.linalg.eigh(h)
    ground = np.outer(vecs[:, 0], vecs[:, 0].conj())
    assert np.allclose(cold, ground, atol=1e-12)
    assert np.allclose(thermal_state(h, math.inf), ground, atol=1e-15)
    with pytest.raises(DomainError):
        thermal_state(h, 0.0)
    # 3 * omega overflows the |uu> level
    with pytest.raises(DomainError):
        thermal_state(spin_pair_hamiltonian(1e308, 1.0, 1.0), 1.0)


def test_thermal_state_is_valid_and_commutes():
    rng = np.random.default_rng(1)
    for _ in range(50):
        h = spin_pair_hamiltonian(
            rng.uniform(0.5, 6.0), rng.uniform(-2, 2), rng.uniform(-2, 2)
        )
        rho = thermal_state(h, rng.uniform(0.05, 20.0))
        validate_density_matrix(rho)
        comm = h @ rho - rho @ h
        assert np.abs(comm).max() < 1e-12 * np.abs(h).max()


def test_thermal_state_batch_matches_scalar():
    rng = np.random.default_rng(2)
    omega = rng.uniform(1.0, 6.0, 8)
    lam = rng.uniform(-1.0, 1.0, 8)
    beta = rng.uniform(0.1, 5.0, 8)
    batch = thermal_state_batch(spin_pair_hamiltonian_batch(omega, lam, lam), beta)
    for i in range(8):
        h = spin_pair_hamiltonian(omega[i], lam[i], lam[i])
        evals, vecs = np.linalg.eigh(h)
        weights = np.exp(-beta[i] * (evals - evals.min()))
        ref = (vecs * (weights / weights.sum())) @ vecs.T  # spectral Gibbs state
        assert np.abs(batch[i] - ref).max() < 1e-13
        assert np.abs(thermal_state(h, beta[i]) - ref).max() < 1e-13


def test_concurrence_known_states():
    assert concurrence(np.eye(4) / 4.0) == 0.0
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert concurrence(np.outer(singlet, singlet)) == pytest.approx(1.0, abs=1e-12)
    triplet = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert concurrence(np.outer(triplet, triplet)) == pytest.approx(1.0, abs=1e-12)
    product = np.diag([0.25, 0.25, 0.25, 0.25])
    assert concurrence(product) == 0.0
    # Werner state: entangled only above visibility 1/3
    singlet_proj = np.outer(singlet, singlet)
    for p, want in ((0.2, 0.0), (0.8, (3 * 0.8 - 1) / 2)):
        rho = p * singlet_proj + (1 - p) * np.eye(4) / 4.0
        assert concurrence(rho) == pytest.approx(want, abs=1e-12)


def test_concurrence_high_temperature_thermal_state_unentangled():
    rho = thermal_state(spin_pair_hamiltonian(4.0, 1.0, 1.0), 1e-6)
    assert concurrence(rho) == 0.0


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(40):
        rho = _random_state(rng)
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-10)


def test_concurrence_range_and_batch_consistency():
    rng = np.random.default_rng(4)
    rhos = np.stack([_random_state(rng) for _ in range(200)])
    vals = concurrence_batch(rhos)
    assert ((0.0 <= vals) & (vals <= 1.0)).all()
    for i in range(0, 200, 17):
        assert vals[i] == pytest.approx(concurrence(rhos[i]), abs=1e-12)


def test_concurrence_matches_x_state_closed_form():
    # XX/XY/general thermal states are X-shaped, where the concurrence is
    # 2 max(0, |r23| - sqrt(r11 r44), |r14| - sqrt(r22 r33)) (Wang, PRA 64,
    # 012313), and the XX one has it in closed form; Wootters through
    # sqrt(rho) loses ~1e-8 for nearly pure states
    rng = np.random.default_rng(7)
    n = 3000
    omega = rng.uniform(0.2, 6.0, n)
    j_x = rng.uniform(-4.0, 4.0, n)
    model = np.arange(n) % 3  # xx, xy, general
    j_y = np.where(model == 0, j_x, np.where(model == 1, -j_x, rng.uniform(-4.0, 4.0, n)))
    beta = rng.uniform(0.02, 20.0, n)
    rhos = thermal_state_batch(spin_pair_hamiltonian_batch(omega, j_x, j_y), beta)
    r = rhos.real
    d = np.sqrt(r[:, [0, 1], [0, 1]] * r[:, [3, 2], [3, 2]])
    entries = 2.0 * np.maximum(0.0, np.maximum(np.abs(r[:, 1, 2]) - d[:, 0],
                                               np.abs(r[:, 0, 3]) - d[:, 1]))
    want = np.where(model == 0, xx_thermal_concurrence(omega, j_x, beta), entries)
    assert (want > 0.5).any() and (want == 0.0).any()
    assert np.abs(concurrence_batch(rhos) - want).max() < 1e-7


def _xx_kernel_draws(n=100_000, seed=8):
    """(omega, lam, beta) draws over warm, cold (beta max(omega, |lam|) up
    to 1e3), zero-coupling, negative-coupling, near-threshold
    (sinh(beta |lam|) within 1e-9 of 1) and zero-temperature states."""
    rng = np.random.default_rng(seed)
    group = np.arange(n) % 5
    omega = rng.uniform(0.05, 10.0, n)
    lam = rng.uniform(-10.0, 10.0, n)
    lam[rng.random(n) < 0.1] = 0.0
    beta = rng.uniform(0.01, 5.0, n) / np.maximum(omega, np.abs(lam))
    cold = group == 1
    beta[cold] = rng.uniform(5.0, 1e3, cold.sum()) / np.maximum(omega, np.abs(lam))[cold]
    edge = group == 2
    lam[edge] = np.sign(lam[edge] - 0.5) * np.arcsinh(1.0) / beta[edge] * (
        1.0 + rng.uniform(-1e-9, 1e-9, edge.sum())
    )
    beta[group == 3] = math.inf
    return omega, lam, beta


def test_xx_thermal_concurrence_matches_wootters():
    omega, lam, beta = _xx_kernel_draws()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = xx_thermal_concurrence(omega, lam, beta)
    wootters = concurrence_batch(
        thermal_state_batch(spin_pair_hamiltonian_batch(omega, lam, lam), beta)
    )
    assert (closed > 0.99).any() and (closed == 0.0).any()
    assert np.abs(closed - wootters).max() < 1e-7


def test_xx_thermal_concurrence_matches_longdouble_evaluation():
    omega, lam, beta = _xx_kernel_draws()
    finite = np.isfinite(beta)
    one = np.longdouble(1.0)
    a = beta[finite].astype(np.longdouble) * np.abs(omega[finite].astype(np.longdouble))
    b = beta[finite].astype(np.longdouble) * np.abs(lam[finite].astype(np.longdouble))
    want = np.maximum(0.0, np.sinh(b) - one) / (np.cosh(a) + np.cosh(b))
    closed = xx_thermal_concurrence(omega, lam, beta)
    assert np.abs(closed[finite] - want).max() < 1e-15
    # beta = inf: the ground state, a product state unless |lam| > omega
    assert (~finite).sum() == 20_000
    assert np.array_equal(closed[~finite], np.where(np.abs(lam) > omega, 1.0, 0.0)[~finite])


def test_xx_thermal_concurrence_limits():
    # the degenerate ground level at |lam| = omega and beta = inf is the
    # equal mixture of the singlet and |dd>; at beta = 0 the state is I/4
    got = xx_thermal_concurrence([2.0, 2.0, 2.0, 0.0, 2.0], [2.0, -2.0, 0.0, 0.0, 3.0],
                                 [math.inf, math.inf, math.inf, math.inf, 0.0])
    assert got.tolist() == [0.5, 0.5, 0.0, 0.0, 0.0]
    # sinh(beta lam) = 1 is the threshold, and the scaled terms never overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert xx_thermal_concurrence(1e308, 1e308, 1e-300) == 0.5
        assert xx_thermal_concurrence(3.0, 1e3, 1.0) == 1.0
    root = math.asinh(1.0)
    assert xx_thermal_concurrence(0.1, root * (1.0 - 1e-12), 1.0) == 0.0
    assert 0.0 < xx_thermal_concurrence(0.1, root * (1.0 + 1e-12), 1.0) < 1e-11


def test_concurrence_rejects_broken_state():
    broken = np.diag([1.2, -0.2, 0.0, 0.0])
    with pytest.raises(NumericalError):
        concurrence(broken)


def test_validate_density_matrix_errors():
    with pytest.raises(DomainError):
        validate_density_matrix(np.eye(3) / 3.0)
    bad_trace = np.eye(4)
    with pytest.raises(DomainError):
        validate_density_matrix(bad_trace)
    non_hermitian = np.eye(4) / 4.0 + 0.01 * np.triu(np.ones((4, 4)), 1)
    with pytest.raises(DomainError):
        validate_density_matrix(non_hermitian)
    negative = np.diag([1.1, -0.1, 0.0, 0.0])
    with pytest.raises(DomainError):
        validate_density_matrix(negative)


def test_concurrence_of_product_state_at_zero_coupling():
    for omega, beta in ((4.0, BATHS.beta_h), (3.0, BATHS.beta_c)):
        assert concurrence(thermal_state(spin_pair_hamiltonian(omega, 0.0, 0.0), beta)) == 0.0


def test_concurrence_strong_coupling_cold_limit():
    # with lambda >> omega the ground state is the singlet, so cold thermal
    # states approach a Bell state and the concurrence goes to 1
    cold = BathPair(0.05, 0.02)
    for omega, beta in ((1.0, cold.beta_h), (0.9, cold.beta_c)):
        assert concurrence(thermal_state(spin_pair_hamiltonian(omega, 3.0, 3.0), beta)) > 0.95


def test_concurrence_batch_of_empty_stack():
    empty = np.zeros((0, 4, 4))
    assert concurrence_batch(empty).shape == (0,)
    states = thermal_state_batch(spin_pair_hamiltonian_batch([], [], []), [])
    assert states.shape == (0, 4, 4)
    assert concurrence_batch(states).shape == (0,)


def test_thermal_concurrences_unit_interval_bulk():
    # 10^4-draw property sweep over the batched pipeline
    rng = np.random.default_rng(6)
    n = 10000
    omega = rng.uniform(0.2, 10.0, n)
    j_x = rng.uniform(-4.0, 4.0, n)
    j_y = rng.uniform(-4.0, 4.0, n)
    beta = rng.uniform(0.02, 20.0, n)
    rhos = thermal_state_batch(spin_pair_hamiltonian_batch(omega, j_x, j_y), beta)
    vals = concurrence_batch(rhos)
    assert vals.shape == (n,)
    assert ((0.0 <= vals) & (vals <= 1.0)).all()


def test_spin_flip_matrix_is_sigma_y_tensor_square():
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    assert np.allclose(SPIN_FLIP, np.kron(sy, sy).real)
    assert np.allclose(np.kron(sy, sy).imag, 0.0)
