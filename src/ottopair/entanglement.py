"""Thermal states of the coupled spin pair and their concurrence.

Basis order is fixed as {|uu>, |ud>, |du>, |dd>} throughout; the spin-flip
matrix sigma_y x sigma_y depends on it.  Wootters' concurrence
(`concurrence_batch`) takes any two-qubit state; the XX pair's Gibbs state
also has it in closed form (`xx_thermal_concurrence`), which the sampler
prints.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "spin_pair_hamiltonian",
    "spin_pair_hamiltonian_batch",
    "thermal_state",
    "thermal_state_batch",
    "validate_density_matrix",
    "concurrence",
    "concurrence_batch",
    "xx_thermal_concurrence",
]

# sigma_y x sigma_y in the product basis; real because the i's cancel.
SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)

_CLAMP = 1e-12  # eigenvalues in (-_CLAMP, 0) are rounding noise -> 0
_BROKEN = 1e-10  # anything below -_BROKEN signals a broken state


def spin_pair_hamiltonian(omega: float, j_x: float, j_y: float) -> np.ndarray:
    """4x4 coupled spin-pair Hamiltonian in the ladder convention.

    Diagonal (3w, 2w, 2w, w); flip-flop entries (j_x + j_y)/2 between
    |ud> and |du>; double-flip entries (j_x - j_y)/2 between |uu> and
    |dd>.  Real symmetric.  A scalar call of
    `spin_pair_hamiltonian_batch`.
    """
    if not omega > 0.0:
        raise DomainError(f"bare frequency must be positive, got {omega}")
    return spin_pair_hamiltonian_batch(omega, j_x, j_y)


def spin_pair_hamiltonian_batch(omega, j_x, j_y) -> np.ndarray:
    """Stacked (..., 4, 4) Hamiltonians over broadcast parameter arrays."""
    omega, j_x, j_y = np.broadcast_arrays(
        np.asarray(omega, dtype=float), np.asarray(j_x, dtype=float), np.asarray(j_y, dtype=float)
    )
    h = np.zeros(omega.shape + (4, 4))
    with np.errstate(over="ignore"):
        h[..., 0, 0] = 3.0 * omega
        h[..., 1, 1] = 2.0 * omega
        h[..., 2, 2] = 2.0 * omega
        h[..., 1, 2] = h[..., 2, 1] = 0.5 * (j_x + j_y)
        h[..., 0, 3] = h[..., 3, 0] = 0.5 * (j_x - j_y)
    h[..., 3, 3] = omega
    return h


def thermal_state(h: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs state exp(-beta H)/Z via spectral decomposition.

    The spectrum is shifted by its minimum before exponentiation, so cold
    (large beta) states never overflow.  A length-1 call of
    `thermal_state_batch`.
    """
    if not beta > 0.0:
        raise DomainError(f"inverse temperature must be positive, got {beta}")
    return thermal_state_batch(np.asarray(h)[None], beta)[0]


def thermal_state_batch(h: np.ndarray, beta) -> np.ndarray:
    """Batched Gibbs states for stacked Hamiltonians (n, d, d); DomainError
    if an entry is not finite (e.g. a frequency near the float limit)."""
    if not np.isfinite(h).all():
        raise DomainError("Hamiltonian has a non-finite entry")
    beta = np.asarray(beta, dtype=float).reshape(-1, 1)
    evals, vecs = np.linalg.eigh(h)
    gap = evals - evals.min(axis=1, keepdims=True)
    # the ground level keeps weight 1 also at beta = inf (a t_c whose
    # inverse overflows), where -beta * 0 would be nan
    with np.errstate(invalid="ignore"):
        weights = np.where(gap > 0.0, np.exp(-beta * gap), 1.0)
    weights /= weights.sum(axis=1, keepdims=True)
    return np.einsum("nik,nk,njk->nij", vecs, weights, vecs.conj())


def validate_density_matrix(rho: np.ndarray, tol: float = 1e-12) -> None:
    """Check Hermiticity, unit trace and positivity; DomainError on failure."""
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise DomainError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise DomainError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise DomainError("density matrix does not have unit trace")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min() < -tol:
        raise DomainError("density matrix has a negative eigenvalue")


def _sqrt_psd(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    w = np.where(evals > 0.0, evals, np.where(evals > -_CLAMP, 0.0, np.nan))
    if np.isnan(w).any():
        raise NumericalError("state has an eigenvalue below the clamp threshold")
    root = np.sqrt(w)
    return (vecs * root[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit state; a length-1 call of
    `concurrence_batch`."""
    return float(concurrence_batch(np.asarray(rho)[None])[0])


def concurrence_batch(rho: np.ndarray) -> np.ndarray:
    """Wootters concurrences of stacked two-qubit states (n, 4, 4).

    Computes the eigenvalues of R = rho (sy x sy) rho* (sy x sy) through
    the Hermitian equivalent sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho)
    (R itself is not Hermitian) and returns
    max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) with the l_i in
    descending order.

    Raises NumericalError if an eigenvalue falls below -1e-10, which
    signals a broken (non-positive) input state.  An empty stack gives an
    empty array.
    """
    rho = np.asarray(rho)
    herm = (rho + np.swapaxes(rho.conj(), -1, -2)) / 2.0
    evals, vecs = np.linalg.eigh(herm)
    sqrt_rho = _sqrt_psd(evals, vecs)
    rho_tilde = SPIN_FLIP @ rho.conj() @ SPIN_FLIP
    m = sqrt_rho @ rho_tilde @ sqrt_rho
    lam = np.linalg.eigvalsh((m + np.swapaxes(m.conj(), -1, -2)) / 2.0)
    if (lam < -_BROKEN).any():
        raise NumericalError(
            f"spin-flipped spectrum has eigenvalue {lam.min():.3e} < -{_BROKEN:g}"
        )
    lam = np.sqrt(np.clip(lam, 0.0, None))
    return np.maximum(0.0, 2.0 * lam[..., -1] - lam.sum(axis=-1))


def xx_thermal_concurrence(omega, lam, beta) -> np.ndarray:
    """Concurrence of the Gibbs state of the XX pair (j_x = j_y = lam) at
    inverse temperature beta >= 0 (inf included), elementwise over
    broadcast arrays.

    The state is X-shaped: with a = beta |omega| and b = beta |lam|,
    C = max(0, sinh b - 1) / (cosh a + cosh b) (Wang, PRA 64, 012313
    (2001); Yu & Eberly, QIC 7, 459 (2007)).  Numerator and denominator are
    scaled by 2 exp(-m), m = max(a, b), so no term overflows: each becomes
    exp(-beta g) for a gap g, namely max - |omega|, max - |lam|,
    max + |omega|, max + |lam| and max of the two frequencies.  A gap
    that is zero weighs 1, also at beta = inf, where the state is the
    ground state.  The denominator is then at least 1.  The terms are
    formed in np.longdouble, whose extra bits (11 on x86) absorb the
    roundings of the exponentials and of the numerator's cancellation, so
    the float result is the closed form correctly rounded, except within
    about 1e-19 of a rounding midpoint.
    """
    omega, lam = (np.abs(np.asarray(x, dtype=np.longdouble)) for x in (omega, lam))
    beta = np.asarray(beta, dtype=np.longdouble)
    top = np.maximum(omega, lam)
    # beta * 0 is nan at beta = inf, and a gap that overflows weighs 0
    with np.errstate(invalid="ignore", over="ignore"):
        up_a, up_b, down_a, down_b, ground = (
            np.where(gap > 0.0, np.exp(-beta * gap), 1.0)
            for gap in (top - omega, top - lam, top + omega, top + lam, top)
        )
    c = np.maximum(0.0, up_b - down_b - 2.0 * ground) / (up_a + down_a + up_b + down_b)
    return c.astype(float)
