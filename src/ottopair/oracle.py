"""Brute-force validators for every closed form in `medium` and `cycle`.

Nothing here uses the normal-mode formulas as input to its own spectra:
spin pairs are diagonalized exactly (the 4x4 matrix or its two 2x2
blocks), oscillator pairs on a truncated two-mode Fock space (whole, or
split into the blocks the xx and xy couplings conserve), and thermal
quantities come from explicit Boltzmann sums.  The closed forms are read
from the array kernels the CLI prints from: `medium.spin_mode_frequencies`,
`medium.oscillator_mode_frequencies` and `cycle.heats_arrays`.

The check functions return relative residuals.  The spin checks take
parameter arrays and return one residual per entry; the oscillator checks
take one draw, because their ladder depth varies per draw.
`run_verification` bundles them into the randomized suite behind the CLI
`verify` command.

Random-draw protocol (documented because the truncated diagonalization
must stay clear of the instability edge): bare frequencies in [2, 6],
oscillator couplings bounded by 0.4 * omega, spin exchange constants by
0.35 * min(omega, omega'), bath temperatures t_c in [0.5, 2] with
t_h/t_c in [1.5, 4].
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import cycle as _cycle
from . import medium as _medium
from .entanglement import spin_pair_hamiltonian_batch
from .errors import DomainError, NumericalError, UnknownModel
from .medium import BathPair, MediumKind, model_coupling

__all__ = [
    "exact_spin_spectrum",
    "truncated_oscillator_matrix",
    "truncated_oscillator_spectrum",
    "suggest_truncation",
    "spin_spectrum_check",
    "oscillator_spectrum_check",
    "thermal_energy_check",
    "mode_heat_check",
    "spin_cycle_heat_check",
    "oscillator_cycle_heat_check",
    "CheckResult",
    "VerificationReport",
    "run_verification",
]

TRUNCATION_CAP = 200

SPIN = MediumKind.SPIN
OSC = MediumKind.OSCILLATOR


def exact_spin_spectrum(omega, j_x, j_y) -> np.ndarray:
    """Sorted eigenvalues of the 4x4 coupled spin-pair Hamiltonian, along
    a last axis of length 4 for parameter arrays."""
    return np.sort(np.linalg.eigvalsh(spin_pair_hamiltonian_batch(omega, j_x, j_y)), axis=-1)


def _fock_entries(omega: float, lambda_x: float, lambda_p: float, n_max: int):
    """Entries of the coupled-oscillator Hamiltonian on the truncated
    two-mode Fock space, state |n1, n2> at index n1 (n_max + 1) + n2.

    Omega (c1+ c1 + c2+ c2 + 1) is the diagonal; the upper off-diagonal
    entries are the flip-flop term with strength (lambda_x + lambda_p)/2
    and the double-(de)excitation term with strength (lambda_x - lambda_p)/2,
    each mode cut at `n_max` excitations.  Returns (n1, n2, diagonal, rows,
    cols, values).
    """
    if not omega > max(abs(lambda_x), abs(lambda_p)):
        raise DomainError(
            f"need omega > max(|lambda_x|, |lambda_p|), got omega={omega}, "
            f"lambda_x={lambda_x}, lambda_p={lambda_p}"
        )
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    d = n_max + 1
    n1, n2 = np.divmod(np.arange(d * d), d)
    # flip-flop c1+ c2: |n1, n2> -> |n1+1, n2-1> with amplitude sqrt((n1+1) n2)
    flip = np.flatnonzero((n1 < n_max) & (n2 > 0))
    # pair creation c1+ c2+: |n1, n2> -> |n1+1, n2+1> with sqrt((n1+1)(n2+1))
    pair = np.flatnonzero((n1 < n_max) & (n2 < n_max))
    values = np.concatenate([
        0.5 * (lambda_x + lambda_p) * np.sqrt((n1[flip] + 1.0) * n2[flip]),
        0.5 * (lambda_x - lambda_p) * np.sqrt((n1[pair] + 1.0) * (n2[pair] + 1.0)),
    ])
    rows = np.concatenate([flip, pair])
    cols = np.concatenate([flip + d - 1, pair + d + 1])
    return n1, n2, omega * (n1 + n2 + 1.0), rows, cols, values


def _symmetric(diagonal, rows, cols, values) -> np.ndarray:
    """The symmetric matrix with `diagonal` and the off-diagonal entries
    h[rows, cols] = h[cols, rows] = values."""
    h = np.diag(diagonal)
    h[rows, cols] = h[cols, rows] = values
    return h


def truncated_oscillator_matrix(
    omega: float, lambda_x: float, lambda_p: float, n_max: int
) -> np.ndarray:
    """Coupled-oscillator Hamiltonian on the truncated two-mode Fock space.

    Assembles Omega (c1+ c1 + c2+ c2 + 1) plus the flip-flop term with
    strength (lambda_x + lambda_p)/2 and the double-(de)excitation term
    with strength (lambda_x - lambda_p)/2, each mode cut at `n_max`
    excitations.  Real symmetric, dimension (n_max + 1)^2.
    """
    _, _, diagonal, rows, cols, values = _fock_entries(omega, lambda_x, lambda_p, n_max)
    return _symmetric(diagonal, rows, cols, values)


def truncated_oscillator_spectrum(
    omega: float, lambda_x: float, lambda_p: float, n_max: int
) -> np.ndarray:
    """Sorted eigenvalues of `truncated_oscillator_matrix`."""
    return np.sort(
        np.linalg.eigvalsh(truncated_oscillator_matrix(omega, lambda_x, lambda_p, n_max))
    )


def _fock_blocks(omega: float, lam: float, model: str, n_max: int):
    """Levels of the xx or xy truncated Fock Hamiltonian, solved block by
    conserved block, and the multiplicity of each level.

    xx conserves N = n1 + n2 and xy conserves d = n1 - n2.  The xy blocks
    with d < 0 mirror those with d > 0, so only d >= 0 is solved and each
    d > 0 block counts twice.  Each block is an omega-diagonal plus lam
    times a matrix independent of omega, so the within-block order never
    changes as omega is driven: (block, rank) is the exact adiabatic label.
    """
    if model not in ("xx", "xy"):
        raise UnknownModel(f"sector transport covers 'xx' and 'xy', got {model!r}")
    n1, n2, diagonal, rows, cols, values = _fock_entries(
        omega, *model_coupling(model, lam), n_max
    )
    label = n1 + n2 if model == "xx" else n1 - n2
    # entries between blocks belong to the term that vanishes for this model
    inside = label[rows] == label[cols]
    rows, cols, values = rows[inside], cols[inside], values[inside]
    levels, mult = [], []
    for block in range(label.max() + 1):
        states = np.flatnonzero(label == block)
        here = label[rows] == block
        r, c = np.searchsorted(states, rows[here]), np.searchsorted(states, cols[here])
        levels.append(np.linalg.eigvalsh(_symmetric(diagonal[states], r, c, values[here])))
        mult.append(np.full(states.size, 2.0 if model == "xy" and block > 0 else 1.0))
    return np.concatenate(levels), np.concatenate(mult)


def suggest_truncation(
    beta: float, omega: float, tol: float = 1e-12, cap: int = TRUNCATION_CAP
) -> int:
    """Ladder depth for Boltzmann sums on a mode of frequency `omega`.

    Doubles the depth until successive partition-sum estimates agree to
    `tol` (relative).  At the cap the depth is accepted if the terms
    beyond it sum below `tol` (relative); otherwise NumericalError, which
    happens for very shallow beta*omega where the thermal tail never fits.
    """
    if not (beta > 0.0 and omega > 0.0):
        raise DomainError(f"need beta > 0 and omega > 0, got beta={beta}, omega={omega}")

    def z_at(depth):
        return np.exp(-beta * omega * np.arange(depth + 1)).sum()

    n = 8
    z_prev = z_at(n)
    while n < cap:
        n = min(2 * n, cap)
        z = z_at(n)
        if abs(z - z_prev) <= tol * z:
            return n
        z_prev = z
    # geometric tail: sum over k > cap of exp(-beta omega k)
    tail = np.exp(-beta * omega * (cap + 1)) / -np.expm1(-beta * omega)
    if tail <= tol * z_prev:
        return cap
    raise NumericalError(f"truncation cap {cap} exceeded for beta*omega = {beta * omega:.3g}")


# ---------------------------------------------------------------------------
# spectrum and partition checks


def spin_spectrum_check(omega, j_x, j_y, beta):
    """(spectrum, partition) residuals of the coupled spin pair from one
    exact 4x4 eigensolve; parameter arrays give one residual per entry.

    Spectrum: relative mismatch with the two-mode ladder {E0, E0+w_b,
    E0+w_a, E0+w_a+w_b} built from the closed-form mode frequencies (common
    offset taken from the brute ground state).  Partition:
    |Z_exact - Z_A Z_B| / Z_exact, with Z_exact summed over the exact
    spectrum and 2 cosh(beta w / 2) per mode; the exact spectrum sits at a
    constant offset 2*omega from the ladder-product form, which is divided
    out before comparison.
    """
    brute = exact_spin_spectrum(omega, j_x, j_y)
    w_a, w_b = _medium.spin_mode_frequencies(omega, j_x, j_y)
    e0 = brute[..., 0]
    predicted = np.sort(np.stack([e0, e0 + w_b, e0 + w_a, e0 + w_a + w_b], axis=-1), axis=-1)
    spectrum = np.abs(brute - predicted).max(axis=-1) / np.maximum(1.0, abs(brute[..., -1]))
    beta = np.asarray(beta)
    shifted = brute - 2.0 * np.asarray(omega)[..., None]
    z_exact = np.exp(-beta[..., None] * shifted).sum(axis=-1)
    z_closed = 4.0 * np.cosh(0.5 * beta * w_a) * np.cosh(0.5 * beta * w_b)
    return spectrum, abs(z_exact - z_closed) / z_exact


def oscillator_spectrum_check(
    omega: float,
    lambda_x: float,
    lambda_p: float,
    beta: float,
    n_max: int = 16,
    levels: int = 20,
) -> tuple[float, float]:
    """(spectrum, partition) residuals of the coupled oscillator pair from
    one truncated Fock eigensolve.

    Spectrum: relative mismatch between the lowest `levels` brute-force
    eigenvalues and the closed-form product spectrum
    n_a w_a + n_b w_b + (w_a + w_b)/2.  Partition: |Z_exact - Z_A Z_B| /
    Z_exact with exp(-beta w/2)/(1 - exp(-beta w)) per mode, which needs
    the Boltzmann tail beyond `n_max` to be negligible.
    """
    brute = truncated_oscillator_spectrum(omega, lambda_x, lambda_p, n_max)
    w_a, w_b = _medium.oscillator_mode_frequencies(omega, lambda_x, lambda_p)
    n = np.arange(levels + 1) + 0.5
    predicted = np.sort((n[:, None] * w_a + n[None, :] * w_b).ravel())[:levels]
    spectrum = np.abs(brute[:levels] - predicted).max() / max(1.0, abs(predicted[-1]))
    q_a, q_b = np.exp(-beta * w_a), np.exp(-beta * w_b)
    z_closed = np.sqrt(q_a) / (1.0 - q_a) * (np.sqrt(q_b) / (1.0 - q_b))
    z_exact = np.exp(-beta * brute).sum()
    return float(spectrum), float(abs(z_exact - z_closed) / z_exact)


# ---------------------------------------------------------------------------
# thermal checks


def _ladder(kind: MediumKind, omega, n_max: int | None) -> np.ndarray:
    """Single-mode levels (n + 1/2) omega along a new last axis: n up to
    `n_max` for oscillators, n in {0, 1} for spins."""
    n = np.arange(n_max + 1 if kind is OSC else 2) + 0.5
    return n * np.asarray(omega)[..., None]


def _boltzmann(beta, energies: np.ndarray, mult=1.0) -> np.ndarray:
    """Thermal populations over the last axis of `energies`, each level
    weighted by its multiplicity."""
    gaps = energies - energies.min(axis=-1, keepdims=True)
    p = mult * np.exp(-np.asarray(beta)[..., None] * gaps)
    return p / p.sum(axis=-1, keepdims=True)


def _transport(e_hot, e_cold, beta_h, beta_c, mult=1.0):
    """Brute-force (Q_h, Q_c): populations thermalized on the hot levels are
    carried level by level to the cold levels (the adiabatic strokes), and
    each heat is the energy change of one isochore."""
    p_hot = _boltzmann(beta_h, e_hot, mult)
    p_cold = _boltzmann(beta_c, e_cold, mult)
    return np.vecdot(e_hot, p_hot - p_cold), np.vecdot(e_cold, p_cold - p_hot)


def thermal_energy_check(kind: MediumKind, omega, beta, n_max: int | None = None):
    """Closed-form single-mode thermal energy vs a brute Boltzmann average.

    Oscillator closed form: (omega/2) coth(beta omega / 2) over the ladder
    (n + 1/2) omega, one draw per call.  Spin closed form:
    omega - (omega/2) tanh(beta omega/2) over the two levels omega/2 and
    3 omega/2; parameter arrays give one residual per entry.
    """
    if kind is OSC:
        if n_max is None:
            n_max = suggest_truncation(beta, omega)
        closed = 0.5 * omega * _cycle.coth(0.5 * beta * omega)
    else:
        closed = omega - 0.5 * omega * np.tanh(0.5 * beta * omega)
    energies = _ladder(kind, omega, n_max)
    brute = np.vecdot(energies, _boltzmann(beta, energies))
    return abs(brute - closed) / np.maximum(1.0, abs(closed))


def mode_heat_check(
    kind: MediumKind, omega_hot, omega_cold, beta_h, beta_c, n_max: int | None = None
):
    """Closed-form per-mode heats vs explicit population bookkeeping.

    The brute side thermalizes on the hot ladder, carries the populations
    over by excitation number (the adiabatic invariant), and reads the
    heats off the two Boltzmann sums; no coth/tanh identities involved.
    Oscillators take one draw per call; spin parameter arrays give one
    residual per entry.
    """
    if kind is OSC and n_max is None:
        n_max = max(
            suggest_truncation(beta_h, omega_hot), suggest_truncation(beta_c, omega_cold)
        )
    b_h, b_c = _transport(
        _ladder(kind, omega_hot, n_max), _ladder(kind, omega_cold, n_max), beta_h, beta_c
    )
    q_h, q_c, w = _cycle.heats_arrays(kind, omega_hot, omega_cold, beta_h, beta_c)
    worst = np.maximum(np.maximum(abs(q_h - b_h), abs(q_c - b_c)), abs(w - b_h - b_c))
    return worst / np.maximum(1.0, np.maximum(abs(q_h), abs(q_c)))


def _cycle_residual(kind: MediumKind, hot, cold, beta_h, beta_c, brute):
    """Mismatch of the brute composite (Q_h, Q_c) with the summed closed-form
    heats of modes A and B; `hot` and `cold` are the (w_a, w_b) mode
    frequencies at the two points."""
    (qa_h, qa_c, _), (qb_h, qb_c, _) = (
        _cycle.heats_arrays(kind, w_hot, w_cold, beta_h, beta_c)
        for w_hot, w_cold in zip(hot, cold)
    )
    q_h, q_c = qa_h + qb_h, qa_c + qb_c
    worst = np.maximum(abs(q_h - brute[0]), abs(q_c - brute[1]))
    return worst / np.maximum(1.0, np.maximum(abs(q_h), abs(q_c)))


def oscillator_cycle_heat_check(
    omega: float,
    omega_prime: float,
    lam: float,
    model: str,
    beta_h: float,
    beta_c: float,
    n_max: int = 24,
) -> float:
    """End-to-end heats of the coupled oscillator cycle from block-resolved
    brute force vs the sum of closed-form mode heats (xx and xy models).

    Thermal populations are computed over the full truncated spectrum and
    transported between the hot and cold points by (conserved block,
    within-block rank); the general coupling only conserves parity, so it
    is not covered here (the spectrum and per-mode checks are).
    """
    e_hot, mult = _fock_blocks(omega, lam, model, n_max)
    e_cold, _ = _fock_blocks(omega_prime, lam, model, n_max)
    coupling = model_coupling(model, lam)
    hot = _medium.oscillator_mode_frequencies(omega, *coupling)
    cold = _medium.oscillator_mode_frequencies(omega_prime, *coupling)
    brute = _transport(e_hot, e_cold, beta_h, beta_c, mult)
    return float(_cycle_residual(OSC, hot, cold, beta_h, beta_c, brute))


def spin_cycle_heat_check(omega, omega_prime, j_x, j_y, beta_h, beta_c):
    """End-to-end heats of the coupled spin cycle from the composite 4x4
    problem vs the sum of closed-form mode heats; parameter arrays give one
    residual per entry.

    The |ud>/|du> and |uu>/|dd> blocks are decoupled for every coupling,
    and within each block the two levels never cross as omega is driven,
    so ordering the levels block by block realizes the adiabatic
    correspondence exactly.  Populations are transported along that order;
    heats are energy differences of the resulting states.
    """
    h = spin_pair_hamiltonian_batch(np.stack([omega, omega_prime]), j_x, j_y)
    inner = np.linalg.eigvalsh(h[..., 1:3, 1:3])
    outer = np.linalg.eigvalsh(h[..., ::3, ::3])
    e_hot, e_cold = np.concatenate([inner, outer], axis=-1)
    hot = _medium.spin_mode_frequencies(omega, j_x, j_y)
    cold = _medium.spin_mode_frequencies(omega_prime, j_x, j_y)
    brute = _transport(e_hot, e_cold, beta_h, beta_c)
    return _cycle_residual(SPIN, hot, cold, beta_h, beta_c, brute)


# ---------------------------------------------------------------------------
# randomized verification suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    draws: int
    max_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.threshold


@dataclass
class VerificationReport:
    level: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_table(self) -> str:
        lines = [f"{'check':<28} {'draws':>6} {'max residual':>14} {'threshold':>10}  result"]
        for c in self.checks:
            lines.append(
                f"{c.name:<28} {c.draws:>6} {c.max_residual:>14.3e} "
                f"{c.threshold:>10.0e}  {'pass' if c.passed else 'FAIL'}"
            )
        lines.append(f"elapsed: {self.elapsed:.2f} s")
        return "\n".join(lines)


SPIN_RESIDUAL = 1e-12
OSC_RESIDUAL = 1e-10

_MODELS = ("xx", "xy", "general")


def _draw_baths(rng) -> BathPair:
    t_c = rng.uniform(0.5, 2.0)
    return BathPair(t_h=t_c * rng.uniform(1.5, 4.0), t_c=t_c)


def _draw_coupling(rng, model: str, cap: float) -> tuple[float, float]:
    """Coupling pair of `model` with each drawn value uniform on [-cap, cap]."""
    values = [rng.uniform(-cap, cap) for _ in range(2 if model == "general" else 1)]
    return model_coupling(model, *values)


def run_verification(level: str = "quick", seed: int = 0) -> VerificationReport:
    """Randomized oracle suite over all media and coupling models.

    `quick` uses ~100 draws per check, `full` 1000 per medium/model.
    Thresholds: 1e-12 for the exactly diagonalizable spin pair, 1e-10 for
    the truncated oscillator pair.
    """
    if level not in ("quick", "full"):
        raise UnknownModel(f"verification level must be 'quick' or 'full', got {level!r}")
    per_model = 34 if level == "quick" else 1000
    draws = per_model * len(_MODELS)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    report = VerificationReport(level=level, seed=seed)

    def add(name, threshold, residuals):
        report.checks.append(
            CheckResult(name, len(residuals), float(np.max(residuals)), threshold)
        )

    # spin checks, all exact: draw every parameter, then one stacked call per check
    def spin_draw(i):
        omega = rng.uniform(2.0, 6.0)
        omega_prime = omega * rng.uniform(0.4, 1.4)
        # the cap keeps l_plus below the mode spacing at both points
        j_x, j_y = _draw_coupling(rng, _MODELS[i % 3], 0.35 * min(omega, omega_prime))
        baths = _draw_baths(rng)
        beta_z = rng.uniform(0.2, 2.0)
        beta_e = rng.uniform(0.05, 2.0)
        return omega, omega_prime, j_x, j_y, baths.beta_h, baths.beta_c, beta_z, beta_e

    columns = map(np.array, zip(*(spin_draw(i) for i in range(draws))))
    omega, omega_prime, j_x, j_y, beta_h, beta_c, beta_z, beta_e = columns
    spectrum, partition = spin_spectrum_check(omega, j_x, j_y, beta_z)
    add("spin spectrum", SPIN_RESIDUAL, spectrum)
    add("spin partition", SPIN_RESIDUAL, partition)
    add("spin thermal energy", SPIN_RESIDUAL, thermal_energy_check(SPIN, omega, beta_e))
    w_a = _medium.spin_mode_frequencies(omega, j_x, j_y)[0]
    w_a_prime = _medium.spin_mode_frequencies(omega_prime, j_x, j_y)[0]
    add("spin mode heats", SPIN_RESIDUAL, mode_heat_check(SPIN, w_a, w_a_prime, beta_h, beta_c))
    add(
        "spin cycle heats",
        SPIN_RESIDUAL,
        spin_cycle_heat_check(omega, omega_prime, j_x, j_y, beta_h, beta_c),
    )

    # oscillator checks: truncated Fock brute force; one eigensolve per draw
    # feeds both the low-lying spectrum check and the partition sum (depth 16
    # keeps the Boltzmann tail below 1e-13 for beta * w_min >= 2.5)
    res_spec, res_part, res_energy, res_heat = [], [], [], []
    for i in range(draws):
        omega = rng.uniform(2.0, 6.0)
        lx, lp = _draw_coupling(rng, _MODELS[i % 3], 0.4 * omega)
        w_min = min(_medium.oscillator_mode_frequencies(omega, lx, lp))
        x = rng.uniform(2.5, 6.0)
        spectrum, partition = oscillator_spectrum_check(omega, lx, lp, x / w_min)
        res_spec.append(spectrum)
        res_part.append(partition)
        w = rng.uniform(1.5, 8.0)
        res_energy.append(thermal_energy_check(OSC, w, rng.uniform(0.25, 4.0) / w))
        baths = _draw_baths(rng)
        w_hot = rng.uniform(1.5, 8.0)
        w_cold = w_hot * rng.uniform(0.3, 1.4)
        res_heat.append(mode_heat_check(OSC, w_hot, w_cold, baths.beta_h, baths.beta_c))
    add("oscillator spectrum", OSC_RESIDUAL, res_spec)
    add("oscillator partition", OSC_RESIDUAL, res_part)
    add("oscillator thermal energy", OSC_RESIDUAL, res_energy)
    add("oscillator mode heats", OSC_RESIDUAL, res_heat)

    # end-to-end composite heats via block-resolved transport (xx/xy only;
    # the general coupling conserves nothing finer than parity)
    res_cycle = []
    for i in range(2 * per_model):
        model = ("xx", "xy")[i % 2]
        omega = rng.uniform(2.0, 6.0)
        omega_prime = omega * rng.uniform(0.55, 0.95)
        lam = rng.uniform(-0.4, 0.4) * omega_prime
        coupling = model_coupling(model, lam)
        x_c = rng.uniform(2.5, 4.0)
        t_c = min(_medium.oscillator_mode_frequencies(omega_prime, *coupling)) / x_c
        baths = BathPair(t_h=t_c * rng.uniform(1.5, 2.0), t_c=t_c)
        x_h = baths.beta_h * min(_medium.oscillator_mode_frequencies(omega, *coupling))
        n_max = int(np.ceil(34.0 / min(x_h, x_c))) + 4
        res_cycle.append(
            oscillator_cycle_heat_check(
                omega, omega_prime, lam, model, baths.beta_h, baths.beta_c, n_max
            )
        )
    add("oscillator cycle heats", OSC_RESIDUAL, res_cycle)

    report.elapsed = time.perf_counter() - t0
    return report
