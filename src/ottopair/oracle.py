"""Brute-force validators for every closed form in `medium` and `cycle`.

Nothing here uses the normal-mode formulas as input to its own spectra:
spin pairs are diagonalized exactly (4x4), oscillator pairs on a truncated
two-mode Fock space, and thermal quantities come from explicit Boltzmann
sums.  The check functions return relative residuals; `run_verification`
bundles them into the randomized suite behind the CLI `verify` command.

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
from .entanglement import spin_pair_hamiltonian
from .errors import DomainError, NumericalError, UnknownModel
from .medium import BathPair, Coupling, MediumKind, OscillatorCoupling, SpinCoupling, model_coupling

__all__ = [
    "TruncatedFockSpec",
    "exact_spin_spectrum",
    "truncated_oscillator_matrix",
    "truncated_oscillator_spectrum",
    "suggest_truncation",
    "spin_spectrum_check",
    "oscillator_spectrum_check",
    "partition_factorization_check",
    "thermal_energy_check",
    "mode_heat_check",
    "spin_cycle_heat_check",
    "oscillator_cycle_heat_check",
    "CheckResult",
    "VerificationReport",
    "run_verification",
]

TRUNCATION_CAP = 200


@dataclass(frozen=True)
class TruncatedFockSpec:
    """Per-mode excitation cutoff for the two-mode Fock space."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) ** 2


def exact_spin_spectrum(omega: float, j_x: float, j_y: float) -> np.ndarray:
    """Sorted eigenvalues of the 4x4 coupled spin-pair Hamiltonian."""
    return np.sort(np.linalg.eigvalsh(spin_pair_hamiltonian(omega, j_x, j_y)))


def truncated_oscillator_matrix(
    omega: float, lambda_x: float, lambda_p: float, n_max: int
) -> np.ndarray:
    """Coupled-oscillator Hamiltonian on the truncated two-mode Fock space.

    Assembles Omega (c1+ c1 + c2+ c2 + 1) plus the flip-flop term with
    strength (lambda_x + lambda_p)/2 and the double-(de)excitation term
    with strength (lambda_x - lambda_p)/2, each mode cut at `n_max`
    excitations.  Real symmetric, dimension (n_max + 1)^2.
    """
    if not omega > max(abs(lambda_x), abs(lambda_p)):
        raise DomainError(
            f"need omega > max(|lambda_x|, |lambda_p|), got omega={omega}, "
            f"lambda_x={lambda_x}, lambda_p={lambda_p}"
        )
    spec = TruncatedFockSpec(n_max)
    d = n_max + 1
    n1, n2 = np.divmod(np.arange(spec.dimension), d)
    h = np.zeros((spec.dimension, spec.dimension))
    h[np.arange(spec.dimension), np.arange(spec.dimension)] = omega * (n1 + n2 + 1.0)
    # flip-flop c1+ c2: |n1, n2> -> |n1+1, n2-1| with amplitude sqrt((n1+1) n2)
    mask = (n1 < n_max) & (n2 > 0)
    i = np.arange(spec.dimension)[mask]
    j = i + d - 1
    h[i, j] += 0.5 * (lambda_x + lambda_p) * np.sqrt((n1[mask] + 1.0) * n2[mask])
    # pair creation c1+ c2+: |n1, n2> -> |n1+1, n2+1| with sqrt((n1+1)(n2+1))
    mask = (n1 < n_max) & (n2 < n_max)
    i = np.arange(spec.dimension)[mask]
    j = i + d + 1
    h[i, j] += 0.5 * (lambda_x - lambda_p) * np.sqrt((n1[mask] + 1.0) * (n2[mask] + 1.0))
    return h + np.triu(h, 1).T


def truncated_oscillator_spectrum(
    omega: float, lambda_x: float, lambda_p: float, n_max: int
) -> np.ndarray:
    """Sorted eigenvalues of `truncated_oscillator_matrix`."""
    return np.sort(
        np.linalg.eigvalsh(truncated_oscillator_matrix(omega, lambda_x, lambda_p, n_max))
    )


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
# spectrum checks


def spin_spectrum_check(omega: float, j_x: float, j_y: float) -> float:
    """Relative mismatch between the exact 4x4 spectrum and the two-mode
    ladder spectrum {E0, E0+w_b, E0+w_a, E0+w_a+w_b} built from the
    closed-form mode frequencies (common offset taken from the brute
    ground state)."""
    brute = exact_spin_spectrum(omega, j_x, j_y)
    modes = _medium.spin_normal_modes(omega, j_x, j_y)
    e0 = brute[0]
    predicted = np.sort(
        [e0, e0 + modes.omega_b, e0 + modes.omega_a, e0 + modes.omega_a + modes.omega_b]
    )
    return float(np.abs(brute - predicted).max() / max(1.0, abs(brute[-1])))


def _low_lying_residual(brute: np.ndarray, modes, levels: int) -> float:
    n = np.arange(levels + 1)
    grid = (
        (n[:, None] + 0.5) * modes.omega_a + (n[None, :] + 0.5) * modes.omega_b
    ).ravel()
    predicted = np.sort(grid)[:levels]
    return float(np.abs(brute[:levels] - predicted).max() / max(1.0, abs(predicted[-1])))


def oscillator_spectrum_check(
    omega: float, lambda_x: float, lambda_p: float, n_max: int = 16, levels: int = 20
) -> float:
    """Relative mismatch between the lowest `levels` brute-force eigenvalues
    and the closed-form product spectrum n_a w_a + n_b w_b + (w_a + w_b)/2."""
    brute = truncated_oscillator_spectrum(omega, lambda_x, lambda_p, n_max)
    modes = _medium.oscillator_normal_modes(omega, lambda_x, lambda_p)
    return _low_lying_residual(brute, modes, levels)


# ---------------------------------------------------------------------------
# thermal checks


def _ladder_weights(beta: float, energies: np.ndarray) -> np.ndarray:
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


def partition_factorization_check(
    omega: float, coupling: Coupling, beta: float, n_max: int | None = None
) -> float:
    """|Z_exact - Z_A * Z_B| / Z_exact for a coupled pair.

    Z_exact sums exp(-beta E) over the brute-force spectrum.  The
    single-mode closed forms are exp(-beta w/2)/(1 - exp(-beta w)) for
    oscillator modes and 2 cosh(beta w / 2) for spin modes; the spin
    spectrum sits at a constant offset 2*omega from the ladder-product
    form, which is divided out before comparison.
    """
    if isinstance(coupling, SpinCoupling):
        brute = exact_spin_spectrum(omega, coupling.j_x, coupling.j_y)
        z_exact = np.exp(-beta * (brute - 2.0 * omega)).sum()
        modes = _medium.spin_normal_modes(omega, coupling.j_x, coupling.j_y)
        z_closed = 4.0 * np.cosh(0.5 * beta * modes.omega_a) * np.cosh(
            0.5 * beta * modes.omega_b
        )
        return float(abs(z_exact - z_closed) / z_exact)
    if isinstance(coupling, OscillatorCoupling):
        modes = _medium.oscillator_normal_modes(omega, coupling.lambda_x, coupling.lambda_p)
        if n_max is None:
            n_max = max(
                suggest_truncation(beta, modes.omega_a),
                suggest_truncation(beta, modes.omega_b),
            )
        brute = truncated_oscillator_spectrum(
            omega, coupling.lambda_x, coupling.lambda_p, n_max
        )
        return _osc_partition_residual(brute, modes, beta)
    raise UnknownModel(f"unknown coupling type: {type(coupling).__name__}")


def _osc_partition_residual(brute: np.ndarray, modes, beta: float) -> float:
    z_exact = np.exp(-beta * brute).sum()

    def z_mode(w):
        q = np.exp(-beta * w)
        return np.sqrt(q) / (1.0 - q)

    z_closed = z_mode(modes.omega_a) * z_mode(modes.omega_b)
    return float(abs(z_exact - z_closed) / z_exact)


def thermal_energy_check(
    kind: MediumKind, omega: float, beta: float, n_max: int | None = None
) -> float:
    """Closed-form single-mode thermal energy vs a brute Boltzmann average.

    Oscillator closed form: (omega/2) coth(beta omega / 2) over the ladder
    (n + 1/2) omega.  Spin closed form: omega - (omega/2) tanh(beta omega/2)
    over the two levels omega/2 and 3 omega/2.
    """
    if kind is MediumKind.OSCILLATOR:
        if n_max is None:
            n_max = suggest_truncation(beta, omega)
        energies = (np.arange(n_max + 1) + 0.5) * omega
        closed = 0.5 * omega * _cycle.coth(0.5 * beta * omega)
    else:
        energies = np.array([0.5 * omega, 1.5 * omega])
        closed = omega - 0.5 * omega * np.tanh(0.5 * beta * omega)
    brute = float(energies @ _ladder_weights(beta, energies))
    return abs(brute - closed) / max(1.0, abs(closed))


def mode_heat_check(
    kind: MediumKind,
    omega_hot: float,
    omega_cold: float,
    baths: BathPair,
    n_max: int | None = None,
) -> float:
    """Closed-form per-mode heats vs explicit population bookkeeping.

    The brute side thermalizes on the hot ladder, carries the populations
    over by excitation number (the adiabatic invariant), and reads the
    heats off the two Boltzmann sums; no coth/tanh identities involved.
    """
    if kind is MediumKind.OSCILLATOR:
        if n_max is None:
            n_max = max(
                suggest_truncation(baths.beta_h, omega_hot),
                suggest_truncation(baths.beta_c, omega_cold),
            )
        n = np.arange(n_max + 1) + 0.5
    else:
        n = np.array([0.5, 1.5])
    e_hot = n * omega_hot
    e_cold = n * omega_cold
    p_hot = _ladder_weights(baths.beta_h, e_hot)
    p_cold = _ladder_weights(baths.beta_c, e_cold)
    q_h_brute = float(e_hot @ (p_hot - p_cold))
    q_c_brute = float(e_cold @ (p_cold - p_hot))
    q_h, q_c, w = _cycle.mode_heats(kind, omega_hot, omega_cold, baths)
    scale = max(1.0, abs(q_h), abs(q_c))
    return max(
        abs(q_h - q_h_brute), abs(q_c - q_c_brute), abs(w - q_h_brute - q_c_brute)
    ) / scale


def _xx_sector_levels(omega: float, lam: float, n_max: int) -> list[np.ndarray]:
    """Truncated spectrum of the XX-coupled oscillator pair, grouped by the
    conserved total excitation number N.

    Each sector block is omega (N+1) I + lam T with T independent of
    omega, so the within-sector ordering never changes as omega is driven:
    (sector, rank) is the exact adiabatic label.
    """
    sectors = []
    for total in range(2 * n_max + 1):
        lo = max(0, total - n_max)
        hi = min(total, n_max)
        n1 = np.arange(lo, hi + 1)
        size = n1.size
        block = np.diag(np.full(size, omega * (total + 1.0)))
        if size > 1:
            hop = lam * np.sqrt((n1[:-1] + 1.0) * (total - n1[:-1]))
            block += np.diag(hop, 1) + np.diag(hop, -1)
        sectors.append(np.sort(np.linalg.eigvalsh(block)))
    return sectors


def _xy_sector_levels(omega: float, lam: float, n_max: int) -> list[np.ndarray]:
    """Same idea for the XY coupling, grouped by the conserved excitation
    difference d = n1 - n2 >= 0 (each d > 0 sector appears twice; callers
    duplicate them).  Within a sector the exact levels are proportional to
    the total mode number, so the ordering is again drive-invariant."""
    sectors = []
    for diff in range(n_max + 1):
        n2 = np.arange(0, n_max - diff + 1)
        size = n2.size
        block = np.diag(omega * (2.0 * n2 + diff + 1.0))
        if size > 1:
            hop = lam * np.sqrt((n2[:-1] + diff + 1.0) * (n2[:-1] + 1.0))
            block += np.diag(hop, 1) + np.diag(hop, -1)
        sectors.append(np.sort(np.linalg.eigvalsh(block)))
    return sectors


def oscillator_cycle_heat_check(
    omega: float,
    omega_prime: float,
    lam: float,
    model: str,
    baths: BathPair,
    n_max: int = 24,
) -> float:
    """End-to-end heats of the coupled oscillator cycle from sector-resolved
    brute force vs the sum of closed-form mode heats (xx and xy models).

    Thermal populations are computed over the full truncated spectrum and
    transported between the hot and cold points by (conserved sector,
    within-sector rank); the general coupling only conserves parity, so it
    is not covered here (the spectrum and per-mode checks are).
    """
    if model == "xx":
        hot = _xx_sector_levels(omega, lam, n_max)
        cold = _xx_sector_levels(omega_prime, lam, n_max)
        mult = [1] * len(hot)
    elif model == "xy":
        hot = _xy_sector_levels(omega, lam, n_max)
        cold = _xy_sector_levels(omega_prime, lam, n_max)
        mult = [1] + [2] * (len(hot) - 1)
    else:
        raise UnknownModel(f"sector transport covers 'xx' and 'xy', got {model!r}")
    e_hot = np.concatenate(hot)
    e_cold = np.concatenate(cold)
    weights = np.concatenate([np.full(s.size, m, dtype=float) for s, m in zip(hot, mult)])

    def populate(beta, energies):
        p = weights * np.exp(-beta * (energies - energies.min()))
        return p / p.sum()

    p_hot = populate(baths.beta_h, e_hot)
    p_cold = populate(baths.beta_c, e_cold)
    q_h_brute = float(e_hot @ (p_hot - p_cold))
    q_c_brute = float(e_cold @ (p_cold - p_hot))

    pairs = _medium.mode_pairs_for_cycle(
        _medium.standard_cycle(
            MediumKind.OSCILLATOR, model, omega, omega_prime, lam, baths
        )
    )
    qa = _cycle.mode_heats(MediumKind.OSCILLATOR, pairs.a[0], pairs.a[1], baths)
    qb = _cycle.mode_heats(MediumKind.OSCILLATOR, pairs.b[0], pairs.b[1], baths)
    q_h = qa[0] + qb[0]
    q_c = qa[1] + qb[1]
    scale = max(1.0, abs(q_h), abs(q_c))
    return max(abs(q_h - q_h_brute), abs(q_c - q_c_brute)) / scale


def _block_levels(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of the spin-pair Hamiltonian ordered by its invariant
    block structure: (inner low, inner high, outer low, outer high).

    The |ud>/|du> and |uu>/|dd> blocks are decoupled for every coupling,
    and within each block the two levels never cross as omega is driven,
    so this ordering realizes the adiabatic correspondence exactly.
    """
    inner = np.linalg.eigvalsh(h[1:3, 1:3])
    outer = np.linalg.eigvalsh(h[np.ix_([0, 3], [0, 3])])
    return np.concatenate([inner, outer])


def spin_cycle_heat_check(
    omega: float, omega_prime: float, j_x: float, j_y: float, baths: BathPair
) -> float:
    """End-to-end heats of the coupled spin cycle from the composite 4x4
    problem vs the sum of closed-form mode heats.

    Populations are transported between the hot and cold spectra along
    the invariant block structure (the adiabatic mapping); heats are
    energy differences of the resulting states.
    """
    e_hot = _block_levels(spin_pair_hamiltonian(omega, j_x, j_y))
    e_cold = _block_levels(spin_pair_hamiltonian(omega_prime, j_x, j_y))
    p_hot = _ladder_weights(baths.beta_h, e_hot)
    p_cold = _ladder_weights(baths.beta_c, e_cold)
    q_h_brute = float(e_hot @ (p_hot - p_cold))
    q_c_brute = float(e_cold @ (p_cold - p_hot))

    pairs = _medium.mode_pairs_for_cycle(
        _medium.standard_cycle(
            MediumKind.SPIN, "general", omega, omega_prime, (j_x, j_y), baths
        )
    )
    qa = _cycle.mode_heats(MediumKind.SPIN, pairs.a[0], pairs.a[1], baths)
    qb = _cycle.mode_heats(MediumKind.SPIN, pairs.b[0], pairs.b[1], baths)
    q_h = qa[0] + qb[0]
    q_c = qa[1] + qb[1]
    scale = max(1.0, abs(q_h), abs(q_c))
    return max(abs(q_h - q_h_brute), abs(q_c - q_c_brute)) / scale


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

    # spin checks: all exact
    res_spec, res_part, res_energy, res_heat, res_cycle = [], [], [], [], []
    for i in range(draws):
        model = _MODELS[i % 3]
        omega = rng.uniform(2.0, 6.0)
        omega_prime = omega * rng.uniform(0.4, 1.4)
        # the cap keeps l_plus below the mode spacing at both points
        j_x, j_y = _draw_coupling(rng, model, 0.35 * min(omega, omega_prime))
        baths = _draw_baths(rng)
        res_spec.append(spin_spectrum_check(omega, j_x, j_y))
        res_part.append(
            partition_factorization_check(
                omega, SpinCoupling(j_x, j_y), rng.uniform(0.2, 2.0)
            )
        )
        res_energy.append(
            thermal_energy_check(MediumKind.SPIN, omega, rng.uniform(0.05, 2.0))
        )
        modes = _medium.spin_normal_modes(omega, j_x, j_y)
        modes_prime = _medium.spin_normal_modes(omega_prime, j_x, j_y)
        res_heat.append(
            mode_heat_check(MediumKind.SPIN, modes.omega_a, modes_prime.omega_a, baths)
        )
        res_cycle.append(spin_cycle_heat_check(omega, omega_prime, j_x, j_y, baths))
    add("spin spectrum", SPIN_RESIDUAL, res_spec)
    add("spin partition", SPIN_RESIDUAL, res_part)
    add("spin thermal energy", SPIN_RESIDUAL, res_energy)
    add("spin mode heats", SPIN_RESIDUAL, res_heat)
    add("spin cycle heats", SPIN_RESIDUAL, res_cycle)

    # oscillator checks: truncated Fock brute force; one eigensolve per draw
    # feeds both the low-lying spectrum check and the partition sum (depth 16
    # keeps the Boltzmann tail below 1e-13 for beta * w_min >= 2.5)
    res_spec, res_part, res_energy, res_heat = [], [], [], []
    for i in range(draws):
        model = _MODELS[i % 3]
        omega = rng.uniform(2.0, 6.0)
        lx, lp = _draw_coupling(rng, model, 0.4 * omega)
        modes = _medium.oscillator_normal_modes(omega, lx, lp)
        brute = truncated_oscillator_spectrum(omega, lx, lp, n_max=16)
        res_spec.append(_low_lying_residual(brute, modes, 20))
        w_min = min(modes.omega_a, modes.omega_b)
        x = rng.uniform(2.5, 6.0)
        res_part.append(_osc_partition_residual(brute, modes, x / w_min))
        w = rng.uniform(1.5, 8.0)
        res_energy.append(
            thermal_energy_check(MediumKind.OSCILLATOR, w, rng.uniform(0.25, 4.0) / w)
        )
        baths = _draw_baths(rng)
        w_hot = rng.uniform(1.5, 8.0)
        res_heat.append(
            mode_heat_check(
                MediumKind.OSCILLATOR, w_hot, w_hot * rng.uniform(0.3, 1.4), baths
            )
        )
    add("oscillator spectrum", OSC_RESIDUAL, res_spec)
    add("oscillator partition", OSC_RESIDUAL, res_part)
    add("oscillator thermal energy", OSC_RESIDUAL, res_energy)
    add("oscillator mode heats", OSC_RESIDUAL, res_heat)

    # end-to-end composite heats via sector-resolved transport (xx/xy only;
    # the general coupling conserves nothing finer than parity)
    res_cycle = []
    for i in range(2 * per_model):
        model = ("xx", "xy")[i % 2]
        omega = rng.uniform(2.0, 6.0)
        omega_prime = omega * rng.uniform(0.55, 0.95)
        lam = rng.uniform(-0.4, 0.4) * omega_prime
        modes_cold = _medium.oscillator_normal_modes(omega_prime, *model_coupling(model, lam))
        x_c = rng.uniform(2.5, 4.0)
        t_c = min(modes_cold.omega_a, modes_cold.omega_b) / x_c
        baths = BathPair(t_h=t_c * rng.uniform(1.5, 2.0), t_c=t_c)
        modes_hot = _medium.oscillator_normal_modes(omega, *model_coupling(model, lam))
        x_h = baths.beta_h * min(modes_hot.omega_a, modes_hot.omega_b)
        n_max = int(np.ceil(34.0 / min(x_h, x_c))) + 4
        res_cycle.append(
            oscillator_cycle_heat_check(omega, omega_prime, lam, model, baths, n_max)
        )
    add("oscillator cycle heats", OSC_RESIDUAL, res_cycle)

    report.elapsed = time.perf_counter() - t0
    return report
