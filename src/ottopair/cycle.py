"""Per-mode and global Otto-cycle thermodynamics.

Sign convention: every heat is "into the system", so the closed-cycle
energy balance is simply ``W = Q_h + Q_c`` with ``W`` the work done *by*
the system.  A mode (or the total system) is an

* engine       when ``W > eps`` and ``Q_h > eps``       (figure of merit eta = W/Q_h),
* refrigerator when ``Q_c > eps`` and ``W < -eps``      (figure of merit zeta = Q_c/|W|),
* dissipator   otherwise (no figure of merit; points within eps of a
  regime boundary carry ``at_boundary=True``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateBaths,
    DomainError,
    InconsistentEnergy,
    RegimeMismatch,
    UnknownModel,
)
from .medium import (
    BathPair,
    CycleSpec,
    MediumKind,
    mode_pairs_for_cycle,
    oscillator_mode_frequencies,
    spin_mode_frequencies,
)

__all__ = [
    "Regime",
    "REGIMES",
    "ModeCycleResult",
    "CycleResult",
    "CycleColumns",
    "coth",
    "mode_heats",
    "classify_regime",
    "regime_codes",
    "evaluate_cycle",
    "evaluate_cycles",
    "figure_of_merit_bounds",
    "critical_coupling",
    "perturbative_prediction",
    "xx_efficiency_difference",
    "xx_cop_difference",
    "heats_arrays",
]


class Regime(enum.Enum):
    ENGINE = "engine"
    REFRIGERATOR = "refrigerator"
    DISSIPATOR = "dissipator"


# regime codes of the array classifier index this tuple
REGIMES = (Regime.ENGINE, Regime.REFRIGERATOR, Regime.DISSIPATOR)
_ENGINE, _FRIDGE, _DISSIPATOR = range(3)


@dataclass(frozen=True)
class ModeCycleResult:
    """One decoupled mode over a full cycle."""

    mode_id: str
    omega_hot: float
    omega_cold: float
    q_h: float
    q_c: float
    w: float
    regime: Regime
    at_boundary: bool
    figure_of_merit: Optional[float]


@dataclass(frozen=True)
class CycleResult:
    """Both modes plus the global (total-system) quantities.

    ``weight`` is the convex weight of mode A in the global figure of
    merit: the heat fraction Q_A/(Q_A+Q_B) when both modes are engines,
    the work fraction |W_A|/|W_A+W_B| when both are refrigerators.
    ``bounds`` is the (min, max) per-mode figure-of-merit interval and is
    attached only when both modes share the operating regime.
    """

    mode_a: ModeCycleResult
    mode_b: ModeCycleResult
    q_h_total: float
    q_c_total: float
    w_total: float
    regime: Regime
    at_boundary: bool
    global_figure: Optional[float]
    weight: Optional[float]
    bounds: Optional[tuple[float, float]]

    @property
    def modes(self) -> tuple[ModeCycleResult, ModeCycleResult]:
        return (self.mode_a, self.mode_b)


@dataclass(frozen=True)
class CycleColumns:
    """`evaluate_cycles` output for n cycles, one array per quantity.

    Per-mode columns (``omega_hot`` to ``figure_of_merit``) have shape
    (2, n), row 0 for mode A and row 1 for mode B; ``bounds`` is (2, n)
    with the lower bound in row 0; every other column has shape (n,).
    Regimes are int8 codes into `REGIMES`.  A figure of merit is present
    only where its regime is engine or refrigerator, and ``weight`` and
    ``bounds`` only where both modes share that regime; absent entries
    are nan.  Rows with ``valid`` False are the cycles `evaluate_cycle`
    refuses with DomainError; only ``valid`` is meaningful there.
    """

    valid: np.ndarray
    omega_hot: np.ndarray
    omega_cold: np.ndarray
    q_h: np.ndarray
    q_c: np.ndarray
    w: np.ndarray
    regime: np.ndarray
    at_boundary: np.ndarray
    figure_of_merit: np.ndarray
    q_h_total: np.ndarray
    q_c_total: np.ndarray
    w_total: np.ndarray
    global_regime: np.ndarray
    global_at_boundary: np.ndarray
    global_figure: np.ndarray
    weight: np.ndarray
    bounds: np.ndarray

    @property
    def operating(self) -> np.ndarray:
        """(2, n) mask of valid modes that carry a figure of merit."""
        return self.valid & (self.regime != _DISSIPATOR)

    @property
    def global_operating(self) -> np.ndarray:
        """Mask of valid rows that carry a global figure of merit."""
        return self.valid & (self.global_regime != _DISSIPATOR)

    @property
    def shared(self) -> np.ndarray:
        """Mask of valid rows whose modes share a regime (weight, bounds)."""
        return self.operating[0] & (self.regime[0] == self.regime[1])


# ---------------------------------------------------------------------------
# stable special functions


_COTH_SERIES_CUTOFF = 1e-8


def coth(x):
    """Numerically stable coth, array-friendly.

    Uses 1/tanh for ordinary arguments and the series 1/x + x/3 below
    1e-8 where 1/tanh loses accuracy.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(np.abs(x) < _COTH_SERIES_CUTOFF, 1.0 / x + x / 3.0, 1.0 / np.tanh(x))
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# heats and regimes


def heats_arrays(kind: MediumKind, omega_hot, omega_cold, beta_h, beta_c):
    """Vectorized per-mode heats; no validation, broadcasts all arguments.

    Returns (q_h, q_c, w) with q_h = (omega_hot/2) * bracket and
    q_c = -(omega_cold/2) * bracket, where the bracket is
    coth(beta_h*omega_hot/2) - coth(beta_c*omega_cold/2) for oscillators
    and tanh(beta_c*omega_cold/2) - tanh(beta_h*omega_hot/2) for spins.
    """
    omega_hot = np.asarray(omega_hot, dtype=float)
    omega_cold = np.asarray(omega_cold, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        if kind is MediumKind.OSCILLATOR:
            bracket = coth(0.5 * beta_h * omega_hot) - coth(0.5 * beta_c * omega_cold)
        else:
            bracket = np.tanh(0.5 * beta_c * omega_cold) - np.tanh(0.5 * beta_h * omega_hot)
        q_h = 0.5 * omega_hot * bracket
        q_c = -0.5 * omega_cold * bracket
        return q_h, q_c, q_h + q_c


def mode_heats(
    kind: MediumKind, omega_hot: float, omega_cold: float, baths: BathPair
) -> tuple[float, float, float]:
    """Signed heats and work for a single decoupled mode.

    Parameters
    ----------
    kind : MediumKind
        Oscillator or spin statistics.
    omega_hot, omega_cold : float
        Mode frequency during the hot and cold isochores.
    baths : BathPair
        Hot/cold bath temperatures.

    Returns
    -------
    (q_h, q_c, w)
        Heat from the hot bath, heat from the cold bath (both signed into
        the system) and the work done by the system, ``w = q_h + q_c``.
    """
    if not (omega_hot > 0.0 and omega_cold > 0.0):
        raise DomainError(
            f"mode frequencies must be positive, got ({omega_hot}, {omega_cold})"
        )
    q_h, q_c, w = heats_arrays(kind, omega_hot, omega_cold, baths.beta_h, baths.beta_c)
    return float(q_h), float(q_c), float(w)


def classify_regime(
    q_h: float, q_c: float, w: float, eps: Optional[float] = None
) -> tuple[Regime, bool]:
    """Classify a (Q_h, Q_c, W) triple into engine / refrigerator / dissipator.

    Returns (regime, at_boundary).  Raises InconsistentEnergy if the
    triple violates W = Q_h + Q_c beyond the tolerance.  Points within eps
    of a regime boundary are classified as dissipator with
    ``at_boundary=True`` rather than silently landing in an operating
    regime.  A length-1 call of `regime_codes`.
    """
    if eps is None:
        eps = float(_tolerances(q_h, q_c))
    if not abs(w - q_h - q_c) <= eps:
        raise InconsistentEnergy(
            f"W - Q_h - Q_c = {w - q_h - q_c!r} exceeds tolerance {eps!r}"
        )
    codes, boundary = regime_codes([q_h], [q_c], [w], eps)
    return REGIMES[codes[0]], bool(boundary[0])


def _tolerances(q_h, q_c):
    """Elementwise ``1e-12 * max(|Q_h|, |Q_c|, 1)``, folding nan exactly as
    Python's `max` does."""
    scale = np.abs(q_h)
    scale = np.where(np.abs(q_c) > scale, np.abs(q_c), scale)
    return 1e-12 * np.where(1.0 > scale, 1.0, scale)


def regime_codes(q_h, q_c, w, eps=None) -> tuple[np.ndarray, np.ndarray]:
    """The regime rules of `classify_regime` over arrays, without its
    energy-balance check.

    Returns (codes into `REGIMES`, at_boundary); when `eps` is None the
    tolerance is `_tolerances` per element.
    """
    q_h, q_c, w = (np.asarray(x, dtype=float) for x in (q_h, q_c, w))
    if eps is None:
        eps = _tolerances(q_h, q_c)
    engine = (w > eps) & (q_h > eps)
    fridge = (q_c > eps) & (w < -eps)
    codes = np.full(engine.shape, _DISSIPATOR, dtype=np.int8)
    codes[fridge] = _FRIDGE
    codes[engine] = _ENGINE
    near = ((w > -eps) & (q_h > -eps)) | ((q_c > -eps) & (w < eps))
    return codes, near & (codes == _DISSIPATOR)


def _classify(q_h, q_c, w, eps, valid):
    """`classify_regime` plus the figure of merit, over arrays: (codes,
    at_boundary, eta = W/Q_h for engines or zeta = Q_c/|W| for
    refrigerators, else nan).  Applies the energy-balance check to the
    valid entries."""
    tol = _tolerances(q_h, q_c) if eps is None else eps
    with np.errstate(invalid="ignore"):
        bad = valid & ~(np.abs(w - q_h - q_c) <= tol)
    if bad.any():
        raise InconsistentEnergy(
            f"W - Q_h - Q_c exceeds the regime tolerance for {int(bad.sum())} entries"
        )
    codes, boundary = regime_codes(q_h, q_c, w, tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        fom = np.where(
            codes == _ENGINE, w / q_h, np.where(codes == _FRIDGE, q_c / np.abs(w), np.nan)
        )
    return codes, boundary, fom


def evaluate_cycles(
    kind: MediumKind,
    omega_hot,
    omega_cold,
    coupling_hot,
    coupling_cold,
    baths: BathPair,
    eps: Optional[float] = None,
) -> CycleColumns:
    """Evaluate n cycles at once; the batched form of `evaluate_cycle`.

    Parameters
    ----------
    kind : MediumKind
        Oscillator or spin pair.
    omega_hot, omega_cold : array_like
        Bare frequency at the hot and cold points.
    coupling_hot, coupling_cold : (array_like, array_like)
        (lambda_x, lambda_p) for oscillators, (j_x, j_y) for spins.
    baths : BathPair
    eps : float, optional
        Regime tolerance; default ``1e-12 * max(|Q_h|, |Q_c|, 1)`` per
        triple.

    All six arrays broadcast to one dimension.  Every column equals, bit
    for bit, what `evaluate_cycle` returns for the same cycle, and
    ``valid`` is False exactly where it raises DomainError: an invalid
    mode decomposition, a non-finite input, or a heat, work or total that
    is not finite.  Raises
    InconsistentEnergy like `classify_regime` if a valid triple breaks
    ``W = Q_h + Q_c`` beyond the tolerance.
    """
    omega_hot, omega_cold, cx_h, cy_h, cx_c, cy_c = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float))
          for x in (omega_hot, omega_cold, *coupling_hot, *coupling_cold))
    )
    freqs = oscillator_mode_frequencies if kind is MediumKind.OSCILLATOR else spin_mode_frequencies
    hot = freqs(omega_hot, cx_h, cy_h)
    cold = freqs(omega_cold, cx_c, cy_c)
    w_hot, w_cold = np.stack(hot), np.stack(cold)
    valid = (omega_hot > 0.0) & (omega_cold > 0.0)
    valid &= np.isfinite([omega_hot, omega_cold, cx_h, cy_h, cx_c, cy_c]).all(axis=0)
    valid &= ((w_hot > 0.0) & (w_cold > 0.0)).all(axis=0)

    q_h, q_c, w = heats_arrays(kind, w_hot, w_cold, baths.beta_h, baths.beta_c)
    with np.errstate(over="ignore"):
        q_h_t, q_c_t, w_t = q_h[0] + q_h[1], q_c[0] + q_c[1], w[0] + w[1]
    # a heat that overflows is refused like an unstable mode
    valid &= np.isfinite([*q_h, *q_c, *w, q_h_t, q_c_t, w_t]).all(axis=0)
    codes, boundary, fom = _classify(q_h, q_c, w, eps, valid)
    g_codes, g_boundary, g_fom = _classify(q_h_t, q_c_t, w_t, eps, valid)

    # convex weight of mode A: heat fraction for two engines, work
    # fraction for two refrigerators; min/max as Python's, nan included
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(codes[0] == _ENGINE, q_h[0] / q_h_t, np.abs(w[0]) / np.abs(w_t))
    lower = np.where(fom[1] < fom[0], fom[1], fom[0])
    upper = np.where(fom[1] > fom[0], fom[1], fom[0])
    shared = (codes[0] == codes[1]) & (codes[0] != _DISSIPATOR)

    return CycleColumns(
        valid=valid,
        omega_hot=w_hot,
        omega_cold=w_cold,
        q_h=q_h,
        q_c=q_c,
        w=w,
        regime=codes,
        at_boundary=boundary,
        figure_of_merit=fom,
        q_h_total=q_h_t,
        q_c_total=q_c_t,
        w_total=w_t,
        global_regime=g_codes,
        global_at_boundary=g_boundary,
        global_figure=g_fom,
        weight=np.where(shared, weight, np.nan),
        bounds=np.where(shared, np.stack([lower, upper]), np.nan),
    )


def _optional(value, present) -> Optional[float]:
    return float(value) if present else None


def evaluate_cycle(spec: CycleSpec, eps: Optional[float] = None) -> CycleResult:
    """Evaluate a full cycle: per-mode heats and regimes, totals, global
    figure of merit, convex weight and per-mode bounds.

    The global figure of merit is W_total/Q_h_total when the totals
    satisfy the engine condition and Q_c_total/|W_total| when they
    satisfy the refrigerator condition; otherwise it is absent (mixed or
    dissipative cycles have no figure of merit).  A length-1 call of
    `evaluate_cycles`.
    """
    c = evaluate_cycles(
        spec.kind,
        spec.hot.omega,
        spec.cold.omega,
        astuple(spec.hot.coupling),
        astuple(spec.cold.coupling),
        spec.baths,
        eps,
    )
    if not c.valid[0]:
        mode_pairs_for_cycle(spec)  # raises the decomposition's own DomainError
        heats = np.stack([c.q_h, c.q_c, c.w], axis=-1)[:, 0].tolist()
        total = [float(x[0]) for x in (c.q_h_total, c.q_c_total, c.w_total)]
        raise DomainError(f"non-finite heats: (Q_h, Q_c, W) = {heats} of modes A, B, {total} total")
    modes = [
        ModeCycleResult(
            mode_id=mode_id,
            omega_hot=float(c.omega_hot[m, 0]),
            omega_cold=float(c.omega_cold[m, 0]),
            q_h=float(c.q_h[m, 0]),
            q_c=float(c.q_c[m, 0]),
            w=float(c.w[m, 0]),
            regime=REGIMES[c.regime[m, 0]],
            at_boundary=bool(c.at_boundary[m, 0]),
            figure_of_merit=_optional(c.figure_of_merit[m, 0], c.operating[m, 0]),
        )
        for m, mode_id in enumerate("AB")
    ]
    shared = bool(c.shared[0])
    return CycleResult(
        mode_a=modes[0],
        mode_b=modes[1],
        q_h_total=float(c.q_h_total[0]),
        q_c_total=float(c.q_c_total[0]),
        w_total=float(c.w_total[0]),
        regime=REGIMES[c.global_regime[0]],
        at_boundary=bool(c.global_at_boundary[0]),
        global_figure=_optional(c.global_figure[0], c.global_operating[0]),
        weight=_optional(c.weight[0], shared),
        bounds=(float(c.bounds[0, 0]), float(c.bounds[1, 0])) if shared else None,
    )


def figure_of_merit_bounds(result: CycleResult) -> tuple[float, float]:
    """(min, max) of the per-mode figures of merit.

    Defined only when both modes operate in the same regime; the global
    figure of merit always lies in this closed interval.
    """
    if result.bounds is None:
        raise RegimeMismatch(
            f"modes operate as {result.mode_a.regime.value} / "
            f"{result.mode_b.regime.value}; no joint bounds"
        )
    return result.bounds


def critical_coupling(
    mode: str, omega: float, omega_prime: float, baths: BathPair
) -> float:
    """XX-model coupling at which one mode hits the Carnot condition.

    For ``mode="engine"`` this is lambda_c = (omega' T_h - omega T_c) /
    (T_h - T_c), where the "-" branch mode satisfies beta_h w_B =
    beta_c w_B' and delivers zero work.  For ``mode="refrigerator"`` it is
    lambda_c' = (omega T_c - omega' T_h)/(T_h - T_c), where the "+" branch
    mode transfers zero heat.  The two are negatives of each other.
    """
    t_h, t_c = baths.t_h, baths.t_c
    if t_h == t_c:
        raise DegenerateBaths("critical coupling undefined for t_h == t_c")
    if mode == "engine":
        return (omega_prime * t_h - omega * t_c) / (t_h - t_c)
    if mode == "refrigerator":
        return (omega * t_c - omega_prime * t_h) / (t_h - t_c)
    raise UnknownModel(f"mode must be 'engine' or 'refrigerator', got {mode!r}")


# ---------------------------------------------------------------------------
# small-coupling predictions (second order in the coupling)


def _csch(x: float) -> float:
    return 1.0 / math.sinh(x)


def _sech(x: float) -> float:
    return 1.0 / math.cosh(x)


def perturbative_prediction(
    model: str,
    omega: float,
    omega_prime: float,
    baths: BathPair,
    lam: float,
) -> float:
    """Second-order small-coupling approximation of eta or zeta.

    ``model`` is one of ``xx-engine-os``, ``xx-engine-sp``,
    ``xx-fridge-os``, ``xx-fridge-sp``, ``xy-engine-os``, ``xy-engine-sp``,
    ``xy-fridge-os``, ``xy-fridge-sp``.  Returns the uncoupled value plus
    the lambda^2 correction; used as a cross-check of `evaluate_cycle`,
    valid where the target device operates at zero coupling.
    """
    t_h, t_c = baths.t_h, baths.t_c
    x = 0.5 * omega / t_h
    y = 0.5 * omega_prime / t_c
    lam2 = lam * lam

    if model.startswith("xx-engine"):
        gamma = (omega - omega_prime) / (t_h * t_c * omega**2)
        eta0 = 1.0 - omega_prime / omega
        if model == "xx-engine-os":
            num = t_c * _csch(x) ** 2 - t_h * _csch(y) ** 2
            den = 2.0 * (coth(x) - coth(y))
            return eta0 + gamma * num / den * lam2
        if model == "xx-engine-sp":
            num = t_h * _sech(y) ** 2 - t_c * _sech(x) ** 2
            den = 2.0 * (math.tanh(x) - math.tanh(y))
            return eta0 + gamma * num / den * lam2
    elif model.startswith("xx-fridge"):
        gamma_p = t_h * t_c * (omega - omega_prime)
        zeta0 = omega_prime / (omega - omega_prime)
        if model == "xx-fridge-os":
            num = t_h * _csch(y) ** 2 - t_c * _csch(x) ** 2
            den = 2.0 * gamma_p * (coth(x) - coth(y))
            return zeta0 + num / den * lam2
        if model == "xx-fridge-sp":
            num = t_c * _sech(x) ** 2 - t_h * _sech(y) ** 2
            den = 2.0 * gamma_p * (math.tanh(x) - math.tanh(y))
            return zeta0 + num / den * lam2
    elif model.startswith("xy-engine"):
        eta0 = 1.0 - omega_prime / omega
        corr = (omega**2 - omega_prime**2) * lam2 / (2.0 * omega**3 * omega_prime)
        if model == "xy-engine-os":
            return eta0 + corr
        if model == "xy-engine-sp":
            return eta0 - corr
    elif model.startswith("xy-fridge"):
        zeta0 = omega_prime / (omega - omega_prime)
        corr = (omega + omega_prime) * lam2 / (
            2.0 * omega * omega_prime * (omega - omega_prime)
        )
        if model == "xy-fridge-os":
            return zeta0 - corr
        if model == "xy-fridge-sp":
            return zeta0 + corr
    raise UnknownModel(f"unknown prediction tag: {model!r}")


def xx_efficiency_difference(
    omega: float, omega_prime: float, baths: BathPair, lam: float
) -> float:
    """Predicted eta_os - eta_sp for small XX coupling; positive whenever
    omega > omega' in the engine regime."""
    t_h, t_c = baths.t_h, baths.t_c
    gamma = (omega - omega_prime) / (t_h * t_c * omega**2)
    return gamma * (t_c * _csch(omega / t_h) + t_h * _csch(omega_prime / t_c)) * lam * lam


def xx_cop_difference(
    omega: float, omega_prime: float, baths: BathPair, lam: float
) -> float:
    """Predicted zeta_sp - zeta_os for small XX coupling; positive whenever
    omega > omega' in the refrigerator regime."""
    t_h, t_c = baths.t_h, baths.t_c
    gamma_p = t_h * t_c * (omega - omega_prime)
    return (t_c * _csch(omega / t_h) + t_h * _csch(omega_prime / t_c)) * lam * lam / gamma_p
