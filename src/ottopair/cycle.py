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
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateBaths,
    DomainError,
    InconsistentEnergy,
    UnknownModel,
)
from .medium import (
    BathPair,
    CycleSpec,
    MediumKind,
    _checked_modes,
    oscillator_mode_frequencies,
    spin_mode_frequencies,
)

__all__ = [
    "Regime",
    "REGIMES",
    "CycleColumns",
    "coth",
    "mode_heats",
    "classify_regime",
    "regime_codes",
    "evaluate_cycle",
    "evaluate_cycles",
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
class CycleColumns:
    """`evaluate_cycles` output for n cycles, one array per quantity.

    Per-mode columns (``omega_hot`` to ``figure_of_merit``) have shape
    (2, n), row 0 for mode A and row 1 for mode B; ``bounds`` is (2, n)
    with the lower bound in row 0; every other column has shape (n,).
    Regimes are int8 codes into `REGIMES`.  A figure of merit is present
    only where its regime is engine or refrigerator, and ``weight`` and
    ``bounds`` only where both modes share that regime; absent entries
    are nan.  ``weight`` is the convex weight of mode A in the global
    figure of merit: the heat fraction Q_A/(Q_A+Q_B) for two engines, the
    work fraction |W_A|/|W_A+W_B| for two refrigerators.  Rows with
    ``valid`` False are the cycles `evaluate_cycle` refuses with
    DomainError; only ``valid`` is meaningful there.
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
# special functions


def _out(x):
    """A kernel's result: a float for a scalar or 0-d array, else the array."""
    return float(x) if np.ndim(x) == 0 else x


def coth(x):
    """coth as 1/tanh, array-friendly: +-inf at +-0, and exactly
    1/x + x/3 in double precision wherever that series holds (|x| < 1e-8,
    where tanh(x) rounds to x)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return _out(1.0 / np.tanh(x))


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
    """Signed heats and work (q_h, q_c, w = q_h + q_c) of one decoupled
    mode of `kind`'s statistics, at frequency omega_hot on the hot isochore
    and omega_cold on the cold one: a 0-d call of `heats_arrays`."""
    if not (omega_hot > 0.0 and omega_cold > 0.0):
        raise DomainError(f"mode frequencies must be positive, got ({omega_hot}, {omega_cold})")
    q_h, q_c, w = heats_arrays(kind, omega_hot, omega_cold, baths.beta_h, baths.beta_c)
    return float(q_h), float(q_c), float(w)


def classify_regime(q_h: float, q_c: float, w: float,
                    eps: Optional[float] = None) -> tuple[Regime, bool]:
    """Classify a (Q_h, Q_c, W) triple into engine / refrigerator / dissipator.

    Returns (regime, at_boundary).  Raises InconsistentEnergy if the
    triple violates W = Q_h + Q_c beyond the tolerance.  Points within eps
    of a regime boundary are classified as dissipator with
    ``at_boundary=True`` rather than silently landing in an operating
    regime.  A length-1 call of `_classify`.
    """
    codes, boundary, _ = _classify(*np.array([[q_h], [q_c], [w]], float), np.ones(1, bool), eps)
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


def _classify(q_h, q_c, w, valid, eps=None):
    """`classify_regime` plus the figure of merit, over arrays: (codes,
    at_boundary, eta = W/Q_h for engines or zeta = Q_c/|W| for
    refrigerators, divided only there, else nan).  Applies the
    energy-balance check to the valid entries; when `eps` is None the
    tolerance is `_tolerances` per element."""
    tol = _tolerances(q_h, q_c) if eps is None else eps
    with np.errstate(invalid="ignore"):
        bad = valid & ~(np.abs(w - q_h - q_c) <= tol)
    if bad.any():
        raise InconsistentEnergy(
            f"W - Q_h - Q_c exceeds the regime tolerance for {int(bad.sum())} entries"
        )
    codes, boundary = regime_codes(q_h, q_c, w, tol)
    fom = np.full(codes.shape, np.nan)
    np.divide(w, q_h, out=fom, where=codes == _ENGINE)
    np.divide(q_c, np.abs(w), out=fom, where=codes == _FRIDGE)
    return codes, boundary, fom


def evaluate_cycles(
    kind: MediumKind,
    omega_hot,
    omega_cold,
    coupling_hot,
    coupling_cold,
    baths: BathPair,
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

    All six arrays broadcast to one dimension.  ``valid`` is False exactly
    where `evaluate_cycle` raises DomainError: an invalid mode
    decomposition, a non-finite input, or a heat, work or total that is
    not finite.  Regimes use the tolerance ``1e-12 * max(|Q_h|, |Q_c|, 1)``
    per triple.  Raises InconsistentEnergy like `classify_regime` if a
    valid triple breaks ``W = Q_h + Q_c`` beyond it.
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
    codes, boundary, fom = _classify(q_h, q_c, w, valid)
    g_codes, g_boundary, g_fom = _classify(q_h_t, q_c_t, w_t, valid)

    # convex weight of mode A, divided only where the modes share a regime:
    # heat fraction for two engines, work fraction for two refrigerators
    shared = (codes[0] == codes[1]) & (codes[0] != _DISSIPATOR)
    weight = np.full(valid.shape, np.nan)
    np.divide(q_h[0], q_h_t, out=weight, where=shared & (codes[0] == _ENGINE))
    np.divide(np.abs(w[0]), np.abs(w_t), out=weight, where=shared & (codes[0] == _FRIDGE))

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
        weight=weight,
        bounds=np.where(shared, [np.minimum(*fom), np.maximum(*fom)], np.nan),
    )


def evaluate_cycle(spec: CycleSpec) -> CycleColumns:
    """Evaluate one cycle: the length-1 columns of `evaluate_cycles`.

    The global figure of merit is W_total/Q_h_total when the totals
    satisfy the engine condition and Q_c_total/|W_total| when they
    satisfy the refrigerator condition; otherwise it is absent (mixed or
    dissipative cycles have no figure of merit).  ``bounds`` is the
    sandwich interval of the per-mode figures of merit, which holds the
    global one; it is nan where the modes do not share a regime.

    Raises
    ------
    DomainError
        Where ``valid`` is False: the name of a non-finite input field,
        else `medium._checked_modes`, the normal-mode wrappers' one rule,
        on ``omega_hot[:, 0]``, then ``omega_cold[:, 0]``; otherwise
        "non-finite heats".
    """
    c = evaluate_cycles(**vars(spec))
    if not c.valid[0]:
        for name in ("omega_hot", "omega_cold", "coupling_hot", "coupling_cold"):
            value = getattr(spec, name)
            if not np.isfinite(value).all():
                raise DomainError(f"{name} must be finite, got {value}")
        _checked_modes(spec.kind, spec.omega_hot, *spec.coupling_hot, *c.omega_hot[:, 0])
        _checked_modes(spec.kind, spec.omega_cold, *spec.coupling_cold, *c.omega_cold[:, 0])
        heats = np.stack([c.q_h, c.q_c, c.w], axis=-1)[:, 0].tolist()
        total = [float(x[0]) for x in (c.q_h_total, c.q_c_total, c.w_total)]
        raise DomainError(f"non-finite heats: (Q_h, Q_c, W) = {heats} of modes A, B, {total} total")
    return c


def critical_coupling(mode: str, omega, omega_prime, baths: BathPair):
    """XX-model coupling at which one mode hits the Carnot condition.

    For ``mode="engine"`` this is lambda_c = (omega' T_h - omega T_c) /
    (T_h - T_c), where the "-" branch mode satisfies beta_h w_B =
    beta_c w_B' and delivers zero work.  For ``mode="refrigerator"`` it is
    its negative, lambda_c' = (omega T_c - omega' T_h)/(T_h - T_c), where
    the "+" branch mode transfers zero heat.  Broadcasts omega and
    omega_prime; a float for scalars.
    """
    t_h, t_c = baths.t_h, baths.t_c
    if t_h == t_c:
        raise DegenerateBaths("critical coupling undefined for t_h == t_c")
    if mode not in ("engine", "refrigerator"):
        raise UnknownModel(f"mode must be 'engine' or 'refrigerator', got {mode!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        lam_c = (np.multiply(omega_prime, t_h) - np.multiply(omega, t_c)) / (t_h - t_c)
    return _out(lam_c if mode == "engine" else -lam_c)


# ---------------------------------------------------------------------------
# small-coupling predictions (second order in the coupling); array kernels
# that broadcast omega, omega' and lambda, and return a float for scalars


_TAG = re.compile(r"(xx|xy)-(engine|fridge)-(os|sp)")


def _device(device, omega, omega_prime):
    """(uncoupled value, prefactor p of the lambda^2 ratio): (1 - omega'/omega,
    (omega - omega')/omega^2) for the engine, (omega'/(omega - omega'),
    -1/(omega - omega')) for the refrigerator."""
    if device == "engine":
        return 1.0 - omega_prime / omega, (omega - omega_prime) / omega**2
    return omega_prime / (omega - omega_prime), -1.0 / (omega - omega_prime)


def _ratio(coupling, medium, omega, omega_prime, t_h, t_c):
    """The lambda^2 ratio r of a coupling and medium: +-(omega + omega')/
    (2 omega omega') for xy, + for oscillators; for xx (T_h g(x)/g(y) -
    T_c g(y)/g(x)) / (2 T_h T_c sinh(x - y)) with x = omega/2T_h,
    y = omega'/2T_c and g = sinh (oscillators) or cosh: no difference of
    two rounded coth or tanh values.  With g(z) = e^z h(z)/2, h(z) =
    1 -+ e^-2z, and both sides divided by e^|x - y|, no exponential has a
    positive argument, so none overflows."""
    if coupling == "xy":
        ratio = (omega + omega_prime) / (2.0 * omega * omega_prime)
        return ratio if medium == "os" else -ratio
    x, y = 0.5 * omega / t_h, 0.5 * omega_prime / t_c
    h = (lambda z: -np.expm1(-2.0 * z)) if medium == "os" else (lambda z: 1.0 + np.exp(-2.0 * z))
    a = h(x) / h(y)
    lo, hi = 2.0 * np.minimum(x - y, 0.0), -2.0 * np.maximum(x - y, 0.0)
    numerator = t_h * a * np.exp(lo) - t_c * np.exp(hi) / a
    return numerator / (t_h * t_c * (np.expm1(lo) - np.expm1(hi)))


def perturbative_prediction(model: str, omega, omega_prime, baths: BathPair, lam):
    """Second-order small-coupling approximation of eta or zeta.

    ``model`` is ``<coupling>-<device>-<medium>``: coupling ``xx`` or
    ``xy``, device ``engine`` or ``fridge``, medium ``os`` or ``sp``.
    Returns the device's uncoupled value plus p r lambda^2: one ratio r
    per coupling and medium (`_ratio`), times the device's prefactor p
    (`_device`), whose sign is opposite for the refrigerator, so the
    coupling that raises eta lowers zeta.  Valid where the device
    operates at zero coupling; a cross-check of `evaluate_cycles`.
    """
    match = _TAG.fullmatch(model)
    if match is None:
        raise UnknownModel(f"unknown prediction tag: {model!r}")
    coupling, device, medium = match.groups()
    omega, omega_prime, lam = (np.asarray(v, dtype=float) for v in (omega, omega_prime, lam))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value, prefactor = _device(device, omega, omega_prime)
        ratio = _ratio(coupling, medium, omega, omega_prime, baths.t_h, baths.t_c)
        return _out(value + prefactor * ratio * lam**2)


def _xx_gap(device, omega, omega_prime, baths, lam):
    """The device's xx gap p (r_os - r_sp) lambda^2, sign flipped for the
    refrigerator, where r_os - r_sp is one csch sum:
    (T_c csch(omega/T_h) + T_h csch(omega'/T_c)) / (T_h T_c)."""
    omega, omega_prime, lam = (np.asarray(v, dtype=float) for v in (omega, omega_prime, lam))
    t_h, t_c = baths.t_h, baths.t_c
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gap = (t_c / np.sinh(omega / t_h) + t_h / np.sinh(omega_prime / t_c)) / (t_h * t_c)
        prefactor = _device(device, omega, omega_prime)[1]
        return _out((prefactor if device == "engine" else -prefactor) * gap * lam**2)


def xx_efficiency_difference(omega, omega_prime, baths: BathPair, lam):
    """Predicted eta_os - eta_sp for small XX coupling; positive whenever
    omega > omega' in the engine regime."""
    return _xx_gap("engine", omega, omega_prime, baths, lam)


def xx_cop_difference(omega, omega_prime, baths: BathPair, lam):
    """Predicted zeta_sp - zeta_os for small XX coupling; positive whenever
    omega > omega' in the refrigerator regime."""
    return _xx_gap("fridge", omega, omega_prime, baths, lam)
