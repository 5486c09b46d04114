"""Working media for the coupled-pair Otto cycle.

Two media are supported: a pair of identical harmonic oscillators coupled
quadratically through positions and momenta (strengths ``lambda_x``,
``lambda_p``), and a pair of spin-1/2 systems with exchange coupling
(``j_x``, ``j_y``).  In both cases the pair decouples into two independent
modes, labeled A ("+" branch) and B ("-" branch); all cycle thermodynamics
is computed mode by mode.

Units: hbar = k_B = 1 everywhere, so frequencies, temperatures and
couplings are plain positive reals with the same dimension.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnknownModel

__all__ = [
    "MediumKind",
    "BathPair",
    "CycleSpec",
    "oscillator_normal_modes",
    "spin_normal_modes",
    "mode_pairs_for_cycle",
    "model_coupling",
    "standard_cycle",
    "oscillator_mode_frequencies",
    "spin_mode_frequencies",
]


class MediumKind(enum.Enum):
    OSCILLATOR = "osc"
    SPIN = "spin"


@dataclass(frozen=True)
class BathPair:
    """Hot/cold bath temperatures, finite with ``t_h > t_c > 0``."""

    t_h: float
    t_c: float

    def __post_init__(self):
        if not (math.isfinite(self.t_h) and self.t_h > self.t_c > 0.0):
            raise DomainError(
                f"bath temperatures must be finite with t_h > t_c > 0, got "
                f"t_h={self.t_h}, t_c={self.t_c}"
            )

    @property
    def beta_h(self) -> float:
        return 1.0 / self.t_h

    @property
    def beta_c(self) -> float:
        return 1.0 / self.t_c

    @property
    def carnot_efficiency(self) -> float:
        return 1.0 - self.t_c / self.t_h

    @property
    def carnot_cop(self) -> float:
        return self.t_c / (self.t_h - self.t_c)


@dataclass(frozen=True)
class CycleSpec:
    """One Otto cycle as the arguments of an `evaluate_cycles` call: the
    medium, the bare frequency and the coupling pair (cx, cy) of
    `model_coupling` at the hot and cold points, and the bath pair.
    `evaluate_cycle` refuses every invalid cycle."""

    kind: MediumKind
    omega_hot: float
    omega_cold: float
    coupling_hot: tuple[float, float]
    coupling_cold: tuple[float, float]
    baths: BathPair


# ---------------------------------------------------------------------------
# decompositions


def _positive(w_a, w_b) -> tuple[float, float]:
    """(w_a, w_b) as floats; DomainError where one underflowed to zero."""
    w_a, w_b = float(w_a), float(w_b)
    if not (w_a > 0.0 and w_b > 0.0):
        raise DomainError(f"mode frequencies must be positive, got ({w_a}, {w_b})")
    return w_a, w_b


def oscillator_normal_modes(omega: float, lambda_x: float, lambda_p: float) -> tuple[float, float]:
    """Decouple a coupled oscillator pair into its two normal modes.

    Returns the frequencies ``(w_a, w_b) = sqrt((omega +/- lambda_p)
    (omega +/- lambda_x))``; a length-1 call of
    `oscillator_mode_frequencies`.

    Raises
    ------
    DomainError
        If ``omega <= max(|lambda_x|, |lambda_p|)`` (an unstable or
        imaginary mode) or a frequency underflows to zero.
    """
    w_a, w_b = oscillator_mode_frequencies(omega, lambda_x, lambda_p)
    if np.isnan(w_a):
        raise DomainError(
            f"unstable mode: need omega > max(|lambda_x|, |lambda_p|), got "
            f"omega={omega}, lambda_x={lambda_x}, lambda_p={lambda_p}"
        )
    return _positive(w_a, w_b)


def spin_normal_modes(omega: float, j_x: float, j_y: float) -> tuple[float, float]:
    """Decouple a coupled spin-1/2 pair into two independent spin modes.

    With ``lp = (j_x + j_y)/2`` and ``lm = (j_x - j_y)/2`` the mode
    frequencies are ``(w_a, w_b) = sqrt(omega^2 + lm^2) +/- lp``.  This
    reduces to ``omega +/- j`` for the XX model and to ``sqrt(omega^2 +
    j^2)`` for the XY model; the general form is certified against the
    exact 4x4 spectrum by the oracle module.  A length-1 call of
    `spin_mode_frequencies`.

    Raises
    ------
    DomainError
        If ``omega <= 0`` or the "-" branch frequency would be non-positive.
    """
    w_a, w_b = spin_mode_frequencies(omega, j_x, j_y)
    if np.isnan(w_a):
        raise DomainError(
            f"non-positive spin mode: need omega > 0 and sqrt(omega^2 + lm^2) > |lp|, "
            f"got omega={omega}, j_x={j_x}, j_y={j_y}"
        )
    return _positive(w_a, w_b)


def mode_pairs_for_cycle(spec: CycleSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """((a_hot, a_cold), (b_hot, b_cold)): the decoupled frequencies of both
    modes of a cycle.

    Applies the decomposition at the hot and cold points and keeps the
    branch identity (A = "+", B = "-") across them, never re-sorting, so
    the per-mode cycles stay well defined where the curves cross.
    """
    modes = oscillator_normal_modes if spec.kind is MediumKind.OSCILLATOR else spin_normal_modes
    hot = modes(spec.omega_hot, *spec.coupling_hot)
    cold = modes(spec.omega_cold, *spec.coupling_cold)
    return tuple(zip(hot, cold))


def model_coupling(model: str, *values):
    """Coupling pair (cx, cy) of a named coupling model; array-friendly.

    ``"xx"`` maps ``(v,)`` to ``(v, v)``, ``"xy"`` maps ``(v,)`` to
    ``(v, -v)`` and ``"general"`` passes ``(cx, cy)`` through.  The pair is
    (j_x, j_y) for spins and (lambda_x, lambda_p) for oscillators.
    """
    if model == "xx":
        (v,) = values
        return v, v
    if model == "xy":
        (v,) = values
        return v, -v
    if model == "general":
        cx, cy = values
        return cx, cy
    raise UnknownModel(f"unknown coupling model: {model!r}")


def standard_cycle(
    kind: MediumKind,
    model: str,
    omega: float,
    omega_prime: float,
    coupling,
    baths: BathPair,
) -> CycleSpec:
    """Build a frequency-driven cycle for one of the named coupling models.

    ``coupling`` is a scalar for ``"xx"`` and ``"xy"`` and a (cx, cy) pair
    for ``"general"``, mapped by `model_coupling`.  The same coupling is
    used at the hot and cold points; only the bare frequency is driven.
    """
    values = coupling if model == "general" else (coupling,)
    pair = tuple(map(float, model_coupling(model, *values)))
    return CycleSpec(kind, omega, omega_prime, pair, pair, baths)


# ---------------------------------------------------------------------------
# array kernels (no validation; invalid points come back as nan)


def oscillator_mode_frequencies(omega, lambda_x, lambda_p):
    """Oscillator decomposition over broadcast arrays; returns (w_a, w_b).

    Entries violating the positivity condition come back as nan rather
    than raising, so sweeps can mask them.
    """
    omega = np.asarray(omega, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        w_a = np.sqrt((omega + lambda_p) * (omega + lambda_x))
        w_b = np.sqrt((omega - lambda_p) * (omega - lambda_x))
    bad = ~(omega > np.maximum(np.abs(lambda_x), np.abs(lambda_p)))
    return np.where(bad, np.nan, w_a), np.where(bad, np.nan, w_b)


# math.hypot, not numpy's hypot, which differs from it in the last bit for
# some inputs: rows, the optimizer's objective and the sampler all carry
# math.hypot's bits.  xx entries (l_minus == 0) take |omega| instead, which
# is math.hypot(omega, +-0) bit for bit, so they make no Python call.
_hypot = np.frompyfunc(math.hypot, 2, 1)


def spin_mode_frequencies(omega, j_x, j_y):
    """Spin decomposition over broadcast arrays; returns (w_a, w_b) with
    nan where ``omega <= 0`` or a mode frequency would be non-positive.
    The only one: `evaluate_cycles`, the optimizer and the sampler call it."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        l_plus = 0.5 * (np.asarray(j_x, dtype=float) + j_y)
        l_minus = 0.5 * (np.asarray(j_x, dtype=float) - j_y)
        omega, l_minus = np.broadcast_arrays(omega, l_minus)
        s, hyp = np.asarray(np.abs(omega)), l_minus != 0.0  # asarray: a 0-d abs is a scalar
        s[hyp] = _hypot(omega[hyp], l_minus[hyp])
        s[~((omega > 0.0) & (s > np.abs(l_plus)))] = np.nan
        return s + l_plus, s - l_plus
