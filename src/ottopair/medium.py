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
from dataclasses import astuple, dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError, UnknownModel

__all__ = [
    "MediumKind",
    "BathPair",
    "OscillatorCoupling",
    "SpinCoupling",
    "Coupling",
    "CyclePoint",
    "CycleSpec",
    "ModePair",
    "ModePairs",
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
class OscillatorCoupling:
    """Position/momentum coupling strengths, same units as the frequency."""

    lambda_x: float
    lambda_p: float


@dataclass(frozen=True)
class SpinCoupling:
    """Exchange constants along x and y."""

    j_x: float
    j_y: float


Coupling = Union[OscillatorCoupling, SpinCoupling]

_COUPLING_FOR_KIND = {
    MediumKind.OSCILLATOR: OscillatorCoupling,
    MediumKind.SPIN: SpinCoupling,
}


@dataclass(frozen=True)
class CyclePoint:
    """Bare frequency and coupling at one end of the adiabatic strokes;
    every value finite, the frequency positive."""

    omega: float
    coupling: Coupling

    def __post_init__(self):
        if not self.omega > 0.0:
            raise DomainError(f"bare frequency must be positive, got {self.omega}")
        if not all(map(math.isfinite, (self.omega, *astuple(self.coupling)))):
            raise DomainError(f"cycle point values must be finite, got {self}")


@dataclass(frozen=True)
class CycleSpec:
    """Full description of one Otto cycle: medium kind, the hot-side and
    cold-side control points, and the bath pair."""

    kind: MediumKind
    hot: CyclePoint
    cold: CyclePoint
    baths: BathPair

    def __post_init__(self):
        want = _COUPLING_FOR_KIND[self.kind]
        for name, point in (("hot", self.hot), ("cold", self.cold)):
            if not isinstance(point.coupling, want):
                raise DomainError(
                    f"{name} point carries {type(point.coupling).__name__}, "
                    f"expected {want.__name__} for kind={self.kind.value}"
                )


@dataclass(frozen=True)
class ModePair:
    """Decoupled mode frequencies at a single cycle point (A = '+' branch)."""

    omega_a: float
    omega_b: float

    def __post_init__(self):
        if not (self.omega_a > 0.0 and self.omega_b > 0.0):
            raise DomainError(
                f"mode frequencies must be positive, got ({self.omega_a}, {self.omega_b})"
            )


class ModePairs(NamedTuple):
    """(hot, cold) frequency pairs for each decoupled mode of a cycle.

    Mode identity is fixed by the branch sign, never by re-sorting, so the
    per-mode cycles remain well defined even when the curves cross.
    """

    a: tuple[float, float]
    b: tuple[float, float]


# ---------------------------------------------------------------------------
# decompositions


def oscillator_normal_modes(omega: float, lambda_x: float, lambda_p: float) -> ModePair:
    """Decouple a coupled oscillator pair into its two normal modes.

    Returns the frequencies ``sqrt((omega +/- lambda_p) (omega +/-
    lambda_x))``; a length-1 call of `oscillator_mode_frequencies`.

    Raises
    ------
    DomainError
        If ``omega <= max(|lambda_x|, |lambda_p|)`` (an unstable or
        imaginary mode).
    """
    w_a, w_b = oscillator_mode_frequencies(omega, lambda_x, lambda_p)
    if np.isnan(w_a):
        raise DomainError(
            f"unstable mode: need omega > max(|lambda_x|, |lambda_p|), got "
            f"omega={omega}, lambda_x={lambda_x}, lambda_p={lambda_p}"
        )
    return ModePair(float(w_a), float(w_b))


def spin_normal_modes(omega: float, j_x: float, j_y: float) -> ModePair:
    """Decouple a coupled spin-1/2 pair into two independent spin modes.

    With ``lp = (j_x + j_y)/2`` and ``lm = (j_x - j_y)/2`` the mode
    frequencies are ``sqrt(omega^2 + lm^2) +/- lp``.  This reduces to
    ``omega +/- j`` for the XX model and to ``sqrt(omega^2 + j^2)`` for the
    XY model; the general form is certified against the exact 4x4 spectrum
    by the oracle module.  A length-1 call of `spin_mode_frequencies`.

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
    return ModePair(float(w_a), float(w_b))


def mode_pairs_for_cycle(spec: CycleSpec) -> ModePairs:
    """Hot/cold decoupled frequencies for both modes of a cycle.

    Applies the appropriate decomposition at the hot and cold points and
    keeps the branch identity (A = "+", B = "-") across the two points.
    """
    modes = oscillator_normal_modes if spec.kind is MediumKind.OSCILLATOR else spin_normal_modes
    hot = modes(spec.hot.omega, *astuple(spec.hot.coupling))
    cold = modes(spec.cold.omega, *astuple(spec.cold.coupling))
    return ModePairs(a=(hot.omega_a, cold.omega_a), b=(hot.omega_b, cold.omega_b))


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
    cx, cy = map(float, model_coupling(model, *values))
    if kind is MediumKind.OSCILLATOR:
        c = OscillatorCoupling(lambda_x=cx, lambda_p=cy)
    else:
        c = SpinCoupling(j_x=cx, j_y=cy)
    return CycleSpec(
        kind=kind,
        hot=CyclePoint(omega, c),
        cold=CyclePoint(omega_prime, c),
        baths=baths,
    )


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


# math.hypot, not np.hypot: the two differ in the last bit for some inputs,
# and the printed rows carry math.hypot's bits
_hypot = np.frompyfunc(math.hypot, 2, 1)


def spin_mode_frequencies(omega, j_x, j_y):
    """Spin decomposition over broadcast arrays; returns (w_a, w_b) with
    nan where ``omega <= 0`` or a mode frequency would be non-positive."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        l_plus = 0.5 * (np.asarray(j_x, dtype=float) + j_y)
        l_minus = 0.5 * (np.asarray(j_x, dtype=float) - j_y)
        s = np.asarray(_hypot(omega, l_minus), dtype=float)
    ok = (omega > 0.0) & (s > np.abs(l_plus))
    return np.where(ok, s + l_plus, np.nan), np.where(ok, s - l_plus, np.nan)
