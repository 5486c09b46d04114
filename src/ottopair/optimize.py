"""Work-extraction optimization and the work-vs-concurrence sampler.

The optimizer is derivative-free: a dense rectangular grid followed by
coordinate-descent refinement with step halving.  The objective is cheap
and smooth, so robustness beats gradient machinery.  Everything is
seeded and deterministic; the sampler draws all parameters up front from
one generator so the output order never depends on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cycle import REGIMES, Regime, heats_arrays, regime_codes
from .entanglement import concurrence_batch, spin_pair_hamiltonian_batch, thermal_state_batch
from .errors import EmptyDomain, NumericalError, UnknownModel
from .medium import BathPair, MediumKind, oscillator_mode_frequencies

__all__ = [
    "SearchDomain",
    "SampleRecord",
    "single_system_work",
    "coupled_total_work",
    "max_uncoupled_work",
    "max_coupled_work",
    "sample_engine_points",
]

_REFINE_STEPS = 48  # step shrinks by 0.5 each sweep; 2^-48 of the grid cell


@dataclass(frozen=True)
class SearchDomain:
    """Closed parameter box: omega range, omega' range, coupling range(s)."""

    omega: tuple[float, float] = (0.0, 10.0)
    omega_prime: tuple[float, float] = (0.0, 10.0)
    coupling: tuple[float, float] = (0.0, 10.0)

    def __post_init__(self):
        for name, (lo, hi) in (
            ("omega", self.omega),
            ("omega_prime", self.omega_prime),
            ("coupling", self.coupling),
        ):
            if hi < lo:
                raise EmptyDomain(f"{name} range is empty: [{lo}, {hi}]")
            if lo < 0.0:
                raise EmptyDomain(f"{name} lower bound must be >= 0, got {lo}")


@dataclass(frozen=True)
class SampleRecord:
    """One accepted Monte Carlo draw of the coupled XX spin engine."""

    omega: float
    omega_prime: float
    lam: float
    w_total: float
    c_h: float
    c_c: float
    regime_a: Regime
    regime_b: Regime


def single_system_work(kind: MediumKind, omega, omega_prime, baths: BathPair):
    """Work of one uncoupled system per cycle; array-friendly, nan/inf where
    a frequency vanishes (never the maximum)."""
    return heats_arrays(kind, omega, omega_prime, baths.beta_h, baths.beta_c)[2]


# np.hypot, not the math.hypot of medium.spin_mode_frequencies: ~4x faster on these grids
def _spin_grid_frequencies(omega, j_x, j_y):
    """Spin mode frequencies (w_a, w_b) over grids, nan where invalid."""
    omega = np.asarray(omega, dtype=float)
    l_plus = 0.5 * (np.asarray(j_x, dtype=float) + j_y)
    l_minus = 0.5 * (np.asarray(j_x, dtype=float) - j_y)
    s = np.hypot(omega, l_minus)
    w_a = s + l_plus
    w_b = s - l_plus
    bad = ~((omega > 0) & (w_a > 0) & (w_b > 0))
    return np.where(bad, np.nan, w_a), np.where(bad, np.nan, w_b)


def coupled_total_work(
    kind: MediumKind, model: str, omega, omega_prime, cx, cy, baths: BathPair
):
    """Total work of a coupled pair, -inf where the decomposition is invalid.

    `cx`, `cy` are (j_x, j_y) for spins and (lambda_x, lambda_p) for
    oscillators; the xx/xy models constrain them in the usual way.
    """
    freqs = _spin_grid_frequencies if kind is MediumKind.SPIN else oscillator_mode_frequencies
    wa_h, wb_h = freqs(omega, cx, cy)
    wa_c, wb_c = freqs(omega_prime, cx, cy)
    w = (
        heats_arrays(kind, wa_h, wa_c, baths.beta_h, baths.beta_c)[2]
        + heats_arrays(kind, wb_h, wb_c, baths.beta_h, baths.beta_c)[2]
    )
    w = np.asarray(w, dtype=float)
    bad = ~(
        np.isfinite(w)
        & (wa_h > 0) & (wb_h > 0) & (wa_c > 0) & (wb_c > 0)
    )
    return np.where(bad, -np.inf, w)


def _model_couplings(model: str, lam):
    model = model.lower()
    if model == "xx":
        return lam, lam
    if model == "xy":
        return lam, -np.asarray(lam, dtype=float)
    raise UnknownModel(f"scalar coupling undefined for model {model!r}")


def _refine(objective, x0, lows, highs, step0, halvings=_REFINE_STEPS):
    """Pattern search: coordinate sweeps at a fixed step, halving the step
    only when a full sweep brings no improvement.  Never returns a worse
    point than the start."""
    x = np.array(x0, dtype=float)
    best = objective(x)
    step = np.array(step0, dtype=float)
    done = 0
    sweeps = 0
    while done < halvings and sweeps < 200 * halvings:
        sweeps += 1
        improved = False
        for i in range(x.size):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[i] = min(max(x[i] + sign * step[i], lows[i]), highs[i])
                val = objective(cand)
                if val > best:
                    best, x, improved = val, cand, True
        if not improved:
            step *= 0.5
            done += 1
    return x, best


def max_uncoupled_work(
    kind: MediumKind,
    baths: BathPair,
    domain: SearchDomain = SearchDomain(),
    resolution: int = 400,
) -> tuple[float, float, float]:
    """Maximize the single-system work over (omega, omega').

    Grid search at `resolution` points per axis, then coordinate-descent
    refinement.  Returns (omega*, omega'*, W_single_max); the uncoupled
    pair optimum is twice the work value.
    """
    if resolution < 2:
        raise EmptyDomain(f"resolution must be >= 2, got {resolution}")
    w1 = np.linspace(domain.omega[0], domain.omega[1], resolution)
    w2 = np.linspace(domain.omega_prime[0], domain.omega_prime[1], resolution)
    vals = single_system_work(kind, w1[:, None], w2[None, :], baths)
    vals = np.where(np.isfinite(vals), vals, -np.inf)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)

    def objective(x):
        v = float(single_system_work(kind, x[0], x[1], baths))
        return v if math.isfinite(v) else -math.inf

    lows = (domain.omega[0], domain.omega_prime[0])
    highs = (domain.omega[1], domain.omega_prime[1])
    step0 = ((w1[1] - w1[0]) if resolution > 1 else 1.0, (w2[1] - w2[0]) if resolution > 1 else 1.0)
    x, best = _refine(objective, (w1[i], w2[j]), lows, highs, step0)
    if not best >= vals[i, j]:
        raise NumericalError(f"refinement lost ground: {best!r} < grid value {vals[i, j]!r}")
    return float(x[0]), float(x[1]), float(best)


def _uncoupled_reference(kind, baths, domain, resolution, mode_pairs):
    """Best single-system work the coupled optimum could legally draw on.

    Mode frequencies never exceed bare frequency + |coupling|, so the
    single-system box is extended accordingly.  On top of the grid search,
    refinement is restarted from the coupled optimizer's own mode pairs:
    the work of either mode can never beat a refinement seeded at that
    mode's frequencies, which keeps the bound sound even when the work
    supremum sits on the domain boundary (oscillators at low frequency).
    """
    c_hi = domain.coupling[1]
    hi1 = domain.omega[1] + c_hi
    hi2 = domain.omega_prime[1] + c_hi
    wide = SearchDomain(omega=(0.0, hi1), omega_prime=(0.0, hi2), coupling=(0.0, 0.0))
    best = max_uncoupled_work(kind, baths, wide, resolution)[2]

    def objective(x):
        v = float(single_system_work(kind, x[0], x[1], baths))
        return v if math.isfinite(v) else -math.inf

    for pair in mode_pairs:
        _, val = _refine(objective, pair, (0.0, 0.0), (hi1, hi2), (1e-3, 1e-3))
        best = max(best, val)
    return best


def max_coupled_work(
    kind: MediumKind,
    model: str,
    baths: BathPair,
    domain: SearchDomain = SearchDomain(),
    resolution: int = 60,
) -> tuple[tuple[float, ...], float]:
    """Maximize the coupled-pair total work over (omega, omega', coupling).

    Same grid + refinement strategy as `max_uncoupled_work`.  Returns
    ((omega*, omega'*, coupling*...), W_max); raises NumericalError if the
    optimum beats the uncoupled-pair optimum by more than 1e-9.
    """
    if resolution < 2:
        raise EmptyDomain(f"resolution must be >= 2, got {resolution}")
    model = model.lower()
    w1 = np.linspace(domain.omega[0], domain.omega[1], resolution)
    w2 = np.linspace(domain.omega_prime[0], domain.omega_prime[1], resolution)
    cs = np.linspace(domain.coupling[0], domain.coupling[1], resolution)

    if model in ("xx", "xy"):
        cx, cy = _model_couplings(model, cs[None, None, :])
        vals = coupled_total_work(
            kind, model, w1[:, None, None], w2[None, :, None], cx, cy, baths
        )
        i, j, k = np.unravel_index(np.argmax(vals), vals.shape)
        x0 = (w1[i], w2[j], cs[k])
        step0 = (w1[1] - w1[0], w2[1] - w2[0], cs[1] - cs[0] if cs.size > 1 else 1.0)
        lows = (domain.omega[0], domain.omega_prime[0], domain.coupling[0])
        highs = (domain.omega[1], domain.omega_prime[1], domain.coupling[1])

        def objective(x):
            ccx, ccy = _model_couplings(model, x[2])
            return float(coupled_total_work(kind, model, x[0], x[1], ccx, ccy, baths))

    elif model == "general":
        # 4D grid; chunk along omega to bound memory
        best_val = -np.inf
        best_idx = (0, 0, 0, 0)
        for i, w in enumerate(w1):
            vals = coupled_total_work(
                kind,
                model,
                w,
                w2[:, None, None],
                cs[None, :, None],
                cs[None, None, :],
                baths,
            )
            j, k, l = np.unravel_index(np.argmax(vals), vals.shape)
            if vals[j, k, l] > best_val:
                best_val = vals[j, k, l]
                best_idx = (i, j, k, l)
        i, j, k, l = best_idx
        x0 = (w1[i], w2[j], cs[k], cs[l])
        dc = cs[1] - cs[0] if cs.size > 1 else 1.0
        step0 = (w1[1] - w1[0], w2[1] - w2[0], dc, dc)
        lows = (domain.omega[0], domain.omega_prime[0], domain.coupling[0], domain.coupling[0])
        highs = (domain.omega[1], domain.omega_prime[1], domain.coupling[1], domain.coupling[1])

        def objective(x):
            return float(coupled_total_work(kind, model, x[0], x[1], x[2], x[3], baths))

    else:
        raise UnknownModel(f"unknown coupling model: {model!r}")

    x, best = _refine(objective, x0, lows, highs, step0)
    if model == "general":
        cx, cy = x[2], x[3]
    else:
        cx, cy = _model_couplings(model, x[2])
    freqs = _spin_grid_frequencies if kind is MediumKind.SPIN else oscillator_mode_frequencies
    wa_h, wb_h = freqs(x[0], cx, cy)
    wa_c, wb_c = freqs(x[1], cx, cy)
    w0_pair = 2.0 * _uncoupled_reference(
        kind, baths, domain, max(resolution, 200),
        mode_pairs=((float(wa_h), float(wa_c)), (float(wb_h), float(wb_c))),
    )
    if not best <= w0_pair + 1e-9:
        raise NumericalError(f"coupled optimum {best!r} exceeds uncoupled bound {w0_pair!r}")
    return tuple(float(v) for v in x), float(best)


def sample_engine_points(
    seed: int,
    n: int,
    domain: SearchDomain = SearchDomain(),
    baths: Optional[BathPair] = None,
) -> list[SampleRecord]:
    """Monte Carlo sweep of the coupled XX spin pair in engine mode.

    Draws `n` i.i.d. uniform (omega, omega', lambda) triples from the
    domain with a seeded generator, keeps the draws whose total system
    works as an engine (W_total and Q_h_total positive beyond tolerance),
    and attaches the concurrences of the two thermal states.  Output
    order follows draw order, so a fixed seed gives identical output no
    matter how evaluation is chunked.  The accepted count is typically
    below `n`.
    """
    if n < 1:
        raise EmptyDomain(f"need n >= 1 draws, got {n}")
    if baths is None:
        baths = BathPair(2.0, 1.0)
    rng = np.random.default_rng(seed)
    lows = np.array([domain.omega[0], domain.omega_prime[0], domain.coupling[0]])
    highs = np.array([domain.omega[1], domain.omega_prime[1], domain.coupling[1]])
    draws = rng.uniform(lows, highs, size=(n, 3))
    omega, omega_prime, lam = draws.T

    valid = (omega > lam) & (omega_prime > lam) & (omega > 0) & (omega_prime > 0)
    qa = heats_arrays(MediumKind.SPIN, omega + lam, omega_prime + lam, baths.beta_h, baths.beta_c)
    qb = heats_arrays(MediumKind.SPIN, omega - lam, omega_prime - lam, baths.beta_h, baths.beta_c)
    w = qa[2] + qb[2]
    engine = REGIMES.index(Regime.ENGINE)
    keep = valid & (regime_codes(qa[0] + qb[0], qa[1] + qb[1], w)[0] == engine)

    idx = np.nonzero(keep)[0]
    if idx.size == 0:
        return []
    labels = np.array(REGIMES, dtype=object)
    regimes = [labels[regime_codes(qs[0][idx], qs[1][idx], qs[2][idx])[0]] for qs in (qa, qb)]

    c_h = concurrence_batch(
        thermal_state_batch(
            spin_pair_hamiltonian_batch(omega[idx], lam[idx], lam[idx]),
            np.full(idx.size, baths.beta_h),
        )
    )
    c_c = concurrence_batch(
        thermal_state_batch(
            spin_pair_hamiltonian_batch(omega_prime[idx], lam[idx], lam[idx]),
            np.full(idx.size, baths.beta_c),
        )
    )

    return [
        SampleRecord(
            omega=float(omega[i]),
            omega_prime=float(omega_prime[i]),
            lam=float(lam[i]),
            w_total=float(w[i]),
            c_h=float(c_h[j]),
            c_c=float(c_c[j]),
            regime_a=regimes[0][j],
            regime_b=regimes[1][j],
        )
        for j, i in enumerate(idx)
    ]
