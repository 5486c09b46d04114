"""Work-extraction optimization and the work-vs-concurrence sampler.

Every optimizer call is one derivative-free search, `_grid_refine`: the
best point of a dense rectangular grid, then coordinate-descent
refinement with step halving.  Each coordinate sweep is one array call
of the objective over every point the sweep could visit, walked in move
order, so the search takes the same first-improvement path as one call
per move.  The objective is cheap and smooth, so robustness beats
gradient machinery.  Everything is seeded and deterministic; the sampler
draws all parameters up front from one generator so the output order
never depends on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cycle import REGIMES, Regime, heats_arrays, regime_codes
from .entanglement import concurrence_batch, spin_pair_hamiltonian_batch, thermal_state_batch
from .errors import EmptyDomain, NumericalError
from .medium import BathPair, MediumKind, model_coupling, oscillator_mode_frequencies

__all__ = [
    "SearchDomain",
    "SampleColumns",
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
            if not 0.0 <= lo <= hi < math.inf:
                raise EmptyDomain(f"{name} range needs 0 <= lo <= hi < inf, got [{lo}, {hi}]")


@dataclass(frozen=True)
class SampleColumns:
    """`sample_engine_points` output: one array per column over the
    accepted draws of the coupled XX spin engine, in draw order.

    Regimes are int8 codes into `REGIMES`; ``len()`` is the number of
    accepted draws.
    """

    omega: np.ndarray
    omega_prime: np.ndarray
    lam: np.ndarray
    w_total: np.ndarray
    c_h: np.ndarray
    c_c: np.ndarray
    regime_a: np.ndarray
    regime_b: np.ndarray

    def __len__(self) -> int:
        return self.omega.shape[0]


def single_system_work(kind: MediumKind, omega, omega_prime, baths: BathPair):
    """Work of one uncoupled system per cycle; array-friendly, nan/inf where
    a frequency vanishes (never the maximum)."""
    return heats_arrays(kind, omega, omega_prime, baths.beta_h, baths.beta_c)[2]


def _finite_work(kind: MediumKind, baths: BathPair, omega, omega_prime):
    """`single_system_work` with -inf wherever it is not finite."""
    w = single_system_work(kind, omega, omega_prime, baths)
    return np.where(np.isfinite(w), w, -np.inf)


# np.hypot, not the math.hypot of medium.spin_mode_frequencies: ~4x faster on these grids
def _spin_grid_frequencies(omega, j_x, j_y):
    """Spin mode frequencies (w_a, w_b) over grids, nan where invalid."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        l_plus = 0.5 * (np.asarray(j_x, dtype=float) + j_y)
        l_minus = 0.5 * (np.asarray(j_x, dtype=float) - j_y)
        s = np.hypot(omega, l_minus)
        w_a = s + l_plus
        w_b = s - l_plus
    bad = ~((omega > 0) & (w_a > 0) & (w_b > 0))
    return np.where(bad, np.nan, w_a), np.where(bad, np.nan, w_b)


def coupled_total_work(kind: MediumKind, omega, omega_prime, cx, cy, baths: BathPair):
    """Total work of a coupled pair, -inf where the decomposition is invalid.

    `cx`, `cy` are (j_x, j_y) for spins and (lambda_x, lambda_p) for
    oscillators; `medium.model_coupling` maps a named model onto them.
    """
    freqs = _spin_grid_frequencies if kind is MediumKind.SPIN else oscillator_mode_frequencies
    wa_h, wb_h = freqs(omega, cx, cy)
    wa_c, wb_c = freqs(omega_prime, cx, cy)
    with np.errstate(invalid="ignore", over="ignore"):
        w = np.asarray(
            heats_arrays(kind, wa_h, wa_c, baths.beta_h, baths.beta_c)[2]
            + heats_arrays(kind, wb_h, wb_c, baths.beta_h, baths.beta_c)[2],
            dtype=float,
        )
    ok = np.isfinite(w) & (wa_h > 0) & (wb_h > 0) & (wa_c > 0) & (wb_c > 0)
    return np.where(ok, w, -np.inf)


def _grid_refine(work, box, resolution: int):
    """Maximize `work` over the closed `box`, one (lo, hi) range per axis;
    returns (x*, W*).

    `work` takes one broadcastable array per axis and returns -inf where a
    point is invalid.  The `resolution`-per-axis grid is evaluated one
    slice of the first axis at a time; its first maximum in C order seeds
    a pattern search whose first step is one grid cell, so the result is
    never worse than the grid's best.  The search is Hooke & Jeeves'
    exploratory move (J. ACM 8, 212, 1961): +step then -step on each axis
    in turn, clamped to the box, each accepted at once if it improves.
    One `work` call per sweep evaluates the sweep's whole decision tree,
    2^(2*dim) - 1 points, and walking it gives that path bit for bit.
    """
    if resolution < 2:
        raise EmptyDomain(f"resolution must be >= 2, got {resolution}")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    rest = np.ix_(*axes[1:])
    grid_best, best_idx = -np.inf, None
    for i, w in enumerate(axes[0]):
        vals = work(w, *rest)
        k = np.argmax(vals)
        if vals.flat[k] > grid_best:
            grid_best, best_idx = vals.flat[k], (i, *np.unravel_index(k, vals.shape))
    if best_idx is None:
        raise EmptyDomain(f"no valid point on the {resolution}-point grid over {box}")
    # pattern search: coordinate sweeps at a fixed step, halving the step
    # only when a full sweep brings no improvement.  Move k of a sweep
    # (axis k // 2, + then -) tries a point that depends only on which of
    # moves 0..k-1 were accepted, so level k of the tree holds 2^k
    # candidates; walking the levels in move order picks the ones the
    # sequential search would have tried.
    x = np.array([axis[k] for axis, k in zip(axes, best_idx)], dtype=float)
    best = float(work(*x))
    step = np.array([axis[1] - axis[0] for axis in axes])
    lo, hi = np.array(box, dtype=float).T
    moves = [(i, sign) for i in range(len(box)) for sign in (1.0, -1.0)]
    done = sweeps = 0
    while done < _REFINE_STEPS and sweeps < 200 * _REFINE_STEPS:
        sweeps += 1
        # states: every point the sweep can stand on before the next move,
        # rejected histories first, then the accepted ones
        states, levels = x[None, :], []
        for i, sign in moves:
            cand = states.copy()
            cand[:, i] = np.minimum(np.maximum(states[:, i] + sign * step[i], lo[i]), hi[i])
            levels.append(cand)
            states = np.concatenate((states, cand))
        vals = work(*np.concatenate(levels).T)
        # j: index of the current point among the states of this level
        j = start = 0
        improved = False
        for cand in levels:
            if vals[start + j] > best:
                best, j, improved = float(vals[start + j]), j + len(cand), True
            start += len(cand)
        x = states[j]
        if not improved:
            step *= 0.5
            done += 1
    if not best >= grid_best:
        raise NumericalError(f"refinement lost ground: {best!r} < grid value {grid_best!r}")
    return x, best


def max_uncoupled_work(
    kind: MediumKind,
    baths: BathPair,
    domain: SearchDomain = SearchDomain(),
    resolution: int = 400,
) -> tuple[float, float, float]:
    """Maximize the single-system work over (omega, omega').

    Returns (omega*, omega'*, W_single_max); the uncoupled pair optimum is
    twice the work value.
    """
    box = (domain.omega, domain.omega_prime)
    x, best = _grid_refine(partial(_finite_work, kind, baths), box, resolution)
    return float(x[0]), float(x[1]), float(best)


def max_coupled_work(
    kind: MediumKind,
    model: str,
    baths: BathPair,
    domain: SearchDomain = SearchDomain(),
    resolution: int = 60,
) -> tuple[tuple[float, ...], float]:
    """Maximize the coupled-pair total work over (omega, omega', coupling).

    xx and xy search one coupling axis, general two (cx, cy).  Returns
    ((omega*, omega'*, coupling*...), W_max); raises UnknownModel for any
    other model.
    """
    n_couplings = 2 if model == "general" else 1

    def work(omega, omega_prime, *coupling):
        cx, cy = model_coupling(model, *coupling)
        return coupled_total_work(kind, omega, omega_prime, cx, cy, baths)

    box = (domain.omega, domain.omega_prime) + (domain.coupling,) * n_couplings
    x, best = _grid_refine(work, box, resolution)
    return tuple(float(v) for v in x), float(best)


def sample_engine_points(
    seed: int,
    n: int,
    domain: SearchDomain,
    baths: BathPair,
) -> SampleColumns:
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
    rng = np.random.default_rng(seed)
    lows = np.array([domain.omega[0], domain.omega_prime[0], domain.coupling[0]])
    highs = np.array([domain.omega[1], domain.omega_prime[1], domain.coupling[1]])
    draws = rng.uniform(lows, highs, size=(n, 3))
    omega, omega_prime, lam = draws.T

    valid = (omega > lam) & (omega_prime > lam) & (omega > 0) & (omega_prime > 0)
    with np.errstate(over="ignore"):
        qa = heats_arrays(
            MediumKind.SPIN, omega + lam, omega_prime + lam, baths.beta_h, baths.beta_c
        )
    qb = heats_arrays(MediumKind.SPIN, omega - lam, omega_prime - lam, baths.beta_h, baths.beta_c)
    w = qa[2] + qb[2]
    engine = REGIMES.index(Regime.ENGINE)
    keep = valid & (regime_codes(qa[0] + qb[0], qa[1] + qb[1], w)[0] == engine)

    omega, omega_prime, lam = omega[keep], omega_prime[keep], lam[keep]
    c_h, c_c = (
        concurrence_batch(
            thermal_state_batch(spin_pair_hamiltonian_batch(om, lam, lam), np.full(lam.size, beta))
        )
        for om, beta in ((omega, baths.beta_h), (omega_prime, baths.beta_c))
    )
    regime_a, regime_b = (regime_codes(*(x[keep] for x in qs))[0] for qs in (qa, qb))
    return SampleColumns(omega, omega_prime, lam, w[keep], c_h, c_c, regime_a, regime_b)
