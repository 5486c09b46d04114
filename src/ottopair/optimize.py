"""Work-extraction optimization and the work-vs-concurrence sampler.

The uncoupled optimum is a point computed from the baths alone.  An
oscillator's work has no maximum: its supremum, (√T_h − √T_c)² per mode,
is approached only as omega, omega' -> 0 along omega'/omega = √(T_c/T_h)
(Kosloff & Rezek, Entropy 19, 136, 2017), and its point is on that ray
where it meets the supremum to rounding.  A spin's point is the best of
the curve on which the sum of its two stationarity equations holds, found
by a golden-section search.  By the paper's bound, the coupled optimum is
that point at zero coupling, twice the uncoupled work, over any box that
holds it.  The pair's work is one single-system work per normal mode, so
the check that no point beats it is made in mode space: the grid
(`_grid_best`) of `single_system_work` over the square of mode
frequencies that the box can reach holds no value above the uncoupled
optimum.  Any other box is searched without derivatives, `_grid_refine`:
a pattern search from the best point of the coupled grid that polls the
full 3^d stencil of moves in one objective call per sweep, with step
halving; a search that reaches its sweep cap is refused.  The coupled
grid is evaluated one slice of its last axis at a time, so that neither
half-cycle of a mode is computed over more points than its own frequency
and couplings span; the general model's work is symmetric in its two
couplings, so its grid is evaluated once per unordered coupling pair.
Everything is seeded and deterministic; the sampler takes its draws in
fixed chunks from one generator, so the output never depends on the
chunking, and attaches the closed-form concurrence of the XX Gibbs state
(`entanglement.xx_thermal_concurrence`), with no eigensolve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cycle import REGIMES, Regime, heats_arrays, regime_codes
from .entanglement import xx_thermal_concurrence
from .errors import DomainError, EmptyDomain, NumericalError
from .medium import (
    BathPair,
    MediumKind,
    model_coupling,
    oscillator_mode_frequencies,
    spin_mode_frequencies,
)

__all__ = [
    "SearchDomain",
    "SampleColumns",
    "single_system_work",
    "coupled_total_work",
    "max_uncoupled_work",
    "max_coupled_work",
    "oscillator_work_supremum",
    "sample_engine_points",
]

_REFINE_STEPS = 48  # halvings of the search step, each after a sweep without improvement
_DRAW_CHUNK = 1 << 14  # sampler draws evaluated at a time
# omega of the corner-limit point in units of T_h * sqrt(r): the work there
# falls short of the supremum by omega^2 / (12 T_h^2 r) of it, 1e-16 / 12
_LIMIT_SCALE = 1e-8
# the spin optimum's omega/T_h lies in [1.278, 2.400] for every T_c/T_h; the
# golden-section bracket (0, 8] shrinks by _GOLDEN a step, below an ulp in 80
_CURVE_MAX = 8.0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 80


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


def coupled_total_work(kind: MediumKind, omega, omega_prime, cx, cy, baths: BathPair):
    """Total work of a coupled pair, -inf where the work or a total heat is
    not finite, as where a mode is invalid (nan) or an oscillator mode
    underflows to 0 (0 * inf): `evaluate_cycles`' `valid`.

    `cx`, `cy` are (j_x, j_y) for spins and (lambda_x, lambda_p) for
    oscillators; `medium.model_coupling` maps a named model onto them.
    """
    freqs = spin_mode_frequencies if kind is MediumKind.SPIN else oscillator_mode_frequencies
    wa_h, wb_h = freqs(omega, cx, cy)
    wa_c, wb_c = freqs(omega_prime, cx, cy)
    qa = heats_arrays(kind, wa_h, wa_c, baths.beta_h, baths.beta_c)
    qb = heats_arrays(kind, wb_h, wb_c, baths.beta_h, baths.beta_c)
    with np.errstate(invalid="ignore", over="ignore"):
        w = np.asarray(qa[2] + qb[2], dtype=float)
        # a sum of two floats is finite only where both are, so the totals
        # cover every heat of both modes
        valid = np.isfinite(w) & np.isfinite(qa[0] + qb[0]) & np.isfinite(qa[1] + qb[1])
    # in place: np.where's new array took 1.2 MB more peak RSS on the 4-D spin grid
    np.copyto(w, -np.inf, where=~valid)
    return w


def _grid_best(work, box, resolution: int, symmetric: bool = False):
    """The first maximum in C order of `work` over the `resolution`-per-axis
    grid of the closed `box`; returns (axes, W, index of the point).

    It serves both grids of `max_coupled_work`: the 2-D square of mode
    frequencies that checks an anchored optimum, and the coupled grid from
    which a cut box is searched.  The grid is evaluated one slice of the
    last axis at a time, one `work` call per slice.  Each half-cycle of a
    coupled objective depends on one frequency and the couplings, so over
    (omega, couplings) and (omega', couplings) a slice costs
    `resolution`^(d - 2) points per side, and only their sum covers the
    whole slice.  Slices arrive in last-index order, so an equal value
    replaces the best only at an index earlier in C order.  `symmetric`
    declares `work` exactly symmetric in its last two axes, whose ranges
    must then be equal: slice l is evaluated only up to index l on the
    penultimate axis, which holds the first maximum, since a maximum at
    (..., k, l), k > l, has its mirror (..., l, k) earlier in C order.
    """
    if resolution < 2:
        raise EmptyDomain(f"resolution must be >= 2, got {resolution}")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    head = np.ix_(*axes[:-1])
    grid_best, best_idx = -np.inf, None
    for l, c in enumerate(axes[-1]):
        sub = (*head[:-1], head[-1][..., : l + 1]) if symmetric else head
        vals = work(*sub, c)
        k = np.argmax(vals)
        idx = (*np.unravel_index(k, vals.shape), l)
        if vals.flat[k] > grid_best or (
            vals.flat[k] == grid_best and best_idx is not None and idx < best_idx
        ):
            grid_best, best_idx = vals.flat[k], idx
    if best_idx is None:
        raise EmptyDomain(f"no valid point on the {resolution}-point grid over {box}")
    return axes, grid_best, best_idx


def _grid_refine(work, box, resolution: int, symmetric: bool = False):
    """Maximize `work` over the closed `box`, one (lo, hi) range per axis;
    returns (x*, W*).

    `work` takes one broadcastable array per axis and returns -inf where a
    point is invalid.  A pattern search with the full 3^d stencil (Kolda,
    Lewis & Torczon, SIAM Rev. 45, 385, 2003) runs from the first maximum
    in C order of the `resolution`-per-axis grid (`_grid_best`, which
    takes `symmetric`), with a first step of one grid cell: each sweep
    evaluates every x + s·step, s in {0, 1, -1}^d, clamped to the box, in
    one `work` call, and moves to the first best of them in stencil order
    if it beats x, or else halves the step.  The search stops after
    `_REFINE_STEPS` halvings; one that reaches its cap of 200 sweeps per
    halving first raises NumericalError, as its point is not a maximum.
    W* is `work` at x* alone, so it has the bits of a scalar evaluation,
    and is never below the grid's best.
    """
    axes, grid_best, best_idx = _grid_best(work, box, resolution, symmetric)
    x = np.array([axis[k] for axis, k in zip(axes, best_idx)])
    step = np.array([axis[1] - axis[0] for axis in axes])
    lo, hi = np.array(box, dtype=float).T
    stencil = np.array(list(itertools.product((0.0, 1.0, -1.0), repeat=len(box))))
    best = float(work(*x))
    done = sweeps = 0
    while done < _REFINE_STEPS:
        if sweeps == 200 * _REFINE_STEPS:
            raise NumericalError(
                f"pattern search hit its {sweeps}-sweep cap after {done} of {_REFINE_STEPS} "
                f"step halvings, at {x.tolist()} with work {best!r}"
            )
        sweeps += 1
        cands = np.clip(x + stencil * step, lo, hi)
        vals = work(*cands.T)
        k = np.argmax(vals)
        if vals[k] > best:
            x, best = cands[k], float(vals[k])
        else:
            step *= 0.5
            done += 1
    best = float(work(*x))
    if not best >= grid_best:
        raise NumericalError(f"refinement lost ground: {best!r} < grid value {grid_best!r}")
    return x, best


def oscillator_work_supremum(baths: BathPair) -> float:
    """(√T_h − √T_c)², the supremum of one oscillator mode's work per
    cycle; twice it bounds the work of a coupled pair.

    Formed from the betas the objective uses, as
    ((beta_c - beta_h) / (√beta_h + √beta_c) / √beta_h / √beta_c)², which
    takes no difference of near-equal square roots.
    """
    root_h, root_c = math.sqrt(baths.beta_h), math.sqrt(baths.beta_c)
    return ((baths.beta_c - baths.beta_h) / (root_h + root_c) / root_h / root_c) ** 2


def _tolerance(baths: BathPair, ceiling: float) -> float:
    """How far a work value may miss or pass the optimum `ceiling`: 1e-9
    of it, plus 4 eps/(1 - r) of it, r = √(T_c/T_h), for the heat
    bracket's cancellation between near-equal baths, where the oscillator
    limit point was measured within 1.75 eps/(1 - r) of it."""
    r = math.sqrt(baths.beta_h / baths.beta_c)
    eps = np.finfo(float).eps
    return abs(ceiling) * (1e-9 + 4.0 * eps / max(1.0 - r, eps))


def _spin_curve_optimum(baths: BathPair) -> tuple[float, float, float]:
    """The point (omega, omega') of the curve cosh(beta_c omega'/2) =
    √(beta_c/beta_h) cosh(beta_h omega/2) where the spin work W is
    largest, and W: a golden-section search of `_GOLDEN_STEPS` steps over
    x = beta_h omega in (0, `_CURVE_MAX`], capped where omega would
    overflow.  W is homogeneous of degree 1 in the frequencies and
    temperatures, so the best x depends on T_c/T_h alone; the search takes
    no ratio of the betas, which can overflow.  A W that is not positive
    while T_h > T_c, or a search that ends at the cap, raises NumericalError."""
    root = math.sqrt(baths.beta_c) / math.sqrt(baths.beta_h)

    def point(x):
        return x / baths.beta_h, 2.0 * math.acosh(root * math.cosh(0.5 * x)) / baths.beta_c

    def work(x):
        return float(single_system_work(MediumKind.SPIN, *point(x), baths))

    top = min(_CURVE_MAX, float(np.finfo(float).max) * baths.beta_h)
    lo, hi, c, d = 0.0, top, top - _GOLDEN * top, _GOLDEN * top
    wc, wd = work(c), work(d)
    for _ in range(_GOLDEN_STEPS):
        if wc >= wd:
            hi, d, wd = d, c, wc
            c = hi - _GOLDEN * (hi - lo)
            wc = work(c)
        else:
            lo, c, wc = c, d, wd
            d = lo + _GOLDEN * (hi - lo)
            wd = work(d)
    omega, omega_prime = point(x := c if wc >= wd else d)
    w = float(single_system_work(MediumKind.SPIN, omega, omega_prime, baths))
    if x > top * (1.0 - 1e-6) or baths.beta_h < baths.beta_c and not w > 0.0:
        raise NumericalError(
            f"the uncoupled optimum at omega = {omega!r}, omega' = {omega_prime!r} has work {w!r},"
            f" with omega at most {top / baths.beta_h!r}"
        )
    return omega, omega_prime, w


def max_uncoupled_work(kind: MediumKind, baths: BathPair) -> tuple[float, float, float]:
    """The single-system optimum over all frequencies, a point computed
    from the baths alone: (omega*, omega'*, W_single_max), the work being
    `single_system_work` there; the uncoupled pair optimum is twice it.

    An oscillator's point lies on the limiting ray omega'/omega = r =
    √(T_c/T_h) at omega = `_LIMIT_SCALE`·T_h·√r; a point whose work misses
    `oscillator_work_supremum` by more than `_tolerance` raises
    NumericalError.  A spin's optimum solves both stationarity equations,
    whose sum is the curve of `_spin_curve_optimum`.
    """
    if kind is MediumKind.SPIN:
        return _spin_curve_optimum(baths)
    r = math.sqrt(baths.beta_h / baths.beta_c)
    omega = _LIMIT_SCALE * math.sqrt(r) / baths.beta_h
    w = float(single_system_work(kind, omega, omega * r, baths))
    sup = oscillator_work_supremum(baths)
    if not abs(w - sup) <= _tolerance(baths, sup):
        raise NumericalError(
            f"the limit point {[omega, omega * r]} gives work {w!r}, not the supremum {sup!r}"
        )
    return omega, omega * r, w


def _mode_square(domain: SearchDomain) -> tuple[tuple[float, float], ...]:
    """[0, omega_hi + c_hi] x [0, omega'_hi + c_hi], each side clamped at
    the largest float: the square that holds every (hot, cold) pair of
    mode frequencies of a box, c_hi being its coupling range's top.

    The couplings are not negative, so every mode frequency at omega lies
    in [0, omega + c_hi]:
      - spin xx: omega +- c;
      - spin xy: hypot(omega, c) <= omega + c;
      - spin general: s +- l+, s = hypot(omega, l-), l+- = (cx +- cy)/2,
        where s + l+ <= omega + |l-| + l+ = omega + max(cx, cy);
      - oscillator xx and general: sqrt((omega + lp)(omega + lx)) <=
        omega + max(lx, lp) and sqrt((omega - lp)(omega - lx)) <= omega;
      - oscillator xy: sqrt(omega^2 - c^2) <= omega.
    """
    top, c_hi = float(np.finfo(float).max), domain.coupling[1]
    return tuple((0.0, min(hi + c_hi, top)) for hi in (domain.omega[1], domain.omega_prime[1]))


def max_coupled_work(
    kind: MediumKind,
    model: str,
    baths: BathPair,
    domain: SearchDomain = SearchDomain(),
    resolution: int = 60,
    uncoupled: tuple[float, float, float] | None = None,
) -> tuple[tuple[float, ...], float]:
    """Maximize the coupled-pair total work over (omega, omega', coupling).

    xx and xy search one coupling axis, general two (cx, cy).  Returns
    ((omega*, omega'*, coupling*...), W_max); raises UnknownModel for any
    other model.  By the paper's bound the ceiling is twice the work W* of
    `max_uncoupled_work` (or of `uncoupled`, its result), met exactly at
    its point at zero coupling, the anchor (an oscillator's first moves
    along its ray into the box, where the work near the origin is the
    supremum all along).  A box that holds the anchor returns it; any
    other box is searched (`_grid_refine`), and an optimum above the
    ceiling by more than `_tolerance` raises NumericalError.  One above it
    by less is rounding, and W_max is then the ceiling.  An anchor whose
    work misses the ceiling by more raises too, and so does a searched
    optimum that is not positive in a box from the origin while T_h > T_c,
    where the box is so much smaller than the anchor that the work in it
    underflows.

    The anchor is checked in mode space.  The pair's work is W(a, a') +
    W(b, b'), one single-system work per normal mode, so no point of the
    box beats 2W* unless a pair of mode frequencies it reaches has
    W > W*.  The grid (`_grid_best`) of `single_system_work`, -inf where
    not finite, over `_mode_square`, which holds every such pair, must
    hold no value above W* by more than `_tolerance(baths, W*)`, half the
    pair's; one that does raises NumericalError, and a square with no
    valid point raises EmptyDomain, as does a grid with resolution < 2.
    The square has 2*resolution - 1 points per axis: a side spans at most
    twice the longer of the two ranges it sums, which the coupled grid
    cuts into resolution - 1 cells, so over a box from the origin (every
    box of the CLI) the square's cell is no coarser than the coupled
    grid's coarser cell of the two, and over the default box it is the
    coupled grid's cell.
    """
    n_couplings = 2 if model == "general" else 1

    def work(omega, omega_prime, *coupling):
        cx, cy = model_coupling(model, *coupling)
        return coupled_total_work(kind, omega, omega_prime, cx, cy, baths)

    def mode_work(a, a_prime):
        w = single_system_work(kind, a, a_prime, baths)
        return np.where(np.isfinite(w), w, -np.inf)

    box = (domain.omega, domain.omega_prime) + (domain.coupling,) * n_couplings
    omega, omega_prime, w_single = uncoupled or max_uncoupled_work(kind, baths)
    ceiling = 2.0 * w_single
    tol = _tolerance(baths, ceiling)
    if kind is MediumKind.OSCILLATOR:
        r = math.sqrt(baths.beta_h / baths.beta_c)
        omega = min(omega, box[0][1], box[1][1] / r)
        omega_prime = min(omega * r, box[1][1])  # rounding of hi / r
    anchor = np.array([omega, omega_prime] + [0.0] * n_couplings)
    held = all(lo <= v <= hi for v, (lo, hi) in zip(anchor, box))
    if held:
        single = _grid_best(mode_work, _mode_square(domain), 2 * resolution - 1)[1]
        if single > w_single + _tolerance(baths, w_single):
            raise NumericalError(
                f"the single-system work {single!r} found in mode space beats the work supremum "
                f"{w_single!r}"
            )
        x, best = anchor, float(work(*anchor))
        if not (math.isfinite(best) and abs(best - ceiling) <= tol):
            raise NumericalError(
                f"the anchor {anchor.tolist()} gives work {best!r}, not the supremum {ceiling!r}"
            )
    else:
        # the general model's mode frequencies are symmetric in (cx, cy) bit
        # for bit, so its grid is evaluated once per unordered coupling pair
        x, best = _grid_refine(work, box, resolution, model == "general")
        if best > ceiling + tol:
            raise NumericalError(f"the work {best!r} found beats the work supremum {ceiling!r}")
        if all(lo == 0.0 for lo, _ in box) and baths.beta_h < baths.beta_c and not best > 0.0:
            raise NumericalError(
                f"the optimum found has work {best!r}, yet the box holds positive work: it "
                f"underflows in a box this small; a --domain-max of at least {omega!r} holds "
                f"the optimum"
            )
    return tuple(float(v) for v in x), min(best, ceiling)


def _engine_columns(draws: np.ndarray, baths: BathPair) -> tuple[np.ndarray, ...]:
    """The `SampleColumns` fields of the engine draws among `draws`, one
    (omega, omega', lambda) triple per row.  Both points decouple by
    `spin_mode_frequencies` at j_x = j_y = lambda, whose nan marks an
    invalid draw: its heats are nan, so it is never an engine."""
    omega, omega_prime, lam = draws.T
    hot, cold = (spin_mode_frequencies(x, lam, lam) for x in (omega, omega_prime))
    qa, qb = (heats_arrays(MediumKind.SPIN, *f, baths.beta_h, baths.beta_c) for f in zip(hot, cold))
    del hot, cold  # four frequency arrays a chunk; only their heats are kept
    w = qa[2] + qb[2]
    engine = REGIMES.index(Regime.ENGINE)
    keep = regime_codes(qa[0] + qb[0], qa[1] + qb[1], w)[0] == engine

    omega, omega_prime, lam = omega[keep], omega_prime[keep], lam[keep]
    # the closed form builds no Hamiltonian, but where the pair's top level
    # 3 omega overflows, the heats have long lost their digits
    top = float(max(omega.max(initial=0.0), omega_prime.max(initial=0.0)))
    if not math.isfinite(3.0 * top):
        raise DomainError(
            f"sampled frequency {top!r} puts the top level 3*omega past the float range"
        )
    c_h = xx_thermal_concurrence(omega, lam, baths.beta_h)
    c_c = xx_thermal_concurrence(omega_prime, lam, baths.beta_c)
    regime_a, regime_b = (regime_codes(*(x[keep] for x in qs))[0] for qs in (qa, qb))
    return omega, omega_prime, lam, w[keep], c_h, c_c, regime_a, regime_b


def _engine_chunks(seed: int, n: int, domain: SearchDomain, baths: BathPair):
    """The `_engine_columns` of `n` draws from the domain, one tuple per
    `_DRAW_CHUNK` draws in draw order, taken from one seeded generator:
    ``rng.uniform(size=(k, 3))`` is row-major, so any chunk size gives the
    numbers of one draw of all `n`.  At 2^14 draws a chunk's float
    temporaries are 128 kB each, and the CLI writes a chunk's rows before
    it draws the next."""
    rng = np.random.default_rng(seed)
    lows = np.array([domain.omega[0], domain.omega_prime[0], domain.coupling[0]])
    highs = np.array([domain.omega[1], domain.omega_prime[1], domain.coupling[1]])
    for start in range(0, n, _DRAW_CHUNK):
        draws = rng.uniform(lows, highs, size=(min(_DRAW_CHUNK, n - start), 3))
        yield _engine_columns(draws, baths)


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
    and attaches the concurrences of the two thermal states, in closed
    form (`entanglement.xx_thermal_concurrence`).  A kept draw whose top
    level 3 omega (or 3 omega') overflows raises DomainError.  The draws
    are taken and evaluated `_DRAW_CHUNK` (2^14) at a time by
    `_engine_chunks`, which gives the same numbers as one draw of all `n`,
    and the accepted rows of the chunks are joined in draw order; so
    memory grows with the accepted count, not with `n`.  The accepted
    count is typically below `n`.  The CLI writes the chunks as they come
    instead of joining them.
    """
    if n < 1:
        raise EmptyDomain(f"need n >= 1 draws, got {n}")
    return SampleColumns(*map(np.concatenate, zip(*_engine_chunks(seed, n, domain, baths))))
