import itertools
import math
import re
import warnings
from dataclasses import fields
from decimal import Decimal, localcontext
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import ottopair.optimize as optimize
from ottopair.cycle import (
    REGIMES,
    Regime,
    evaluate_cycle,
    evaluate_cycles,
    heats_arrays,
    regime_codes,
)
from ottopair.entanglement import xx_thermal_concurrence
from ottopair.errors import EmptyDomain, NumericalError, UnknownModel
from ottopair.medium import (
    BathPair,
    MediumKind,
    model_coupling,
    oscillator_mode_frequencies,
    spin_mode_frequencies,
    standard_cycle,
)
from ottopair.optimize import (
    SampleColumns,
    SearchDomain,
    _grid_best,
    _grid_refine,
    coupled_total_work,
    max_coupled_work,
    max_uncoupled_work,
    oscillator_work_supremum,
    sample_engine_points,
    single_system_work,
)

OSC = MediumKind.OSCILLATOR
SPIN = MediumKind.SPIN
BATHS = BathPair(2.0, 1.0)


def _finite_work(kind, baths, omega, omega_prime):
    """`single_system_work` as a search objective: -inf where it is not
    finite."""
    w = single_system_work(kind, omega, omega_prime, baths)
    return np.where(np.isfinite(w), w, -np.inf)


def _dense_grid_spin_max(n=2000):
    # independent brute force: W = (w - w')/2 (tanh(w'/2Tc) - tanh(w/2Th))
    w = np.linspace(0.0, 10.0, n)
    wp = np.linspace(0.0, 10.0, n)
    work = 0.5 * (w[:, None] - wp[None, :]) * (
        np.tanh(wp[None, :] / 2.0) - np.tanh(w[:, None] / 4.0)
    )
    i, j = np.unravel_index(np.argmax(work), work.shape)
    return w[i], wp[j], work[i, j]


def test_search_domain_validation():
    with pytest.raises(EmptyDomain):
        SearchDomain(omega=(5.0, 1.0))
    with pytest.raises(EmptyDomain):
        SearchDomain(coupling=(-1.0, 1.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(EmptyDomain):
            SearchDomain(omega_prime=(0.0, bad))
    with pytest.raises(EmptyDomain):
        max_coupled_work(SPIN, "xx", BATHS, SearchDomain(), resolution=1)


def test_search_with_no_valid_grid_point_raises():
    # every coupling exceeds every frequency, so no oscillator mode is stable
    box = SearchDomain(omega=(0.0, 1.0), omega_prime=(0.0, 1.0), coupling=(2.0, 3.0))
    with pytest.raises(EmptyDomain):
        max_coupled_work(OSC, "xx", BATHS, box, resolution=5)


def test_max_coupled_work_rejects_unknown_model():
    with pytest.raises(UnknownModel):
        max_coupled_work(SPIN, "bogus", BATHS, SearchDomain(), resolution=4)


def test_max_uncoupled_work_matches_dense_grid_oracle():
    gw, gwp, gval = _dense_grid_spin_max()
    w_star, wp_star, w_max = max_uncoupled_work(SPIN, BATHS)
    assert w_max >= gval  # the stationarity-curve point at least reaches the dense grid value
    assert w_max == pytest.approx(gval, abs=2e-6)
    assert w_star == pytest.approx(gw, abs=0.02)
    assert wp_star == pytest.approx(gwp, abs=0.02)


def test_oscillator_beats_spin_work():
    _, _, w_os = max_uncoupled_work(OSC, BATHS)
    _, _, w_sp = max_uncoupled_work(SPIN, BATHS)
    assert w_os >= w_sp


def test_degenerate_baths_give_no_work():
    # equal temperatures: engine region is empty, optimum collapses to ~0
    flat = SimpleNamespace(beta_h=1.0, beta_c=1.0)
    _, _, w_max = max_uncoupled_work(SPIN, flat)
    assert abs(w_max) < 1e-12


def test_max_coupled_work_spin_xx_optimum_at_zero_coupling():
    params, w_max = max_coupled_work(SPIN, "xx", BATHS, SearchDomain(), resolution=50)
    _, _, w_single = max_uncoupled_work(SPIN, BATHS)
    assert params[2] == 0.0
    assert w_max == 2.0 * w_single


def test_max_coupled_work_spin_xy_equality_case():
    # both modes degenerate: tuning lambda can place them exactly at the
    # single-system optimum, so the bound is saturated
    params, w_max = max_coupled_work(SPIN, "xy", BATHS, SearchDomain(), resolution=50)
    _, _, w_single = max_uncoupled_work(SPIN, BATHS)
    assert w_max == pytest.approx(2.0 * w_single, rel=1e-7)


def _sequential_grid_refine(work, box, resolution):
    """Reference pattern search with one scalar `work` call per move.

    The grid seed is found by its own loop over slices of the first axis,
    an independent reference for `_grid_best`, which slices the last axis
    (and, for a symmetric objective, half of it); then sweeps that try
    x + s·step for every s in {0, 1, -1}^d in turn, clamp the candidate
    to the box, and move to the first best of them if it beats x, or else
    halve the step.  Returns (x, W, sweeps, clamped), W being `work` at x
    and `clamped` holding "lo"/"hi" for every bound a candidate was
    clamped to.
    """
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    rest = np.ix_(*axes[1:])
    grid_best, best_idx = -np.inf, None
    for i, w in enumerate(axes[0]):
        vals = work(w, *rest)
        k = np.argmax(vals)
        if vals.flat[k] > grid_best:
            grid_best, best_idx = vals.flat[k], (i, *np.unravel_index(k, vals.shape))
    x = [float(axis[k]) for axis, k in zip(axes, best_idx)]
    best = float(work(*x))
    step = [float(axis[1] - axis[0]) for axis in axes]
    done = sweeps = 0
    clamped = set()
    while done < 48 and sweeps < 200 * 48:
        sweeps += 1
        top, top_x = -math.inf, None
        for signs in itertools.product((0.0, 1.0, -1.0), repeat=len(box)):
            cand = []
            for v, s, h, (lo, hi) in zip(x, signs, step, box):
                raw = v + s * h
                if raw < lo:
                    clamped.add("lo")
                elif raw > hi:
                    clamped.add("hi")
                cand.append(min(max(raw, lo), hi))
            val = float(work(*cand))
            if val > top:
                top, top_x = val, cand
        if top > best:
            best, x = top, top_x
        else:
            step = [h * 0.5 for h in step]
            done += 1
    return np.array(x), float(work(*x)), sweeps, clamped


def _coupled_objective(kind, model):
    def work(omega, omega_prime, *coupling):
        return coupled_total_work(kind, omega, omega_prime, *model_coupling(model, *coupling), BATHS)

    return work


@pytest.mark.parametrize(
    "work, box, resolution, clamps, capped",
    [
        # runs to the sweep cap toward omega, omega' -> 0
        (partial(_finite_work, OSC, BATHS), ((0.0, 10.0),) * 2, 40, set(), True),
        # omega >= 1 keeps the optimum on a face, so the search converges
        (_coupled_objective(OSC, "xx"), ((1.0, 10.0), (0.0, 10.0), (0.0, 10.0)), 12, {"lo"},
         False),
        (_coupled_objective(SPIN, "general"), ((0.0, 10.0),) * 4, 8, {"lo"}, False),
        # the spin optimum has omega ~ 4 and zero coupling: clamped at hi and at 0
        (_coupled_objective(SPIN, "xx"), ((0.0, 3.0), (0.0, 10.0), (0.0, 1.0)), 10, {"lo", "hi"},
         False),
    ],
    ids=["osc-uncoupled", "osc-xx", "spin-general", "narrow-box"],
)
def test_grid_refine_follows_the_sequential_path(work, box, resolution, clamps, capped):
    # the search must take the reference's path bit for bit, at one call
    # per grid slice, one for the seed point, one per sweep and one for the
    # end point; a search that runs to the sweep cap is refused instead
    x_ref, w_ref, sweeps, clamped = _sequential_grid_refine(work, box, resolution)
    assert clamps <= clamped
    calls = []

    def counted(*args):
        calls.append(None)
        return work(*args)

    assert (sweeps == 200 * 48) is capped
    if capped:
        with pytest.raises(NumericalError, match="9600-sweep cap"):
            _grid_refine(counted, box, resolution)
        return
    x, w = _grid_refine(counted, box, resolution)
    assert w == w_ref
    assert x.tolist() == x_ref.tolist()
    assert len(calls) == resolution + 1 + sweeps + 1


def _full_grid_best(work, box, resolution):
    """(W, index) of the first maximum in C order of the whole grid,
    evaluated one first-axis slice at a time and searched at once."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    grid = np.stack([work(w, *np.ix_(*axes[1:])) for w in axes[0]])
    k = np.argmax(grid)
    return grid.flat[k], tuple(int(i) for i in np.unravel_index(k, grid.shape)), grid


def _objective(kind, model, baths):
    if model == "uncoupled":
        return partial(_finite_work, kind, baths), 2

    def work(omega, omega_prime, *coupling):
        return coupled_total_work(kind, omega, omega_prime, *model_coupling(model, *coupling), baths)

    return work, 4 if model == "general" else 3


@pytest.mark.parametrize("kind", [SPIN, OSC], ids=["spin", "osc"])
@pytest.mark.parametrize("model", ["xx", "xy", "general", "uncoupled"])
@pytest.mark.parametrize("t_h, t_c, hi", [(2.0, 1.0, 10.0), (3.7, 0.2, 10.0), (5.0, 4.9, 10.0),
                                          (2.0, 1.0, 1.0)])
def test_grid_best_is_the_first_maximum_of_the_full_grid(kind, model, t_h, t_c, hi):
    # slices of the last axis, and for the general model half of them, give
    # the value and index a whole first-axis evaluation gives; one call per slice
    work, dim = _objective(kind, model, BathPair(t_h, t_c))
    box, resolution = ((0.0, hi),) * dim, {2: 60, 3: 20, 4: 10}[dim]
    calls = []

    def counted(*args):
        calls.append(np.broadcast(*args).size)
        return work(*args)

    _, w, idx = _grid_best(counted, box, resolution, symmetric=model == "general")
    w_ref, idx_ref, grid = _full_grid_best(work, box, resolution)
    assert (w, tuple(int(i) for i in idx)) == (w_ref, idx_ref)
    assert len(calls) == resolution
    if model == "general":
        # one evaluation per unordered coupling pair
        assert sum(calls) == resolution**3 * (resolution + 1) // 2
        assert np.array_equal(grid, grid.swapaxes(2, 3))
        if (kind, t_h, hi) == (SPIN, 2.0, 1.0):
            # the exact tie W(0, 1) = W(1, 0): the first maximum has cx = 0
            i, j, k, l = idx_ref
            assert k == 0 < l and grid[i, j, l, k] == w


@pytest.mark.parametrize("kind", [SPIN, OSC], ids=["spin", "osc"])
def test_general_model_grid_is_evaluated_once_per_unordered_coupling_pair(monkeypatch, kind):
    sizes = []

    def counted(kind, *args):
        sizes.append(np.broadcast(*args[:4]).size)
        return coupled_total_work(kind, *args)

    # a box that cuts the anchor is searched from the coupled grid, whose
    # first 8 calls are its slices
    monkeypatch.setattr(optimize, "coupled_total_work", counted)
    box = SearchDomain(coupling=(1.0, 2.0))
    max_coupled_work(kind, "general", BATHS, box, resolution=8)
    assert sum(sizes[:8]) == 8**3 * 9 // 2
    sizes.clear()
    # one coupling axis: every grid point (xy's search of this oscillator box
    # hits its sweep cap, so xx stands for the one-coupling models)
    max_coupled_work(kind, "xx", BATHS, box, resolution=8)
    assert sum(sizes[:8]) == 8**3


@pytest.mark.parametrize("kind", [SPIN, OSC], ids=["spin", "osc"])
def test_coupled_total_work_is_symmetric_in_the_two_couplings(kind):
    # the normal-mode frequencies do not change when (cx, cy) swap, bit for
    # bit, also where a mode is invalid and near the stability edge
    rng = np.random.default_rng(7)
    n = 100_000
    omega, omega_prime = rng.uniform(0.0, 10.0, (2, n))
    a, b = rng.uniform(-10.0, 10.0, (2, n))
    edge = np.maximum(np.abs(a), np.abs(b)) if kind is OSC else np.sqrt(np.abs(a * b))
    near = rng.random(n) < 0.5
    omega = np.where(near, edge * (1.0 + rng.uniform(-1e-9, 1e-9, n)), omega)
    omega_prime = np.where(near & (rng.random(n) < 0.5), edge, omega_prime)
    w = coupled_total_work(kind, omega, omega_prime, a, b, BATHS)
    assert np.array_equal(w, coupled_total_work(kind, omega, omega_prime, b, a, BATHS))
    valid = np.isfinite(w)
    assert 0.1 * n < valid.sum() < 0.9 * n and (w[~valid] == -np.inf).all()
    assert np.isfinite(w[near]).any() and (w[near] == -np.inf).any()


_FMAX = np.finfo(float).max
# bath pairs from both ends of the float range: at (2e-323, 5e-324) both
# betas overflow to inf, and at T_h = 1e308 an oscillator's heat total does
_EXTREME_BATHS = [
    BathPair(2.0, 1.0), BathPair(1.0000001, 1.0), BathPair(1e-300, 5e-301),
    BathPair(1e300, 1e-300), BathPair(1e308, 1.0), BathPair(2e-323, 5e-324),
]


def _magnitudes(rng, n):
    """n magnitudes, about a fifth each: 0, subnormals, log-uniform over
    [1e-307, 1e-3] and over [1e-3, 1e3], and from 1e-305 times the largest
    float up to it (a tenth of these 0)."""
    return np.choose(rng.integers(0, 5, n), [
        np.zeros(n),
        rng.integers(1, 1 << 52, n) * 5e-324,
        10.0 ** rng.uniform(-307.0, -3.0, n),
        10.0 ** rng.uniform(-3.0, 3.0, n),
        _FMAX * 10.0 ** -rng.uniform(0.0, 305.0, n) * (rng.random(n) < 0.9),
    ])


def _couplings(rng, edge, n):
    """n signed couplings: half at `edge` or one or two ulps inside it,
    half `_magnitudes`."""
    inside = edge * (1.0 - rng.integers(0, 3, n) * 2.0**-52)
    return np.where(rng.random(n) < 0.5, inside, _magnitudes(rng, n)) * rng.choice([-1.0, 1.0], n)


def _extreme_cycles(n=20_000):
    """(kind, baths, omega, omega', cx, cy) of n seeded extreme draws for
    each medium, coupling model and bath pair of `_EXTREME_BATHS`, the
    couplings at the stability edge of the smaller frequency."""
    rng = np.random.default_rng(2024)
    models = ("xx", "xy", "general")
    for baths, kind, model in itertools.product(_EXTREME_BATHS, MediumKind, models):
        omega, omega_prime = _magnitudes(rng, n), _magnitudes(rng, n)
        edge = np.minimum(omega, omega_prime)
        values = [_couplings(rng, edge, n) for _ in range(2 if model == "general" else 1)]
        yield kind, baths, omega, omega_prime, *model_coupling(model, *values)


def test_array_kernels_warn_nothing_on_extreme_draws():
    # no numpy warning reaches stderr: every floating-point error that a
    # kernel meets is one it means to meet, and silences
    rng = np.random.default_rng(7)
    n = 20_000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, baths, omega, omega_prime, cx, cy in _extreme_cycles():
            evaluate_cycles(kind, omega, omega_prime, (cx, cy), (cx, cy), baths)
            coupled_total_work(kind, omega, omega_prime, cx, cy, baths)
        beta = np.append(_magnitudes(rng, n - 1), np.inf)
        for kind in MediumKind:
            heats_arrays(kind, _magnitudes(rng, n), _magnitudes(rng, n), beta, beta[::-1])
        omega = _magnitudes(rng, n)
        oscillator_mode_frequencies(omega, _couplings(rng, omega, n), _couplings(rng, omega, n))
        spin_mode_frequencies(omega, _couplings(rng, omega, n), _couplings(rng, omega, n))
        xx_thermal_concurrence(omega, _couplings(rng, omega, n), beta)


def test_coupled_total_work_is_minus_inf_exactly_where_evaluate_cycles_refuses():
    # the objective's one validity rule, a finite work, is `evaluate_cycles`'
    # `valid`, and its work is `w_total` bit for bit: an optimum's `w_max`
    # is the work `cycle` prints at its params
    valid = draws = 0
    for kind, baths, omega, omega_prime, cx, cy in _extreme_cycles():
        c = evaluate_cycles(kind, omega, omega_prime, (cx, cy), (cx, cy), baths)
        w = coupled_total_work(kind, omega, omega_prime, cx, cy, baths)
        valid, draws = valid + c.valid.sum(), draws + w.size
        assert w[c.valid].tobytes() == c.w_total[c.valid].tobytes()
        # also where the work is finite but a heat total overflows, which a
        # bath near the largest float reaches
        assert (w[~c.valid] == -np.inf).all()
    assert 0.1 * draws < valid < 0.9 * draws


def _planted(points):
    """An objective on the integer grid, 1 at each of `points` and 0
    elsewhere."""
    def work(*x):
        hit = np.zeros(np.broadcast(*x).shape, dtype=bool)
        for p in points:
            hit |= np.all(np.broadcast_arrays(*(xi == pi for xi, pi in zip(x, p))), axis=0)
        return np.where(hit, 1.0, 0.0)

    return work


@pytest.mark.parametrize("points, symmetric, expected", [
    # the first slice holds (1, 0, 0); the last holds (0, 3, 3), earlier in C order
    ([(1, 0, 0), (0, 3, 3)], False, (0, 3, 3)),
    ([(0, 3, 3), (1, 0, 0)], False, (0, 3, 3)),
    ([(2, 1, 2), (2, 1, 3)], False, (2, 1, 2)),
    # a mirrored pair: the half grid holds only (.., 0, 3)
    ([(1, 2, 3, 0), (1, 2, 0, 3)], True, (1, 2, 0, 3)),
    # two mirrored pairs in different slices of the half grid
    ([(3, 0, 1, 1), (0, 3, 2, 3), (0, 3, 3, 2)], True, (0, 3, 2, 3)),
])
def test_grid_best_keeps_the_first_maximum_across_slices(points, symmetric, expected):
    dim = len(points[0])
    _, w, idx = _grid_best(_planted(points), ((0.0, 3.0),) * dim, 4, symmetric)
    assert (w, tuple(int(i) for i in idx)) == (1.0, expected)
    assert _full_grid_best(_planted(points), ((0.0, 3.0),) * dim, 4)[:2] == (1.0, expected)


@pytest.mark.parametrize("symmetric", [False, True])
def test_grid_with_no_valid_point_raises(symmetric):
    def invalid(*x):
        return np.full(np.broadcast(*x).shape, -np.inf)

    with pytest.raises(EmptyDomain):
        _grid_best(invalid, ((0.0, 1.0),) * 4, 5, symmetric)


@pytest.mark.parametrize("model", ["uncoupled", "xx", "general"])
@pytest.mark.parametrize("t_h, t_c", [(1e-10, 5e-11), (1e-3, 5e-4), (1e-300, 1e-301)])
def test_zero_spin_optimum_is_refused(monkeypatch, model, t_h, t_c):
    # however small T_h, the optimum is a point at omega ~ 2 T_h, which the
    # default box holds; an optimum of 0 is refused, not printed
    baths = BathPair(t_h, t_c)
    omega, _, w_single = max_uncoupled_work(SPIN, baths)
    assert w_single > 0.0 and omega < 3.0 * t_h
    if model == "uncoupled":
        monkeypatch.setattr(optimize, "single_system_work", lambda kind, o, op, b: 0.0 * o)
        with pytest.raises(NumericalError, match=r"uncoupled optimum .* has work 0\.0"):
            max_uncoupled_work(SPIN, baths)
        return
    assert max_coupled_work(SPIN, model, baths, SearchDomain(), resolution=6)[1] == 2.0 * w_single
    # in a box of side s << omega the work, ~ s^2 / T_h = 1e-340 here,
    # underflows to 0 though T_h > T_c leaves positive work: the refusal
    # names the box that holds the optimum
    side = (0.0, 1e-170 * math.sqrt(t_h))
    hint = rf"work 0\.0, .*--domain-max of at least {re.escape(repr(omega))} holds the optimum"
    with pytest.raises(NumericalError, match=hint):
        max_coupled_work(SPIN, model, baths, SearchDomain(side, side, side), resolution=6)


@pytest.mark.parametrize("q", [1e-9, 1e-3, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-5, 1.0 - 1e-7])
def test_spin_optimum_is_the_stationarity_curve_point(q):
    # at T_h = 1 the optimum reaches the best point of a dense grid of the
    # engine wedge T_c/T_h < omega'/omega < 1, its ratio spaced as q^t to
    # resolve the wedge at any q, and solves both stationarity equations
    # in long double
    baths = BathPair(1.0, q)
    omega, omega_prime, w = max_uncoupled_work(SPIN, baths)
    x = np.linspace(0.0, 8.0, 801)[1:, None]
    t = np.linspace(0.0, 1.0, 801)[None, 1:-1]
    grid_best = single_system_work(SPIN, x, x * q**t, baths).max()
    assert grid_best <= w + optimize._tolerance(baths, w)
    assert w <= grid_best * (1.0 + 1e-4)
    ld = np.longdouble
    b_h, b_c, o, o_p = ld(baths.beta_h), ld(baths.beta_c), ld(omega), ld(omega_prime)
    a, b = np.tanh(b_h * o / 2), np.tanh(b_c * o_p / 2)
    half = (b - a) / 2
    d_omega = half - (o - o_p) / 2 * b_h / 2 * (1 - a * a)
    d_omega_prime = -half + (o - o_p) / 2 * b_c / 2 * (1 - b * b)
    # the search fixes omega to the square root of the work's rounding, which
    # grows as 1/(1 - q) between near-equal baths
    tol = 2e-7 / math.sqrt(1.0 - q)
    assert abs(float(d_omega / half)) < tol and abs(float(d_omega_prime / half)) < tol
    # their sum, the curve, holds to rounding
    curve = np.sqrt(b_c / b_h) * np.cosh(b_h * o / 2)
    assert abs(float(np.cosh(b_c * o_p / 2) / curve - 1)) < 1e-12


@pytest.mark.parametrize("t_h, t_c", [(1e308, 1.0), (1e308, 1e-300), (7e307, 6e307)])
def test_spin_optimum_near_the_largest_float(t_h, t_c):
    # omega* = x* T_h with x* in [1.278, 2.400] stays finite here; the curve
    # search's bracket stops where omega would overflow
    omega, omega_prime, w = max_uncoupled_work(SPIN, BathPair(t_h, t_c))
    assert math.isfinite(omega) and 1.278 <= omega / t_h <= 2.4 and 0.0 < w < math.inf


@pytest.mark.parametrize("t_h, t_c", [(1.5e308, 1.0), (1e308, 9e307)])
def test_spin_optimum_beyond_the_largest_float_is_refused(t_h, t_c):
    # omega* = x* T_h overflows: the search ends at the bracket's cap
    with pytest.raises(NumericalError, match="with omega at most 1.79769"):
        max_uncoupled_work(SPIN, BathPair(t_h, t_c))


@pytest.mark.parametrize("kind", [SPIN, OSC], ids=["spin", "osc"])
def test_max_coupled_work_takes_the_uncoupled_point(monkeypatch, kind):
    uncoupled = max_uncoupled_work(kind, BATHS)
    want = max_coupled_work(kind, "xy", BATHS, SearchDomain(), resolution=5)

    def no_search(*_):
        raise AssertionError("the uncoupled optimum was computed again")

    monkeypatch.setattr(optimize, "max_uncoupled_work", no_search)
    assert max_coupled_work(kind, "xy", BATHS, SearchDomain(), 5, uncoupled) == want


def _cut_box_search(monkeypatch, resolution):
    """`max_coupled_work` for spin xx at (5, 4.9), whose optimum near
    (11.9, 11.8) the box [0, 10] cuts, and the (W, halvings) of each
    search it ran.  Halvings are counted from the objective's calls: after
    one per grid slice and one at the seed, each sweep's call over the
    27-point stencil halves the step unless its best beats the point."""
    values, ends = [], []

    def recorded_work(*args):
        values.append(coupled_total_work(*args))
        return values[-1]

    def recorded_search(*args):
        values.clear()
        x, w = _grid_refine(*args)
        best, halvings = float(values[resolution]), 0
        for vals in values[resolution + 1 : -1]:
            assert vals.shape == (27,)
            if vals.max() > best:
                best = float(vals.max())
            else:
                halvings += 1
        ends.append((w, halvings))
        return x, w

    monkeypatch.setattr(optimize, "coupled_total_work", recorded_work)
    monkeypatch.setattr(optimize, "_grid_refine", recorded_search)
    return max_coupled_work(SPIN, "xx", BathPair(5.0, 4.9), SearchDomain(), resolution), ends


def test_cut_box_search_on_a_coarse_grid_converges_from_the_scaled_anchor(monkeypatch):
    # at resolution 12 the grid's best lies on the engine wedge, which a
    # search of coordinate moves crawled along to its cap; the stencil's
    # diagonal moves reach the optimum on the omega = 10 face
    (params, w), ends = _cut_box_search(monkeypatch, 12)
    assert [halvings for _, halvings in ends] == [48]
    (fine_params, w_fine), _ = _cut_box_search(monkeypatch, 60)
    assert params[0] == fine_params[0] == 10.0
    assert w == ends[0][0] >= w_fine * (1.0 - 1e-9)


def test_cut_box_search_keeps_the_grid_end_within_rounding(monkeypatch):
    # from the grid's best at resolution 60, one search converges to the
    # maximum that the coarse grid's search finds, to rounding
    (params, w), ends = _cut_box_search(monkeypatch, 60)
    assert [halvings for _, halvings in ends] == [48]
    assert params[0] == 10.0 and w == ends[0][0]
    (_, w_coarse), _ = _cut_box_search(monkeypatch, 12)
    assert abs(w_coarse - w) <= 1e-12 * w


@pytest.mark.parametrize(
    "model, t_h, t_c, resolution, side, w_coordinate",
    [
        ("general", 5.0, 4.9, 12, 10.0, 4.252323352721965e-4),
        ("general", 12.0, 11.76, 20, 10.0, 3.596811518823623e-4),
        ("xx", 5.0, 4.9, 12, 10.0, 4.252323352721965e-4),
        ("general", 5.0, 4.9, 12, 1.0, 1.243787773633872e-05),
    ],
)
def test_cut_box_search_converges_without_crawling(
    monkeypatch, model, t_h, t_c, resolution, side, w_coordinate
):
    # from these coarse grids' best, a search of coordinate moves crawled
    # along the omega ~ omega' ridge for 57 962 to 89 566 objective calls,
    # one move per call, to the optimum `w_coordinate`; the stencil search
    # converges in at most 2500 calls, one per sweep, and is no worse
    calls = []

    def counted(*args):
        calls.append(None)
        return coupled_total_work(*args)

    monkeypatch.setattr(optimize, "coupled_total_work", counted)
    baths = BathPair(t_h, t_c)
    domain = SearchDomain((0.0, side), (0.0, side), (0.0, side))
    _, w_max = max_coupled_work(SPIN, model, baths, domain, resolution)
    assert len(calls) <= 2500
    ceiling = 2.0 * max_uncoupled_work(SPIN, baths)[2]
    assert w_coordinate - optimize._tolerance(baths, ceiling) <= w_max <= ceiling


@pytest.mark.parametrize("model", ["xx", "general"])
def test_spin_optimum_at_the_benchmark_baths_runs_no_search(monkeypatch, model):
    # over the benchmark's bath range the box holds the optimum: one pair
    # work call, at the anchor, and no pattern search
    def no_search(*_):
        raise AssertionError("the pattern search ran")

    calls = []

    def counted(*args):
        calls.append(None)
        return coupled_total_work(*args)

    monkeypatch.setattr(optimize, "_grid_refine", no_search)
    monkeypatch.setattr(optimize, "coupled_total_work", counted)
    for t_h in (1.8, 2.1, 2.4):
        for t_c in (0.8, 0.95, 1.1):
            baths = BathPair(t_h, t_c)
            calls.clear()
            params, w_max = max_coupled_work(SPIN, model, baths, SearchDomain(), resolution=12)
            assert len(calls) == 1
            omega, omega_prime, w_single = max_uncoupled_work(SPIN, baths)
            assert params == (omega, omega_prime) + (0.0,) * (len(params) - 2)
            assert w_max == 2.0 * w_single


@pytest.mark.parametrize("kind", [SPIN, OSC], ids=["spin", "osc"])
def test_search_result_above_the_bound_raises(monkeypatch, kind):
    # a box that does not hold the anchor is searched; a result that beats
    # twice the uncoupled optimum contradicts the paper's bound
    true_pair = optimize.coupled_total_work
    monkeypatch.setattr(optimize, "coupled_total_work", lambda *a: true_pair(*a) + 1.0)
    box = SearchDomain(coupling=(1.0, 2.0))
    with pytest.raises(NumericalError, match="beats the work supremum"):
        max_coupled_work(kind, "xx", BATHS, box, resolution=5)


def test_max_coupled_work_oscillator_bound_holds():
    # the uncoupled oscillator pair's work supremum is 2(sqrt(T_h) - sqrt(T_c))^2,
    # approached only as omega, omega' -> 0 (Kosloff & Rezek, Entropy 19, 136,
    # 2017); no coupling beats it, and every search gets within 1e-9 of it
    sup = 2.0 * (math.sqrt(BATHS.t_h) - math.sqrt(BATHS.t_c)) ** 2
    for model, res in (("xx", 40), ("xy", 40), ("general", 20)):
        _, w_max = max_coupled_work(OSC, model, BATHS, SearchDomain(), resolution=res)
        assert sup - 1e-9 < w_max < sup, model


@pytest.mark.parametrize("model", ["xx", "xy", "general"])
@pytest.mark.parametrize("t_h, t_c", [(2.0, 1.0), (3.7, 0.2), (1.0 + 1e-7, 1.0), (1e6, 1e-6)])
def test_oscillator_optimum_is_the_corner_limit(monkeypatch, model, t_h, t_c):
    # from the origin, both optima are the point on the ray
    # omega'/omega = sqrt(T_c/T_h) at zero coupling, where the pair's work
    # is exactly twice the single system's; one pair work call, at the
    # limit point, so no refinement sweep runs
    baths = BathPair(t_h, t_c)
    sup = oscillator_work_supremum(baths)
    calls = []

    def counted(*args):
        calls.append(None)
        return coupled_total_work(*args)

    monkeypatch.setattr(optimize, "coupled_total_work", counted)
    params, w_max = max_coupled_work(OSC, model, baths, SearchDomain(), resolution=7)
    assert len(calls) == 1
    omega, omega_prime, w_single = max_uncoupled_work(OSC, baths)
    assert params == (omega, omega_prime) + (0.0,) * (len(params) - 2)
    assert omega_prime == pytest.approx(omega * math.sqrt(t_c / t_h), rel=1e-15)
    assert w_max == 2.0 * w_single
    assert abs(w_single - sup) <= 1e-9 * max(1.0, sup)
    if t_h / t_c > 1.01:
        assert w_single == pytest.approx(sup, rel=1e-12)


def test_oscillator_work_supremum_takes_no_difference_of_square_roots():
    # against a 60-digit evaluation at the betas' own temperatures, also
    # where sqrt(T_h) - sqrt(T_c) cancels nearly every digit
    with localcontext() as ctx:
        ctx.prec = 60
        for t_h, t_c in ((2.0, 1.0), (1.0 + 1e-7, 1.0), (1.0 + 2.0**-40, 1.0), (1e300, 1e-300),
                         (1e-300, 1e-301), (1e308, 1.0)):
            baths = BathPair(t_h, t_c)
            exact = ((1 / Decimal(baths.beta_h)).sqrt() - (1 / Decimal(baths.beta_c)).sqrt()) ** 2
            got = oscillator_work_supremum(baths)
            assert abs(Decimal(got) - exact) <= Decimal(4e-16) * exact, (t_h, t_c)


def test_oscillator_limit_point_stays_in_a_small_box():
    # the coupled optimum moves along the ray to the box edge when the box
    # is smaller; the uncoupled point, over all frequencies, does not
    box = SearchDomain(omega=(0.0, 1e-9), omega_prime=(0.0, 1e-9), coupling=(0.0, 1e-9))
    params, w_max = max_coupled_work(OSC, "xy", BATHS, box, resolution=5)
    omega, omega_prime, w_single = max_uncoupled_work(OSC, BATHS)
    assert params == (1e-9, 1e-9 * math.sqrt(0.5), 0.0)
    assert omega > 1e-9 and omega_prime == omega * math.sqrt(0.5)
    assert 2.0 * w_single * (1.0 - 1e-15) <= w_max <= 2.0 * w_single
    assert w_max == pytest.approx(2.0 * oscillator_work_supremum(BATHS), rel=1e-12)
    # a box narrower in omega' puts the point where the ray leaves it
    box = SearchDomain(omega=(0.0, 10.0), omega_prime=(0.0, 1e-12))
    params, w_max = max_coupled_work(OSC, "xx", BATHS, box, resolution=5)
    assert params[1] <= 1e-12 and params[0] == pytest.approx(1e-12 * math.sqrt(2.0), rel=1e-15)
    assert w_max == pytest.approx(2.0 * oscillator_work_supremum(BATHS), rel=1e-12)


def test_grid_value_above_the_supremum_raises(monkeypatch):
    # the mode-space grid is the numerical check of the paper's bound: a
    # single-system work above the uncoupled optimum, at a mode-frequency
    # pair of the square [0, 20]^2 away from the anchor, is refused
    true_single = optimize.single_system_work
    for kind in (SPIN, OSC):
        uncoupled = max_uncoupled_work(kind, BATHS)
        w_star, tol = uncoupled[2], optimize._tolerance(BATHS, uncoupled[2])

        def planted(kind, a, a_prime, baths, above):
            w = true_single(kind, a, a_prime, baths)
            return np.where((a == 15.0) & (a_prime == 5.0), w_star + above, w)

        monkeypatch.setattr(optimize, "single_system_work", partial(planted, above=1.5 * tol))
        with pytest.raises(NumericalError, match="beats the work supremum"):
            max_coupled_work(kind, "xx", BATHS, SearchDomain(), 5, uncoupled)
        # above it by half the single-system tolerance is rounding
        monkeypatch.setattr(optimize, "single_system_work", partial(planted, above=0.5 * tol))
        assert max_coupled_work(kind, "xx", BATHS, SearchDomain(), 5, uncoupled)[1] == 2.0 * w_star
    monkeypatch.setattr(optimize, "single_system_work", true_single)
    true_pair = optimize.coupled_total_work
    for kind in (SPIN, OSC):
        # an objective above the ceiling by less than the tolerance, 1e-9
        # of it here, is accepted as the ceiling it rounds
        ceiling = 2.0 * max_uncoupled_work(kind, BATHS)[2]
        over = 5e-10 * ceiling
        monkeypatch.setattr(optimize, "coupled_total_work",
                            lambda *a: np.minimum(true_pair(*a), ceiling) + over)
        w_max = max_coupled_work(kind, "xx", BATHS, SearchDomain(), resolution=5)[1]
        assert w_max == ceiling


_SQUARE_BOXES = [
    SearchDomain(),
    SearchDomain((2.0, 3.0), (0.5, 7.0), (0.0, 40.0)),
    SearchDomain((1e-3, 1e3), (0.0, 1e-2), (0.25, 0.5)),
    SearchDomain((5.0, 5.0), (1.0, 2.0), (3.0, 3.0)),
]


@pytest.mark.parametrize("kind", [SPIN, OSC], ids=["spin", "osc"])
@pytest.mark.parametrize("model", ["xx", "xy", "general"])
@pytest.mark.parametrize("domain", _SQUARE_BOXES, ids=["default", "wide-c", "thin", "point-c"])
def test_reachable_mode_frequencies_lie_in_the_mode_square(kind, model, domain):
    # seeded draws and every corner of the box: each valid mode frequency at
    # omega (omega') lies in [0, omega_hi + c_hi] ([0, omega'_hi + c_hi])
    square = optimize._mode_square(domain)
    c_hi = domain.coupling[1]
    assert square == ((0.0, domain.omega[1] + c_hi), (0.0, domain.omega_prime[1] + c_hi))
    n = 100_000
    rng = np.random.default_rng(0)
    box = (domain.omega, domain.omega_prime) + (domain.coupling,) * (1 + (model == "general"))
    corners = np.array(list(itertools.product(*box))).T
    omega, omega_prime, *coupling = (
        np.concatenate([rng.uniform(lo, hi, n), corner]) for (lo, hi), corner in zip(box, corners)
    )
    freqs = spin_mode_frequencies if kind is SPIN else oscillator_mode_frequencies
    cx, cy = model_coupling(model, *coupling)
    valid = 0
    for x, (_, side) in zip((omega, omega_prime), square):
        for f in freqs(x, cx, cy):
            ok = ~np.isnan(f)
            valid += ok.sum()
            assert ((0.0 <= f[ok]) & (f[ok] <= side)).all()
    assert valid > 0


@pytest.mark.parametrize("kind", [SPIN, OSC], ids=["spin", "osc"])
@pytest.mark.parametrize("model", ["xx", "xy", "general"])
@pytest.mark.parametrize("resolution", [2, 7, 60])
def test_anchored_box_evaluates_the_anchor_and_one_single_work_call_per_square_slice(
    monkeypatch, kind, model, resolution
):
    # the check grid is the (2 resolution - 1)-point square [0, 20]^2 of the
    # default box, evaluated one slice of mode frequencies omega' at a time;
    # the pair's work is evaluated at the anchor alone
    pair, single = [], []

    def counted_pair(*args):
        pair.append(np.broadcast(*args[1:5]).size)
        return coupled_total_work(*args)

    def counted_single(kind, a, a_prime, baths):
        single.append((np.broadcast(a, a_prime).shape, np.array(a), float(a_prime)))
        return single_system_work(kind, a, a_prime, baths)

    uncoupled = max_uncoupled_work(kind, BATHS)
    monkeypatch.setattr(optimize, "coupled_total_work", counted_pair)
    monkeypatch.setattr(optimize, "single_system_work", counted_single)
    params, w_max = max_coupled_work(kind, model, BATHS, SearchDomain(), resolution, uncoupled)
    n = 2 * resolution - 1
    side = np.linspace(0.0, 20.0, n)
    assert pair == [1]
    assert [shape for shape, _, _ in single] == [(n,)] * n
    assert all(np.array_equal(a, side) for _, a, _ in single)
    assert [a_prime for _, _, a_prime in single] == side.tolist()
    assert params == uncoupled[:2] + (0.0,) * (len(params) - 2)
    assert w_max == 2.0 * uncoupled[2]


@pytest.mark.parametrize("kind", [SPIN, OSC], ids=["spin", "osc"])
@pytest.mark.parametrize("model", ["xx", "xy", "general"])
def test_mode_square_of_a_box_near_the_largest_float_does_not_overflow(kind, model):
    # omega_hi + c_hi overflows; the square's side is the largest float, so
    # its grid is finite and a spin optimum is the anchor, as before the
    # check moved to mode space.  The oscillator's coupled grid had no valid
    # point (its frequencies above 0 all square past the float range), so it
    # raised EmptyDomain; the square has some, and the anchor is returned
    side = 1.7e308
    box = SearchDomain((0.0, side), (0.0, side), (0.0, side))
    assert optimize._mode_square(box) == ((0.0, _FMAX),) * 2
    params, w_max = max_coupled_work(kind, model, BATHS, box, resolution=12)
    omega, omega_prime, w_single = max_uncoupled_work(kind, BATHS)
    assert params == (omega, omega_prime) + (0.0,) * (len(params) - 2)
    assert w_max == 2.0 * w_single
    if kind is SPIN:
        assert (omega, omega_prime, w_max) == (4.065479570001369, 2.860752893064928,
                                               0.1486149415270283)


@pytest.mark.parametrize("model", ["xx", "general"])
def test_anchored_box_whose_square_has_no_valid_point_raises(model):
    # at T_h = 1e308 every oscillator frequency of the square [0, 1]^2 has
    # coth(beta_h a / 2) overflow, so no work is finite: the box holds the
    # anchor, clamped to (0.5, 0.5e-154), but nothing checks it
    box = SearchDomain((0.0, 0.5), (0.0, 0.5), (0.0, 0.5))
    with pytest.raises(EmptyDomain, match=re.escape(
        "no valid point on the 23-point grid over ((0.0, 1.0), (0.0, 1.0))"
    )):
        max_coupled_work(OSC, model, BathPair(1e308, 1.0), box, resolution=12)


def test_limit_point_that_misses_the_supremum_raises(monkeypatch):
    # omega * r so small that its square underflows leaves the coupled
    # modes invalid at the anchor, the limit point at zero coupling
    with pytest.raises(NumericalError, match="the anchor .* gives work -inf"):
        max_coupled_work(OSC, "xx", BathPair(1e-5, 1e-300), SearchDomain(), resolution=5)
    # an objective that falls short at the limit point is refused, not printed
    true_single = optimize.single_system_work
    monkeypatch.setattr(optimize, "single_system_work", lambda *a: true_single(*a) - 1e-8)
    with pytest.raises(NumericalError, match="limit point"):
        max_uncoupled_work(OSC, BATHS)


@pytest.mark.parametrize("kind", [SPIN, OSC], ids=["spin", "osc"])
def test_anchor_that_misses_the_ceiling_raises(monkeypatch, kind):
    true_pair = optimize.coupled_total_work
    monkeypatch.setattr(optimize, "coupled_total_work", lambda *a: true_pair(*a) - 1e-8)
    with pytest.raises(NumericalError, match="the anchor .* not the supremum"):
        max_coupled_work(kind, "xx", BATHS, SearchDomain(), resolution=5)


@pytest.mark.parametrize("t_h, t_c", [(1e-10, 1e-12), (1.0 + 1e-7, 1.0)])
def test_wrong_limit_point_below_any_absolute_tolerance_raises(monkeypatch, t_h, t_c):
    # the tolerance is relative to the ceiling, so an objective that is 0
    # everywhere is refused also where the ceiling itself is tiny (8.1e-11
    # at the first pair, 2.5e-15 at the last)
    def zero(kind, omega, omega_prime, baths):
        return np.zeros(np.broadcast(omega, omega_prime).shape)

    monkeypatch.setattr(optimize, "single_system_work", zero)
    with pytest.raises(NumericalError, match="limit point"):
        max_uncoupled_work(OSC, BathPair(t_h, t_c))


def test_baths_whose_betas_round_equal_give_no_work():
    # 1.9 and the next float have the same reciprocal, so r rounds to 1
    # and the ceiling is 0: the tolerance must not divide by 1 - r
    baths = BathPair(math.nextafter(1.9, 2.0), 1.9)
    assert baths.beta_h == baths.beta_c
    assert max_uncoupled_work(OSC, baths)[2] == 0.0


def test_oscillator_box_away_from_the_origin_is_the_grid_refine_search():
    box = SearchDomain(omega=(1.0, 10.0))
    for model, n_couplings in (("xx", 1), ("general", 2)):

        def work(omega, omega_prime, *coupling):
            return coupled_total_work(OSC, omega, omega_prime, *model_coupling(model, *coupling),
                                      BATHS)

        axes = (box.omega, box.omega_prime) + (box.coupling,) * n_couplings
        x, w = _grid_refine(work, axes, 6)
        assert max_coupled_work(OSC, model, BATHS, box, resolution=6) == (tuple(x.tolist()), w)


@pytest.mark.parametrize("model", ["xy", "general"])
def test_spin_objective_equals_the_rows_total_work_bit_for_bit(model):
    # the objective decomposes the pair as the rows do, so the w_max of an
    # optimum is the W_total a row prints at its params, to the bit
    rng = np.random.default_rng([11, len(model)])
    n = 20000
    omega, omega_prime = rng.uniform(-0.5, 10.0, (2, n))
    lam = rng.uniform(0.0, 10.0, n)
    cx, cy = model_coupling(model, lam) if model == "xy" else (lam, rng.uniform(-10.0, 10.0, n))
    w = coupled_total_work(SPIN, omega, omega_prime, cx, cy, BATHS)
    c = evaluate_cycles(SPIN, omega, omega_prime, (cx, cy), (cx, cy), BATHS)
    assert n // 2 < c.valid.sum() < n
    assert np.array_equal(w[c.valid], c.w_total[c.valid])
    assert (w[~c.valid] == -np.inf).all()
    # numpy's hypot is one ulp off math.hypot at some of the valid draws
    l_minus = 0.5 * (cx - cy)
    off = [np.hypot(x, l_minus) != [math.hypot(*v) for v in zip(x, l_minus)]
           for x in (omega, omega_prime)]
    assert (c.valid & (off[0] | off[1])).sum() >= 10


def test_sampler_determinism_and_filter():
    domain = SearchDomain()
    cols = sample_engine_points(17, 4000, domain, BATHS)
    again = sample_engine_points(17, 4000, domain, BATHS)
    assert isinstance(cols, SampleColumns)
    for f in fields(SampleColumns):
        a, b = getattr(cols, f.name), getattr(again, f.name)
        assert a.shape == (len(cols),) and np.array_equal(a, b)
    assert 0 < len(cols) < 4000
    assert cols.regime_a.dtype == cols.regime_b.dtype == np.int8
    for i in range(0, len(cols), max(1, len(cols) // 60)):
        omega, omega_prime, lam = cols.omega[i], cols.omega_prime[i], cols.lam[i]
        assert lam < min(omega, omega_prime)
        assert 0.0 <= cols.c_h[i] <= 1.0 and 0.0 <= cols.c_c[i] <= 1.0
        # the engine filter must agree with a from-scratch evaluation
        c = evaluate_cycle(standard_cycle(SPIN, "xx", omega, omega_prime, lam, BATHS))
        assert REGIMES[c.global_regime[0]] is Regime.ENGINE
        assert c.w_total[0] == cols.w_total[i]
        assert c.regime[:, 0].tolist() == [cols.regime_a[i], cols.regime_b[i]]


def test_sampler_with_no_accepted_draw_returns_empty_columns():
    # one draw that is not an engine: the same path as any other run
    cols = sample_engine_points(0, 1, SearchDomain(), BATHS)
    assert len(cols) == 0
    for f in fields(SampleColumns):
        assert getattr(cols, f.name).shape == (0,)


def _unchunked_sample(seed, n, domain, baths):
    """The sampler's columns from one draw of all `n` triples, evaluated
    in one pass."""
    lows = np.array([domain.omega[0], domain.omega_prime[0], domain.coupling[0]])
    highs = np.array([domain.omega[1], domain.omega_prime[1], domain.coupling[1]])
    omega, omega_prime, lam = np.random.default_rng(seed).uniform(lows, highs, size=(n, 3)).T
    valid = (omega > lam) & (omega_prime > lam) & (omega > 0) & (omega_prime > 0)
    with np.errstate(over="ignore"):
        qa = heats_arrays(SPIN, omega + lam, omega_prime + lam, baths.beta_h, baths.beta_c)
    qb = heats_arrays(SPIN, omega - lam, omega_prime - lam, baths.beta_h, baths.beta_c)
    w = qa[2] + qb[2]
    engine = REGIMES.index(Regime.ENGINE)
    keep = valid & (regime_codes(qa[0] + qb[0], qa[1] + qb[1], w)[0] == engine)
    omega, omega_prime, lam = omega[keep], omega_prime[keep], lam[keep]
    c_h = xx_thermal_concurrence(omega, lam, baths.beta_h)
    c_c = xx_thermal_concurrence(omega_prime, lam, baths.beta_c)
    regime_a, regime_b = (regime_codes(*(x[keep] for x in qs))[0] for qs in (qa, qb))
    columns = SampleColumns(omega, omega_prime, lam, w[keep], c_h, c_c, regime_a, regime_b)
    return columns, keep


def _assert_same_columns(cols, ref):
    assert len(cols) == len(ref)
    for f in fields(SampleColumns):
        a, b = getattr(cols, f.name), getattr(ref, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), f.name


def test_chunked_sampler_equals_one_unchunked_draw():
    # three full chunks and a partial one
    n = 3 * optimize._DRAW_CHUNK + 17
    domain = SearchDomain()
    ref, _ = _unchunked_sample(29, n, domain, BATHS)
    _assert_same_columns(sample_engine_points(29, n, domain, BATHS), ref)
    assert len(ref) > 0


def test_chunked_sampler_skips_a_chunk_without_engines(monkeypatch):
    monkeypatch.setattr(optimize, "_DRAW_CHUNK", 4)
    domain = SearchDomain()
    ref, keep = _unchunked_sample(3, 403, domain, BATHS)
    accepted = np.add.reduceat(keep, np.arange(0, keep.size, 4))
    assert (accepted == 0).any() and (accepted > 0).any()
    _assert_same_columns(sample_engine_points(3, 403, domain, BATHS), ref)


@pytest.mark.parametrize("seed, accepted", [(0, 0), (13, 1), (16, 1), (23, 1)])
def test_sampler_single_draw_equals_the_unchunked_draw(seed, accepted):
    ref, _ = _unchunked_sample(seed, 1, SearchDomain(), BATHS)
    assert len(ref) == accepted
    _assert_same_columns(sample_engine_points(seed, 1, SearchDomain(), BATHS), ref)


def test_sampler_rejects_bad_count():
    with pytest.raises(EmptyDomain):
        sample_engine_points(0, 0, SearchDomain(), BATHS)


def test_sampled_points_never_beat_uncoupled_bound():
    _, _, w_single = max_uncoupled_work(SPIN, BATHS)
    cols = sample_engine_points(23, 20000, SearchDomain(), BATHS)
    assert (cols.w_total <= 2.0 * w_single + 1e-9).all()


def test_single_system_work_handles_zero_frequency():
    vals = single_system_work(OSC, np.array([0.0, 4.0]), np.array([3.0, 3.0]), BATHS)
    assert not np.isfinite(vals[0]) or vals[0] < 0
    assert np.isfinite(vals[1])
