import math
import warnings
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottopair.cycle import (
    REGIMES,
    Regime,
    _ratio,
    classify_regime,
    coth,
    critical_coupling,
    evaluate_cycle,
    evaluate_cycles,
    mode_heats,
    perturbative_prediction,
    regime_codes,
    xx_cop_difference,
    xx_efficiency_difference,
)
from ottopair.errors import (
    DegenerateBaths,
    DomainError,
    InconsistentEnergy,
    UnknownModel,
)
from ottopair.medium import BathPair, CycleSpec, MediumKind, model_coupling, standard_cycle

OSC = MediumKind.OSCILLATOR
SPIN = MediumKind.SPIN
BATHS = BathPair(2.0, 1.0)


def _coth(x):
    return 1.0 / math.tanh(x)


def _cycle(kind, model, omega, omega_prime, coupling, baths=BATHS):
    """Length-1 columns of one frequency-driven cycle."""
    return evaluate_cycle(standard_cycle(kind, model, omega, omega_prime, coupling, baths))


def _figures(kind, model, omega, omega_prime, lam):
    """Global figures of merit over a grid of xx/xy couplings."""
    coupling = model_coupling(model, np.asarray(lam, dtype=float))
    return evaluate_cycles(kind, omega, omega_prime, coupling, coupling, BATHS).global_figure


def test_mode_heats_oscillator_reference_point():
    q_h, q_c, w = mode_heats(OSC, 4.0, 3.0, BATHS)
    bracket = _coth(1.0) - _coth(1.5)
    assert q_h == pytest.approx(2.0 * bracket, rel=1e-14)
    assert q_c == pytest.approx(-1.5 * bracket, rel=1e-14)
    assert w == pytest.approx(0.5 * bracket, rel=1e-14)
    assert w == pytest.approx(0.10412194625840987, rel=1e-13)


def test_mode_heats_spin_reference_point():
    q_h, q_c, w = mode_heats(SPIN, 4.0, 3.0, BATHS)
    bracket = math.tanh(1.5) - math.tanh(1.0)
    assert q_h == pytest.approx(2.0 * bracket, rel=1e-14)
    assert w == pytest.approx(0.5 * bracket, rel=1e-14)
    assert w == pytest.approx(0.07177704884455075, rel=1e-13)


def test_mode_heats_vanish_at_carnot_condition():
    # beta_h * omega_hot == beta_c * omega_cold
    for kind in (OSC, SPIN):
        q_h, q_c, w = mode_heats(kind, 4.0, 2.0, BATHS)
        assert q_h == q_c == w == 0.0
    with pytest.raises(DomainError):
        mode_heats(OSC, 0.0, 1.0, BATHS)


def test_classify_regime_signs():
    assert classify_regime(0.5, -0.4, 0.1) == (Regime.ENGINE, False)
    assert classify_regime(-0.5, 0.2, -0.3) == (Regime.REFRIGERATOR, False)
    assert classify_regime(0.0, 0.0, 0.0) == (Regime.DISSIPATOR, True)
    # deep dissipator: consumes work, heats both baths
    assert classify_regime(0.5, -0.8, -0.3) == (Regime.DISSIPATOR, False)
    with pytest.raises(InconsistentEnergy):
        classify_regime(0.5, -0.4, 0.3)


@pytest.mark.parametrize("eps", [None, 1e-12])
@pytest.mark.parametrize("slot", [0, 1, 2], ids=["q_h", "q_c", "w"])
def test_classify_regime_rejects_nan(slot, eps):
    triple = [0.0, 0.0, 0.0]
    triple[slot] = math.nan
    with pytest.raises(InconsistentEnergy):
        classify_regime(*triple, eps)


def test_evaluate_cycle_uncoupled_efficiency():
    c = _cycle(OSC, "xx", 4.0, 3.0, 0.0)
    assert REGIMES[c.global_regime[0]] is Regime.ENGINE
    assert c.global_figure[0] == pytest.approx(0.25, abs=1e-14)
    assert c.bounds[:, 0].tolist() == [0.25, 0.25]
    assert c.weight[0] == pytest.approx(0.5, abs=1e-14)


def test_evaluate_cycle_carnot_point_collapse():
    # at lambda_c the "-" mode hits the Carnot condition with zero work and
    # the global efficiency equals eta_A
    lam_c = critical_coupling("engine", 4.0, 3.0, BATHS)
    assert lam_c == pytest.approx(2.0, abs=1e-14)
    for kind in (OSC, SPIN):
        c = _cycle(kind, "xx", 4.0, 3.0, lam_c)
        assert REGIMES[c.regime[1, 0]] is Regime.DISSIPATOR
        assert c.at_boundary[1, 0]
        assert abs(c.w[1, 0]) < 1e-14
        assert c.global_figure[0] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert c.global_figure[0] == pytest.approx(c.figure_of_merit[0, 0], abs=1e-12)


def test_evaluate_cycle_fridge_collapse_at_critical_coupling():
    lam_c = critical_coupling("refrigerator", 5.0, 2.0, BATHS)
    assert lam_c == pytest.approx(1.0, abs=1e-14)
    for kind in (OSC, SPIN):
        c = _cycle(kind, "xx", 5.0, 2.0, lam_c)
        assert REGIMES[c.regime[0, 0]] is Regime.DISSIPATOR and c.at_boundary[0, 0]
        zeta_b = c.figure_of_merit[1, 0]
        assert zeta_b == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert c.global_figure[0] == pytest.approx(zeta_b, abs=1e-12)


def test_evaluate_cycle_xy_spin_fridge_closed_form():
    c = _cycle(SPIN, "xy", 5.0, 2.0, 1.0)
    assert REGIMES[c.global_regime[0]] is Regime.REFRIGERATOR
    assert c.global_figure[0] == pytest.approx(1.0 / (math.sqrt(26.0 / 5.0) - 1.0), rel=1e-13)


def test_evaluate_cycle_refuses_invalid_points():
    # a non-positive or non-finite bare frequency or coupling is refused
    # like an unstable mode, at either end of the cycle
    ok = (1.0, 1.0)
    cases = [(-4.0, ok), (0.0, ok), (math.inf, ok), (math.nan, ok),
             (4.0, (1.0, math.nan)), (4.0, (math.inf, 1.0))]
    for kind in (OSC, SPIN):
        for omega, coupling in cases:
            with pytest.raises(DomainError):
                evaluate_cycle(CycleSpec(kind, omega, 3.0, coupling, ok, BATHS))
            with pytest.raises(DomainError):
                evaluate_cycle(CycleSpec(kind, 3.0, omega, ok, coupling, BATHS))


@pytest.mark.parametrize("name", ["omega_hot", "omega_cold", "coupling_hot", "coupling_cold"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_evaluate_cycle_names_a_non_finite_input(name, bad):
    fields = dict(omega_hot=4.0, omega_cold=3.0, coupling_hot=(1.0, 1.0), coupling_cold=(1.0, 1.0))
    fields[name] = bad if name.startswith("omega") else (1.0, bad)
    for kind in (OSC, SPIN):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            evaluate_cycle(CycleSpec(kind, baths=BATHS, **fields))


def test_sandwich_bounds_examples():
    c = _cycle(SPIN, "xx", 4.0, 3.0, 1.0)
    assert c.bounds[:, 0].tolist() == pytest.approx([0.2, 1.0 / 3.0], abs=1e-14)

    c = _cycle(SPIN, "xx", 5.0, 2.0, 0.5)
    assert REGIMES[c.global_regime[0]] is Regime.REFRIGERATOR
    assert c.bounds[:, 0].tolist() == pytest.approx([0.5, 5.0 / 6.0], abs=1e-13)

    lo, hi = _cycle(OSC, "xx", 4.0, 3.0, 0.0).bounds[:, 0]
    assert lo == hi == pytest.approx(0.25, abs=1e-14)

    mixed = _cycle(SPIN, "xx", 4.0, 3.0, 2.5)
    assert mixed.regime[0, 0] != mixed.regime[1, 0]
    assert not mixed.shared[0] and np.isnan(mixed.bounds[:, 0]).all()


def test_critical_couplings_are_negatives():
    rng = np.random.default_rng(5)
    for _ in range(50):
        omega, omega_prime = rng.uniform(0.5, 8.0, 2)
        t_c = rng.uniform(0.5, 2.0)
        baths = BathPair(t_c * rng.uniform(1.2, 3.0), t_c)
        lam_c = critical_coupling("engine", omega, omega_prime, baths)
        lam_cp = critical_coupling("refrigerator", omega, omega_prime, baths)
        assert lam_c == pytest.approx(-lam_cp, rel=1e-12, abs=1e-12)
    with pytest.raises(DegenerateBaths):
        critical_coupling("engine", 4.0, 3.0, SimpleNamespace(t_h=2.0, t_c=2.0))
    with pytest.raises(UnknownModel):
        critical_coupling("heater", 4.0, 3.0, BATHS)


def test_critical_coupling_puts_designated_mode_on_carnot_line():
    baths = BathPair(1.7, 0.6)
    lam = critical_coupling("engine", 5.0, 2.4, baths)
    w_b, w_b_c = 5.0 - lam, 2.4 - lam
    assert baths.beta_h * w_b == pytest.approx(baths.beta_c * w_b_c, rel=1e-12)
    lam = critical_coupling("refrigerator", 5.0, 2.4, baths)
    w_a, w_a_c = 5.0 + lam, 2.4 + lam
    assert baths.beta_h * w_a == pytest.approx(baths.beta_c * w_a_c, rel=1e-12)


def test_energy_balance_and_sandwich_bounds_random():
    rng = np.random.default_rng(6)
    engines = fridges = 0
    while engines < 200 or fridges < 200:
        omega = rng.uniform(0.5, 9.0)
        omega_prime = omega * rng.uniform(0.2, 0.95)
        t_c = rng.uniform(0.3, 2.0)
        baths = BathPair(t_c * rng.uniform(1.2, 4.0), t_c)
        lam = rng.uniform(0.0, 0.9) * omega_prime
        kind = OSC if rng.uniform() < 0.5 else SPIN
        model = ("xx", "xy", "general")[int(rng.integers(3))]
        coupling = (lam, rng.uniform(-0.9, 0.9) * omega_prime) if model == "general" else lam
        c = _cycle(kind, model, omega, omega_prime, coupling, baths)
        for m in (0, 1):
            w = c.w[m, 0]
            assert w == pytest.approx(c.q_h[m, 0] + c.q_c[m, 0], abs=1e-15 + 1e-13 * abs(w))
        assert c.w_total[0] == c.w[0, 0] + c.w[1, 0]
        if not c.shared[0]:
            continue
        lo, hi = c.bounds[:, 0]
        figure = c.global_figure[0]
        assert lo - 1e-12 <= figure <= hi + 1e-12
        if REGIMES[c.global_regime[0]] is Regime.ENGINE:
            engines += 1
            assert figure <= baths.carnot_efficiency + 1e-12
        elif REGIMES[c.global_regime[0]] is Regime.REFRIGERATOR:
            fridges += 1
            scale = max(1.0, baths.carnot_cop)
            assert figure <= baths.carnot_cop + 1e-9 * scale


def test_coupling_driven_cycle():
    # adiabats may drive the coupling at fixed bare frequency; the cycle
    # still decomposes mode by mode
    c = evaluate_cycle(CycleSpec(OSC, 4.0, 4.0, (0.5, 0.5), (2.0, 2.0), BATHS))
    # mode A runs 4.5 -> 6.0 (a refrigerator stroke), mode B runs 3.5 -> 2.0
    assert c.omega_hot[:, 0].tolist() == [4.5, 3.5]
    assert c.omega_cold[:, 0].tolist() == [6.0, 2.0]
    for m in (0, 1):
        q_h, q_c, w = mode_heats(OSC, c.omega_hot[m, 0], c.omega_cold[m, 0], BATHS)
        assert c.q_h[m, 0] == q_h and c.q_c[m, 0] == q_c and c.w[m, 0] == w
    assert REGIMES[c.regime[1, 0]] is Regime.ENGINE
    assert c.w_total[0] == c.w[0, 0] + c.w[1, 0]

    c = evaluate_cycle(CycleSpec(SPIN, 4.0, 4.0, (1.5, 1.5), (0.25, 0.25), BATHS))
    assert c.omega_hot[:, 0].tolist() == [5.5, 2.5]
    assert c.omega_cold[:, 0].tolist() == [4.25, 3.75]
    if c.shared[0]:
        lo, hi = c.bounds[:, 0]
        assert lo - 1e-12 <= c.global_figure[0] <= hi + 1e-12


def test_global_figure_is_convex_combination():
    # engine: eta = alpha eta_A + (1 - alpha) eta_B with the heat weight;
    # refrigerator: zeta mixes with the work weight
    rng = np.random.default_rng(21)
    seen = 0
    while seen < 100:
        omega = rng.uniform(1.0, 8.0)
        omega_prime = omega * rng.uniform(0.2, 0.95)
        lam = rng.uniform(0.0, 0.8) * omega_prime
        kind = OSC if rng.uniform() < 0.5 else SPIN
        c = _cycle(kind, "xx", omega, omega_prime, lam)
        if not c.shared[0]:
            continue
        seen += 1
        weight = c.weight[0]
        assert 0.0 <= weight <= 1.0
        mixed = weight * c.figure_of_merit[0, 0] + (1.0 - weight) * c.figure_of_merit[1, 0]
        assert mixed == pytest.approx(c.global_figure[0], rel=1e-12)


def test_work_statistics_ordering():
    # oscillator work dominates spin work for identical mode frequencies
    rng = np.random.default_rng(7)
    for _ in range(200):
        omega = rng.uniform(0.5, 8.0)
        omega_prime = omega * rng.uniform(0.2, 0.95)
        t_c = rng.uniform(0.3, 2.0)
        baths = BathPair(t_c * rng.uniform(1.2, 4.0), t_c)
        w_os = mode_heats(OSC, omega, omega_prime, baths)[2]
        w_sp = mode_heats(SPIN, omega, omega_prime, baths)[2]
        if w_os > 0 and w_sp > 0:
            assert w_os >= w_sp - 1e-15


def test_mixed_regime_global_efficiency_below_engine_mode():
    # past the critical coupling mode B pumps heat backwards and drags the
    # global efficiency below eta_A
    for kind in (OSC, SPIN):
        c = _cycle(kind, "xx", 4.0, 3.0, 2.2)
        assert REGIMES[c.regime[1, 0]] is Regime.REFRIGERATOR
        assert not c.shared[0] and np.isnan(c.bounds[:, 0]).all()
        if REGIMES[c.global_regime[0]] is Regime.ENGINE:
            assert c.global_figure[0] < c.figure_of_merit[0, 0]


def test_xx_orderings_at_small_coupling():
    lam = [0.01, 0.05, 0.2, 0.5]
    assert (_figures(OSC, "xx", 4.0, 3.0, lam) > _figures(SPIN, "xx", 4.0, 3.0, lam)).all()
    assert (_figures(SPIN, "xx", 5.0, 2.0, lam) > _figures(OSC, "xx", 5.0, 2.0, lam)).all()


def test_xy_orderings_hold_even_for_large_coupling():
    lam = np.array([0.1, 0.5, 1.0, 2.0, 2.5])
    eta_os, eta_sp = (_figures(kind, "xy", 4.0, 3.0, lam) for kind in (OSC, SPIN))
    assert (eta_os >= eta_sp).all()
    assert eta_os == pytest.approx(1.0 - np.sqrt((9.0 - lam * lam) / (16.0 - lam * lam)), rel=1e-12)
    assert eta_sp == pytest.approx(1.0 - np.sqrt((9.0 + lam * lam) / (16.0 + lam * lam)), rel=1e-12)
    lam = [0.1, 0.5, 1.0, 1.5]
    assert (_figures(SPIN, "xy", 5.0, 2.0, lam) >= _figures(OSC, "xy", 5.0, 2.0, lam)).all()


def test_xy_second_order_symmetry():
    # (eta_os - eta_uc) + (eta_sp - eta_uc) cancels at second order
    eta_uc = 0.25
    lam = [0.01, 0.02]
    sums = (_figures(OSC, "xy", 4.0, 3.0, lam) - eta_uc) + (_figures(SPIN, "xy", 4.0, 3.0, lam) - eta_uc)
    ratio = sums[1] / sums[0]
    assert 16.0 * 0.8 < ratio < 16.0 * 1.2


def test_perturbative_predictions_reduce_to_uncoupled():
    assert perturbative_prediction("xy-engine-os", 4.0, 3.0, BATHS, 0.0) == 0.25
    assert perturbative_prediction("xx-engine-sp", 4.0, 3.0, BATHS, 0.0) == 0.25
    assert perturbative_prediction("xx-fridge-os", 5.0, 2.0, BATHS, 0.0) == pytest.approx(2.0 / 3.0)
    # tags are exact lower-case names, as everywhere else
    for tag in ("zz-engine-os", "XX-engine-sp"):
        with pytest.raises(UnknownModel):
            perturbative_prediction(tag, 4.0, 3.0, BATHS, 0.1)


def test_perturbative_difference_formulas_match_expansions():
    # the printed difference formulas must agree with subtracting the two
    # second-order expansions
    rng = np.random.default_rng(8)
    for _ in range(30):
        omega = rng.uniform(2.0, 7.0)
        omega_prime = omega * rng.uniform(0.4, 0.9)
        t_c = rng.uniform(0.5, 1.5)
        baths = BathPair(t_c * rng.uniform(1.5, 3.0), t_c)
        lam = 0.05
        gap = perturbative_prediction("xx-engine-os", omega, omega_prime, baths, lam) - (
            perturbative_prediction("xx-engine-sp", omega, omega_prime, baths, lam)
        )
        assert gap == pytest.approx(
            xx_efficiency_difference(omega, omega_prime, baths, lam), rel=1e-10
        )
        gap = perturbative_prediction("xx-fridge-sp", omega, omega_prime, baths, lam) - (
            perturbative_prediction("xx-fridge-os", omega, omega_prime, baths, lam)
        )
        assert gap == pytest.approx(
            xx_cop_difference(omega, omega_prime, baths, lam), rel=1e-10
        )


def test_perturbative_prediction_quartic_convergence():
    # |exact - second order| must shrink ~16x when lambda halves from 2e-2
    cases = [
        ("xx-engine-os", OSC, "xx", 4.0, 3.0),
        ("xx-engine-sp", SPIN, "xx", 4.0, 3.0),
        ("xx-fridge-os", OSC, "xx", 5.0, 2.0),
        ("xx-fridge-sp", SPIN, "xx", 5.0, 2.0),
        ("xy-engine-os", OSC, "xy", 4.0, 3.0),
        ("xy-engine-sp", SPIN, "xy", 4.0, 3.0),
        ("xy-fridge-os", OSC, "xy", 5.0, 2.0),
        ("xy-fridge-sp", SPIN, "xy", 5.0, 2.0),
    ]
    for tag, kind, model, omega, omega_prime in cases:
        exact = _figures(kind, model, omega, omega_prime, [0.01, 0.02])
        errs = [
            abs(e - perturbative_prediction(tag, omega, omega_prime, BATHS, lam))
            for e, lam in zip(exact, (0.01, 0.02))
        ]
        ratio = errs[1] / errs[0]
        assert 16.0 * 0.8 < ratio < 16.0 * 1.2, (tag, ratio)


def test_efficiency_gap_prediction_is_positive():
    assert xx_efficiency_difference(4.0, 3.0, BATHS, 0.1) > 0
    assert xx_cop_difference(5.0, 2.0, BATHS, 0.1) > 0


def test_extreme_parameter_corners():
    # sweeps reach deep-cold and near-classical corners; everything must
    # stay finite with the energy balance intact
    corners = [
        (BathPair(1e6, 1e-6), 4.0, 3.0, 1.0),
        (BathPair(2e-6, 1e-6), 8.0, 7.0, 1.0),
        (BathPair(2e6, 1e6), 4.0, 3.0, 1.0),
        (BathPair(2.0, 1.0), 9000.0, 8000.0, 100.0),
        (BathPair(2.0, 1.0), 2e-7, 1.5e-7, 1e-8),
    ]
    for baths, omega, omega_prime, lam in corners:
        for kind in (OSC, SPIN):
            c = _cycle(kind, "xx", omega, omega_prime, lam, baths)
            for m in (0, 1):
                q_h, q_c = c.q_h[m, 0], c.q_c[m, 0]
                assert math.isfinite(q_h) and math.isfinite(q_c)
                assert c.w[m, 0] == pytest.approx(q_h + q_c, abs=1e-300)
            if REGIMES[c.global_regime[0]] is Regime.ENGINE:
                assert c.global_figure[0] <= baths.carnot_efficiency + 1e-12


def test_coth_stability():
    assert coth(1e-10) == pytest.approx(1e10, rel=1e-6)
    assert coth(50.0) == pytest.approx(1.0, rel=1e-15)
    assert coth(800.0) == 1.0  # no overflow
    # 1/tanh agrees with the series 1/x + x/3 on both sides of 1e-8
    for x in (0.9999e-8, 1.0001e-8):
        assert coth(x) == pytest.approx(1.0 / x + x / 3.0, rel=1e-12)
    arr = coth(np.array([1e-12, 1.0, 100.0]))
    assert arr.shape == (3,)


def test_coth_is_its_series_bit_for_bit_below_1e_8():
    # log-uniform |x| down to the smallest subnormal, both signs, and +-0
    rng = np.random.default_rng(29)
    n = 1_000_000
    x = np.exp(rng.uniform(math.log(5e-324), math.log(1e-8), n)) * rng.choice([-1.0, 1.0], n)
    x = np.concatenate([x, [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]])
    assert (np.abs(x) < 1e-8).all() and (np.abs(x) < 2.2250738585072014e-308).sum() > 40_000
    with np.errstate(divide="ignore", over="ignore"):
        series = 1.0 / x + x / 3.0
    assert coth(x).tobytes() == series.tobytes()
    assert coth(-0.0) == -math.inf and coth(0.0) == math.inf


PREDICTION_TAGS = [
    f"{c}-{d}-{m}" for c in ("xx", "xy") for d in ("engine", "fridge") for m in ("os", "sp")
]


def _prediction_draws(n, seed):
    rng = np.random.default_rng(seed)
    omega = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
    omega_prime = omega * rng.uniform(0.05, 0.95, n)
    return omega, omega_prime, omega_prime * rng.uniform(0.0, 0.1, n)


@pytest.mark.parametrize("baths", [BATHS, BathPair(0.7, 0.45), BathPair(9.0, 0.2)], ids=str)
def test_prediction_kernels_equal_their_scalar_calls(baths):
    omega, omega_prime, lam = _prediction_draws(500, 30)

    def same(array, scalar_call, *args):
        scalar = np.array([scalar_call(*map(float, a)) for a in zip(*args)])
        assert array.tobytes() == scalar.tobytes()

    for tag in PREDICTION_TAGS:
        def one(o, op, lm, tag=tag):
            return perturbative_prediction(tag, o, op, baths, lm)

        same(perturbative_prediction(tag, omega, omega_prime, baths, lam), one,
             omega, omega_prime, lam)
        # broadcasting: a (3, 1) column of frequencies against a row of couplings
        grid = perturbative_prediction(tag, omega[:3, None], omega_prime[:3, None], baths, lam)
        for i in range(3):
            same(grid[i], one, np.full(500, omega[i]), np.full(500, omega_prime[i]), lam)
    for gap in (xx_efficiency_difference, xx_cop_difference):
        same(gap(omega, omega_prime, baths, lam), lambda o, op, lm: gap(o, op, baths, lm),
             omega, omega_prime, lam)
    for mode in ("engine", "refrigerator"):
        same(critical_coupling(mode, omega, omega_prime, baths),
             lambda o, op: critical_coupling(mode, o, op, baths), omega, omega_prime)
    assert isinstance(perturbative_prediction("xx-engine-os", 4.0, 3.0, baths, 0.1), float)
    assert isinstance(critical_coupling("engine", 4.0, 3.0, baths), float)


def test_xy_predictions_are_symmetric_about_the_uncoupled_value():
    # the oscillators' and the spins' xy ratios are exact negatives, so
    # wherever the two predictions and the uncoupled value share a binade
    # (where rounding is symmetric) they lie at exactly equal distances
    omega, omega_prime, lam = _prediction_draws(20_000, 31)
    for device in ("engine", "fridge"):
        u = perturbative_prediction(f"xy-{device}-os", omega, omega_prime, BATHS, 0.0)
        assert u.tobytes() == perturbative_prediction(
            f"xy-{device}-sp", omega, omega_prime, BATHS, 0.0).tobytes()
        up = perturbative_prediction(f"xy-{device}-os", omega, omega_prime, BATHS, lam)
        down = perturbative_prediction(f"xy-{device}-sp", omega, omega_prime, BATHS, lam)
        same = (np.frexp(u)[1] == np.frexp(up)[1]) & (np.frexp(u)[1] == np.frexp(down)[1])
        assert same.mean() > 0.9
        assert np.array_equal((up - u)[same], (u - down)[same])
        # the coupling raises the oscillators' eta and lowers their zeta
        assert ((up - u) * (1.0 if device == "engine" else -1.0) >= 0.0).all()


def test_refrigerator_critical_coupling_is_the_engine_ones_negative():
    rng = np.random.default_rng(32)
    omega, omega_prime = rng.uniform(0.1, 10.0, (2, 10_000))
    for baths in (BATHS, BathPair(1.7, 0.6), BathPair(5.0, 4.9)):
        t_h, t_c = baths.t_h, baths.t_c
        engine = critical_coupling("engine", omega, omega_prime, baths)
        fridge = critical_coupling("refrigerator", omega, omega_prime, baths)
        assert fridge.tobytes() == (-engine).tobytes()
        # and the refrigerator's own formula, bit for bit
        pairs = zip(omega.tolist(), omega_prime.tolist())
        own = [(o * t_c - op * t_h) / (t_h - t_c) for o, op in pairs]
        assert fridge.tolist() == own


def test_xx_ratio_is_its_formula_to_1e_12_where_coth_or_tanh_values_cancel():
    # r = (T_h g(x)/g(y) - T_c g(y)/g(x)) / (2 T_h T_c sinh(x - y)), g = sinh
    # (oscillators) or cosh, at 50 digits from the rounded x and y, as r is
    # as ill-conditioned in them as sinh(x - y); every other draw lies within
    # 1e-3 of x = y, where coth x - coth y and tanh x - tanh y cancel, and x
    # runs up to 60, where tanh and coth round to 1
    rng = np.random.default_rng(30)
    n = 1000
    t_c = rng.uniform(0.2, 3.0, n)
    t_h = t_c * rng.uniform(1.05, 5.0, n)
    x = np.exp(rng.uniform(math.log(1e-3), math.log(60.0), n))
    y = np.where(np.arange(n) % 2, np.exp(rng.uniform(math.log(1e-3), math.log(60.0), n)),
                 x * (1.0 + rng.uniform(-1e-3, 1e-3, n)))
    omega, omega_prime = 2.0 * t_h * x, 2.0 * t_c * y
    x, y = 0.5 * omega / t_h, 0.5 * omega_prime / t_c  # as `_ratio` rounds them

    def sinh(z):
        return (z.exp() - (-z).exp()) / 2

    def cosh(z):
        return (z.exp() + (-z).exp()) / 2

    with localcontext() as ctx:
        ctx.prec = 50
        for medium, g in (("os", sinh), ("sp", cosh)):
            got = _ratio("xx", medium, omega, omega_prime, t_h, t_c)
            for r, *params in zip(got.tolist(), x, y, t_h, t_c):
                xd, yd, th, tc = map(Decimal, params)
                u = g(xd) / g(yd)
                numerator = th * u - tc / u
                want = numerator / (2 * th * tc * sinh(xd - yd))
                # not where r's own numerator cancels
                if abs(numerator) > Decimal(1e-6) * (th * u + tc / u):
                    assert abs(Decimal(r) - want) <= Decimal(1e-12) * abs(want), (medium, params)


def test_predictions_warn_nothing_where_sinh_overflows():
    # omega/T_h = 1500: sinh and cosh of it (and of its half) overflow, and
    # csch, sech go to 0; numpy's warnings are RuntimeWarning errors here
    baths = BathPair(2.0, 1.0)
    omega, omega_prime, lam = 3000.0, 2.0, 0.01
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = {tag: perturbative_prediction(tag, omega, omega_prime, baths, lam)
                  for tag in PREDICTION_TAGS}
        gaps = (xx_efficiency_difference(omega, omega_prime, baths, lam),
                xx_cop_difference(omega, omega_prime, baths, lam))
        critical_coupling("engine", [1e308, 4.0], [-1e308, 3.0], baths)
    assert all(map(math.isfinite, [*values.values(), *gaps]))
    # the limits csch(omega/T_h) = 0 and csch^2(omega/2T_h) = 0
    y = 0.5 * omega_prime / baths.t_c
    eta0 = 1.0 - omega_prime / omega
    assert values["xx-engine-os"] == pytest.approx(
        eta0 - (omega - omega_prime) / omega**2 * lam**2
        * baths.t_h / math.sinh(y) ** 2 / (2.0 * baths.t_h * baths.t_c * (1.0 - _coth(y))),
        rel=1e-14)
    csch = 1.0 / math.sinh(omega_prime / baths.t_c)
    assert gaps[0] == pytest.approx((omega - omega_prime) / omega**2 * lam**2 * csch / baths.t_c,
                                    rel=1e-14)


def _scalar_modes(kind, omega, c1, c2):
    """(w_a, w_b) from the closed forms, None where the decomposition fails."""
    if kind is OSC:
        if not omega > max(abs(c1), abs(c2)):
            return None
        w_a, w_b = math.sqrt((omega + c2) * (omega + c1)), math.sqrt((omega - c2) * (omega - c1))
    else:
        l_plus, l_minus = 0.5 * (c1 + c2), 0.5 * (c1 - c2)
        s = math.hypot(omega, l_minus)
        if not (omega > 0.0 and s > abs(l_plus)):
            return None
        w_a, w_b = s + l_plus, s - l_plus
    return (w_a, w_b) if w_a > 0.0 and w_b > 0.0 else None


def _scalar_regime(q_h, q_c, w, eps=None):
    """(regime, at_boundary, figure of merit) by the module docstring's rules."""
    if eps is None:
        eps = 1e-12 * max(abs(q_h), abs(q_c), 1.0)
    if w > eps and q_h > eps:
        return Regime.ENGINE, False, w / q_h
    if q_c > eps and w < -eps:
        return Regime.REFRIGERATOR, False, q_c / abs(w)
    near = (w > -eps and q_h > -eps) or (q_c > -eps and w < eps)
    return Regime.DISSIPATOR, near, None


def _scalar_row(kind, omega_h, omega_c, hot, cold, baths):
    """One cycle from the scalar closed forms, None where they refuse it."""
    if not all(map(math.isfinite, (omega_h, omega_c, *hot, *cold))):
        return None
    pair_h = _scalar_modes(kind, omega_h, *hot)
    pair_c = _scalar_modes(kind, omega_c, *cold)
    if pair_h is None or pair_c is None:
        return None
    modes = []
    for w_hot, w_cold in zip(pair_h, pair_c):
        q = mode_heats(kind, w_hot, w_cold, baths)
        modes.append((w_hot, w_cold, *q, *_scalar_regime(*q)))
    (_, _, qa_h, _, wa, ra, _, fa), (_, _, qb_h, _, wb, rb, _, fb) = modes
    totals = tuple(x + y for x, y in zip(modes[0][2:5], modes[1][2:5]))
    weight = bounds = None
    if ra is rb is Regime.ENGINE:
        weight = qa_h / (qa_h + qb_h)
    elif ra is rb is Regime.REFRIGERATOR:
        weight = abs(wa) / abs(wa + wb)
    if weight is not None:
        bounds = (min(fa, fb), max(fa, fb))
    return (*modes, totals, *_scalar_regime(*totals), weight, bounds)


def _column_row(c, i):
    def opt(x, present):
        return float(x) if present else None

    modes = [
        (float(c.omega_hot[m, i]), float(c.omega_cold[m, i]),
         float(c.q_h[m, i]), float(c.q_c[m, i]), float(c.w[m, i]),
         REGIMES[c.regime[m, i]], bool(c.at_boundary[m, i]),
         opt(c.figure_of_merit[m, i], c.operating[m, i]))
        for m in (0, 1)
    ]
    shared = bool(c.shared[i])
    return (
        *modes,
        (float(c.q_h_total[i]), float(c.q_c_total[i]), float(c.w_total[i])),
        REGIMES[c.global_regime[i]], bool(c.global_at_boundary[i]),
        opt(c.global_figure[i], c.global_operating[i]),
        opt(c.weight[i], shared),
        (float(c.bounds[0, i]), float(c.bounds[1, i])) if shared else None,
    )


@pytest.mark.parametrize("kind", [OSC, SPIN], ids=["osc", "spin"])
@pytest.mark.parametrize("model", ["xx", "xy", "general"])
def test_evaluate_cycles_matches_scalar_closed_forms_bit_for_bit(kind, model):
    rng = np.random.default_rng([7, kind is SPIN, len(model)])
    n = 1500
    omega_h = rng.uniform(2.0, 6.0, n)
    omega_c = omega_h * rng.uniform(0.2, 1.2, n)
    omega_c[:10] = [0.0, -1.0, 0.0, 1e-300, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0]
    omega_h[:10] = [4.0, 4.0, -2.0, 4.0, 4.0, 4.0, 4.0, 4.0, 5.0, 5.0]
    # couplings run past the instability; half the rows drive them too
    lam = rng.uniform(-1.3, 1.3, n) * omega_c
    lam[4:10] = [critical_coupling("engine", 4.0, 3.0, BATHS), 0.0, 1.0, 2.0,
                 critical_coupling("refrigerator", 5.0, 3.0, BATHS), 0.0]
    omega_h[10], lam[11] = math.inf, math.inf  # non-finite input is refused
    if kind is SPIN:
        # the spin kernel's |omega| (l_minus == 0) holds math.hypot's bits at
        # the edges: -0.0 couplings, the least subnormal and the float maximum
        big = np.finfo(float).max
        omega_h[12:18] = [4.0, 5e-324, 4.0, big, big, np.nextafter(big, 0.0)]
        omega_c[12:18] = [3.0, 3.0, 5e-324, 3.0, 1e308, 2.0]
        lam[12:18] = [-0.0, 0.0, -0.0, 0.0, -0.0, 1.0]
    other = lam * rng.uniform(-1.0, 1.0, n) if model == "general" else lam
    if model == "xy":
        other = -lam
    hot = np.stack([lam, other])
    cold = np.where(np.arange(n) % 2 == 0, hot, hot * rng.uniform(0.0, 1.5, n))
    for baths in (BATHS, BathPair(1.3, 0.4)):
        c = evaluate_cycles(kind, omega_h, omega_c, hot, cold, baths)
        expected = [
            _scalar_row(kind, omega_h[i], omega_c[i], hot[:, i], cold[:, i], baths)
            for i in range(n)
        ]
        assert c.valid.tolist() == [row is not None for row in expected]
        assert c.valid.sum() > n // 2 and not c.valid[:3].any()
        for i in np.flatnonzero(c.valid):
            assert _column_row(c, i) == expected[i], i
        assert np.isnan(c.figure_of_merit[c.valid & ~c.operating]).all()
        assert np.isnan(c.bounds[:, c.valid & ~c.shared]).all()
        if model == "xx" and baths is BATHS:
            # the critical couplings put one mode on the Carnot line
            assert c.at_boundary[:, 4:10].any()


def test_regime_codes_match_classify_regime():
    values = [-1.0, -1e-12, -1e-13, 0.0, 1e-13, 1e-12, 0.5, 2.0, float("nan")]
    triples = [(q_h, q_c, q_h + q_c) for q_h in values for q_c in values]
    triples += [(q_h, q_c, w) for q_h in values for q_c in values for w in values[3:5]]
    q_h, q_c, w = np.array(triples).T
    for eps in (None, 1e-12, 0.1):
        codes, boundary = regime_codes(q_h, q_c, w, eps)
        for i, triple in enumerate(triples):
            want = _scalar_regime(*triple, eps)[:2]
            assert (REGIMES[codes[i]], bool(boundary[i])) == want
            try:
                assert classify_regime(*triple, eps) == want
            except InconsistentEnergy:
                continue


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from([OSC, SPIN]),
    model=st.sampled_from(["xx", "xy", "general"]),
    omega=st.floats(0.1, 10.0),
    ratio=st.floats(0.05, 2.0),
    t_c=st.floats(0.1, 5.0),
    t_ratio=st.floats(1.1, 5.0),
    c=st.tuples(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95)),
)
def test_energy_balance_and_sandwich_bounds_property(kind, model, omega, ratio, t_c, t_ratio, c):
    # couplings below 0.95 x the smaller bare frequency keep every mode valid
    omega_prime = omega * ratio
    scale = min(omega, omega_prime)
    values = (scale * c[0], scale * c[1]) if model == "general" else (scale * c[0],)
    coupling = model_coupling(model, *values)
    col = evaluate_cycles(kind, omega, omega_prime, coupling, coupling, BathPair(t_c * t_ratio, t_c))
    assert col.valid.all()
    for q_h, q_c, w in ((col.q_h, col.q_c, col.w), (col.q_h_total, col.q_c_total, col.w_total)):
        tol = 1e-12 * np.maximum(np.maximum(np.abs(q_h), np.abs(q_c)), 1.0)
        assert (np.abs(w - q_h - q_c) <= tol).all()
    if col.shared[0]:
        lo, hi = col.bounds[:, 0]
        slack = 1e-12 * max(1.0, abs(hi))
        assert lo - slack <= col.global_figure[0] <= hi + slack
