"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with -s to see them on success)."""

import time

import numpy as np
import pytest

from ottopair.cli import RunConfig, figure_rows, main
from ottopair.cycle import REGIMES, Regime, evaluate_cycles, perturbative_prediction
from ottopair.medium import BathPair, MediumKind, model_coupling
from ottopair.optimize import SearchDomain, max_uncoupled_work, sample_engine_points
from ottopair.oracle import run_verification

OSC = MediumKind.OSCILLATOR
SPIN = MediumKind.SPIN
BATHS = BathPair(2.0, 1.0)


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS — {text}")


def test_criterion_1_oracle_equivalence():
    report = run_verification("full", seed=2024)
    assert report.elapsed < 60.0, f"oracle suite took {report.elapsed:.1f} s"
    for check in report.checks:
        # 1000 draws per medium/model; the sector-transport heat check
        # covers the two models with a conserved quantum number, and the
        # concurrence check the xx draws at both points of their cycle
        models = 2 if check.name in ("oscillator cycle heats", "spin concurrence") else 3
        assert check.draws >= 1000 * models
        assert check.max_residual < check.threshold, report.format_table()
    _report(
        1,
        "closed forms match brute-force diagonalization on "
        f"{report.checks[0].draws} draws/check "
        f"(worst spin {max(c.max_residual for c in report.checks if c.name.startswith('spin')):.2e} < 1e-12, "
        f"worst oscillator {max(c.max_residual for c in report.checks if c.name.startswith('osc')):.2e} < 1e-10, "
        f"{report.elapsed:.1f} s)",
    )


def test_criterion_2_sandwich_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    engine_total = fridge_total = 0
    for kind in (OSC, SPIN):
        for fridge_side in (False, True):
            n = 30000
            omega = rng.uniform(2.0, 8.0, n)
            ratio = rng.uniform(0.15, 0.45, n) if fridge_side else rng.uniform(0.55, 0.95, n)
            omega_prime = omega * ratio
            lam = rng.uniform(0.0, 0.5, n) * omega_prime
            cy = lam * np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
            c = evaluate_cycles(kind, omega, omega_prime, (lam, cy), (lam, cy), BATHS)
            regime = Regime.REFRIGERATOR if fridge_side else Regime.ENGINE
            sel = c.shared & (c.regime[0] == REGIMES.index(regime))
            fom_a, fom_b = c.figure_of_merit[:, sel]
            if fridge_side:
                glob = c.q_c_total[sel] / np.abs(c.w_total[sel])
                fridge_total += int(sel.sum())
            else:
                glob = c.w_total[sel] / c.q_h_total[sel]
                engine_total += int(sel.sum())
            lo = np.minimum(fom_a, fom_b)
            hi = np.maximum(fom_a, fom_b)
            assert (glob >= lo - 1e-12).all() and (glob <= hi + 1e-12).all()
    elapsed = time.perf_counter() - t0
    assert engine_total >= 10000 and fridge_total >= 10000
    assert elapsed < 10.0
    _report(
        2,
        f"min <= global <= max to 1e-12 on {engine_total} double-engine and "
        f"{fridge_total} double-refrigerator draws ({elapsed:.2f} s)",
    )


def _figure_by_lambda(name):
    header, blocks, _ = figure_rows(name, RunConfig(command="figure"))
    rows = {}
    for columns in blocks:
        cells = [
            values.tolist() if present is None
            else [x if p else None for x, p in zip(values.tolist(), present)]
            for values, present in columns
        ]
        rows.update({round(row[0], 10): row[1:] for row in zip(*cells)})
    return header, rows


def test_criterion_3_fig3_reproduction():
    _, rows = _figure_by_lambda("fig3")
    both_engine = 0
    for lam, (eta_a, eta_b, eta_os, eta_sp, carnot) in rows.items():
        if 0.0 < lam < 2.0 and eta_a is not None and eta_b is not None:
            both_engine += 1
            assert eta_os > eta_sp, f"eta ordering violated at lambda={lam}"
        for eta in (eta_os, eta_sp):
            if eta is not None:
                assert eta <= 0.5 + 1e-12, f"Carnot ceiling violated at lambda={lam}"
    assert both_engine == 199
    eta_a, eta_b, eta_os, eta_sp, _ = rows[2.0]
    assert eta_b is None
    for value in (eta_os, eta_sp, eta_a):
        assert value == pytest.approx(1.0 / 6.0, abs=1e-9)
    _report(
        3,
        "fig3: eta_os > eta_sp on (0, lambda_c); eta_os = eta_sp = eta_A = 1/6 "
        "at lambda_c = 2 within 1e-9; eta <= Carnot everywhere",
    )


def test_criterion_4_fig6_reproduction():
    _, rows = _figure_by_lambda("fig6")
    compared = 0
    for lam, (zeta_a, zeta_b, zeta_os, zeta_sp, carnot) in rows.items():
        if 0.0 < lam < 1.0 and zeta_os is not None and zeta_sp is not None:
            compared += 1
            assert zeta_sp > zeta_os, f"zeta ordering violated at lambda={lam}"
        for zeta in (zeta_os, zeta_sp):
            if zeta is not None:
                assert zeta <= 1.0 + 1e-9, f"Carnot COP violated at lambda={lam}"
    assert compared == 99
    zeta_a, zeta_b, zeta_os, zeta_sp, _ = rows[1.0]
    assert zeta_a is None
    assert zeta_os == pytest.approx(zeta_b, abs=1e-9)
    assert zeta_sp == pytest.approx(zeta_b, abs=1e-9)
    _report(
        4,
        "fig6: zeta_sp > zeta_os on (0, lambda_c'); zeta_os = zeta_sp = zeta_B "
        "at lambda_c' = 1 within 1e-9; zeta <= Carnot COP everywhere",
    )


def _global_figures(kind, model, omega, omega_prime, lam):
    """Global figure of merit of every cycle on a coupling grid, one
    `evaluate_cycles` call; nan where the pair does not operate."""
    coupling = model_coupling(model, lam)
    c = evaluate_cycles(kind, omega, omega_prime, coupling, coupling, BATHS)
    return np.where(c.global_operating, c.global_figure, np.nan)


def test_criterion_5_xy_exactness_and_symmetry():
    # engine side: both media operate up to lambda ~ 2.58 at (4, 3)
    lam = np.arange(0.0, 2.55, 0.05)
    assert _global_figures(OSC, "xy", 4.0, 3.0, lam) == pytest.approx(
        1.0 - np.sqrt((9.0 - lam**2) / (16.0 - lam**2)), abs=1e-12
    )
    assert _global_figures(SPIN, "xy", 4.0, 3.0, lam) == pytest.approx(
        1.0 - np.sqrt((9.0 + lam**2) / (16.0 + lam**2)), abs=1e-12
    )
    # refrigerator side: both media operate up to lambda ~ sqrt(3) at (5, 2)
    lam = np.arange(0.0, 1.70, 0.05)
    assert _global_figures(OSC, "xy", 5.0, 2.0, lam) == pytest.approx(
        1.0 / (np.sqrt((25.0 - lam**2) / (4.0 - lam**2)) - 1.0), abs=1e-12
    )
    assert _global_figures(SPIN, "xy", 5.0, 2.0, lam) == pytest.approx(
        1.0 / (np.sqrt((25.0 + lam**2) / (4.0 + lam**2)) - 1.0), abs=1e-12
    )
    # second-order symmetry about the uncoupled value: quartic remainder
    lam = np.array([0.01, 0.02])
    sums = sum(_global_figures(kind, "xy", 4.0, 3.0, lam) - 0.25 for kind in (OSC, SPIN))
    ratio = sums[1] / sums[0]
    assert 12.8 < ratio < 19.2
    _report(
        5,
        f"XY closed forms match evaluate_cycles to 1e-12 on both grids; "
        f"symmetry remainder is quartic (halving ratio {ratio:.2f})",
    )


def test_criterion_6_perturbative_convergence():
    ratios = {}
    for tag, kind, omega, omega_prime in (
        ("xx-engine-os", OSC, 4.0, 3.0),
        ("xx-engine-sp", SPIN, 4.0, 3.0),
        ("xx-fridge-os", OSC, 5.0, 2.0),
        ("xx-fridge-sp", SPIN, 5.0, 2.0),
    ):
        exact = _global_figures(kind, "xx", omega, omega_prime, np.array([0.01, 0.02]))
        errs = [
            abs(e - perturbative_prediction(tag, omega, omega_prime, BATHS, lam))
            for e, lam in zip(exact, (0.01, 0.02))
        ]
        ratios[tag] = errs[1] / errs[0]
        assert 12.8 < ratios[tag] < 19.2, (tag, ratios[tag])
    _report(
        6,
        "second-order expansions deviate as O(lambda^4): halving ratios "
        + ", ".join(f"{k}={v:.1f}" for k, v in ratios.items()),
    )


def _zoom_grid_spin_max():
    """Independent dense-grid oracle for the single-spin work optimum:
    a 2000 x 2000 grid over [0, 10]^2 followed by repeated 60 x 60 zooms."""

    def work(w, wp):
        return 0.5 * (w - wp) * (np.tanh(wp / 2.0) - np.tanh(w / 4.0))

    w = np.linspace(0.0, 10.0, 2000)
    wp = np.linspace(0.0, 10.0, 2000)
    vals = work(w[:, None], wp[None, :])
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    cw, cwp = w[i], wp[j]
    span = 10.0 / 1999
    for _ in range(16):
        gw = np.linspace(max(0.0, cw - span), cw + span, 60)
        gwp = np.linspace(max(0.0, cwp - span), cwp + span, 60)
        vals = work(gw[:, None], gwp[None, :])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        cw, cwp, span = gw[i], gwp[j], span / 12.0
    return cw, cwp, float(work(cw, cwp))


def test_criterion_7_optimal_work_bound():
    t0 = time.perf_counter()
    w_star, wp_star, w_single = _zoom_grid_spin_max()
    w0_pair = 2.0 * w_single

    # the library optimizer must agree with the independent oracle
    _, _, w_lib = max_uncoupled_work(SPIN, BATHS)
    assert w_lib == pytest.approx(w_single, abs=1e-8)

    # seed chosen so the near-optimal set is non-empty and the
    # zero-concurrence claim is exercised, not vacuously true
    samples = sample_engine_points(2, 100000, SearchDomain(), BATHS)
    assert len(samples), "engine filter rejected every sample"
    w, c_h, c_c = samples.w_total, samples.c_h, samples.c_c
    assert (w <= w0_pair + 1e-9).all()
    near = w > w0_pair - 1e-3
    assert near.sum() >= 1
    assert (c_h[near] < 0.02).all() and (c_c[near] < 0.02).all()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        7,
        f"optimal work bound holds on {len(samples)} engine samples "
        f"(W_0^max = {w0_pair:.9f} at omega = {w_star:.4f}, omega' = {wp_star:.4f}); "
        f"{int(near.sum())} near-optimal samples all have C_h, C_c < 0.02 "
        f"({elapsed:.1f} s)",
    )


def test_criterion_8_fig5_determinism(tmp_path, capsys):
    paths = [tmp_path / "fig5_a.csv", tmp_path / "fig5_b.csv"]
    for path in paths:
        code = main(["figure", "fig5", "--seed", "0", "--out", str(path)])
        assert code == 0
    capsys.readouterr()
    a, b = (p.read_bytes() for p in paths)
    assert a == b and len(a) > 0
    n_rows = a.count(b"\n") - 1
    _report(8, f"`figure fig5 --seed 0` is byte-identical across runs ({n_rows} rows)")
