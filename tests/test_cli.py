import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ottopair
import ottopair.cli as cli
import ottopair.cycle as cycle
import ottopair.medium as medium
import ottopair.optimize as optimize
from ottopair.cli import EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, EXIT_PIPE, EXIT_VERIFY, main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_cycle_json_within_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "cycle", "--medium", "spin", "--model", "xx",
        "--omega", "4", "--omega-prime", "3", "--lam", "1", "--th", "2", "--tc", "1",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    eta = doc["global"]["figure_of_merit"]
    assert 0.2 < eta < 1.0 / 3.0
    assert doc["global"]["bounds"] == [0.2, pytest.approx(1.0 / 3.0)]
    assert doc["modes"]["A"]["regime"] == "engine"


def test_cycle_uncoupled_efficiency(capsys):
    code, out, _ = run_cli(
        capsys, "cycle", "--medium", "osc", "--model", "xx",
        "--omega", "4", "--omega-prime", "3", "--lam", "0", "--th", "2", "--tc", "1",
    )
    assert code == EXIT_OK
    assert json.loads(out)["global"]["figure_of_merit"] == pytest.approx(0.25)


def test_unstable_mode_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "cycle", "--medium", "osc", "--model", "xy",
        "--omega", "4", "--omega-prime", "3", "--lam", "3.5", "--th", "2", "--tc", "1",
    )
    assert code == EXIT_DOMAIN
    assert "unstable mode" in err


def test_missing_flag_names_field(capsys):
    code, _, err = run_cli(
        capsys, "cycle", "--medium", "spin", "--model", "xx",
        "--omega", "4", "--omega-prime", "3", "--th", "2", "--tc", "1",
    )
    assert code == EXIT_CONFIG
    assert "--lam" in err
    code, _, err = run_cli(capsys, "cycle", "--model", "xx", "--lam", "1")
    assert code == EXIT_CONFIG
    assert "--medium" in err


def test_bad_temperatures_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "cycle", "--medium", "spin", "--model", "xx",
        "--omega", "4", "--omega-prime", "3", "--lam", "1", "--th", "1", "--tc", "2",
    )
    assert code == EXIT_CONFIG
    assert "--th" in err


def test_unknown_figure_name_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["figure", "not-a-figure"])
    assert exc.value.code == 2


def test_fig3_dataset(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    code, _, _ = run_cli(capsys, "figure", "fig3", "--out", str(out))
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["lambda_J", "eta_A", "eta_B", "eta_os", "eta_sp", "eta_carnot"]
    assert len(rows) == 301
    by_lam = {float(r[0]): r for r in rows}
    row = by_lam[2.0]  # critical coupling: eta_B empty, global hits eta_A
    assert row[2] == ""
    assert float(row[1]) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert float(row[3]) == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert float(row[4]) == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert float(row[5]) == 0.5
    # oscillators beat spins while both modes run as engines
    for lam in (0.5, 1.0, 1.5):
        row = by_lam[lam]
        assert float(row[3]) > float(row[4])


def test_fig6_dataset(tmp_path, capsys):
    out = tmp_path / "fig6.csv"
    code, _, _ = run_cli(capsys, "figure", "fig6", "--out", str(out))
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["lambda_J", "zeta_A", "zeta_B", "zeta_os", "zeta_sp", "zeta_carnot"]
    by_lam = {float(r[0]): r for r in rows}
    row = by_lam[1.0]  # fridge critical coupling: zeta_A empty, global = zeta_B
    assert row[1] == ""
    zeta_b = float(row[2])
    assert zeta_b == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert float(row[3]) == pytest.approx(zeta_b, abs=1e-9)
    assert float(row[4]) == pytest.approx(zeta_b, abs=1e-9)
    for lam in (0.25, 0.5, 0.75):
        row = by_lam[lam]
        assert float(row[4]) > float(row[3])  # spins pump better than oscillators


def test_fig5_determinism_and_schema(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "figure", "fig5", "--seed", "0", "--n", "3000", "--out", str(path)
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    header, rows = read_csv(a)
    assert header == ["W", "C_h", "C_c", "omega", "omega_prime", "lambda_J"]
    assert rows, "no engine samples accepted"
    for row in rows[:10]:
        assert 0.0 <= float(row[1]) <= 1.0
    # no sampled work may beat the uncoupled-pair optimum (dense-grid value)
    w0_pair = 0.14861494152702756
    assert max(float(row[0]) for row in rows) <= w0_pair + 1e-9


def test_csv_serializes_17_significant_digits(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    run_cli(capsys, "figure", "fig3", "--sweep", "0.7:0.7:1", "--out", str(out))
    _, rows = read_csv(out)
    eta_os = rows[0][3]
    mantissa = eta_os.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) >= 16
    # frozen from an independent evaluation of the per-mode coth sums
    assert float(eta_os) == pytest.approx(0.2601942564848093, rel=1e-14)


def test_sweep_general_model_requires_direction(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--medium", "osc", "--model", "general",
        "--omega", "4", "--omega-prime", "3", "--th", "2", "--tc", "1",
        "--sweep", "0:1:0.5",
    )
    assert code == EXIT_CONFIG
    assert "--lx" in err

    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--medium", "osc", "--model", "general",
        "--omega", "4", "--omega-prime", "3", "--th", "2", "--tc", "1",
        "--lx", "1", "--lp", "0.5", "--sweep", "0:1:0.5", "--out", str(out),
    )
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert len(rows) == 3
    assert float(rows[2][1]) == pytest.approx(math.sqrt(4.5 * 5.0), rel=1e-12)


def test_sweep_emits_empty_cells_past_instability(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--medium", "spin", "--model", "xx",
        "--omega", "4", "--omega-prime", "3", "--th", "2", "--tc", "1",
        "--sweep", "2.5:3.5:0.5", "--out", str(out),
    )
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert rows[0][8] == "engine"  # lambda=2.5, mode A still an engine
    assert all(cell == "" for cell in rows[2][1:])  # lambda=3.5 invalid


def test_config_file_merge_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "medium": "spin", "model": "xx", "omega": 4.0, "omega_prime": 3.0,
                "lam": 1.0, "th": 2.0, "tc": 1.0,
            }
        )
    )
    code, out, _ = run_cli(capsys, "cycle", "--config", str(cfg))
    assert code == EXIT_OK
    assert 0.2 < json.loads(out)["global"]["figure_of_merit"] < 1.0 / 3.0
    code, out, _ = run_cli(capsys, "cycle", "--config", str(cfg), "--lam", "2")
    assert json.loads(out)["global"]["figure_of_merit"] == pytest.approx(1.0 / 6.0)
    code, _, err = run_cli(capsys, "cycle", "--config", str(tmp_path / "missing.json"))
    assert code == EXIT_CONFIG


def test_json_format_output(capsys):
    code, out, _ = run_cli(
        capsys, "figure", "fig7a", "--sweep", "0:0.1:0.05", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc) == 3
    assert doc[0]["eta_os"] == pytest.approx(0.25)
    assert set(doc[0]) == {"lambda_J", "eta_os", "eta_sp", "eta_uncoupled"}


def test_verify_quick_passes(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--seed", "5")
    assert time.perf_counter() - start < 10.0
    assert code == EXIT_OK
    assert "pass" in out and "FAIL" not in out


@pytest.mark.parametrize(
    "module, name",
    [
        (medium, "oscillator_mode_frequencies"),
        (medium, "spin_mode_frequencies"),
        (cycle, "heats_arrays"),
    ],
    ids=["oscillator_mode_frequencies", "spin_mode_frequencies", "heats_arrays"],
)
def test_verify_detects_corrupted_formula(capsys, monkeypatch, module, name):
    # mutation sanity check: corrupt a kernel the CLI prints from and the
    # oracle suite must catch it
    true_fn = getattr(module, name)
    if module is medium:
        # negate the second coupling (lambda_p, or j_y)
        def corrupted(omega, c_x, c_y):
            return true_fn(omega, c_x, -c_y)
    else:
        # swap the bath temperatures
        def corrupted(kind, omega_hot, omega_cold, beta_h, beta_c):
            return true_fn(kind, omega_hot, omega_cold, beta_c, beta_h)

    monkeypatch.setattr(module, name, corrupted)
    code, out, _ = run_cli(capsys, "verify", "--level", "quick")
    assert code == EXIT_VERIFY
    assert "FAIL" in out


def test_optimize_reports_saturated_bound(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--medium", "spin", "--model", "xx",
        "--th", "2", "--tc", "1", "--resolution", "40",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["coupled"]["w_max"] <= doc["uncoupled"]["w_pair_max"] + 1e-9
    assert doc["coupled"]["bound_saturated"] is True
    assert doc["coupled"]["params"][2] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("model", ["xx", "xy", "general"])
def test_optimize_oscillator_saturates_the_bound(capsys, model):
    # both optima are the corner limit of the closed-form supremum, which
    # no printed point attains
    code, out, _ = run_cli(capsys, "optimize", "--medium", "osc", "--model", model,
                           "--th", "2", "--tc", "1", "--resolution", "6")
    assert code == EXIT_OK
    un, co = (json.loads(out)[k] for k in ("uncoupled", "coupled"))
    sup = 2.0 * (math.sqrt(2.0) - 1.0) ** 2
    assert (co["bound_saturated"], co["bound_margin"]) == (True, 0.0)
    assert co["w_max"] == un["w_pair_max"] == 2.0 * un["w_single_max"]
    assert co["w_max"] == pytest.approx(sup, rel=1e-12)
    assert (un["supremum"], co["supremum"]) == pytest.approx((sup / 2.0, sup), rel=1e-15)
    assert un["attained"] is co["attained"] is False
    assert co["params"] == [un["omega"], un["omega_prime"]] + [0.0] * (len(co["params"]) - 2)


def test_optimize_spin_documents_no_supremum(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--medium", "spin", "--model", "xx",
                           "--th", "2", "--tc", "1", "--resolution", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert list(doc["uncoupled"]) == ["omega", "omega_prime", "w_single_max", "w_pair_max"]
    assert list(doc["coupled"]) == ["params", "w_max", "bound_margin", "bound_saturated"]


def test_optimize_oscillator_point_lies_in_a_small_box(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--medium", "osc", "--model", "xx", "--th", "2",
                           "--tc", "1", "--domain-max", "1e-9", "--resolution", "5")
    assert code == EXIT_OK
    doc = json.loads(out)
    # the coupled point moves along the ray into the box; the uncoupled
    # point, over all frequencies, does not
    assert all(0.0 <= v <= 1e-9 for v in doc["coupled"]["params"])
    assert doc["uncoupled"]["omega"] > 1e-9
    assert doc["coupled"]["bound_saturated"] is True


@pytest.mark.parametrize("medium_name", ["spin", "osc"])
@pytest.mark.parametrize("model", ["xx", "xy", "general"])
@pytest.mark.parametrize("th, tc", [("2", "1"), ("5", "4.9"), ("2", "1.9"), ("2", "1.9999")])
def test_optimize_pair_optimum_is_twice_the_single_optimum(capsys, medium_name, model, th, tc):
    # w_pair_max is 2 * w_single_max for both media; no coupled optimum
    # beats it beyond the tolerance, and a box that holds the uncoupled
    # point returns that point at zero coupling, where w_max meets it exactly
    code, out, err = run_cli(capsys, "optimize", "--medium", medium_name, "--model", model,
                             "--th", th, "--tc", tc)
    assert (code, err) == (EXIT_OK, "")
    un, co = (json.loads(out)[k] for k in ("uncoupled", "coupled"))
    assert un["w_pair_max"] == 2.0 * un["w_single_max"] > 0.0
    r = math.sqrt(float(tc) / float(th))
    tol = un["w_pair_max"] * (1e-9 + 4.0 * sys.float_info.epsilon / (1.0 - r))
    assert co["w_max"] <= un["w_pair_max"] + tol
    if max(un["omega"], un["omega_prime"]) <= 10.0:
        assert co["w_max"] == un["w_pair_max"]
        assert co["params"] == [un["omega"], un["omega_prime"]] + [0.0] * (len(co["params"]) - 2)


@pytest.mark.parametrize("model", ["xx", "xy", "general"])
def test_optimize_spin_box_that_cuts_the_optimum_is_searched(capsys, model):
    # at (5, 4.9) the optimum has omega ~ 11.9, outside the default box:
    # xx and general stop at its omega = 10 face, while xy's modes
    # hypot(omega, lambda) reach the optimum with omega inside the box
    code, out, _ = run_cli(capsys, "optimize", "--medium", "spin", "--model", model,
                           "--th", "5", "--tc", "4.9")
    assert code == EXIT_OK
    un, co = (json.loads(out)[k] for k in ("uncoupled", "coupled"))
    assert un["omega"] > 10.0 and all(0.0 <= v <= 10.0 for v in co["params"])
    if model == "xy":
        assert 0.0 <= co["bound_margin"] < 1e-14 and co["bound_saturated"] is True
    else:
        assert co["bound_margin"] == pytest.approx(1.84e-5, rel=0.01)
        assert co["bound_saturated"] is False


@pytest.mark.parametrize("argv, flags", [
    (["--model", "xy", "--th", "12", "--tc", "11.76", "--resolution", "20"], ["--lam"]),
    (["--model", "general", "--th", "5", "--tc", "4.9", "--resolution", "12",
      "--domain-max", "1"], ["--jx", "--jy"]),
])
def test_optimize_prints_the_work_cycle_prints_at_its_params(capsys, argv, flags):
    # two cut-box searches whose objective once decomposed the spins with
    # numpy's hypot, one ulp off the rows: w_max is the totals.w of `cycle`
    code, out, _ = run_cli(capsys, "optimize", "--medium", "spin", *argv)
    assert code == EXIT_OK
    co = json.loads(out)["coupled"]
    omega, omega_prime, *coupling = map(repr, co["params"])
    code, out, _ = run_cli(capsys, "cycle", "--medium", "spin", *argv[:6], "--omega", omega,
                           "--omega-prime", omega_prime,
                           *(x for pair in zip(flags, coupling) for x in pair))
    assert code == EXIT_OK
    assert json.loads(out)["totals"]["w"] == co["w_max"]


def _load_bench_checks():
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("medium_name, model, th, tc, extra", [
    # oscillator boxes that clip the anchor along its ray; in the 1e-10,
    # 9e-12 and 5e-11 boxes its work rounds 2-6e-16 above 2 * w_single_max
    ("osc", "xx", "2", "1", ("--domain-max", "1e-9", "--resolution", "5")),
    ("osc", "xx", "2", "1", ("--domain-max", "1e-10", "--resolution", "5")),
    ("osc", "xy", "2", "1", ("--domain-max", "9e-12", "--resolution", "5")),
    ("osc", "general", "3.7", "0.2", ("--domain-max", "5e-11", "--resolution", "5")),
    ("osc", "xx", "1.0000001", "1", ("--domain-max", "1e-6", "--resolution", "5")),
    # spin boxes that cut the optimum, searched by the pattern search
    ("spin", "xx", "5", "4.9", ()),
    ("spin", "xy", "5", "4.9", ()),
    ("spin", "general", "5", "4.9", ()),
])
def test_optimize_coupled_optimum_never_passes_the_pair_optimum(
    capsys, medium_name, model, th, tc, extra
):
    # a coupled optimum above 2 * w_single_max by rounding is printed as it,
    # so bound_margin is never negative and the benchmark's own check of
    # the document, w_pair_max == max(2 * w_single_max, w_max), holds
    code, out, err = run_cli(capsys, "optimize", "--medium", medium_name, "--model", model,
                             "--th", th, "--tc", tc, *extra)
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    co = doc["coupled"]
    assert co["bound_margin"] >= 0.0 and co["w_max"] <= doc["uncoupled"]["w_pair_max"]
    p = dict(medium=medium_name, model=model, th=float(th), tc=float(tc))
    assert _load_bench_checks().check_optimize(doc, p) == 1


def test_optimize_searches_the_uncoupled_optimum_once(capsys, monkeypatch):
    # the coupled optimum takes the uncoupled point the command computed
    calls = []
    curve = optimize._spin_curve_optimum
    monkeypatch.setattr(optimize, "_spin_curve_optimum", lambda b: calls.append(b) or curve(b))
    code, _, _ = run_cli(capsys, "optimize", "--medium", "spin", "--model", "xx",
                         "--th", "2", "--tc", "1", "--resolution", "5")
    assert code == EXIT_OK and len(calls) == 1


def test_optimize_spin_large_box_holds_the_optimum(capsys):
    # a box of side 1000 holds the optimum, so no search runs to its cap
    code, out, err = run_cli(capsys, "optimize", "--medium", "spin", "--model", "xx",
                             "--th", "2", "--tc", "1", "--domain-max", "1000")
    assert (code, err) == (EXIT_OK, "")
    co = json.loads(out)["coupled"]
    assert (co["bound_margin"], co["params"][2]) == (0.0, 0.0)


def test_optimize_oscillator_unevaluable_limit_point_exits_3(capsys):
    # at T_c/T_h = 1e-295 the limit point's cold frequency squares to zero
    # in the coupled modes at the anchor
    code, out, err = run_cli(capsys, "optimize", "--medium", "osc", "--model", "xx",
                             "--th", "1e-5", "--tc", "1e-300", "--resolution", "5")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("domain error: the anchor [")


@pytest.mark.parametrize("th, tc", [("1e-10", "5e-11"), ("1e-3", "5e-4")])
def test_optimize_zero_spin_optimum_exits_3(capsys, th, tc):
    # the default box holds the optimum at omega ~ 2 T_h however small T_h
    # is; a box so much smaller that the work in it underflows to 0 is
    # refused, not printed as the maximum, with the box that holds it
    code, out, _ = run_cli(capsys, "optimize", "--medium", "spin", "--model", "xx",
                           "--th", th, "--tc", tc)
    assert code == EXIT_OK
    un = json.loads(out)["uncoupled"]
    assert un["w_single_max"] > 0.0
    code, out, err = run_cli(capsys, "optimize", "--medium", "spin", "--model", "xx", "--th", th,
                             "--tc", tc, "--domain-max", repr(1e-170 * math.sqrt(float(th))))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith("domain error: the optimum found has work 0.0")
    assert f"--domain-max of at least {un['omega']!r} holds the optimum" in err


def test_optimize_box_far_below_the_optimum_names_the_box_that_holds_it(capsys):
    # the work underflows in a box of side 1e-300; a smaller one cannot help
    code, out, err = run_cli(capsys, "optimize", "--medium", "spin", "--th", "2", "--tc", "1",
                             "--domain-max", "1e-300")
    assert (code, out) == (EXIT_DOMAIN, "")
    omega = optimize.max_uncoupled_work(medium.MediumKind.SPIN, medium.BathPair(2.0, 1.0))[0]
    assert err.startswith("domain error: the optimum found has work 0.0")
    assert err.endswith(f"a --domain-max of at least {omega!r} holds the optimum\n")


def test_sample_command_schema(tmp_path, capsys):
    out = tmp_path / "samples.csv"
    code, _, _ = run_cli(
        capsys, "sample", "--th", "2", "--tc", "1", "--n", "2000",
        "--seed", "1", "--out", str(out),
    )
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == [
        "omega", "omega_prime", "lambda_J", "W_total", "C_h", "C_c",
        "regime_A", "regime_B",
    ]
    assert rows and rows[0][6] in ("engine", "refrigerator", "dissipator")


def test_sample_at_a_cold_bath_whose_beta_overflows(tmp_path, capsys):
    # 1 / 5e-324 is inf: every cold state is the ground state |dd>, as
    # lambda < omega' in every engine draw, so no C_c is above 0
    out = tmp_path / "samples.csv"
    code, _, err = run_cli(capsys, "sample", "--th", "2", "--tc", "5e-324", "--out", str(out))
    assert code == EXIT_OK and err == ""
    header, rows = read_csv(out)
    assert rows and {row[header.index("C_c")] for row in rows} == {"0"}
    assert any(float(row[header.index("C_h")]) > 0.0 for row in rows)


@pytest.mark.parametrize("to_file", [False, True])
def test_sample_refuses_a_frequency_whose_top_level_overflows(tmp_path, capsys, to_file):
    out = tmp_path / "samples.csv"
    args = ("sample", "--th", "1e306", "--tc", "1e305", "--domain-max", "1e308")
    code, stdout, err = run_cli(capsys, *args, *(("--out", str(out)) if to_file else ()))
    assert code == EXIT_DOMAIN and stdout == "" and not out.exists()
    assert err.startswith("domain error: sampled frequency ")
    assert err.endswith(" puts the top level 3*omega past the float range\n")


_SWEEP_ARGS = (
    "sweep", "--medium", "osc", "--model", "xx", "--th", "2", "--tc", "1",
)


@pytest.mark.parametrize(
    "grid",
    ["nan:1:0.1", "0:nan:0.1", "0:1:nan", "0:inf:0.1", "-inf:1:0.1", "0:1:inf", "0:1e12:1e-9"],
)
def test_sweep_rejects_non_finite_or_oversized_grid(capsys, grid):
    code, out, err = run_cli(
        capsys, *_SWEEP_ARGS, "--omega", "4", "--omega-prime", "3", f"--sweep={grid}",
    )
    assert code == EXIT_CONFIG
    assert out == ""
    assert "--sweep" in err


@pytest.mark.parametrize(
    "grid,rows", [("0:1:0.6", 2), ("0:1:0.5", 3), ("0:0.3:0.1", 4), ("0:1.99:0.01", 200)]
)
@pytest.mark.parametrize("command", ["sweep", "figure"])
def test_sweep_grid_never_ends_past_hi(capsys, command, grid, rows):
    # the largest row count whose last point stays <= hi within rounding
    if command == "sweep":
        args = _SWEEP_ARGS + ("--omega", "4", "--omega-prime", "3")
    else:
        args = ("figure", "fig3")
    code, out, _ = run_cli(capsys, *args, f"--sweep={grid}", "--format", "json")
    assert code == EXIT_OK
    lam = [row.get("lambda", row.get("lambda_J")) for row in json.loads(out)]
    assert len(lam) == rows
    assert lam[-1] <= float(grid.split(":")[1]) * (1 + 1e-12)


@pytest.mark.parametrize("omega,omega_prime", [("0", "3"), ("4", "-1"), ("nan", "3")])
def test_sweep_non_positive_frequency_exits_3(capsys, omega, omega_prime):
    code, out, err = run_cli(
        capsys, *_SWEEP_ARGS, f"--omega={omega}", f"--omega-prime={omega_prime}",
        "--sweep", "0:1:0.5",
    )
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "positive" in err


_CYCLE_ARGS = ("cycle", "--medium", "spin", "--model", "xx", "--lam", "1")


@pytest.mark.parametrize(
    "args,code",
    [
        (("--omega", "inf", "--omega-prime", "3", "--th", "2", "--tc", "1"), EXIT_DOMAIN),
        (("--omega", "4", "--omega-prime", "inf", "--th", "2", "--tc", "1"), EXIT_DOMAIN),
        (("--omega", "4", "--omega-prime", "3", "--th", "inf", "--tc", "1"), EXIT_CONFIG),
        (("--omega", "4", "--omega-prime", "3", "--th", "2", "--tc", "inf"), EXIT_CONFIG),
        (("--omega", "4", "--omega-prime", "3", "--th", "2", "--tc", "1", "--lam", "nan"),
         EXIT_DOMAIN),
    ],
    ids=["omega", "omega-prime", "th", "tc", "lam"],
)
def test_cycle_rejects_non_finite_input(capsys, args, code):
    got, out, err = run_cli(capsys, *_CYCLE_ARGS, *args)
    assert (got, out) == (code, "")
    assert "finite" in err


@pytest.mark.parametrize(
    "args",
    [
        ("--model", "xx", "--omega", "inf", "--omega-prime", "3"),
        ("--model", "xx", "--omega", "4", "--omega-prime", "inf"),
        ("--model", "general", "--lx", "inf", "--lp", "1", "--omega", "4", "--omega-prime", "3"),
    ],
    ids=["omega", "omega-prime", "direction"],
)
def test_sweep_rejects_non_finite_input(capsys, args):
    code, out, err = run_cli(
        capsys, "sweep", "--medium", "osc", "--th", "2", "--tc", "1", "--sweep", "0:1:0.5", *args
    )
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "finite" in err


def test_figure_rejects_non_finite_temperature(capsys):
    code, out, err = run_cli(capsys, "figure", "fig3", "--th", "inf")
    assert (code, out) == (EXIT_CONFIG, "")
    assert "finite" in err


def test_figure_rejects_inverted_bath_pair(capsys):
    code, out, err = run_cli(capsys, "figure", "fig3", "--th", "1", "--tc", "2")
    assert (code, out) == (EXIT_CONFIG, "")
    assert "--th/--tc" in err


_DOMAIN_COMMANDS = {
    "optimize": ("optimize", "--medium", "spin", "--model", "xx", "--th", "2", "--tc", "1"),
    "sample": ("sample", "--th", "2", "--tc", "1", "--n", "10"),
    "fig5": ("figure", "fig5", "--n", "10"),
}


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("command", sorted(_DOMAIN_COMMANDS))
def test_domain_max_must_be_positive_and_finite(capsys, command, value):
    code, out, err = run_cli(capsys, *_DOMAIN_COMMANDS[command], f"--domain-max={value}")
    assert (code, out) == (EXIT_CONFIG, "")
    assert "--domain-max" in err


@pytest.mark.parametrize(
    "args,flag",
    [
        (_DOMAIN_COMMANDS["sample"] + ("--n", "0"), "--n"),
        (_DOMAIN_COMMANDS["fig5"][:2] + ("--n", "0"), "--n"),
        (_DOMAIN_COMMANDS["optimize"] + ("--resolution", "1"), "--resolution"),
    ],
    ids=["sample-n", "fig5-n", "optimize-resolution"],
)
def test_count_below_minimum_exits_2(capsys, args, flag):
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (EXIT_CONFIG, "")
    assert flag in err


_GENERAL_OPTIMIZE = _DOMAIN_COMMANDS["optimize"] + ("--model", "general")


@pytest.mark.parametrize(
    "args,flag",
    [
        (_DOMAIN_COMMANDS["sample"] + ("--n", "10000001"), "--n"),
        (_DOMAIN_COMMANDS["sample"] + ("--n", "1000000000000000"), "--n"),
        (_DOMAIN_COMMANDS["fig5"][:2] + ("--n", "10000001"), "--n"),
        (_DOMAIN_COMMANDS["optimize"] + ("--resolution", "1001"), "--resolution"),
        (_DOMAIN_COMMANDS["optimize"] + ("--resolution", "100000000"), "--resolution"),
        (_GENERAL_OPTIMIZE + ("--resolution", "101"), "--resolution"),
    ],
    ids=["sample-n", "sample-n-huge", "fig5-n", "optimize-resolution", "optimize-resolution-huge",
         "optimize-general-resolution"],
)
def test_count_above_maximum_exits_2(capsys, monkeypatch, args, flag):
    # refused before anything is drawn or allocated
    def unreachable(*_, **__):
        raise AssertionError("the search or sampler ran")

    for name in ("sample_engine_points", "max_uncoupled_work", "max_coupled_work"):
        monkeypatch.setattr(cli, name, unreachable)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (EXIT_CONFIG, "")
    assert flag in err and "at most" in err


def test_non_finite_json_value_exits_3(tmp_path, capsys, monkeypatch):
    # refused before anything is written: no partial document on stdout
    # and no --out file
    nan = float("nan")
    monkeypatch.setattr(cli, "max_coupled_work", lambda *_: ((4.0, 3.0, nan), nan))
    code, out, err = run_cli(capsys, *_DOMAIN_COMMANDS["optimize"], "--resolution", "4")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "non-finite" in err
    assert "NaN" not in err
    target = tmp_path / "opt.json"
    code, out, err = run_cli(
        capsys, *_DOMAIN_COMMANDS["optimize"], "--resolution", "4", "--out", str(target)
    )
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "non-finite" in err
    assert not target.exists()


_CYCLE_ARGV = ("cycle", "--medium", "spin", "--model", "xx", "--omega", "4", "--omega-prime", "3",
               "--lam", "1", "--th", "2", "--tc", "1")


@pytest.mark.parametrize("bad", [float("inf"), -float("inf")], ids=["inf", "-inf"])
@pytest.mark.parametrize("command", ["cycle", "optimize"])
def test_infinite_json_value_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, command, bad):
    # an infinity deep in the document is refused by the JSON encoder itself,
    # before stdout or the --out file is touched
    if command == "cycle":
        cycle_doc = cli._cycle_doc

        def patched(c):
            doc = cycle_doc(c)
            doc["modes"]["B"]["q_h"] = bad
            return doc

        monkeypatch.setattr(cli, "_cycle_doc", patched)
        argv = _CYCLE_ARGV
    else:
        monkeypatch.setattr(cli, "max_coupled_work", lambda *_: ((4.0, 3.0, 0.5), bad))
        argv = (*_DOMAIN_COMMANDS["optimize"], "--resolution", "4")
    target = tmp_path / "doc.json"
    for extra in ([], ["--out", str(target)]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "non-finite" in err and "Infinity" not in err
    assert not target.exists()


def test_cycle_with_a_subnormal_mode_writes_nothing_to_stderr():
    # mode B's hot frequency is subnormal, so the efficiency w / q_h that its
    # dissipator regime discards would overflow; a child process, so that
    # numpy's warning would reach its stderr as it would a user's
    src = str(Path(ottopair.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["cycle", "--medium", "spin", "--model", "xx", "--omega", "1e-300",
            "--omega-prime", "1.3", "--lam", "0.99999999999999e-300", "--th", "2", "--tc", "1"]
    proc = subprocess.run([sys.executable, "-m", "ottopair.cli", *argv], capture_output=True,
                          env=env, timeout=60, check=False)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    doc = json.loads(proc.stdout)
    assert doc["modes"]["B"]["omega_hot"] == 9.94685527e-315
    assert [doc["modes"][m]["regime"] for m in "AB"] == ["dissipator", "dissipator"]


def _reference_rows(header, columns):
    """The rows of `columns` as dicts, None where absent: what the per-cell
    writer took."""
    names = [r.value for r in cycle.REGIMES]
    n = len(columns[0][0]) if columns else 0
    return [
        {
            k: None if present is not None and not present[i]
            else float(values[i]) if values.dtype.kind == "f" else names[values[i]]
            for k, (values, present) in zip(header, columns)
        }
        for i in range(n)
    ]


def _reference_csv(header, rows):
    def cell(value):
        if value is None:
            return ""
        return value if isinstance(value, str) else format(value, ".17g")

    return "".join([",".join(header) + "\n"] + [",".join(map(cell, r.values())) + "\n" for r in rows])


def _writer_columns(case, n, seed=5):
    """Seeded float and regime columns: some masked, with -0.0,
    subnormals, 1e308 and non-finite values where absent; powers of ten
    and their neighbours (1e-280 lies below 10^-280, yet log10 gives
    exactly -280), exact 18-digit ties that `%` rounds half to even, and
    values with 3-digit exponents."""
    rng = np.random.default_rng(seed)
    tens = np.array([1e-280, 1e-5, 1e-4, 1e16, 1e17, 1e22, 1e23, 1e280])
    specials = np.concatenate([
        [-0.0, 0.0, 5e-324, -2.2e-310, 1e308, -1e308, 0.1, 1.0],
        tens, np.nextafter(tens, 0), -np.nextafter(tens, np.inf),
        [1.0 + 2.0**-17, -(1.0 + 3 * 2.0**-17), 0.5 + 2.0**-18],
        [1.2345678901234567e-100, -9.87654321e150, 3e-300, 1.5e+279],
    ])

    def floats(mask=None):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        pick = rng.random(n) < 0.3
        x[pick] = rng.choice(specials, int(pick.sum()))
        if mask is not None:
            x[~mask & (rng.random(n) < 0.5)] = rng.choice([np.nan, np.inf, -np.inf])
        return x

    codes = rng.integers(0, 3, n).astype(np.int8)
    if case == "all-empty":
        none = np.zeros(n, dtype=bool)
        return ["a", "r", "b"], [(floats(none), none), (codes, none), (floats(none), none)]
    a, b = rng.random(n) < 0.6, rng.random(n) < 0.4
    if case == "unmasked":
        return ["a", "r", "b"], [(floats(), None), (codes, None), (floats(), None)]
    header = ["x", "y", "regime_y", "z", "regime", "t"]
    return header, [
        (floats(), None), (floats(a), a), (codes, a), (floats(b), b),
        (codes[::-1].copy(), None), (floats(b), b),
    ]


@pytest.mark.parametrize("n", [0, 1, 57, 2 * cli._ROW_CHUNK + 3])
@pytest.mark.parametrize("case", ["mixed", "all-empty", "unmasked"])
def test_row_writer_equals_the_per_cell_writer(capsys, monkeypatch, case, n):
    # CSV chunks of 166 (mixed) or 333 rows: 2051 rows cross chunk edges
    monkeypatch.setattr(cli, "_CSV_CELLS", 1000)
    header, columns = _writer_columns(case, n)
    rows = _reference_rows(header, columns)
    cli._write_rows(cli.RunConfig(command="sweep"), header, columns)
    assert capsys.readouterr().out == _reference_csv(header, rows)
    cli._write_rows(cli.RunConfig(command="sweep", format="json"), header, columns)
    assert capsys.readouterr().out == json.JSONEncoder(indent=2).encode(rows) + "\n"


def test_row_writer_leaves_absent_non_finite_values_empty(capsys):
    columns = [
        (np.array([np.nan, -0.0, -np.inf]), np.array([False, True, False])),
        (np.array([0, 1, 2], dtype=np.int8), np.array([True, False, True])),
    ]
    cli._write_rows(cli.RunConfig(command="sweep"), ["w", "r"], columns)
    assert capsys.readouterr().out == "w,r\n,engine\n-0,\n,dissipator\n"
    cli._write_rows(cli.RunConfig(command="sweep", format="json"), ["w", "r"], columns)
    assert json.loads(capsys.readouterr().out) == [
        {"w": None, "r": "engine"}, {"w": -0.0, "r": None}, {"w": None, "r": "dissipator"},
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_row_value_exits_3(tmp_path, capsys, monkeypatch, fmt, bad):
    # the last row is past a full chunk: nothing of the first is written
    n = cli._ROW_CHUNK + 2
    values = np.ones(n)
    values[-1] = bad
    columns = [(np.arange(n, dtype=float), None), (values, np.ones(n, dtype=bool))]
    monkeypatch.setattr(cli, "figure_rows", lambda name, cfg: (["a", "b"], columns))
    target = tmp_path / "rows.out"
    for extra in ([], ["--out", str(target)]):
        code, out, err = run_cli(capsys, "figure", "fig3", "--format", fmt, *extra)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "non-finite" in err
    assert not target.exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"medium": "spin", "omega": 4.0, "bogus": 1}))
    code, out, err = run_cli(
        capsys, "cycle", "--config", str(cfg), "--omega-prime", "3", "--lam", "1",
        "--th", "2", "--tc", "1",
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert "'bogus'" in err


@pytest.mark.parametrize(
    "command", [("sample", "--th", "2", "--tc", "1", "--n", "10"), ("verify",)]
)
def test_negative_seed_exits_2(capsys, command):
    code, out, err = run_cli(capsys, *command, "--seed", "-1")
    assert (code, out) == (EXIT_CONFIG, "")
    assert "--seed" in err


def test_config_value_of_wrong_type_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"medium": "spin", "omega": "abc", "omega_prime": 3.0}))
    code, out, err = run_cli(capsys, "cycle", "--config", str(cfg), "--lam", "1")
    assert (code, out) == (EXIT_CONFIG, "")
    assert "'omega'" in err


def test_unwritable_out_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "figure", "fig3", "--out", str(tmp_path / "no" / "x.csv"))
    assert code == EXIT_CONFIG
    assert "--out" in err


_CYCLE_POINT = ("cycle", "--lam", "1", "--omega", "4", "--omega-prime", "3", "--th", "2",
                "--tc", "1")


@pytest.mark.parametrize(
    "command,values",
    [
        (("figure", "fig3"), {"format": "xml"}),
        (("optimize", "--medium", "spin", "--th", "2", "--tc", "1"), {"model": "XX"}),
        (("optimize", "--medium", "spin", "--th", "2", "--tc", "1"), {"model": "bogus"}),
        (_CYCLE_POINT + ("--medium", "spin"), {"model": "bogus"}),
        (_CYCLE_POINT + ("--model", "xx"), {"medium": "OSC"}),
        (("verify",), {"level": "slow"}),
        (("sample", "--th", "2", "--tc", "1", "--n", "10"), {"format": None}),
    ],
    ids=["format-xml", "model-XX", "optimize-model-bogus", "cycle-model-bogus", "medium-OSC",
         "level-slow", "format-null"],
)
def test_config_choice_outside_the_flag_choices_exits_2(tmp_path, capsys, command, values):
    # a config file gets the same choices as the flags, with no case folding
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run_cli(capsys, *command, "--config", str(cfg))
    assert (code, out) == (EXIT_CONFIG, "")
    assert "must be one of" in err


def test_config_null_is_the_option_default(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": None, "domain_max": None}))
    args = ("sample", "--th", "2", "--tc", "1", "--n", "300")
    with_nulls = run_cli(capsys, *args, "--config", str(cfg))
    assert with_nulls == run_cli(capsys, *args)
    assert with_nulls[0] == EXIT_OK and with_nulls[1].count("\n") > 1


@pytest.mark.parametrize(
    "args",
    [
        ("fig7a", "--omega", "0", "--sweep", "0:0.02:0.01"),
        ("fig7b", "--omega", "3", "--omega-prime", "3", "--sweep", "0:1:1"),
        ("fig7a", "--omega", "nan"),
        ("fig3", "--omega", "inf"),
        ("fig6", "--omega-prime", "-1"),
        ("fig7a", "--omega", "1e-320", "--sweep", "0:0:1"),
    ],
    ids=["fig7a-zero", "fig7b-equal", "fig7a-nan", "fig3-inf", "fig6-negative", "fig7a-tiny"],
)
def test_figure_refuses_bad_frequencies(capsys, args):
    code, out, err = run_cli(capsys, "figure", *args)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "omega" in err


_POINT_ARGS = ("--omega", "4", "--omega-prime", "3", "--th", "2", "--tc", "1")
_OVERFLOW = ("--medium", "osc", "--model", "xx", "--omega", "4", "--omega-prime", "3",
             "--th", "1e308", "--tc", "1e-308")


def test_overflowing_heats_are_refused(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "cycle", *_OVERFLOW, "--lam", "0")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert "non-finite heats" in err
        # the sweep prints the row the way it prints an unstable one
        code, out, _ = run_cli(capsys, "sweep", *_OVERFLOW, "--sweep", "0:0:1")
    assert code == EXIT_OK
    assert out.splitlines()[1] == "0" + "," * 21


def test_overflowing_sweep_coupling_is_an_unstable_row(capsys):
    # 1e308 times the grid value 2 overflows the coupling with no warning
    code, out, err = run_cli(capsys, "sweep", "--medium", "osc", "--model", "general",
                             "--lx", "1e308", "--lp", "0", *_POINT_ARGS, "--sweep", "0:2:1")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[3] == "2" + "," * 21
    # an overflowing spin coupling makes sqrt(omega^2 + lm^2) and lp infinite
    code, out, err = run_cli(capsys, "sweep", "--medium", "spin", "--model", "general",
                             "--jx", "2", "--jy", "1", *_POINT_ARGS, "--sweep", "1e308:1e308:1")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1] == "1e+308" + "," * 21


def test_optimizer_overflow_raises_no_warning(capsys):
    # the objective maps overflowing points to -inf without numpy warnings;
    # the huge bath refuses the pair optimum, whose supremum overflows, and
    # the huge box, whose grid values are all 0 or -inf, certifies the anchor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "optimize", "--medium", "osc", "--model", "xx",
                                 "--th", "1e308", "--tc", "1", "--resolution", "5")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("domain error: the anchor [")
        assert err.endswith("gives work -inf, not the supremum inf\n")
        for model in ("xx", "general"):
            code, out, err = run_cli(capsys, "optimize", "--medium", "spin", "--model", model,
                                     "--th", "2", "--tc", "1", "--domain-max", "1e308",
                                     "--resolution", "5")
            assert (code, err) == (EXIT_OK, "")
            doc = json.loads(out)
            assert doc["coupled"]["w_max"] == doc["uncoupled"]["w_pair_max"] > 0.0
        # the spin optimum omega ~ 1.28 T_h is finite at T_h = 1e308, so the
        # curve search's bracket stops at the largest finite omega; past
        # about 1.4e308 the optimum itself lies beyond it and is refused
        code, out, err = run_cli(capsys, "optimize", "--medium", "spin", "--th", "1e308",
                                 "--tc", "1", "--resolution", "5")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["uncoupled"]["omega"] == pytest.approx(1.2784645e308)
        code, out, err = run_cli(capsys, "optimize", "--medium", "spin", "--th", "1.5e308",
                                 "--tc", "1", "--resolution", "5")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err.startswith("domain error: the uncoupled optimum at omega = 1.79769")


def test_closed_stdout_pipe_exits_141():
    src = str(Path(ottopair.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ottopair.cli", "sweep", "--medium", "osc", "--model", "xx",
         "--omega", "4", "--omega-prime", "3", "--th", "2", "--tc", "1", "--sweep", "0:3:0.0001"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"lambda,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_PIPE
    assert err == b""


# ---------------------------------------------------------------------------
# the option contract: an invocation accepts exactly the options it reads

# a valid value of each of the 19 options, for adding it where it is foreign
_VALID = {
    "medium": "osc", "model": "xx", "omega": 4.0, "omega-prime": 3.0, "lam": 1.0, "jx": 1.0,
    "jy": 0.5, "lx": 1.0, "lp": 0.5, "th": 2.0, "tc": 1.0, "seed": 1, "n": 10, "out": "OUT",
    "format": "csv", "sweep": "0:1:0.5", "domain-max": 5.0, "resolution": 4, "level": "quick",
}
_POINT = {"omega": 4.0, "omega-prime": 3.0, "th": 2.0, "tc": 1.0}
_NEW_POINT = {"omega": 4.5, "omega-prime": 2.5, "th": 2.5, "tc": 0.5}
_DRAWS = {"th": 2.5, "tc": 0.5, "seed": 1, "n": 200, "domain-max": 5.0, "format": "json",
          "out": "OUT"}
_FIGURE_ROWS = {**_NEW_POINT, "sweep": "0:0.5:0.25", "format": "json", "out": "OUT"}


def _general(medium):
    return {"jx": 1.0, "jy": 0.5} if medium == "spin" else {"lx": 1.0, "lp": 0.5}


# invocation -> (leading argv, options of a valid run, a second valid value of
# every option the invocation reads); the last one's keys are the read set
_INVOCATIONS = {
    **{
        f"cycle-{model}": (
            ["cycle"], {"medium": "spin", "model": model, **_POINT, "lam": 1.0},
            {"medium": "osc", "model": other, **_NEW_POINT, "lam": 0.5, "out": "OUT"},
        )
        for model, other in (("xx", "xy"), ("xy", "xx"))
    },
    **{
        f"cycle-{medium}-general": (
            ["cycle"], {"medium": medium, "model": "general", **_POINT, **_general(medium)},
            {"medium": other, "model": "xx", **_NEW_POINT, **{k: -0.3 for k in _general(medium)},
             "out": "OUT"},
        )
        for medium, other in (("spin", "osc"), ("osc", "spin"))
    },
    **{
        f"sweep-{model}": (
            ["sweep"], {"medium": "osc", "model": model, **_POINT, "sweep": "0:1:0.5"},
            {"medium": "spin", "model": other, **_NEW_POINT, "sweep": "0:1:0.25",
             "format": "json", "out": "OUT"},
        )
        for model, other in (("xx", "xy"), ("xy", "xx"))
    },
    **{
        f"sweep-{medium}-general": (
            ["sweep"],
            {"medium": medium, "model": "general", **_POINT, **_general(medium),
             "sweep": "0:1:0.5"},
            {"medium": other, "model": "xx", **_NEW_POINT, **{k: -0.3 for k in _general(medium)},
             "sweep": "0:1:0.25", "format": "json", "out": "OUT"},
        )
        for medium, other in (("spin", "osc"), ("osc", "spin"))
    },
    **{name: (["figure", name], {}, _FIGURE_ROWS) for name in ("fig3", "fig6", "fig7a", "fig7b")},
    "fig5": (["figure", "fig5"], {"n": 300}, _DRAWS),
    "optimize": (
        ["optimize"], {"medium": "spin", "model": "xx", "th": 2.0, "tc": 1.0, "resolution": 4},
        {"medium": "osc", "model": "xy", "th": 2.5, "tc": 0.5, "domain-max": 5.0,
         "resolution": 5, "out": "OUT"},
    ),
    "sample": (["sample"], {"th": 2.0, "tc": 1.0, "n": 300}, _DRAWS),
    "verify": (["verify"], {}, {"level": "full", "seed": 1}),
}


def _options_argv(options, out):
    argv = []
    for name, value in options.items():
        argv += [f"--{name}", out if value == "OUT" else str(value)]
    return argv


def _run_invocation(capsys, name, options, tmp_path, config=None):
    """(exit code, stdout, --out bytes or None) of one invocation."""
    out = tmp_path / "out.txt"
    argv = _INVOCATIONS[name][0] + _options_argv(options, str(out))
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    written = out.read_bytes() if out.exists() else None
    if out.exists():
        out.unlink()
    return code, capsys.readouterr().out, written


@pytest.fixture
def stub_oracle(monkeypatch):
    # verify at --level full takes half a minute; the stub shows which
    # level and seed the command passed on
    class Report:
        def __init__(self, level, seed):
            self.ok, self.table = True, f"{level} {seed}"

        def format_table(self):
            return self.table

    monkeypatch.setattr(cli, "run_verification", lambda level, seed: Report(level, seed))


_FOREIGN = [
    (name, option)
    for name, (_, _, reads) in _INVOCATIONS.items()
    for option in _VALID
    if option not in reads
]


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("name,option", _FOREIGN, ids=[f"{n}-{o}" for n, o in _FOREIGN])
def test_foreign_option_exits_2(tmp_path, capsys, stub_oracle, name, option, route):
    _, base, reads = _INVOCATIONS[name]
    options = dict(base, **({"out": "OUT"} if "out" in reads else {}))
    if route == "flag":
        got = _run_invocation(capsys, name, {**options, option: _VALID[option]}, tmp_path)
    else:
        value = str(tmp_path / "out.txt") if option == "out" else _VALID[option]
        got = _run_invocation(
            capsys, name, options, tmp_path, config={option.replace("-", "_"): value}
        )
    assert got == (EXIT_CONFIG, "", None)


_OWN = [(name, option) for name, (_, _, reads) in _INVOCATIONS.items() for option in reads]


@pytest.mark.parametrize("name,option", _OWN, ids=[f"{n}-{o}" for n, o in _OWN])
def test_own_option_changes_the_result(tmp_path, capsys, stub_oracle, name, option):
    _, base, reads = _INVOCATIONS[name]
    before = _run_invocation(capsys, name, base, tmp_path)
    after = _run_invocation(capsys, name, {**base, option: reads[option]}, tmp_path)
    assert before[0] == EXIT_OK
    assert after != before


@pytest.mark.parametrize("command", ["cycle", "sweep", "figure", "optimize", "sample", "verify"])
def test_help_lists_exactly_the_options_read(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    # the option lines of the help text: "  --name ..." or "  -h, --help ..."
    listed = set(re.findall(r"^ +(?:-\w, )?--([\w-]+)", capsys.readouterr().out, re.MULTILINE))
    reads = set().union(*(
        reads for name, (lead, _, reads) in _INVOCATIONS.items() if lead[0] == command
    ))
    assert listed == reads | {"help", "config"}


def test_figure_options_go_on_either_side_of_the_name(capsys):
    after = run_cli(capsys, "figure", "fig3", "--th", "2.5", "--sweep", "0:0.5:0.25")
    assert run_cli(capsys, "figure", "--th", "2.5", "--sweep", "0:0.5:0.25", "fig3") == after
    assert after[0] == EXIT_OK
    # the dataset's read set is checked after parsing, on either side
    assert run_cli(capsys, "figure", "--seed", "1", "fig3") == (
        EXIT_CONFIG, "", "config error: figure fig3 does not read --seed\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cycle", "--seed", "1"],
        ["sweep", "--n", "3"],
        ["figure", "fig3", "--lam", "3"],
        ["optimize", "--seed", "1"],
        ["sample", "--lam", "3"],
        ["verify", "--out", "v.txt"],
    ],
    ids=lambda argv: argv[0],
)
def test_unregistered_option_prints_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (EXIT_CONFIG, "")
    assert captured.err.startswith(f"usage: ottopair {argv[0]} ")
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["figure", "--lam", "3", "fig3"], "--lam 3"),
        (["figure", "--th", "2.5", "--jx", "0.5", "fig5"], "--jx 0.5"),
        (["figure", "--level", "full", "--sweep", "0:1:0.5", "fig7a"], "--level full"),
        (["figure", "--la", "3", "fig3"], "--la 3"),
        (["figure", "--jx", "0.5", "fig5"], "--jx 0.5"),
        (["figure", "--lev", "full", "fig5"], "--lev full"),
        (["figure", "--l", "3", "fig3"], "--l 3"),
        (["figure", "--lam", "-1e-3", "fig3"], "--lam -1e-3"),
    ],
    ids=["fig3", "fig5", "fig7a", "fig3-prefix", "fig5-first", "fig5-prefix", "fig3-prefixes",
         "fig3-exponent"],
)
def test_unregistered_option_before_the_dataset_name_is_named(capsys, argv, named):
    # the flag's value is not taken for the dataset name
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (EXIT_CONFIG, "")
    assert captured.err.startswith("usage: ottopair figure ")
    assert f"error: unrecognized arguments: {named}\n" in captured.err


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one `main` call, argparse refusals too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_POINTS = ["--omega", "4", "--omega-prime", "3", "--th", "2", "--tc", "1"]
_OSC_CYCLE = ["cycle", "--medium", "osc", "--model", "xx", *_POINTS]


@pytest.mark.parametrize(
    "argv, flag, value, expected",
    [
        (_OSC_CYCLE, "--lam", "-1e-3", EXIT_OK),
        (_OSC_CYCLE, "--la", "-1e-3", EXIT_OK),
        (["sweep", "--medium", "osc", "--model", "general", *_POINTS, "--lx", "0.5",
          "--sweep", "0:1:0.5"], "--lp", "-2E-1", EXIT_OK),
        (["cycle", "--medium", "spin", "--model", "general", *_POINTS, "--jx", "0.1"],
         "--jy", "-1e308", EXIT_DOMAIN),
        (_OSC_CYCLE, "--lam", "-inf", EXIT_DOMAIN),
        (["sweep", "--medium", "osc", "--model", "xx", *_POINTS], "--sweep", "-1:1:0.5", EXIT_OK),
    ],
    ids=["exponent", "prefix", "capital-exponent", "huge", "infinite", "grid"],
)
def test_a_value_that_starts_with_a_dash_is_taken_as_in_the_equals_form(
    capsys, argv, flag, value, expected
):
    # argparse alone takes only plain negative numbers such as -1 after a flag
    spaced = _outcome(capsys, [*argv, flag, value])
    assert spaced == _outcome(capsys, [*argv, f"{flag}={value}"])
    assert spaced[0] == expected
    assert "expected one argument" not in spaced[2]


def test_a_flag_after_a_flag_is_not_taken_as_its_value(capsys):
    code, out, err = _outcome(capsys, ["cycle", "--lam", "--omega", "3"])
    assert (code, out) == (EXIT_CONFIG, "")
    assert "error: argument --lam: expected one argument" in err


def test_ambiguous_option_prefix_is_left_to_argparse(capsys):
    # --om could be --omega or --omega-prime, which figure fig3 reads
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--om", "4", "fig3"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (EXIT_CONFIG, "")
    assert "error: ambiguous option: --om could match --omega, --omega-prime" in captured.err


def test_read_sets_hold_51_option_slots():
    # the 19 options in 6 subcommands were 114 slots; the help test ties
    # these read sets to the parser
    slots = {
        command: set().union(*(r for lead, _, r in _INVOCATIONS.values() if lead[0] == command))
        for command in ("cycle", "sweep", "figure", "optimize", "sample", "verify")
    }
    counts = {command: len(options) for command, options in slots.items()}
    assert counts == {"cycle": 12, "sweep": 13, "figure": 10, "optimize": 7, "sample": 7,
                      "verify": 2}
    assert sum(counts.values()) == 51


@pytest.mark.parametrize(
    "values,word",
    [
        ({"n": 4.7}, "int"),
        ({"resolution": 5.9}, "int"),
        ({"seed": True}, "int"),
        ({"th": True}, "float"),
        ({"domain_max": False}, "float"),
        ({"n": "4.5"}, "int"),
        ({"command": "sample"}, "unknown"),
        ({"figure": "fig3"}, "unknown"),
    ],
)
def test_config_value_keeps_its_json_type(tmp_path, capsys, values, word):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run_cli(capsys, "sample", "--th", "2", "--tc", "1", "--n", "10",
                             "--config", str(cfg))
    assert (code, out) == (EXIT_CONFIG, "")
    assert word in err


@pytest.mark.parametrize(
    "values",
    [{"th": 2, "n": 300.0, "seed": 0}, {"th": "2", "n": "300", "seed": "0"},
     {"th": 2.0, "n": 3e2, "seed": 0.0}],
)
def test_integral_and_numeric_string_config_values_are_accepted(tmp_path, capsys, values):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    from_file = run_cli(capsys, "sample", "--tc", "1", "--config", str(cfg))
    from_flags = run_cli(capsys, "sample", "--tc", "1", "--th", "2", "--n", "300", "--seed", "0")
    assert from_file == from_flags
    assert from_file[0] == EXIT_OK


def test_verify_reads_its_config_keys(tmp_path, capsys, stub_oracle):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 3, "level": "full"}))
    assert run_cli(capsys, "verify", "--config", str(cfg)) == (EXIT_OK, "full 3\n", "")


_DEV_FULL = Path("/dev/full")


@pytest.mark.skipif(not _DEV_FULL.exists(), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv,to_stdout",
    [
        (_CYCLE_POINT + ("--medium", "spin", "--model", "xx"), True),
        (_CYCLE_POINT + ("--medium", "spin", "--model", "xx", "--out", "/dev/full"), False),
        (("figure", "fig3", "--out", "/dev/full"), False),
        (("figure", "fig3"), True),
    ],
    ids=["cycle-stdout", "cycle-out", "fig3-out", "fig3-stdout"],
)
def test_failed_write_exits_2(argv, to_stdout):
    src = str(Path(ottopair.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with open(_DEV_FULL, "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ottopair.cli", *argv],
            stdout=full if to_stdout else subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            timeout=60, check=False,
        )
    assert proc.returncode == EXIT_CONFIG
    # one line, and no "Exception ignored" at interpreter exit
    assert proc.stderr == b"config error: cannot write output: [Errno 28] No space left on device\n"
    assert _DEV_FULL.exists()


def test_failed_write_removes_the_partial_out_file(tmp_path):
    target = tmp_path / "rows.csv"

    def chunks():
        yield "x" * 100_000  # reaches the file before the failure
        raise OSError(28, "No space left on device")

    with pytest.raises(cli.ConfigError, match="cannot write output"):
        cli._write_text(cli.RunConfig(command="sweep", out=str(target)), chunks())
    assert not target.exists()


# ---------------------------------------------------------------------------
# property test: `cycle` prints the fields of a one-row `sweep`

# cycle document (section, key) -> sweep row field, per mode A/B where {m}
_CYCLE_AS_SWEEP = {
    **{
        ("modes", m.upper(), key): field.format(m=m)
        for m in "ab"
        for key, field in (
            ("omega_hot", "omega_{m}_hot"), ("omega_cold", "omega_{m}_cold"),
            ("q_h", "q_h_{m}"), ("q_c", "q_c_{m}"), ("w", "w_{m}"),
            ("regime", "regime_{m}"), ("figure_of_merit", "fom_{m}"),
        )
    },
    ("totals", "q_h"): "q_h_total",
    ("totals", "q_c"): "q_c_total",
    ("totals", "w"): "w_total",
    ("global", "regime"): "regime",
    ("global", "figure_of_merit"): "global_fom",
}


def _quiet_main(argv):
    """(exit code, stdout) of one in-process run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    medium=st.sampled_from(["osc", "spin"]),
    model=st.sampled_from(["xx", "xy", "general"]),
    omega=st.floats(0.05, 8.0),
    ratio=st.floats(0.05, 2.0),
    t_c=st.floats(0.1, 4.0),
    t_ratio=st.floats(1.05, 5.0),
    c=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
)
def test_cycle_equals_a_one_row_sweep(medium, model, omega, ratio, t_c, t_ratio, c):
    # couplings up to 1.5x the smaller bare frequency reach unstable modes
    omega_prime = omega * ratio
    cx, cy = (min(omega, omega_prime) * x for x in c)
    point = [f"--omega={omega!r}", f"--omega-prime={omega_prime!r}",
             f"--th={t_c * t_ratio!r}", f"--tc={t_c!r}"]
    common = ["--medium", medium, "--model", model, *point]
    if model == "general":
        # the general sweep scales its direction by the grid value 1
        direction = [f"--{name}={x!r}" for name, x in zip(_general(medium), (cx, cy))]
        cycle_argv = ["cycle", *common, *direction]
        sweep_argv = ["sweep", *common, *direction, "--sweep=1:1:1"]
    else:
        cycle_argv = ["cycle", *common, f"--lam={cx!r}"]
        sweep_argv = ["sweep", *common, f"--sweep={cx!r}:{cx!r}:1"]
    code, out = _quiet_main(sweep_argv + ["--format", "json"])
    assert code == EXIT_OK
    (row,) = json.loads(out)
    empty = all(value is None for field, value in row.items() if field != "lambda")
    code, out = _quiet_main(cycle_argv)
    assert code == (EXIT_DOMAIN if empty else EXIT_OK)
    if empty:
        assert out == ""
        return
    doc = json.loads(out)
    for (section, *keys), field in _CYCLE_AS_SWEEP.items():
        value = doc[section]
        for key in keys:
            value = value[key]
        assert value == row[field], (section, keys, field)
    bounds = doc["global"]["bounds"]
    assert (bounds or [None, None]) == [row["bound_lower"], row["bound_upper"]]


# ---------------------------------------------------------------------------
# property test: every documented flag, edge values included

_EDGE = [0.0, -1.0, math.nan, math.inf, 1e-320, 1e308]
_VALUE = st.one_of(
    st.sampled_from(_EDGE + [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]),
    st.floats(-2.0, 8.0),
)


def _flag(name, value):
    return [f"--{name}={value!r}"]


@st.composite
def _grid(draw):
    lo, step = draw(_VALUE), draw(_VALUE)
    return f"{lo!r}:{lo + step * draw(st.integers(0, 49))!r}:{step!r}"


@st.composite
def _argv(draw):
    """(argv, foreign): a documented invocation and, rarely, one option it
    does not read, which must be refused."""
    command = draw(st.sampled_from(["cycle", "sweep", "figure", "sample"]))
    argv, invocation = [command], command
    if command == "figure":
        invocation = draw(st.sampled_from(["fig3", "fig6", "fig7a", "fig7b"]))
        argv.append(invocation)
    optional = lambda name: _flag(name, draw(_VALUE)) if draw(st.booleans()) else []
    if command in ("cycle", "sweep"):
        medium = draw(st.sampled_from(["osc", "spin"]))
        model = draw(st.sampled_from(["xx", "xy", "general"]))
        argv += ["--medium", medium, "--model", model]
        if model == "general":
            invocation = f"{command}-{medium}-general"
            couplings = list(_general(medium))
        else:
            invocation = f"{command}-{model}"
            couplings = ["lam"] if command == "cycle" else []  # the sweep grid is the coupling
        for name in ["omega", "omega-prime", "th", "tc", *couplings]:
            argv += _flag(name, draw(_VALUE))
    else:
        for name in ["th", "tc"] + (["omega", "omega-prime"] if command == "figure" else []):
            argv += optional(name)
    if command in ("sweep", "figure"):
        argv += ["--sweep", draw(_grid())]
    if command == "sample":
        argv += ["--n", str(draw(st.integers(-1, 200))), "--seed", str(draw(st.integers(-1, 9)))]
        argv += optional("domain-max")
    if command != "cycle":
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    foreign = draw(st.integers(0, 9)) == 0
    if foreign:
        reads = _INVOCATIONS[invocation][2]
        option = draw(st.sampled_from([o for o in _VALID if o not in reads]))
        argv += [f"--{option}", str(_VALID[option])]
    return argv, foreign


def _refuse_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


def _assert_finite_fields(text, is_json):
    if is_json:
        json.loads(text, parse_constant=_refuse_constant)
        return
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), row


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=_argv(), to_file=st.booleans())
def test_cli_never_crashes_or_prints_non_finite_numbers(case, to_file):
    argv, foreign = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "out")
        if to_file:
            argv = argv + ["--out", str(path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN), (code, stderr.getvalue())
        assert code == EXIT_CONFIG or not foreign, argv
        text = path.read_text() if to_file and path.exists() else stdout.getvalue()
    if code != EXIT_OK:
        assert text == ""  # a refused input prints nothing
    else:
        _assert_finite_fields(text, argv[0] == "cycle" or "json" in argv)
