import contextlib
import csv
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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ottopair
import ottopair.cli as cli
import ottopair.cycle as cycle
import ottopair.medium as medium
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
    ],
    ids=["omega", "omega-prime", "th", "tc"],
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


def test_optimizer_overflow_raises_no_warning(capsys):
    # the objective maps overflowing points to -inf without numpy warnings;
    # the huge bath refuses the inf optimum, the huge box still has one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "optimize", "--medium", "osc", "--model", "xx",
                                 "--th", "1e308", "--tc", "1", "--resolution", "5")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "domain error: non-finite number inf in the output document\n"
        code, _, err = run_cli(capsys, "optimize", "--medium", "spin", "--model", "xx",
                               "--th", "2", "--tc", "1", "--domain-max", "1e308",
                               "--resolution", "5")
    assert (code, err) == (EXIT_OK, "")


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
