import contextlib
import csv
import io
import json
import math
import os
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


@pytest.mark.parametrize("command", [("sample", "--th", "2", "--tc", "1"), ("verify",)])
def test_negative_seed_exits_2(capsys, command):
    code, out, err = run_cli(capsys, *command, "--n", "10", "--seed", "-1")
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
    command = draw(st.sampled_from(["cycle", "sweep", "figure", "sample"]))
    argv = [command]
    if command == "figure":
        argv.append(draw(st.sampled_from(["fig3", "fig6", "fig7a", "fig7b"])))
    optional = lambda name: _flag(name, draw(_VALUE)) if draw(st.booleans()) else []
    if command in ("cycle", "sweep"):
        model = draw(st.sampled_from(["xx", "xy", "general"]))
        argv += ["--medium", draw(st.sampled_from(["osc", "spin"])), "--model", model]
        couplings = ["lam"] if model != "general" else ["jx", "jy", "lx", "lp"]
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
    return argv


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
@given(argv=_argv(), to_file=st.booleans())
def test_cli_never_crashes_or_prints_non_finite_numbers(argv, to_file):
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
        text = path.read_text() if to_file and path.exists() else stdout.getvalue()
    if code != EXIT_OK:
        assert text == ""  # a refused input prints nothing
    else:
        _assert_finite_fields(text, argv[0] == "cycle" or "json" in argv)
