"""Command-line front end.

Subcommands: ``cycle`` (single-point evaluation, JSON), ``sweep`` (generic
coupling sweep), ``figure`` (named datasets fig3/fig5/fig6/fig7a/fig7b),
``optimize`` (work maximization), ``sample`` (Monte Carlo engine sweep)
and ``verify`` (brute-force oracle suite).

One table, ``_OPTIONS``, defines every option, and ``_READS`` says which
options each command or figure dataset reads; ``cycle`` also reads its
model's coupling and ``sweep`` a general model's direction.  A subcommand
registers only the options it can read, and a flag or ``--config`` key
that the invocation does not read is a config error, never ignored.

All output is deterministic for a fixed configuration and seed.  CSV is
UTF-8, comma-separated with '\\n' line endings and a mandatory header
row; numbers carry 17 significant digits; figures of merit outside their
regime serialize as empty fields, never 0.  Exit codes: 0 ok, 2 config
error (including output that cannot be written), 3 domain error, 4
verification failure, 141 stdout closed early (e.g. by ``| head``).
Sweep and figure rows are evaluated in one batched pass
(`evaluate_cycles`).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from .cycle import REGIMES, CycleColumns, CycleResult, Regime, evaluate_cycle, evaluate_cycles
from .errors import ConfigError, DomainError, NumericalError, OttoPairError
from .medium import BathPair, MediumKind, model_coupling, standard_cycle
from .optimize import SearchDomain, max_coupled_work, max_uncoupled_work, sample_engine_points
from .oracle import run_verification

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4
EXIT_PIPE = 141  # 128 + SIGPIPE


@dataclass
class RunConfig:
    """Merged command-line / config-file settings for one invocation."""

    command: str
    medium: Optional[str] = None
    model: str = "xx"
    omega: Optional[float] = None
    omega_prime: Optional[float] = None
    lam: Optional[float] = None
    jx: Optional[float] = None
    jy: Optional[float] = None
    lx: Optional[float] = None
    lp: Optional[float] = None
    th: Optional[float] = None
    tc: Optional[float] = None
    seed: int = 0
    n: int = 100000
    out: Optional[str] = None
    format: str = "csv"
    sweep: Optional[str] = None
    figure: Optional[str] = None
    level: str = "quick"
    domain_max: float = 10.0
    resolution: int = 60


# a batched grid is allocated at once, so its size is capped
MAX_SWEEP_ROWS = 1_000_000
# the sampler draws all its points at once
MAX_DRAWS = 10_000_000


def _fmt(value) -> str:
    """A row cell: a float, None (empty) or a Regime."""
    if type(value) is float:
        return format(value, ".17g")
    return "" if value is None else value.value


def _write_text(cfg: RunConfig, chunks: Iterable[str]) -> None:
    if not cfg.out:
        sys.stdout.writelines(chunks)
        return
    try:
        fh = open(cfg.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write --out file: {exc}") from exc
    try:
        with fh:
            fh.writelines(chunks)
    except OSError as exc:
        # a refusal leaves no file; a device such as /dev/full stays
        if os.path.isfile(cfg.out):
            os.remove(cfg.out)
        raise ConfigError(f"cannot write output: {exc}") from exc


def _write_rows(cfg: RunConfig, header: list[str], rows: Iterable[Iterable]) -> None:
    if cfg.format == "json":
        doc = [
            {k: (v.value if isinstance(v, Regime) else v) for k, v in zip(header, row)}
            for row in rows
        ]
        _write_doc(cfg, doc)
    else:
        lines = (",".join(map(_fmt, row)) + "\n" for row in rows)
        _write_text(cfg, itertools.chain([",".join(header) + "\n"], lines))


def _check_finite(doc) -> None:
    """NumericalError at any non-finite float in `doc`, which JSON
    has no spelling for; numpy floats count, being float subclasses."""
    stack = [(doc,)]
    while stack:
        for x in stack.pop():
            if isinstance(x, float):
                if not math.isfinite(x):
                    raise NumericalError(f"non-finite number {x} in the output document")
            elif isinstance(x, dict):
                stack.append(x.values())
            elif isinstance(x, (list, tuple)):
                stack.append(x)


def _write_doc(cfg: RunConfig, doc) -> None:
    # checked before anything is opened, so a refused document writes
    # nothing; then streamed, since one json.dumps string doubles peak RSS
    _check_finite(doc)
    chunks = json.JSONEncoder(indent=2, allow_nan=False).iterencode(doc)
    _write_text(cfg, itertools.chain(chunks, ["\n"]))


# ---------------------------------------------------------------------------
# config plumbing


def _require(cfg: RunConfig, field: str):
    value = getattr(cfg, field)
    if value is None:
        raise ConfigError(f"missing required option --{field.replace('_', '-')}")
    return value


def _medium_kind(cfg: RunConfig) -> MediumKind:
    return MediumKind(_require(cfg, "medium"))


def _baths(cfg: RunConfig) -> BathPair:
    th = float(_require(cfg, "th"))
    tc = float(_require(cfg, "tc"))
    if not (math.isfinite(th) and th > tc > 0):
        raise ConfigError(f"--th/--tc must be finite with th > tc > 0, got th={th}, tc={tc}")
    return BathPair(t_h=th, t_c=tc)


def _bounded(cfg: RunConfig, field: str, low: int, high: float = math.inf) -> int:
    """An integer option (--seed, --n, --resolution) refused below `low`
    or above `high`."""
    value = int(getattr(cfg, field))
    if value < low:
        raise ConfigError(f"--{field} must be at least {low}, got {value}")
    if value > high:
        raise ConfigError(f"--{field} must be at most {high}, got {value}")
    return value


def _domain(cfg: RunConfig) -> SearchDomain:
    """The box [0, --domain-max] on every axis; the bound must be positive
    and finite."""
    hi = float(cfg.domain_max)
    if not 0.0 < hi < math.inf:
        raise ConfigError(f"--domain-max must be positive and finite, got {hi}")
    return SearchDomain(omega=(0.0, hi), omega_prime=(0.0, hi), coupling=(0.0, hi))


def _coupling_value(cfg: RunConfig, kind: MediumKind):
    """Scalar lam for xx/xy, (cx, cy) pair for general."""
    if cfg.model != "general":
        if cfg.lam is not None:
            return float(cfg.lam)
        raise ConfigError(f"model {cfg.model!r} needs --lam")
    if kind is MediumKind.SPIN:
        if cfg.jx is None or cfg.jy is None:
            raise ConfigError("model 'general' with --medium spin needs --jx and --jy")
        return float(cfg.jx), float(cfg.jy)
    if cfg.lx is None or cfg.lp is None:
        raise ConfigError("model 'general' with --medium osc needs --lx and --lp")
    return float(cfg.lx), float(cfg.lp)


def _bare_frequencies(cfg: RunConfig) -> tuple[float, float]:
    """(--omega, --omega-prime); DomainError unless both are positive and
    finite."""
    omega = float(_require(cfg, "omega"))
    omega_prime = float(_require(cfg, "omega_prime"))
    if not (0.0 < omega < math.inf and 0.0 < omega_prime < math.inf):
        raise DomainError(
            "bare frequencies must be positive and finite, got "
            f"omega={omega}, omega_prime={omega_prime}"
        )
    return omega, omega_prime


def _parse_sweep(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError(f"--sweep must be LO:HI:STEP, got {text!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"--sweep values must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise ConfigError(f"--sweep needs step > 0 and hi >= lo, got {text!r}")
    ratio = (hi - lo) / step
    if not ratio < MAX_SWEEP_ROWS - 0.5:
        raise ConfigError(f"--sweep {text!r} exceeds {MAX_SWEEP_ROWS} rows")
    # the last point stays <= hi; the slack absorbs the rounding of the ratio
    # (0:1.99:0.01 gives 198.99999999999997 and keeps its 200 rows)
    count = math.floor(ratio * (1.0 + 1e-12))
    if not math.isfinite(lo + step * count):
        raise ConfigError(f"--sweep {text!r} ends beyond the float range")
    return lo + step * np.arange(count + 1)


# ---------------------------------------------------------------------------
# subcommands


def _mode_doc(mode) -> dict:
    return {
        "omega_hot": mode.omega_hot,
        "omega_cold": mode.omega_cold,
        "q_h": mode.q_h,
        "q_c": mode.q_c,
        "w": mode.w,
        "regime": mode.regime.value,
        "at_boundary": mode.at_boundary,
        "figure_of_merit": mode.figure_of_merit,
    }


def _result_doc(result: CycleResult) -> dict:
    return {
        "modes": {"A": _mode_doc(result.mode_a), "B": _mode_doc(result.mode_b)},
        "totals": {
            "q_h": result.q_h_total,
            "q_c": result.q_c_total,
            "w": result.w_total,
        },
        "global": {
            "regime": result.regime.value,
            "at_boundary": result.at_boundary,
            "figure_of_merit": result.global_figure,
            "weight": result.weight,
            "bounds": list(result.bounds) if result.bounds else None,
        },
    }


def cmd_cycle(cfg: RunConfig) -> int:
    kind = _medium_kind(cfg)
    baths = _baths(cfg)
    omega = float(_require(cfg, "omega"))
    omega_prime = float(_require(cfg, "omega_prime"))
    coupling = _coupling_value(cfg, kind)
    spec = standard_cycle(kind, cfg.model, omega, omega_prime, coupling, baths)
    result = evaluate_cycle(spec)
    doc = {
        "medium": kind.value,
        "model": cfg.model,
        "omega": omega,
        "omega_prime": omega_prime,
        "t_h": baths.t_h,
        "t_c": baths.t_c,
        **_result_doc(result),
    }
    _write_doc(cfg, doc)
    return EXIT_OK


_SWEEP_HEADER = [
    "lambda",
    "omega_a_hot", "omega_a_cold", "omega_b_hot", "omega_b_cold",
    "q_h_a", "q_c_a", "w_a", "regime_a", "fom_a",
    "q_h_b", "q_c_b", "w_b", "regime_b", "fom_b",
    "q_h_total", "q_c_total", "w_total", "regime", "global_fom",
    "bound_lower", "bound_upper",
]


def _column(values: np.ndarray, present: Optional[np.ndarray] = None) -> list:
    """`values` as Python floats, None where `present` is False."""
    out = values.tolist()
    if present is not None:
        for i in np.flatnonzero(~present).tolist():
            out[i] = None
    return out


def _regime_column(codes: np.ndarray, present: Optional[np.ndarray] = None) -> list:
    return _column(np.array(REGIMES, dtype=object)[codes], present)


def _sweep_rows(lam: np.ndarray, c: CycleColumns):
    ok, operating, shared = c.valid, c.operating, c.shared
    mode_cols = []
    for m in (0, 1):
        mode_cols += [
            _column(c.q_h[m], ok), _column(c.q_c[m], ok), _column(c.w[m], ok),
            _regime_column(c.regime[m], ok), _column(c.figure_of_merit[m], operating[m]),
        ]
    columns = [
        lam.tolist(),
        _column(c.omega_hot[0], ok), _column(c.omega_cold[0], ok),
        _column(c.omega_hot[1], ok), _column(c.omega_cold[1], ok),
        *mode_cols,
        _column(c.q_h_total, ok), _column(c.q_c_total, ok), _column(c.w_total, ok),
        _regime_column(c.global_regime, ok),
        _column(c.global_figure, c.global_operating),
        _column(c.bounds[0], shared), _column(c.bounds[1], shared),
    ]
    return zip(*columns)


def cmd_sweep(cfg: RunConfig) -> int:
    kind = _medium_kind(cfg)
    baths = _baths(cfg)
    if cfg.sweep is None:
        raise ConfigError("missing required option --sweep LO:HI:STEP")
    grid = _parse_sweep(cfg.sweep)
    values = (grid,)
    if cfg.model == "general":
        cx, cy = _coupling_value(cfg, kind)  # direction scaled by the sweep value
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise DomainError(f"coupling direction must be finite, got ({cx}, {cy})")
        with np.errstate(over="ignore"):  # an overflowing coupling is an unstable row
            values = (cx * grid, cy * grid)
    coupling = model_coupling(cfg.model, *values)
    omega, omega_prime = _bare_frequencies(cfg)
    columns = evaluate_cycles(kind, omega, omega_prime, coupling, coupling, baths)
    _write_rows(cfg, _SWEEP_HEADER, _sweep_rows(grid, columns))
    return EXIT_OK


# figure presets: bath pair, frequency pair and sweep grid per named dataset
_FIGURE_DEFAULTS = {
    "fig3": {"th": 2.0, "tc": 1.0, "omega": 4.0, "omega_prime": 3.0, "sweep": "0:3:0.01"},
    "fig5": {"th": 2.0, "tc": 1.0},
    "fig6": {"th": 2.0, "tc": 1.0, "omega": 5.0, "omega_prime": 2.0, "sweep": "0:1.99:0.01"},
    "fig7a": {"th": 2.0, "tc": 1.0, "omega": 4.0, "omega_prime": 3.0, "sweep": "0:2.5:0.01"},
    "fig7b": {"th": 2.0, "tc": 1.0, "omega": 5.0, "omega_prime": 2.0, "sweep": "0:1.9:0.01"},
}


def figure_rows(name: str, cfg: RunConfig) -> tuple[list[str], list[list]]:
    """Dataset rows for one named figure (a `_FIGURE_DEFAULTS` key); shared
    by the CLI and the tests."""
    # the preset fills every option left unset
    preset = _FIGURE_DEFAULTS[name]
    cfg = replace(cfg, **{k: v for k, v in preset.items() if getattr(cfg, k) is None})
    baths = _baths(cfg)

    if name == "fig5":
        domain = _domain(cfg)
        seed, n = _bounded(cfg, "seed", 0), _bounded(cfg, "n", 1, MAX_DRAWS)
        s = sample_engine_points(seed, n, domain, baths)
        header = ["W", "C_h", "C_c", "omega", "omega_prime", "lambda_J"]
        columns = (s.w_total, s.c_h, s.c_c, s.omega, s.omega_prime, s.lam)
        return header, [list(row) for row in zip(*map(_column, columns))]

    grid = _parse_sweep(cfg.sweep)
    omega, omega_prime = _bare_frequencies(cfg)

    want = Regime.ENGINE if name in ("fig3", "fig7a") else Regime.REFRIGERATOR
    if name in ("fig3", "fig6"):
        coupling = model_coupling("xx", grid)
        header = (
            ["lambda_J", "eta_A", "eta_B", "eta_os", "eta_sp", "eta_carnot"]
            if want is Regime.ENGINE
            else ["lambda_J", "zeta_A", "zeta_B", "zeta_os", "zeta_sp", "zeta_carnot"]
        )
        constant = baths.carnot_efficiency if want is Regime.ENGINE else baths.carnot_cop
    else:  # fig7a / fig7b
        coupling = model_coupling("xy", grid)
        header = (
            ["lambda_J", "eta_os", "eta_sp", "eta_uncoupled"]
            if want is Regime.ENGINE
            else ["lambda_J", "zeta_os", "zeta_sp", "zeta_uncoupled"]
        )
        # the uncoupled pair's efficiency or COP, which omega = omega' (COP)
        # or a tiny omega (efficiency) leaves without a finite value
        with np.errstate(divide="ignore", over="ignore"):
            w, wp = np.float64(omega), np.float64(omega_prime)
            constant = float(1.0 - wp / w if want is Regime.ENGINE else wp / (w - wp))
        if not math.isfinite(constant):
            raise DomainError(
                f"{name} has no finite uncoupled value at omega={omega}, omega_prime={omega_prime}"
            )

    osc, spn = (
        evaluate_cycles(kind, omega, omega_prime, coupling, coupling, baths)
        for kind in (MediumKind.OSCILLATOR, MediumKind.SPIN)
    )
    # figure-of-merit columns are empty outside the figure's regime
    code = REGIMES.index(want)
    columns = [grid.tolist()]
    if name in ("fig3", "fig6"):
        # per-mode columns of the spin pair, or of the oscillator pair
        # where the spin pair is unstable
        ref = spn.valid
        for m in (0, 1):
            fom = np.where(ref, spn.figure_of_merit[m], osc.figure_of_merit[m])
            regime = np.where(ref, spn.regime[m], osc.regime[m])
            columns.append(_column(fom, (ref | osc.valid) & (regime == code)))
    for c in (osc, spn):
        columns.append(_column(c.global_figure, c.valid & (c.global_regime == code)))
    columns.append([constant] * grid.size)
    return header, [list(row) for row in zip(*columns)]


def cmd_figure(cfg: RunConfig) -> int:
    header, rows = figure_rows(cfg.figure, cfg)
    _write_rows(cfg, header, rows)
    return EXIT_OK


def cmd_optimize(cfg: RunConfig) -> int:
    kind = _medium_kind(cfg)
    baths = _baths(cfg)
    domain = _domain(cfg)
    # the coupled search evaluates resolution^2 (xx, xy) or resolution^3
    # (general) points per omega-slice, at most MAX_SWEEP_ROWS
    slice_axes = 3 if cfg.model == "general" else 2
    resolution = _bounded(cfg, "resolution", 2, round(MAX_SWEEP_ROWS ** (1 / slice_axes)))
    w_star, wp_star, w_single = max_uncoupled_work(kind, baths, domain, max(resolution, 200))
    params, w_max = max_coupled_work(kind, cfg.model, baths, domain, resolution)
    # both searches estimate their optima from below, so the better of the
    # two is the tighter valid estimate of the uncoupled-pair optimum
    w_pair = max(2.0 * w_single, w_max)
    doc = {
        "medium": kind.value,
        "model": cfg.model,
        "t_h": baths.t_h,
        "t_c": baths.t_c,
        "domain_max": cfg.domain_max,
        "resolution": cfg.resolution,
        "uncoupled": {
            "omega": w_star,
            "omega_prime": wp_star,
            "w_single_max": w_single,
            "w_pair_max": w_pair,
        },
        "coupled": {
            "params": list(params),
            "w_max": w_max,
            "bound_margin": w_pair - w_max,
            "bound_saturated": w_pair - w_max <= 1e-9,
        },
    }
    _write_doc(cfg, doc)
    return EXIT_OK


def cmd_sample(cfg: RunConfig) -> int:
    baths = _baths(cfg)
    domain = _domain(cfg)
    seed, n = _bounded(cfg, "seed", 0), _bounded(cfg, "n", 1, MAX_DRAWS)
    s = sample_engine_points(seed, n, domain, baths)
    header = [
        "omega", "omega_prime", "lambda_J", "W_total", "C_h", "C_c",
        "regime_A", "regime_B",
    ]
    columns = map(_column, (s.omega, s.omega_prime, s.lam, s.w_total, s.c_h, s.c_c))
    _write_rows(cfg, header, zip(*columns, _regime_column(s.regime_a), _regime_column(s.regime_b)))
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    report = run_verification(cfg.level, seed=_bounded(cfg, "seed", 0))
    sys.stdout.write(report.format_table() + "\n")
    return EXIT_OK if report.ok else EXIT_VERIFY


_COMMANDS = {
    "cycle": cmd_cycle,
    "sweep": cmd_sweep,
    "figure": cmd_figure,
    "optimize": cmd_optimize,
    "sample": cmd_sample,
    "verify": cmd_verify,
}


# ---------------------------------------------------------------------------
# argument parsing

# Every option: its argparse spec, whose `type` (str if absent) and
# `choices` also convert and check its --config value.
_OPTIONS = {
    "medium": dict(choices=("osc", "spin"), help="working medium"),
    "model": dict(choices=("xx", "xy", "general"), help="coupling model (default xx)"),
    "omega": dict(type=float, help="bare frequency at the hot point"),
    "omega_prime": dict(type=float, help="bare frequency at the cold point"),
    "lam": dict(type=float, help="coupling of the xx/xy models"),
    "jx": dict(type=float, help="spin general coupling J_x"),
    "jy": dict(type=float, help="spin general coupling J_y"),
    "lx": dict(type=float, help="oscillator general coupling lambda_x"),
    "lp": dict(type=float, help="oscillator general coupling lambda_p"),
    "th": dict(type=float, help="hot bath temperature"),
    "tc": dict(type=float, help="cold bath temperature"),
    "seed": dict(type=int, help="random seed (default 0)"),
    "n": dict(type=int, help="random draws (default 100000)"),
    "out": dict(help="output file (default stdout)"),
    "format": dict(choices=("csv", "json"), help="row format (default csv)"),
    "sweep": dict(help="coupling grid LO:HI:STEP"),
    "domain_max": dict(type=float, help="upper end of every parameter range (default 10)"),
    "resolution": dict(type=int, help="search grid points per axis (default 60)"),
    "level": dict(choices=("quick", "full"), help="oracle draw count (default quick)"),
}

_ROWS_FIGURE = ("th", "tc", "omega", "omega_prime", "sweep", "format", "out")
_DRAWS = ("th", "tc", "seed", "n", "domain_max", "format", "out")
# the options each command, or figure dataset, reads; see `_reads`
_READS = {
    "cycle": ("medium", "model", "omega", "omega_prime", "th", "tc", "out"),
    "sweep": ("medium", "model", "omega", "omega_prime", "th", "tc", "sweep", "format", "out"),
    **{name: _DRAWS if name == "fig5" else _ROWS_FIGURE for name in _FIGURE_DEFAULTS},
    "optimize": ("medium", "model", "th", "tc", "domain_max", "resolution", "out"),
    "sample": _DRAWS,
    "verify": ("level", "seed"),
}
_GENERAL_COUPLINGS = {"spin": ("jx", "jy"), "osc": ("lx", "lp")}


def _reads(command: str, figure, medium, model) -> set[str]:
    """The options one invocation reads.  `cycle` also reads its model's
    coupling, and `sweep` the coupling direction of a general model (the
    grid is the xx/xy coupling); without a medium both general pairs count,
    as the missing --medium is refused anyway."""
    names = set(_READS[figure or command])
    if command in ("cycle", "sweep"):
        if model == "general":
            for m in [medium] if medium else _GENERAL_COUPLINGS:
                names.update(_GENERAL_COUPLINGS[m])
        elif command == "cycle":
            names.add("lam")
    return names


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ottopair",
        description="Quantum Otto cycles for coupled oscillator and spin pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in [
        ("cycle", "evaluate a single cycle and print JSON"),
        ("sweep", "sweep the coupling and emit a CSV/JSON dataset"),
        ("figure", "emit a named figure dataset"),
        ("optimize", "maximize extractable work"),
        ("sample", "Monte Carlo engine sampling with concurrences"),
        ("verify", "run the brute-force oracle suite"),
    ]:
        figures = [None]
        p = sub.add_parser(command, help=help_text)
        if command == "figure":
            figures = sorted(_FIGURE_DEFAULTS)
            p.add_argument("figure", choices=figures)
            p.epilog = ("fig5 reads --seed, --n and --domain-max; "
                        "the others --omega, --omega-prime and --sweep")
        # every option some dataset, model or medium of the command reads;
        # `_merge_config` refuses the ones this invocation does not
        accepted = set().union(*(
            _reads(command, figure, None, model)
            for figure in figures for model in _OPTIONS["model"]["choices"]
        ))
        for name, spec in _OPTIONS.items():
            if name in accepted:
                p.add_argument(_flag(name), **spec)
        p.add_argument("--config", help="JSON file of option values; flags override it")
    return parser


def _file_value(name: str, value):
    """A --config value converted as its flag would be (None for null);
    ConfigError if it is not one of the option's choices, or has the wrong
    type: a bool for a number, or a non-integral number for an integer."""
    spec = _OPTIONS[name]
    if "choices" in spec and value not in spec["choices"]:
        raise ConfigError(
            f"--config value of {name!r} must be one of {list(spec['choices'])}, got {value!r}"
        )
    want = spec.get("type", str)
    if value is None or (want is str and isinstance(value, str)):
        return value
    fraction = want is int and isinstance(value, float) and not value.is_integer()
    if want is not str and not isinstance(value, bool) and not fraction:
        try:
            return want(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"--config value of {name!r} must be {want.__name__}, got {value!r}")


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read --config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--config is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("--config must contain a JSON object")
    unknown = sorted(set(values) - set(_OPTIONS))
    if unknown:
        raise ConfigError(f"--config has unknown keys {unknown}")
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags over --config values over the defaults; ConfigError for a
    flag or --config key the invocation does not read."""
    file_values = _load_config(args.config)
    # the flags given; a subcommand's namespace holds only its own options
    flags = {name: v for name in _OPTIONS if (v := getattr(args, name, None)) is not None}
    values = {name: _file_value(name, value) for name, value in file_values.items()}
    values.update(flags)
    cfg = RunConfig(
        command=args.command,
        figure=getattr(args, "figure", None),
        **{name: value for name, value in values.items() if value is not None},
    )
    reads = _reads(cfg.command, cfg.figure, cfg.medium, cfg.model)
    foreign = [_flag(k) for k in flags if k not in reads]
    foreign += [f"--config key {k!r}" for k in file_values if k not in reads]
    if foreign:
        invocation = f"figure {cfg.figure}" if cfg.figure else cfg.command
        if cfg.command in ("cycle", "sweep"):
            invocation += f" --model {cfg.model}"
            invocation += f" --medium {cfg.medium}" if cfg.medium else ""
        raise ConfigError(f"{invocation} does not read {', '.join(foreign)}")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        code = _COMMANDS[args.command](cfg)
        sys.stdout.flush()  # a closed pipe or full disk raises here rather than at exit
        return code
    except OSError as exc:  # from writing stdout; an --out file raises ConfigError
        # the SIGPIPE note of Python's `signal` docs: send the rest of
        # stdout, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_PIPE
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OttoPairError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
