"""Command-line front end.

Subcommands: ``cycle`` (single-point evaluation, JSON), ``sweep`` (generic
coupling sweep), ``figure`` (named datasets fig3/fig5/fig6/fig7a/fig7b),
``optimize`` (work maximization), ``sample`` (Monte Carlo engine sweep)
and ``verify`` (brute-force oracle suite).

One table, ``_OPTIONS``, defines every option, and ``_READS`` says which
options each command or figure dataset reads; ``cycle`` also reads its
model's coupling and ``sweep`` a general model's direction.  A subcommand
registers only the options it can read, and a flag or ``--config`` key
that the invocation does not read is a config error, never ignored; a
flag the subcommand does not register prints that subcommand's usage.

All output is deterministic for a fixed configuration and seed.  CSV is
UTF-8, comma-separated with '\\n' line endings and a mandatory header
row; its numbers carry 17 significant digits, the bytes of ``'%.17g' %``,
which the array kernel of `ottopair._g17` spells without a Python call
per cell (JSON spells numbers by ``repr``); figures of merit outside their
regime serialize as empty fields, never 0.  Exit codes: 0 ok, 2 config
error (including output that cannot be written), 3 domain error, 4
verification failure, 141 stdout closed early (e.g. by ``| head``).
Every cycle comes from `evaluate_cycles` columns: ``sweep`` and ``figure``
evaluate their rows in one batched pass, and the ``cycle`` document is a
length-1 call's columns, absent values as null where a sweep row leaves
its field empty.

The CLI runs OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is
set: this module sets it before it imports numpy, and ``import ottopair``
(which ``python -m ottopair.cli`` and the ``ottopair`` script run first)
loads no numpy.  A program that imports numpy before ``ottopair.cli``
keeps its own thread count.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Optional

# OpenBLAS reads this once, when numpy loads; the oracle's solves, at most
# 81 wide, gain nothing from more threads, which only spin.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .cycle import REGIMES, CycleColumns, Regime, evaluate_cycle, evaluate_cycles
from .errors import ConfigError, DomainError, NumericalError, OttoPairError
from .medium import BathPair, MediumKind, model_coupling, standard_cycle
from .optimize import (
    SearchDomain,
    max_coupled_work,
    max_uncoupled_work,
    oscillator_work_supremum,
    sample_engine_points,
)
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
# the sampler keeps its accepted draws (about a tenth at the preset baths)
# in memory, so their count is capped; it draws and evaluates in chunks
MAX_DRAWS = 10_000_000
# JSON rows formatted and written at a time; a larger chunk raises peak
# RSS (an 8192-row chunk of a 22-column sweep costs ~16 MB) without
# saving time
_ROW_CHUNK = 1024
# CSV cells laid out and written at a time, whatever the column count: a
# 400 kB byte matrix of 25 bytes per cell, and float temporaries below
# 128 kB; 2^15 cells ran about 40% slower, its temporaries being mapped
# afresh each time
_CSV_CELLS = 2**14
_REGIME_NAMES = np.array([r.value for r in REGIMES], dtype=object)
# a CSV regime cell's bytes by code, zero-padded, and an absent cell's (-1)
_REGIME_BYTES = np.array([r.value.encode() for r in REGIMES] + [b""])
_REGIME_BYTES = _REGIME_BYTES.view(np.uint8).reshape(len(_REGIME_BYTES), -1)


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


# a column of rows: float values, or int8 codes into REGIMES, and the
# mask of the rows that hold a value (None: every row)
Column = tuple[np.ndarray, Optional[np.ndarray]]


def _write_rows(cfg: RunConfig, header: list[str], columns: list[Column]) -> None:
    """Write one row per index of `columns` (one per `header` name) as CSV
    or as a JSON list of objects, absent cells empty or null.

    The present values are checked before anything is opened, so a
    non-finite one writes nothing.  CSV rows are then laid out as bytes
    by `_csv_chunks`; JSON rows are formatted `_ROW_CHUNK` at a time, each
    by the `%` template of its presence pattern."""
    for values, present in columns:
        if values.dtype.kind == "f":
            bad = ~np.isfinite(values) if present is None else present & ~np.isfinite(values)
            if bad.any():
                raise NumericalError(
                    f"non-finite number {values[np.argmax(bad)]} in the output document"
                )
    if cfg.format != "json":
        _write_text(cfg, itertools.chain([",".join(header) + "\n"], _csv_chunks(columns)))
        return
    n = len(columns[0][0])
    if not n:
        _write_text(cfg, ["[]\n"])
        return
    regime = [values.dtype.kind != "f" for values, _ in columns]
    # a row's presence pattern: one bit per distinct mask
    masks = list({id(m): m for _, m in columns if m is not None}.values())
    bits = {id(m): 1 << i for i, m in enumerate(masks)}

    def template(key: int) -> str:
        # the bytes of JSONEncoder(indent=2), which spells floats by repr;
        # an absent cell takes its value with `%.0s`, which prints nothing
        items = (
            f"{json.dumps(k)}: "
            + (('"%s"' if r else "%r") if m is None or key & bits[id(m)] else "null%.0s")
            for k, r, (_, m) in zip(header, regime, columns)
        )
        return "{\n    " + ",\n    ".join(items) + "\n  }"

    def chunks():
        for start in range(0, n, _ROW_CHUNK):
            rows = slice(start, start + _ROW_CHUNK)
            key = np.zeros(min(_ROW_CHUNK, n - start), dtype=np.int64)
            for m in masks:
                key |= m[rows].astype(np.int64) * bits[id(m)]
            keys, pattern = np.unique(key, return_inverse=True)
            templates = np.array([template(k) for k in keys.tolist()], dtype=object)[pattern]
            cells = (
                (_REGIME_NAMES[v[rows]] if r else v[rows]).tolist()
                for (v, _), r in zip(columns, regime)
            )
            if start:
                yield ",\n  "
            yield ",\n  ".join(map(operator.mod, templates.tolist(), zip(*cells)))

    _write_text(cfg, itertools.chain(["[\n  "], chunks(), ["\n]\n"]))


def _csv_chunks(columns: list[Column]) -> Iterable[str]:
    """The CSV rows of `columns`, `_CSV_CELLS` cells or one row at a time.

    A chunk is a (rows, columns, 25) byte matrix of zeros: each cell
    holds its bytes from its first slot and its separator in its last, a
    regime cell takes its name from a byte table, an absent cell stays
    empty, and `_g17.write_cells` spells the present float cells as
    ``'%.17g' %`` does.  The chunk's text is its nonzero bytes."""
    from . import _g17  # loaded by the CSV writer alone, not on import

    cell = _g17.WIDTH + 1  # a cell's bytes, then its separator
    n, width = len(columns[0][0]), len(columns)
    step = max(1, _CSV_CELLS // width)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        m = min(step, n - start)
        cells = np.zeros((m, width, cell), dtype=np.uint8)
        cells[:, :, -1] = ord(",")
        cells[:, -1, -1] = ord("\n")
        x, at = [], []
        for j, (values, present) in enumerate(columns):
            v = values[rows]
            if values.dtype.kind != "f":
                codes = v if present is None else np.where(present[rows], v, -1)
                cells[:, j, : _REGIME_BYTES.shape[1]] = _REGIME_BYTES[codes]
                continue
            keep = slice(None) if present is None else present[rows]
            x.append(v[keep])
            at.append((np.arange(m) * width + j)[keep])
        _g17.write_cells(np.concatenate(x), cells.reshape(-1, cell), np.concatenate(at))
        flat = cells.reshape(-1)
        yield flat[flat != 0].tobytes().decode("ascii")


def _write_doc(cfg: RunConfig, doc) -> None:
    # JSON has no spelling for nan or inf: `allow_nan=False` refuses them
    # before anything is opened, so a refused document writes nothing
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"non-finite number in the output document: {exc}") from exc
    _write_text(cfg, [text, "\n"])


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


_SWEEP_HEADER = [
    "lambda",
    "omega_a_hot", "omega_a_cold", "omega_b_hot", "omega_b_cold",
    "q_h_a", "q_c_a", "w_a", "regime_a", "fom_a",
    "q_h_b", "q_c_b", "w_b", "regime_b", "fom_b",
    "q_h_total", "q_c_total", "w_total", "regime", "global_fom",
    "bound_lower", "bound_upper",
]


def _sweep_columns(lam: np.ndarray, c: CycleColumns) -> list[Column]:
    ok = c.valid
    mode_cols = []
    for m in (0, 1):
        mode_cols += [
            (c.q_h[m], ok), (c.q_c[m], ok), (c.w[m], ok),
            (c.regime[m], ok), (c.figure_of_merit[m], c.operating[m]),
        ]
    return [
        (lam, None),
        (c.omega_hot[0], ok), (c.omega_cold[0], ok),
        (c.omega_hot[1], ok), (c.omega_cold[1], ok),
        *mode_cols,
        (c.q_h_total, ok), (c.q_c_total, ok), (c.w_total, ok),
        (c.global_regime, ok),
        (c.global_figure, c.global_operating),
        (c.bounds[0], c.shared), (c.bounds[1], c.shared),
    ]


def _cycle_doc(c: CycleColumns) -> dict:
    """The `modes`, `totals` and `global` parts of the `cycle` document,
    from length-1 columns by the rules of `_sweep_columns`."""

    def cell(values, present=None):
        return values[0].tolist() if present is None or present[0] else None

    def regime(codes):
        return REGIMES[codes[0]].value

    def mode(m):
        return {
            "omega_hot": cell(c.omega_hot[m]),
            "omega_cold": cell(c.omega_cold[m]),
            "q_h": cell(c.q_h[m]),
            "q_c": cell(c.q_c[m]),
            "w": cell(c.w[m]),
            "regime": regime(c.regime[m]),
            "at_boundary": cell(c.at_boundary[m]),
            "figure_of_merit": cell(c.figure_of_merit[m], c.operating[m]),
        }

    return {
        "modes": {"A": mode(0), "B": mode(1)},
        "totals": {"q_h": cell(c.q_h_total), "q_c": cell(c.q_c_total), "w": cell(c.w_total)},
        "global": {
            "regime": regime(c.global_regime),
            "at_boundary": cell(c.global_at_boundary),
            "figure_of_merit": cell(c.global_figure, c.global_operating),
            "weight": cell(c.weight, c.shared),
            "bounds": cell(c.bounds.T, c.shared),
        },
    }


def cmd_cycle(cfg: RunConfig) -> int:
    kind = _medium_kind(cfg)
    baths = _baths(cfg)
    coupling = _coupling_value(cfg, kind)
    omega, omega_prime = _bare_frequencies(cfg)
    spec = standard_cycle(kind, cfg.model, omega, omega_prime, coupling, baths)
    if not all(map(math.isfinite, spec.coupling_hot)):
        raise DomainError(f"coupling must be finite, got {spec.coupling_hot}")
    doc = {
        "medium": kind.value,
        "model": cfg.model,
        "omega": omega,
        "omega_prime": omega_prime,
        "t_h": baths.t_h,
        "t_c": baths.t_c,
        **_cycle_doc(evaluate_cycle(spec)),
    }
    _write_doc(cfg, doc)
    return EXIT_OK


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
    _write_rows(cfg, _SWEEP_HEADER, _sweep_columns(grid, columns))
    return EXIT_OK


# figure presets: bath pair, frequency pair and sweep grid per named dataset
_FIGURE_DEFAULTS = {
    "fig3": {"th": 2.0, "tc": 1.0, "omega": 4.0, "omega_prime": 3.0, "sweep": "0:3:0.01"},
    "fig5": {"th": 2.0, "tc": 1.0},
    "fig6": {"th": 2.0, "tc": 1.0, "omega": 5.0, "omega_prime": 2.0, "sweep": "0:1.99:0.01"},
    "fig7a": {"th": 2.0, "tc": 1.0, "omega": 4.0, "omega_prime": 3.0, "sweep": "0:2.5:0.01"},
    "fig7b": {"th": 2.0, "tc": 1.0, "omega": 5.0, "omega_prime": 2.0, "sweep": "0:1.9:0.01"},
}


def figure_rows(name: str, cfg: RunConfig) -> tuple[list[str], list[Column]]:
    """Header and columns of one named figure dataset (a `_FIGURE_DEFAULTS`
    key), in the form `_write_rows` takes; shared by the CLI and the tests."""
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
        return header, [(values, None) for values in columns]

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
    columns = [(grid, None)]
    if name in ("fig3", "fig6"):
        # per-mode columns of the spin pair, or of the oscillator pair
        # where the spin pair is unstable
        ref = spn.valid
        for m in (0, 1):
            fom = np.where(ref, spn.figure_of_merit[m], osc.figure_of_merit[m])
            regime = np.where(ref, spn.regime[m], osc.regime[m])
            columns.append((fom, (ref | osc.valid) & (regime == code)))
    for c in (osc, spn):
        columns.append((c.global_figure, c.valid & (c.global_regime == code)))
    columns.append((np.full(grid.size, constant), None))
    return header, columns


def cmd_figure(cfg: RunConfig) -> int:
    _write_rows(cfg, *figure_rows(cfg.figure, cfg))
    return EXIT_OK


def cmd_optimize(cfg: RunConfig) -> int:
    kind = _medium_kind(cfg)
    baths = _baths(cfg)
    domain = _domain(cfg)
    # a box that cuts the anchor is searched from the coupled grid, which
    # evaluates resolution^2 (xx, xy) or at most resolution^3 (general)
    # points per slice, at most MAX_SWEEP_ROWS; one that holds it is
    # checked on the (2 resolution - 1)^2 square of mode frequencies
    slice_axes = 3 if cfg.model == "general" else 2
    resolution = _bounded(cfg, "resolution", 2, round(MAX_SWEEP_ROWS ** (1 / slice_axes)))
    # the uncoupled optimum is over all frequencies, so its point may lie
    # outside the box; the coupled optimum is that point at zero coupling
    # wherever the box holds it, and w_max never exceeds 2 * w_single
    w_star, wp_star, w_single = uncoupled = max_uncoupled_work(kind, baths)
    params, w_max = max_coupled_work(kind, cfg.model, baths, domain, resolution, uncoupled)
    w_pair = 2.0 * w_single
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
    if kind is MediumKind.OSCILLATOR:
        # both optima meet their supremum only in the limit the printed
        # points approach, omega, omega' -> 0 along the ray
        sup = oscillator_work_supremum(baths)
        doc["uncoupled"].update(supremum=sup, attained=False)
        doc["coupled"].update(supremum=2.0 * sup, attained=False)
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
    columns = (s.omega, s.omega_prime, s.lam, s.w_total, s.c_h, s.c_c, s.regime_a, s.regime_b)
    _write_rows(cfg, header, [(values, None) for values in columns])
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


def _registered(command: str) -> set[str]:
    """The options `command` registers: every option some dataset, model
    or medium of it reads; `_merge_config` refuses the ones an invocation
    does not read."""
    figures = sorted(_FIGURE_DEFAULTS) if command == "figure" else [None]
    return set().union(*(
        _reads(command, figure, None, model)
        for figure in figures for model in _OPTIONS["model"]["choices"]
    ))


def _unregistered(argv: list[str]) -> tuple[list[str], list[str]]:
    """`argv` without the option flags its subcommand does not register,
    and those flags, each with the value that follows it.  argparse would
    leave such a value behind as a positional (`figure --lam 3 fig3` takes
    3 for the dataset name).  A flag counts also as a prefix of such flags
    only (`--la`, `--l`); a prefix of a registered flag is left for
    argparse, which expands or refuses it.  A token that starts with one
    `-` (other than `-h`) after a flag that takes a value is joined to it
    as that value (`--lam=-1e-3`): argparse takes only plain negative
    numbers such as -1 for values, and refuses -1e-3, -inf or -1:1:0.5."""
    if not argv or argv[0] not in _COMMANDS:
        return argv, []
    flags = [_flag(name) for name in _OPTIONS] + ["--config", "--help"]
    foreign = {_flag(name) for name in set(_OPTIONS) - _registered(argv[0])}

    def matches(token: str) -> set[str]:
        """The flags argparse could expand `token` to."""
        if token in flags:
            return {token}
        return {f for f in flags if f.startswith(token)} if token.startswith("--") else set()

    def unregistered(token: str) -> bool:
        return bool(matches(token)) and matches(token) <= foreign

    def value_of(flag: str, token: str) -> bool:
        single = token.startswith("-") and not token.startswith("--") and token != "-h"
        return single and len(matches(flag)) == 1 and matches(flag) != {"--help"}

    kept, dropped = argv[:1], []
    tokens = iter(argv[1:])
    for token in tokens:
        if unregistered(token):
            dropped += [token, *itertools.islice(tokens, 1)]
        elif value_of(kept[-1], token):
            kept[-1] += "=" + token
        else:
            kept.append(token)
    return kept, dropped


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
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(subparser=p)  # `main` reports unknown options with its usage
        if command == "figure":
            p.add_argument("figure", choices=sorted(_FIGURE_DEFAULTS))
            p.epilog = ("fig5 reads --seed, --n and --domain-max; "
                        "the others --omega, --omega-prime and --sweep")
        registered = _registered(command)
        for name, spec in _OPTIONS.items():
            if name in registered:
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
    argv, unregistered = _unregistered(sys.argv[1:] if argv is None else list(argv))
    args, unknown = build_parser().parse_known_args(argv)
    if unregistered or unknown:
        args.subparser.error(f"unrecognized arguments: {' '.join(unregistered + unknown)}")
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
