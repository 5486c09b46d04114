"""Output checks for every benchmark job.

The checks recompute the physics with the benchmark's own numpy closed
forms and never import ottopair.  Each check returns ``(ok, reason,
units)``: ``units`` is the work the job completed in its workload's unit
(rows emitted, draws, optimizations, oracle draws).

Closed forms, with hbar = k_B = 1 and heats signed into the system:

* oscillator modes  w_A,B = sqrt((w +/- l_p)(w +/- l_x)), stable iff
  w > max(|l_x|, |l_p|);
* spin modes  w_A,B = sqrt(w^2 + l_-^2) +/- l_+, l_+- = (j_x +/- j_y)/2,
  stable iff both are positive;
* per-mode heats  Q_h = (w_h/2) b, Q_c = -(w_c/2) b with bracket
  b = coth(w_h/2T_h) - coth(w_c/2T_c) (oscillator) or
  tanh(w_c/2T_c) - tanh(w_h/2T_h) (spin), and W = Q_h + Q_c;
* regimes with tolerance eps = 1e-12 max(|Q_h|, |Q_c|, 1).
"""

from __future__ import annotations

import json
import math

import numpy as np

REL = 1e-12
ENGINE, FRIDGE, DISSIPATOR = "engine", "refrigerator", "dissipator"
# The program computes concurrence by Wootters' route, which takes square
# roots of spin-flip eigenvalues; where those are near zero (cold, nearly
# pure states) rounding of order 1e-15 becomes an error of order
# sqrt(1e-15) = 3e-8.  Observed differences from the closed form reach 3e-9.
CONCURRENCE_ABS = 1e-7
# a regime label is compared only where the decision is not within
# rounding of a boundary: |W|, |Q_h|, |Q_c| all above this share of scale
AMBIGUOUS = 1e-9

SWEEP_HEADER = [
    "lambda",
    "omega_a_hot", "omega_a_cold", "omega_b_hot", "omega_b_cold",
    "q_h_a", "q_c_a", "w_a", "regime_a", "fom_a",
    "q_h_b", "q_c_b", "w_b", "regime_b", "fom_b",
    "q_h_total", "q_c_total", "w_total", "regime", "global_fom",
    "bound_lower", "bound_upper",
]
_REGIME_COLUMNS = {"regime_a", "regime_b", "regime", "regime_A", "regime_B"}
FIGURE_HEADERS = {
    "fig3": ["lambda_J", "eta_A", "eta_B", "eta_os", "eta_sp", "eta_carnot"],
    "fig6": ["lambda_J", "zeta_A", "zeta_B", "zeta_os", "zeta_sp", "zeta_carnot"],
    "fig7a": ["lambda_J", "eta_os", "eta_sp", "eta_uncoupled"],
    "fig7b": ["lambda_J", "zeta_os", "zeta_sp", "zeta_uncoupled"],
}
SAMPLE_HEADER = ["omega", "omega_prime", "lambda_J", "W_total", "C_h", "C_c",
                 "regime_A", "regime_B"]
FIG5_HEADER = ["W", "C_h", "C_c", "omega", "omega_prime", "lambda_J"]


class CheckFailed(Exception):
    """An output that is malformed or disagrees with the closed forms."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# parsing


def strict_json(text: str):
    """json.loads that refuses NaN and +/-Infinity, which are not JSON."""

    def reject(token):
        raise CheckFailed(f"non-finite JSON constant {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None


def _float(text: str) -> float:
    if text == "":
        return math.nan
    value = float(text)
    _require(math.isfinite(value), f"non-finite number {text!r}")
    return value


def read_csv(text: str, header: list[str]) -> dict[str, np.ndarray]:
    """Columns of a CSV in the program's dialect: '\\n' line ends, a final
    newline, the given header.  Empty numeric fields become nan."""
    _require(text.endswith("\n"), "CSV does not end with a newline")
    lines = text[:-1].split("\n")
    _require(lines[0].split(",") == header, f"unexpected CSV header {lines[0]!r}")
    raw = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(header) for r in raw), "CSV row with the wrong field count")
    return _columns(header, raw, _float)


def _columns(header, raw_rows, to_float) -> dict[str, np.ndarray]:
    cols = {}
    for k, name in enumerate(header):
        values = [r[k] for r in raw_rows]
        if name in _REGIME_COLUMNS:
            cols[name] = np.array(["" if v is None else v for v in values], dtype=object)
        else:
            cols[name] = np.array([to_float(v) for v in values], dtype=float)
    return cols


def _json_value(v) -> float:
    if v is None:
        return math.nan
    _require(isinstance(v, (int, float)) and not isinstance(v, bool), f"non-number {v!r}")
    return float(v)


def read_json_rows(text: str, header: list[str]) -> dict[str, np.ndarray]:
    doc = strict_json(text)
    _require(isinstance(doc, list), "JSON rows are not a list")
    _require(all(isinstance(r, dict) and list(r) == header for r in doc),
             "JSON row keys differ from the sweep header")
    return _columns(header, [[r[k] for k in header] for r in doc], _json_value)


def parse_grid(text: str) -> np.ndarray:
    lo, hi, step = (float(p) for p in text.split(":"))
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


# ---------------------------------------------------------------------------
# closed forms


def mode_frequencies(medium, omega, cx, cy):
    """(w_A, w_B, stable) for oscillator (l_x, l_p) or spin (j_x, j_y)."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(invalid="ignore"):
        if medium == "osc":
            stable = omega > np.maximum(np.abs(cx), np.abs(cy))
            w_a = np.sqrt((omega + cy) * (omega + cx))
            w_b = np.sqrt((omega - cy) * (omega - cx))
        else:
            l_plus = 0.5 * (np.asarray(cx, dtype=float) + cy)
            l_minus = 0.5 * (np.asarray(cx, dtype=float) - cy)
            s = np.hypot(omega, l_minus)
            w_a, w_b = s + l_plus, s - l_plus
            stable = (omega > 0) & (w_a > 0) & (w_b > 0)
    return w_a, w_b, stable


def heats(medium, w_hot, w_cold, th, tc):
    """(Q_h, Q_c, W) of one mode."""
    bh, bc = 1.0 / th, 1.0 / tc
    with np.errstate(invalid="ignore", divide="ignore"):
        if medium == "osc":
            bracket = 1.0 / np.tanh(0.5 * bh * w_hot) - 1.0 / np.tanh(0.5 * bc * w_cold)
        else:
            bracket = np.tanh(0.5 * bc * w_cold) - np.tanh(0.5 * bh * w_hot)
        q_h = 0.5 * w_hot * bracket
        q_c = -0.5 * w_cold * bracket
    return q_h, q_c, q_h + q_c


def tolerance(q_h, q_c):
    return REL * np.maximum(np.maximum(np.abs(q_h), np.abs(q_c)), 1.0)


def regimes(q_h, q_c, w):
    """Regime labels and a mask of decisions too close to a boundary to
    compare across implementations."""
    eps = tolerance(q_h, q_c)
    engine = (w > eps) & (q_h > eps)
    fridge = (q_c > eps) & (w < -eps)
    labels = np.where(engine, ENGINE, np.where(fridge, FRIDGE, DISSIPATOR)).astype(object)
    scale = eps / REL
    near = np.minimum(np.minimum(np.abs(w), np.abs(q_h)), np.abs(q_c)) <= AMBIGUOUS * scale
    return labels, near


def figure_of_merit(labels, q_h, q_c, w):
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(labels == ENGINE, w / q_h,
                        np.where(labels == FRIDGE, q_c / np.abs(w), np.nan))


def cycle(medium, omega, omega_prime, cx, cy, th, tc):
    """Both modes and totals of a frequency-driven cycle, as arrays."""
    a_h, b_h, ok_h = mode_frequencies(medium, omega, cx, cy)
    a_c, b_c, ok_c = mode_frequencies(medium, omega_prime, cx, cy)
    qa, qb = heats(medium, a_h, a_c, th, tc), heats(medium, b_h, b_c, th, tc)
    return {
        "stable": ok_h & ok_c,
        "freqs": (a_h, a_c, b_h, b_c),
        "a": qa, "b": qb,
        "total": tuple(x + y for x, y in zip(qa, qb)),
    }


def thermal_concurrence(omega, j_x, j_y, beta):
    """Concurrence of the spin-pair Gibbs state from the X-state formula
    C = 2 max(0, |r23| - sqrt(r11 r44), |r14| - sqrt(r22 r33)).

    H is block diagonal in {uu, dd} (diagonal 3w, w, coupling l_-) and
    {ud, du} (diagonal 2w, 2w, coupling l_+).  A block [[a, c], [c, b]]
    with a >= b has levels m +/- r, m = (a+b)/2, r = sqrt(d^2 + c^2),
    d = (a-b)/2; the lower level puts weight c^2 / (2r(r+d)) on the first
    basis state, written that way so no difference of near-equal numbers
    is taken.
    """
    omega, j_x, j_y, beta = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (omega, j_x, j_y, beta)))
    l_plus, l_minus = 0.5 * (j_x + j_y), 0.5 * (j_x - j_y)
    r_outer, r_inner = np.hypot(omega, l_minus), np.abs(l_plus)
    e_min = np.minimum(2.0 * omega - r_outer, 2.0 * omega - r_inner)

    def block(d, c, r):
        w_hi = np.exp(-beta * (2.0 * omega + r - e_min))
        w_lo = np.exp(-beta * (2.0 * omega - r - e_min))
        with np.errstate(invalid="ignore", divide="ignore"):
            lo_share = np.where(r > 0, c * c / (2.0 * r * (r + d)), 0.5)
            off = np.where(r > 0, c / (2.0 * r), 0.0) * (w_hi - w_lo)
        hi_share = 1.0 - lo_share
        return hi_share * w_hi + lo_share * w_lo, lo_share * w_hi + hi_share * w_lo, off

    r11, r44, r14 = block(omega, l_minus, r_outer)
    r22, r33, r23 = block(np.zeros_like(omega), l_plus, r_inner)
    z = r11 + r44 + r22 + r33
    return 2.0 * np.maximum(
        0.0,
        np.maximum(np.abs(r23) - np.sqrt(r11 * r44), np.abs(r14) - np.sqrt(r22 * r33)),
    ) / z


def _close(got, want, scale, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bad = ~(np.abs(got - want) <= REL * scale)
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        raise CheckFailed(f"{what}: row {i} reads {float(got.flat[i])!r}, closed form gives "
                          f"{float(want.flat[i])!r}")


def _present(x):
    return ~np.isnan(x)


def _empty(col):
    return (col == "") if col.dtype == object else np.isnan(col)


# ---------------------------------------------------------------------------
# sweeps


def check_sweep(cols: dict, p: dict) -> int:
    grid = parse_grid(p["sweep"])
    lam = cols["lambda"]
    _require(lam.size == grid.size, f"{lam.size} rows for a grid of {grid.size}")
    _close(lam, grid, np.maximum(1.0, np.abs(grid)), "lambda")
    if p["model"] == "general":
        cx, cy = p["jx"] * grid, p["jy"] * grid
    elif p["model"] == "xy":
        cx, cy = grid, -grid
    else:
        cx, cy = grid, grid
    ref = cycle(p["medium"], p["omega"], p["omega_prime"], cx, cy, p["th"], p["tc"])
    stable = ref["stable"]
    for name in SWEEP_HEADER[1:]:
        _require(_empty(cols[name])[~stable].all(),
                 f"{name} filled on a row the stability test rejects")
    for name in ("omega_a_hot", "q_h_a", "q_h_total", "regime"):
        _require(not _empty(cols[name])[stable].any(), f"{name} empty on a stable row")

    s = stable
    for k, name in enumerate(("omega_a_hot", "omega_a_cold", "omega_b_hot", "omega_b_cold")):
        want = ref["freqs"][k][s]
        _close(cols[name][s], want, np.maximum(1.0, want), name)
    fom_by_tag = {}
    for tag, label, fom, want in (("_a", "regime_a", "fom_a", ref["a"]),
                                  ("_b", "regime_b", "fom_b", ref["b"]),
                                  ("_total", "regime", "global_fom", ref["total"])):
        q_h, q_c, w = (cols[f"{x}{tag}"][s] for x in ("q_h", "q_c", "w"))
        scale = np.maximum(np.maximum(np.abs(want[0][s]), np.abs(want[1][s])), 1.0)
        for got, exp, what in zip((q_h, q_c, w), want, ("q_h", "q_c", "w")):
            _close(got, exp[s], scale, what + tag)
        _close(w, q_h + q_c, tolerance(q_h, q_c) / REL, f"W = Q_h + Q_c{tag}")
        labels, _ = regimes(q_h, q_c, w)
        _require((cols[label][s] == labels).all(), f"{label} disagrees with the row's heats")
        expect = figure_of_merit(labels, q_h, q_c, w)
        got = cols[fom][s]
        _require((_present(got) == _present(expect)).all(), f"{fom} present outside its regime")
        have = _present(expect)
        _close(got[have], expect[have], np.maximum(1.0, np.abs(expect[have])), fom)
        fom_by_tag[tag] = (labels, got)

    la, fa = fom_by_tag["_a"]
    lb, fb = fom_by_tag["_b"]
    shared = (la == lb) & (la != DISSIPATOR)
    lower, upper = cols["bound_lower"][s], cols["bound_upper"][s]
    _require((_present(lower) == shared).all() and (_present(upper) == shared).all(),
             "bounds present where the modes do not share a regime")
    for got, want, what in ((lower, np.minimum(fa, fb), "bound_lower"),
                            (upper, np.maximum(fa, fb), "bound_upper")):
        _close(got[shared], want[shared], np.maximum(1.0, np.abs(want[shared])), what)
    g = fom_by_tag["_total"][1]
    inside = shared & _present(g)
    slack = REL * np.maximum(1.0, np.abs(upper[inside]))
    _require(((g[inside] >= lower[inside] - slack) & (g[inside] <= upper[inside] + slack)).all(),
             "global figure of merit outside [bound_lower, bound_upper]")
    return int(lam.size)


# ---------------------------------------------------------------------------
# figures


def check_figure(cols: dict, p: dict) -> int:
    name = p["figure"]
    grid = parse_grid(p["sweep"])
    lam = cols["lambda_J"]
    _require(lam.size == grid.size, f"{lam.size} rows for a grid of {grid.size}")
    _close(lam, grid, np.maximum(1.0, np.abs(grid)), "lambda_J")
    th, tc = p["th"], p["tc"]
    engine = name in ("fig3", "fig7a")
    want = ENGINE if engine else FRIDGE
    omega, omega_p = (4.0, 3.0) if engine else (5.0, 2.0)
    xy = name.startswith("fig7")
    cx, cy = (grid, -grid) if xy else (grid, grid)
    header = FIGURE_HEADERS[name]

    def gated(ref, part):
        q = ref[part]
        labels, near = regimes(*q)
        fom = figure_of_merit(labels, *q)
        keep = ref["stable"] & (labels == want)
        return np.where(keep, fom, np.nan), near

    osc = cycle("osc", omega, omega_p, cx, cy, th, tc)
    spin = cycle("spin", omega, omega_p, cx, cy, th, tc)
    expect = {}
    if xy:
        expect[header[1]] = gated(osc, "total")
        expect[header[2]] = gated(spin, "total")
        const = 1.0 - omega_p / omega if engine else omega_p / (omega - omega_p)
    else:
        use_spin = spin["stable"]
        for col, part in ((header[1], "a"), (header[2], "b")):
            s_val, s_near = gated(spin, part)
            o_val, o_near = gated(osc, part)
            expect[col] = (np.where(use_spin, s_val, o_val), np.where(use_spin, s_near, o_near))
        expect[header[3]] = gated(osc, "total")
        expect[header[4]] = gated(spin, "total")
        const = 1.0 - tc / th if engine else tc / (th - tc)
    _close(cols[header[-1]], np.full(grid.size, const), max(1.0, abs(const)), header[-1])
    for col, (value, near) in expect.items():
        got = cols[col]
        mismatch = (_present(got) != _present(value)) & ~near
        _require(not mismatch.any(), f"{col} present/empty against the closed-form regime")
        both = _present(got) & _present(value)
        _close(got[both], value[both], np.maximum(1.0, np.abs(value[both])), col)
    return int(lam.size)


# ---------------------------------------------------------------------------
# Monte Carlo engine samples


def check_samples(cols: dict, p: dict, columns: dict) -> int:
    """`columns` maps the roles omega/omega_prime/lam/w to column names."""
    dm = p["domain_max"]
    rng = np.random.default_rng(p["seed"])
    draws = rng.uniform(np.zeros(3), np.full(3, dm), size=(p["n"], 3))
    omega, omega_p, lam = draws.T
    th, tc = p["th"], p["tc"]
    valid = (omega > lam) & (omega_p > lam) & (omega > 0) & (omega_p > 0)
    ref = cycle("spin", omega, omega_p, lam, lam, th, tc)
    q_h, q_c, w = ref["total"]
    eps = tolerance(q_h, q_c)
    keep = valid & (w > eps) & (q_h > eps)
    idx = np.nonzero(keep)[0]
    n_rows = cols[columns["w"]].size
    _require(n_rows == idx.size, f"{n_rows} accepted rows, closed form accepts {idx.size}")
    for role, values in (("omega", omega), ("omega_prime", omega_p), ("lam", lam)):
        _require(np.array_equal(cols[columns[role]], values[idx]),
                 f"{columns[role]} differs from the regenerated draws")
    got_w = cols[columns["w"]]
    _close(got_w, w[idx], tolerance(q_h[idx], q_c[idx]) / REL, columns["w"])
    _require((got_w > 0).all(), "non-positive work in an accepted engine row")
    for name in ("C_h", "C_c"):
        c = cols[name]
        _require(((c >= 0.0) & (c <= 1.0)).all(), f"{name} outside [0, 1]")
    for mode, label in (("a", "regime_A"), ("b", "regime_B")):
        if label in cols:
            labels, near = regimes(*(x[idx] for x in ref[mode]))
            _require(((cols[label] == labels) | near).all(), f"{label} disagrees")
    for name, om, beta in (("C_h", omega, 1.0 / th), ("C_c", omega_p, 1.0 / tc)):
        want = thermal_concurrence(om[idx], lam[idx], lam[idx], beta)
        _close(cols[name], want, CONCURRENCE_ABS / REL, f"{name} against the X-state formula")
    return int(p["n"])


# ---------------------------------------------------------------------------
# optimizer and oracle


def check_optimize(doc, p: dict) -> int:
    _require(isinstance(doc, dict), "optimize output is not a JSON object")
    _require(doc.get("medium") == p["medium"] and doc.get("model") == p["model"],
             "optimize echoes the wrong medium/model")
    _require(doc.get("t_h") == p["th"] and doc.get("t_c") == p["tc"],
             "optimize echoes the wrong bath pair")
    un, co = doc["uncoupled"], doc["coupled"]
    medium, th, tc = p["medium"], p["th"], p["tc"]
    w_single = heats(medium, un["omega"], un["omega_prime"], th, tc)[2]
    _close(un["w_single_max"], w_single, max(1.0, abs(w_single)), "w_single_max")
    w_max, w_pair = co["w_max"], un["w_pair_max"]
    _require(w_pair == max(2.0 * un["w_single_max"], w_max), "w_pair_max is not the better optimum")
    _require(w_max <= w_pair + 1e-9, "coupled optimum beats the uncoupled-pair bound")
    params = co["params"]
    if p["model"] == "general":
        _require(len(params) == 4, "general model needs four parameters")
        cx, cy = params[2], params[3]
    else:
        _require(len(params) == 3, "xx/xy models need three parameters")
        cx, cy = params[2], params[2] if p["model"] == "xx" else -params[2]
    ref = cycle(medium, params[0], params[1], cx, cy, th, tc)
    _require(bool(ref["stable"]), "reported optimum is an unstable point")
    w = float(ref["total"][2])
    _close(w_max, w, max(1.0, abs(w)), "w_max at the reported params")
    _require(co["bound_margin"] == w_pair - w_max, "bound_margin != w_pair_max - w_max")
    _require(co["bound_saturated"] == (w_pair - w_max <= 1e-9), "bound_saturated is wrong")
    return 1


def check_verify(text: str, exit_code: int) -> int:
    _require(exit_code == 0, f"verify exited {exit_code}")
    draws = 0
    lines = [l for l in text.splitlines()[1:] if l and not l.startswith("elapsed")]
    _require(lines, "verify printed no check lines")
    for line in lines:
        tokens = line.split()
        _require("pass" in tokens and "FAIL" not in tokens, f"check not passed: {line!r}")
        counts = [int(t) for t in tokens if t.isdigit()]
        _require(counts, f"no draw count in {line!r}")
        draws += counts[0]
    return draws


# ---------------------------------------------------------------------------
# dispatch


def check(kind: str, params: dict, text: str, exit_code: int) -> int:
    """Check one job's output; raises CheckFailed, returns units done."""
    if kind == "verify":
        return check_verify(text, exit_code)
    _require(exit_code == 0, f"exit code {exit_code}")
    if kind == "sweep_csv":
        return check_sweep(read_csv(text, SWEEP_HEADER), params)
    if kind == "sweep_json":
        return check_sweep(read_json_rows(text, SWEEP_HEADER), params)
    if kind == "figure":
        return check_figure(read_csv(text, FIGURE_HEADERS[params["figure"]]), params)
    if kind == "sample":
        roles = dict(omega="omega", omega_prime="omega_prime", lam="lambda_J", w="W_total")
        return check_samples(read_csv(text, SAMPLE_HEADER), params, roles)
    if kind == "fig5":
        roles = dict(omega="omega", omega_prime="omega_prime", lam="lambda_J", w="W")
        return check_samples(read_csv(text, FIG5_HEADER), params, roles)
    if kind == "optimize":
        return check_optimize(strict_json(text), params)
    raise ValueError(f"unknown check {kind!r}")
