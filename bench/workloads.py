"""The four benchmark workloads, each a list of ottopair CLI jobs.

Every job's inputs derive from the workload seed, and a different seed
gives different inputs of the same size: the row counts, draw counts and
numbers of optimizations and oracle draws never depend on the seed.

``size="tiny"`` shrinks every job so the self-test finishes in seconds;
`run.py` always runs ``size="full"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("rows", "sample", "optimize", "verify")

# per-workload meaning of `units_per_s`
UNIT_NAMES = {
    "rows": "data rows emitted",
    "sample": "draws",
    "optimize": "completed optimizations",
    "verify": "oracle draws checked",
}

# grid presets of `ottopair figure` (lo, hi, step), mirrored so the
# checker can rebuild each figure's grid without importing the program
FIGURE_GRIDS = {
    "fig3": "0:3:0.01",
    "fig6": "0:1.99:0.01",
    "fig7a": "0:2.5:0.01",
    "fig7b": "0:1.9:0.01",
}

# sample/fig5 keep the preset bath pair: the accepted share of draws
# depends on T_c/T_h, so fixing it keeps the output size seed-independent
SAMPLE_BATHS = (2.0, 1.0)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``python -m ottopair.cli <argv>``.

    ``output`` is the file the job's result lands in: the ``--out`` file,
    or the captured standard output for jobs that print.  ``check`` names
    the output check and ``params`` holds the inputs it needs.
    """

    name: str
    argv: tuple[str, ...]
    output: Path
    stdout: Path
    check: str
    params: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _r(x: float, digits: int = 6) -> float:
    return round(float(x), digits)


def _baths(rng) -> tuple[float, float]:
    return _r(rng.uniform(1.8, 2.4)), _r(rng.uniform(0.8, 1.1))


def _grid_text(hi_target: float, steps: int) -> str:
    step = float(f"{hi_target / steps:.6g}")
    return f"0:{_num(step * steps)}:{_num(step)}"


def build(workload: str, seed: int, workdir: Path, size: str = "full") -> list[Job]:
    """Job list of `workload` for `seed`, writing outputs under `workdir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in ("full", "tiny"):
        raise ValueError(f"size must be 'full' or 'tiny', got {size!r}")
    tiny = size == "tiny"
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs: list[Job] = []

    def add(name, argv, check, params, out=True):
        stdout = workdir / f"{name}.stdout"
        output = workdir / f"{name}.out" if out else stdout
        full = tuple(argv) + (("--out", str(output)) if out else ())
        jobs.append(Job(name, full, output, stdout, check, params))

    if workload == "rows":
        # oscillator XX sweep whose grid ends at 8/7 of the cold frequency,
        # so the last eighth of the rows is unstable (the DomainError path)
        th, tc = _baths(rng)
        omega = _r(rng.uniform(3.5, 4.5))
        omega_p = _r(omega * rng.uniform(0.6, 0.8))
        sweep = _grid_text(omega_p * 8.0 / 7.0, 200 if tiny else 20000)
        add(
            "sweep-osc-xx",
            ["sweep", "--medium", "osc", "--model", "xx", "--omega", _num(omega),
             "--omega-prime", _num(omega_p), "--th", _num(th), "--tc", _num(tc),
             "--sweep", sweep],
            "sweep_csv",
            dict(medium="osc", model="xx", omega=omega, omega_prime=omega_p,
                 th=th, tc=tc, sweep=sweep),
        )
        th, tc = _baths(rng)
        omega = _r(rng.uniform(3.5, 4.5))
        omega_p = _r(omega * rng.uniform(0.6, 0.8))
        jx, jy = _r(rng.uniform(0.5, 1.5)), _r(rng.uniform(-1.0, 1.0))
        sweep = _grid_text(_r(rng.uniform(0.8, 1.2), 3), 100 if tiny else 10000)
        add(
            "sweep-spin-general",
            ["sweep", "--medium", "spin", "--model", "general", "--jx", _num(jx),
             "--jy", _num(jy), "--omega", _num(omega), "--omega-prime", _num(omega_p),
             "--th", _num(th), "--tc", _num(tc), "--sweep", sweep, "--format", "json"],
            "sweep_json",
            dict(medium="spin", model="general", jx=jx, jy=jy, omega=omega,
                 omega_prime=omega_p, th=th, tc=tc, sweep=sweep),
        )
        for fig in ("fig3", "fig6", "fig7a", "fig7b"):
            th, tc = _r(rng.uniform(1.9, 2.1)), _r(rng.uniform(0.9, 1.1))
            argv = ["figure", fig, "--th", _num(th), "--tc", _num(tc)]
            sweep = FIGURE_GRIDS[fig]
            if tiny:
                sweep = "0:1.5:0.1"
                argv += ["--sweep", sweep]
            add(fig, argv, "figure", dict(figure=fig, th=th, tc=tc, sweep=sweep))

    elif workload == "sample":
        th, tc = SAMPLE_BATHS
        for name, check, n in (("sample", "sample", 1_000_000), ("fig5", "fig5", 300_000)):
            n = 2000 if tiny else n
            s = int(rng.integers(0, 2**31))
            argv = (["sample", "--th", _num(th), "--tc", _num(tc)] if name == "sample"
                    else ["figure", "fig5"])
            add(name, argv + ["--n", str(n), "--seed", str(s)], check,
                dict(n=n, seed=s, th=th, tc=tc, domain_max=10.0))

    elif workload == "optimize":
        runs = [("spin", "general"), ("spin", "xx")]
        if not tiny:
            runs.insert(0, ("osc", "xx"))
        for medium, model in runs:
            th, tc = _baths(rng)
            add(
                f"optimize-{medium}-{model}",
                ["optimize", "--medium", medium, "--model", model,
                 "--th", _num(th), "--tc", _num(tc)],
                "optimize",
                dict(medium=medium, model=model, th=th, tc=tc),
            )

    else:  # verify
        for i in range(1 if tiny else 4):
            s = int(rng.integers(0, 2**31))
            add(f"verify-{i}", ["verify", "--level", "quick", "--seed", str(s)],
                "verify", dict(seed=s), out=False)
    return jobs
