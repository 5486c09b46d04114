"""sha256 digests of a fixed list of ottopair CLI jobs, one line per job.

Run it on two checkouts and diff the two listings to see which command
outputs a change leaves byte-identical:

    python tools/cli_digests.py --root path/to/parent > before.txt
    python tools/cli_digests.py > after.txt
    diff before.txt after.txt

Each line is ``<sha256>  <job argv>``.  A job runs ``python -m ottopair.cli``
with PYTHONPATH set to ``<root>/src``, in a fresh temporary directory;
its digest covers the exit code, stdout, stderr and the ``--out`` file if
the job writes one.  The ``elapsed:`` line of ``verify`` is a wall time,
so it is masked.  The jobs are the README examples, ``cycle`` on both
media and all three models (osc xx in mixed regimes, so with null weight
and bounds) plus five refused cycles, fig6/fig7a/fig7b, a spin
general-model JSON sweep, the JSON rows of ``sample``, fig5, fig3 and an
oscillator sweep past its instability (null cells), a 100 001-row spin
general sweep as CSV and as JSON, ``optimize`` for the oscillator xx, xy
and general models (``--resolution 20``), the oscillator xx model at the
default resolution 60 (the benchmark's oscillator optimizer job), the
oscillator limit point in a 1e-9 box and at nearly equal bath
temperatures, the spin optimum for the xx (a README example), xy and
general models and for xx in a box of side 1 that cuts it, the
oscillator general model at the default resolution,
the spin general grid in a box of side 1, where the first grid maximum
is an exact tie between the two couplings swapped, the spin optimum at
T_h = 1e-10, far below the grid cell, the spin xx/xy/general searches in
the box that cuts the optimum at (5, 4.9), spin xx at (2, 1.9) and in a
box of side 1000, ``sample`` at a cold bath whose beta overflows, at
T_c = 1e-3 and with a frequency whose top level overflows (refused), the
spin xx search of the box that cuts the optimum at (5, 4.9) at
resolutions 12 and 20, the spin general searches of that box at (5, 4.9)
and (12, 11.76) at resolutions 12 and 20, the spin xy search at
(12, 11.76) and the spin general search in a box of side 1 at (5, 4.9),
both at a coarse resolution, an 8001-row spin xx sweep past the
instability, ``verify --level quick`` at three seeds, the spin xx optimum
at a work scale of 1e-10 (``bound_saturated`` is an absolute test) and
an oscillator sweep at T ~ 1e9, whose coth arguments are below 1e-8,
a spin xx cycle at omega = 1e-300, where an efficiency that no row
keeps once overflowed to a warning on stderr, and the spin and
oscillator general optima at ``--resolution 100``, the cap, whose box
holds the anchor (the check grid in mode space), and two spin xx CSV
sweeps whose cells no other job prints: at nano scale (2-digit negative
exponents) and at 1e300 (3-digit exponents and exact zeros, every cell
past the CSV formatter's fast range); together they take about 20
seconds on two cores.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

JOBS = [
    # README examples
    "cycle --medium spin --model xx --omega 4 --omega-prime 3 --lam 1 --th 2 --tc 1",
    "sweep --medium osc --model xx --omega 4 --omega-prime 3 --th 2 --tc 1 "
    "--sweep 0:3:0.01 --out sweep.csv",
    "figure fig3 --out fig3.csv",
    "figure fig5 --seed 0 --n 100000 --out fig5.csv",
    "optimize --medium spin --model xx --th 2 --tc 1",
    "sample --th 2 --tc 1 --n 100000 --seed 0 --out samples.csv",
    "verify --level full",
    # `cycle` on the other media and models, and its refusals: an unstable
    # oscillator, a non-positive spin mode, a zero frequency, a nan coupling
    # and heats that overflow
    "cycle --medium osc --model xx --omega 4 --omega-prime 3 --lam 2.2 --th 2 --tc 1",
    "cycle --medium osc --model xy --omega 5 --omega-prime 2 --lam 1.5 --th 2 --tc 1",
    "cycle --medium osc --model general --lx 0.7 --lp -1.3 --omega 4 --omega-prime 2.5 "
    "--th 2.1 --tc 0.9",
    "cycle --medium spin --model xy --omega 5 --omega-prime 2 --lam 1 --th 2 --tc 1",
    "cycle --medium spin --model general --jx 1.1 --jy -0.4 --omega 4 --omega-prime 2.8 "
    "--th 2 --tc 1",
    "cycle --medium osc --model xx --omega 3 --omega-prime 2 --lam 2.5 --th 2 --tc 1",
    "cycle --medium spin --model xx --omega 4 --omega-prime 3 --lam 3.5 --th 2 --tc 1",
    "cycle --medium spin --model xx --omega 0 --omega-prime 3 --lam 1 --th 2 --tc 1",
    "cycle --medium osc --model xy --omega 4 --omega-prime 3 --lam nan --th 2 --tc 1",
    "cycle --medium osc --model xx --omega 4 --omega-prime 3 --lam 0 --th 1e308 --tc 1e-308",
    # the other figures and a general-model sweep
    "figure fig6",
    "figure fig7a",
    "figure fig7b",
    "sweep --medium spin --model general --jx 1.1 --jy -0.4 --omega 4 --omega-prime 2.8 "
    "--th 2 --tc 1 --sweep 0:1.2:0.001 --format json",
    # JSON rows of every row command: sampler draws, figures and an
    # oscillator sweep whose rows past the instability hold nulls
    "sample --th 2 --tc 1 --n 100000 --seed 0 --format json --out samples.json",
    "figure fig5 --seed 0 --n 100000 --format json --out fig5.json",
    "figure fig3 --format json",
    "sweep --medium osc --model xx --omega 4 --omega-prime 3 --th 2 --tc 1 "
    "--sweep 0:3.5:0.01 --format json",
    # 100 001 rows, past the row writer's chunk size many times over
    "sweep --medium spin --model general --jx 1.1 --jy -0.4 --omega 4 --omega-prime 2.8 "
    "--th 2 --tc 1 --sweep 0:1.2:0.000012 --out big.csv",
    "sweep --medium spin --model general --jx 1.1 --jy -0.4 --omega 4 --omega-prime 2.8 "
    "--th 2 --tc 1 --sweep 0:1.2:0.000012 --format json --out big.json",
    # the optimizer on every oscillator model, its limit point in a tiny box and
    # at nearly equal bath temperatures, the spin general model
    "optimize --medium osc --model xx --th 2 --tc 1 --resolution 20",
    "optimize --medium osc --model xy --th 2 --tc 1 --resolution 20",
    "optimize --medium osc --model general --th 2 --tc 1 --resolution 20",
    "optimize --medium osc --model xx --th 2 --tc 1",
    "optimize --medium osc --model xx --th 2 --tc 1 --domain-max 1e-9 --resolution 5",
    "optimize --medium osc --model xx --th 1.0000001 --tc 1 --resolution 5",
    "optimize --medium spin --model general --th 2 --tc 1",
    # the spin optimum of the other one-coupling model, and the pattern
    # search in a box whose upper faces clamp it (xx at the default box is a
    # README example)
    "optimize --medium spin --model xy --th 2 --tc 1",
    "optimize --medium spin --model xx --th 2 --tc 1 --domain-max 1",
    # the oscillator general model at the default resolution; the spin
    # general seed at the exact tie W(0, 1) = W(1, 0) of
    # the two couplings; and a spin optimum far inside the first grid cell
    "optimize --medium osc --model general --th 2 --tc 1",
    "optimize --medium spin --model general --th 2 --tc 1 --domain-max 1",
    "optimize --medium spin --model xx --th 1e-10 --tc 5e-11",
    # the spin box that cuts the optimum at (5, 4.9), searched by the
    # pattern search; a spin optimum between nearly equal baths, where the
    # engine wedge T_c/T_h < omega'/omega < 1 is 5% wide; and the optimum
    # in a box of side 1000
    "optimize --medium spin --model xx --th 5 --tc 4.9",
    "optimize --medium spin --model xy --th 5 --tc 4.9",
    "optimize --medium spin --model general --th 5 --tc 4.9",
    "optimize --medium spin --model xx --th 2 --tc 1.9",
    "optimize --medium spin --model xx --th 2 --tc 1 --domain-max 1000",
    # the sampler at a cold bath whose beta overflows to inf, at a cold
    # bath of beta 1000, and refusing a frequency whose top level 3 omega
    # overflows
    "sample --th 2 --tc 5e-324 --n 100000 --seed 0 --out cold.csv",
    "sample --th 2 --tc 1e-3 --n 100000 --seed 0 --out cold.csv",
    "sample --th 1e306 --tc 1e305 --domain-max 1e308 --out huge.csv",
    # the spin box that cuts the optimum at (5, 4.9) and (12, 11.76) on
    # coarse grids, whose best lies on the omega ~ omega' ridge that a
    # search of coordinate moves crawled along
    "optimize --medium spin --model xx --th 5 --tc 4.9 --resolution 12",
    "optimize --medium spin --model xx --th 5 --tc 4.9 --resolution 20",
    "optimize --medium spin --model general --th 5 --tc 4.9 --resolution 12",
    "optimize --medium spin --model general --th 12 --tc 11.76 --resolution 20",
    # cut-box optima whose objective once took numpy's hypot, one ulp off the
    # `cycle` printed at their params; and a spin xx sweep past the
    # instability, whose modes skip the hypot (|omega|)
    "optimize --medium spin --model xy --th 12 --tc 11.76 --resolution 20",
    "optimize --medium spin --model general --th 5 --tc 4.9 --resolution 12 --domain-max 1",
    "sweep --medium spin --model xx --omega 4 --omega-prime 3 --th 2 --tc 1 "
    "--sweep 0:4:0.0005 --out xx.csv",
    # oracle tables; 488576684 reaches the 200-level truncation cap
    "verify --level quick --seed 0",
    "verify --level quick --seed 7",
    "verify --level quick --seed 488576684",
    # an optimum at a work scale of 1e-10, where the absolute 1e-9 test of
    # bound_saturated reads true at any margin; and an oscillator sweep at
    # T ~ 1e9, whose coth arguments (about 2e-9) lie where coth is its
    # series 1/x + x/3
    "optimize --medium spin --model xx --th 2e-9 --tc 1e-9 --domain-max 2e-10",
    "sweep --medium osc --model xx --omega 4 --omega-prime 3 --th 1e9 --tc 5e8 "
    "--sweep 0:2.9:0.001",
    # a spin xx cycle whose mode B hot frequency is subnormal, where the
    # efficiency w / q_h that its dissipator discards overflows
    "cycle --medium spin --model xx --omega 1e-300 --omega-prime 1.3 "
    "--lam 0.99999999999999e-300 --th 2 --tc 1",
    # the general optimum of both media at the CLI's resolution cap, whose
    # box holds the anchor: the check grid in mode space
    "optimize --medium spin --model general --th 2 --tc 1 --resolution 100",
    "optimize --medium osc --model general --th 2 --tc 1 --resolution 100",
    # CSV cells that no other job prints: heats in exponent form with
    # 2-digit negative exponents at nano scale, and 3-digit exponents with
    # exact zeros at 1e300, whose cells all take the formatter's fallback
    "sweep --medium spin --model xx --omega 4e-9 --omega-prime 3e-9 --th 2e-9 --tc 1e-9 "
    "--sweep 0:4e-9:2e-12",
    "sweep --medium spin --model xx --omega 1e300 --omega-prime 1e300 --th 1e300 --tc 1 "
    "--sweep 0:1e300:1e297",
]

_ELAPSED = re.compile(rb"^elapsed: .*$", re.MULTILINE)


def digest(root: Path, job: str) -> str:
    """sha256 of one job's exit code, stdout, stderr and --out file."""
    argv = job.split()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, "-m", "ottopair.cli", *argv],
            cwd=work, env=env, capture_output=True, check=False,
        )
        stdout = _ELAPSED.sub(b"elapsed: -", proc.stdout) if argv[0] == "verify" else proc.stdout
        h = hashlib.sha256(f"exit {proc.returncode}\n".encode())
        for part in (stdout, proc.stderr):
            h.update(len(part).to_bytes(8, "big") + part)
        if "--out" in argv:
            out = Path(work, argv[argv.index("--out") + 1])
            h.update(out.read_bytes() if out.exists() else b"<no --out file>")
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ is run (default: this one)",
    )
    root = parser.parse_args().root.resolve()
    for job in JOBS:
        print(f"{digest(root, job)}  {job}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
