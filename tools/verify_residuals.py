"""Compare the oracle residuals of two ottopair checkouts, check by check.

Runs ``ottopair.oracle.run_verification`` (the suite behind the CLI
``verify`` command, imported after ``ottopair.cli`` as ``verify`` imports
it, so with the same BLAS thread setting) at one level over a list of
seeds, once with PYTHONPATH set to ``<base>/src`` and once with
``<root>/src``, and prints the two resolved trees, then one line per
check: the number of runs, how many of them moved (the residual is not
bit-identical), the largest |delta residual| and the largest residual on
each side.  ``--root`` defaults to the checkout that holds this script,
so a run from a copy of it compares that copy.  Checks are
matched by name; a check that only one side runs is listed with its
largest residual and marked ``only base`` or ``only root``.  The
residuals are compared at full float precision, not as the 4 digits the
``verify`` table prints; a check whose draw count differs between the two
sides is flagged, and then the exit code is 1.  With ``--identical`` the
exit code is also 1 if any residual moved on any seed, or a check runs on
one side only.

    python tools/verify_residuals.py --base path/to/parent --level quick --seeds 0-19
    python tools/verify_residuals.py --base path/to/parent --level full --seeds 2024 --identical

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

_RUNNER = """
import json, sys
import ottopair.cli
from ottopair.oracle import run_verification
level = sys.argv[1]
for seed in map(int, sys.argv[2:]):
    report = run_verification(level, seed)
    checks = [[c.name, c.draws, c.max_residual.hex()] for c in report.checks]
    print(json.dumps({"seed": seed, "elapsed": report.elapsed, "checks": checks}), flush=True)
"""


def _seeds(text: str) -> list[int]:
    """Seeds from a comma list of integers and inclusive ranges A-B."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(root: Path, level: str, seeds: list[int]) -> list[dict]:
    """One record per seed: its elapsed time and (name, draws, residual) per check."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, level, *map(str, seeds)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, check=True,
    )
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    for record in records:
        record["checks"] = [
            (name, draws, float.fromhex(residual)) for name, draws, residual in record["checks"]
        ]
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout under test (default: this one)",
    )
    parser.add_argument("--level", choices=("quick", "full"), default="quick")
    parser.add_argument("--seeds", type=_seeds, default=[0], help="e.g. 0-19 or 2024 or 0,7,9")
    parser.add_argument(
        "--identical", action="store_true",
        help="exit 1 unless every residual is bit-identical on every seed",
    )
    args = parser.parse_args()
    base_tree, root_tree = args.base.resolve(), args.root.resolve()
    base = run(base_tree, args.level, args.seeds)
    root = run(root_tree, args.level, args.seeds)
    print(f"base {base_tree}\nroot {root_tree}")
    print(f"level {args.level}, seeds {args.seeds[0]}..{args.seeds[-1]} ({len(args.seeds)} runs)")
    print(f"{'check':<28} {'runs':>5} {'moved':>6} {'max |delta|':>12} "
          f"{'max base':>10} {'max root':>10}  draws")
    same_draws, identical = True, True
    names = [name for name, _, _ in root[0]["checks"]]
    names += [name for name, _, _ in base[0]["checks"] if name not in names]
    for name in names:
        base_runs, root_runs = (
            [{c[0]: c for c in record["checks"]}.get(name) for record in side]
            for side in (base, root)
        )
        if None in base_runs or None in root_runs:
            side, present = ("base", base_runs) if None in root_runs else ("root", root_runs)
            worst = f"{max(c[2] for c in present):>10.3e}"
            cells = f"{worst} {'':>10}" if side == "base" else f"{'':>10} {worst}"
            print(f"{name:<28} {len(present):>5} {'':>6} {'':>12} {cells}  only {side}")
            identical = False
            continue
        pairs = list(zip(base_runs, root_runs))
        draws_equal = all(bc[:2] == rc[:2] for bc, rc in pairs)
        same_draws &= draws_equal
        moved = sum(bc[2] != rc[2] for bc, rc in pairs)
        identical &= moved == 0
        delta = max(abs(bc[2] - rc[2]) for bc, rc in pairs)
        print(f"{name:<28} {len(pairs):>5} {moved:>6} {delta:>12.3e} "
              f"{max(bc[2] for bc, _ in pairs):>10.3e} {max(rc[2] for _, rc in pairs):>10.3e}  "
              f"{'equal' if draws_equal else 'DIFFER'}")
    print(f"elapsed: base {sum(b['elapsed'] for b in base):.2f} s, "
          f"root {sum(r['elapsed'] for r in root):.2f} s")
    if args.identical:
        print("residuals: " + ("identical" if identical else "MOVED"))
    return 0 if same_draws and (identical or not args.identical) else 1


if __name__ == "__main__":
    sys.exit(main())
