"""Paired benchmark evidence: alternating runs of ``bench/run.py`` on a
parent tree and a change tree, summarized as a ``BENCH_*.json`` file.

    python tools/bench_pairs.py --parent path/to/parent --workload optimize \\
        --pairs 10 --claim wall_s --out BENCH_N.json
    python tools/bench_pairs.py --parent path/to/parent --workload rows \\
        --pairs 3 --out BENCH_N.json

Each tree (the change defaults to this checkout) is copied to a fresh
temporary directory (``src/``, ``bench/`` and ``BENCHMARK.json``, without
``__pycache__``, ``bench/_work`` or ``bench/results``).  Pair i runs
``python3 bench/run.py --workload W --seed 41+i --seconds S --trace 0`` once
in each copy with PYTHONDONTWRITEBYTECODE=1, the parent first on even i;
S is the ``run_seconds`` that BENCHMARK.json fixes.
Only the metrics ``bench/run.py`` reports are read: its result line, and
from its record the environment, each job's wall time and output sha256.

Per end-to-end metric of BENCHMARK.json the file holds both sides' runs,
quartiles, the pairs the change wins, the median change and whether it
stays within the metric's bound.  ``--claim M`` adds the verdict on M: the
change better on at least nine in ten pairs, and its median better than
the parent's by more than the parent's interquartile range.  An existing
``--out`` file keeps its other workloads, and ``setup_s_all_pairs`` pools
the setup times of every workload in it.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

FIRST_SEED = 41
_IGNORE = shutil.ignore_patterns("__pycache__", "_work", "results")


def copy_tree(root: Path, dest: Path) -> Path:
    """The parts of `root` that `bench/run.py` runs, copied under `dest`."""
    for part in ("src", "bench"):
        shutil.copytree(root / part, dest / part, ignore=_IGNORE)
    shutil.copy2(root / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run: its result line and its full record."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py exited {proc.returncode} in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = tree / "bench" / "results" / f"{workload}-full-seed{seed}-trace0.json"
    return {"result": result, "record": json.loads(record.read_text())}


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Both sides' runs of one metric, paired by index."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    ratio = c["median"] / p["median"] - 1.0 if p["median"] else 0.0
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": p, "change": c, "parent_runs": parent, "change_runs": change,
        "change_wins": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "ties": sum(a == b for a, b in zip(parent, change)),
        "change_vs_parent": ratio,
        "within_bound": sign * ratio <= spec["bound"],
    }


def claim(workload: str, name: str, m: dict) -> dict:
    """The verdict on a claimed gain in metric `name`."""
    gap = m["parent"]["median"] - m["change"]["median"]
    gap = gap if m["better"] == "lower" else -gap
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    pairs = len(m["parent_runs"])
    return {
        "metric": name, "workload": workload, "change_wins": f"{m['change_wins']} of {pairs}",
        "median_parent": m["parent"]["median"], "median_change": m["change"]["median"],
        "change_vs_parent": m["change_vs_parent"], "parent_iqr": iqr, "median_gap": gap,
        "met": 10 * m["change_wins"] >= 9 * pairs and gap > iqr,
    }


def summarize(spec: dict, seeds: list[int], first: list[str], runs: dict) -> dict:
    """The workload entry of the BENCH file from each side's runs."""
    metrics = {
        m["name"]: compare(m, *([r["result"]["metrics"][m["name"]]["value"] for r in runs[side]]
                                for side in ("parent", "change")))
        for m in spec["end_to_end"]
    }
    walls, outputs = {}, {}
    for side in ("parent", "change"):
        for seed, run in zip(seeds, runs[side]):
            for job in run["record"]["jobs"]:
                walls.setdefault(job["job"], {}).setdefault(side, []).append(job["wall_s"])
                key = f"seed{seed}:{job['job']}"
                outputs.setdefault(key, {}).setdefault(side, set()).add(job["sha256"])
    return {
        "seeds": seeds, "pairs": len(seeds), "first": first,
        "correct": all(r["result"]["correct"] for side in runs.values() for r in side),
        "metrics": metrics,
        "job_wall_s_median": {job: {side: statistics.median(v) for side, v in sides.items()}
                              for job, sides in sorted(walls.items())},
        "job_outputs_equal": all(o["parent"] == o["change"] for o in outputs.values()),
        "job_sha256": {key: {side: sorted(v) for side, v in o.items()}
                       for key, o in sorted(outputs.items())},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="tree of the parent commit")
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="tree of the change (default: this checkout)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="end-to-end metric whose gain is claimed")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to write")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = [FIRST_SEED + i for i in range(args.pairs)]
    first = ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)]
    runs: dict = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as work:
        trees = {side: copy_tree(getattr(args, side).resolve(), Path(work, side))
                 for side in runs}
        for seed, lead in zip(seeds, first):
            for side in (lead, "change" if lead == "parent" else "parent"):
                runs[side].append(run_once(trees[side], args.workload, seed, seconds))
                wall = runs[side][-1]["result"]["metrics"]["wall_s"]["value"]
                print(f"seed {seed} {side}: wall_s {wall:.4f}", file=sys.stderr)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    env = runs["change"][0]["record"]["environment"]
    doc["machine"] = {k: env[k] for k in ("nproc", "cpu", "python", "numpy", "blas")}
    doc.setdefault("command", "python3 bench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0")
    entry = summarize(spec, seeds, first, runs)
    doc.setdefault("workloads", {})[args.workload] = entry
    if args.claim:
        doc["claim"] = claim(args.workload, args.claim, entry["metrics"][args.claim])
    setup = {side: [v for w in doc["workloads"].values() for v in w["metrics"]["setup_s"][
        f"{side}_runs"]] for side in ("parent", "change")}
    setup_spec = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    doc["setup_s_all_pairs"] = compare(setup_spec, setup["parent"], setup["change"])
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    verdict = {name: (m["change_vs_parent"], m["within_bound"])
               for name, m in entry["metrics"].items()}
    print(json.dumps({"workload": args.workload, "metrics": verdict,
                      "claim": doc.get("claim") if args.claim else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
