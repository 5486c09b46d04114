"""ottopair benchmark runner.

    python3 bench/run.py --workload rows --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

Runs one workload (see `workloads.py`) as a closed loop with one client:
each job is a fresh ``python -m ottopair.cli`` process, started only after
the previous one exits.  Passes over the job list repeat until
``--seconds`` is used up.  Every job's output is checked (`checks.py`).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the same jobs in-process instead, alternating an
untraced pass and a pass traced by `layertrace.Tracer`, and reports the
per-layer metrics of BENCHMARK.json; no end-to-end number comes from it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, every job with its output sha256, all layer stats) is
written to ``bench/results/``.  Exit code 2, without a result, when the
program cannot be found or imported.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0  # a job still running this long after the run began is killed


class SetupError(Exception):
    """The program is missing or does not import; no result is printed."""


# ---------------------------------------------------------------------------
# environment record


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_name():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _tree_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    otto = os.environ.get("OTTO_THREADS")
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "OTTO_THREADS": otto,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "otto_row_threads": otto if otto else os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(),
    }


# ---------------------------------------------------------------------------
# running jobs


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _kill(proc) -> None:
    """Stop a launcher and the job it started, and reap the launcher."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _spawn(argv, env, stdout: Path, stderr: Path, kill_at: float) -> dict:
    """Run one process to completion through `launch.py`; returns its
    ``wall_s``, ``exit``, ``cpu_s`` and ``maxrss_kb``."""
    usage = stdout.with_suffix(".usage")
    usage.unlink(missing_ok=True)
    cmd = [sys.executable, "-S", str(HERE / "launch.py"), str(usage), *argv]
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, kill_at - monotonic()))
        except subprocess.TimeoutExpired:
            _kill(proc)
        except BaseException:
            _kill(proc)
            raise
    try:
        return json.loads(usage.read_text())
    except (OSError, ValueError):
        return {"wall_s": 0.0, "exit": proc.returncode or -1, "cpu_s": 0.0, "maxrss_kb": 0}


def _sha256(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Runner:
    """Runs a workload's jobs, checks their outputs and keeps the records."""

    def __init__(self, workload: str, seed: int, workdir: Path, size: str, tamper=None):
        self.env = _child_env()
        self.jobs = workloads.build(workload, seed, workdir, size)
        self.records: list[dict] = []
        self.kill_at = monotonic() + RUN_LIMIT_S
        self._verdicts: dict = {}
        self._tamper = tamper  # self-test hook: corrupts an output before the check

    def setup_times(self, repeats: int) -> list[float]:
        argv = [sys.executable, "-c", "import ottopair.cli"]
        work = self.jobs[0].stdout.parent
        times = []
        for _ in range(repeats + 1):  # the first import also compiles bytecode
            usage = _spawn(argv, self.env, work / "setup.out", work / "setup.err",
                           self.kill_at)
            if usage["exit"] != 0:
                tail = (work / "setup.err").read_text(errors="replace")[-2000:]
                raise SetupError(f"`import ottopair.cli` failed (exit {usage['exit']}):\n{tail}")
            times.append(usage["wall_s"])
        return times[1:]

    def subprocess_pass(self, index: int) -> list[dict]:
        out = []
        for job in self.jobs:
            argv = [sys.executable, "-m", "ottopair.cli", *job.argv]
            usage = _spawn(argv, self.env, job.stdout, job.stdout.with_suffix(".stderr"),
                           self.kill_at)
            err = job.stdout.with_suffix(".stderr").read_text(errors="replace")
            out.append(self._record(job, index, "subprocess", usage["wall_s"], usage["exit"], err,
                                    cpu_s=usage["cpu_s"], maxrss_mb=usage["maxrss_kb"] / 1024.0))
        return out

    def inprocess_pass(self, index: int, mode: str, tracer: Tracer | None = None) -> list[dict]:
        cli = sys.modules["ottopair.cli"]
        out = []
        for k, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = k
            err = io.StringIO()
            with open(job.stdout, "w", encoding="utf-8") as fh, \
                    contextlib.redirect_stdout(fh), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                try:
                    code = cli.main(list(job.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # a crash is a failed job, not a failed run
                    print(f"{type(exc).__name__}: {exc}", file=err)
                    code = 1
                wall = perf_counter() - t0
            out.append(self._record(job, index, mode, wall, code, err.getvalue()))
        return out

    def _record(self, job, index, mode, wall, code, stderr, **usage) -> dict:
        if self._tamper is not None:
            self._tamper(job)
        sha = _sha256(job.output)
        key = (job.name, sha, code)
        if key not in self._verdicts:
            try:
                if sha is None:
                    raise checks.CheckFailed("no output file")
                text = job.output.read_text(encoding="utf-8")
                self._verdicts[key] = (True, "", checks.check(job.check, job.params, text, code))
            except Exception as exc:  # any malformed output is a failed job, not a crash
                self._verdicts[key] = (False, f"{type(exc).__name__}: {exc}", 0)
        ok, reason, units = self._verdicts[key]
        rec = {"pass": index, "mode": mode, "job": job.name, "argv": list(job.argv),
               "wall_s": wall, "exit": code, "sha256": sha, "ok": ok, "reason": reason,
               "units": units, **usage}
        self.records.append(rec)
        if not ok:
            rec["stderr"] = stderr[-2000:]
            print(f"check failed: {job.name} pass {index}: {reason}", file=sys.stderr)
        return rec


def _repeat(seconds: float, run_once) -> None:
    """Call run_once(i) until `seconds` are spent, stopping where the next
    call would end further past the budget than stopping now (>= 1 call)."""
    start, spent = perf_counter(), []
    while True:
        t = perf_counter()
        run_once(len(spent))
        spent.append(perf_counter() - t)
        if perf_counter() - start + statistics.median(spent) / 2 >= seconds:
            return


# ---------------------------------------------------------------------------
# metrics


def _units_of(stat: str) -> str:
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("ratio"):
        return "ratio"
    return "count"


def end_to_end(passes: list[list[dict]], setup: list[float]) -> dict:
    """Times are sums over the job list of each job's median across
    passes, so one slow moment on a shared machine moves one sample of
    one job rather than a whole pass."""
    by_job: dict[str, list[dict]] = {}
    for rec in (r for p in passes for r in p):
        by_job.setdefault(rec["job"], []).append(rec)

    def total(stat):
        return sum(statistics.median(r[stat] for r in recs) for recs in by_job.values())

    recs = [r for p in passes for r in p]
    wall = total("wall_s")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "units_per_s": (total("units") / wall, "units/s"),
        "cpu_s": (total("cpu_s"), "s"),
        "peak_rss_mb": (max(r["maxrss_mb"] for r in recs), "MB"),
        "ops_ok": (sum(r["ok"] for r in recs) / len(recs), "ratio"),
    }


def per_layer(names: list[str], traced: list[dict], walls: dict) -> dict:
    """Per-layer metric values named ``layer.function.stat``: counts from
    the last traced pass, times as medians over the traced passes."""
    last = traced[-1]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            value = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
            out[name] = (value, "s")
            continue
        if name == "optimize.objective_calls":
            parts = [last.get(k) for k in ("optimize.coupled_total_work",
                                           "optimize.single_system_work")]
            value = None if all(p is None for p in parts) else sum(
                p["calls"] for p in parts if p is not None)
            out[name] = (value, "count")
            continue
        key, stat = name.rsplit(".", 1)
        unit = _units_of(stat)
        if last.get(key) is None:
            out[name] = (None, unit)
        elif stat == "accept_ratio":
            s = last[key]
            out[name] = (s.get("accepted", 0) / s["draws"] if s.get("draws") else 0.0, unit)
        elif unit == "s":
            out[name] = (statistics.median(t[key].get(stat, 0.0) for t in traced), unit)
        else:
            out[name] = (last[key].get(stat, 0), unit)
    return out


def _metric_doc(metrics: dict) -> dict:
    doc = {}
    for name, (value, unit) in metrics.items():
        doc[name] = {"value": value, "unit": unit}
        if value is None:
            doc[name]["absent"] = True
    return doc


def _counts(stats: dict) -> dict:
    keep = ("calls", "elements", "states", "matrices", "accepted", "draws")
    return {k: {s: v for s, v in st.items() if s in keep} for k, st in stats.items() if st}


def _traced(runner: Runner, seconds: float, names: list[str], record: dict) -> dict:
    """Alternate untraced and traced in-process passes; per-layer metrics."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        import ottopair.cli  # noqa: F401
    except Exception as exc:
        raise SetupError(f"`import ottopair.cli` failed: {exc!r}") from exc
    traced, walls, job_self = [], {"traced": [], "untraced": []}, {}

    def pair(i):
        plain = runner.inprocess_pass(i, "untraced")
        walls["untraced"].append(sum(r["wall_s"] for r in plain))
        tracer = Tracer()
        with tracer:
            recs = runner.inprocess_pass(i, "traced", tracer)
        walls["traced"].append(sum(r["wall_s"] for r in recs))
        layers, per_job = tracer.stats()
        traced.append(layers)
        job_self.update({runner.jobs[k].name: v for k, v in per_job.items()})

    _repeat(seconds, pair)
    record["counts_repeat"] = all(_counts(t) == _counts(traced[0]) for t in traced)
    record["layers"] = traced[-1]
    record["pass_walls_s"] = walls
    record["job_self_s"] = job_self
    return per_layer(names, traced, walls)


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 tamper=None) -> dict:
    """Run one workload and return the full record; `record["result"]`
    is the result object printed as the last line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = HERE / "_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, work, size, tamper)
        record = {"workload": workload, "size": size, "seconds": seconds, "trace": int(trace),
                  "environment": environment(seed)}
        if not trace:
            setup = runner.setup_times(SETUP_REPEATS)
            passes: list[list[dict]] = []
            _repeat(seconds, lambda i: passes.append(runner.subprocess_pass(i)))
            metrics = end_to_end(passes, setup)
            record["setup_runs_s"] = setup
        else:
            metrics = _traced(runner, seconds, [m["name"] for m in spec["per_layer"]], record)
        recs = runner.records
        failed = sum(not r["ok"] for r in recs)
        record["jobs"] = recs
        record["result"] = {
            "correct": failed == 0,
            "attempted": len(recs),
            "failed": failed,
            "metrics": _metric_doc(metrics),
        }
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        name = f"{workload}-{size}-seed{seed}-trace{int(trace)}.json"
        (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_report(record: dict) -> None:
    env = record["environment"]
    res = record["result"]
    print(f"workload {record['workload']} (units: {workloads.UNIT_NAMES[record['workload']]}), "
          f"seed {env['seed']}, trace {record['trace']}")
    print(f"  nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas']} x{env['blas_threads']}, OTTO_THREADS={env['OTTO_THREADS']}, "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, commit {env['git_commit']}")
    passes = {(r["pass"], r["mode"]) for r in record["jobs"]}
    print(f"  {len(record['jobs'])} jobs in {len(passes)} passes, {res['failed']} failed"
          f" (ops_failed = {res['failed'] / res['attempted']:.4g})")
    for name, m in res["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<48} {value:>14} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ottopair" / "cli.py").is_file():
        print(f"error: no ottopair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        _print_report(record)
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
