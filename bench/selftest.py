"""Self-test of the benchmark, at tiny sizes (about a minute):

    python3 bench/selftest.py

* a tiny run of every workload prints every metric named in
  BENCHMARK.json with its unit, untraced and traced, all outputs correct;
* per-layer counts repeat exactly for a fixed seed;
* a copied CSV with one digit altered is caught, and a corrupted output
  during a run is counted as a failed job;
* the traced pass leaves every module attribute as it found it, and a
  layer function that no longer exists is reported absent;
* without the program's sources `run.py` exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count",)


def _tiny(workload, trace, seed=3, tamper=None):
    return run.run_workload(workload, seed, 0.01, trace, size="tiny", tamper=tamper)


def _alter_digit(text: str, rng) -> str:
    """Change one of the first six significant digits of a numeric field
    of magnitude >= 0.01 in a random data row."""
    lines = text.split("\n")
    while True:
        row = int(rng.integers(1, len(lines) - 1))
        fields = lines[row].split(",")
        k = int(rng.integers(0, len(fields)))
        try:
            value = float(fields[k])
        except ValueError:
            continue
        if abs(value) < 0.01:
            continue
        mantissa = re.split("[eE]", fields[k])[0]
        digits = [i for i, ch in enumerate(mantissa) if ch.isdigit()]
        first = next(j for j, i in enumerate(digits) if mantissa[i] != "0")
        pos = digits[first + int(rng.integers(0, 6)) % (len(digits) - first)]
        ch = str((int(fields[k][pos]) + 1 + int(rng.integers(0, 8))) % 10)
        fields[k] = fields[k][:pos] + ch + fields[k][pos + 1:]
        lines[row] = ",".join(fields)
        return "\n".join(lines)


class TinyRuns(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    res = _tiny(workload, trace)["result"]
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: m["unit"] for k, m in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in res["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if not trace:
                            self.assertGreater(m["value"], 0, name)

    def test_layer_counts_repeat_for_a_fixed_seed(self):
        counts = [
            {k: m["value"] for k, m in _tiny("rows", True, seed=5)["result"]["metrics"].items()
             if m["unit"] in COUNT_UNITS}
            for _ in range(2)
        ]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["cycle.evaluate_cycle.calls"], 0)


class Corruption(unittest.TestCase):
    def test_altered_digit_in_a_copied_csv_is_caught(self):
        kept = {}

        def keep(job):
            kept[job.name] = (job, job.output.read_text())

        self.assertTrue(_tiny("rows", False, tamper=keep)["result"]["correct"])
        job, text = kept["sweep-osc-xx"]
        self.assertEqual(checks.check(job.check, job.params, text, 0), 201)
        rng = run.np.random.default_rng(0)
        for _ in range(40):
            bad = _alter_digit(text, rng)
            self.assertNotEqual(bad, text)
            with self.assertRaises(checks.CheckFailed):
                checks.check(job.check, job.params, bad, 0)

    def test_corrupted_output_counts_as_failed_job(self):
        rng = run.np.random.default_rng(1)

        def corrupt(job):
            if job.name == "sweep-osc-xx":
                job.output.write_text(_alter_digit(job.output.read_text(), rng))

        res = _tiny("rows", False, tamper=corrupt)["result"]
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertLess(res["metrics"]["ops_ok"]["value"], 1.0)

    def test_nan_in_json_is_refused(self):
        with self.assertRaises(checks.CheckFailed):
            checks.strict_json('{"w_max": NaN}')


class Tracing(unittest.TestCase):
    def _snapshot(self):
        import numpy

        mods = {n: m for n, m in sys.modules.items() if n == "ottopair" or n.startswith("ottopair.")}
        mods["numpy.linalg"] = numpy.linalg
        return {n: dict(vars(m)) for n, m in mods.items()}

    def test_module_attributes_unchanged_by_traced_pass(self):
        _tiny("verify", True)  # imports ottopair in this process
        before = self._snapshot()
        for workload in ("rows", "sample"):
            _tiny(workload, True)
        after = self._snapshot()
        self.assertEqual(before.keys(), after.keys())
        for name in before:
            self.assertEqual(before[name].keys(), after[name].keys(), name)
            for attr, value in before[name].items():
                self.assertIs(after[name][attr], value, f"{name}.{attr}")

    def test_missing_layer_function_is_absent_not_zero(self):
        layers = dict(layertrace.LAYERS, cycle=layertrace.LAYERS["cycle"] + ("gone",))
        runner = run.Runner("sample", 0, HERE / "_work", "tiny")
        (HERE / "_work").mkdir(exist_ok=True)
        tracer = layertrace.Tracer(layers)
        with tracer:
            runner.inprocess_pass(0, "traced", tracer)
        stats, _ = tracer.stats()
        self.assertIsNone(stats["cycle.gone"])
        # per sample job: eigh in two Gibbs states, eigh + eigvalsh in two concurrences
        small = stats["linalg.small"]
        self.assertEqual(small["calls"], 2 * 6)
        self.assertEqual(small["matrices"], 3 * stats["entanglement.thermal_state_batch"]["states"])
        walls = {"traced": [1.0], "untraced": [1.0]}
        metrics = run.per_layer(["cycle.gone.calls", "cycle.heats_arrays.calls"], [stats], walls)
        self.assertIsNone(metrics["cycle.gone.calls"][0])
        self.assertGreater(metrics["cycle.heats_arrays.calls"][0], 0)
        for job in runner.jobs:
            job.output.unlink(missing_ok=True)
            job.stdout.unlink(missing_ok=True)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = HERE / "_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "bench")
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "rows", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
