"""The benchmark's own tests.

    python3 -m unittest perfbench/check_bench.py

Run from the repository root.  They take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS, _class_sum, make_pool  # noqa: E402


def worker(name: str, *flags, hash_seed: str = "0") -> dict:
    env = dict(run.child_env(), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), name, "--seed", "11", *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TracedRunsRepeat(unittest.TestCase):
    def test_counts_and_values_repeat(self):
        # two processes with different hash seeds, so set and dict order differ
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first = worker(name, "--small", "--trace", hash_seed="1")
                second = worker(name, "--small", "--trace", hash_seed="2")
                counts = [
                    {k: v for k, v in r["layers"].items() if METRICS[k] == "count"}
                    for r in (first, second)
                ]
                self.assertEqual(counts[0], counts[1])
                self.assertEqual(first["values"], second["values"])
                self.assertGreater(counts[0]["correlators.evaluate_calls"]
                                   + counts[0]["series.mul_calls"], 0)

    def test_tracing_changes_no_value(self):
        traced = worker("crosscheck", "--small", "--trace")
        plain = worker("crosscheck", "--small")
        self.assertEqual(traced["values"], plain["values"])


class CrosscheckPool(unittest.TestCase):
    def test_pool_is_a_pure_function_of_the_seed(self):
        self.assertEqual(make_pool(5), make_pool(5))
        self.assertNotEqual(make_pool(5), make_pool(6))
        code = "import json, workloads; print(json.dumps(workloads.make_pool(5)))"
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", code], cwd=HERE, env=env,
                capture_output=True, text=True, check=True,
            )
            outputs.add(proc.stdout)
        self.assertEqual(len(outputs), 1)
        self.assertEqual(json.loads(outputs.pop()), json.loads(json.dumps(make_pool(5))))

    def test_pool_keys_meet_the_dimension_constraint(self):
        for r, d, tau, kappa in make_pool(9):
            levels = [a for a, _ in tau], [a for a, _ in kappa]
            classes = sum(alpha for _, alpha in tau + kappa)
            self.assertEqual(classes, _class_sum(r, d, *levels))


class FailuresAreCounted(unittest.TestCase):
    def test_corrupted_reference_counts_in_fail_ratio(self):
        bench = run.Bench("ladder", 0)
        bench.refs = dict(bench.refs, **{"P2.d3": "420/1"})  # the true value is -420
        bench.worker()
        self.assertEqual(bench.tally.failed, 1)
        self.assertEqual(bench.tally.attempted, len(bench.refs))

    def test_corrupted_cli_reference_counts(self):
        bench = run.Bench("residuals", 0)
        bench.cli_ref = bench.cli_ref.replace("ok  ", "FAIL", 1)
        bench.check_cli(0, (HERE / "refs" / "cli-residuals.txt").read_text())
        self.assertEqual((bench.tally.failed, bench.tally.attempted), (1, 1))

    def test_command_fails_without_the_program(self):
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("out"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ladder",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
