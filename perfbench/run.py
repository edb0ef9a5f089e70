"""Benchmark of gwtaut: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: ladder, grid, residuals and
crosscheck (see perfbench/README.md for why each exists).

With ``--trace 0`` the command alternates, for about S seconds, a worker
process that imports gwtaut, builds the inputs and computes the workload's
batch with cold memos, and the workload's CLI job as
``python -m gwtaut.cli``.  Processes run one at a time.  It reports the
median of ``setup_s``, ``run_s``, ``cli_s`` and ``peak_rss_mb``, the times
scaled to the reference speed of ``speed.py``.  With
``--trace 1`` it alternates traced and untraced workers, runs the CLI job
traced once, and reports the per-layer counts and self times, the layer
shares and the tracing overhead.

Every value is checked outside the timed regions, against the committed
references in perfbench/refs/ and the oracles the workload names; every
CLI output against its reference.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
sys.path.insert(0, str(SRC))

from speed import reference_loop, scaled  # noqa: E402
from tracer import LAYERS, METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 3
TIMEOUT_S = 150

# Set-up takes ~0.05 s, so a few set-up-only workers per iteration give it
# enough samples for a steady median.
EXTRA_SETUPS = 3

# Unit of each end-to-end metric; a run reports the median of its samples.
# Times are scaled to the reference speed (see speed.py).
UNITS = {"setup_s": "s", "run_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}

# Layer whose self time should dominate each workload's traced batch.
PREDICTED = {
    "ladder": "correlators",
    "grid": "potentials",
    "residuals": "series",
    "crosscheck": "correlators",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Tally:
    """Operations checked and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures: dict[str, str]):
        self.attempted += attempted
        self.failed += len(failures)
        for name, message in failures.items():
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {message}")


class Bench:
    def __init__(self, name: str, seed: int):
        import gwtaut

        self.workload = WORKLOADS[name]
        self.seed = seed
        self.env = child_env()
        self.tally = Tally()
        self.oracles = self.workload.oracles(gwtaut, False)
        refs = json.loads((REFS / "values.json").read_text())
        self.refs = refs.get(name, {})
        self.cli_ref = (REFS / f"cli-{name}.txt").read_text()

    def worker(self, *flags) -> dict | None:
        """Run one worker; check its values; None when it failed."""
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload.name]
        cmd += ["--seed", str(self.seed), *flags]
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"error": proc.stderr[-2000:]}
        if proc.returncode != 0 or "error" in result:
            self.tally.add(1, {"worker": result.get("error", proc.stderr[-2000:])})
            return None
        if "values" in result:
            values = result["values"]
            failures = self.workload.check(values, self.refs, self.oracles)
            self.tally.add(len(set(values) | set(self.refs)), failures)
        if "stdout" in result:
            self.check_cli(result["exit_code"], result["stdout"])
        return result

    def check_cli(self, code, stdout: str):
        good = code == 0 and self.workload.cli_check(stdout, self.cli_ref)
        self.tally.add(1, {} if good else {"cli": f"exit {code}, output differs from reference"})

    def cli(self) -> tuple[float, float]:
        """Run the CLI job as a user would; return its scaled and raw wall time."""
        cmd = [sys.executable, "-m", "gwtaut.cli", *self.workload.cli_args(False)]
        before = reference_loop()
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
        wall = time.perf_counter() - t0
        after = reference_loop()
        self.check_cli(proc.returncode, proc.stdout)
        return scaled(wall, before, after), wall


def until(seconds: float, step):
    """Call ``step`` until the next call would end after ``seconds``."""
    start = time.perf_counter()
    n = 0
    while True:
        t0 = time.perf_counter()
        step()
        n += 1
        now = time.perf_counter()
        if n >= MIN_SAMPLES and now - start + (now - t0) > seconds:
            return


def describe(name: str, values: list[float], unit: str) -> str:
    values = sorted(values)
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return (
        f"{name:<14} median {q2:.4f} {unit}  quartiles {q1:.4f}..{q3:.4f}  "
        f"range {values[0]:.4f}..{values[-1]:.4f}  n={len(values)}"
    )


def timed(bench: Bench, seconds: float) -> dict:
    samples: dict[str, list[float]] = {key: [] for key in UNITS}
    raw: dict[str, list[float]] = {"setup_s": [], "run_s": [], "cli_s": []}

    def add(result, key):
        raw[key].append(result[key])
        samples[key].append(scaled(result[key], *result["ref_s"]))

    def step():
        result = bench.worker()
        if result is not None:
            add(result, "setup_s")
            add(result, "run_s")
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
        cli_s, cli_raw = bench.cli()
        samples["cli_s"].append(cli_s)
        raw["cli_s"].append(cli_raw)
        for _ in range(EXTRA_SETUPS):
            result = bench.worker("--setup-only")
            if result is not None:
                add(result, "setup_s")

    until(seconds, step)
    metrics = {}
    for key, unit in UNITS.items():
        if samples[key]:
            print(describe(key, samples[key], unit))
            metrics[key] = {"value": statistics.median(samples[key]), "unit": unit}
    print("unscaled medians: " + ", ".join(
        f"{key} {statistics.median(v):.4f} s" for key, v in raw.items() if v
    ))
    return metrics


def traced(bench: Bench, seconds: float) -> dict:
    runs: list[dict] = []
    plain: list[float] = []

    def step():
        result = bench.worker("--trace")
        if result is not None:
            runs.append(result)
        result = bench.worker()
        if result is not None:
            plain.append(scaled(result["run_s"], *result["ref_s"]))

    start = time.perf_counter()
    cli = bench.worker("--trace", "--cli")
    until(seconds - (time.perf_counter() - start), step)
    if not runs or not plain or cli is None:
        return {}
    for r in runs:  # self times to the reference speed, like run_s
        for name, unit in METRICS.items():
            if unit == "s":
                r["layers"][name] = scaled(r["layers"][name], *r["ref_s"])

    counts = [{k: v for k, v in r["layers"].items() if METRICS.get(k) == "count"} for r in runs]
    if any(c != counts[0] for c in counts):
        print("warning: per-layer counts differ between traced runs", file=sys.stderr)
    metrics = {}
    for name, unit in METRICS.items():
        if name in ("cli.output_bytes", "verify.checks"):
            value = cli["layers"][name]
        elif unit == "count":
            value = counts[0][name]
        else:
            value = statistics.median(r["layers"][name] for r in runs)
        metrics[name] = {"value": value, "unit": unit}
    traced_run = statistics.median(scaled(r["run_s"], *r["ref_s"]) for r in runs)
    plain_run = statistics.median(plain)
    metrics["trace.overhead_s"] = {"value": traced_run - plain_run, "unit": "s"}

    print(f"traced run_s {traced_run:.4f} s, untraced run_s {plain_run:.4f} s, "
          f"overhead {traced_run - plain_run:.4f} s ({(traced_run / plain_run - 1) * 100:.0f}%), "
          f"{len(runs)} traced and {len(plain)} untraced workers")
    shares = report_shares("batch", runs)
    report_shares("cli job", [cli], key="cli_s")
    predicted = PREDICTED[bench.workload.name]
    top = max((layer for layer in shares if layer not in ("trace", "untraced")), key=shares.get)
    verdict = "holds" if top == predicted else f"does NOT hold: {top} leads"
    print(f"prediction: {predicted} dominates {bench.workload.name}: {verdict}")
    if bench.workload.name == "crosscheck":
        route = statistics.median(r["top_s"].get("evaluate_kappa_first", 0.0) / r["run_s"] for r in runs)
        print(f"crosscheck: trees self time {shares['trees']:.1%} and the kappa-first route "
              f"{route:.1%} of the traced batch")
    return metrics


def report_shares(label: str, runs: list[dict], key: str = "run_s") -> dict[str, float]:
    """Print and return each layer's median share of the traced wall time."""
    shares = {
        layer: statistics.median(r["layer_self_s"][layer] / r[key] for r in runs)
        for layer in (*LAYERS, "untraced")
    }
    parts = [f"{layer} {share:.1%}" for layer, share in shares.items() if share >= 0.0005]
    print(f"self-time shares ({label}): " + ", ".join(parts))
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gwtaut" / "__init__.py").is_file():
        print(f"error: no gwtaut sources under {SRC}", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # one core for this process and its children, so the reference loop
        # that brackets a CLI job runs where the job runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        metrics = traced(bench, args.seconds)
    else:
        metrics = timed(bench, args.seconds)
    tally = bench.tally
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"fail_ratio     {ratio:.4f} ({tally.failed} of {tally.attempted} operations)")
    for message in tally.messages:
        print(f"FAIL {message}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(tally.attempted, 1),
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
