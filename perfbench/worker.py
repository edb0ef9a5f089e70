"""One measurement in a fresh interpreter, so every memo and cache starts cold.

    python3 perfbench/worker.py WORKLOAD [--seed N] [--small] [--cli] [--trace]
                                         [--setup-only]

Times the set-up (importing ``gwtaut`` with ``gwtaut.cli`` and building the
workload's inputs), then, unless ``--setup-only``, either the workload's
batch or, with ``--cli``, its CLI job run in-process.  With ``--trace`` the
span tracer is installed after set-up and its per-layer numbers are added;
the spans are written to ``perfbench/out/``.  Values are returned as
canonical text and checked by the caller, outside this process, which also
scales the times by the two timings of ``speed.reference_loop`` taken
first and last (``ref_s``).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from speed import reference_loop  # noqa: E402  (benchmark code; imports no gwtaut)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, canonical  # noqa: E402


def measure(workload, seed: int, small: bool, cli: bool, trace: bool, setup_only: bool) -> dict:
    before = reference_loop()
    t0 = time.perf_counter()
    import gwtaut
    import gwtaut.cli

    inputs = workload.setup(gwtaut, seed, small)
    result = {"setup_s": time.perf_counter() - t0}
    if setup_only:
        result["ref_s"] = [before, reference_loop()]
        return result

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    correlators = sys.modules["gwtaut.correlators"]
    reductions = correlators.reduction_count()
    if cli:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = gwtaut.cli.main(workload.cli_args(small))
        wall = time.perf_counter() - t0
        result["ref_s"] = [before, reference_loop()]
        result.update(cli_s=wall, stdout=out.getvalue(), exit_code=code)
    else:
        t0 = time.perf_counter()
        values = workload.batch(gwtaut, inputs)
        wall = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["ref_s"] = [before, reference_loop()]
        result["run_s"] = wall
        result["values"] = {name: canonical(v) for name, v in values.items()}
    if tracer is not None:
        counts, layer_self, top_s = tracer.metrics(wall)
        counts["correlators.reductions"] = correlators.reduction_count() - reductions
        if cli:
            counts["cli.output_bytes"] = len(result["stdout"].encode())
        result["layers"] = counts
        result["layer_self_s"] = layer_self
        result["top_s"] = top_s
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload.name}-{'cli' if cli else 'batch'}.csv")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--cli", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = measure(
            WORKLOADS[args.workload], args.seed, args.small, args.cli, args.trace, args.setup_only
        )
    except Exception:  # reported to the caller, which counts it as a failure
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
