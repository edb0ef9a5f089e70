"""Every ``gwtaut`` name the benchmark in ``perfbench/`` reads still exists.

The benchmark runs on the parent commit and on a change alike, so a name it
reads cannot be deleted before the benchmark moves off it.  ``tracer.py``
imports nothing from ``gwtaut`` and is loaded by path; ``workloads.py`` is
read as text.  The tracer also reads ``sys.modules`` right after
``import gwtaut, gwtaut.cli``, so that import must load every module it
wraps, and, since every CLI run pays for it, nothing more.
"""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gwtaut
from gwtaut.correlators import CorrelatorKey, MultiIndex
from gwtaut.series import QSeries
from gwtaut.target import TargetModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_names() -> list[tuple[object, str]]:
    """(owner, attribute) for every program name the benchmark reads."""
    tracer = load_tracer()
    names = [
        (importlib.import_module(module), name)
        for module, _, functions in tracer.FUNCTIONS
        for name in functions
    ]
    names += [(QSeries, name) for name in tracer.SERIES_METHODS]
    names += [
        (TargetModel, "cup_vector"),
        (TargetModel, "cup_product"),
        (CorrelatorKey, "__post_init__"),
        (MultiIndex, "__post_init__"),
        (importlib.import_module("gwtaut.correlators"), "reduction_count"),
    ]
    text = (PERFBENCH / "workloads.py").read_text()
    names += [(gwtaut, name) for name in sorted(set(re.findall(r"\bgt\.(\w+)", text)))]
    for module, imported in re.findall(r"from (gwtaut[\w.]*) import ([\w, ]+)", text):
        owner = importlib.import_module(module)
        names += [(owner, name.strip()) for name in imported.split(",")]
    return list(dict.fromkeys(names))


BENCH_NAMES = bench_names()


@pytest.mark.parametrize(
    "owner, name", BENCH_NAMES, ids=[f"{owner.__name__}.{name}" for owner, name in BENCH_NAMES]
)
def test_benchmark_name_exists(owner, name):
    assert hasattr(owner, name), f"{owner.__name__}.{name} is gone"


def test_the_benchmark_reads_names():
    # not vacuous: the tracer's tables and the workloads' gt.<name> reads
    assert len(BENCH_NAMES) >= 50
    assert (gwtaut, "evaluate_kappa_first") in BENCH_NAMES


def test_cold_import_loads_what_the_tracer_wraps_and_nothing_heavy():
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    script = "import sys, json, gwtaut, gwtaut.cli; print(json.dumps(sorted(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(json.loads(run.stdout))
    # dataclasses alone pulls in inspect, ast, dis and tokenize; random is
    # for the randomized verify suites, which import it themselves
    assert not loaded & {"dataclasses", "inspect", "typing", "random", "gwtaut.oracle"}
    wrapped = {module for module, _, _ in load_tracer().FUNCTIONS}
    assert wrapped | {"gwtaut.series", "gwtaut.target"} <= loaded
