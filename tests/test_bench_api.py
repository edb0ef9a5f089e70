"""Every ``gwtaut`` name the benchmark in ``perfbench/`` reads still exists.

The benchmark runs on the parent commit and on a change alike, so a name it
reads cannot be deleted before the benchmark moves off it.  ``tracer.py``
imports nothing from ``gwtaut`` and is loaded by path; ``workloads.py`` is
read as text.  The tracer also reads ``sys.modules`` right after
``import gwtaut, gwtaut.cli``, so that import must put every module it wraps
there.  Since every CLI run pays for the import, it runs nothing more than a
correlator needs: ``series``, ``potentials`` and ``verify`` sit in
``sys.modules`` as lazy modules, which run on their first attribute read
(the tracer's ``vars()``, say), once.
"""

import importlib
import importlib.util
import json
import os
import pickle
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


LAZY = ("gwtaut.series", "gwtaut.potentials", "gwtaut.verify")

# prints, as its last line, the loaded modules and each lazy module's own
# names: a module that has run holds more than the dunders module_from_spec
# sets.  The raw namespace is read, since a plain attribute read would load it.
REPORT = """
import json, sys
own = {
    name: sorted(k for k in object.__getattribute__(sys.modules[name], "__dict__")
                 if not k.startswith("__"))
    for name in %r
}
print(json.dumps({"loaded": sorted(sys.modules), "ran": own}))
""" % (LAZY,)


def fresh_process(script: str) -> str:
    """stdout of ``script`` in a new interpreter, with no site packages."""
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src")}
    run = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout


def test_cold_import_loads_what_the_tracer_wraps_and_nothing_heavy():
    report = json.loads(fresh_process("import gwtaut, gwtaut.cli" + REPORT))
    loaded = set(report["loaded"])
    # dataclasses alone pulls in inspect, ast, dis and tokenize; random is
    # for the randomized verify suites, which import it themselves
    assert not loaded & {"dataclasses", "inspect", "typing", "random", "gwtaut.oracle"}
    wrapped = {module for module, _, _ in load_tracer().FUNCTIONS}
    assert wrapped | {"gwtaut.series", "gwtaut.target"} <= loaded
    assert report["ran"] == dict.fromkeys(LAZY, [])


def test_a_correlator_job_runs_no_lazy_module():
    job = ["gwtaut", "correlator", "--r", "1", "--degree", "2", "--kappa", "0,1,2"]
    script = f"""
import runpy, sys
sys.argv = {job!r}
try:  # what python -m gwtaut.cli does
    runpy.run_module("gwtaut.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
""" + REPORT
    out = fresh_process(script).splitlines()
    assert json.loads(out[0])["value"] == "1/2"
    report = json.loads(out[-1])
    # -m runs the CLI module as __main__, not as gwtaut.cli
    wrapped = {module for module, _, _ in load_tracer().FUNCTIONS} - {"gwtaut.cli"}
    assert wrapped <= set(report["loaded"])
    assert report["ran"] == dict.fromkeys(LAZY, [])


def test_a_lazy_module_runs_once_on_first_use():
    script = """
import sys, gwtaut, gwtaut.cli
spec = gwtaut.make_spec(gwtaut.projective_space(1), {(0, 0), (0, 1)}, set(), 3, 1)
potentials = sys.modules["gwtaut.potentials"]
assert potentials is gwtaut.potentials is gwtaut.gw.potentials is gwtaut.cli.potentials
assert sys.modules["gwtaut.verify"] is gwtaut.verify is gwtaut.cli.verify_mod
assert sys.modules["gwtaut.series"] is gwtaut.series
assert gwtaut.QSeries is gwtaut.series.QSeries is potentials.QSeries
assert gwtaut.PotentialSpec is potentials.PotentialSpec is type(spec)
assert gwtaut.series.Record is gwtaut.target.Record is potentials.Record
print("ok")
""" + REPORT
    out = fresh_process(script).splitlines()
    assert out[0] == "ok"
    ran = json.loads(out[-1])["ran"]
    assert "QSeries" in ran["gwtaut.series"] and "build_H_series" in ran["gwtaut.potentials"]
    assert ran["gwtaut.verify"] == []  # nothing read it


def test_every_public_name_resolves():
    lazy = {"QSeries", "Truncation", "Variable", "VarRegistry", "PotentialSpec", "build_H_series"}
    assert lazy <= set(gwtaut.__all__)
    for name in gwtaut.__all__:
        assert getattr(gwtaut, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gwtaut.no_such_name


def test_series_and_spec_pickled_elsewhere_load_in_a_fresh_process():
    # a pickle names gwtaut.series.QSeries and gwtaut.potentials.PotentialSpec;
    # loading one in a process where those modules have not run loads them
    p1 = gwtaut.projective_space(1)
    spec = gwtaut.make_spec(p1, {(0, 0), (0, 1)}, {(0, 1)}, 3, 1)
    series = gwtaut.build_H_series(spec)
    assert series
    data = pickle.dumps((spec, series)).hex()
    script = f"""
import pickle, gwtaut
spec, series = pickle.loads(bytes.fromhex({data!r}))
assert type(series) is gwtaut.QSeries and type(spec) is gwtaut.PotentialSpec
assert spec == gwtaut.make_spec(gwtaut.projective_space(1), {{(0, 0), (0, 1)}}, {{(0, 1)}}, 3, 1)
assert series == gwtaut.build_H_series(spec)
print("ok")
"""
    assert fresh_process(script).split() == ["ok"]
