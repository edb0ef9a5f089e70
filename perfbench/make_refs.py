"""Regenerate the committed references in perfbench/refs/.

    python3 perfbench/make_refs.py

Computes every fixed workload value and CLI output and cross-confirms
them by an independent route before writing anything:

  ladder     P^1 values against ``cp1_h_sequence``, P^2 values against
             ``evaluate_kappa_first``;
  grid       every homogeneous cell of the wide window against
             ``evaluate_kappa_first``, the P^1 window against
             ``cp1_closed_form_series``, residuals zero;
  residuals  the P^1 closed form against ``build_H_series``, residuals
             zero;
  CLI        the ladder value against ``cp1_h_sequence``, the potential
             against the batch's series, the suites all ``ok``.

Only run it when a change of the values is intended and understood.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import product
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gwtaut  # noqa: E402
from run import child_env  # noqa: E402
from workloads import WORKLOADS, canonical  # noqa: E402


def confirm(condition: bool, what: str):
    if not condition:
        raise SystemExit(f"cross-check failed: {what}")


def confirm_window(spec, series):
    """Every homogeneous cell of the window, by the kappa-first route."""
    registry, trunc = spec.context()
    entries = list(spec.t_entries) + list(spec.s_entries)
    gradings = [v.grading for v in registry]
    want = 2 * (spec.target.dim_complex - 3)
    coeffs = dict((tuple(t["exp"]), t["coef"]) for t in series.to_json_dict()["terms"])
    n_cells = 0
    for exps in product(*(range(c + 1) for c in trunc.caps)):
        if not any(exps) or sum(exps[:-1]) > spec.total_cap:
            continue
        if sum(e * g for e, g in zip(exps, gradings)) != want:
            continue
        n_t = len(spec.t_entries)
        tau = [(a, al, k) for (a, al), k in zip(entries[:n_t], exps[:n_t])]
        kappa = [(a, al, k) for (a, al), k in zip(entries[n_t:], exps[n_t:-1])]
        key = gwtaut.make_key(spec.target, tau, kappa, exps[-1])
        weight = 1
        for k in exps[:-1]:
            weight *= factorial(k)
        value = gwtaut.evaluate_kappa_first(key) / weight
        confirm(canonical(value) == coeffs.get(exps, "0/1"), f"cell {exps}")
        n_cells += 1
    return n_cells


def main():
    refs = {}

    ladder = WORKLOADS["ladder"]
    keys = ladder.setup(gwtaut, 0, False)
    values = ladder.batch(gwtaut, keys)
    for name, text in ladder.oracles(gwtaut, False).items():
        confirm(canonical(values[name]) == text, name)
    for name, key in keys.items():
        if name.startswith("P2."):
            confirm(values[name] == gwtaut.evaluate_kappa_first(key), name)
    refs["ladder"] = {name: canonical(v) for name, v in values.items()}

    grid = WORKLOADS["grid"]
    wide, cp1 = grid.setup(gwtaut, 0, False)
    values = grid.batch(gwtaut, (wide, cp1))
    cells = confirm_window(wide, values["wide"])
    texts = {name: canonical(v) for name, v in values.items()}
    confirm(not grid.check(texts, texts, grid.oracles(gwtaut, False)), "grid oracles")
    refs["grid"] = texts
    print(f"grid: {cells} cells confirmed by the kappa-first route")

    residuals = WORKLOADS["residuals"]
    inputs = residuals.setup(gwtaut, 0, False)
    values = residuals.batch(gwtaut, inputs)
    cp1 = inputs[3]
    confirm(values["cp1.closed"] == gwtaut.build_H_series(cp1), "closed form vs engine")
    texts = {name: canonical(v) for name, v in values.items()}
    confirm(not residuals.check(texts, texts, {}), "residuals vanish")
    refs["residuals"] = texts

    (HERE / "refs").mkdir(exist_ok=True)
    (HERE / "refs" / "values.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")

    env = child_env()
    for name, workload in WORKLOADS.items():
        cmd = [sys.executable, "-m", "gwtaut.cli", *workload.cli_args(False)]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        out = proc.stdout
        if name == "ladder":
            n = ladder.sizes(False)[0]
            confirm(json.loads(out)["value"] == refs["ladder"][f"P1.h{n}"], "ladder CLI")
        elif name == "grid":
            confirm(json.loads(out) == json.loads(refs["grid"]["wide"]), "grid CLI")
        else:
            lines = out.splitlines()
            checks = [line for line in lines if not line.startswith(("seed ", "suite "))]
            confirm(all(line.startswith("ok  ") for line in checks), f"{name} CLI checks")
            confirm(lines[-1].endswith(": PASS"), f"{name} CLI verdict")
        (HERE / "refs" / f"cli-{name}.txt").write_text(out)
    print("references written to", HERE / "refs")


if __name__ == "__main__":
    os.chdir(ROOT)
    main()
