"""The four benchmark workloads: inputs, timed batch, CLI job and checks.

Every workload is driven through the public ``gwtaut`` API only.  The
program module is passed in as ``gt`` so that this file imports nothing
from ``gwtaut`` itself: the worker times that import as part of set-up.

A workload has

  ``setup(gt, seed, small)``  builds the targets, specs and keys (timed as
                              set-up);
  ``batch(gt, inputs)``       computes every value of the workload with
                              cold memos (timed as the run) and returns
                              ``{name: Fraction | QSeries}``;
  ``cli_args(small)``         the headline job for ``python -m gwtaut.cli``;
  ``oracles(gt, small)``      independent values, computed once per run;
  ``check(values, refs, oracles)``
                              compares the canonical texts with references
                              and oracles, returning ``{name: message}``;
  ``cli_check(stdout, ref)``  compares the CLI job's output with its
                              reference.

``small`` shrinks the inputs for the benchmark's own tests.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# -- canonical text of values -------------------------------------------------


def canonical(value) -> str:
    """Exact, order-independent text of a value: ``p/q`` or a series dump."""
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
        return f"{value.numerator}/{value.denominator}"
    return json.dumps(value.to_json_dict(), sort_keys=True, separators=(",", ":"))


def series_is_zero(text: str) -> bool:
    return not json.loads(text)["terms"]


def compare_to_refs(values: dict[str, str], refs: dict[str, str]) -> dict[str, str]:
    """``{name: message}`` for every missing, extra or differing value."""
    errors = {}
    for name in sorted(set(values) | set(refs)):
        if name not in refs:
            errors[name] = "no reference value"
        elif name not in values:
            errors[name] = "not computed"
        elif values[name] != refs[name]:
            errors[name] = "differs from the reference"
    return errors


class Workload:
    """Defaults: no oracle beyond the references, CLI output byte for byte."""

    @staticmethod
    def oracles(gt, small):
        return {}

    @staticmethod
    def cli_check(stdout: str, ref: str) -> bool:
        return stdout == ref


# -- ladder: a few deep keys on the main evaluate route --------------------------


class Ladder(Workload):
    name = "ladder"

    @staticmethod
    def sizes(small):
        return (4, 2) if small else (5, 3)

    @classmethod
    def setup(cls, gt, seed, small):
        n_max, d_max = cls.sizes(small)
        p1, p2 = gt.projective_space(1), gt.projective_space(2)
        keys = {
            f"P1.h{n}": gt.make_key(p1, kappa=[(0, 1, 2 * n - 2)], d=n)
            for n in range(1, n_max + 1)
        }
        for d in range(1, d_max + 1):
            keys[f"P2.d{d}"] = gt.make_key(p2, kappa=[(0, 1, 3 * d - 1)], d=d)
        return keys

    @staticmethod
    def batch(gt, keys):
        return {name: gt.evaluate(key) for name, key in keys.items()}

    @classmethod
    def cli_args(cls, small):
        n = cls.sizes(small)[0]
        return ["correlator", "--r", "1", "--degree", str(n), "--kappa", f"0,1,{2 * n - 2}"]

    @staticmethod
    def oracles(gt, small):
        n_max, _ = Ladder.sizes(small)
        hs = gt.cp1_h_sequence(n_max)
        return {f"P1.h{n}": canonical(hs[n - 1]) for n in range(1, n_max + 1)}

    @staticmethod
    def check(values, refs, oracles):
        errors = compare_to_refs(values, refs)
        for name, text in oracles.items():
            if values.get(name) != text:
                errors[name] = "differs from cp1_h_sequence"
        return errors

    @staticmethod
    def cli_check(stdout: str, ref: str) -> bool:
        # "reductions" counts work, which an optimisation may change; the
        # value and the dimension are what must stay identical.
        def strip(text):
            payload = json.loads(text)
            payload.pop("reductions", None)
            return payload

        return strip(stdout) == strip(ref)


# -- grid: build_H_series over two windows ---------------------------------------

WIDE_VARS = "x0,x1,x2,s-1:1,s-1:2,s0:0,s0:1"


class Grid(Workload):
    name = "grid"

    @staticmethod
    def sizes(small):
        # (wide cap, wide total, cp1 q cap, cp1 var cap)
        return (3, 4, 2, 4) if small else (5, 6, 3, 6)

    @classmethod
    def setup(cls, gt, seed, small):
        cap, total, q_cp1, cap_cp1 = cls.sizes(small)
        wide = gt.make_spec(
            gt.projective_space(2),
            t_entries=[(0, 0), (0, 1), (0, 2)],
            s_entries=[(-1, 1), (-1, 2), (0, 0), (0, 1)],
            var_cap=cap,
            q_cap=2,
            total_cap=total,
        )
        cp1 = gt.cp1_spec(q_cap=q_cp1, var_cap=cap_cp1, total_cap=cap_cp1)
        return wide, cp1

    @staticmethod
    def batch(gt, inputs):
        wide, cp1 = inputs
        out = {"wide": gt.build_H_series(wide)}
        for name, residual in gt.trr_pde_residuals(out["wide"], wide):
            out[f"wide.trr.{name}"] = residual
        out["cp1"] = gt.build_H_series(cp1)
        return out

    @classmethod
    def cli_args(cls, small):
        cap, total, _, _ = cls.sizes(small)
        return [
            "potential", "--r", "2", "--vars", WIDE_VARS, "--cap", str(cap),
            "--qmax", "2", "--total", str(total), "--format", "json",
        ]

    @classmethod
    def oracles(cls, gt, small):
        _, cp1 = cls.setup(gt, 0, small)
        return {"cp1": canonical(gt.cp1_closed_form_series(cp1.q_cap, cp1))}

    @staticmethod
    def check(values, refs, oracles):
        errors = compare_to_refs(values, refs)
        if values.get("cp1") != oracles["cp1"]:
            errors["cp1"] = "differs from cp1_closed_form_series"
        for name, text in values.items():
            if ".trr." in name and not series_is_zero(text):
                errors[name] = "residual is not zero"
        return errors


# -- residuals: series algebra behind exact zero checks ---------------------------


class Residuals(Workload):
    name = "residuals"

    @staticmethod
    def sizes(small):
        # (P^3 x cap, P^3 q cap, cp1 q cap)
        return (6, 2, 2) if small else (6, 2, 4)

    @classmethod
    def setup(cls, gt, seed, small):
        x_cap, q_cap, q_cp1 = cls.sizes(small)
        p3 = gt.projective_space(3)
        cp1 = gt.cp1_spec(q_cap=q_cp1, var_cap=2 * q_cp1, total_cap=2 * q_cp1)
        return p3, (3, x_cap, x_cap, x_cap), q_cap, cp1

    @staticmethod
    def batch(gt, inputs):
        p3, caps, q_cap, cp1 = inputs
        out = {"P3.potential": gt.gw_potential_series(p3, caps, q_cap)}
        for quad, residual in gt.wdvv_residuals(out["P3.potential"], p3).items():
            out["P3.wdvv." + ",".join(map(str, quad))] = residual
        out["cp1.closed"] = gt.cp1_closed_form_series(cp1.q_cap, cp1)
        for name, residual in gt.trr_pde_residuals(out["cp1.closed"], cp1):
            out[f"cp1.trr.{name}"] = residual
        out["cp1.penult"] = gt.cp1_penult_residual(cp1.q_cap)
        return out

    @classmethod
    def cli_args(cls, small):
        _, q_cap, _ = cls.sizes(small)
        return ["verify", "--suite", "wdvv", "--r", "3", "--qmax", str(q_cap)]

    @staticmethod
    def check(values, refs, oracles):
        errors = compare_to_refs(values, refs)
        for name, text in values.items():
            residual = ".wdvv." in name or ".trr." in name or name == "cp1.penult"
            if residual and not series_is_zero(text):
                errors[name] = "residual is not zero"
        return errors


# -- crosscheck: seeded pool of mixed psi/kappa keys, every route -----------------

# (r, d, tau levels, kappa levels, keys per pool).  Levels are fixed per
# template and the seed draws the classes, so the work a pool costs varies
# little from seed to seed.  Templates without kappa feed the psi boundary
# presentation, templates with one kappa of level >= 0 the kappa
# presentation, and the mixed ones (a kappa_{-1} among them) only the
# evaluators and the two-sided relations.
TEMPLATES = (
    (1, 2, (2, 1, 0, 0, 0), (), 18),
    (1, 3, (3, 2, 0, 0, 0), (), 12),
    (2, 1, (1, 1, 0, 0, 0), (), 18),
    (2, 2, (2, 1, 0, 0), (), 18),
    (1, 2, (2, 0, 0, 0), (0,), 18),
    (1, 3, (1, 1, 0, 0), (2,), 12),
    (2, 1, (0, 0, 0, 0), (1,), 18),
    (2, 2, (1, 0, 0), (0,), 18),
    (1, 2, (1, 0, 0, 0), (-1, 0, 1), 18),
    (2, 1, (1, 0, 0, 0), (-1, 0, 1), 18),
    (2, 2, (0, 0, 0), (0, 0), 18),
)

# Fixed, because the suite's own sampler makes its cost vary from 0.9 s to
# 4 s by seed; seed 3 is one of the cheaper ones.
CLI_PATHS_SEED = 3


def _class_sum(r, d, tau_levels, kappa_levels):
    """Sum of class indices that makes the key meet the dimension constraint."""
    n = len(tau_levels)
    return r + n - 3 + d * (r + 1) - sum(tau_levels) - sum(kappa_levels)


def make_pool(seed: int, small: bool = False):
    """Admissible keys ``(r, d, tau, kappa)`` as plain tuples; a pure function of seed."""
    rng = random.Random(seed)
    pool = []
    for r, d, tau_levels, kappa_levels, copies in TEMPLATES:
        k = len(tau_levels) + len(kappa_levels)
        total = _class_sum(r, d, tau_levels, kappa_levels)
        if not 0 <= total <= r * k:
            raise ValueError(f"template {(r, d, tau_levels, kappa_levels)} is not admissible")
        for _ in range(1 if small else copies):
            while True:
                classes = [rng.randint(0, r) for _ in range(k)]
                if sum(classes) == total:
                    break
            n = len(tau_levels)
            pool.append(
                (
                    r,
                    d,
                    tuple(zip(tau_levels, classes[:n])),
                    tuple(zip(kappa_levels, classes[n:])),
                )
            )
    return pool


class Crosscheck(Workload):
    name = "crosscheck"

    @staticmethod
    def setup(gt, seed, small):
        keys = []
        for r, d, tau, kappa in make_pool(seed, small):
            target = gt.projective_space(r)
            key = gt.make_key(
                target, [(a, al, 1) for a, al in tau], [(a, al, 1) for a, al in kappa], d
            )
            keys.append((target, d, tau, kappa, key))
        return keys

    @staticmethod
    def batch(gt, keys):
        from gwtaut.correlators import evaluate_combination

        out = {}
        for i, (target, d, tau, kappa, key) in enumerate(keys):
            out[f"{i}.main"] = gt.evaluate(key)
            out[f"{i}.kappa_first"] = gt.evaluate_kappa_first(key)
            n = len(tau)
            psi = sorted((e for e in tau if e[0] >= 1), reverse=True)
            if psi and n >= 3:
                pivot = psi[0]
                others = list(tau)
                others.remove(pivot)
                if not kappa:
                    ambient = {1: (0, pivot[1])}
                    ambient.update({j + 2: e for j, e in enumerate(others)})
                    pres = gt.psi_boundary_presentation(n, d, pivot[0])
                    out[f"{i}.psi_trees"] = gt.evaluate_tree_sum(target, pres, ambient)
                comb = gt.apply_trr_psi(key, pivot, (others[0], others[1]))
                out[f"{i}.trr_psi"] = evaluate_combination(comb)
            kappa_pivots = sorted((e for e in kappa if e[0] >= 0), reverse=True)
            if kappa_pivots and n >= 2:
                a, alpha = kappa_pivots[0]
                if len(kappa) == 1:
                    ambient = {j + 1: e for j, e in enumerate(tau)}
                    pres = gt.kappa_boundary_presentation(target, n, d, a, alpha)
                    out[f"{i}.kappa_trees"] = gt.evaluate_tree_sum(target, pres, ambient)
                comb = gt.apply_trr_kappa(key, (a, alpha))
                out[f"{i}.trr_kappa"] = evaluate_combination(comb)
            if psi and not (d == 0 and n == 3):
                comb = gt.apply_puncture_dilaton(key, psi[0])
                out[f"{i}.comparison"] = evaluate_combination(comb)
        return out

    @staticmethod
    def cli_args(small):
        samples = "4" if small else "20"
        return [
            "verify", "--suite", "paths", "--r", "1", "--r", "2",
            "--seed", str(CLI_PATHS_SEED), "--samples", samples,
        ]

    @staticmethod
    def check(values, refs, oracles):
        """Every route of a key must give the main route's value."""
        errors = {}
        for name, text in values.items():
            index, route = name.split(".")
            main = values.get(f"{index}.main")
            if route != "main" and text != main:
                errors[name] = f"gives {text}, the main route gives {main}"
        return errors


WORKLOADS = {w.name: w for w in (Ladder, Grid, Residuals, Crosscheck)}
