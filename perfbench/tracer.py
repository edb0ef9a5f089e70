"""Span tracer for the traced run, installed from outside the program.

``Tracer.install()`` replaces public functions and methods of ``gwtaut``
with wrappers.  A wrapper records a span ``[name, layer, start, end,
parent]`` in memory and bumps the layer counters; a function imported by
name into another module is replaced there too, so ``correlators`` sees
the wrapped ``pure_gw`` and ``potentials`` the wrapped ``evaluate``.
``evaluate`` looks itself up at call time, so its wrapper also sees the
recursive calls and the memo hits.

Counts come only from arguments and results at these boundaries; no
private state of the program is read.  Distinct keys seen by ``evaluate``
stand for memo entries, because every worker starts with cold memos.

Work a wrapper does to count (for instance sizing a series through its
public ``items()``) is recorded as a span of layer ``trace``, so it is kept
out of the self time of the layer that called it.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, layer, function names)
FUNCTIONS = (
    ("gwtaut.gw", "gw", ("pure_gw", "gw_potential_series")),
    (
        "gwtaut.correlators",
        "correlators",
        (
            "evaluate",
            "evaluate_kappa_first",
            "evaluate_combination",
            "apply_puncture_dilaton",
            "apply_trr_psi",
            "apply_trr_kappa",
        ),
    ),
    ("gwtaut.correlators", "trees", ("evaluate_tree_sum",)),
    (
        "gwtaut.trees",
        "trees",
        (
            "psi_boundary_presentation",
            "kappa_boundary_presentation",
            "aut_order",
            "forgetful_pullback",
            "forgetful_pushforward",
            "enumerate_two_vertex_divisors",
        ),
    ),
    (
        "gwtaut.potentials",
        "potentials",
        (
            "build_H_series",
            "cp1_closed_form_series",
            "cp1_h_sequence",
            "cp1_penult_residual",
            "trr_pde_residuals",
            "wdvv_residuals",
            "wdvv_residual",
        ),
    ),
    ("gwtaut.cli", "cli", ("main",)),
    (
        "gwtaut.verify",
        "verify",
        (
            "verify_wdvv",
            "verify_trr",
            "verify_dilaton",
            "verify_path_independence",
            "verify_cp1",
            "verify_trees",
        ),
    ),
)

SERIES_METHODS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "exp",
    "partial_derivative",
    "q_log_derivative",
    "multiply_variable",
    "restrict",
)

RESIDUALS = frozenset(
    ("cp1_penult_residual", "trr_pde_residuals", "wdvv_residuals", "wdvv_residual")
)

LAYERS = ("correlators", "gw", "trees", "series", "potentials", "cli", "verify", "trace")

# Per-layer metrics of BENCHMARK.json that the tracer produces, with units.
METRICS = {
    "target.cup_calls": "count",
    "gw.pure_gw_calls": "count",
    "gw.distinct_keys": "count",
    "gw.self_s": "s",
    "correlators.evaluate_calls": "count",
    "correlators.distinct_keys": "count",
    "correlators.memo_hit_ratio": "ratio",
    "correlators.nonzero_ratio": "ratio",
    "correlators.reductions": "count",
    "correlators.move_terms": "count",
    "correlators.keys_built": "count",
    "correlators.multiindex_built": "count",
    "correlators.alt_distinct_keys": "count",
    "correlators.self_s": "s",
    "trees.presentation_trees": "count",
    "trees.aut_calls": "count",
    "trees.self_s": "s",
    "trees.pairing_s": "s",
    "series.mul_calls": "count",
    "series.mul_pairs": "count",
    "series.mul_s": "s",
    "series.deriv_calls": "count",
    "series.restrict_calls": "count",
    "series.terms_out": "count",
    "series.self_s": "s",
    "potentials.cells_visited": "count",
    "potentials.cells_kept": "count",
    "potentials.kept_ratio": "ratio",
    "potentials.build_self_s": "s",
    "potentials.residual_s": "s",
    "cli.output_bytes": "bytes",
    "verify.checks": "count",
}


def _size(series) -> int:
    return sum(1 for _ in series.items())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(
            (name for name, unit in METRICS.items() if unit in ("count", "bytes")), 0
        )
        self.eval_keys: dict = {}  # key -> value is nonzero
        self.alt_keys: set = set()
        self.gw_keys: set = set()

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, layer, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, layer, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                book = ["count", "trace", clock(), 0.0, parent]
                spans.append(book)
                after(args, result)
                book[3] = clock()
            return result

        return wrapper

    def _counter(self, metric, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name):
        c = self.counts
        if name == "evaluate":
            def after(args, value):
                c["correlators.evaluate_calls"] += 1
                self.eval_keys[args[0]] = value != 0
        elif name == "evaluate_kappa_first":
            def after(args, value):
                self.alt_keys.add(args[0])
        elif name == "pure_gw":
            def after(args, value):
                c["gw.pure_gw_calls"] += 1
                self.gw_keys.add((args[0], tuple(sorted(args[1])), args[2]))
        elif name.startswith("apply_"):
            def after(args, comb):
                c["correlators.move_terms"] += len(comb)
        elif name.endswith("_presentation"):
            def after(args, tree_sum):
                c["trees.presentation_trees"] += len(tree_sum)
        elif name == "aut_order":
            def after(args, value):
                c["trees.aut_calls"] += 1
        elif name == "build_H_series":
            def after(args, series):
                spec = args[0]
                box = spec.q_cap + 1
                for cap in spec.caps:
                    box *= cap + 1
                c["potentials.cells_visited"] += box
        elif name.startswith("verify_"):
            def after(args, result):
                c["verify.checks"] += sum(
                    1 for line in result[1] if line.startswith(("ok  ", "FAIL"))
                )
        elif name in ("__mul__", "__rmul__"):
            QSeries = sys.modules["gwtaut.series"].QSeries

            def after(args, result):
                if isinstance(args[1], QSeries):
                    c["series.mul_calls"] += 1
                    c["series.mul_pairs"] += _size(args[0]) * _size(args[1])
                c["series.terms_out"] += _size(result)
        elif name in SERIES_METHODS:
            def after(args, result):
                if name in ("partial_derivative", "q_log_derivative"):
                    c["series.deriv_calls"] += 1
                elif name == "restrict":
                    c["series.restrict_calls"] += 1
                c["series.terms_out"] += _size(result)
        else:
            after = None
        return after

    def install(self):
        """Wrap the public functions; call once, after importing gwtaut."""
        modules = [
            m for n, m in list(sys.modules.items()) if n == "gwtaut" or n.startswith("gwtaut.")
        ]

        def replace(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for module_name, layer, names in FUNCTIONS:
            module = sys.modules[module_name]
            for name in names:
                original = getattr(module, name)
                replace(original, self._wrap(layer, name, original, self._after(name)))

        QSeries = sys.modules["gwtaut.series"].QSeries
        for name in SERIES_METHODS:
            original = getattr(QSeries, name)
            setattr(QSeries, name, self._wrap("series", name, original, self._after(name)))

        correlators = sys.modules["gwtaut.correlators"]
        target = sys.modules["gwtaut.target"]
        for cls, name, metric in (
            (target.TargetModel, "cup_vector", "target.cup_calls"),
            (target.TargetModel, "cup_product", "target.cup_calls"),
            (correlators.CorrelatorKey, "__post_init__", "correlators.keys_built"),
            (correlators.MultiIndex, "__post_init__", "correlators.multiindex_built"),
        ):
            setattr(cls, name, self._counter(metric, getattr(cls, name)))

    # -- results -----------------------------------------------------------------

    def self_times(self):
        """Self time per span: its duration minus its direct children's."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, start, end, _) in enumerate(spans)]

    def metrics(self, wall_s: float):
        """Per-layer metrics, self time per layer and time per top-level call.

        The layer ``untraced`` is the part of ``wall_s`` outside every
        top-level span: benchmark glue and program code that is not wrapped.
        The time per top-level call sums, by function name, the spans the
        benchmark entered directly, so it is the time of a whole route.
        """
        spans = self.spans
        selfs = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        by_name: dict[str, float] = {}
        top: dict[str, float] = {}
        for (name, layer, start, end, parent), own in zip(spans, selfs):
            layer_self[layer] += own
            by_name[name] = by_name.get(name, 0.0) + own
            if parent < 0:
                top[name] = top.get(name, 0.0) + end - start
        layer_self["untraced"] = wall_s - sum(top.values())

        kept = sum(
            1
            for name, _, _, _, parent in spans
            if name == "evaluate" and parent >= 0 and spans[parent][0] == "build_H_series"
        )
        residual_s = sum(
            end - start
            for name, _, start, end, parent in spans
            if name in RESIDUALS and (parent < 0 or spans[parent][0] not in RESIDUALS)
        )
        c = dict(self.counts)
        calls = c["correlators.evaluate_calls"]
        distinct = len(self.eval_keys)
        c.update(
            {
                "gw.distinct_keys": len(self.gw_keys),
                "gw.self_s": layer_self["gw"],
                "correlators.distinct_keys": distinct,
                "correlators.memo_hit_ratio": (calls - distinct) / calls if calls else 0.0,
                "correlators.nonzero_ratio": (
                    sum(self.eval_keys.values()) / distinct if distinct else 0.0
                ),
                "correlators.alt_distinct_keys": len(self.alt_keys),
                "correlators.self_s": layer_self["correlators"],
                "trees.self_s": layer_self["trees"],
                "trees.pairing_s": by_name.get("evaluate_tree_sum", 0.0),
                "series.mul_s": by_name.get("__mul__", 0.0) + by_name.get("__rmul__", 0.0),
                "series.self_s": layer_self["series"],
                "potentials.cells_kept": kept,
                "potentials.kept_ratio": (
                    kept / c["potentials.cells_visited"] if c["potentials.cells_visited"] else 0.0
                ),
                "potentials.build_self_s": by_name.get("build_H_series", 0.0),
                "potentials.residual_s": residual_s,
            }
        )
        return c, layer_self, top

    def dump(self, path):
        """Write the spans as CSV: name, layer, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("name,layer,start,end,parent\n")
            for name, layer, start, end, parent in self.spans:
                fh.write(f"{name},{layer},{start:.9f},{end:.9f},{parent}\n")
