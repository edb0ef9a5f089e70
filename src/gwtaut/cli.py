"""Batch command line: evaluate correlators, emit potentials, run suites.

Exit codes: 0 success, 1 engine/evaluation error, 2 usage or config error.
A job names its target once: ``--r`` and ``--target`` exclude each other, and
so do ``--spec`` and ``--spec-json``.  A correlator spec is the whole job:
it may hold only ``target`` or ``r``, ``degree``, ``tau`` and ``kappa`` (the
last two as lists), and no flag that gives a part of the correlator may join
it.
Rationals are always printed as "p/q"; table rows are ordered by exponent
vector so output is byte-stable for a fixed configuration.  ``potentials``
and ``verify`` are held as modules and read at call time, so a
``correlator`` job runs neither (see ``gwtaut``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import correlators, potentials
from .correlators import evaluate, expected_dimension, make_key
from .target import TargetModel, format_rational, json_int, projective_space, target_from_config
from . import verify as verify_mod


class UsageError(Exception):
    pass


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _config_target(config, where: str) -> TargetModel:
    """Build a target from JSON data; any defect in the data is a usage error."""
    if not isinstance(config, dict):
        raise UsageError(f"bad {where}: expected a JSON object")
    try:
        return target_from_config(config)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad {where}: {exc}") from exc


def _load_target(args, config: dict | None = None) -> TargetModel:
    if config is not None:
        if "target" in config:
            return _config_target(config["target"], "spec target")
        if "r" in config:
            shortcut = {"type": "projective_space", "r": config["r"]}
            return _config_target(shortcut, "spec 'r'")
        raise UsageError("spec needs a 'target' object or an 'r' shortcut")
    if getattr(args, "target", None):
        try:
            config = json.loads(args.target)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad --target config: {exc}") from exc
        return _config_target(config, "--target config")
    if getattr(args, "r", None) is not None:
        return projective_space(args.r)
    raise UsageError("provide --target or --r")


SPEC_FIELDS = ("target", "r", "degree", "tau", "kappa")


def _read_spec(args) -> dict:
    """The correlator spec of ``--spec`` or ``--spec-json``, its fields checked:
    only ``SPEC_FIELDS``, not both ``target`` and ``r``, and lists for
    ``tau`` and ``kappa``.  A spec gives the whole correlator, so no flag
    that gives a part of one may join it."""
    flags = ("--target", "--r", "--degree", "--tau", "--kappa")
    given = [flag for flag in flags if getattr(args, flag[2:]) is not None]
    if given:
        raise UsageError(f"a correlator spec takes no {', '.join(given)}")
    try:
        if args.spec:
            with open(args.spec) as fh:
                config = json.load(fh)
        else:
            config = json.loads(args.spec_json)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read correlator spec: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError("correlator spec must be a JSON object")
    unknown = [name for name in config if name not in SPEC_FIELDS]
    if unknown:
        raise UsageError(f"unknown spec fields {unknown}; allowed: {list(SPEC_FIELDS)}")
    if "target" in config and "r" in config:
        raise UsageError("spec takes a 'target' object or an 'r' shortcut, not both")
    for name in ("tau", "kappa"):
        if not isinstance(config.get(name, []), list):
            raise UsageError(f"spec {name!r} must be a list of [a, alpha, mult] entries")
    return config


def _parse_index_list(raw, what: str) -> list[tuple[int, int, int]]:
    out = []
    if raw is None:
        return out
    for item in raw:
        try:
            if isinstance(item, str):
                parts = [int(x) for x in item.split(",")]
            else:
                parts = [json_int(x, f"a {what} component") for x in item]
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad {what} entry {item!r}") from exc
        if len(parts) != 3:
            raise UsageError(f"{what} entries need three components a,alpha,mult")
        out.append(tuple(parts))
    return out


def cmd_correlator(args) -> int:
    if args.spec or args.spec_json:
        config = _read_spec(args)
        target = _load_target(args, config)
        degree = config.get("degree", 0)
        tau = _parse_index_list(config.get("tau", []), "tau")
        kappa = _parse_index_list(config.get("kappa", []), "kappa")
    else:
        target = _load_target(args)
        degree = 0 if args.degree is None else args.degree
        tau = _parse_index_list(args.tau, "tau")
        kappa = _parse_index_list(args.kappa, "kappa")

    try:
        key = make_key(target, tau, kappa, degree)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    correlators.clear_caches()  # "reductions" counts the work of a cold evaluation
    before = correlators.reduction_count()
    value = evaluate(key)
    steps = correlators.reduction_count() - before
    try:
        dim = expected_dimension(key)
    except ValueError:
        dim = None
    payload = {
        "value": format_rational(value),
        "expected_dimension": dim,
        "reductions": steps,
    }
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "csv":
        print("value,expected_dimension,reductions")
        print(f"{payload['value']},{dim if dim is not None else ''},{steps}")
    else:
        print(f"value {payload['value']}")
        print(f"expected_dimension {dim}")
        print(f"reductions {steps}")
    return 0


def _parse_var_token(token: str) -> tuple[str, int, int]:
    token = token.strip()
    if token.startswith("x"):
        try:
            return ("t", 0, int(token[1:]))
        except ValueError as exc:
            raise UsageError(f"bad variable token {token!r}") from exc
    if token.startswith(("t", "s")):
        kind = token[0]
        body = token[1:]
        if ":" not in body:
            raise UsageError(f"bad variable token {token!r} (want {kind}a:alpha)")
        a_txt, _, alpha_txt = body.partition(":")
        try:
            return (kind, int(a_txt), int(alpha_txt))
        except ValueError as exc:
            raise UsageError(f"bad variable token {token!r}") from exc
    raise UsageError(f"unknown variable {token!r}")


def cmd_potential(args) -> int:
    target = _load_target(args)
    t_entries: list[tuple[int, int]] = []
    s_entries: list[tuple[int, int]] = []
    for token in args.vars.split(","):
        if token.strip():
            kind, a, alpha = _parse_var_token(token)
            (t_entries if kind == "t" else s_entries).append((a, alpha))
    try:
        spec = potentials.make_spec(
            target, set(t_entries), set(s_entries), args.cap, args.qmax, args.total
        )
    except ValueError as exc:
        raise UsageError(f"bad --vars: {exc}") from exc
    series = potentials.build_H_series(spec)
    if args.format == "json":
        print(json.dumps(series.to_json_dict()))
    else:
        print(series.table())
    return 0


def cmd_verify(args) -> int:
    targets = [projective_space(r) for r in (args.r_list or [1, 2])]
    if args.suite == "wdvv":
        # the unit x_0 appears only in the degree-0 cubic, so a cap of 3 loses nothing
        cap = 3 * args.qmax
        specs = []
        for target in targets:
            t_0 = tuple((0, alpha) for alpha in range(target.rank))
            caps = (min(cap, 3),) + (cap,) * (target.rank - 1)
            specs.append(potentials.PotentialSpec(target, t_0, (), caps, args.qmax))
        ok, lines = verify_mod.verify_wdvv(specs)
    elif args.suite == "trr":
        ok, lines = verify_mod.verify_trr(targets, args.samples, args.seed)
    elif args.suite == "dilaton":
        ok, lines = verify_mod.verify_dilaton(targets, args.samples, args.seed)
    elif args.suite == "paths":
        ok, lines = verify_mod.verify_path_independence(
            targets, args.samples, args.seed
        )
    elif args.suite == "cp1":
        ok, lines = verify_mod.verify_cp1(q_cap=min(args.qmax, 4))
    elif args.suite == "trees":
        ok, lines = verify_mod.verify_trees()
    else:  # pragma: no cover - argparse chokes first
        raise UsageError(f"unknown suite {args.suite!r}")
    for line in lines:
        print(line)
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _add_target_flags(parser: argparse.ArgumentParser) -> None:
    """``--target`` and ``--r``, of which a job takes at most one."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--target", help="target config as JSON")
    group.add_argument("--r", type=_int_at_least(1), help="projective-space dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwtaut",
        description="Exact twisted genus-0 Gromov-Witten correlators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("correlator", help="evaluate one correlator")
    spec = c.add_mutually_exclusive_group()
    spec.add_argument("--spec", help="JSON spec file (fields target or r, degree, tau, kappa)")
    spec.add_argument("--spec-json", help="inline JSON spec; a spec takes no flag but --format")
    _add_target_flags(c)
    c.add_argument("--degree", type=int, help="curve degree (default 0)")
    c.add_argument("--tau", action="append", help="a,alpha,mult (repeatable)")
    c.add_argument("--kappa", action="append", help="a,alpha,mult (repeatable)")
    c.add_argument("--format", choices=["json", "text", "csv"], default="json")

    p = sub.add_parser("potential", help="emit a truncated potential")
    _add_target_flags(p)
    p.add_argument("--vars", default="", help="comma list: x0,x1,s-1:1,s0:0,...")
    p.add_argument("--qmax", type=_int_at_least(0), default=2)
    p.add_argument("--cap", type=_int_at_least(0), default=6, help="per-variable exponent cap")
    p.add_argument("--total", type=_int_at_least(0), default=None, help="total-degree cap")
    p.add_argument("--format", choices=["json", "text"], default="text")

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument(
        "--suite",
        required=True,
        choices=["wdvv", "trr", "dilaton", "paths", "cp1", "trees"],
    )
    v.add_argument(
        "--r",
        dest="r_list",
        type=_int_at_least(1),
        action="append",
        help="target dimension (repeatable)",
    )
    v.add_argument("--qmax", type=_int_at_least(1), default=3)
    v.add_argument("--samples", type=_int_at_least(1), default=50)
    v.add_argument("--seed", type=int, default=20240913)
    return parser


def _join_index_values(argv: list[str]) -> list[str]:
    """``--kappa -1,1,2`` as ``--kappa=-1,1,2``: argparse reads a separate
    value that starts with ``-`` (kappa_{-1}, the Novikov shift) as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--tau", "--kappa") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_index_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "correlator":
            return cmd_correlator(args)
        if args.command == "potential":
            return cmd_potential(args)
        return cmd_verify(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
