"""Exact genus-0 Gromov-Witten invariants twisted by tautological classes.

``target``, ``trees``, ``correlators`` and ``gw`` load with the package; a
correlator needs nothing else.  ``series``, ``potentials`` and ``verify``
load on first use: each is an ``importlib.util.LazyLoader`` module, placed
in ``sys.modules`` and bound here as a package attribute before any eager
import, so that ``from . import potentials`` in ``gw`` and ``cli`` finds
the lazy module and no module runs twice.  The first attribute read of a
lazy module runs its code; its re-exported names (``QSeries``,
``PotentialSpec``, ``build_H_series`` and the rest) are bound here on
first read by the module ``__getattr__`` (PEP 562).

A plain PEP 562 package would keep those modules out of ``sys.modules``
until first use, where a caller that reads ``sys.modules`` right after
``import gwtaut, gwtaut.cli`` (a tracer wrapping the public functions, say)
would not find them.  A lazy module is there from the start, and reading
its namespace with ``vars()`` loads it.  Where ``LazyLoader`` takes no lock
(Python 3.10 and 3.11 among them), a thread that reads a lazy module while
another thread's first read is running it may see it half run.
"""

import sys as _sys
from importlib import util as _util

# the names each lazily loaded module re-exports
_LAZY = {
    "series": ("QSeries", "Truncation", "Variable", "VarRegistry"),
    "potentials": (
        "PotentialSpec",
        "build_H_series",
        "cp1_closed_form_series",
        "cp1_h_sequence",
        "cp1_penult_residual",
        "cp1_spec",
        "make_spec",
        "trr_pde_residuals",
        "wdvv_residual",
        "wdvv_residuals",
    ),
    "verify": (),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def _lazy_module(name: str):
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


series, potentials, verify = map(_lazy_module, _LAZY)

from .correlators import (  # noqa: E402  (after the lazy modules are in place)
    CorrelatorKey,
    MultiIndex,
    apply_puncture_dilaton,
    apply_trr_kappa,
    apply_trr_psi,
    evaluate,
    evaluate_kappa_first,
    evaluate_tree_sum,
    expected_dimension,
    lift_kappa_minus_one,
    make_key,
    selection,
)
from .gw import gw_potential_series, pure_gw  # noqa: E402
from .target import TargetModel, projective_space, target_from_config  # noqa: E402
from .trees import (  # noqa: E402
    DecoratedTree,
    Decoration,
    TreeSum,
    aut_order,
    enumerate_two_vertex_divisors,
    forgetful_pullback,
    forgetful_pushforward,
    kappa_boundary_presentation,
    psi_boundary_presentation,
)


def __getattr__(name: str):
    """A re-exported name of a lazy module, bound here on first read."""
    try:
        module = _LAZY_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(globals()[module], name)
    return value


__all__ = sorted([name for name in dir() if not name.startswith("_")] + [*_LAZY_NAMES])
