"""Exact genus-0 Gromov-Witten invariants twisted by tautological classes."""

from .correlators import (
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
from .gw import gw_potential_series, pure_gw
from .potentials import (
    PotentialSpec,
    build_H_series,
    cp1_closed_form_series,
    cp1_h_sequence,
    cp1_penult_residual,
    cp1_spec,
    make_spec,
    trr_pde_residuals,
    wdvv_residual,
    wdvv_residuals,
)
from .series import QSeries, Truncation, Variable, VarRegistry
from .target import TargetModel, projective_space, target_from_config
from .trees import (
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

__all__ = [name for name in dir() if not name.startswith("_")]
