"""Pure genus-0 Gromov-Witten invariants (no psi, no kappa).

An invariant <e_{a1} ... e_{an}>_d is the correlator key with n level-0
points, no kappa class and curve degree d, so ``pure_gw`` builds that key
with ``make_key``, which checks the classes and the degree, and hands it to
``correlators.evaluate``: one memo holds the pure invariants with every
twisted key.  The evaluator's last branch, the pure step, reconstructs
them (see ``evaluate``'s docstring):

  * the selection rule kills keys whose class degrees miss twice the
    moduli dimension;
  * degree 0 reduces to triple cup-product integrals (and vanishes for
    n != 3, where the integrand is pulled back from the target);
  * in positive degree every point carrying e_alpha drops, in one step,
    with factor c * d from ``TargetModel.kappa_minus_one_per_unit``: c = 0
    for grading 0 (the unit axiom), c the pairing of a divisor (the divisor
    axiom);
  * what remains is reconstructed through the associativity (WDVV)
    identity of Kontsevich-Manin, a boundary split on the (n+1)-pointed
    space that ``correlators._boundary_split`` solves, down to the
    two-point degree-one seed <e_r, e_r>_1 = 1 (for P^1 the equivalent seed
    is the empty degree-one invariant).

``gw_potential_series`` is the ``potentials.build_H_series`` of the spec
whose only entries are the t_0^alpha.  ``potentials`` is held as a module
and read at call time, so importing this module does not run it.
"""

from __future__ import annotations

from fractions import Fraction

from . import potentials
from .correlators import evaluate, make_key
from .target import TargetModel


def pure_gw(target: TargetModel, classes, d: int) -> Fraction:
    """Exact genus-0 invariant of the class multiset at curve degree d.

    ``evaluate`` of the key with a level-0 point per class; ``make_key``
    refuses a class that is not an int basis index of ``target`` and a
    degree that is not an int >= 0 (``bool`` excluded).  ``classes`` is read
    once, so any iterable will do.
    """
    return evaluate(make_key(target, [(0, a, 1) for a in classes], (), d))


def gw_potential_series(
    target: TargetModel,
    x_caps: tuple[int, ...],
    q_cap: int,
    total_cap: int | None = None,
):
    """Truncated genus-0 potential sum_{n,d} <...>_d x^... q^d / n!.

    The ``build_H_series`` of the spec whose only entries are the t_0^alpha,
    the x-variables in basis order: the twisted potential with no s.
    """
    t_0 = tuple((0, alpha) for alpha in range(target.rank))
    spec = potentials.PotentialSpec(target, t_0, (), tuple(x_caps), q_cap, total_cap)
    return potentials.build_H_series(spec)
