"""Pure genus-0 Gromov-Witten invariants (no psi, no kappa).

Invariants <e_{a1} ... e_{an}>_d are computed by exact recursion:

  * the selection rule kills keys whose class degrees miss twice the
    moduli dimension;
  * degree 0 reduces to triple cup-product integrals (and vanishes for
    n != 3, where the integrand is pulled back from the target);
  * in positive degree a point carrying e_alpha drops with factor c * d
    from ``TargetModel.kappa_minus_one_per_unit``: c = 0 for grading 0 (the
    unit axiom), c the pairing of a divisor (the divisor axiom);
  * what remains is reconstructed through the associativity (WDVV)
    identity down to the two-point degree-one seed <e_r, e_r>_1 = 1
    (for P^1 the equivalent seed is the empty degree-one invariant).

Every value is an exact ``Fraction`` and every normalized key is memoized.
This module holds the pure invariants only: ``gw_potential_series``
delegates to ``potentials.build_H_series``, whose cells reach
``pure_gw`` through ``correlators.evaluate``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

from .target import TargetModel, check_degree

ZERO = Fraction(0)


def pure_gw(target: TargetModel, classes, d: int) -> Fraction:
    """Exact genus-0 invariant of the class multiset at curve degree d."""
    check_degree(d)
    key_classes = tuple(sorted(classes))
    for a in key_classes:
        if type(a) is not int or not 0 <= a < target.rank:
            raise ValueError(f"basis index {a} out of range")
    return _pure_gw(target, key_classes, d)


@cache
def _pure_gw(target: TargetModel, classes: tuple[int, ...], d: int) -> Fraction:
    n = len(classes)
    if d == 0:
        if n != 3:
            return ZERO
        return target.triple_integral(*classes)
    if not target.balanced(sum(target.gradings[a] for a in classes), n, d):
        return ZERO

    # unit and divisor axioms: the point carrying e_a drops with factor c * d
    per_unit = target.kappa_minus_one_per_unit()
    for i, a in enumerate(classes):
        c = per_unit.get(a)
        if c is not None:
            rest = classes[:i] + classes[i + 1 :]
            return c * d * _pure_gw(target, rest, d) if c else ZERO
        if target.gradings[a] == 2:
            raise ValueError(f"no divisor pairing configured for e_{a}")

    seed = target.seed_value(classes, d)
    if seed is not None:
        return seed

    if n < 3:
        raise ValueError(
            f"no reconstruction seed for <{classes}>_{d} on {target.name!r}"
        )
    if not target.is_monogenic:
        raise ValueError(
            f"WDVV reconstruction needs a hyperplane-generated ring; "
            f"{target.name!r} must provide seeds instead"
        )
    return _wdvv_step(target, classes, d)


def _wdvv_step(target: TargetModel, classes: tuple[int, ...], d: int) -> Fraction:
    """Solve for ``classes`` from one associativity relation.

    With s the smallest, E the second smallest and M the largest inserted
    class, apply WDVV to A = e_1, B = e_{s-1}, C = e_M, E' = e_E while the
    rest spectate: pairing (B C | A E') minus pairing (A B | C E').  The
    (d1=0, empty) term of (A B | C E') is the target itself with
    coefficient one; all other terms are strictly smaller in
    (d, n, -sum of squared class degrees).
    """
    s = classes[0]
    e_slot = classes[1]
    m_slot = classes[-1]
    spect = classes[2:-1]

    # (sign, left slots, right slots) of (B C | A E') and (A B | C E')
    pairings = (
        (1, (s - 1, m_slot), (1, e_slot)),
        (-1, (1, s - 1), (m_slot, e_slot)),
    )
    total = ZERO
    for sign, left, right in pairings:
        for d1, g1, g2, mult in _splits(spect, d):
            if sign < 0 and d1 == 0 and not g1:
                continue  # the target itself
            for mu, nu, w in target.eta_inverse_pairs():
                f1 = _pure_gw(target, tuple(sorted(left + g1 + (mu,))), d1)
                if f1 == 0:
                    continue
                f2 = _pure_gw(target, tuple(sorted((nu,) + right + g2)), d - d1)
                if f2 == 0:
                    continue
                total += sign * mult * w * f1 * f2
    return total


def _splits(spect: tuple[int, ...], d: int):
    """Yield (d1, sub-multiset, complement, binomial multiplicity)."""
    groups = []
    for a in sorted(set(spect)):
        groups.append((a, spect.count(a)))
    for d1 in range(d + 1):
        for counts in product(*(range(m + 1) for _, m in groups)):
            g1 = []
            g2 = []
            mult = 1
            for (a, m), k in zip(groups, counts):
                g1.extend([a] * k)
                g2.extend([a] * (m - k))
                mult *= comb(m, k)
            yield d1, tuple(g1), tuple(g2), Fraction(mult)


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
    # imported here: potentials imports correlators, which imports this module
    from .potentials import PotentialSpec, build_H_series

    t_0 = tuple((0, alpha) for alpha in range(target.rank))
    return build_H_series(PotentialSpec(target, t_0, (), tuple(x_caps), q_cap, total_cap))
