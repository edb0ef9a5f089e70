"""Pure genus-0 Gromov-Witten invariants (no psi, no kappa).

Invariants <e_{a1} ... e_{an}>_d are computed by exact recursion:

  * the selection rule kills keys whose class degrees miss twice the
    moduli dimension;
  * degree 0 reduces to triple cup-product integrals (and vanishes for
    n != 3, where the integrand is pulled back from the target);
  * a unit insertion vanishes in positive degree, a divisor insertion
    multiplies by its pairing with the curve class;
  * what remains is reconstructed through the associativity (WDVV)
    identity down to the two-point degree-one seed <e_r, e_r>_1 = 1
    (for P^1 the equivalent seed is the empty degree-one invariant).

Every value is an exact ``Fraction`` and every normalized key is memoized.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial

from .series import QSeries, Truncation, Variable, VarRegistry
from .target import TargetModel, check_degree

ZERO = Fraction(0)


def selection_holds(target: TargetModel, classes: tuple[int, ...], d: int) -> bool:
    """Degree sum must equal twice the moduli dimension."""
    n = len(classes)
    if d == 0 and n < 3:
        return False
    degree_sum = sum(target.gradings[a] for a in classes)
    return degree_sum == 2 * target.moduli_dimension(n, d)


def pure_gw(target: TargetModel, classes, d: int) -> Fraction:
    """Exact genus-0 invariant of the class multiset at curve degree d."""
    check_degree(d)
    key_classes = tuple(sorted(classes))
    for a in key_classes:
        if not 0 <= a < target.rank:
            raise ValueError(f"basis index {a} out of range")
    return _pure_gw(target, key_classes, d)


@cache
def _pure_gw(target: TargetModel, classes: tuple[int, ...], d: int) -> Fraction:
    n = len(classes)
    if d == 0:
        if n != 3:
            return ZERO
        return target.triple_integral(*classes)
    if not selection_holds(target, classes, d):
        return ZERO

    # unit axiom
    if classes and classes[0] == 0:
        return ZERO

    # divisor axiom: strip degree-2 insertions
    for i, a in enumerate(classes):
        if target.gradings[a] == 2:
            factor = target.integral_over_beta(a, d)
            rest = classes[:i] + classes[i + 1 :]
            return factor * _pure_gw(target, rest, d)

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
) -> QSeries:
    """Truncated genus-0 potential sum_{n,d} <...>_d x^... q^d / n!.

    The registry holds one x-variable per basis class (graded like
    t_0^alpha) followed by q.
    """
    if len(x_caps) != target.rank:
        raise ValueError("one exponent cap per basis class is required")
    variables = [
        Variable("t", 0, alpha, -2 + target.gradings[alpha])
        for alpha in range(target.rank)
    ]
    variables.append(Variable("q", 0, 0, -2 * target.c1_degree))
    registry = VarRegistry(variables)
    trunc = Truncation(tuple(x_caps) + (q_cap,), total_cap)

    terms = {}
    for exps in trunc.graded_exponents(registry, 2 * (target.dim_complex - 3)):
        *x_exps, d = exps
        classes = tuple(
            alpha for alpha, k in enumerate(x_exps) for _ in range(k)
        )
        if d == 0 and len(classes) < 3:
            continue
        value = _pure_gw(target, classes, d)
        if value == 0:
            continue
        weight = Fraction(1)
        for k in x_exps:
            weight /= factorial(k)
        terms[exps] = value * weight
    return QSeries(registry, trunc, terms)
