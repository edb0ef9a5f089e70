"""Reference values of twisted correlators, from code ``correlators`` does not use.

A checker, not an engine: it imports only the pure invariants
(``pure_gw``) and the target ring, and works on sorted tuples of (level,
class) insertions.  ``pure_gw`` reads its values from
``correlators.evaluate``, whose pure step reconstructs them, so the oracle
does not check that step: the pure invariants are anchored by the tests
for Kontsevich's plane-curve counts N_1..N_6, the P^3 line counts and the
quadric threefold Q^3, and by the golden WDVV residuals.  Each key is
reduced by the first of these genus-0 relations that applies:

  * the selection rule: the integrand degree must be twice the dimension
    of a stable moduli space, else the value is 0;
  * kappa_b(g), b >= 0, by the Arbarello-Cornalba cycle formula
    (Arbarello-Cornalba, J. Alg. Geom. 5 (1996); Kaufmann-Manin-Zagier,
    Comm. Math. Phys. 181 (1996)), one class at a time:
    kappa_b(g) = pi_*(psi^{b+1} ev^* g) for the forgetful map pi, and
    each other kappa_c(h) of level c >= 0 pulls back as
    kappa_c(h) - psi^c ev^* h at the new point, so
    <kappa_b(g) K R> = sum over subsets S of those kappa_c(h) of
    (-1)^|S| <tau_{b+1+sum c}(g . prod h) (K minus S) R>;
    kappa_{-1} classes pull back exactly;
  * kappa_{-1}(g) = pi_*(ev^* g) by the string-type equation, from
    psi_i = pi^* psi_i + D_{i,n+1} along the same map (the comparison
    of the source paper, arXiv math/9801004):
    <kappa_{-1}(g) R> = <tau_0(g) R> - sum_i <R with tau_{a_i}(g_i)
    replaced by tau_{a_i-1}(g_i . g)>, over the points with a_i >= 1;
  * degree 0: M_{0,n}(V, 0) = M_{0,n} x V, and
    <prod tau_{a_i}(g_i)>_0 = (n-3)!/prod a_i! int_V prod g_i when
    sum a_i = n - 3, else 0 (Witten, Surveys Diff. Geom. 1 (1991));
  * no psi: ``pure_gw`` (Kontsevich-Manin reconstruction, Comm. Math.
    Phys. 164 (1994), run by ``evaluate``);
  * psi on n >= 3 points: the genus-0 topological recursion
    psi_1 = D(1 | 2, 3) (Witten 1991), summed over the labelled subsets
    of the other points and the degree splits, the node carrying
    eta^{s1 s2};
  * psi on fewer points, d >= 1: the divisor equation for a divisor D,
    <tau_0(D) R> = (D . d) <R> + sum_i <R with tau_{a_i}(g_i) replaced by
    tau_{a_i-1}(g_i . D)>, solved for <R> (the same comparison of psi
    classes, with the divisor axiom of Kontsevich-Manin 1994).

Every sum runs over labelled points and subsets, with no multiset
binomials, and the selection rule prunes whole keys, not single split
terms; so it is slow on large keys: keep its windows small.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial

from .gw import pure_gw
from .target import TargetModel

Insertions = tuple[tuple[int, int], ...]  # sorted (level, class) pairs


def oracle(key) -> Fraction:
    """Reference value of a ``CorrelatorKey`` (read through its fields only)."""
    return _value(key.target, tuple(key.m), tuple(key.p), key.d)


def _sorted(*parts) -> Insertions:
    return tuple(sorted(e for part in parts for e in part))


def _balanced(target: TargetModel, tau: Insertions, kappa: Insertions, d: int) -> bool:
    n = len(tau)
    degree = sum(2 * a + target.gradings[g] for a, g in tau + kappa)
    dim = max(target.gradings) // 2 + n - 3 + d * target.c1_degree
    return (d > 0 or n >= 3) and degree == 2 * dim


def _absorb(target: TargetModel, level: int, vec: dict, others: Insertions):
    """Yield (sign, level, class vector, kept) over the subsets S of ``others``
    a new point absorbs: levels add, classes multiply, sign (-1)^|S|."""
    if not vec:
        return
    if not others:
        yield 1, level, vec, ()
        return
    (c, h), rest = others[0], others[1:]
    for sign, lv, v, kept in _absorb(target, level, vec, rest):
        yield sign, lv, v, ((c, h),) + kept
    for sign, lv, v, kept in _absorb(target, level + c, target.cup_vector(vec, h), rest):
        yield -sign, lv, v, kept


def _lowered(target: TargetModel, tau: Insertions, g: int):
    """Yield (coefficient, insertions) of tau with one tau_{a_i}(g_i), a_i >= 1,
    replaced by tau_{a_i-1}(g_i . g); one term per point and basis class."""
    for i, (a, gi) in enumerate(tau):
        if a >= 1:
            for nu, c in target.cup_product(gi, g).items():
                yield c, _sorted(tau[:i], tau[i + 1 :], ((a - 1, nu),))


@cache
def _value(target: TargetModel, tau: Insertions, kappa: Insertions, d: int) -> Fraction:
    if not _balanced(target, tau, kappa, d):
        return Fraction(0)
    if kappa and kappa[-1][0] >= 0:  # cycle formula on the deepest kappa
        b, g = kappa[-1]
        pos = tuple(k for k in kappa[:-1] if k[0] >= 0)
        neg = tuple(k for k in kappa[:-1] if k[0] < 0)
        return sum(
            (
                sign * c * _value(target, _sorted(tau, ((lv, nu),)), _sorted(kept, neg), d)
                for sign, lv, vec, kept in _absorb(target, b + 1, {g: Fraction(1)}, pos)
                for nu, c in vec.items()
            ),
            Fraction(0),
        )
    if kappa:  # string-type step on a kappa_{-1}
        g, rest = kappa[0][1], kappa[1:]
        value = _value(target, _sorted(tau, ((0, g),)), rest, d)
        return value - sum(
            (c * _value(target, t, rest, d) for c, t in _lowered(target, tau, g)),
            Fraction(0),
        )
    n = len(tau)
    if d == 0:
        if sum(a for a, _ in tau) != n - 3:
            return Fraction(0)
        vec = {0: Fraction(1)}
        for _, g in tau:
            vec = target.cup_vector(vec, g)
        integral = sum(c * target.eta[nu][0] for nu, c in vec.items())
        multinomial = factorial(n - 3)
        for a, _ in tau:
            multinomial //= factorial(a)
        return multinomial * integral
    if not any(a for a, _ in tau):
        return pure_gw(target, [g for _, g in tau], d)
    if n >= 3:  # psi_1 = D(1 | 2, 3) with 1 the deepest point
        (a1, g1), fixed, others = tau[-1], tau[:2], tau[2:-1]
        total = Fraction(0)
        for picks in product((False, True), repeat=len(others)):
            left = [e for e, p in zip(others, picks) if p]
            right = [e for e, p in zip(others, picks) if not p]
            for d1, (s1, s2, w) in product(range(d + 1), target.eta_inverse_pairs()):
                v1 = _value(target, _sorted(left, ((a1 - 1, g1), (0, s1))), (), d1)
                if v1:
                    v2 = _value(target, _sorted(right, fixed, ((0, s2),)), (), d - d1)
                    total += w * v1 * v2
        return total
    divisor, pairing = target.divisor_class(d)
    value = _value(target, _sorted(tau, ((0, divisor),)), (), d)
    value -= sum(
        (c * _value(target, t, (), d) for c, t in _lowered(target, tau, divisor)),
        Fraction(0),
    )
    return value / pairing
