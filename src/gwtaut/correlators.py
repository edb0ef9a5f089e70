"""Correlators of psi- and kappa-twisted genus-0 invariants.

A correlator key holds a tau multi-index m (psi levels a >= 0), a kappa
multi-index p (levels a >= -1) and a curve degree d.  Values are exact
rationals.  ``evaluate`` is the one evaluator, memoized; its docstring
gives the one order in which it applies the relations: the psi and kappa
recursions (``apply_trr_psi``, ``apply_trr_kappa``, which share one
boundary-split loop emitting only dimension-balanced terms), the
comparison relation along the forgetful map and the divisor equation,
both read backwards, and the lift of kappa_{-1} classes to extra marked
points (``lift_kappa_minus_one``).  The forward comparison relation
(``apply_puncture_dilaton``) is not on that path; the verify suites check
it against ``evaluate``, and ``gwtaut.oracle`` checks ``evaluate`` with
code it does not share.

Each move returns a plain list of (keys, coefficient) terms, unmerged.  A
split term puts its lower-degree factor first, since
``evaluate_combination`` stops a product at its first zero factor and the
lower-degree factor is the cheaper one.

Checks run at the API boundary: the public ``MultiIndex(...)`` normalizes
and the public ``CorrelatorKey(...)`` (so ``make_key``) validates.  The
moves derive keys from valid ones through ``_normal_index`` and
``_valid_key``, which check nothing: the ``MultiIndex`` operations keep the
normal form, and each move shifts levels only within their ranges (tau
>= 0, kappa >= -1).  The selection rule is ``TargetModel.balanced``.

Coefficients stay ``int``s until they are divided (a ``Fraction`` enters
only through the divisor equation's 1/pairing or non-integral custom-target
data), and ``evaluate_combination`` and ``evaluate_tree_sum`` build one
``Fraction`` per sum.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, gcd
from operator import itemgetter

from .gw import _pure_gw, pure_gw
from .target import Rational, TargetModel, check_degree
from .trees import DecoratedTree, TreeSum, aut_order

ZERO = Fraction(0)
ONE = Fraction(1)

Entry = tuple[int, int]  # (level a, basis index alpha)


@dataclass(frozen=True)
class MultiIndex:
    """Finitely supported multiplicity function on (level, basis index).

    The public constructor normalizes: ``entries`` is a signed sum, so
    repeated entries add up; multiplicities must be ints with non-negative
    totals; zeros drop, entries sort.  ``add``, ``remove``, ``merge``,
    ``splits`` and the two parts keep this normal form and skip the
    constructor.
    """

    entries: tuple[tuple[Entry, int], ...] = ()

    def __post_init__(self):
        acc: dict[Entry, int] = {}
        for key, mult in self.entries:
            if type(mult) is not int:
                raise ValueError(f"multiplicity must be an integer, got {mult!r}")
            acc[key] = acc.get(key, 0) + mult
        if any(mult < 0 for mult in acc.values()):
            raise ValueError("negative multiplicity")
        cleaned = tuple(sorted(item for item in acc.items() if item[1]))
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "_cached_hash", hash(cleaned))

    def __hash__(self) -> int:
        return self._cached_hash

    @classmethod
    def from_list(cls, items) -> "MultiIndex":
        return cls(tuple(((a, alpha), mult) for a, alpha, mult in items))

    # -- size bookkeeping (norms count levels a >= 0 only) ---------------------

    @property
    def size(self) -> int:
        return sum(mult for _, mult in self.entries)

    @property
    def norm(self) -> int:
        return sum(mult for (a, _), mult in self.entries if a >= 0)

    @property
    def weight(self) -> int:
        return sum(a * mult for (a, _), mult in self.entries if a >= 0)

    @property
    def max_level(self) -> int:
        return max((a for (a, _), _ in self.entries), default=-10)

    def mult(self, a: int, alpha: int) -> int:
        for key, m in self.entries:
            if key == (a, alpha):
                return m
        return 0

    def expand(self) -> tuple[Entry, ...]:
        out: list[Entry] = []
        for key, m in self.entries:
            out.extend([key] * m)
        return tuple(out)

    def add(self, a: int, alpha: int, k: int = 1) -> "MultiIndex":
        if type(k) is not int:
            raise ValueError(f"multiplicity must be an integer, got {k!r}")
        entries, key = self.entries, (a, alpha)
        i = bisect_left(entries, key, key=_entry_key)
        if i < len(entries) and entries[i][0] == key:
            k += entries[i][1]
            tail = entries[i + 1 :]
        else:
            tail = entries[i:]
        if k < 0:
            raise ValueError("negative multiplicity")
        return _normal_index(entries[:i] + (((key, k),) if k else ()) + tail)

    def remove(self, a: int, alpha: int, k: int = 1) -> "MultiIndex":
        if self.mult(a, alpha) < k:
            raise ValueError(f"entry ({a},{alpha}) not present {k} times")
        return self.add(a, alpha, -k)

    def factorial(self) -> int:
        out = 1
        for _, m in self.entries:
            out *= factorial(m)
        return out

    def splits(self):
        """Yield (sub, complement, int binomial) over all sub-multi-indices."""
        keys = [key for key, _ in self.entries]
        mults = [m for _, m in self.entries]
        for counts in product(*(range(m + 1) for m in mults)):
            sub, rest, mult = [], [], 1
            for key, m, c in zip(keys, mults, counts):
                if c:
                    sub.append((key, c))
                if c < m:
                    rest.append((key, m - c))
                mult *= comb(m, c)
            yield _normal_index(tuple(sub)), _normal_index(tuple(rest)), mult

    def nonneg_part(self) -> "MultiIndex":
        return _normal_index(
            tuple(item for item in self.entries if item[0][0] >= 0)
        )

    def neg_part(self) -> "MultiIndex":
        return _normal_index(
            tuple(item for item in self.entries if item[0][0] < 0)
        )

    def merge(self, other: "MultiIndex") -> "MultiIndex":
        if not other.entries:
            return self
        if not self.entries:
            return other
        acc = dict(self.entries)
        for key, m in other.entries:
            acc[key] = acc.get(key, 0) + m
        return _normal_index(tuple(sorted(acc.items())))


_entry_key = itemgetter(0)


def _normal_index(entries: tuple[tuple[Entry, int], ...]) -> MultiIndex:
    """A ``MultiIndex`` on entries already in normal form; nothing is checked."""
    idx = object.__new__(MultiIndex)
    object.__setattr__(idx, "entries", entries)
    object.__setattr__(idx, "_cached_hash", hash(entries))
    return idx


@dataclass(frozen=True)
class CorrelatorKey:
    """Correlator <tau_m kappa_p>_d; the public constructor validates it
    (int d >= 0; int levels, tau >= 0 and kappa >= -1; basis indices in range)."""

    target: TargetModel
    m: MultiIndex
    p: MultiIndex
    d: int

    def __post_init__(self):
        check_degree(self.d)
        rank = self.target.rank
        for idx, lowest, kind in ((self.m, 0, "tau"), (self.p, -1, "kappa")):
            for (a, alpha), _ in idx.entries:
                if type(a) is not int or a < lowest:
                    raise ValueError(f"{kind} indices need levels a >= {lowest}")
                if type(alpha) is not int or not 0 <= alpha < rank:
                    raise ValueError(f"basis index {alpha} out of range")
        object.__setattr__(
            self,
            "_cached_hash",
            hash((hash(self.target), self.m, self.p, self.d)),
        )

    def __hash__(self) -> int:
        return self._cached_hash

    @property
    def n(self) -> int:
        return self.m.size


def _valid_key(
    target: TargetModel, m: MultiIndex, p: MultiIndex, d: int
) -> CorrelatorKey:
    """A ``CorrelatorKey`` on parts already known valid; nothing is checked."""
    key = object.__new__(CorrelatorKey)
    object.__setattr__(key, "target", target)
    object.__setattr__(key, "m", m)
    object.__setattr__(key, "p", p)
    object.__setattr__(key, "d", d)
    object.__setattr__(key, "_cached_hash", hash((hash(target), m, p, d)))
    return key


def make_key(target: TargetModel, tau=(), kappa=(), d: int = 0) -> CorrelatorKey:
    """Key from (a, alpha, mult) triples."""
    return CorrelatorKey(
        target, MultiIndex.from_list(tau), MultiIndex.from_list(kappa), d
    )


# a product of correlator values times a coefficient
Term = tuple[tuple[CorrelatorKey, ...], Rational]


# -- dimension bookkeeping -------------------------------------------------------


def _index_degree(gradings: tuple[int, ...], idx: MultiIndex) -> int:
    return sum(mult * (2 * a + gradings[alpha]) for (a, alpha), mult in idx.entries)


def degree_sum(key: CorrelatorKey) -> int:
    gradings = key.target.gradings
    return _index_degree(gradings, key.m) + _index_degree(gradings, key.p)


def expected_dimension(key: CorrelatorKey) -> int:
    return key.target.moduli_dimension(key.n, key.d)


def selection(key: CorrelatorKey) -> bool:
    """True when the integrand degree matches twice the moduli dimension."""
    return key.target.balanced(degree_sum(key), key.n, key.d)


# -- the four reduction moves ------------------------------------------------------


def _comparison_terms(
    target: TargetModel, m: MultiIndex, p: MultiIndex, level: int, alpha: int, d: int
):
    """The comparison relation's kappa split, for both of its directions.

    Yields (p2, key, coefficient) for each sub-multiset p2 of the level >= 0
    kappa classes of p: the key carries m, the rest of p and a kappa class
    of level p2.weight + ``level`` on 1 . (p2's classes) . e_alpha."""
    neg = p.neg_part()
    for p2, rest, binm in p.nonneg_part().splits():
        vec = {0: 1}
        for _, beta in p2.expand():
            vec = target.cup_vector(vec, beta)
        for nu, c_nu in target.cup_vector(vec, alpha).items():
            p1 = rest.merge(neg).add(p2.weight + level, nu)
            yield p2, _valid_key(target, m, p1, d), binm * c_nu


def _cup_at_points(
    key: CorrelatorKey, points: MultiIndex, p: MultiIndex, g: int, drop: int
):
    """Yield the terms that replace one point tau_a(e_alpha) of ``points``
    (part of key.m), a >= drop, by tau_{a-drop}(e_alpha . e_g); the keys
    carry the kappa classes p."""
    for (a, alpha), mult in points.entries:
        if a < drop:
            continue
        for nu, c_nu in key.target.cup_product(alpha, g).items():
            shifted = key.m.remove(a, alpha).add(a - drop, nu)
            yield (_valid_key(key.target, shifted, p, key.d),), mult * c_nu


def apply_puncture_dilaton(key: CorrelatorKey, pivot: Entry) -> list[Term]:
    """Trade the pivot tau insertion for kappa insertions downstairs.

    Valid for pivot level a >= 1, or a = 0 when every other tau insertion
    has level 0; never on a three-point degree-0 key.  Returns the list of
    the relation's one-factor terms.
    """
    a, alpha = pivot
    if key.m.mult(a, alpha) == 0:
        raise ValueError(f"pivot tau_{a}^{alpha} not present")
    m0 = key.m.remove(a, alpha)
    if a == 0 and m0.max_level >= 1:
        raise ValueError(
            "a level-0 pivot needs all remaining tau insertions at level 0"
        )
    if key.d == 0 and key.n == 3:
        raise ValueError(
            "the comparison relation needs the forgotten two-point space; "
            "it does not exist at degree 0 with three points"
        )
    terms = _comparison_terms(key.target, m0, key.p, a - 1, alpha, key.d)
    return [((sub,), coeff) for _, sub, coeff in terms]


def _boundary_split(
    key: CorrelatorKey,
    m0: MultiIndex,
    p0: MultiIndex,
    left_tau: list[Entry],
    left_kappa: list[Entry],
    right_tau: tuple[Entry, ...],
) -> list[Term]:
    """Sum over the boundary divisors D(A|B) that split ``key`` in two.

    The left factor carries a sub-multiset m1 of m0 and p1 of p0 plus the
    fixed insertions ``left_tau``/``left_kappa``; the right factor carries
    the complements plus ``right_tau``; the node carries
    eta^{s1 s2} e_{s1} x e_{s2} and the curve degree splits as b1 + (d - b1).
    Only dimension-balanced terms are emitted: the selection rule is checked
    on the integer degree sums and point counts of both factors before any
    key is built.  Every term it skips has a factor that vanishes outright.
    The factor of lower degree comes first.
    """
    target, d = key.target, key.d
    g, balanced = target.gradings, target.balanced
    pairs = target.eta_inverse_pairs()
    left_m, left_p, right_m = (
        MultiIndex(tuple((e, 1) for e in side))
        for side in (left_tau, left_kappa, right_tau)
    )
    m_deg, p_deg = _index_degree(g, m0), _index_degree(g, p0)
    left_deg = _index_degree(g, left_m) + _index_degree(g, left_p)
    right_deg = _index_degree(g, right_m)
    p_sides = [
        (p1.merge(left_p), p2, pbin, _index_degree(g, p1))
        for p1, p2, pbin in p0.splits()
    ]
    terms = []
    for m1, m2, mbin in m0.splits():
        left, right = m1.merge(left_m), m2.merge(right_m)
        n1, n2 = left.size + 1, right.size + 1
        dm1 = _index_degree(g, m1)
        for p1, p2, pbin, dp1 in p_sides:
            deg1 = left_deg + dm1 + dp1
            deg2 = right_deg + m_deg - dm1 + p_deg - dp1
            for s1, s2, w in pairs:
                for b1 in range(d + 1):
                    if balanced(deg1 + g[s1], n1, b1) and balanced(
                        deg2 + g[s2], n2, d - b1
                    ):
                        k1 = _valid_key(target, left.add(0, s1), p1, b1)
                        k2 = _valid_key(target, right.add(0, s2), p2, d - b1)
                        pair = (k1, k2) if 2 * b1 <= d else (k2, k1)
                        terms.append((pair, mbin * pbin * w))
    return terms


def apply_trr_psi(
    key: CorrelatorKey, pivot: Entry, copivots: tuple[Entry, Entry]
) -> list[Term]:
    """Split psi^a at the pivot point off the two co-pivot points.

    Returns the list of the dimension-balanced boundary terms, each with its
    lower-degree factor first (see ``_boundary_split``).
    """
    a1, alpha1 = pivot
    if a1 < 1:
        raise ValueError("the psi recursion needs a pivot of level a >= 1")
    m0 = key.m.remove(a1, alpha1)
    for a, alpha in copivots:
        m0 = m0.remove(a, alpha)
    return _boundary_split(key, m0, key.p, [(a1 - 1, alpha1)], [], copivots)


def apply_trr_kappa(
    key: CorrelatorKey, pivot: Entry, copivots: tuple[Entry, Entry] | None = None
) -> list[Term]:
    """Demote the pivot kappa class across a boundary splitting.

    For pivot level a >= 1 the class drops to kappa_{a-1}; at level 0 it
    drops to the lift-ready kappa_{-1} plus cup-product corrections.  Two
    tau insertions serve as co-pivots.  Returns a term list: the balanced
    boundary terms, lower-degree factor first (see ``_boundary_split``).
    """
    a1, alpha1 = pivot
    if key.p.mult(a1, alpha1) == 0:
        raise ValueError(f"pivot kappa_({a1},{alpha1}) not present")
    if a1 < 0:
        raise ValueError("kappa_{-1} classes are lifted, not recursed")
    if copivots is None:
        points = key.m.expand()
        if len(points) < 2:
            raise ValueError("the kappa recursion needs two tau co-pivots")
        copivots = (points[0], points[1])
    m0 = key.m
    for a, alpha in copivots:
        m0 = m0.remove(a, alpha)
    p0 = key.p.remove(a1, alpha1)
    terms = _boundary_split(key, m0, p0, [], [(a1 - 1, alpha1)], copivots)
    if a1 == 0:
        # e_alpha -> e_alpha . e_alpha1 at one point other than the co-pivots
        terms += _cup_at_points(key, m0, p0, alpha1, 0)
    return terms


def lift_kappa_minus_one(key: CorrelatorKey) -> tuple[tuple[int, ...], int]:
    """Convert kappa_{-1} insertions into extra evaluation points.

    Only valid once every tau level is 0 and every kappa level is -1;
    returns the pure Gromov-Witten key (classes, degree).
    """
    if key.m.max_level >= 1:
        raise ValueError("psi powers remain; the lift needs plain insertions")
    if key.p.nonneg_part().entries:
        raise ValueError("kappa levels >= 0 remain; reduce them first")
    classes = [alpha for (_, alpha) in key.m.expand()]
    classes += [alpha for (_, alpha) in key.p.expand()]
    return tuple(sorted(classes)), key.d


# -- evaluation --------------------------------------------------------------------

_REDUCTIONS = 0


def reduction_count() -> int:
    return _REDUCTIONS


def _exact_sum(terms) -> Fraction:
    """Sum of (numerator, denominator) int pairs as one ``Fraction``.

    The terms add over a running lcm denominator; the sum is normalized
    once, by the ``Fraction`` it returns.
    """
    num, den = 0, 1
    for n, d in terms:
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    return Fraction(num, den)


def _combination_terms(terms: list[Term]):
    """Each nonzero term as its product's int (numerator, denominator); a
    product stops at its first zero factor."""
    for keys, coeff in terms:
        num, den = coeff.numerator, coeff.denominator
        for k in keys:
            value = evaluate(k)
            if not value:
                break
            num *= value.numerator
            den *= value.denominator
        else:
            yield num, den


def evaluate_combination(terms: list[Term]) -> Fraction:
    """The sum of a move's terms, as one ``Fraction``."""
    return _exact_sum(_combination_terms(terms))


def _comparison_backwards(key: CorrelatorKey) -> list[Term]:
    """Trade the deepest kappa class of level b >= 0 for a tau_{b+1} point.

    The comparison relation on the key plus tau_{b+1}(e_nu0), read
    backwards: its p2 = empty term is the key itself, so the key is the
    augmented key minus the terms where kappa classes merged with the
    forgotten point.
    """
    b, nu0 = key.p.entries[-1][0]
    p_hat = key.p.remove(b, nu0)
    augmented = _valid_key(key.target, key.m.add(b + 1, nu0), p_hat, key.d)
    terms = _comparison_terms(key.target, key.m, p_hat, b, nu0, key.d)
    return [((augmented,), 1)] + [((sub,), -c) for p2, sub, c in terms if p2.entries]


def _divisor_backwards(key: CorrelatorKey) -> list[Term]:
    """Solve the divisor equation of a divisor class D for the key.

    <tau_0(D) X>_d = (D . d) <X>_d + sum_i <X with tau_{a_i}(e_i) replaced
    by tau_{a_i - 1}(e_i . D)>_d, the sum running over the points with
    a_i >= 1; needs d >= 1 and a divisor pairing nontrivially with d.
    """
    alpha_div, pairing = key.target.divisor_class(key.d)
    inverse = ONE / pairing  # a Fraction division, whatever type pairing has
    augmented = _valid_key(key.target, key.m.add(0, alpha_div), key.p, key.d)
    terms = _cup_at_points(key, key.m, key.p, alpha_div, 1)
    return [((augmented,), inverse)] + [(keys, -c * inverse) for keys, c in terms]


@cache
def evaluate(key: CorrelatorKey) -> Fraction:
    """Exact correlator value; the first branch that applies reduces the key.

    1. psi on >= 3 points: the psi recursion (``apply_trr_psi``);
    2. kappa of level >= 0, no psi, >= 2 points: the kappa recursion
       (``apply_trr_kappa``);
    3. any other kappa of level >= 0: the comparison relation read
       backwards, a tau_{b+1} point for the kappa_b class;
    4. psi on < 3 points: the divisor equation read backwards, which adds
       a point;
    5. otherwise tau levels are 0 and kappa levels -1: the lift to
       ``pure_gw`` (``lift_kappa_minus_one``).
    """
    global _REDUCTIONS
    if not selection(key):
        return ZERO
    psi = key.m.max_level >= 1
    kappa = key.p.max_level >= 0
    if psi and key.n >= 3:
        # entries sort by level, so the deepest psi and kappa classes come last
        points = key.m.expand()
        terms = apply_trr_psi(key, points[-1], points[:2])
    elif kappa and not psi and key.n >= 2:
        terms = apply_trr_kappa(key, key.p.entries[-1][0])
    elif kappa:
        terms = _comparison_backwards(key)
    elif psi:
        terms = _divisor_backwards(key)
    else:
        classes, d = lift_kappa_minus_one(key)
        return pure_gw(key.target, classes, d)
    _REDUCTIONS += 1
    return evaluate_combination(terms)


# the benchmark's cross-check route calls this name
evaluate_kappa_first = evaluate

# bound at import, so clearing still works if the module names are rebound
_CACHE_CLEARS = (evaluate.cache_clear, _pure_gw.cache_clear)


def clear_caches():
    """Empty the memos of ``evaluate`` and ``pure_gw``."""
    for cache_clear in _CACHE_CLEARS:
        cache_clear()


# -- pairing boundary presentations with insertions -----------------------------------


def evaluate_tree_sum(
    target: TargetModel,
    tree_sum: TreeSum,
    ambient: dict[int, Entry],
) -> Fraction:
    """Integrate a decorated tree sum against tau insertions at the tails.

    ``ambient`` maps each tail label to its (psi level, class) insertion;
    its labels must equal each tree's tail labels, since an insertion that
    no tail carries would be dropped silently.  When the sum knows its
    point count n (a boundary presentation does), the labels must be
    1..n, which is checked before any tree is read, so an empty sum is
    checked too.
    Edges contribute the inverse Poincare pairing with level-0 insertions
    on both sides; vertex tokens contribute kappa insertions, psi powers
    at their tail, or cup products with the tail's class.  Each tree's
    contribution carries its 1/|Aut| normalization.
    """
    n = tree_sum.n
    if n is not None and set(ambient) != set(range(1, n + 1)):
        raise ValueError(
            f"ambient labels {sorted(ambient)} differ from the tail labels 1..{n}"
        )
    return _exact_sum(_tree_sum_terms(target, tree_sum, ambient))


def _tree_sum_terms(target: TargetModel, tree_sum: TreeSum, ambient: dict[int, Entry]):
    """Each nonzero term of the tree sum as int (numerator, denominator),
    scaled by its tree's coefficient and 1/|Aut|."""
    for tree, coeff in tree_sum.items():
        scale_num, scale_den = coeff.numerator, coeff.denominator * aut_order(tree)
        for num, den in _decorated_tree_terms(target, tree, ambient):
            yield scale_num * num, scale_den * den


def _decorated_tree_terms(
    target: TargetModel, tree: DecoratedTree, ambient: dict[int, Entry]
):
    """Each nonzero term of one tree's integral as int (numerator, denominator)."""
    if set(ambient) != set(tree.labels):
        raise ValueError(
            f"ambient labels {sorted(ambient)} differ from the tail labels "
            f"{sorted(tree.labels)}"
        )

    # per-tail tau entries, shifted by psi tokens, cupped by ev tokens
    tail_choices: dict[int, list[tuple[Entry, Rational]]] = {}
    for label in tree.labels:
        a, alpha = ambient[label]
        tail_choices[label] = [((a, alpha), 1)]
    kappa_at: dict[int, list[Entry]] = {v: [] for v in range(tree.n_vertices)}
    for v, tok in tree.decorations:
        if tok.kind == "kappa":
            kappa_at[v].append(tok.data)
        elif tok.kind == "psi":
            label, power = tok.data
            tail_choices[label] = [
                ((a + power, alpha), c) for (a, alpha), c in tail_choices[label]
            ]
        elif tok.kind == "ev":
            label, extra = tok.data
            expanded = []
            for (a, alpha), c in tail_choices[label]:
                for nu, c_nu in target.cup_product(alpha, extra).items():
                    expanded.append(((a, nu), c * c_nu))
            tail_choices[label] = expanded
        else:
            raise ValueError(f"cannot integrate token kind {tok.kind!r}")

    labels = list(tree.labels)
    edge_pairs = target.eta_inverse_pairs()
    for tail_pick in product(*(tail_choices[lab] for lab in labels)):
        tail_coeff = 1
        tau_at: dict[int, list[Entry]] = {v: [] for v in range(tree.n_vertices)}
        for lab, (entry, c) in zip(labels, tail_pick):
            tail_coeff *= c
            tau_at[tree.tail_vertex(lab)].append(entry)
        if tail_coeff == 0:
            continue
        for edge_pick in product(edge_pairs, repeat=len(tree.edges)):
            coeff = tail_coeff
            extra: dict[int, list[Entry]] = {
                v: [] for v in range(tree.n_vertices)
            }
            for (u, v), (s1, s2, w) in zip(tree.edges, edge_pick):
                coeff *= w
                extra[u].append((0, s1))
                extra[v].append((0, s2))
            num, den = coeff.numerator, coeff.denominator
            for v in range(tree.n_vertices):
                m = MultiIndex(tuple((e, 1) for e in tau_at[v] + extra[v]))
                p = MultiIndex(tuple((e, 1) for e in kappa_at[v]))
                value = evaluate(CorrelatorKey(target, m, p, tree.betas[v]))
                if not value:
                    break
                num *= value.numerator
                den *= value.denominator
            else:
                yield num, den
