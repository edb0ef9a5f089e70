"""Correlators of psi- and kappa-twisted genus-0 invariants.

A correlator key holds a tau multi-index m (psi levels a >= 0), a kappa
multi-index p (levels a >= -1) and a curve degree d.  Values are exact
rationals.  ``evaluate`` is the one evaluator, memoized; its docstring
gives the one order in which it applies the relations: the psi and kappa
recursions (``apply_trr_psi``, ``apply_trr_kappa``, which share one
boundary-split loop emitting only dimension-balanced terms); the
comparison relation along the forgetful map, read forward to forget a
tau_0(e_0) point of a psi-free key (``apply_puncture_dilaton``, the string
equation for kappa classes) and backwards to trade a kappa class for a
point; the divisor equation read backwards; the lift of kappa_{-1}
classes to extra marked points (``lift_kappa_minus_one``); and the pure
step, which reconstructs the pure invariants (level-0 points, no kappa) by
the unit and divisor axioms and WDVV, itself a boundary split on the space
with one point more (``gw.pure_gw`` reads them through ``evaluate``, so
one memo holds every key).  Before all of them it reads kappa_{-1} of a
divisor and of a class of grading 0, and kappa_0(e_0), as numbers:
kappa_a(g) is pi_*(psi^{a+1} ev^* g) along the map forgetting a point,
whose fibre is the curve, so kappa_{-1}(g) is (int_d g) times 1 for a
divisor (the divisor axiom of Kontsevich-Manin) and 0 for a class of
grading 0 (it would land in degree -2), and kappa_0(e_0) is the degree of
psi on the fibre, 2g - 2 + n = n - 2 for a key with n points
(Arbarello-Cornalba).
The forward comparison relation at a psi pivot is not on that path; the
verify suites check it against ``evaluate``, and ``gwtaut.oracle`` checks
``evaluate`` with code it does not share, apart from the pure invariants
(``pure_gw``).

Each move returns a plain list of (keys, coefficient) terms, unmerged.  A
split term puts its lower-degree factor first, since
``evaluate_combination`` stops a product at its first zero factor and the
lower-degree factor is the cheaper one.

Keys are tuples, so the memo hashes and compares them in C: a
``MultiIndex`` is the sorted tuple of its (level, alpha) entries, each
repeated by its multiplicity, and a ``CorrelatorKey`` the tuple (target, m,
p, d).  So a key equals the plain tuple of its fields, an empty
``MultiIndex`` is falsy, a merge is one sort, an entry's multiplicity is
``count`` and one copy is added or cut at one ``bisect``.  Only a few
readers need the multiplicities of all entries, through
``MultiIndex.counts()``.  Checks run only in the public constructors,
each in its ``__post_init__``, and in ``MultiIndex.from_list`` (so
``make_key``): ``MultiIndex(...)`` checks each entry's types and sorts the
entries, ``from_list``, the one place that takes multiplicities, checks
each is an int >= 0, and ``CorrelatorKey(...)`` checks the parts' types
and the ranges.  The moves and the tree integrals derive keys through
``_normal_index(entries)`` and ``_valid_key((target, m, p, d))``, which
are ``functools.partial`` objects over ``tuple.__new__``: they build a key
in C, with no Python frame, and check nothing.  That is sound because the
``MultiIndex`` operations keep the entries sorted, each move shifts levels
only within their ranges (tau >= 0, kappa >= -1), and ``evaluate_tree_sum``
checks the ambient insertions once per sum and ``_tree_layout`` what each
tree adds to them, once per (target, tree).  The selection rule is ``TargetModel.balanced``.

Besides ``evaluate``'s memo, which holds the pure invariants too, four
private ``functools.cache`` memos hold what the moves and the tree
integrals read, each keyed only by what it depends on: ``_split_table``
per ``MultiIndex`` (the rows (sub, complement, binomial, sub's size)),
``_index_degree`` per (gradings, index) (the integrand degree),
``_comparison_table`` per (target, kappa index) (the comparison relation's
split rows with their cup vectors), and ``_tree_layout`` per (target,
tree) (the checked tree's tails, vertices and leaf-to-root edges).
``clear_caches()`` empties them with the boundary presentations' memos in
``trees``.

Coefficients stay ``int``s until they are divided (a ``Fraction`` enters
only through the divisor equation's 1/pairing or non-integral custom-target
data), and ``evaluate_combination`` and ``evaluate_tree_sum`` build one
``Fraction`` per sum.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache, partial
from itertools import groupby, product
from math import comb, gcd
from operator import itemgetter

from .target import Rational, TargetModel, check_degree
from .trees import DecoratedTree, TreeSum, _kappa_presentation, _psi_presentation, aut_order

ZERO = Fraction(0)
ONE = Fraction(1)

Entry = tuple[int, int]  # (level a, basis index alpha)


class MultiIndex(tuple):
    """Finitely supported multiplicity function on (level, basis index).

    The sorted tuple of its (level, alpha) entries, each repeated by its
    multiplicity, so by level first: the index is its own expansion, and
    ``len`` and ``count`` give its size and an entry's multiplicity.  The
    public constructor takes the entries in any order, checks each one's
    types (an int level and an int basis index, ``bool`` excluded, since
    ``True == 1`` would sort (0, True) in among the (0, 1) copies) and
    sorts them; ``from_list`` reads (level, alpha, mult) triples instead.
    ``add`` and ``remove`` check their entry the same way.  The ranges of
    levels and basis indices are the key's to check (``CorrelatorKey``).
    ``add``, ``remove``, ``merge`` and the split table keep the sorted form
    and skip the constructor.  The repr is the constructor call on the entries, which
    ``eval`` reads back.  Pickle and ``copy`` call the constructor on what
    the tuple's own ``__getnewargs__`` returns, the entries, so the class
    needs none of its own.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[Entry, ...] = ()) -> "MultiIndex":
        return tuple.__new__(cls, cls.__post_init__(entries))

    @staticmethod
    def __post_init__(entries) -> tuple[Entry, ...]:
        """Check ``entries`` and return them sorted."""
        entries = tuple(entries)
        for a, alpha in entries:
            if type(a) is not int or type(alpha) is not int:
                raise ValueError(f"level and basis index must be ints, got {(a, alpha)!r}")
        return tuple(sorted(entries))

    def __repr__(self) -> str:
        return f"MultiIndex({tuple(self)!r})"

    @classmethod
    def from_list(cls, items) -> "MultiIndex":
        """The index of (level, alpha, mult) triples; repeated triples add up.

        The one place that takes a multiplicity, so the one check that each
        is an int >= 0 (``bool`` excluded); a triple of multiplicity 0 adds
        no entry."""
        entries = []
        for a, alpha, mult in items:
            if type(mult) is not int or mult < 0:
                raise ValueError(f"multiplicity must be an int >= 0, got {mult!r}")
            entries += [(a, alpha)] * mult
        return cls(entries)

    def counts(self) -> tuple[tuple[Entry, int], ...]:
        """The ((level, alpha), mult) pairs, sorted."""
        return tuple((key, len(tuple(run))) for key, run in groupby(self))

    @property
    def max_level(self) -> int:
        # entries sort by level, so the deepest one comes last
        return self[-1][0] if self else -10

    def add(self, a: int, alpha: int) -> "MultiIndex":
        if type(a) is not int or type(alpha) is not int:
            raise ValueError(f"level and basis index must be ints, got {(a, alpha)!r}")
        i = bisect_left(self, (a, alpha))
        return _normal_index(self[:i] + ((a, alpha),) + self[i:])

    def remove(self, a: int, alpha: int) -> "MultiIndex":
        if type(a) is not int or type(alpha) is not int:
            raise ValueError(f"level and basis index must be ints, got {(a, alpha)!r}")
        i = bisect_left(self, (a, alpha))
        if self[i : i + 1] != ((a, alpha),):
            raise ValueError(f"entry ({a},{alpha}) not present")
        return _normal_index(self[:i] + self[i + 1 :])

    def merge(self, other: "MultiIndex") -> "MultiIndex":
        if not other:
            return self
        if not self:
            return other
        return _normal_index(sorted(self + other))


# a ``MultiIndex`` on entries already sorted, built in C; nothing is checked
_normal_index = partial(tuple.__new__, MultiIndex)


@cache
def _split_table(
    idx: MultiIndex,
) -> tuple[tuple[MultiIndex, MultiIndex, int, int], ...]:
    """The rows (sub, complement, int binomial, sub's size) over all
    sub-multi-indices of ``idx``, built once per index."""
    pairs = idx.counts()
    rows = []
    for counts in product(*(range(m + 1) for _, m in pairs)):
        sub, rest, mult = [], [], 1
        for (key, m), c in zip(pairs, counts):
            sub += [key] * c
            rest += [key] * (m - c)
            mult *= comb(m, c)
        rows.append((_normal_index(sub), _normal_index(rest), mult, len(sub)))
    return tuple(rows)


def _check_entries(target: TargetModel, entries, lowest: int, kind: str) -> None:
    """Each (level, alpha) needs an int level >= ``lowest`` and an int basis
    index of ``target``."""
    rank = target.rank
    for a, alpha in entries:
        if type(a) is not int or a < lowest:
            raise ValueError(f"{kind} indices need levels a >= {lowest}")
        if type(alpha) is not int or not 0 <= alpha < rank:
            raise ValueError(f"basis index {alpha} out of range")


class CorrelatorKey(tuple):
    """Correlator <tau_m kappa_p>_d as the tuple (target, m, p, d).

    The public constructor validates it (a ``TargetModel``; m and p
    ``MultiIndex`` instances, so a plain tuple of entries is refused, though
    it hashes and compares alike; int d >= 0; int levels, tau >= 0 and kappa
    >= -1; basis indices in range)."""

    __slots__ = ()

    target = property(itemgetter(0))
    m = property(itemgetter(1))
    p = property(itemgetter(2))
    d = property(itemgetter(3))

    def __new__(
        cls, target: TargetModel, m: MultiIndex, p: MultiIndex, d: int
    ) -> "CorrelatorKey":
        key = tuple.__new__(cls, (target, m, p, d))
        key.__post_init__()
        return key

    def __post_init__(self) -> None:
        if not all(map(isinstance, self[:3], (TargetModel, MultiIndex, MultiIndex))):
            raise ValueError("a key needs a TargetModel, then m and p as MultiIndex instances")
        check_degree(self.d)
        _check_entries(self.target, self.m, 0, "tau")
        _check_entries(self.target, self.p, -1, "kappa")

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        target, m, p, d = self
        return f"CorrelatorKey(target={target.name!r}, m={m!r}, p={p!r}, d={d!r})"

    @property
    def n(self) -> int:
        return len(self.m)


# a ``CorrelatorKey`` on a (target, m, p, d) tuple whose parts are already
# known valid, built in C; nothing is checked
_valid_key = partial(tuple.__new__, CorrelatorKey)


def make_key(target: TargetModel, tau=(), kappa=(), d: int = 0) -> CorrelatorKey:
    """Key from (a, alpha, mult) triples."""
    return CorrelatorKey(
        target, MultiIndex.from_list(tau), MultiIndex.from_list(kappa), d
    )


# a product of correlator values times a coefficient
Term = tuple[tuple[CorrelatorKey, ...], Rational]


# -- dimension bookkeeping -------------------------------------------------------


@cache
def _index_degree(gradings: tuple[int, ...], idx: MultiIndex) -> int:
    return sum(2 * a + gradings[alpha] for a, alpha in idx)


def degree_sum(key: CorrelatorKey) -> int:
    gradings = key.target.gradings
    return _index_degree(gradings, key.m) + _index_degree(gradings, key.p)


def expected_dimension(key: CorrelatorKey) -> int:
    return key.target.moduli_dimension(key.n, key.d)


def selection(key: CorrelatorKey) -> bool:
    """True when the integrand degree matches twice the moduli dimension."""
    return key.target.balanced(degree_sum(key), key.n, key.d)


# -- the four reduction moves ------------------------------------------------------


@cache
def _comparison_table(target: TargetModel, p: MultiIndex):
    """The rows (p2, rest, binomial, p2's level sum, cup vector of 1 . (p2's
    classes)) of the comparison relation's kappa split of p, built once per
    (target, p): p2 runs over the sub-multisets of the level >= 0 kappa
    classes of p, and rest is their complement merged with p's kappa_{-1}
    part.  The cup vectors are read-only."""
    split = bisect_left(p, (0,))  # (0,) sorts after every kappa_{-1} entry
    neg = _normal_index(p[:split])
    rows = []
    for p2, rest, binm, _ in _split_table(_normal_index(p[split:])):
        vec = {0: 1}
        for _, beta in p2:
            vec = target.cup_vector(vec, beta)
        rows.append((p2, rest.merge(neg), binm, sum(a for a, _ in p2), vec))
    return tuple(rows)


def _comparison_terms(
    target: TargetModel, m: MultiIndex, p: MultiIndex, level: int, alpha: int, d: int,
    first: int = 0,
):
    """The comparison relation's kappa split, for both of its directions.

    Yields (key, coefficient) for each sub-multiset p2 of the level >= 0
    kappa classes of p: the key carries m, the rest of p and a kappa class
    of level (p2's level sum) + ``level`` on 1 . (p2's classes) . e_alpha; the
    unit e_0 leaves the class as it is, so no cup is taken at alpha = 0.
    ``first=1`` skips p2 = empty, the table's first row."""
    for _, rest, binm, weight, vec in _comparison_table(target, p)[first:]:
        for nu, c_nu in (vec if alpha == 0 else target.cup_vector(vec, alpha)).items():
            yield _valid_key((target, m, rest.add(weight + level, nu), d)), binm * c_nu


def _cup_at_points(
    key: CorrelatorKey, points: MultiIndex, p: MultiIndex, g: int, drop: int
):
    """Yield the terms that replace one point tau_a(e_alpha) of ``points``
    (part of key.m), a >= drop, by tau_{a-drop}(e_alpha . e_g); the keys
    carry the kappa classes p."""
    for (a, alpha), mult in points.counts():
        if a < drop:
            continue
        for nu, c_nu in key.target.cup_product(alpha, g).items():
            shifted = key.m.remove(a, alpha).add(a - drop, nu)
            yield (_valid_key((key.target, shifted, p, key.d)),), mult * c_nu


def apply_puncture_dilaton(key: CorrelatorKey, pivot: Entry) -> list[Term]:
    """Trade the pivot tau insertion for kappa insertions downstairs.

    Valid for pivot level a >= 1, or a = 0 when every other tau insertion
    has level 0; never on a three-point degree-0 key.  Returns the list of
    the relation's one-factor terms.  ``evaluate`` applies it at a tau_0(e_0)
    pivot of a psi-free key with kappa classes of level >= 0.  At a level-0
    pivot whose class has grading 0 the p2 = empty term would carry kappa_{-1}
    of a grading-0 class, which is 0 (it pushes forward to degree -2), so
    that term is not emitted.
    """
    a, alpha = pivot
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
    first = int(a == 0 and key.target.gradings[alpha] == 0)
    terms = _comparison_terms(key.target, m0, key.p, a - 1, alpha, key.d, first)
    return [((sub,), coeff) for sub, coeff in terms]


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
    Only dimension-balanced terms are emitted, and the split solves for
    them rather than scanning: once the m-split, the p-split and b1 are
    fixed, the left factor (point count n1, integrand degree deg1) is
    balanced only for node classes s1 of grading
    2(dim + n1 - 3 + b1 c1) - deg1, so only the eta^{-1} pairs of that
    grading are read.

    The split's point count n is read from its insertions, len(m0) +
    len(left_tau) + len(right_tau): the key's point count for the psi and
    kappa recursions, and one more for WDVV (``_pure_step``), which splits
    the key's e_s point into e_1 and e_{s-1} on the (n+1)-pointed space.
    The right factor then balances by itself, for a key that passes the
    selection rule (else there are no terms): n1 + n2 = n + 2, the node
    adds |e_s1| + |e_s2| = 2 dim (the pairing is graded), so both factors
    balance once the insertions' degree is twice the dimension of a
    boundary divisor of the n-pointed space, 2(dim + n - 4 + d c1).  The
    recursions' fixed insertions take 2 off the key's degree at the key's
    point count; WDVV's keep it (e_1 e_{s-1} = e_s is graded) at one point
    more.  Every term it skips has a factor that vanishes outright.  The
    factor of lower degree comes first.
    """
    if not selection(key):
        return []
    target, d = key.target, key.d
    g = target.gradings
    pairs_of_grading = target.eta_inverse_pairs_by_grading()
    dim, c1 = target.dim_complex, target.c1_degree
    left_m, left_p, right_m = (
        _normal_index(sorted(side)) for side in (left_tau, left_kappa, right_tau)
    )
    left_deg = _index_degree(g, left_m) + _index_degree(g, left_p)
    p_sides = [
        (p1.merge(left_p), p2, pbin, _index_degree(g, p1))
        for p1, p2, pbin, _ in _split_table(p0)
    ]
    n = len(m0) + len(left_tau) + len(right_tau)
    terms = []
    for m1, m2, mbin, size1 in _split_table(m0):
        left, right = m1.merge(left_m), m2.merge(right_m)
        n1 = size1 + len(left_tau) + 1
        n2 = n + 2 - n1  # the node adds a point to each side
        lefts: dict[int, MultiIndex] = {}  # node class -> left.add(0, s1)
        rights: dict[int, MultiIndex] = {}
        dm1 = _index_degree(g, m1)
        # a factor is stable only for a positive degree or >= 3 points
        b1_range = range(0 if n1 >= 3 else 1, d + 1 if n2 >= 3 else d)
        for p1, p2, pbin, dp1 in p_sides:
            deg1 = left_deg + dm1 + dp1
            for b1 in b1_range:
                node_pairs = pairs_of_grading.get(2 * (dim + n1 - 3 + b1 * c1) - deg1)
                if node_pairs is None:
                    continue
                b2 = d - b1
                for s1, s2, w in node_pairs:
                    if s1 not in lefts:
                        lefts[s1] = left.add(0, s1)
                    if s2 not in rights:
                        rights[s2] = right.add(0, s2)
                    k1 = _valid_key((target, lefts[s1], p1, b1))
                    k2 = _valid_key((target, rights[s2], p2, b2))
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
    if a1 < 0:
        raise ValueError("kappa_{-1} classes are lifted, not recursed")
    p0 = key.p.remove(a1, alpha1)
    if copivots is None:
        if key.n < 2:
            raise ValueError("the kappa recursion needs two tau co-pivots")
        copivots = key.m[:2]
    m0 = key.m
    for a, alpha in copivots:
        m0 = m0.remove(a, alpha)
    terms = _boundary_split(key, m0, p0, [], [(a1 - 1, alpha1)], copivots)
    if a1 == 0:
        # e_alpha -> e_alpha . e_alpha1 at one point other than the co-pivots
        terms += _cup_at_points(key, m0, p0, alpha1, 0)
    return terms


def lift_kappa_minus_one(key: CorrelatorKey) -> CorrelatorKey:
    """Convert kappa_{-1} insertions into extra evaluation points.

    Only valid once every tau level is 0 and every kappa level is -1;
    returns the pure Gromov-Witten key of the same degree, with a level-0
    point for each point and each kappa_{-1} class of ``key`` and no kappa
    class.  From ``evaluate`` it sees only kappa_{-1} classes of grading >= 4
    or of divisors without a configured pairing: the others are numbers,
    read before the branches.
    """
    if key.m.max_level >= 1:
        raise ValueError("psi powers remain; the lift needs plain insertions")
    if key.p.max_level >= 0:
        raise ValueError("kappa levels >= 0 remain; reduce them first")
    # kappa_{-1} entries sort by class, so at level 0 they stay sorted
    points = _normal_index(tuple((0, alpha) for _, alpha in key.p))
    return _valid_key((key.target, key.m.merge(points), _normal_index(()), key.d))


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


def _combination_terms(terms):
    """Each nonzero term as its product's int (numerator, denominator); a
    product stops at its first zero factor.  A term's keys may be any
    iterable, so a lazy one builds no key after that factor."""
    for keys, coeff in terms:
        num, den = coeff.numerator, coeff.denominator
        for k in keys:
            n, d = evaluate(k).as_integer_ratio()
            if not n:
                break
            num *= n
            den *= d
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
    b, nu0 = key.p[-1]
    p_hat = key.p.remove(b, nu0)
    augmented = _valid_key((key.target, key.m.add(b + 1, nu0), p_hat, key.d))
    terms = _comparison_terms(key.target, key.m, p_hat, b, nu0, key.d, 1)
    return [((augmented,), 1)] + [((sub,), -c) for sub, c in terms]


def _divisor_backwards(key: CorrelatorKey) -> list[Term]:
    """Solve the divisor equation of a divisor class D for the key.

    <tau_0(D) X>_d = (D . d) <X>_d + sum_i <X with tau_{a_i}(e_i) replaced
    by tau_{a_i - 1}(e_i . D)>_d, the sum running over the points with
    a_i >= 1; needs d >= 1, a divisor pairing nontrivially with d and no
    kappa class of level >= 0.
    """
    if key.p.max_level >= 0:
        raise ValueError(
            "the divisor equation does not pull back kappa classes of level "
            ">= 0; reduce them first"
        )
    alpha_div, pairing = key.target.divisor_class(key.d)
    inverse = ONE / pairing  # a Fraction division, whatever type pairing has
    augmented = _valid_key((key.target, key.m.add(0, alpha_div), key.p, key.d))
    terms = _cup_at_points(key, key.m, key.p, alpha_div, 1)
    return [((augmented,), inverse)] + [(keys, -c * inverse) for keys, c in terms]


@cache
def evaluate(key: CorrelatorKey) -> Fraction:
    """Exact correlator value; the first branch that applies reduces the key.

    After the selection rule, one step reads the kappa classes that are
    numbers, drops their entries and scales the rest of the key by each
    number once per entry: each kappa_{-1}(D) of a divisor with a configured
    pairing c (``TargetModel.kappa_minus_one_per_unit``) is c * d, the
    divisor axiom on the fibre of the forgetful map; a kappa_{-1} class of
    grading 0 pushes forward to degree -2, so it is 0; and kappa_0(e_0) =
    pi_*(psi_{n+1}) is the degree of psi_{n+1} on that fibre, n - 2 for a
    key with n points (so 0 at two points).  A key that is left with kappa_{-1} classes of
    grading >= 4, or of divisors without a pairing, goes on to the branches:

    1. psi on >= 3 points: the psi recursion (``apply_trr_psi``);
    2. kappa of level >= 0, no psi and a tau_0(e_0) point, unless the key
       has degree 0 and three points (the forgotten space would not
       exist): the comparison relation forgetting that point
       (``apply_puncture_dilaton``), the string equation for kappa classes.
       Its terms have one factor and no boundary split, where the kappa
       recursion splits the key and most of its terms vanish;
    3. kappa of level >= 0, no psi, >= 2 points: the kappa recursion
       (``apply_trr_kappa``);
    4. any other kappa of level >= 0: the comparison relation read
       backwards, a tau_{b+1} point for the kappa_b class;
    5. psi on < 3 points: the divisor equation read backwards, which adds
       a point;
    6. otherwise tau levels are 0 and kappa levels -1.  A key with kappa_{-1}
       classes is evaluated as the pure key ``lift_kappa_minus_one``
       returns, which carries a level-0 point for each class.  A key of
       level-0 points alone is a pure Gromov-Witten invariant, which the
       pure step (``_pure_step``) reads or reconstructs: the triple integral
       in degree 0, the unit and divisor axioms, the seeds, else WDVV
       through ``_boundary_split``.  Neither counts a reduction.
    """
    global _REDUCTIONS
    target, m, p, d = key
    g, n = target.gradings, len(m)
    if not target.balanced(_index_degree(g, m) + _index_degree(g, p), n, d):
        return ZERO
    if p and p[0] <= (0, 0):  # kappa_{-1} entries sort first, then kappa_0(e_0)
        per_unit = target.kappa_minus_one_per_unit()
        scale, kept = 1, []
        for entry in p:
            a, alpha = entry
            if a < 0 and alpha in per_unit:
                scale *= per_unit[alpha] * d
            elif a == 0 and alpha == 0:
                scale *= n - 2
            else:
                kept.append(entry)
        if len(kept) < len(p):
            _REDUCTIONS += 1
            if not scale:
                return ZERO
            return scale * evaluate(_valid_key((target, m, _normal_index(kept), d)))
    psi = m.max_level >= 1
    kappa = p.max_level >= 0
    if psi and n >= 3:
        # entries sort by level, so the deepest psi and kappa classes come last
        terms = apply_trr_psi(key, m[-1], m[:2])
    # tau entries sort by level, then class, so a tau_0(e_0) point comes first
    elif kappa and not psi and m and m[0] == (0, 0) and (d or n > 3):
        terms = apply_puncture_dilaton(key, (0, 0))
    elif kappa and not psi and n >= 2:
        terms = apply_trr_kappa(key, p[-1])
    elif kappa:
        terms = _comparison_backwards(key)
    elif psi:
        terms = _divisor_backwards(key)
    elif p:
        return evaluate(lift_kappa_minus_one(key))
    else:
        return _pure_step(key)
    _REDUCTIONS += 1
    return evaluate_combination(terms)


def _pure_step(key: CorrelatorKey) -> Fraction:
    """The pure invariant of a balanced key of level-0 points and no kappa
    class, by Kontsevich-Manin reconstruction (see ``evaluate``, branch 6).

    WDVV is read on the (n+1)-pointed space, with s and E the two smallest
    classes of the key and M its largest (all of grading >= 4 once the unit
    and divisor axioms have run): the split (e_{s-1} e_M | e_1 e_E) minus
    the split (e_1 e_{s-1} | e_M e_E), the other classes spectating.  Since
    e_1 e_{s-1} = e_s, the second split holds the key itself once, as the
    right factor of its degree-0 term with no spectators on the left, whose
    left factor and eta^{-1} weight multiply to 1; that term is dropped and
    the rest solve for the key.  Every other factor is strictly smaller in
    (d, n, -sum of squared class degrees).
    """
    target, m, p, d = key
    classes = tuple(alpha for _, alpha in m)
    if d == 0:
        return target.triple_integral(*classes) if len(classes) == 3 else ZERO
    # unit and divisor axioms, all points at once: each point carrying e_alpha
    # drops with factor c * d
    per_unit = target.kappa_minus_one_per_unit()
    scale, kept = 1, []
    for alpha, entry in zip(classes, m):
        c = per_unit.get(alpha)
        if c is None:
            if target.gradings[alpha] == 2:
                raise ValueError(f"no divisor pairing configured for e_{alpha}")
            kept.append(entry)
        elif c:
            scale *= c * d
        else:
            return ZERO
    if len(kept) < len(m):
        return scale * evaluate(_valid_key((target, _normal_index(kept), p, d)))
    seed = target.seed_value(classes, d)
    if seed is not None:
        return seed
    if len(classes) < 3:
        raise ValueError(f"no reconstruction seed for <{classes}>_{d} on {target.name!r}")
    if not target.is_monogenic:
        raise ValueError(
            f"WDVV reconstruction needs a hyperplane-generated ring; "
            f"{target.name!r} must provide seeds instead"
        )
    s, e, top = classes[0], classes[1], classes[-1]
    spect = m.remove(0, s).remove(0, e).remove(0, top)
    terms = _boundary_split(key, spect, p, [(0, s - 1), (0, top)], [], ((0, 1), (0, e)))
    subtracted = _boundary_split(key, spect, p, [(0, 1), (0, s - 1)], [], ((0, top), (0, e)))
    terms += [(pair, -c) for pair, c in subtracted if key not in pair]
    return evaluate_combination(terms)


# the benchmark's cross-check route calls this name
evaluate_kappa_first = evaluate

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
    1..n.  That and the ambient entries are checked once per sum, before
    any tree is read, so an empty sum is checked too.
    Edges contribute the inverse Poincare pairing with level-0 insertions
    on both sides; vertex tokens contribute kappa insertions, psi powers
    at their tail, or cup products with the tail's class.  Each tree's
    contribution carries its 1/|Aut| normalization.  Its tokens are checked
    once per (target, tree), with its layout (``_tree_layout``), and its
    node classes are solved leaf to root on ints, so a term with an
    unbalanced vertex builds no key and leaves no entry in the memo.
    """
    n = tree_sum.n
    if n is not None and set(ambient) != set(range(1, n + 1)):
        raise ValueError(
            f"ambient labels {sorted(ambient)} differ from the tail labels 1..{n}"
        )
    # before an ev token reads the cup table at an ambient class
    _check_entries(target, ambient.values(), 0, "tau")
    return _exact_sum(_tree_sum_terms(target, tree_sum, ambient))


def _tree_sum_terms(target: TargetModel, tree_sum: TreeSum, ambient: dict[int, Entry]):
    """Each nonzero term of the tree sum as int (numerator, denominator),
    scaled by its tree's coefficient and 1/|Aut|; each tree's products run
    through ``_combination_terms``."""
    for tree, coeff in tree_sum.items():
        scale_num, scale_den = coeff.numerator, coeff.denominator * aut_order(tree)
        for num, den in _combination_terms(_decorated_tree_terms(target, tree, ambient)):
            yield scale_num * num, scale_den * den


@cache
def _tree_layout(target: TargetModel, tree: DecoratedTree):
    """What one tree's integral reads, built once per (target, tree) after
    every tree check: each psi or ev token must sit at a tail, a psi power
    be an int >= 0 and an ev class an int basis index (``bool`` excluded),
    and each kappa token be a valid kappa entry.  Returns, read-only: each
    tail label's [vertex, summed psi power, ev classes]; each vertex's
    (curve degree, kappa index); each vertex's degree before the ambient
    classes (its kappa index's, plus twice the psi powers and the ev
    classes' gradings of its tails: the cup product is graded); each
    vertex's balanced degree 2(dim + valence - 3 + beta c1); and the edges
    as (child, parent) from the leaves to vertex 0, as the tree's
    connectivity check in ``DecoratedTree.__post_init__`` stored them.
    Keying trees up to isomorphism is sound: renumbering the vertices leaves
    the integral as it is, and eta^{-1} is symmetric."""
    tails = {label: [v, 0, []] for label, v in tree.tails}
    kappa_at: list[list[Entry]] = [[] for _ in tree.betas]
    for v, tok in tree.decorations:
        if tok.kind == "kappa":
            kappa_at[v].append(tok.data)
            continue
        if tok.kind not in ("psi", "ev"):
            raise ValueError(f"cannot integrate token kind {tok.kind!r}")
        label, value = tok.data
        if label not in tails:
            raise ValueError(f"{tok.kind} token at tail {label!r}, which the tree lacks")
        if tok.kind == "psi":
            if type(value) is not int or value < 0:
                raise ValueError(f"psi token power {value!r} must be an int >= 0")
            tails[label][1] += value
        else:
            if type(value) is not int or not 0 <= value < target.rank:
                raise ValueError(f"ev token class {value!r} is not a basis index")
            tails[label][2].append(value)
    g = target.gradings
    vertices, degrees = [], []
    for beta, entries in zip(tree.betas, kappa_at):
        _check_entries(target, entries, -1, "kappa")
        idx = _normal_index(sorted(entries))
        vertices.append((beta, idx))
        degrees.append(_index_degree(g, idx))
    for v, power, evs in tails.values():
        degrees[v] += 2 * power + sum(g[beta] for beta in evs)
    balanced = tuple(
        2 * target.moduli_dimension(tree.valence(v), beta) for v, beta in enumerate(tree.betas)
    )
    return tails, tuple(vertices), tuple(degrees), balanced, tree._edges_to_root


def _decorated_tree_terms(
    target: TargetModel, tree: DecoratedTree, ambient: dict[int, Entry]
):
    """Each term of one tree's integral as (vertex keys, coefficient).

    The tree is checked once per (target, tree), by ``_tree_layout``, and
    only the ambient labels per call.  The cup product is graded, so each
    vertex's degree is known from the layout and the ambient gradings before
    any tail class is picked.  The node classes are solved from the leaves
    to vertex 0, as in ``_boundary_split``: a child vertex balances only for
    a node class of grading (its balanced degree) - (its degree), which
    gives its parent's class the grading 2 dim minus that (the pairing is
    graded).  So only those eta^{-1} pairs are read, and a tree with an
    unbalanced vertex returns before any cup vector is built.  A term picks
    one of those pairs per edge and one class of the cup vector per tail
    with ev tokens; a tail without one keeps its ambient class.  The vertex
    keys are a generator, built unchecked one at a time as
    ``_combination_terms`` reads them, so none is built after a zero factor."""
    tails, vertices, degrees, balanced, edges = _tree_layout(target, tree)
    if ambient.keys() != tails.keys():
        raise ValueError(
            f"ambient labels {sorted(ambient)} differ from the tail labels {sorted(tails)}"
        )
    gradings, top = target.gradings, 2 * target.dim_complex
    deg, tau_at, cupped = list(degrees), [[] for _ in degrees], []
    for label, (v, power, evs) in tails.items():
        a, alpha = ambient[label]
        deg[v] += 2 * a + gradings[alpha]
        if evs:
            cupped.append((v, a + power, alpha, evs))
        else:
            tau_at[v].append((a + power, alpha))
    # per edge, then per tail with ev tokens: [(coefficient, ((vertex, entry), ...)), ...]
    choices = []
    pairs_of_grading = target.eta_inverse_pairs_by_grading()
    for child, parent in edges:
        grading = balanced[child] - deg[child]
        if grading not in pairs_of_grading:
            return
        deg[parent] += top - grading
        choices.append(
            [(w, ((child, (0, s1)), (parent, (0, s2)))) for s1, s2, w in pairs_of_grading[grading]]
        )
    if deg[0] != balanced[0]:
        return
    for v, level, alpha, evs in cupped:
        vec = {alpha: 1}
        for beta in evs:
            vec = target.cup_vector(vec, beta)
        choices.append([(c, ((v, (level, nu)),)) for nu, c in vec.items()])
    for pick in product(*choices):
        coeff = 1
        at = [list(entries) for entries in tau_at]
        for c, placed in pick:
            coeff *= c
            for v, entry in placed:
                at[v].append(entry)
        keys = (
            _valid_key((target, _normal_index(sorted(entries)), kappa, beta))
            for (beta, kappa), entries in zip(vertices, at)
        )
        yield keys, coeff


# bound at import, so clearing still works if the module names are rebound
_CACHE_CLEARS = (
    evaluate.cache_clear,
    _split_table.cache_clear,
    _index_degree.cache_clear,
    _comparison_table.cache_clear,
    _tree_layout.cache_clear,
    _psi_presentation.cache_clear,
    _kappa_presentation.cache_clear,
)


def clear_caches():
    """Empty the memos of ``evaluate`` and the boundary presentations, and
    the split table (per ``MultiIndex``), the index
    degree (per gradings and index), the comparison table (per target and
    kappa index) and the tree layout (per target and tree)."""
    for cache_clear in _CACHE_CLEARS:
        cache_clear()
