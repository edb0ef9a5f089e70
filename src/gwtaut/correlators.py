"""Correlators of psi- and kappa-twisted genus-0 invariants.

A correlator key holds a tau multi-index m (psi levels a >= 0), a kappa
multi-index p (levels a >= -1) and a curve degree d.  Values are exact
rationals, computed by the reduction machinery:

  * the comparison relation along the forgetful map trades a tau
    insertion of level a for kappa insertions (``apply_puncture_dilaton``);
  * the topological recursion relations split off a boundary divisor,
    demoting a psi power or a kappa level by one (``apply_trr_psi``,
    ``apply_trr_kappa``); both share one boundary-split loop, which emits
    only dimension-balanced terms (each factor passes the selection rule);
  * keys carrying only level-(-1) kappa classes and plain evaluation
    insertions lift to pure Gromov-Witten invariants with extra marked
    points (``lift_kappa_minus_one``).

``evaluate`` orchestrates these into the standard elimination order
(psi levels first, then kappa levels by descent, augmenting with a
divisor insertion when fewer than two tau co-pivots are available);
``evaluate_kappa_first`` is an independently-ordered cross-check that
removes the kappa classes first and then runs the psi-only recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial

from .gw import _pure_gw, pure_gw
from .target import TargetModel, check_degree
from .trees import DecoratedTree, TreeSum, aut_order

ZERO = Fraction(0)
ONE = Fraction(1)

Entry = tuple[int, int]  # (level a, basis index alpha)


@dataclass(frozen=True)
class MultiIndex:
    """Finitely supported multiplicity function on (level, basis index)."""

    entries: tuple[tuple[Entry, int], ...] = ()

    def __post_init__(self):
        cleaned = tuple(
            sorted((key, mult) for key, mult in self.entries if mult)
        )
        for (a, alpha), mult in cleaned:
            if mult < 0:
                raise ValueError("negative multiplicity")
        keys = [key for key, _ in cleaned]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate multi-index entry")
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "_cached_hash", hash(cleaned))

    def __hash__(self) -> int:
        return self._cached_hash

    @classmethod
    def from_list(cls, items) -> "MultiIndex":
        acc: dict[Entry, int] = {}
        for a, alpha, mult in items:
            acc[(a, alpha)] = acc.get((a, alpha), 0) + mult
        return cls(tuple(acc.items()))

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
    def min_level(self) -> int:
        return min((a for (a, _), _ in self.entries), default=0)

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
        acc = dict(self.entries)
        acc[(a, alpha)] = acc.get((a, alpha), 0) + k
        return MultiIndex(tuple(acc.items()))

    def remove(self, a: int, alpha: int, k: int = 1) -> "MultiIndex":
        have = self.mult(a, alpha)
        if have < k:
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
            sub = MultiIndex(tuple(zip(keys, counts)))
            rest = MultiIndex(
                tuple(zip(keys, (m - c for m, c in zip(mults, counts))))
            )
            mult = 1
            for m, c in zip(mults, counts):
                mult *= comb(m, c)
            yield sub, rest, mult

    def nonneg_part(self) -> "MultiIndex":
        return MultiIndex(
            tuple((key, m) for key, m in self.entries if key[0] >= 0)
        )

    def neg_part(self) -> "MultiIndex":
        return MultiIndex(
            tuple((key, m) for key, m in self.entries if key[0] < 0)
        )

    def merge(self, other: "MultiIndex") -> "MultiIndex":
        acc = dict(self.entries)
        for key, m in other.entries:
            acc[key] = acc.get(key, 0) + m
        return MultiIndex(tuple(acc.items()))


@dataclass(frozen=True)
class CorrelatorKey:
    target: TargetModel
    m: MultiIndex
    p: MultiIndex
    d: int

    def __post_init__(self):
        check_degree(self.d)
        if self.m.entries and self.m.min_level < 0:
            raise ValueError("tau indices need levels a >= 0")
        if self.p.entries and self.p.min_level < -1:
            raise ValueError("kappa indices need levels a >= -1")
        rank = self.target.rank
        for idx in (self.m, self.p):
            for (a, alpha), _ in idx.entries:
                if not 0 <= alpha < rank:
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


def make_key(target: TargetModel, tau=(), kappa=(), d: int = 0) -> CorrelatorKey:
    """Key from (a, alpha, mult) triples."""
    return CorrelatorKey(
        target, MultiIndex.from_list(tau), MultiIndex.from_list(kappa), d
    )


class Combination:
    """Rational combination of products of correlator keys."""

    def __init__(self):
        self._terms: dict[tuple[CorrelatorKey, ...], Fraction] = {}

    def add(self, keys: tuple[CorrelatorKey, ...], coeff: Fraction) -> None:
        if coeff == 0:
            return
        keys = tuple(sorted(keys, key=_key_sort))
        new = self._terms.get(keys, ZERO) + coeff
        if new:
            self._terms[keys] = new
        else:
            del self._terms[keys]

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: _keys_sort(kv[0]))

    def __len__(self):
        return len(self._terms)


def _key_sort(key: CorrelatorKey):
    return (key.d, key.m.entries, key.p.entries)


def _keys_sort(keys):
    return tuple(_key_sort(k) for k in keys)


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
    if key.d == 0 and key.n < 3:
        return False
    return degree_sum(key) == 2 * expected_dimension(key)


# -- the four reduction moves ------------------------------------------------------


def _cup_power(target: TargetModel, p2: MultiIndex) -> dict[int, Fraction]:
    """Cup product of the kappa labels of p2, as a basis combination."""
    vec = {0: ONE}
    for (_, alpha), mult in p2.entries:
        for _ in range(mult):
            vec = target.cup_vector(vec, alpha)
            if not vec:
                return {}
    return vec


def apply_puncture_dilaton(key: CorrelatorKey, pivot: Entry) -> Combination:
    """Trade the pivot tau insertion for kappa insertions downstairs.

    Valid for pivot level a >= 1, or a = 0 when every other tau insertion
    has level 0; never on a three-point degree-0 key.
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
    target = key.target
    out = Combination()
    neg = key.p.neg_part()
    for p2, rest, binm in key.p.nonneg_part().splits():
        p1 = rest.merge(neg)
        vec = _cup_power(target, p2)
        if not vec:
            continue
        new_level = p2.weight + a - 1
        for nu, c_nu in target.cup_vector(vec, alpha).items():
            sub = CorrelatorKey(target, m0, p1.add(new_level, nu), key.d)
            out.add((sub,), binm * c_nu)
    return out


def _boundary_split(
    key: CorrelatorKey,
    m0: MultiIndex,
    p0: MultiIndex,
    left_tau: list[Entry],
    left_kappa: list[Entry],
    right_tau: tuple[Entry, ...],
) -> Combination:
    """Sum over the boundary divisors D(A|B) that split ``key`` in two.

    The left factor carries a sub-multiset m1 of m0 and p1 of p0 plus the
    fixed insertions ``left_tau``/``left_kappa``; the right factor carries
    the complements plus ``right_tau``; the node carries
    eta^{s1 s2} e_{s1} x e_{s2} and the curve degree splits as b1 + (d - b1).
    Only dimension-balanced terms are emitted: the selection rule is checked
    on the integer degree sums and point counts of both factors before any
    key is built.  Every term it skips has a factor that vanishes outright.
    """
    target, d = key.target, key.d
    g, c1, dim = target.gradings, target.c1_degree, target.dim_complex
    pairs = target.eta_inverse_pairs()

    def balanced(deg: int, n: int, b: int) -> bool:
        return (b > 0 or n >= 3) and deg == 2 * (dim + n - 3 + b * c1)

    left_m, left_p, right_m = (
        MultiIndex.from_list([(a, alpha, 1) for a, alpha in side])
        for side in (left_tau, left_kappa, right_tau)
    )
    m_deg, p_deg = _index_degree(g, m0), _index_degree(g, p0)
    left_deg = _index_degree(g, left_m) + _index_degree(g, left_p)
    right_deg = _index_degree(g, right_m)
    p_sides = [
        (p1.merge(left_p), p2, pbin, _index_degree(g, p1))
        for p1, p2, pbin in p0.splits()
    ]
    out = Combination()
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
                        k1 = CorrelatorKey(target, left.add(0, s1), p1, b1)
                        k2 = CorrelatorKey(target, right.add(0, s2), p2, d - b1)
                        out.add((k1, k2), mbin * pbin * w)
    return out


def apply_trr_psi(
    key: CorrelatorKey, pivot: Entry, copivots: tuple[Entry, Entry]
) -> Combination:
    """Split psi^a at the pivot point off the two co-pivot points.

    Emits only dimension-balanced boundary terms (see ``_boundary_split``).
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
) -> Combination:
    """Demote the pivot kappa class across a boundary splitting.

    For pivot level a >= 1 the class drops to kappa_{a-1}; at level 0 it
    drops to the lift-ready kappa_{-1} plus the cup-product correction
    terms.  Two tau insertions serve as co-pivots.  The boundary terms are
    only the dimension-balanced ones (see ``_boundary_split``).
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
    target = key.target
    out = _boundary_split(key, m0, p0, [], [(a1 - 1, alpha1)], copivots)
    if a1 == 0:
        (a2, alpha2), (a3, alpha3) = copivots
        for (a, alpha), mult in m0.entries:
            for nu, c_nu in target.cup_product(alpha, alpha1).items():
                shifted = (
                    m0.remove(a, alpha)
                    .add(a, nu)
                    .add(a2, alpha2)
                    .add(a3, alpha3)
                )
                out.add((CorrelatorKey(target, shifted, p0, key.d),), mult * c_nu)
    return out


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


def _count_reduction():
    global _REDUCTIONS
    _REDUCTIONS += 1


def evaluate_combination(comb: Combination, evaluator=None) -> Fraction:
    evaluator = evaluator or evaluate
    total = ZERO
    for keys, coeff in comb.items():
        value = coeff
        for k in keys:
            value *= evaluator(k)
            if value == 0:
                break
        total += value
    return total


def _vanishes_outright(key: CorrelatorKey) -> bool:
    if not selection(key):
        return True
    # psi classes on a three-point degree-0 space are pulled back from a point
    if key.d == 0 and key.n == 3 and key.m.max_level >= 1:
        return True
    return False


@cache
def evaluate(key: CorrelatorKey) -> Fraction:
    """Exact correlator value via psi-first elimination."""
    if _vanishes_outright(key):
        return ZERO
    if key.m.max_level >= 1:
        pivot = max(key.m.expand())
        _count_reduction()
        return evaluate_combination(apply_puncture_dilaton(key, pivot))
    if key.p.max_level >= 0:
        if key.n >= 2:
            pivot = max(k for k in key.p.expand() if k[0] >= 0)
            _count_reduction()
            return evaluate_combination(apply_trr_kappa(key, pivot))
        return _divisor_trick(key)
    classes, d = lift_kappa_minus_one(key)
    return pure_gw(key.target, classes, d)


def _divisor_trick(key: CorrelatorKey) -> Fraction:
    """Solve for a tau-starved key from its divisor-augmented comparison.

    Augment with tau_0 of a divisor class D and apply the comparison
    relation there.  Its p2 = empty term is the key with an extra
    kappa_{-1}(D), with coefficient one because e_0 is the unit; that term
    is worth the pairing of D with the curve class times the key.
    """
    target = key.target
    alpha_div, pairing = target.divisor_class(key.d)
    _count_reduction()
    augmented = CorrelatorKey(target, key.m.add(0, alpha_div), key.p, key.d)
    comb = apply_puncture_dilaton(augmented, (0, alpha_div))
    solved = CorrelatorKey(target, key.m, key.p.add(-1, alpha_div), key.d)
    comb.add((solved,), -ONE)
    return (evaluate(augmented) - evaluate_combination(comb)) / pairing


@cache
def evaluate_kappa_first(key: CorrelatorKey) -> Fraction:
    """Cross-check evaluator: kappa classes out first, then the psi recursion.

    Kappa levels a >= 0 are removed by reading the comparison relation
    backwards (each step costs one kappa and buys one psi power), after
    which the psi powers are reduced by the topological recursion relation
    with boundary splittings.  Psi powers on one or two points fall back to
    ``apply_puncture_dilaton`` and the main route, ``evaluate``.
    """
    if _vanishes_outright(key):
        return ZERO
    target = key.target
    if key.p.max_level >= 0:
        b, nu0 = max(k for k in key.p.expand() if k[0] >= 0)
        p_hat = key.p.remove(b, nu0)
        _count_reduction()
        value = evaluate_kappa_first(
            CorrelatorKey(target, key.m.add(b + 1, nu0), p_hat, key.d)
        )
        neg = p_hat.neg_part()
        for p2, rest, binm in p_hat.nonneg_part().splits():
            if not p2.entries:
                continue
            p1 = rest.merge(neg)
            vec = _cup_power(target, p2)
            if not vec:
                continue
            new_level = p2.weight + b
            for nu, c_nu in target.cup_vector(vec, nu0).items():
                sub = CorrelatorKey(target, key.m, p1.add(new_level, nu), key.d)
                value -= binm * c_nu * evaluate_kappa_first(sub)
        return value
    if key.m.max_level >= 1:
        points = key.m.expand()
        pivot = max(points)
        if key.n >= 3:
            others = list(points)
            others.remove(pivot)
            copivots = (others[0], others[1])
            _count_reduction()
            comb = apply_trr_psi(key, pivot, copivots)
            return evaluate_combination(comb, evaluate_kappa_first)
        # one or two points with psi powers: convert the deepest power and
        # finish with the main-route machinery (re-reversing would loop)
        _count_reduction()
        comb = apply_puncture_dilaton(key, pivot)
        return evaluate_combination(comb, evaluate)
    classes, d = lift_kappa_minus_one(key)
    return pure_gw(target, classes, d)


# bound at import, so clearing still works if the module names are rebound
_CACHE_CLEARS = (
    evaluate.cache_clear,
    evaluate_kappa_first.cache_clear,
    _pure_gw.cache_clear,
)


def clear_caches():
    """Empty the memos of ``evaluate``, ``evaluate_kappa_first`` and ``pure_gw``."""
    for cache_clear in _CACHE_CLEARS:
        cache_clear()


# -- pairing boundary presentations with insertions -----------------------------------


def evaluate_tree_sum(
    target: TargetModel,
    tree_sum: TreeSum,
    ambient: dict[int, Entry],
) -> Fraction:
    """Integrate a decorated tree sum against tau insertions at the tails.

    ``ambient`` maps each tail label to its (psi level, class) insertion.
    Edges contribute the inverse Poincare pairing with level-0 insertions
    on both sides; vertex tokens contribute kappa insertions, psi powers
    at their tail, or cup products with the tail's class.  Each tree's
    contribution carries its 1/|Aut| normalization.
    """
    total = ZERO
    for tree, coeff in tree_sum.items():
        total += (
            coeff
            * _evaluate_decorated_tree(target, tree, ambient)
            / aut_order(tree)
        )
    return total


def _evaluate_decorated_tree(
    target: TargetModel, tree: DecoratedTree, ambient: dict[int, Entry]
) -> Fraction:
    for label in tree.labels:
        if label not in ambient:
            raise ValueError(f"no ambient insertion for tail {label}")

    # per-tail tau entries, shifted by psi tokens, cupped by ev tokens
    tail_choices: dict[int, list[tuple[Entry, Fraction]]] = {}
    for label in tree.labels:
        a, alpha = ambient[label]
        tail_choices[label] = [((a, alpha), ONE)]
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
    total = ZERO
    for tail_pick in product(*(tail_choices[lab] for lab in labels)):
        tail_coeff = ONE
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
            value = coeff
            for v in range(tree.n_vertices):
                key = CorrelatorKey(
                    target,
                    MultiIndex.from_list(
                        [(a, alpha, 1) for a, alpha in tau_at[v] + extra[v]]
                    ),
                    MultiIndex.from_list(
                        [(a, alpha, 1) for a, alpha in kappa_at[v]]
                    ),
                    tree.betas[v],
                )
                value *= evaluate(key)
                if value == 0:
                    break
            total += value
    return total
