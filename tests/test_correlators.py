import copy
import pickle
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, factorial, prod

import pytest

import gwtaut.correlators as correlators
import gwtaut.gw as gw
import gwtaut.trees as trees
import gwtaut.verify as verify
from gwtaut.correlators import (
    CorrelatorKey,
    MultiIndex,
    apply_puncture_dilaton,
    apply_trr_kappa,
    apply_trr_psi,
    degree_sum,
    evaluate,
    evaluate_combination,
    evaluate_tree_sum,
    expected_dimension,
    lift_kappa_minus_one,
    make_key,
    selection,
    _comparison_backwards,
    _divisor_backwards,
    _index_degree,
    _split_table,
    _valid_key,
)
from gwtaut.gw import pure_gw
from gwtaut.oracle import oracle
from gwtaut.potentials import build_H_series, cp1_h_sequence, make_spec
from gwtaut.target import TargetModel, projective_space, target_from_config
from gwtaut.trees import TreeSum, kappa_boundary_presentation, psi_boundary_presentation
from gwtaut.verify import random_admissible_key, sample_relation_keys, two_sided_checks
from test_gw import Q3

P1 = projective_space(1)
P2 = projective_space(2)
P3 = projective_space(3)
Q3_TARGET = target_from_config(Q3)


def test_multi_index_bookkeeping():
    m = MultiIndex.from_list([(0, 1, 2), (1, 0, 1)])
    assert len(m) == 3
    assert m.counts() == (((0, 1), 2), ((1, 0), 1))  # m! = 2! 1!
    p = MultiIndex.from_list([(-1, 1, 2), (0, 1, 1)])
    assert len(p) == 3
    # the comparison table splits only the level >= 0 part and keeps the
    # kappa_{-1} part in every complement
    rows = correlators._comparison_table(P1, p)
    assert [(p2, rest) for p2, rest, *_ in rows] == [
        ((), ((-1, 1), (-1, 1), (0, 1))),
        (((0, 1),), ((-1, 1), (-1, 1))),
    ]
    assert len(_split_table(m)) == 6  # (2+1)*(1+1)
    assert sorted(b for _, _, b, _ in _split_table(m)) == [1, 1, 1, 1, 2, 2]
    assert all(type(b) is int for _, _, b, _ in _split_table(m))


def test_multi_index_validation():
    with pytest.raises(ValueError):
        MultiIndex.from_list([(0, 1, -1)])
    with pytest.raises(ValueError):
        make_key(P1, tau=[(-1, 0, 1)], d=0)
    with pytest.raises(ValueError):
        make_key(P1, kappa=[(-2, 0, 1)], d=0)
    with pytest.raises(ValueError):
        make_key(P1, tau=[(0, 5, 1)], d=0)


def test_multi_index_constructor_normalizes():
    m = MultiIndex(((1, 0), (0, 1), (1, 0), (0, 1), (1, 0)))
    assert m == ((0, 1), (0, 1), (1, 0), (1, 0), (1, 0))
    assert m.counts() == (((0, 1), 2), ((1, 0), 3))
    # from_list reads (level, alpha, mult) triples; repeated ones add up
    assert MultiIndex.from_list([(1, 0, 1), (0, 1, 2), (1, 0, 2), (0, 0, 0)]) == m
    assert m == MultiIndex.from_list([(0, 1, 1), (1, 0, 3), (0, 1, 1)])
    with pytest.raises(ValueError, match="must be an int >= 0"):
        MultiIndex.from_list([(0, 1, 1), (0, 1, -2)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: evaluate(make_key(P1, tau=[(0, 1, 2)], d=True)),
        lambda: pure_gw(P1, (1, 1), True),
        lambda: pure_gw(P1, (True, 1), 1),
        lambda: P1.moduli_dimension(2, True),
        lambda: evaluate(make_key(P2, tau=[(0.5, 2, 1), (0, 2, 1)], d=1)),
        lambda: evaluate(make_key(P1, tau=[(0, True, 2)], d=1)),
        lambda: evaluate(make_key(P1, kappa=[(0, 1, 1.5)], tau=[(0, 1, 2)], d=1)),
        # True == 1 and 1.0 == 1, so each entry is checked before the entries
        # merge, whatever its position next to its equal twin
        lambda: evaluate(make_key(P1, tau=[(0, 1, 1), (0, True, 1), (0, 1, 1)], d=1)),
        lambda: evaluate(make_key(P1, tau=[(0, True, 1), (0, 1, 1), (0, 1, 1)], d=1)),
        lambda: evaluate(make_key(P1, tau=[(1, 1, 1), (1.0, 1, 1)], d=1)),
        lambda: evaluate(make_key(P1, tau=[(1.0, 1, 1), (1, 1, 1)], d=1)),
        lambda: evaluate(make_key(P1, kappa=[(0, 1, 1), (0, True, 1)], tau=[(0, 1, 2)], d=1)),
        lambda: pure_gw(P2, (2, True), 1),
    ],
    ids=[
        "bool-degree",
        "pure-gw-bool-degree",
        "pure-gw-bool-class",
        "moduli-dimension-bool-degree",
        "float-level",
        "bool-class",
        "float-multiplicity",
        "bool-class-after-its-twin",
        "bool-class-before-its-twin",
        "float-level-after-its-twin",
        "float-level-before-its-twin",
        "kappa-bool-class-after-its-twin",
        "pure-gw-bool-class-last",
    ],
)
def test_python_api_rejects_non_integers(build):
    with pytest.raises(ValueError):
        build()


def test_expected_dimension_and_selection():
    key = make_key(P1, tau=[(0, 1, 2)], d=1)
    assert expected_dimension(key) == 2
    assert selection(key)
    assert not selection(make_key(P1, tau=[(0, 0, 3)], d=0))
    assert selection(make_key(P1, kappa=[(0, 1, 2)], d=2))


# -- the comparison relation (puncture/dilaton analog) ------------------------------


def test_comparison_single_term():
    # forgetting the psi-squared point turns it into a kappa insertion
    key = make_key(P1, tau=[(1, 0, 1), (0, 1, 2)], d=1)
    terms = apply_puncture_dilaton(key, (1, 0))
    assert len(terms) == 1
    (keys, coeff) = terms[0]
    assert coeff == 1
    assert keys[0].p == ((0, 0),)
    assert evaluate_combination(terms) == 0  # kappa_{0,0} gives n - 2 = 0
    assert evaluate(key) == 0


def test_comparison_cup_kills_terms():
    key = make_key(P1, tau=[(0, 1, 1)], kappa=[(0, 1, 1)], d=1)
    terms = apply_puncture_dilaton(key, (0, 1))
    # the split putting kappa_{0,1} upstairs needs e1 . e1 = 0 on P1
    assert all(
        min(a for a, _ in k.p) == -1
        for keys, _ in terms
        for k in keys
    )


def test_comparison_rejects_missing_space():
    key = make_key(P1, tau=[(1, 0, 1), (0, 1, 2)], d=0)
    with pytest.raises(ValueError, match="does not exist"):
        apply_puncture_dilaton(key, (1, 0))


@pytest.mark.parametrize(
    "move, pivot", [(apply_puncture_dilaton, (1, 1)), (apply_trr_kappa, (1, 0))]
)
def test_moves_refuse_an_absent_pivot(move, pivot):
    # the pivot's removal from the key's multi-index is the check
    key = make_key(P1, tau=[(1, 0, 1), (0, 1, 2)], kappa=[(0, 1, 1)], d=1)
    with pytest.raises(ValueError, match="not present"):
        move(key, pivot)


def test_comparison_rejects_level_zero_pivot_with_psi():
    key = make_key(P1, tau=[(1, 0, 1), (0, 1, 1)], d=1)
    with pytest.raises(ValueError, match="level 0"):
        apply_puncture_dilaton(key, (0, 1))


# -- topological recursion relations --------------------------------------------------


def test_trr_psi_two_sided():
    key = make_key(P1, tau=[(1, 0, 1), (0, 1, 2)], d=1)
    terms = apply_trr_psi(key, (1, 0), ((0, 1), (0, 1)))
    assert evaluate(key) == evaluate_combination(terms)


def test_trr_psi_rejects_level_zero_pivot():
    key = make_key(P1, tau=[(0, 1, 3)], d=1)
    with pytest.raises(ValueError):
        apply_trr_psi(key, (0, 1), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        apply_trr_psi(key, (1, 0), ((0, 1), (0, 1)))  # pivot absent


def test_trr_psi_on_unstable_splits_vanishes():
    # three points at degree 0: every split has an unstable factor
    key = make_key(P1, tau=[(1, 1, 1), (0, 1, 1), (0, 0, 1)], d=0)
    terms = apply_trr_psi(key, (1, 1), ((0, 1), (0, 0)))
    assert evaluate_combination(terms) == 0
    assert evaluate(key) == 0


def test_trr_binomial_bookkeeping():
    # background tau_0^1 x 2; splits sending one copy left carry binom(2,1) = 2
    key = make_key(P1, tau=[(3, 0, 1), (0, 0, 2), (0, 1, 2)], d=1)
    assert selection(key)
    terms = apply_trr_psi(key, (3, 0), ((0, 0), (0, 0)))
    left = make_key(P1, tau=[(2, 0, 1), (0, 0, 1), (0, 1, 1)], d=1)
    right = make_key(P1, tau=[(0, 0, 2), (0, 1, 2)], d=0)
    found = [
        coeff
        for keys, coeff in terms
        if set(keys) == {left, right}
    ]
    assert found == [Fraction(2)]


def _moves(key):
    """(name, terms) of every move whose preconditions the key meets: the
    psi and kappa recursions, the forward comparison relation, and the
    comparison relation and divisor equation that ``evaluate`` reads
    backwards (the latter, as there, only without kappa classes of level
    >= 0, whose pullbacks would add terms)."""
    points = key.m
    psi_pivots = [e for e in points if e[0] >= 1]
    if psi_pivots and len(points) >= 3:
        pivot = max(psi_pivots)
        others = list(points)
        others.remove(pivot)
        yield "trr-psi", apply_trr_psi(key, pivot, (others[0], others[1]))
    if len(points) >= 2:
        for pivot in sorted({e for e in key.p if e[0] >= 0}):
            yield "trr-kappa", apply_trr_kappa(key, pivot)
    if psi_pivots and not (key.d == 0 and key.n == 3):
        yield "comparison", apply_puncture_dilaton(key, max(psi_pivots))
    if key.p.max_level >= 0:
        yield "comparison-backwards", _comparison_backwards(key)
    if psi_pivots and key.d > 0 and key.p.max_level < 0:
        yield "divisor-backwards", _divisor_backwards(key)


def test_boundary_moves_emit_only_balanced_terms():
    moves = Counter()
    for key in sample_relation_keys([P1, P2, P3], 40, seed=5, d_max=2):
        # the oracle shares no code with the moves
        expected = oracle(key)
        for name, terms in _moves(key):
            moves[name] += 1
            assert all(selection(k) for keys, _ in terms for k in keys), (name, key)
            assert evaluate_combination(terms) == expected, (name, key)
        # an extra unit insertion unbalances the key: no split balances both sides
        unbalanced = CorrelatorKey(key.target, key.m.add(0, 0), key.p, key.d)
        for _, terms in _moves(unbalanced):
            assert all(len(keys) == 1 for keys, _ in terms)
    assert len(moves) == 5 and min(moves.values()) >= 5, moves
    # anchor the split on the dilaton equation <tau_1(e0) X>_d = (n - 2) <X>_d
    # with X pure, whose split factors all lift to pure_gw without further moves
    for target, classes, d in ((P1, (1, 1, 1), 1), (P2, (2,) * 5, 2), (P3, (3, 3, 1), 1)):
        key = make_key(target, tau=[(1, 0, 1)] + [(0, c, 1) for c in classes], d=d)
        terms = apply_trr_psi(key, (1, 0), ((0, classes[0]), (0, classes[1])))
        expected = (len(classes) - 2) * pure_gw(target, classes, d)
        assert evaluate_combination(terms) == expected != 0


def test_moves_build_keys_in_normal_form():
    # the moves build keys without the constructors' checks; each emitted
    # key must be exactly what the public constructors make of it
    checked = cup_corrections = backwards = 0
    for key in sample_relation_keys([P1, P2, P3], 48, seed=5, d_max=2):
        emitted = []
        for name, terms in _moves(key):
            # the kappa recursion's one-factor terms are its level-0 cup
            # corrections; its split terms have two factors
            if name == "trr-kappa":
                cup_corrections += sum(len(keys) == 1 for keys, _ in terms)
            backwards += name.endswith("-backwards")
            emitted += [k for keys, _ in terms for k in keys]
        for k in emitted:
            # rebuilt through the validating, normalizing constructors
            twin = CorrelatorKey(k.target, MultiIndex(tuple(k.m)), MultiIndex(tuple(k.p)), k.d)
            assert tuple(k.m) == tuple(twin.m)
            assert tuple(k.p) == tuple(twin.p)
            assert k == twin and hash(k) == hash(twin)
        checked += len(emitted)
    assert checked >= 2000 and cup_corrections >= 20 and backwards >= 40


def test_trr_kappa_zero_reproduces_point_count():
    key = make_key(P1, tau=[(0, 1, 2)], kappa=[(0, 0, 1)], d=1)
    terms = apply_trr_kappa(key, (0, 0))
    assert evaluate_combination(terms) == 0  # (n - 2) = 0 here
    assert evaluate(key) == 0

    key2 = make_key(P1, tau=[(0, 0, 2), (0, 1, 1)], kappa=[(0, 0, 1)], d=0)
    assert evaluate(key2) == 1  # (n - 2) <e0 e0 e1>_0 = 1


def test_trr_kappa_copivot_choice_independence():
    key = make_key(P1, tau=[(0, 0, 1), (0, 1, 2)], kappa=[(0, 1, 1)], d=2)
    points = key.m
    values = set()
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            terms = apply_trr_kappa(key, (0, 1), (points[i], points[j]))
            values.add(evaluate_combination(terms))
    assert len(values) == 1
    assert values.pop() == evaluate(key)


def test_trr_kappa_needs_two_copivots():
    key = make_key(P1, tau=[(0, 1, 1)], kappa=[(1, 1, 1)], d=2)
    with pytest.raises(ValueError, match="co-pivot"):
        apply_trr_kappa(key, (1, 1))


# -- the terminal lift ------------------------------------------------------------------


def test_lift_to_pure_invariants():
    key = make_key(P1, tau=[(0, 1, 2)], kappa=[(-1, 1, 1)], d=1)
    lifted = lift_kappa_minus_one(key)
    assert type(lifted) is CorrelatorKey and lifted == make_key(P1, tau=[(0, 1, 3)], d=1)
    assert evaluate(lifted) == 1
    assert evaluate(key) == 1


def test_lift_refuses_unreduced_keys():
    with pytest.raises(ValueError):
        lift_kappa_minus_one(make_key(P1, tau=[(1, 1, 1)], d=1))
    with pytest.raises(ValueError):
        lift_kappa_minus_one(make_key(P1, kappa=[(0, 1, 1)], d=1))


def test_kappa_minus_one_vanishes_at_degree_zero():
    key = make_key(P1, tau=[(0, 1, 3)], kappa=[(-1, 1, 1)], d=0)
    assert evaluate(key) == 0


def test_kappa_minus_one_divisor_consistency():
    base = make_key(P1, tau=[(0, 1, 2)], d=1)
    with_km = make_key(P1, tau=[(0, 1, 2)], kappa=[(-1, 1, 1)], d=1)
    assert evaluate(with_km) == 1 * evaluate(base)


# -- the evaluator -----------------------------------------------------------------------


def test_evaluate_paper_values():
    assert evaluate(make_key(P1, tau=[(0, 0, 2), (0, 1, 1)], d=0)) == 1
    assert evaluate(make_key(P1, kappa=[(0, 1, 2)], d=2)) == Fraction(1, 2)
    assert evaluate(make_key(P1, kappa=[(0, 1, 2)], d=1)) == 0
    assert evaluate(make_key(P1, d=1)) == 1


def j_function_descendants(r: int, d: int):
    """(a, alpha, <tau_a(H^alpha)>_d) for every one-point descendant of P^r.

    Givental's J-function of P^r holds them as
    <tau_a(H^alpha)>_d = [H^{r-alpha} z^{-a-2}] prod_{k=1}^{d} (H + kz)^{-(r+1)},
    taken mod H^{r+1}.  With x = H/z the product is
    z^{-d(r+1)} prod_k k^{-(r+1)} (1 + x/k)^{-(r+1)}; its x^j coefficient sits
    at H^j z^{-d(r+1)-j}, so a = d(r+1) + j - 2 and alpha = r - j.
    """
    series = [Fraction(1)] + [Fraction(0)] * r
    for k in range(1, d + 1):
        factor = [Fraction((-1) ** j * comb(r + j, j), k ** (r + 1 + j)) for j in range(r + 1)]
        series = [sum(series[i] * factor[j - i] for i in range(j + 1)) for j in range(r + 1)]
    return [(d * (r + 1) + j - 2, r - j, series[j]) for j in range(r + 1)]


J_FUNCTION = [
    pytest.param(r, a, alpha, d, value, id=f"P{r}-{a}-{alpha}-{d}")
    for r in (1, 2, 3)
    for d in range(1, 5)
    for a, alpha, value in j_function_descendants(r, d)
]


@pytest.mark.parametrize("evaluator", [evaluate, oracle], ids=["main", "oracle"])
@pytest.mark.parametrize("r, a, alpha, d, value", J_FUNCTION)
def test_one_point_descendants_match_j_function(evaluator, r, a, alpha, d, value):
    # every one-point descendant of P^1-P^3 with d <= 4 (36 keys)
    assert evaluator(make_key(projective_space(r), tau=[(a, alpha, 1)], d=d)) == value


def test_evaluate_degree_zero_convention():
    assert evaluate(make_key(P1, tau=[(0, 1, 2)], d=0)) == 0
    assert evaluate(make_key(P1, kappa=[(0, 0, 1)], d=0)) == 0


def test_evaluate_psi_on_three_point_degree_zero():
    key = make_key(P1, tau=[(1, 0, 1), (0, 0, 2)], d=0)
    assert selection(key)
    assert evaluate(key) == 0  # psi is pulled back from a point there


def test_kappa00_law_small_point_counts():
    # the engine derives kappa_{0,0} = n - 2 even below two points
    assert evaluate(make_key(P1, tau=[(0, 1, 1)], kappa=[(0, 0, 1)], d=1)) == -1
    assert evaluate(make_key(P1, kappa=[(0, 0, 1)], d=1)) == -2


def test_kappa00_law_randomized():
    rng = random.Random(23)
    for target in (P1, P2):
        for _ in range(8):
            base = random_admissible_key(target, rng, d_max=2)
            with_k = CorrelatorKey(target, base.m, base.p.add(0, 0), base.d)
            assert evaluate(with_k) == (base.n - 2) * evaluate(base)


def test_kappa_minus_one_law_randomized():
    rng = random.Random(29)
    for target in (P1, P2):
        for _ in range(8):
            base = random_admissible_key(target, rng, d_max=2, need="pd")
            with_k = CorrelatorKey(target, base.m, base.p.add(-1, 1), base.d)
            assert evaluate(with_k) == base.d * evaluate(base)


def test_pivot_path_independence_on_samples():
    rng = random.Random(31)
    for target in (P1, P2):
        for need in ("psi", "kappa_pos", "kappa_zero"):
            key = random_admissible_key(target, rng, d_max=2, need=need)
            assert evaluate(key) == oracle(key)


@pytest.mark.parametrize("need", [None, "psi", "kappa_pos", "kappa_zero", "pd"])
def test_sampled_keys_keep_the_samplers_promises(need):
    for target in (P1, P2, P3):
        for seed in range(200):
            key = random_admissible_key(target, random.Random(seed), need=need)
            assert selection(key), (target.name, seed, key)
            assert need is None or key.d >= 1
            if need == "psi":
                assert key.m.max_level >= 1 and key.n >= 3
            elif need == "kappa_pos":
                assert key.p.max_level >= 1 and key.n >= 2
            elif need == "kappa_zero":
                assert any(a == 0 for a, _ in key.p) and key.n >= 2
            elif need == "pd":
                assert key.m.max_level >= 1


def test_engine_matches_oracle_on_sampled_keys():
    keys = sample_relation_keys([P1, P2, P3], 60, seed=5)
    assert [evaluate(k) for k in keys] == [oracle(k) for k in keys]
    # not vacuous: the pool runs all five branches of evaluate, and 20 keys
    # carry kappa_{-1}
    assert sum(evaluate(k) != 0 for k in keys) >= 30
    assert sum(k.p[0][0] == -1 for k in keys if k.p) >= 15


def test_nonzero_results_pass_selection():
    rng = random.Random(37)
    for _ in range(30):
        d = rng.randint(0, 2)
        m = MultiIndex.from_list(
            [(rng.choice([0, 0, 1]), rng.randint(0, 1), 1) for _ in range(rng.randint(0, 4))]
        )
        p = MultiIndex.from_list(
            [(rng.choice([-1, 0]), rng.randint(0, 1), 1) for _ in range(rng.randint(0, 2))]
        )
        key = CorrelatorKey(P1, m, p, d)
        if evaluate(key) != 0:
            assert selection(key)


def test_parallel_evaluation_is_deterministic():
    rng = random.Random(41)
    keys = [random_admissible_key(P1, rng, d_max=2) for _ in range(12)]
    serial = [evaluate(k) for k in keys]
    from gwtaut import correlators

    correlators.clear_caches()
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(evaluate, keys * 3))
    assert parallel == serial * 3


# -- boundary presentations feed the evaluator --------------------------------------------


def test_kappa_presentation_consistency_value():
    pres = kappa_boundary_presentation(P1, 3, 1, 0, 0)
    ambient = {1: (0, 1), 2: (0, 1), 3: (0, 1)}
    via_trees = evaluate_tree_sum(P1, pres, ambient)
    direct = evaluate(make_key(P1, tau=[(0, 1, 3)], kappa=[(0, 0, 1)], d=1))
    assert via_trees == direct == 1  # kappa_{0,0} = n - 2 = 1 here


def test_psi_presentation_matches_engine():
    pres = psi_boundary_presentation(4, 1, 1)
    ambient = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 0)}
    via_trees = evaluate_tree_sum(P1, pres, ambient)
    direct = evaluate(make_key(P1, tau=[(1, 1, 1), (0, 1, 2), (0, 0, 1)], d=1))
    assert via_trees == direct == 1


def test_psi_power_presentation_matches_engine():
    pres = psi_boundary_presentation(4, 2, 2)
    ambient = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 1)}
    via_trees = evaluate_tree_sum(P1, pres, ambient)
    direct = evaluate(make_key(P1, tau=[(2, 1, 1), (0, 1, 3)], d=2))
    assert via_trees == direct == 2


# (r, presentation, level-0 ambient classes): ("psi", n, d, a) is psi_1^a,
# ("kappa", n, d, a, alpha) is kappa_{a,alpha}; the kappa_0 ones carry ev tokens
TREE_CASES = [
    (1, ("psi", 4, 1, 1), (1, 1, 1, 0)),
    (1, ("kappa", 3, 1, 0, 0), (1, 1, 1)),
    (1, ("kappa", 3, 2, 2, 1), (1, 1, 0)),
    (2, ("psi", 4, 2, 1), (2, 2, 2, 2)),
    (2, ("psi", 3, 1, 2), (2, 1, 0)),
    (2, ("kappa", 4, 2, 0, 2), (2, 2, 2, 1)),
    (3, ("psi", 3, 2, 2), (3, 3, 3)),
    (3, ("psi", 4, 1, 2), (3, 3, 0, 0)),
    (3, ("kappa", 3, 1, 0, 2), (3, 2, 0)),
]


def test_tree_integral_builds_only_balanced_vertex_keys(monkeypatch):
    seen, depth = [], [0]

    def recorder(key):
        # the tree integral's own calls, not the recursion below them
        if not depth[0]:
            seen.append(key)
        depth[0] += 1
        try:
            return evaluate(key)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(correlators, "evaluate", recorder)
    for r, (kind, n, d, a, *alpha), classes in TREE_CASES:
        target = projective_space(r)
        ambient = {i: (0, c) for i, c in enumerate(classes, 1)}
        tau = [(0, c, 1) for c in classes]
        if kind == "psi":
            pres, kappa = psi_boundary_presentation(n, d, a), []
            tau[0] = (a, classes[0], 1)
        else:
            pres = kappa_boundary_presentation(target, n, d, a, *alpha)
            kappa = [(a, *alpha, 1)]
        seen.clear()
        value = evaluate_tree_sum(target, pres, ambient)
        assert seen and all(selection(k) for k in seen), (r, kind, n, d, a, seen)
        assert value == evaluate(make_key(target, tau, kappa, d)) != 0


def test_tree_sum_rejects_ambient_labels_no_tail_carries():
    pres = psi_boundary_presentation(5, 2, 2)
    ambient = {1: (0, 1), 2: (1, 0), 3: (0, 1), 4: (0, 1), 5: (0, 1)}
    direct = evaluate(make_key(P1, tau=[(2, 1, 1), (1, 0, 1), (0, 1, 3)], d=2))
    assert evaluate_tree_sum(P1, pres, ambient) == direct == 4
    with pytest.raises(ValueError, match="ambient labels"):
        evaluate_tree_sum(P1, pres, {**ambient, 6: (0, 1)})  # was 4
    del ambient[5]
    with pytest.raises(ValueError, match="ambient labels"):
        evaluate_tree_sum(P1, pres, ambient)


def test_empty_tree_sum_checks_its_point_count():
    pres = psi_boundary_presentation(3, 0, 1)
    assert len(pres) == 0
    assert evaluate_tree_sum(P1, pres, {1: (0, 1), 2: (0, 1), 3: (0, 0)}) == 0
    for ambient in ({1: (0, 1), 7: (0, 1)}, {1: (0, 1), 2: (0, 1)}, {}):
        with pytest.raises(ValueError, match="ambient labels"):
            evaluate_tree_sum(P1, pres, ambient)  # was 0


def test_tree_sum_rejects_bad_ambient_insertions():
    # checked once per sum, before any tree is read, so before an ev token
    # cups the class at tails 3 and 4 and before any vertex key is built
    pres = kappa_boundary_presentation(P2, 4, 1, 0, 1)
    good = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 2)}
    assert evaluate_tree_sum(P2, pres, good) == 2
    for label, entry, match in (
        (4, (-1, 2), "levels"),
        (4, (0, 3), "out of range"),
        (4, (0, -1), "out of range"),
        (1, (0, 1.0), "out of range"),
        (2, (True, 1), "levels"),
    ):
        with pytest.raises(ValueError, match=match):
            evaluate_tree_sum(P2, pres, {**good, label: entry})


@pytest.mark.parametrize("n", [4, None])
def test_empty_tree_sum_rejects_bad_ambient_insertions(n):
    good = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 2)}
    assert evaluate_tree_sum(P2, TreeSum(n=n), good) == 0
    for label, entry, match in ((4, (-1, 2), "levels"), (1, (0, 3), "out of range")):
        with pytest.raises(ValueError, match=match):
            evaluate_tree_sum(P2, TreeSum(n=n), {**good, label: entry})


def _one_vertex_tree(token):
    # degree 1 on P^2, tails 1, 2, 3 and one psi or ev token at tail 3
    tails = ((1, 0), (2, 0), (3, 0))
    return TreeSum({trees.DecoratedTree((1,), (), tails, ((0, token),)): 1})


EV_AMBIENT = {1: (0, 1), 2: (0, 2), 3: (0, 0)}
PSI_AMBIENT = {1: (0, 2), 2: (0, 2), 3: (0, 1)}


def test_tree_integral_reads_token_data():
    ev = _one_vertex_tree(trees.Decoration("ev", (3, 2), 4))
    assert evaluate_tree_sum(P2, ev, EV_AMBIENT) == 1
    psi = _one_vertex_tree(trees.Decoration("psi", (3, 0), 0))
    assert evaluate_tree_sum(P2, psi, PSI_AMBIENT) == 1


@pytest.mark.parametrize(
    "kind, value, ambient, match",
    [
        ("ev", -1, EV_AMBIENT, "class"),  # was 1, the value of class 2
        ("ev", 3, EV_AMBIENT, "class"),  # was a bare IndexError
        ("ev", True, EV_AMBIENT, "class"),  # was read as class 1
        ("ev", 1.0, EV_AMBIENT, "class"),
        ("psi", -1, {**PSI_AMBIENT, 3: (1, 1)}, "power"),  # was 1, the level-0 value
        ("psi", True, PSI_AMBIENT, "power"),  # was read as power 1
        ("psi", 1.0, PSI_AMBIENT, "power"),
    ],
    ids=["ev-negative", "ev-rank", "ev-bool", "ev-float", "psi-negative", "psi-bool",
         "psi-float"],
)
def test_tree_integral_rejects_bad_token_data(kind, value, ambient, match):
    # checked once per tree, before an ev token reads the cup table or a psi
    # token shifts a tail's level
    bad = _one_vertex_tree(trees.Decoration(kind, (3, value), 2))
    with pytest.raises(ValueError, match=match):
        evaluate_tree_sum(P2, bad, ambient)


@pytest.mark.parametrize("kind, value", [("ev", 1), ("psi", 1)])
def test_tree_integral_rejects_a_token_at_a_missing_tail(kind, value):
    tree = _one_vertex_tree(trees.Decoration(kind, (4, value), 2))
    with pytest.raises(ValueError, match="lacks"):
        evaluate_tree_sum(P2, tree, {1: (0, 1), 2: (0, 2), 3: (0, 1)})


def brute_force_tree_integral(target, tree, ambient) -> Fraction:
    """One tree's integral over every eta^{-1} pair on every edge and every
    cup term at every tail, each vertex key checked and evaluated, no
    balance solved for or pruned."""
    choices = {label: [(v, *ambient[label], 1)] for label, v in tree.tails}
    kappa = [[] for _ in tree.betas]
    for v, tok in tree.decorations:
        if tok.kind == "kappa":
            kappa[v].append((*tok.data, 1))
        elif tok.kind == "psi":
            label, power = tok.data
            choices[label] = [(w, a + power, al, c) for w, a, al, c in choices[label]]
        else:
            label, beta = tok.data
            choices[label] = [
                (w, a, nu, c * c_nu)
                for w, a, al, c in choices[label]
                for nu, c_nu in target.cup_product(al, beta).items()
            ]
    total = Fraction(0)
    for tail_pick in product(*choices.values()):
        for edge_pick in product(target.eta_inverse_pairs(), repeat=len(tree.edges)):
            tau, coeff = [[] for _ in tree.betas], Fraction(1)
            for v, a, alpha, c in tail_pick:
                tau[v].append((a, alpha, 1))
                coeff *= c
            for (u, v), (s1, s2, w) in zip(tree.edges, edge_pick):
                tau[u].append((0, s1, 1))
                tau[v].append((0, s2, 1))
                coeff *= w
            for v, beta in enumerate(tree.betas):
                coeff *= evaluate(make_key(target, tau[v], kappa[v], beta))
            total += coeff
    return total / trees.aut_order(tree)


def relabel(t: trees.DecoratedTree, perm) -> trees.DecoratedTree:
    """The same tree with vertex v renamed perm[v]."""
    betas = [0] * t.n_vertices
    for v, b in enumerate(t.betas):
        betas[perm[v]] = b
    return trees.DecoratedTree(
        betas=tuple(betas),
        edges=tuple((perm[u], perm[v]) for u, v in t.edges),
        tails=tuple((lab, perm[v]) for lab, v in t.tails),
        decorations=tuple((perm[v], tok) for v, tok in t.decorations),
    )


def token_tree(betas, edges, tail_vertices, kappa, psi, ev) -> trees.DecoratedTree:
    """Tail i at vertex tail_vertices[i - 1]; kappa = (vertex, a, alpha),
    psi = (tail, power) and ev = (tail, class), each token at its vertex."""
    v, *data = kappa
    decorations = [(v, trees.Decoration("kappa", tuple(data), 2))]
    for kind, (label, value) in (("psi", psi), ("ev", ev)):
        token = trees.Decoration(kind, (label, value), 2)
        decorations.append((tail_vertices[label - 1], token))
    tails = tuple(enumerate(tail_vertices, 1))
    return trees.DecoratedTree(tuple(betas), edges, tails, tuple(decorations))


CHAIN, MIDDLE = ((0, 1), (1, 2)), ((0, 1), (0, 2))  # vertex 0 a leaf, then not
STAR, LEAF_STAR = ((0, 1), (0, 2), (0, 3)), ((3, 0), (3, 1), (3, 2))

# (target, betas, edges, tail vertices, kappa, psi, ev, level-0 classes, value)
MULTI_EDGE_CASES = [
    ("P1", (1, 2, 1), CHAIN, (1, 2, 1), (1, 1, 1), (1, 2), (2, 1), (1, 0, 1), 4),
    ("P1", (0, 1, 1), MIDDLE, (2, 1, 0), (0, 0, 0), (1, 1), (2, 1), (1, 0, 0), 1),
    ("P1", (0, 1, 1, 1), STAR, (3, 3, 2), (1, 0, 0), (1, 2), (2, 1), (0, 0, 1), 1),
    ("P1", (1, 1, 1, 0), LEAF_STAR, (2, 2, 1), (1, 1, 0), (1, 2), (2, 1), (0, 0, 0), 1),
    ("P2", (1, 0, 1), CHAIN, (1, 0, 1), (2, -1, 2), (1, 1), (2, 1), (2, 1, 0), 1),
    ("P2", (0, 1, 1), MIDDLE, (2, 0, 1), (2, -1, 2), (1, 1), (2, 2), (0, 0, 2), -1),
    ("P2", (0, 1, 1, 1), STAR, (3, 1, 1), (2, -1, 2), (1, 2), (2, 2), (2, 0, 1), 1),
    ("P2", (1, 1, 1, 0), LEAF_STAR, (0, 1), (2, 1, 1), (1, 2), (2, 2), (1, 0), 4),
    ("c-2", (1, 1, 1), CHAIN, (0, 2, 0, 0), (2, 1, 1), (1, 2), (2, 1), (2, 1, 0, 2), -128),
    ("c-2", (0, 1, 1, 1), STAR, (2, 1), (3, 0, 2), (1, 1), (2, 1), (2, 1), 64),
]


@pytest.mark.parametrize(
    "name, betas, edges, tail_vertices, kappa, psi, ev, classes, value", MULTI_EDGE_CASES
)
def test_multi_edge_tree_integral_is_the_brute_force_sum(
    name, betas, edges, tail_vertices, kappa, psi, ev, classes, value
):
    # eta^{-1} weighs 1/4 on the rescaled P^2, so a wrong node weight shows
    target = {"P1": P1, "P2": P2, "c-2": rescaled_p2(2)}[name]
    tree = token_tree(betas, edges, tail_vertices, kappa, psi, ev)
    ambient = {i: (0, c) for i, c in enumerate(classes, 1)}
    solved = evaluate_tree_sum(target, TreeSum({tree: 1}), ambient)
    assert solved == brute_force_tree_integral(target, tree, ambient) == value


def test_isomorphic_trees_share_one_layout():
    # each tree of the presentation with its vertices renumbered (the two
    # vertices swap): equal trees, so each layout is built once and serves both
    target, (n, d, a, alpha) = P2, (4, 1, 0, 1)
    pres = kappa_boundary_presentation(target, n, d, a, alpha)
    renumbered = TreeSum(
        {relabel(t, list(reversed(range(t.n_vertices)))): c for t, c in pres.items()}, n
    )
    assert renumbered == pres and len(pres) > 1
    ambient = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 2)}
    direct = evaluate(make_key(target, tau=[(0, 1, 3), (0, 2, 1)], kappa=[(0, 1, 1)], d=1))
    for first, second in ((pres, renumbered), (renumbered, pres)):
        correlators.clear_caches()
        assert evaluate_tree_sum(target, first, ambient) == direct == 2
        assert correlators._tree_layout.cache_info().currsize == len(pres)
        assert evaluate_tree_sum(target, second, ambient) == direct
        assert correlators._tree_layout.cache_info().currsize == len(pres)
    # a star, renumbered so that vertex 0 is a leaf and no longer the centre
    _, betas, edges, tail_vertices, kappa, psi, ev, classes, value = MULTI_EDGE_CASES[6]
    star = token_tree(betas, edges, tail_vertices, kappa, psi, ev)
    renumbered_star = relabel(star, [3, 0, 1, 2])
    assert renumbered_star == star and renumbered_star.edges != star.edges
    ambient = {i: (0, c) for i, c in enumerate(classes, 1)}
    for first, second in ((star, renumbered_star), (renumbered_star, star)):
        correlators.clear_caches()
        values = [evaluate_tree_sum(P2, TreeSum({t: 1}), ambient) for t in (first, second)]
        assert values == [value, value]
        assert correlators._tree_layout.cache_info().currsize == 1


def test_token_on_a_bool_is_not_the_token_on_an_int():
    # a tree is keyed by isomorphism, so an ev token on True must not meet the
    # memo entry of the same token on 1
    good = _one_vertex_tree(trees.Decoration("ev", (3, 1), 2))
    bad = _one_vertex_tree(trees.Decoration("ev", (3, True), 2))
    assert good != bad  # the sums hold unequal trees
    assert evaluate_tree_sum(P2, good, EV_AMBIENT) == 0
    with pytest.raises(ValueError, match="class"):
        evaluate_tree_sum(P2, bad, EV_AMBIENT)


def test_clear_caches_empties_every_memo():
    # a small grid-like batch (a P^2 window with kappa_{-1} and kappa_0
    # variables) and one tree sum of each presentation fill every memo
    spec = make_spec(P2, [(0, 0), (0, 1), (0, 2)], [(-1, 1), (0, 0), (0, 1)], 3, 2, 4)
    build_H_series(spec)
    ambient = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 2)}
    evaluate_tree_sum(P2, kappa_boundary_presentation(P2, 4, 1, 0, 1), ambient)
    evaluate_tree_sum(P2, psi_boundary_presentation(4, 1, 1), ambient)
    memos = {
        f"{module.__name__}.{name}": obj
        for module in (correlators, trees, gw)
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    }
    assert {name for name, memo in memos.items() if not memo.cache_info().currsize} == set()
    correlators.clear_caches()
    assert {name for name, memo in memos.items() if memo.cache_info().currsize} == set()


# -- a rescaled basis: the non-integral branch of the coefficient arithmetic -----------


def rescaled_p2(c) -> TargetModel:
    """P^2 as a custom target in the basis 1, cH, c^2 H^2.

    eta is c^2 on the antidiagonal, the cup product is the monogenic one,
    the divisor pairing is c and the seed <e_2, e_2>_1 is c^4.  Since
    e_alpha = c^alpha H^alpha, a correlator whose classes (tau and kappa)
    sum to s is c^s times its P^2 value.  With c = 2, eta^{-1} is 1/4,
    a weight P^r never has; with c = 1/2 the pairing and the seed are not
    integers.  Entries are given as ``int``s where they are integral.
    """
    return TargetModel(
        name=f"P2 in the basis 1, {c}H, {c**2}H^2",
        gradings=P2.gradings,
        eta=tuple(tuple(c**2 if a + b == 2 else 0 for b in range(3)) for a in range(3)),
        cup=P2.cup,
        c1_degree=3,
        divisor_pairings=((1, c),),
        seeds=(((2, 2), 1, c**4),),
    )


# (d, tau levels, kappa levels): the P^2 templates of the benchmark's
# crosscheck pool, every admissible class assignment of each
P2_TEMPLATES = (
    (1, (1, 1, 0, 0, 0), ()),
    (2, (2, 1, 0, 0), ()),
    (1, (0, 0, 0, 0), (1,)),
    (2, (1, 0, 0), (0,)),
    (1, (1, 0, 0, 0), (-1, 0, 1)),
    (2, (0, 0, 0), (0, 0)),
)


def p2_template_keys():
    """Distinct (d, tau, kappa) of the templates, as (level, class, 1) triples."""
    keys = set()
    for d, tau_levels, kappa_levels in P2_TEMPLATES:
        n = len(tau_levels)
        total = 2 + n - 3 + 3 * d - sum(tau_levels) - sum(kappa_levels)
        for classes in product(range(3), repeat=n + len(kappa_levels)):
            if sum(classes) == total:
                tau = tuple(sorted((a, c, 1) for a, c in zip(tau_levels, classes)))
                kappa = tuple(sorted((a, c, 1) for a, c in zip(kappa_levels, classes[n:])))
                keys.add((d, tau, kappa))
    return sorted(keys)


@pytest.mark.parametrize("c", [2, Fraction(1, 2)])
def test_rescaled_basis_scales_every_template_key(c):
    target = rescaled_p2(c)
    keys = p2_template_keys()
    nonzero = 0
    for d, tau, kappa in keys:
        s = sum(alpha for _, alpha, _ in tau + kappa)
        expected = Fraction(c) ** s * evaluate(make_key(P2, tau, kappa, d))
        assert evaluate(make_key(target, tau, kappa, d)) == expected, (d, tau, kappa)
        nonzero += expected != 0
    assert (len(keys), nonzero) == (128, 70)


def test_rescaled_basis_tree_sum():
    # kappa_0(e_1) demoted across the boundary: edges weigh eta^{-1} = 1/4,
    # and the evaluation-class terms cup at the tails
    target = rescaled_p2(2)
    ambient = {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 2)}
    values = [
        evaluate_tree_sum(t, kappa_boundary_presentation(t, 4, 1, 0, 1), ambient)
        for t in (target, P2)
    ]
    key = make_key(target, tau=[(0, 1, 3), (0, 2, 1)], kappa=[(0, 1, 1)], d=1)
    assert values == [evaluate(key), 2] and evaluate(key) == 2**6 * 2


def test_public_values_are_fractions():
    """Zero, integral and non-integral values all come back as ``Fraction``."""
    T, H = rescaled_p2(2), rescaled_p2(Fraction(1, 2))
    j1 = make_key(P1, tau=[(2, 1, 1)], d=2)  # <tau_2(pt)>_2 = 1/4
    j2 = make_key(T, tau=[(4, 2, 1)], d=2)  # 2^2 <tau_4(H^2)>_2 = 4/8
    h3 = make_key(P1, kappa=[(0, 1, 4)], d=3)
    one_term = [((h3,), 3)]  # an int coefficient
    psi = psi_boundary_presentation
    trees = [
        (P1, psi(3, 0, 1), {1: (0, 1), 2: (0, 1), 3: (0, 0)}, 0),
        (P1, psi(4, 1, 1), {1: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 0)}, 1),
        (P1, psi(3, 2, 3), {1: (0, 1), 2: (0, 0), 3: (0, 1)}, Fraction(1, 2)),
        (T, psi(3, 2, 4), {1: (0, 2), 2: (0, 0), 3: (0, 2)}, 8),
        (T, psi(3, 2, 6), {1: (0, 2), 2: (0, 0), 3: (0, 0)}, Fraction(1, 2)),
    ]
    cases = [
        (evaluate(make_key(P1, tau=[(0, 0, 1)], d=1)), 0),
        (evaluate(h3), 4),
        (evaluate(j1), Fraction(1, 4)),
        (evaluate(make_key(T, tau=[(0, 2, 2)], d=1)), 16),  # the seed
        (evaluate(j2), Fraction(1, 2)),
        (evaluate_combination([]), 0),
        (evaluate_combination(one_term), 12),
        (evaluate_combination(_divisor_backwards(j1)), Fraction(1, 4)),
        (evaluate_combination(_divisor_backwards(j2)), Fraction(1, 2)),
        *((evaluate_tree_sum(t, pres, ambient), value) for t, pres, ambient, value in trees),
        (pure_gw(P1, (0, 1, 1), 1), 0),
        (pure_gw(P1, (1, 1, 1), 1), 1),
        (pure_gw(T, (0, 2, 2), 1), 0),
        (pure_gw(T, (2, 2), 1), 16),  # a seed given as an int
        (pure_gw(H, (2, 2), 1), Fraction(1, 16)),
        (pure_gw(H, (1, 2, 2), 1), Fraction(1, 32)),
    ]
    for i, (value, expected) in enumerate(cases):
        assert type(value) is Fraction and value == expected, (i, value)


# -- kappa_{-1} of a divisor is the number (int_d D), of a grading-0 class 0 -----------


def divisor_targets():
    """(target, per-unit pairing c of its divisor e_1): P^1-P^3 and the
    rescaled P^2 with c = 2 and c = 1/2."""
    half = Fraction(1, 2)
    return [(P1, 1), (P2, 1), (P3, 1), (rescaled_p2(2), 2), (rescaled_p2(half), half)]


DIVISOR_TARGET_IDS = ["P1", "P2", "P3", "c-2", "c-1/2"]


def sampled_base_keys(target, seed):
    """Admissible keys on ``target`` of degree 1 or 2, one per pivot shape
    plus two unconstrained samples, each kept only if it has a positive
    degree and no kappa_{-1} class of grading 0."""
    rng = random.Random(seed)
    keys = []
    for need in ("psi", "kappa_pos", "kappa_zero", "pd", None, None):
        key = random_admissible_key(target, rng, d_max=2, need=need)
        if key.d >= 1 and not key.p.count((-1, 0)):
            keys.append(key)
    return keys


@pytest.mark.parametrize("index", range(5), ids=DIVISOR_TARGET_IDS)
def test_kappa_minus_one_of_the_divisor_is_its_pairing(index):
    target, c = divisor_targets()[index]
    nonzero = 0
    for base in sampled_base_keys(target, 43 + index):
        value = evaluate(base)
        for k in (1, 2, 3):
            key = CorrelatorKey(target, base.m, MultiIndex(tuple(base.p) + ((-1, 1),) * k), base.d)
            assert evaluate(key) == (c * base.d) ** k * value == oracle(key), (key, k)
        nonzero += value != 0
    assert nonzero >= 2
    # pure_gw's axiom loop reads the same per-unit table: forgetting a point
    # gives <tau_0(e_0) X>_d = 0 and <tau_0(D) X>_d = c d <X>_d
    nonzero = 0
    for n, d in product(range(5), (1, 2)):
        for classes in combinations_with_replacement(range(target.rank), n):
            value = pure_gw(target, classes, d)
            assert pure_gw(target, classes + (0,), d) == 0, (classes, d)
            assert pure_gw(target, classes + (1,), d) == c * d * value, (classes, d)
            nonzero += value != 0
    assert nonzero >= 3


@pytest.mark.parametrize("index", range(5), ids=DIVISOR_TARGET_IDS)
def test_kappa_minus_one_vanishes_at_degree_zero_and_on_the_unit(index):
    target, _ = divisor_targets()[index]
    r = target.rank - 1
    # <e_0 e_1 e_{r-1}>_0 = int_V e_1 e_{r-1}, which is not 0
    bases = [make_key(target, tau=[(0, 0, 1), (0, 1, 1), (0, r - 1, 1)], d=0)]
    bases.append(make_key(target, tau=[(1, 0, 1), (0, 0, 1), (0, 1, 1), (0, r - 1, 1)], d=0))
    rng = random.Random(47 + index)
    bases += [random_admissible_key(target, rng, d_max=2) for _ in range(6)]
    keys = [
        CorrelatorKey(target, base.m, MultiIndex(tuple(base.p) + ((-1, 1),) * k), 0)
        for base in bases
        if base.d == 0
        for k in (1, 2)
    ]
    # kappa_{-1}(e_0) takes 2 off the degree; tau_1(e_1) adds a point and 4
    keys += [CorrelatorKey(target, base.m.add(1, 1), base.p.add(-1, 0), base.d) for base in bases]
    assert all(selection(key) for key in keys) and evaluate(bases[0]) != 0
    for key in keys:
        assert evaluate(key) == oracle(key) == 0, key


def unpaired_p2() -> TargetModel:
    """P^2 with no divisor pairing configured: e_1 has grading 2, but its
    kappa_{-1} is not a known number."""
    return TargetModel(
        name="P2 without a divisor pairing",
        gradings=P2.gradings,
        eta=P2.eta,
        cup=P2.cup,
        c1_degree=3,
        seeds=(((2, 2), 1, 1),),
    )


def test_kappa_minus_one_of_an_unpaired_divisor_takes_the_lift(monkeypatch):
    target = unpaired_p2()
    lifted = []

    def recording(key):
        lifted.append(key)
        return lift_kappa_minus_one(key)

    monkeypatch.setattr(correlators, "lift_kappa_minus_one", recording)
    correlators.clear_caches()
    # the lift reaches pure_gw, whose divisor axiom needs the pairing
    key = make_key(target, tau=[(0, 2, 2)], kappa=[(-1, 1, 1)], d=1)
    with pytest.raises(ValueError, match="no divisor pairing configured for e_1"):
        evaluate(key)
    assert lifted == [key]
    # psi on two points: the divisor equation needs a divisor with a pairing
    key = make_key(target, tau=[(1, 2, 1), (0, 1, 1)], kappa=[(-1, 1, 1)], d=1)
    with pytest.raises(ValueError, match="no divisor class"):
        evaluate(key)
    # at degree 0 the lift reads a four-point degree-0 invariant, which is 0
    key = make_key(target, tau=[(0, 0, 1), (0, 1, 2)], kappa=[(-1, 1, 1)], d=0)
    assert evaluate(key) == oracle(key) == 0
    assert lifted[-1] == key
    # a kappa_{-1} class of grading 0 is 0 whatever the pairings, with no lift
    # and no divisor equation (which would need a pairing here)
    count = len(lifted)
    for key in (
        make_key(target, tau=[(0, 2, 2), (1, 1, 1)], kappa=[(-1, 0, 1), (-1, 1, 1)], d=1),
        make_key(target, tau=[(1, 2, 1), (0, 2, 1)], kappa=[(-1, 0, 1)], d=1),
    ):
        assert evaluate(key) == 0
    assert len(lifted) == count


def two_points() -> TargetModel:
    """Two points: the unit e_0 and the class e_1 of one point, both of
    grading 0, with no divisor."""
    return TargetModel(
        name="two points",
        gradings=(0, 0),
        eta=((2, 1), (1, 1)),
        cup=(((1, 0), (0, 1)), ((0, 1), (0, 1))),
        c1_degree=0,
    )


def test_a_grading_0_class_is_forgotten_to_0_in_positive_degree():
    target = two_points()
    assert target.kappa_minus_one_per_unit() == {0: 0, 1: 0}
    assert pure_gw(target, (1, 1, 1), 0) == 1  # int_V e_1^3
    # e_1 is pulled back along the forgetful map, as e_0 is, so a
    # positive-degree key that carries it is 0; this ring has no seed and no
    # WDVV step, so no other route could give it
    for d in (1, 2):
        assert pure_gw(target, (1, 1, 1), d) == 0
        assert evaluate(make_key(target, tau=[(0, 1, 3)], d=d)) == 0
        assert evaluate(make_key(target, tau=[(0, 1, 2)], kappa=[(-1, 1, 1)], d=d)) == 0


def extra_reductions(key: CorrelatorKey, entry: tuple[int, int], k: int) -> int:
    """Reductions that ``entry``^k adds to ``key``, each counted on empty memos."""
    with_k = CorrelatorKey(key.target, key.m, MultiIndex(tuple(key.p) + (entry,) * k), key.d)
    counts = []
    for probe in (key, with_k):
        correlators.clear_caches()
        before = correlators.reduction_count()
        evaluate(probe)
        counts.append(correlators.reduction_count() - before)
    assert evaluate(key) != 0 and selection(key)
    return counts[1] - counts[0]


# nonzero keys with neither a kappa_{-1} class nor kappa_0(e_0)
NUMBER_STEP_KEYS = pytest.mark.parametrize(
    "key",
    [
        make_key(P1, tau=[(1, 1, 1), (0, 1, 2)], kappa=[(0, 1, 1)], d=2),
        make_key(P2, tau=[(2, 2, 1), (0, 2, 2), (0, 1, 1)], d=2),
        make_key(P2, tau=[(0, 0, 1), (0, 1, 2), (0, 2, 1)], kappa=[(0, 2, 1), (1, 2, 1)], d=2),
        make_key(P3, tau=[(0, 0, 1), (0, 2, 1), (3, 2, 1)], kappa=[(1, 3, 1)], d=2),
    ],
    ids=["P1-psi-kappa", "P2-psi", "P2-kappa", "P3-psi-kappa"],
)


@NUMBER_STEP_KEYS
@pytest.mark.parametrize("k", [1, 3])
def test_kappa_minus_one_of_the_divisor_costs_one_reduction(key, k):
    assert extra_reductions(key, (-1, 1), k) == 1


# -- kappa_0(e_0) is the number n - 2 ---------------------------------------------------
#
# kappa_0(e_0) = pi_*(psi_{n+1}), and psi_{n+1} has degree 2g - 2 + n on the
# fibre of the map forgetting the last point (Arbarello-Cornalba), so in genus
# 0 it is n - 2.  evaluate reads it so; the oracle and the kappa recursion
# reach it by other routes.


@NUMBER_STEP_KEYS
@pytest.mark.parametrize("k", [1, 3])
def test_kappa_zero_of_the_unit_costs_one_reduction(key, k):
    assert extra_reductions(key, (0, 0), k) == 1


def test_kappa_zero_of_the_unit_scales_the_p1_closed_form():
    # <kappa_{0,1}^{2n-2}>_n = h_n on P^1, with no points, so kappa_0(e_0) is -2
    hs = cp1_h_sequence(4)
    for n, j in product(range(1, 5), (1, 2, 3)):
        key = make_key(P1, kappa=[(0, 0, j), (0, 1, 2 * n - 2)], d=n)
        assert evaluate(key) == (-2) ** j * hs[n - 1] == oracle(key), (n, j)


def kappa_zero_unit_bases(target: TargetModel, seed: int) -> list[CorrelatorKey]:
    """Admissible keys with at most five points: tau_0(e_1)^k for k = 0..5
    at degree 1, where kappa_{0,1}^{2r-2} fills the rest of the dimension
    and, if r >= 2, again with one kappa_{0,1} traded for kappa_{-1}(e_2);
    sampled keys, one per pivot shape and unconstrained; and each sampled
    key of positive degree again with kappa_{-1}(e_1)."""
    r = target.rank - 1
    fills = [[(0, 1, 2 * r - 2)]]
    if r >= 2:
        fills.append([(0, 1, 2 * r - 3), (-1, 2, 1)])
    bases = [
        make_key(target, tau=[(0, 1, k)][:k], kappa=kappa, d=1) for kappa in fills for k in range(6)
    ]
    rng = random.Random(seed)
    sampled = []
    for need in ("psi", "kappa_pos", "kappa_zero", "pd", None, None, None, None) * 2:
        base = random_admissible_key(target, rng, d_max=2, need=need)
        if base.n <= 5 and not base.p.count((0, 0)):
            sampled.append(base)
    bases += sampled
    bases += [CorrelatorKey(target, b.m, b.p.add(-1, 1), b.d) for b in sampled if b.d >= 1]
    return bases


@pytest.mark.parametrize("index", range(5), ids=DIVISOR_TARGET_IDS)
def test_kappa_zero_of_the_unit_agrees_with_the_oracle(index):
    target, _ = divisor_targets()[index]
    points, minus_one, nonzero = Counter(), Counter(), 0
    for base in kappa_zero_unit_bases(target, 71 + index):
        value = evaluate(base)
        for j in (1, 2, 3):
            key = CorrelatorKey(target, base.m, MultiIndex(tuple(base.p) + ((0, 0),) * j), base.d)
            assert evaluate(key) == (base.n - 2) ** j * value == oracle(key), (key, j)
        points[base.n] += 1
        minus_one.update(target.gradings[alpha] for a, alpha in set(base.p) if a < 0)
        nonzero += value != 0 and base.n != 2
    assert set(points) == set(range(6)), points
    # kappa_{-1} of the divisor is read as a number; one of grading 4 is lifted
    assert minus_one[2] >= 5 and (minus_one[4] >= 6 or target.rank < 3), minus_one
    assert nonzero >= 10


def test_kappa_recursion_agrees_on_kappa_zero_of_the_unit():
    checked = Counter()
    for base in sample_relation_keys([P1, P2, P3], 60, seed=7):
        if base.n < 2:
            continue
        for j in (1, 2):
            p = MultiIndex(tuple(base.p) + ((0, 0),) * j)
            key = CorrelatorKey(base.target, base.m, p, base.d)
            value = evaluate(key)
            assert evaluate_combination(apply_trr_kappa(key, (0, 0))) == value, key
            checked[value != 0] += 1
    assert checked[True] >= 20 and checked[False] >= 20, checked


# -- the string equation forward: a tau_0(e_0) point is forgotten -----------------------
#
# On a psi-free key with kappa classes of level >= 0, the comparison relation
# with a level-0 e_0 pivot removes the point and merges kappa classes with it,
# one factor per term.  evaluate takes it before the kappa recursion, except
# at degree 0 with three points, where the forgotten space does not exist.


def forward_string_keys(target: TargetModel, seed: int) -> list[CorrelatorKey]:
    """Psi-free keys with one or two tau_0(e_0) points, up to three other
    level-0 points, degree d <= 2 (>= 4 points at degree 0), with and without
    a kappa_{-1} class; kappa classes of level >= 0 other than kappa_0(e_0),
    drawn at random, fill the dimension."""
    rng = random.Random(seed)
    rank, gradings = target.rank, target.gradings
    keys = []
    for d, units, others, minus_one in product(range(3), (1, 2), range(4), (0, 1)):
        tau = [(0, 0, units)] + [(0, rng.randrange(rank), 1) for _ in range(others)]
        kappa = [(-1, rng.randrange(1, rank), 1)][:minus_one]
        base = make_key(target, tau=tau, kappa=kappa, d=d)
        if d == 0 and base.n < 4:
            continue
        gap = 2 * expected_dimension(base) - degree_sum(base)
        fill = []
        while gap > 0:
            a, beta = rng.randrange(gap // 2 + 1), rng.randrange(rank)
            if (a, beta) != (0, 0) and 2 * a + gradings[beta] <= gap:
                fill.append((a, beta, 1))
                gap -= 2 * a + gradings[beta]
        if fill and not gap:
            keys.append(make_key(target, tau=tau, kappa=kappa + fill, d=d))
    return keys


@pytest.mark.parametrize("index", range(5), ids=DIVISOR_TARGET_IDS)
def test_forward_string_equation_agrees_with_the_oracle(index):
    target, _ = divisor_targets()[index]
    shapes, nonzero = Counter(), 0
    for key in forward_string_keys(target, 83 + index):
        value = oracle(key)
        assert evaluate_combination(apply_puncture_dilaton(key, (0, 0))) == value, key
        assert evaluate(key) == value, key
        shapes[key.n if key.d else "degree 0", key.p.max_level, key.p[0][0] < 0] += 1
        nonzero += value != 0
    points = {n for n, _, _ in shapes}
    assert {1, 2, "degree 0"} <= points and max(n for n in points if n != "degree 0") >= 4
    assert any(minus_one for _, _, minus_one in shapes)
    assert any(level >= 1 for _, level, _ in shapes)
    assert nonzero >= 10, nonzero


def test_evaluate_forgets_a_unit_point_of_a_psi_free_kappa_key(monkeypatch):
    reached = []

    def recording(key, pivot):
        reached.append((key, pivot))
        return apply_puncture_dilaton(key, pivot)

    monkeypatch.setattr(correlators, "apply_puncture_dilaton", recording)
    correlators.clear_caches()
    key = make_key(P2, tau=[(0, 0, 1), (0, 1, 2)], kappa=[(0, 1, 1), (1, 1, 1)], d=1)
    assert evaluate(key) == oracle(key) == -1
    assert reached[0] == (key, (0, 0))
    assert {pivot for _, pivot in reached} == {(0, 0)}
    # no unit point; psi on fewer than three points; degree 0 with three points
    for other in (
        make_key(P1, kappa=[(0, 1, 4)], d=3),
        make_key(P2, tau=[(0, 1, 2), (0, 2, 1)], kappa=[(0, 1, 1)], d=1),
        make_key(P2, tau=[(0, 0, 1), (1, 1, 1)], kappa=[(0, 1, 2)], d=1),
        make_key(P2, tau=[(0, 0, 2), (0, 1, 1)], kappa=[(0, 1, 1)], d=0),
    ):
        count = len(reached)
        assert selection(other) and evaluate(other) == oracle(other), other
        assert other not in {k for k, _ in reached[count:]}, other


@pytest.mark.parametrize(
    "target, tau, kappa, value",
    [
        (P1, [(0, 0, 3)], [(0, 1, 1)], 1),
        (P1, [(0, 0, 3)], [(1, 0, 1)], 0),
        (P2, [(0, 0, 2), (0, 1, 1)], [(0, 1, 1)], 1),
        (P2, [(0, 0, 3)], [(1, 1, 1)], 0),
        (P3, [(0, 0, 1), (0, 1, 2)], [(0, 1, 1)], 1),
        (P3, [(0, 0, 2), (0, 2, 1)], [(0, 1, 1)], 1),
        (rescaled_p2(2), [(0, 0, 2), (0, 1, 1)], [(0, 1, 1)], 4),
    ],
    ids=["P1-k0", "P1-k1", "P2-k0", "P2-k1", "P3-k0-e1", "P3-k0-e2", "c-2-k0"],
)
def test_degree_zero_three_point_key_with_a_unit_point_takes_the_kappa_recursion(
    target, tau, kappa, value
):
    # M_{0,3}(V, 0) = V, where kappa_0(g) is g (psi on the P^1 fibre has
    # degree 1) and kappa_1(g) is 0; the forgotten space would be M_{0,2}
    key = make_key(target, tau=tau, kappa=kappa, d=0)
    correlators.clear_caches()
    assert evaluate(key) == oracle(key) == value, key


# -- degree-0 anchors: Weil-Petersson volumes of M_{0,n} ---------------------------------


def zograf_volumes(n_max: int) -> dict[int, Fraction]:
    """v_n = int over M_{0,n} of kappa_1^{n-3}, by Zograf's recursion (1993):
    v_3 = 1, v_n = 1/2 sum_{i=1}^{n-3} i(n-i-2)/(n-1) C(n-4, i-1) C(n, i+1)
    v_{i+2} v_{n-i}."""
    v = {3: Fraction(1)}
    for n in range(4, n_max + 1):
        v[n] = Fraction(1, 2) * sum(
            Fraction(i * (n - i - 2), n - 1) * comb(n - 4, i - 1) * comb(n, i + 1)
            * v[i + 2] * v[n - i]
            for i in range(1, n - 2)
        )
    return v


@pytest.mark.parametrize("target", [P1, P2], ids=["P1", "P2"])
def test_degree_zero_kappa_integrals_are_weil_petersson_volumes(target):
    # on M_{0,n}(V, 0) = M_{0,n} x V the point class leaves int_{M_{0,n}}
    volumes = zograf_volumes(9)
    assert [volumes[n] for n in range(4, 10)] == [1, 5, 61, 1379, 49946, 2648967]
    pt = target.rank - 1
    for n in range(4, 10):
        key = make_key(target, tau=[(0, 0, n - 1), (0, pt, 1)], kappa=[(1, 0, n - 3)], d=0)
        assert evaluate(key) == volumes[n], n
    # kappa_1 kappa_2 on M_{0,6}: the Arbarello-Cornalba pushforward from
    # M_{0,8} of psi_7^2 psi_8^3 is kappa_1 kappa_2 + kappa_3, so 5!/(2! 3!) - 1
    key = make_key(target, tau=[(0, 0, 5), (0, pt, 1)], kappa=[(1, 0, 1), (2, 0, 1)], d=0)
    assert evaluate(key) == 9


# -- keys are tuples ---------------------------------------------------------------------


def test_move_keys_equal_public_keys():
    key = make_key(P2, tau=[(2, 2, 1), (0, 2, 2), (0, 1, 1)], kappa=[(-1, 1, 1)], d=2)
    built = [k for keys, _ in apply_trr_psi(key, (2, 2), ((0, 2), (0, 2))) for k in keys]
    assert len(built) == 8
    for k in built:
        twin = make_key(
            k.target,
            tau=[(a, alpha, m) for (a, alpha), m in k.m.counts()],
            kappa=[(a, alpha, m) for (a, alpha), m in k.p.counts()],
            d=k.d,
        )
        assert (type(k), type(k.m), type(k.p)) == (CorrelatorKey, MultiIndex, MultiIndex)
        assert k == twin and hash(k) == hash(twin)
    # a key is the tuple of its fields, and an empty multi-index is falsy
    assert key == (P2, key.m, key.p, 2) and tuple(key.m) == key.m
    assert not MultiIndex() and MultiIndex() == () and key.p.max_level == -1
    assert "MultiIndex(((-1, 1),))" in repr(key)


def test_keys_pickle_and_deepcopy():
    key = make_key(P3, tau=[(1, 3, 1), (0, 2, 2)], kappa=[(0, 1, 1), (-1, 2, 2)], d=1)
    for clone in (pickle.loads(pickle.dumps(key)), copy.deepcopy(key), copy.copy(key)):
        assert type(clone) is CorrelatorKey and clone == key and hash(clone) == hash(key)
        assert type(clone.m) is MultiIndex and tuple(clone.p) == tuple(key.p)
        assert evaluate(clone) == evaluate(key)
    for idx in (key.m, key.p, MultiIndex()):
        for clone in (pickle.loads(pickle.dumps(idx)), copy.deepcopy(idx)):
            assert type(clone) is MultiIndex and clone == idx


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiIndex.from_list([(0, 1, 1.0)]),
        lambda: MultiIndex.from_list([(0, 1, -1)]),
        lambda: MultiIndex.from_list([(0, 1, 1), (0, 1, 0.5)]),
        lambda: MultiIndex.from_list([(0, 1, True)]),
        # a negative multiplicity is refused, not netted against its twin's
        lambda: evaluate(make_key(P1, tau=[(0, 1, 2), (0, 1, -1)], d=1)),
        lambda: CorrelatorKey(P1, MultiIndex.from_list([(-1, 0, 1)]), MultiIndex(), 1),
        lambda: CorrelatorKey(P1, MultiIndex(), MultiIndex.from_list([(-2, 0, 1)]), 1),
        lambda: CorrelatorKey(P1, MultiIndex.from_list([(0.0, 0, 1)]), MultiIndex(), 1),
        lambda: CorrelatorKey(P1, MultiIndex.from_list([(0, 2, 1)]), MultiIndex(), 1),
        lambda: CorrelatorKey(P1, MultiIndex(), MultiIndex.from_list([(0, -1, 1)]), 1),
        lambda: CorrelatorKey(P1, MultiIndex.from_list([(0, True, 1)]), MultiIndex(), 1),
        lambda: CorrelatorKey(P1, MultiIndex(), MultiIndex(), -1),
        lambda: CorrelatorKey(P1, MultiIndex(), MultiIndex(), 1.0),
        # a plain tuple of entries hashes and compares as the index does, so
        # the memo would hand it the value of <tau_0(e_1)^3>_1 = 1
        lambda: evaluate(CorrelatorKey(P1, ((0, 1),) * 3, (), 1)),
        lambda: CorrelatorKey(P1, MultiIndex(), (), 1),
        lambda: CorrelatorKey(None, MultiIndex(), MultiIndex(), 1),
    ],
    ids=[
        "float-multiplicity",
        "negative-multiplicity",
        "float-added-multiplicity",
        "bool-multiplicity",
        "negative-multiplicity-after-its-twin",
        "tau-level-below-0",
        "kappa-level-below-minus-1",
        "float-level",
        "class-too-large",
        "negative-class",
        "bool-class",
        "negative-degree",
        "float-degree",
        "tuple-parts",
        "tuple-kappa-part",
        "no-target-model",
    ],
)
def test_public_constructors_reject_bad_input(build):
    with pytest.raises(ValueError):
        build()


# -- the solved degree split ---------------------------------------------------------------


def _scanned_split(key, m0, p0, left_tau, left_kappa, right_tau):
    """The boundary split as a plain scan, the reference for the solved one:
    every eta^{-1} pair at every degree split b1, both factors checked by the
    selection rule."""
    target, d = key.target, key.d
    g, balanced = target.gradings, target.balanced
    left_m, left_p, right_m = (MultiIndex(side) for side in (left_tau, left_kappa, right_tau))
    terms = []
    for m1, m2, mbin, _ in _split_table(m0):
        left, right = m1.merge(left_m), m2.merge(right_m)
        for p1, p2, pbin, _ in _split_table(p0):
            p1 = p1.merge(left_p)
            deg1 = _index_degree(g, left) + _index_degree(g, p1)
            deg2 = _index_degree(g, right) + _index_degree(g, p2)
            for s1, s2, w in target.eta_inverse_pairs():
                for b1 in range(d + 1):
                    if balanced(deg1 + g[s1], len(left) + 1, b1) and balanced(
                        deg2 + g[s2], len(right) + 1, d - b1
                    ):
                        k1 = _valid_key((target, left.add(0, s1), p1, b1))
                        k2 = _valid_key((target, right.add(0, s2), p2, d - b1))
                        pair = (k1, k2) if 2 * b1 <= d else (k2, k1)
                        terms.append((pair, mbin * pbin * w))
    return terms


def _p2_ring(c1: int) -> TargetModel:
    """The ring of P^2 with c1 paired to the unit degree as ``c1``."""
    return TargetModel(
        name=f"P2 ring with c1 degree {c1}",
        gradings=P2.gradings,
        eta=P2.eta,
        cup=P2.cup,
        c1_degree=c1,
        divisor_pairings=P2.divisor_pairings,
    )


# Keys that fail the selection rule, so the split gives no terms.  Without
# that check the solved split, which checks only its left factor, emits terms
# for all but the last key (unstable: two points at degree 0).  Their kappa
# pivots have level >= 1, since a level-0 pivot adds its cup terms whatever
# the key.
UNBALANCED = [
    make_key(P1, tau=[(2, 1, 1), (0, 1, 2)], d=1),
    make_key(P3, tau=[(1, 2, 1), (0, 3, 2), (0, 1, 1)], d=1),
    make_key(P1, tau=[(0, 1, 2)], kappa=[(1, 1, 1)], d=1),
    make_key(P2, tau=[(0, 2, 3)], kappa=[(1, 1, 1)], d=1),
    make_key(P2, tau=[(0, 2, 2), (0, 1, 1)], kappa=[(2, 0, 1)], d=2),
    make_key(P1, tau=[(0, 0, 2)], kappa=[(1, 1, 1)], d=0),
]


@pytest.mark.parametrize(
    "targets", [[P1, P2, P3], [_p2_ring(0)], [_p2_ring(-1)]], ids=["P1-P3", "c1-0", "c1-neg"]
)
def test_solved_split_emits_the_scanned_terms(monkeypatch, targets):
    keys = sample_relation_keys(targets, 36, seed=13, d_max=3)

    def split_moves(keys):
        return [
            (name, Counter(terms))
            for key in keys
            for name, terms in _moves(key)
            if name.startswith("trr")
        ]

    solved, solved_off = split_moves(keys), split_moves(UNBALANCED)
    monkeypatch.setattr(correlators, "_boundary_split", _scanned_split)
    scanned, scanned_off = split_moves(keys), split_moves(UNBALANCED)
    assert solved == scanned
    assert solved_off == scanned_off
    assert all(not selection(key) for key in UNBALANCED)
    assert all(not terms for _, terms in solved_off)
    assert Counter(name for name, _ in solved_off) == {"trr-psi": 2, "trr-kappa": 4}
    names = Counter(name for name, _ in solved)
    assert min(names["trr-psi"], names["trr-kappa"]) >= 5, names
    assert sum(sum(terms.values()) for _, terms in solved) > 200


def _pure_key(target, classes, d):
    return make_key(target, tau=[(0, c, 1) for c in classes], d=d)


# pure keys (level-0 points of grading >= 4, no kappa) that the pure step
# reconstructs by WDVV, with and without spectators
WDVV_KEYS = [
    (P2, (2, 2, 2, 2, 2), 2),
    (P2, (2,) * 8, 3),
    (P3, (2, 2, 3), 1),
    (P3, (2, 2, 2, 2), 1),
    (P3, (3, 3, 3, 3), 2),
    (P3, (2, 2, 2, 2, 3, 3), 2),
    (Q3_TARGET, (2, 2, 2), 1),
    (Q3_TARGET, (3, 3, 3), 2),
    (Q3_TARGET, (2, 2, 3, 3), 2),
]


def test_solved_split_at_one_point_more_emits_the_scanned_terms():
    # WDVV splits the key's smallest class e_s into e_1 and e_{s-1}, so the
    # split runs on the (n+1)-pointed space: two fixed insertions per side,
    # the key's other classes spectating and no kappa classes
    calls = []
    for target, classes, d in WDVV_KEYS:
        key = _pure_key(target, classes, d)
        assert selection(key)
        s, e, top = classes[0], classes[1], classes[-1]
        spect = key.m.remove(0, s).remove(0, e).remove(0, top)
        calls.append((key, spect, key.p, [(0, s - 1), (0, top)], [], ((0, 1), (0, e))))
        calls.append((key, spect, key.p, [(0, 1), (0, s - 1)], [], ((0, top), (0, e))))
    solved = [Counter(correlators._boundary_split(*call)) for call in calls]
    assert solved == [Counter(_scanned_split(*call)) for call in calls]
    assert len(calls) == 18 and all(solved)
    assert sum(sum(terms.values()) for terms in solved) > 40


@pytest.mark.parametrize(
    "target, classes, d",
    [
        (P1, (1, 1, 1), 1),
        (P2, (2, 2, 2, 2, 2), 2),
        (P2, (1, 2, 2, 2, 2, 2), 2),
        (P3, (2, 2, 2, 2), 1),
        (P3, (3, 3, 3, 2, 2), 2),
        (Q3_TARGET, (3, 3, 3), 2),
        (Q3_TARGET, (2, 3, 3, 2), 2),
        (rescaled_p2(2), (2, 2, 2, 2, 2), 2),
        (rescaled_p2(Fraction(1, 2)), (1, 2, 2, 2, 2, 2), 2),
    ],
    ids=["P1", "P2", "P2-divisor", "P3", "P3-mixed", "Q3", "Q3-mixed", "c-2", "c-1/2"],
)
def test_pure_gw_is_evaluate_of_the_level_zero_key(target, classes, d):
    correlators.clear_caches()
    value = pure_gw(target, iter(classes), d)  # a one-shot iterator, read once
    assert value != 0
    hits = evaluate.cache_info().hits
    assert evaluate(_pure_key(target, classes, d)) == value
    # pure_gw filled evaluate's memo: one memo holds the pure invariants
    assert evaluate.cache_info().hits == hits + 1


def test_two_sided_checks_use_another_move_than_evaluate(monkeypatch):
    """On the pool of ``verify --suite trr --r 1 --r 2 --r 3 --samples 50
    --seed 5``, every recursion line whose key offers a choice of pivot and
    co-pivots other than the one ``evaluate`` took uses such a choice."""
    engine, checks = {}, []

    def recording(move, kind, record):
        def wrapped(key, pivot, copivots=None):
            # the kappa recursion's default co-pivots are the first two points
            pair = tuple(sorted(copivots or key.m[:2]))
            record(key, (kind, pivot, pair))
            return move(key, pivot, copivots)

        return wrapped

    for module, record in (
        (correlators, engine.__setitem__),
        (verify, lambda key, move: checks.append((key, move))),
    ):
        monkeypatch.setattr(module, "apply_trr_psi", recording(apply_trr_psi, "psi", record))
        monkeypatch.setattr(module, "apply_trr_kappa", recording(apply_trr_kappa, "kappa", record))
    correlators.clear_caches()  # so evaluate applies its move to each key
    for key in sample_relation_keys([P1, P2, P3], 50, seed=5):
        two_sided_checks(key)

    def choices(key, kind, level):
        """Every move of ``kind`` on ``key`` with a pivot of the same sort
        (psi; kappa of level >= 1; kappa of level 0) as one of ``level``."""
        points = key.m
        if kind == "psi":
            pivots = {e for e in points if e[0] >= 1}
        else:
            pivots = {e for e in key.p if (e[0] >= 1 if level >= 1 else e[0] == 0)}
        for pivot in pivots:
            others = list(points)
            if kind == "psi":
                others.remove(pivot)
            for pair in combinations(others, 2):
                yield kind, pivot, pair

    lines = Counter()
    for key, move in checks:
        taken = engine.get(key)
        if set(choices(key, move[0], move[1][0])) - {taken}:
            assert move != taken, (key, move)
            lines[move[0], taken is not None and taken[0] == move[0]] += 1
    # lines whose key evaluate reduced by the same recursion, and the rest;
    # evaluate reads kappa_0(e_0) as n - 2 and forgets a tau_0(e_0) point of a
    # psi-free kappa key, so it reduces no key with a kappa line by the kappa
    # recursion
    assert lines == {
        ("psi", True): 12,
        ("psi", False): 10,
        ("kappa", False): 54,
    }, lines


# -- the divisor equation read backwards -----------------------------------------------------


def test_divisor_backwards_rejects_kappa_of_level_zero_or_more():
    # the pullbacks of kappa classes of level >= 0 add terms the move does not
    # emit: its terms would sum to 0 here
    key = make_key(P3, tau=[(0, 0, 1), (1, 2, 1)], kappa=[(0, 2, 1), (1, 1, 1), (1, 2, 1)], d=2)
    assert evaluate(key) == oracle(key) == 1
    with pytest.raises(ValueError, match="kappa"):
        _divisor_backwards(key)
    # kappa_{-1} classes alone are fine
    lifted = make_key(P1, tau=[(1, 1, 1)], kappa=[(-1, 1, 1)], d=2)
    assert evaluate_combination(_divisor_backwards(lifted)) == evaluate(lifted)


# -- degree-0 closed forms: M_{0,n}(V, 0) = M_{0,n} x V ----------------------------------


def _points(types, n, budget):
    """Multisets of n of ``types`` ((level, class, degree) triples, taken in
    order) whose degrees sum to ``budget``, as lists of (level, class)."""
    if n == 0:
        if budget == 0:
            yield []
        return
    for i, (a, alpha, degree) in enumerate(types):
        if degree <= budget:
            for rest in _points(types[i:], n - 1, budget - degree):
                yield [(a, alpha), *rest]


def _integral_over_target(target, classes):
    """int_V of the cup product of ``classes``, read off the cup and pairing
    tensors: int_V e_nu = eta(e_nu, e_0)."""
    vec = {0: Fraction(1)}
    for alpha in classes:
        out = {}
        for mu, c in vec.items():
            for nu, x in enumerate(target.cup[mu][alpha]):
                if x:
                    out[nu] = out.get(nu, 0) + c * x
        vec = out
    return sum(c * target.eta[nu][0] for nu, c in vec.items())


def _triples(entries):
    return [(a, alpha, count) for (a, alpha), count in Counter(entries).items()]


@pytest.mark.parametrize(
    "target",
    [P1, P2, P3, rescaled_p2(2), rescaled_p2(Fraction(1, 2))],
    ids=["P1", "P2", "P3", "c-2", "c-1/2"],
)
def test_degree_zero_keys_match_their_closed_forms(target):
    # at degree 0 a psi class comes from M_{0,n} and kappa_b(f) is kappa_b x f,
    # of degree b there; kappa_{-1}(f) pushes forward to degree -2, so it is 0.
    # So int psi^a ev^*(e) = (n-3)!/prod a_i! int_V prod e_i when sum a_i = n - 3,
    # and a key is 0 when its psi and kappa levels miss n - 3 or it has a kappa_{-1}
    g, dim = target.gradings, target.dim_complex
    checked = Counter()
    for n in range(3, 8):
        levels = range(0, n - 2)
        point_types = [(a, alpha, 2 * a + g[alpha]) for a in levels for alpha in range(target.rank)]
        kappa_types = [(b, beta) for b in range(-1, n - 2) for beta in range(target.rank)]
        for kappa in [()] + [(k,) for k in kappa_types] + (
            list(combinations_with_replacement(kappa_types, 2)) if n <= 5 else []
        ):
            budget = 2 * (dim + n - 3) - sum(2 * b + g[beta] for b, beta in kappa)
            for points in _points(point_types, n, budget):
                key = make_key(target, _triples(points), _triples(kappa), 0)
                psi = sum(a for a, _ in points)
                if not kappa:
                    expected = 0
                    if psi == n - 3:
                        expected = Fraction(factorial(n - 3), prod(factorial(a) for a, _ in points))
                        expected *= _integral_over_target(target, [alpha for _, alpha in points])
                    assert evaluate(key) == expected, key
                    checked["psi", bool(expected)] += 1
                elif psi + sum(b for b, _ in kappa) != n - 3 or min(kappa)[0] < 0:
                    assert evaluate(key) == 0, key
                    checked["kappa", 0] += 1
    assert checked["psi", True] and checked["psi", False] and checked["kappa", 0], checked
