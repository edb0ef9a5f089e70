import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from gwtaut.correlators import (
    CorrelatorKey,
    MultiIndex,
    apply_puncture_dilaton,
    apply_trr_kappa,
    apply_trr_psi,
    evaluate,
    evaluate_combination,
    evaluate_kappa_first,
    evaluate_tree_sum,
    expected_dimension,
    lift_kappa_minus_one,
    make_key,
    selection,
)
from gwtaut.gw import pure_gw
from gwtaut.target import projective_space
from gwtaut.trees import kappa_boundary_presentation, psi_boundary_presentation
from gwtaut.verify import random_admissible_key, sample_relation_keys

P1 = projective_space(1)
P2 = projective_space(2)
P3 = projective_space(3)


def test_multi_index_bookkeeping():
    m = MultiIndex.from_list([(0, 1, 2), (1, 0, 1)])
    assert m.size == 3 and m.norm == 3 and m.weight == 1
    assert m.factorial() == 2
    p = MultiIndex.from_list([(-1, 1, 2), (0, 1, 1)])
    assert p.size == 3 and p.norm == 1 and p.weight == 0
    assert p.nonneg_part().entries == (((0, 1), 1),)
    assert p.neg_part().entries == (((-1, 1), 2),)
    assert len(list(m.splits())) == 6  # (2+1)*(1+1)
    assert sorted(b for _, _, b in m.splits()) == [1, 1, 1, 1, 2, 2]
    assert all(type(b) is int for _, _, b in m.splits())


def test_multi_index_validation():
    with pytest.raises(ValueError):
        MultiIndex.from_list([(0, 1, -1)])
    with pytest.raises(ValueError):
        make_key(P1, tau=[(-1, 0, 1)], d=0)
    with pytest.raises(ValueError):
        make_key(P1, kappa=[(-2, 0, 1)], d=0)
    with pytest.raises(ValueError):
        make_key(P1, tau=[(0, 5, 1)], d=0)


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
    comb = apply_puncture_dilaton(key, (1, 0))
    terms = comb.items()
    assert len(terms) == 1
    (keys, coeff) = terms[0]
    assert coeff == 1
    assert keys[0].p.entries == (((0, 0), 1),)
    assert evaluate_combination(comb) == 0  # kappa_{0,0} gives n - 2 = 0
    assert evaluate(key) == 0


def test_comparison_cup_kills_terms():
    key = make_key(P1, tau=[(0, 1, 1)], kappa=[(0, 1, 1)], d=1)
    comb = apply_puncture_dilaton(key, (0, 1))
    # the split putting kappa_{0,1} upstairs needs e1 . e1 = 0 on P1
    assert all(k.p.min_level == -1 for keys, _ in comb.items() for k in keys)


def test_comparison_rejects_missing_space():
    key = make_key(P1, tau=[(1, 0, 1), (0, 1, 2)], d=0)
    with pytest.raises(ValueError, match="does not exist"):
        apply_puncture_dilaton(key, (1, 0))


def test_comparison_rejects_level_zero_pivot_with_psi():
    key = make_key(P1, tau=[(1, 0, 1), (0, 1, 1)], d=1)
    with pytest.raises(ValueError, match="level 0"):
        apply_puncture_dilaton(key, (0, 1))


# -- topological recursion relations --------------------------------------------------


def test_trr_psi_two_sided():
    key = make_key(P1, tau=[(1, 0, 1), (0, 1, 2)], d=1)
    comb = apply_trr_psi(key, (1, 0), ((0, 1), (0, 1)))
    assert evaluate(key) == evaluate_combination(comb)


def test_trr_psi_rejects_level_zero_pivot():
    key = make_key(P1, tau=[(0, 1, 3)], d=1)
    with pytest.raises(ValueError):
        apply_trr_psi(key, (0, 1), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        apply_trr_psi(key, (1, 0), ((0, 1), (0, 1)))  # pivot absent


def test_trr_psi_on_unstable_splits_vanishes():
    # three points at degree 0: every split has an unstable factor
    key = make_key(P1, tau=[(1, 1, 1), (0, 1, 1), (0, 0, 1)], d=0)
    comb = apply_trr_psi(key, (1, 1), ((0, 1), (0, 0)))
    assert evaluate_combination(comb) == 0
    assert evaluate(key) == 0


def test_trr_binomial_bookkeeping():
    # background tau_0^1 x 2; splits sending one copy left carry binom(2,1) = 2
    key = make_key(P1, tau=[(3, 0, 1), (0, 0, 2), (0, 1, 2)], d=1)
    assert selection(key)
    comb = apply_trr_psi(key, (3, 0), ((0, 0), (0, 0)))
    left = make_key(P1, tau=[(2, 0, 1), (0, 0, 1), (0, 1, 1)], d=1)
    right = make_key(P1, tau=[(0, 0, 2), (0, 1, 2)], d=0)
    found = [
        coeff
        for keys, coeff in comb.items()
        if set(keys) == {left, right}
    ]
    assert found == [Fraction(2)]


def _boundary_moves(key):
    """The psi and kappa recursion moves whose preconditions the key meets."""
    points = key.m.expand()
    psi_pivots = [e for e in points if e[0] >= 1]
    if psi_pivots and len(points) >= 3:
        pivot = max(psi_pivots)
        others = list(points)
        others.remove(pivot)
        yield apply_trr_psi(key, pivot, (others[0], others[1]))
    if len(points) >= 2:
        for pivot in sorted({e for e in key.p.expand() if e[0] >= 0}):
            yield apply_trr_kappa(key, pivot)


def test_boundary_moves_emit_only_balanced_terms():
    moves = 0
    for key in sample_relation_keys([P1, P2, P3], 24, seed=5, d_max=2):
        # the kappa-first route trades kappa classes for psi powers by the
        # comparison relation instead of demoting them by the kappa recursion
        expected = evaluate_kappa_first(key)
        for comb in _boundary_moves(key):
            moves += 1
            assert all(selection(k) for keys, _ in comb.items() for k in keys)
            assert evaluate_combination(comb) == expected
        # an extra unit insertion unbalances the key: no split balances both sides
        unbalanced = CorrelatorKey(key.target, key.m.add(0, 0), key.p, key.d)
        for comb in _boundary_moves(unbalanced):
            assert all(len(keys) == 1 for keys, _ in comb.items())
    assert moves >= 40
    # both routes run the same split loop, so their agreement cannot catch a
    # split that drops valid terms; anchor it on the dilaton equation
    # <tau_1(e0) X>_d = (n - 2) <X>_d with X pure, whose split factors all
    # lift to pure_gw without further moves
    for target, classes, d in ((P1, (1, 1, 1), 1), (P2, (2,) * 5, 2), (P3, (3, 3, 1), 1)):
        key = make_key(target, tau=[(1, 0, 1)] + [(0, c, 1) for c in classes], d=d)
        comb = apply_trr_psi(key, (1, 0), ((0, classes[0]), (0, classes[1])))
        expected = (len(classes) - 2) * pure_gw(target, classes, d)
        assert evaluate_combination(comb) == expected != 0


def test_trr_kappa_zero_reproduces_point_count():
    key = make_key(P1, tau=[(0, 1, 2)], kappa=[(0, 0, 1)], d=1)
    comb = apply_trr_kappa(key, (0, 0))
    assert evaluate_combination(comb) == 0  # (n - 2) = 0 here
    assert evaluate(key) == 0

    key2 = make_key(P1, tau=[(0, 0, 2), (0, 1, 1)], kappa=[(0, 0, 1)], d=0)
    assert evaluate(key2) == 1  # (n - 2) <e0 e0 e1>_0 = 1


def test_trr_kappa_copivot_choice_independence():
    key = make_key(P1, tau=[(0, 0, 1), (0, 1, 2)], kappa=[(0, 1, 1)], d=2)
    points = key.m.expand()
    values = set()
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            comb = apply_trr_kappa(key, (0, 1), (points[i], points[j]))
            values.add(evaluate_combination(comb))
    assert len(values) == 1
    assert values.pop() == evaluate(key)


def test_trr_kappa_needs_two_copivots():
    key = make_key(P1, tau=[(0, 1, 1)], kappa=[(1, 1, 1)], d=2)
    with pytest.raises(ValueError, match="co-pivot"):
        apply_trr_kappa(key, (1, 1))


# -- the terminal lift ------------------------------------------------------------------


def test_lift_to_pure_invariants():
    key = make_key(P1, tau=[(0, 1, 2)], kappa=[(-1, 1, 1)], d=1)
    classes, d = lift_kappa_minus_one(key)
    assert classes == (1, 1, 1) and d == 1
    assert pure_gw(P1, classes, d) == 1
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


# Givental's J-function of P^2, z e^{tH/z} sum_d q^d e^{dt} / prod_{k=1}^{d} (H + kz)^3,
# holds <tau_a(e_alpha)>_d as its q^d z^{-a-1} coefficient along the dual of e_alpha.
J_FUNCTION_P2 = [
    (1, 2, 1, Fraction(1)),
    (4, 2, 2, Fraction(1, 8)),
    (2, 1, 1, Fraction(-3)),
    (3, 0, 1, Fraction(6)),
]


@pytest.mark.parametrize(
    "evaluator", [evaluate, evaluate_kappa_first], ids=["main", "kappa_first"]
)
@pytest.mark.parametrize("a, alpha, d, value", J_FUNCTION_P2)
def test_one_point_descendants_match_j_function(evaluator, a, alpha, d, value):
    # the comparison relation turns tau_a(e_alpha) into a zero-point kappa key,
    # which the divisor trick solves for
    assert evaluator(make_key(P2, tau=[(a, alpha, 1)], d=d)) == value


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
            assert evaluate(key) == evaluate_kappa_first(key)


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
