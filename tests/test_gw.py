import random
from fractions import Fraction
from math import comb, factorial

import pytest

from gwtaut.gw import gw_potential_series, pure_gw
from gwtaut.potentials import wdvv_residuals
from gwtaut.series import QSeries, Truncation
from gwtaut.target import projective_space, target_from_config


def kontsevich_counts(d_max: int) -> dict[int, int]:
    """Independent oracle: the plane-curve recursion compiled from WDVV.

    N_d = sum over d1 + d2 = d of N_{d1} N_{d2}
          (d1^2 d2^2 C(3d-4, 3d1-2) - d1^3 d2 C(3d-4, 3d1-1)), N_1 = 1.
    """
    counts = {1: 1}
    for d in range(2, d_max + 1):
        total = 0
        for d1 in range(1, d):
            d2 = d - d1
            total += (
                counts[d1]
                * counts[d2]
                * (
                    d1 * d1 * d2 * d2 * comb(3 * d - 4, 3 * d1 - 2)
                    - d1**3 * d2 * comb(3 * d - 4, 3 * d1 - 1)
                )
            )
        counts[d] = total
    return counts


def test_p1_basic_values():
    p1 = projective_space(1)
    assert pure_gw(p1, [1, 1, 1], 1) == 1
    assert pure_gw(p1, [0, 0, 1], 0) == 1
    assert pure_gw(p1, [], 1) == 1
    assert pure_gw(p1, [1] * 5, 1) == 1  # divisor strips to the seed
    assert pure_gw(p1, [0, 1, 1], 1) == 0  # unit axiom
    assert pure_gw(p1, [1, 1], 2) == 0  # selection


def test_p2_line_through_two_points():
    assert pure_gw(projective_space(2), [2, 2], 1) == 1


def test_p2_counts_match_kontsevich_oracle():
    p2 = projective_space(2)
    oracle = kontsevich_counts(6)
    assert [oracle[d] for d in range(1, 7)] == [1, 1, 12, 620, 87304, 26312976]
    for d in range(1, 7):
        assert pure_gw(p2, [2] * (3 * d - 1), d) == oracle[d]


def test_p3_classical_line_counts():
    p3 = projective_space(3)
    assert pure_gw(p3, [3, 3], 1) == 1  # the line through two points
    assert pure_gw(p3, [3, 2, 2], 1) == 1  # point and two lines
    assert pure_gw(p3, [2, 2, 2, 2], 1) == 2  # lines meeting four lines


def test_selection_rule_randomized():
    rng = random.Random(3)
    p2 = projective_space(2)
    for _ in range(60):
        n = rng.randint(0, 5)
        classes = [rng.randint(0, 2) for _ in range(n)]
        d = rng.randint(0, 3)
        if d == 0 and n < 3:
            assert pure_gw(p2, classes, d) == 0
            continue
        if not p2.balanced(sum(p2.gradings[a] for a in classes), n, d):
            assert pure_gw(p2, classes, d) == 0


def test_symmetry_under_permutation():
    rng = random.Random(5)
    p2 = projective_space(2)
    for _ in range(10):
        classes = [rng.randint(0, 2) for _ in range(5)]
        d = 2
        reference = pure_gw(p2, classes, d)
        shuffled = classes[:]
        rng.shuffle(shuffled)
        assert pure_gw(p2, shuffled, d) == reference


def test_divisor_axiom_randomized():
    rng = random.Random(9)
    for r in (1, 2):
        target = projective_space(r)
        for _ in range(20):
            classes = [rng.randint(0, r) for _ in range(rng.randint(0, 4))]
            d = rng.randint(1, 3)
            assert pure_gw(target, classes + [1], d) == d * pure_gw(
                target, classes, d
            )


def test_p1_potential_series():
    p1 = projective_space(1)
    series = gw_potential_series(p1, (3, 6), 1)
    reg, tr = series.registry, series.trunc
    x0 = QSeries.variable(reg, tr, "t", 0, 0)
    x1 = QSeries.variable(reg, tr, "t", 0, 1)
    q = QSeries.variable(reg, tr, "q", 0, 0)
    expected = x0 * x0 * x1 * Fraction(1, 2) + q * x1.exp()
    assert series == expected


def test_p2_potential_top_coefficient():
    p2 = projective_space(2)
    series = gw_potential_series(p2, (3, 3, 9), 3)
    # q^3 x2^8 coefficient is N_3 / 8!
    assert series.coefficient((0, 0, 8, 3)) == Fraction(12, factorial(8))


def test_degree_zero_layer_is_classical_cubic():
    p3 = projective_space(3)
    series = gw_potential_series(p3, (3, 3, 3, 3), 0)
    for exps, coeff in series.items():
        classes = [alpha for alpha in range(4) for _ in range(exps[alpha])]
        assert len(classes) == 3
        weight = Fraction(1)
        for k in exps[:-1]:
            weight /= factorial(k)
        assert coeff == p3.triple_integral(*classes) * weight
    # spot value: x0 x1 x2 has integral 1
    assert series.coefficient((1, 1, 1, 0, 0)) == 1


def test_custom_target_without_seed_errors():
    config = {
        "type": "custom",
        "name": "seedless",
        "gradings": [0, 2],
        "eta": [[0, 1], [1, 0]],
        "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        "c1_degree": 2,
        "divisor_pairings": [[1, "1/1"]],
    }
    clone = target_from_config(config)
    assert pure_gw(clone, [0, 0, 1], 0) == 1  # classical sector still works
    with pytest.raises(ValueError, match="seed"):
        pure_gw(clone, [], 1)


# rank-3 ring with a non-hyperplane cup structure: e1*e1 = 2 e2
QUADRIC_LIKE = {
    "type": "custom",
    "name": "quadric-like",
    "gradings": [0, 2, 4],
    "eta": [[0, 0, 1], [0, 2, 0], [1, 0, 0]],
    "cup": [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 2], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ],
    "c1_degree": 2,
    "divisor_pairings": [[1, "1/1"]],
}


# Q^3 in P^4 on the basis 1, H, H^2, H^3, as in the test below: H^3 is twice
# the point class, so eta(H^a, H^b) = 2 when a + b = 3; seed <H^2, H^3>_1 = 4
Q3 = {
    "type": "custom",
    "name": "Q3",
    "gradings": [0, 2, 4, 6],
    "eta": [[2 if a + b == 3 else 0 for b in range(4)] for a in range(4)],
    "cup": [[[1 if nu == a + b else 0 for nu in range(4)] for b in range(4)] for a in range(4)],
    "c1_degree": 3,
    "divisor_pairings": [[1, 1]],
    "seeds": [[[2, 3], 1, 4]],
}


def test_non_monogenic_target_needs_seeds():
    quadric = target_from_config(QUADRIC_LIKE)
    assert not quadric.is_monogenic
    # selection-valid key: class degrees 12 = 2 * (2 + 3 - 3 + 2*2)
    with pytest.raises(ValueError, match="(seed|hyperplane)"):
        pure_gw(quadric, [2, 2, 2], 2)


def test_quadric_threefold_as_custom_target():
    # Q^3 in P^4 on the basis 1, H, H^2, H^3: H^3 is twice the point class,
    # so eta(H^a, H^b) = 2 when a + b = 3; seed <H^2, H^3>_1 = 4
    config = {
        "type": "custom",
        "name": "Q3",
        "gradings": [0, 2, 4, 6],
        "eta": [[2 if a + b == 3 else 0 for b in range(4)] for a in range(4)],
        "cup": [
            [[1 if nu == a + b else 0 for nu in range(4)] for b in range(4)]
            for a in range(4)
        ],
        "c1_degree": 3,
        "divisor_pairings": [[1, 1]],
        "seeds": [[[2, 3], 1, 4]],
    }
    q3 = target_from_config(config)
    assert q3.is_monogenic
    # one conic through three general points, each point class H^3 / 2
    assert pure_gw(q3, (3, 3, 3), 2) == 8
    residuals = wdvv_residuals(gw_potential_series(q3, (3, 6, 6, 6), 3), q3)
    assert len(residuals) == 96
    assert all(r.is_zero() for r in residuals.values())
