from fractions import Fraction

import pytest

from gwtaut.gw import pure_gw
from gwtaut.target import TargetModel, projective_space, target_from_config
from test_correlators import rescaled_p2
from test_gw import QUADRIC_LIKE


def test_cup_on_p2():
    p2 = projective_space(2)
    assert p2.cup_product(1, 1) == {2: 1}


def test_cup_on_p1_top_truncation():
    p1 = projective_space(1)
    assert p1.cup_product(1, 1) == {}


def test_unit_acts_trivially():
    for r in (1, 2, 4):
        t = projective_space(r)
        for alpha in range(r + 1):
            assert t.cup_product(0, alpha) == {alpha: 1}


def test_pairing_values():
    p1 = projective_space(1)
    assert p1.eta[0][1] == 1
    assert p1.eta[0][0] == 0
    p2 = projective_space(2)
    assert p2.eta_inverse_pairs() == ((0, 2, 1), (1, 1, 1), (2, 0, 1))


def test_moduli_dimension():
    p1 = projective_space(1)
    assert p1.moduli_dimension(3, 0) == 1
    for n in range(4):
        for d in range(1, 4):
            assert p1.moduli_dimension(n, d) == -2 + n + 2 * d
    p2 = projective_space(2)
    assert p2.moduli_dimension(0, 1) == 2


def test_moduli_dimension_unstable():
    with pytest.raises(ValueError):
        projective_space(1).moduli_dimension(2, 0)


def test_moduli_dimension_universal_curve():
    p3 = projective_space(3)
    for n in range(3, 6):
        for d in range(3):
            assert p3.moduli_dimension(n + 1, d) == p3.moduli_dimension(n, d) + 1


def test_per_unit_pairing_table():
    assert projective_space(1).divisor_class(3) == (1, 3)
    assert projective_space(2).divisor_class(2) == (1, 2)
    # e_0 is the unit (0 per unit); e_2 of P^2 is no divisor, so it is not listed
    assert projective_space(2).kappa_minus_one_per_unit() == {0: 0, 1: 1}
    with pytest.raises(ValueError, match="no divisor class"):
        projective_space(2).divisor_class(0)


def test_cup_associativity_exhaustive():
    for r in range(1, 7):
        t = projective_space(r)
        for a in range(r + 1):
            for b in range(r + 1):
                for c in range(r + 1):
                    left = {}
                    for nu, coef in t.cup_product(a, b).items():
                        for mu, coef2 in t.cup_product(nu, c).items():
                            left[mu] = left.get(mu, Fraction(0)) + coef * coef2
                    right = {}
                    for nu, coef in t.cup_product(b, c).items():
                        for mu, coef2 in t.cup_product(a, nu).items():
                            right[mu] = right.get(mu, Fraction(0)) + coef * coef2
                    assert left == right


def test_eta_cup_compatibility():
    for r in range(1, 5):
        t = projective_space(r)
        for a in range(r + 1):
            for b in range(r + 1):
                for c in range(r + 1):
                    assert t.triple_integral(a, b, c) == t.triple_integral(b, c, a)


def test_custom_config_round_trip():
    p1 = projective_space(1)
    config = {
        "type": "custom",
        "name": "clone-of-P1",
        "gradings": [0, 2],
        "eta": [[0, 1], [1, 0]],
        "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        "c1_degree": 2,
        "divisor_pairings": [[1, "1/1"]],
        "seeds": [[[], 1, "1/1"]],
    }
    clone = target_from_config(config)
    assert clone.gradings == p1.gradings
    assert clone.eta == p1.eta
    assert clone.cup == p1.cup
    assert clone.is_monogenic
    assert target_from_config({"type": "projective_space", "r": 3}).rank == 4


def test_odd_cohomology_rejected():
    config = {
        "type": "custom",
        "gradings": [0, 1],
        "eta": [[0, 1], [1, 0]],
        "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        "c1_degree": 2,
    }
    with pytest.raises(ValueError):
        target_from_config(config)


def test_degenerate_eta_rejected():
    config = {
        "type": "custom",
        "gradings": [0, 2],
        "eta": [[0, 0], [0, 0]],
        "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        "c1_degree": 2,
    }
    with pytest.raises(ValueError, match="eta is degenerate"):
        target_from_config(config)


def _fields(r, **changes):
    """The fields of P^r, with ``changes`` applied."""
    pr = projective_space(r)
    fields = dict(
        name=f"P{r}-variant",
        gradings=pr.gradings,
        eta=pr.eta,
        cup=pr.cup,
        c1_degree=pr.c1_degree,
        divisor_pairings=pr.divisor_pairings,
        seeds=pr.seeds,
    )
    fields.update(changes)
    return fields


# Every kind of inexact field entry a target once accepted: with the float
# pairing, <kappa_0(e_1)^4>_3 on P^1 came out as the float 4.0, not 4.
INEXACT = {
    "eta float": dict(eta=((0.0, 1.0), (1.0, 0.0))),
    "eta bool": dict(eta=((False, True), (True, False))),
    "cup float": dict(cup=(((1, 0), (0, 1)), ((0, 1.0), (0, 0)))),
    "cup bool": dict(cup=(((1, 0), (0, 1)), ((0, True), (0, 0)))),
    "divisor pairing float": dict(divisor_pairings=((1, 1.0),)),
    "divisor pairing bool": dict(divisor_pairings=((1, True),)),
    "seed float": dict(seeds=(((), 1, 1.0),)),
    "seed bool": dict(seeds=(((), 1, True),)),
    "grading float": dict(gradings=(0, 2.0)),
    "grading bool": dict(gradings=(False, 2)),
    "c1_degree float": dict(c1_degree=2.0),
    "c1_degree bool": dict(c1_degree=True),
}


@pytest.mark.parametrize("kind", sorted(INEXACT))
def test_inexact_tensor_entries_rejected(kind):
    with pytest.raises(ValueError):
        TargetModel(**_fields(1, **INEXACT[kind]))


def test_tables_narrow_integral_entries_only():
    p2 = projective_space(2)
    assert all(type(w) is int for *_, w in p2.eta_inverse_pairs())
    assert all(type(c) is int for c in p2.cup_product(1, 1).values())
    halves = TargetModel(**_fields(1, eta=((0, Fraction(2)), (Fraction(2), 0))))
    assert halves.eta_inverse_pairs() == ((0, 1, Fraction(1, 2)), (1, 0, Fraction(1, 2)))
    assert all(type(w) is Fraction for *_, w in halves.eta_inverse_pairs())


def test_cup_tables_cannot_be_changed_through_results():
    p2 = projective_space(2)
    product = p2.cup_product(1, 1)
    product[2] = 7
    product[0] = 1
    assert p2.cup_product(1, 1) == {2: 1}
    vector = p2.cup_vector({0: 1}, 1)
    vector[1] = 5
    assert p2.cup_vector({0: 1}, 1) == {1: 1}
    assert p2.cup_vector({1: 1}, 1) == {2: 1}


def _with_product(r, a, b, row):
    """The cup tensor of P^r with e_a . e_b (only in this order) set to ``row``."""
    cup = projective_space(r).cup
    return tuple(
        tuple(row if (x, y) == (a, b) else cup[x][y] for y in range(r + 1))
        for x in range(r + 1)
    )


# Each case passes the checks that run before its own.  A divisor pairing off
# a degree-2 class used to be accepted: with it on e_2, P^2 gave
# <tau_1(e_2)>_1, <tau_2(e_1)>_1, <tau_3(e_0)>_1 = 0, 0, 0, not 1, -3, 6.
INVALID = [
    pytest.param(1, dict(eta=((0, 1), (2, 0))), "eta must be symmetric", id="eta-asymmetric"),
    # e0 . e0 = 2 e0: commutative and graded, but not associative either
    pytest.param(
        1, dict(cup=_with_product(1, 0, 0, (2, 0))), "e_0 must act as the unit", id="unit-broken"
    ),
    pytest.param(2, dict(divisor_pairings=((2, 1),)), "divisor", id="divisor-on-point"),
    pytest.param(2, dict(divisor_pairings=((0, 1),)), "divisor", id="divisor-on-unit"),
    pytest.param(2, dict(divisor_pairings=((3, 1),)), "divisor", id="divisor-out-of-range"),
    pytest.param(2, dict(divisor_pairings=((-1, 1),)), "divisor", id="divisor-negative"),
    pytest.param(2, dict(divisor_pairings=((1, 1), (1, 2))), "divisor", id="divisor-repeated"),
    pytest.param(1, dict(cup=_with_product(1, 1, 0, (0, 0))), "commutative", id="commutativity"),
    pytest.param(1, dict(cup=_with_product(1, 1, 1, (1, 0))), "gradings", id="grading"),
    # e2 . e2 = 2 e4, so (e1 e1) e2 = 2 e4 but e1 (e1 e2) = e4
    pytest.param(
        4, dict(cup=_with_product(4, 2, 2, (0, 0, 0, 0, 2))), "associative", id="associativity"
    ),
    # e1 . e1 = 2 e2, so eta(e0 e1, e1) = 1 but eta(e0, e1 e1) = 2
    pytest.param(
        2, dict(cup=_with_product(2, 1, 1, (0, 0, 2))), r"eta\(ab, c\)", id="eta-invariance"
    ),
    # eta(e0, e0) = 1 pairs two classes of grading 0 on a space of dimension 1;
    # there pure_gw gave <e0 e0 e0>_0 = 1 where evaluate and the oracle gave 0
    pytest.param(1, dict(eta=((1, 1), (1, 0))), "graded", id="non-graded-pairing"),
    pytest.param(1, dict(gradings=(), eta=(), cup=()), "empty", id="empty-basis"),
    # seeds that pure_gw could never read
    pytest.param(2, dict(seeds=(((2, 3), 1, 1),)), "seed class", id="seed-class-out-of-range"),
    pytest.param(2, dict(seeds=(((-1, 2), 1, 1),)), "seed class", id="seed-class-negative"),
    pytest.param(2, dict(seeds=(((2, 2), 0, 1),)), "degree", id="seed-degree-zero"),
    # balanced, but the unit axiom (grading 0) or the divisor axiom (grading 2)
    # fires before the seed lookup: a P^1 seed <e_1>_1 = 5 was stored while
    # pure_gw gave 1
    pytest.param(
        2, dict(seeds=(((0, 2, 2, 2), 1, 1),)), "grading other", id="seed-unit-class"
    ),
    pytest.param(2, dict(seeds=(((1, 2, 2), 1, 1),)), "grading other", id="seed-divisor-class"),
    pytest.param(2, dict(seeds=(((2, 2), 2, 1),)), "selection rule", id="seed-unbalanced"),
    # stored sorted, these two are one seed with two values
    pytest.param(
        3, dict(seeds=(((2, 2, 3), 1, 1), ((3, 2, 2), 1, 2))), "only once", id="seed-repeated"
    ),
]


@pytest.mark.parametrize("r, changes, message", INVALID)
def test_frobenius_data_checked(r, changes, message):
    with pytest.raises(ValueError, match=message):
        TargetModel(**_fields(r, **changes))


P1_CONFIG = {
    "type": "custom",
    "gradings": [0, 2],
    "eta": [[0, 1], [1, 0]],
    "cup": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    "c1_degree": 2,
    "divisor_pairings": [[1, 1]],
    "seeds": [[[], 1, 1]],
}

# One defect each in P^1's config.  The parser passes these fields on as they
# are, so the constructor (``projective_space`` for r) refuses each with the
# words it uses for the same value given directly.
JSON_DEFECTS = [
    pytest.param(
        dict(gradings=[0, 2.0]), "a grading must be an integer, got 2.0", id="grading-float"
    ),
    pytest.param(
        dict(gradings=[False, 2]), "a grading must be an integer, got False", id="grading-bool"
    ),
    pytest.param(
        dict(c1_degree=2.0), "c1_degree must be an integer, got 2.0", id="c1_degree-float"
    ),
    pytest.param(
        dict(divisor_pairings=[[1.0, 1]]),
        "a divisor class must be an integer, got 1.0",
        id="divisor-class-float",
    ),
    pytest.param(
        dict(seeds=[[["1"], 1, 1]]), "a seed class must be an integer, got '1'", id="seed-class-str"
    ),
    pytest.param(
        dict(seeds=[[[], 1.5, 1]]),
        "a seed degree must be an integer, got 1.5",
        id="seed-degree-float",
    ),
    *(
        pytest.param(
            dict(type="projective_space", r=r), f"r must be an integer, got {r!r}", id=f"r-{kind}"
        )
        for r, kind in ((1.5, "float"), (True, "bool"), ("2", "str"))
    ),
]


@pytest.mark.parametrize("changes, message", JSON_DEFECTS)
def test_config_defects_get_the_constructor_message(changes, message):
    assert target_from_config(P1_CONFIG).gradings == (0, 2)
    with pytest.raises(ValueError) as refused:
        target_from_config({**P1_CONFIG, **changes})
    assert str(refused.value) == message


def test_seed_classes_are_stored_sorted():
    # Q^3 on the basis 1, H, H^2, H^3, with H^3 twice the point class: the
    # seed <H^3, H^2>_1 = 4 was stored as given, so pure_gw never found it
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
        "seeds": [[[3, 2], 1, 4]],
    }
    q3 = target_from_config(config)
    assert q3.seeds == (((2, 3), 1, 4),)
    assert pure_gw(q3, (3, 3, 3), 2) == 8


def dense_is_monogenic(target: TargetModel) -> bool:
    """Gradings 0, 2, ..., 2r and e_a e_b = e_{a+b} (0 past e_r), read entry
    by entry from the dense ``Fraction`` cup tensor."""
    r = target.rank - 1
    if target.gradings != tuple(2 * i for i in range(r + 1)):
        return False
    return all(
        target.cup[a][b][nu] == (Fraction(1) if nu == a + b else Fraction(0))
        for a in range(r + 1)
        for b in range(r + 1)
        for nu in range(r + 1)
    )


POINT = TargetModel(name="point", gradings=(0,), eta=((1,),), cup=(((1,),),), c1_degree=0)


@pytest.mark.parametrize(
    "target, expected",
    [
        *((projective_space(r), True) for r in range(1, 5)),
        (rescaled_p2(2), True),
        (rescaled_p2(Fraction(1, 2)), True),
        (target_from_config(QUADRIC_LIKE), False),
        (POINT, True),
    ],
    ids=["P1", "P2", "P3", "P4", "P2-basis-2H", "P2-basis-half-H", "quadric-like", "point"],
)
def test_is_monogenic_reads_the_sparse_cup_table(target, expected):
    assert target.is_monogenic is expected
    assert dense_is_monogenic(target) is expected


@pytest.mark.parametrize("r", [True, 2.0], ids=["bool", "float"])
def test_projective_space_rejects_a_non_integer_r(r):
    # True hashes and compares like 1, so only a check before the memo keeps
    # it from meeting or seeding the entry of P^1
    with pytest.raises(ValueError, match="r must be an integer"):
        projective_space(r)
    assert projective_space(1).name == "P1"
