import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest

from gwtaut.series import (
    QSeries,
    Truncation,
    Variable,
    VarRegistry,
    format_rational,
    parse_rational,
)


def simple_registry():
    return VarRegistry(
        [
            Variable("t", 0, 0, -2),  # x0
            Variable("t", 0, 1, 0),  # x1
            Variable("s", 0, 0, 0),  # s0^0
            Variable("q", 0, 0, -4),
        ]
    )


def ctx(caps=(4, 4, 4, 3), total=None):
    reg = simple_registry()
    return reg, Truncation(caps, total)


def var(reg, tr, kind, a=0, alpha=0):
    return QSeries.variable(reg, tr, kind, a, alpha)


def test_polynomial_identity_in_q():
    reg, tr = ctx(caps=(0, 0, 0, 2))
    one = QSeries.one(reg, tr)
    q = var(reg, tr, "q")
    assert (one + q) * (one - q) == one - q * q


def test_additive_identity():
    reg, tr = ctx()
    f = var(reg, tr, "t", 0, 1) * 3 + QSeries.constant(reg, tr, Fraction(2, 7))
    assert f + QSeries.zero(reg, tr) == f


def test_truncation_forces_drop():
    reg = simple_registry()
    tr = Truncation((4, 1, 4, 3))  # cap 1 on x1
    x1 = var(reg, tr, "t", 0, 1)
    assert (x1 * x1).is_zero()


def test_mismatched_contexts_rejected():
    reg, tr = ctx()
    other = Truncation((2, 2, 2, 2))
    with pytest.raises(ValueError):
        QSeries.one(reg, tr) + QSeries.one(reg, other)


def test_exp_of_zero():
    reg, tr = ctx()
    assert QSeries.zero(reg, tr).exp() == QSeries.one(reg, tr)


def test_exp_taylor_coefficients():
    reg = simple_registry()
    tr = Truncation((0, 3, 0, 0))
    x1 = var(reg, tr, "t", 0, 1)
    e = x1.exp()
    assert e.coefficient((0, 0, 0, 0)) == 1
    assert e.coefficient((0, 1, 0, 0)) == 1
    assert e.coefficient((0, 2, 0, 0)) == Fraction(1, 2)
    assert e.coefficient((0, 3, 0, 0)) == Fraction(1, 6)


def test_exp_of_sum_cross_coefficient():
    reg, tr = ctx()
    s00 = var(reg, tr, "s", 0, 0)
    x1 = var(reg, tr, "t", 0, 1)
    # multiply out exp(s) * exp(x) by hand: the s*x coefficient is 1
    assert (s00 + x1).exp().coefficient((0, 1, 1, 0)) == 1


def test_exp_needs_zero_constant_term():
    reg, tr = ctx()
    with pytest.raises(ValueError):
        QSeries.one(reg, tr).exp()


def test_coefficient_reads():
    reg, tr = ctx(caps=(0, 0, 0, 2))
    q = var(reg, tr, "q")
    f = QSeries.one(reg, tr) + q * q * 3
    assert f.coefficient((0, 0, 0, 2)) == 3
    assert f.coefficient((0, 0, 0, 1)) == 0


def test_coefficient_outside_truncation_errors():
    reg, tr = ctx(caps=(0, 0, 0, 2))
    f = QSeries.one(reg, tr)
    with pytest.raises(ValueError):
        f.coefficient((0, 0, 0, 3))
    with pytest.raises(ValueError):
        f.coefficient((0, 0, 0))


def test_partial_derivative():
    reg, tr = ctx()
    x0 = var(reg, tr, "t", 0, 0)
    x1 = var(reg, tr, "t", 0, 1)
    f = x0 * x0 * x1 * Fraction(1, 2)
    df = f.partial_derivative("t", 0, 1)
    assert df.coefficient((2, 0, 0, 0)) == Fraction(1, 2)
    assert len(list(df.items())) == 1


def test_q_log_derivative_eigenfunction():
    reg, tr = ctx()
    q = var(reg, tr, "q")
    x1 = var(reg, tr, "t", 0, 1)
    f = q * x1.exp()
    assert f.q_log_derivative() == f


def test_product_rule():
    reg, tr = ctx()
    f = QSeries.one(reg, tr) + var(reg, tr, "q")
    g = var(reg, tr, "t", 0, 0)
    lhs = (f * g).partial_derivative("t", 0, 0)
    window = lhs.trunc  # derivatives shrink the cap of the hit variable
    rhs = f.restrict(window) * g.partial_derivative("t", 0, 0) + g.restrict(
        window
    ) * f.partial_derivative("t", 0, 0)
    assert lhs == rhs


def random_series(reg, tr, rng, nterms=5):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, c) for c in tr.caps)
        terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return QSeries(reg, tr, terms)


def test_ring_axioms_on_random_triples():
    reg, tr = ctx(caps=(2, 2, 2, 2))
    rng = random.Random(7)
    for _ in range(25):
        f, g, h = (random_series(reg, tr, rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_leibniz_on_random_pairs():
    reg, tr = ctx(caps=(2, 2, 2, 2))
    rng = random.Random(11)
    for _ in range(20):
        f, g = random_series(reg, tr, rng), random_series(reg, tr, rng)
        lhs = (f * g).partial_derivative("s", 0, 0)
        window = lhs.trunc
        rhs = f.restrict(window) * g.partial_derivative("s", 0, 0) + g.restrict(
            window
        ) * f.partial_derivative("s", 0, 0)
        assert lhs == rhs


def test_exp_homomorphism():
    reg, tr = ctx(caps=(2, 2, 2, 2))
    rng = random.Random(13)
    for _ in range(10):
        f = random_series(reg, tr, rng, nterms=3)
        g = random_series(reg, tr, rng, nterms=3)
        zero_const = (0,) * len(reg)
        f = f - QSeries.constant(reg, tr, f.coefficient(zero_const))
        g = g - QSeries.constant(reg, tr, g.coefficient(zero_const))
        assert (f + g).exp() == f.exp() * g.exp()


def test_odd_grading_rejected():
    with pytest.raises(ValueError):
        VarRegistry([Variable("t", 0, 0, -1)])


def test_duplicate_variable_rejected():
    with pytest.raises(ValueError):
        VarRegistry([Variable("t", 0, 0, -2), Variable("t", 0, 0, -2)])


def test_gradings_report():
    reg, tr = ctx()
    x0 = var(reg, tr, "t", 0, 0)
    q = var(reg, tr, "q")
    f = x0 * x0 + q  # gradings -4 and -4
    assert f.gradings() == {-4}


def test_json_round_trip():
    reg, tr = ctx(caps=(2, 2, 2, 2))
    rng = random.Random(17)
    f = random_series(reg, tr, rng)
    assert QSeries.from_json_dict(f.to_json_dict()) == f


def test_rational_formatting():
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("5") == 5


def test_restrict_only_tightens():
    reg, tr = ctx(caps=(2, 2, 2, 2))
    f = QSeries.one(reg, tr)
    with pytest.raises(ValueError):
        f.restrict(Truncation((3, 2, 2, 2)))
    g = f.restrict(Truncation((1, 1, 1, 1)))
    assert g.trunc.caps == (1, 1, 1, 1)


def test_meet_is_componentwise_minimum():
    a = Truncation((3, 4, 4, 2), 3)
    b = Truncation((4, 3, 4, 2), None)
    c = Truncation((4, 4, 1, 2), 5)
    m = a.meet(b, c)
    assert m == Truncation((3, 3, 1, 2), 3)
    assert all(t.dominates(m) for t in (a, b, c))
    assert b.meet(Truncation((1, 1, 1, 1))).total_cap is None
    assert b.meet(c).total_cap == 5
    with pytest.raises(ValueError):
        a.meet(Truncation((1, 1, 1)))


def test_restrict_error_names_loosened_bound():
    reg, tr = ctx(caps=(2, 2, 2, 2), total=3)
    f = QSeries.one(reg, tr)
    with pytest.raises(ValueError, match=r"x1 cap, total cap loosened"):
        f.restrict(Truncation((2, 3, 2, 2), None))


def brute_graded(reg, tr, grading):
    """Reference: walk the whole exponent box and filter it."""
    qi = reg.q_index()
    return [
        exps
        for exps in product(*(range(c + 1) for c in tr.caps))
        if tr.admits(exps, qi) and reg.grading(exps) == grading
    ]


@pytest.mark.parametrize("total", [None, 0, 3, 5])
@pytest.mark.parametrize("caps", [(4, 4, 4, 3), (2, 0, 3, 4), (0, 0, 0, 0)])
def test_graded_exponents_match_box_walk(caps, total):
    reg, tr = ctx(caps=caps, total=total)
    for grading in range(-30, 2, 2):  # q grading -4, x0 -2: reaches down to -20
        assert list(tr.graded_exponents(reg, grading)) == brute_graded(reg, tr, grading)


def test_graded_exponents_mixed_signs_and_zero_q_grading():
    # positive, negative and zero gradings; q graded 0 as for a target with
    # c1_degree 0, so the q exponent never helps to meet the grading.
    reg = VarRegistry(
        [
            Variable("t", 0, 0, -2),
            Variable("t", 1, 1, 2),
            Variable("s", -1, 1, 0),
            Variable("s", 1, 0, 4),
            Variable("q", 0, 0, 0),
        ]
    )
    for caps, total in [((3, 3, 2, 2, 2), None), ((3, 3, 2, 2, 2), 4), ((5, 1, 0, 3, 1), 2)]:
        tr = Truncation(caps, total)
        for grading in range(-8, 16, 2):
            assert list(tr.graded_exponents(reg, grading)) == brute_graded(reg, tr, grading)
    tr = Truncation((3, 3, 2, 2, 2), None)
    assert len(list(tr.graded_exponents(reg, 0))) > 1  # zero grading has solutions


def _graded_registry(gradings, q_at, q_grading):
    """Variables t_0^i of the given gradings, with q of ``q_grading`` at index ``q_at``."""
    variables = [Variable("t", 0, i, g) for i, g in enumerate(gradings)]
    variables.insert(q_at, Variable("q", 0, 0, q_grading))
    return VarRegistry(variables)


# (gradings of the non-q variables, q index, q grading, caps): 6 to 9
# variables, so the memoized suffix half holds 3 to 5 of them
WIDE_WINDOWS = {
    "six": ((-2, 0, 2, 4, -2), 5, -4, (2, 2, 1, 1, 2, 2)),
    "seven-q-zero": ((-2, -2, 0, 2, 2, -4), 6, 0, (2, 1, 2, 1, 2, 1, 3)),
    "eight-q-inside": ((2, -2, 0, -4, 4, -2, 0), 3, -6, (1, 2, 1, 2, 1, 1, 2, 1)),
    "nine-q-first": ((-2, 0, 2, -2, 4, 0, -2, 2), 0, -4, (2, 1, 2, 1, 1, 1, 2, 1, 1)),
}


@pytest.mark.parametrize("total", [None, 0, 2, 4])
@pytest.mark.parametrize("name", sorted(WIDE_WINDOWS))
def test_graded_exponents_match_box_walk_on_wide_registries(name, total):
    gradings, q_at, q_grading, caps = WIDE_WINDOWS[name]
    reg = _graded_registry(gradings, q_at, q_grading)
    tr = Truncation(caps, total)
    low = sum(min(v.grading * c, 0) for v, c in zip(reg, caps))
    high = sum(max(v.grading * c, 0) for v, c in zip(reg, caps))
    found = 0
    for grading in range(low - 2, high + 3, 2):
        cells = tr.graded_exponents(reg, grading)
        assert iter(cells) is cells  # a lazy iterator, not a list
        cells = list(cells)
        assert cells == brute_graded(reg, tr, grading)
        found += len(cells)
    assert found == sum(1 for exps in product(*(range(c + 1) for c in caps)) if tr.admits(exps, q_at))


def test_graded_exponents_unreachable_grading_is_empty():
    reg, tr = ctx()
    assert list(tr.graded_exponents(reg, 2)) == []  # no variable has positive grading
    assert list(tr.graded_exponents(reg, -1000)) == []
    assert list(tr.graded_exponents(reg, -3)) == []  # odd: gradings are even


def test_graded_exponents_checks_lengths():
    reg, _ = ctx()
    with pytest.raises(ValueError):
        list(Truncation((1, 1), None).graded_exponents(reg, 0))


# -- trusted construction inside the operations ------------------------------------


def assert_valid(series):
    """``series`` is what the public constructor makes of its own terms."""
    terms = dict(series.items())
    assert all(type(c) is Fraction and c != 0 for c in terms.values())
    twin = QSeries(series.registry, series.trunc, terms)
    assert twin == series and hash(twin) == hash(series)


def test_operations_build_valid_series():
    # the operations build their results without the constructor's checks;
    # each result must be exactly what the public constructor makes of it
    rng = random.Random(19)
    checked = 0
    for caps, total in [((2, 2, 2, 2), None), ((3, 2, 3, 2), 3), ((1, 2, 0, 3), 1)]:
        reg, tr = ctx(caps=caps, total=total)
        window = Truncation(tuple(max(c - 1, 0) for c in caps), total)
        for _ in range(12):
            f, g = random_series(reg, tr, rng, 6), random_series(reg, tr, rng, 6)
            no_const = f - QSeries.constant(reg, tr, f.coefficient((0,) * len(reg)))
            results = [
                f + g, f - g, f - f, f * g, g * f, -f, f * 3, f * Fraction(-2, 5),
                f * 0, 2 + f, f - 1, Fraction(1, 3) - f, f.q_log_derivative(),
                f.restrict(window), no_const.exp(), f.multiply_variable("t", 0, 1),
            ]
            results += [f.partial_derivative(*v.key) for v in reg]
            for result in results:
                assert_valid(result)
            checked += len(results)
    assert checked == 3 * 12 * 20


def test_truncation_rejects_bad_bounds():
    for caps, total in [
        ((3, -1), None),
        ((2.5, 1), None),
        ((True, 1), None),
        ([3, 2], None),
        ((3, 2), -1),
        ((3, 2), 2.0),
        ((3, 2), False),
    ]:
        with pytest.raises(ValueError, match="caps|total_cap"):
            Truncation(caps, total)
    assert Truncation((0, 0), 0).caps == (0, 0)


BAD_EXPONENTS = [
    (0, -1, 0, 0), (0, 1, 0), (0, 1, 0, 0, 0), (0, 1.0, 0, 0), (True, 0, 0, 0),
    (0.5, 0, 0, 0), ("a", 0, 0, 0),
]


def test_constructor_rejects_bad_exponent_vectors():
    reg, tr = ctx()
    for exps in BAD_EXPONENTS:
        with pytest.raises(ValueError, match="exponent"):
            QSeries(reg, tr, {exps: 1})


def test_coefficients_and_scalars_must_be_exact():
    reg, tr = ctx()
    x1 = var(reg, tr, "t", 0, 1)
    for bad in (0.1, 1.0, True, "1/2", None):
        with pytest.raises(ValueError, match="int or a Fraction"):
            QSeries(reg, tr, {(0, 1, 0, 0): bad})
        with pytest.raises(ValueError, match="int or a Fraction"):
            QSeries.constant(reg, tr, bad)
        for op in (
            lambda: x1 * bad,
            lambda: bad * x1,
            lambda: x1 + bad,
            lambda: bad + x1,
            lambda: x1 - bad,
            lambda: bad - x1,
        ):
            with pytest.raises(ValueError, match="int or a Fraction"):
                op()
    assert (x1 * 3).coefficient((0, 1, 0, 0)) == 3
    assert (x1 + Fraction(1, 2)).coefficient((0, 0, 0, 0)) == Fraction(1, 2)


def test_coefficient_checks_its_exponents():
    # the constructor's rule; (1.0, ...) and (True, ...) read the (1, ...) cell before
    reg, tr = ctx()
    f = var(reg, tr, "t", 0, 0) + 1
    for exps in BAD_EXPONENTS + [(1.0, 0, 0, 0)]:
        with pytest.raises(ValueError, match="exponent"):
            f.coefficient(exps)
    assert f.coefficient([1, 0, 0, 0]) == 1


# -- one common denominator, in lowest terms ------------------------------------------


def test_restrict_dropping_the_finest_denominator_reduces():
    reg, tr = ctx()
    x0, x1 = var(reg, tr, "t", 0, 0), var(reg, tr, "t", 0, 1)
    f = x0 * Fraction(1, 2) + x1 * x1 * Fraction(1, 4)
    window = Truncation((4, 1, 4, 3))
    kept = QSeries(reg, window, {(1, 0, 0, 0): Fraction(1, 2)})
    assert f.restrict(window) == kept
    assert hash(f.restrict(window)) == hash(kept)


def test_derivative_can_clear_the_denominator():
    reg, tr = ctx()
    x0 = var(reg, tr, "t", 0, 0)
    dx = (x0 * x0 * Fraction(1, 2)).partial_derivative("t", 0, 0)
    assert dx == x0.restrict(dx.trunc)
    assert hash(dx) == hash(x0.restrict(dx.trunc))


def test_scalar_round_trip_is_identity():
    reg, tr = ctx()
    rng = random.Random(23)
    for _ in range(10):
        a = random_series(reg, tr, rng)
        assert a * Fraction(1, 3) * 3 == a
        assert hash(a * Fraction(1, 3) * 3) == hash(a)
        assert (a * Fraction(2, 3) + a * Fraction(1, 3)) == a


def test_json_round_trip_of_the_cp1_closed_form():
    from gwtaut.potentials import cp1_closed_form_series, cp1_spec

    s = cp1_closed_form_series(3, cp1_spec(q_cap=3, var_cap=3, total_cap=3))
    assert len(list(s.items())) > 10
    assert QSeries.from_json_dict(s.to_json_dict()) == s


def test_restrict_narrowing_the_top_field_repacks():
    # caps 17 and 0 pack x0 in a 5-bit field at bit 5; caps 0 and 0 keep
    # every shift but narrow that field to 4 bits, so x0^17 must not be
    # tested by the new guard alone
    reg = VarRegistry([Variable("t", 0, 0, 0), Variable("t", 0, 1, 0)])
    a = QSeries(reg, Truncation((17, 0)), {(0, 0): 1, (17, 0): 1, (16, 0): 2})
    narrow = Truncation((0, 0))
    assert a.restrict(narrow) == QSeries.one(reg, narrow)
    assert list(a.restrict(Truncation((16, 0))).items()) == [((0, 0), 1), ((16, 0), 2)]


def test_pickle_and_copies_rebuild_the_series():
    from gwtaut.potentials import cp1_closed_form_series, cp1_spec

    s = cp1_closed_form_series(3, cp1_spec(q_cap=3, var_cap=3, total_cap=3))
    for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert twin == s
        assert hash(twin) == hash(s)
        assert list(twin.items()) == list(s.items())
        assert twin * s == s * s


def test_readers_yield_fractions():
    reg, tr = ctx()
    f = var(reg, tr, "t", 0, 0) * Fraction(3, 4) + var(reg, tr, "q") * 2
    items = list(f.items())
    assert items == [((0, 0, 0, 1), Fraction(2)), ((1, 0, 0, 0), Fraction(3, 4))]
    assert all(type(c) is Fraction for _, c in items)
    for exps in [(0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)]:
        assert type(f.coefficient(exps)) is Fraction
    assert f.coefficient((0, 1, 0, 0)) == 0
