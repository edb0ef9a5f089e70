"""Property tests: series arithmetic agrees with naive ``Fraction``-dict arithmetic.

Each operation works on integer numerators over one common denominator per
series; each naive reference works on the ``Fraction`` coefficients that
``items()`` reads and goes through the public constructor, which filters and
reduces.  Coefficients carry several distinct denominators, so the common
denominator, its rescaling in ``+``/``-`` and its reduction all run.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from gwtaut.series import QSeries, Truncation, Variable, VarRegistry  # noqa: E402

coefficients = st.sampled_from([-2, -1, 1, 2]).map(Fraction) | st.fractions(
    min_value=-3, max_value=3, max_denominator=12
)
scalars = st.integers(-3, 3) | coefficients


@st.composite
def series_pairs(draw):
    """Two series over one registry of 2-5 variables, q at any index or absent."""
    n = draw(st.integers(2, 5))
    qi = draw(st.sampled_from([None, *range(n)]))
    registry = VarRegistry(
        Variable("q", 0, 0, -2) if i == qi else Variable("t", 0, i, 0) for i in range(n)
    )
    # caps past 15 and below it, so results cross a change of field width
    caps = tuple(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)))
    trunc = Truncation(caps, draw(st.none() | st.integers(0, 24)))
    # exponents up to one past each cap, so the constructor's filter runs too
    exps = st.tuples(*(st.integers(0, c + 1) for c in caps))
    terms = st.dictionaries(exps, coefficients, max_size=8)
    a = QSeries(registry, trunc, draw(terms))
    b_terms = draw(terms)
    if draw(st.booleans()):
        # a copy of a's terms with some signs flipped: cross terms cancel
        flips = draw(st.lists(st.booleans(), min_size=len(a._terms), max_size=len(a._terms)))
        b_terms.update((e, -c if f else c) for (e, c), f in zip(a.items(), flips))
    return a, QSeries(registry, trunc, b_terms)


@st.composite
def tighter(draw, trunc: Truncation) -> Truncation:
    """A truncation that ``trunc`` dominates."""
    caps = tuple(draw(st.integers(0, c)) for c in trunc.caps)
    if trunc.total_cap is None:
        return Truncation(caps, draw(st.none() | st.integers(0, 24)))
    return Truncation(caps, draw(st.integers(0, trunc.total_cap)))


def assert_same(result: QSeries, naive: QSeries):
    """``result`` is the naive series, stored in lowest terms, hashing alike."""
    assert result == naive
    assert hash(result) == hash(naive)
    assert gcd(result._den, *result._terms.values()) == 1
    assert all(type(c) is Fraction and c != 0 for _, c in result.items())
    exponents = [e for e, _ in result.items()]
    assert exponents == sorted(exponents)


def naive(a: QSeries, terms: dict, trunc: Truncation | None = None) -> QSeries:
    return QSeries(a.registry, trunc or a.trunc, terms)


def naive_product(a: QSeries, b: QSeries) -> QSeries:
    """Every pair's sum goes to the public constructor, which filters."""
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return naive(a, out)


@given(series_pairs())
def test_packed_product_matches_naive_product(pair):
    a, b = pair
    product = a * b
    assert_same(product, naive_product(a, b))
    assert product == b * a


@given(series_pairs())
def test_sum_difference_and_negation_match_naive(pair):
    a, b = pair
    fa, fb = dict(a.items()), dict(b.items())
    keys = fa.keys() | fb.keys()
    zero = Fraction(0)
    assert_same(a + b, naive(a, {e: fa.get(e, zero) + fb.get(e, zero) for e in keys}))
    assert_same(a - b, naive(a, {e: fa.get(e, zero) - fb.get(e, zero) for e in keys}))
    assert_same(-a, naive(a, {e: -c for e, c in fa.items()}))
    assert_same(a - a, naive(a, {}))
    assert_same(a + b - b, a)


@given(series_pairs(), scalars)
def test_scalar_product_matches_naive(pair, scalar):
    a, _ = pair
    expected = naive(a, {e: c * scalar for e, c in a.items()})
    assert_same(a * scalar, expected)
    assert_same(scalar * a, expected)
    if scalar:
        assert_same(a * scalar * (1 / Fraction(scalar)), a)


@given(series_pairs(), st.data())
def test_derivatives_match_naive(pair, data):
    a, _ = pair
    reg, qi = a.registry, a.registry.q_index()
    i = data.draw(st.integers(0, len(reg) - 1))
    caps = list(a.trunc.caps)
    caps[i] = max(caps[i] - 1, 0)
    total = a.trunc.total_cap
    if total is not None and i != qi:
        total = max(total - 1, 0)
    lowered = {
        e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in a.items() if e[i]
    }
    assert_same(
        a.partial_derivative(*reg[i].key), naive(a, lowered, Truncation(tuple(caps), total))
    )
    if qi is not None:
        assert_same(a.q_log_derivative(), naive(a, {e: c * e[qi] for e, c in a.items()}))


@given(series_pairs(), st.data())
def test_restrict_matches_naive(pair, data):
    a, _ = pair
    window = data.draw(tighter(a.trunc))
    assert_same(a.restrict(window), naive(a, dict(a.items()), window))
