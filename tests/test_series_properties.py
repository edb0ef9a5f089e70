"""Property tests: the packed product agrees with a naive product."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from gwtaut.series import QSeries, Truncation, Variable, VarRegistry  # noqa: E402

coefficients = st.sampled_from([-2, -1, 1, 2]).map(Fraction) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def series_pairs(draw):
    """Two series over one registry of 2-5 variables, q at any index or absent."""
    n = draw(st.integers(2, 5))
    qi = draw(st.sampled_from([None, *range(n)]))
    registry = VarRegistry(
        Variable("q", 0, 0, -2) if i == qi else Variable("t", 0, i, 0) for i in range(n)
    )
    caps = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    trunc = Truncation(caps, draw(st.none() | st.integers(0, 6)))
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


def naive_product(a: QSeries, b: QSeries) -> QSeries:
    """Every pair's sum goes to the public constructor, which filters."""
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return QSeries(a.registry, a.trunc, out)


@given(series_pairs())
def test_packed_product_matches_naive_product(pair):
    a, b = pair
    product = a * b
    assert product == naive_product(a, b)
    assert all(c != 0 for _, c in product.items())
    assert product == b * a
