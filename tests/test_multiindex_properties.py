"""Property tests: the MultiIndex algebra agrees with collections.Counter."""

from collections import Counter
from math import comb, prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from gwtaut.correlators import MultiIndex  # noqa: E402

entry = st.tuples(st.integers(-1, 3), st.integers(0, 3))
items = st.lists(st.tuples(entry, st.integers(0, 3)), max_size=6)
signed_items = st.lists(st.tuples(entry, st.integers(-3, 3)), max_size=6)


def counter(m: MultiIndex) -> Counter:
    return Counter(dict(m.entries))


def canonical(c: Counter) -> tuple:
    return tuple(sorted((key, k) for key, k in c.items() if k))


@given(signed_items)
def test_constructor_is_a_signed_sum(raw):
    totals = Counter()
    for key, k in raw:
        totals[key] += k
    if any(k < 0 for k in totals.values()):
        with pytest.raises(ValueError, match="negative multiplicity"):
            MultiIndex(tuple(raw))
    else:
        assert MultiIndex(tuple(raw)).entries == canonical(totals)


@given(items, items, entry, st.integers(0, 3))
def test_add_remove_merge_agree_with_counter(raw1, raw2, key, k):
    m1, m2 = MultiIndex(tuple(raw1)), MultiIndex(tuple(raw2))
    c1 = counter(m1)
    assert m1.merge(m2).entries == canonical(c1 + counter(m2))
    assert counter(m1.add(*key, k)) == c1 + Counter({key: k})
    if c1[key] >= k:
        assert counter(m1.remove(*key, k)) == c1 - Counter({key: k})
    else:
        with pytest.raises(ValueError, match="not present"):
            m1.remove(*key, k)


@given(items)
def test_splits_merge_back_with_binomial_counts(raw):
    m = MultiIndex(tuple(raw))
    c = counter(m)
    splits = list(m.splits())
    assert len(splits) == prod(k + 1 for k in c.values())
    for sub, rest, count in splits:
        assert sub.merge(rest) == m
        assert count == prod(comb(c[key], k) for key, k in sub.entries)
    assert sum(count for _, _, count in splits) == 2 ** m.size
