"""Property tests: the MultiIndex algebra agrees with collections.Counter,
and the memoized split table and index degree with a direct computation."""

import copy
import pickle
from collections import Counter
from itertools import product
from math import comb, prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

import gwtaut.correlators as correlators  # noqa: E402
from gwtaut.correlators import MultiIndex  # noqa: E402
from gwtaut.target import projective_space  # noqa: E402

entry = st.tuples(st.integers(-1, 3), st.integers(0, 3))
entries = st.lists(entry, max_size=12)  # in any order
# (level, alpha, mult) triples, as ``MultiIndex.from_list`` reads them
items = st.lists(st.tuples(st.integers(-1, 3), st.integers(0, 3), st.integers(0, 3)), max_size=6)
signed_items = st.lists(
    st.tuples(st.integers(-1, 3), st.integers(0, 3), st.integers(-3, 3)), max_size=6
)
even = st.integers(0, 4).map(lambda k: 2 * k)
gradings = st.tuples(even, even, even, even)  # one per basis index of ``entry``


def canonical(c: Counter) -> tuple:
    """The sorted entries of ``c``, each repeated by its count: a
    ``MultiIndex``'s tuple."""
    return tuple(sorted(c.elements()))


def repeated(m: MultiIndex, op: str, key, k: int):
    """m after k single ``add``s or ``remove``s of ``key``, or the
    ``ValueError`` message the first failing one raises."""
    try:
        for _ in range(k):
            m = getattr(m, op)(*key)
    except ValueError as exc:
        return str(exc)
    assert type(m) is MultiIndex
    return m


@given(entries)
def test_constructor_sorts_entries_in_any_order(es):
    m = MultiIndex(es)
    assert type(m) is MultiIndex and m == tuple(sorted(es))
    rebuilt = MultiIndex(tuple(m))
    assert rebuilt == m and hash(rebuilt) == hash(m)
    assert eval(repr(m), {"MultiIndex": MultiIndex}) == m
    for clone in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert type(clone) is MultiIndex and clone == m and hash(clone) == hash(m)
    # one level and one class past the sampled ranges, so every slot is reached
    for key in product(range(-1, 5), range(5)):
        assert m.count(key) == Counter(m)[key]
        added = m.add(*key)
        assert added == tuple(sorted(es + [key])) and added.remove(*key) == m
        if key not in m:
            with pytest.raises(ValueError, match="not present"):
                m.remove(*key)


@given(items, items, entry, st.integers(0, 3))
def test_add_remove_merge_agree_with_counter(raw1, raw2, key, k):
    m1, m2 = MultiIndex.from_list(raw1), MultiIndex.from_list(raw2)
    c1 = Counter(m1)
    assert m1.merge(m2) == canonical(c1 + Counter(m2))
    assert Counter(repeated(m1, "add", key, k)) == c1 + Counter({key: k})
    if c1[key] >= k:
        assert Counter(repeated(m1, "remove", key, k)) == c1 - Counter({key: k})
    else:
        assert "not present" in repeated(m1, "remove", key, k)


@given(items)
def test_splits_merge_back_with_binomial_counts(raw):
    m = MultiIndex.from_list(raw)
    c = Counter(m)
    splits = correlators._split_table(m)
    assert len(splits) == prod(k + 1 for k in c.values())
    for sub, rest, count, _ in splits:
        assert sub.merge(rest) == m
        assert count == prod(comb(c[key], k) for key, k in Counter(sub).items())
    assert sum(count for _, _, count, _ in splits) == 2 ** len(m)


def brute_split_rows(m: MultiIndex, grading: tuple) -> list:
    """Every (sub, complement, binomial, size, degree) of m, built from Counters
    in the order of m's sorted entries."""
    c = Counter(m)
    keys = sorted(c)
    rows = []
    for counts in product(*(range(c[key] + 1) for key in keys)):
        sub = Counter(dict(zip(keys, counts)))
        binomial = prod(comb(c[key], k) for key, k in zip(keys, counts))
        degree = sum(k * (2 * a + grading[alpha]) for (a, alpha), k in sub.items())
        rows.append((canonical(sub), canonical(c - sub), binomial, sum(counts), degree))
    return rows


@given(items, gradings)
def test_split_table_agrees_with_counter_enumeration(raw, grading):
    m = MultiIndex.from_list(raw)
    rows = correlators._split_table(m)
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert all(type(sub) is type(rest) is MultiIndex for sub, rest, _, _ in rows)
    read = [
        (sub, rest, binomial, size, correlators._index_degree(grading, sub))
        for sub, rest, binomial, size in rows
    ]
    assert read == brute_split_rows(m, grading)
    assert correlators._split_table(m) == rows
    correlators.clear_caches()
    assert correlators._split_table(m) == rows


@given(items, gradings)
def test_index_degree_memo_agrees_with_direct_sum(raw, grading):
    m = MultiIndex.from_list(raw)
    direct = sum(k * (2 * a + grading[alpha]) for (a, alpha), k in Counter(m).items())
    memo = correlators._index_degree
    assert memo(grading, m) == direct
    hits = memo.cache_info().hits
    assert memo(grading, m) == direct and memo.cache_info().hits == hits + 1
    correlators.clear_caches()
    assert memo.cache_info().currsize == 0 and memo(grading, m) == direct


def public_shift(m: MultiIndex, key, k):
    """The public constructor on m's entries with k more copies of ``key``
    (-k fewer for k < 0), or the message of ``remove`` if m has fewer."""
    c = Counter(m)
    c[key] += k
    if c[key] < 0:
        return f"entry ({key[0]},{key[1]}) not present"
    return MultiIndex(c.elements())


@given(items, entry, st.integers(0, 4))
def test_add_and_remove_match_the_public_constructor(raw, key, k):
    # add and remove bisect for their slot with no key function; the public
    # constructor sorts from scratch, so both must agree, errors included
    m = MultiIndex.from_list(raw)
    assert m.count(key) == Counter(m)[key]
    assert repeated(m, "add", key, k) == public_shift(m, key, k)
    assert repeated(m, "remove", key, k) == public_shift(m, key, -k)


M = MultiIndex.from_list([(-1, 1, 1), (0, 2, 2), (2, 0, 1)])


@pytest.mark.parametrize(
    "key, k",
    [
        ((-1, 0), 1),  # absent, at the front
        ((-1, 1), 1),  # present, at the front
        ((-1, 1), -1),  # the front down to zero
        ((0, 2), 1),  # in the middle
        ((0, 2), -2),  # the middle down to zero
        ((0, 3), 2),  # absent, in the middle
        ((2, 0), -1),  # the end down to zero
        ((3, 3), 1),  # absent, at the end
        ((0, 2), -3),  # below zero
        ((1, 1), -1),  # absent, below zero
        ((1, 1), 0),  # absent, by nothing
    ],
)
def test_add_and_remove_at_each_slot(key, k):
    # k >= 0 adds k copies one at a time, and removing them gives M back;
    # k < 0 removes -k copies
    if k >= 0:
        shifted = repeated(M, "add", key, k)
        assert repeated(shifted, "remove", key, k) == M
    else:
        shifted = repeated(M, "remove", key, -k)
    assert shifted == public_shift(M, key, k)


@pytest.mark.parametrize("k", [1.0, 0.5, True, "1"])
def test_add_refuses_what_the_constructor_refuses(k):
    # a multiplicity is only from_list's to check; a level or a class is
    # checked by add and the constructor alike
    with pytest.raises(ValueError, match="must be an int >= 0"):
        MultiIndex.from_list([(0, 2, k)])
    with pytest.raises(ValueError, match="must be ints"):
        M.add(0, k)
    with pytest.raises(ValueError, match="must be ints"):
        MultiIndex(tuple(M) + ((0, k),))


@pytest.mark.parametrize("a, alpha", [(0, True), (1.0, 1), (True, 0), (0, 2.0)])
def test_add_refuses_a_level_or_class_the_constructor_refuses(a, alpha):
    # True == 1 and 1.0 == 1, so such an entry would sit next to its int twin
    with pytest.raises(ValueError, match="must be ints"):
        MultiIndex.from_list([(0, 1, 1)]).add(a, alpha)
    with pytest.raises(ValueError, match="must be ints"):
        MultiIndex.from_list([(a, alpha, 1)])
    # where the int twin is present, remove reaches the same check
    twin = MultiIndex.from_list([(int(a), int(alpha), 1)])
    with pytest.raises(ValueError, match="must be ints"):
        twin.remove(a, alpha)


@given(signed_items)
def test_an_index_is_the_sorted_tuple_of_its_entries(raw):
    # each multiplicity is checked on its own, so a negative one is refused
    # even where a repeated triple would make up for it
    if any(k < 0 for *_, k in raw):
        with pytest.raises(ValueError, match="must be an int >= 0"):
            MultiIndex.from_list(raw)
        return
    totals = Counter()
    for a, alpha, k in raw:
        totals[a, alpha] += k
    m = MultiIndex.from_list(raw)
    assert tuple(m) == tuple(sorted(totals.elements()))
    assert m.counts() == tuple(sorted((key, k) for key, k in totals.items() if k))
    rebuilt = MultiIndex.from_list((a, alpha, k) for (a, alpha), k in m.counts())
    assert rebuilt == m and repr(rebuilt) == repr(m)
    assert m.max_level == (max(a for a, _ in m) if m else -10)


@given(items)
def test_unchecked_index_is_the_public_one(raw):
    m = MultiIndex.from_list(raw)
    built = correlators._normal_index(tuple(m))
    assert type(built) is MultiIndex and built == m and hash(built) == hash(m)
    assert repr(built) == repr(m) and correlators._normal_index(()) == MultiIndex()


@given(items, items, st.integers(0, 3))
def test_unchecked_key_is_the_public_one(raw_m, raw_p, d):
    target = projective_space(3)
    m = MultiIndex.from_list(t for t in raw_m if t[0] >= 0)
    p = MultiIndex.from_list(raw_p)
    built = correlators._valid_key((target, m, p, d))
    public = correlators.CorrelatorKey(target, m, p, d)
    assert type(built) is correlators.CorrelatorKey
    assert built == public and hash(built) == hash(public) and repr(built) == repr(public)
    assert (built.target, built.m, built.p, built.d) == (target, m, p, d)
