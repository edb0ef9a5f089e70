"""Property tests: tree identity and automorphism order under relabelling."""

import random
from collections import Counter
from itertools import permutations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, strategies as st  # noqa: E402

from gwtaut.trees import DecoratedTree, Decoration, aut_order  # noqa: E402

TOKENS = (
    Decoration("class", ("gamma",), 2),
    Decoration("class", ("gamma",), 2, pushable=True),
    Decoration("kappa", (0, 1), 2),
)


@st.composite
def trees(draw):
    """Decorated trees of at most six vertices, built from parent arrays."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    tail_vertices = draw(st.lists(vertex, max_size=5))
    try:
        return DecoratedTree(
            betas=tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))),
            edges=tuple((p, v) for v, p in enumerate(parents, start=1)),
            tails=tuple((lab, v) for lab, v in enumerate(tail_vertices, start=1)),
            decorations=tuple(
                draw(st.lists(st.tuples(vertex, st.sampled_from(TOKENS)), max_size=3))
            ),
        )
    except ValueError:  # an unstable vertex
        assume(False)


def relabel(t: DecoratedTree, perm) -> DecoratedTree:
    """The same tree with vertex v renamed perm[v]."""
    betas = [0] * t.n_vertices
    for v, b in enumerate(t.betas):
        betas[perm[v]] = b
    return DecoratedTree(
        betas=tuple(betas),
        edges=tuple((perm[u], perm[v]) for u, v in t.edges),
        tails=tuple((lab, perm[v]) for lab, v in t.tails),
        decorations=tuple((perm[v], tok) for v, tok in t.decorations),
    )


def brute_force_aut(t: DecoratedTree) -> int:
    """Vertex permutations preserving degrees, edges, tails and decorations."""
    edges = set(t.edges)
    decorations = Counter(t.decorations)
    return sum(
        1
        for perm in permutations(range(t.n_vertices))
        if all(t.betas[perm[v]] == t.betas[v] for v in range(t.n_vertices))
        and {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges
        and all(t.tail_vertex(lab) == perm[v] for lab, v in t.tails)
        and Counter((perm[v], tok) for v, tok in t.decorations) == decorations
    )


EXAMPLE = DecoratedTree(
    betas=(0, 1, 1, 2),
    edges=((0, 1), (0, 2), (2, 3)),
    tails=((1, 0), (2, 0), (3, 2)),
)


@given(trees(), st.randoms(use_true_random=False))
@example(EXAMPLE, random.Random(5))
def test_canonical_form_invariant_under_relabeling(tree, rng):
    for _ in range(10):
        perm = list(range(tree.n_vertices))
        rng.shuffle(perm)
        relabeled = relabel(tree, perm)
        assert relabeled == tree
        assert hash(relabeled) == hash(tree)
        assert aut_order(relabeled) == aut_order(tree)


@given(trees())
@example(EXAMPLE)
def test_aut_order_is_a_brute_force_count(tree):
    assert aut_order(tree) == brute_force_aut(tree)
