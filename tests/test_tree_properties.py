"""Property tests: tree identity and automorphism order under relabelling, and
the solved tree integral against the brute-force sum over node classes."""

import pickle
import random
from collections import Counter
from itertools import permutations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, strategies as st  # noqa: E402

from gwtaut.correlators import evaluate_tree_sum  # noqa: E402
from gwtaut.target import projective_space  # noqa: E402
from gwtaut.trees import DecoratedTree, Decoration, TreeSum, aut_order  # noqa: E402
from test_correlators import brute_force_tree_integral, relabel  # noqa: E402

TOKENS = (
    Decoration("class", ("gamma",), 2),
    Decoration("class", ("gamma",), 2, pushable=True),
    Decoration("kappa", (0, 1), 2),
)


@st.composite
def trees(draw, max_vertices=6, max_tails=5, tokens=TOKENS):
    """Decorated trees of at most ``max_vertices`` vertices and ``max_tails``
    tails, built from parent arrays."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    tail_vertices = draw(st.lists(vertex, max_size=max_tails))
    try:
        return DecoratedTree(
            betas=tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))),
            edges=tuple((p, v) for v, p in enumerate(parents, start=1)),
            tails=tuple((lab, v) for lab, v in enumerate(tail_vertices, start=1)),
            decorations=tuple(
                draw(st.lists(st.tuples(vertex, st.sampled_from(tokens)), max_size=3))
            ),
        )
    except ValueError:  # an unstable vertex
        assume(False)


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


# kappa tokens the tree integral reads on P^1 and P^2
KAPPA_TOKENS = (Decoration("kappa", (0, 1), 2), Decoration("kappa", (-1, 1), 0))


@st.composite
def integrands(draw):
    """(target, tree, ambient): a tree of at most four vertices and tails,
    with psi and ev tokens drawn at its tails, and ambient insertions there."""
    target = projective_space(draw(st.integers(1, 2)))
    tree = draw(trees(max_vertices=4, max_tails=4, tokens=KAPPA_TOKENS))
    classes = st.integers(0, target.rank - 1)
    tokens = list(tree.decorations)
    for label, v in tree.tails:
        for power in draw(st.lists(st.integers(0, 2), max_size=1)):
            tokens.append((v, Decoration("psi", (label, power), 2 * power)))
        for alpha in draw(st.lists(classes, max_size=1)):
            tokens.append((v, Decoration("ev", (label, alpha), target.gradings[alpha])))
    ambient = {label: (draw(st.integers(0, 1)), draw(classes)) for label, _ in tree.tails}
    # twice the dimension of the tree's stratum, less what the rest brings
    missing = 2 * target.moduli_dimension(len(ambient), tree.total_degree)
    missing -= 2 * len(tree.edges) + sum(tok.degree for _, tok in tokens)
    missing -= sum(2 * a + target.gradings[alpha] for a, alpha in list(ambient.values())[:-1])
    if ambient and missing >= 0 and missing % 2 == 0:
        # the last insertion makes the degrees add up; else most sums are 0
        alpha = min(missing // 2, target.rank - 1)
        ambient[len(ambient)] = (missing // 2 - alpha, alpha)
    return target, DecoratedTree(tree.betas, tree.edges, tree.tails, tuple(tokens)), ambient


@given(integrands())
def test_solved_tree_integral_is_the_brute_force_sum(integrand):
    target, tree, ambient = integrand
    solved = evaluate_tree_sum(target, TreeSum({tree: 1}), ambient)
    assert solved == brute_force_tree_integral(target, tree, ambient)


@given(trees(), st.randoms(use_true_random=False))
@example(EXAMPLE, random.Random(5))
def test_cached_hash_is_the_canonical_keys(tree, rng):
    # the hash is computed once, from the canonical key: a relabelling finds
    # the tree's slot in a dict, and a pickled copy computes it afresh
    assert hash(tree) == hash(tree._ckey)
    memo = {tree: "found"}
    perm = list(range(tree.n_vertices))
    rng.shuffle(perm)
    relabeled = relabel(tree, perm)
    assert hash(relabeled) == hash(tree) and relabeled == tree and memo[relabeled] == "found"
    clone = pickle.loads(pickle.dumps(tree))
    assert hash(clone) == hash(tree) and clone == tree and memo[clone] == "found"
    other = DecoratedTree(
        tuple(b + 1 for b in tree.betas), tree.edges, tree.tails, tree.decorations
    )
    assert other != tree and other not in memo
