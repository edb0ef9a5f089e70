from fractions import Fraction

import pytest

from gwtaut.correlators import clear_caches
from gwtaut.target import projective_space
from gwtaut.trees import (
    DecoratedTree,
    Decoration,
    TreeSum,
    _kappa_presentation,
    _psi_presentation,
    aut_order,
    enumerate_two_vertex_divisors,
    forgetful_pullback,
    forgetful_pushforward,
    kappa_boundary_presentation,
    psi_boundary_presentation,
    single_vertex_tree,
    two_vertex_tree,
)

P1 = projective_space(1)


def test_decorations_break_symmetry():
    tok = Decoration("class", ("gamma",), 2)
    star = DecoratedTree(
        betas=(0, 1, 1),
        edges=((0, 1), (0, 2)),
        tails=((1, 0), (2, 0), (3, 0)),
        decorations=((1, tok),),
    )
    assert aut_order(star) == 1
    both = DecoratedTree(
        betas=(0, 1, 1),
        edges=((0, 1), (0, 2)),
        tails=((1, 0), (2, 0), (3, 0)),
        decorations=((1, tok), (2, tok)),
    )
    assert aut_order(both) == 2


def test_stability_enforced():
    with pytest.raises(ValueError):
        single_vertex_tree(2, 0)
    with pytest.raises(ValueError):
        two_vertex_tree((1, 2, 3), (), 1, 0)


def test_disconnected_tree_rejected():
    # a triangle on vertices 1-3 plus an isolated vertex 0: |V| - 1 edges, no tree
    with pytest.raises(ValueError, match="tree is not connected"):
        DecoratedTree(betas=(1, 1, 1, 1), edges=((1, 2), (2, 3), (1, 3)), tails=())


def test_enumerate_pinned_splits():
    # tail 1 alone on the second side forces its degree to be positive
    trees = enumerate_two_vertex_divisors(3, 2, pin_first=(2, 3), pin_second=(1,))
    assert len(trees) == 2
    assert sorted(t.betas[t.tail_vertex(1)] for t in trees) == [1, 2]


def test_enumerate_rejects_a_tail_pinned_to_both_vertices():
    # tail 1 pinned first and second was put on the second vertex, breaking
    # the first pin
    with pytest.raises(ValueError, match="tail 1 pinned to both vertices"):
        enumerate_two_vertex_divisors(4, 0, pin_first=(1, 2), pin_second=(1,))


def test_enumerate_unpointed_degree_two():
    trees = enumerate_two_vertex_divisors(0, 2)
    assert len(trees) == 1
    assert aut_order(trees[0]) == 2


@pytest.mark.parametrize("n", [-1, True])
def test_enumerate_rejects_a_bad_point_count(n):
    with pytest.raises(ValueError, match="point count"):
        enumerate_two_vertex_divisors(n, 1)


def test_all_enumerated_trees_stable():
    for n, d in ((0, 2), (3, 2), (4, 1), (5, 0)):
        for t in enumerate_two_vertex_divisors(n, d):
            for v in range(t.n_vertices):
                assert t.betas[v] > 0 or t.valence(v) >= 3


def worked_example(beta2: int, decorate_right: bool):
    decor = []
    decor.append((0, Decoration("class", ("gamma2",), 2)))
    if decorate_right:
        decor.append((1, Decoration("class", ("gamma1",), 2, pushable=True)))
    return DecoratedTree(
        betas=(2 - beta2, beta2),
        edges=((0, 1),),
        tails=((1, 0), (2, 0), (3, 0), (4, 1), (5, 1)),
        decorations=tuple(decor),
    )


def test_pushforward_generic_branch():
    pushed = forgetful_pushforward(worked_example(1, True), 5)
    assert len(pushed) == 1
    tree, coeff = next(iter(pushed.items()))
    assert coeff == 1
    assert tree.labels == (1, 2, 3, 4)
    tokens = tree.decorations_at(tree.tail_vertex(4))
    assert any(tok.data == ("pi_*(gamma1)",) for tok in tokens)


def test_pushforward_vanishing_branch():
    # the right vertex dies and carries a positive-degree class
    assert len(forgetful_pushforward(worked_example(0, True), 5)) == 0


def test_pushforward_stabilizing_branch():
    pushed = forgetful_pushforward(worked_example(0, False), 5)
    assert len(pushed) == 1
    tree, coeff = next(iter(pushed.items()))
    assert coeff == 1
    assert tree.n_vertices == 1
    assert tree.labels == (1, 2, 3, 4)


def test_pushforward_of_undecorated_stable_tree_vanishes():
    plain = worked_example(1, False)
    plain_no_decor = DecoratedTree(plain.betas, plain.edges, plain.tails)
    assert len(forgetful_pushforward(plain_no_decor, 5)) == 0


def test_pushforward_needs_stable_base():
    t = single_vertex_tree(3, 0)
    with pytest.raises(ValueError):
        forgetful_pushforward(t, 1)


def test_pullback_single_vertex():
    t = single_vertex_tree(3, 1)
    pulled = forgetful_pullback(t, 4)
    assert len(pulled) == 1
    tree, coeff = next(iter(pulled.items()))
    assert coeff == 1 and tree.labels == (1, 2, 3, 4)


def test_pullback_two_vertex_trivial_auts():
    t = two_vertex_tree((1, 2), (3,), 1, 1)
    pulled = forgetful_pullback(t, 4)
    assert len(pulled) == 2
    assert all(c == 1 for _, c in pulled.items())


def test_pullback_symmetric_star_ratio():
    star = DecoratedTree(
        betas=(0, 1, 1),
        edges=((0, 1), (0, 2)),
        tails=((1, 0), (2, 0), (3, 0)),
    )
    leaf_attached = DecoratedTree(
        betas=(0, 1, 1),
        edges=((0, 1), (0, 2)),
        tails=((1, 0), (2, 0), (3, 0), (4, 1)),
    )
    # attaching the new tail to one leaf breaks the swap symmetry
    assert Fraction(aut_order(leaf_attached), aut_order(star)) == Fraction(1, 2)
    pulled = forgetful_pullback(star, 4)
    # the two leaf attachments are isomorphic and merge to 1/2 + 1/2
    assert pulled.coefficient(leaf_attached) == 1
    center_attached = DecoratedTree(
        betas=(0, 1, 1),
        edges=((0, 1), (0, 2)),
        tails=((1, 0), (2, 0), (3, 0), (4, 0)),
    )
    assert pulled.coefficient(center_attached) == 1


def test_pull_then_push_coefficients_are_reciprocal():
    # per attachment vertex the two automorphism ratios cancel, so the
    # formal coefficient bookkeeping sums to the number of vertices
    for t in (
        single_vertex_tree(3, 1),
        two_vertex_tree((1, 2), (3,), 1, 1),
        DecoratedTree(
            betas=(0, 1, 1),
            edges=((0, 1), (0, 2)),
            tails=((1, 0), (2, 0), (3, 0)),
        ),
    ):
        base = aut_order(t)
        total = Fraction(0)
        for v in range(t.n_vertices):
            lifted = DecoratedTree(
                t.betas, t.edges, t.tails + ((9, v),), t.decorations
            )
            up = Fraction(aut_order(lifted), base)
            down = Fraction(base, aut_order(lifted))
            assert up * down == 1
            total += up * down
        assert total == t.n_vertices


def test_psi_presentation_counts():
    assert len(psi_boundary_presentation(3, 2, 1)) == 2
    assert len(psi_boundary_presentation(3, 0, 1)) == 0
    with pytest.raises(ValueError):
        psi_boundary_presentation(3, 1, 0)


def test_psi_presentation_comparison_identity():
    # pulling back the n-point presentation and adding the section divisor
    # gives the (n+1)-point presentation
    for n, d in ((3, 1), (3, 2), (4, 1)):
        lhs = psi_boundary_presentation(n + 1, d, 1)
        rhs = TreeSum()
        for tree, coeff in psi_boundary_presentation(n, d, 1).items():
            rhs = rhs + forgetful_pullback(tree, n + 1) * coeff
        section = two_vertex_tree(tuple(range(2, n + 1)), (1, n + 1), d, 0)
        rhs = rhs + TreeSum({section: Fraction(1)})
        assert lhs == rhs


def test_kappa_presentation_counts():
    p1 = projective_space(1)
    pres = kappa_boundary_presentation(p1, 2, 1, 1, 1)
    pins = enumerate_two_vertex_divisors(2, 1, pin_first=(1, 2), pin_second=())
    assert len(pres) == len(pins) == 1


def test_kappa_presentation_degree_zero_reduces_to_tail_terms():
    p1 = projective_space(1)
    pres = kappa_boundary_presentation(p1, 3, 0, 0, 0)
    trees = list(pres.items())
    assert len(trees) == 1
    tree, coeff = trees[0]
    assert tree.n_vertices == 1 and coeff == 1
    (tok,) = tree.decorations_at(0)
    assert tok.kind == "ev" and tok.data == (3, 0)


def test_tree_sum_keeps_its_point_count():
    p1 = projective_space(1)
    psi = psi_boundary_presentation(4, 1, 1)
    kappa = kappa_boundary_presentation(p1, 4, 1, 0, 1)
    assert psi.n == kappa.n == 4
    assert (psi + kappa).n == (psi * 2).n == (Fraction(1, 2) * kappa).n == 4
    assert (psi + TreeSum()).n == (TreeSum() + psi).n == 4
    assert TreeSum().n is None
    with pytest.raises(ValueError, match="4 and 5 points"):
        psi + psi_boundary_presentation(5, 1, 1)
    with pytest.raises(ValueError, match="point count"):
        TreeSum(n=-1)


def test_tree_sums_on_different_point_counts_are_unequal():
    # psi_1 on M_{0,3}(V, 0) is zero, but the empty sum on 5 points is not
    # the same sum: ``+`` refuses the pair, so ``==`` must not match it
    empty3 = psi_boundary_presentation(3, 0, 1)
    assert not empty3 and empty3.n == 3
    assert empty3 != TreeSum(n=5) and TreeSum(n=5) != empty3
    assert empty3 == TreeSum() == TreeSum(n=5) and empty3 == TreeSum(n=3)
    tree = single_vertex_tree(4, 1)
    assert TreeSum({tree: 1}, n=4) != TreeSum({tree: 1}, n=5)
    assert TreeSum({tree: 1}, n=4) == TreeSum({tree: 1})


def test_tree_sum_coefficients_and_scalars_must_be_exact():
    tree = single_vertex_tree(3, 1)
    for bad in (0.5, 1.0, True, "1/2"):
        with pytest.raises(ValueError, match="int or a Fraction"):
            TreeSum({tree: bad})
        with pytest.raises(ValueError, match="int or a Fraction"):
            TreeSum({tree: 1}) * bad
        with pytest.raises(ValueError, match="int or a Fraction"):
            bad * TreeSum({tree: 1})
        with pytest.raises(ValueError, match="int or a Fraction"):
            TreeSum().add_term(tree, bad)
    assert (TreeSum({tree: 3}) * Fraction(1, 3)).coefficient(tree) == 1


PSI, KAPPA = psi_boundary_presentation, kappa_boundary_presentation

PRESENTATION_ARGUMENTS = [
    pytest.param(PSI, (4.0, 1, 2), "point count", id="psi-n-float"),
    pytest.param(PSI, (4, True, 2), "curve degree", id="psi-d-bool"),
    # a cached float-token sum would be returned to a later (4, 1, 2) call
    pytest.param(PSI, (4, 1, 2.0), "psi power", id="psi-a-float"),
    pytest.param(PSI, (4, 1, True), "psi power", id="psi-a-bool"),
    pytest.param(KAPPA, (P1, True, 1, 0, 1), "point count", id="kappa-n-bool"),
    pytest.param(KAPPA, (P1, 3, 1.0, 0, 1), "curve degree", id="kappa-d-float"),
    pytest.param(KAPPA, (P1, 3, 1, False, 1), "kappa level", id="kappa-a-bool"),
    pytest.param(KAPPA, (P1, 3, 1, 0, 1.0), "kappa class", id="kappa-alpha-float"),
    # -1 built 3 terms on the wrapped top class, 5 raised a bare IndexError
    pytest.param(KAPPA, (P1, 3, 1, 0, -1), "outside", id="kappa-alpha-negative"),
    pytest.param(KAPPA, (P1, 3, 1, 0, 5), "outside", id="kappa-alpha-too-big"),
]


@pytest.mark.parametrize("presentation, args, message", PRESENTATION_ARGUMENTS)
def test_presentation_arguments_checked(presentation, args, message):
    with pytest.raises(ValueError, match=message):
        presentation(*args)


def test_presentation_memo_is_safe():
    for call in (
        lambda: psi_boundary_presentation(4, 1, 2),
        lambda: kappa_boundary_presentation(P1, 4, 1, 0, 1),
    ):
        original = call()
        changed = call()
        tree, coeff = next(iter(changed.items()))
        changed.add_term(tree, -coeff)
        changed.add_term(single_vertex_tree(4, 1), 1)
        again = call()
        assert again == original and again.n == 4 and again is not changed
    clear_caches()
    assert _psi_presentation.cache_info().currsize == 0
    assert _kappa_presentation.cache_info().currsize == 0
