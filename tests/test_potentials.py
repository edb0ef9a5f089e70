import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, prod

import pytest

from gwtaut.correlators import make_key, evaluate
from gwtaut.gw import gw_potential_series
from gwtaut.potentials import (
    PotentialSpec,
    build_H_series,
    cp1_closed_form_series,
    cp1_h_sequence,
    cp1_penult_residual,
    cp1_spec,
    make_spec,
    trr_pde_residuals,
    wdvv_residual,
    wdvv_residuals,
    _residual_context,
)
from gwtaut.series import QSeries, Truncation, Variable, VarRegistry
from gwtaut.target import projective_space
from test_correlators import rescaled_p2

P1 = projective_space(1)
P2 = projective_space(2)
P3 = projective_space(3)


def test_h_sequence_values():
    assert cp1_h_sequence(4) == [1, Fraction(1, 2), 4, 120]
    # next value pinned by the recursion itself
    assert cp1_h_sequence(5)[4] == 8400


def test_h_numbers_are_kappa_correlators():
    # h_n equals the 2n-2 fold kappa_{0,1} correlator at degree n
    for n in (1, 2, 3):
        engine = evaluate(make_key(P1, kappa=[(0, 1, 2 * n - 2)], d=n))
        assert engine == cp1_h_sequence(n)[n - 1]


def test_quantum_cohomology_of_p1():
    spec = PotentialSpec(P1, ((0, 0), (0, 1)), (), (3, 6), 1, None)
    series = build_H_series(spec)
    reg, tr = series.registry, series.trunc
    x0 = QSeries.variable(reg, tr, "t", 0, 0)
    x1 = QSeries.variable(reg, tr, "t", 0, 1)
    q = QSeries.variable(reg, tr, "q", 0, 0)
    assert series == x0 * x0 * x1 * Fraction(1, 2) + q * x1.exp()


def test_h_series_q2_s01_coefficient():
    spec = cp1_spec(q_cap=2, var_cap=4, total_cap=4)
    series = build_H_series(spec)
    reg = series.registry
    exps = tuple(
        2 if (v.kind, v.a, v.alpha) == ("s", 0, 1) else 0 for v in reg[:-1]
    ) + (2,)
    assert series.coefficient(exps) == Fraction(1, 4)


def test_degree_zero_layer_is_cup_sector():
    # the q^0 part comes from triple cup integrals with kappa_0 acting by cup
    spec = cp1_spec(q_cap=0, var_cap=4, total_cap=4)
    series = build_H_series(spec)
    reg, tr = series.registry, series.trunc
    x0 = QSeries.variable(reg, tr, "t", 0, 0)
    x1 = QSeries.variable(reg, tr, "t", 0, 1)
    s00 = QSeries.variable(reg, tr, "s", 0, 0)
    s01 = QSeries.variable(reg, tr, "s", 0, 1)
    expected = s00.exp() * (
        x0 * x0 * x1 * Fraction(1, 2) + x0 * x0 * x0 * s01 * Fraction(1, 6)
    )
    assert series == expected


def test_closed_form_matches_engine_small():
    spec = cp1_spec(q_cap=2, var_cap=4, total_cap=4)
    assert build_H_series(spec) == cp1_closed_form_series(2, spec)


def test_closed_form_q_coefficient_at_origin():
    spec = cp1_spec(q_cap=3, var_cap=3, total_cap=3)
    closed = cp1_closed_form_series(3, spec)
    exps = (0, 0, 0, 0, 0, 1)
    assert closed.coefficient(exps) == 1


def test_closed_form_satisfies_puncture_dilaton():
    spec = cp1_spec(q_cap=2, var_cap=4, total_cap=4)
    h_tilde = cp1_closed_form_series(2, spec, include_classical=False)
    dx0 = h_tilde.partial_derivative("t", 0, 0)
    dx1 = h_tilde.partial_derivative("t", 0, 1)
    dsm = h_tilde.partial_derivative("s", -1, 1)
    reg, tr = h_tilde.registry, h_tilde.trunc
    # each derivative lowers its own cap: read all three on their common window
    shared = dx0.trunc.meet(dx1.trunc, dsm.trunc)
    s01 = QSeries.variable(reg, tr, "s", 0, 1).restrict(shared)
    exp_s00 = QSeries.variable(reg, tr, "s", 0, 0).exp().restrict(shared)
    assert not dx0.restrict(shared).is_zero()
    assert not dx1.restrict(shared).is_zero()
    assert dx0.restrict(shared) == exp_s00 * s01 * dsm.restrict(shared)
    assert dx1.restrict(shared) == exp_s00 * dsm.restrict(shared)


# (spec, residual count per family: psi pivots "t", kappa level >= 1 "s1",
# kappa level 0 "s0"); the cp1 window has no level-one variables, and a
# window without x0 has no instances at all
TRR_WINDOWS = {
    "cp1": (cp1_spec(q_cap=2, var_cap=5, total_cap=5), {"s0": 6}),
    "level-one": (
        make_spec(P1, [(0, 0), (0, 1), (1, 1)], [(-1, 1), (0, 1), (1, 1)], 4, 2, 4),
        {"t": 6, "s1": 6, "s0": 6},
    ),
    "no-x0": (make_spec(P1, [(0, 1), (1, 1)], [(0, 1), (1, 1)], 4, 2, 4), {}),
}


def _family(name):
    pivot = name.split("|")[0]
    return "t" if pivot.startswith("t") else pivot.split(",")[0]


@pytest.mark.parametrize("window", sorted(TRR_WINDOWS))
def test_trr_pde_residuals_vanish(window):
    spec, per_family = TRR_WINDOWS[window]
    residuals = trr_pde_residuals(build_H_series(spec), spec)
    assert Counter(_family(name) for name, _ in residuals) == per_family
    for name, residual in residuals:
        assert residual.is_zero(), name


@pytest.mark.parametrize(
    "window, bump, broken_pivots",
    [
        ("cp1", {"x1": 2, "s0,0": 1, "q": 1}, None),
        ("level-one", {"x0": 1, "x1": 1, "t1,1": 1, "q": 1}, {"t1,1", "s1,1", "s0,1"}),
    ],
    ids=["cp1", "level-one"],
)
def test_trr_pde_residuals_detect_corruption(window, bump, broken_pivots):
    spec, _ = TRR_WINDOWS[window]
    series = build_H_series(spec)
    reg = series.registry
    bad_exps = tuple(bump.get(v.name, 0) for v in reg)
    corrupted = series + QSeries(reg, series.trunc, {bad_exps: 1})
    broken = {
        name.split("|")[0]
        for name, r in trr_pde_residuals(corrupted, spec)
        if not r.is_zero()
    }
    assert broken
    if broken_pivots is not None:
        assert broken == broken_pivots


def test_third_family_cup_term_one_coefficient():
    # hand identity behind family 3 on P^1: d/ds00 H_11 = x0 H_011 + x1 H_111,
    # read where all three third partials are exact
    series = build_H_series(cp1_spec(q_cap=2, var_cap=5, total_cap=5))

    def d(*variables):
        out = series
        for v in variables:
            out = out.partial_derivative(*v)
        return out

    x0, x1, s00 = ("t", 0, 0), ("t", 0, 1), ("s", 0, 0)
    lhs, h011, h111 = d(x1, x1, s00), d(x0, x1, x1), d(x1, x1, x1)
    shared = lhs.trunc.meet(h011.trunc, h111.trunc)
    via_x0 = h011.restrict(shared).multiply_variable(*x0)
    via_x1 = h111.restrict(shared).multiply_variable(*x1)
    # both sides contribute, so dropping either one breaks the identity
    assert len(list(via_x0.items())) == 1
    assert len(list(via_x1.items())) == 4
    assert lhs.restrict(shared) == via_x0 + via_x1


def test_penult_residual():
    assert cp1_penult_residual(4).is_zero()
    assert cp1_penult_residual(1).is_zero()
    hs = cp1_h_sequence(4)
    hs[2] += 1
    assert not cp1_penult_residual(4, hs=hs).is_zero()


@pytest.mark.parametrize("count", [True, "3", 2.0])
def test_penult_residual_reads_its_count_as_a_json_int(count):
    # True failed on the spec's caps message, "3" with a TypeError
    with pytest.raises(ValueError, match="a term count must be an integer"):
        cp1_penult_residual(count)


CP1_BAD_COUNTS = {  # counts are ints of a valid size, and hs reaches h_{n_max}
    "bool-h-count": lambda: cp1_h_sequence(True),
    "negative-terms": lambda: cp1_closed_form_series(-1, cp1_spec(2, 3, 3)),
    "bool-terms": lambda: cp1_closed_form_series(True, cp1_spec(2, 3, 3)),
    "short-hs": lambda: cp1_closed_form_series(3, cp1_spec(3, 3, 3), hs=[Fraction(1)]),
    "short-hs-penult": lambda: cp1_penult_residual(3, hs=[Fraction(1)]),
}


@pytest.mark.parametrize("case", sorted(CP1_BAD_COUNTS))
def test_cp1_helpers_reject_bad_counts(case):
    with pytest.raises(ValueError):
        CP1_BAD_COUNTS[case]()


def _public_build(spec):
    """The potential through the public constructors: every cell of the box
    of the right grading, its key from ``make_key`` and its coefficient a
    ``Fraction`` over the product of the exponents' factorials."""
    registry, trunc = spec.context()
    grading = 2 * (spec.target.dim_complex - 3)
    entries = [("t", e) for e in spec.t_entries] + [("s", e) for e in spec.s_entries]
    terms = {}
    for exps in product(*(range(c + 1) for c in trunc.caps)):
        if registry.grading(exps) != grading or not trunc.admits(exps, len(entries)):
            continue
        tau = [(a, alpha, k) for (kind, (a, alpha)), k in zip(entries, exps) if kind == "t" and k]
        kappa = [(a, alpha, k) for (kind, (a, alpha)), k in zip(entries, exps) if kind == "s" and k]
        value = evaluate(make_key(spec.target, tau=tau, kappa=kappa, d=exps[-1]))
        terms[exps] = Fraction(value) / prod(factorial(k) for k in exps[:-1])
    return QSeries(registry, trunc, terms)


BUILD_WINDOWS = {
    "P1": lambda: make_spec(P1, [(0, 0), (0, 1), (1, 1)], [(-1, 1), (0, 0), (0, 1)], 3, 2, 4),
    "P2": lambda: make_spec(P2, [(0, 0), (0, 1), (0, 2)], [(-1, 1), (0, 1)], 4, 1),
    "P3": lambda: make_spec(P3, [(0, 0), (0, 1), (0, 2), (0, 3)], [(0, 1)], 3, 1),
    "c-2": lambda: make_spec(rescaled_p2(2), [(0, 0), (0, 1), (0, 2)], [(0, 1)], 3, 2),
    "c-1/2": lambda: make_spec(
        rescaled_p2(Fraction(1, 2)), [(0, 0), (0, 1), (0, 2)], [(-1, 1), (0, 1)], 3, 2, 5
    ),
}


@pytest.mark.parametrize("name", sorted(BUILD_WINDOWS))
def test_build_equals_the_public_constructor_build(name):
    spec = BUILD_WINDOWS[name]()
    built, reference = build_H_series(spec), _public_build(spec)
    assert built == reference and hash(built) == hash(reference)
    assert built._den == reference._den
    assert list(built.items()) == list(reference.items())
    assert len(built._terms) > 10


def test_homogeneity_cp1():
    spec = cp1_spec(q_cap=2, var_cap=4, total_cap=4)
    assert build_H_series(spec).gradings() == {-4}


def test_homogeneity_p2_potential():
    series = gw_potential_series(P2, (3, 4, 9), 3)
    assert series.gradings() == {-2}


def test_wdvv_zero_for_p1_and_p2():
    f1 = gw_potential_series(P1, (3, 8), 3)
    assert all(r.is_zero() for r in wdvv_residuals(f1, P1).values())
    assert wdvv_residual(f1, P1).is_zero()
    f2 = gw_potential_series(P2, (3, 8, 9), 3)
    assert all(r.is_zero() for r in wdvv_residuals(f2, P2).values())


def test_wdvv_detects_broken_p2_potential():
    # rank-two associativity is vacuous, so the sensitivity check lives on P2:
    # bumping the q^3 x2^8 coefficient (the twelve rational cubics) must fail
    f2 = gw_potential_series(P2, (3, 8, 9), 3)
    bump = {(0, 0, 8, 3): Fraction(1, factorial(8))}
    broken = f2 + QSeries(f2.registry, f2.trunc, bump)
    assert any(not r.is_zero() for r in wdvv_residuals(broken, P2).values())


def test_twisted_p2_potential_satisfies_wdvv():
    # the kappa-twisted potential is a family of Frobenius structures: with
    # s_{0,1} as a spectator parameter, associativity with eta^{-1} holds
    spec = make_spec(P2, [(0, 0), (0, 1), (0, 2)], [(0, 1)], 4, 1)
    h = build_H_series(spec)
    residuals = wdvv_residuals(h, P2)
    assert len(residuals) == 27
    assert all(r.is_zero() for r in residuals.values())
    # doubling the x0 x1 x2^2 s_{0,1} q coefficient breaks ten quadruples
    exps = (1, 1, 2, 1, 1)
    assert dict(h.items())[exps] == Fraction(1, 2)
    broken = h + QSeries(h.registry, h.trunc, {exps: Fraction(1, 2)})
    assert sum(not r.is_zero() for r in wdvv_residuals(broken, P2).values()) == 10


def _direct_wdvv_residuals(potential, target):
    """The quadruple residuals term by term: every eta^{-1} pair of every
    quadruple multiplies its two third partials afresh."""
    d, _ = _residual_context(potential, target)
    x = [("t", 0, alpha) for alpha in range(target.rank)]
    out = {}
    for a in range(target.rank):
        for c in range(a + 1, target.rank):
            for b in range(target.rank):
                for dd in range(target.rank):
                    residual = QSeries.zero(potential.registry, d().trunc)
                    for e, f, w in target.eta_inverse_pairs():
                        residual = residual + (
                            d(x[a], x[b], x[e]) * d(x[f], x[c], x[dd])
                            - d(x[b], x[c], x[e]) * d(x[f], x[a], x[dd])
                        ) * w
                    out[(a, b, c, dd)] = residual
    return out


def _perturbed(series, seed, count=12):
    """``series`` plus ``count`` seeded terms of degree 3 or 4 in the x
    variables, so that they survive three x-derivatives."""
    rng = random.Random(seed)
    xs = [i for i, v in enumerate(series.registry) if v.kind == "t" and v.a == 0]
    caps = series.trunc.caps
    terms = {}
    for _ in range(count):
        exps = [0 if i in xs else rng.randint(0, min(c, 1)) for i, c in enumerate(caps)]
        for _ in range(rng.choice([3, 4])):
            exps[rng.choice(xs)] += 1
        terms[tuple(exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return series + QSeries(series.registry, series.trunc, terms)


def _pairs(a, b, c, d):
    return sorted((tuple(sorted((a, b))), tuple(sorted((c, d)))))


WDVV_POTENTIALS = {
    "P1": (P1, lambda: gw_potential_series(P1, (3, 8), 3)),
    "P2": (P2, lambda: gw_potential_series(P2, (3, 6, 6), 2)),
    "P3": (P3, lambda: gw_potential_series(P3, (3, 6, 6, 6), 2)),
    "P2-twisted": (
        P2,
        lambda: build_H_series(make_spec(P2, [(0, 0), (0, 1), (0, 2)], [(-1, 1), (0, 1)], 4, 1)),
    ),
}


@pytest.mark.parametrize("name", sorted(WDVV_POTENTIALS))
def test_contracted_wdvv_residuals_equal_the_direct_formula(name):
    # the reference residuals all vanish, so compare on non-associative
    # potentials: every quadruple whose two contractions are not the same by
    # the symmetries of G must come out nonzero
    target, build = WDVV_POTENTIALS[name]
    broken = _perturbed(build(), seed=1)
    contracted = wdvv_residuals(broken, target)
    direct = _direct_wdvv_residuals(broken, target)
    assert list(contracted) == list(direct)
    for quad, residual in direct.items():
        assert contracted[quad] == residual, quad
    forced_zero = {q for q in direct if _pairs(*q) == _pairs(q[1], q[2], q[0], q[3])}
    nonzero = {q for q, r in contracted.items() if not r.is_zero()}
    assert nonzero == set(direct) - forced_zero
    assert len(nonzero) >= len(direct) // 2


def _count_products(monkeypatch):
    """A list that grows by one per series-by-series product from now on."""
    products = []
    multiply = QSeries.__mul__

    def counting(self, other):
        if isinstance(other, QSeries):
            products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    return products


def test_wdvv_residuals_build_each_product_once(monkeypatch):
    # the P^3 residuals batch: 768 series products term by term, and 64
    # once each contracted entry is built once and empty partials are skipped
    f3 = gw_potential_series(P3, (3, 6, 6, 6), 2)
    products = _count_products(monkeypatch)
    residuals = wdvv_residuals(f3, P3)
    assert len(residuals) == 96 and all(r.is_zero() for r in residuals.values())
    assert len(products) <= 64


def test_trr_pde_residuals_build_each_product_once(monkeypatch):
    # the wide P^2 window of the grid benchmark: 12 residuals, with 18 products
    # in six contractions of three eta^{-1} pairs and 30 cup corrections
    wide = make_spec(P2, [(0, 0), (0, 1), (0, 2)], [(-1, 1), (-1, 2), (0, 0), (0, 1)], 5, 2, 6)
    h = build_H_series(wide)
    products = _count_products(monkeypatch)
    residuals = trr_pde_residuals(h, wide)
    assert len(residuals) == 12 and all(r.is_zero() for _, r in residuals)
    assert len(products) <= 48


def test_residual_context_takes_one_derivative_per_sorted_prefix(monkeypatch):
    # the wide P^2 window of the grid benchmark, every sorted path of <= 3
    # variables asked for in a shuffled, unsorted order; the window keeps q's
    # cap, so the residual systems never differentiate by q
    wide = make_spec(P2, [(0, 0), (0, 1), (0, 2)], [(-1, 1), (-1, 2), (0, 0), (0, 1)], 5, 2, 6)
    h = build_H_series(wide)
    variables = [v.key for v in h.registry if v.kind != "q"]
    paths = [p for n in range(4) for p in combinations_with_replacement(variables, n)]
    calls = []
    differentiate = QSeries.partial_derivative

    def counting(self, *variable):
        calls.append(variable)
        return differentiate(self, *variable)

    monkeypatch.setattr(QSeries, "partial_derivative", counting)
    d, _ = _residual_context(h, P2)
    order = random.Random(5).sample(paths, len(paths))
    memoized = {path: d(*reversed(path)) for path in order}
    assert len(calls) == len(paths) - 1  # one per nonempty sorted path, each a prefix
    monkeypatch.undo()
    window = d().trunc
    assert window == Truncation((2,) * 7 + (2,), 3)
    for path, partial in memoized.items():
        direct = h
        for variable in path:
            direct = direct.partial_derivative(*variable)
        assert partial == direct.restrict(window), path
    assert sum(1 for partial in memoized.values() if partial) > 100


def test_residual_partials_refuse_q_by_name():
    # the window keeps q's cap, which a q-derivative would lower: d names q
    # rather than failing inside restrict, in any position of the path
    h = build_H_series(make_spec(P2, [(0, 0), (0, 1), (0, 2)], [(0, 1)], 3, 2))
    d, G = _residual_context(h, P2)
    q, x1 = ("q", 0, 0), ("t", 0, 1)
    for path in ((q,), (x1, q), (q, x1, x1)):
        with pytest.raises(ValueError, match="not q"):
            d(*path)
    with pytest.raises(ValueError, match="not q"):
        G((q,), (x1,))
    assert d(x1, x1) == h.partial_derivative(*x1).partial_derivative(*x1).restrict(d().trunc)


def test_walk_of_the_217805_cell_window_stays_small():
    spec = make_spec(P2, [(0, 0), (0, 1), (0, 2)], [(-1, 1), (-1, 2), (0, 0), (0, 1)], 6, 3)
    registry, trunc = spec.context()
    tracemalloc.start()
    try:
        cells = sum(1 for _ in trunc.graded_exponents(registry, -2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells == 217_805
    assert peak < 1_000_000


def test_trr_pde_residuals_reject_another_targets_potential():
    # a P^2 potential read on the P^1 window gave 6 residuals, 3 nonzero
    spec = make_spec(P2, [(0, 0), (0, 1), (0, 2)], [(-1, 1), (0, 0), (0, 1)], 4, 1, 4)
    with pytest.raises(ValueError, match="x2 is not graded as on P1"):
        trr_pde_residuals(build_H_series(spec), cp1_spec(1, 4, 4))


def _registry_with(target, drop=(), grading_of=None):
    """The pure potential's registry on ``target``, without the x variables
    in ``drop``, with the gradings ``grading_of`` changes."""
    variables = [Variable("t", 0, alpha, g - 2) for alpha, g in enumerate(target.gradings)]
    variables.append(Variable("q", 0, 0, -2 * target.c1_degree))
    changed = grading_of or {}
    return VarRegistry(
        Variable(v.kind, v.a, v.alpha, changed.get(v.name, v.grading))
        for v in variables
        if v.name not in drop
    )


@pytest.mark.parametrize(
    "registry, match",
    [
        (_registry_with(P2, drop={"x1"}), "lacks x1"),
        (_registry_with(P2, drop={"x0", "x2"}), "lacks x0, x2"),
        (_registry_with(P2, grading_of={"q": -4}), "q is not graded"),
        (_registry_with(P2, grading_of={"x1": 2}), "x1 is not graded"),
        (VarRegistry([*_registry_with(P2), Variable("s", 0, 1, 0)]), "s0,1 is not graded"),
        (VarRegistry([*_registry_with(P2), Variable("t", 1, 3, 6)]), "t1,3 is not graded"),
    ],
    ids=["missing-x1", "missing-x0-x2", "q-grading", "x1-grading", "s-grading", "class-past-rank"],
)
def test_wdvv_residuals_check_the_registry(registry, match):
    potential = QSeries.zero(registry, Truncation(tuple([3] * len(registry)), None))
    with pytest.raises(ValueError, match=match):
        wdvv_residuals(potential, P2)


def test_wdvv_residuals_reject_another_targets_potential():
    # P^2's potential read on P^1 gave 4 zero quadruples with no error
    f2 = gw_potential_series(P2, (3, 6, 6), 2)
    with pytest.raises(ValueError, match="x2 is not graded as on P1"):
        wdvv_residuals(f2, P1)


def test_empty_variable_potential_is_q_layer():
    spec = make_spec(P1, (), (), var_cap=0, q_cap=3)
    series = build_H_series(spec)
    assert list(series.items()) == [((1,), Fraction(1))]  # only <>_1 = 1


def test_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec(P1, ((0, 0),), (), (3, 3), 1, None)
    with pytest.raises(ValueError):
        cp1_closed_form_series(2, make_spec(P1, ((0, 0),), (), 3, 2))


def test_cp1_closed_form_needs_the_p1_target():
    # P^2 with the five P^1 entries gave the 56-term P^1 closed form, where
    # the engine's series on that spec has 13 terms
    spec = make_spec(P2, ((0, 0), (0, 1)), ((-1, 1), (0, 0), (0, 1)), 4, 2, 4)
    with pytest.raises(ValueError, match="closed form is P\\^1's, not P2's"):
        cp1_closed_form_series(2, spec)


BAD_SPECS = {  # (t entries, s entries, caps, q_cap, total_cap) on P^1
    "alpha-below-basis": (((0, -1),), (), (3,), 1, None),
    "alpha-is-rank": (((0, 2),), (), (3,), 1, None),
    "t-level-below-0": (((-1, 0),), (), (3,), 1, None),
    "s-level-below-minus-1": ((), ((-2, 1),), (3,), 1, None),
    "bool-entry": (((0, True),), (), (3,), 1, None),
    "repeated-entry": (((0, 1), (0, 1)), (), (3, 3), 1, None),
    "unsorted-entries": (((0, 1), (0, 0)), (), (3, 3), 1, None),
    "negative-cap": (((0, 0), (0, 1)), (), (3, -1), 1, None),  # gave 0 terms
    "negative-q-cap": (((0, 0), (0, 1)), (), (3, 3), -1, None),
    "negative-total-cap": (((0, 0), (0, 1)), (), (3, 3), 1, -1),
    "caps-list": (((0, 0),), (), [3], 1, None),  # failed later in build_H_series
    "entries-list": ([[0, 0]], (), (3,), 1, None),  # was TypeError: unhashable
    "entry-list": (([0, 0],), (), (3,), 1, None),
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_spec_rejects_bad_entries_and_bounds(case):
    with pytest.raises(ValueError):
        PotentialSpec(P1, *BAD_SPECS[case])


@pytest.mark.parametrize(
    "t_entries, s_entries, var_cap",
    [([], [(0, 2)], 3), ([(0, 0)], [], -1)],
    ids=["alpha-is-rank", "negative-cap"],
)
def test_make_spec_rejects_bad_entries_and_bounds(t_entries, s_entries, var_cap):
    with pytest.raises(ValueError):
        make_spec(P1, t_entries, s_entries, var_cap, 1)
