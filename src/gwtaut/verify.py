"""Property suites: exact equality checks runnable from the CLI and tests.

Each suite returns (ok, lines); lines are human-readable one-per-check
reports, each written by ``Report.check`` (the one home of the
``ok  ``/``FAIL`` line format).  Randomized suites take an explicit seed
and report it.  The ``paths`` and ``dilaton`` suites import the oracle
themselves, and the randomized suites import ``random``, so a process that
runs no such suite loads neither.
"""

from __future__ import annotations

from fractions import Fraction

from .correlators import (
    CorrelatorKey,
    MultiIndex,
    apply_puncture_dilaton,
    apply_trr_kappa,
    apply_trr_psi,
    degree_sum,
    evaluate,
    evaluate_combination,
    expected_dimension,
    make_key,
)
from .potentials import (
    PotentialSpec,
    build_H_series,
    cp1_closed_form_series,
    cp1_h_sequence,
    cp1_penult_residual,
    cp1_spec,
    trr_pde_residuals,
    wdvv_residuals,
)
from .target import TargetModel, projective_space
from .trees import (
    DecoratedTree,
    Decoration,
    aut_order,
    enumerate_two_vertex_divisors,
    forgetful_pushforward,
    psi_boundary_presentation,
    two_vertex_tree,
)

Entry = tuple[int, int]

MAX_POINTS = 5  # tau points a sampled key starts with, at most

# the tau points each pivot shape pads to, with level-0 points
PAD_TO = {"psi": 3, "kappa_pos": 2, "kappa_zero": 2}


class Report:
    """One suite's verdict and its report lines, one line per check."""

    def __init__(self, *header: str):
        self.ok = True
        self.lines = list(header)

    def check(self, text: str, good: bool) -> None:
        self.ok = self.ok and good
        self.lines.append(f"{'ok  ' if good else 'FAIL'} {text}")

    def equal(self, name: str, key: CorrelatorKey, lhs, rhs) -> None:
        """Check that two routes give ``key`` the same value; print both."""
        text = f"{name} {key.target.name} {_format_key(key)}: {lhs} vs {rhs}"
        self.check(text, lhs == rhs)

    def result(self) -> tuple[bool, list[str]]:
        return self.ok, self.lines


def _degree_gap(key: CorrelatorKey) -> int:
    return degree_sum(key) - 2 * expected_dimension(key)


def random_admissible_key(
    target: TargetModel,
    rng: random.Random,
    d_max: int = 3,
    need: str | None = None,
) -> CorrelatorKey:
    """Sample a selection-valid key, optionally guaranteeing pivot material.

    need: "psi" (a tau of level >= 1 plus two more points), "kappa_pos"
    (a kappa of level >= 1 plus two tau points), "kappa_zero" (a level-0
    kappa plus two tau points), "pd" (a comparison-relation pivot: a tau of
    level >= 1, at degree d >= 1).  With a ``need`` the degree is >= 1.

    The pivot material is placed before the degree gap is closed, and it
    survives the two closing loops, since they only add tau_0(e_0) points
    and raise tau levels: the pivot stays, the point count only grows, and
    the kappa classes are left as they are.  So the first key whose gap
    closes is returned; a zero gap is the selection rule, since a degree-0
    key with fewer than three points is refused before the loops.
    """
    rank = target.rank
    for _ in range(400):
        d = rng.randint(1, d_max) if need else rng.randint(0, d_max)
        n_tau = rng.randint(0, MAX_POINTS - 1)
        tau = [
            (rng.choice([0, 0, 0, 1, 1, 2]), rng.randrange(rank))
            for _ in range(n_tau)
        ]
        kappa = [
            (rng.choice([-1, 0, 0, 1]), rng.randrange(rank))
            for _ in range(rng.randint(0, 3))
        ]
        if need in ("psi", "pd"):
            tau.append((rng.randint(1, 2), rng.randrange(rank)))
        elif need in ("kappa_pos", "kappa_zero"):
            level = rng.randint(1, 2) if need == "kappa_pos" else 0
            kappa.append((level, rng.randrange(rank)))
            tau = [(0, alpha) for _, alpha in tau]
        while len(tau) < PAD_TO.get(need, 0):
            tau.append((0, rng.randrange(rank)))

        key = CorrelatorKey(target, MultiIndex(tau), MultiIndex(kappa), d)
        if key.d == 0 and key.n < 3:
            continue
        gap = _degree_gap(key)
        while gap > 0 and key.n < MAX_POINTS + 3:
            key = CorrelatorKey(target, key.m.add(0, 0), key.p, key.d)
            gap = _degree_gap(key)
        while gap < 0 and key.m:
            a, alpha = key.m[-1]
            key = CorrelatorKey(target, key.m.remove(a, alpha).add(a + 1, alpha), key.p, key.d)
            gap = _degree_gap(key)
        if gap == 0:
            return key
    raise RuntimeError(f"could not sample an admissible key (need={need})")


def _format_key(key: CorrelatorKey) -> str:
    taus = " ".join(
        f"tau_{a}^{alpha}" + (f"*{m}" if m > 1 else "")
        for (a, alpha), m in key.m.counts()
    )
    kappas = " ".join(
        f"kappa_{a},{alpha}" + (f"*{m}" if m > 1 else "")
        for (a, alpha), m in key.p.counts()
    )
    inner = " ".join(x for x in (taus, kappas) if x)
    return f"<{inner}>_{key.d}" if inner else f"<>_{key.d}"


def sample_relation_keys(
    targets: list[TargetModel], count: int, seed: int, d_max: int = 3
) -> list[CorrelatorKey]:
    """Deterministic pool of admissible keys cycling through pivot shapes."""
    import random

    rng = random.Random(seed)
    needs = ["psi", "kappa_pos", "kappa_zero", "pd"]
    keys = []
    i = 0
    while len(keys) < count:
        target = targets[i % len(targets)]
        need = needs[(i // len(targets)) % len(needs)]
        keys.append(random_admissible_key(target, rng, d_max, need))
        i += 1
    return keys


def two_sided_checks(key: CorrelatorKey) -> list[tuple[str, Fraction, Fraction]]:
    """LHS/RHS pairs for every relation whose preconditions the key meets.

    The recursions take the shallowest pivot and the last two other points
    as co-pivots, where ``evaluate`` takes the deepest pivot and the first
    two points, so a check compares two different moves whenever the key
    allows more than one."""
    out = []
    lhs = evaluate(key)
    points = key.m
    psi_pivots = [e for e in points if e[0] >= 1]
    if psi_pivots and len(points) >= 3:
        pivot = min(psi_pivots)
        others = list(points)
        others.remove(pivot)
        comb = apply_trr_psi(key, pivot, (others[-2], others[-1]))
        out.append(("trr-psi", lhs, evaluate_combination(comb)))
    if key.n >= 2:
        for name, pred in (
            ("trr-kappa", lambda a: a >= 1),
            ("trr-kappa0", lambda a: a == 0),
        ):
            pivots = [e for e in key.p if pred(e[0])]
            if pivots:
                comb = apply_trr_kappa(key, min(pivots), (points[-2], points[-1]))
                out.append((name, lhs, evaluate_combination(comb)))
    if psi_pivots and not (key.d == 0 and key.n == 3):
        comb = apply_puncture_dilaton(key, max(psi_pivots))
        out.append(("comparison", lhs, evaluate_combination(comb)))
    return out


def verify_trr(
    targets: list[TargetModel], samples: int, seed: int
) -> tuple[bool, list[str]]:
    """Two-sided checks of the recursion relations on random keys."""
    report = Report(f"seed {seed}")
    for key in sample_relation_keys(targets, samples, seed):
        for name, lhs, rhs in two_sided_checks(key):
            report.equal(name, key, lhs, rhs)
    return report.result()


def verify_dilaton(
    targets: list[TargetModel], samples: int, seed: int
) -> tuple[bool, list[str]]:
    """Comparison-relation checks plus the special-value laws.

    Each law's left side comes from the oracle, since ``evaluate`` reads
    kappa_0(e_0) and kappa_{-1}(D) as the numbers the laws state."""
    import random

    from .oracle import oracle

    rng = random.Random(seed)
    report = Report(f"seed {seed}")
    per_target = max(1, samples // len(targets))
    for target in targets:
        for i in range(per_target):
            key = random_admissible_key(target, rng, need="pd")
            rhs = evaluate_combination(apply_puncture_dilaton(key, key.m[-1]))
            report.equal("comparison", key, evaluate(key), rhs)
            # kappa_{0,0} insertion multiplies by n - 2
            base = random_admissible_key(target, rng)
            with_k = CorrelatorKey(target, base.m, base.p.add(0, 0), base.d)
            rhs = (base.n - 2) * evaluate(base)
            report.equal("kappa00-law", base, oracle(with_k), rhs)
            # kappa_{-1,divisor} insertion multiplies by the degree pairing
            if base.d >= 1:
                alpha_div, pairing = target.divisor_class(base.d)
                with_km = CorrelatorKey(
                    target, base.m, base.p.add(-1, alpha_div), base.d
                )
                rhs = pairing * evaluate(base)
                report.equal("kappa-1-law", base, oracle(with_km), rhs)
    # degree-0 keys with fewer than three points vanish
    for target in targets:
        zero_key = make_key(target, tau=[(0, 0, 2)], kappa=[(-1, 1, 1)], d=0)
        report.check(f"degree-0 convention {target.name}", evaluate(zero_key) == 0)
    return report.result()


def verify_path_independence(
    targets: list[TargetModel], samples: int, seed: int
) -> tuple[bool, list[str]]:
    """The engine versus the oracle (``gwtaut.oracle``) on the same key pool."""
    from .oracle import oracle

    report = Report(f"seed {seed}")
    for key in sample_relation_keys(targets, samples, seed):
        report.equal("paths", key, evaluate(key), oracle(key))
    return report.result()


def verify_wdvv(specs: list[PotentialSpec]) -> tuple[bool, list[str]]:
    """Associativity of each spec's potential, one line per index quadruple.

    Every spec needs all t_0^alpha active; its s variables are parameters.
    """
    report = Report()
    for spec in specs:
        residuals = wdvv_residuals(build_H_series(spec), spec.target)
        for quad, series in sorted(residuals.items()):
            report.check(f"wdvv {spec.target.name} quadruple {quad}", series.is_zero())
    return report.result()


def verify_cp1(q_cap: int = 3, h_count: int = 8) -> tuple[bool, list[str]]:
    """P^1 closed form versus the engine, h-numbers, and the PDE systems."""
    report = Report()

    hs = cp1_h_sequence(h_count)
    target = projective_space(1)
    for n in range(1, h_count + 1):
        engine = evaluate(make_key(target, kappa=[(0, 1, 2 * n - 2)], d=n))
        report.check(f"h_{n} = {hs[n - 1]} vs engine {engine}", engine == hs[n - 1])

    spec = cp1_spec(q_cap=q_cap, var_cap=2 * q_cap, total_cap=2 * q_cap)
    engine_series = build_H_series(spec)
    closed = cp1_closed_form_series(q_cap, spec)
    report.check(f"closed form == engine (q<={q_cap})", engine_series == closed)

    for name, residual in trr_pde_residuals(engine_series, spec):
        report.check(f"pde {name}", residual.is_zero())

    residual = cp1_penult_residual(max(q_cap, 2))
    report.check("q-log-derivative equation", residual.is_zero())
    return report.result()


def verify_trees() -> tuple[bool, list[str]]:
    """Golden checks of the tree calculus."""
    report = Report()
    check = report.check

    def star(betas):
        """Three-vertex star, all tails at the centre."""
        return DecoratedTree(betas, ((0, 1), (0, 2)), ((1, 0), (2, 0), (3, 0)))

    check("two identical tail-less legs swap", aut_order(star((0, 1, 1))) == 2)
    check("distinct degrees break the swap", aut_order(star((0, 1, 2))) == 1)
    pinned = two_vertex_tree((1, 2), (3,), 1, 1)
    check("labeled tails pin the vertices", aut_order(pinned) == 1)

    # worked pushforward example: two-vertex tree, tails 1-3 left, 4-5 right
    gamma2 = Decoration("class", ("gamma2",), 2, pushable=False)
    gamma1 = Decoration("class", ("gamma1",), 2, pushable=True)
    generic = DecoratedTree(
        betas=(1, 1),
        edges=((0, 1),),
        tails=((1, 0), (2, 0), (3, 0), (4, 1), (5, 1)),
        decorations=((0, gamma2), (1, gamma1)),
    )
    pushed = forgetful_pushforward(generic, 5)
    check("generic pushforward keeps the shape", len(pushed) == 1)
    tree, coeff = next(iter(pushed.items()))
    check("generic pushforward coefficient 1", coeff == Fraction(1))
    check(
        "pushforward image token",
        any(tok.data == ("pi_*(gamma1)",) for tok in tree.decorations_at(1)),
    )

    dying = DecoratedTree(
        betas=(2, 0),
        edges=((0, 1),),
        tails=((1, 0), (2, 0), (3, 0), (4, 1), (5, 1)),
        decorations=((1, gamma1),),
    )
    check("positive-degree token dies with the vertex", len(forgetful_pushforward(dying, 5)) == 0)
    plain = DecoratedTree(
        betas=(2, 0),
        edges=((0, 1),),
        tails=((1, 0), (2, 0), (3, 0), (4, 1), (5, 1)),
    )
    stabilized = forgetful_pushforward(plain, 5)
    check("unit token stabilizes", len(stabilized) == 1)
    tree, coeff = next(iter(stabilized.items()))
    check(
        "stabilization reattaches the tail",
        tree.n_vertices == 1 and set(tree.labels) == {1, 2, 3, 4},
    )
    check("stabilization coefficient 1", coeff == Fraction(1))

    check(
        "psi_(3,2) has two divisor terms",
        len(psi_boundary_presentation(3, 2, 1)) == 2,
    )
    check(
        "psi_(3,0) vanishes",
        len(psi_boundary_presentation(3, 0, 1)) == 0,
    )
    check(
        "four-point degree-0 boundary count",
        len(enumerate_two_vertex_divisors(4, 0)) == 3,
    )
    return report.result()
