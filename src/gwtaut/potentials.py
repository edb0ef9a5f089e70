"""Generating functions and their differential-equation checks.

``build_H_series`` assembles the truncated twisted potential
H = sum 1/m! 1/p! <tau^m kappa^p>_d t^m s^p q^d over an active variable
set; the pure potential is the spec with no s entries (which is what
``gw.gw_potential_series`` builds).  ``wdvv_residuals`` checks the
associativity of any potential of its target with every t_0^alpha active,
the s variables riding along as parameters; ``trr_pde_residuals`` checks the
recursion relations in differential form.  Both read one context: a registry
check, a partials memo and the eta^{-1} contraction G(L|R) = sum eta^{ef}
F_{L e} F_{f R}.  The P^1 helpers reproduce the closed-form solution, its
h-number recursion, and the single q-log-derivative equation the recursions
collapse to.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations_with_replacement, repeat
from math import factorial, lcm, prod
from operator import mul

from .correlators import _normal_index, _valid_key, evaluate
from .series import QSeries, Record, Truncation, Variable, VarRegistry
from .target import TargetModel, json_int, projective_space

Entry = tuple[int, int]

ZERO = Fraction(0)


def _grading(target: TargetModel, kind: str, a: int, alpha: int) -> int:
    """The grading of a potential's variable on ``target``: t_a^alpha is
    2a - 2 + |e_alpha|, s_a^alpha is 2a + |e_alpha| and q is -2 c1."""
    if kind == "q":
        return -2 * target.c1_degree
    return 2 * a + target.gradings[alpha] - (2 if kind == "t" else 0)


class PotentialSpec(Record):
    """Active variables and truncation bounds for an H-series build."""

    target: TargetModel
    t_entries: tuple[Entry, ...]
    s_entries: tuple[Entry, ...]
    caps: tuple[int, ...]  # aligned with t_entries + s_entries
    q_cap: int
    total_cap: int | None = None

    def __post_init__(self):
        """The one home of the spec checks; ``build_H_series`` trusts them."""
        rank = self.target.rank
        if not all(type(x) is tuple for x in (self.t_entries, self.s_entries, self.caps)):
            raise ValueError("t_entries, s_entries and caps must be tuples")
        for kind, entries, low in (("t", self.t_entries, 0), ("s", self.s_entries, -1)):
            for entry in entries:
                pair = type(entry) is tuple and len(entry) == 2
                if not (pair and all(type(x) is int for x in entry)):
                    raise ValueError(f"{kind} entry {entry!r} must be a pair of ints")
                a, alpha = entry
                if not (a >= low and 0 <= alpha < rank):
                    raise ValueError(
                        f"{kind} entry {entry!r} needs a >= {low} and 0 <= alpha < {rank}"
                    )
            if list(entries) != sorted(set(entries)):
                raise ValueError(f"{kind} entries must be strictly increasing")
        if len(self.caps) != len(self.t_entries) + len(self.s_entries):
            raise ValueError("one cap per active variable is required")
        total = 0 if self.total_cap is None else self.total_cap
        if any(type(b) is not int or b < 0 for b in (*self.caps, self.q_cap, total)):
            raise ValueError("caps, q_cap and total_cap must be non-negative ints")

    def context(self) -> tuple[VarRegistry, Truncation]:
        t = self.target
        variables = [
            Variable("t", a, alpha, _grading(t, "t", a, alpha)) for a, alpha in self.t_entries
        ]
        variables += [
            Variable("s", a, alpha, _grading(t, "s", a, alpha)) for a, alpha in self.s_entries
        ]
        variables.append(Variable("q", 0, 0, _grading(t, "q", 0, 0)))
        registry = VarRegistry(variables)
        trunc = Truncation(self.caps + (self.q_cap,), self.total_cap)
        return registry, trunc


def make_spec(
    target: TargetModel,
    t_entries,
    s_entries,
    var_cap: int,
    q_cap: int,
    total_cap: int | None = None,
) -> PotentialSpec:
    t_entries = tuple(sorted(t_entries))
    s_entries = tuple(sorted(s_entries))
    caps = tuple([var_cap] * (len(t_entries) + len(s_entries)))
    return PotentialSpec(target, t_entries, s_entries, caps, q_cap, total_cap)


def cp1_spec(q_cap: int = 3, var_cap: int = 6, total_cap: int | None = 6) -> PotentialSpec:
    """The five-variable P^1 window: x0, x1, s_{-1}^1, s_0^0, s_0^1."""
    return make_spec(
        projective_space(1),
        t_entries=((0, 0), (0, 1)),
        s_entries=((-1, 1), (0, 0), (0, 1)),
        var_cap=var_cap,
        q_cap=q_cap,
        total_cap=total_cap,
    )


def build_H_series(spec: PotentialSpec) -> QSeries:
    """Assemble the twisted potential over the spec's window.

    Every monomial with the correct homogeneity is filled, in exponent
    order and on the calling thread, with the exact correlator value
    weighted by 1/m! 1/p!.  The spec has checked its entries (valid and
    increasing), so each cell's key is built without checks: m and p are
    the spec's entries repeated by their exponents, already sorted.  The
    walk yields only admitted cells, so each nonzero one is packed straight
    into its key and kept as (numerator, denominator * m! p!) without
    dividing ``Fraction``s.  The spec's entries are distinct, so m! p! is
    the product of the factorials of the cell's t and s exponents.
    ``QSeries._from_valid`` over the lcm of those denominators divides out
    the common gcd, which leaves the lowest-terms series the public
    constructor would build.
    """
    registry, trunc = spec.context()
    t, s = spec.t_entries, spec.s_entries
    weights = trunc._packing(registry.q_index())[0]
    cells = {}
    for exps in trunc.graded_exponents(registry, 2 * (spec.target.dim_complex - 3)):
        m = _normal_index(chain.from_iterable(map(repeat, t, exps)))
        p = _normal_index(chain.from_iterable(map(repeat, s, exps[len(t) :])))
        value = evaluate(_valid_key((spec.target, m, p, exps[-1])))
        if value:
            weight = value.denominator * prod(map(factorial, exps[:-1]))
            cells[sum(map(mul, exps, weights))] = (value.numerator, weight)
    den = lcm(*(weight for _, weight in cells.values()))
    nums = {x: num * (den // weight) for x, (num, weight) in cells.items()}
    return QSeries._from_valid(registry, trunc, nums, den)


# -- P^1 closed form ---------------------------------------------------------------


def cp1_h_sequence(n_terms: int) -> list[Fraction]:
    """h_1..h_N of the P^1 closed form, from the quadratic recursion."""
    if json_int(n_terms, "a term count") < 1:
        raise ValueError("need at least one term")
    hs = [Fraction(1)]
    for n in range(1, n_terms):
        acc = ZERO
        for ell in range(1, n + 1):
            acc += (
                Fraction(
                    factorial(2 * n - 1) * ell**2 * (n + 1 - ell) ** 2,
                    factorial(2 * ell - 2) * factorial(2 * (n - ell)) * (n + 1),
                )
                * hs[ell - 1]
                * hs[n - ell]
            )
        hs.append(acc)
    return hs


def _cp1_sum(
    arg: QSeries, s01: QSeries, q: QSeries, n_max: int, hs: list[Fraction]
) -> QSeries:
    """Sum over n = 1..n_max of q^n e^{n arg} s01^{2n-2} h_n / (2n-2)!."""
    if len(hs) < n_max:
        raise ValueError(f"need h_1..h_{n_max}, got {len(hs)} h-numbers")
    acc = QSeries.zero(q.registry, q.trunc)
    q_power = QSeries.one(q.registry, q.trunc)
    s01_sq = s01 * s01
    s01_power = QSeries.one(q.registry, q.trunc)
    for n in range(1, n_max + 1):
        q_power = q_power * q
        if n > 1:
            s01_power = s01_power * s01_sq
        term = q_power * (arg * n).exp() * s01_power
        acc = acc + term * Fraction(hs[n - 1], factorial(2 * n - 2))
    return acc


def cp1_closed_form_series(
    n_terms: int,
    spec: PotentialSpec,
    include_classical: bool = True,
    hs: list[Fraction] | None = None,
) -> QSeries:
    """The P^1 potential from its closed form, on the spec's window.

    Sums e^{-2 s00} qt^n (s01)^{2n-2} h_n / (2n-2)! with
    qt = q exp(s_{-1}^1 + e^{s00} (x1 + s01 x0)), plus the degree-0
    cubic part when requested.
    """
    if spec.t_entries != ((0, 0), (0, 1)) or spec.s_entries != (
        (-1, 1),
        (0, 0),
        (0, 1),
    ):
        raise ValueError("the closed form needs the five-variable P^1 spec")
    if spec.target != projective_space(1):
        raise ValueError(f"the closed form is P^1's, not {spec.target.name}'s")
    if json_int(n_terms, "a term count") < 0:
        raise ValueError(f"the term count must be non-negative, got {n_terms}")
    registry, trunc = spec.context()

    def var(kind, a, alpha):
        return QSeries.variable(registry, trunc, kind, a, alpha)

    x0, x1 = var("t", 0, 0), var("t", 0, 1)
    sm11, s00, s01 = var("s", -1, 1), var("s", 0, 0), var("s", 0, 1)
    q = var("q", 0, 0)

    arg = sm11 + s00.exp() * (x1 + s01 * x0)
    n_max = min(n_terms, spec.q_cap)
    hs = hs or cp1_h_sequence(max(n_max, 1))
    acc = (s00 * (-2)).exp() * _cp1_sum(arg, s01, q, n_max, hs)
    if include_classical:
        cubic = x0 * x0 * x1 * Fraction(1, 2) + x0 * x0 * x0 * s01 * Fraction(1, 6)
        acc = acc + s00.exp() * cubic
    return acc


def cp1_penult_residual(
    n_terms: int, hs: list[Fraction] | None = None
) -> QSeries:
    """Residual of d(H'')/ds01 - 2 s01 H'' H''' - x0 H''' through q^N.

    H is the closed form restricted to x0, x1, s01 and q; primes are
    q d/dq.  Zero exactly when the h-numbers satisfy their recursion.
    """
    if json_int(n_terms, "a term count") < 1:
        raise ValueError("need at least one q order")
    s01_cap = max(2 * n_terms - 1, 1)
    caps = (n_terms, n_terms, s01_cap)
    spec = PotentialSpec(projective_space(1), ((0, 0), (0, 1)), ((0, 1),), caps, n_terms)
    registry, trunc = spec.context()

    def var(kind, a, alpha):
        return QSeries.variable(registry, trunc, kind, a, alpha)

    x0, x1, s01, q = var("t", 0, 0), var("t", 0, 1), var("s", 0, 1), var("q", 0, 0)
    hs = hs or cp1_h_sequence(n_terms)
    h_tilde = _cp1_sum(x1 + s01 * x0, s01, q, n_terms, hs)
    h2 = h_tilde.q_log_derivative().q_log_derivative()
    h3 = h2.q_log_derivative()
    window = Truncation(
        (n_terms - 1, n_terms - 1, max(s01_cap - 2, 0), n_terms), None
    )
    lhs = h2.partial_derivative("s", 0, 1).restrict(window)
    rhs = (s01 * h2 * h3 * 2 + x0 * h3).restrict(window)
    return lhs - rhs


# -- residual systems ---------------------------------------------------------------


def _residual_context(potential: QSeries, target: TargetModel):
    """``(d, G)``: the partials and contractions of a potential of ``target``.

    The registry must be a potential's on ``target`` (every variable graded as
    ``PotentialSpec.context`` grades it, every t_0^alpha present), or
    ``ValueError`` is raised.  Both read the window where all third partials
    are exact: every cap but q's, and the total cap, lowered by 3.
    ``d(*variables)`` is a partial derivative by ``(kind, a, alpha)`` triples;
    partials commute, so it is memoized by the sorted variables.  It refuses
    q by name: the window keeps q's cap, which a q-derivative would lower.
    Behind it a second memo holds the unrestricted derivatives by sorted
    path, so each new partial is one ``partial_derivative`` of its prefix's
    entry and only that result is restricted to the window.
    ``G(left, right)`` is sum_{e,f} eta^{ef} d(*left, x_e) d(x_f, *right).  It
    is symmetric within each side and, as eta^{-1} is (``TargetModel``
    enforces it), under swapping the sides: it is memoized by the sorted pair
    of sorted sides, and skips an eta^{-1} term with an empty partial before
    its product.
    """
    registry = potential.registry
    rank = target.rank
    for v in registry:
        in_basis = v.kind == "q" or (type(v.alpha) is int and 0 <= v.alpha < rank)
        if not (in_basis and v.grading == _grading(target, v.kind, v.a, v.alpha)):
            raise ValueError(f"variable {v.name} is not graded as on {target.name}")
    keys = {v.key for v in registry}
    missing = [f"x{alpha}" for alpha in range(rank) if ("t", 0, alpha) not in keys]
    if missing:
        raise ValueError(f"the potential lacks {', '.join(missing)}")
    qi, trunc = registry.q_index(), potential.trunc
    caps = tuple(c if i == qi else max(c - 3, 0) for i, c in enumerate(trunc.caps))
    total = trunc.total_cap
    window = Truncation(caps, None if total is None else max(total - 3, 0))
    x = [("t", 0, alpha) for alpha in range(rank)]
    pairs = target.eta_inverse_pairs()
    derivatives: dict[tuple, QSeries] = {(): potential}
    partials: dict[tuple, QSeries] = {}
    contractions: dict[tuple, QSeries] = {}

    def derivative(path: tuple) -> QSeries:
        if path not in derivatives:
            derivatives[path] = derivative(path[:-1]).partial_derivative(*path[-1])
        return derivatives[path]

    def d(*variables) -> QSeries:
        key = tuple(sorted(variables))
        if key not in partials:
            if any(kind == "q" for kind, _, _ in key):
                raise ValueError("the residual partials take t and s variables, not q")
            partials[key] = derivative(key).restrict(window)
        return partials[key]

    def G(left: tuple, right: tuple) -> QSeries:
        key = tuple(sorted((tuple(sorted(left)), tuple(sorted(right)))))
        if key not in contractions:
            left, right = key
            acc = QSeries.zero(registry, window)
            for e, f, w in pairs:
                first = d(*left, x[e])
                if not first:
                    continue
                second = d(x[f], *right)
                if second:
                    acc = acc + first * second * w
            contractions[key] = acc
        return contractions[key]

    return d, G


def wdvv_residuals(
    potential: QSeries, target: TargetModel
) -> dict[tuple[int, int, int, int], QSeries]:
    """Associativity residuals, one series per index quadruple (a, b, c, d).

    The quadruple residual is G(ab|cd) - G(bc|ad), where
    G(ab|cd) = sum_{e,f} eta^{ef} F_abe F_fcd is the contraction of
    ``_residual_context``, built once per call for each entry.
    """
    _, G = _residual_context(potential, target)
    rank = target.rank
    x = [("t", 0, alpha) for alpha in range(rank)]
    return {
        (a, b, c, dd): G((x[a], x[b]), (x[c], x[dd])) - G((x[b], x[c]), (x[a], x[dd]))
        for a in range(rank)
        for c in range(a + 1, rank)
        for b in range(rank)
        for dd in range(rank)
    }


def wdvv_residual(potential: QSeries, target: TargetModel) -> QSeries:
    """Sum of the quadruple residuals over the canonical index list.

    A weaker check than ``wdvv_residuals``: nonzero residuals can cancel in
    the sum, so a zero sum does not mean every residual vanishes.
    """
    d, _ = _residual_context(potential, target)
    total = QSeries.zero(potential.registry, d().trunc)
    residuals = wdvv_residuals(potential, target)
    for quad in sorted(residuals):
        total = total + residuals[quad]
    return total


def trr_pde_residuals(
    h_series: QSeries, spec: PotentialSpec
) -> list[tuple[str, QSeries]]:
    """Residuals of the three recursion-relation PDE families.

    Instances are enumerated over the spec's active variables; an instance
    whose cross-reference variable is inactive is skipped, except that
    derivatives by s_{-1}^0 are identically zero (the kappa_{-1} class of the
    unit vanishes).  Every family needs all t_0^sigma, so without them there
    are no instances.  The series' registry must be a potential's on
    ``spec.target``, or ``ValueError`` is raised.
    """
    target = spec.target
    t_act = set(spec.t_entries)
    s_act = set(spec.s_entries)
    if any((0, sigma) not in t_act for sigma in range(target.rank)):
        return []
    d, G = _residual_context(h_series, target)
    out: list[tuple[str, QSeries]] = []
    for (a2, alpha2), (a3, alpha3) in combinations_with_replacement(sorted(t_act), 2):
        e2, e3 = ("t", a2, alpha2), ("t", a3, alpha3)
        pair_name = f"|t{a2},{alpha2}|t{a3},{alpha3}"
        # families 1 and 2: psi pivots, and kappa pivots of level >= 1
        for kind, active in (("t", t_act), ("s", s_act)):
            for a1, alpha1 in sorted(active):
                if a1 < 1 or (a1 - 1, alpha1) not in active:
                    continue
                lhs = d((kind, a1, alpha1), e2, e3)
                rhs = G(((kind, a1 - 1, alpha1),), (e2, e3))
                out.append((f"{kind}{a1},{alpha1}{pair_name}", lhs - rhs))
        # family 3: kappa pivots of level 0, with the cup correction
        for a1, alpha1 in sorted(s_act):
            if a1 != 0:
                continue
            cup = [
                (a, alpha, nu, c_nu)
                for a, alpha in sorted(t_act)
                for nu, c_nu in target.cup_product(alpha, alpha1).items()
            ]
            if any((a, nu) not in t_act for a, _, nu, _ in cup):
                continue
            if (-1, alpha1) in s_act:
                rhs = G((("s", -1, alpha1),), (e2, e3))
            elif alpha1 == 0:
                rhs = 0  # kappa_{-1} of the unit vanishes
            else:
                continue
            correction = sum(
                d(("t", a, nu), e2, e3).multiply_variable("t", a, alpha) * c_nu
                for a, alpha, nu, c_nu in cup
            )
            lhs = d(("s", 0, alpha1), e2, e3)
            out.append((f"s0,{alpha1}{pair_name}", lhs - rhs - correction))
    return out
