"""Even cohomology model of the target variety.

A ``TargetModel`` packages the Frobenius data of H*(V): a graded basis
e_0..e_r with e_0 the unit, the Poincare pairing, cup-product structure
constants, the pairing of the first Chern class against a unit curve
degree, and the handful of geometric normalizations the reconstruction
needs (pure two-point degree-one seeds and the per-unit pairing of each
divisor class against a curve degree).

Projective space P^r ships built in; arbitrary even-graded Frobenius data
can be loaded from a JSON config.  Curve degrees are plain non-negative
ints (effective multiples of the line class).  Tensor entries must be
exact: ``int`` (not ``bool``) or ``Fraction``.  A target must satisfy the
Frobenius axioms (the cup product is commutative, associative and graded,
and eta(ab, c) = eta(a, bc)), and its pairing must be graded: eta_ab = 0
unless |e_a| + |e_b| is the top grading, so eta^{-1} is graded too and a
boundary node's two classes e_s1, e_s2 add up to the top grading.  Each
divisor pairing must sit on its own basis class of grading 2, and each seed,
given once, on basis classes (stored sorted, as ``seed_value`` reads them)
at a degree d >= 1.  A seed must also be one the pure step of
``correlators.evaluate`` can read: no class of grading 0 or 2 (the unit and
divisor axioms fire first), and its classes and degree pass the selection
rule.

Next to the fields, each target builds two sparse tables once: the
nonzero cup constants of each (alpha, beta) and the nonzero entries of
eta^{-1}, the latter also grouped by the grading of their first index.
``cup_product``, ``cup_vector``, ``eta_inverse_pairs`` and
``eta_inverse_pairs_by_grading`` read them.  It also keeps the one table
of per-unit pairings (``kappa_minus_one_per_unit``): the classes whose
kappa_{-1} is a number, c * d at curve degree d, with c the divisor pairing
or 0 for a class of grading 0.  Forgetting a point that carries e_alpha
multiplies a genus-0 invariant by the same number, so the table has three
readers: the kappa_{-1} step of ``correlators.evaluate``, the unit and
divisor axioms of its pure step, and ``divisor_class``.  A table entry is
an ``int`` when it is integral (always, on P^r) and a ``Fraction``
otherwise, so the correlator engine can keep integer coefficients as
``int``s.

This module is the bottom of the import graph, so it also holds what every
layer shares: ``Record``, the base of the package's frozen records, and the
exact-rational helpers ``exact_rational``, ``format_rational`` and
``parse_rational``.  ``Record`` replaces ``dataclass(frozen=True)``, whose
import pulls ``inspect``, ``ast`` and ``dis`` into every cold start.  Keeping
them here, not in ``series``, lets a correlator run without loading
``series`` at all.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from operator import attrgetter

FrMatrix = tuple[tuple[Fraction, ...], ...]
Rational = int | Fraction


def json_int(value, what: str) -> int:
    """An integer field of JSON input: an ``int`` that is not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def check_degree(d: int) -> int:
    if isinstance(d, bool) or not isinstance(d, int) or d < 0:
        raise ValueError(f"curve degree must be a non-negative integer, got {d!r}")
    return d


def exact_rational(value, what: str = "coefficient") -> Fraction:
    """``value`` as a ``Fraction``; only ``int`` (not ``bool``) and ``Fraction`` pass."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"{what} must be an int or a Fraction, got {value!r}")


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    den = int(den) if den else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), den)


class Record:
    """Base of the frozen records; a subclass's annotated names are its fields.

    A class attribute named like a field is its default.  The constructor
    takes fields by position or keyword (``TypeError`` on a missing, unknown
    or repeated one) and calls ``__post_init__``.  Attributes cannot be
    assigned or deleted (``AttributeError``); derived data goes in with
    ``object.__setattr__``.  ``repr`` (the dataclass form, which sort keys
    rely on), ``==`` (same class only) and ``hash`` read the fields as one tuple.
    Pickle and ``deepcopy`` rebuild a record through its constructor, so the
    checks and the derived data (a cached hash, say) are made afresh: string
    hashes differ between processes.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = names = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
        cls._values = attrgetter(*names)  # two or more fields, so always a tuple
        cls._repr = f"{cls.__qualname__}({', '.join(f'{name}=%r' for name in names)})"

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments")
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args) :]:
            try:
                values[name] = kwargs.pop(name) if name in kwargs else cls._defaults[name]
            except KeyError:
                raise TypeError(f"{cls.__name__}() is missing the argument {name!r}") from None
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unknown or repeated arguments {[*kwargs]}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return self._repr % self._values(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return type(self), self._values(self)


class TargetModel(Record):
    name: str
    gradings: tuple[int, ...]
    eta: FrMatrix
    cup: tuple[tuple[tuple[Fraction, ...], ...], ...]  # cup[a][b][nu]
    c1_degree: int  # pairing of c1(T_V) with the unit curve degree
    # (alpha, per-unit pairing int_1 e_alpha) for degree-2 basis classes
    divisor_pairings: tuple[tuple[int, Fraction], ...] = ()
    # normalized pure-GW seeds: ((classes...), d) -> value
    seeds: tuple[tuple[tuple[int, ...], int, Fraction], ...] = ()

    def __post_init__(self):
        n = len(self.gradings)
        for g in self.gradings:
            json_int(g, "a grading")
        json_int(self.c1_degree, "c1_degree")
        if any(g % 2 != 0 or g < 0 for g in self.gradings):
            raise ValueError("only even, non-negative cohomology gradings are supported")
        if not self.gradings:
            raise ValueError("the basis must not be empty")
        if self.gradings[0] != 0:
            raise ValueError("e_0 must have grading 0")
        if len(self.eta) != n or any(len(row) != n for row in self.eta):
            raise ValueError("eta must be a square matrix on the basis")
        for a in range(n):
            for b in range(n):
                if self.eta[a][b] != self.eta[b][a]:
                    raise ValueError("eta must be symmetric")
        if len(self.cup) != n or any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in self.cup
        ):
            raise ValueError("cup tensor must be rank (n, n, n)")
        for what, values in (
            ("an eta entry", (x for row in self.eta for x in row)),
            ("a cup entry", (x for plane in self.cup for row in plane for x in row)),
            ("a divisor pairing", (value for _, value in self.divisor_pairings)),
            ("a seed value", (value for *_, value in self.seeds)),
        ):
            for x in values:
                exact_rational(x, what)
        for b in range(n):
            for nu in range(n):
                expected = Fraction(1) if nu == b else Fraction(0)
                if self.cup[0][b][nu] != expected:
                    raise ValueError("e_0 must act as the unit in the cup product")
        divisors = [json_int(alpha, "a divisor class") for alpha, _ in self.divisor_pairings]
        if any(not 0 <= alpha < n or self.gradings[alpha] != 2 for alpha in divisors):
            raise ValueError("a divisor pairing needs a basis class of grading 2")
        if len(set(divisors)) != len(divisors):
            raise ValueError("a divisor class may carry only one pairing")
        seeds = []
        for classes, d, value in self.seeds:
            classes = tuple(sorted(json_int(c, "a seed class") for c in classes))
            if any(not 0 <= c < n for c in classes):
                raise ValueError(f"seed class out of range in {classes}")
            if json_int(d, "a seed degree") < 1:
                raise ValueError(f"a seed needs a degree d >= 1, got {d}")
            # the pure step reads a seed only after the unit and divisor axioms
            if any(self.gradings[c] in (0, 2) for c in classes):
                raise ValueError(f"a seed class needs a grading other than 0 and 2: {classes}")
            if not self.balanced(sum(self.gradings[c] for c in classes), len(classes), d):
                raise ValueError(f"seed {classes} at degree {d} fails the selection rule")
            seeds.append((classes, d, value))
        if len({seed[:2] for seed in seeds}) != len(seeds):
            raise ValueError("a seed may be given only once per classes and degree")
        object.__setattr__(self, "seeds", tuple(seeds))
        # derived data, kept outside the fields, hash and equality
        pairs = tuple(
            (s1, s2, _narrow(w))
            for s1, row in enumerate(_invert(self.eta))
            for s2, w in enumerate(row)
            if w
        )
        cup_table = tuple(
            tuple({nu: _narrow(c) for nu, c in enumerate(row) if c} for row in plane)
            for plane in self.cup
        )
        object.__setattr__(self, "_eta_inverse_pairs", pairs)
        by_grading: dict[int, list] = {}
        for pair in pairs:
            by_grading.setdefault(self.gradings[pair[0]], []).append(pair)
        object.__setattr__(
            self,
            "_eta_inverse_by_grading",
            {grading: tuple(group) for grading, group in by_grading.items()},
        )
        per_unit = {alpha: 0 for alpha, g in enumerate(self.gradings) if g == 0}
        per_unit.update((alpha, _narrow(c)) for alpha, c in sorted(self.divisor_pairings))
        object.__setattr__(self, "_kappa_minus_one_per_unit", per_unit)
        object.__setattr__(self, "_cup_table", cup_table)
        self._check_frobenius_axioms()
        object.__setattr__(
            self,
            "_cached_hash",
            hash((self.name, self.gradings, self.eta, self.cup, self.c1_degree)),
        )

    def __hash__(self) -> int:  # cached; the tensors are large
        return self._cached_hash

    def _check_frobenius_axioms(self) -> None:
        """Check on the sparse cup table that the cup product is commutative,
        graded and associative, that eta(ab, c) = eta(a, bc), and that the
        pairing is graded."""
        table, g = self._cup_table, self.gradings
        eta = [[_narrow(x) for x in row] for row in self.eta]
        pairs = list(product(range(self.rank), repeat=2))
        triples = list(product(range(self.rank), repeat=3))
        if any(eta[a][b] and g[a] + g[b] != 2 * self.dim_complex for a, b in pairs):
            raise ValueError(
                "the pairing must be graded: eta_ab = 0 unless |e_a| + |e_b| "
                "is the top grading"
            )
        if any(table[a][b] != table[b][a] for a, b in pairs):
            raise ValueError("the cup product must be commutative")
        if any(g[nu] != g[a] + g[b] for a, b in pairs for nu in table[a][b]):
            raise ValueError("the cup product must respect the gradings")
        if any(
            self.cup_vector(table[a][b], c) != self.cup_vector(table[b][c], a)
            for a, b, c in triples
        ):
            raise ValueError("the cup product must be associative")
        if any(
            sum(x * eta[nu][c] for nu, x in table[a][b].items())
            != sum(x * eta[a][nu] for nu, x in table[b][c].items())
            for a, b, c in triples
        ):
            raise ValueError("the pairing must satisfy eta(ab, c) = eta(a, bc)")

    # -- basic ring data -----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.gradings)

    @cached_property
    def dim_complex(self) -> int:
        # read by ``balanced`` on every evaluation and by the boundary split;
        # cached in the instance dict, outside the fields, hash and equality
        return max(self.gradings) // 2

    def cup_product(self, alpha: int, beta: int) -> dict[int, Rational]:
        """e_alpha . e_beta as {nu: coefficient}, zero entries dropped.

        A fresh copy of the cup table's entry, so the caller may change it;
        coefficients are ``int`` when integral, else ``Fraction``."""
        return self._cup_table[alpha][beta].copy()

    def cup_vector(self, vec: dict[int, Rational], alpha: int) -> dict[int, Rational]:
        """Cup a formal basis combination with e_alpha (zeros dropped); the
        coefficients stay ``int`` while those of ``vec`` are ``int``."""
        table = self._cup_table
        out: dict[int, Rational] = {}
        for mu, c in vec.items():
            for nu, d in table[mu][alpha].items():
                out[nu] = out.get(nu, 0) + c * d
        return {nu: c for nu, c in out.items() if c}

    def eta_inverse_pairs(self) -> tuple[tuple[int, int, Rational], ...]:
        """Nonzero entries (sigma1, sigma2, eta^{sigma1 sigma2}), built once;
        each weight is an ``int`` when integral, else a ``Fraction``."""
        return self._eta_inverse_pairs

    def eta_inverse_pairs_by_grading(
        self,
    ) -> dict[int, tuple[tuple[int, int, Rational], ...]]:
        """The pairs of ``eta_inverse_pairs`` grouped by the grading of
        sigma1, in their order; built once, and read-only by contract."""
        return self._eta_inverse_by_grading

    def kappa_minus_one_per_unit(self) -> dict[int, Rational]:
        """{alpha: c} with kappa_{-1}(e_alpha) = c * d on degree-d maps: the
        per-unit pairing of each paired divisor (the divisor axiom) and 0 for
        each class of grading 0 (the unit axiom), the paired divisors in basis
        order; built once, and read-only by contract.  Read by ``evaluate``'s
        kappa_{-1} step, the axiom loop of its pure step and
        ``divisor_class``."""
        return self._kappa_minus_one_per_unit

    def triple_integral(self, a: int, b: int, c: int) -> Fraction:
        """int_V e_a e_b e_c, via cup and the pairing."""
        return sum(
            (coef * self.eta[nu][c] for nu, coef in self.cup_product(a, b).items()),
            Fraction(0),
        )

    # -- moduli bookkeeping -----------------------------------------------------

    def moduli_dimension(self, n: int, d: int) -> int:
        """Complex dimension of the n-pointed degree-d stable map space."""
        check_degree(d)
        if n < 0:
            raise ValueError("n must be non-negative")
        if d == 0 and n < 3:
            raise ValueError(f"unstable input: n={n}, d=0")
        return self.dim_complex + n - 3 + d * self.c1_degree

    def balanced(self, degree_sum: int, n: int, d: int) -> bool:
        """Selection rule on plain, unchecked ints: the n-pointed degree-d
        space is stable and ``degree_sum`` is twice its complex dimension."""
        return (d > 0 or n >= 3) and degree_sum == 2 * (
            self.dim_complex + n - 3 + d * self.c1_degree
        )

    def divisor_class(self, d: int) -> tuple[int, Rational]:
        """The least class whose per-unit pairing c is nonzero, with c * d;
        read from ``kappa_minus_one_per_unit`` at a degree d > 0."""
        for alpha, c in self._kappa_minus_one_per_unit.items():
            if c * d:
                return alpha, c * d
        raise ValueError(
            f"target {self.name!r} has no divisor class with nonzero pairing "
            f"against degree {d}"
        )

    def seed_value(self, classes: tuple[int, ...], d: int) -> Fraction | None:
        """The seed of (classes, d) as a ``Fraction``, or None."""
        for cls, deg, value in self.seeds:
            if cls == classes and deg == d:
                return Fraction(value)
        return None

    @cached_property
    def is_monogenic(self) -> bool:
        """True when the basis is 1, h, h^2, ... with h the hyperplane class,
        read from the sparse cup table (cached: the pure step of
        ``correlators.evaluate`` reads it before each WDVV split)."""
        r = self.rank - 1
        return self.gradings == tuple(range(0, 2 * r + 1, 2)) and all(
            self._cup_table[a][b] == ({a + b: 1} if a + b <= r else {})
            for a in range(r + 1)
            for b in range(r + 1)
        )


def _narrow(x: Rational) -> Rational:
    """An exact entry as an ``int`` when it is integral (1 == Fraction(1))."""
    return x.numerator if x.denominator == 1 else x


def _invert(eta: FrMatrix) -> FrMatrix:
    """Exact inverse of eta by Gauss-Jordan elimination over Fraction."""
    n = len(eta)
    aug = [
        [eta[i][j] for j in range(n)]
        + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("eta is degenerate")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def projective_space(r: int) -> TargetModel:
    """H*(P^r) with basis the powers of the hyperplane class, one object per r.

    ``r`` is checked before the memo is read: ``True`` hashes and compares
    like 1, so unchecked it would meet (or seed) the entry of P^1."""
    if json_int(r, "r") < 1:
        raise ValueError("projective space needs r >= 1")
    return _projective_space(r)


@cache
def _projective_space(r: int) -> TargetModel:
    gradings = tuple(2 * i for i in range(r + 1))
    eta = tuple(
        tuple(Fraction(1) if a + b == r else Fraction(0) for b in range(r + 1))
        for a in range(r + 1)
    )
    cup = tuple(
        tuple(
            tuple(
                Fraction(1) if (a + b <= r and nu == a + b) else Fraction(0)
                for nu in range(r + 1)
            )
            for b in range(r + 1)
        )
        for a in range(r + 1)
    )
    seed_classes = (r, r) if r >= 2 else ()
    return TargetModel(
        name=f"P{r}",
        gradings=gradings,
        eta=eta,
        cup=cup,
        c1_degree=r + 1,
        divisor_pairings=((1, Fraction(1)),),
        seeds=((seed_classes, 1, Fraction(1)),),
    )


def target_from_config(config: dict) -> TargetModel:
    """Build a target from its JSON config.

    {"type": "projective_space", "r": 2} or
    {"type": "custom", "gradings": [...], "eta": [...], "cup": [...],
     "c1_degree": k, "divisor_pairings": [[alpha, "p/q"], ...],
     "seeds": [[[classes], d, "p/q"], ...]}
    """
    kind = config.get("type")
    if kind == "projective_space":
        return projective_space(json_int(config["r"], "r"))
    if kind == "custom":
        def rat(x):
            if isinstance(x, str):
                return parse_rational(x)
            return Fraction(json_int(x, "a rational entry (int or 'p/q')"))

        gradings = tuple(json_int(g, "a grading") for g in config["gradings"])
        eta = tuple(tuple(rat(x) for x in row) for row in config["eta"])
        cup = tuple(
            tuple(tuple(rat(x) for x in row) for row in plane)
            for plane in config["cup"]
        )
        pairings = tuple(
            (json_int(alpha, "a divisor class"), rat(value))
            for alpha, value in config.get("divisor_pairings", [])
        )
        seeds = tuple(
            (
                tuple(json_int(c, "a seed class") for c in classes),
                json_int(d, "a seed degree"),
                rat(value),
            )
            for classes, d, value in config.get("seeds", [])
        )
        return TargetModel(
            name=config.get("name", "custom"),
            gradings=gradings,
            eta=eta,
            cup=cup,
            c1_degree=json_int(config["c1_degree"], "c1_degree"),
            divisor_pairings=pairings,
            seeds=seeds,
        )
    raise ValueError(f"unknown target type {kind!r}")
