"""Truncated multivariate formal power series over exact rationals.

A series lives over a fixed, ordered registry of graded formal variables
and is stored sparsely over one common denominator: a dict mapping
exponent tuples to nonzero ``int`` numerators, and one positive ``int``
``_den``, in lowest terms across the series (the gcd of ``_den`` and every
numerator is 1; the zero series is the empty dict over 1).  So equal series
hold equal data, the inner loops do plain int arithmetic, and the readers
(``items``, ``coefficient``, ``table``, ``to_json_dict``) hand out
``Fraction``s.  All arithmetic is exact; no floats appear anywhere.

Variables come in three kinds:

  ``t``  insertion variables t_a^alpha, grading 2a - 2 + |e_alpha|
         (t_0^alpha is printed as x{alpha});
  ``s``  kappa variables s_a^alpha with a >= -1, grading 2a + |e_alpha|;
  ``q``  the degree-tracking variable, grading -2 * (c1 pairing per unit
         degree).

Truncation is a per-variable exponent cap, plus an optional cap on the
total exponent of the non-q variables; coefficients can only be read
inside the declared bounds.

Inputs are checked at the API boundary and trusted inside.  The public
``QSeries(...)`` checks every term: the exponent vector (``_check_exponents``,
which ``coefficient`` shares; the packed product relies on non-negative
ints) and an exact coefficient (``int`` or ``Fraction``); it drops zero
coefficients and terms the truncation does not admit.  The operations know
that their inputs passed those checks and that their results stay in the
window (a product is cut by the packed bounds check of ``Truncation``, a
derivative lowers the caps it lowers the exponents by), so they build
their results through the unchecked ``QSeries._from_valid``, dropping
zero numerators themselves; it restores lowest terms.  ``restrict`` still
filters with ``Truncation.admits``, since its window is new.

``Record``, the base of the package's frozen records, lives here at the
bottom of the import graph.  It replaces ``dataclass(frozen=True)``, whose
import pulls ``inspect``, ``ast`` and ``dis`` into every cold start.  Series
of one window share their registry and truncation, so ``==`` and the
operations compare those by identity first.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add, attrgetter, mul, sub

Exponents = tuple[int, ...]


def exact_rational(value, what: str = "coefficient") -> Fraction:
    """``value`` as a ``Fraction``; only ``int`` (not ``bool``) and ``Fraction`` pass."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"{what} must be an int or a Fraction, got {value!r}")


def _check_exponents(exps: Exponents, n: int) -> None:
    """Reject an exponent vector that is not ``n`` non-negative ints (``bool`` excluded)."""
    if len(exps) != n:
        raise ValueError("exponent vector length mismatch")
    if any(type(e) is not int or e < 0 for e in exps):
        raise ValueError(f"negative or non-int exponent in {exps!r}")


class Record:
    """Base of the frozen records; a subclass's annotated names are its fields.

    A class attribute named like a field is its default.  The constructor
    takes fields by position or keyword (``TypeError`` on a missing, unknown
    or repeated one) and calls ``__post_init__``.  Attributes cannot be
    assigned or deleted (``AttributeError``); derived data goes in with
    ``object.__setattr__``.  ``repr`` (the dataclass form, which sort keys
    rely on), ``==`` (same class only) and ``hash`` read the fields as one tuple.
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


class Variable(Record):
    kind: str  # "t", "s" or "q"
    a: int
    alpha: int
    grading: int

    def __post_init__(self):
        if self.kind not in ("t", "s", "q"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == "t" and self.a < 0:
            raise ValueError("t variables need a >= 0")
        if self.kind == "s" and self.a < -1:
            raise ValueError("s variables need a >= -1")

    @property
    def key(self) -> tuple[str, int, int]:
        return (self.kind, self.a, self.alpha)

    @property
    def name(self) -> str:
        if self.kind == "q":
            return "q"
        if self.kind == "t" and self.a == 0:
            return f"x{self.alpha}"
        return f"{self.kind}{self.a},{self.alpha}"


class VarRegistry:
    """Ordered collection of variables; identity is (kind, a, alpha)."""

    def __init__(self, variables: Iterable[Variable]):
        self._vars = tuple(variables)
        index: dict[tuple[str, int, int], int] = {}
        for i, v in enumerate(self._vars):
            if v.grading % 2 != 0:
                raise ValueError(f"odd grading rejected for {v.name}: {v.grading}")
            if v.kind == "q" and (v.a, v.alpha) != (0, 0):
                raise ValueError("q carries no subscripts")
            if v.key in index:
                raise ValueError(f"duplicate variable {v.name}")
            index[v.key] = i
        self._index = index

    def __len__(self) -> int:
        return len(self._vars)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._vars)

    def __getitem__(self, i: int) -> Variable:
        return self._vars[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, VarRegistry) and self._vars == other._vars

    def __hash__(self) -> int:
        return hash(self._vars)

    def index_of(self, kind: str, a: int = 0, alpha: int = 0) -> int:
        try:
            return self._index[(kind, a, alpha)]
        except KeyError:
            raise ValueError(f"unknown variable ({kind},{a},{alpha})") from None

    def q_index(self) -> int | None:
        return self._index.get(("q", 0, 0))

    def grading(self, exps: Exponents) -> int:
        return sum(k * v.grading for k, v in zip(exps, self._vars))


class Truncation(Record):
    """Per-variable exponent caps plus an optional total cap on non-q vars.

    Every bound is a non-negative int.  That lets a product test its
    exponent pairs in one integer operation (``_packing``): each exponent
    vector is packed into one int, one field per variable plus, when a total
    cap is set, one field holding the non-q total.  A field for a bound c has
    w = c.bit_length() value bits and one guard bit above them.  Both factors'
    terms are admitted, so a field of the sum holds at most 2c, and that plus
    the field's bias 2^w - 1 - c stays below 2^(w+1): nothing carries out of
    a field, and its guard bit is set exactly when the sum exceeds c.  So a
    pair is admitted exactly when ``(x1 + x2 + bias) & guard == 0``.
    """

    caps: tuple[int, ...]
    total_cap: int | None = None

    def __post_init__(self):
        if type(self.caps) is not tuple or any(
            type(c) is not int or c < 0 for c in self.caps
        ):
            raise ValueError(f"caps must be a tuple of non-negative ints, got {self.caps!r}")
        total = self.total_cap
        if total is not None and (type(total) is not int or total < 0):
            raise ValueError(f"total_cap must be None or a non-negative int, got {total!r}")

    def _packing(self, q_index: int | None):
        """Layout of the packed bounds check, built in O(#variables).

        Returns ``(weights, bias, guard, fields)``: an exponent vector packs
        to ``sum(e * w for e, w in zip(exps, weights))`` (each weight places
        the exponent in its own field and, for a non-q variable under a total
        cap, also in the total field), and ``fields`` holds the (shift, mask)
        pairs that unpack the per-variable fields of an admitted sum.
        """
        n = len(self.caps)
        bounds = self.caps if self.total_cap is None else (*self.caps, self.total_cap)
        shift = bias = guard = 0
        fields = []
        for bound in bounds:
            width = bound.bit_length()
            fields.append((shift, (1 << width) - 1))
            bias |= ((1 << width) - 1 - bound) << shift
            guard |= 1 << (shift + width)
            shift += width + 1
        weights = [1 << s for s, _ in fields[:n]]
        if self.total_cap is not None:
            total_bit = 1 << fields[n][0]
            weights = [w if i == q_index else w + total_bit for i, w in enumerate(weights)]
        return weights, bias, guard, fields[:n]

    def admits(self, exps: Exponents, q_index: int | None) -> bool:
        if any(e > c for e, c in zip(exps, self.caps)):
            return False
        if self.total_cap is not None:
            total = sum(e for i, e in enumerate(exps) if i != q_index)
            if total > self.total_cap:
                return False
        return True

    def dominates(self, other: "Truncation") -> bool:
        """True when every bound of ``other`` is within this truncation."""
        if len(self.caps) != len(other.caps):
            return False
        if any(oc > c for oc, c in zip(other.caps, self.caps)):
            return False
        if self.total_cap is not None and (
            other.total_cap is None or other.total_cap > self.total_cap
        ):
            return False
        return True

    def meet(self, *others: "Truncation") -> "Truncation":
        """Tightest window shared by this truncation and ``others``.

        Each cap is the minimum over the inputs.  The total cap is the
        minimum of the totals that are set (``None`` means no bound), so it
        is ``None`` only when no input sets one.  Every input dominates the
        result.  Inputs with different cap lengths are rejected.
        """
        truncs = (self, *others)
        if any(len(t.caps) != len(self.caps) for t in truncs):
            raise ValueError("cannot meet truncations of different lengths")
        caps = tuple(min(cs) for cs in zip(*(t.caps for t in truncs)))
        totals = [t.total_cap for t in truncs if t.total_cap is not None]
        return Truncation(caps, min(totals) if totals else None)

    def graded_exponents(self, registry: VarRegistry, grading: int) -> Iterator[Exponents]:
        """Admitted exponent vectors of total ``grading``, in ``itertools.product`` order.

        The variables are walked depth first.  A branch is cut as soon as the
        grading still needed lies outside the range the remaining variables
        can reach within their caps, and each non-q exponent is clamped by
        what is left of the total cap, so only the solutions are visited
        rather than the whole box.
        """
        if len(self.caps) != len(registry):
            raise ValueError("truncation caps do not match the registry")
        gradings = [v.grading for v in registry]
        qi = registry.q_index()
        n = len(gradings)
        # reach[i] = (lowest, highest) grading variables i.. add within their caps
        reach = [(0, 0)] * (n + 1)
        for i in reversed(range(n)):
            lo, hi = reach[i + 1]
            g = gradings[i] * self.caps[i]
            reach[i] = (lo + min(g, 0), hi + max(g, 0))

        def walk(i: int, prefix: Exponents, need: int, left: int | None):
            if i == n:
                yield prefix
                return
            lo, hi = reach[i + 1]
            g = gradings[i]
            bounded = left is not None and i != qi
            top = min(self.caps[i], left) if bounded else self.caps[i]
            for k in range(top + 1):
                rest = need - k * g
                if lo <= rest <= hi:
                    yield from walk(i + 1, prefix + (k,), rest, left - k if bounded else left)

        lo, hi = reach[0]
        if lo <= grading <= hi:
            yield from walk(0, (), grading, self.total_cap)


class QSeries:
    """Immutable truncated series; supports +, -, * and exact helpers."""

    __slots__ = ("registry", "trunc", "_terms", "_den")

    def __init__(
        self,
        registry: VarRegistry,
        trunc: Truncation,
        terms: Mapping[Exponents, Fraction] | None = None,
    ):
        if len(trunc.caps) != len(registry):
            raise ValueError("truncation caps do not match the registry")
        qi = registry.q_index()
        kept: dict[Exponents, Fraction] = {}
        for exps, coef in (terms or {}).items():
            _check_exponents(exps, len(registry))
            coef = exact_rational(coef)
            if coef and trunc.admits(exps, qi):
                kept[exps] = coef
        # over the lcm of reduced fractions no prime divides every numerator
        den = lcm(*(c.denominator for c in kept.values()))
        nums = {e: c.numerator * (den // c.denominator) for e, c in kept.items()}
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_terms", nums)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _from_valid(
        cls, registry: VarRegistry, trunc: Truncation, nums: dict[Exponents, int], den: int
    ) -> "QSeries":
        """Trusted builder of ``nums / den``: every term admitted by ``trunc``, every
        numerator a nonzero ``int``, ``den`` a positive ``int``.  Nothing is checked;
        the gcd of ``den`` and all numerators (its running value stops at 1) is
        divided out, since a sum, product, derivative or restriction can leave one."""
        g = den
        for n in nums.values():
            if g == 1:
                break
            g = gcd(g, n)
        if g != 1:
            nums = {e: n // g for e, n in nums.items()}
            den //= g
        series = object.__new__(cls)
        object.__setattr__(series, "registry", registry)
        object.__setattr__(series, "trunc", trunc)
        object.__setattr__(series, "_terms", nums)
        object.__setattr__(series, "_den", den)
        return series

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, registry: VarRegistry, trunc: Truncation) -> "QSeries":
        return cls(registry, trunc, {})

    @classmethod
    def constant(cls, registry, trunc, value) -> "QSeries":
        return cls(registry, trunc, {(0,) * len(registry): value})

    @classmethod
    def one(cls, registry, trunc) -> "QSeries":
        return cls.constant(registry, trunc, 1)

    @classmethod
    def variable(cls, registry, trunc, kind: str, a: int = 0, alpha: int = 0) -> "QSeries":
        i = registry.index_of(kind, a, alpha)
        exps = tuple(1 if j == i else 0 for j in range(len(registry)))
        return cls(registry, trunc, {exps: 1})

    # -- basics ------------------------------------------------------------

    def items(self) -> Iterator[tuple[Exponents, Fraction]]:
        nums, den = self._terms, self._den
        return ((e, Fraction(nums[e], den)) for e in sorted(nums))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSeries)
            and (self.registry is other.registry or self.registry == other.registry)
            and (self.trunc is other.trunc or self.trunc == other.trunc)
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.registry, self.trunc, self._den, tuple(sorted(self._terms.items()))))

    def _check_compat(self, other: "QSeries"):
        # series of one window share their registry and truncation objects
        if self.registry is not other.registry and self.registry != other.registry:
            raise ValueError("series registries differ")
        if self.trunc is not other.trunc and self.trunc != other.trunc:
            raise ValueError("series truncations differ")

    # -- ring operations ----------------------------------------------------

    def _merge(self, other, op) -> "QSeries":
        """``op`` (add or sub) term by term; a scalar ``other`` is a constant series."""
        if not isinstance(other, QSeries):
            other = QSeries.constant(self.registry, self.trunc, other)
        self._check_compat(other)
        g = gcd(self._den, other._den)
        m1, m2 = other._den // g, self._den // g
        terms = {e: c * m1 for e, c in self._terms.items()}
        for exps, coef in other._terms.items():
            value = op(terms.get(exps, 0), coef * m2)
            if value:
                terms[exps] = value
            else:
                del terms[exps]
        return QSeries._from_valid(self.registry, self.trunc, terms, self._den * m1)

    def __add__(self, other):
        return self._merge(other, add)

    __radd__ = __add__

    def __neg__(self):
        return QSeries._from_valid(
            self.registry, self.trunc, {e: -c for e, c in self._terms.items()}, self._den
        )

    def __sub__(self, other):
        return self._merge(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            # an int (a cup constant or eta^{-1} weight) needs no Fraction
            scalar = other if type(other) is int else exact_rational(other, "scalar")
            p = scalar.numerator
            terms = {e: c * p for e, c in self._terms.items()} if p else {}
            return QSeries._from_valid(
                self.registry, self.trunc, terms, self._den * scalar.denominator
            )
        self._check_compat(other)
        weights, bias, guard, fields = self.trunc._packing(self.registry.q_index())
        right = [(sum(map(mul, e, weights)), c) for e, c in other._terms.items()]
        packed: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            x1 = sum(map(mul, e1, weights))
            biased = x1 + bias
            for x2, c2 in right:
                if (biased + x2) & guard:
                    continue
                x = x1 + x2
                packed[x] = packed.get(x, 0) + c1 * c2
        terms = {
            tuple((x >> shift) & mask for shift, mask in fields): c
            for x, c in packed.items()
            if c
        }
        return QSeries._from_valid(self.registry, self.trunc, terms, self._den * other._den)

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------------

    def exp(self) -> "QSeries":
        """exp of a series with zero constant term, Taylor-expanded exactly."""
        const = self._terms.get((0,) * len(self.registry))
        if const:
            raise ValueError("exp needs a zero constant term")
        result = QSeries.one(self.registry, self.trunc)
        power = result
        k = 0
        while True:
            power = power * self
            k += 1
            if power.is_zero():
                break
            result = result + power * Fraction(1, factorial(k))
        return result

    def coefficient(self, exps: Exponents) -> Fraction:
        exps = tuple(exps)
        _check_exponents(exps, len(self.registry))
        if not self.trunc.admits(exps, self.registry.q_index()):
            raise ValueError(f"monomial {exps} lies outside the truncation")
        return Fraction(self._terms.get(exps, 0), self._den)

    def partial_derivative(self, kind: str, a: int = 0, alpha: int = 0) -> "QSeries":
        """Formal d/dv; the cap of the differentiated variable drops by one.

        So does the total cap when v is not q: a term with v^k, k >= 1, lies
        in the old window, so its derivative lies in the new one.
        """
        i = self.registry.index_of(kind, a, alpha)
        caps = list(self.trunc.caps)
        caps[i] = max(caps[i] - 1, 0)
        total = self.trunc.total_cap
        if total is not None and i != self.registry.q_index():
            total = max(total - 1, 0)
        terms = {
            exps[:i] + (exps[i] - 1,) + exps[i + 1 :]: coef * exps[i]
            for exps, coef in self._terms.items()
            if exps[i]
        }
        return QSeries._from_valid(
            self.registry, Truncation(tuple(caps), total), terms, self._den
        )

    def q_log_derivative(self) -> "QSeries":
        """q d/dq; exponents are preserved so the truncation is unchanged."""
        qi = self.registry.q_index()
        if qi is None:
            raise ValueError("registry has no q variable")
        return QSeries._from_valid(
            self.registry,
            self.trunc,
            {e: c * e[qi] for e, c in self._terms.items() if e[qi]},
            self._den,
        )

    def multiply_variable(self, kind: str, a: int = 0, alpha: int = 0) -> "QSeries":
        """Multiply by a single variable; overflowing terms are dropped."""
        return self * QSeries.variable(self.registry, self.trunc, kind, a, alpha)

    def restrict(self, new_trunc: Truncation) -> "QSeries":
        """Re-truncate downward; every bound of the target must be tighter."""
        if not self.trunc.dominates(new_trunc):
            raise ValueError(
                "restrict only tightens truncations: "
                f"{self._loosened(new_trunc)} loosened from {self.trunc} "
                f"to {new_trunc}"
            )
        qi = self.registry.q_index()
        return QSeries._from_valid(
            self.registry,
            new_trunc,
            {e: c for e, c in self._terms.items() if new_trunc.admits(e, qi)},
            self._den,
        )

    def _loosened(self, new_trunc: Truncation) -> str:
        """Names of the bounds of ``new_trunc`` looser than the current ones."""
        old = self.trunc
        if len(old.caps) != len(new_trunc.caps):
            return "cap count"
        names = [
            f"{v.name} cap"
            for v, c, nc in zip(self.registry, old.caps, new_trunc.caps)
            if nc > c
        ]
        if old.total_cap is not None and (
            new_trunc.total_cap is None or new_trunc.total_cap > old.total_cap
        ):
            names.append("total cap")
        return ", ".join(names)

    # -- inspection -----------------------------------------------------------

    def gradings(self) -> set[int]:
        """Set of total gradings of the stored monomials."""
        return {self.registry.grading(e) for e in self._terms}

    def monomial_name(self, exps: Exponents) -> str:
        parts = []
        for e, v in zip(exps, self.registry):
            if e == 1:
                parts.append(v.name)
            elif e > 1:
                parts.append(f"{v.name}^{e}")
        return "1" if not parts else "*".join(parts)

    def table(self) -> str:
        """Human-readable coefficient table, rows sorted by exponent vector."""
        qi = self.registry.q_index()
        rows = []
        for exps, coef in sorted(
            self.items(),
            key=lambda item: ((item[0][qi] if qi is not None else 0), item[0]),
        ):
            rows.append(f"{self.monomial_name(exps)} : {coef}")
        return "\n".join(rows)

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": [
                {"kind": v.kind, "a": v.a, "alpha": v.alpha, "grading": v.grading}
                for v in self.registry
            ],
            "truncation": {
                "caps": list(self.trunc.caps),
                "total_cap": self.trunc.total_cap,
            },
            "terms": [
                {"exp": list(exps), "coef": format_rational(coef)}
                for exps, coef in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QSeries":
        registry = VarRegistry(
            Variable(v["kind"], v["a"], v["alpha"], v["grading"])
            for v in data["vars"]
        )
        trunc = Truncation(
            tuple(data["truncation"]["caps"]), data["truncation"].get("total_cap")
        )
        terms = {
            tuple(t["exp"]): parse_rational(t["coef"]) for t in data["terms"]
        }
        return cls(registry, trunc, terms)


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    den = int(den) if den else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), den)
