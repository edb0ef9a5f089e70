"""Truncated multivariate formal power series over exact rationals.

A series lives over a fixed, ordered registry of graded formal variables
and is stored sparsely over one common denominator: a dict mapping packed
exponent vectors (one ``int`` each, laid out by ``Truncation._packing``, a
memo holding one layout per window) to nonzero ``int`` numerators, and one
positive ``int`` ``_den``, in lowest terms across the series (the gcd of
``_den`` and every numerator is 1; the zero series is the empty dict over
1).  So equal series hold equal data, the inner loops do plain int
arithmetic on keys and numerators, and the readers (``items``,
``coefficient``, ``table``, ``to_json_dict``) unpack the keys and hand out
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
coefficients and terms the truncation does not admit, and packs the rest.
The operations know that their inputs passed those checks and that their
results stay in the window (a product is cut by the packed bounds check of
``Truncation``, a derivative lowers the caps it lowers the exponents by),
so they build their results through the unchecked ``QSeries._from_valid``,
dropping zero numerators themselves; it restores lowest terms.
``restrict`` filters with the new window's packed check.  It and a
derivative repack their keys only when the new window's layout differs.

The records derive from ``target.Record``, and the rational helpers
(``exact_rational``, ``format_rational``, ``parse_rational``) live in
``target`` too, which a correlator loads without this module; they are
imported back here, so ``series.Record`` and the rest still resolve.
Series of one window share their registry and truncation, so ``==`` and
the operations compare those by identity first.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm
from operator import add, mul, sub

from .target import Record, exact_rational, format_rational, parse_rational

Exponents = tuple[int, ...]


def _check_exponents(exps: Exponents, n: int) -> None:
    """Reject an exponent vector that is not ``n`` non-negative ints (``bool`` excluded)."""
    if len(exps) != n:
        raise ValueError("exponent vector length mismatch")
    if any(type(e) is not int or e < 0 for e in exps):
        raise ValueError(f"negative or non-int exponent in {exps!r}")


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


class VarRegistry(tuple):
    """Ordered tuple of variables; identity is (kind, a, alpha)."""

    def __new__(cls, variables: Iterable[Variable]) -> "VarRegistry":
        registry = tuple.__new__(cls, variables)
        index: dict[tuple[str, int, int], int] = {}
        for i, v in enumerate(registry):
            if v.grading % 2 != 0:
                raise ValueError(f"odd grading rejected for {v.name}: {v.grading}")
            if v.kind == "q" and (v.a, v.alpha) != (0, 0):
                raise ValueError("q carries no subscripts")
            if v.key in index:
                raise ValueError(f"duplicate variable {v.name}")
            index[v.key] = i
        registry._index = index
        return registry

    def index_of(self, kind: str, a: int = 0, alpha: int = 0) -> int:
        try:
            return self._index[(kind, a, alpha)]
        except KeyError:
            raise ValueError(f"unknown variable ({kind},{a},{alpha})") from None

    def q_index(self) -> int | None:
        return self._index.get(("q", 0, 0))

    def grading(self, exps: Exponents) -> int:
        return sum(k * v.grading for k, v in zip(exps, self))


class Truncation(Record):
    """Per-variable exponent caps plus an optional total cap on non-q vars.

    Every bound is a non-negative int.  A series stores each admitted
    exponent vector packed into one int (``_packing``): one field per
    variable plus, when a total cap is set, one field holding the non-q
    total.  A field for a bound c has w = max(c.bit_length(), 4) value bits
    (exact for any c <= 2^w - 1, so a derivative or restriction of a window
    with caps <= 15 keeps its layout) and one guard bit above them.  Variable
    0 takes the highest field and the total the lowest, so packed keys sort
    as their exponent vectors do.  Both factors of a product are admitted, so
    a field of the sum holds at most 2c, and that plus the field's bias
    2^w - 1 - c stays below 2^(w+1): nothing carries out of a field, and its
    guard bit is set exactly when the sum exceeds c.  So a pair is admitted
    exactly when ``(x1 + x2 + bias) & guard == 0``.  The layout is a pure
    function of the bounds and the q index, memoized by ``_packing``, so equal
    windows pack alike and share one layout.
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

    @cache
    def _packing(self, q_index: int | None):
        """Layout of the packed keys, built in O(#variables) once per window.

        Returns ``(weights, bias, guard, fields)``: an exponent vector packs
        to ``sum(e * w for e, w in zip(exps, weights))`` (each weight places
        the exponent in its own field and, for a non-q variable under a total
        cap, also in the total field at bit 0), and ``fields`` holds the
        (shift, mask) pairs that unpack the per-variable fields of a key.
        Both are tuples, so no caller can change the shared memo.  It is keyed
        by (truncation, q index), so a derivative or restriction onto a window
        seen before reuses that window's layout.  Being a pure function of the
        bounds, it is never stale, and ``clear_caches()`` leaves it alone.
        """
        bounds = self.caps if self.total_cap is None else (*self.caps, self.total_cap)
        shift = bias = guard = 0
        fields = []
        for bound in reversed(bounds):
            width = max(bound.bit_length(), 4)
            fields.append((shift, (1 << width) - 1))
            bias |= ((1 << width) - 1 - bound) << shift
            guard |= 1 << (shift + width)
            shift += width + 1
        fields = tuple(reversed(fields))[: len(self.caps)]
        in_total = int(self.total_cap is not None)  # a non-q exponent also adds to the total
        weights = tuple((1 << s) + (i != q_index and in_total) for i, (s, _) in enumerate(fields))
        return weights, bias, guard, fields

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

        A lazy iterator that meets in the middle.  An exponent is cut as soon
        as the grading still needed lies outside the range the remaining
        variables can reach within their caps, and each non-q exponent is
        clamped by what is left of the total cap, so only the solutions are
        visited rather than the whole box.  The first ``n // 2`` variables
        are walked depth first.  The admitted suffixes of the others are
        listed once per (variable, grading still needed, total left) in a
        memo local to the call, and every prefix that arrives in that state
        reuses them, so the deep levels are not walked again per prefix.  The
        memo holds suffixes only, never whole cells: listing every cell was
        as fast, but held the whole window in memory at once.
        """
        if len(self.caps) != len(registry):
            raise ValueError("truncation caps do not match the registry")
        gradings = [v.grading for v in registry]
        qi = registry.q_index()
        n = len(gradings)
        half = n // 2
        # reach[i] = (lowest, highest) grading variables i.. add within their caps
        reach = [(0, 0)] * (n + 1)
        for i in reversed(range(n)):
            lo, hi = reach[i + 1]
            g = gradings[i] * self.caps[i]
            reach[i] = (lo + min(g, 0), hi + max(g, 0))

        def steps(i: int, need: int, left: int | None):
            """(k, grading still needed, total left) for each admitted exponent k of variable i."""
            lo, hi = reach[i + 1]
            g = gradings[i]
            bounded = left is not None and i != qi
            top = min(self.caps[i], left) if bounded else self.caps[i]
            for k in range(top + 1):
                rest = need - k * g
                if lo <= rest <= hi:
                    yield k, rest, left - k if bounded else left

        suffixes: dict[tuple, list[Exponents]] = {}

        def suffix(i: int, need: int, left: int | None) -> list[Exponents]:
            if i == n:
                return [()]
            key = (i, need, left)
            if key not in suffixes:
                suffixes[key] = [
                    (k, *tail) for k, rest, after in steps(i, need, left)
                    for tail in suffix(i + 1, rest, after)
                ]
            return suffixes[key]

        def walk(i: int, prefix: Exponents, need: int, left: int | None):
            if i == half:
                for tail in suffix(i, need, left):
                    yield prefix + tail
                return
            for k, rest, after in steps(i, need, left):
                yield from walk(i + 1, prefix + (k,), rest, after)

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
        weights = trunc._packing(qi)[0]
        kept: dict[int, Fraction] = {}
        for exps, coef in (terms or {}).items():
            _check_exponents(exps, len(registry))
            coef = exact_rational(coef)
            if coef and trunc.admits(exps, qi):
                kept[sum(map(mul, exps, weights))] = coef
        # over the lcm of reduced fractions no prime divides every numerator
        den = lcm(*(c.denominator for c in kept.values()))
        nums = {e: c.numerator * (den // c.denominator) for e, c in kept.items()}
        object.__setattr__(self, "registry", registry)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_terms", nums)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _from_valid(
        cls, registry: VarRegistry, trunc: Truncation, nums: dict[int, int], den: int
    ) -> "QSeries":
        """Trusted builder of ``nums / den``: every key an admitted vector packed in
        ``trunc``'s layout, every numerator a nonzero ``int``, ``den`` a positive
        ``int``.  Nothing is checked; the gcd of ``den`` and all numerators (its
        running value stops at 1) is divided out, since a sum, product,
        derivative or restriction can leave one."""
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

    def __reduce__(self):
        # pickle and the copies rebuild through the constructor, as a Record does
        return type(self), (self.registry, self.trunc, dict(self.items()))

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
        fields = self.trunc._packing(self.registry.q_index())[3]
        nums, den = self._terms, self._den
        return (
            (tuple((x >> s) & m for s, m in fields), Fraction(nums[x], den)) for x in sorted(nums)
        )

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
        _, bias, guard, _ = self.trunc._packing(self.registry.q_index())
        right = list(other._terms.items())
        packed: dict[int, int] = {}
        for x1, c1 in self._terms.items():
            biased = x1 + bias
            for x2, c2 in right:
                if (biased + x2) & guard:
                    continue
                x = x1 + x2
                packed[x] = packed.get(x, 0) + c1 * c2
        terms = {x: c for x, c in packed.items() if c}
        return QSeries._from_valid(self.registry, self.trunc, terms, self._den * other._den)

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------------

    def exp(self) -> "QSeries":
        """exp of a series with zero constant term, Taylor-expanded exactly."""
        const = self._terms.get(0)
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
        qi = self.registry.q_index()
        if not self.trunc.admits(exps, qi):
            raise ValueError(f"monomial {exps} lies outside the truncation")
        x = sum(map(mul, exps, self.trunc._packing(qi)[0]))
        return Fraction(self._terms.get(x, 0), self._den)

    def partial_derivative(self, kind: str, a: int = 0, alpha: int = 0) -> "QSeries":
        """Formal d/dv; the cap of the differentiated variable drops by one.

        So does the total cap when v is not q: a term with v^k, k >= 1, lies
        in the old window, so its derivative lies in the new one.
        """
        i = self.registry.index_of(kind, a, alpha)
        qi = self.registry.q_index()
        caps = list(self.trunc.caps)
        caps[i] = max(caps[i] - 1, 0)
        total = self.trunc.total_cap
        if total is not None and i != qi:
            total = max(total - 1, 0)
        weights, _, _, fields = self.trunc._packing(qi)
        step, (shift, mask) = weights[i], fields[i]
        terms = {
            x - step: c * k for x, c in self._terms.items() if (k := (x >> shift) & mask)
        }
        new = Truncation(tuple(caps), total)
        new_weights, _, _, new_fields = new._packing(qi)
        if new_weights == weights and new_fields == fields:
            return QSeries._from_valid(self.registry, new, terms, self._den)
        return QSeries._from_valid(self.registry, self.trunc, terms, self._den).restrict(new)

    def q_log_derivative(self) -> "QSeries":
        """q d/dq; exponents are preserved so the truncation is unchanged."""
        qi = self.registry.q_index()
        if qi is None:
            raise ValueError("registry has no q variable")
        shift, mask = self.trunc._packing(qi)[3][qi]
        terms = {x: c * k for x, c in self._terms.items() if (k := (x >> shift) & mask)}
        return QSeries._from_valid(self.registry, self.trunc, terms, self._den)

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
        weights, bias, guard, fields = new_trunc._packing(qi)
        old_weights, _, _, old_fields = self.trunc._packing(qi)
        if weights != old_weights or fields != old_fields:
            # an exponent may overflow a narrower field: repack through the constructor
            return QSeries(self.registry, new_trunc, dict(self.items()))
        terms = {x: c for x, c in self._terms.items() if not (x + bias) & guard}
        return QSeries._from_valid(self.registry, new_trunc, terms, self._den)

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
        return {self.registry.grading(e) for e, _ in self.items()}

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

