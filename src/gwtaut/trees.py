"""Decorated genus-0 stable trees and the boundary-strata calculus.

A tree records per-vertex curve degrees, labeled tails, and optional
decoration tokens (opaque cohomology-class markers used by the boundary
presentations).  This module is purely combinatorial: it enumerates
boundary strata, pushes and pulls trees along the forgetful map with the
correct automorphism-ratio coefficients, and writes down the boundary
presentations of psi powers and kappa classes.  Pairing a tree sum with
actual cohomology classes is the correlator engine's job.

Each boundary presentation is built once per argument tuple, after its
arguments are checked, and memoized as a tuple of (tree, coefficient)
pairs; every call returns a fresh ``TreeSum`` of them, so a caller that
adds to it leaves the memo as it was.

Trees are equal when isomorphic.  One recursion over rooted branches
gives, for every choice of root, the rooted code and the order of the
root-fixing automorphism group.  The canonical key is the least rooted
code over all roots; the roots attaining it form one orbit of Aut(T), so
by orbit-stabilizer |Aut T| is their number times the rooted order at
one of them.  Both, and the key's hash, are computed once, when the tree
is built.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import cache

from .series import Record, exact_rational
from .target import TargetModel, check_degree, json_int


class Decoration(Record):
    """Opaque class token on a vertex.

    kind "class": data = (name,), a generic cohomology class;
    kind "kappa": data = (a, alpha), the class kappa_{a,alpha} on the vertex;
    kind "ev":    data = (tail_label, alpha), ev_i^*(e_alpha);
    kind "psi":   data = (tail_label, power), psi_i^power.
    """

    kind: str
    data: tuple
    degree: int
    pushable: bool = False

    def pushed(self) -> "Decoration":
        if not self.pushable:
            raise ValueError(f"decoration {self} is not push-forwardable")
        return Decoration("class", (f"pi_*({self.data[0]})",), self.degree - 2, False)


class DecoratedTree(Record):
    """A stable genus-0 tree: per-vertex curve degrees ``betas``, edges
    between vertices, labeled tails (label, vertex) and decoration tokens
    (vertex, token).

    The constructor sorts edges, tails and tokens, checks that the tree is
    stable and connected, and stores the leaf-to-root edges of its
    breadth-first walk from vertex 0.  It computes each vertex's colour once,
    then the canonical key and |Aut| (see the module docstring), and caches
    the key's hash: two trees are equal when isomorphic, and a dict or memo
    keyed by trees hashes each one once, not once per lookup.
    """

    betas: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    tails: tuple[tuple[int, int], ...]  # (label, vertex)
    decorations: tuple[tuple[int, Decoration], ...] = ()  # (vertex, token)

    def __post_init__(self):
        nv = len(self.betas)
        for b in self.betas:
            check_degree(b)
        edges = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        tails = tuple(sorted(self.tails))
        decorations = tuple(
            sorted(self.decorations, key=lambda vd: (vd[0], repr(vd[1])))
        )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "decorations", decorations)
        for u, v in edges:
            if not (0 <= u < nv and 0 <= v < nv) or u == v:
                raise ValueError(f"bad edge ({u},{v})")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edge")
        labels = [lab for lab, _ in tails]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate tail label")
        for _, v in tails:
            if not 0 <= v < nv:
                raise ValueError("tail attached to a missing vertex")
        for v, _ in decorations:
            if not 0 <= v < nv:
                raise ValueError("decoration on a missing vertex")
        if len(edges) != nv - 1:
            raise ValueError("a tree needs exactly |V| - 1 edges")
        parent, order = {0: None}, [0]
        for u in order:  # breadth first from vertex 0, so reversed it runs leaf to root
            for w in self.neighbors(u):
                if w not in parent:
                    parent[w] = u
                    order.append(w)
        if len(order) != nv:
            raise ValueError("tree is not connected")
        # (child, parent) from the leaves to vertex 0, read by the tree integral
        edges_to_root = tuple((v, parent[v]) for v in reversed(order[1:]))
        object.__setattr__(self, "_edges_to_root", edges_to_root)
        for v in range(nv):
            if self.betas[v] == 0 and self.valence(v) < 3:
                raise ValueError(
                    f"vertex {v} is unstable: degree 0 with {self.valence(v)} half-edges"
                )
        colours = [_vertex_color(self, v) for v in range(nv)]  # once per tree, not per root
        rooted = [_rooted(self, colours, root, -1) for root in range(nv)]
        key = min(code for code, _ in rooted)
        minimal = [aut for code, aut in rooted if code == key]
        object.__setattr__(self, "_ckey", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_aut", len(minimal) * minimal[0])

    # -- structure ------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.betas)

    @property
    def total_degree(self) -> int:
        return sum(self.betas)

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(lab for lab, _ in self.tails)

    def neighbors(self, v: int) -> list[int]:
        out = []
        for x, y in self.edges:
            if x == v:
                out.append(y)
            elif y == v:
                out.append(x)
        return out

    def tails_at(self, v: int) -> tuple[int, ...]:
        return tuple(lab for lab, w in self.tails if w == v)

    def decorations_at(self, v: int) -> tuple[Decoration, ...]:
        return tuple(tok for w, tok in self.decorations if w == v)

    def valence(self, v: int) -> int:
        """Number of half-edges at v (edge ends plus tails)."""
        return len(self.neighbors(v)) + len(self.tails_at(v))

    def tail_vertex(self, label: int) -> int:
        for lab, v in self.tails:
            if lab == label:
                return v
        raise ValueError(f"no tail labeled {label}")

    # -- identity is isomorphism ------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, DecoratedTree) and self._ckey == other._ckey

    def __hash__(self) -> int:
        return self._hash


def _vertex_color(t: DecoratedTree, v: int):
    # the data's repr too, so a token on True or 1.0 differs from one on 1
    decor = tuple(
        sorted(
            (tok.kind, tok.data, repr(tok.data), tok.degree, tok.pushable)
            for tok in t.decorations_at(v)
        )
    )
    return (t.betas[v], t.tails_at(v), decor)


def _rooted(t: DecoratedTree, colours: list[tuple], v: int, parent: int) -> tuple[tuple, int]:
    """Code of the branch at v away from ``parent``, and the order of its
    root-fixing automorphism group: the product of the children's orders
    times k! for each k children with the same code."""
    children = sorted(_rooted(t, colours, w, v) for w in t.neighbors(v) if w != parent)
    count = 1
    for i, (code, aut) in enumerate(children):
        run = run + 1 if i and code == children[i - 1][0] else 1
        count *= aut * run
    return (colours[v], tuple(code for code, _ in children)), count


def aut_order(t: DecoratedTree) -> int:
    """Order of the decoration- and tail-preserving automorphism group.

    The roots whose rooted code is the canonical key form one orbit of
    Aut(T), and each has its rooted automorphism group as stabilizer, so
    |Aut T| = (number of minimal roots) x (rooted order at one of them).
    """
    return t._aut


class TreeSum:
    """Formal rational combination of trees, indexed by isomorphism class.

    ``n``, when known, is the number of marked points of the ambient space
    (the boundary presentations set it).  It survives ``+`` and ``*``;
    ``+`` refuses sums on different spaces, and ``==`` finds them unequal.
    Coefficients and scalars must be exact: ``int`` (not ``bool``) or
    ``Fraction``.
    """

    def __init__(
        self, terms: Mapping[DecoratedTree, Fraction] | None = None, n: int | None = None
    ):
        if n is not None and (type(n) is not int or n < 0):
            raise ValueError(f"point count must be None or a non-negative int, got {n!r}")
        self.n = n
        self._terms: dict[DecoratedTree, Fraction] = {}
        for tree, coeff in (terms or {}).items():
            coeff = exact_rational(coeff)
            if coeff:
                self._terms[tree] = coeff

    def items(self) -> Iterator[tuple[DecoratedTree, Fraction]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, tree: DecoratedTree) -> Fraction:
        return self._terms.get(tree, Fraction(0))

    def add_term(self, tree: DecoratedTree, coeff) -> None:
        new = self._terms.get(tree, Fraction(0)) + exact_rational(coeff)
        if new:
            self._terms[tree] = new
        else:
            self._terms.pop(tree, None)

    def __add__(self, other: "TreeSum") -> "TreeSum":
        if None not in (self.n, other.n) and self.n != other.n:
            raise ValueError(f"cannot add tree sums on {self.n} and {other.n} points")
        out = TreeSum(self._terms, self.n if other.n is None else other.n)
        for tree, coeff in other._terms.items():
            out.add_term(tree, coeff)
        return out

    def __mul__(self, scalar) -> "TreeSum":
        scalar = exact_rational(scalar, "scalar")
        return TreeSum({t: c * scalar for t, c in self._terms.items()}, self.n)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TreeSum)
            and (None in (self.n, other.n) or self.n == other.n)
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        return f"TreeSum({len(self._terms)} terms)"


def single_vertex_tree(n: int, d: int, decorations=()) -> DecoratedTree:
    return DecoratedTree(
        betas=(d,),
        edges=(),
        tails=tuple((i, 0) for i in range(1, n + 1)),
        decorations=tuple((0, tok) for tok in decorations),
    )


def _two_vertex_splits(
    n: int,
    d: int,
    pin_first: Iterable[int] = (),
    pin_second: Iterable[int] = (),
):
    """Yield (first_tails, second_tails, b1, b2) for all stable splits."""
    pin_first = tuple(sorted(pin_first))
    pin_second = tuple(sorted(pin_second))
    labels = list(range(1, n + 1))
    for lab in (*pin_first, *pin_second):
        if lab not in labels:
            raise ValueError(f"pinned tail {lab} outside 1..{n}")
        if lab in pin_first and lab in pin_second:
            raise ValueError(f"tail {lab} pinned to both vertices")
    free = [lab for lab in labels if lab not in pin_first + pin_second]
    for extra in _subsets(free):
        second = tuple(sorted(pin_second + extra))
        first = tuple(sorted(lab for lab in labels if lab not in second))
        for b2 in range(d + 1):
            b1 = d - b2
            if b1 == 0 and len(first) + 1 < 3:
                continue
            if b2 == 0 and len(second) + 1 < 3:
                continue
            yield first, second, b1, b2


def _subsets(items: list[int]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for x in items:
        out += [s + (x,) for s in out]
    return out


def two_vertex_tree(
    first_tails, second_tails, b1: int, b2: int, second_decorations=()
) -> DecoratedTree:
    return DecoratedTree(
        betas=(b1, b2),
        edges=((0, 1),),
        tails=tuple((lab, 0) for lab in first_tails)
        + tuple((lab, 1) for lab in second_tails),
        decorations=tuple((1, tok) for tok in second_decorations),
    )


def enumerate_two_vertex_divisors(
    n: int,
    d: int,
    pin_first: Iterable[int] = (),
    pin_second: Iterable[int] = (),
) -> list[DecoratedTree]:
    """All stable one-edge boundary strata, one tree per isomorphism class."""
    if json_int(n, "a point count") < 0:
        raise ValueError(f"point count must be non-negative, got {n}")
    check_degree(d)
    splits = _two_vertex_splits(n, d, pin_first, pin_second)
    return list(dict.fromkeys(two_vertex_tree(*split) for split in splits))


# -- forgetful map -------------------------------------------------------------


def forgetful_pullback(t: DecoratedTree, label: int) -> TreeSum:
    """Pull back along the map forgetting a fresh tail.

    One term per vertex, the new tail attached there, with coefficient
    |Aut new| / |Aut old|.
    """
    if label in t.labels:
        raise ValueError(f"tail label {label} already present")
    base_aut = aut_order(t)
    out = TreeSum()
    for v in range(t.n_vertices):
        lifted = DecoratedTree(
            betas=t.betas,
            edges=t.edges,
            tails=t.tails + ((label, v),),
            decorations=t.decorations,
        )
        out.add_term(lifted, Fraction(aut_order(lifted), base_aut))
    return out


def forgetful_pushforward(t: DecoratedTree, label: int) -> TreeSum:
    """Push forward along the map forgetting the tail ``label``.

    Stable case: zero unless the losing vertex carries a push-forwardable
    token, which is then replaced by its fiberwise image, with coefficient
    |Aut pushed| / |Aut original|.  Destabilizing case: zero for a
    positive-degree token at the dying vertex; for no token (or a unit)
    the tree stabilizes, with the same automorphism-ratio coefficient.
    """
    v = t.tail_vertex(label)
    n_total = len(t.tails)
    if t.total_degree == 0 and n_total - 1 < 3:
        raise ValueError("cannot forget a tail below stability of the total space")
    base_aut = aut_order(t)
    remaining = tuple(tv for tv in t.tails if tv[0] != label)
    destabilizes = t.betas[v] == 0 and t.valence(v) == 3

    if not destabilizes:
        tokens = t.decorations_at(v)
        pushables = [tok for tok in tokens if tok.pushable]
        if len(pushables) != 1 or len(tokens) != 1:
            return TreeSum()  # fiberwise pushforward of a pulled-back class
        new_decor = tuple(
            (w, tok.pushed() if w == v else tok) for w, tok in t.decorations
        )
        pushed = DecoratedTree(t.betas, t.edges, remaining, new_decor)
        return TreeSum({pushed: Fraction(aut_order(pushed), base_aut)})

    # dying vertex: only degree-0 decorations survive the contraction
    for tok in t.decorations_at(v):
        if tok.degree > 0:
            return TreeSum()
    nbrs = t.neighbors(v)
    keep = [w for w in range(t.n_vertices) if w != v]
    relabel = {w: i for i, w in enumerate(keep)}
    new_edges = [
        (relabel[x], relabel[y]) for x, y in t.edges if v not in (x, y)
    ]
    if len(nbrs) == 2:  # the forgotten tail was the vertex's only one
        new_edges.append((relabel[nbrs[0]], relabel[nbrs[1]]))
        new_tails = tuple((lab, relabel[w]) for lab, w in remaining)
    else:  # one neighbour, which takes the vertex's other tail
        new_tails = tuple(
            (lab, relabel[nbrs[0]] if w == v else relabel[w]) for lab, w in remaining
        )
    new_decor = tuple(
        (relabel[w], tok) for w, tok in t.decorations if w != v
    )
    stabilized = DecoratedTree(
        tuple(t.betas[w] for w in keep), tuple(new_edges), new_tails, new_decor
    )
    return TreeSum({stabilized: Fraction(aut_order(stabilized), base_aut)})


# -- boundary presentations ------------------------------------------------------


def psi_boundary_presentation(n: int, d: int, a: int) -> TreeSum:
    """Boundary presentation of psi_1^a on the n-pointed degree-d space.

    Tail 1 rides one vertex, the reference tails 2 and 3 the other, the
    remaining tails and the degree split in all stable ways.  For a >= 2
    the tail-1 vertex carries the leftover psi power as a token.  Built
    once per (n, d, a), returned as a fresh sum.
    """
    if json_int(a, "a psi power") < 1:
        raise ValueError("psi presentation needs a >= 1")
    if json_int(n, "a point count") < 3:
        raise ValueError("psi presentation needs the two reference tails")
    check_degree(d)
    return TreeSum(dict(_psi_presentation(n, d, a)), n)


@cache
def _psi_presentation(n: int, d: int, a: int) -> tuple[tuple[DecoratedTree, Fraction], ...]:
    decor = (Decoration("psi", (1, a - 1), 2 * (a - 1)),) if a > 1 else ()
    # coefficient 1 each: the pinned tails tell the two vertices apart, so
    # distinct splits give non-isomorphic trees and no two terms merge
    splits = _two_vertex_splits(n, d, pin_first=(2, 3), pin_second=(1,))
    return tuple((two_vertex_tree(*split, decor), Fraction(1)) for split in splits)


def kappa_boundary_presentation(
    target: TargetModel, n: int, d: int, a: int, alpha: int
) -> TreeSum:
    """Boundary presentation of kappa_{a,alpha} on the n-pointed space.

    The splitting sum demotes the class to kappa_{a-1,alpha} on the vertex
    away from the reference tails 1 and 2; for a = 0 the destabilizing
    strata contribute the extra evaluation-class terms, one per
    non-reference tail.  Built once per (target, n, d, a, alpha), returned
    as a fresh sum.
    """
    if json_int(a, "a kappa level") < 0:
        raise ValueError("kappa presentation needs a >= 0")
    if json_int(n, "a point count") < 2:
        raise ValueError("kappa presentation needs the two reference tails")
    check_degree(d)
    if not 0 <= json_int(alpha, "a kappa class") < target.rank:
        raise ValueError(f"kappa class {alpha} outside the basis 0..{target.rank - 1}")
    return TreeSum(dict(_kappa_presentation(target, n, d, a, alpha)), n)


@cache
def _kappa_presentation(
    target: TargetModel, n: int, d: int, a: int, alpha: int
) -> tuple[tuple[DecoratedTree, Fraction], ...]:
    grade = target.gradings[alpha]
    token = Decoration("kappa", (a - 1, alpha), 2 * (a - 1) + grade)
    # coefficient 1 each, as in ``_psi_presentation``; the ev trees differ by
    # their token's tail
    splits = _two_vertex_splits(n, d, pin_first=(1, 2))
    out = [(two_vertex_tree(*split, (token,)), Fraction(1)) for split in splits]
    if a == 0:
        for i in range(3, n + 1):
            tok = Decoration("ev", (i, alpha), grade)
            out.append((single_vertex_tree(n, d, (tok,)), Fraction(1)))
    return tuple(out)
