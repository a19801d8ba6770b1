"""Finite pair groupoids, bisections and cyclic flows.

The pair groupoid over a finite set X of size n has arrow set X×X with
d(x,y) = y, r(x,y) = x, composition (x,y)·(y,z) = (x,z) and involution
(x,y)* = (y,x).  Its global bisections are exactly the permutations of X.
Points are 0-indexed internally; serialization is 1-indexed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

Arrow = tuple[int, int]

ENUMERATION_CAP = 8


def arrow_key(g: Arrow) -> str:
    """The arrow as a model file keys it, 1-indexed: (0, 1) is "(1,2)"."""
    return f"({g[0] + 1},{g[1] + 1})"


def pair_key(g: Arrow, h: Arrow) -> str:
    """The composable pair as a model file keys it: ((0,1),(1,2)) is "((1,2),(2,3))"."""
    return f"({arrow_key(g)},{arrow_key(h)})"


@dataclass(frozen=True)
class PairGroupoid:
    """The groupoid X×X over a finite set of points."""

    n_points: int

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("pair groupoid needs at least one point")

    def arrows(self) -> list[Arrow]:
        n = self.n_points
        return [(x, y) for x in range(n) for y in range(n)]

    @staticmethod
    def inverse(g: Arrow) -> Arrow:
        return (g[1], g[0])

    def compose(self, g: Arrow, h: Arrow) -> Arrow:
        """(x,y)·(y,z) = (x,z); raises if d(g) ≠ r(h)."""
        self._check_arrow(g)
        self._check_arrow(h)
        if g[1] != h[0]:
            raise ValueError(f"arrows not composable: d{g} = {g[1]} ≠ r{h} = {h[0]}")
        return (g[0], h[1])

    def composable_pairs(self) -> list[tuple[Arrow, Arrow]]:
        n = self.n_points
        return [
            ((x, y), (y, z))
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ]

    def _check_arrow(self, g: Arrow):
        if not (0 <= g[0] < self.n_points and 0 <= g[1] < self.n_points):
            raise ValueError(f"arrow {g} outside point set of size {self.n_points}")


@dataclass(frozen=True)
class Bisection:
    """A global bisection of the pair groupoid: a permutation of the points."""

    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.perm}")

    @property
    def n_points(self) -> int:
        return len(self.perm)

    def __call__(self, x: int) -> int:
        return self.perm[x]

    def compose(self, other: "Bisection") -> "Bisection":
        """(self ∘ other)(x) = self(other(x))."""
        if self.n_points != other.n_points:
            raise ValueError("bisections over different point sets")
        return Bisection(tuple(self.perm[other.perm[x]] for x in range(self.n_points)))

    def is_identity(self) -> bool:
        return all(self.perm[x] == x for x in range(self.n_points))

    def is_self_adjoint(self) -> bool:
        """g = g*, i.e. the permutation is an involution."""
        return all(self.perm[self.perm[x]] == x for x in range(self.n_points))

    def graph(self) -> set[Arrow]:
        """Arrow support {(g(x), x)} of the bisection."""
        return {(self.perm[x], x) for x in range(self.n_points)}


def identity_bisection(n: int) -> Bisection:
    return Bisection(tuple(range(n)))


def cycle_bisection(n: int) -> Bisection:
    """The n-cycle x ↦ x+1 mod n."""
    return Bisection(tuple((x + 1) % n for x in range(n)))


def all_bisections(n: int) -> list[Bisection]:
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"refusing to enumerate {n}! bisections (cap {ENUMERATION_CAP}); "
            "use predicates on individual bisections instead"
        )
    return [Bisection(p) for p in itertools.permutations(range(n))]


def self_adjoint_bisections(n: int) -> list[Bisection]:
    """All involutive permutations g = g* on n points (n ≤ ENUMERATION_CAP)."""
    return [g for g in all_bisections(n) if g.is_self_adjoint()]


@dataclass(frozen=True)
class CyclicFlow:
    """The cyclic group generated by one bisection: g, g², …, g^ord = id."""

    generator: Bisection
    elements: tuple[Bisection, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def cyclic_flow(g: Bisection) -> CyclicFlow:
    elements = [g]
    power = g
    while not power.is_identity():
        power = power.compose(g)
        elements.append(power)
    return CyclicFlow(generator=g, elements=tuple(elements))


def is_minimal_flow(g: Bisection) -> bool:
    """Discrete transitivity: the permutation is a single n-cycle.

    For such g the orbit pairs {(g^m(x), x)} cover all of X×X, the discrete
    form of a dense orbit.
    """
    n = g.n_points
    seen = {0}
    x = g(0)
    while x != 0:
        seen.add(x)
        x = g(x)
    return len(seen) == n


def orbit_pairs(g: Bisection) -> set[Arrow]:
    """{(g^m(x), x) : x ∈ X, 1 ≤ m ≤ ord(g)}."""
    flow = cyclic_flow(g)
    out: set[Arrow] = set()
    for power in flow.elements:
        out |= power.graph()
    return out
