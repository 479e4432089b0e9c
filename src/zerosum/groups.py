"""Finitely generated abelian groups Z^r x Z_{m_1} x ... x Z_{m_t} with exact arithmetic.

Elements are named tuples (free, torsion): free coordinates, then torsion
residues stored reduced into [0, m_i).  Equality, hashing and the fixed total
order (lexicographic on the free part, then the torsion part) are the tuple's.
Free coordinates are checked against the symmetric 64-bit range once, when an
element is built; arithmetic on them is exact Python integer arithmetic and
never wraps or raises, since certificates require exact sums.

arithmetic(g) builds add and negate for one group once and checks no shapes;
hot loops over elements whose shapes were checked at ingest call it.  add and
negate below check both shapes, then delegate to it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import add as _int_add, neg as _int_neg
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import ShapeMismatch

# Symmetric bound so that negation is total on stored values.
INT64_MAX = 2**63 - 1
INT64_MIN = -INT64_MAX


@dataclass(frozen=True)
class GroupSpec:
    """Ambient group Z^free_rank x Z_{torsion[0]} x ...; trivial when both are empty."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(m) for m in self.torsion))
        if self.free_rank < 0:
            raise ValueError("free_rank must be non-negative")
        for m in self.torsion:
            if m < 2:
                raise ValueError(f"torsion modulus {m} must be >= 2")

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Number of elements, or None for an infinite group."""
        if not self.is_finite():
            return None
        return prod(self.torsion)


class GroupElement(NamedTuple):
    free: tuple[int, ...] = ()
    torsion: tuple[int, ...] = ()


def _check_free(value: int) -> int:
    if value > INT64_MAX or value < INT64_MIN:
        raise OverflowError(f"free coordinate {value} leaves the checked 64-bit range")
    return value


def check_shape(x: GroupElement, g: GroupSpec) -> None:
    if len(x.free) != g.free_rank or len(x.torsion) != len(g.torsion):
        raise ShapeMismatch(
            f"element with shape ({len(x.free)}, {len(x.torsion)}) does not fit "
            f"group ({g.free_rank}, {len(g.torsion)})"
        )


def element(g: GroupSpec, coords: Sequence[int]) -> GroupElement:
    """Build an element from flat coordinates (free first, torsion after), reducing residues."""
    r = g.free_rank
    if len(coords) != r + len(g.torsion):
        raise ShapeMismatch(f"expected {r + len(g.torsion)} coordinates, got {len(coords)}")
    free = tuple(_check_free(int(c)) for c in coords[:r])
    torsion = tuple(int(c) % m for c, m in zip(coords[r:], g.torsion))
    return GroupElement(free, torsion)


def coords(x: GroupElement) -> list[int]:
    """Flat coordinate list, the inverse of element()."""
    return list(x.free) + list(x.torsion)


def zero(g: GroupSpec) -> GroupElement:
    return GroupElement((0,) * g.free_rank, (0,) * len(g.torsion))


@lru_cache(maxsize=None)
def arithmetic(g: GroupSpec) -> tuple[Callable[[GroupElement, GroupElement], GroupElement],
                                      Callable[[GroupElement], GroupElement]]:
    """add(x, y) and negate(x) for elements of g, built once per spec.

    Shapes are not checked: elements of another shape give a wrong result
    instead of ShapeMismatch.  The trivial group takes the free-only shape.
    """
    mods = g.torsion
    if not mods:
        def add(x: GroupElement, y: GroupElement) -> GroupElement:
            return GroupElement(tuple(map(_int_add, x.free, y.free)), ())

        def negate(x: GroupElement) -> GroupElement:
            return GroupElement(tuple(map(_int_neg, x.free)), ())
    elif not g.free_rank:
        def add(x: GroupElement, y: GroupElement) -> GroupElement:
            return GroupElement((), tuple([(a + b) % m for a, b, m in zip(x.torsion, y.torsion, mods)]))

        def negate(x: GroupElement) -> GroupElement:
            return GroupElement((), tuple([-a % m for a, m in zip(x.torsion, mods)]))
    else:
        def add(x: GroupElement, y: GroupElement) -> GroupElement:
            return GroupElement(tuple(map(_int_add, x.free, y.free)),
                                tuple([(a + b) % m for a, b, m in zip(x.torsion, y.torsion, mods)]))

        def negate(x: GroupElement) -> GroupElement:
            return GroupElement(tuple(map(_int_neg, x.free)),
                                tuple([-a % m for a, m in zip(x.torsion, mods)]))
    return add, negate


def add(x: GroupElement, y: GroupElement, g: GroupSpec) -> GroupElement:
    check_shape(x, g)
    check_shape(y, g)
    return arithmetic(g)[0](x, y)


def negate(x: GroupElement, g: GroupSpec) -> GroupElement:
    check_shape(x, g)
    return arithmetic(g)[1](x)


def sub(x: GroupElement, y: GroupElement, g: GroupSpec) -> GroupElement:
    return add(x, negate(y, g), g)


def scalar_sum(elements: Iterable[GroupElement], g: GroupSpec) -> GroupElement:
    """Fold of add; the empty sum is zero."""
    add = arithmetic(g)[0]
    acc = zero(g)
    for x in elements:
        acc = add(acc, x)
    return acc


def canonical_elements(elements: Iterable[GroupElement]) -> tuple[GroupElement, ...]:
    """Duplicate-free, sorted under the fixed total order; shapes are not checked."""
    return tuple(sorted(set(elements)))


def all_elements(g: GroupSpec) -> Iterator[GroupElement]:
    """Every element of a finite group, in the fixed total order."""
    if not g.is_finite():
        raise ValueError("cannot enumerate an infinite group")
    for t in itertools.product(*(range(m) for m in g.torsion)):
        yield GroupElement((), t)
