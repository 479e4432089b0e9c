"""Sum-fullness decision and deterministic representation fixing.

A set is sum-full when every element is a sum of two *other* elements of the
set (the two summands may coincide with each other, never with the element
they represent).  least_pairs is the one search for least representations:
check_sum_full either fixes one representation per element from it or raises
NotSumFullError for the least element that has none.  Both trust the shapes checked at ingest and
use the group's unchecked arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from . import groups
from .errors import NotSumFullError
from .groups import GroupElement, GroupSpec


@dataclass(frozen=True)
class InputSet:
    """Canonical input: duplicate-free elements sorted under the fixed total order."""

    spec: GroupSpec
    elements: tuple[GroupElement, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("input set is empty after deduplication")
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError("elements must be strictly sorted and duplicate-free")
        for x in self.elements:
            groups.check_shape(x, self.spec)

    @classmethod
    def from_elements(cls, spec: GroupSpec, elements: Iterable[GroupElement]) -> "InputSet":
        return cls(spec, groups.canonical_elements(elements))

    def positions(self) -> dict[GroupElement, int]:
        return {x: k for k, x in enumerate(self.elements)}


@dataclass(frozen=True)
class RepresentationTable:
    """For each index k one pair (i, j), i <= j, both different from k, with a_i + a_j = a_k."""

    reps: tuple[tuple[int, int], ...]


def least_pairs(spec: GroupSpec,
                elements: Sequence[GroupElement]) -> Iterator[Optional[tuple[int, int]]]:
    """For each index k in turn, the least pair (i, j), i <= j, both different
    from k, with a_i + a_j = a_k, or None when a_k has no such pair.

    Lazy, so a caller may stop at the first None.  The scan over i ascending
    finds the least pair: for each i the partner j is unique (the position of
    a_k - a_i), and a pair with j < i would have been found earlier as (j, i).
    """
    add, negate = groups.arithmetic(spec)
    pos = {x: k for k, x in enumerate(elements)}
    negs = [negate(x) for x in elements]
    for k, target in enumerate(elements):
        for i, neg in enumerate(negs):
            if i == k:
                continue
            j = pos.get(add(target, neg))
            if j is not None and j != k:
                yield i, j
                break
        else:
            yield None


def check_sum_full(a: InputSet) -> RepresentationTable:
    """Fix the lexicographically least representation (i, j) per element.

    Raises NotSumFullError naming the least index whose element has none.
    """
    reps = []
    for k, pair in enumerate(least_pairs(a.spec, a.elements)):
        if pair is None:
            raise NotSumFullError(k)
        reps.append(pair)
    return RepresentationTable(tuple(reps))


def verify_table(a: InputSet, t: RepresentationTable) -> bool:
    """Recheck the table invariants against a; independent of how t was produced."""
    n = len(a.elements)
    if len(t.reps) != n:
        return False
    add = groups.arithmetic(a.spec)[0]
    for k, (i, j) in enumerate(t.reps):
        if not (0 <= i <= j < n) or i == k or j == k:
            return False
        if add(a.elements[i], a.elements[j]) != a.elements[k]:
            return False
    return True

