"""Sum-fullness: the one representation search, and what is built on it.

A set is sum-full when every element is a sum of two *other* elements of the
set (the two summands may coincide with each other, never with the element
they represent).  _first_pair is the one search for such a representation of
one target.  least_pairs runs it over every element to fix the least pairs:
check_sum_full either keeps one representation per element from them or
raises NotSumFullError for the least element that has none.
prune_to_sumfull runs it under a worklist to peel a set down to its largest
sum-full subset.  All of them trust the shapes checked at ingest and use the
group's unchecked arithmetic.
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


def _first_pair(add, target: GroupElement, key: int, summands,
                members: dict[GroupElement, int]) -> Optional[tuple[int, int]]:
    """The first (i, j) over summands, pairs (i, -a_i) in order, with
    j = members[target - a_i] and i != key != j, where key is the target's own
    index; None when there is none."""
    for i, neg in summands:
        j = members.get(add(target, neg))
        if j is not None and i != key != j:
            return i, j
    return None


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
    summands = [(i, negate(x)) for i, x in enumerate(elements)]
    for k, target in enumerate(elements):
        yield _first_pair(add, target, k, summands, pos)


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


def prune_to_sumfull(spec: GroupSpec, elements: tuple[GroupElement, ...]) -> tuple[GroupElement, ...]:
    """The largest sum-full subset of the distinct elements, in their order, by peeling.

    Each element is searched once for a pair y + z of other survivors; an
    element without one is deleted, and only the survivors whose pair used it
    are searched again.  A member of the largest sum-full subset always keeps
    a pair inside it, so it is never deleted, and once the worklist is empty
    every survivor has a pair among the survivors: the result is that subset,
    whatever the order of the searches.
    """
    add, negate = groups.arithmetic(spec)
    members = {x: k for k, x in enumerate(elements)}  # survivor -> its index
    survivors = {k: negate(x) for k, x in enumerate(elements)}  # index -> negation, in order
    users: list[list[int]] = [[] for _ in elements]
    work = list(range(len(elements) - 1, -1, -1))
    while work:
        k = work.pop()
        if k not in survivors:
            continue
        pair = _first_pair(add, elements[k], k, survivors.items(), members)
        if pair is None:
            del survivors[k], members[elements[k]]
            work.extend(users[k])
        else:
            for i in pair:
                users[i].append(k)
    return tuple(elements[k] for k in survivors)


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

