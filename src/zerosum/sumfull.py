"""Sum-fullness: the one representation search, and what is built on it.

A set is sum-full when every element is a sum of two *other* elements of the
set (the two summands may coincide with each other, never with the element
they represent).  _first_pair is the one search for such a representation of
one target.  least_pairs runs it over every element to fix the least pairs:
check_sum_full either keeps one representation per element from them or
raises NotSumFullError for the least element that has none.
prune_to_sumfull runs it under a worklist to peel a set down to its largest
sum-full subset.  Both take canonically sorted elements; in a group with a
free part, _window then bounds each search to a bisect range of the first
free coordinate.  All of them trust the shapes checked at ingest and use the
group's unchecked arithmetic.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import groups
from .errors import NotSumFullError
from .groups import GroupElement, GroupSpec


def _check_canonical(elements: Sequence[GroupElement]) -> None:
    if any(a >= b for a, b in zip(elements, elements[1:])):
        raise ValueError("elements must be strictly sorted and duplicate-free")


@dataclass(frozen=True)
class InputSet:
    """Canonical input: duplicate-free elements sorted under the fixed total order."""

    spec: GroupSpec
    elements: tuple[GroupElement, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("input set is empty after deduplication")
        _check_canonical(self.elements)
        for x in self.elements:
            groups.check_shape(x, self.spec)

    @classmethod
    def from_elements(cls, spec: GroupSpec, elements: Iterable[GroupElement]) -> "InputSet":
        return cls(spec, groups.canonical_elements(elements))

    def positions(self) -> dict[GroupElement, int]:
        return {x: k for k, x in enumerate(self.elements)}

    def zero_index(self) -> Optional[int]:
        """The index of the group's zero among the sorted elements, or None."""
        z = groups.zero(self.spec)
        k = bisect_left(self.elements, z)
        return k if k < len(self.elements) and self.elements[k] == z else None


@dataclass(frozen=True)
class RepresentationTable:
    """For each index k one pair (i, j), i <= j, both different from k, with a_i + a_j = a_k."""

    reps: tuple[tuple[int, int], ...]


def _window(spec: GroupSpec,
            elements: Sequence[GroupElement]) -> Optional[Callable[[GroupElement], range]]:
    """The search window of canonically sorted elements: a map from a target t
    to a range of indices, or None for a torsion-only group.

    Canonical order sorts by the first free coordinate first.  The lower index
    i of a pair (i, j), i <= j, with a_i + a_j = t has
    a_i[0] <= a_j[0] = t[0] - a_i[0], and a_j[0] lies between the least and
    the most first coordinate, min_0 and max_0.  So a_i[0] lies in
    [t[0] - max_0, min(t[0] - min_0, floor(t[0] / 2))], a range of indices
    found by bisection.
    """
    if not spec.free_rank or not elements:
        return None
    firsts = [x.free[0] for x in elements]
    least, most = firsts[0], firsts[-1]

    def window(target: GroupElement) -> range:
        t = target.free[0]
        return range(bisect_left(firsts, t - most), bisect_right(firsts, min(t - least, t // 2)))
    return window


def _first_pair(add, target: GroupElement, key: int, summands: Iterable[tuple[int, GroupElement]],
                members: dict[GroupElement, int]) -> Optional[tuple[int, int]]:
    """The first (i, j) over summands, pairs (i, -a_i) in order, with
    j = members[target - a_i] and i != key != j, where key is the target's own
    index; None when there is none.

    Over all summands in index order the first hit has i <= j: a hit (i, j)
    with j < i is found earlier as (j, i).  So a caller may pass only the
    summands in the target's window, and gets the same pair.
    """
    for i, neg in summands:
        j = members.get(add(target, neg))
        if j is not None and i != key != j:
            return i, j
    return None


def least_pairs(spec: GroupSpec,
                elements: Sequence[GroupElement]) -> Iterator[Optional[tuple[int, int]]]:
    """For each index k in turn, the least pair (i, j), i <= j, both different
    from k, with a_i + a_j = a_k, or None when a_k has no such pair.

    The elements must be in canonical order, strictly sorted and
    duplicate-free, as InputSet holds them: the window of a group with a free
    part relies on it, and an unsorted input gives wrong pairs.
    Lazy, so a caller may stop at the first None.  The scan over i ascending
    finds the least pair: for each i the partner j is unique (the position of
    a_k - a_i), and a pair with j < i would have been found earlier as (j, i).
    """
    add, negate = groups.arithmetic(spec)
    pos = {x: k for k, x in enumerate(elements)}
    summands = [(i, negate(x)) for i, x in enumerate(elements)]
    window = _window(spec, elements)
    if window is None:
        for k, target in enumerate(elements):
            yield _first_pair(add, target, k, summands, pos)
    else:
        at = summands.__getitem__
        for k, target in enumerate(elements):
            yield _first_pair(add, target, k, map(at, window(target)), pos)


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
    """The largest sum-full subset of the elements, in their order, by peeling.

    The elements must be in canonical order, strictly sorted and
    duplicate-free; ValueError otherwise, since the search window relies on it.
    Each element is searched once for a pair y + z of other survivors; an
    element without one is deleted, and only the survivors whose pair used it
    are searched again.  A member of the largest sum-full subset always keeps
    a pair inside it, so it is never deleted, and once the worklist is empty
    every survivor has a pair among the survivors: the result is that subset,
    whatever the order of the searches.
    """
    _check_canonical(elements)
    add, negate = groups.arithmetic(spec)
    members = {x: k for k, x in enumerate(elements)}  # survivor -> its index
    # index -> (index, negation), None once deleted
    slots: list[Optional[tuple[int, GroupElement]]] = [(k, negate(x)) for k, x in enumerate(elements)]
    window = _window(spec, elements)
    at = slots.__getitem__
    users: list[list[int]] = [[] for _ in elements]
    work = list(range(len(elements) - 1, -1, -1))
    while work:
        k = work.pop()
        if slots[k] is None:
            continue
        target = elements[k]
        summands = filter(None, slots if window is None else map(at, window(target)))
        pair = _first_pair(add, target, k, summands, members)
        if pair is None:
            slots[k] = None
            del members[target]
            work.extend(users[k])
        else:
            for i in pair:
                users[i].append(k)
    return tuple(elements[k] for k, _ in filter(None, slots))


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

