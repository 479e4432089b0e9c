"""Independent brute-force ground truth at desk scale.

Nothing here shares a code path with the constructions it checks: subset
search walks indicator bitmasks directly, the matrix class is enumerated from
per-row weak compositions (as matrices, or as the pair tables that are the
same class), and the Sidon check rescans a full pair-sum table.
"""
from __future__ import annotations

import itertools
import math
import time
from typing import Iterator, Optional, Sequence, Union

from . import groups
from .char3 import AdditiveQuadruple, _is_prime
from .errors import BudgetExceeded
from .groups import GroupElement, GroupSpec
from .sumfull import InputSet
from .witness import ConstraintMatrix

ENUMERATE_MAX_N = 6
BRUTE_FORCE_MAX_N = 25


def brute_force_zero_sum(a: InputSet, time_cap: float = 30.0) -> Optional[tuple[int, ...]]:
    """First nonempty zero-sum subset in indicator-bitmask order, or None.

    Stepping mask -> mask+1 clears the trailing ones and sets bit k, so the
    running sum changes by the precomputed delta a_k - (a_0 + ... + a_{k-1});
    one group addition per subset visited.  BudgetExceeded is raised once the
    search has run time_cap seconds.  A time_cap that is not a finite positive
    number (0, -1, inf, nan) is a ValueError: a nan cap never compares greater
    than the clock, so it would never stop the search.
    """
    if not 0 < time_cap < math.inf:
        raise ValueError(f"time_cap must be a finite positive number, got {time_cap}")
    n = len(a.elements)
    if n > BRUTE_FORCE_MAX_N:
        raise BudgetExceeded(f"subset search supports n <= {BRUTE_FORCE_MAX_N}, got {n}")
    g = a.spec
    z = groups.zero(g)
    prefix = [z]
    for x in a.elements:
        prefix.append(groups.add(prefix[-1], x, g))
    delta = [groups.sub(a.elements[k], prefix[k], g) for k in range(n)]
    running = z
    deadline = time.monotonic() + time_cap
    for mask in range(1, 1 << n):
        k = (mask & -mask).bit_length() - 1
        running = groups.add(running, delta[k], g)
        if running == z:
            return tuple(i for i in range(n) if mask >> i & 1)
        if mask % 4096 == 0 and time.monotonic() > deadline:
            raise BudgetExceeded(f"subset search exceeded {time_cap}s")
    return None


def _weak_compositions(total: int, slots: int) -> list[tuple[int, ...]]:
    if slots == 0:
        return [()] if total == 0 else []
    out = []
    for head in range(total + 1):
        for rest in _weak_compositions(total - head, slots - 1):
            out.append((head,) + rest)
    return out


def row_options(n: int, position: int) -> list[tuple[int, ...]]:
    """All class-valid rows with the diagonal at the given position, sorted lexicographically."""
    opts = []
    for d in (-1, 0, 1):
        for comp in _weak_compositions(1 - d, n - 1):
            opts.append(comp[:position] + (d,) + comp[position:])
    opts.sort()
    return opts


def count_class(n: int) -> int:
    """Closed-form |class|: the per-row option count to the n-th power."""
    return len(row_options(n, 0)) ** n


def _class_options(n: int, first_rows: Optional[Sequence[int]]) -> list[list[tuple[int, ...]]]:
    """row_options for each row of order n, the first restricted to the first_rows indices."""
    if n > ENUMERATE_MAX_N:
        raise BudgetExceeded(f"class enumeration supports n <= {ENUMERATE_MAX_N}, got {n}")
    if n < 1:
        raise ValueError("order must be >= 1")
    per_row = [row_options(n, i) for i in range(n)]
    if first_rows is not None:
        per_row[0] = [per_row[0][k] for k in first_rows]
    return per_row


def enumerate_class(n: int, first_rows: Optional[Sequence[int]] = None) -> Iterator[ConstraintMatrix]:
    """Every class member of order n exactly once, in row-wise lexicographic order.

    first_rows restricts the first row to the given option indices (sharding);
    shards are disjoint and together cover the whole class.
    """
    yield from map(ConstraintMatrix.from_rows, itertools.product(*_class_options(n, first_rows)))


def class_tables(n: int,
                 first_rows: Optional[Sequence[int]] = None) -> Iterator[tuple[tuple[int, int], ...]]:
    """The pair table of each matrix of enumerate_class(n, first_rows), in the same order.

    Row k plus e_k is a 0/1/2 vector with entry sum 2, read as its two columns
    i <= j; each row option is read once, and no matrix is built.
    """
    per_row = [[tuple(c for c, v in enumerate(row) for _ in range(v + (c == k)))
                for row in options]
               for k, options in enumerate(_class_options(n, first_rows))]
    yield from itertools.product(*per_row)


def max_zero_sum_free_length(p: int, m: int, cap: int = 8) -> int:
    """Exact maximum length of a zero-sum-free sequence in F_p^m, by exhaustive multiset search.

    Sequences are built as nondecreasing index multisets of nonzero vectors,
    extending only while the achievable nonempty subset sums avoid zero.
    """
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    # p >= 2, so m > 4 already gives p^m > 27; p^m is computed only when both are small
    if p > 27 or m > 4 or p**m > 27:
        raise BudgetExceeded("group order p^m exceeds the search cap 27")
    if cap > 8 or cap < 1:
        raise BudgetExceeded(f"length cap {cap} is outside [1, 8]")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    zero_vec = (0,) * m
    vectors = [v for v in itertools.product(range(p), repeat=m) if v != zero_vec]

    def vec_add(x, y):
        return tuple((a + b) % p for a, b in zip(x, y))

    # Depth-first over (next candidate index, achievable sums, depth).
    best = 0
    work = [(0, frozenset(), 0)]
    while work:
        start, sums, depth = work.pop()
        if depth > best:
            best = depth
            if best == cap:
                raise BudgetExceeded(f"a zero-sum-free sequence reached the cap {cap}")
        for t in range(start, len(vectors)):
            e = vectors[t]
            new_sums = {e}
            new_sums.update(vec_add(s, e) for s in sums)
            if zero_vec in new_sums:
                continue
            new_sums.update(sums)
            work.append((t, frozenset(new_sums), depth + 1))
    return best


def quadruple_oracle(b: Sequence[GroupElement], g: GroupSpec) -> Union[bool, AdditiveQuadruple]:
    """Same contract as is_sidon via a full pair-sum table built first, then scanned."""
    if len(b) > 50:
        raise BudgetExceeded(f"quadruple oracle supports n <= 50, got {len(b)}")
    if len(set(b)) != len(b):
        raise ValueError("quadruple oracle requires a duplicate-free list")
    table: dict[GroupElement, list[tuple[int, int]]] = {}
    for i in range(len(b)):
        for j in range(i, len(b)):
            table.setdefault(groups.add(b[i], b[j], g), []).append((i, j))
    for i in range(len(b)):
        for j in range(i, len(b)):
            pairs = table[groups.add(b[i], b[j], g)]
            if pairs[0] != (i, j):
                k, l = pairs[0]
                return AdditiveQuadruple(b[k], b[l], b[i], b[j])
    return True
