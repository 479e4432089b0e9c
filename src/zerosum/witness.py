"""Row-subset witnesses for integer matrices with diagonal >= -1, off-diagonal >= 0, row sums 1.

Every such matrix admits a nonempty set of rows whose sum is a nonzero vector
of zeros and ones.  find_witness constructs one by a reduction that removes
one or two rows/columns per step; find_witness_pairs makes the same choices on
the pair table (row k is e_i + e_j - e_k), building no matrix, and is the one
the package uses, with find_witness as the dense reference.  verify_witness
and all_witnesses recheck results by direct arithmetic.  Every class matrix is
built here, under MATRIX_MAX_N.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, InternalVerificationError, MatrixClassError

ALL_WITNESSES_MAX_N = 25
MATRIX_MAX_N = 2000
SHARED_WITNESS_MAX_N = 6

TraceFn = Callable[[np.ndarray, np.ndarray], None]
PairTraceFn = Callable[[tuple[int, ...], tuple[tuple[int, int], ...]], None]


@dataclass(frozen=True, eq=False)
class ConstraintMatrix:
    """Dense n x n integer matrix meant to be in the class: diag >= -1, off-diag >= 0, row sums 1.

    The constructor and from_rows trust their input and accept any square
    integer matrix; validate_membership is the checked constructor, and
    from_pairs builds only class matrices.  pairs() refuses a row outside the
    class, but dense find_witness on a matrix outside it proves nothing.
    """

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2 or not 0 < self.entries.shape[0] == self.entries.shape[1]:
            raise MatrixClassError("matrix is not square", 0, 0)
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstraintMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def tolist(self) -> list[list[int]]:
        return self.entries.tolist()

    def pairs(self) -> list[tuple[int, int]]:
        """Row k plus e_k read as a multiset {i, j} of two columns, i <= j: the pair table."""
        a = self.entries + np.eye(self.n, dtype=np.int64)
        bad = np.flatnonzero((a < 0).any(axis=1) | (a.sum(axis=1) != 2))
        if bad.size:
            raise MatrixClassError("row is not e_i + e_j - e_k", int(bad[0]), 0)
        rows, cols = np.nonzero(a)
        flat = np.repeat(cols, a[rows, cols]).tolist()
        return list(zip(flat[0::2], flat[1::2]))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> ConstraintMatrix:
        check_order(len(rows))
        return cls(np.array(rows, dtype=np.int64))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> ConstraintMatrix:
        """Row k: -1 at column k, +1 at columns i and j of pairs[k] (accumulating to +2 when i = j)."""
        n = len(pairs)
        check_order(n)
        a = np.zeros((n, n), dtype=np.int64)
        np.fill_diagonal(a, -1)
        for k, (i, j) in enumerate(pairs):
            a[k, i] += 1
            a[k, j] += 1
        return cls(a)


def check_order(n: int) -> None:
    if n > MATRIX_MAX_N:
        raise BudgetExceeded(f"matrix order {n} exceeds the cap {MATRIX_MAX_N}")


@dataclass(frozen=True)
class WitnessSubset:
    """Nonempty row-index set whose row sum is the stored nonzero zero-one vector."""

    rows: tuple[int, ...]
    vector: tuple[int, ...]


# Order n has at most 4**n witnesses, so up to SHARED_WITNESS_MAX_N each is
# built once and then shared: a sweep over the class matrices of a small order
# keeps one reference per matrix instead of three objects.
_shared_witnesses: dict[tuple[tuple[int, ...], tuple[int, ...]], WitnessSubset] = {}


def _witness(rows: tuple[int, ...], vector: tuple[int, ...]) -> WitnessSubset:
    if len(vector) > SHARED_WITNESS_MAX_N:
        return WitnessSubset(rows, vector)
    key = (rows, vector)
    w = _shared_witnesses.get(key)
    if w is None:
        w = _shared_witnesses[key] = WitnessSubset(rows, vector)
    return w


def validate_membership(matrix: Sequence[Sequence[int]]) -> ConstraintMatrix:
    """Typed acceptance iff all three class invariants hold.

    Rejections report the first violation in row order: within each row the
    diagonal bound, then the off-diagonal bounds left to right, then the row sum.
    """
    check_order(len(matrix))
    try:
        a = np.array(matrix, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise MatrixClassError(f"matrix is not a rectangular integer array ({exc})", 0, 0) from exc
    m = ConstraintMatrix(a)
    n = a.shape[0]
    diag = np.diagonal(a)
    off_ok = (a >= 0) | np.eye(n, dtype=bool)
    if (diag >= -1).all() and off_ok.all() and (a.sum(axis=1) == 1).all():
        return m
    for i in range(n):
        if a[i, i] < -1:
            raise MatrixClassError(f"diagonal entry {a[i, i]} is below -1", i, i)
        for j in range(n):
            if j != i and a[i, j] < 0:
                raise MatrixClassError(f"off-diagonal entry {a[i, j]} is negative", i, j)
        s = int(a[i].sum())
        if s != 1:
            raise MatrixClassError(f"row sum {s} is not 1", i, 0)
    raise AssertionError("unreachable")


def _is_witness_vector(s: np.ndarray) -> bool:
    return bool(((s == 0) | (s == 1)).all() and (s == 1).any())


def find_witness(M: ConstraintMatrix, *, trace: Optional[TraceFn] = None) -> WitnessSubset:
    """Construct a witness subset for a matrix of the class.

    Reduction per step, all index choices smallest-first for determinism:
      (a) some diagonal entry >= 0: that row alone is a unit vector;
      (b) every column has off-diagonal sum 2: all rows sum to the all-one vector;
      (c) otherwise some column c has off-diagonal sum 0 or 1:
          sum 0: drop row/column c and continue on the smaller matrix;
          sum 1: with p the row carrying the 1 in column c and q the column
          carrying row p's second 1, merge column p into column q, drop
          rows/columns c and p, and continue; on the way back out row p is
          added to the subset exactly when column q's partial sum went negative.

    The returned vector is recomputed against the original matrix.  trace, when
    given, receives each reduced matrix together with its original row indices.
    """
    top = M.entries
    cur = top
    idx = np.arange(M.n)
    # (original c, p, q, column p by original row, column q by original row)
    lifts: list[tuple[int, int, int, dict[int, int], dict[int, int]]] = []

    while True:
        m = cur.shape[0]
        diag = np.diagonal(cur)
        nonneg = np.flatnonzero(diag >= 0)
        if nonneg.size:
            chosen = {int(idx[nonneg[0]])}
            break
        col_off = cur.sum(axis=0, dtype=np.int64) - diag
        light = np.flatnonzero(col_off <= 1)
        if light.size == 0:
            if not (col_off == 2).all():
                raise InternalVerificationError("off-diagonal column sums do not average to 2")
            chosen = {int(i) for i in idx}
            break
        c = int(light[0])
        if col_off[c] == 0:
            keep = np.delete(np.arange(m), c)
            cur = cur[np.ix_(keep, keep)]
            idx = idx[keep]
            if trace is not None:
                trace(cur, idx)
            continue
        carriers = np.flatnonzero(cur[:, c] == 1)
        if carriers.size != 1:
            raise InternalVerificationError("column with off-diagonal sum 1 lacks a unique carrier row")
        p = int(carriers[0])
        second = [int(j) for j in np.flatnonzero(cur[p] == 1) if j != c]
        if len(second) != 1 or second[0] == p:
            raise InternalVerificationError("carrier row lacks a unique second unit column")
        q = second[0]
        col_p = {int(idx[i]): int(cur[i, p]) for i in range(m)}
        col_q = {int(idx[i]): int(cur[i, q]) for i in range(m)}
        lifts.append((int(idx[c]), int(idx[p]), int(idx[q]), col_p, col_q))
        merged = cur.copy()
        merged[:, q] += merged[:, p]
        keep = np.array([i for i in range(m) if i != c and i != p])
        cur = merged[np.ix_(keep, keep)]
        idx = idx[keep]
        if trace is not None:
            trace(cur, idx)

    for c_orig, p_orig, q_orig, col_p, col_q in reversed(lifts):
        if q_orig in chosen:
            sigma_q = sum(col_q[i] for i in chosen)
            if sigma_q < 0:
                sigma_p = sum(col_p[i] for i in chosen)
                if sigma_q != -1 or sigma_p not in (1, 2):
                    raise InternalVerificationError(
                        f"merge unwind saw column sums ({sigma_p}, {sigma_q})"
                    )
                chosen.add(p_orig)

    rows = tuple(sorted(chosen))
    v = top[list(rows)].sum(axis=0)
    if not _is_witness_vector(v):
        raise InternalVerificationError("constructed row set does not sum to a nonzero 0-1 vector")
    return _witness(rows, tuple(int(x) for x in v))


def find_witness_pairs(pairs: Sequence[tuple[int, int]], *,
                       trace: Optional[PairTraceFn] = None) -> WitnessSubset:
    """find_witness on the pair table of a class matrix: row k is e_i + e_j - e_k for pairs[k] = (i, j).

    Every reduction of find_witness is an edit of the table, with the same
    smallest-first choices, and no matrix is built.  Row r's diagonal is
    nonnegative exactly when r is in its own pair, and a column's off-diagonal
    sum is its in-degree, the number of pair slots naming it.  Dropping c
    removes row c; the merge of column p into column q renames p to q in the
    pairs of p's users, and only row q can become its own summand there.  The
    unwind replays the logged renames backwards on the chosen rows only, so
    the column sums of find_witness are read from slot counts and nothing is
    snapshotted.  The returned vector is recomputed from the original pairs.
    trace, when given, receives after each reduction the live rows, ascending,
    with their current pairs.
    """
    n = len(pairs)
    cur = [list(pr) for pr in pairs]
    users: list[dict[int, int]] = [{} for _ in range(n)]  # column -> {row: slots naming it}
    indeg = [0] * n
    for k, (i, j) in enumerate(pairs):
        for col in (i, j):
            users[col][k] = users[col].get(k, 0) + 1
            indeg[col] += 1
    live = [True] * n
    light = [c for c in range(n) if indeg[c] <= 1]  # ascending, so already a heap; lazy
    # (p, c, q, p's users at the merge by slot count); p's pair was (c, q)
    lifts: list[tuple[int, int, int, dict[int, int]]] = []

    def drop_row(r: int) -> None:
        live[r] = False
        for col in cur[r]:
            u = users[col]
            if u[r] == 1:
                del u[r]
            else:
                u[r] -= 1
            indeg[col] -= 1
            if indeg[col] <= 1:
                heapq.heappush(light, col)

    def report() -> None:
        rows = tuple(r for r in range(n) if live[r])
        trace(rows, tuple((cur[r][0], cur[r][1]) for r in rows))

    unit = next((k for k, (i, j) in enumerate(pairs) if k == i or k == j), None)
    while unit is None:
        while light and (not live[light[0]] or indeg[light[0]] > 1):
            heapq.heappop(light)
        if not light:
            if any(live[r] and indeg[r] != 2 for r in range(n)):
                raise InternalVerificationError("off-diagonal column sums do not average to 2")
            break
        c = heapq.heappop(light)
        if indeg[c] == 0:
            drop_row(c)
            if trace is not None:
                report()
            continue
        if len(users[c]) != 1:
            raise InternalVerificationError("column with off-diagonal sum 1 lacks a unique carrier row")
        (p,) = users[c]
        q = cur[p][1] if cur[p][0] == c else cur[p][0]
        if q == c or q == p:
            raise InternalVerificationError("carrier row lacks a unique second unit column")
        drop_row(c)
        drop_row(p)
        moved = users[p]
        uq = users[q]
        for r, k in moved.items():
            uq[r] = uq.get(r, 0) + k
            pr = cur[r]
            if pr[0] == p:
                pr[0] = q
            if pr[1] == p:
                pr[1] = q
        indeg[q] += indeg[p]
        if indeg[q] <= 1:
            heapq.heappush(light, q)
        lifts.append((p, c, q, moved))
        if q in moved:
            unit = q
        if trace is not None:
            report()
    chosen = [unit] if unit is not None else [r for r in range(n) if live[r]]

    in_set = [False] * n
    slots = [0] * n  # slots naming each column, over the chosen rows' pairs
    for r in chosen:
        in_set[r] = True
        for col in cur[r]:
            slots[col] += 1
    for p, c, q, moved in reversed(lifts):
        for r, k in moved.items():
            if in_set[r]:
                slots[q] -= k
                slots[p] += k
        if in_set[q]:
            sigma_q = slots[q] - 1
            if sigma_q < 0:
                sigma_p = slots[p]
                if sigma_q != -1 or sigma_p not in (1, 2):
                    raise InternalVerificationError(
                        f"merge unwind saw column sums ({sigma_p}, {sigma_q})"
                    )
                in_set[p] = True
                slots[c] += 1
                slots[q] += 1

    rows = tuple(r for r in range(n) if in_set[r])
    v = [0] * n
    for r in rows:
        i, j = pairs[r]
        v[i] += 1
        v[j] += 1
        v[r] -= 1
    if 1 not in v or not set(v) <= {0, 1}:
        raise InternalVerificationError("constructed row set does not sum to a nonzero 0-1 vector")
    return _witness(rows, tuple(v))


def verify_witness(M: ConstraintMatrix, w: WitnessSubset) -> bool:
    """Recompute the row sum directly; shares no code path with find_witness."""
    n = M.n
    rows = w.rows
    if not rows or len(set(rows)) != len(rows):
        return False
    if any(r < 0 or r >= n for r in rows):
        return False
    s = M.entries[list(rows)].sum(axis=0)
    return _is_witness_vector(s) and tuple(int(x) for x in s) == w.vector


def all_witnesses(M: ConstraintMatrix) -> list[WitnessSubset]:
    """Every valid witness subset, ordered by increasing indicator bitmask (oracle for tests)."""
    n = M.n
    if n > ALL_WITNESSES_MAX_N:
        raise BudgetExceeded(f"all_witnesses supports n <= {ALL_WITNESSES_MAX_N}, got {n}")
    rows = M.entries
    # Incremental subset sums: stepping mask -> mask+1 clears the trailing ones
    # and sets bit k, so the sum changes by rows[k] - (rows[0] + ... + rows[k-1]).
    prefix = np.zeros((n + 1, n), dtype=np.int64)
    for k in range(n):
        prefix[k + 1] = prefix[k] + rows[k]
    delta = [rows[k] - prefix[k] for k in range(n)]
    out = []
    running = np.zeros(n, dtype=np.int64)
    for mask in range(1, 1 << n):
        k = (mask & -mask).bit_length() - 1
        running = running + delta[k]
        if _is_witness_vector(running):
            members = tuple(i for i in range(n) if mask >> i & 1)
            out.append(WitnessSubset(members, tuple(int(x) for x in running)))
    return out
