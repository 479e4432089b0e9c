"""Deterministic instance generators for tests and fuzzing.

All randomness comes from a SplitMix64 stream so that a (config, seed) pair
pins the instance bit-for-bit; see the README for the exact state evolution
and the bounded-draw and composition-unranking rules.  This module only
draws: prune_closure peels its draw with sumfull.prune_to_sumfull, which it
imports, so gen.prune_to_sumfull stays the name that callers use and replace.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import groups
from .errors import BudgetExceeded, NotSumFullError
from .groups import GroupElement, GroupSpec
from .sumfull import InputSet, check_sum_full, prune_to_sumfull
from .witness import ConstraintMatrix, check_order

MASK64 = 2**64 - 1
FULL_NONZERO_MAX_ORDER = 10**6
GEN_MAX_COUNT = 5000
GEN_MAX_COORDS = 10**6  # count times coordinates per element, drawn and printed one by one

MODES = ("random_matrix", "random_set", "prune_closure", "full_nonzero")


class SplitMix64:
    """SplitMix64: state += 0x9E3779B97F4A7C15; output = mix(state)."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        """Uniform draw in [0, k) by the multiply-shift rule (next * k) >> 64."""
        if k <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * k) >> 64


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    group: GroupSpec = GroupSpec(1, ())
    mode: str = "prune_closure"
    count: int = 20
    bound: int = 50

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.count < 1 or self.bound < 0:
            raise ValueError("count must be >= 1 and bound >= 0")
        if self.bound > groups.INT64_MAX:
            raise ValueError(f"bound {self.bound} leaves the checked 64-bit range")
        if self.count > GEN_MAX_COUNT:
            raise BudgetExceeded(f"count {self.count} exceeds the cap {GEN_MAX_COUNT}")
        coords = self.count * (self.group.free_rank + len(self.group.torsion))
        if coords > GEN_MAX_COORDS:
            raise BudgetExceeded(f"count times coordinates {coords} exceeds the cap {GEN_MAX_COORDS}")


def _unrank_sorted_pair(t: int, slots: int) -> tuple[int, int]:
    """Index t -> the t-th pair (a, b), a <= b < slots, in lexicographic order."""
    lo, hi = 0, slots - 1
    # offset(a) = number of pairs with first coordinate < a.
    def offset(a: int) -> int:
        return a * slots - a * (a - 1) // 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if offset(mid) <= t:
            lo = mid
        else:
            hi = mid - 1
    return lo, lo + (t - offset(lo))


def random_pairs(n: int, seed: int) -> list[tuple[int, int]]:
    """Per row k: diagonal d drawn from {-1, 0, 1} (1 when n = 1), the mass 1 - d placed by a
    uniform weak composition over the off-diagonal slots; kept as the pair (i, j), i <= j,
    of row k = e_i + e_j - e_k.  The order cap is checked before any draw."""
    if n < 1:
        raise ValueError("order must be >= 1")
    check_order(n)
    rng = SplitMix64(seed)
    slots = n - 1
    pairs = []
    for k in range(n):
        d = rng.below(3) - 1 if slots else 1
        if d == 1:
            pairs.append((k, k))
        elif d == 0:
            s = rng.below(slots)
            pairs.append((s, k) if s < k else (k, s + 1))
        else:
            x, y = _unrank_sorted_pair(rng.below(slots * (slots + 1) // 2), slots)
            pairs.append((x if x < k else x + 1, y if y < k else y + 1))
    return pairs


def random_matrix(n: int, seed: int) -> ConstraintMatrix:
    """The class matrix of random_pairs(n, seed)."""
    return ConstraintMatrix.from_pairs(random_pairs(n, seed))


def _draw_element(rng: SplitMix64, g: GroupSpec, bound: int) -> GroupElement:
    free = tuple(rng.below(2 * bound + 1) - bound for _ in range(g.free_rank))
    torsion = tuple(rng.below(m) for m in g.torsion)
    return GroupElement(free, torsion)


def random_set(cfg: GenConfig) -> tuple[GroupElement, ...]:
    """cfg.count draws, deduplicated and canonically sorted (may come out smaller)."""
    rng = SplitMix64(cfg.seed)
    drawn = [_draw_element(rng, cfg.group, cfg.bound) for _ in range(cfg.count)]
    return groups.canonical_elements(drawn)


def random_sumfull_set(cfg: GenConfig) -> Optional[InputSet]:
    """full_nonzero: all nonzero elements of a finite group, checked sum-full;
    prune_closure: a random draw pruned to its sum-full fixpoint, which needs
    no second check.  None is a valid outcome."""
    if cfg.mode == "full_nonzero":
        g = cfg.group
        if not g.is_finite():
            raise ValueError("full_nonzero needs a finite group")
        order = g.order()
        assert order is not None
        if order > FULL_NONZERO_MAX_ORDER:
            raise BudgetExceeded(f"group order {order} exceeds the cap {FULL_NONZERO_MAX_ORDER}")
        z = groups.zero(g)
        els = tuple(x for x in groups.all_elements(g) if x != z)
        if not els:
            return None
        candidate = InputSet(g, els)
        try:
            check_sum_full(candidate)
        except NotSumFullError:
            return None
        return candidate
    if cfg.mode == "prune_closure":
        survivors = prune_to_sumfull(cfg.group, random_set(cfg))
        return InputSet(cfg.group, survivors) if survivors else None
    raise ValueError(f"mode {cfg.mode!r} does not generate sum-full sets")
