import math

import pytest

from conftest import NoPower, Z, zset
from zerosum.errors import BudgetExceeded
from zerosum.gen import GenConfig, SplitMix64, random_sumfull_set
from zerosum.oracle import (brute_force_zero_sum, count_class, enumerate_class,
                            max_zero_sum_free_length, row_options)
from zerosum.witness import validate_membership


class TestBruteForce:
    def test_whole_set_is_the_only_zero_sum(self):
        a = zset(1, 2, -3)
        assert brute_force_zero_sum(a) == (0, 1, 2)

    def test_positive_set_has_none(self):
        assert brute_force_zero_sum(zset(1, 2, 4)) is None

    def test_earliest_subset_in_indicator_order(self):
        # canonical order (-1, 1, 5); {-1, 1} comes first
        assert brute_force_zero_sum(zset(-1, 1, 5)) == (0, 1)

    def test_size_guard(self):
        a = zset(*range(1, 27))
        with pytest.raises(BudgetExceeded):
            brute_force_zero_sum(a)

    def test_time_cap(self):
        # no zero-sum subset exists, so the full 2^24 walk trips the cap
        a = zset(*[2**k for k in range(24)])
        with pytest.raises(BudgetExceeded):
            brute_force_zero_sum(a, time_cap=0.05)

    def test_budget_validation(self):
        # refused before the search, which would find {-1, 1} at once
        for cap in (0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                brute_force_zero_sum(zset(-1, 1, 5), time_cap=cap)

    def test_sum_full_inputs_always_have_zero_sums(self):
        rng = SplitMix64(3)
        found = 0
        while found < 200:
            inst = random_sumfull_set(
                GenConfig(seed=rng.next_u64(), group=Z, mode="prune_closure",
                          count=1 + rng.below(20), bound=30))
            if inst is None:
                continue
            assert brute_force_zero_sum(inst) is not None
            found += 1


class TestEnumerateClass:
    def test_order_one_is_forced(self):
        mats = [m.tolist() for m in enumerate_class(1)]
        assert mats == [[[1]]]

    def test_order_two_count(self):
        assert sum(1 for _ in enumerate_class(2)) == 9

    def test_order_three_count(self):
        assert sum(1 for _ in enumerate_class(3)) == 216

    def test_everything_is_class_valid_and_distinct(self):
        seen = set()
        for m in enumerate_class(3):
            validate_membership(m.entries)
            key = tuple(map(tuple, m.tolist()))
            assert key not in seen
            seen.add(key)
        assert len(seen) == 216

    def test_row_wise_lexicographic_order(self):
        listed = [tuple(map(tuple, m.tolist())) for m in enumerate_class(2)]
        assert listed == sorted(listed)

    def test_counts_match_closed_form(self):
        for n in (1, 2, 3, 4):
            assert count_class(n) == len(row_options(n, 0)) ** n
        assert count_class(5) == 759_375

    def test_sharding_partitions_the_class(self):
        options = len(row_options(3, 0))
        shards = [tuple(range(k, options, 2)) for k in range(2)]
        merged = []
        for shard in shards:
            merged.extend(tuple(map(tuple, m.tolist())) for m in enumerate_class(3, first_rows=shard))
        assert len(merged) == 216
        assert len(set(merged)) == 216

    def test_size_guard(self):
        with pytest.raises(BudgetExceeded):
            next(enumerate_class(7))


class TestMaxZeroSumFree:
    def test_exhaustive_values(self):
        assert max_zero_sum_free_length(2, 2) == 2
        assert max_zero_sum_free_length(3, 2) == 4
        assert max_zero_sum_free_length(2, 3) == 3

    def test_rank_one_groups(self):
        assert max_zero_sum_free_length(2, 1) == 1
        assert max_zero_sum_free_length(3, 1) == 2
        assert max_zero_sum_free_length(5, 1) == 4

    def test_guards(self):
        with pytest.raises(BudgetExceeded):
            max_zero_sum_free_length(3, 4)
        with pytest.raises(BudgetExceeded):
            max_zero_sum_free_length(3, 2, cap=3)
        with pytest.raises(ValueError):
            max_zero_sum_free_length(4, 1)
        # sizes are refused before p^m is computed
        for p, m in ((10**9 + 7, 1), (2, 10**12)):
            with pytest.raises(BudgetExceeded):
                max_zero_sum_free_length(NoPower(p), m)
        for p, m in ((1, 3), (3, 0)):
            with pytest.raises(ValueError):
                max_zero_sum_free_length(p, m)
