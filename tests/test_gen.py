import pytest

from conftest import Z, el, f3, zmod
from zerosum import gen, groups
from zerosum.errors import BudgetExceeded
from zerosum.gen import (GEN_MAX_COUNT, GenConfig, SplitMix64, prune_to_sumfull, random_matrix,
                         random_set, random_sumfull_set)
from zerosum.groups import GroupSpec
from zerosum.sumfull import check_sum_full, least_pairs, verify_table
from zerosum.witness import validate_membership

Z2 = GroupSpec(2, ())


def test_splitmix_reference_values():
    # first outputs for seed 0; pinned so the stream never drifts
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535, 7960286522194355700, 487617019471545679]


def test_order_one_matrix_is_forced():
    assert random_matrix(1, 0).tolist() == [[1]]
    assert random_matrix(1, 12345).tolist() == [[1]]


def test_same_seed_same_matrix():
    assert random_matrix(5, 42) == random_matrix(5, 42)
    assert random_matrix(5, 42) != random_matrix(5, 43)


def test_draws_are_class_valid():
    # 10^5 draws at n = 50 all pass validation
    for seed in range(100_000):
        validate_membership(random_matrix(50, seed).entries)


def test_count_cap_is_checked_before_drawing():
    assert GenConfig(seed=0, group=Z, mode="random_set", count=GEN_MAX_COUNT).count == GEN_MAX_COUNT
    with pytest.raises(BudgetExceeded):
        GenConfig(seed=0, group=Z, mode="random_set", count=GEN_MAX_COUNT + 1)


def test_coordinate_cap_is_checked_before_drawing(monkeypatch):
    # count * (free_rank + len(torsion)) coordinates; the cap is patched down to 60
    monkeypatch.setattr(gen, "GEN_MAX_COORDS", 60)
    assert GenConfig(seed=0, group=GroupSpec(3, ()), mode="random_set", count=20).count == 20
    assert GenConfig(seed=0, group=GroupSpec(1, (3, 3)), mode="random_set", count=20).count == 20
    for group, count in ((GroupSpec(3, ()), 21), (GroupSpec(2, (5, 5)), 16), (GroupSpec(61, ()), 1)):
        with pytest.raises(BudgetExceeded):
            GenConfig(seed=0, group=group, mode="random_set", count=count)


def test_random_set_deterministic_and_canonical():
    cfg = GenConfig(seed=9, group=f3(2), mode="random_set", count=12, bound=0)
    a = random_set(cfg)
    assert a == random_set(cfg)
    assert a == groups.canonical_elements(a)


def test_full_nonzero_mod_seven():
    inst = random_sumfull_set(GenConfig(seed=0, group=zmod(7), mode="full_nonzero"))
    assert inst is not None
    assert [groups.coords(x) for x in inst.elements] == [[1], [2], [3], [4], [5], [6]]
    assert verify_table(inst, check_sum_full(inst))


def test_full_nonzero_too_small_group_is_none():
    assert random_sumfull_set(GenConfig(seed=0, group=zmod(2), mode="full_nonzero")) is None


def test_full_nonzero_infinite_group_rejected():
    with pytest.raises(ValueError):
        random_sumfull_set(GenConfig(seed=0, group=Z, mode="full_nonzero"))


def test_prune_cascade_gives_none():
    # element 1 is unrepresentable; its removal cascades to the empty set
    survivors = prune_to_sumfull(Z, tuple(el(Z, v) for v in (1, 2, 3)))
    assert survivors == ()


def test_prune_fixpoints_are_sum_full():
    for group, bound in ((Z, 50), (Z2, 4), (f3(4), 0)):
        produced = 0
        for seed in range(1000):
            cfg = GenConfig(seed=seed, group=group, mode="prune_closure", count=20, bound=bound)
            inst = random_sumfull_set(cfg)
            if inst is None:
                continue
            assert verify_table(inst, check_sum_full(inst))
            produced += 1
        assert produced > 10, group


def _prune_one_at_a_time(spec, elements, reverse):
    # order-sensitive reference pruning: delete one unrepresentable element at a time
    cur = list(elements)
    while True:
        pos = {x: i for i, x in enumerate(cur)}
        doomed = None
        indices = range(len(cur) - 1, -1, -1) if reverse else range(len(cur))
        for k in indices:
            target = cur[k]
            if not any(
                pos.get(groups.sub(target, x, spec)) not in (None, k)
                for i, x in enumerate(cur) if i != k
            ):
                doomed = k
                break
        if doomed is None:
            return tuple(cur)
        del cur[doomed]


def test_prune_fixpoint_is_order_independent():
    for group, bound in ((Z, 12), (Z2, 2), (f3(4), 0)):
        rng = SplitMix64(31)
        for _ in range(1000):
            cfg = GenConfig(seed=rng.next_u64(), group=group, mode="random_set",
                            count=1 + rng.below(14), bound=bound)
            els = random_set(cfg)
            batch = prune_to_sumfull(group, els)
            assert batch == _prune_one_at_a_time(group, els, reverse=False)
            assert batch == _prune_one_at_a_time(group, els, reverse=True)


def _largest_sum_full_by_brute_force(spec, elements):
    # every subset as a bitmask; a subset is sum-full when each member x has a
    # pair y + z = x, both different from x, inside it
    n = len(elements)
    pos = {x: k for k, x in enumerate(elements)}
    pair_masks = [[] for _ in range(n)]
    for k, x in enumerate(elements):
        for i, y in enumerate(elements):
            j = pos.get(groups.sub(x, y, spec))
            if i != k and j is not None and j != k:
                pair_masks[k].append((1 << i) | (1 << j))
    best = []
    for mask in range(1 << n):
        members = [k for k in range(n) if mask >> k & 1]
        if all(any(p & mask == p for p in pair_masks[k]) for k in members):
            if not best or len(members) > len(best[0]):
                best = [members]
            elif len(members) == len(best[0]):
                best.append(members)
    assert len(best) == 1  # the largest sum-full subset is unique
    return tuple(elements[k] for k in best[0])


def _prune_by_rounds(spec, elements):
    # the round-based fixpoint: drop every element without a pair, until none is dropped
    cur = elements
    while True:
        keep = tuple(x for x, pair in zip(cur, least_pairs(spec, cur)) if pair is not None)
        if keep == cur:
            return cur
        cur = keep


def test_prune_is_the_largest_sum_full_subset():
    # 400 draws of 3 to 10 elements; each group has draws that the prune empties,
    # shrinks, and keeps nonempty
    for group, bound in ((Z, 4), (zmod(9), 0), (f3(2), 0), (GroupSpec(1, (2,)), 2)):
        rng = SplitMix64(77)
        shrunk = kept = 0
        for _ in range(100):
            cfg = GenConfig(seed=rng.next_u64(), group=group, mode="random_set",
                            count=3 + rng.below(8), bound=bound)
            els = random_set(cfg)
            survivors = prune_to_sumfull(group, els)
            assert survivors == _largest_sum_full_by_brute_force(group, els)
            assert survivors == _prune_by_rounds(group, els)
            shrunk += 0 < len(survivors) < len(els)
            kept += len(survivors) > 0
        assert shrunk >= 3 and 10 <= kept < 100, group


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=0, group=Z, mode="nonsense")
    with pytest.raises(ValueError):
        GenConfig(seed=0, group=Z, mode="random_set", count=0)
    with pytest.raises(ValueError):
        random_sumfull_set(GenConfig(seed=0, group=Z, mode="random_set"))
