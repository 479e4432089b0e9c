import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from zerosum.errors import BudgetExceeded, MatrixClassError
from zerosum.gen import random_matrix
from zerosum.oracle import count_class, enumerate_class
from zerosum.witness import (ConstraintMatrix, all_witnesses, find_witness, find_witness_pairs,
                             validate_membership, verify_witness)


def test_validate_accepts_m1():
    assert validate_membership([[1]]).tolist() == [[1]]


def test_validate_rejects_row_sum():
    with pytest.raises(MatrixClassError) as info:
        validate_membership([[-1, 1], [1, -1]])
    assert "row sum" in str(info.value)
    assert info.value.row == 0


def test_validate_accepts_accumulated_row():
    validate_membership([[-1, 2], [0, 1]])


def test_validate_rejects_low_diagonal_and_negative_offdiag():
    with pytest.raises(MatrixClassError):
        validate_membership([[-2, 3], [0, 1]])
    with pytest.raises(MatrixClassError):
        validate_membership([[2, -1], [0, 1]])
    with pytest.raises(MatrixClassError):
        validate_membership([[1, 0], [1]])


def test_find_witness_m1():
    m = validate_membership([[1]])
    assert find_witness(m).rows == (0,)
    assert find_witness(m).vector == (1,)


def test_find_witness_all_rows_case():
    m = validate_membership([[-1, 1, 1], [1, -1, 1], [1, 1, -1]])
    w = find_witness(m)
    assert w.rows == (0, 1, 2)
    assert w.vector == (1, 1, 1)


def test_find_witness_merge_case():
    # column 0 off-diagonal sum is 1; exercises the merge reduction with the
    # carrier row joining the subset on unwind
    m = validate_membership([[-1, 1, 1], [1, -1, 1], [0, 2, -1]])
    w = find_witness(m)
    assert w.rows == (1, 2)
    assert w.vector == (1, 1, 0)
    # brute force over all 7 nonempty subsets confirms {1,2} is valid
    assert any(x.rows == (1, 2) for x in all_witnesses(m))


def test_find_witness_double_entry_case():
    m = validate_membership([[-1, 2, 0], [0, -1, 2], [2, 0, -1]])
    w = find_witness(m)
    assert w.rows == (0, 1, 2)
    assert w.vector == (1, 1, 1)


def test_verify_witness_examples():
    m = validate_membership([[1]])
    assert verify_witness(m, find_witness(m))
    m3 = validate_membership([[-1, 1, 1], [1, -1, 1], [1, 1, -1]])
    from zerosum.witness import WitnessSubset
    assert not verify_witness(m3, WitnessSubset((0, 1), (0, 0, 2)))
    assert not verify_witness(m3, WitnessSubset((), ()))
    assert not verify_witness(m3, WitnessSubset((0, 0), (0, 0, 2)))


def test_all_witnesses_examples():
    assert [w.rows for w in all_witnesses(validate_membership([[1]]))] == [(0,)]
    assert [w.rows for w in all_witnesses(validate_membership([[0, 1], [1, 0]]))] == [
        (0,), (1,), (0, 1)]
    assert [w.rows for w in all_witnesses(validate_membership([[-1, 2], [2, -1]]))] == [(0, 1)]


def test_all_witnesses_size_guard():
    with pytest.raises(BudgetExceeded):
        all_witnesses(random_matrix(26, 0))


def test_exhaustive_agreement_small_orders():
    # every class member at n <= 3 yields a witness listed by the enumeration oracle
    for n in (1, 2, 3):
        for m in enumerate_class(n):
            w = find_witness(m)
            assert verify_witness(m, w)
            assert w.rows in [x.rows for x in all_witnesses(m)]


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**63))
def test_random_matrices_always_witnessed(n, seed):
    m = random_matrix(n, seed)
    assert verify_witness(m, find_witness(m))


def test_self_consistency_fuzz_100k():
    from zerosum.gen import SplitMix64

    rng = SplitMix64(1)
    for k in range(100_000):
        m = random_matrix(1 + k % 24, rng.next_u64())
        assert verify_witness(m, find_witness(m))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=4, max_value=5), st.integers(min_value=0, max_value=2**63))
def test_sampled_agreement_n4_n5(n, seed):
    m = random_matrix(n, seed)
    w = find_witness(m)
    assert w.rows in [x.rows for x in all_witnesses(m)]


def test_recursion_stays_inside_class():
    # every reduced matrix the algorithm works on is itself a class member
    collected = []

    def trace(entries, idx):
        collected.append((entries.copy(), idx.copy()))

    checked = 0
    for n in (3, 4):
        for m in enumerate_class(n):
            collected.clear()
            find_witness(m, trace=trace)
            for entries, idx in collected:
                validate_membership(entries)
                assert len(idx) == entries.shape[0]
                checked += 1
    assert checked > 0


def test_deep_recursion_cycle_matrix():
    # representation-style matrix with all diagonals -1 forces repeated reductions
    n = 80
    a = np.zeros((n, n), dtype=np.int64)
    for k in range(n):
        a[k, k] = -1
        a[k, (k + 1) % n] += 1
        a[k, (k + 2) % n] += 1
    m = validate_membership(a)
    assert verify_witness(m, find_witness(m))


def test_all_negative_diagonal_fuzz():
    # matrices built from random representation pairs never hit the unit-row
    # shortcut, so the column reductions carry the whole construction
    from zerosum.extractor import build_matrix
    from zerosum.gen import SplitMix64
    from zerosum.sumfull import RepresentationTable

    rng = SplitMix64(777)

    def random_table(n):
        reps = []
        for k in range(n):
            while True:
                i, j = rng.below(n), rng.below(n)
                if i != k and j != k:
                    reps.append((min(i, j), max(i, j)))
                    break
        return RepresentationTable(tuple(reps))

    collected = []
    for trial in range(4000):
        n = 3 + rng.below(38)
        m = build_matrix(random_table(n))
        validate_membership(m.entries)
        if trial % 100 == 0:
            collected.clear()
            w = find_witness(m, trace=lambda entries, idx: collected.append(entries.copy()))
            for entries in collected:
                validate_membership(entries)
        else:
            w = find_witness(m)
        assert verify_witness(m, w)
        assert find_witness_pairs(m.pairs()) == w


def _densify(rows, pairs):
    pos = {r: k for k, r in enumerate(rows)}
    a = -np.eye(len(rows), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        a[k, pos[i]] += 1
        a[k, pos[j]] += 1
    return a


def test_pairs_reads_back_the_table():
    m = validate_membership([[-1, 2, 0], [1, 0, 0], [0, 1, 0]])
    assert m.pairs() == [(1, 1), (0, 1), (1, 2)]
    for n in (1, 6, 40):
        for seed in range(20):
            m = random_matrix(n, seed)
            assert np.array_equal(_densify(range(n), m.pairs()), m.entries)


def test_pair_reduction_matches_dense_on_small_orders():
    # the same witness, and the same reduced matrices in the same order, as the
    # dense reduction; every reduced state is a class member
    checked = 0
    for n in (1, 2, 3, 4):
        for m in enumerate_class(n):
            dense, pair = [], []
            w = find_witness(m, trace=lambda entries, idx: dense.append((entries.copy(), idx.tolist())))
            assert find_witness_pairs(m.pairs(), trace=lambda *state: pair.append(state)) == w
            assert len(pair) == len(dense)
            for (rows, pairs), (entries, idx) in zip(pair, dense):
                assert list(rows) == idx
                reduced = _densify(rows, pairs)
                validate_membership(reduced)
                assert np.array_equal(reduced, entries)
                checked += 1
    assert checked > 0


def test_pair_reduction_matches_dense_on_random_matrices():
    for n in (7, 40, 200):
        for seed in range(30):
            m = random_matrix(n, seed)
            assert find_witness_pairs(m.pairs()) == find_witness(m)


def test_pair_reduction_matches_dense_on_a_wide_interval():
    # the table of [-1000, 1000] \ {0} in Z: the dense reduction of its order-2000
    # matrix is the slowest input known, about 10 s on a 2-core box
    from zerosum.extractor import build_matrix
    from zerosum.formats import instance_from_json
    from zerosum.sumfull import check_sum_full

    a = instance_from_json({"group": {"free_rank": 1, "torsion": []},
                            "elements": [[v] for v in range(-1000, 1001) if v]})
    t = check_sum_full(a)
    assert find_witness_pairs(t.reps) == find_witness(build_matrix(t))


def test_pair_reduction_refuses_a_non_class_matrix():
    bad = ConstraintMatrix.from_rows([[-1, 3, 0], [0, -1, 1], [1, 1, -1]])
    with pytest.raises(MatrixClassError):
        bad.pairs()


def test_small_order_witnesses_are_shared():
    # equal witnesses up to SHARED_WITNESS_MAX_N are one object, from either
    # reduction; above it each call builds its own
    from zerosum.witness import SHARED_WITNESS_MAX_N

    by_value = {}
    for m in enumerate_class(3):
        for w in (find_witness(m), find_witness_pairs(m.pairs())):
            assert by_value.setdefault(w, w) is w
    assert 1 < len(by_value) < 4**3
    n = SHARED_WITNESS_MAX_N + 1
    m = random_matrix(n, 0)
    first, again = find_witness(m), find_witness(m)
    assert first == again and first is not again


def test_count_class_formula():
    assert [count_class(n) for n in (1, 2, 3, 4, 5)] == [1, 9, 216, 10_000, 759_375]


def test_only_witness_imports_numpy():
    # the storage of a class matrix is witness.py's decision alone
    package = Path(__file__).resolve().parents[1] / "src" / "zerosum"
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"witness.py"}
