import pytest

from conftest import NoPower, Z, el, f3, full_nonzero, zmod, zset
from zerosum import char3, groups
from zerosum.char3 import (AdditiveQuadruple, ZeroSumList, audit_char3, chain_extract,
                           fp_basis, is_sidon, olson_bound, subgroup_closure, verify_quadruple)
from zerosum.errors import BudgetExceeded, NotSumFullError
from zerosum.extractor import extract, verify_certificate
from zerosum.groups import GroupSpec
from zerosum.gen import GenConfig, SplitMix64, random_set, random_sumfull_set
from zerosum.oracle import max_zero_sum_free_length, quadruple_oracle
from zerosum.sumfull import InputSet


def trivial_subgroup(spec):
    return subgroup_closure([], spec)


class TestSidon:
    def test_basis_is_sidon(self):
        F = f3(2)
        assert is_sidon([el(F, 1, 0), el(F, 0, 1)], F) is True

    def test_arithmetic_progression_is_not(self):
        verdict = is_sidon([el(Z, v) for v in (0, 1, 2, 3)], Z)
        assert isinstance(verdict, AdditiveQuadruple)
        # earliest collision under pair order: 0 + 2 = 1 + 1
        assert [groups.coords(x) for x in verdict.as_tuple()] == [[0], [2], [1], [1]]
        assert verify_quadruple(verdict, Z)

    def test_small_b2_set(self):
        # pair sums 2,3,4,6,7,10 are all distinct
        assert is_sidon([el(Z, v) for v in (1, 2, 5)], Z) is True

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            is_sidon([el(Z, 1), el(Z, 1)], Z)

    def test_agreement_with_oracle(self):
        rng = SplitMix64(17)
        for k in range(300):
            if k % 2:
                spec, bound = Z, 30
            else:
                spec, bound = f3(2 + k % 4), 0
            cfg = GenConfig(seed=rng.next_u64(), group=spec, mode="random_set",
                            count=1 + k % 30, bound=bound)
            b = list(random_set(cfg))
            assert is_sidon(b, spec) == quadruple_oracle(b, spec)


class TestSubgroupClosure:
    def test_empty_generators_give_trivial_subgroup(self):
        h = trivial_subgroup(zmod(5))
        assert h.realized == (groups.zero(zmod(5)),)

    def test_even_residues_mod_six(self):
        Z6 = zmod(6)
        h = subgroup_closure([el(Z6, 2)], Z6)
        assert h.realized == (el(Z6, 0), el(Z6, 2), el(Z6, 4))

    def test_diagonal_line_in_f3_squared(self):
        F = f3(2)
        h = subgroup_closure([el(F, 1, 1)], F)
        assert set(h.realized) == {el(F, 0, 0), el(F, 1, 1), el(F, 2, 2)}

    def test_trivial_subgroup_of_infinite_group(self):
        h = trivial_subgroup(Z)
        assert h.realized == (groups.zero(Z),)

    def test_nonzero_generators_need_finite_group(self):
        with pytest.raises(ValueError):
            subgroup_closure([el(Z, 1)], Z)

    def test_oversized_group_rejected(self):
        big = GroupSpec(0, (1009, 1009))
        with pytest.raises(BudgetExceeded):
            subgroup_closure([el(big, 1, 0)], big)

    def test_closure_is_a_subgroup(self):
        Z12 = zmod(12)
        h = subgroup_closure([el(Z12, 8), el(Z12, 6)], Z12)
        realized = set(h.realized)
        assert groups.zero(Z12) in realized
        for x in realized:
            assert groups.negate(x, Z12) in realized
            for y in realized:
                assert groups.add(x, y, Z12) in realized


class TestChainExtract:
    def test_full_mod_seven(self):
        a = full_nonzero(zmod(7))
        out = chain_extract(a, trivial_subgroup(zmod(7)))
        self._check(out, a)

    def test_zero_in_input_short_circuits(self):
        Z3 = zmod(3)
        a = InputSet.from_elements(Z3, [el(Z3, v) for v in (0, 1, 2)])
        out = chain_extract(a, trivial_subgroup(Z3))
        assert out == ZeroSumList((groups.zero(Z3),), True)

    def test_symmetric_integers(self):
        a = zset(-3, -2, -1, 1, 2, 3)
        out = chain_extract(a, trivial_subgroup(Z))
        self._check(out, a)

    def test_not_sum_full_rejected(self):
        with pytest.raises(NotSumFullError):
            chain_extract(zset(1, 2, 3), trivial_subgroup(Z))

    def test_input_inside_subgroup_rejected(self):
        Z6 = zmod(6)
        a = InputSet.from_elements(Z6, [el(Z6, 2), el(Z6, 4)])
        h = subgroup_closure([el(Z6, 2)], Z6)
        with pytest.raises(ValueError):
            chain_extract(a, h)

    def test_deterministic(self):
        a = full_nonzero(zmod(13))
        h = trivial_subgroup(zmod(13))
        assert chain_extract(a, h) == chain_extract(a, h)

    def test_proper_subgroup_with_outside_elements(self):
        Z8 = zmod(8)
        a = full_nonzero(Z8)
        h = subgroup_closure([el(Z8, 2)], Z8)
        out = chain_extract(a, h)
        self._check(out, a)

    def _check(self, out, a):
        if isinstance(out, ZeroSumList):
            assert out.elements
            assert groups.scalar_sum(out.elements, a.spec) == groups.zero(a.spec)
            assert out.distinct == (len(set(out.elements)) == len(out.elements))
            assert set(out.elements) <= set(a.elements)
        else:
            assert verify_quadruple(out, a.spec)
            assert set(out.as_tuple()) <= set(a.elements)


class TestOlsonBound:
    def test_elementary_cases(self):
        assert olson_bound(3, [1, 1]) == 4
        assert olson_bound(2, [1, 1, 1]) == 3

    def test_prime_power(self):
        assert olson_bound(3, [2]) == 8

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            olson_bound(6, [1])
        with pytest.raises(ValueError):
            olson_bound(3, [0])

    def test_caps(self):
        # the largest prime below the cap on p, and the largest exponent of 3 within the bit cap
        assert olson_bound(999_999_937, [1]) == 999_999_936
        assert olson_bound(3, [2048]) == 3**2048 - 1
        for p, invariants in ((10**9 + 7, [1]), (3, [2049]), (3, [3_000_000]), (3, [10**12])):
            with pytest.raises(BudgetExceeded):
                olson_bound(NoPower(p), invariants)

    def test_desk_scale_tightness(self):
        assert max_zero_sum_free_length(2, 2) == olson_bound(2, [1, 1]) == 2
        assert max_zero_sum_free_length(3, 2) == olson_bound(3, [1, 1]) == 4
        assert max_zero_sum_free_length(2, 3) == olson_bound(2, [1, 1, 1]) == 3


class TestFpBasis:
    def test_spanning_triple(self):
        assert fp_basis([(1, 0), (0, 1), (1, 1)], 3, 2) == (2, (0, 1))

    def test_zero_vector(self):
        assert fp_basis([(0,)], 3, 1) == (0, ())

    def test_parallel_vectors(self):
        assert fp_basis([(1,), (2,)], 3, 1) == (1, (0,))

    def test_basis_spans_same_subspace(self):
        rng = SplitMix64(4)
        for _ in range(200):
            dim = 1 + rng.below(4)
            vecs = [tuple(rng.below(3) for _ in range(dim)) for _ in range(rng.below(6) + 1)]
            rank, idx = fp_basis(vecs, 3, dim)
            assert len(idx) == rank
            sub_rank, _ = fp_basis([vecs[i] for i in idx], 3, dim)
            assert sub_rank == rank
            joint_rank, _ = fp_basis(list(vecs) + [vecs[i] for i in idx], 3, dim)
            assert joint_rank == rank


class TestAuditChar3:
    def test_full_f3_squared_fails_the_size_bound(self):
        a = full_nonzero(f3(2))
        report = audit_char3(a)
        assert report.size == 8
        assert report.failing_step == "olson_count"
        assert report.steps[0].detail == {"size": 8, "bound": 4, "rank": 2}
        assert report.zero_sum_indices is not None
        surfaced = [a.elements[k] for k in report.zero_sum_indices]
        assert groups.scalar_sum(surfaced, a.spec) == groups.zero(a.spec)

    def test_span_deficient_input_is_restricted(self):
        # a plane of F_3^3: the audit works inside the span
        F = f3(3)
        plane = [x for x in groups.all_elements(F)
                 if x.torsion[2] == 0 and x != groups.zero(F)]
        a = InputSet.from_elements(F, plane)
        report = audit_char3(a)
        assert report.restricted_to_span
        assert report.span_rank == 2
        assert report.failing_step == "olson_count"

    def test_non_ternary_group_rejected(self):
        with pytest.raises(ValueError):
            audit_char3(full_nonzero(zmod(5)))
        with pytest.raises(ValueError):
            audit_char3(zset(-1, 1, 0))

    def test_not_sum_full_rejected(self):
        F = f3(2)
        a = InputSet.from_elements(F, [el(F, 1, 0), el(F, 0, 1)])
        with pytest.raises(NotSumFullError):
            audit_char3(a)

    def test_failing_step_consistent_with_extractor(self):
        # whatever step fails, the pipeline certificate exists and verifies
        for d in (2, 3):
            a = full_nonzero(f3(d))
            report = audit_char3(a)
            assert report.failing_step
            cert = extract(a)
            assert verify_certificate(cert, a)

    def test_small_line_survives_size_bound(self):
        # {e1, 2e1} in F_3^2: sum-full (e1 = 2e1+2e1, 2e1 = e1+e1), n = 2 <= 2
        F = f3(2)
        a = InputSet.from_elements(F, [el(F, 1, 0), el(F, 2, 0)])
        report = audit_char3(a)
        assert report.steps[0].passed
        assert report.failing_step in ("complement_of_triple_generating",
                                       "complement_of_basis_generating")
        assert report.zero_sum_indices is not None
        surfaced = [a.elements[k] for k in report.zero_sum_indices]
        assert groups.scalar_sum(surfaced, a.spec) == groups.zero(a.spec)

    def test_sidon_triple_failure_surfaces_no_zero_from_a_zero_free_set(self, monkeypatch):
        # no sum-full input reaches this branch unpatched; zero membership is a
        # bisection, not a map of every element
        F = f3(2)
        a = InputSet.from_elements(F, [el(F, 1, 0), el(F, 2, 0)])
        quadruple = AdditiveQuadruple(el(F, 1, 0), el(F, 1, 0), el(F, 2, 0), el(F, 0, 0))

        def refuse(self):
            raise AssertionError("positions() built")

        monkeypatch.setattr(char3, "is_sidon", lambda triple, g: quadruple)
        monkeypatch.setattr(InputSet, "positions", refuse)
        report = audit_char3(a)
        assert report.failing_step == "sidon_triple"
        assert report.steps[-1].detail["quadruple"] == [[1, 0], [1, 0], [2, 0], [0, 0]]
        assert report.zero_sum_indices is None

    def test_audit_of_generated_inputs(self):
        rng = SplitMix64(11)
        audited = 0
        for _ in range(200):
            d = 1 + rng.below(3)
            inst = random_sumfull_set(
                GenConfig(seed=rng.next_u64(), group=f3(d), mode="prune_closure",
                          count=3 + rng.below(10), bound=0))
            if inst is None:
                continue
            report = audit_char3(inst)
            assert report.failing_step
            if report.zero_sum_indices is not None:
                surfaced = [inst.elements[k] for k in report.zero_sum_indices]
                assert groups.scalar_sum(surfaced, inst.spec) == groups.zero(inst.spec)
            audited += 1
        assert audited > 20
