import dataclasses
import io
import json

import pytest

from conftest import el, full_nonzero, zmod, zset
from zerosum import cli, formats, groups
from zerosum.errors import NotSumFullError
from zerosum.extractor import build_matrix, extract, support, verify_certificate, witness_holds
from zerosum.gen import GenConfig, SplitMix64, random_sumfull_set
from zerosum.oracle import brute_force_zero_sum
from zerosum.sumfull import InputSet, RepresentationTable, check_sum_full
from zerosum.witness import WitnessSubset, verify_witness
from test_golden import _instances as golden_instances


def test_build_matrix_distinct_indices():
    t = RepresentationTable(((1, 2), (0, 2), (0, 1)))
    assert build_matrix(t).tolist() == [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]


def test_build_matrix_accumulates_equal_summands():
    t = RepresentationTable(((1, 1), (0, 2), (0, 1)))
    assert build_matrix(t).tolist()[0] == [-1, 2, 0]


def test_rows_orthogonal_to_element_vector():
    # a_i + a_j - a_k = 0 per row, on generated sum-full instances
    rng = SplitMix64(5)
    checked = 0
    for _ in range(1000):
        m = 5 + rng.below(40)
        inst = random_sumfull_set(GenConfig(seed=rng.next_u64(), group=zmod(m), mode="full_nonzero"))
        if inst is None:
            continue
        t = check_sum_full(inst)
        for k, (i, j) in enumerate(t.reps):
            lhs = groups.add(inst.elements[i], inst.elements[j], inst.spec)
            assert groups.sub(lhs, inst.elements[k], inst.spec) == groups.zero(inst.spec)
        checked += 1
    assert checked == 1000


def test_extract_symmetric_integers():
    a = zset(-3, -2, -1, 1, 2, 3)
    cert = extract(a)
    assert cert.subset
    assert verify_certificate(cert, a)
    # existence is independently confirmed by the oracle
    assert brute_force_zero_sum(a) is not None


def test_extract_mod_seven():
    a = full_nonzero(zmod(7))
    cert = extract(a)
    assert verify_certificate(cert, a)
    assert groups.scalar_sum([a.elements[k] for k in cert.subset], a.spec) == groups.zero(a.spec)
    assert brute_force_zero_sum(a) is not None


def test_extract_zero_short_circuit():
    a = zset(0, 5)
    cert = extract(a)
    assert cert.subset == (0,)
    assert cert.trail is None
    assert verify_certificate(cert, a)
    b = InputSet.from_elements(zmod(9), [el(zmod(9), 0), el(zmod(9), 4)])
    cert_b = extract(b)
    assert cert_b.subset == (0,)
    assert verify_certificate(cert_b, b)


def test_extract_not_sum_full_passthrough():
    with pytest.raises(NotSumFullError) as exc:
        extract(zset(1, 2, 3))
    assert exc.value.witness_index == 0


def test_extract_deterministic():
    a = full_nonzero(zmod(11))
    assert extract(a) == extract(a)


def test_verify_rejects_dropped_index():
    # zero is not in the set, so the subset has >= 2 indices and dropping one
    # breaks the sum
    a = zset(-2, -1, 1, 2)
    cert = extract(a)
    assert verify_certificate(cert, a)
    assert len(cert.subset) > 1
    tampered = dataclasses.replace(cert, subset=cert.subset[1:])
    assert not verify_certificate(tampered, a)


def _verify_reply(payload: dict) -> tuple[int, dict]:
    out = io.StringIO()
    code = cli.dispatch(["verify", "--input", "-"], stdin=io.StringIO(json.dumps(payload)),
                        stdout=out, stderr=io.StringIO())
    return code, json.loads(out.getvalue())


def _legacy_certificate(a: InputSet) -> dict:
    """A certificate as the retired format 1 wrote it, with the class matrix embedded."""
    cert = extract(a)
    payload = formats.certificate_to_json(a, cert)
    payload["format"] = 1
    payload["trail"]["matrix"] = build_matrix(cert.trail.table).tolist()
    return payload


def test_verify_refuses_format_1():
    payload = _legacy_certificate(full_nonzero(zmod(7)))
    assert _verify_reply(payload) == (1, {"format": 1, "valid": False})


def test_verify_accepts_legacy_matrix():
    # a format-1 certificate upgrades by dropping its matrix: its reps and
    # witness are accepted as format 2 (the reply's own "format" stays 1)
    payload = _legacy_certificate(full_nonzero(zmod(7)))
    del payload["trail"]["matrix"]
    payload["format"] = 2
    assert _verify_reply(payload) == (0, {"format": 1, "valid": True})


def test_verify_rejects_flipped_matrix_sign():
    payload = _legacy_certificate(full_nonzero(zmod(7)))
    payload["trail"]["matrix"][0][0] = -payload["trail"]["matrix"][0][0]
    assert _verify_reply(payload) == (1, {"format": 1, "valid": False})


def test_verify_rejects_foreign_subset():
    a = zset(-2, -1, 1, 2)
    cert = extract(a)
    tampered = dataclasses.replace(cert, subset=(0,))
    assert not verify_certificate(tampered, a)


def test_extract_self_consistency_bulk():
    rng = SplitMix64(99)
    done = 0
    while done < 1000:
        m = 5 + rng.below(60)
        inst = random_sumfull_set(GenConfig(seed=rng.next_u64(), group=zmod(m), mode="full_nonzero"))
        if inst is None:
            continue
        cert = extract(inst)
        assert verify_certificate(cert, inst)
        assert cert.subset == support(cert.trail.witness.vector)
        done += 1


def _tampered(w: WitnessSubset, n: int, other_rows: tuple[int, ...]):
    rows, vector = w.rows, w.vector
    added = min(set(range(n)) - set(rows), default=None)
    flipped = (1 - vector[0],) + vector[1:]
    yield w
    yield WitnessSubset(rows[1:], vector)
    if added is not None:
        yield WitnessSubset(tuple(sorted(rows + (added,))), vector)
    yield WitnessSubset(rows, flipped)
    yield WitnessSubset(other_rows, vector)


def test_witness_holds_agrees_with_the_dense_check():
    # on every golden certificate and on tampered witnesses; each row set is
    # also tried with the vector the dense matrix gives it, so both verdicts occur
    verdicts = set()
    other_rows = (0,)
    for inst in golden_instances():
        trail = extract(inst).trail
        if trail is None:
            continue
        t, w = trail.table, trail.witness
        m = build_matrix(t)
        dense_rows = m.tolist()
        for bad in _tampered(w, len(t.reps), other_rows):
            candidates = [bad]
            if bad.rows and all(0 <= r < len(t.reps) for r in bad.rows):
                row_sum = tuple(map(sum, zip(*(dense_rows[r] for r in bad.rows))))
                candidates.append(WitnessSubset(bad.rows, row_sum))
            for cand in candidates:
                verdict = witness_holds(t, cand)
                assert verdict == verify_witness(m, cand), (t, cand)
                verdicts.add(verdict)
        assert witness_holds(t, w)
        other_rows = w.rows
    assert verdicts == {True, False}
