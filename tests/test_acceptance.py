"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 7 re-executes the
other six with the same fixed seeds and compares their canonical JSON digests
byte for byte, so this module is intentionally self-contained and the
criterion bodies are plain deterministic functions.
"""
import hashlib
import time

from zerosum import groups
from zerosum.char3 import (ZeroSumList, chain_extract, is_sidon, olson_bound,
                           subgroup_closure, verify_quadruple)
from zerosum.extractor import extract, verify_certificate
from zerosum.formats import certificate_to_json, dumps_canonical
from zerosum.gen import GenConfig, random_pairs, random_set, random_sumfull_set
from zerosum.groups import GroupSpec
from zerosum.oracle import (brute_force_zero_sum, class_tables,
                            max_zero_sum_free_length, quadruple_oracle)
from zerosum.witness import find_witness_pairs, witness_holds

_DIGESTS: dict[str, str] = {}

# The canonical digest of each criterion, pinned so that a change to the
# reduction, the extractor or the generators that alters any output fails here.
C1_WITNESSES_SHA256 = "844b679f80511cb8d1eacfc443a372d47fa668d4460667665831f1c53642daa8"
C2_CERTIFICATES_SHA256 = "9af23a448791ebfe72d4698619422c0feedc3f266163132dbe382f676b9f8ef9"
C4_OUTCOMES_SHA256 = "866dc36b1f4391dffec1c62e0d46310412cf8dfbafaae1eaaceeb18238a6cbbb"
C5_VERDICTS_SHA256 = "3f93cc66b42a6e4ef461120839d26bbdd83e403baf2cf4cea483b4fdf7594716"
C6_WITNESSES_SHA256 = "acc1a4b4a0362eac8e327ae965b932d83195a67a7262356a5aed0aaf6cf48189"


def _sha(lines_hasher: "hashlib._Hash") -> str:
    return lines_hasher.hexdigest()


def _witness_json(w) -> bytes:
    return dumps_canonical({"rows": list(w.rows), "vector": list(w.vector)}).encode()


def _primes(limit: int) -> list[int]:
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i, prime in enumerate(sieve) if prime]


def _report(name: str, ok: bool, elapsed: float, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s; {detail})")


# --- criterion 1: exhaustive witness construction over the whole class, n <= 5

EXPECTED_COUNTS = {1: 1, 2: 9, 3: 216, 4: 10_000, 5: 759_375}


def criterion_1() -> dict:
    counts = {}
    failures = 0
    hasher = hashlib.sha256()
    for n in range(1, 6):
        total = 0
        for pairs in class_tables(n):
            total += 1
            w = find_witness_pairs(pairs)
            if not witness_holds(pairs, w):
                failures += 1
            hasher.update(_witness_json(w))
        counts[n] = total
    return {"counts": counts, "failures": failures, "witnesses_sha256": _sha(hasher)}


def test_criterion_1_exhaustive_small_orders():
    t0 = time.perf_counter()
    digest = criterion_1()
    elapsed = time.perf_counter() - t0
    _DIGESTS["c1"] = dumps_canonical(digest)
    ok = digest["counts"] == EXPECTED_COUNTS and digest["failures"] == 0 and elapsed < 120
    _report("criterion 1 (exhaustive n<=5)", ok,
            elapsed, f"{sum(digest['counts'].values())} matrices, {digest['failures']} failures")
    assert digest["counts"] == EXPECTED_COUNTS
    assert digest["failures"] == 0
    assert digest["witnesses_sha256"] == C1_WITNESSES_SHA256
    assert elapsed < 120


# --- criterion 2: 1000 end-to-end extractions with independent confirmation

def _criterion_2_specs() -> list[GroupSpec]:
    specs = [GroupSpec(0, (m,)) for m in range(5, 65)]
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        d = 2
        while p**d <= 729:
            specs.append(GroupSpec(0, (p,) * d))
            d += 1
    specs.extend(GroupSpec(0, (p,)) for p in _primes(729) if p >= 5)
    return specs


def criterion_2() -> dict:
    hasher = hashlib.sha256()
    instances = failures = confirmed = 0
    for spec in _criterion_2_specs():
        inst = random_sumfull_set(GenConfig(seed=0, group=spec, mode="full_nonzero"))
        assert inst is not None
        cert = extract(inst)
        if not verify_certificate(cert, inst):
            failures += 1
            continue
        if len(inst.elements) <= 20:
            if brute_force_zero_sum(inst) is None:
                failures += 1
            else:
                confirmed += 1
        hasher.update(dumps_canonical(certificate_to_json(inst, cert)).encode())
        instances += 1
    seed = 0
    while instances < 1000:
        inst = random_sumfull_set(GenConfig(seed=seed, group=GroupSpec(1, ()),
                                            mode="prune_closure", count=20, bound=50))
        seed += 1
        if inst is None:
            continue
        cert = extract(inst)
        if not verify_certificate(cert, inst):
            failures += 1
            continue
        if brute_force_zero_sum(inst) is None:
            failures += 1
            continue
        confirmed += 1
        hasher.update(dumps_canonical(certificate_to_json(inst, cert)).encode())
        instances += 1
    return {"instances": instances, "failures": failures, "oracle_confirmed": confirmed,
            "certificates_sha256": _sha(hasher)}


def test_criterion_2_end_to_end():
    t0 = time.perf_counter()
    digest = criterion_2()
    elapsed = time.perf_counter() - t0
    _DIGESTS["c2"] = dumps_canonical(digest)
    ok = digest["instances"] == 1000 and digest["failures"] == 0 and elapsed < 60
    _report("criterion 2 (1000 extractions)", ok, elapsed,
            f"{digest['instances']} instances, {digest['oracle_confirmed']} oracle-confirmed, "
            f"{digest['failures']} failures")
    assert digest["instances"] == 1000
    assert digest["failures"] == 0
    assert digest["certificates_sha256"] == C2_CERTIFICATES_SHA256
    assert elapsed < 60


# --- criterion 3: exhaustive tightness of the sequence-length bound

def criterion_3() -> dict:
    cases = {}
    for p, m in ((2, 2), (3, 2), (2, 3)):
        cases[f"{p}^{m}"] = {
            "exhaustive": max_zero_sum_free_length(p, m),
            "bound": olson_bound(p, [1] * m),
        }
    return {"cases": cases}


def test_criterion_3_olson_tightness():
    t0 = time.perf_counter()
    digest = criterion_3()
    elapsed = time.perf_counter() - t0
    _DIGESTS["c3"] = dumps_canonical(digest)
    expected = {"2^2": 2, "3^2": 4, "2^3": 3}
    ok = all(v["exhaustive"] == v["bound"] == expected[k] for k, v in digest["cases"].items())
    _report("criterion 3 (bound tightness)", ok and elapsed < 10, elapsed,
            str({k: v["exhaustive"] for k, v in digest["cases"].items()}))
    for key, value in digest["cases"].items():
        assert value["exhaustive"] == value["bound"] == expected[key]
    assert elapsed < 10


# --- criterion 4: chain outcomes on 500 generating sum-full sets

def _criterion_4_specs() -> list[GroupSpec]:
    specs = [GroupSpec(0, (m,)) for m in range(5, 105)]
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        d = 2
        while p**d <= 729:
            specs.append(GroupSpec(0, (p,) * d))
            d += 1
    for m1 in range(2, 11):
        for m2 in range(m1, 121):
            if m1 * m2 <= 120:
                specs.append(GroupSpec(0, (m1, m2)))
    specs.extend(GroupSpec(0, (2, 2, k)) for k in range(2, 26))
    m = 105
    while len(specs) < 500:
        specs.append(GroupSpec(0, (m,)))
        m += 1
    return specs[:500]


def criterion_4() -> dict:
    hasher = hashlib.sha256()
    outcomes = {"zero_sum_list": 0, "quadruple": 0}
    failures = 0
    for spec in _criterion_4_specs():
        inst = random_sumfull_set(GenConfig(seed=0, group=spec, mode="full_nonzero"))
        assert inst is not None
        out = chain_extract(inst, subgroup_closure([], spec))
        if isinstance(out, ZeroSumList):
            valid = (bool(out.elements)
                     and groups.scalar_sum(out.elements, spec) == groups.zero(spec)
                     and out.distinct == (len(set(out.elements)) == len(out.elements)))
            outcomes["zero_sum_list"] += 1
            payload = {"kind": "list", "elements": [groups.coords(x) for x in out.elements]}
        else:
            valid = verify_quadruple(out, spec)
            outcomes["quadruple"] += 1
            payload = {"kind": "quad", "elements": [groups.coords(x) for x in out.as_tuple()]}
        if not valid:
            failures += 1
        hasher.update(dumps_canonical(payload).encode())
    return {"outcomes": outcomes, "failures": failures, "outcomes_sha256": _sha(hasher)}


def test_criterion_4_chain_outcomes():
    t0 = time.perf_counter()
    digest = criterion_4()
    elapsed = time.perf_counter() - t0
    _DIGESTS["c4"] = dumps_canonical(digest)
    total = sum(digest["outcomes"].values())
    ok = total == 500 and digest["failures"] == 0 and elapsed < 30
    _report("criterion 4 (chain outcomes)", ok, elapsed,
            f"{digest['outcomes']}, {digest['failures']} failures")
    assert total == 500
    assert digest["failures"] == 0
    assert digest["outcomes_sha256"] == C4_OUTCOMES_SHA256
    assert elapsed < 30


# --- criterion 5: Sidon checker against the independent oracle

def criterion_5() -> dict:
    hasher = hashlib.sha256()
    disagreements = 0
    verdicts = {"sidon": 0, "quadruple": 0}
    for k in range(500):
        cfg = GenConfig(seed=k, group=GroupSpec(1, ()), mode="random_set",
                        count=(k % 30) + 1, bound=40 if k % 2 else 400)
        b = list(random_set(cfg))
        r1, r2 = is_sidon(b, cfg.group), quadruple_oracle(b, cfg.group)
        if r1 != r2:
            disagreements += 1
        verdicts["sidon" if r1 is True else "quadruple"] += 1
        hasher.update(b"T" if r1 is True else dumps_canonical(
            [groups.coords(x) for x in r1.as_tuple()]).encode())
    for k in range(500):
        spec = GroupSpec(0, (3,) * (2 + k % 5))
        cfg = GenConfig(seed=1000 + k, group=spec, mode="random_set",
                        count=(k % 30) + 1, bound=0)
        b = list(random_set(cfg))
        r1, r2 = is_sidon(b, spec), quadruple_oracle(b, spec)
        if r1 != r2:
            disagreements += 1
        verdicts["sidon" if r1 is True else "quadruple"] += 1
        hasher.update(b"T" if r1 is True else dumps_canonical(
            [groups.coords(x) for x in r1.as_tuple()]).encode())
    return {"disagreements": disagreements, "verdicts": verdicts,
            "verdicts_sha256": _sha(hasher)}


def test_criterion_5_sidon_agreement():
    t0 = time.perf_counter()
    digest = criterion_5()
    elapsed = time.perf_counter() - t0
    _DIGESTS["c5"] = dumps_canonical(digest)
    ok = digest["disagreements"] == 0
    _report("criterion 5 (Sidon agreement)", ok, elapsed,
            f"1000 sets, verdicts {digest['verdicts']}, {digest['disagreements']} disagreements")
    assert digest["disagreements"] == 0
    assert digest["verdicts_sha256"] == C5_VERDICTS_SHA256


# --- criterion 6: witness construction at scale

def criterion_6() -> dict:
    hasher = hashlib.sha256()
    failures = 0
    for seed in range(10_000):
        pairs = random_pairs(200, seed)
        w = find_witness_pairs(pairs)
        if not witness_holds(pairs, w):
            failures += 1
        hasher.update(_witness_json(w))
    for seed in range(10):
        pairs = random_pairs(1000, seed)
        w = find_witness_pairs(pairs)
        if not witness_holds(pairs, w):
            failures += 1
        hasher.update(_witness_json(w))
    return {"failures": failures, "witnesses_sha256": _sha(hasher)}


def test_criterion_6_scale_fuzz():
    t0 = time.perf_counter()
    digest = criterion_6()
    elapsed = time.perf_counter() - t0
    _DIGESTS["c6"] = dumps_canonical(digest)
    ok = digest["failures"] == 0 and elapsed < 60
    _report("criterion 6 (scale fuzz)", ok, elapsed,
            f"10000 x n=200 + 10 x n=1000, {digest['failures']} failures")
    assert digest["failures"] == 0
    assert digest["witnesses_sha256"] == C6_WITNESSES_SHA256
    assert elapsed < 60


# --- criterion 7: byte-identical reruns

def test_criterion_7_determinism():
    t0 = time.perf_counter()
    reruns = {
        "c1": criterion_1,
        "c2": criterion_2,
        "c3": criterion_3,
        "c4": criterion_4,
        "c5": criterion_5,
        "c6": criterion_6,
    }
    mismatches = []
    for key, fn in reruns.items():
        fresh = dumps_canonical(fn())
        first = _DIGESTS.get(key) or dumps_canonical(fn())
        if fresh != first:
            mismatches.append(key)
    elapsed = time.perf_counter() - t0
    _report("criterion 7 (determinism)", not mismatches, elapsed,
            f"reran 6 criteria, mismatches: {mismatches or 'none'}")
    assert not mismatches
