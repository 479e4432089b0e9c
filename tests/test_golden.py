"""Golden digests of extraction and witness outputs.

Pins the subset, the representation table and the witness that `extract`
returns on fixed inputs, so a change to the certificate's encoding or to the
internals of the pipeline can be shown not to change what is certified.
The inputs are the 210 `full_nonzero` groups of acceptance criterion 2 plus
the `prune_closure` sets of Z (count 20, bound 50) for seeds 0..299.

A second digest pins the (rows, vector) that `find_witness` returns on every
class matrix of order <= 4 and on `random_matrix(n, s)` for n in {7, 40, 200}
and s < 100, so a change to the matrix representation or to the reduction
can be shown to keep the smallest-first choice of witness.

A third digest pins the matrices that `random_matrix(n, s)` draws for n in
{1, 2, 3, 6, 40} and s < 50, so a change to how a draw is stored can be shown
to keep the SplitMix64 stream and the instances it produces.
"""
import hashlib
import json

from zerosum.extractor import extract
from zerosum.gen import GenConfig, random_matrix, random_sumfull_set
from zerosum.groups import GroupSpec
from zerosum.oracle import enumerate_class
from zerosum.witness import find_witness
from test_acceptance import _criterion_2_specs

GOLDEN_SHA256 = "f3b8438639a3fe7148a66873276bd85e85eefe0fde5cf45cc61118326bc0e379"
WITNESS_SHA256 = "bea3fb5c30327a674256a3c6b26a5c5e04721191a363f24c0fed1aa9aa0e719a"
RANDOM_MATRIX_SHA256 = "5e9806a116931b647e509a1bb87ca51dfb5265c538b51731342fccc1adfa0705"


def _instances():
    for spec in _criterion_2_specs():
        yield random_sumfull_set(GenConfig(seed=0, group=spec, mode="full_nonzero"))
    for seed in range(300):
        inst = random_sumfull_set(GenConfig(seed=seed, group=GroupSpec(1, ()),
                                            mode="prune_closure", count=20, bound=50))
        if inst is not None:
            yield inst


def _record(cert) -> list:
    if cert.trail is None:
        return [list(cert.subset), None, None, None]
    w = cert.trail.witness
    return [list(cert.subset), [list(p) for p in cert.trail.table.reps],
            list(w.rows), list(w.vector)]


def golden_digest() -> tuple[int, str]:
    hasher = hashlib.sha256()
    count = 0
    for inst in _instances():
        cert = extract(inst)
        hasher.update(json.dumps(_record(cert), separators=(",", ":")).encode() + b"\n")
        count += 1
    return count, hasher.hexdigest()


def test_extraction_outputs_pinned():
    count, digest = golden_digest()
    assert count >= 210
    assert digest == GOLDEN_SHA256


def _matrices():
    for n in range(1, 5):
        yield from enumerate_class(n)
    for n in (7, 40, 200):
        for seed in range(100):
            yield random_matrix(n, seed)


def witness_digest() -> tuple[int, str]:
    hasher = hashlib.sha256()
    count = 0
    for m in _matrices():
        w = find_witness(m)
        hasher.update(json.dumps([list(w.rows), list(w.vector)], separators=(",", ":")).encode()
                      + b"\n")
        count += 1
    return count, hasher.hexdigest()


def test_witnesses_pinned():
    count, digest = witness_digest()
    assert count == 1 + 9 + 216 + 10_000 + 300
    assert digest == WITNESS_SHA256


def test_random_matrices_pinned():
    hasher = hashlib.sha256()
    count = 0
    for n in (1, 2, 3, 6, 40):
        for seed in range(50):
            rows = random_matrix(n, seed).tolist()
            hasher.update(json.dumps(rows, separators=(",", ":")).encode() + b"\n")
            count += 1
    assert count == 250
    assert hasher.hexdigest() == RANDOM_MATRIX_SHA256
