"""The benchmark's four workloads.

Each workload makes its inputs in `setup` from the run's seed, runs one round
of operations in `round` (the timed part, as one closed-loop client), and
checks the first round's outputs in `check` with the independent checker.
Every round performs the same operations, so the share of failed operations
is the same in every run.  An operation fails when the program gives a wrong
or refused answer; the outputs of the operations that did not fail are what
`check` must accept.

The extract workloads drive the user's path, `zerosum.cli.dispatch`, in this
process: `extract --input -` on an instance, then `verify --input -` on the
certificate it printed.  Package functions are always looked up as module
attributes at call time, so the traced run's hooks see every call.
"""
from __future__ import annotations

import io
import json
import time

from zerosum import char3, cli, formats, gen, groups, oracle, witness
from zerosum.char3 import ZeroSumList
from zerosum.gen import GenConfig
from zerosum.groups import GroupSpec

import checker

perf_counter = time.perf_counter

# A nonzero --seed moves the generator seeds of randomly drawn inputs by this
# much per unit, so each benchmark seed draws its own sets of the same kind.
SEED_STRIDE = 1_000_000

EXTRACT = ["extract", "--input", "-"]
VERIFY = ["verify", "--input", "-"]
VALID = {"format": 1, "valid": True}
INVALID = {"format": 1, "valid": False}


class Tally:
    """What one round did: one record per operation, in the order they ran, and
    the outputs `check` reads."""

    def __init__(self):
        # (kind, ok, seconds, prove ms or None, verify ms or None)
        self.ops: list[tuple] = []
        self.outputs: list = []

    def op(self, kind: str, ok: bool, seconds: float, prove_ms=None, verify_ms=None) -> None:
        if not ok:
            prove_ms = verify_ms = None
        self.ops.append((kind, ok, seconds, prove_ms, verify_ms))


def _primes(limit: int) -> list[int]:
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i, prime in enumerate(sieve) if prime]


def _elementary_specs(limit: int) -> list[GroupSpec]:
    specs = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        d = 2
        while p**d <= limit:
            specs.append(GroupSpec(0, (p,) * d))
            d += 1
    return specs


def criterion_2_specs() -> list[GroupSpec]:
    """The 210 finite groups of acceptance criterion 2 (order <= 729)."""
    specs = [GroupSpec(0, (m,)) for m in range(5, 65)] + _elementary_specs(729)
    specs.extend(GroupSpec(0, (p,)) for p in _primes(729) if p >= 5)
    return specs


def criterion_4_specs() -> list[GroupSpec]:
    """The 500 finite groups of acceptance criterion 4."""
    specs = [GroupSpec(0, (m,)) for m in range(5, 105)] + _elementary_specs(729)
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


def _coords(x) -> tuple[int, ...]:
    return tuple(x.free) + tuple(x.torsion)


def _instance_text(inst) -> str:
    return formats.dumps_canonical(formats.instance_to_json(inst))


def _dispatch(argv: list[str], text: str) -> tuple[int, str, float]:
    stdin, stdout, stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    t0 = perf_counter()
    rc = cli.dispatch(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return rc, stdout.getvalue(), (perf_counter() - t0) * 1e3


def _reply(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


# --- extract workloads: extract -> JSON -> verify through the CLI

# Sum-full sets of Z and Z^2 whose coordinates fit in 64 bits, but whose
# differences a - b do not: {-2c, -c, c, 2c} with 4c > 2^63 - 1.
EDGE_C = (3 * 2**60, 2**61 + 1)


def edge_texts() -> list[str]:
    def text(free_rank, rows):
        return json.dumps({"format": 1, "group": {"free_rank": free_rank, "torsion": []},
                           "elements": rows}, sort_keys=True, separators=(",", ":"))

    out = [text(1, [[-2 * c], [-c], [c], [2 * c]]) for c in EDGE_C]
    c = EDGE_C[0]
    out.append(text(2, [[-2 * c, -2], [-c, -1], [c, 1], [2 * c, 2]]))
    return out


def forged_text(instance_text: str) -> str:
    """A certificate of the instance whose witness rows were made fractional (r + 0.5)."""
    rc, cert_text, _ = _dispatch(EXTRACT, instance_text)
    if rc != 0:
        raise RuntimeError(f"extract exited {rc} on a forgery base instance")
    cert = json.loads(cert_text)
    cert["trail"]["witness"]["rows"] = [r + 0.5 for r in cert["trail"]["witness"]["rows"]]
    return json.dumps(cert, sort_keys=True, separators=(",", ":"))


class ExtractWorkload:
    """Operations: ("cert" | "edge", instance text) goes through extract and verify and
    should give a certificate that verify accepts; ("forged", certificate text) goes
    through verify alone and should be refused."""

    setup_repeats = 1
    batches_per_round = 1

    def __init__(self, seed: int):
        self.seed = seed

    def warmup(self, ops) -> None:
        """Extract and verify the instance with the most elements once, so the
        heap has already grown to the round's largest matrix before timing."""
        largest = max((text for kind, text in ops if kind == "cert"),
                      key=lambda text: len(json.loads(text)["elements"]))
        _, cert, _ = _dispatch(EXTRACT, largest)
        _dispatch(VERIFY, cert)

    def round(self, ops, t: Tally) -> None:
        for kind, text in ops:
            t0 = perf_counter()
            if kind == "forged":
                rc, reply, verify_ms = _dispatch(VERIFY, text)
                t.op(kind, rc == 1 and _reply(reply) == INVALID, perf_counter() - t0, None, verify_ms)
                t.outputs.append((rc, reply))
                continue
            rc, cert, prove_ms = _dispatch(EXTRACT, text)
            rc2 = reply = verify_ms = None
            ok = rc == 0
            if ok:
                rc2, reply, verify_ms = _dispatch(VERIFY, cert)
                ok = rc2 == 0 and _reply(reply) == VALID
            t.op(kind, ok, perf_counter() - t0, prove_ms, verify_ms)
            t.outputs.append((rc, cert, rc2, reply, ok))

    def check(self, ops, outputs) -> tuple[str | None, int]:
        """(first rejection or None, certificate bytes the round emitted)."""
        cert_bytes = 0
        for (kind, text), out in zip(ops, outputs):
            if kind == "forged":
                continue
            rc, cert, _, _, ok = out
            if rc == 0:
                cert_bytes += len(cert.encode())
            if not ok:
                continue
            reason = checker.check_certificate(json.loads(text), json.loads(cert))
            if reason is not None:
                return f"{kind} certificate rejected: {reason}", cert_bytes
        return None, cert_bytes


class LargeExtract(ExtractWorkload):
    """Four large sum-full sets; the dense class-matrix reduction runs hundreds of steps."""

    name = "large-extract"
    INSTANCES = (
        (GroupSpec(1, ()), "prune_closure", 2500),  # Z, n = 1274
        (GroupSpec(0, (3,) * 8), "prune_closure", 0),  # F_3^8, n = 1354
        (GroupSpec(2, ()), "prune_closure", 30),  # Z^2, n = 1227
        (GroupSpec(0, (2001,)), "full_nonzero", 0),  # Z_2001, n = 2000
    )

    def setup(self) -> list[tuple[str, str]]:
        # Pinned to generator seed 1: these sizes and step counts are the ones
        # the roadmap quotes, and other seeds give other n and step counts.
        ops = []
        for spec, mode, bound in self.INSTANCES:
            inst = gen.random_sumfull_set(GenConfig(seed=1, group=spec, mode=mode,
                                                    count=1500, bound=bound))
            ops.append(("cert", _instance_text(inst)))
        return ops


class SmallExtract(ExtractWorkload):
    """The 1,000 instances of acceptance criterion 2, plus the fault-kept operations."""

    name = "small-extract"
    INSTANCES = 1000

    def setup(self) -> list[tuple[str, str]]:
        ops = []
        for spec in criterion_2_specs():
            inst = gen.random_sumfull_set(GenConfig(seed=0, group=spec, mode="full_nonzero"))
            ops.append(("cert", _instance_text(inst)))
        forgery_bases = [text for _, text in ops[:3]]
        s = self.seed * SEED_STRIDE
        while len(ops) < self.INSTANCES:
            inst = gen.random_sumfull_set(GenConfig(seed=s, group=GroupSpec(1, ()),
                                                    mode="prune_closure", count=20, bound=50))
            s += 1
            if inst is not None:
                ops.append(("cert", _instance_text(inst)))
        ops.extend(("edge", text) for text in edge_texts())
        ops.extend(("forged", forged_text(text)) for text in forgery_bases)
        return ops


# --- class sweep: find_witness and verify_witness on a shard of the order-5 class

class ClassSweep:
    """The order-5 class matrices whose first row is option 0 or 4 of the 15 row
    options, in enumeration order; both have diagonal -1, so the reduction goes
    past the first row.  The shard is pinned: the seed is not used."""

    name = "class-sweep"
    setup_repeats = 3
    batches_per_round = 25
    N = 5
    SHARD = (0, 4)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        return list(oracle.enumerate_class(self.N, first_rows=self.SHARD))

    def warmup(self, matrices) -> None:
        m = matrices[0]
        witness.verify_witness(m, witness.find_witness(m))

    def round(self, matrices, t: Tally) -> None:
        outputs = t.outputs
        for m in matrices:
            t0 = perf_counter()
            w = witness.find_witness(m)
            t1 = perf_counter()
            ok = witness.verify_witness(m, w)
            t2 = perf_counter()
            t.op("witness", ok, t2 - t0, (t1 - t0) * 1e3, (t2 - t1) * 1e3)
            outputs.append((w, ok))

    def check(self, matrices, outputs) -> tuple[str | None, int]:
        out_bytes = 0
        expected = list(checker.class_shard(self.N, self.SHARD))
        if len(expected) != len(matrices):
            return "the shard has the wrong number of matrices", out_bytes
        for k, (m, rows, (w, ok)) in enumerate(zip(matrices, expected, outputs)):
            rows = [list(r) for r in rows]
            if m.entries.tolist() != rows:
                return f"class matrix {k} differs from the class enumeration", out_bytes
            out_bytes += len(formats.dumps_canonical(
                {"format": 1, "rows": list(w.rows), "vector": list(w.vector)}))
            if ok:
                reason = checker.check_witness(rows, w.rows, w.vector)
                if reason is not None:
                    return f"witness for matrix {k} rejected: {reason}", out_bytes
        return None, out_bytes


# --- char3 toolkit: chain_extract, is_sidon, subgroup_closure, audit_char3

class Char3Toolkit:
    """chain_extract under the trivial subgroup on the 500 groups of criterion 4,
    is_sidon on the 1,000 sets of criterion 5, and subgroup_closure and
    audit_char3 on pruned sets of F_3^m for m = 4..8.

    The program's own cross-check of each answer, as criteria 4 and 5 run it,
    is the "verify" step: scalar_sum or verify_quadruple on chain outcomes and
    quadruple_oracle on Sidon verdicts.  Closure and audit have none."""

    name = "char3-toolkit"
    setup_repeats = 3
    batches_per_round = 1
    F3_DIMS = range(4, 9)
    F3_PER_DIM = 4
    F3_COUNT = 60
    CLOSURE_GENS = 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        shift = self.seed * SEED_STRIDE
        chain = []
        for spec in criterion_4_specs():
            inst = gen.random_sumfull_set(GenConfig(seed=0, group=spec, mode="full_nonzero"))
            chain.append((inst, char3.subgroup_closure([], spec)))
        sidon = []
        for k in range(500):
            cfg = GenConfig(seed=shift + k, group=GroupSpec(1, ()), mode="random_set",
                            count=(k % 30) + 1, bound=40 if k % 2 else 400)
            sidon.append((list(gen.random_set(cfg)), cfg.group))
        for k in range(500):
            spec = GroupSpec(0, (3,) * (2 + k % 5))
            cfg = GenConfig(seed=shift + 1000 + k, group=spec, mode="random_set",
                            count=(k % 30) + 1, bound=0)
            sidon.append((list(gen.random_set(cfg)), spec))
        f3 = []
        for m in self.F3_DIMS:
            s, kept = shift + 1, 0
            while kept < self.F3_PER_DIM:
                inst = gen.random_sumfull_set(GenConfig(seed=s, group=GroupSpec(0, (3,) * m),
                                                        mode="prune_closure",
                                                        count=self.F3_COUNT, bound=0))
                s += 1
                if inst is not None:
                    f3.append(inst)
                    kept += 1
        ops = ([("chain", k) for k in range(len(chain))] + [("sidon", k) for k in range(len(sidon))]
               + [("closure", k) for k in range(len(f3))] + [("audit", k) for k in range(len(f3))])
        return {"chain": chain, "sidon": sidon, "f3": f3, "ops": ops}

    def warmup(self, state) -> None:
        t = Tally()
        for kind in ("chain", "sidon", "closure", "audit"):
            self._op(state, kind, 0, t)

    def _op(self, state, kind: str, k: int, t: Tally):
        if kind == "chain":
            inst, trivial = state["chain"][k]
            t0 = perf_counter()
            out = char3.chain_extract(inst, trivial)
            t1 = perf_counter()
            if isinstance(out, ZeroSumList):
                ok = groups.scalar_sum(out.elements, inst.spec) == groups.zero(inst.spec)
            else:
                ok = char3.verify_quadruple(out, inst.spec)
            t2 = perf_counter()
        elif kind == "sidon":
            b, spec = state["sidon"][k]
            t0 = perf_counter()
            out = char3.is_sidon(b, spec)
            t1 = perf_counter()
            ok = oracle.quadruple_oracle(b, spec) == out
            t2 = perf_counter()
        else:
            inst = state["f3"][k]
            t0 = perf_counter()
            if kind == "closure":
                out = char3.subgroup_closure(inst.elements[: self.CLOSURE_GENS], inst.spec)
            else:
                out = char3.audit_char3(inst)
            t1 = t2 = perf_counter()
            ok = True
        verify_ms = (t2 - t1) * 1e3 if kind in ("chain", "sidon") else None
        t.op(kind, ok, t2 - t0, (t1 - t0) * 1e3, verify_ms)
        return out, ok

    def round(self, state, t: Tally) -> None:
        op = self._op
        t.outputs = [op(state, kind, k, t) for kind, k in state["ops"]]

    def check(self, state, outputs) -> tuple[str | None, int]:
        out_bytes = 0
        for (kind, k), (out, ok) in zip(state["ops"], outputs):
            if kind == "chain":
                inst, _ = state["chain"][k]
                payload = formats.chain_outcome_to_json(inst, out)
            elif kind == "sidon":
                payload = ({"format": 1, "sidon": True} if out is True else
                           {"format": 1, "sidon": False, "quadruple": formats.quadruple_to_json(out)})
            elif kind == "closure":
                payload = {"format": 1, "realized": [list(_coords(x)) for x in out.realized]}
            else:
                payload = formats.report_to_json(out)
            out_bytes += len(formats.dumps_canonical(payload))
            if ok:
                reason = self._check_one(state, kind, k, out)
                if reason is not None:
                    return f"{kind} {k} rejected: {reason}", out_bytes
        return None, out_bytes

    def _check_one(self, state, kind: str, k: int, out) -> str | None:
        if kind == "chain":
            inst, _ = state["chain"][k]
            members = {_coords(x) for x in inst.elements}
            free_rank, torsion = inst.spec.free_rank, inst.spec.torsion
            if isinstance(out, ZeroSumList):
                return checker.check_zero_sum_list([_coords(x) for x in out.elements], out.distinct,
                                                   members, free_rank, torsion)
            return checker.check_quadruple([_coords(x) for x in out.as_tuple()], members,
                                           free_rank, torsion)
        if kind == "sidon":
            b, spec = state["sidon"][k]
            verdict = out if out is True else [_coords(x) for x in out.as_tuple()]
            return checker.check_sidon([_coords(x) for x in b], verdict, spec.free_rank, spec.torsion)
        inst = state["f3"][k]
        elements = [_coords(x) for x in inst.elements]
        dim = len(inst.spec.torsion)
        if kind == "closure":
            return checker.check_closure_f3(elements[: self.CLOSURE_GENS],
                                            [_coords(x) for x in out.realized], dim)
        return checker.check_audit_f3(elements, formats.report_to_json(out), dim)


WORKLOADS = {w.name: w for w in (LargeExtract, SmallExtract, ClassSweep, Char3Toolkit)}
