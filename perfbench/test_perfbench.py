"""Tests of the benchmark itself: the checker accepts real outputs and rejects
altered ones, and BENCHMARK.json names the metrics run.py prints.

    python3 -m pytest perfbench/test_perfbench.py    (or: python3 perfbench/test_perfbench.py)
"""
import copy
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from zerosum import cli  # noqa: E402

INSTANCES = [
    {"format": 1, "group": {"free_rank": 0, "torsion": [7]}, "elements": [[k] for k in range(1, 7)]},
    {"format": 1, "group": {"free_rank": 1, "torsion": []},
     "elements": [[-6], [-3], [-2], [-1], [1], [2], [4], [5]]},
    {"format": 1, "group": {"free_rank": 0, "torsion": [3, 3]},
     "elements": [[b, c] for b in range(3) for c in range(3) if (b, c) != (0, 0)]},
]


def certificate(instance: dict) -> dict:
    out = io.StringIO()
    rc = cli.dispatch(["extract", "--input", "-"], stdin=io.StringIO(json.dumps(instance)),
                      stdout=out, stderr=io.StringIO())
    assert rc == 0
    return json.loads(out.getvalue())


def mutations(cert: dict):
    n = len(cert["elements"])
    trail = cert["trail"]

    changed = copy.deepcopy(cert)
    spare = next(k for k in range(n) if k not in cert["subset"])
    changed["subset"][0] = spare
    changed["subset"].sort()
    yield "changed subset index", changed

    wrong = copy.deepcopy(cert)
    i, j = wrong["trail"]["reps"][0]
    wrong["trail"]["reps"][0] = [i, next(x for x in range(n) if x not in (0, j))]
    yield "wrong rep", wrong

    dropped = copy.deepcopy(cert)
    dropped["trail"]["witness"]["rows"].pop()
    yield "dropped witness row", dropped

    flipped = copy.deepcopy(cert)
    flipped["trail"]["witness"]["vector"][trail["witness"]["rows"][0]] ^= 1
    yield "flipped vector entry", flipped

    fractional = copy.deepcopy(cert)
    fractional["trail"]["witness"]["rows"] = [r + 0.5 for r in trail["witness"]["rows"]]
    yield "fractional witness rows", fractional


def test_real_certificates_pass_and_altered_ones_fail():
    for instance in INSTANCES:
        cert = certificate(instance)
        assert checker.check_certificate(instance, cert) is None
        for what, bad in mutations(cert):
            assert checker.check_certificate(instance, bad) is not None, what


def test_class_witness_recomputed():
    rows = [[-1, 1, 1], [1, -1, 1], [0, 1, 0]]
    assert checker.check_witness(rows, (2,), (0, 1, 0)) is None
    assert checker.check_witness(rows, (0, 1), (0, 0, 2)) is not None
    assert checker.check_witness(rows, (2,), (1, 1, 0)) is not None
    assert checker.check_witness(rows, (), ()) is not None


def test_class_shard_matches_the_class_size():
    assert sum(1 for _ in checker.class_shard(3, range(6))) == 6**3
    assert all(sum(r) == 1 for m in checker.class_shard(4, [0]) for r in m)


def test_char3_answers():
    members = {(1,), (2,), (4,)}
    assert checker.check_zero_sum_list([(1,), (2,), (4,)], True, members, 0, [7]) is None
    assert checker.check_zero_sum_list([(1,), (2,)], True, members, 0, [7]) is not None
    assert checker.check_quadruple([(1,), (4,), (2,), (3,)], {(1,), (2,), (3,), (4,)}, 1, []) is None
    assert checker.check_quadruple([(1,), (4,), (4,), (1,)], {(1,), (4,)}, 1, []) is not None
    assert checker.check_sidon([(1,), (2,), (5,)], True, 1, []) is None
    assert checker.check_sidon([(1,), (2,), (3,)], True, 1, []) is not None
    assert checker.check_sidon([(1,), (2,), (5,)], [(1,), (5,), (2,), (2,)], 1, []) is not None
    gens = [(1, 0, 0), (0, 1, 0)]
    plane = [(a, b, 0) for a in range(3) for b in range(3)]
    assert checker.check_closure_f3(gens, plane, 3) is None
    assert checker.check_closure_f3(gens, plane[:-1], 3) is not None


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in run.END_TO_END.items()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.UNITS.items())
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
