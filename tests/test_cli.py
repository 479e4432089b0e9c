import copy
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from zerosum import cli, extractor, formats, gen, witness
from zerosum.cli import dispatch
from zerosum.errors import NotSumFullError
from zerosum.extractor import build_matrix
from zerosum.sumfull import RepresentationTable


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = dispatch(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv, payload):
    code, out, err = run_cli(argv + ["--input", "-"], json.dumps(payload))
    parsed = json.loads(out) if out else None
    return code, parsed, err


VALID = {"format": 1, "valid": True}
INVALID = {"format": 1, "valid": False}
INSTANCE = {"format": 1, "group": {"free_rank": 1, "torsion": []},
            "elements": [[-3], [-2], [-1], [1], [2], [3]]}


def test_check_sum_full_set():
    code, out, _ = run_json(["check"], INSTANCE)
    assert code == 0
    assert out["sum_full"] is True
    assert out["reps"][0] == [1, 2]


def test_check_not_sum_full_exits_2():
    code, out, _ = run_json(["check"], {"group": {"free_rank": 1, "torsion": []},
                                        "elements": [[1], [2], [3]]})
    assert code == 2
    assert out == {"format": 1, "sum_full": False, "witness_index": 0}


def test_extract_verify_round_trip():
    code, cert, _ = run_json(["extract"], INSTANCE)
    assert code == 0
    assert cert["sum_check"] == "zero"
    code2, verdict, _ = run_json(["verify"], cert)
    assert code2 == 0
    assert verdict == {"format": 1, "valid": True}


def test_certificate_is_format_2_without_matrix():
    code, cert, _ = run_json(["extract"], INSTANCE)
    assert code == 0
    assert cert["format"] == 2
    assert set(cert["trail"]) == {"reps", "witness"}


def _malformed_certificates(cert):
    n = len(cert["elements"])
    edits = {
        "fractional witness rows": lambda c: c["trail"]["witness"].update(
            rows=[r + 0.5 for r in c["trail"]["witness"]["rows"]]),
        "float witness vector": lambda c: c["trail"]["witness"].update(
            vector=[float(v) for v in c["trail"]["witness"]["vector"]]),
        "boolean subset index": lambda c: c.update(subset=[True] + c["subset"][1:]),
        "subset index out of range": lambda c: c.update(subset=c["subset"] + [n]),
        "negative subset index": lambda c: c.update(subset=[-1] + c["subset"][1:]),
        "rep with three indices": lambda c: c["trail"]["reps"][0].append(0),
        "rep index out of range": lambda c: c["trail"]["reps"].__setitem__(0, [0, n]),
        "reps not a list": lambda c: c["trail"].update(reps=7),
        "trail not an object": lambda c: c.update(trail=[1]),
        "missing witness": lambda c: c["trail"].pop("witness"),
        "format 7": lambda c: c.update(format=7),
        "string format": lambda c: c.update(format="two"),
        "null format": lambda c: c.update(format=None),
        "boolean format": lambda c: c.update(format=True),
        "float format": lambda c: c.update(format=2.0),
        "missing format": lambda c: c.pop("format"),
        "format 1 without trail matrix": lambda c: c.update(format=1),
        "format 2 with trail matrix": lambda c: c["trail"].update(
            matrix=build_matrix(RepresentationTable(c["trail"]["reps"])).tolist()),
        "extra trail field": lambda c: c["trail"].update(note="x"),
        "extra witness field": lambda c: c["trail"]["witness"].update(note="x"),
        "reversed witness rows": lambda c: c["trail"]["witness"]["rows"].reverse(),
        "repeated witness row": lambda c: c["trail"]["witness"]["rows"].insert(0, 0),
        "sum_check not zero": lambda c: c.update(sum_check="banana"),
        "missing sum_check": lambda c: c.pop("sum_check"),
    }
    for what, edit in edits.items():
        bad = copy.deepcopy(cert)
        edit(bad)
        yield what, bad


def test_verify_answers_invalid_on_malformed_certificate_parts():
    _, cert, _ = run_json(["extract"], INSTANCE)
    for what, bad in _malformed_certificates(cert):
        code, verdict, _ = run_json(["verify"], bad)
        assert (code, verdict) == (1, {"format": 1, "valid": False}), what


def test_verify_accepts_every_sound_certificate():
    # verify is a soundness check, not a canonical one: on Z {-4, ..., 4} \ {0} it
    # accepts a table of last pairs instead of least ones, and the least table with
    # the last of its 29 witnesses, although extract writes neither document.
    base = {"format": 2, "group": {"free_rank": 1, "torsion": []},
            "elements": [[v] for v in (-4, -3, -2, -1, 1, 2, 3, 4)], "sum_check": "zero"}
    last_pairs = dict(base, subset=[2, 5], trail={
        "reps": [[2, 2], [2, 3], [3, 3], [2, 4], [3, 5], [4, 4], [4, 5], [5, 5]],
        "witness": {"rows": [3, 4], "vector": [0, 0, 1, 0, 0, 1, 0, 0]}})
    last_witness = dict(base, subset=[0, 1, 3, 4, 6, 7], trail={
        "reps": [[1, 3], [0, 4], [0, 5], [0, 6], [1, 7], [2, 7], [3, 7], [4, 6]],
        "witness": {"rows": [0, 2, 3, 5, 6, 7], "vector": [1, 1, 0, 1, 1, 0, 1, 1]}})
    _, written, _ = run_json(["extract"], base)
    for doc in (last_pairs, last_witness):
        assert doc != written
        assert run_json(["verify"], doc)[:2] == (0, VALID)


def test_verify_null_trail_formats():
    _, cert, _ = run_json(["extract"], {"group": {"free_rank": 1, "torsion": []},
                                        "elements": [[-1], [0], [1]]})
    assert cert["trail"] is None
    for fmt, reply in ((2, (0, VALID)), (1, (1, INVALID)), (7, (1, INVALID)), (True, (1, INVALID))):
        assert run_json(["verify"], dict(cert, format=fmt))[:2] == reply, fmt


def test_verify_rejects_malformed_instance_part():
    _, cert, _ = run_json(["extract"], INSTANCE)
    for field, value in (("free_rank", True), ("free_rank", 1.0), ("torsion", [7.0])):
        bad = copy.deepcopy(cert)
        bad["group"][field] = value
        code, verdict, err = run_json(["verify"], bad)
        assert (code, verdict) == (1, None)
        assert "error" in err
    bad = copy.deepcopy(cert)
    bad["elements"][0] = [-3.0]
    assert run_json(["verify"], bad)[:2] == (1, None)


@pytest.mark.parametrize("free_rank", [1, 2])
def test_extract_certifies_64_bit_edge_sets(free_rank):
    c = 3 * 2**60
    rows = [[k * c] + [k] * (free_rank - 1) for k in (-2, -1, 1, 2)]
    instance = {"group": {"free_rank": free_rank, "torsion": []}, "elements": rows}
    code, cert, _ = run_json(["extract"], instance)
    assert code == 0
    assert run_json(["verify"], cert)[:2] == (0, {"format": 1, "valid": True})


def _no_matrix(*args):
    raise AssertionError("verify built a class matrix")


def test_verify_builds_no_matrix(monkeypatch):
    c = 3 * 2**60
    edge = {"group": {"free_rank": 1, "torsion": []},
            "elements": [[k * c] for k in (-2, -1, 1, 2)]}
    z7 = {"group": {"free_rank": 0, "torsion": [7]}, "elements": [[k] for k in range(1, 7)]}
    certs = [run_json(["extract"], instance)[1] for instance in (z7, edge)]
    for owner, attr in ((witness.ConstraintMatrix, "from_pairs"),
                        (witness.ConstraintMatrix, "from_rows"), (witness, "check_order"),
                        (extractor, "build_matrix"), (extractor, "verify_witness")):
        monkeypatch.setattr(owner, attr, _no_matrix)
    for cert in certs:
        assert cert["trail"] is not None
        assert run_json(["verify"], cert)[:2] == (0, VALID)


# What extract printed on Z_7 and on {-2c, -c, c, 2c} in Z, c = 3 * 2^60, when it
# reduced a dense class matrix; the pair reduction must print the same bytes.
EXTRACTED = (
    '{"elements":[[1],[2],[3],[4],[5],[6]],"format":2,"group":{"free_rank":0,"torsion":[7]},'
    '"subset":[1,4],"sum_check":"zero","trail":{"reps":[[1,5],[0,0],[0,1],[0,2],[0,3],[0,4]],'
    '"witness":{"rows":[0,5],"vector":[0,1,0,0,1,0]}}}\n',
    '{"elements":[[-6917529027641081856],[-3458764513820540928],[3458764513820540928],'
    '[6917529027641081856]],"format":2,"group":{"free_rank":1,"torsion":[]},"subset":[0,3],'
    '"sum_check":"zero","trail":{"reps":[[1,1],[0,2],[1,3],[2,2]],'
    '"witness":{"rows":[1,2],"vector":[1,0,0,1]}}}\n',
)


def _no_dense_reduction(*args, **kwargs):
    raise AssertionError("extract built a class matrix")


def test_extract_builds_no_matrix(monkeypatch):
    c = 3 * 2**60
    edge = {"group": {"free_rank": 1, "torsion": []},
            "elements": [[k * c] for k in (-2, -1, 1, 2)]}
    z7 = {"group": {"free_rank": 0, "torsion": [7]}, "elements": [[k] for k in range(1, 7)]}
    for owner, attr in ((witness.ConstraintMatrix, "from_pairs"),
                        (witness.ConstraintMatrix, "from_rows"), (extractor, "build_matrix"),
                        (witness, "find_witness"), (extractor, "find_witness"),
                        (witness, "check_order")):
        monkeypatch.setattr(owner, attr, _no_dense_reduction)
    for instance, expected in zip((z7, edge), EXTRACTED):
        assert run_cli(["extract", "--input", "-"], json.dumps(instance))[:2] == (0, expected)


def test_check_at_64_bit_edge_is_not_sum_full():
    code, out, _ = run_json(["check"], {"group": {"free_rank": 1, "torsion": []},
                                        "elements": [[-2**62], [2**62]]})
    assert code == 2
    assert out == {"format": 1, "sum_full": False, "witness_index": 0}


def test_verify_rejects_tampering():
    _, cert, _ = run_json(["extract"], INSTANCE)
    cert["subset"] = cert["subset"][:-1]
    code, verdict, _ = run_json(["verify"], cert)
    assert code == 1
    assert verdict == {"format": 1, "valid": False}


def test_extract_not_sum_full_exits_2():
    code, out, _ = run_json(["extract"], {"group": {"free_rank": 1, "torsion": []},
                                          "elements": [[1], [2], [3]]})
    assert code == 2
    assert out["witness_index"] == 0


def test_matrix_witness():
    code, out, _ = run_json(["matrix-witness"], {"matrix": [[-1, 1, 1], [1, -1, 1], [0, 2, -1]]})
    assert code == 0
    assert out == {"format": 1, "rows": [1, 2], "vector": [1, 1, 0]}


def test_matrix_witness_rejects_class_violation():
    code, _, err = run_json(["matrix-witness"], {"matrix": [[-1, 1], [1, -1]]})
    assert code == 1
    assert "row sum" in err


def test_oracle_command():
    code, out, _ = run_json(["oracle"], INSTANCE)
    assert code == 0
    assert out["zero_sum_subset"] == [2, 3]


def test_oracle_budget_exit_3():
    instance = {"group": {"free_rank": 1, "torsion": []},
                "elements": [[2**k] for k in range(24)]}
    code, _, err = run_cli(["oracle", "--input", "-", "--budget", "0.01"],
                           json.dumps(instance))
    assert code == 3
    assert "exceeded" in err


def test_oracle_budget_zero_rejected():
    # nan too: nan <= 0 and monotonic() > nan are both False, so it would disable the cap
    for budget in ("0", "nan", "inf"):
        code, out, err = run_cli(["oracle", "--input", "-", "--budget", budget],
                                 json.dumps(INSTANCE))
        assert (code, out) == (1, ""), budget
        assert "finite positive" in err


def test_flags_are_per_command():
    code, out, _ = run_cli(["extract", "--input", "-", "--workers", "2"], json.dumps(INSTANCE))
    assert code == 1
    assert out == ""
    assert run_cli(["check", "--input", "-", "--seed", "1"], json.dumps(INSTANCE))[0] == 1
    assert run_cli(["gen", "--budget", "1"])[0] == 1


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "zerosum", "check", "--input", "-"],
                          input=json.dumps(INSTANCE), capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == run_cli(["check", "--input", "-"], json.dumps(INSTANCE))[1]
    assert json.loads(proc.stdout)["sum_full"] is True


def test_enumerate_with_verification():
    code, out, _ = run_cli(["enumerate", "--n", "3", "--verify-witness"])
    assert code == 0
    assert json.loads(out) == {"format": 1, "n": 3, "total": 216, "failures": 0}


def test_enumerate_builds_no_matrix(monkeypatch):
    argv = ["enumerate", "--n", "3", "--verify-witness"]
    expected = run_cli(argv)
    assert expected == (0, '{"failures":0,"format":1,"n":3,"total":216}\n', "")
    for owner, attr in ((witness.ConstraintMatrix, "from_rows"),
                        (witness.ConstraintMatrix, "from_pairs"),
                        (witness.ConstraintMatrix, "pairs"), (witness, "verify_witness")):
        monkeypatch.setattr(owner, attr, _no_dense_reduction)
    assert run_cli(argv) == expected


def test_enumerate_workers_merge_deterministically():
    argv = ["enumerate", "--n", "3", "--verify-witness", "--workers"]
    replies = {run_cli(argv + [w])[1] for w in ("1", "2", "3")}
    assert len(replies) == 1
    for w in ("0", "-1"):
        assert run_cli(argv + [w])[:2] == (1, "")


class _FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def _record_pools(monkeypatch):
    sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda max_workers: _FakePool(sizes, max_workers))
    return sizes


def test_pool_is_sized_to_the_tasks(monkeypatch):
    sizes = _record_pools(monkeypatch)
    # enumerate --n 3 has one task per first-row option (6), fuzz --n 3 one per seed
    for argv, tasks in ((["enumerate", "--n", "3"], 6), (["fuzz", "--n", "3"], 3)):
        code, out, _ = run_cli(argv + ["--workers", "10000"])
        assert code == 0
        assert out == run_cli(argv)[1]
        assert sizes.pop() == tasks
    assert sizes == []


def test_pool_is_capped(monkeypatch):
    sizes = _record_pools(monkeypatch)
    code, out, _ = run_cli(["fuzz", "--n", "100", "--workers", "10000"])
    assert code == 0
    assert sizes == [cli.MAX_WORKERS] and cli.MAX_WORKERS < 100
    assert out == run_cli(["fuzz", "--n", "100"])[1]


def test_batch_orders_out_of_range_are_refused(monkeypatch):
    sizes = _record_pools(monkeypatch)
    for argv, code in ((["enumerate", "--n", "0"], 1), (["enumerate", "--n", "-3"], 1),
                       (["enumerate"], 1), (["enumerate", "--n", "7"], 3),
                       (["enumerate", "--n", "5000"], 3),
                       (["fuzz", "--n", "0"], 1), (["fuzz", "--n", "-5"], 1)):
        assert run_cli(argv + ["--workers", "2"])[:2] == (code, ""), argv
    assert sizes == []


def test_sidon_command():
    code, out, _ = run_json(["sidon"], {"group": {"free_rank": 1, "torsion": []},
                                        "elements": [[0], [1], [2], [3]]})
    assert code == 0
    assert out["sidon"] is False
    assert out["quadruple"] == [[0], [2], [1], [1]]


def test_quadruple_command_trivial_subgroup():
    instance = {"group": {"free_rank": 0, "torsion": [7]},
                "elements": [[v] for v in range(1, 7)]}
    code, out, _ = run_json(["quadruple"], instance)
    assert code == 0
    assert out["outcome"] in ("zero_sum_list", "quadruple")
    if out["outcome"] == "zero_sum_list":
        assert sum(c[0] for c in out["elements"]) % 7 == 0


def test_quadruple_command_with_generators():
    instance = {"group": {"free_rank": 0, "torsion": [8]},
                "elements": [[v] for v in range(1, 8)],
                "subgroup_generators": [[2]]}
    code, out, _ = run_json(["quadruple"], instance)
    assert code == 0


def test_olson_command():
    code, out, _ = run_json(["olson"], {"p": 3, "invariants": [1, 1]})
    assert code == 0
    assert out["bound"] == 4


def test_audit3_command():
    instance = {"group": {"free_rank": 0, "torsion": [3, 3]},
                "elements": [[i, j] for i in range(3) for j in range(3) if (i, j) != (0, 0)]}
    code, out, _ = run_json(["audit3"], instance)
    assert code == 0
    assert out["failing_step"] == "olson_count"
    assert out["zero_sum_indices"]


@pytest.mark.parametrize("command", ["check", "extract", "quadruple", "audit3"])
def test_not_sum_full_is_one_answer(command):
    # (0, 1) is not (1, 0) + (1, 0); dispatch answers for every command alike
    instance = {"group": {"free_rank": 0, "torsion": [3, 3]}, "elements": [[1, 0], [0, 1]]}
    code, out, err = run_cli([command, "--input", "-"], json.dumps(instance))
    assert code == 2
    assert out == '{"format":1,"sum_full":false,"witness_index":0}\n'
    assert err == ""


def test_audit3_not_sum_full_exits_2():
    instance = {"group": {"free_rank": 0, "torsion": [3, 3]},
                "elements": [[1, 0], [0, 1]]}
    code, _, err = run_json(["audit3"], instance)
    assert code == 2


def test_gen_matrix_and_pipe_into_matrix_witness():
    code, out, _ = run_cli(["gen", "--mode", "random_matrix", "--n", "6", "--seed", "9"])
    assert code == 0
    matrix = json.loads(out)
    code2, out2, _ = run_cli(["matrix-witness", "--input", "-"], out)
    assert code2 == 0
    assert json.loads(out2)["rows"]


def test_gen_random_matrix_order_is_capped():
    # the cap is checked before the dense matrix is allocated; above it is a budget
    for n, expected in (("0", 1), ("2001", 3)):
        code, out, err = run_cli(["gen", "--mode", "random_matrix", "--n", n])
        assert (code, out) == (expected, ""), n
        assert "error" in err


def test_size_caps_exit_3():
    f3_13 = {"free_rank": 0, "torsion": [3] * 13}
    e1 = [1] + [0] * 12
    cases = [
        (["quadruple"], {"group": f3_13, "elements": [e1], "subgroup_generators": [e1]}),
        (["gen"], {"mode": "full_nonzero", "group": {"free_rank": 0, "torsion": [1000003]}}),
        (["olson"], {"p": 10**9 + 7, "invariants": [1]}),
        (["olson"], {"p": 3, "invariants": [3000000]}),
    ]
    for argv, payload in cases:
        code, out, err = run_json(argv, payload)
        assert (code, out) == (3, None), argv
        assert "error" in err


def test_matrix_order_cap_is_shared(monkeypatch):
    # every command that builds a dense class matrix is refused past
    # witness.MATRIX_MAX_N; extract and verify build none, so they answer past it
    identity = {"matrix": [[int(i == j) for j in range(6)] for i in range(6)]}
    monkeypatch.setattr(witness, "MATRIX_MAX_N", 5)
    code, out, err = run_json(["matrix-witness"], identity)
    assert (code, out) == (3, None)
    assert "cap 5" in err
    code, out, err = run_cli(["gen", "--mode", "random_matrix", "--n", "6"])
    assert (code, out) == (3, "")
    assert "cap 5" in err
    code, cert, _ = run_json(["extract"], INSTANCE)
    assert code == 0
    assert run_json(["verify"], cert)[:2] == (0, VALID)
    # at the cap every command answers
    monkeypatch.setattr(witness, "MATRIX_MAX_N", 6)
    assert run_json(["matrix-witness"], identity)[0] == 0
    assert run_cli(["gen", "--mode", "random_matrix", "--n", "6"])[0] == 0


def test_verify_answers_past_the_matrix_cap():
    # [-20000, 20000] \ {0} with well-formed reps: a dense class matrix of order
    # 40,000 would need 12.8 GB, but verify sums the witness rows from the reps
    big = 20_000
    values = list(range(-big, 0)) + list(range(1, big + 1))
    pos = {v: k for k, v in enumerate(values)}

    def rep(v):
        i, j = {1: (2, -1), -1: (-2, 1)}.get(v, (v - 1, 1) if v > 0 else (v + 1, -1))
        return sorted((pos[i], pos[j]))

    # rows -1 = -2 + 1 and 1 = 2 + (-1) sum to e_{-2} + e_2, and -2 + 2 = 0
    vector = [0] * len(values)
    vector[pos[-2]] = vector[pos[2]] = 1
    cert = {"format": 2, "group": {"free_rank": 1, "torsion": []},
            "elements": [[v] for v in values], "subset": [pos[-2], pos[2]], "sum_check": "zero",
            "trail": {"reps": [rep(v) for v in values],
                      "witness": {"rows": [pos[-1], pos[1]], "vector": vector}}}
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        a, decoded = formats.certificate_from_json(cert)
        ok = extractor.verify_certificate(decoded, a)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    # measured 1.0 s and 8 MB under tracemalloc on a 2-core box; the dense matrix
    # alone would be 12.8 GB
    assert elapsed < 10.0
    assert peak < 64 * 2**20
    assert run_json(["verify"], cert)[:2] == (0, VALID)
    cert["trail"]["witness"] = {"rows": [0], "vector": [1]}
    assert run_json(["verify"], cert)[:2] == (1, INVALID)


def _zmod_nonzero(m):
    return json.dumps({"group": {"free_rank": 0, "torsion": [m]},
                       "elements": [[k] for k in range(1, m)]})


def _interval_nonzero(n):
    return json.dumps({"group": {"free_rank": 1, "torsion": []},
                       "elements": [[k] for k in range(-n, n + 1) if k]})


def _extract_peak(text):
    a = formats.instance_from_json(json.loads(text))
    tracemalloc.start()
    try:
        extractor.extract(a)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_answers_past_the_matrix_cap():
    # Z_100003 \ {0}, n = 100,002, through dispatch: extract reduces the reps in
    # pair form and verify sums them from the reps; measured 1.2 s and 0.8 s on a
    # 2-core box
    text = _zmod_nonzero(100_003)
    t0 = time.perf_counter()
    code, cert, err = run_cli(["extract", "--input", "-"], text)
    assert (code, err) == (0, "")
    assert run_cli(["verify", "--input", "-"], cert)[:2] == (0, '{"format":1,"valid":true}\n')
    assert time.perf_counter() - t0 < 15.0
    # memory linear in n: extract peaked at 60 MB under tracemalloc, against 5.7 MB
    # at n = 10,006
    assert _extract_peak(text) <= 12 * _extract_peak(_zmod_nonzero(10_007))
    # all 6,560 nonzero elements of F_3^8: the olson branch of audit3 extracts
    f3_8 = {"free_rank": 0, "torsion": [3] * 8}
    full = {"group": f3_8,
            "elements": [[(k // 3**i) % 3 for i in range(8)] for k in range(1, 3**8)]}
    code, report, _ = run_json(["audit3"], full)
    assert (code, report["size"], report["failing_step"]) == (0, 6560, "olson_count")
    code, summary, _ = run_json(["fuzz", "--n", "1"], {"mode": "full_nonzero", "group": f3_8})
    assert (code, summary["instances"], summary["failures"]) == (0, 1, 0)


def test_extract_answers_on_a_long_interval():
    # [-50000, 50000] \ {0}, n = 100,000, through dispatch: the first-coordinate
    # window bounds each search, where the full scan is quadratic (12.3 s at
    # n = 8,000); measured 1.4 s and 0.8 s on a 2-core box
    text = _interval_nonzero(50_000)
    t0 = time.perf_counter()
    code, cert, err = run_cli(["extract", "--input", "-"], text)
    assert (code, err) == (0, "")
    assert run_cli(["verify", "--input", "-"], cert)[:2] == (0, '{"format":1,"valid":true}\n')
    assert time.perf_counter() - t0 < 20.0
    # memory linear in n: extract peaked at 57 MB under tracemalloc, against
    # 5.7 MB at n = 10,000
    assert _extract_peak(text) <= 12 * _extract_peak(_interval_nonzero(5_000))


@pytest.mark.parametrize("mode", ["random_set", "prune_closure", "full_nonzero"])
def test_gen_refuses_n_outside_random_matrix(mode):
    cfg = {"mode": mode, "group": {"free_rank": 0, "torsion": [7]}}
    assert run_json(["gen"], cfg)[0] == 0
    code, out, err = run_json(["gen", "--n", "50"], cfg)
    assert (code, out) == (1, None)
    assert "--n" in err


# What gen and fuzz printed when cli._gen_config kept its own defaults (seed 0,
# prune_closure in Z, count 20, bound 50); the GenConfig defaults must match.
GEN_DEFAULT_OUTPUTS = (
    (["gen"], {}, '{"elements":null,"format":1,"group":{"free_rank":1,"torsion":[]}}\n'),
    (["fuzz", "--n", "3"], {},
     '{"certificates_sha256":"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",'
     '"failures":0,"format":1,"instances":0,"runs":3}\n'),
    (["gen"], {"group": {"free_rank": 0, "torsion": [5, 5]}},
     '{"elements":[[0,0],[0,1],[0,3],[0,4],[1,1],[1,3],[1,4],[2,1],[2,2],[2,3],[3,2],[3,4],'
     '[4,1],[4,2],[4,3]],"format":1,"group":{"free_rank":0,"torsion":[5,5]}}\n'),
    (["fuzz", "--n", "5"], {"group": {"free_rank": 0, "torsion": [5, 5]}},
     '{"certificates_sha256":"a9d33da4e5780f08331dcff5d93b2616b29606b139901f872e76818e48b0740e",'
     '"failures":0,"format":1,"instances":5,"runs":5}\n'),
)


@pytest.mark.parametrize("argv, cfg, expected", GEN_DEFAULT_OUTPUTS)
def test_gen_defaults_are_pinned(argv, cfg, expected):
    assert run_cli(argv + ["--input", "-"], json.dumps(cfg)) == (0, expected, "")


@pytest.mark.parametrize("command", ["gen", "fuzz"])
def test_gen_count_is_capped(command):
    # prune_closure costs about count^2 group operations, so count is refused first
    cfg = {"seed": 0, "count": gen.GEN_MAX_COUNT + 1, "bound": 10**9, "mode": "prune_closure"}
    code, out, err = run_json([command, "--n", "1"], cfg)
    assert (code, out) == (3, None)
    assert f"cap {gen.GEN_MAX_COUNT}" in err


@pytest.mark.parametrize("command", ["gen", "fuzz"])
def test_gen_coordinates_are_capped(command):
    # count times coordinates per element is refused when the config is built
    cfg = {"seed": 0, "count": 1, "mode": "prune_closure",
           "group": {"free_rank": gen.GEN_MAX_COORDS + 1, "torsion": []}}
    code, out, err = run_json([command, "--n", "1"], cfg)
    assert (code, out) == (3, None)
    assert f"cap {gen.GEN_MAX_COORDS}" in err


def test_gen_full_nonzero_pipes_into_extract():
    cfg = {"mode": "full_nonzero", "group": {"free_rank": 0, "torsion": [11]}}
    code, out, _ = run_cli(["gen", "--input", "-"], json.dumps(cfg))
    assert code == 0
    code2, out2, _ = run_cli(["extract", "--input", "-"], out)
    assert code2 == 0
    assert json.loads(out2)["sum_check"] == "zero"


def test_gen_prune_none_is_valid_output():
    cfg = {"mode": "prune_closure", "seed": 1, "count": 3, "bound": 4,
           "group": {"free_rank": 1, "torsion": []}}
    code, out, _ = run_cli(["gen", "--input", "-"], json.dumps(cfg))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["elements"] is None or parsed["elements"]


@pytest.mark.parametrize("command", ["gen", "fuzz"])
def test_gen_config_is_decoded_strictly(command):
    for cfg in ({"seed": 1.7}, {"count": True}, {"bound": 4.9}, {"mode": 5}, [1, 2], None):
        code, out, err = run_cli([command, "--n", "1", "--input", "-"], json.dumps(cfg))
        assert (code, out) == (1, ""), cfg
        assert "error" in err


@pytest.mark.parametrize("command", ["gen", "fuzz"])
def test_gen_bound_beyond_64_bits_is_refused(command):
    # a bound past 2^63 - 1 would draw coordinates that extract refuses at ingest
    mode = "random_set" if command == "gen" else "prune_closure"
    for bound in (2**63, 2**70):
        cfg = {"seed": 3, "count": 6, "bound": bound, "mode": mode}
        code, out, err = run_json([command, "--n", "2"], cfg)
        assert (code, out) == (1, None), bound
        assert "64-bit" in err


def test_gen_at_the_largest_bound_ingests():
    cfg = {"seed": 3, "count": 6, "bound": 2**63 - 1, "mode": "random_set"}
    code, drawn, _ = run_json(["gen"], cfg)
    assert code == 0
    assert max(abs(c) for row in drawn["elements"] for c in row) > 2**62
    assert run_json(["check"], drawn)[0] in (0, 2)


def test_fuzz_summary():
    code, out, _ = run_cli(["fuzz", "--n", "40", "--seed", "0"])
    assert code == 0
    summary = json.loads(out)
    assert summary["runs"] == 40
    assert summary["failures"] == 0
    assert summary["instances"] > 0


def test_fuzz_embeds_a_reproducer_when_extract_refuses(monkeypatch):
    def refuse(a):
        raise NotSumFullError(0)

    monkeypatch.setattr(cli, "extract", refuse)
    code, out, err = run_cli(["fuzz", "--n", "40", "--seed", "0"])
    summary = json.loads(out)
    assert (code, err) == (4, "")
    assert summary["failures"] == summary["instances"] > 0
    assert all(set(r) == {"format", "group", "elements"} for r in summary["reproducers"])


def test_fuzz_work_is_capped(monkeypatch):
    def refuse(cfg):
        raise AssertionError("a fuzz task ran past the cap")

    # the default 100 seeds and the README's --n 500, both at count 20, fit the real cap
    assert 500 * 20 <= cli.FUZZ_MAX_DRAWS
    assert run_cli(["fuzz"])[0] == 0
    monkeypatch.setattr(cli, "FUZZ_MAX_DRAWS", 60)
    assert run_cli(["fuzz", "--n", "3"])[0] == 0  # 3 seeds x count 20 is at the cap
    monkeypatch.setattr(cli, "random_sumfull_set", refuse)
    for argv in (["fuzz", "--n", "4"], ["fuzz", "--n", "1", "--input", "-"]):
        code, out, err = run_cli(argv, json.dumps({"count": 61}))
        assert (code, out) == (3, ""), argv
        assert "cap 60" in err


def test_fuzz_counts_a_full_nonzero_run_as_the_nonzero_elements(monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "_fuzz_seed", ran.append)
    group = {"free_rank": 0, "torsion": [999_983]}
    for n in ("1000", "1"):
        code, out, err = run_json(["fuzz", "--n", n], {"mode": "full_nonzero", "group": group})
        assert (code, out) == (3, None)
        assert "999982 elements exceeds the cap 20000" in err
    assert ran == []
    # Z_20001 has 20,000 nonzero elements, at the cap; Z_20002 is past it
    for m, code in ((20_001, 0), (20_002, 3)):
        cfg = {"mode": "full_nonzero", "group": {"free_rank": 0, "torsion": [m]}}
        assert run_json(["fuzz", "--n", "1"], cfg)[0] == code
    assert len(ran) == 1


def test_fuzz_runs_full_nonzero_once(monkeypatch):
    # the instance does not depend on the seed, so an omitted --n means 1 and a
    # larger --n is refused before any run
    cfg = {"mode": "full_nonzero", "group": {"free_rank": 0, "torsion": [11]}}
    code, summary, _ = run_json(["fuzz"], cfg)
    assert (code, summary["runs"], summary["instances"], summary["failures"]) == (0, 1, 1, 0)
    assert run_json(["fuzz", "--n", "1"], cfg)[:2] == (0, summary)
    ran = []
    monkeypatch.setattr(cli, "_fuzz_seed", ran.append)
    for n in ("2", "3"):
        code, out, err = run_json(["fuzz", "--n", n], cfg)
        assert (code, out) == (1, None), n
        assert "full_nonzero" in err
    assert ran == []


def test_fuzz_workers_deterministic():
    argv = ["fuzz", "--n", "30", "--seed", "5", "--workers"]
    replies = {run_cli(argv + [w])[1] for w in ("1", "2", "3")}
    assert len(replies) == 1
    assert json.loads(replies.pop())["instances"] > 0
    for w in ("0", "-1"):
        assert run_cli(argv + [w])[:2] == (1, "")


def test_malformed_json_exits_1():
    code, _, err = run_cli(["extract", "--input", "-"], "{not json")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_deeply_nested_json_exits_1(depth):
    # json.loads raises RecursionError past about 1,000 levels; dispatch answers it
    text = "[" * depth + "]" * depth
    for command in sorted(set(cli.COMMANDS) - {"enumerate"}):
        assert run_cli([command, "--input", "-"], text) == (1, "", "error: JSON nested too deeply\n")


F3_SQUARED = {"group": {"free_rank": 0, "torsion": [3, 3]},
              "elements": [[i, j] for i in range(3) for j in range(3) if (i, j) != (0, 0)]}
# Valid documents for every command whose valid inputs answer in milliseconds
# (gen, fuzz, oracle and enumerate can run for seconds on a valid input).
MUTATION_BASES = {
    "check": INSTANCE,
    "extract": INSTANCE,
    "matrix-witness": {"matrix": [[-1, 1, 1], [1, -1, 1], [0, 2, -1]]},
    "sidon": {"group": {"free_rank": 1, "torsion": []}, "elements": [[0], [1], [2], [3]]},
    "quadruple": {"group": {"free_rank": 0, "torsion": [8]},
                  "elements": [[v] for v in range(1, 8)], "subgroup_generators": [[2]]},
    "olson": {"p": 3, "invariants": [1, 1]},
    "audit3": F3_SQUARED,
}
MUTANT_VALUES = (None, True, False, 0.5, -2.0, 0, -1, 2**63, -(2**63) - 1, 2**64 + 7,
                 "", "x", [], [0], [[1]], {}, {"format": 1})


def _slots(node, parent, key):
    """Every (container, key) in a JSON document, the document itself first."""
    yield parent, key
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for k, child in items:
        yield from _slots(child, node, k)


def _mutant(rng, base):
    holder = [copy.deepcopy(base)]
    for _ in range(1 + rng.below(3)):
        slots = list(_slots(holder[0], holder, 0))
        parent, key = slots[rng.below(len(slots))]
        op = rng.below(3)
        if op == 1 and parent is not holder:
            del parent[key]
        elif op == 2 and isinstance(parent, list) and parent is not holder:
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = copy.deepcopy(MUTANT_VALUES[rng.below(len(MUTANT_VALUES))])
    return holder[0]


def test_dispatch_answers_mutated_documents():
    bases = dict(MUTATION_BASES, verify=run_json(["extract"], INSTANCE)[1])
    commands = sorted(bases)
    rng = gen.SplitMix64(2024)
    codes = set()
    for k in range(2000):
        command = commands[k % len(commands)]
        code, _, _ = run_cli([command, "--input", "-"], json.dumps(_mutant(rng, bases[command])))
        assert code in range(5), (command, k)
        codes.add(code)
    assert {0, 1, 2, 3} <= codes


@pytest.mark.parametrize("command", ["gen", "fuzz"])
def test_gen_config_refuses_unknown_fields(command):
    code, out, err = run_json([command, "--n", "1"], {"cuont": 5000, "mode": "random_set"})
    assert (code, out) == (1, None)
    assert "'cuont'" in err


def test_missing_field_exits_1():
    code, _, _ = run_json(["extract"], {"group": {"free_rank": 1, "torsion": []}})
    assert code == 1


def test_stdout_is_json_only():
    for argv in (["check"], ["extract"], ["sidon"], ["oracle"]):
        _, out, _ = run_cli(argv + ["--input", "-"], json.dumps(INSTANCE))
        json.loads(out)
        assert out.endswith("\n") and out.count("\n") == 1
