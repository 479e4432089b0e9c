"""Command-line entry point.

Every command reads JSON from --input (a path, or '-' for standard input) and
writes a single JSON document to standard output; diagnostics go to standard
error.  Exit codes: 0 success, 1 malformed input / class violation / failed
verification, 2 not sum-full, 3 budget exceeded, 4 internal verification
failure.  Not sum-full is answered by dispatch alone, for every command, with
{"format": 1, "sum_full": false, "witness_index": k} on standard output.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import IO, Optional, Union

from . import char3, formats, gen, groups
from .errors import (BudgetExceeded, InternalVerificationError, MatrixClassError,
                     NotSumFullError, ShapeMismatch)
from .extractor import extract, verify_certificate
from .formats import FORMAT_VERSION, InputFormatError, dumps_canonical
from .gen import GenConfig, random_matrix, random_set, random_sumfull_set
from .oracle import ENUMERATE_MAX_N, brute_force_zero_sum, enumerate_class, row_options
from .sumfull import check_sum_full
from .witness import find_witness_pairs, verify_witness

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_SUM_FULL = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# fuzz draws --n times count elements; a prune_closure seed costs about count^2
# group operations, so the worst case at the cap is four seeds of count 5000.
FUZZ_MAX_DRAWS = 20_000


def _read_json(args, stdin: IO[str]):
    if args.input is None:
        raise InputFormatError("this command needs --input PATH or --input -")
    if args.input == "-":
        text = stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputFormatError(f"cannot read {args.input}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError("JSON nested too deeply") from exc


def _emit(stdout: IO[str], payload: dict) -> None:
    stdout.write(dumps_canonical(payload) + "\n")


def cmd_check(args, stdin, stdout) -> int:
    a = formats.instance_from_json(_read_json(args, stdin))
    t = check_sum_full(a)
    payload = formats.instance_to_json(a)
    payload["sum_full"] = True
    payload["reps"] = [list(pair) for pair in t.reps]
    _emit(stdout, payload)
    return EXIT_OK


def cmd_extract(args, stdin, stdout) -> int:
    a = formats.instance_from_json(_read_json(args, stdin))
    _emit(stdout, formats.certificate_to_json(a, extract(a)))
    return EXIT_OK


def cmd_verify(args, stdin, stdout) -> int:
    a, cert = formats.certificate_from_json(_read_json(args, stdin))
    ok = cert is not None and verify_certificate(cert, a)
    _emit(stdout, {"format": FORMAT_VERSION, "valid": ok})
    return EXIT_OK if ok else EXIT_INPUT


def cmd_matrix_witness(args, stdin, stdout) -> int:
    m = formats.matrix_from_json(_read_json(args, stdin))
    w = find_witness_pairs(m.pairs())
    payload = {"format": FORMAT_VERSION}
    payload.update(formats.witness_to_json(w))
    _emit(stdout, payload)
    return EXIT_OK


def cmd_oracle(args, stdin, stdout) -> int:
    a = formats.instance_from_json(_read_json(args, stdin))
    subset = (brute_force_zero_sum(a) if args.budget is None
              else brute_force_zero_sum(a, time_cap=args.budget))
    _emit(stdout, {"format": FORMAT_VERSION,
                   "zero_sum_subset": None if subset is None else list(subset)})
    return EXIT_OK


def _map(fn, items: list, workers: int) -> list:
    """fn over items, results in item order; the pool never has more workers than items."""
    if workers < 1:
        raise InputFormatError(f"--workers must be >= 1, got {workers}")
    if workers == 1 or len(items) <= 1:
        return list(map(fn, items))
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items, chunksize=math.ceil(len(items) / workers)))


def _enumerate_first_row(task: tuple[int, int, bool]) -> tuple[int, int]:
    n, option, verify = task
    total = failures = 0
    for m in enumerate_class(n, first_rows=(option,)):
        total += 1
        if verify:
            if not verify_witness(m, find_witness_pairs(m.pairs())):
                failures += 1
    return total, failures


def cmd_enumerate(args, stdin, stdout) -> int:
    n = args.n
    if n is None or n < 1:
        raise InputFormatError("enumerate needs --n >= 1")
    if n > ENUMERATE_MAX_N:
        raise BudgetExceeded(f"class enumeration supports n <= {ENUMERATE_MAX_N}, got {n}")
    verify = args.verify_witness
    tasks = [(n, option, verify) for option in range(len(row_options(n, 0)))]
    results = _map(_enumerate_first_row, tasks, args.workers)
    total = sum(r[0] for r in results)
    failures = sum(r[1] for r in results)
    payload = {"format": FORMAT_VERSION, "n": n, "total": total}
    if verify:
        payload["failures"] = failures
    _emit(stdout, payload)
    return EXIT_OK if failures == 0 else EXIT_INTERNAL


def cmd_sidon(args, stdin, stdout) -> int:
    a = formats.instance_from_json(_read_json(args, stdin))
    verdict = char3.is_sidon(list(a.elements), a.spec)
    if verdict is True:
        _emit(stdout, {"format": FORMAT_VERSION, "sidon": True})
    else:
        _emit(stdout, {"format": FORMAT_VERSION, "sidon": False,
                       "quadruple": formats.quadruple_to_json(verdict)})
    return EXIT_OK


def cmd_quadruple(args, stdin, stdout) -> int:
    obj = _read_json(args, stdin)
    a = formats.instance_from_json(obj)
    raw_gens = obj.get("subgroup_generators", [])
    gens = formats.elements_from_json(raw_gens, a.spec)
    h = char3.subgroup_closure(gens, a.spec)
    outcome = char3.chain_extract(a, h)
    _emit(stdout, formats.chain_outcome_to_json(a, outcome))
    return EXIT_OK


def cmd_olson(args, stdin, stdout) -> int:
    obj = _read_json(args, stdin)
    p = formats.require_field(obj, "p", int)
    invariants = formats.strict_ints(formats.require_field(obj, "invariants", list), "'invariants'")
    _emit(stdout, {"format": FORMAT_VERSION, "p": p, "invariants": list(invariants),
                   "bound": char3.olson_bound(p, invariants)})
    return EXIT_OK


def cmd_audit3(args, stdin, stdout) -> int:
    a = formats.instance_from_json(_read_json(args, stdin))
    report = char3.audit_char3(a)
    _emit(stdout, formats.report_to_json(report))
    return EXIT_OK


GEN_CONFIG_FIELDS = ("seed", "mode", "group", "count", "bound")


def _gen_config(args, obj) -> GenConfig:
    if not isinstance(obj, dict):
        raise InputFormatError("the config must be a JSON object")
    unknown = sorted(set(obj) - set(GEN_CONFIG_FIELDS))
    if unknown:
        raise InputFormatError(f"unknown config field {unknown[0]!r}; the fields are "
                               + ", ".join(GEN_CONFIG_FIELDS))

    def field(key, kind, default):
        return formats.require_field(obj, key, kind) if key in obj else default

    seed = args.seed if args.seed is not None else field("seed", int, 0)
    mode = args.mode or field("mode", str, "prune_closure")
    group = formats.group_from_json(obj["group"]) if "group" in obj else groups.GroupSpec(1, ())
    return GenConfig(seed=seed, group=group, mode=mode,
                     count=field("count", int, 20), bound=field("bound", int, 50))


def cmd_gen(args, stdin, stdout) -> int:
    cfg = _gen_config(args, _read_json(args, stdin) if args.input else {})
    if cfg.mode == "random_matrix":
        if args.n is None:
            raise InputFormatError("gen --mode random_matrix needs --n")
        m = random_matrix(args.n, cfg.seed)
        _emit(stdout, {"format": FORMAT_VERSION, "matrix": m.tolist()})
        return EXIT_OK
    if cfg.mode == "random_set":
        els = random_set(cfg)
        _emit(stdout, {"format": FORMAT_VERSION, "group": formats.group_to_json(cfg.group),
                       "elements": [groups.coords(x) for x in els]})
        return EXIT_OK
    inst = random_sumfull_set(cfg)
    if inst is None:
        _emit(stdout, {"format": FORMAT_VERSION, "group": formats.group_to_json(cfg.group),
                       "elements": None})
        return EXIT_OK
    _emit(stdout, formats.instance_to_json(inst))
    return EXIT_OK


def _fuzz_seed(cfg: GenConfig) -> Union[None, str, dict]:
    """None when the seed yields no instance, the canonical certificate JSON when
    it round-trips, else the instance JSON as a reproducer."""
    inst = random_sumfull_set(cfg)
    if inst is None:
        return None
    try:
        cert = extract(inst)
        if verify_certificate(cert, inst):
            return dumps_canonical(formats.certificate_to_json(inst, cert))
    except NotSumFullError:
        pass
    return formats.instance_to_json(inst)


def cmd_fuzz(args, stdin, stdout) -> int:
    cfg = _gen_config(args, _read_json(args, stdin) if args.input else {})
    if cfg.mode not in ("prune_closure", "full_nonzero"):
        raise InputFormatError("fuzz supports prune_closure and full_nonzero modes")
    runs = args.n if args.n is not None else 100
    if runs < 1:
        raise InputFormatError(f"fuzz needs --n >= 1, got {runs}")
    if runs * cfg.count > FUZZ_MAX_DRAWS:
        raise BudgetExceeded(f"--n {runs} times count {cfg.count} exceeds the cap {FUZZ_MAX_DRAWS}")
    tasks = [replace(cfg, seed=cfg.seed + k) for k in range(runs)]
    results = [r for r in _map(_fuzz_seed, tasks, args.workers) if r is not None]
    certificates = "".join(r for r in results if isinstance(r, str))
    reproducers = [r for r in results if isinstance(r, dict)]
    payload = {"format": FORMAT_VERSION,
               "runs": runs,
               "instances": len(results),
               "failures": len(reproducers),
               "certificates_sha256": hashlib.sha256(certificates.encode()).hexdigest()}
    if reproducers:
        payload["reproducers"] = reproducers
    _emit(stdout, payload)
    return EXIT_OK if not reproducers else EXIT_INTERNAL


COMMANDS = {
    "check": cmd_check,
    "extract": cmd_extract,
    "verify": cmd_verify,
    "matrix-witness": cmd_matrix_witness,
    "oracle": cmd_oracle,
    "enumerate": cmd_enumerate,
    "sidon": cmd_sidon,
    "quadruple": cmd_quadruple,
    "olson": cmd_olson,
    "audit3": cmd_audit3,
    "gen": cmd_gen,
    "fuzz": cmd_fuzz,
}


def _build_parser() -> argparse.ArgumentParser:
    """Every command takes --input; each other flag goes only to the commands that read it."""
    parser = argparse.ArgumentParser(prog="zerosum",
                                     description="zero-sum subset certificates for sum-full sets")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {name: sub.add_parser(name) for name in COMMANDS}
    for p in cmd.values():
        p.add_argument("--input", help="input JSON path, or - for stdin")
    cmd["oracle"].add_argument("--budget", type=float, help="time cap in seconds")
    cmd["enumerate"].add_argument("--verify-witness", action="store_true")
    for name in ("enumerate", "gen", "fuzz"):
        cmd[name].add_argument("--n", type=int)
    for name in ("enumerate", "fuzz"):
        cmd[name].add_argument("--workers", type=int, default=1)
    for name in ("gen", "fuzz"):
        cmd[name].add_argument("--seed", type=int)
        cmd[name].add_argument("--mode", choices=gen.MODES)
    return parser


PARSER = _build_parser()


def dispatch(argv: list[str], *, stdin: Optional[IO[str]] = None,
             stdout: Optional[IO[str]] = None, stderr: Optional[IO[str]] = None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return COMMANDS[args.command](args, stdin, stdout)
    except InputFormatError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT
    except NotSumFullError as exc:
        _emit(stdout, {"format": FORMAT_VERSION, "sum_full": False,
                       "witness_index": exc.witness_index})
        return EXIT_NOT_SUM_FULL
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_BUDGET
    except InternalVerificationError as exc:
        print(f"internal error: {exc}", file=stderr)
        return EXIT_INTERNAL
    except (MatrixClassError, ShapeMismatch, OverflowError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT


def main(argv: Optional[list[str]] = None) -> None:
    sys.exit(dispatch(sys.argv[1:] if argv is None else argv))
