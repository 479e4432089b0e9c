"""Where the traced run hooks into each layer of the package, and what it reports.

Every hook replaces a public function at the module attribute its callers
resolve at call time, so no source file of the package changes.  The layer
metrics are read from two tracers: one installed during set-up, one during
the traced rounds.
"""
from __future__ import annotations

import tracemalloc

from zerosum import char3, cli, extractor, formats, gen, groups, oracle, sumfull, witness

from tracer import Tracer

# find_witness is rerun under tracemalloc, apart from timing, on at most this
# many of the largest matrices the traced rounds handed it.
PEAK_MATRICES = 4


class MatrixKeeper:
    """The largest matrices find_witness was handed, kept for the memory pass."""

    def __init__(self, limit: int = PEAK_MATRICES):
        self.limit = limit
        self.kept: list = []

    def offer(self, m) -> None:
        if len(self.kept) < self.limit:
            self.kept.append(m)
            return
        smallest = min(range(self.limit), key=lambda k: self.kept[k].n)
        if m.n > self.kept[smallest].n:
            self.kept[smallest] = m

    def find_peak_mb(self) -> float:
        peak = 0
        for m in self.kept:
            tracemalloc.start()
            try:
                witness.find_witness(m)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2**20


def install(tr: Tracer, keeper: MatrixKeeper | None = None) -> None:
    span, counts = tr.spanned, tr.counts

    def dispatch_by_command(fn):
        # One span name per CLI command, so format spans can be told apart by parent.
        by_command: dict = {}

        def wrapped(argv, **kwargs):
            name = "cli." + argv[0]
            if name not in by_command:
                by_command[name] = span(name, fn)
            return by_command[name](argv, **kwargs)

        return wrapped

    def scan_counted(fn):
        def wrapped(a):
            table = fn(a)
            reps = getattr(table, "reps", None)
            if reps is not None:
                counts["sumfull.scan_len"] += sum(i + 1 for i, _ in reps)
            return table

        return wrapped

    def stepped(fn):
        def hook(cur, idx):
            counts["witness.steps"] += 1

        def wrapped(m, **kwargs):
            if keeper is not None:
                keeper.offer(m)
            return fn(m, trace=hook)

        return wrapped

    def drawn(fn):
        def wrapped(cfg):
            inst = fn(cfg)
            counts["gen.draws"] += 1
            counts["gen.kept"] += inst is not None
            return inst

        return wrapped

    def consumed(fn):
        return lambda *args, **kwargs: list(fn(*args, **kwargs))

    tr.patch(cli, "dispatch", dispatch_by_command)
    for attr in ("instance_from_json", "certificate_to_json", "certificate_from_json"):
        tr.patch(formats, attr, lambda fn, attr=attr: span("formats." + attr, fn))
    tr.patch(cli, "dumps_canonical", lambda fn: span("formats.dumps_canonical", fn))
    tr.patch(cli, "extract", lambda fn: span("extractor.extract", fn))
    tr.patch(cli, "verify_certificate", lambda fn: span("extractor.verify_certificate", fn))
    tr.patch(sumfull.InputSet, "from_elements", lambda fn: span("sumfull.from_elements", fn))
    for module in (extractor, char3, gen):
        tr.patch(module, "check_sum_full",
                 lambda fn: span("sumfull.check_sum_full", scan_counted(fn)))
    tr.patch(extractor, "verify_table", lambda fn: span("sumfull.verify_table", fn))
    tr.patch(extractor, "build_matrix", lambda fn: span("extractor.build_matrix", fn))
    for module in (extractor, witness):
        tr.patch(module, "find_witness", lambda fn: span("witness.find_witness", stepped(fn)))
        tr.patch(module, "verify_witness", lambda fn: span("witness.verify_witness", fn))
    tr.patch(groups, "add", lambda fn: tr.counted("groups.add", fn))
    tr.patch(groups, "negate", lambda fn: tr.counted("groups.negate", fn))
    tr.patch(gen, "prune_to_sumfull", lambda fn: span("gen.prune_to_sumfull", fn))
    tr.patch(gen, "random_sumfull_set", lambda fn: span("gen.random_sumfull_set", drawn(fn)))
    tr.patch(oracle, "enumerate_class", lambda fn: span("oracle.enumerate_class", consumed(fn)))
    for attr in ("chain_extract", "is_sidon", "subgroup_closure", "audit_char3"):
        tr.patch(char3, attr, lambda fn, attr=attr: span("char3." + attr, fn))


# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
UNITS = {
    "cli.self_ms": "ms",
    "formats.instance_decode_s": "s",
    "formats.cert_encode_s": "s",
    "formats.cert_decode_s": "s",
    "sumfull.canonicalise_s": "s",
    "sumfull.check_s": "s",
    "sumfull.scan_len": "count",
    "sumfull.verify_table_s": "s",
    "extractor.build_matrix_s": "s",
    "extractor.extract_self_s": "s",
    "extractor.verify_self_s": "s",
    "witness.find_s": "s",
    "witness.verify_s": "s",
    "witness.steps": "count",
    "witness.find_peak_mb": "MB",
    "groups.add_calls": "count",
    "groups.negate_calls": "count",
    "setup.groups.add_calls": "count",
    "setup.sumfull.check_s": "s",
    "gen.prune_s": "s",
    "gen.draws": "count",
    "gen.kept": "count",
    "oracle.enumerate_s": "s",
    "char3.chain_s": "s",
    "char3.sidon_s": "s",
    "char3.closure_s": "s",
    "char3.audit_s": "s",
    "trace.overhead_pct": "%",
    "trace.prove_p50_delta_ms": "ms",
    "trace.verify_p50_delta_ms": "ms",
}


def layer_values(setup_tr: Tracer, round_tr: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures: round figures are per round, set-up figures per set-up."""
    rt, st = round_tr, setup_tr

    def per_round(x: float) -> float:
        return x / rounds

    dispatches = rt.span_count("cli.")
    return {
        "cli.self_ms": rt.self_total("cli.") / dispatches * 1e3 if dispatches else 0.0,
        "formats.instance_decode_s": per_round(rt.total("formats.instance_from_json", "cli.extract")),
        "formats.cert_encode_s": per_round(rt.total("formats.certificate_to_json", "cli.extract")
                                           + rt.total("formats.dumps_canonical", "cli.extract")),
        "formats.cert_decode_s": per_round(rt.total("formats.certificate_from_json", "cli.verify")),
        "sumfull.canonicalise_s": per_round(rt.total("sumfull.from_elements")),
        "sumfull.check_s": per_round(rt.total("sumfull.check_sum_full")),
        "sumfull.scan_len": per_round(rt.counts["sumfull.scan_len"]),
        "sumfull.verify_table_s": per_round(rt.total("sumfull.verify_table")),
        "extractor.build_matrix_s": per_round(rt.total("extractor.build_matrix")),
        "extractor.extract_self_s": per_round(rt.total("extractor.extract", self_only=True)),
        "extractor.verify_self_s": per_round(rt.total("extractor.verify_certificate", self_only=True)),
        "witness.find_s": per_round(rt.total("witness.find_witness")),
        "witness.verify_s": per_round(rt.total("witness.verify_witness")),
        "witness.steps": per_round(rt.counts["witness.steps"]),
        "groups.add_calls": per_round(rt.counts["groups.add"]),
        "groups.negate_calls": per_round(rt.counts["groups.negate"]),
        "setup.groups.add_calls": float(st.counts["groups.add"]),
        "setup.sumfull.check_s": st.total("sumfull.check_sum_full"),
        "gen.prune_s": st.total("gen.prune_to_sumfull"),
        "gen.draws": float(st.counts["gen.draws"]),
        "gen.kept": float(st.counts["gen.kept"]),
        "oracle.enumerate_s": st.total("oracle.enumerate_class"),
        # Only calls the benchmark makes itself: audit_char3 also calls the others.
        "char3.chain_s": per_round(rt.total("char3.chain_extract", None)),
        "char3.sidon_s": per_round(rt.total("char3.is_sidon", None)),
        "char3.closure_s": per_round(rt.total("char3.subgroup_closure", None)),
        "char3.audit_s": per_round(rt.total("char3.audit_char3", None)),
    }
