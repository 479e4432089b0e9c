"""Spans and counters for the traced run, recorded from outside the package.

The tracer replaces public functions at the module attributes their callers
resolve at call time (for example `zerosum.extractor.find_witness`, which
`extract` looks up as a module global) and restores them afterwards.  Spans
nest through a stack: each span's inclusive time is added to its parent's
child time, so self time is inclusive time minus child time.  Totals are kept
in memory per (span name, parent span name).
"""
from __future__ import annotations

import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self.inclusive = defaultdict(float)  # (name, parent) -> seconds
        self.self_time = defaultdict(float)  # (name, parent) -> seconds
        self.calls = defaultdict(int)  # (name, parent) -> number of spans
        self.counts = defaultdict(int)  # counter name -> value
        self._saved: list[tuple[object, str, object]] = []

    # --- wrappers

    def spanned(self, name, fn):
        stack = self._stack
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls

        def wrapped(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                key = (name, parent)
                inclusive[key] += dt
                self_time[key] += dt - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += dt

        return wrapped

    def counted(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # --- installing

    def patch(self, owner, attr: str, make):
        """Replace owner.attr by make(original); a class attribute keeps its descriptor kind."""
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, staticmethod(make(getattr(owner, attr))))
        else:
            setattr(owner, attr, make(raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # --- reading

    def total(self, name: str, parent: object = ..., *, self_only: bool = False) -> float:
        """Seconds in spans called `name`, optionally only those under `parent`."""
        table = self.self_time if self_only else self.inclusive
        return sum((v for (n, p), v in table.items() if n == name and (parent is ... or p == parent)), 0.0)

    def span_count(self, prefix: str) -> int:
        return sum(v for (n, _), v in self.calls.items() if n.startswith(prefix))

    def self_total(self, prefix: str) -> float:
        return sum((v for (n, _), v in self.self_time.items() if n.startswith(prefix)), 0.0)
