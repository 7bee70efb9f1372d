"""In-memory spans and counters recorded around calls into grouprisk layers.

A span has a name, start and end (``time.perf_counter`` seconds), the
index of the span that was open when it started, and the operation id it
belongs to.  Counters are set per operation.  The benchmark writes them
out when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from typing import NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: str


class NullTracer:
    """Tracer stand-in for untraced runs: calls straight through."""

    op = None

    @contextlib.contextmanager
    def span(self, name):
        yield

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list = []
        self.counts: list = []  # (op, name, value)
        self._open: list = []
        self.op = "setup"

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = Span(name, start, end, parent, self.op)

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, value):
        self.counts.append((self.op, name, value))

    def per_op(self) -> dict:
        """{op: {name: value}}: span seconds summed per name, counters as set."""
        ops: dict = {}
        for s in self.spans:
            row = ops.setdefault(s.op, {})
            row[s.name + ".s"] = row.get(s.name + ".s", 0.0) + (s.end - s.start)
        for op, name, value in self.counts:
            ops.setdefault(op, {})[name] = value
        return ops
