"""Spans the benchmark records around its own calls into qrecon.

A span is ``[name, start, end, parent, op]``: the called function as
``<module>.<function>``, perf_counter start and end, the index of the
enclosing span (None at top level) and the index of the top-level span
(the operation) it belongs to.  Spans stay in memory until the run ends.
Nothing inside qrecon is instrumented; a span covers one call the
benchmark makes, including whatever qrecon does beneath it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Tracing on: one span per call."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        op = self.spans[parent][4] if parent is not None else len(self.spans)
        span = [name, perf_counter(), 0.0, parent, op]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()


def summarize(spans):
    """Per-name ``calls``, ``busy_s`` and ``self_s``, plus the share of
    operation time that no layer span covers.

    ``self_s`` is a span's duration minus the part its direct children
    cover.  Top-level spans named ``op.<kind>`` are the benchmark's
    operations, not layers: they are left out of the per-name table and
    are the base of the unaccounted share.
    """
    covered = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    table = {}
    op_time = 0.0
    op_covered = 0.0
    for index, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        if name.startswith("op."):
            if parent is None:
                op_time += duration
                op_covered += covered[index]
            continue
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += duration
        row["self_s"] += duration - covered[index]
    unaccounted = (op_time - op_covered) / op_time if op_time > 0 else 0.0
    return table, unaccounted
