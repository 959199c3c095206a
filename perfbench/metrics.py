"""End-to-end metrics from the operations of one run's workers.

An operation is ``[label, raw_seconds, scaled_seconds, work]``, grouped
by kind; ``scaled_seconds`` is at the reference host speed (hostspeed.py).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict


#: Units of the end-to-end values a run measures.  latency_p90_ms is
#: printed but not gated: over ten runs on the shared host its spread
#: reached 0.24 of its median, too close to any bound.
UNITS = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "aux_path_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def percentile(values, q):
    """Linear-interpolation percentile, as numpy's default."""
    values = sorted(values)
    position = (len(values) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def rate(ops, kinds, column):
    """Work per second of one of each (kind, label) operation, each taking
    its median time: robust to stalls, and independent of where the
    deadline cut the last pass."""
    groups = defaultdict(list)
    for kind in kinds:
        for op in ops.get(kind, []):
            groups[kind, op[0]].append(op)
    seconds = sum(statistics.median(op[column] for op in group) for group in groups.values())
    return sum(group[0][3] for group in groups.values()) / seconds if seconds > 0 else 0.0


def end_to_end(ops, main, latency, aux, scaled):
    column = 2 if scaled else 1
    # a run whose every operation raised has no latencies; it is not correct anyway
    latencies = [op[column] for op in ops.get(latency, [])] or [0.0]
    return {
        "throughput_per_s": rate(ops, main, column),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "aux_path_per_s": rate(ops, [aux], column),
    }
