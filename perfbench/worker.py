"""One workload run in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR --t0 T [--part K --parts N] [--setup-only]

Needs src/ on PYTHONPATH; run.py starts it.  ``--t0`` is the parent's
time.monotonic() just before the process was spawned, so ``setup_s``
covers interpreter start, imports and input generation.  The last
stdout line is one JSON object with the raw results.

Tracing off: after setup, passes K, K + N, K + 2N, ... run until
``--seconds`` have elapsed (the first pass always completes) and every operation is timed, with
host-speed probes between operations (see hostspeed.py).
Tracing on: untraced and traced passes alternate until ``--seconds``
have elapsed.  A workload with ``PASS_SECONDS`` instead runs a fixed
number of whole passes (pairs, traced), as many as fit in ``--seconds``
at that nominal pass time, so its operations repeat exactly for a given
``--seconds``.  Per-layer metrics come from the spans of set-up and the
first traced pass, so their counts repeat exactly for a seed; the traced/untraced ratio of operation time
over all pairs is the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import sys
import time
from collections import Counter
from time import perf_counter

import numpy as np

from hostspeed import host_speed, scale_now
from tracing import NullTracer, Tracer, summarize
from workloads import WORKLOADS, Recorder


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def fixed_passes(workload, seconds):
    """Whole passes that fit in ``seconds``, for a workload with a fixed
    amount of work per run; None for one that runs until the deadline."""
    if workload.PASS_SECONDS is None:
        return None
    return max(1, int(seconds // workload.PASS_SECONDS))


def timed_run(workload, rec, seconds, part, parts):
    null = NullTracer()
    fixed = fixed_passes(workload, seconds)
    deadline = None if fixed else perf_counter() + seconds
    passes = 0
    while True:
        workload.run_pass(part + passes * parts, rec, null, deadline if passes else None)
        passes += 1
        if passes == fixed or (fixed is None and perf_counter() >= deadline):
            return passes


def traced_run(workload, rec, seconds, tracer):
    """Returns the per-layer metrics and the number of pass pairs run."""
    stats = workload.stats
    fixed = fixed_passes(workload, seconds / 2)
    deadline = perf_counter() + seconds
    untraced_s = traced_s = 0.0
    index = 0
    while True:
        workload.stats = Counter()
        before = rec.op_seconds()
        workload.run_pass(index, rec, NullTracer())
        untraced_s += rec.op_seconds() - before
        workload.stats = stats if index == 0 else Counter()
        before = rec.op_seconds()
        workload.run_pass(index, rec, tracer if index == 0 else Tracer())
        traced_s += rec.op_seconds() - before
        index += 1
        if index == fixed or (fixed is None and perf_counter() >= deadline):
            break
    table, unaccounted = summarize(tracer.spans)
    layer = {f"{name}.{key}": value for name, row in table.items() for key, value in row.items()}
    layer.update(workload.layer_extras(tracer.spans, stats))
    layer.update(workload.memory_probes())
    layer["trace.overhead_ratio"] = traced_s / untraced_s
    layer["trace.unaccounted_share"] = unaccounted
    return layer, index


def peak_rss_mb(workload):
    # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the largest child's
    who = resource.RUSAGE_CHILDREN if workload.RSS_OF_CHILDREN else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def versions():
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    try:
        found = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: found.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    threads = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
            "blas": blas, "blas_thread_env": threads}


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = Tracer() if args.trace else NullTracer()
    workload.setup(tracer)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.trace:
        rec = Recorder()
        result["layer"], result["passes"] = traced_run(workload, rec, args.seconds, tracer)
    else:
        hosts = {name: host_speed(name) for name in set(workload.KIND_PROBES.values())}
        rec = Recorder(host_speed("compute"), {kind: hosts[name] for kind, name in workload.KIND_PROBES.items()})
        result["setup_scale"] = scale_now(rec.host.probe)
        if args.setup_only:
            print(json.dumps(result))
            return 0
        result["passes"] = timed_run(workload, rec, args.seconds, args.part, args.parts)
        result["ops"] = rec.export()
        result["kinds"] = {"main": workload.MAIN, "latency": workload.LATENCY, "aux": workload.AUX}
        result["host_speed"] = rec.host.speed()
        result["probe_speeds"] = {name: host.speed() for name, host in hosts.items()}
        result["peak_rss_mb"] = peak_rss_mb(workload)
    result.update(
        attempted=rec.attempted,
        failed=rec.failed,
        unexpected_failures=sum(rec.unexpected_failures().values()),
        failures=dict(rec.failures),
        samples={kind: len(ops) for kind, ops in rec.ops.items()},
        aliases=workload.ALIASES,
        sizes=workload.sizes(),
        versions=versions(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
