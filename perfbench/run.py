"""qrecon benchmark: one workload run, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads, metrics and bounds are
listed in BENCHMARK.json; perfbench/README.md says what each measures.

Tracing off, a run splits ``--seconds`` between a few worker processes
that each set up, run passes of the workload and check every output;
their operations are pooled.  Workers that only set up bring the
``setup_s`` samples to SETUP_SAMPLES.  End-to-end times are scaled to a
reference host speed measured by probes between operations
(hostspeed.py); the raw times are printed beside them.  Tracing on, one
worker runs traced and untraced passes, and ``python -X importtime``
runs IMPORTTIME_REPEATS times in its own process for the import
breakdown.  Every worker is a fresh single-threaded Python process with
src/ on PYTHONPATH; BLAS threading is left as found.

Stdout: readable metric lines, a summary JSON line (the metrics under
workload-specific names, raw and scaled, error rate, failures,
provenance), and as the last line one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import UNITS, end_to_end

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
#: Timed worker processes per run.  A process's memory layout moves its
#: speed by up to ~12 %, so a run pools a few; cli-cold's two each run
#: one of its two whole passes.
TIMED_PROCESSES = {"cli-cold": 2}
DEFAULT_TIMED_PROCESSES = 3
IMPORTTIME_REPEATS = 3
#: A run must end within 180 s; leave room for teardown.
RUN_BUDGET_S = 170.0


def worker_env():
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_worker(args, workdir, deadline, seconds, part=(0, 1), setup_only=False):
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), "--part", str(part[0]), "--parts", str(part[1])]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=worker_env(),
                          capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def parse_importtime(stderr):
    """Seconds spent importing qrecon, and numpy and scipy within it.

    ``-X importtime`` prints one line per module after its imports
    finish, indented two spaces per nesting level.  A package's time is
    the cumulative time of its outermost modules.  numpy modules that
    scipy imports count towards scipy, since dropping scipy saves them.
    """
    entries = []  # [depth, name, cumulative_us, parent]
    pending = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        entry = [(len(raw) - len(raw.lstrip()) - 1) // 2, raw.strip(), int(cumulative), None]
        while pending and pending[-1][0] > entry[0]:
            pending.pop()[3] = entry
        pending.append(entry)
        entries.append(entry)

    def within(entry, packages):
        while entry[3] is not None:
            entry = entry[3]
            if entry[1].split(".")[0] in packages:
                return True
        return False

    outer = {"qrecon": ("qrecon",), "numpy": ("numpy", "scipy"), "scipy": ("scipy",)}
    return {f"import.{package}_s": sum(e[2] for e in entries
                                       if e[1].split(".")[0] == package and not within(e, inside)) / 1e6
            for package, inside in outer.items()}


def import_breakdown(deadline):
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qrecon"],
                              cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("import qrecon failed")
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def provenance(args, worker):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            **worker["versions"], "git_commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "sizes": worker["sizes"], "passes": worker["passes"], "samples": worker["samples"]}


def pool(workers):
    """One result from the timed workers of a run."""
    ops = {}
    for w in workers:
        for kind, rows in w["ops"].items():
            ops.setdefault(kind, []).extend(rows)
    failures = {}
    for w in workers:
        for key, count in w["failures"].items():
            failures[key] = failures.get(key, 0) + count
    return dict(
        workers[0], ops=ops, failures=failures,
        attempted=sum(w["attempted"] for w in workers),
        failed=sum(w["failed"] for w in workers),
        unexpected_failures=sum(w["unexpected_failures"] for w in workers),
        passes=sum(w["passes"] for w in workers),
        samples={kind: len(rows) for kind, rows in ops.items()},
        peak_rss_mb=max(w["peak_rss_mb"] for w in workers),
        host_speed=median_speed(w["host_speed"] for w in workers),
        probe_speeds={name: median_speed(w["probe_speeds"][name] for w in workers)
                      for name in workers[0]["probe_speeds"]},
    )


def median_speed(speeds):
    """Median of the speeds measured; None when no worker probed."""
    speeds = [s for s in speeds if s is not None]
    return statistics.median(speeds) if speeds else None


def run_one(args, spec):
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}"
    try:
        if args.trace:
            worker = run_worker(args, workdir / "run", deadline, args.seconds)
            values = dict(worker["layer"], **import_breakdown(deadline))
            listed = spec["per_layer"]
        else:
            n = TIMED_PROCESSES.get(args.workload, DEFAULT_TIMED_PROCESSES)
            setups = [run_worker(args, workdir / f"setup{k}", deadline, 0, setup_only=True)
                      for k in range(SETUP_SAMPLES - n)]
            timed = [run_worker(args, workdir / f"run{k}", deadline, args.seconds / n, part=(k, n))
                     for k in range(n)]
            worker = pool(timed)
            setups += timed
            kinds = worker["kinds"]
            values, raw = (dict(end_to_end(worker["ops"], kinds["main"], kinds["latency"], kinds["aux"], scaled),
                                peak_rss_mb=worker["peak_rss_mb"]) for scaled in (True, False))
            values["setup_s"] = statistics.median(s["setup_s"] * s["setup_scale"] for s in setups)
            raw["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    # a layer this workload never calls did no work: zero calls, zero time
    default = 0 if args.trace else None
    metrics = {}
    for m in listed:
        value = values.get(m["name"], default)
        if value is None:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted, failed = worker["attempted"], worker["failed"]
    aliases = worker["aliases"]
    summary = {
        "workload": args.workload,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": worker["failures"],
        "metrics": {aliases.get(name, name): m for name, m in metrics.items()},
        "provenance": provenance(args, worker),
    }
    if not args.trace:
        summary["metrics"] = {aliases.get(name, name): {"value": value, "unit": UNITS[name]}
                              for name, value in values.items()}
        summary["metrics"]["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
        summary["raw_metrics"] = {aliases.get(name, name): {"value": value, "unit": UNITS[name]}
                                  for name, value in raw.items()}
        summary["host_speed"] = worker["host_speed"]
        summary["probe_speeds"] = worker["probe_speeds"]
        summary["setup_s_samples"] = [s["setup_s"] for s in setups]
    raw_values = summary.get("raw_metrics", {})
    for name, m in summary["metrics"].items():
        raw_note = f"  (raw {raw_values[name]['value']:.6g})" if name in raw_values else ""
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}{raw_note}")
    print(json.dumps(summary))
    return {"correct": worker["unexpected_failures"] == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args, spec):
    """Each workload in its own run.py process, as the single-workload form."""
    results = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_BUDGET_S + 10)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {w['name']} exited with {proc.returncode}")
        results[w["name"]] = json.loads(proc.stdout.splitlines()[-1])
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qrecon" / "__init__.py").is_file():
        sys.exit(f"error: no qrecon sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        result = run_all(args, spec)
    elif args.workload in names:
        result = run_one(args, spec)
    else:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {names} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
