"""The four benchmark workloads.

A workload builds its inputs from a seed (``setup``), then runs passes
of a fixed sequence of operations in a closed loop (``run_pass``): each
call starts when the previous one has returned.  Every output is
checked; checks run outside the timed operations and make no traced
calls.

Calls into qrecon go through ``tracer.call`` under the name
``<module>.<function>``, and module attributes are looked up at call
time, so a traced run sees every call the benchmark makes and a test
can substitute a wrong function.

End-to-end metrics (metrics.py) are rates and latencies of named
operation kinds: ``MAIN`` kinds give ``throughput_per_s``, ``LATENCY``
gives the percentiles and ``AUX`` gives ``aux_path_per_s``, a second
call path through the same layers so that a trade between the two shows.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import qrecon.cli
from qrecon import fidelity, presets, protocol, stateio, states, wclass

import checks

#: Checks that fail at the parent commit because of input-validation holes
#: listed in ROADMAP item 5.  They count as failed operations; they alone
#: do not make a run incorrect.
KNOWN_DEFECTS = frozenset({"analyze-epsilon-nan", "analyze-epsilon-inf"})

DEGENERACY_TOL = 1e-9
GAP_TOL = 1e-12


class Recorder:
    """Durations, work done and check outcomes of every operation.

    With a ``HostSpeed``, a probe runs between operations (outside their
    timing) so that durations can also be given scaled to the reference
    host speed.  ``hosts`` gives some kinds of operation a ``HostSpeed``
    of their own.
    """

    def __init__(self, host=None, hosts=None):
        self.ops = defaultdict(list)  # kind -> [(label, seconds, work, start)]
        self.attempted = 0
        self.failures = Counter()
        self.host = host
        self.hosts = hosts or {}

    def host_for(self, kind):
        return self.hosts.get(kind, self.host)

    def run(self, tracer, kind, work, body, check, label=None):
        """Time ``body`` as one operation, then check its output.

        ``label`` names the input, so that repeats of one operation can be
        told apart.  An operation that raises or whose check fails counts
        as failed; only operations that returned are timed.  Returns the
        output, or None when the operation raised.
        """
        host = self.host_for(kind)
        if host is not None:
            host.between_ops()
        self.attempted += 1
        where = f"{kind}[{label}]" if label is not None else kind
        start = perf_counter()
        try:
            out = tracer.call("op." + kind, body)
        except Exception as exc:
            self.failures[f"{where}: raised {type(exc).__name__}"] += 1
            return None
        self.ops[kind].append((label, perf_counter() - start, work, start))
        try:
            problem = check(out)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures[f"{where}: {problem}"] += 1
        return out

    @property
    def failed(self):
        return sum(self.failures.values())

    def unexpected_failures(self):
        return {k: v for k, v in self.failures.items() if not _is_known_defect(k)}

    def export(self):
        """Operations as ``{kind: [[label, raw_s, scaled_s, work], ...]}``."""
        def scale(kind, start):
            host = self.host_for(kind)
            return host.scale(start) if host is not None else 1.0

        return {kind: [[label, seconds, seconds * scale(kind, start), work] for label, seconds, work, start in ops]
                for kind, ops in self.ops.items()}

    def op_seconds(self):
        return sum(seconds for ops in self.ops.values() for _, seconds, _, _ in ops)


def _is_known_defect(failure):
    label = failure.partition("[")[2].partition("]")[0]
    return label in KNOWN_DEFECTS


def random_pure(rng):
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    return psi / np.linalg.norm(psi)


def random_mixed(rng, rank):
    g = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def build_presets(tracer):
    return [(name, tracer.call("presets.preset_density", presets.preset_density, name))
            for name in sorted(presets.PRESETS)]


def call_seed(seed, *keys):
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def peak_alloc_mb(fn):
    """tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class Workload:
    MAIN = ()
    LATENCY = ""
    AUX = ""
    #: Workload-specific names of the generic metrics, for the summary line.
    ALIASES = {}
    #: peak_rss_mb is the largest child's, not this process's.
    RSS_OF_CHILDREN = False
    #: Nominal seconds of one pass.  When set, a run is a fixed number of
    #: whole passes (worker.fixed_passes) instead of passes until a deadline.
    PASS_SECONDS = None
    #: The probe (hostspeed.PROBES) that scales each kind of operation
    #: whose host speed the compute probe does not track.
    KIND_PROBES = {}

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.stats = Counter()

    def setup(self, tracer):
        raise NotImplementedError

    def run_pass(self, index, rec, tracer, deadline=None):
        raise NotImplementedError

    def sizes(self):
        """Sample sizes, for the provenance block."""
        return {}

    def layer_extras(self, spans, stats):
        """Per-layer metrics beyond span totals, from one traced pass."""
        return {}

    def memory_probes(self):
        return {}


def _past(deadline):
    return deadline is not None and perf_counter() >= deadline


class AnalyzeSweep(Workload):
    # Why: closed forms only (stateio, states, fidelity, protocol bounds); MC and wclass stay idle.
    name = "analyze-sweep"
    N_RANDOM = 15
    MAIN = ("report",)
    LATENCY = "report"
    AUX = "load"
    ALIASES = {"throughput_per_s": "reports_per_s", "latency_p50_ms": "report_p50_ms",
               "latency_p90_ms": "report_p90_ms", "aux_path_per_s": "state_files_per_s"}

    def setup(self, tracer):
        rng = np.random.default_rng(self.seed)
        inputs = []
        for i, (name, rho) in enumerate(build_presets(tracer)):
            fmt = ("dense", "bloch")[i % 2]
            inputs.append((f"preset-{name}", fmt, rho, None))
        for i in range(self.N_RANDOM):
            fmt = ("pure", "dense", "bloch")[i % 3]
            psi = random_pure(rng) if fmt == "pure" or i % 2 else None
            rho = states.pure_to_density(psi) if psi is not None else random_mixed(rng, 2 + i % 3)
            inputs.append((f"random-{i}", fmt, rho, psi))
        self.files = []
        for label, fmt, rho, psi in inputs:
            if fmt == "pure":
                obj = stateio.pure_to_json(psi)
            elif fmt == "dense":
                obj = stateio.density_to_json(rho)
            else:
                obj = stateio.bloch_to_json(states.decompose_state(rho))
            path = self.workdir / f"{label}.json"
            path.write_text(json.dumps(obj))
            self.files.append((path, rho, _degenerate_settings(rho)))

    def sizes(self):
        return {"state_files": len(presets.PRESETS) + self.N_RANDOM, "settings": len(fidelity.ALL_SETTINGS)}

    def run_pass(self, index, rec, tracer, deadline=None):
        for path, rho, degenerate in self.files:
            if _past(deadline):
                return
            loaded = rec.run(tracer, "load", 1, lambda: _load(tracer, path),
                             lambda out: checks.check_loaded_state(out[0], rho), label=path.stem)
            if loaded is None:
                continue
            thetas = {}
            for setting in fidelity.ALL_SETTINGS:
                rec.run(tracer, "report", 1, lambda: _analyze(tracer, *loaded, setting),
                        lambda out: self._check_report(out, thetas, str(setting) in degenerate),
                        label=f"{path.stem}/{setting}")

    def _check_report(self, out, thetas, degenerate):
        report, bounds = out[0], out[1]
        setting = str(report.setting)
        thetas[setting] = report.theta
        self.stats["reports"] += 1
        self.stats["so3_gap"] += bounds.so3_gap > GAP_TOL
        self.stats["degenerate"] += degenerate
        problem = checks.check_report(*out)
        if problem is None and setting == "CBA" and "ABC" in thetas:
            problem = checks.check_theta_symmetry(thetas["ABC"], report.theta)
        return problem

    def layer_extras(self, spans, stats):
        return {"protocol.so3_gap_share": stats["so3_gap"] / stats["reports"],
                "fidelity.degenerate_share": stats["degenerate"] / stats["reports"],
                "stateio.bytes_read": sum(path.stat().st_size for path, _, _ in self.files)}


def _degenerate_settings(rho):
    """Settings where P + T or P - T is isotropic (all singular values equal,
    so every rotation is optimal: ghz, I/8) or singular (det = 0).  Pure
    states always repeat one pair of singular values, so that alone does
    not count."""
    d = states.decompose_state(rho)
    out = set()
    for setting in fidelity.ALL_SETTINGS:
        p = fidelity.pair_correlation_for_setting(d, setting)
        t = fidelity.t_matrix_for_setting(d, setting)
        for m in (p + t, p - t):
            s = np.linalg.svd(m, compute_uv=False)
            if s[0] - s[-1] < DEGENERACY_TOL or s[-1] < DEGENERACY_TOL:
                out.add(str(setting))
    return out


def _load(tracer, path):
    # validate and decompose once per file, as a caller sharing the
    # decomposition across the six settings does
    rho = tracer.call("stateio.load_state", stateio.load_state, path)
    rho = tracer.call("states.validate_state", states.validate_state, rho)
    return rho, tracer.call("states.decompose_state", states.decompose_state, rho)


def _analyze(tracer, rho, d, setting):
    report = tracer.call("fidelity.full_report", fidelity.full_report, rho, setting)
    bounds = tracer.call("protocol.closed_form_bounds", protocol.closed_form_bounds, d, setting)
    rotations = tracer.call("protocol.optimal_rotations", protocol.optimal_rotations, d, setting)
    text = json.dumps(tracer.call("fidelity.report_to_dict", fidelity.report_to_dict, report))
    return report, bounds, rotations, text


class OracleMC(Workload):
    # Why: the MC kernel does >95% of the work; analyze-sweep is its no-change control.
    name = "oracle-mc"
    SMALL = 3_000    # one partial chunk: not a multiple of the 8192 chunk
    LARGE = 50_000   # 6 full chunks and a partial one, so memory growth with n shows
    N_PURE = 3
    N_MIXED = 3
    MAIN = ("mc", "mc_large")
    LATENCY = "mc"
    AUX = "exact"
    KIND_PROBES = {"mc": "stream", "mc_large": "stream"}
    ALIASES = {"throughput_per_s": "mc_samples_per_s", "latency_p50_ms": "mc_call_p50_ms",
               "latency_p90_ms": "mc_call_p90_ms", "aux_path_per_s": "exact_calls_per_s"}

    def setup(self, tracer):
        rng = np.random.default_rng(self.seed)
        self.states = [rho for _, rho in build_presets(tracer)]
        self.states += [states.pure_to_density(random_pure(rng)) for _ in range(self.N_PURE)]
        self.states += [random_mixed(rng, 2 + i) for i in range(self.N_MIXED)]
        self._f_so3 = {}

    def sizes(self):
        return {"states": len(self.states), "mc_samples_small": self.SMALL, "mc_samples_large": self.LARGE}

    def f_so3(self, i, setting):
        key = (i, str(setting))
        if key not in self._f_so3:
            d = states.decompose_state(self.states[i])
            self._f_so3[key] = protocol.closed_form_bounds(d, setting).f_so3
        return self._f_so3[key]

    def run_pass(self, index, rec, tracer, deadline=None):
        # the large call goes to a random state, rotating the setting
        i = len(self.states) - 1 - index % (self.N_PURE + self.N_MIXED)
        setting = fidelity.ALL_SETTINGS[index % 6]
        self._mc(rec, tracer, "mc_large", i, setting, self.LARGE, call_seed(self.seed, index, 0xB16), "large")
        for i, rho in enumerate(self.states):
            if _past(deadline):
                return
            setting = fidelity.ALL_SETTINGS[(i + index) % 6]
            self._mc(rec, tracer, "mc", i, setting, self.SMALL, call_seed(self.seed, index, i), i)
            rec.run(tracer, "exact", 1,
                    lambda: tracer.call("protocol.expected_fidelity_exact",
                                        protocol.expected_fidelity_exact, rho, setting),
                    lambda value: checks.check_exact(value, self.f_so3(i, setting)), label=i)

    def _mc(self, rec, tracer, kind, i, setting, n, seed, label):
        rho = self.states[i]
        self.stats["samples"] += n
        rec.run(tracer, kind, n,
                lambda: tracer.call("protocol.expected_fidelity_mc", protocol.expected_fidelity_mc,
                                    rho, setting, n_samples=n, seed=seed),
                lambda result: checks.check_mc(result, self.f_so3(i, setting), n), label=label)

    def layer_extras(self, spans, stats):
        busy = sum(e - s for name, s, e, _, _ in spans if name == "protocol.expected_fidelity_mc")
        return {"protocol.expected_fidelity_mc.samples": stats["samples"],
                "protocol.mc_s_per_1e5": busy / stats["samples"] * 1e5}

    def memory_probes(self):
        rho, setting = self.states[-1], fidelity.ALL_SETTINGS[0]
        small = peak_alloc_mb(lambda: protocol.expected_fidelity_mc(rho, setting, n_samples=self.SMALL))
        large = peak_alloc_mb(lambda: protocol.expected_fidelity_mc(rho, setting, n_samples=self.LARGE))
        return {"protocol.mc_peak_alloc_small_mb": small,
                "protocol.mc_peak_alloc_large_mb": large,
                "protocol.mc_alloc_bytes_per_sample": (large - small) * 2**20 / (self.LARGE - self.SMALL)}


class ScatterCSV(Workload):
    # Why: wclass SVDs and CSV text, with the record path beside the CSV path at one (n, seed).
    name = "scatter-csv"
    N = 5_000
    REDERIVED = 4
    MAIN = ("csv",)
    LATENCY = "csv"
    AUX = "records"
    ALIASES = {"throughput_per_s": "scatter_rows_per_s", "latency_p50_ms": "csv_call_p50_ms",
               "latency_p90_ms": "csv_call_p90_ms", "aux_path_per_s": "scatter_records_per_s"}

    def setup(self, tracer):
        self.path = self.workdir / "scatter.csv"

    def sizes(self):
        return {"rows_per_call": self.N}

    def run_pass(self, index, rec, tracer, deadline=None):
        n, seed = self.N, call_seed(self.seed, index)
        lam = rec.run(tracer, "sample", n,
                      lambda: tracer.call("wclass.sample_wclass", wclass.sample_wclass, n, seed),
                      lambda out: checks.check_sample(out, n))
        text = rec.run(tracer, "csv_text", n,
                       lambda: tracer.call("wclass.scatter_csv_text", wclass.scatter_csv_text, n, seed),
                       lambda out: checks.check_scatter_csv(out, n))
        rec.run(tracer, "csv", n,
                lambda: tracer.call("wclass.write_scatter_csv", wclass.write_scatter_csv, self.path, n, seed),
                lambda _: self._check_file(text, n))
        rec.run(tracer, "records", n,
                lambda: tracer.call("wclass.scatter_experiment", wclass.scatter_experiment, n, seed),
                lambda records: self._check_records(records, lam, n, seed))

    def _check_file(self, text, n):
        written = self.path.read_bytes()
        self.stats["csv_bytes"] += len(written)
        problem = checks.check_scatter_csv(written.decode(), n)
        if problem is None and text is not None and written != text.encode():
            problem = "written CSV differs from scatter_csv_text"
        return problem

    def _check_records(self, records, lam, n, seed):
        problem = checks.check_records_match_csv(records, self.path.read_text(), n)
        if problem is None and lam is not None:
            params = np.array([[r.params.lambda0, r.params.lambda1, r.params.lambda2, r.params.lambda3]
                               for r in records])
            if not np.array_equal(params, lam):
                problem = "record parameters differ from sample_wclass"
        rng = np.random.default_rng(seed)
        for k in rng.choice(n, size=self.REDERIVED, replace=False):
            if problem is not None:
                break
            rho = states.pure_to_density(wclass.wclass_state(records[k].params))
            problem = checks.check_rederived(records[k], fidelity.full_report(rho))
        return problem

    def layer_extras(self, spans, stats):
        return {"wclass.csv_bytes": stats["csv_bytes"]}

    def memory_probes(self):
        n, seed = self.N, call_seed(self.seed, 0)
        csv_mb = peak_alloc_mb(lambda: wclass.write_scatter_csv(self.path, n, seed))
        records_mb = peak_alloc_mb(lambda: wclass.scatter_experiment(n, seed))
        return {"wclass.write_scatter_csv.peak_alloc_mb": csv_mb,
                "wclass.scatter_experiment.peak_alloc_mb": records_mb}


class CLICold(Workload):
    # Why: what a shell user pays (interpreter start, import) and the documented exit codes.
    name = "cli-cold"
    MC_SAMPLES = 2_000
    SCATTER_ROWS = 2_000
    CLASSICAL_SAMPLES = 20_000
    IN_PROCESS_REPEATS = 10  # in-process calls are short; repeat them for a steady median
    MAIN = ("cli",)
    LATENCY = "cli"
    AUX = "cli_inproc"
    RSS_OF_CHILDREN = True
    # whole passes only: every run then attempts the same commands and fails
    # the same known-defect ones, so error_rate is exactly 2/17 while they persist
    PASS_SECONDS = 12.0
    KIND_PROBES = {"cli": "startup"}
    ALIASES = {"throughput_per_s": "cli_cmds_per_s", "latency_p50_ms": "cli_cmd_p50_ms",
               "latency_p90_ms": "cli_cmd_p90_ms", "aux_path_per_s": "cli_inprocess_cmds_per_s"}

    def setup(self, tracer):
        rng = np.random.default_rng(self.seed)
        w = self.workdir
        names = [name for name, _ in build_presets(tracer)]
        files = {
            "pure": stateio.pure_to_json(random_pure(rng)),
            "dense": stateio.density_to_json(random_mixed(rng, 3)),
            "bloch": stateio.bloch_to_json(states.decompose_state(random_mixed(rng, 2))),
            "invalid": stateio.density_to_json(np.diag([1.25, -0.25, 0, 0, 0, 0, 0, 0]).astype(complex)),
        }
        for kind, obj in files.items():
            (w / f"{kind}.json").write_text(json.dumps(obj))
        (w / "malformed.json").write_text('{"pure": [[1, 0], ')
        settings = [str(s) for s in fidelity.ALL_SETTINGS]

        def pick(options):
            return options[int(rng.integers(len(options)))]

        seed = str(int(rng.integers(2**31)))
        self.csv_path = w / "cli_scatter.csv"
        commands = [
            ("analyze-ghz", ["analyze", "--preset", "ghz"], 0),
            ("analyze-preset", ["analyze", "--preset", pick(names), "--setting", pick(settings)], 0),
            ("analyze-pure", ["analyze", "--state", str(w / "pure.json"), "--setting", pick(settings)], 0),
            ("analyze-dense", ["analyze", "--state", str(w / "dense.json"), "--setting", pick(settings)], 0),
            ("analyze-bloch", ["analyze", "--state", str(w / "bloch.json"), "--setting", pick(settings)], 0),
            ("oracle", ["oracle", "--preset", pick(names), "--setting", pick(settings),
                        "--samples", str(self.MC_SAMPLES), "--seed", seed], 0),
            ("scatter", ["scatter", "--samples", str(self.SCATTER_ROWS), "--seed", seed,
                         "--out", str(self.csv_path)], 0),
            ("classical", ["classical", "--p", f"{rng.uniform(0.05, 0.95):.3f}",
                           "--strategy", pick(["same", "negate"]),
                           "--samples", str(self.CLASSICAL_SAMPLES), "--seed", seed], 0),
            ("missing-file", ["analyze", "--state", str(w / "absent.json")], 3),
            ("malformed-file", ["analyze", "--state", str(w / "malformed.json")], 2),
            ("invalid-state", ["analyze", "--state", str(w / "invalid.json")], 2),
            ("unknown-preset", ["analyze", "--preset", "no-such-state"], 2),
            ("bad-setting", ["oracle", "--preset", "w", "--setting", "ABA"], 2),
            ("zero-samples", ["scatter", "--samples", "0"], 2),
            ("unwritable-out", ["analyze", "--preset", "w", "--out", str(w / "absent" / "out.json")], 3),
            ("analyze-epsilon-nan", ["analyze", "--preset", "mixed", "--epsilon", "nan"], 2),
            ("analyze-epsilon-inf", ["analyze", "--preset", "mixed", "--epsilon", "inf"], 2),
        ]
        # in a fixed order: a subprocess's time depends on the in-process work
        # just before it, so a seeded order made the seed move the figures
        self.commands = commands

    def sizes(self):
        return {"commands_per_pass": len(self.commands), "oracle_samples": self.MC_SAMPLES,
                "scatter_rows": self.SCATTER_ROWS, "classical_samples": self.CLASSICAL_SAMPLES}

    def run_pass(self, index, rec, tracer, deadline=None):
        for label, argv, expected in self.commands:
            if _past(deadline):
                return
            output = "csv" if argv[0] == "scatter" else "json"
            rec.run(tracer, "cli", 1,
                    lambda: tracer.call("cli.subprocess", _subprocess, argv),
                    lambda out: self._check(out, expected, output), label=label)
            for _ in range(self.IN_PROCESS_REPEATS):
                rec.run(tracer, "cli_inproc", 1,
                        lambda: tracer.call(f"cli.{argv[0]}", _in_process, argv),
                        lambda out: self._check(out, expected, output, count=False), label=label)

    def _check(self, out, expected, output, count=True):
        code, stdout = out
        problem = checks.check_cli(code, expected, stdout, output)
        if count and code != expected:
            self.stats["exit_code_mismatches"] += 1
        if problem is None and expected == 0 and output == "csv":
            problem = checks.check_scatter_csv(self.csv_path.read_text(), self.SCATTER_ROWS)
        return problem

    def layer_extras(self, spans, stats):
        # subprocess wall minus the same argv in process: interpreter start,
        # imports and teardown
        calls = [(name, end - start) for name, start, end, _, _ in spans if name.startswith("cli.")]
        extra = [sub - inproc for (first, sub), (second, inproc) in zip(calls, calls[1:])
                 if first == "cli.subprocess" and second != "cli.subprocess"]
        return {"cli.interpreter_s": statistics.median(extra),
                "cli.exit_code_mismatches": stats["exit_code_mismatches"]}


def _subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "qrecon.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qrecon.cli.main(argv)
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (AnalyzeSweep, OracleMC, ScatterCSV, CLICold)}
