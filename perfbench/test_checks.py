"""The benchmark's own tests: its checks reject wrong results.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import run
import workloads
from tracing import NullTracer, Tracer
from worker import timed_run, traced_run

from qrecon import protocol, wclass

ROOT = Path(__file__).resolve().parent.parent


def _mc_result(mean, std_error=1e-3, n=1000):
    branch = SimpleNamespace(probability=1 / 8)
    return SimpleNamespace(mean=mean, std_error=std_error, n_samples=n, per_branch=(branch,) * 8)


def test_mc_band_accepts_within_and_rejects_outside():
    assert checks.check_mc(_mc_result(0.8 + 5e-3), 0.8, 1000) is None
    assert checks.check_mc(_mc_result(0.8 + 7e-3), 0.8, 1000) is not None
    assert checks.check_mc(_mc_result(0.8, n=999), 0.8, 1000) is not None
    # zero spread (ghz, I/8): the band is floored, not zero
    assert checks.check_mc(_mc_result(1.0 + 1e-12, std_error=0.0), 1.0, 1000) is None
    assert checks.check_mc(_mc_result(1.0 + 1e-6, std_error=0.0), 1.0, 1000) is not None


def test_scatter_csv_rejects_truncation_and_bad_header():
    text = wclass.scatter_csv_text(50, 3)
    assert checks.check_scatter_csv(text, 50) is None
    truncated = text[: text.rindex("\n", 0, len(text) - 1) + 1]
    assert checks.check_scatter_csv(truncated, 50) is not None
    assert checks.check_scatter_csv(text.replace("f_recon", "f_rec", 1), 50) is not None


def test_records_must_match_csv():
    text = wclass.scatter_csv_text(40, 5)
    records = wclass.scatter_experiment(40, 5)
    assert checks.check_records_match_csv(records, text, 40) is None
    other = wclass.scatter_experiment(40, 6)
    assert checks.check_records_match_csv(other, text, 40) is not None


def test_report_checks_reject_perturbed_fmax():
    report = SimpleNamespace(theta=2.0, f_max=(1 + 2.0 / 3) / 2, setting="ABC")
    bounds = SimpleNamespace(f_trace_norm=report.f_max, so3_gap=0.0)
    text = json.dumps({"theta": 2.0, "setting": "ABC"})
    assert checks.check_report(report, bounds, (None,) * 8, text) is None
    wrong = SimpleNamespace(theta=2.0, f_max=report.f_max + 1e-9, setting="ABC")
    assert checks.check_report(wrong, bounds, (None,) * 8, text) is not None
    assert checks.check_theta_symmetry(2.0, 2.0 + 1e-9) is not None


def test_cli_check_rejects_wrong_exit_code_and_bad_json():
    assert checks.check_cli(0, 2, "{}", "json") == "exit 0, expected 2"
    assert checks.check_cli(2, 2, "", "json") is None
    with pytest.raises(json.JSONDecodeError):
        checks.check_cli(0, 0, "not json", "json")


def test_known_defects_count_as_failed_but_not_unexpected():
    rec = workloads.Recorder()
    rec.run(NullTracer(), "cli", 1, lambda: (0, ""), lambda out: checks.check_cli(*out, 2, "json"),
            label="analyze-epsilon-nan")
    assert rec.failed == 1 and rec.unexpected_failures() == {}
    rec.run(NullTracer(), "cli", 1, lambda: (0, ""), lambda out: checks.check_cli(*out, 2, "json"),
            label="zero-samples")
    assert rec.failed == 2 and len(rec.unexpected_failures()) == 1


def test_fixed_pass_workload_repeats_its_operations_whatever_the_host_speed():
    class Counting(workloads.Workload):
        PASS_SECONDS = 10.0

        def run_pass(self, index, rec, tracer, deadline=None):
            assert deadline is None  # whole passes, never cut
            rec.run(tracer, "op", 1, lambda: index, lambda out: None, label=index)

    for seconds, passes in ((25, 2), (5, 1), (60, 6)):
        rec = workloads.Recorder()
        assert timed_run(Counting(1, "."), rec, seconds, 0, 1) == passes
        assert rec.attempted == passes
    rec = workloads.Recorder()
    assert traced_run(Counting(1, "."), rec, 45, Tracer())[1] == 2
    assert rec.attempted == 4


def test_kinds_with_a_probe_of_their_own_are_scaled_by_it():
    class Fixed:
        def __init__(self, factor):
            self.factor = factor

        def between_ops(self):
            pass

        def scale(self, t):
            return self.factor

    rec = workloads.Recorder(Fixed(2.0), {"cli": Fixed(0.5)})
    for kind in ("cli", "cli_inproc"):
        rec.run(NullTracer(), kind, 1, lambda: 0, lambda out: None)
    ops = rec.export()
    assert ops["cli"][0][2] == 0.5 * ops["cli"][0][1]
    assert ops["cli_inproc"][0][2] == 2.0 * ops["cli_inproc"][0][1]


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads.OracleMC, "SMALL", 400)
    monkeypatch.setattr(workloads.OracleMC, "LARGE", 900)
    monkeypatch.setattr(workloads.ScatterCSV, "N", 300)


def _one_pass(name, tmp_path):
    w = workloads.WORKLOADS[name](7, tmp_path)
    w.setup(NullTracer())
    rec = workloads.Recorder()
    w.run_pass(0, rec, NullTracer())
    return rec


@pytest.mark.parametrize("name", ["analyze-sweep", "oracle-mc", "scatter-csv"])
def test_correct_program_passes_every_check(name, tmp_path, small):
    rec = _one_pass(name, tmp_path)
    assert rec.attempted > 0 and rec.failures == Counter()


def test_perturbed_mc_mean_raises_error_rate(tmp_path, small, monkeypatch):
    real = protocol.expected_fidelity_mc

    def biased(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, mean=result.mean + 0.3)

    monkeypatch.setattr(protocol, "expected_fidelity_mc", biased)
    rec = _one_pass("oracle-mc", tmp_path)
    assert rec.failed == len(rec.ops["mc"]) + len(rec.ops["mc_large"]) > 0


def test_truncated_csv_raises_error_rate(tmp_path, small, monkeypatch):
    real = wclass.write_scatter_csv

    def truncating(path, n, seed=42):
        real(path, n - 1, seed)

    monkeypatch.setattr(wclass, "write_scatter_csv", truncating)
    rec = _one_pass("scatter-csv", tmp_path)
    assert rec.failed >= 1 and sum(rec.unexpected_failures().values()) == rec.failed


def test_traced_run_counts_repeat_and_cover_per_layer_names(tmp_path, small):
    produced = set()
    for name in ("analyze-sweep", "oracle-mc", "scatter-csv"):
        layers = []
        for k in range(2):
            w = workloads.WORKLOADS[name](11, tmp_path / f"{name}{k}")
            w.workdir.mkdir()
            tracer = Tracer()
            w.setup(tracer)
            layers.append(traced_run(w, workloads.Recorder(), 0.0, tracer)[0])
        counts = [{k: v for k, v in layer.items()
                   if isinstance(v, int) or (k.endswith("_share") and not k.startswith("trace."))}
                  for layer in layers]
        assert counts[0] == counts[1]
        produced |= set(layers[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced |= {"import.qrecon_s", "import.numpy_s", "import.scipy_s", "cli.interpreter_s",
                 "cli.exit_code_mismatches"} | {f"cli.{c}.busy_s" for c in ("analyze", "oracle", "scatter", "classical")}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_importtime_attribution():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy.core",
        "import time:       100 |        110 |     numpy",
        "import time:         5 |          5 |         numpy.testing",
        "import time:       200 |        205 |       scipy.spatial",
        "import time:         1 |        206 |     scipy.spatial.transform",
        "import time:         4 |        320 |   qrecon",
    ])
    assert run.parse_importtime(stderr) == pytest.approx(
        {"import.qrecon_s": 320e-6, "import.numpy_s": 110e-6, "import.scipy_s": 206e-6})
