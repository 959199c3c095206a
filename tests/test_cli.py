import argparse
import ast
import gc
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import qrecon.cli
from qrecon.cli import MAX_SAMPLES, SETTING_CHOICES, _json, build_parser, main
from qrecon.fidelity import ALL_SETTINGS
from qrecon.presets import PRESETS, preset_density
from qrecon.states import PSD_FLOOR, NotPSDError, decompose_state, validate_state
from qrecon.stateio import bloch_to_json, density_to_json, load_state, parse_state, pure_to_json
from qrecon import protocol, wclass
from qrecon.wclass import scatter_csv_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_ghz_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--preset", "ghz")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["theta"] - 3.0) <= 1e-12
        assert abs(payload["f_max"] - 1.0) <= 1e-12
        assert abs(payload["f_tele_dealer_reconstructor"] - 2 / 3) <= 1e-12
        assert payload["case_label"] == "case1"
        assert payload["qss_ok"] is True
        assert payload["setting"] == "ABC"

    def test_setting_flag(self, capsys):
        code_abc, out_abc, _ = run_cli(capsys, "analyze", "--preset", "wexample3")
        code_cba, out_cba, _ = run_cli(capsys, "analyze", "--preset", "wexample3", "--setting", "CBA")
        assert code_abc == code_cba == 0
        # reversing dealer and reconstructor transposes both matrices: theta unchanged
        assert json.loads(out_abc)["theta"] == pytest.approx(json.loads(out_cba)["theta"], abs=1e-12)
        assert json.loads(out_cba)["setting"] == "CBA"

    def test_epsilon_flag_relabels(self, capsys):
        _, strict, _ = run_cli(capsys, "analyze", "--preset", "gamma-mix")
        _, loose, _ = run_cli(capsys, "analyze", "--preset", "gamma-mix", "--epsilon", "1.0")
        assert json.loads(strict)["case_label"] == "case2"
        assert json.loads(loose)["case_label"] == "case4"

    def test_state_file_matches_preset(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(density_to_json(preset_density("beta-mix"))))
        code, out, _ = run_cli(capsys, "analyze", "--state", str(path))
        assert code == 0
        _, preset_out, _ = run_cli(capsys, "analyze", "--preset", "beta-mix")
        assert json.loads(out) == json.loads(preset_out)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", "--preset", "w", "--out", str(target))
        assert code == 0 and out == ""
        assert abs(json.loads(target.read_text())["theta"] - 7 / 3) <= 1e-12

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--state", str(tmp_path / "absent.json"))
        assert code == 3 and "I/O" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, _, err = run_cli(capsys, "analyze", "--state", str(path))
        assert code == 2 and err

    @pytest.mark.parametrize("depth", [500, 100_000])
    def test_deeply_nested_state_file_exits_2(self, capsys, tmp_path, depth):
        # 500 levels decode and fail as a shape error; 100 000 overflow the decoder's recursion limit
        path = tmp_path / "deep.json"
        path.write_text('{"pure": ' + "[" * depth + "]" * depth + "}")
        code, out, err = run_cli(capsys, "analyze", "--state", str(path))
        assert code == 2 and out == "" and err.startswith("error:")

    def test_invalid_state_exits_2(self, capsys, tmp_path):
        path = tmp_path / "unphysical.json"
        psi = np.zeros(8)
        psi[0] = 2.0
        path.write_text(json.dumps(pure_to_json(psi)))
        code, _, _ = run_cli(capsys, "analyze", "--state", str(path))
        assert code == 2

    @pytest.mark.parametrize("excess, expected", [(9e-10, 0), (2e-9, 2)])
    def test_state_at_the_psd_floor(self, capsys, tmp_path, excess, expected):
        # lowest eigenvalue -excess against the floor -1e-9; a_z = 1 + 2 excess, past 1
        rho = np.zeros((8, 8))
        rho[0, 0], rho[4, 4] = 1.0 + excess, -excess
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(density_to_json(rho)))
        for argv in (["analyze"], ["oracle", "--samples", "100"]):
            code, out, err = run_cli(capsys, *argv, "--state", str(path))
            assert code == expected, err
            if expected == 2:
                assert err.startswith("error: lowest eigenvalue") and out == ""
        if expected == 2:
            with pytest.raises(NotPSDError):
                load_state(path)

    @pytest.mark.parametrize("negatives", [0, 1, 7])
    def test_admitted_state_loads_from_its_bloch_file(self, capsys, tmp_path, negatives):
        # a bloch file holds every coefficient an admitted matrix has: diag(1 + 9e-10, 0, 0, 0, -9e-10, 0, 0, 0),
        # and unit-trace diagonal states with 1 or 7 eigenvalues just above the PSD floor
        if negatives:
            low = 0.99 * PSD_FLOOR
            rho = np.diag([1.0 - negatives * low] + [low] * negatives + [0.0] * (7 - negatives))
        else:
            rho = np.zeros((8, 8))
            rho[0, 0], rho[4, 4] = 1.0 + 9e-10, -9e-10
        obj = bloch_to_json(decompose_state(validate_state(rho)))
        assert np.abs(parse_state(obj) - rho).max() <= 1e-12
        path = tmp_path / "bloch.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "analyze", "--state", str(path))
        assert code == 0 and err == "" and json.loads(out)["setting"] == "ABC"

    @pytest.mark.parametrize("value, message", [(1.5, "error: a has entry of magnitude 1.500000 outside [-1, 1]\n"),
                                                (float("nan"), "error: a has a non-finite entry\n")], ids=["1.5", "nan"])
    def test_bloch_field_out_of_range_exits_2(self, capsys, tmp_path, value, message):
        obj = bloch_to_json(decompose_state(np.eye(8) / 8))
        obj["bloch"]["a"][0] = value
        path = tmp_path / "bloch.json"
        path.write_text(json.dumps(obj))
        assert run_cli(capsys, "analyze", "--state", str(path)) == (2, "", message)

    @pytest.mark.parametrize("kind", ["pure", "bloch"])
    def test_non_finite_state_file_exits_2(self, capsys, tmp_path, kind):
        if kind == "pure":
            obj = pure_to_json(np.eye(8)[0])
            obj["pure"][0][1] = float("nan")
        else:
            obj = bloch_to_json(decompose_state(preset_density("ghz")))
            obj["bloch"]["tau"][0][0][0] = float("inf")
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "analyze", "--state", str(path))
        assert code == 2 and out == "" and "non-finite" in err

    @pytest.mark.parametrize("kind, message", [
        ("pure", "|norm - 1| = inf > 1e-10"),
        ("dense-off-diagonal", "max |rho - rho^dag| = inf > 1e-10"),
        ("dense-diagonal", "|Tr rho - 1| = nan > 1e-10"),
        ("bloch", "a has entry of magnitude 1.000000e+308 outside [-1, 1]"),
    ], ids=["pure", "dense-off-diagonal", "dense-diagonal", "bloch"])
    def test_huge_finite_state_file_prints_one_error_line(self, tmp_path, kind, message):
        # every entry is finite, but a norm, a difference or the trace overflows: no numpy warning may leak
        if kind == "pure":
            obj = {"pure": [[1e308, 1e308]] + [[0, 0]] * 7}
        elif kind == "bloch":
            obj = bloch_to_json(decompose_state(np.eye(8) / 8))
            obj["bloch"]["a"][0] = 1e308
        else:
            rho = np.zeros((8, 8))
            if kind == "dense-diagonal":  # numpy's trace sums (1e308 + 1e308) + (-1e308 - 1e308): inf - inf
                rho[range(4), range(4)] = [1e308, 1e308, -1e308, -1e308]
            else:
                rho[0, 0], rho[0, 1], rho[1, 0] = 1.0, 1e308, -1e308
            obj = density_to_json(rho)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        proc = subprocess.run([sys.executable, "-m", "qrecon.cli", "analyze", "--state", str(path)],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind, message", [
        ("pure", "amplitude vector has a non-finite entry"),
        ("dense", "density matrix has a non-finite entry"),
    ])
    def test_infinite_imaginary_part_prints_one_error_line(self, tmp_path, kind, message):
        # a [0.0, Infinity] pair: building it as re + 1j * im would evaluate 0 * inf and leak numpy's warning
        obj = pure_to_json(np.eye(8)[0]) if kind == "pure" else density_to_json(np.eye(8) / 8)
        if kind == "pure":
            obj["pure"][1] = [0.0, float("inf")]
        else:
            obj["dense"][0][1] = [0.0, float("inf")]
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps(obj))  # written as a bare Infinity, which json.load accepts
        proc = subprocess.run([sys.executable, "-m", "qrecon.cli", "analyze", "--state", str(path)],
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind, bad", [("pure", {}), ("dense", {}), ("bloch", {}),
                                           ("pure", None), ("dense", True), ("bloch", "1"), ("pure", 10**400)],
                             ids=["pure", "dense", "bloch", "pure-null", "dense-true", "bloch-string", "pure-huge-int"])
    def test_non_numeric_state_file_exits_2(self, capsys, tmp_path, kind, bad):
        if kind == "pure":
            obj = pure_to_json(np.eye(8)[0])
            obj["pure"][1] = [1, bad]
        elif kind == "dense":
            obj = density_to_json(preset_density("mixed"))
            obj["dense"][2][5] = [bad, 0]
        else:
            obj = bloch_to_json(decompose_state(preset_density("ghz")))
            obj["bloch"]["a"][1] = bad
        path = tmp_path / "object.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "analyze", "--state", str(path))
        assert code == 2 and out == "" and "numbers" in err

    def test_unknown_preset_exits_2(self, capsys):
        assert run_cli(capsys, "analyze", "--preset", "bogus")[0] == 2

    def test_requires_a_source(self, capsys):
        assert run_cli(capsys, "analyze")[0] == 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_non_positive_epsilon_exits_2(self, capsys, eps):
        code, out, err = run_cli(capsys, "analyze", "--preset", "mixed", "--epsilon", eps)
        assert code == 2 and out == "" and "eps" in err


class TestOracle:
    def test_ghz_mc_agrees_with_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--preset", "ghz", "--samples", "2000", "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["closed_form", "f_max", "so3_gap", "mc_mean",
                                 "mc_std_error", "n_samples", "seed", "per_branch"]
        assert abs(payload["closed_form"] - payload["mc_mean"]) < 1e-6
        assert abs(payload["closed_form"] - 1.0) <= 1e-12
        assert payload["n_samples"] == 2000 and payload["seed"] == 42
        assert len(payload["per_branch"]) == 8

    def test_w_reports_both_routes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--preset", "w", "--samples", "3000")
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["f_max"] - 8 / 9) <= 1e-10
        assert payload["so3_gap"] == pytest.approx(0.0, abs=1e-10)
        assert abs(payload["mc_mean"] - payload["closed_form"]) <= 4 * payload["mc_std_error"]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_f_max_is_the_analyze_f_max(self, capsys, preset):
        for setting in ALL_SETTINGS:
            argv = ["--preset", preset, "--setting", str(setting)]
            code_o, out_o, _ = run_cli(capsys, "oracle", *argv, "--samples", "2000")
            code_a, out_a, _ = run_cli(capsys, "analyze", *argv)
            assert code_o == code_a == 0
            assert json.loads(out_o)["f_max"] == json.loads(out_a)["f_max"]

    def test_bad_samples_exits_2(self, capsys):
        assert run_cli(capsys, "oracle", "--preset", "ghz", "--samples", "0")[0] == 2


class TestScatter:
    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scatter", "--samples", "20", "--seed", "42")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "lambda0,lambda1,lambda2,lambda3,f_tele,f_recon,region"
        assert len(lines) == 21

    def test_out_file_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "scatter", "--samples", "100", "--seed", "9", "--out", str(a))[0] == 0
        assert run_cli(capsys, "scatter", "--samples", "100", "--seed", "9", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scatter", "--samples", "5", "--out", str(tmp_path))
        assert code == 3 and "I/O" in err

    def test_no_samples_exits_2_without_a_file(self, capsys, tmp_path):
        # the count is checked before the temporary file is opened
        out = tmp_path / "scatter.csv"
        assert run_cli(capsys, "scatter", "--samples", "0", "--out", str(out))[0] == 2
        assert list(tmp_path.iterdir()) == []

    def test_no_samples_writes_nothing_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "scatter", "--samples", "0")
        assert code == 2 and out == "" and "n_samples" in err

    def test_stdout_streams_the_csv_text(self, capsys):
        # past one 8192-row block
        code, out, _ = run_cli(capsys, "scatter", "--samples", "8193", "--seed", "5")
        assert code == 0 and out == scatter_csv_text(8193, seed=5)


    def test_stdout_failure_after_the_first_block_leaves_a_truncated_csv(self, capsys, monkeypatch):
        real, calls = wclass._scatter_columns, []

        def fail_on_second_block(lam):
            calls.append(len(lam))
            if len(calls) == 2:
                raise ValueError("second block")
            return real(lam)

        monkeypatch.setattr(wclass, "_scatter_columns", fail_on_second_block)
        code, out, err = run_cli(capsys, "scatter", "--samples", str(2 * 8192), "--seed", "8")
        monkeypatch.undo()
        first_block = "".join(scatter_csv_text(2 * 8192, seed=8).splitlines(keepends=True)[:1 + 8192])
        assert code == 2 and "second block" in err
        assert out == first_block


class TestClassical:
    def test_default_run(self, capsys):
        code, out, _ = run_cli(capsys, "classical", "--samples", "200000", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["honest_baseline", "guess_fidelity", "formula_value"]
        assert abs(payload["honest_baseline"] - 2 / 3) < 0.005
        assert payload["formula_value"] == pytest.approx(0.5, abs=1e-15)
        assert abs(payload["guess_fidelity"] - 0.5) < 0.005

    def test_negate_formula(self, capsys):
        code, out, _ = run_cli(capsys, "classical", "--p", "0.25", "--strategy", "negate",
                               "--samples", "100000")
        payload = json.loads(out)
        assert code == 0
        assert payload["formula_value"] == pytest.approx((2 - 0.25) / 3, abs=1e-15)
        assert abs(payload["guess_fidelity"] - payload["formula_value"]) < 0.01

    def test_invalid_p_exits_2(self, capsys):
        assert run_cli(capsys, "classical", "--p", "1.5")[0] == 2

    def test_invalid_p_exits_2_before_sampling(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("sampled before checking --p")
        monkeypatch.setattr("qrecon.protocol._direction_blocks", must_not_run)
        code, out, err = run_cli(capsys, "classical", "--p", "2", "--samples", "20000000")
        assert code == 2 and out == "" and "p must lie" in err

    def test_invalid_strategy_exits_2(self, capsys):
        assert run_cli(capsys, "classical", "--strategy", "flip")[0] == 2

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_non_positive_samples_exits_2(self, capsys, samples):
        # a mean over no samples is NaN, which JSON cannot hold
        code, out, err = run_cli(capsys, "classical", "--samples", samples)
        assert code == 2 and out == "" and "n_samples" in err


@pytest.mark.parametrize("argv", [
    ["classical", "--samples", "20000"],
    ["oracle", "--preset", "w", "--samples", "20000"],
], ids=lambda argv: argv[0])
def test_command_draws_its_directions_once(capsys, monkeypatch, argv):
    # every form a command reports is evaluated on one pass of the direction stream
    real, opened = protocol._direction_blocks, []

    def counting(*args, **kwargs):
        opened.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(protocol, "_direction_blocks", counting)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(opened) == 1


def test_json_output_refuses_non_finite_values(capsys):
    with pytest.raises(ValueError):
        _json({"mc_mean": float("nan")})
    assert capsys.readouterr().out == ""


#: Where each kernel below is looked up when a command runs: the commands
#: import protocol and wclass once their input is read, while cli.py binds load_state.
KERNEL_MODULE = {"expected_fidelity_mc": "qrecon.protocol", "classical_fidelities": "qrecon.protocol",
                 "scatter_csv_chunks": "qrecon.wclass", "load_state": "qrecon.cli"}


@pytest.mark.parametrize("command, kernel", [
    ("oracle", "expected_fidelity_mc"),
    ("scatter", "scatter_csv_chunks"),
    ("classical", "classical_fidelities"),
])
def test_memory_error_exits_2(capsys, monkeypatch, command, kernel):
    # a backstop only: the kernel is replaced, nothing large is allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(f"{KERNEL_MODULE[kernel]}.{kernel}", out_of_memory)
    argv = [command, "--samples", "1000"] + (["--preset", "w"] if command == "oracle" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "--samples" in err


@pytest.mark.parametrize("command, kernels", [
    ("oracle", ["expected_fidelity_mc"]),
    ("scatter", ["scatter_csv_chunks"]),
    ("classical", ["classical_fidelities"]),
])
def test_samples_above_the_limit_exits_2_before_sampling(capsys, monkeypatch, command, kernels):
    def must_not_run(*args, **kwargs):
        raise AssertionError("sampling started")
    for kernel in kernels:
        monkeypatch.setattr(f"{KERNEL_MODULE[kernel]}.{kernel}", must_not_run)
    argv = [command, "--samples", str(MAX_SAMPLES + 1)] + (["--preset", "w"] if command == "oracle" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and str(MAX_SAMPLES) in err


@pytest.mark.parametrize("command, kernels", [
    ("oracle", ["load_state", "expected_fidelity_mc"]),
    ("scatter", ["scatter_csv_chunks"]),
    ("classical", ["classical_fidelities"]),
])
def test_negative_seed_exits_2_while_parsing(capsys, monkeypatch, tmp_path, command, kernels):
    # numpy's generator would reject it only after the state was read, without naming the flag
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started")
    for kernel in kernels:
        monkeypatch.setattr(f"{KERNEL_MODULE[kernel]}.{kernel}", must_not_run)
    argv = [command, "--seed", "-1"] + (["--state", str(tmp_path / "absent.json")] if command == "oracle" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "argument --seed: must be >= 0, got -1" in err


@pytest.mark.parametrize("command, kernels, flag, message", [
    ("analyze", ["load_state"], ["--epsilon", "nan"], "argument --epsilon: eps must be finite and positive, got nan"),
    ("analyze", ["load_state"], ["--epsilon", "0"], "argument --epsilon: eps must be finite and positive, got 0.0"),
    ("oracle", ["load_state", "expected_fidelity_mc"], ["--samples", "0"], "argument --samples: n_samples must be >= 1, got 0"),
    ("scatter", ["scatter_csv_chunks"], ["--samples", "-1"], "argument --samples: n_samples must be >= 1, got -1"),
    ("classical", ["classical_fidelities"], ["--p", "2"], "argument --p: p must lie in [0, 1], got 2.0"),
    ("classical", ["classical_fidelities"], ["--p", "nan"], "argument --p: p must lie in [0, 1], got nan"),
], ids=["epsilon-nan", "epsilon-zero", "oracle-samples", "scatter-samples", "p-above-1", "p-nan"])
def test_flag_out_of_range_exits_2_while_parsing(capsys, monkeypatch, tmp_path, command, kernels, flag, message):
    # each flag is checked before any state is read, so an absent --state cannot turn the 2 into an I/O error's 3
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started")
    for kernel in kernels:
        monkeypatch.setattr(f"{KERNEL_MODULE[kernel]}.{kernel}", must_not_run)
    argv = [command, *flag] + (["--state", str(tmp_path / "absent.json")] if "load_state" in kernels else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
def test_non_integer_count_names_the_flag_and_int(capsys, flag):
    code, out, err = run_cli(capsys, "scatter", flag, "x")
    assert code == 2 and out == "" and f"argument {flag}: invalid int value: 'x'" in err


@pytest.mark.parametrize("argv", [["analyze", "--preset", "w", "--epsilon"], ["classical", "--p"]],
                         ids=lambda argv: argv[-1])
def test_non_numeric_float_flag_names_the_flag_and_float(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "x")
    assert code == 2 and out == "" and f"argument {argv[-1]}: invalid float value: 'x'" in err


def test_setting_choices_are_the_settings_in_order():
    assert SETTING_CHOICES == tuple(str(s) for s in ALL_SETTINGS)


@pytest.mark.parametrize("argv", [
    ["analyze", "--preset", "wexample3", "--setting", "BCA"],
    ["oracle", "--preset", "beta-mix", "--samples", "2000", "--seed", "3"],
    ["classical", "--p", "0.3", "--samples", "3000"],
    ["scatter", "--samples", "8193", "--seed", "4"],
], ids=lambda argv: argv[0])
def test_out_goes_through_the_one_writer(capsys, monkeypatch, tmp_path, argv):
    # with --out, stateio.write_text gets the very text stdout would get, in one call
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    calls = []
    monkeypatch.setattr("qrecon.cli.write_text", lambda path, pieces: calls.append((path, "".join(pieces))))
    out = str(tmp_path / "out")
    assert run_cli(capsys, *argv, "--out", out) == (0, "", "")
    assert calls == [(out, stdout)]


@pytest.mark.parametrize("argv", [
    ["analyze", "--preset", "w"],
    ["oracle", "--preset", "w", "--samples", "2000"],
    ["scatter", "--samples", "100"],
    ["classical", "--samples", "1000"],
], ids=lambda argv: argv[0])
def test_empty_out_path_exits_2(capsys, monkeypatch, tmp_path, argv):
    # an unset $OUT in `--out "$OUT"` must not fall back to stdout
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--out", "")
    assert code == 2 and out == "" and "--out" in err and "empty" in err
    assert list(tmp_path.iterdir()) == []


def test_closed_stdout_reader_exits_0_quietly():
    # `qrecon scatter | head -1`: the reader leaves after one line, far inside the CSV
    proc = subprocess.Popen([sys.executable, "-m", "qrecon.cli", "scatter", "--samples", "20000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0 and err == b""
    assert header.startswith(b"lambda0,")


def test_closed_out_fifo_reader_exits_3(capsys, tmp_path):
    # a broken pipe on --out is still an I/O failure
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def read_one_line():
        with open(fifo, "rb") as f:
            f.readline()

    reader = threading.Thread(target=read_one_line, daemon=True)
    reader.start()
    code, out, err = run_cli(capsys, "scatter", "--samples", "20000", "--out", str(fifo))
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert code == 3 and out == "" and "Broken pipe" in err


def test_no_arguments_exits_2(capsys):
    assert run_cli(capsys)[0] == 2


def test_import_does_not_load_scipy():
    # every export resolved first: the package loads a module only when one of its names is read
    script = "import sys, qrecon; [getattr(qrecon, name) for name in qrecon.__all__]; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def modules_after(*argv):
    """Exit code of ``main(argv)`` in a fresh interpreter, and every module loaded by then."""
    script = ("import contextlib, io, sys, qrecon.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
              f"    code = qrecon.cli.main({list(argv)!r})\n"
              "print(code, *sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    return int(code), set(modules)


#: What only the simulator and the W scatter need: analyze loads none of it.
SIMULATOR_MODULES = {"qrecon.protocol", "qrecon.wclass", "numpy.random"}


@pytest.mark.parametrize("argv", [
    ["analyze", "--preset", "ghz"],
    ["analyze", "--state", "{pure}", "--setting", "CBA"],
], ids=["preset", "state"])
def test_analyze_loads_neither_the_simulator_nor_the_scatter(tmp_path, argv):
    pure = tmp_path / "pure.json"
    pure.write_text(json.dumps(pure_to_json(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))))
    argv = [arg.format(pure=pure) for arg in argv]
    code, modules = modules_after(*argv)
    assert code == 0
    assert "qrecon.fidelity" in modules and modules & SIMULATOR_MODULES == set()


#: All of qrecon that `import qrecon.cli` loads; none of it imports numpy.
CLI_MODULES = {"qrecon", "qrecon.cli", "qrecon.presets", "qrecon.stateio"}


@pytest.mark.parametrize("argv, expected", [
    (["--help"], 0),
    ([], 2),
    (["analyze", "--preset", "no-such-state"], 2),
    (["analyze", "--preset", "w", "--setting", "ABA"], 2),
    (["analyze", "--state", "{absent}"], 3),
    (["analyze", "--state", "{malformed}"], 2),
    (["scatter", "--samples", "0"], 2),
    (["analyze", "--preset", "mixed", "--epsilon", "nan"], 2),
    (["classical", "--p", "2"], 2),
], ids=["help", "no-arguments", "unknown-preset", "bad-setting", "missing-file", "malformed-file",
        "zero-samples", "epsilon-nan", "p-above-1"])
def test_exit_on_arguments_or_state_file_loads_no_numpy(tmp_path, argv, expected):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"pure": [[1, 0], ')
    argv = [arg.format(absent=tmp_path / "absent.json", malformed=malformed) for arg in argv]
    code, modules = modules_after(*argv)
    assert code == expected
    assert "numpy" not in modules and {name for name in modules if name.startswith("qrecon")} == CLI_MODULES


@pytest.mark.parametrize("argv", [
    ["oracle", "--preset", "w", "--samples", "100"],
    ["classical", "--samples", "100"],
], ids=lambda argv: argv[0])
def test_simulator_commands_do_not_load_the_scatter(argv):
    code, modules = modules_after(*argv)
    assert code == 0 and "qrecon.protocol" in modules and "qrecon.wclass" not in modules


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qrecon.cli", "analyze", "--preset", "ghz"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["f_max"] == pytest.approx(1.0, abs=1e-12)


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    real, built = argparse.ArgumentParser.__init__, []

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    calls = [
        ["analyze", "--preset", "ghz"],
        ["oracle", "--preset", "w", "--samples", "100"],
        ["scatter", "--samples", "10"],
        ["classical", "--samples", "100"],
        ["analyze", "--preset", "nope"],
    ]
    assert [run_cli(capsys, *argv)[0] for argv in calls] == [0, 0, 0, 0, 2]
    assert built == ["qrecon"] + [f"qrecon {command}" for command in ("analyze", "oracle", "scatter", "classical")]
    built.clear()
    assert [run_cli(capsys, *argv)[0] for argv in calls] == [0, 0, 0, 0, 2]
    assert built == []
    assert build_parser() is build_parser()


def test_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch, tmp_path):
    # each call in one process gives what a fresh interpreter gives for the same argv
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width in both
    out = tmp_path / "report.json"
    sequence = [
        ["oracle", "--preset", "w", "--samples", "7", "--seed", "3"],
        ["oracle", "--preset", "w", "--samples", "500"],  # --seed falls back to 42
        ["analyze", "--preset", "w", "--out", str(out)],
        ["analyze", "--preset", "w"],  # to stdout again
        ["analyze", "--preset", "nope"],
        ["analyze", "--preset", "ghz", "--setting", "CBA"],
        ["--help"],
        [],
        ["analyze", "--state", str(tmp_path / "absent.json"), "--epsilon", "nan"],
        ["scatter", "--samples", "0"],
    ]

    def take_out():
        text = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return text

    codes = []
    for argv in sequence:
        in_process, written = run_cli(capsys, *argv), take_out()
        proc = subprocess.run([sys.executable, "-m", "qrecon.cli", *argv], capture_output=True, text=True, timeout=60)
        assert in_process == (proc.returncode, proc.stdout, proc.stderr), argv
        assert written == take_out(), argv
        codes.append(proc.returncode)
    assert codes == [0, 0, 0, 0, 2, 0, 0, 2, 2, 2]


def test_console_script_is_the_module_entry():
    # test_installed_entry_point runs `python -m qrecon.cli`; the installed `qrecon` must start the same way
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (target,) = re.findall(r'^qrecon = "qrecon\.cli:(\w+)"$', pyproject, re.MULTILINE)
    tree = ast.parse(Path(qrecon.cli.__file__).read_text())
    (block,) = [node for node in tree.body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in block.body] == [f"sys.exit({target}())"]


def test_process_entry_runs_without_the_collector():
    script = ("import gc, sys, qrecon.cli\n"
              "sys.argv = ['qrecon', 'analyze', '--preset', 'ghz']\n"
              "code = qrecon.cli.run()\n"
              "print(code, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr.split() == ["0", "False", "True"]
    assert json.loads(proc.stdout)["f_max"] == pytest.approx(1.0, abs=1e-12)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("entry", ["run", "main"])
@pytest.mark.parametrize("chosen", [None, *BLAS_THREAD_VARIABLES])
def test_process_entry_runs_one_blas_thread_unless_the_caller_chose(entry, chosen):
    # what main() sees: run() sets OpenBLAS's count before numpy loads, unless the caller set any variable
    # OpenBLAS reads it from; main(argv), for API callers, sets nothing
    script = ("import os, sys, qrecon.cli\n"
              "real = qrecon.cli.main\n"
              "def main(argv=None):\n"
              f"    print(*[os.environ.get(name) for name in {BLAS_THREAD_VARIABLES!r}], 'numpy' in sys.modules,\n"
              "          file=sys.stderr)\n"
              "    return real(argv)\n"
              "qrecon.cli.main = main\n"
              "sys.argv = ['qrecon', 'oracle', '--preset', 'w', '--samples', '100']\n"
              f"code = qrecon.cli.{entry}({'' if entry == 'run' else 'sys.argv[1:]'})\n"
              "print(code, os.environ.get('OPENBLAS_NUM_THREADS'), file=sys.stderr)")
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    if chosen is not None:
        env[chosen] = "2"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = dict(zip(BLAS_THREAD_VARIABLES, [None] * 3))
    if chosen is not None:
        seen[chosen] = "2"
    elif entry == "run":
        seen["OPENBLAS_NUM_THREADS"] = "1"
    assert proc.stderr.split() == [*map(str, seen.values()), "False", "0", str(seen["OPENBLAS_NUM_THREADS"])]
    assert json.loads(proc.stdout)["n_samples"] == 100


@pytest.mark.parametrize("argv", [
    ["analyze", "--preset", "ghz"],
    ["oracle", "--preset", "w", "--samples", "100"],
    ["scatter", "--samples", "10"],
    ["classical", "--samples", "100"],
    ["--help"],
    ["analyze", "--preset", "nope"],
    ["analyze", "--state", "{absent}"],
], ids=["analyze", "oracle", "scatter", "classical", "help", "unknown-preset", "missing-file"])
def test_main_keeps_the_callers_collector(capsys, tmp_path, argv):
    argv = [arg.format(absent=tmp_path / "absent.json") for arg in argv]
    before = gc.isenabled(), gc.get_freeze_count()
    run_cli(capsys, *argv)
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("argv, sizes", [
    (["oracle", "--preset", "w"], (2000, 50_000)),  # 50 000 samples: 7 blocks
    (["classical"], (20_000, 200_000)),
    (["scatter", "--out", "{out}"], (100, 20_000)),
], ids=["oracle", "classical", "scatter"])
def test_cyclic_garbage_does_not_grow_with_samples(capsys, tmp_path, argv, sizes):
    # what `run` relies on when it disables the collector: a command's memory stays bounded
    # without it, because the cycles it leaves do not depend on --samples
    argv = [arg.format(out=tmp_path / "out.csv") for arg in argv]

    def cyclic_garbage(n):
        gc.collect()
        gc.disable()
        try:
            return run_cli(capsys, *argv, "--samples", str(n))[0], gc.collect()
        finally:
            gc.enable()

    cyclic_garbage(sizes[0])  # the first call's imports leave cycles of their own
    small, large = [cyclic_garbage(n) for n in sizes]
    assert small[0] == large[0] == 0 and small[1] == large[1]
