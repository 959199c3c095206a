import json
import subprocess
import sys

import numpy as np
import pytest

from qrecon.cli import _emit_json, main
from qrecon.presets import preset_density
from qrecon.states import decompose_state
from qrecon.stateio import bloch_to_json, density_to_json, pure_to_json


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

    def test_invalid_state_exits_2(self, capsys, tmp_path):
        path = tmp_path / "unphysical.json"
        psi = np.zeros(8)
        psi[0] = 2.0
        path.write_text(json.dumps(pure_to_json(psi)))
        code, _, _ = run_cli(capsys, "analyze", "--state", str(path))
        assert code == 2

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

    def test_invalid_strategy_exits_2(self, capsys):
        assert run_cli(capsys, "classical", "--strategy", "flip")[0] == 2

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_non_positive_samples_exits_2(self, capsys, samples):
        # a mean over no samples is NaN, which JSON cannot hold
        code, out, err = run_cli(capsys, "classical", "--samples", samples)
        assert code == 2 and out == "" and "n_samples" in err


def test_json_output_refuses_non_finite_values(capsys):
    with pytest.raises(ValueError):
        _emit_json({"mc_mean": float("nan")}, None)
    assert capsys.readouterr().out == ""


def test_no_arguments_exits_2(capsys):
    assert run_cli(capsys)[0] == 2


def test_import_does_not_load_scipy():
    proc = subprocess.run([sys.executable, "-c", "import sys, qrecon; print('scipy' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qrecon.cli", "analyze", "--preset", "ghz"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["f_max"] == pytest.approx(1.0, abs=1e-12)
