"""End-to-end acceptance gate.

Each test covers one acceptance criterion at its stated tolerance and
prints a PASS/FAIL line directly to the terminal (bypassing capture) so
the gate's verdict is visible in any pytest run.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_orthogonal, random_pure
from qrecon.fidelity import (
    CANONICAL_SETTING,
    Setting,
    full_report,
    theta,
    trace_norm,
)
from qrecon.presets import preset_density
from qrecon.protocol import (
    bell_projectors,
    classical_baseline,
    closed_form_bounds,
    expected_fidelity_mc,
    hadamard_projectors,
    sphere_average_identity_check,
)
from qrecon.states import compose_state, decompose_state, pure_to_density
from qrecon.wclass import WClassParams, record_for, region_for, scatter_experiment
from conftest import random_density
from reference import _guess_fidelity_samples


@contextmanager
def criterion(num: int, desc: str, capfd):
    """Print one PASS/FAIL line per criterion straight to the terminal."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capfd.disabled():
            print(f"\n[acceptance] criterion {num} ({desc}): FAIL", flush=True)
        raise
    suffix = f" - {info['detail']}" if info["detail"] else ""
    with capfd.disabled():
        print(f"\n[acceptance] criterion {num} ({desc}): PASS{suffix}", flush=True)


def test_criterion_1_ghz_closed_forms(capfd):
    with criterion(1, "GHZ closed forms", capfd) as info:
        start = time.monotonic()
        report = full_report(preset_density("ghz"))
        assert abs(report.theta - 3.0) <= 1e-12
        assert abs(report.f_max - 1.0) <= 1e-12
        assert abs(report.f_tele_dealer_reconstructor - 2 / 3) <= 1e-12
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        info["detail"] = f"theta=3, f_max=1, f_tele=2/3 in {elapsed:.3f}s"


def test_criterion_2_w_closed_forms(capfd):
    with criterion(2, "W closed forms", capfd) as info:
        start = time.monotonic()
        report = full_report(preset_density("w"))
        assert abs(report.theta - 7 / 3) <= 1e-12
        assert abs(report.f_max - 8 / 9) <= 1e-12
        assert abs(report.f_tele_dealer_reconstructor - 7 / 9) <= 1e-12
        assert abs(report.qss.reconstructor_channel_norm - 5 / 3) <= 1e-12
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        info["detail"] = f"theta=7/3, f_max=8/9, f_tele=7/9, pair norm=5/3 in {elapsed:.3f}s"


def test_criterion_3_exemplar_mixtures(capfd):
    with criterion(3, "two-ket exemplar mixtures", capfd) as info:
        from qrecon.fidelity import pair_correlation_for_setting, t_matrix_for_setting

        patterns = {}
        for name in ("gamma-mix", "delta-mix"):
            rho = preset_density(name)
            report = full_report(rho)
            assert abs(report.f_max - 0.75) <= 1e-12
            d = decompose_state(rho)
            p_max = np.abs(pair_correlation_for_setting(d, CANONICAL_SETTING)).max()
            t_max = np.abs(t_matrix_for_setting(d, CANONICAL_SETTING)).max()
            patterns[name] = (p_max, t_max, report.case_label.label)
            # the defining kets coincide, so both names show the same pattern:
            # pair matrix zero, assisted slice nonzero
            assert p_max < 1e-9 and t_max > 1e-9
            assert report.case_label.label == "case2"
        info["detail"] = ("f_max=3/4 for both; computed pattern P=O, T!=O (case2) "
                          f"max|P|={patterns['gamma-mix'][0]:.1e}, max|T|={patterns['gamma-mix'][1]:.2f}; "
                          "identical defining kets, delta-mix is an alias of gamma-mix")


def test_criterion_4_secret_sharing_states(capfd):
    with criterion(4, "secret-sharing eligibility", capfd) as info:
        beta = full_report(preset_density("beta-mix"))
        assert abs(beta.qss.assistant_channel_norm - 0.5) <= 1e-12
        assert abs(beta.qss.reconstructor_channel_norm - 0.5) <= 1e-12
        assert beta.f_max > 2 / 3
        assert beta.qss_ok is True
        ghz = full_report(preset_density("ghz"))
        assert ghz.qss_ok is True
        info["detail"] = (f"beta-mix norms (0.5, 0.5), f_max={beta.f_max:.6f}>2/3, qss_ok; "
                          "ghz qss_ok on the boundary")


def test_criterion_5_monte_carlo_oracle(capfd):
    with criterion(5, "MC matches SO(3) closed form", capfd) as info:
        start = time.monotonic()
        rng = np.random.default_rng(20250819)
        states = [preset_density("ghz"), preset_density("w")]
        states += [pure_to_density(random_pure(rng)) for _ in range(20)]
        worst_sigma = 0.0
        for rho in states:
            mc = expected_fidelity_mc(rho, n_samples=100_000, seed=42)
            bounds = closed_form_bounds(decompose_state(rho))
            # 3-sigma band floored at 1e-9 for zero-variance resources
            band = max(3 * mc.std_error, 1e-9)
            assert abs(mc.mean - bounds.f_so3) <= band
            assert mc.mean <= bounds.f_trace_norm + band
            if mc.std_error > 0:
                worst_sigma = max(worst_sigma, abs(mc.mean - bounds.f_so3) / mc.std_error)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        info["detail"] = f"22 states x 1e5 samples, worst deviation {worst_sigma:.2f} sigma, {elapsed:.1f}s"


def test_criterion_6_classical_baselines(capfd):
    with criterion(6, "classical and guessing baselines", capfd) as info:
        n = 1_000_000
        baseline = classical_baseline(n, seed=42)
        # Var[(1 + z^2)/2] = 1/45 for z uniform on [-1, 1]
        assert abs(baseline - 2 / 3) <= 3 * np.sqrt(1 / 45 / n)
        for p in (0.0, 0.25, 0.5, 1.0):
            for strategy, formula in (("same", (1 + p) / 3), ("negate", (2 - p) / 3)):
                samples = _guess_fidelity_samples(p, strategy, n, seed=42)
                se = samples.std(ddof=1) / np.sqrt(n)
                assert abs(samples.mean() - formula) <= 3 * se
        same_half = _guess_fidelity_samples(0.5, "same", n, seed=42)
        negate_half = _guess_fidelity_samples(0.5, "negate", n, seed=42)
        for samples in (same_half, negate_half):
            se = samples.std(ddof=1) / np.sqrt(n)
            assert abs(samples.mean() - 0.5) <= 3 * se
        info["detail"] = (f"baseline {baseline:.6f} ~ 2/3; guess means match (1+p)/3 and (2-p)/3 "
                          "at p in {0, 1/4, 1/2, 1}; both 1/2 at p=1/2")


def test_criterion_7_scatter_experiment(capfd):
    with criterion(7, "W-family scatter", capfd) as info:
        start = time.monotonic()
        records = scatter_experiment(100_000, seed=42)
        min_recon = min(r.f_recon for r in records)
        assert min_recon >= 2 / 3 - 1e-9
        example = record_for(WClassParams.normalized(0.7, 0.11, 0.09, 0.7))
        assert example.region == "orange"
        w_report = full_report(preset_density("w"))
        w_tele = w_report.f_tele_dealer_reconstructor
        assert abs(w_tele - 7 / 9) <= 1e-12 and w_tele > 2 / 3
        assert region_for(w_tele) == "blue"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        info["detail"] = (f"1e5 records, min f_recon {min_recon:.9f} >= 2/3; example state orange "
                          f"(f_tele={example.f_tele:.4f}); W blue (f_tele=7/9); {elapsed:.1f}s")


def test_criterion_8_property_batteries(capfd):
    with criterion(8, "property batteries", capfd) as info:
        rng = np.random.default_rng(88)

        # decomposition round trip, 1000 states at 1e-12
        for i in range(1000):
            rho = random_density(rng) if i % 5 else pure_to_density(random_pure(rng))
            np.testing.assert_allclose(compose_state(decompose_state(rho)), rho, atol=1e-12)

        # projector completeness and orthogonality at 1e-12
        total = sum(bell_projectors)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)
        for i, p in enumerate(bell_projectors):
            for j, q in enumerate(bell_projectors):
                expected = p if i == j else np.zeros((4, 4))
                np.testing.assert_allclose(p @ q, expected, atol=1e-12)
        np.testing.assert_allclose(hadamard_projectors[+1] + hadamard_projectors[-1], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(hadamard_projectors[+1] @ hadamard_projectors[-1], 0, atol=1e-12)

        # trace-norm invariance under orthogonal factors at 1e-10
        for _ in range(200):
            m = rng.normal(size=(3, 3))
            o1, o2 = random_orthogonal(rng), random_orthogonal(rng)
            assert abs(trace_norm(o1 @ m @ o2) - trace_norm(m)) <= 1e-10

        # dealer-reconstructor swap symmetry, 1000 states at 1e-12
        reverse = Setting.from_string("CBA")
        for _ in range(1000):
            d = decompose_state(random_density(rng))
            assert abs(theta(d, CANONICAL_SETTING) - theta(d, reverse)) <= 1e-12

        # sphere-average identity within 3 sigma for 20 random symmetric forms
        for k in range(20):
            base = rng.normal(size=(3, 3))
            y = (base + base.T) / 2
            check = sphere_average_identity_check(y, n_samples=100_000, seed=1000 + k)
            assert abs(check.lhs - check.rhs) <= 3 * check.std_error

        info["detail"] = ("round-trip x1000 @1e-12; projector algebra @1e-12; "
                          "trace-norm O(3) invariance x200 @1e-10; swap symmetry x1000 @1e-12; "
                          "sphere average 3-sigma x20")
