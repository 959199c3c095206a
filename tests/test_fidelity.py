import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_density, random_orthogonal, random_pure
from qrecon.fidelity import (
    ALL_SETTINGS,
    CANONICAL_SETTING,
    QSS_NORM_SLACK,
    Setting,
    classify_case,
    f_max,
    f_max_from_theta,
    full_report,
    pair_correlation_for_setting,
    qss_check,
    report_from_decomposition,
    report_to_dict,
    role_tensor,
    t_matrix_for_setting,
    teleportation_fidelity,
    theta,
    theta_from_pair,
    trace_norm,
    trace_norms,
)
from qrecon.paulis import identity2, pauli_x, pauli_y, pauli_z
from qrecon.presets import preset_density
from qrecon.states import BlochDecomposition, NotPSDError, decompose_state, pure_to_density
from reference import kron3


def bell_ac_density():
    """|Phi+> on (A, C) with B maximally mixed: T = O, pair norm 3."""
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    pair = np.outer(phi, phi.conj()).reshape(2, 2, 2, 2)
    # insert the B wire between A and C
    rho = np.einsum("acbd,ef->aecbfd", pair, identity2 / 2).reshape(8, 8)
    return rho


class TestSetting:
    def test_parse_and_str(self):
        s = Setting.from_string("bca")
        assert (s.dealer, s.assistant, s.reconstructor) == ("B", "C", "A")
        assert str(s) == "BCA"

    @pytest.mark.parametrize("bad", ["AAB", "AB", "ABCD", "XYZ"])
    def test_rejects_non_permutations(self, bad):
        with pytest.raises(ValueError):
            Setting.from_string(bad)

    def test_all_settings_enumerated(self):
        assert len(ALL_SETTINGS) == 6
        assert CANONICAL_SETTING in ALL_SETTINGS


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(3)) == pytest.approx(3.0, abs=1e-14)

    def test_w_pair_matrix(self):
        assert trace_norm(np.diag([2 / 3, 2 / 3, -1 / 3])) == pytest.approx(5 / 3, abs=1e-14)

    @seed(2)
    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (3, 3), elements=st.floats(-2, 2)))
    def test_matches_eigenvalue_route(self, m):
        gram_eigs = np.linalg.eigvalsh(m.T @ m)
        expected = np.sqrt(np.clip(gram_eigs, 0, None)).sum()
        # the eigenvalue route loses half the digits near zero singular values
        assert trace_norm(m) == pytest.approx(expected, abs=1e-7)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = rng.normal(size=(3, 3))
            o1, o2 = random_orthogonal(rng), random_orthogonal(rng)
            assert trace_norm(o1 @ m @ o2) == pytest.approx(trace_norm(m), abs=1e-10)

    def test_two_by_two_rule_matches_the_svd(self):
        # a trailing (2, 2) takes sqrt(||B||_F^2 + 2 |det B|); the values-only SVD is the reference
        rng = np.random.default_rng(23)
        gauss = rng.normal(size=(20_000, 2, 2))
        row = rng.normal(size=(500, 1, 2))
        rank_one = np.concatenate([row, 2.0 * row], axis=1)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=500)
        c, s = np.cos(angle), np.sin(angle)
        k = rng.normal(size=500)
        rotation = k[:, None, None] * np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        scaled_orthogonal = np.concatenate([rotation, rotation * [1.0, -1.0]])
        stack = np.concatenate([gauss, rank_one, scaled_orthogonal, np.zeros((1, 2, 2))])
        det = stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]
        assert (det < 0).sum() > 5000 and (det > 0).sum() > 5000 and (det == 0).sum() == 501
        np.testing.assert_allclose(trace_norms(stack), np.linalg.svd(stack, compute_uv=False).sum(axis=-1),
                                   rtol=2e-15, atol=0)
        # k times a rotation or a reflection has both singular values |k|
        np.testing.assert_allclose(trace_norms(scaled_orthogonal), 2.0 * np.abs(np.tile(k, 2)), rtol=2e-15, atol=0)
        assert trace_norm(np.array([[3.0, 0.0], [0.0, -4.0]])) == 7.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_two_by_two_non_finite_entry_gives_a_non_finite_norm(self, bad):
        # never a finite number, and no warning; the other matrices in the stack keep their norms
        stack = np.tile(np.eye(2), (6, 1, 1))
        stack[[0, 1, 2, 3], [0, 0, 1, 1], [0, 1, 0, 1]] = bad
        stack[4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = trace_norms(stack)
        assert not np.isfinite(norms[:5]).any()
        assert norms[5] == 2.0


class TestSlices:
    def test_ghz_t_matrix(self):
        d = decompose_state(preset_density("ghz"))
        np.testing.assert_allclose(t_matrix_for_setting(d, CANONICAL_SETTING),
                                   np.diag([1.0, -1.0, 0.0]), atol=1e-12)

    def test_w_t_matrix(self):
        d = decompose_state(preset_density("w"))
        expected = np.zeros((3, 3))
        expected[0, 2] = expected[2, 0] = 2 / 3
        np.testing.assert_allclose(t_matrix_for_setting(d, CANONICAL_SETTING), expected, atol=1e-12)

    def test_reversed_setting_transposes(self):
        rng = np.random.default_rng(22)
        reverse = Setting.from_string("CBA")
        for _ in range(20):
            d = decompose_state(random_density(rng))
            np.testing.assert_allclose(t_matrix_for_setting(d, reverse),
                                       t_matrix_for_setting(d, CANONICAL_SETTING).T, atol=1e-12)
            np.testing.assert_allclose(pair_correlation_for_setting(d, reverse),
                                       pair_correlation_for_setting(d, CANONICAL_SETTING).T, atol=1e-12)

    def test_role_rule_table(self):
        # (P, T, dealer-assistant pair) per setting, written out from the stored
        # fields: Q, R, S have rows on the earlier qubit, tau is indexed (A, B, C)
        table = {
            "ABC": lambda d: (d.R, d.tau[:, 0, :], d.Q),
            "ACB": lambda d: (d.Q, d.tau[:, :, 0], d.R),
            "BAC": lambda d: (d.S, d.tau[0, :, :], d.Q.T),
            "BCA": lambda d: (d.Q.T, d.tau[:, :, 0].T, d.S),
            "CAB": lambda d: (d.S.T, d.tau[0, :, :].T, d.R.T),
            "CBA": lambda d: (d.R.T, d.tau[:, 0, :].T, d.S.T),
        }
        assert sorted(table) == sorted(str(s) for s in ALL_SETTINGS)
        rng = np.random.default_rng(24)
        for _ in range(20):
            d = decompose_state(random_density(rng))
            for s in ALL_SETTINGS:
                P, T, pair = table[str(s)](d)
                t = role_tensor(d, s)
                for got, want in ((t[1:, 0, 1:], P), (t[1:, 1, 1:], T), (t[1:, 1:, 0], pair),
                                  (pair_correlation_for_setting(d, s), P), (t_matrix_for_setting(d, s), T)):
                    assert np.array_equal(got, want)
                assert not t.flags.writeable

    def test_product_state_pair_matrices_factor(self):
        rng = np.random.default_rng(23)
        u, v, w = (0.7 * x / np.linalg.norm(x) for x in rng.normal(size=(3, 3)))
        singles = [(identity2 + b[0] * pauli_x + b[1] * pauli_y + b[2] * pauli_z) / 2 for b in (u, v, w)]
        d = decompose_state(kron3(*singles))
        np.testing.assert_allclose(pair_correlation_for_setting(d, CANONICAL_SETTING), np.outer(u, w), atol=1e-12)
        np.testing.assert_allclose(d.Q, np.outer(u, v), atol=1e-12)
        np.testing.assert_allclose(d.S, np.outer(v, w), atol=1e-12)


class TestTheta:
    def test_ghz_every_setting(self):
        d = decompose_state(preset_density("ghz"))
        for s in ALL_SETTINGS:
            assert theta(d, s) == pytest.approx(3.0, abs=1e-12)

    def test_w_value(self):
        d = decompose_state(preset_density("w"))
        assert theta(d, CANONICAL_SETTING) == pytest.approx(7 / 3, abs=1e-12)

    def test_maximally_mixed_is_zero(self):
        d = decompose_state(np.eye(8) / 8)
        assert theta(d, CANONICAL_SETTING) == pytest.approx(0.0, abs=1e-14)

    def test_range_and_triangle_bounds(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            d = decompose_state(random_density(rng))
            p_norm = trace_norm(pair_correlation_for_setting(d, CANONICAL_SETTING))
            t_norm = trace_norm(t_matrix_for_setting(d, CANONICAL_SETTING))
            th = theta(d, CANONICAL_SETTING)
            assert 0 <= th <= 3 + 1e-12
            assert th >= max(p_norm, t_norm) - 1e-12
            assert th <= p_norm + t_norm + 1e-12

    def test_dealer_reconstructor_swap_symmetry(self):
        rng = np.random.default_rng(25)
        reverse = Setting.from_string("CBA")
        for _ in range(50):
            d = decompose_state(random_density(rng))
            assert theta(d, CANONICAL_SETTING) == pytest.approx(theta(d, reverse), abs=1e-12)

    def test_f_max_values(self):
        assert f_max_from_theta(3.0) == pytest.approx(1.0, abs=1e-15)
        assert f_max(decompose_state(preset_density("w"))) == pytest.approx(8 / 9, abs=1e-12)
        assert f_max_from_theta(0.0) == pytest.approx(0.5, abs=1e-15)


class TestTeleportation:
    def test_values(self):
        assert teleportation_fidelity(np.diag([0.0, 0, 1])) == pytest.approx(2 / 3, abs=1e-14)
        assert teleportation_fidelity(np.diag([2 / 3, 2 / 3, -1 / 3])) == pytest.approx(7 / 9, abs=1e-14)
        assert teleportation_fidelity(np.zeros((3, 3))) == pytest.approx(0.5, abs=1e-15)


class TestClassification:
    def test_preset_cases(self):
        assert full_report(preset_density("ghz")).case_label.label == "case1"
        assert full_report(preset_density("gamma-mix")).case_label.label == "case2"
        assert full_report(preset_density("mixed")).case_label.label == "case4"

    def test_pair_without_assistance_is_case3(self):
        report = full_report(bell_ac_density())
        assert report.case_label.label == "case3"

    def test_epsilon_threshold(self):
        tiny = np.full((3, 3), 1e-12)
        big = np.eye(3)
        assert classify_case(tiny, big).label == "case2"
        assert classify_case(tiny, big, eps=1e-13).label == "case1"
        with pytest.raises(ValueError):
            classify_case(tiny, big, eps=0.0)

    @pytest.mark.parametrize("eps", [1, np.float64(1e-9), 1e-9])
    def test_epsilon_of_any_real_scalar_type(self, eps):
        tiny, big = np.zeros((3, 3)), np.eye(3)
        labels = [classify_case(a, b, eps).label for a, b in ((big, big), (tiny, big), (big, tiny), (tiny, tiny))]
        assert labels == ["case1", "case2", "case3", "case4"]
        assert classify_case(big, big, eps).epsilon == eps

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0, -1])
    def test_rejects_epsilon_that_is_not_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            classify_case(np.eye(3), np.eye(3), eps)

    def test_pair_zero_forces_teleportation_half(self):
        # convex mixing with the identity preserves the zero pair matrix
        gamma = preset_density("gamma-mix")
        for t in (1.0, 0.7, 0.3):
            rho = t * gamma + (1 - t) * np.eye(8) / 8
            report = full_report(rho)
            assert report.case_label.label in ("case2", "case4")
            assert report.f_tele_dealer_reconstructor == pytest.approx(0.5, abs=1e-12)

    def test_assistance_free_states_collapse_to_pair_norm(self):
        # T = O: the optimum equals plain pair teleportation
        report = full_report(bell_ac_density())
        assert report.theta == pytest.approx(3.0, abs=1e-12)
        assert report.f_max == pytest.approx(report.f_tele_dealer_reconstructor, abs=1e-12)
        assert report.f_max == pytest.approx(1.0, abs=1e-12)


class TestQSS:
    def test_ghz_qualifies_on_the_boundary(self):
        check = qss_check(decompose_state(preset_density("ghz")))
        assert check.ok
        assert check.assistant_channel_norm == pytest.approx(1.0, abs=1e-12)
        assert check.reconstructor_channel_norm == pytest.approx(1.0, abs=1e-12)

    def test_w_fails_on_strong_channels(self):
        check = qss_check(decompose_state(preset_density("w")))
        assert not check.ok
        assert check.reconstructor_channel_norm == pytest.approx(5 / 3, abs=1e-12)

    def test_beta_mix_qualifies(self):
        check = qss_check(decompose_state(preset_density("beta-mix")))
        assert check.ok
        assert check.assistant_channel_norm == pytest.approx(0.5, abs=1e-12)
        assert check.reconstructor_channel_norm == pytest.approx(0.5, abs=1e-12)
        assert check.theta == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)

    def test_no_advantage_means_no_sharing(self):
        check = qss_check(decompose_state(np.eye(8) / 8))
        assert not check.ok  # theta = 0 fails the strict > 1 condition


class TestReport:
    def test_dict_field_order_is_stable(self):
        report = full_report(preset_density("ghz"))
        payload = report_to_dict(report)
        assert list(payload) == [
            "setting", "theta", "f_max", "f_tele_dealer_reconstructor",
            "f_tele_dealer_assistant", "case_label", "qss_ok",
            "qss_assistant_channel_norm", "qss_reconstructor_channel_norm",
            "quantum_advantage", "epsilon",
        ]
        assert payload["setting"] == "ABC"
        assert payload["quantum_advantage"] is True

    def test_advantage_flag_matches_theta(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            report = report_from_decomposition(decompose_state(random_density(rng)))
            assert report.quantum_advantage == (report.theta > 1.0)

    def test_full_report_validates_input(self):
        bad = (np.eye(8) + 1.5 * kron3(pauli_x, pauli_x, pauli_x)) / 8
        with pytest.raises(NotPSDError):
            full_report(bad)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
    def test_a_coefficient_excess_within_tolerance_is_no_advantage(self):
        # |000><000| within validation's tolerance; its a_z = 1 + 1.8e-9 gives theta 1.0000000018
        rho = np.diag([1.0 + 9e-10, 0, 0, 0, -9e-10, 0, 0, 0])
        assert not full_report(rho).quantum_advantage

    def test_report_epsilon_recorded(self):
        report = full_report(preset_density("ghz"), eps=1e-6)
        assert report.epsilon == 1e-6
        assert report.case_label.epsilon == 1e-6


def three_call_report(d, setting):
    """theta, the two channel norms, f_max and the QSS verdict from one SVD call each."""
    t = role_tensor(d, setting)
    P, T = t[1:, 0, 1:], t[1:, 1, 1:]
    th = float(theta_from_pair(P, T))
    r_norm, q_norm = trace_norm(P), trace_norm(t[1:, 1:, 0])
    ok = q_norm <= 1.0 + QSS_NORM_SLACK and r_norm <= 1.0 + QSS_NORM_SLACK and th > 1.0
    return th, r_norm, q_norm, f_max_from_theta(th), ok


def coefficient_decomposition(Q=None, R=None, tau_entries=()):
    """Keyword-built decomposition, zero except Q, R and the given (index, value) entries of tau."""
    tau = np.zeros((3, 3, 3))
    for index, value in tau_entries:
        tau[index] = value
    zero = np.zeros((3, 3))
    return BlochDecomposition(a=np.zeros(3), b=np.zeros(3), c=np.zeros(3), Q=zero if Q is None else Q,
                              R=zero if R is None else R, S=zero, tau=tau)


class TestOneSVDReport:
    """report_from_decomposition reads theta and both channel norms off one SVD of
    [M_{0,+}, M_{0,-}, P, Q]; every value equals the three separate calls bit for bit."""

    def assert_matches_three_calls(self, d, setting):
        th, r_norm, q_norm, fm, ok = three_call_report(d, setting)
        report = report_from_decomposition(d, setting)
        assert report.theta == th and report.qss.theta == th
        assert report.qss.reconstructor_channel_norm == r_norm
        assert report.qss.assistant_channel_norm == q_norm
        assert report.f_max == fm
        assert report.f_tele_dealer_reconstructor == f_max_from_theta(r_norm)
        assert report.f_tele_dealer_assistant == f_max_from_theta(q_norm)
        assert report.qss.ok == ok and report.quantum_advantage == (th > 1.0)
        return report

    def test_random_and_degenerate_states(self):
        rng = np.random.default_rng(61)
        states = [pure_to_density(random_pure(rng)) for _ in range(100)]
        states += [random_density(rng) for _ in range(100)]
        states += [preset_density("ghz"), preset_density("mixed")]  # isotropic with det = 0, and I/8
        for rho in states:
            d = decompose_state(rho)
            for setting in ALL_SETTINGS:
                self.assert_matches_three_calls(d, setting)

    def test_theta_exactly_one(self):
        # P = diag(1, 0, 0), T = O: theta = (1 + 1) / 2 = 1, no advantage
        report = self.assert_matches_three_calls(coefficient_decomposition(R=np.diag([1.0, 0, 0])), CANONICAL_SETTING)
        assert report.theta == 1.0 and not report.quantum_advantage and not report.qss.ok
        # (|000><000| + |101><101|) / 2 has P = diag(0, 0, 1) and T = O on ABC
        rho = np.zeros((8, 8))
        rho[0, 0] = rho[5, 5] = 0.5
        report = self.assert_matches_three_calls(decompose_state(rho), CANONICAL_SETTING)
        assert report.theta == 1.0 and report.f_max == 2 / 3 and not report.quantum_advantage

    @pytest.mark.parametrize("channel", ["assistant", "reconstructor"])
    def test_qss_norm_boundary(self, channel):
        # on ABC, P = R and the dealer-assistant pair is Q; T = tau[:, 0, :] = E_yy gives theta = 1 + ||P||_1
        edge = 1.0 + QSS_NORM_SLACK
        for norm, ok in ((edge, True), (np.nextafter(edge, 2.0), False)):
            pairs = {"Q": np.diag([1.0, 0, 0]), "R": np.diag([1.0, 0, 0])}
            pairs["Q" if channel == "assistant" else "R"] = np.diag([norm, 0, 0])
            d = coefficient_decomposition(**pairs, tau_entries=[((1, 0, 1), 1.0)])
            report = self.assert_matches_three_calls(d, CANONICAL_SETTING)
            assert getattr(report.qss, f"{channel}_channel_norm") == norm
            assert report.theta > 1.0 and report.qss.ok is ok
