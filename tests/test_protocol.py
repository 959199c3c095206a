import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import random_density, random_pure, random_rotation
from qrecon.fidelity import (
    ALL_SETTINGS,
    CANONICAL_SETTING,
    Setting,
    branch_matrices,
    f_max,
    full_report,
    pair_correlation_for_setting,
    t_matrix_for_setting,
    theta,
    trace_norm,
)
from qrecon.paulis import identity2, kron3, pauli_x, pauli_z
from qrecon.presets import preset_density
from qrecon.protocol import (
    BELL_DIAGONALS,
    BRANCHES,
    _axis_overlap_fidelity,
    _branch_weights,
    _guess_fidelity_samples,
    bell_projectors,
    branch_maps,
    classical_baseline,
    closed_form_bounds,
    dishonest_guess_fidelity,
    expected_fidelity_exact,
    expected_fidelity_mc,
    fixed_rotation_fidelity,
    hadamard_projectors,
    optimal_rotation,
    optimal_rotations,
    permute_to_canonical,
    rotation_to_unitary,
    simulate_branches,
    sphere_average_identity_check,
)
from qrecon.states import NotPSDError, decompose_state, pure_to_density


def bell_kets():
    """The four projector targets built independently from kets."""
    k00 = np.array([1, 0, 0, 0], dtype=complex)
    k01 = np.array([0, 1, 0, 0], dtype=complex)
    k10 = np.array([0, 0, 1, 0], dtype=complex)
    k11 = np.array([0, 0, 0, 1], dtype=complex)
    return (
        (k01 - k10) / np.sqrt(2),   # l = 0, singlet
        (k00 - k11) / np.sqrt(2),   # l = 1
        (k00 + k11) / np.sqrt(2),   # l = 2
        (k01 + k10) / np.sqrt(2),   # l = 3
    )


class TestProjectors:
    def test_bell_projectors_match_kets(self):
        for proj, ket in zip(bell_projectors, bell_kets()):
            np.testing.assert_allclose(proj, np.outer(ket, ket.conj()), atol=1e-12)

    def test_bell_family_algebra(self):
        total = np.zeros((4, 4), dtype=complex)
        for i, p in enumerate(bell_projectors):
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
            for j, q in enumerate(bell_projectors):
                if i != j:
                    np.testing.assert_allclose(p @ q, 0, atol=1e-12)
            total += p
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_hadamard_family_algebra(self):
        plus, minus = hadamard_projectors[+1], hadamard_projectors[-1]
        np.testing.assert_allclose(plus @ plus, plus, atol=1e-12)
        np.testing.assert_allclose(plus @ minus, 0, atol=1e-12)
        np.testing.assert_allclose(plus + minus, identity2, atol=1e-12)

    def test_branch_order(self):
        assert BRANCHES[0] == (0, 1) and BRANCHES[1] == (0, -1) and len(BRANCHES) == 8


NOT_ROTATIONS = {
    "nan": np.full((3, 3), np.nan),
    "inf": np.diag([np.inf, 1.0, 1.0]),
    "reflection": np.diag([1.0, 1.0, -1.0]),
    "scaled": 2 * np.eye(3),
}

ROTATION_ENTRY_POINTS = {
    "branch_maps": lambda rho, rots: branch_maps(rho, rotations=rots),
    "expected_fidelity_mc": lambda rho, rots: expected_fidelity_mc(rho, n_samples=10, rotations=rots),
    "expected_fidelity_exact": lambda rho, rots: expected_fidelity_exact(rho, rotations=rots),
    "fixed_rotation_fidelity": lambda rho, rots: fixed_rotation_fidelity(decompose_state(rho), CANONICAL_SETTING, rots),
    "simulate_branches": lambda rho, rots: simulate_branches(rho, np.array([0.0, 0.0, 1.0]), rots),
}


class TestRotations:
    def test_identity_rotation(self):
        np.testing.assert_allclose(rotation_to_unitary(np.eye(3)), identity2, atol=1e-15)

    def test_conjugation_consistency(self):
        # U sigma_i U^dag must equal sum_j Omega_ij sigma_j
        from qrecon.paulis import paulis
        rng = np.random.default_rng(31)
        angle = np.deg2rad(179.99)
        near_pi = np.array([[1.0, 0.0, 0.0],
                            [0.0, np.cos(angle), -np.sin(angle)],
                            [0.0, np.sin(angle), np.cos(angle)]])
        pi_rotations = [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
        for omega in [*(random_rotation(rng) for _ in range(50)), *pi_rotations, near_pi]:
            u = rotation_to_unitary(omega)
            np.testing.assert_allclose(u @ u.conj().T, identity2, atol=1e-12)
            for i in range(3):
                lhs = u @ paulis[i] @ u.conj().T
                rhs = sum(omega[i, j] * paulis[j] for j in range(3))
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_rejects_non_rotations(self):
        # a NaN must raise, not warn (RuntimeWarning is an error here) and return a NaN unitary
        for bad in (*NOT_ROTATIONS.values(), np.eye(3)[None]):
            with pytest.raises(ValueError):
                rotation_to_unitary(bad)

    @pytest.mark.parametrize("entry", sorted(ROTATION_ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [*NOT_ROTATIONS, "shape"])
    def test_entry_points_reject_non_rotations(self, entry, bad):
        # one bad matrix in an otherwise valid stack, or a stack of the wrong shape
        rots = np.eye(3)[None] if bad == "shape" else np.stack([np.eye(3)] * 7 + [NOT_ROTATIONS[bad]])
        with pytest.raises(ValueError):
            ROTATION_ENTRY_POINTS[entry](preset_density("w"), rots)

    def test_optimal_rotations_are_a_read_only_stack(self):
        rots = optimal_rotations(decompose_state(preset_density("w")))
        assert rots.shape == (8, 3, 3) and not rots.flags.writeable
        np.testing.assert_allclose(rots @ rots.swapaxes(1, 2), np.stack([np.eye(3)] * 8), atol=1e-12)
        np.testing.assert_allclose(np.linalg.det(rots), 1.0, atol=1e-12)


class TestOptimalRotation:
    def test_identity_branch_matrix(self):
        omega, so3_val, tn_val = optimal_rotation(np.eye(3))
        np.testing.assert_allclose(omega, np.eye(3), atol=1e-12)
        assert so3_val == pytest.approx(3.0, abs=1e-12) and tn_val == pytest.approx(3.0, abs=1e-12)

    def test_beats_random_rotations(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            omega, so3_val, tn_val = optimal_rotation(m)
            assert so3_val <= tn_val + 1e-12
            assert np.trace(m @ omega) == pytest.approx(so3_val, abs=1e-10)
            for _ in range(10):
                assert np.trace(m @ random_rotation(rng)) <= so3_val + 1e-10

    def test_positive_determinant_attains_trace_norm(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            if np.linalg.det(m) < 0:
                m[:, 0] *= -1
            _, so3_val, tn_val = optimal_rotation(m)
            assert so3_val == pytest.approx(tn_val, abs=1e-10)
            assert so3_val == pytest.approx(trace_norm(m), abs=1e-10)


class TestSimulation:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(34)
        rho = random_density(rng)
        rots = optimal_rotations(decompose_state(rho))
        phi = rng.normal(size=3)
        phi /= np.linalg.norm(phi)
        outcomes = simulate_branches(rho, phi, rots)
        assert sum(o.p_alpha for o in outcomes) == pytest.approx(1.0, abs=1e-12)
        for o in outcomes:
            assert -1e-12 <= o.branch_fidelity <= 1 + 1e-12

    def test_ghz_reconstructs_perfectly_pointwise(self):
        ghz = preset_density("ghz")
        rots = optimal_rotations(decompose_state(ghz))
        rng = np.random.default_rng(35)
        for phi in [np.eye(3)[0], np.eye(3)[2], *(v / np.linalg.norm(v) for v in rng.normal(size=(3, 3)))]:
            outcomes = simulate_branches(ghz, phi, rots)
            total = sum(o.p_alpha * o.branch_fidelity for o in outcomes)
            assert total == pytest.approx(1.0, abs=1e-12)
            for o in outcomes:
                assert o.p_alpha == pytest.approx(1 / 8, abs=1e-12)

    def test_zero_probability_branches(self):
        # product resource and phi = +z kill the odd-parity Bell branches
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        rho = pure_to_density(psi)
        rots = np.stack([np.eye(3)] * 8)
        outcomes = simulate_branches(rho, np.array([0.0, 0.0, 1.0]), rots)
        zero_branches = [o for o in outcomes if o.p_alpha < 1e-15]
        assert zero_branches, "expected at least one vanishing branch"
        for o in zero_branches:
            assert o.charlie_state is None and o.branch_fidelity == 0.0
        assert sum(o.p_alpha for o in outcomes) == pytest.approx(1.0, abs=1e-12)

    def test_requires_unit_bloch_vector(self):
        rho = preset_density("ghz")
        rots = optimal_rotations(decompose_state(rho))
        with pytest.raises(ValueError):
            simulate_branches(rho, np.array([0.0, 0.0, 2.0]), rots)
        with pytest.raises(ValueError):
            simulate_branches(rho, np.array([0.0, 0.0, 1.0]), rots[:3])

    def test_batched_weights_match_reference(self):
        rng = np.random.default_rng(36)
        for _ in range(3):
            rho = random_density(rng)
            rots = np.stack([random_rotation(rng) for _ in range(8)])
            phis = rng.normal(size=(5, 3))
            phis /= np.linalg.norm(phis, axis=1)[:, None]
            p, w = _branch_weights(*branch_maps(rho, rotations=rots), phis)
            for n, phi in enumerate(phis):
                outcomes = simulate_branches(rho, phi, rots)
                np.testing.assert_allclose(p[:, n], [o.p_alpha for o in outcomes], atol=1e-10)
                np.testing.assert_allclose(w[:, n], [o.p_alpha * o.branch_fidelity for o in outcomes], atol=1e-10)

    @seed(36)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["mixed", "pure", "ghz", "product"]), st.booleans())
    def test_branch_maps_match_reference_property(self, draw, kind, on_axis):
        rng = np.random.default_rng(draw)
        rho = {"mixed": lambda: random_density(rng), "pure": lambda: pure_to_density(random_pure(rng)),
               "ghz": lambda: preset_density("ghz"),
               # |000>: the odd-parity Bell branches vanish for phi = +-z
               "product": lambda: pure_to_density(np.eye(8)[0])}[kind]()
        rots = np.stack([random_rotation(rng) for _ in range(8)])
        phi = np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0]) if on_axis else rng.normal(size=3)
        phi /= np.linalg.norm(phi)
        p, w = _branch_weights(*branch_maps(rho, rotations=rots), phi[None, :])
        outcomes = simulate_branches(rho, phi, rots)
        np.testing.assert_allclose(p[:, 0], [o.p_alpha for o in outcomes], atol=1e-10)
        np.testing.assert_allclose(w[:, 0], [o.p_alpha * o.branch_fidelity for o in outcomes], atol=1e-10)


class TestClosedFormAgreement:
    def test_fixed_rotations_match_simulation(self):
        # sphere-averaged simulation == 1/2 + (1/48) sum Tr[M Omega]
        rng = np.random.default_rng(37)
        for _ in range(5):
            rho = random_density(rng)
            d = decompose_state(rho)
            rots = np.stack([random_rotation(rng) for _ in range(8)])
            sim = expected_fidelity_exact(rho, CANONICAL_SETTING, rotations=rots)
            closed = fixed_rotation_fidelity(d, CANONICAL_SETTING, rots)
            assert sim == pytest.approx(closed, abs=1e-10)
        with pytest.raises(ValueError):  # one rotation must not broadcast over the 8 branches
            fixed_rotation_fidelity(d, CANONICAL_SETTING, rots[:1])

    @seed(37)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(ALL_SETTINGS))
    def test_six_axis_average_matches_closed_form_property(self, draw, setting):
        rng = np.random.default_rng(draw)
        rho = random_density(rng)
        rots = np.stack([random_rotation(rng) for _ in range(8)])
        sim = expected_fidelity_exact(rho, setting, rotations=rots)
        assert sim == pytest.approx(fixed_rotation_fidelity(decompose_state(rho), setting, rots), abs=1e-10)

    def test_simulator_evaluates_no_closed_form(self, monkeypatch):
        rng = np.random.default_rng(44)
        rho = random_density(rng)
        rots = np.stack([random_rotation(rng) for _ in range(8)])

        def refuse(*args, **kwargs):
            raise AssertionError("the simulator evaluated a closed form")

        monkeypatch.setattr("qrecon.protocol.branch_matrices", refuse)
        mc = expected_fidelity_mc(rho, n_samples=2000, seed=5, rotations=rots)
        exact = expected_fidelity_exact(rho, rotations=rots)
        assert abs(mc.mean - exact) <= 4 * mc.std_error
        with pytest.raises(AssertionError):  # the patch is live: default rotations need the closed form
            expected_fidelity_exact(rho)

    def test_optimal_rotations_match_so3_bound(self):
        rng = np.random.default_rng(38)
        for _ in range(5):
            rho = random_density(rng)
            bounds = closed_form_bounds(decompose_state(rho))
            sim = expected_fidelity_exact(rho)
            assert sim == pytest.approx(bounds.f_so3, abs=1e-10)
            assert bounds.f_so3 <= bounds.f_trace_norm + 1e-12
            assert bounds.so3_gap >= -1e-12

    def test_trace_norm_route_reproduces_f_max(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            d = decompose_state(random_density(rng))
            bounds = closed_form_bounds(d)
            assert bounds.f_trace_norm == pytest.approx(f_max(d), abs=1e-10)

    def test_gap_is_real_for_some_states(self):
        # fixed Ginibre seed known to produce negative-determinant branches
        rng = np.random.default_rng(20250819)
        gaps = [closed_form_bounds(decompose_state(random_density(rng))).so3_gap for _ in range(10)]
        assert all(g >= -1e-12 for g in gaps)
        assert max(gaps) > 1e-3

    def test_presets_without_gap(self):
        for name, value in (("ghz", 1.0), ("w", 8 / 9)):
            rho = preset_density(name)
            assert expected_fidelity_exact(rho) == pytest.approx(value, abs=1e-10)

    def test_branch_matrix_composition(self):
        d = decompose_state(preset_density("ghz"))
        m = branch_matrices(d, CANONICAL_SETTING)[BRANCHES.index((2, +1))]
        t2 = np.diag(BELL_DIAGONALS[2])
        np.testing.assert_allclose(m, t2 @ (np.diag([0.0, 0, 1]) + np.diag([1.0, -1.0, 0.0])), atol=1e-12)


class TestResearchBoundary:
    @seed(45)
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_so3_gap_is_the_negative_determinant_branches(self, draw, pure):
        # f_trace_norm - f_so3 = (2/48) sum of s3(M_b) over the branches with det M_b < 0
        rng = np.random.default_rng(draw)
        rho = pure_to_density(random_pure(rng)) if pure else random_density(rng)
        d = decompose_state(rho)
        for setting in ALL_SETTINGS:
            m = branch_matrices(d, setting)
            dets = np.linalg.det(m)
            P, T = pair_correlation_for_setting(d, setting), t_matrix_for_setting(d, setting)
            # every t_l has det -1
            np.testing.assert_allclose(dets, [-np.linalg.det(P + x * T) for _, x in BRANCHES], atol=1e-12)
            gap = closed_form_bounds(d, setting).so3_gap
            # a zero gap is the difference of two rounded fidelities and can read -2 ulp
            assert gap >= -1e-15
            s3 = np.linalg.svd(m, compute_uv=False)[:, 2]
            assert gap == pytest.approx(2 / 48 * s3[dets < 0].sum(), abs=1e-12)

    def test_theta_one_with_singular_branches(self):
        rho = np.zeros((8, 8))
        rho[0, 0] = rho[5, 5] = 0.5  # (|000><000| + |101><101|) / 2
        d = decompose_state(rho)
        assert np.all(np.linalg.det(branch_matrices(d)) == 0)
        report = full_report(rho)
        assert report.theta == 1.0 and report.f_max == 2 / 3
        assert not report.quantum_advantage and report.case_label.label == "case3"
        bounds = closed_form_bounds(d)
        assert expected_fidelity_exact(rho) == pytest.approx(bounds.f_so3, abs=1e-12)
        assert bounds.f_so3 == pytest.approx(bounds.f_trace_norm, abs=1e-12)

    def test_ghz_with_repeated_singular_values(self):
        rho = preset_density("ghz")
        d = decompose_state(rho)
        P, T = pair_correlation_for_setting(d, CANONICAL_SETTING), t_matrix_for_setting(d, CANONICAL_SETTING)
        for x in (+1, -1):
            np.testing.assert_allclose(np.linalg.svd(P + x * T, compute_uv=False), 1.0, atol=1e-12)
        bounds = closed_form_bounds(d)
        assert expected_fidelity_exact(rho) == pytest.approx(bounds.f_so3, abs=1e-12)
        assert bounds.f_so3 == pytest.approx(bounds.f_trace_norm, abs=1e-12)


class TestSettingsPermutation:
    def test_permuted_state_reproduces_theta(self):
        rng = np.random.default_rng(40)
        rho = random_density(rng)
        d = decompose_state(rho)
        for s in ALL_SETTINGS:
            permuted = permute_to_canonical(rho, s)
            d_perm = decompose_state(permuted)
            assert theta(d_perm, CANONICAL_SETTING) == pytest.approx(theta(d, s), abs=1e-12)

    def test_permuted_simulation_matches(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng)
        for s in ALL_SETTINGS:
            direct = expected_fidelity_exact(rho, s)
            via_permutation = expected_fidelity_exact(permute_to_canonical(rho, s), CANONICAL_SETTING)
            assert direct == pytest.approx(via_permutation, abs=1e-12)

    def test_canonical_permutation_is_identity(self):
        rho = preset_density("w")
        np.testing.assert_allclose(permute_to_canonical(rho, CANONICAL_SETTING), rho, atol=0)


class TestMonteCarlo:
    def test_ghz_exact_mean(self):
        mc = expected_fidelity_mc(preset_density("ghz"), n_samples=2000, seed=42)
        assert mc.mean == pytest.approx(1.0, abs=1e-9)
        for b in mc.per_branch:
            assert b.probability == pytest.approx(1 / 8, abs=1e-12)

    def test_w_within_three_sigma(self):
        mc = expected_fidelity_mc(preset_density("w"), n_samples=20000, seed=1)
        assert abs(mc.mean - 8 / 9) <= 3 * mc.std_error

    def test_reproducible_and_chunk_independent(self):
        rho = preset_density("beta-mix")
        a = expected_fidelity_mc(rho, n_samples=3000, seed=7)
        for chunk in (1, 64, 8191):
            b = expected_fidelity_mc(rho, n_samples=3000, seed=7, chunk=chunk)
            assert a.mean == b.mean and a.std_error == b.std_error
            # per-branch sums are taken per chunk: only close, and chunk 1 sums sample by sample
            for x, y in zip(a.per_branch, b.per_branch):
                assert x.probability == pytest.approx(y.probability, rel=0, abs=1e-15)
                assert x.fidelity == pytest.approx(y.fidelity, rel=0, abs=1e-14)
        assert sum(s.probability for s in a.per_branch) == pytest.approx(1.0, abs=1e-12)

    def test_memory_grows_by_one_float_per_sample(self):
        # directions are drawn per chunk, so only the per-sample totals grow with n
        rho = preset_density("w")
        rots = optimal_rotations(decompose_state(rho))

        def peak(n):
            tracemalloc.start()
            try:
                expected_fidelity_mc(rho, n_samples=n, seed=3, rotations=rots)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(200_000) - peak(20_000)) / 180_000 <= 16

    def test_suboptimal_rotations_stay_below_f_max(self):
        rng = np.random.default_rng(43)
        rho = random_density(rng)
        rots = np.stack([random_rotation(rng) for _ in range(8)])
        mc = expected_fidelity_mc(rho, n_samples=5000, seed=11, rotations=rots)
        bound = f_max(decompose_state(rho))
        assert mc.mean <= bound + max(3 * mc.std_error, 1e-9)

    def test_setting_argument(self):
        rho = preset_density("wexample3")
        mc = expected_fidelity_mc(rho, Setting.from_string("CBA"), n_samples=4000, seed=3)
        bounds = closed_form_bounds(decompose_state(rho), Setting.from_string("CBA"))
        assert abs(mc.mean - bounds.f_so3) <= 3 * mc.std_error

    def test_validation_errors(self):
        with pytest.raises(NotPSDError):
            expected_fidelity_mc((np.eye(8) + 1.5 * kron3(pauli_x, pauli_x, pauli_x)) / 8, n_samples=10)
        with pytest.raises(ValueError):
            expected_fidelity_mc(preset_density("ghz"), n_samples=0)
        with pytest.raises(ValueError):  # a negative chunk would skip the loop and average an unfilled array
            expected_fidelity_mc(preset_density("ghz"), n_samples=10, chunk=-1)
        with pytest.raises(ValueError):
            expected_fidelity_mc(preset_density("ghz"), n_samples=10,
                                 rotations=np.eye(3)[None])
        with pytest.raises(ValueError):
            expected_fidelity_exact(preset_density("ghz"), rotations=np.eye(3)[None])

    def test_to_dict_shape(self):
        mc = expected_fidelity_mc(preset_density("mixed"), n_samples=500, seed=2)
        payload = mc.to_dict()
        assert list(payload) == ["mean", "std_error", "n_samples", "seed", "per_branch"]
        assert len(payload["per_branch"]) == 8
        assert payload["n_samples"] == 500 and payload["seed"] == 2


class TestSphereAverage:
    def test_unit_quadratic_form(self):
        check = sphere_average_identity_check(np.eye(3), n_samples=1000, seed=42)
        assert check.lhs == pytest.approx(1.0, abs=1e-12)
        assert check.rhs == pytest.approx(1.0, abs=1e-15)

    def test_anisotropic_form(self):
        check = sphere_average_identity_check(np.diag([3.0, 0, 0]), n_samples=50000, seed=42)
        assert abs(check.lhs - check.rhs) <= 3 * check.std_error
        assert check.rhs == pytest.approx(1.0, abs=1e-15)

    def test_rejects_asymmetric(self):
        y = np.zeros((3, 3))
        y[0, 1] = 1.0
        with pytest.raises(ValueError):
            sphere_average_identity_check(y)


class TestClassicalBaselines:
    def test_axis_fidelity_formula(self):
        # aligned input is reproduced perfectly, equatorial input half the time
        assert _axis_overlap_fidelity(np.array(1.0)) == pytest.approx(1.0)
        assert _axis_overlap_fidelity(np.array(0.0)) == pytest.approx(0.5)

    def test_baseline_two_thirds(self):
        n = 200_000
        value = classical_baseline(n, seed=7)
        analytic_sigma = np.sqrt(1 / 45 / n)  # Var[(1 + z^2)/2] = 1/45 for z uniform
        assert abs(value - 2 / 3) <= 3 * analytic_sigma

    def test_guess_formulas(self):
        n = 200_000
        for p in (0.0, 0.25, 0.5, 1.0):
            for strategy, formula in (("same", (1 + p) / 3), ("negate", (2 - p) / 3)):
                samples = _guess_fidelity_samples(p, strategy, n, seed=3)
                se = samples.std(ddof=1) / np.sqrt(n)
                assert abs(samples.mean() - formula) <= 3 * se

    def test_half_transparent_share_is_uninformative(self):
        n = 100_000
        same = dishonest_guess_fidelity(0.5, "same", n, seed=5)
        negate = dishonest_guess_fidelity(0.5, "negate", n, seed=5)
        assert same == pytest.approx(0.5, abs=0.01)
        assert negate == pytest.approx(0.5, abs=0.01)

    def test_input_validation(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n_samples"):
                classical_baseline(n, seed=1)
            with pytest.raises(ValueError, match="n_samples"):
                dishonest_guess_fidelity(0.5, "same", n, 1)
        with pytest.raises(ValueError):
            dishonest_guess_fidelity(-0.1, "same", 10, 1)
        with pytest.raises(ValueError):
            dishonest_guess_fidelity(1.1, "negate", 10, 1)
        with pytest.raises(ValueError):
            dishonest_guess_fidelity(0.5, "flip", 10, 1)
