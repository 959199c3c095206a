import numpy as np
import pytest

from conftest import random_density, random_pure, random_rotation
from qrecon.fidelity import ALL_SETTINGS, CANONICAL_SETTING, Setting, branch_matrices, f_max, theta, trace_norm
from qrecon.paulis import identity2, kron3, pauli_x, pauli_z
from qrecon.presets import preset_density
from qrecon.protocol import (
    BELL_DIAGONALS,
    BRANCHES,
    CorrectionRotation,
    _axis_overlap_fidelity,
    _batched_branch_weights,
    _guess_fidelity_samples,
    _source_states,
    bell_projectors,
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
        with pytest.raises(ValueError):
            rotation_to_unitary(2 * np.eye(3))
        with pytest.raises(ValueError):
            rotation_to_unitary(np.diag([1.0, 1.0, -1.0]))  # reflection

    def test_correction_rotation_factory(self):
        rot = CorrectionRotation.from_matrix(np.eye(3))
        np.testing.assert_allclose(rot.u, identity2, atol=1e-15)
        assert not rot.omega.flags.writeable


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
        rots = tuple(CorrectionRotation.from_matrix(np.eye(3)) for _ in range(8))
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
            rots = tuple(CorrectionRotation.from_matrix(random_rotation(rng)) for _ in range(8))
            units = np.stack([r.u for r in rots])
            phis = rng.normal(size=(5, 3))
            phis /= np.linalg.norm(phis, axis=1)[:, None]
            p, w = _batched_branch_weights(rho, _source_states(phis), units)
            for n, phi in enumerate(phis):
                outcomes = simulate_branches(rho, phi, rots)
                np.testing.assert_allclose(p[:, n], [o.p_alpha for o in outcomes], atol=1e-10)
                np.testing.assert_allclose(w[:, n], [o.p_alpha * o.branch_fidelity for o in outcomes], atol=1e-10)


class TestClosedFormAgreement:
    def test_fixed_rotations_match_simulation(self):
        # sphere-averaged simulation == 1/2 + (1/48) sum Tr[M Omega]
        rng = np.random.default_rng(37)
        for _ in range(5):
            rho = random_density(rng)
            d = decompose_state(rho)
            rots = tuple(CorrectionRotation.from_matrix(random_rotation(rng)) for _ in range(8))
            sim = expected_fidelity_exact(rho, CANONICAL_SETTING, rotations=rots)
            closed = fixed_rotation_fidelity(d, CANONICAL_SETTING, rots)
            assert sim == pytest.approx(closed, abs=1e-10)
        with pytest.raises(ValueError):  # one rotation must not broadcast over the 8 branches
            fixed_rotation_fidelity(d, CANONICAL_SETTING, rots[:1])

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
        b = expected_fidelity_mc(rho, n_samples=3000, seed=7, chunk=64)
        assert a.mean == b.mean and a.std_error == b.std_error
        assert sum(s.probability for s in a.per_branch) == pytest.approx(1.0, abs=1e-12)

    def test_suboptimal_rotations_stay_below_f_max(self):
        rng = np.random.default_rng(43)
        rho = random_density(rng)
        rots = tuple(CorrectionRotation.from_matrix(random_rotation(rng)) for _ in range(8))
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
        with pytest.raises(ValueError):
            expected_fidelity_mc(preset_density("ghz"), n_samples=10,
                                 rotations=(CorrectionRotation.from_matrix(np.eye(3)),))

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
        with pytest.raises(ValueError):
            dishonest_guess_fidelity(-0.1, "same", 10, 1)
        with pytest.raises(ValueError):
            dishonest_guess_fidelity(1.1, "negate", 10, 1)
        with pytest.raises(ValueError):
            dishonest_guess_fidelity(0.5, "flip", 10, 1)
