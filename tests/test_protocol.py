import ast
import dataclasses
import inspect
import itertools
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import golden
from conftest import count_calls, literal_directions, random_density, random_pure, random_rotation
from qrecon.fidelity import (
    ALL_SETTINGS,
    CANONICAL_SETTING,
    FRAMES,
    Setting,
    branch_matrices,
    closed_form_bounds,
    f_max,
    fixed_rotation_fidelity,
    full_report,
    optimal_rotation,
    optimal_rotations,
    pair_correlation_for_setting,
    qss_check,
    report_from_decomposition,
    role_tensor,
    singlet_matrices,
    t_matrix_for_setting,
    theta,
    trace_norm,
)
from qrecon.paulis import identity2, pauli_x, pauli_z
from qrecon import protocol
from qrecon.presets import PRESETS, preset_density
from qrecon.protocol import (
    BELL_DIAGONALS,
    BRANCHES,
    MCResult,
    SphereAverageCheck,
    _quadratic,
    _direction_blocks,
    _sphere_mean,
    bell_projectors,
    branch_maps,
    classical_baseline,
    classical_fidelities,
    dishonest_guess_fidelity,
    expected_fidelity_exact,
    expected_fidelity_mc,
    hadamard_projectors,
    permute_to_canonical,
    sphere_average_identity_check,
)
from qrecon.states import NotPSDError, decompose_state, pure_to_density
from qrecon.wclass import sample_wclass, scatter_csv_chunks, scatter_csv_text, scatter_experiment, write_scatter_csv
import reference
from reference import _guess_fidelity_samples, kron3, rotation_to_unitary, simulate_branches


def branch_weights(rho, rots, phis):
    """p[branch, n] and w = p * fidelity from the branch_maps tables: f . p_map and f^T Q_b f."""
    p_map, q_map = branch_maps(rho, rotations=rots)
    f = np.hstack([np.ones((len(phis), 1)), phis])
    return p_map.T @ f.T, np.einsum("nm,mbk,nk->bn", f, q_map, f)


def bytes_per_sample(average, small=20_000, large=200_000):
    """Growth of the tracemalloc peak of ``average(n)`` per sample between ``small`` and ``large``
    samples, after one untraced call (a first call's one-off allocations would count otherwise)."""
    def peak(n):
        tracemalloc.start()
        try:
            average(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    average(small)
    return (peak(large) - peak(small)) / (large - small)


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
        omega = optimal_rotation(np.eye(3))
        np.testing.assert_allclose(omega, np.eye(3), atol=1e-12)
        assert np.trace(omega) == pytest.approx(trace_norm(np.eye(3)), abs=1e-12)

    def test_beats_random_rotations(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            so3_val = np.trace(m @ optimal_rotation(m))
            assert so3_val == pytest.approx(so3_value(m), abs=1e-10)
            assert so3_val <= trace_norm(m) + 1e-12
            for _ in range(10):
                assert np.trace(m @ random_rotation(rng)) <= so3_val + 1e-10

    def test_positive_determinant_attains_trace_norm(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            if np.linalg.det(m) < 0:
                m[:, 0] *= -1
            assert np.trace(m @ optimal_rotation(m)) == pytest.approx(trace_norm(m), abs=1e-10)

    def test_a_stack_gives_a_rotation_stack(self):
        m = np.random.default_rng(31).normal(size=(2, 5, 3, 3))
        omegas = optimal_rotation(m)
        assert omegas.shape == m.shape
        for mi, omega in zip(m.reshape(-1, 3, 3), omegas.reshape(-1, 3, 3)):
            np.testing.assert_array_equal(omega, optimal_rotation(mi))


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
        with pytest.raises(ValueError):  # abs(nan - 1) > tol is False, so NaN needs its own check
            simulate_branches(rho, np.array([np.nan, 0.0, 0.0]), rots)
        with pytest.raises(ValueError):
            simulate_branches(rho, np.array([0.0, 0.0, 1.0]), rots[:3])

    def test_batched_weights_match_reference(self):
        rng = np.random.default_rng(36)
        for _ in range(3):
            rho = random_density(rng)
            rots = np.stack([random_rotation(rng) for _ in range(8)])
            phis = rng.normal(size=(5, 3))
            phis /= np.linalg.norm(phis, axis=1)[:, None]
            p, w = branch_weights(rho, rots, phis)
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
        p, w = branch_weights(rho, rots, phi[None, :])
        outcomes = simulate_branches(rho, phi, rots)
        np.testing.assert_allclose(p[:, 0], [o.p_alpha for o in outcomes], atol=1e-10)
        np.testing.assert_allclose(w[:, 0], [o.p_alpha * o.branch_fidelity for o in outcomes], atol=1e-10)


#: The literal simulator and its helpers, which live in tests/reference.py only.
REFERENCE_ONLY = ("simulate_branches", "ProtocolOutcome", "_source_state", "rotation_to_unitary", "kron3", "pauli_vector")


def test_the_package_ships_one_simulator():
    import qrecon
    from qrecon import paulis, protocol
    for module in (qrecon, protocol, paulis):
        assert [name for name in REFERENCE_ONLY if hasattr(module, name)] == [], module.__name__
    assert set(REFERENCE_ONLY) <= set(vars(reference))


def test_the_reference_shares_no_fast_route_machinery():
    # every name and attribute the reference reads: the comparison stays between two independent derivations
    tree = ast.parse(inspect.getsource(reference))
    read = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "_so3" in read and read.isdisjoint({"branch_maps", "_KERNEL", "_quadratic", "_direction_blocks",
                                                "_literal_blocks", "_sample_directions"})


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

        monkeypatch.setattr("qrecon.fidelity.branch_matrices", refuse)  # at the source: every route reads them there
        monkeypatch.setattr("qrecon.fidelity.singlet_matrices", refuse)
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
            assert bounds.f_trace_norm == f_max(d)

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


def so3_value(m):
    """s1 + s2 + sign(det M) s3 from a plain SVD of one matrix."""
    s = np.linalg.svd(m, compute_uv=False)
    return s[0] + s[1] + np.sign(np.linalg.det(m)) * s[2]


class TestOneRoute:
    """Every closed form reads the two singlet matrices; branch (l, x) is F_l M_{0,x}."""

    @seed(46)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_trace_norm_route_is_f_max_to_the_bit_property(self, draw, pure):
        # closed_form_bounds, theta, f_max and qss_check read the report's one pass: every bit is the report's
        rng = np.random.default_rng(draw)
        d = decompose_state(pure_to_density(random_pure(rng)) if pure else random_density(rng))
        for setting in ALL_SETTINGS:
            report = report_from_decomposition(d, setting)
            bounds = closed_form_bounds(d, setting)
            assert bounds.f_trace_norm == report.f_max
            assert bounds.so3_gap >= 0.0
            assert repr((theta(d, setting), f_max(d, setting), qss_check(d, setting))) == repr(
                (report.theta, report.f_max, report.qss))

    @pytest.mark.parametrize("entry", [closed_form_bounds, report_from_decomposition, theta, f_max, qss_check],
                             ids=lambda entry: entry.__name__)
    def test_one_svd_and_one_det_per_call(self, monkeypatch, entry):
        counts = count_calls(monkeypatch, ["svd", "det"], [np.linalg])
        entry(decompose_state(preset_density("w")), Setting.from_string("ACB"))
        assert counts == {"svd": 1, "det": 1}

    def test_frames_are_the_pauli_rotations(self):
        for l, f in enumerate(FRAMES):
            np.testing.assert_array_equal(np.diag(f), -np.diag(BELL_DIAGONALS[l]))
            assert np.linalg.det(np.diag(f)) == 1.0
        np.testing.assert_array_equal(FRAMES[0], [1.0, 1.0, 1.0])

    def test_branches_are_frames_of_the_singlet_matrices(self):
        rng = np.random.default_rng(47)
        states = [preset_density(name) for name in sorted(PRESETS)]
        states += [random_density(rng) for _ in range(5)] + [pure_to_density(random_pure(rng)) for _ in range(5)]
        for rho in states:
            d = decompose_state(rho)
            for setting in ALL_SETTINGS:
                P, T = pair_correlation_for_setting(d, setting), t_matrix_for_setting(d, setting)
                m = branch_matrices(d, setting)
                literal = [np.diag(BELL_DIAGONALS[l]) @ (P + x * T) for l, x in BRANCHES]
                np.testing.assert_array_equal(m, literal)
                np.testing.assert_array_equal(singlet_matrices(P, T), [m[0], m[1]])
                omegas = optimal_rotations(d, setting)
                for mb, omega in zip(m, omegas):
                    assert np.trace(mb @ omega) == pytest.approx(so3_value(mb), abs=1e-12)
                np.testing.assert_allclose(omegas @ omegas.swapaxes(1, 2), np.stack([np.eye(3)] * 8), atol=1e-12)
                np.testing.assert_allclose(np.linalg.det(omegas), 1.0, atol=1e-12)



def state_252():
    """State 252 of default_rng(11)'s alternating random_density / random_pure draws: at ACB its trace-norm
    f_max is past 2/3 and its SO(3) value is not, the first such pair of the 3000 states x 6 settings drawn."""
    rng = np.random.default_rng(11)
    states = [random_density(rng) if i % 2 == 0 else pure_to_density(random_pure(rng)) for i in range(253)]
    return states[252]


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
            bounds = closed_form_bounds(d, setting)
            gap = bounds.so3_gap
            # the det sign is exactly +-1, so the sum cannot round past the trace norm
            assert gap >= 0.0
            s3 = np.linalg.svd(m, compute_uv=False)[:, 2]
            assert gap == pytest.approx(2 / 48 * s3[dets < 0].sum(), abs=1e-12)

    @pytest.mark.parametrize("setting", ALL_SETTINGS, ids=str)
    def test_branch_optimum_depends_on_x_only(self, setting):
        # at the default rotations, branch b's E[p_b] = p_map[0, b] and E[p_b f_b] = Y_00 + (Y_11 + Y_22 + Y_33) / 3,
        # Y = q_map[:, b, :], are the same for the four l of each x: M_{l,x} = F_l M_{0,x}, one optimum per x
        rng = np.random.default_rng(51)
        states = [preset_density(name) for name in sorted(PRESETS)]
        states += [pure_to_density(random_pure(rng)) for _ in range(10)] + [random_density(rng) for _ in range(10)]
        for rho in states:
            p_map, q_map = branch_maps(rho, setting)
            y = q_map.diagonal(axis1=0, axis2=2)  # y[b, mu] = Y_b[mu, mu]
            averages = np.stack([p_map[0], y[:, 0] + (y[:, 1] + y[:, 2] + y[:, 3]) / 3.0])
            by_l = averages.reshape(2, 4, 2)  # BRANCHES order: l major, x minor
            assert np.ptp(by_l, axis=1).max() <= 1e-15

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

    def test_a_trace_norm_advantage_the_protocol_cannot_attain(self):
        # f_trace_norm > 2/3 says advantage, while unitary corrections reach only f_so3 <= 2/3
        rho, setting = state_252(), Setting.from_string("ACB")
        bounds = closed_form_bounds(decompose_state(rho), setting)
        assert (bounds.f_trace_norm, bounds.f_so3) == pytest.approx((0.66708, 0.64725), abs=5e-6)
        assert bounds.f_trace_norm > 2 / 3 >= bounds.f_so3
        assert full_report(rho, setting).quantum_advantage
        assert expected_fidelity_exact(rho, setting) == pytest.approx(bounds.f_so3, abs=1e-10)

    def test_ghz_with_repeated_singular_values(self):
        rho = preset_density("ghz")
        d = decompose_state(rho)
        P, T = pair_correlation_for_setting(d, CANONICAL_SETTING), t_matrix_for_setting(d, CANONICAL_SETTING)
        for x in (+1, -1):
            np.testing.assert_allclose(np.linalg.svd(P + x * T, compute_uv=False), 1.0, atol=1e-12)
        bounds = closed_form_bounds(d)
        assert expected_fidelity_exact(rho) == pytest.approx(bounds.f_so3, abs=1e-12)
        assert bounds.f_so3 == pytest.approx(bounds.f_trace_norm, abs=1e-12)


def davenport_edges():
    """Named states at the edges of the SO(3) rule: repeated singular values (ghz), zero branch matrices (mixed),
    theta exactly 1 with singular branches (theta-one, as in TestResearchBoundary), the W state and a W-family
    member (wexample3), and state 252, whose SO(3) gap at ACB takes its trace-norm advantage away."""
    theta_one = np.zeros((8, 8))
    theta_one[0, 0] = theta_one[5, 5] = 0.5  # (|000><000| + |101><101|) / 2
    return {"ghz": preset_density("ghz"), "mixed": preset_density("mixed"), "theta-one": theta_one,
            "w": preset_density("w"), "wexample3": preset_density("wexample3"), "state-252": state_252()}


DAVENPORT_EDGES = davenport_edges()


class TestDavenport:
    """A third derivation of the SO(3) optimum: Davenport's q-method (``reference.so3_optimum``), with no SVD."""

    @seed(64)
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.sampled_from(sorted(DAVENPORT_EDGES)), st.integers(0, 2**32 - 1)),
           st.sampled_from(ALL_SETTINGS))
    @example("ghz", CANONICAL_SETTING)
    @example("mixed", Setting.from_string("CAB"))
    @example("theta-one", CANONICAL_SETTING)
    @example("state-252", Setting.from_string("ACB"))
    @example("wexample3", CANONICAL_SETTING)
    def test_f_so3_is_the_top_eigenvalue_of_wahbas_k_property(self, source, setting):
        if isinstance(source, str):
            rho = DAVENPORT_EDGES[source]
        else:
            rng = np.random.default_rng(source)
            rho = pure_to_density(random_pure(rng)) if source % 2 else random_density(rng)
        d = decompose_state(rho)
        optima = [reference.so3_optimum(m) for m in branch_matrices(d, setting)]
        f_so3 = closed_form_bounds(d, setting).f_so3
        assert abs(f_so3 - (0.5 + sum(value for value, _ in optima) / 48.0)) <= 1e-12
        # the simulator at corrections that did not come from fidelity
        rotations = np.stack([omega for _, omega in optima])
        assert abs(expected_fidelity_exact(rho, setting, rotations) - f_so3) <= 1e-12


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

    def test_state_permutation_is_the_role_tensor(self):
        # the simulator's wire permutation and the closed forms' axis
        # permutation are the same index map, Setting.order
        rng = np.random.default_rng(42)
        for rho in (random_density(rng), pure_to_density(random_pure(rng)), preset_density("w")):
            d = decompose_state(rho)
            for s in ALL_SETTINGS:
                permuted = decompose_state(permute_to_canonical(rho, s)).coefficient_tensor()
                np.testing.assert_allclose(permuted, role_tensor(d, s), rtol=0, atol=1e-15)

    def test_canonical_permutation_is_identity(self):
        rho = preset_density("w")
        np.testing.assert_allclose(permute_to_canonical(rho, CANONICAL_SETTING), rho, atol=0)


#: The six axis directions +-e_i: the literal quadrature that the exact value's diagonal reading must equal.
SIX_AXES = np.vstack([np.eye(3), -np.eye(3)])


class TestPerStatePreparation:
    """branch_maps reads P and T off the permuted state; the exact value is read off the form's diagonal."""

    @pytest.mark.parametrize("setting", ALL_SETTINGS, ids=str)
    def test_default_rotations_are_the_decomposition_route_to_the_byte(self, setting):
        rng = np.random.default_rng(48)
        states = [preset_density(name) for name in sorted(PRESETS)]
        states += [pure_to_density(random_pure(rng)) for _ in range(6)] + [random_density(rng) for _ in range(6)]
        for rho in states:
            rots = optimal_rotations(decompose_state(permute_to_canonical(rho, setting)))
            for default, given_rots in zip(branch_maps(rho, setting), branch_maps(rho, setting, rotations=rots)):
                assert default.tobytes() == given_rots.tobytes()

    @seed(49)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.sampled_from(ALL_SETTINGS))
    def test_exact_value_is_the_six_axis_mean_property(self, draw, pure, optimal, setting):
        rng = np.random.default_rng(draw)
        rho = pure_to_density(random_pure(rng)) if pure else random_density(rng)
        rots = None if optimal else np.stack([random_rotation(rng) for _ in range(8)])
        six_axis = float(_quadratic(branch_maps(rho, setting, rots)[1].sum(axis=1), SIX_AXES).mean())
        assert abs(expected_fidelity_exact(rho, setting, rots) - six_axis) <= 1e-15

    @pytest.mark.parametrize("entry", [
        lambda rho, s: expected_fidelity_exact(rho, s),
        lambda rho, s: expected_fidelity_mc(rho, s, n_samples=100, seed=3),
    ], ids=["expected_fidelity_exact", "expected_fidelity_mc"])
    def test_one_call_prepares_its_state_once(self, monkeypatch, entry):
        import qrecon
        rho = preset_density("w")
        counts = count_calls(monkeypatch, ["validate_state", "decompose_state", "optimal_rotation"],
                             [qrecon, *(m for m in vars(qrecon).values() if inspect.ismodule(m))])
        entry(rho, Setting.from_string("BCA"))
        assert counts == {"validate_state": 1, "decompose_state": 0, "optimal_rotation": 1}

    def test_a_state_at_the_psd_floor_is_simulated(self):
        # admitted by validation with a_z = 1 + 1.8e-9, past 1 but within DECOMPOSITION_BOUND: both routes take it
        rho = np.zeros((8, 8))
        rho[0, 0], rho[4, 4] = 1.0 + 9e-10, -9e-10
        d = decompose_state(rho)
        assert d.a[2] > 1.0 + 1e-9
        assert expected_fidelity_exact(rho) == pytest.approx(closed_form_bounds(d).f_so3, abs=1e-12)


class RejectedFirstDraw:
    """``default_rng(seed)``'s stream, except that the first draw's columns up to ``columns`` (all by default)
    are ``fill``, a value whose pairs fail 0 < s < 1.  ``draws`` records each draw's shape in order."""

    def __init__(self, seed, fill, columns=None):
        self.rng, self.fill, self.columns, self.draws = np.random.default_rng(seed), fill, columns, []

    def random(self, size=None, out=None):
        r = self.rng.random(size, out=out)
        if not self.draws:
            r[:, :self.columns] = self.fill
        self.draws.append(r.shape)
        return r


def collected(blocks):
    """The rows of a direction stream, each block copied before the next overwrites it."""
    return np.concatenate([block.copy() for block in blocks])


def stream_bytes(n, seed, dim=3):
    return collected(_direction_blocks(n, seed, dim)).tobytes()


class TestDirections:
    def test_one_opener_makes_the_packages_only_generator(self):
        # every stream starts in _direction_blocks, which checks n and the seed: no module reaches numpy's
        # generator any other way
        found = []

        def walk(node, path, scope):
            for child in ast.iter_child_nodes(node):
                if "default_rng" in (getattr(child, "id", None), getattr(child, "attr", None)):
                    found.append((path.name, scope, isinstance(node, ast.Call) and node.func is child))
                if isinstance(child, ast.alias) and child.name.endswith("default_rng"):
                    found.append((path.name, scope, False))
                walk(child, path, child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope)

        for path in sorted(Path(protocol.__file__).parent.glob("*.py")):
            walk(ast.parse(path.read_text(), str(path)), path, None)
        assert found == [("protocol.py", "_direction_blocks", True)]

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("n", [1, 1000, 8192, 8193, 2 * 8192 + 1, 5 * 8192 + 17])
    def test_sampler_is_the_literal_rule(self, n, dim):
        # the rows, and the draws: the generator ends where the literal rule leaves it
        for seed in (0, 42):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            got = collected(protocol._literal_blocks(rng, n, dim))
            assert got.tobytes() == literal_directions(reference, n, dim).tobytes()
            assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("n", [8192, 8193, 2 * 8192, 2 * 8192 + 1, 5 * 8192 + 17])
    def test_a_stream_is_one_draw_byte_for_byte(self, n, dim):
        # past one block, each block is drawn into the one buffer the last block left: the copies are still the
        # literal rule's n rows
        for seed in (0, 7, 42):
            assert stream_bytes(n, seed, dim) == literal_directions(np.random.default_rng(seed), n, dim).tobytes()

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("taken", [1, 2])
    def test_a_stream_closed_early_draws_no_further_block(self, taken, dim):
        # a block is drawn when it is asked for, not before: closing the stream after ``taken`` blocks leaves the
        # generator where ``taken`` blocks of the literal rule leave it
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        stream = protocol._literal_blocks(rng, 5 * 8192, dim)
        got = [next(stream).copy() for _ in range(taken)]
        stream.close()
        assert np.concatenate(got).tobytes() == literal_directions(reference, taken * 8192, dim).tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_a_consumer_that_raises_leaves_no_queued_draw(self, monkeypatch):
        # the scoring of block 1 fails: blocks 0 and 1 were drawn, and nothing past them
        rho, calls, opened = preset_density("w"), [], []
        real_form, real_rng = protocol._quadratic_form, np.random.default_rng

        def raising(*args):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("consumer failed")
            return real_form(*args)

        def recording(seed):
            opened.append(real_rng(seed))
            return opened[-1]

        monkeypatch.setattr(protocol, "_quadratic_form", raising)
        monkeypatch.setattr(np.random, "default_rng", recording)
        with pytest.raises(RuntimeError, match="consumer failed"):
            expected_fidelity_mc(rho, n_samples=5 * 8192, seed=3)
        monkeypatch.undo()
        reference = np.random.default_rng(3)
        literal_directions(reference, 2 * 8192, 3)
        assert len(opened) == 1 and opened[0].bit_generator.state == reference.bit_generator.state
        assert stream_bytes(3 * 8192, 11) == literal_directions(np.random.default_rng(11), 3 * 8192, 3).tobytes()

    def test_every_draw_is_made_on_the_callers_thread(self):
        # four multi-block streams at once, switching threads often: each generator is drawn from only by the
        # thread that iterates its stream, and each stream is the literal rule
        class Recording:
            def __init__(self, seed):
                self.rng, self.threads = np.random.default_rng(seed), set()

            def random(self, size=None, out=None):
                self.threads.add(threading.get_ident())
                return self.rng.random(size, out=out)

        n, seeds, got = 4 * 8192 + 17, (1, 2, 3, 4), {}

        def caller(seed):
            rng = Recording(seed)
            got[seed] = threading.get_ident(), rng, collected(protocol._literal_blocks(rng, n, 3)).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(seed,), daemon=True) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed in seeds:
            ident, rng, rows = got[seed]
            assert rng.threads == {ident}
            assert rows == literal_directions(np.random.default_rng(seed), n, 3).tobytes()

    @pytest.mark.parametrize("dim, fill, columns", [(3, 0.5, None), (3, 0.0, None), (3, 0.0, 200), (4, 0.0, None),
                                                    (4, 0.75, None)])
    def test_rejected_pairs_are_topped_up_from_the_same_stream(self, dim, fill, columns):
        # s = 0 (u = v = 0) and s >= 1 fail; the shortfall is drawn again, in draw order, before the next pairs
        n, k = 300, 300 * 21 // 16 + 16
        fake, reference = RejectedFirstDraw(7, fill, columns), RejectedFirstDraw(7, fill, columns)
        got = collected(protocol._literal_blocks(fake, n, dim))
        assert got.tobytes() == literal_directions(reference, n, dim).tobytes()
        assert fake.draws == reference.draws and fake.draws[0] == (2, k)
        if columns is None:  # nothing accepted: the top-up wants every pair again
            assert fake.draws[1] == (2, k)
        else:
            assert 2 < fake.draws[1][1] < k
        np.testing.assert_allclose((got * got).sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_moments_of_the_sphere_and_the_octant(self):
        # 5 sigma bands: E[phi] = 0 (variance 1/3), E[phi phi^T] = I / 3 (variance 4/45 on the diagonal, 1/15 off)
        n = 200_000
        phis = collected(_direction_blocks(n, 1))
        assert np.abs(phis.mean(axis=0)).max() <= 5 * np.sqrt(1 / 3 / n)
        second = phis.T @ phis / n
        assert np.abs(second.diagonal() - 1 / 3).max() <= 5 * np.sqrt(4 / 45 / n)
        assert np.abs(second[~np.eye(3, dtype=bool)]).max() <= 5 * np.sqrt(1 / 15 / n)
        # |x_i| on S^3: E[x_i^2] = 1/4 (variance 1/8 - 1/16) and E|x_i| = 4 / (3 pi)
        lam = sample_wclass(n, seed=1)
        assert lam.min() >= 0.0
        assert np.abs((lam * lam).mean(axis=0) - 1 / 4).max() <= 5 * np.sqrt(1 / 16 / n)
        mean_abs = 4 / (3 * np.pi)
        assert np.abs(lam.mean(axis=0) - mean_abs).max() <= 5 * np.sqrt((1 / 4 - mean_abs ** 2) / n)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_blocks_share_one_buffer(self, dim):
        # block k is overwritten by block k + 1: a consumer that keeps a block must copy it; the copies are the
        # literal rule
        n, blocks, copies = 3 * 8192 + 7, [], []
        for block in _direction_blocks(n, 5, dim):
            blocks.append(block)
            copies.append(block.copy())
        assert [len(c) for c in copies] == [8192, 8192, 8192, 7]
        assert all(np.shares_memory(blocks[0], block) for block in blocks[1:])
        assert blocks[0][:7].tobytes() == copies[-1].tobytes()
        assert np.concatenate(copies).tobytes() == literal_directions(np.random.default_rng(5), n, dim).tobytes()

    def test_no_stream_starts_a_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a stream started a thread")

        before = threading.active_count()
        monkeypatch.setattr(threading.Thread, "start", refuse)
        expected_fidelity_mc(preset_density("w"), n_samples=100_000, seed=3)
        classical_fidelities(0.25, "same", 100_000, seed=3)
        assert threading.active_count() == before

    def test_concurrent_callers_get_the_sequential_results(self):
        # more callers than cores, switching often: each call owns its generator and its buffers
        rho, n, seeds = preset_density("w"), 3 * 8192 + 5, (1, 2, 3, 4)
        expected = {seed: expected_fidelity_mc(rho, n_samples=n, seed=seed) for seed in seeds}
        got = {seed: [] for seed in seeds}

        def caller(seed):
            for _ in range(10):
                got[seed].append(expected_fidelity_mc(rho, n_samples=n, seed=seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(seed,), daemon=True) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {seed: [expected[seed]] * 10 for seed in seeds}


class TestMonteCarlo:
    def test_ghz_exact_mean(self):
        mc = expected_fidelity_mc(preset_density("ghz"), n_samples=2000, seed=42)
        assert mc.mean == pytest.approx(1.0, abs=1e-9)
        for b in mc.per_branch:
            assert b.probability == pytest.approx(1 / 8, abs=1e-12)

    def test_w_within_three_sigma(self):
        mc = expected_fidelity_mc(preset_density("w"), n_samples=20000, seed=1)
        assert abs(mc.mean - 8 / 9) <= 3 * mc.std_error

    def test_reproducible_and_blocks_equal_one_draw(self):
        rho = preset_density("beta-mix")
        a = expected_fidelity_mc(rho, n_samples=3000, seed=7)
        assert a == expected_fidelity_mc(rho, n_samples=3000, seed=7)
        assert sum(s.probability for s in a.per_branch) == pytest.approx(1.0, abs=1e-12)
        y = branch_maps(rho)[1].sum(axis=1)
        for n in (8192, 2 * 8192 + 5):
            # the reference draws all n directions at once and takes the two-pass mean and deviations
            totals = _quadratic(y, literal_directions(np.random.default_rng(7), n, 3))
            mean = float(totals.mean())
            std_error = float(np.sqrt(((totals - mean) ** 2).sum() / (n - 1)) / np.sqrt(n))
            got = _sphere_mean(y, _direction_blocks(n, 7))
            assert got[:2] == _sphere_mean(y, _direction_blocks(n, 7))[:2]
            if n == 8192:  # one block
                assert got[:2] == (mean, std_error)
            else:  # blocks merged by Chan et al.'s update
                assert got[0] == pytest.approx(mean, rel=0, abs=4e-16)
                assert got[1] == pytest.approx(std_error, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 8192, 8193, 2 * 8192 + 5])
    def test_a_stack_of_forms_gives_each_form_its_own_bits(self, n):
        # one pass of the stream for k forms: each form's mean and std_error are those of its
        # one-form call, whatever forms sit beside it, and the one moments sum is the same
        ys = np.random.default_rng(47).normal(size=(3, 4, 4))
        ys += ys.swapaxes(-1, -2)
        means, std_errors, moments = _sphere_mean(ys, _direction_blocks(n, 7))
        alone = [_sphere_mean(y, _direction_blocks(n, 7)) for y in ys]
        assert means == [a[0] for a in alone] and std_errors == [a[1] for a in alone]
        assert all(type(v) is float for v in means + std_errors)
        assert all(a[2].tobytes() == moments.tobytes() for a in alone)
        # the moments are sum f f^T over the stream's rows f = (1, phi), their count in the corner
        f = np.hstack([np.ones((n, 1)), literal_directions(np.random.default_rng(7), n, 3)])
        np.testing.assert_allclose(moments, f.T @ f, rtol=1e-12, atol=0)
        assert moments[0, 0] == n and moments.tobytes() == np.ascontiguousarray(moments.T).tobytes()

    def test_the_sums_do_not_depend_on_the_blas_kernel(self):
        # the MC sums run in numpy's own loops, and the test rotations in float arithmetic: each OpenBLAS kernel
        # a DYNAMIC_ARCH build can be forced to gives the bits this process gets, three blocks of the stream
        # through one form and the rotated mc_values run's default_rng(46) stack
        if platform.machine() != "x86_64" or "DYNAMIC_ARCH" not in golden.blas_kernel():
            pytest.skip(f"needs numpy's DYNAMIC_ARCH OpenBLAS on x86_64, not {golden.blas_kernel()!r}")
        try:
            with open("/proc/cpuinfo") as cpuinfo:
                flags = next((line.split(":", 1)[1].split() for line in cpuinfo if line.startswith("flags")), [])
        except OSError:
            flags = []
        kernels = [kernel for kernel, flag in (("Nehalem", None), ("Sandybridge", "avx"), ("Haswell", "avx2"))
                   if flag is None or flag in flags]
        script = ("import numpy as np\n"
                  "from conftest import random_rotation\n"
                  "from qrecon.protocol import _direction_blocks, _sphere_mean\n"
                  "y = np.add.outer(np.arange(4.0), np.arange(4.0)) / 7.0 - np.eye(4)\n"
                  "mean, std_error, moments = _sphere_mean(y, _direction_blocks(2 * 8192 + 5, 7))\n"
                  "rng = np.random.default_rng(46)\n"
                  "rotations = np.stack([random_rotation(rng) for _ in range(8)])\n"
                  "bits = (np.array([mean, std_error, *moments.ravel()]).tobytes() + rotations.tobytes()).hex()\n")
        here = {}
        exec(script, here)
        path = os.pathsep.join(str(golden.GOLDEN.parents[1] / folder) for folder in ("src", "tests"))
        for kernel in kernels:
            proc = subprocess.run([sys.executable, "-c", script + "print(bits)"], capture_output=True, text=True,
                                  timeout=60, env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": kernel})
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == here["bits"], kernel

    def test_per_branch_statistics_are_sample_means(self):
        # the moment sums must give the sample means of the per-branch tables over the same
        # directions, also past one chunk
        rng = np.random.default_rng(45)
        rho = random_density(rng)
        rots = np.stack([random_rotation(rng) for _ in range(8)])
        n = 20_000
        mc = expected_fidelity_mc(rho, n_samples=n, seed=9, rotations=rots)
        p, w = branch_weights(rho, rots, collected(_direction_blocks(n, 9)))
        np.testing.assert_allclose([b.probability for b in mc.per_branch], p.mean(axis=1), rtol=0, atol=1e-14)
        np.testing.assert_allclose([b.fidelity for b in mc.per_branch], w.sum(axis=1) / p.sum(axis=1), rtol=0, atol=1e-13)
        assert mc.mean == pytest.approx(w.sum(axis=0).mean(), rel=0, abs=1e-14)

    def test_memory_grows_by_one_float_per_sample(self):
        # directions are drawn, scored and reduced per block: nothing grows with n
        rho = preset_density("w")
        rots = optimal_rotations(decompose_state(rho))
        assert bytes_per_sample(lambda n: expected_fidelity_mc(rho, n_samples=n, seed=3, rotations=rots)) <= 1

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

    @pytest.mark.parametrize("preset, setting, n, seed", [
        ("ghz", "ABC", 1, 0), ("w", "BCA", 500, 42), ("mixed", "CBA", 8193, 7), ("beta-mix", "ACB", 3000, 11),
    ])
    def test_to_dict_equals_asdict(self, preset, setting, n, seed):
        mc = expected_fidelity_mc(preset_density(preset), Setting.from_string(setting), n_samples=n, seed=seed)
        payload, reference = mc.to_dict(), dataclasses.asdict(mc)
        assert payload == reference
        assert list(payload) == list(reference)
        assert type(payload["per_branch"]) is tuple
        assert [list(b) for b in payload["per_branch"]] == [list(b) for b in reference["per_branch"]]


#: Presets whose every sample scores the same (sigma = 0 up to rounding), so z = deviation / sigma has no meaning.
ZERO_VARIANCE = ("ghz", "mixed")


def calibration_z():
    """z = (mc_mean - expected_fidelity_exact) / mc_std_error of 300 runs: 3000 samples (one block) 2 times,
    2 * 8192 + 5 (three blocks) 4 times and 4 * 8192 + 5 (five) 4 times, for each of the five presets with
    variance in sorted order and each setting of ALL_SETTINGS; run j (from 0, in that nesting order) has seed
    j + 1.  Most runs span several blocks, where a stale or repeated block would show."""
    runs = [(n, preset, setting) for n, repeats in ((3000, 2), (2 * 8192 + 5, 4), (4 * 8192 + 5, 4))
            for preset in sorted(set(PRESETS) - set(ZERO_VARIANCE)) for setting in ALL_SETTINGS
            for _ in range(repeats)]
    exact, z = {}, []
    for j, (n, preset, setting) in enumerate(runs):
        rho = preset_density(preset)
        if (preset, setting) not in exact:
            exact[preset, setting] = expected_fidelity_exact(rho, setting)
        mc = expected_fidelity_mc(rho, setting, n_samples=n, seed=j + 1)
        z.append((mc.mean - exact[preset, setting]) / mc.std_error)
    return np.array(z)


class TestCalibration:
    """The reported sigma means what it says: over K independent runs, mean z^2 is 1 and mean z is 0.

    A stale or repeated block, a biased direction or a misreported sigma moves mean z^2 (the standard
    error of mean z^2 is sqrt(2 / K) for normal z) while every single run stays inside its k-sigma band.
    """

    def test_z_scores_are_standard_normal(self):
        z = calibration_z()
        k = len(z)
        assert k == 300
        assert abs(np.mean(z * z) - 1.0) <= 4.5 * np.sqrt(2.0 / k)  # chi-square(K) / K within 4.5 sigma
        assert abs(np.mean(z)) <= 4.5 / np.sqrt(k)


@pytest.mark.parametrize("average, sizes", [
    (lambda n, path: classical_baseline(n, seed=3), ()),
    (lambda n, path: sphere_average_identity_check(np.eye(3), n_samples=n, seed=3), ()),
    (lambda n, path: dishonest_guess_fidelity(0.25, "same", n, seed=3), ()),
    (lambda n, path: classical_fidelities(0.25, "same", n, seed=3), ()),
    # bytes per row; fewer rows, since formatting them under tracemalloc is slow
    (lambda n, path: write_scatter_csv(path, n, seed=3), (10_000, 40_000)),
], ids=["classical_baseline", "sphere_average_identity_check", "dishonest_guess_fidelity",
        "classical_fidelities", "write_scatter_csv"])
def test_sphere_averages_grow_by_one_float_per_sample(average, sizes, tmp_path):
    # directions are drawn, scored and reduced (or written) per block: nothing grows with n
    assert bytes_per_sample(lambda n: average(n, tmp_path / "scatter.csv"), *sizes) <= 1


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
        with pytest.raises(ValueError):  # NaN passes a max |y - y^T| <= tol test
            sphere_average_identity_check(np.full((3, 3), np.nan))


class TestClassicalBaselines:
    def test_axis_fidelity_formula(self):
        # aligned input is reproduced perfectly, equatorial input half the time
        # (1 + z^2) / 2 is the quadratic form diag(1/2, 0, 0, 1/2) in f = (1, phi)
        z_axis_and_equator = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(_quadratic(np.diag([0.5, 0, 0, 0.5]), z_axis_and_equator), [1.0, 0.5])

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
        # the z^2 coefficient (1 - 2p) / 2 vanishes: every sample scores 1/2 exactly
        n = 100_000
        assert dishonest_guess_fidelity(0.5, "same", n, seed=5) == 0.5
        assert dishonest_guess_fidelity(0.5, "negate", n, seed=5) == 0.5

    @pytest.mark.parametrize("n", [1, 8193, 2 * 8192 + 5, 100_000])
    def test_honest_baseline_is_the_guess_of_an_always_zero_helper(self, n):
        # p = 1 leaves the share equal to the measured bit: (1 + z^2) / 2 to the bit
        for seed in (0, 5, 42):
            baseline = classical_baseline(n, seed)
            assert baseline == dishonest_guess_fidelity(1.0, "same", n, seed)
            assert baseline == dishonest_guess_fidelity(0.0, "negate", n, seed)

    def test_one_pass_gives_both_fidelities(self):
        for n in (1, 8193, 2 * 8192 + 5):
            for p in (0.0, 0.25, 0.5, 1.0):
                for strategy in ("same", "negate"):
                    expected = (classical_baseline(n, 42), dishonest_guess_fidelity(p, strategy, n, 42))
                    assert classical_fidelities(p, strategy, n, 42) == expected
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\], got 1.1"):
            classical_fidelities(1.1, "same", 10, 1)
        with pytest.raises(ValueError, match="strategy must be 'same' or 'negate', got 'flip'"):
            classical_fidelities(0.5, "flip", 10, 1)
        with pytest.raises(ValueError, match="n_samples"):
            classical_fidelities(0.5, "same", 0, 1)

    def test_guess_rule_averages_to_a_quadratic_form(self):
        # both hidden bits of the reference's rule enumerated exactly: P(s) = 1 - p_up, P(s2) = 1 - p
        phis = collected(_direction_blocks(1000, 12))
        p_up = (1.0 + phis[:, 2]) / 2.0
        for p in (0.0, 0.25, 0.5, 1.0):
            for strategy, sign in (("same", -1.0), ("negate", 1.0)):
                expected = np.zeros(len(phis))
                for s, s2 in itertools.product((False, True), repeat=2):
                    weight = (1.0 - p_up if s else p_up) * (1.0 - p if s2 else p)
                    guess = (s ^ s2) if strategy == "same" else not (s ^ s2)
                    expected += weight * (1.0 - p_up if guess else p_up)
                y = np.diag([0.5, 0.0, 0.0, sign * (1.0 - 2.0 * p) / 2.0])
                np.testing.assert_allclose(_quadratic(y, phis), expected, rtol=0, atol=1e-15)
                # one block: the estimator's mean is the plain mean of that form over the same stream
                assert dishonest_guess_fidelity(p, strategy, len(phis), seed=12) == float(_quadratic(y, phis).mean())

    def test_input_validation(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n_samples"):
                classical_baseline(n, seed=1)
            with pytest.raises(ValueError, match="n_samples"):
                dishonest_guess_fidelity(0.5, "same", n, 1)
        for guess in (dishonest_guess_fidelity, _guess_fidelity_samples):
            with pytest.raises(ValueError, match=r"p must lie in \[0, 1\], got -0.1"):
                guess(-0.1, "same", 10, 1)
            with pytest.raises(ValueError, match=r"p must lie in \[0, 1\], got 1.1"):
                guess(1.1, "negate", 10, 1)
            with pytest.raises(ValueError, match="strategy must be 'same' or 'negate', got 'flip'"):
                guess(0.5, "flip", 10, 1)


#: Every entry point that takes a sample count and a seed, called with count n and seed s.
COUNTED = {
    "expected_fidelity_mc": lambda n, s: expected_fidelity_mc(preset_density("w"), n_samples=n, seed=s),
    "classical_fidelities": lambda n, s: classical_fidelities(0.25, "same", n, seed=s),
    "classical_baseline": lambda n, s: classical_baseline(n, seed=s),
    "dishonest_guess_fidelity": lambda n, s: dishonest_guess_fidelity(0.25, "negate", n, seed=s),
    "sphere_average_identity_check": lambda n, s: sphere_average_identity_check(np.eye(3), n_samples=n, seed=s),
    "_guess_fidelity_samples": lambda n, s: _guess_fidelity_samples(0.25, "same", n, seed=s),
    "_direction_blocks": lambda n, s: _direction_blocks(n, s),
    "scatter_experiment": lambda n, s: scatter_experiment(n, seed=s),
    "sample_wclass": lambda n, s: sample_wclass(n, seed=s),
    "scatter_csv_chunks": lambda n, s: scatter_csv_chunks(n, seed=s),
    "scatter_csv_text": lambda n, s: scatter_csv_text(n, seed=s),
    "write_scatter_csv": lambda n, s: write_scatter_csv(os.devnull, n, seed=s),
}


class TestSampleCount:
    """One integer rule for the sample count (at least 1) and the seed (at least 0), checked at the call before
    any work: numpy's integers pass, bools do not."""

    @pytest.mark.parametrize("n, seed, message", [
        (1e4, 3, "n_samples must be an integer, got 10000.0"), (2.5, 3, "n_samples must be an integer, got 2.5"),
        (0, 3, "n_samples must be >= 1, got 0"), (np.int64(-3), 3, "n_samples must be >= 1, got -3"),
        (True, 3, "n_samples must be an integer, got True"),
        (300, None, "seed must be an integer, got None"), (300, True, "seed must be an integer, got True"),
        (300, np.True_, "seed must be an integer, got np.True_"), (300, 1.5, "seed must be an integer, got 1.5"),
        (300, np.float64(2.0), "seed must be an integer, got np.float64(2.0)"),
        (300, "3", "seed must be an integer, got '3'"), (300, -1, "seed must be >= 0, got -1"),
    ])
    @pytest.mark.parametrize("entry", sorted(COUNTED))
    def test_a_bad_count_or_seed_is_rejected_before_any_work(self, entry, n, seed, message, monkeypatch):
        calls = count_calls(monkeypatch, ["branch_maps", "_literal_blocks"], [protocol])
        with pytest.raises(ValueError) as excinfo:
            COUNTED[entry](n, seed)
        assert excinfo.type is ValueError and str(excinfo.value) == message
        assert calls == {"branch_maps": 0, "_literal_blocks": 0}

    @pytest.mark.parametrize("entry", sorted(COUNTED))
    def test_numpy_integers_give_the_bits_of_an_int(self, entry, monkeypatch):
        # and each call runs the integer rule twice: once for the count, once for the seed
        def bits(result):
            if not isinstance(result, (np.ndarray, tuple, list, float, str, type(None), MCResult,
                                       SphereAverageCheck)):  # a stream
                return [block.tobytes() if isinstance(block, np.ndarray) else block for block in result]
            return result.tobytes() if isinstance(result, np.ndarray) else repr(result)

        expected = bits(COUNTED[entry](300, 3))
        calls = count_calls(monkeypatch, ["_checked_integer"], [protocol, reference])
        for n, seed in ((np.int64(300), np.int64(3)), (np.int32(300), np.uint16(3)), (np.uint16(300), 3)):
            calls["_checked_integer"] = 0
            assert bits(COUNTED[entry](n, seed)) == expected and calls == {"_checked_integer": 2}
