import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_density, random_pure
from qrecon.paulis import identity2, kron3, pauli_x, pauli_y, pauli_z, paulis, product_basis, sigma
from qrecon.states import (
    BlochDecomposition,
    NonHermitianInputError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitTraceError,
    StateValidationError,
    compose_state,
    decompose_state,
    partial_trace,
    pure_to_density,
    purity,
    validate_state,
)


def ghz_density():
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    return pure_to_density(psi)


def w_density():
    psi = np.zeros(8, dtype=complex)
    psi[[1, 2, 4]] = 1 / np.sqrt(3)
    return pure_to_density(psi)


class TestPaulis:
    def test_squares_are_identity(self):
        for s in paulis:
            np.testing.assert_allclose(s @ s, identity2, atol=1e-15)

    def test_cyclic_products(self):
        np.testing.assert_allclose(pauli_x @ pauli_y, 1j * pauli_z, atol=1e-15)
        np.testing.assert_allclose(pauli_y @ pauli_z, 1j * pauli_x, atol=1e-15)

    def test_product_basis_orthogonality(self):
        flat = product_basis.reshape(64, 8, 8)
        gram = np.einsum("aij,bij->ab", flat.conj(), flat)  # Tr(B_a^dag B_b)
        np.testing.assert_allclose(gram, 8 * np.eye(64), atol=1e-12)

    def test_kron3_ordering(self):
        # A is the most significant bit: sigma_z on A flips sign at index 4
        m = kron3(pauli_z, identity2, identity2)
        assert m[0, 0] == 1 and m[4, 4] == -1


class TestValidation:
    def test_accepts_maximally_mixed(self):
        out = validate_state(np.eye(8) / 8)
        assert not out.flags.writeable

    def test_accepts_ghz(self):
        validate_state(ghz_density())

    def test_rejects_wrong_shape(self):
        with pytest.raises(StateValidationError):
            validate_state(np.eye(4) / 4)

    def test_rejects_non_hermitian(self):
        rho = np.eye(8, dtype=complex) / 8
        rho[0, 1] += 1e-6j
        with pytest.raises(NotHermitianError) as exc:
            validate_state(rho)
        assert "e-" in str(exc.value)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotUnitTraceError):
            validate_state(np.eye(8) / 4)

    def test_rejects_negative_eigenvalue(self):
        rho = (np.eye(8) + 1.5 * kron3(pauli_x, pauli_x, pauli_x)) / 8
        with pytest.raises(NotPSDError):
            validate_state(rho)

    def test_tolerates_tiny_negative_eigenvalue(self):
        rho = (np.eye(8) + (1 + 1e-9) * kron3(pauli_z, identity2, identity2)) / 8
        validate_state(rho)  # lowest eigenvalue -1.25e-10, above the floor

    def test_pure_to_density(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1
        rho = pure_to_density(psi)
        assert rho[0, 0] == 1 and abs(rho).sum() == 1

    def test_pure_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            pure_to_density(np.ones(8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        # an all-NaN matrix must not reach eigvalsh, which raises a bare LinAlgError
        with pytest.raises(StateValidationError, match="non-finite"):
            validate_state(np.full((8, 8), bad))
        rho = np.eye(8, dtype=complex) / 8
        rho[3, 3] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            validate_state(rho)
        psi = np.zeros(8, dtype=complex)
        psi[0] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            pure_to_density(psi)


class TestDecomposition:
    def test_ghz_coefficients(self):
        d = decompose_state(ghz_density())
        np.testing.assert_allclose(d.a, 0, atol=1e-12)
        np.testing.assert_allclose(d.b, 0, atol=1e-12)
        np.testing.assert_allclose(d.c, 0, atol=1e-12)
        for pair in (d.Q, d.R, d.S):
            np.testing.assert_allclose(pair, np.diag([0, 0, 1]), atol=1e-12)
        expected_tau = np.zeros((3, 3, 3))
        expected_tau[0, 0, 0] = 1
        expected_tau[0, 1, 1] = expected_tau[1, 0, 1] = expected_tau[1, 1, 0] = -1
        np.testing.assert_allclose(d.tau, expected_tau, atol=1e-12)

    def test_w_coefficients(self):
        d = decompose_state(w_density())
        for vec in (d.a, d.b, d.c):
            np.testing.assert_allclose(vec, [0, 0, 1 / 3], atol=1e-12)
        for pair in (d.Q, d.R, d.S):
            np.testing.assert_allclose(pair, np.diag([2 / 3, 2 / 3, -1 / 3]), atol=1e-12)

    def test_compose_zero_gives_identity(self):
        zero = BlochDecomposition(a=np.zeros(3), b=np.zeros(3), c=np.zeros(3),
                                  Q=np.zeros((3, 3)), R=np.zeros((3, 3)), S=np.zeros((3, 3)),
                                  tau=np.zeros((3, 3, 3)))
        np.testing.assert_allclose(compose_state(zero), np.eye(8) / 8, atol=1e-15)

    def test_compose_ghz_by_hand(self):
        tau = np.zeros((3, 3, 3))
        tau[0, 0, 0] = 1
        tau[0, 1, 1] = tau[1, 0, 1] = tau[1, 1, 0] = -1
        d = BlochDecomposition(a=np.zeros(3), b=np.zeros(3), c=np.zeros(3),
                               Q=np.diag([0.0, 0, 1]), R=np.diag([0.0, 0, 1]),
                               S=np.diag([0.0, 0, 1]), tau=tau)
        np.testing.assert_allclose(compose_state(d), ghz_density(), atol=1e-12)

    def test_round_trip_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rho = random_density(rng)
            np.testing.assert_allclose(compose_state(decompose_state(rho)), rho, atol=1e-12)

    @seed(1)
    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, (4, 4, 4), elements=st.floats(-1, 1)))
    def test_round_trip_arbitrary_coefficients(self, coeff):
        coeff[0, 0, 0] = 1.0
        d = BlochDecomposition(a=coeff[1:, 0, 0], b=coeff[0, 1:, 0], c=coeff[0, 0, 1:],
                               Q=coeff[1:, 1:, 0], R=coeff[1:, 0, 1:], S=coeff[0, 1:, 1:],
                               tau=coeff[1:, 1:, 1:])
        back = decompose_state(compose_state(d))
        np.testing.assert_allclose(back.coefficient_tensor(), d.coefficient_tensor(), atol=1e-12)

    def test_coefficients_within_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            t = decompose_state(random_density(rng)).coefficient_tensor()
            assert np.abs(t).max() <= 1 + 1e-12

    def test_rejects_imaginary_residue(self):
        rho = np.eye(8, dtype=complex) / 8 + 1e-5j * kron3(pauli_x, identity2, identity2) / 8
        with pytest.raises(NonHermitianInputError):
            decompose_state(rho)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BlochDecomposition(a=np.zeros(2), b=np.zeros(3), c=np.zeros(3),
                               Q=np.zeros((3, 3)), R=np.zeros((3, 3)), S=np.zeros((3, 3)),
                               tau=np.zeros((3, 3, 3)))

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            BlochDecomposition(a=np.array([1.5, 0, 0]), b=np.zeros(3), c=np.zeros(3),
                               Q=np.zeros((3, 3)), R=np.zeros((3, 3)), S=np.zeros((3, 3)),
                               tau=np.zeros((3, 3, 3)))

    @pytest.mark.parametrize("field", ["a", "Q", "tau"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, field, bad):
        # abs(nan) > 1 is False: the range check alone cannot catch NaN
        fields = dict(a=np.zeros(3), b=np.zeros(3), c=np.zeros(3), Q=np.zeros((3, 3)),
                      R=np.zeros((3, 3)), S=np.zeros((3, 3)), tau=np.zeros((3, 3, 3)))
        fields[field].flat[0] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            BlochDecomposition(**fields)


class TestPartialTrace:
    def test_ghz_traced_over_b(self):
        reduced = partial_trace(ghz_density(), "B")
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(reduced, expected, atol=1e-12)

    def test_product_state_factors(self):
        rng = np.random.default_rng(13)
        blochs = [0.6 * v / np.linalg.norm(v) for v in rng.normal(size=(3, 3))]
        singles = [(identity2 + b[0] * pauli_x + b[1] * pauli_y + b[2] * pauli_z) / 2 for b in blochs]
        rho = kron3(*singles)
        np.testing.assert_allclose(partial_trace(rho, "C"), np.kron(singles[0], singles[1]), atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, "A"), np.kron(singles[1], singles[2]), atol=1e-12)

    def test_pair_decomposition_matches_slices(self):
        def pair_state(u, v, corr):
            # (1/4) sum_mn t_mn sigma_m (x) sigma_n with t_00 = 1
            t = np.zeros((4, 4))
            t[0, 0] = 1.0
            t[1:, 0], t[0, 1:], t[1:, 1:] = u, v, corr
            return sum(t[m, n] * np.kron(sigma[m], sigma[n]) for m in range(4) for n in range(4)) / 4.0

        rng = np.random.default_rng(14)
        for _ in range(20):
            rho = random_density(rng)
            d = decompose_state(rho)
            np.testing.assert_allclose(partial_trace(rho, "B"), pair_state(d.a, d.c, d.R), atol=1e-10)
            np.testing.assert_allclose(partial_trace(rho, "C"), pair_state(d.a, d.b, d.Q), atol=1e-10)
            np.testing.assert_allclose(partial_trace(rho, "A"), pair_state(d.b, d.c, d.S), atol=1e-10)

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(8) / 8, "D")


def test_purity_extremes():
    rng = np.random.default_rng(15)
    assert purity(pure_to_density(random_pure(rng))) == pytest.approx(1.0, abs=1e-12)
    assert purity(np.eye(8) / 8) == pytest.approx(1 / 8, abs=1e-15)
