import ast
import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import count_calls, random_density, random_pure
from qrecon import states
from qrecon.fidelity import ALL_SETTINGS, full_report
from qrecon.protocol import expected_fidelity_exact, expected_fidelity_mc
from qrecon.paulis import identity2, pauli_x, pauli_y, pauli_z, paulis, product_basis, sigma
from qrecon.presets import preset_density
from qrecon.states import (
    DECOMPOSITION_BOUND,
    HERMITICITY_TOL,
    PSD_FLOOR,
    TRACE_TOL,
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
    pauli_traces,
    pure_to_density,
    purity,
    validate_state,
)
from qrecon.stateio import bloch_to_json, parse_state
from reference import kron3


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

    def test_product_basis_is_the_kron3_loop(self):
        reference = np.empty((4, 4, 4, 8, 8), dtype=complex)
        for m in range(4):
            for n in range(4):
                for x in range(4):
                    reference[m, n, x] = kron3(sigma[m], sigma[n], sigma[x])
        np.testing.assert_array_equal(product_basis, reference)
        assert product_basis.tobytes() == reference.tobytes()  # signed zeros too
        assert product_basis.flags.c_contiguous and not product_basis.flags.writeable

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


    @pytest.mark.filterwarnings("error")
    def test_huge_finite_entries_are_rejected_without_a_warning(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = complex(1e308, 1e308)  # finite, but its norm overflows
        with pytest.raises(NotNormalizedError, match="inf"):
            pure_to_density(psi)
        rho = np.eye(8, dtype=complex) / 8
        rho[0, 1], rho[1, 0] = 1e308, -1e308
        with pytest.raises(NotHermitianError, match="inf"):
            validate_state(rho)
        # the trace overflows to nan, which a plain `> TRACE_TOL` test lets through to the eigenvalue check
        with pytest.raises(NotUnitTraceError, match="nan"):
            validate_state(np.diag([1e308, 1e308, -1e308, -1e308, 0, 0, 0, 0]))

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

    def test_one_read_only_tensor(self):
        rng = np.random.default_rng(16)
        d = decompose_state(random_density(rng))
        t = d.coefficient_tensor()
        assert t is d.coefficient_tensor() and t.shape == (4, 4, 4) and t[0, 0, 0] == 1.0
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0, 1] = 0.5
        for name in ("a", "b", "c", "Q", "R", "S", "tau"):
            field = getattr(d, name)
            assert not field.flags.writeable and np.shares_memory(field, t)
        np.testing.assert_array_equal(t[1:, 0, 1:], d.R)
        np.testing.assert_array_equal(t[1:, 1:, 1:], d.tau)

    def test_equality_and_hashing_are_by_identity(self):
        # array fields have no single truth value: two decompositions are compared through their tensors
        rho = random_density(np.random.default_rng(17))
        d1, d2 = decompose_state(rho), decompose_state(rho)
        assert d1 == d1 and d1 != d2 and hash(d1) == hash(d1)
        assert len({d1, d2}) == 2
        assert np.array_equal(d1.coefficient_tensor(), d2.coefficient_tensor())

    def test_fields_are_copied_from_the_input(self):
        fields = dict(a=np.zeros(3), b=np.zeros(3), c=np.zeros(3), Q=np.zeros((3, 3)),
                      R=np.zeros((3, 3)), S=np.zeros((3, 3)), tau=np.zeros((3, 3, 3)))
        d = BlochDecomposition(**fields)
        fields["a"][0] = 0.5
        assert d.a[0] == 0.0 and d.coefficient_tensor()[1, 0, 0] == 0.0

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


ZERO_FIELDS = dict(a=(3,), b=(3,), c=(3,), Q=(3, 3), R=(3, 3), S=(3, 3), tau=(3, 3, 3))


def zero_fields(**overrides):
    fields = {name: np.zeros(shape) for name, shape in ZERO_FIELDS.items()}
    fields.update(overrides)
    return fields


class TestDecompositionErrors:
    """decompose_state hands its tensor over as it is; the keyword constructor assembles one.
    Both name the first bad field in declaration order with the same class and message."""

    @pytest.mark.parametrize("terms, message", [
        ([(3.0, (pauli_x, pauli_x, pauli_x))], "tau has entry of magnitude 3.000000 outside [-1, 1]"),
        ([(3.0, (pauli_x, pauli_x, pauli_x)), (1.5, (pauli_z, pauli_z, identity2))],
         "Q has entry of magnitude 1.500000 outside [-1, 1]"),
        ([(2.0, (identity2, pauli_y, identity2)), (1.25, (pauli_z, identity2, pauli_x))],
         "b has entry of magnitude 2.000000 outside [-1, 1]"),
        ([(1.0 + 4e-8, (pauli_z, identity2, identity2))], "a has entry of magnitude 1 + 4.000e-08 outside [-1, 1]"),
    ])
    def test_unvalidated_input_names_the_first_bad_field(self, terms, message):
        rho = np.eye(8, dtype=complex) / 8 + sum(w * kron3(*ops) for w, ops in terms) / 8
        with pytest.raises(ValueError) as excinfo:
            decompose_state(rho)
        assert excinfo.type is ValueError and str(excinfo.value) == message

    def test_a_basis_slice_gives_the_bits_of_the_full_traces(self):
        rng = np.random.default_rng(18)
        pair = np.ascontiguousarray(product_basis[1:, :2, 1:])
        for rho in [random_density(rng) for _ in range(10)] + [pure_to_density(random_pure(rng)) for _ in range(10)]:
            assert pauli_traces(rho, pair).tobytes() == np.ascontiguousarray(pauli_traces(rho)[1:, :2, 1:]).tobytes()

    @pytest.mark.parametrize("negatives", [1, 7])
    def test_every_admitted_state_decomposes(self, negatives):
        # eigenvalues at the PSD floor, the trace and the Hermiticity at their tolerances: a coefficient passes 1
        low = 0.99 * PSD_FLOOR
        rho = np.diag([1.0 + 0.99 * TRACE_TOL - negatives * low] + [low] * negatives + [0.0] * (7 - negatives))
        rho = rho.astype(complex)
        rho[1, 0] += 0.99 * HERMITICITY_TOL
        peak = np.abs(decompose_state(validate_state(rho)).coefficient_tensor()).max()
        assert 1.0 + 1e-9 < peak <= DECOMPOSITION_BOUND

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        rho = np.eye(8, dtype=complex) / 8
        rho[3, 5] = bad
        with pytest.raises(StateValidationError) as excinfo:
            decompose_state(rho)
        assert excinfo.type is StateValidationError and str(excinfo.value) == "a has a non-finite entry"

    def test_unnormalized_input_keeps_the_identity_slot(self):
        d = decompose_state(5 * np.eye(8) / 8)
        assert d.coefficient_tensor()[0, 0, 0] == 1.0 and not d.coefficient_tensor()[1:].any()

    @pytest.mark.parametrize("build", ["tensor", "keywords"])
    def test_fields_are_read_only_views_of_one_tensor(self, build):
        rho = random_density(np.random.default_rng(17))
        d = decompose_state(rho)
        if build == "keywords":
            d = BlochDecomposition(**{name: getattr(d, name) for name in ZERO_FIELDS})
        t = d.coefficient_tensor()
        assert not t.flags.writeable
        for name in ZERO_FIELDS:
            field = getattr(d, name)
            assert np.shares_memory(field, t) and not field.flags.writeable

    @pytest.mark.parametrize("overrides, cls, message", [
        (dict(a=np.zeros(2)), ValueError, "a must have shape (3,), got (2,)"),
        (dict(tau=np.zeros((3, 3))), ValueError, "tau must have shape (3, 3, 3), got (3, 3)"),
        (dict(S=np.full((3, 3), np.nan)), StateValidationError, "S has a non-finite entry"),
        (dict(c=np.array([0.0, -np.inf, 0.0])), StateValidationError, "c has a non-finite entry"),
        (dict(R=np.diag([0.0, 1.5, 0.0])), ValueError, "R has entry of magnitude 1.500000 outside [-1, 1]"),
        (dict(a=np.array([np.nan, 0, 0]), b=np.zeros(4)), StateValidationError, "a has a non-finite entry"),
        (dict(a=np.zeros(4), b=np.array([np.nan, 0, 0])), ValueError, "a must have shape (3,), got (4,)"),
        (dict(Q=np.eye(3) * 2, tau=np.zeros(27)), ValueError, "Q has entry of magnitude 2.000000 outside [-1, 1]"),
        (dict(a=np.array([0.0, 1.0 + 4e-8, 0.0])), ValueError,
         "a has entry of magnitude 1 + 4.000e-08 outside [-1, 1]"),
    ])
    def test_keyword_constructor_messages(self, overrides, cls, message):
        with pytest.raises(ValueError) as excinfo:
            BlochDecomposition(**zero_fields(**overrides))
        assert excinfo.type is cls and str(excinfo.value) == message

    @pytest.mark.parametrize("value, cls, message", [
        (1.5, ValueError, "a has entry of magnitude 1.500000 outside [-1, 1]"),
        (float("nan"), StateValidationError, "a has a non-finite entry"),
    ])
    def test_bloch_state_file_messages(self, value, cls, message):
        block = bloch_to_json(decompose_state(np.eye(8) / 8))
        block["bloch"]["a"][0] = value
        with pytest.raises(ValueError) as excinfo:
            parse_state(block)
        assert excinfo.type is cls and str(excinfo.value) == message


def assert_one_read_only_tensor(d):
    t = d.coefficient_tensor()
    assert not t.flags.writeable
    for name in ZERO_FIELDS:
        field = getattr(d, name)
        assert np.shares_memory(field, t) and not field.flags.writeable


class TestOneStoredArray:
    """A decomposition stores its coefficient tensor and nothing else; the seven fields are views of it."""

    def test_the_tensor_is_the_only_attribute(self):
        d = decompose_state(w_density())
        assert BlochDecomposition.__slots__ == ("_tensor",) and not hasattr(d, "__dict__")
        assert_one_read_only_tensor(d)

    @pytest.mark.parametrize("name", ["R", "tau", "_tensor", "extra"])
    def test_nothing_can_be_assigned(self, name):
        d = decompose_state(w_density())
        before = d.coefficient_tensor()
        with pytest.raises(AttributeError):
            setattr(d, name, np.zeros((4, 4, 4)))
        assert d.coefficient_tensor() is before and not hasattr(d, "extra")

    def test_positional_and_keyword_construction_agree(self):
        d = decompose_state(random_density(np.random.default_rng(19)))
        fields = [getattr(d, name) for name in ZERO_FIELDS]
        by_position, by_keyword = BlochDecomposition(*fields), BlochDecomposition(**dict(zip(ZERO_FIELDS, fields)))
        assert by_position.coefficient_tensor().tobytes() == d.coefficient_tensor().tobytes()
        assert by_keyword.coefficient_tensor().tobytes() == d.coefficient_tensor().tobytes()
        assert_one_read_only_tensor(by_position)

    @pytest.mark.parametrize("duplicate", [
        lambda d: pickle.loads(pickle.dumps(d)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_copies_keep_one_read_only_tensor(self, duplicate):
        d = decompose_state(preset_density("beta-mix"))
        twin = duplicate(d)
        assert type(twin) is BlochDecomposition and twin is not d
        assert twin.coefficient_tensor().tobytes() == d.coefficient_tensor().tobytes()
        assert not np.shares_memory(twin.coefficient_tensor(), d.coefficient_tensor())
        assert_one_read_only_tensor(twin)

    def test_states_imports_no_dataclasses(self):
        tree = ast.parse(open(states.__file__).read())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported


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


def memo_pool():
    """Admitted states in several guises (the same values real, Fortran-ordered, read-only) and two rejected ones."""
    rng = np.random.default_rng(61)
    w, mixed, ghz = w_density(), random_density(rng), ghz_density()
    frozen = w.copy()
    frozen.setflags(write=False)
    non_hermitian = np.eye(8, dtype=complex) / 8
    non_hermitian[0, 1] = 1e-6j
    return [w, frozen, mixed, np.asfortranarray(mixed), ghz, np.ascontiguousarray(ghz.real),
            pure_to_density(random_pure(rng)), (np.eye(8) + 1.5 * kron3(pauli_x, pauli_x, pauli_x)) / 8,
            non_hermitian]


MEMO_POOL = memo_pool()

MEMO_CALLS = {
    "validate_state": lambda rho, setting: validate_state(rho),
    "decompose_state": lambda rho, setting: decompose_state(rho),
    "full_report": full_report,
    "expected_fidelity_exact": expected_fidelity_exact,
}


def result_bits(result):
    """Every bit of a result: an array's dtype, shape, strides, flags and bytes, a decomposition's fields and
    tensor, a float's hex; a report by its repr, which prints each float to the bit."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.strides, result.flags.writeable, result.tobytes()
    if isinstance(result, BlochDecomposition):
        return tuple(result_bits(getattr(result, name)) for name in ("a", "b", "c", "Q", "R", "S", "tau")) + (
            result_bits(result.coefficient_tensor()),)
    if isinstance(result, float):
        return result.hex()
    return repr(result)


def call_bits(name, rho, setting):
    try:
        return result_bits(MEMO_CALLS[name](rho, setting))
    except ValueError as error:  # every rejection of an input
        return type(error), str(error)


class TestStateMemo:
    """validate_state and decompose_state keep the last admitted state, one entry, and no result shows it."""

    def test_six_reports_validate_and_decompose_once(self, monkeypatch):
        rho = w_density()
        monkeypatch.setattr(states, "_last_state", None)
        counts = count_calls(monkeypatch, ["eigvalsh", "pauli_traces"], [np.linalg, states])
        for setting in ALL_SETTINGS:
            full_report(rho, setting)
        assert counts == {"eigvalsh": 1, "pauli_traces": 1}

    def test_the_exact_value_after_the_mc_validates_once(self, monkeypatch):
        rho, setting = random_density(np.random.default_rng(62)), ALL_SETTINGS[3]
        monkeypatch.setattr(states, "_last_state", None)
        counts = count_calls(monkeypatch, ["eigvalsh"], [np.linalg])
        expected_fidelity_mc(rho, setting, n_samples=100, seed=3)
        expected_fidelity_exact(rho, setting)
        assert counts == {"eigvalsh": 1}

    def test_a_rejected_state_is_checked_on_every_call(self, monkeypatch):
        rho, not_psd = w_density(), MEMO_POOL[-2]
        monkeypatch.setattr(states, "_last_state", None)
        counts = count_calls(monkeypatch, ["eigvalsh"], [np.linalg])
        validate_state(rho)
        for repeat in range(1, 4):
            with pytest.raises(NotPSDError):
                validate_state(not_psd)
            with pytest.raises(NotPSDError):
                full_report(not_psd)
            assert counts["eigvalsh"] == 1 + 2 * repeat
        full_report(rho)  # a rejection does not replace the admitted entry
        assert counts["eigvalsh"] == 7
        one_bit_off = rho.copy()
        one_bit_off[0, 0] = np.nextafter(rho[0, 0].real, 1.0)
        validate_state(one_bit_off)
        assert counts["eigvalsh"] == 8

    @seed(63)
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(MEMO_CALLS)), st.integers(0, len(MEMO_POOL) - 1),
                              st.sampled_from(ALL_SETTINGS)), min_size=1, max_size=16))
    def test_the_memo_is_invisible_property(self, calls):
        states._last_state = None
        for name, i, setting in calls:
            kept = states._last_state
            states._last_state = None
            cold = call_bits(name, MEMO_POOL[i], setting)
            states._last_state = kept
            try:
                result = MEMO_CALLS[name](MEMO_POOL[i], setting)
            except ValueError as error:
                assert (type(error), str(error)) == cold
                continue
            assert result_bits(result) == cold
            # a caller that writes into what it got changes no later result
            for array in ([result] if isinstance(result, np.ndarray) else
                          [result.coefficient_tensor()] if isinstance(result, BlochDecomposition) else []):
                array.setflags(write=True)
                array[...] = 0.25

    def test_threads_alternating_two_states_get_the_sequential_results(self):
        # four threads on two cores, each alternating between the two states from its own start
        pair, setting = (MEMO_POOL[0], MEMO_POOL[2]), ALL_SETTINGS[4]
        names = sorted(MEMO_CALLS)
        expected = []
        for rho in pair:
            states._last_state = None
            expected.append([call_bits(name, rho, setting) for name in names])
        seen = [[] for _ in range(4)]

        def alternate(k):
            for j in range(100):
                i = (j + k) % 2
                seen[k].append((i, [call_bits(name, pair[i], setting) for name in names]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between nearly every pair of calls
        try:
            threads = [threading.Thread(target=alternate, args=(k,)) for k in range(len(seen))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for runs in seen:
            assert len(runs) == 100  # an exception in a thread leaves its list short
            assert all(bits == expected[i] for i, bits in runs)
