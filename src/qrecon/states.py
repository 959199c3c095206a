"""Three-qubit states: validation, Bloch-tensor decomposition, partial traces.

A three-qubit density matrix is represented as a plain complex ``(8, 8)``
ndarray; a pure state as a complex ``(8,)`` amplitude vector.  The
:class:`BlochDecomposition` record collects the real expansion
coefficients of a state in the Pauli product basis:

    rho = (1/8) [ III + sum_i a_i sII + sum_j b_j IsI + sum_k c_k IIs
                  + sum_ij Q_ij ssI + sum_ik R_ik sIs + sum_jk S_jk Iss
                  + sum_ijk tau_ijk sss ]

where Q couples (A, B), R couples (A, C), S couples (B, C) and tau is
the three-body correlation tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paulis import product_basis

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_FLOOR = -1e-9
NORMALIZATION_TOL = 1e-10
COEFFICIENT_IMAG_TOL = 1e-8


class StateValidationError(ValueError):
    """Base class for every rejection of an input state."""


class NotHermitianError(StateValidationError):
    pass


class NotUnitTraceError(StateValidationError):
    pass


class NotPSDError(StateValidationError):
    pass


class NotNormalizedError(StateValidationError):
    """Pure-state amplitude vector is not unit norm."""


class NonHermitianInputError(StateValidationError):
    """Decomposition coefficients came out with a non-real residue."""


def validate_state(matrix: np.ndarray) -> np.ndarray:
    """Check the density-matrix contract and return a read-only copy.

    Raises :class:`StateValidationError` for a wrong shape or a NaN or
    infinite entry, then :class:`NotHermitianError`,
    :class:`NotUnitTraceError` or :class:`NotPSDError` with the measured
    violation in the message.  Hermiticity is required to 1e-10 (max
    abs deviation), the trace to 1e-10, and eigenvalues may not fall
    below -1e-9.
    """
    rho = np.asarray(matrix, dtype=complex)
    if rho.shape != (8, 8):
        raise StateValidationError(f"expected shape (8, 8), got {rho.shape}")
    if not np.isfinite(rho).all():
        raise StateValidationError("density matrix has a non-finite entry")

    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERMITICITY_TOL:
        raise NotHermitianError(f"max |rho - rho^dag| = {herm:.3e} > {HERMITICITY_TOL:.0e}")

    trace = rho.trace()
    if abs(trace - 1.0) > TRACE_TOL:
        raise NotUnitTraceError(f"|Tr rho - 1| = {abs(trace - 1.0):.3e} > {TRACE_TOL:.0e}")

    lowest = float(np.linalg.eigvalsh(rho).min())
    if lowest < PSD_FLOOR:
        raise NotPSDError(f"lowest eigenvalue {lowest:.3e} < {PSD_FLOOR:.0e}")

    out = rho.copy()
    out.setflags(write=False)
    return out


def pure_to_density(amplitudes: np.ndarray) -> np.ndarray:
    """Outer product |psi><psi| of a unit-norm 8-amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.shape != (8,):
        raise NotNormalizedError(f"expected 8 amplitudes, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if not math.isfinite(norm):
        raise StateValidationError("amplitude vector has a non-finite entry")
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise NotNormalizedError(f"|norm - 1| = {abs(norm - 1.0):.3e} > {NORMALIZATION_TOL:.0e}")
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class BlochDecomposition:
    """Real Pauli-basis coefficients of a three-qubit state.

    ``a``, ``b``, ``c`` are the local Bloch vectors of A, B, C;
    ``Q``, ``R``, ``S`` the (A,B), (A,C), (B,C) correlation matrices
    (3x3, row index on the first-named qubit); ``tau`` the (3,3,3)
    three-body tensor.  Every entry is finite and lies in [-1, 1].
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        shapes = {"a": (3,), "b": (3,), "c": (3,), "Q": (3, 3), "R": (3, 3), "S": (3, 3), "tau": (3, 3, 3)}
        for name, shape in shapes.items():
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            peak = float(np.abs(arr).max())
            if not math.isfinite(peak):
                raise StateValidationError(f"{name} has a non-finite entry")
            # Pauli expectations of a valid state cannot leave [-1, 1].
            if peak > 1.0 + 1e-9:
                raise ValueError(f"{name} has entry of magnitude {peak:.6f} outside [-1, 1]")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def coefficient_tensor(self) -> np.ndarray:
        """Full (4, 4, 4) coefficient tensor, index 0 = identity slot."""
        t = np.zeros((4, 4, 4))
        t[0, 0, 0] = 1.0
        t[1:, 0, 0] = self.a
        t[0, 1:, 0] = self.b
        t[0, 0, 1:] = self.c
        t[1:, 1:, 0] = self.Q
        t[1:, 0, 1:] = self.R
        t[0, 1:, 1:] = self.S
        t[1:, 1:, 1:] = self.tau
        return t


def decompose_state(rho: np.ndarray) -> BlochDecomposition:
    """Project a state onto the Pauli product basis.

    The coefficients of a Hermitian matrix are real; any imaginary
    residue beyond 1e-10 therefore signals a non-Hermitian input and
    raises :class:`NonHermitianInputError` (tripping at 1e-8 measured
    residue).  The input is not otherwise re-validated.
    """
    rho = np.asarray(rho, dtype=complex)
    coeff = np.einsum("mnxab,ba->mnx", product_basis, rho)
    residue = float(np.abs(coeff.imag).max())
    if residue > COEFFICIENT_IMAG_TOL:
        raise NonHermitianInputError(f"coefficient imaginary residue {residue:.3e} > {COEFFICIENT_IMAG_TOL:.0e}")
    t = coeff.real
    return BlochDecomposition(
        a=t[1:, 0, 0], b=t[0, 1:, 0], c=t[0, 0, 1:],
        Q=t[1:, 1:, 0], R=t[1:, 0, 1:], S=t[0, 1:, 1:],
        tau=t[1:, 1:, 1:],
    )


def compose_state(decomposition: BlochDecomposition) -> np.ndarray:
    """Rebuild the 8x8 matrix from Pauli coefficients.

    The inverse of :func:`decompose_state` to round-trip accuracy 1e-12.
    Note the result is Hermitian with unit trace by construction but not
    necessarily positive: arbitrary coefficient tuples in [-1, 1] need
    not describe a physical state, so callers wanting the full contract
    must run :func:`validate_state` on the output.
    """
    return np.einsum("mnx,mnxab->ab", decomposition.coefficient_tensor(), product_basis) / 8.0


_AXIS = {"A": 0, "B": 1, "C": 2}


def partial_trace(rho: np.ndarray, discard: str) -> np.ndarray:
    """Trace out one qubit ("A", "B" or "C"), returning the 4x4 state
    of the remaining pair in their original order."""
    if discard not in _AXIS:
        raise ValueError(f"discard must be one of 'A', 'B', 'C', got {discard!r}")
    k = _AXIS[discard]
    t = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2, 2, 2)
    return np.trace(t, axis1=k, axis2=k + 3).reshape(4, 4)


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2); 1 for pure states, 1/8 for the maximally mixed state."""
    rho = np.asarray(rho)
    return float(np.einsum("ij,ji->", rho, rho).real)
