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
from dataclasses import dataclass, field

import numpy as np

from .paulis import product_basis

#: Qubit labels in wire order: label k is tensor factor k.
QUBITS = ("A", "B", "C")

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_FLOOR = -1e-9
NORMALIZATION_TOL = 1e-10
COEFFICIENT_IMAG_TOL = 1e-8
#: Largest coefficient magnitude of a :class:`BlochDecomposition`, however built: ||rho||_1 over every matrix that
#: :func:`validate_state` admits, since |Re Tr[sigma rho]| = |Tr[sigma H]| <= ||H||_1 for a Pauli product sigma
#: and the Hermitian part H of rho.  Tr H lies within TRACE_TOL of 1.  eigvalsh reads rho's lower triangle L,
#: which differs from H by at most HERMITICITY_TOL / 2 in each of 56 off-diagonal entries, so
#: ||H - L||_2 <= ||H - L||_F < 4 HERMITICITY_TOL and no eigenvalue of H lies below PSD_FLOOR - 4 HERMITICITY_TOL.
#: At most 7 of the 8 are negative (Tr H > 0), so ||H||_1 = Tr H + 2 sum |negative eigenvalues| is at most
#: 1 + TRACE_TOL + 14 (|PSD_FLOOR| + 4 HERMITICITY_TOL); 1e-12 more covers the rounding of eigvalsh and the einsum.
DECOMPOSITION_BOUND = 1.0 + TRACE_TOL + 14 * (-PSD_FLOOR + 4 * HERMITICITY_TOL) + 1e-12


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


#: The last state :func:`validate_state` admitted: (the bytes of its C-ordered complex (8, 8) array, and the
#: (4, 4, 4) complex coefficients :func:`decompose_state` made from those bytes, or None until it has).  One
#: entry, replaced whole, never handed out: a thread reads the old entry or the new one, and every caller gets
#: its own copy.  Threads may replace each other's entries; any entry is an admitted state and its own bits.
_last_state: tuple[bytes, np.ndarray | None] | None = None


def validate_state(matrix: np.ndarray) -> np.ndarray:
    """Check the density-matrix contract and return a read-only copy.

    Raises :class:`StateValidationError` for a wrong shape or a NaN or
    infinite entry, then :class:`NotHermitianError`,
    :class:`NotUnitTraceError` or :class:`NotPSDError` with the measured
    violation in the message.  Hermiticity is required to 1e-10 (max
    abs deviation), the trace to 1e-10, and eigenvalues may not fall
    below -1e-9.

    The last admitted state is remembered, one entry by its exact bytes:
    checking the same bytes again runs no check and returns a fresh copy
    (so :func:`decompose_state` and every analysis of one state validate it
    once).  A rejected input is checked again on every call.
    """
    global _last_state
    rho = np.asarray(matrix, dtype=complex)
    if rho.shape != (8, 8):
        raise StateValidationError(f"expected shape (8, 8), got {rho.shape}")
    key = rho.tobytes()  # C order, whatever rho's layout; every check below reads values alone
    last = _last_state
    if last is None or last[0] != key:
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
        _last_state = key, None

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


#: Where each decomposition field sits in the (4, 4, 4) coefficient tensor
#: (index 0 = identity slot).
_SLOTS = {
    "a": np.s_[1:, 0, 0], "b": np.s_[0, 1:, 0], "c": np.s_[0, 0, 1:],
    "Q": np.s_[1:, 1:, 0], "R": np.s_[1:, 0, 1:], "S": np.s_[0, 1:, 1:],
    "tau": np.s_[1:, 1:, 1:],
}
_SHAPES = {name: np.empty((4, 4, 4))[slot].shape for name, slot in _SLOTS.items()}


@dataclass(frozen=True, eq=False)
class BlochDecomposition:
    """Real Pauli-basis coefficients of a three-qubit state.

    ``a``, ``b``, ``c`` are the local Bloch vectors of A, B, C;
    ``Q``, ``R``, ``S`` the (A,B), (A,C), (B,C) correlation matrices
    (3x3, row index on the first-named qubit); ``tau`` the (3,3,3)
    three-body tensor.  Every entry is finite and lies in [-1, 1], to
    :data:`DECOMPOSITION_BOUND`, the largest coefficient of any matrix
    that :func:`validate_state` admits.
    The fields are read-only views of one stored (4, 4, 4) tensor,
    :meth:`coefficient_tensor`.  Instances compare and hash by identity;
    compare values with ``np.array_equal`` on their tensors.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray
    tau: np.ndarray
    _tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        fields = {name: np.asarray(getattr(self, name), dtype=float) for name in _SLOTS}
        t = None
        if all(arr.shape == _SHAPES[name] for name, arr in fields.items()):
            t = np.empty((4, 4, 4))
            t[0, 0, 0] = 1.0
            for name, arr in fields.items():
                t[_SLOTS[name]] = arr
        self._adopt(t, fields)

    def _adopt(self, t: np.ndarray | None, fields: dict | None = None) -> "BlochDecomposition":
        """Store ``t`` (float, (4, 4, 4), ``t[0, 0, 0] = 1``) as it is and return self.  Pauli expectations lie in
        [-1, 1], here up to :data:`DECOMPOSITION_BOUND` (NaN fails that test too); else, or with no ``t`` (a bad
        shape), name the first bad field."""
        if t is None or not np.abs(t).max() <= DECOMPOSITION_BOUND:
            for name, arr in (fields or {name: t[slot] for name, slot in _SLOTS.items()}).items():
                if arr.shape != _SHAPES[name]:
                    raise ValueError(f"{name} must have shape {_SHAPES[name]}, got {arr.shape}")
                peak = float(np.abs(arr).max())
                if not math.isfinite(peak):
                    raise StateValidationError(f"{name} has a non-finite entry")
                if peak > DECOMPOSITION_BOUND:
                    magnitude = f"{peak:.6f}"
                    if magnitude == "1.000000":  # six decimals hide the excess
                        magnitude = f"1 + {peak - 1.0:.3e}"
                    raise ValueError(f"{name} has entry of magnitude {magnitude} outside [-1, 1]")
        t.setflags(write=False)
        object.__setattr__(self, "_tensor", t)
        for name, slot in _SLOTS.items():
            object.__setattr__(self, name, t[slot])
        return self

    def coefficient_tensor(self) -> np.ndarray:
        """Full (4, 4, 4) coefficient tensor, index 0 = identity slot (read-only)."""
        return self._tensor


def pauli_traces(rho: np.ndarray, basis: np.ndarray = product_basis) -> np.ndarray:
    """Tr[sigma rho], complex, for each (8, 8) matrix sigma of ``basis`` (all 64 Pauli products by default);
    a contiguous slice of the basis gives the bits of the same slice of the full result."""
    return np.einsum("mnxab,ba->mnx", basis, rho)


def decompose_state(rho: np.ndarray) -> BlochDecomposition:
    """Project a state onto the Pauli product basis.

    The coefficients of a Hermitian matrix are real; an imaginary
    residue above ``COEFFICIENT_IMAG_TOL`` (1e-8) therefore signals a
    non-Hermitian input and raises :class:`NonHermitianInputError`.
    The input is not otherwise re-validated.  Every matrix that
    :func:`validate_state` admits decomposes: coefficients may exceed 1
    by up to ``DECOMPOSITION_BOUND - 1`` (about 2e-8).

    For the last state :func:`validate_state` admitted, given as a
    C-ordered array of the same bytes, the coefficients are computed once
    and kept: a later call copies them into a new decomposition.
    """
    global _last_state
    rho = np.asarray(rho, dtype=complex)
    last = _last_state
    # C order only: the einsum's summation order may follow the input's layout, and the kept bits must be this call's
    seen = last is not None and rho.shape == (8, 8) and rho.flags.c_contiguous and last[0] == rho.tobytes()
    if seen and last[1] is not None:
        coeff = last[1].copy()
    else:
        coeff = pauli_traces(rho)
        residue = float(np.abs(coeff.imag).max())
        if residue > COEFFICIENT_IMAG_TOL:
            raise NonHermitianInputError(f"coefficient imaginary residue {residue:.3e} > {COEFFICIENT_IMAG_TOL:.0e}")
        coeff[0, 0, 0] = 1.0  # the identity slot is 1 by definition, whatever the input's trace
        if seen:
            _last_state = last[0], coeff.copy()
    return BlochDecomposition.__new__(BlochDecomposition)._adopt(coeff.real)  # as it is


def compose_state(decomposition: BlochDecomposition) -> np.ndarray:
    """Rebuild the 8x8 matrix from Pauli coefficients.

    The inverse of :func:`decompose_state` to round-trip accuracy 1e-12.
    Note the result is Hermitian with unit trace by construction but not
    necessarily positive: arbitrary coefficient tuples in [-1, 1] need
    not describe a physical state, so callers wanting the full contract
    must run :func:`validate_state` on the output.
    """
    return np.einsum("mnx,mnxab->ab", decomposition.coefficient_tensor(), product_basis) / 8.0


def partial_trace(rho: np.ndarray, discard: str) -> np.ndarray:
    """Trace out one qubit ("A", "B" or "C"), returning the 4x4 state
    of the remaining pair in their original order."""
    if discard not in QUBITS:
        raise ValueError(f"discard must be one of 'A', 'B', 'C', got {discard!r}")
    k = QUBITS.index(discard)
    t = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2, 2, 2)
    return np.trace(t, axis1=k, axis2=k + 3).reshape(4, 4)


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2); 1 for pure states, 1/8 for the maximally mixed state."""
    rho = np.asarray(rho)
    return float(np.einsum("ij,ji->", rho, rho).real)
