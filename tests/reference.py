"""The literal reference protocol: the test oracle for :func:`qrecon.protocol.branch_maps`.

The source qubit S carrying ``rho_S = (I + phi . sigma)/2`` joins the
resource state on a 16-dimensional space with wire order (S, dealer,
assistant, reconstructor).  Each measurement branch is applied as it is
written down: the Bell projector on (S, dealer), the x-basis projector
on the assistant, the partial trace down to the reconstructor, and the
correction as the SU(2) unitary of its rotation.  One input direction
per call, no Pauli-unit tables and no shared kernel, so the comparison
with ``branch_maps`` stays between two independent derivations.  It also
holds the per-sample guessing rule that :func:`qrecon.protocol._guess_form`
averages in closed form.  Only tests import this module; it is not part
of the ``qrecon`` package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from conftest import literal_directions
from qrecon.fidelity import _so3
from qrecon.protocol import (BRANCHES, ZERO_PROBABILITY, _check_guess, _checked_integer, bell_projectors,
                             hadamard_projectors)
from qrecon.paulis import identity2, pauli_x, pauli_y, pauli_z


def kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Kronecker product of three single-qubit operators, A slot first."""
    return np.kron(np.kron(a, b), c)


def pauli_vector(n: np.ndarray) -> np.ndarray:
    """n . sigma for a real 3-vector ``n``."""
    n = np.asarray(n, dtype=float)
    return n[0] * pauli_x + n[1] * pauli_y + n[2] * pauli_z


def rotation_to_unitary(omega: np.ndarray) -> np.ndarray:
    """SU(2) element implementing a rotation: U (n.sigma) U^dag = (Omega^T n).sigma.

    Equivalently U sigma_i U^dag = sum_j Omega_ij sigma_j.  Raises
    ValueError if ``omega`` is not a finite 3x3 special orthogonal
    matrix to 1e-10.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (3, 3):
        raise ValueError(f"rotations must have shape (3, 3), got {omega.shape}")
    omega = _so3(np.broadcast_to(omega, (8, 3, 3)))[0]
    # Unit quaternion q = (w, x, y, z) of the active rotation r = Omega^T,
    # U = w I - i (x, y, z).sigma.  k = 4 q q^T has trace 4, so its largest
    # diagonal entry is >= 1 and that row gives q stably, also near pi.
    r = omega.T
    a = r - omega
    tr = np.trace(r)
    k = np.empty((4, 4))
    k[0, 0] = 1.0 + tr
    k[0, 1:] = k[1:, 0] = a[2, 1], a[0, 2], a[1, 0]
    k[1:, 1:] = r + omega + (1.0 - tr) * np.eye(3)
    i = int(np.argmax(np.diag(k)))
    q = k[i] / (2.0 * np.sqrt(k[i, i]))
    if q[0] < 0:  # q and -q give the same rotation; w >= 0 maps the identity to +I
        q = -q
    return q[0] * identity2 - 1j * pauli_vector(q[1:])


def so3_optimum(m: np.ndarray) -> tuple[float, np.ndarray]:
    """max of Tr(M Omega) over rotations Omega, and a rotation attaining it, by Davenport's q-method: no SVD.

    For a unit quaternion q = (w, v), R(q) = (w^2 - |v|^2) I + 2 v v^T + 2 w [v]_x is a rotation, every
    rotation is one, and Tr(M R(q)) = q^T K q with Wahba's symmetric K = [[Tr M, z^T], [z, M + M^T - Tr(M) I]],
    z = (M_12 - M_21, M_20 - M_02, M_01 - M_10).  So the optimum is K's largest eigenvalue, attained at R of
    its eigenvector (G. Wahba, SIAM Review 7, 1965; B. K. P. Horn, JOSA A 4, 1987).
    """
    m = np.asarray(m, dtype=float)
    k = np.empty((4, 4))
    k[0, 0] = np.trace(m)
    k[0, 1:] = k[1:, 0] = m[1, 2] - m[2, 1], m[2, 0] - m[0, 2], m[0, 1] - m[1, 0]
    k[1:, 1:] = m + m.T - np.trace(m) * np.eye(3)
    values, vectors = np.linalg.eigh(k)
    w, v = vectors[0, -1], vectors[1:, -1]
    cross = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return float(values[-1]), (w * w - v @ v) * np.eye(3) + 2.0 * np.outer(v, v) + 2.0 * w * cross


@dataclass(frozen=True)
class ProtocolOutcome:
    """One measurement branch: outcome pair, its probability, the
    corrected reconstructor state (None when the branch has zero
    probability) and the fidelity against the input."""

    l: int
    x: int
    p_alpha: float
    charlie_state: Optional[np.ndarray]
    branch_fidelity: float


def _source_state(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (3,) or not np.isfinite(phi).all() or abs(np.linalg.norm(phi) - 1.0) > 1e-9:
        raise ValueError("phi must be a unit 3-vector")
    return (identity2 + pauli_vector(phi)) / 2.0


def simulate_branches(rho: np.ndarray, phi: np.ndarray, rotations: np.ndarray) -> list[ProtocolOutcome]:
    """Run every measurement branch for one input direction.

    ``rho`` must already be in canonical wire order (dealer, assistant,
    reconstructor) = (A, B, C); see :func:`qrecon.protocol.permute_to_canonical`.
    ``rotations`` is an (8, 3, 3) SO(3) stack in ``BRANCHES`` order;
    each is applied as its SU(2) unitary.  Probabilities sum to 1;
    zero-probability branches carry fidelity 0 and no conditional state.
    """
    omegas = _so3(rotations)
    rho_s = _source_state(phi)
    rho_tot = np.kron(rho_s, np.asarray(rho, dtype=complex))
    outcomes = []
    for (l, x), omega in zip(BRANCHES, omegas):
        proj = np.kron(np.kron(bell_projectors[l], hadamard_projectors[x]), identity2)
        conditioned = proj @ rho_tot @ proj
        p = float(conditioned.trace().real)
        # trace out (S, dealer, assistant), keeping the reconstructor
        n = np.trace(conditioned.reshape(8, 2, 8, 2), axis1=0, axis2=2)
        if p < ZERO_PROBABILITY:
            outcomes.append(ProtocolOutcome(l=l, x=x, p_alpha=p, charlie_state=None, branch_fidelity=0.0))
            continue
        u = rotation_to_unitary(omega)
        charlie = u @ (n / p) @ u.conj().T
        fid = float(np.trace(charlie @ rho_s).real)
        outcomes.append(ProtocolOutcome(l=l, x=x, p_alpha=p, charlie_state=charlie, branch_fidelity=fid))
    return outcomes


def _guess_fidelity_samples(p: float, strategy: str, n_samples: int, seed: int) -> np.ndarray:
    """Per-sample fidelity of a reconstructor guessing the dealer's bit.

    The dealer's share s1 = s XOR s2 hides the measured bit s behind a
    helper bit with P(s2 = 0) = p.  Strategy "same" guesses s1 itself,
    "negate" guesses its complement; means are (1 + p)/3 and (2 - p)/3.
    """
    _check_guess(p, strategy)
    n_samples, seed = _checked_integer(n_samples, "n_samples", 1), _checked_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    phis = literal_directions(rng, n_samples, 3)
    p_up = (1.0 + phis[:, 2]) / 2.0
    s = rng.random(n_samples) >= p_up        # True: measured the -z outcome
    s2 = rng.random(n_samples) >= p          # True with probability 1 - p
    s1 = s ^ s2
    guess = s1 if strategy == "same" else ~s1
    # resending |guess> scores cos^2 or sin^2 of the half-angle
    return np.where(guess, 1.0 - p_up, p_up)
