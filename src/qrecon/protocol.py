"""Brute-force protocol simulation and the rotation-optimization oracle.

The protocol: a source qubit S carrying ``rho_S = (I + phi . sigma)/2``
is measured jointly with the dealer qubit in the Bell basis (outcome
``l``), the assistant qubit is measured in the x basis (outcome ``x``),
and the reconstructor applies a correction rotation chosen per branch.
Reconstruction quality for one branch is the overlap of the corrected
conditional state with ``rho_S``; the figure of merit is the average of
the branch-weighted fidelity over a uniformly random input direction
``phi``.

Wire order in the simulation is (S, dealer, assistant, reconstructor)
on a 16-dimensional space; :func:`permute_to_canonical` maps any role
assignment onto that layout first.  Corrections are SO(3) matrices
Omega, an (8, 3, 3) stack in :data:`BRANCHES` order.
:func:`simulate_branches` applies the 16-dim projectors and each
Omega's SU(2) unitary literally to one ``phi``; it is the test reference
for :func:`branch_maps`, which uses that every branch is affine in
``rho_S``: it runs the Pauli units {1, sigma}/2 through the same kernels
and trace once per state and rotates the reconstructor's Bloch vector,
n -> Omega^T n, with no unitary.

Two closed-form routes are computed side by side and never merged: the
SO(3)-restricted optimum (attainable with unitary corrections, what the
Monte Carlo must match) and the trace-norm bound (which equals the
closed-form ``f_max`` and may exceed the SO(3) value when a branch
matrix has negative determinant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fidelity import BELL_DIAGONALS, BRANCHES, CANONICAL_SETTING, Setting, branch_matrices
from .paulis import identity2, pauli_x, paulis, pauli_vector, sigma
from .states import BlochDecomposition, decompose_state, validate_state

ROTATION_TOL = 1e-10
ZERO_PROBABILITY = 1e-15


def _bell_projector(diag: tuple[float, float, float]) -> np.ndarray:
    p = np.eye(4, dtype=complex)
    for t, s in zip(diag, paulis):
        p = p + t * np.kron(s, s)
    p /= 4.0
    p.setflags(write=False)
    return p


#: The four two-qubit Bell projectors, indexed by outcome l.
bell_projectors = tuple(_bell_projector(d) for d in BELL_DIAGONALS)

#: x-basis projectors keyed by outcome sign.
hadamard_projectors = {
    +1: (identity2 + pauli_x) / 2.0,
    -1: (identity2 - pauli_x) / 2.0,
}


def _so3(omega, shape: tuple[int, ...] = (8, 3, 3)) -> np.ndarray:
    """``omega`` as a float array of ``shape`` whose 3x3 blocks are special
    orthogonal to :data:`ROTATION_TOL`; ValueError otherwise."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != shape:
        raise ValueError(f"rotations must have shape {shape}, got {omega.shape}")
    if not np.isfinite(omega).all():
        raise ValueError("rotations must be finite")
    defect = np.abs(omega @ omega.swapaxes(-1, -2) - np.eye(3)).max()
    det_error = np.abs(np.linalg.det(omega) - 1.0).max()
    if defect > ROTATION_TOL or det_error > ROTATION_TOL:
        raise ValueError(f"not special orthogonal: orthogonality defect {defect:.3e}, |det - 1| {det_error:.3e}")
    return omega


def rotation_to_unitary(omega: np.ndarray) -> np.ndarray:
    """SU(2) element implementing a rotation: U (n.sigma) U^dag = (Omega^T n).sigma.

    Equivalently U sigma_i U^dag = sum_j Omega_ij sigma_j.  Raises
    ValueError if ``omega`` is not a finite 3x3 special orthogonal
    matrix to 1e-10.
    """
    omega = _so3(omega, (3, 3))
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


def optimal_rotation(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best SO(3) rotation for a branch matrix or a ``(..., 3, 3)`` stack.

    Maximizes Tr(M Omega) over rotations: with SVD M = U S V^T the
    optimum is Omega = V diag(1, 1, det(UV^T)) U^T, attaining
    s1 + s2 + sign(det M) s3 (the trace norm when det M >= 0).  Returns
    (omega, so3_value, trace_norm_value) with the stack's leading shape
    (scalars for one matrix).  Degenerate singular values are resolved
    by whatever valid SVD the backend picks; any maximizer gives the
    same value.
    """
    m = np.asarray(m, dtype=float)
    u, s, vt = np.linalg.svd(m)
    d = np.linalg.det(u @ vt)
    flip = np.ones_like(s)
    flip[..., 2] = d
    omega = (vt.swapaxes(-1, -2) * flip[..., None, :]) @ u.swapaxes(-1, -2)
    return omega, s[..., 0] + s[..., 1] + d * s[..., 2], s.sum(axis=-1)


def optimal_rotations(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING) -> np.ndarray:
    """Per-branch optimal corrections: a read-only (8, 3, 3) SO(3) stack
    in :data:`BRANCHES` order."""
    omegas = optimal_rotation(branch_matrices(d, setting))[0]
    omegas.setflags(write=False)
    return omegas


@dataclass(frozen=True)
class BranchBound:
    l: int
    x: int
    so3_value: float
    trace_norm_value: float


@dataclass(frozen=True)
class ClosedFormBounds:
    """The two closed-form routes, reported separately.

    ``f_so3`` is attainable (sums the SO(3)-restricted branch optima);
    ``f_trace_norm`` sums the trace norms and reproduces the analytic
    ``f_max``.  ``so3_gap = f_trace_norm - f_so3 >= 0``, nonzero exactly
    when some branch matrix has negative determinant.
    """

    f_so3: float
    f_trace_norm: float
    so3_gap: float
    per_branch: tuple[BranchBound, ...]


def closed_form_bounds(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING) -> ClosedFormBounds:
    _, so3, tn = optimal_rotation(branch_matrices(d, setting))
    so3, tn = so3.tolist(), tn.tolist()
    f_so3 = 0.5 + sum(so3) / 48.0
    f_tn = 0.5 + sum(tn) / 48.0
    per_branch = tuple(BranchBound(l=l, x=x, so3_value=s, trace_norm_value=t)
                       for (l, x), s, t in zip(BRANCHES, so3, tn))
    return ClosedFormBounds(f_so3=f_so3, f_trace_norm=f_tn, so3_gap=f_tn - f_so3, per_branch=per_branch)


def fixed_rotation_fidelity(d: BlochDecomposition, setting: Setting, rotations: np.ndarray) -> float:
    """Closed-form sphere-averaged fidelity for a fixed (8, 3, 3) rotation
    stack: 1/2 + (1/48) sum_branches Tr[t_l (P + x T) Omega]."""
    return 0.5 + float(np.einsum("bij,bji->", branch_matrices(d, setting), _so3(rotations))) / 48.0


_QUBIT_INDEX = {"A": 0, "B": 1, "C": 2}


def permute_to_canonical(rho: np.ndarray, setting: Setting) -> np.ndarray:
    """Reorder qubit wires so (dealer, assistant, reconstructor) sit on
    the canonical (A, B, C) slots."""
    order = [_QUBIT_INDEX[q] for q in (setting.dealer, setting.assistant, setting.reconstructor)]
    axes = order + [k + 3 for k in order]
    return np.asarray(rho).reshape((2,) * 6).transpose(axes).reshape(8, 8)


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
    if phi.shape != (3,) or abs(np.linalg.norm(phi) - 1.0) > 1e-9:
        raise ValueError("phi must be a unit 3-vector")
    return (identity2 + pauli_vector(phi)) / 2.0


def simulate_branches(rho: np.ndarray, phi: np.ndarray, rotations: np.ndarray) -> list[ProtocolOutcome]:
    """Run every measurement branch for one input direction.

    ``rho`` must already be in canonical wire order (dealer, assistant,
    reconstructor) = (A, B, C); see :func:`permute_to_canonical`.
    ``rotations`` is an (8, 3, 3) SO(3) stack in :data:`BRANCHES` order;
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


def _sample_directions(rng: np.random.Generator, n: int, dim: int = 3) -> np.ndarray:
    """Uniform points on the unit sphere in R^dim via normalized Gaussians."""
    if n < 1:
        raise ValueError(f"n_samples must be >= 1, got {n}")
    v = rng.normal(size=(n, dim))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-12):  # pragma: no cover - probability zero
        bad = norms < 1e-12
        v[bad] = rng.normal(size=(int(bad.sum()), dim))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


def branch_maps(rho: np.ndarray, setting: Setting = CANONICAL_SETTING,
                rotations: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """The simulated protocol on the Pauli units E = {1, sigma}/2 of rho_S.

    The state is validated and permuted to the canonical layout;
    ``rotations`` (an (8, 3, 3) SO(3) stack) defaults to the per-branch
    optimum.  For rho_S = sum_mu f_mu E_mu, f = (1, phi), branch b has
    probability ``f . p_map[:, b]`` and weighted fidelity
    ``f . q_map[:, b, :] . f``.  A correction acts on the Pauli components
    (Tr N, Tr[N sigma]) of the reconstructor's state N as
    U N U^dag <-> (Tr N, Omega^T Tr[N sigma]) (see :func:`rotation_to_unitary`).
    """
    rho = permute_to_canonical(validate_state(rho), setting)
    omegas = optimal_rotations(decompose_state(rho), CANONICAL_SETTING) if rotations is None else _so3(rotations)
    ls, xs = zip(*BRANCHES)
    bell = np.stack(bell_projectors)[list(ls)].reshape(8, 2, 2, 2, 2)  # rows and columns (S, dealer)
    had = np.stack([hadamard_projectors[x] for x in xs])
    paulis4 = np.stack(sigma)  # 1, sigma_x, sigma_y, sigma_z
    units = paulis4 / 2.0
    # Tr_S[(bell_l (x) had_x)(E_mu (x) 1)] on the (dealer, assistant) pair: k[b, mu, Q, q]
    k = np.einsum("zmgh,zab->zmgahb", np.einsum("ztgsh,mst->zmgh", bell, units), had).reshape(32, 16)
    # N[b, mu] = Tr_pair[k[b, mu] rho]: rho's rows (q, c) and columns (Q, d) regrouped as (Q, q) x (c, d)
    n = (k @ rho.reshape(4, 2, 4, 2).transpose(2, 0, 1, 3).reshape(16, 4)).reshape(8, 4, 2, 2)
    comps = np.einsum("zmcd,ndc->zmn", n, paulis4).real  # Tr[N sigma_nu]
    comps[..., 1:] = comps[..., 1:] @ omegas  # (Omega^T v)_i = sum_j v_j Omega_ji
    # p = Tr N; Tr[(U N U^dag) E_nu] = comps_nu / 2
    return comps[..., 0].T, comps.transpose(1, 0, 2) / 2.0


def _affine(table: Sequence[np.ndarray], phis_t: np.ndarray) -> np.ndarray:
    # table[0] + sum_i phis_t[i] table[1 + i], elementwise so a direction rounds the same in any chunk
    out = table[0] + phis_t[0] * table[1]
    out += phis_t[1] * table[2]
    out += phis_t[2] * table[3]
    return out


def _branch_weights(p_map: np.ndarray, q_map: np.ndarray, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p[branch, n] and w = p * fidelity for unit ``phis``: a null branch weighs nothing."""
    phis_t = np.ascontiguousarray(phis.T)
    q_f = [_affine(q_map[:, :, nu, None], phis_t) for nu in range(4)]  # (Q_b^T f)_nu
    return _affine(p_map[:, :, None], phis_t), _affine(q_f, phis_t)


@dataclass(frozen=True)
class BranchStats:
    l: int
    x: int
    probability: float
    fidelity: float


@dataclass(frozen=True)
class MCResult:
    """Monte Carlo estimate of the sphere-averaged fidelity; ``mean`` and
    ``std_error`` do not depend on ``chunk``, ``per_branch`` only to ~1e-15."""

    mean: float
    std_error: float
    n_samples: int
    seed: int
    per_branch: tuple[BranchStats, ...]

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "per_branch": [
                {"l": b.l, "x": b.x, "probability": b.probability, "fidelity": b.fidelity}
                for b in self.per_branch
            ],
        }


def expected_fidelity_mc(rho: np.ndarray, setting: Setting = CANONICAL_SETTING,
                         n_samples: int = 10_000, seed: int = 42,
                         rotations: Optional[np.ndarray] = None,
                         chunk: int = 8192) -> MCResult:
    """Average protocol fidelity over uniformly random input directions.

    The state, setting and ``rotations`` (default: the per-branch
    optimum; pass any other (8, 3, 3) stack to probe sub-optimal
    corrections) go to :func:`branch_maps`; directions are drawn and
    simulated in chunks.
    Per-branch statistics report the mean branch probability and the
    conditional fidelity E[p f] / E[p].  Only ``mean`` and ``std_error``
    are chunk-exact: the per-branch sums are taken chunk by chunk.
    """
    if n_samples < 1 or chunk < 1:
        raise ValueError(f"n_samples and chunk must be >= 1, got {n_samples} and {chunk}")
    p_map, q_map = branch_maps(rho, setting, rotations)

    rng = np.random.default_rng(seed)
    totals = np.empty(n_samples)
    p_sums = np.zeros(8)
    w_sums = np.zeros(8)
    for start in range(0, n_samples, chunk):
        # drawn chunk by chunk: the stream is the same as one draw of n_samples rows
        p, w = _branch_weights(p_map, q_map, _sample_directions(rng, min(chunk, n_samples - start)))
        # branch by branch, so each sample's total rounds the same in any chunk
        totals[start:start + w.shape[1]] = sum(w)
        p_sums += p.sum(axis=1)
        w_sums += w.sum(axis=1)

    mean = float(totals.mean())
    totals -= mean  # and square in place: totals.std(ddof=1) without its n-float temporary
    totals *= totals
    std_error = float(np.sqrt(totals.sum() / (n_samples - 1)) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    per_branch = tuple(
        BranchStats(l=l, x=x, probability=float(p_sums[i] / n_samples),
                    fidelity=float(w_sums[i] / p_sums[i]) if p_sums[i] > ZERO_PROBABILITY else 0.0)
        for i, (l, x) in enumerate(BRANCHES)
    )
    return MCResult(mean=mean, std_error=std_error, n_samples=n_samples, seed=seed, per_branch=per_branch)


def expected_fidelity_exact(rho: np.ndarray, setting: Setting = CANONICAL_SETTING,
                            rotations: Optional[np.ndarray] = None) -> float:
    """Exact sphere average of the simulated fidelity.

    Every branch map is affine in rho_S, so the averaged fidelity is a
    quadratic polynomial in phi and the uniform sphere average equals
    the mean over the six axis directions.  Deterministic; used to
    cross-check both the Monte Carlo and the closed forms.
    """
    _, w = _branch_weights(*branch_maps(rho, setting, rotations), np.vstack([np.eye(3), -np.eye(3)]))
    return float(sum(w).mean())


@dataclass(frozen=True)
class SphereAverageCheck:
    """Monte Carlo lhs vs analytic rhs of the quadratic-average identity
    integral of <phi, Y phi> = Tr(Y) / 3."""

    lhs: float
    rhs: float
    std_error: float
    n_samples: int
    seed: int


def sphere_average_identity_check(y: np.ndarray, n_samples: int = 100_000, seed: int = 42) -> SphereAverageCheck:
    """Estimate the sphere average of the quadratic form ``y`` and
    return it next to the analytic value Tr(y)/3."""
    y = np.asarray(y, dtype=float)
    if y.shape != (3, 3) or np.abs(y - y.T).max() > 1e-12:
        raise ValueError("y must be a symmetric 3x3 matrix")
    rng = np.random.default_rng(seed)
    phis = _sample_directions(rng, n_samples)
    samples = np.einsum("ni,ij,nj->n", phis, y, phis)
    lhs = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return SphereAverageCheck(lhs=lhs, rhs=float(np.trace(y) / 3.0), std_error=se,
                              n_samples=n_samples, seed=seed)


def _axis_overlap_fidelity(z: np.ndarray) -> np.ndarray:
    """Fidelity of the classical measure-along-z strategy for inputs
    with z-component ``z``: (1 + z^2) / 2."""
    return (1.0 + np.asarray(z) ** 2) / 2.0


def classical_baseline(n_samples: int = 1_000_000, seed: int = 42) -> float:
    """Monte Carlo mean fidelity of the best classical strategy
    (measure along a fixed axis, resend the outcome state); averages to
    2/3 over uniform inputs."""
    rng = np.random.default_rng(seed)
    phis = _sample_directions(rng, n_samples)
    return float(_axis_overlap_fidelity(phis[:, 2]).mean())


def _guess_fidelity_samples(p: float, strategy: str, n_samples: int, seed: int) -> np.ndarray:
    """Per-sample fidelity of a reconstructor guessing the dealer's bit.

    The dealer's share s1 = s XOR s2 hides the measured bit s behind a
    helper bit with P(s2 = 0) = p.  Strategy "same" guesses s1 itself,
    "negate" guesses its complement; means are (1 + p)/3 and (2 - p)/3.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if strategy not in ("same", "negate"):
        raise ValueError(f"strategy must be 'same' or 'negate', got {strategy!r}")
    rng = np.random.default_rng(seed)
    phis = _sample_directions(rng, n_samples)
    p_up = (1.0 + phis[:, 2]) / 2.0
    s = rng.random(n_samples) >= p_up        # True: measured the -z outcome
    s2 = rng.random(n_samples) >= p          # True with probability 1 - p
    s1 = s ^ s2
    guess = s1 if strategy == "same" else ~s1
    # resending |guess> scores cos^2 or sin^2 of the half-angle
    return np.where(guess, 1.0 - p_up, p_up)


def dishonest_guess_fidelity(p: float, strategy: str, n_samples: int = 1_000_000, seed: int = 42) -> float:
    """Mean fidelity when the reconstructor guesses from its share alone."""
    return float(_guess_fidelity_samples(p, strategy, n_samples, seed).mean())
