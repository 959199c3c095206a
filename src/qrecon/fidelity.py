"""Every closed form: reconstruction fidelity, SO(3) rotations, case classification, secret sharing.

Everything here is a function of the Bloch decomposition alone.  A *setting* assigns the three roles:
the dealer holds the qubit being measured jointly with the input, the assistant measures in the x basis
and broadcasts, the reconstructor applies the correction and ends up with the output state.

Two closed-form routes are computed side by side and never merged: the SO(3)-restricted optimum
(attainable with unitary corrections, what the Monte Carlo of :mod:`qrecon.protocol` must match) and the
trace-norm bound (which equals the closed-form ``f_max`` and may exceed the SO(3) value when a branch
matrix has negative determinant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .states import QUBITS, BlochDecomposition, decompose_state, validate_state

#: Default threshold below which a correlation matrix counts as zero.
ZERO_MATRIX_EPS = 1e-9

#: Slack on the <= 1 channel-norm bounds so exact boundary cases (GHZ) pass.
QSS_NORM_SLACK = 1e-12

CLASSICAL_FIDELITY = 2.0 / 3.0

ROTATION_TOL = 1e-10

#: Signs (t1, t2, t3) such that the l-th Bell projector is
#: (1/4)(I + sum_i t_i sigma_i (x) sigma_i); l = 0 is the singlet.
BELL_DIAGONALS = (
    (-1.0, -1.0, -1.0),
    (-1.0, 1.0, 1.0),
    (1.0, -1.0, 1.0),
    (1.0, 1.0, -1.0),
)

#: Branch order used everywhere: l major, x = +1 before -1.
BRANCHES = tuple((l, x) for l in range(4) for x in (+1, -1))

#: Rows diag(F_l) = -t_l: rotations (each t_l has product -1), F_0 = I, F_1..F_3 the Pauli pi-rotations.
FRAMES = -np.array(BELL_DIAGONALS)


@dataclass(frozen=True)
class Setting:
    """Role assignment (dealer, assistant, reconstructor), a permutation
    of the qubit labels A, B, C."""

    dealer: str
    assistant: str
    reconstructor: str

    def __post_init__(self):
        roles = (self.dealer, self.assistant, self.reconstructor)
        if sorted(roles) != sorted(QUBITS):
            raise ValueError(f"setting must be a permutation of {QUBITS}, got {roles}")

    @classmethod
    def from_string(cls, s: str) -> "Setting":
        """Parse e.g. "ABC" as dealer=A, assistant=B, reconstructor=C."""
        if len(s) != 3:
            raise ValueError(f"setting string must have length 3, got {s!r}")
        return cls(s[0].upper(), s[1].upper(), s[2].upper())

    def __str__(self) -> str:
        return self.dealer + self.assistant + self.reconstructor

    @cached_property  # computed once per instance, kept in its __dict__: not a field, so ==, hash and repr ignore it
    def order(self) -> tuple[int, int, int]:
        """Wire index of (dealer, assistant, reconstructor).  This axis
        permutation is the whole role rule: :func:`role_tensor` applies it
        to the coefficient tensor, ``protocol.permute_to_canonical`` to rho."""
        return tuple(QUBITS.index(q) for q in (self.dealer, self.assistant, self.reconstructor))


CANONICAL_SETTING = Setting("A", "B", "C")

ALL_SETTINGS = tuple(Setting(*roles) for roles in permutations(QUBITS))


def trace_norms(stack: np.ndarray) -> np.ndarray:
    """Sum of singular values of each matrix in a ``(..., m, n)`` stack.

    A real 2x2 matrix B has s1^2 + s2^2 = ||B||_F^2 and s1 s2 = |det B|,
    so a trailing shape (2, 2) takes the exact rule sqrt(||B||_F^2 + 2 |det B|)
    with no SVD; a non-finite entry gives a non-finite norm, without a warning.
    Every other shape sums a values-only SVD.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.shape[-2:] != (2, 2):
        return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)
    a, b, c, d = stack[..., 0, 0], stack[..., 0, 1], stack[..., 1, 0], stack[..., 1, 1]
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf are NaN, as intended
        return np.sqrt(a * a + b * b + c * c + d * d + 2.0 * np.abs(a * d - b * c))


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of singular values."""
    return float(trace_norms(matrix))


def role_tensor(d: BlochDecomposition, setting: Setting) -> np.ndarray:
    """Read-only view of the (4, 4, 4) coefficient tensor with axes
    (dealer, assistant, reconstructor).  P = ``[1:, 0, 1:]``, T =
    ``[1:, 1, 1:]`` and the dealer-assistant pair ``[1:, 1:, 0]``."""
    return d.coefficient_tensor().transpose(setting.order)


def t_matrix_for_setting(d: BlochDecomposition, setting: Setting) -> np.ndarray:
    """Slice of tau with sigma_x in the assistant slot, dealer on rows."""
    return role_tensor(d, setting)[1:, 1, 1:]


def pair_correlation_for_setting(d: BlochDecomposition, setting: Setting) -> np.ndarray:
    """Dealer-reconstructor correlation matrix, dealer on rows."""
    return role_tensor(d, setting)[1:, 0, 1:]


def singlet_matrices(P: np.ndarray, T: np.ndarray) -> np.ndarray:
    """M_{0,x} = -(P + x T), x = +1 then -1, as a ``(..., 2, 3, 3)`` stack.  Branch (l, x) has
    M_{l,x} = F_l M_{0,x} (:data:`FRAMES`): same singular values, same determinant."""
    m = np.empty(P.shape[:-2] + (2,) + P.shape[-2:])  # P + T and P - T written in place, negated in place
    np.add(P, T, out=m[..., 0, :, :])
    np.subtract(P, T, out=m[..., 1, :, :])
    return np.negative(m, out=m)


def branch_matrices(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING) -> np.ndarray:
    """The (8, 3, 3) stack M_{l,x} = t_l (P + x T) = F_l M_{0,x}, in :data:`BRANCHES` order.

    t_l = diag(BELL_DIAGONALS[l]).  Branch (l, x) contributes
    Tr(M_{l,x} Omega) / 48 to the sphere-averaged fidelity under the
    correction rotation Omega; any fixed-rotation fidelity is read off this stack.
    """
    t = role_tensor(d, setting)
    return (FRAMES[:, None, :, None] * singlet_matrices(t[1:, 0, 1:], t[1:, 1, 1:])).reshape(8, 3, 3)


def _theta(plus, minus):
    """theta's one bit rule: add the trace norms of M_{0,+} and M_{0,-} (each summed as trace_norms does), halve."""
    return (plus + minus) / 2.0


def theta_from_pair(P: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(||P + T||_1 + ||P - T||_1) / 2 for matching ``(..., m, n)`` stacks."""
    return _theta(*np.moveaxis(trace_norms(singlet_matrices(P, T)), -1, 0))


def theta(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING) -> float:
    """Correlation strength (||P + T||_1 + ||P - T||_1) / 2, in [0, 3].

    P is the dealer-reconstructor pair matrix and T the assisted slice;
    values above 1 mean the optimally corrected protocol beats the
    classical bound 2/3.  Read off the report's pass, :func:`_closed_form`.
    """
    return _closed_form(d, setting)[0]


def f_max_from_theta(th: float) -> float:
    return (1.0 + th / 3.0) / 2.0


def f_max(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING) -> float:
    """Best average reconstruction fidelity over correction rotations."""
    return f_max_from_theta(theta(d, setting))


def teleportation_fidelity(pair_matrix: np.ndarray) -> float:
    """(1 + ||P||_1 / 3) / 2: what the pair alone achieves, no assistant."""
    return f_max_from_theta(trace_norm(pair_matrix))


def _so3(omega) -> np.ndarray:
    """``omega`` as a float (8, 3, 3) array whose 3x3 blocks are special
    orthogonal to :data:`ROTATION_TOL`; ValueError otherwise."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (8, 3, 3):
        raise ValueError(f"rotations must have shape (8, 3, 3), got {omega.shape}")
    if not np.isfinite(omega).all():
        raise ValueError("rotations must be finite")
    defect = np.abs(omega @ omega.swapaxes(-1, -2) - np.eye(3)).max()
    det_error = np.abs(np.linalg.det(omega) - 1.0).max()
    if defect > ROTATION_TOL or det_error > ROTATION_TOL:
        raise ValueError(f"not special orthogonal: orthogonality defect {defect:.3e}, |det - 1| {det_error:.3e}")
    return omega


def optimal_rotation(m: np.ndarray) -> np.ndarray:
    """Best SO(3) rotation for a branch matrix, or a rotation per matrix of a ``(..., 3, 3)`` stack.

    Maximizes Tr(M Omega) over rotations: with SVD M = U S V^T the
    optimum is Omega = V diag(1, 1, det(UV^T)) U^T, attaining
    s1 + s2 + sign(det M) s3 (the trace norm when det M >= 0).
    Degenerate singular values are resolved by whatever valid SVD the
    backend picks; any maximizer gives the same value.
    """
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    vt[..., 2, :] *= np.sign(np.linalg.det(u @ vt))[..., None]  # exactly +-1, not a float det
    return vt.swapaxes(-1, -2) @ u.swapaxes(-1, -2)


def _rotations(P: np.ndarray, T: np.ndarray) -> np.ndarray:
    # M_{l,x} = F_l M_{0,x}, so Omega_{l,x} = Omega_{0,x} F_l: the (8, 3, 3) stack in BRANCHES order
    return (optimal_rotation(singlet_matrices(P, T)) * FRAMES[:, None, None]).reshape(8, 3, 3)


def optimal_rotations(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING) -> np.ndarray:
    """Per-branch optimal corrections: a read-only (8, 3, 3) SO(3) stack in
    :data:`BRANCHES` order.  M_{l,x} = F_l M_{0,x}, so Omega_{l,x} = Omega_{0,x} F_l."""
    t = role_tensor(d, setting)
    omegas = _rotations(t[1:, 0, 1:], t[1:, 1, 1:])
    omegas.setflags(write=False)
    return omegas


@dataclass(frozen=True)
class ClosedFormBounds:
    """The two closed-form routes, reported separately.

    ``f_so3`` is attainable (sums the SO(3)-restricted branch optima);
    ``f_trace_norm`` sums the trace norms and is the analytic ``f_max``
    to the bit.  Both are read off the report's pass, :func:`_closed_form`:
    branch (l, x) has M_{l,x} = F_l M_{0,x}, with the singular values and
    the determinant of M_{0,x}, so each of the four branches of an x loses
    2 s3 to the SO(3) restriction where det M_{0,x} < 0: ``so3_gap >= 0``.
    """

    f_so3: float
    f_trace_norm: float
    so3_gap: float


def _closed_form(d: BlochDecomposition, setting: Setting) -> tuple:
    """The one closed-form pass of a (state, setting): ``(theta, ||P||_1, ||Q||_1, loss, P, T)``, Q the dealer-assistant
    pair, from one values-only SVD of [M_{0,+}, M_{0,-}, P, Q] (summed as :func:`trace_norms` sums) and one det of the
    M_{0,x}.  ``loss`` is the SO(3) rule, 2 s3(M_{0,x}) for each x with det M_{0,x} < 0: f_so3 = f_max - loss / 12."""
    t = role_tensor(d, setting)
    P, T = t[1:, 0, 1:], t[1:, 1, 1:]
    stack = np.empty((4, 3, 3))
    stack[:2], stack[2], stack[3] = singlet_matrices(P, T), P, t[1:, 1:, 0]
    s = np.linalg.svd(stack, compute_uv=False)
    plus, minus, r_norm, q_norm = s.sum(axis=-1).tolist()
    dets = np.linalg.det(stack[:2]).tolist()  # two Python floats: cheaper than np.where, with the same bits
    loss = sum((2.0 * s3 for det, s3 in zip(dets, s[:2, 2].tolist()) if det < 0), 0.0)
    return _theta(plus, minus), r_norm, q_norm, loss, P, T


def closed_form_bounds(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING) -> ClosedFormBounds:
    th, _, _, loss, _, _ = _closed_form(d, setting)
    f_tn = f_max_from_theta(th)
    f_so3 = f_tn - loss / 12.0
    return ClosedFormBounds(f_so3=f_so3, f_trace_norm=f_tn, so3_gap=f_tn - f_so3)


def fixed_rotation_fidelity(d: BlochDecomposition, setting: Setting, rotations: np.ndarray) -> float:
    """Closed-form sphere-averaged fidelity for a fixed (8, 3, 3) rotation
    stack: 1/2 + (1/48) sum_branches Tr[t_l (P + x T) Omega]."""
    return 0.5 + float(np.einsum("bij,bji->", branch_matrices(d, setting), _so3(rotations))) / 48.0


@dataclass(frozen=True)
class CaseLabel:
    """Zero-pattern class of (P, T) with the epsilon used to decide it.

    Case 1: P != O, T != O.  Case 2: P = O, T != O (the pair alone
    teleports at 1/2; any advantage is assistance-activated).  Case 3:
    P != O, T = O (theta collapses to ||P||_1; assistance adds nothing).
    Case 4: both zero.
    """

    label: str
    epsilon: float


#: :func:`classify_case`'s labels, indexed by [P = O][T = O].
_CASE_LABELS = (("case1", "case3"), ("case2", "case4"))


def classify_case(P: np.ndarray, T: np.ndarray, eps: float = ZERO_MATRIX_EPS) -> CaseLabel:
    """Classify the advantage source by which of P, T vanish (max-abs < eps)."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    label = _CASE_LABELS[bool(np.abs(P).max() < eps)][bool(np.abs(T).max() < eps)]
    return CaseLabel(label=label, epsilon=eps)


@dataclass(frozen=True)
class QSSCheck:
    """Secret-sharing eligibility: no single subchannel can reconstruct
    alone (both dealer-side trace norms <= 1) while the collaborative
    protocol still beats the classical bound (theta > 1)."""

    ok: bool
    assistant_channel_norm: float
    reconstructor_channel_norm: float
    theta: float


def qss_check(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING) -> QSSCheck:
    """Evaluate the three secret-sharing conditions for a setting.

    The norm bounds use <= 1 with 1e-12 slack (exact boundary states
    qualify); the advantage condition theta > 1 is strict.
    """
    return report_from_decomposition(d, setting).qss


@dataclass(frozen=True)
class FidelityReport:
    """Everything the closed-form analysis says about one setting."""

    setting: Setting
    theta: float
    f_max: float
    f_tele_dealer_reconstructor: float
    f_tele_dealer_assistant: float
    case_label: CaseLabel
    qss: QSSCheck
    quantum_advantage: bool
    epsilon: float

    @property
    def qss_ok(self) -> bool:
        return self.qss.ok


def full_report(rho: np.ndarray, setting: Setting = CANONICAL_SETTING,
                eps: float = ZERO_MATRIX_EPS) -> FidelityReport:
    """Validate a state and run the complete closed-form analysis.

    :func:`validate_state` and :func:`decompose_state` remember the last
    state they admitted, one entry by its exact bytes, so reports of one
    state under several settings validate and decompose it once; every
    result has the bits it has without that memo."""
    return report_from_decomposition(decompose_state(validate_state(rho)), setting, eps)


def report_from_decomposition(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING,
                              eps: float = ZERO_MATRIX_EPS) -> FidelityReport:
    th, r_norm, q_norm, _, P, T = _closed_form(d, setting)
    qss_ok = q_norm <= 1.0 + QSS_NORM_SLACK and r_norm <= 1.0 + QSS_NORM_SLACK and th > 1.0
    return FidelityReport(
        setting=setting,
        theta=th,
        f_max=f_max_from_theta(th),
        # teleportation fidelity is the same map applied to a pair's trace norm
        f_tele_dealer_reconstructor=f_max_from_theta(r_norm),
        f_tele_dealer_assistant=f_max_from_theta(q_norm),
        case_label=classify_case(P, T, eps),
        qss=QSSCheck(ok=qss_ok, assistant_channel_norm=q_norm, reconstructor_channel_norm=r_norm, theta=th),
        # f_max > 2/3 iff theta > 1; test theta to keep the boundary exact
        quantum_advantage=th > 1.0,
        epsilon=eps,
    )


def report_to_dict(report: FidelityReport) -> dict:
    """JSON-ready dict with a fixed field order (stable across runs)."""
    return {
        "setting": str(report.setting),
        "theta": report.theta,
        "f_max": report.f_max,
        "f_tele_dealer_reconstructor": report.f_tele_dealer_reconstructor,
        "f_tele_dealer_assistant": report.f_tele_dealer_assistant,
        "case_label": report.case_label.label,
        "qss_ok": report.qss.ok,
        "qss_assistant_channel_norm": report.qss.assistant_channel_norm,
        "qss_reconstructor_channel_norm": report.qss.reconstructor_channel_norm,
        "quantum_advantage": report.quantum_advantage,
        "epsilon": report.epsilon,
    }
