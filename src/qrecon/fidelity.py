"""Closed-form reconstruction fidelity, case classification, secret sharing.

Everything here is a function of the Bloch decomposition alone.  A
*setting* assigns the three roles: the dealer holds the qubit being
measured jointly with the input, the assistant measures in the x basis
and broadcasts, the reconstructor applies the correction and ends up
with the output state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import BlochDecomposition, decompose_state, validate_state

QUBITS = ("A", "B", "C")

#: Default threshold below which a correlation matrix counts as zero.
ZERO_MATRIX_EPS = 1e-9

#: Slack on the <= 1 channel-norm bounds so exact boundary cases (GHZ) pass.
QSS_NORM_SLACK = 1e-12

CLASSICAL_FIDELITY = 2.0 / 3.0

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

# per-branch Bell sign rows t_l, shape (8, 3), and x outcomes, shape (8,)
_BRANCH_SIGNS = np.array([BELL_DIAGONALS[l] for l, _ in BRANCHES])
_BRANCH_X = np.array([float(x) for _, x in BRANCHES])


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


CANONICAL_SETTING = Setting("A", "B", "C")

ALL_SETTINGS = tuple(
    Setting(d, a, r)
    for d in QUBITS for a in QUBITS for r in QUBITS
    if len({d, a, r}) == 3
)


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False).sum())


def _pair_matrix(d: BlochDecomposition, first: str, second: str) -> np.ndarray:
    """Correlation matrix of the (first, second) pair, rows on ``first``."""
    pair = {first, second}
    if pair == {"A", "B"}:
        m = d.Q
    elif pair == {"A", "C"}:
        m = d.R
    else:
        m = d.S
    # stored matrices have rows on the alphabetically earlier qubit
    return m if first < second else m.T


def t_matrix_for_setting(d: BlochDecomposition, setting: Setting) -> np.ndarray:
    """Slice of tau with sigma_x in the assistant slot.

    Rows run over the dealer's Pauli index, columns over the
    reconstructor's, so T for (C, B, A) is the transpose of T for
    (A, B, C).
    """
    order = tuple(QUBITS.index(q) for q in (setting.dealer, setting.assistant, setting.reconstructor))
    return np.transpose(d.tau, order)[:, 0, :]


def pair_correlation_for_setting(d: BlochDecomposition, setting: Setting) -> np.ndarray:
    """Dealer-reconstructor correlation matrix, dealer on rows."""
    return _pair_matrix(d, setting.dealer, setting.reconstructor)


def branch_matrices(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING) -> np.ndarray:
    """The (8, 3, 3) stack M_{l,x} = t_l (P + x T), in :data:`BRANCHES` order.

    t_l = diag(BELL_DIAGONALS[l]).  Branch (l, x) contributes
    Tr(M_{l,x} Omega) / 48 to the sphere-averaged fidelity under the
    correction rotation Omega, so the SO(3) optimum, the trace-norm
    bound and any fixed-rotation fidelity are all read off this stack.
    """
    P = pair_correlation_for_setting(d, setting)
    T = t_matrix_for_setting(d, setting)
    return _BRANCH_SIGNS[:, :, None] * (P + _BRANCH_X[:, None, None] * T)


def theta(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING) -> float:
    """Correlation strength (||P + T||_1 + ||P - T||_1) / 2, in [0, 3].

    P is the dealer-reconstructor pair matrix and T the assisted slice;
    values above 1 mean the optimally corrected protocol beats the
    classical bound 2/3.
    """
    P = pair_correlation_for_setting(d, setting)
    T = t_matrix_for_setting(d, setting)
    return (trace_norm(P + T) + trace_norm(P - T)) / 2.0


def f_max_from_theta(th: float) -> float:
    return (1.0 + th / 3.0) / 2.0


def f_max(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING) -> float:
    """Best average reconstruction fidelity over correction rotations."""
    return f_max_from_theta(theta(d, setting))


def teleportation_fidelity(pair_matrix: np.ndarray) -> float:
    """(1 + ||P||_1 / 3) / 2: what the pair alone achieves, no assistant."""
    return f_max_from_theta(trace_norm(pair_matrix))


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


def _is_zero(matrix: np.ndarray, eps: float) -> bool:
    return bool(np.abs(matrix).max() < eps)


def classify_case(P: np.ndarray, T: np.ndarray, eps: float = ZERO_MATRIX_EPS) -> CaseLabel:
    """Classify the advantage source by which of P, T vanish (max-abs < eps)."""
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    p_zero = _is_zero(P, eps)
    t_zero = _is_zero(T, eps)
    label = {(False, False): "case1", (True, False): "case2",
             (False, True): "case3", (True, True): "case4"}[(p_zero, t_zero)]
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
    q_norm = trace_norm(_pair_matrix(d, setting.dealer, setting.assistant))
    r_norm = trace_norm(_pair_matrix(d, setting.dealer, setting.reconstructor))
    return _qss_from_norms(q_norm, r_norm, theta(d, setting))


def _qss_from_norms(q_norm: float, r_norm: float, th: float) -> QSSCheck:
    ok = (q_norm <= 1.0 + QSS_NORM_SLACK) and (r_norm <= 1.0 + QSS_NORM_SLACK) and (th > 1.0)
    return QSSCheck(ok=ok, assistant_channel_norm=q_norm, reconstructor_channel_norm=r_norm, theta=th)


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
    """Validate a state and run the complete closed-form analysis."""
    rho = validate_state(rho)
    d = decompose_state(rho)
    return report_from_decomposition(d, setting, eps)


def report_from_decomposition(d: BlochDecomposition, setting: Setting = CANONICAL_SETTING,
                              eps: float = ZERO_MATRIX_EPS) -> FidelityReport:
    P = pair_correlation_for_setting(d, setting)
    T = t_matrix_for_setting(d, setting)
    th = (trace_norm(P + T) + trace_norm(P - T)) / 2.0
    r_norm = trace_norm(P)
    q_norm = trace_norm(_pair_matrix(d, setting.dealer, setting.assistant))
    return FidelityReport(
        setting=setting,
        theta=th,
        f_max=f_max_from_theta(th),
        # teleportation fidelity is the same map applied to a pair's trace norm
        f_tele_dealer_reconstructor=f_max_from_theta(r_norm),
        f_tele_dealer_assistant=f_max_from_theta(q_norm),
        case_label=classify_case(P, T, eps),
        qss=_qss_from_norms(q_norm, r_norm, th),
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
