"""The generalized W family and its reconstruction-vs-teleportation scatter.

States |psi> = l0 |000> + l1 |100> + l2 |101> + l3 |110> with
nonnegative, unit-norm amplitudes.  For this family the (A, C) pair
matrix and the assisted slice have closed forms, so the whole scatter
experiment (teleportation fidelity against reconstruction fidelity for
random parameter tuples) runs on batched 3x3 SVDs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .fidelity import CLASSICAL_FIDELITY, f_max_from_theta
from .protocol import _sample_directions

NORMALIZATION_TOL = 1e-12

#: Computational-basis slots carrying the four amplitudes.
BASIS_INDICES = (0, 4, 5, 6)


class InvalidParamsError(ValueError):
    """Parameter tuple is non-finite, negative somewhere or not unit norm."""


@dataclass(frozen=True)
class WClassParams:
    """Amplitudes (lambda0..lambda3), each finite and >= 0, squares summing to 1."""

    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float

    def __post_init__(self):
        lam = self.as_array()
        if not np.all(lam >= 0):  # also false for NaN; an infinity fails the norm check
            raise InvalidParamsError(f"amplitudes must be nonnegative numbers, got {tuple(lam)}")
        total = float(np.sum(lam ** 2))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidParamsError(f"|sum of squares - 1| = {abs(total - 1.0):.3e} > {NORMALIZATION_TOL:.0e}")

    @classmethod
    def normalized(cls, lambda0: float, lambda1: float, lambda2: float, lambda3: float) -> "WClassParams":
        """Rescale a nonnegative tuple to unit norm and build the params."""
        lam = np.array([lambda0, lambda1, lambda2, lambda3], dtype=float)
        if not np.isfinite(lam).all():
            raise InvalidParamsError(f"amplitudes must be finite, got {tuple(lam)}")
        norm = float(np.linalg.norm(lam))
        if norm <= 0:
            raise InvalidParamsError("cannot normalize the zero tuple")
        lam = lam / norm
        return cls(*lam)

    def as_array(self) -> np.ndarray:
        return np.array([self.lambda0, self.lambda1, self.lambda2, self.lambda3], dtype=float)


def wclass_state(params: WClassParams) -> np.ndarray:
    """Amplitude vector of the family member, in the 8-dim basis."""
    psi = np.zeros(8, dtype=complex)
    psi[list(BASIS_INDICES)] = params.as_array()
    return psi


def _rt_closed_form_batch(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, T) stacks for rows of lambda tuples, shape (n, 3, 3) each."""
    l0, l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2], lam[:, 3]
    n = lam.shape[0]
    r = np.zeros((n, 3, 3))
    r[:, 0, 0] = 2.0 * l0 * l2
    r[:, 0, 2] = 2.0 * l0 * l1
    r[:, 1, 1] = -2.0 * l0 * l2
    r[:, 2, 0] = -2.0 * l1 * l2
    r[:, 2, 2] = 1.0 - 2.0 * (l1 ** 2 + l3 ** 2)
    t = np.zeros((n, 3, 3))
    t[:, 0, 2] = 2.0 * l0 * l3
    t[:, 2, 0] = -2.0 * l2 * l3
    t[:, 2, 2] = -2.0 * l1 * l3
    return r, t


def wclass_rt_closed_form(params: WClassParams) -> tuple[np.ndarray, np.ndarray]:
    """Dealer-reconstructor pair matrix R and assisted slice T for the
    canonical (A, B, C) setting, directly from the amplitudes."""
    r, t = _rt_closed_form_batch(params.as_array()[None, :])
    return r[0], t[0]


def sample_wclass(n: int, seed: int = 42) -> np.ndarray:
    """Rows of uniformly random parameter tuples (lambda0..lambda3).

    Uniform on the nonnegative octant of the 3-sphere: absolute values
    of normalized 4-dim Gaussians.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.abs(_sample_directions(np.random.default_rng(seed), n, 4))


def _batched_trace_norm(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False).sum(axis=1)


def region_for(f_tele: float) -> str:
    """"orange" when the pair alone stays classical (f_tele <= 2/3),
    "blue" when teleportation already beats the bound."""
    return "orange" if f_tele <= CLASSICAL_FIDELITY else "blue"


@dataclass(frozen=True)
class ScatterRecord:
    params: WClassParams
    f_tele: float
    f_recon: float
    region: str


def _scatter_arrays(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f_tele, f_recon) columns for rows of parameter tuples."""
    r, t = _rt_closed_form_batch(lam)
    r_norm = _batched_trace_norm(r)
    th = (_batched_trace_norm(r + t) + _batched_trace_norm(r - t)) / 2.0
    # teleportation fidelity is the same map applied to the pair's trace norm
    return f_max_from_theta(r_norm), f_max_from_theta(th)


def record_for(params: WClassParams) -> ScatterRecord:
    """Closed-form scatter record for one parameter tuple."""
    f_tele, f_recon = _scatter_arrays(params.as_array()[None, :])
    return ScatterRecord(params=params, f_tele=float(f_tele[0]), f_recon=float(f_recon[0]),
                         region=region_for(float(f_tele[0])))


def scatter_experiment(n: int, seed: int = 42) -> list[ScatterRecord]:
    """Sample n random family members and score each one."""
    lam = sample_wclass(n, seed)
    f_tele, f_recon = _scatter_arrays(lam)
    return [
        ScatterRecord(params=WClassParams(*row), f_tele=float(ft), f_recon=float(fr), region=region_for(float(ft)))
        for row, ft, fr in zip(lam, f_tele, f_recon)
    ]


CSV_HEADER = ("lambda0", "lambda1", "lambda2", "lambda3", "f_tele", "f_recon", "region")


def _format(value: float) -> str:
    # 12 significant digits, enough to reproduce doubles across runs
    return f"{value:.12g}"


def scatter_csv_text(n: int, seed: int = 42) -> str:
    """The full CSV as a string; byte-identical for identical (n, seed)."""
    lam = sample_wclass(n, seed)
    f_tele, f_recon = _scatter_arrays(lam)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row, ft, fr in zip(lam, f_tele, f_recon):
        writer.writerow([_format(v) for v in row] + [_format(ft), _format(fr), region_for(float(ft))])
    return buf.getvalue()


def write_scatter_csv(path, n: int, seed: int = 42) -> None:
    text = scatter_csv_text(n, seed)
    with open(path, "w", newline="") as fh:
        fh.write(text)
