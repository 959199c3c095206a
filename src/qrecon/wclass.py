"""The generalized W family and its reconstruction-vs-teleportation scatter.

States |psi> = l0 |000> + l1 |100> + l2 |101> + l3 |110> with
nonnegative, unit-norm amplitudes.  For this family the (A, C) pair
matrix and the assisted slice have closed forms, so the whole scatter
experiment (teleportation fidelity against reconstruction fidelity for
random parameter tuples) is :mod:`qrecon.fidelity`'s theta and
trace norm applied to whole stacks at once.  The y axis decouples, so
those are trace norms of real 2x2 blocks, which need no SVD.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fidelity import CLASSICAL_FIDELITY, f_max_from_theta, theta_from_pair, trace_norms
from .protocol import _direction_blocks
from .stateio import write_text

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
        lam = (self.lambda0, self.lambda1, self.lambda2, self.lambda3)
        if not all(v >= 0 for v in lam):  # also false for NaN; an infinity fails the norm check
            raise InvalidParamsError(f"amplitudes must be nonnegative numbers, got {lam}")
        total = sum(v * v for v in lam)
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


def _param_blocks(n: int, seed: int) -> Iterator[np.ndarray]:
    """:func:`sample_wclass`'s rows, one block of the shared direction stream at a time; n is checked here."""
    return map(np.abs, _direction_blocks(n, seed, 4))


def sample_wclass(n: int, seed: int = 42) -> np.ndarray:
    """Rows of uniformly random parameter tuples (lambda0..lambda3).

    Uniform on the nonnegative octant of the 3-sphere: absolute values
    of normalized 4-dim Gaussians.
    """
    return np.concatenate(list(_param_blocks(n, seed)))


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


def _scatter_columns(lam: np.ndarray) -> tuple[list[float], list[float], list[str]]:
    """(f_tele, f_recon, region) columns for rows of parameter tuples."""
    r, t = _rt_closed_form_batch(lam)
    # R, T and R +- T are an (x, z) block plus the lone entry R_yy (T_yy = 0)
    y = np.abs(r[:, 1, 1])
    rb, tb = r[:, ::2, ::2], t[:, ::2, ::2]
    # teleportation fidelity is the same map applied to the pair's trace norm
    f_tele = f_max_from_theta(y + trace_norms(rb)).tolist()
    f_recon = f_max_from_theta(y + theta_from_pair(rb, tb)).tolist()
    return f_tele, f_recon, [region_for(ft) for ft in f_tele]


def record_for(params: WClassParams) -> ScatterRecord:
    """Closed-form scatter record for one parameter tuple."""
    (f_tele,), (f_recon,), (region,) = _scatter_columns(params.as_array()[None, :])
    return ScatterRecord(params=params, f_tele=f_tele, f_recon=f_recon, region=region)


def scatter_experiment(n: int, seed: int = 42) -> list[ScatterRecord]:
    """Sample n random family members and score each one, a block at a time."""
    return [
        ScatterRecord(params=WClassParams(*row), f_tele=ft, f_recon=fr, region=region)
        for lam in _param_blocks(n, seed)
        for row, ft, fr, region in zip(lam.tolist(), *_scatter_columns(lam))
    ]


CSV_HEADER = ("lambda0", "lambda1", "lambda2", "lambda3", "f_tele", "f_recon", "region")

# 12 significant digits, enough to reproduce doubles across runs
_CSV_ROW = ",".join(["%.12g"] * 6 + ["%s"]) + "\n"


def scatter_csv_chunks(n: int, seed: int = 42) -> Iterator[str]:
    """The CSV in pieces: the header, then one piece per block of
    :func:`sample_wclass`'s stream.  n is checked at the call."""
    lams = _param_blocks(n, seed)
    pieces = ("".join(_CSV_ROW % row for row in zip(*lam.T.tolist(), *_scatter_columns(lam))) for lam in lams)
    return itertools.chain([",".join(CSV_HEADER) + "\n"], pieces)


def scatter_csv_text(n: int, seed: int = 42) -> str:
    """The full CSV as a string; byte-identical for identical (n, seed)."""
    return "".join(scatter_csv_chunks(n, seed))


def write_scatter_csv(path, n: int, seed: int = 42) -> None:
    """Write the CSV to ``path`` through :func:`qrecon.stateio.write_text`; n is checked first."""
    write_text(path, scatter_csv_chunks(n, seed))
