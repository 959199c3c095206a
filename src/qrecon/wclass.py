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
from .protocol import _direction_blocks, _sample_directions
from .stateio import write_text

NORMALIZATION_TOL = 1e-12

#: Computational-basis slots carrying the four amplitudes.
BASIS_INDICES = (0, 4, 5, 6)


class InvalidParamsError(ValueError):
    """Parameter tuple is non-finite, negative somewhere or not unit norm."""


@dataclass(frozen=True, slots=True)
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
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(lam))
        if norm in (0.0, np.inf) and (largest := np.abs(lam).max()) > 0:
            # the squares underflowed or overflowed; ordinary tuples skip this and keep their bits
            lam = lam / largest
            norm = float(np.linalg.norm(lam))
        if norm <= 0:
            raise InvalidParamsError("cannot normalize the zero tuple")
        lam = lam / norm
        return cls(*lam.tolist())

    def as_array(self) -> np.ndarray:
        return np.array([self.lambda0, self.lambda1, self.lambda2, self.lambda3], dtype=float)


def wclass_state(params: WClassParams) -> np.ndarray:
    """Amplitude vector of the family member, in the 8-dim basis."""
    psi = np.zeros(8, dtype=complex)
    psi[list(BASIS_INDICES)] = params.as_array()
    return psi


def _xz_blocks(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (x, z) blocks of R and T for rows of lambda tuples, shape (n, 2, 2) each.

    Outside them the only nonzero entry is R_yy = -R_xx (T_yy = 0).
    """
    l0, l1, l2, l3 = lam.T
    a, b = 2.0 * l0, -2.0 * l1
    rb, tb = np.empty((2, len(lam), 2, 2))
    rb[:, 0, 0] = a * l2
    rb[:, 0, 1] = a * l1
    rb[:, 1, 0] = b * l2
    rb[:, 1, 1] = 1.0 - 2.0 * (l1 ** 2 + l3 ** 2)
    tb[:, 0, 0] = 0.0
    tb[:, 0, 1] = a * l3
    tb[:, 1, 0] = -2.0 * l2 * l3
    tb[:, 1, 1] = b * l3
    return rb, tb


def _rt_closed_form_batch(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, T) stacks for rows of lambda tuples, shape (n, 3, 3) each."""
    rb, tb = _xz_blocks(lam)
    r, t = np.zeros((2, len(lam), 3, 3))
    r[:, ::2, ::2] = rb
    r[:, 1, 1] = -rb[:, 0, 0]
    t[:, ::2, ::2] = tb
    return r, t


def wclass_rt_closed_form(params: WClassParams) -> tuple[np.ndarray, np.ndarray]:
    """Dealer-reconstructor pair matrix R and assisted slice T for the
    canonical (A, B, C) setting, directly from the amplitudes."""
    r, t = _rt_closed_form_batch(params.as_array()[None, :])
    return r[0], t[0]


def _valid_rows(lam: np.ndarray) -> np.ndarray:
    """:class:`WClassParams`' rule on each row of an (n, 4) block at once: True where it accepts.

    The sum of squares runs left to right, as the scalar ``sum`` does, so it has the same bits.
    """
    l0, l1, l2, l3 = lam.T
    with np.errstate(over="ignore"):  # an infinite square fails the norm test, as in float arithmetic
        total = l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3
    return (lam >= 0).all(axis=1) & ~(np.abs(total - 1.0) > NORMALIZATION_TOL)


def sample_wclass(n: int, seed: int = 42) -> np.ndarray:
    """Rows of uniformly random parameter tuples (lambda0..lambda3).

    Uniform on the nonnegative octant of the 3-sphere: Marsaglia's rule
    on two pairs from [0, 1)^2 (:func:`qrecon.protocol._literal_blocks`).
    """
    return _sample_directions(np.random.default_rng(seed), n, 4)


#: :func:`region_for`'s two answers, indexed by f_tele <= 2/3; the scatter's region column shares these objects.
_REGIONS = np.array(["blue", "orange"], dtype=object)


def region_for(f_tele: float) -> str:
    """"orange" when the pair alone stays classical (f_tele <= 2/3),
    "blue" when teleportation already beats the bound."""
    return _REGIONS[int(f_tele <= CLASSICAL_FIDELITY)]  # int: a bool index would add an axis


@dataclass(frozen=True, slots=True)
class ScatterRecord:
    params: WClassParams
    f_tele: float
    f_recon: float
    region: str


def _scatter_columns(lam: np.ndarray) -> tuple[list[float], list[float], list[str]]:
    """(f_tele, f_recon, region) columns for rows of parameter tuples."""
    # R, T and R +- T are an (x, z) block plus the lone entry |R_yy| = |R_xx|
    rb, tb = _xz_blocks(lam)
    y = np.abs(rb[:, 0, 0])
    # teleportation fidelity is the same map applied to the pair's trace norm
    f_tele = f_max_from_theta(y + trace_norms(rb))
    f_recon = f_max_from_theta(y + theta_from_pair(rb, tb))
    return f_tele.tolist(), f_recon.tolist(), _REGIONS.take(f_tele <= CLASSICAL_FIDELITY).tolist()


def record_for(params: WClassParams) -> ScatterRecord:
    """Closed-form scatter record for one parameter tuple."""
    (f_tele,), (f_recon,), (region,) = _scatter_columns(params.as_array()[None, :])
    return ScatterRecord(params=params, f_tele=f_tele, f_recon=f_recon, region=region)


def scatter_experiment(n: int, seed: int = 42) -> list[ScatterRecord]:
    """Sample n random family members and score each one, a block at a time.

    Each block passes :class:`WClassParams`' rule once, as a whole; then its
    params and records are built by setting their slots, with no per-object check.
    """
    new = object.__new__
    p0, p1, p2, p3 = (getattr(WClassParams, f).__set__ for f in ("lambda0", "lambda1", "lambda2", "lambda3"))
    r0, r1, r2, r3 = (getattr(ScatterRecord, f).__set__ for f in ("params", "f_tele", "f_recon", "region"))
    records = []
    for lam in _direction_blocks(n, seed, 4):
        if not (ok := _valid_rows(lam)).all():
            WClassParams(*lam[np.argmin(ok)].tolist())  # the same rule: raises for the first bad row
        for (l0, l1, l2, l3), ft, fr, region in zip(lam.tolist(), *_scatter_columns(lam)):
            params, record = new(WClassParams), new(ScatterRecord)
            p0(params, l0), p1(params, l1), p2(params, l2), p3(params, l3)
            r0(record, params), r1(record, ft), r2(record, fr), r3(record, region)
            records.append(record)
    return records


CSV_HEADER = ("lambda0", "lambda1", "lambda2", "lambda3", "f_tele", "f_recon", "region")

# 12 significant digits, enough to reproduce doubles across runs
_CSV_ROW = ",".join(["%.12g"] * 6 + ["%s"]) + "\n"


def scatter_csv_chunks(n: int, seed: int = 42) -> Iterator[str]:
    """The CSV in pieces: the header, then one piece per block of
    :func:`sample_wclass`'s stream.  n is checked at the call."""
    lams = _direction_blocks(n, seed, 4)
    pieces = ("".join(_CSV_ROW % row for row in zip(*lam.T.tolist(), *_scatter_columns(lam))) for lam in lams)
    return itertools.chain([",".join(CSV_HEADER) + "\n"], pieces)


def scatter_csv_text(n: int, seed: int = 42) -> str:
    """The full CSV as a string; byte-identical for identical (n, seed)."""
    return "".join(scatter_csv_chunks(n, seed))


def write_scatter_csv(path, n: int, seed: int = 42) -> None:
    """Write the CSV to ``path`` through :func:`qrecon.stateio.write_text`; n is checked first."""
    write_text(path, scatter_csv_chunks(n, seed))
