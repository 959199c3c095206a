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

import functools
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
    on two pairs from [0, 1)^2 (:func:`qrecon.protocol._literal_blocks`),
    collected into one new (n, 4) array.  n and the seed are checked at the call.
    """
    blocks, start = _direction_blocks(n, seed, 4), 0
    out = np.empty((n, 4))
    for lam in blocks:
        out[start:start + len(lam)] = lam
        start += len(lam)
    return out


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


def _scatter_columns(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f_tele, f_recon, region) columns for rows of parameter tuples: two float arrays and an object
    array of :data:`_REGIONS`' strings."""
    # R, T and R +- T are an (x, z) block plus the lone entry |R_yy| = |R_xx|
    rb, tb = _xz_blocks(lam)
    y = np.abs(rb[:, 0, 0])
    # teleportation fidelity is the same map applied to the pair's trace norm
    f_tele = f_max_from_theta(y + trace_norms(rb))
    f_recon = f_max_from_theta(y + theta_from_pair(rb, tb))
    return f_tele, f_recon, _REGIONS.take(f_tele <= CLASSICAL_FIDELITY)


def record_for(params: WClassParams) -> ScatterRecord:
    """Closed-form scatter record for one parameter tuple."""
    (f_tele,), (f_recon,), (region,) = (c.tolist() for c in _scatter_columns(params.as_array()[None, :]))
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
        for l0, l1, l2, l3, ft, fr, region in zip(*lam.T.tolist(), *(c.tolist() for c in _scatter_columns(lam))):
            params, record = new(WClassParams), new(ScatterRecord)
            p0(params, l0), p1(params, l1), p2(params, l2), p3(params, l3)
            r0(record, params), r1(record, ft), r2(record, fr), r3(record, region)
            records.append(record)
    return records


CSV_HEADER = ("lambda0", "lambda1", "lambda2", "lambda3", "f_tele", "f_recon", "region")

# Each CSV piece holds at most _PIECE_ROWS rows, written into one buffer of _ROW_WORDS uint32 words a row: six
# 20-byte slots, one per cell, then 8 bytes for the region and the newline.  A slot holds the cell's "%.12g"
# text (12 significant digits, enough to reproduce doubles across runs) and a comma; every other byte is NUL,
# and one boolean mask drops them all.
_PIECE_ROWS = 2048
_SLOT = 20  # bytes: the longest "%.12g" text of a double, "-2.22507385851e-308", and its comma
_ROW_WORDS = 32
_TAILS = np.frombuffer(b"blue\n\0\0\0orange\n\0", np.uint32).reshape(2, 2)  # indexed as _REGIONS is
_HEAD = np.frombuffer(b"\0\0" b"0.", np.uint32)[0]  # the first word of a fast-path slot


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The uint32 words of 0..9999 as four digits, plain, then (index + 10^4) with trailing zeros as NUL; and
    of 0..999 as three digits, with NULs, and a comma.  Built at the first CSV call, in small integer types: a
    process that imports this module pays nothing, and int64 temporaries raised peak RSS by 1.4 MB."""
    digits = (np.arange(10 ** 4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(
        np.uint8) + ord("0")
    trimmed = np.where(np.cumsum(digits[:, ::-1] != ord("0"), axis=1, dtype=np.uint8)[:, ::-1] > 0, digits, 0)
    last = np.concatenate([trimmed[:1000, 1:], np.full((1000, 1), ord(","), np.uint8)], axis=1)
    return np.concatenate([digits, trimmed]).view(np.uint32).ravel(), last.view(np.uint32).ravel()


def _fast_words(cells: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the fast path's five words of each cell of an (m, 6) block into ``out`` (m, 6, 5): NUL NUL "0.",
    the 15 digits after the point as four, four, four and three digits, then the comma, with trailing zero
    digits as NUL.  Return the mask of the cells it writes exactly.

    For x in [1e-4, 1), ``"%.12g" % x`` is "0." and the 15 digits of D 10^(3 - j), stripped of trailing
    zeros, where x in [10^-(j+1), 10^-j) and D = rint(y), y = x 10^(12 + j), holds its 12 significant digits.
    The doubles 0.1, 0.01 and 0.001 each lie above their power of ten, so comparing x with them finds j
    exactly.  The scale is an exact double and y < 2^40, so y is within 2^-14 of the exact product, and rint(y)
    is the correctly rounded D unless y's fraction lies within 1e-3 of 1/2.  Those cells, the ones whose D
    leaves [10^11, 10^12) (x rounds up a decade) and every cell outside [1e-4, 1) are left out of the mask.
    """
    k = (cells >= 0.001).astype(np.intp) + (cells >= 0.01) + (cells >= 0.1)  # 3 - j
    fast = (cells >= 1e-4) & (cells < 1.0)
    y = np.where(fast, cells, 0.5) * np.array([1e15, 1e14, 1e13, 1e12])[k]
    d = np.rint(y)
    fast &= (np.abs(y - np.floor(y) - 0.5) > 1e-3) & (d >= 1e11) & (d < 1e12)
    v = np.where(fast, d, 1e11).astype(np.int64) * np.array([1, 10, 100, 1000])[k]  # the 15 digits, < 10^15
    a = v // 10 ** 11
    v -= a * 10 ** 11
    b = v // 10 ** 7
    v = (v - b * 10 ** 7).astype(np.uint32)
    c = v // 1000
    e = v - c * 1000
    # the words of a, b and c drop their trailing zeros only when every later digit is zero
    words, last_words = _digit_words()
    zero = e == 0
    out[..., 0] = _HEAD
    out[..., 4] = last_words[e]
    out[..., 3] = words[c + 10 ** 4 * zero]
    zero &= c == 0
    out[..., 2] = words[b + 10 ** 4 * zero]
    zero &= b == 0
    out[..., 1] = words[a + 10 ** 4 * zero]
    return fast


def _csv_rows(cells: np.ndarray, orange: np.ndarray) -> str:
    """The CSV rows of an (m, 6) block of cells, m <= 2048, and their regions (True for "orange"), as one string.

    Each cell's text equals ``"%.12g" % x``: :func:`_fast_words` writes nearly every cell, and ``"%.12g"``
    itself the rest.
    """
    m = len(cells)
    buf = np.empty((m, _ROW_WORDS), np.uint32)
    fast = _fast_words(cells, buf[:, :30].reshape(m, 6, 5))
    buf[:, 30:] = _TAILS[orange.view(np.uint8)]
    buf = buf.view(np.uint8)
    if not fast.all():
        rows, cols = np.nonzero(~fast)
        view = memoryview(buf.reshape(-1))
        for start, x in zip((4 * _ROW_WORDS * rows + _SLOT * cols).tolist(), cells[rows, cols].tolist()):
            view[start:start + _SLOT] = (b"%.12g" % x).ljust(_SLOT - 1, b"\0") + b","
    return str(buf[buf != 0].data, "ascii")


def _block_rows(lam: np.ndarray) -> Iterator[str]:
    """The rows of one block of the stream, 2048 at a time; the block's columns are computed once."""
    f_tele, f_recon, _ = _scatter_columns(lam)
    orange = f_tele <= CLASSICAL_FIDELITY  # the region column's rule, as a flag
    for start in range(0, len(lam), _PIECE_ROWS):
        piece = slice(start, start + _PIECE_ROWS)
        yield _csv_rows(np.column_stack([lam[piece], f_tele[piece], f_recon[piece]]), orange[piece])


def scatter_csv_chunks(n: int, seed: int = 42) -> Iterator[str]:
    """The CSV in pieces: the header, then one piece per 2048 rows (the last may be shorter) of
    :func:`sample_wclass`'s stream.  n and the seed are checked at the call."""
    # a block's columns are freed before the next block's are computed
    pieces = itertools.chain.from_iterable(map(_block_rows, _direction_blocks(n, seed, 4)))
    return itertools.chain([",".join(CSV_HEADER) + "\n"], pieces)


def scatter_csv_text(n: int, seed: int = 42) -> str:
    """The full CSV as a string; byte-identical for identical (n, seed)."""
    return "".join(scatter_csv_chunks(n, seed))


def write_scatter_csv(path, n: int, seed: int = 42) -> None:
    """Write the CSV to ``path`` through :func:`qrecon.stateio.write_text`, a piece of 2048 rows at a time;
    n and the seed are checked first."""
    write_text(path, scatter_csv_chunks(n, seed))
