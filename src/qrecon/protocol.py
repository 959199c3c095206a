"""The fast protocol simulator and its Monte Carlo oracle; the closed forms live in :mod:`qrecon.fidelity`.

The protocol: a source qubit S carrying ``rho_S = (I + phi . sigma)/2``
is measured jointly with the dealer qubit in the Bell basis (outcome
``l``), the assistant qubit is measured in the x basis (outcome ``x``),
and the reconstructor applies a correction rotation chosen per branch.
Reconstruction quality for one branch is the overlap of the corrected
conditional state with ``rho_S``; the figure of merit is the average of
the branch-weighted fidelity over a uniformly random input direction
``phi``.

Wire order in the simulation is (S, dealer, assistant, reconstructor);
:func:`permute_to_canonical` maps any role assignment onto that layout
first.  Corrections are SO(3) matrices Omega, an (8, 3, 3) stack in
:data:`BRANCHES` order.  :func:`branch_maps` is the one simulator: every
branch is affine in ``rho_S``, so it runs the Pauli units {1, sigma}/2
through the Bell / x-basis kernels and the partial trace once per state
and rotates the reconstructor's Bloch vector, n -> Omega^T n, with no
unitary.  Its test oracle, the literal 16-dimensional simulation of one
``phi`` with each Omega's SU(2) unitary, is ``tests/reference.py`` and is
not part of the package.

Every Monte Carlo direction comes from one opener, :func:`_direction_blocks`: it checks the sample count
and the seed and makes the package's one ``default_rng`` call, so a result is a function of (input, n, seed).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .fidelity import BELL_DIAGONALS, BRANCHES, CANONICAL_SETTING, Setting, _rotations, _so3
from .fidelity import closed_form_bounds, optimal_rotations  # read from here too; the simulator uses neither
from .paulis import identity2, pauli_x, paulis, product_basis, sigma
from .states import pauli_traces, validate_state

ZERO_PROBABILITY = 1e-15
_BLOCK = 8192  # rows per block of every Monte Carlo direction stream


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


def _branch_kernel() -> np.ndarray:
    # Tr_S[(bell_l (x) had_x)(E_mu (x) 1)] on the (dealer, assistant) pair: k[b, mu, Q, q], E = {1, sigma}/2
    bell = np.stack(bell_projectors)[[l for l, _ in BRANCHES]].reshape(8, 2, 2, 2, 2)  # rows and columns (S, dealer)
    had = np.stack([hadamard_projectors[x] for _, x in BRANCHES])
    return np.einsum("zmgh,zab->zmgahb", np.einsum("ztgsh,mst->zmgh", bell, _PAULIS4 / 2.0), had).reshape(32, 16)


#: :func:`branch_maps`' state-independent tables, read-only: 1, sigma_x, sigma_y, sigma_z, k as a (32, 16) matrix,
#: and the 18 Pauli products sigma_i (x) {1, sigma_x} (x) sigma_k whose traces give P and T on the canonical layout.
_PAULIS4 = np.stack(sigma)
_KERNEL = _branch_kernel()
_PAIR_BASIS = np.ascontiguousarray(product_basis[1:, :2, 1:])
_PAULIS4.flags.writeable = _KERNEL.flags.writeable = _PAIR_BASIS.flags.writeable = False


def permute_to_canonical(rho: np.ndarray, setting: Setting) -> np.ndarray:
    """Reorder qubit wires so (dealer, assistant, reconstructor) sit on
    the canonical (A, B, C) slots: ``Setting.order`` on the row wires and
    on the column wires, the axis map :func:`qrecon.fidelity.role_tensor`
    applies to the coefficient tensor."""
    axes = setting.order + tuple(k + 3 for k in setting.order)
    return np.asarray(rho).reshape((2,) * 6).transpose(axes).reshape(8, 8)


def _checked_integer(value, name: str, least: int) -> int:
    """``value`` as an int if it is an integer (``operator.index``, so numpy's pass, but not a bool) of at least
    ``least``; else a ValueError naming it."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        if (k := operator.index(value)) >= least:
            return k
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    raise ValueError(f"{name} must be >= {least}, got {value}")


def _direction_blocks(n: int, seed: int, dim: int = 3) -> Iterator[np.ndarray]:
    """The package's one way to open a direction stream: the n directions of ``default_rng(seed)``,
    :data:`_BLOCK` rows at a time (:func:`_literal_blocks`: block k is overwritten by block k + 1).  n >= 1 and
    the seed >= 0 are checked here, at the call, before any draw."""
    n, seed = _checked_integer(n, "n_samples", 1), _checked_integer(seed, "seed", 0)
    return _literal_blocks(np.random.default_rng(seed), n, dim)


def _draw_count(b: int) -> int:
    """Pairs drawn for b wanted: about 4 b / pi are needed, so a full block almost never needs a top-up."""
    return b * 21 // 16 + 16


def _accepted_pairs(rng: np.random.Generator, out: tuple, signed: bool, work: tuple) -> None:
    """The first len(s) pairs with 0 < s < 1, in draw order, written into the rows ``out`` = (u, v, s = u^2 + v^2).

    Each draw is ``rng.random((2, k))``, rows (u, v), mapped to 2 r - 1 when ``signed`` (the square
    [-1, 1)^2, else [0, 1)^2), with k = :func:`_draw_count` of the pairs still wanted; ``work`` is the
    scratch (draw, square, keep) for the largest draw.
    """
    draw, square, keep = work
    b, filled = len(out[2]), 0
    while filled < b:
        k = _draw_count(b - filled)
        ru, rv = r = rng.random(out=draw[:2 * k].reshape(2, k))
        if signed:
            r *= 2.0
            r -= 1.0
        ss = np.multiply(ru, ru, out=square[0, :k])
        ss += np.multiply(rv, rv, out=square[1, :k])
        ok = np.less(ss, 1.0, out=keep[0, :k])
        ok &= np.greater(ss, 0.0, out=keep[1, :k])
        taken = np.flatnonzero(ok)[:b - filled]
        end = filled + len(taken)
        for row, dest in zip((ru, rv, ss), out):
            np.take(row, taken, out=dest[filled:end])
        filled = end


def _literal_blocks(rng: np.random.Generator, n: int, dim: int) -> Iterator[np.ndarray]:
    """The direction stream's rule, Marsaglia's (Ann. Math. Stat. 43, 1972): n rows from ``rng``, :data:`_BLOCK`
    at a time, each block from the pairs :func:`_accepted_pairs` accepts.

    dim 3, S^2: b pairs (u, v) from [-1, 1)^2 give the rows (2 u sqrt(1 - s), 2 v sqrt(1 - s), 1 - 2 s).
    dim 4, the nonnegative octant of S^3: b pairs (u1, u2) with s1, then b pairs (u3, u4) with s2, all from
    [0, 1)^2, give the rows (u1, u2, u3 c, u4 c), c = sqrt((1 - s1) / s2).
    Every block is a (b, dim) view of one buffer: block k is overwritten by block k + 1, so copy a block to keep it.
    """
    m = min(n, _BLOCK)
    k = _draw_count(m)
    buffer, scratch = np.empty((dim, m)), np.empty((2, m))
    work = np.empty(2 * k), np.empty((2, k)), np.empty((2, k), dtype=bool)
    for start in range(0, n, _BLOCK):
        b = min(n - start, _BLOCK)
        rows, (w, s2) = buffer[:, :b], scratch[:, :b]
        if dim == 3:
            x, y, z = rows
            _accepted_pairs(rng, rows, True, work)
            np.subtract(1.0, z, out=w)
            np.sqrt(w, out=w)
            w *= 2.0
            x *= w
            y *= w
            z *= -2.0
            z += 1.0
        else:
            _accepted_pairs(rng, (rows[0], rows[1], w), False, work)
            _accepted_pairs(rng, (rows[2], rows[3], s2), False, work)
            np.subtract(1.0, w, out=w)
            w /= s2
            np.sqrt(w, out=w)
            rows[2:] *= w
        yield rows.T


def branch_maps(rho: np.ndarray, setting: Setting = CANONICAL_SETTING,
                rotations: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """The simulated protocol on the Pauli units E = {1, sigma}/2 of rho_S.

    The state is validated and permuted to the canonical layout;
    ``rotations`` (an (8, 3, 3) SO(3) stack) defaults to the per-branch
    optimum.  For rho_S = sum_mu f_mu E_mu, f = (1, phi), branch b has
    probability ``f . p_map[:, b]`` and weighted fidelity
    ``f . q_map[:, b, :] . f``.  A correction acts on the Pauli components
    (Tr N, Tr[N sigma]) of the reconstructor's state N as
    U N U^dag <-> (Tr N, Omega^T Tr[N sigma]) for the SU(2) element U of Omega.
    """
    rho = permute_to_canonical(validate_state(rho), setting)
    # the default reads P = Tr[(sigma_i 1 sigma_k) rho] and T = Tr[(sigma_i sigma_x sigma_k) rho] alone
    omegas = _rotations(*pauli_traces(rho, _PAIR_BASIS).real.swapaxes(0, 1)) if rotations is None else _so3(rotations)
    # N[b, mu] = Tr_pair[k[b, mu] rho]: rho's rows (q, c) and columns (Q, d) regrouped as (Q, q) x (c, d)
    n = (_KERNEL @ rho.reshape(4, 2, 4, 2).transpose(2, 0, 1, 3).reshape(16, 4)).reshape(8, 4, 2, 2)
    comps = np.einsum("zmcd,ndc->zmn", n, _PAULIS4).real  # Tr[N sigma_nu]
    comps[..., 1:] = comps[..., 1:] @ omegas  # (Omega^T v)_i = sum_j v_j Omega_ji
    # p = Tr N; Tr[(U N U^dag) E_nu] = comps_nu / 2
    return comps[..., 0].T, comps.transpose(1, 0, 2) / 2.0


def _quadratic_form(y: np.ndarray, p: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """f^T y f, f = (1, phi), for the directions whose x, y and z coordinates are the rows of ``p``,
    written into ``out`` and returned; ``work`` is (2, len(out)) scratch.

    For phi = (p_0, p_1, p_2) and a_nu = ((y[0, nu] + p_0 y[1, nu]) + p_1 y[2, nu]) + p_2 y[3, nu] the form is
    ((a_0 + p_0 a_1) + p_1 a_2) + p_2 a_3, every step elementwise: a row's value does not depend on the rows
    beside it.
    """
    a, term = work
    y0, y1, y2, y3 = y.tolist()
    for nu in range(4):
        acc = out if nu == 0 else a
        np.multiply(p[0], y1[nu], out=acc)
        acc += y0[nu]
        acc += np.multiply(p[1], y2[nu], out=term)
        acc += np.multiply(p[2], y3[nu], out=term)
        if nu:
            acc *= p[nu - 1]
            out += acc
    return out


def _quadratic(y: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """f^T y f for each row phi of ``phis``, f = (1, phi), as one new (n,) array."""
    return _quadratic_form(y, np.ascontiguousarray(phis.T), np.empty(len(phis)), np.empty((2, len(phis))))


def _sphere_mean(ys: np.ndarray, blocks: Iterator[np.ndarray]) -> tuple[float | list, float | list, np.ndarray]:
    """Monte Carlo sphere averages of f^T y f, f = (1, phi), for ``ys`` one (4, 4) form y or a (k, 4, 4)
    stack, all on one pass of ``blocks``, the stream its caller opened with :func:`_direction_blocks`:
    (mean, std_error, moments = sum f f^T), where mean and std_error are a float for one form and a list of
    k floats for a stack.  Each form's block two-pass mean and squared deviations merge into its running
    (count, mean, M2) (Chan et al.): one block gives the two-pass values, and a form's result does not
    depend on the forms beside it.

    One workspace, sized by the first block (the longest), serves every block: one row of values per form
    and scratch.  The quadratic form and the moments read phi's coordinates as the stream's (3, b) rows;
    each block adds their sums and their products (``np.einsum`` without ``optimize``: numpy's own loops,
    so no BLAS kernel chosen at load time sets the summation order).
    """
    shape, ys = ys.shape[:-2], ys.reshape(-1, 4, 4)
    count, mean, m2 = 0, np.zeros(len(ys)), np.zeros(len(ys))
    moments = np.zeros((4, 4))
    for phis in blocks:
        b, p = len(phis), phis.T
        if not count:
            values, work = np.empty((len(ys), b)), np.empty((2, b))
        totals = values[:, :b]
        for y, row in zip(ys, totals):
            _quadratic_form(y, p, row, work[:, :b])
        block_mean = totals.sum(axis=1) / b  # the bits of totals.mean(axis=1), without its overhead
        totals -= block_mean[:, None]
        totals *= totals
        count += b
        delta = block_mean - mean
        mean += delta * (b / count)
        m2 += totals.sum(axis=1) + delta * delta * ((count - b) * b / count)
        moments[0, 1:] += p.sum(axis=1)
        moments[1:, 1:] += np.einsum("ib,jb->ij", p, p)
    moments[0, 0], moments[1:, 0] = count, moments[0, 1:]
    std_error = np.sqrt(m2 / (count - 1)) / np.sqrt(count) if count > 1 else np.zeros(len(ys))
    return mean.reshape(shape).tolist(), std_error.reshape(shape).tolist(), moments


@dataclass(frozen=True)
class BranchStats:
    l: int
    x: int
    probability: float
    fidelity: float


@dataclass(frozen=True)
class MCResult:
    """Monte Carlo estimate of the sphere-averaged fidelity, a function of
    the input, ``n_samples`` and ``seed`` alone; both are checked at the call
    (an integer >= 1 and an integer >= 0) and recorded as ints."""

    mean: float
    std_error: float
    n_samples: int
    seed: int
    per_branch: tuple[BranchStats, ...]

    def to_dict(self) -> dict:
        # what dataclasses.asdict gives, without its recursive deep copy
        return {"mean": self.mean, "std_error": self.std_error, "n_samples": self.n_samples, "seed": self.seed,
                "per_branch": tuple({"l": b.l, "x": b.x, "probability": b.probability, "fidelity": b.fidelity}
                                    for b in self.per_branch)}


def expected_fidelity_mc(rho: np.ndarray, setting: Setting = CANONICAL_SETTING,
                         n_samples: int = 10_000, seed: int = 42,
                         rotations: Optional[np.ndarray] = None) -> MCResult:
    """Average protocol fidelity over uniformly random input directions.

    The state, setting and ``rotations`` (default: the per-branch
    optimum; pass any other (8, 3, 3) stack to probe sub-optimal
    corrections) go to :func:`branch_maps`; directions are drawn and
    simulated in blocks, each sample's fidelity f^T Y f with Y = q_map
    summed over the branches.
    Per-branch statistics report the mean branch probability and the
    conditional fidelity E[p f] / E[p], from the sample moments sum f f^T.
    """
    blocks = _direction_blocks(n_samples, seed)  # before branch_maps: a bad count or seed costs no state work
    n_samples, seed = operator.index(n_samples), operator.index(seed)  # recorded as the ints the opener checked
    p_map, q_map = branch_maps(rho, setting, rotations)
    mean, std_error, moments = _sphere_mean(q_map.sum(axis=1), blocks)
    p_sums = (moments[0] @ p_map).tolist()
    w_sums = np.einsum("mbn,mn->b", q_map, moments).tolist()
    per_branch = tuple(
        BranchStats(l=l, x=x, probability=p / n_samples, fidelity=w / p if p > ZERO_PROBABILITY else 0.0)
        for (l, x), p, w in zip(BRANCHES, p_sums, w_sums)
    )
    return MCResult(mean=mean, std_error=std_error, n_samples=n_samples, seed=seed, per_branch=per_branch)


def expected_fidelity_exact(rho: np.ndarray, setting: Setting = CANONICAL_SETTING,
                            rotations: Optional[np.ndarray] = None) -> float:
    """Exact sphere average of the simulated fidelity.

    Every branch map is affine in rho_S, so the averaged fidelity is the
    form f^T y f, f = (1, phi), y = ``q_map`` summed over the branches.
    E[phi_i phi_j] = delta_ij / 3 reads the sphere average off y's
    diagonal, y_00 + (y_11 + y_22 + y_33) / 3: the six-axis mean, whose
    +-e_i cross terms cancel in pairs.  Deterministic; used to
    cross-check both the Monte Carlo and the closed forms.
    """
    y = branch_maps(rho, setting, rotations)[1].sum(axis=1).diagonal().tolist()
    return y[0] + (y[1] + y[2] + y[3]) / 3.0


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
    if y.shape != (3, 3) or not np.isfinite(y).all() or np.abs(y - y.T).max() > 1e-12:
        raise ValueError("y must be a finite symmetric 3x3 matrix")
    lhs, se, _ = _sphere_mean(np.pad(y, ((1, 0), (1, 0))), _direction_blocks(n_samples, seed))
    return SphereAverageCheck(lhs=lhs, rhs=float(np.trace(y) / 3.0), std_error=se,
                              n_samples=operator.index(n_samples), seed=operator.index(seed))


def classical_baseline(n_samples: int = 1_000_000, seed: int = 42) -> float:
    """Monte Carlo mean fidelity of the best classical strategy
    (measure along z, resend the outcome state: fidelity (1 + z^2) / 2);
    averages to 2/3 over uniform inputs.  It is the guess of a share whose helper bit is always 0."""
    return _sphere_mean(_guess_form(1.0, "same"), _direction_blocks(n_samples, seed))[0]


def _check_guess(p: float, strategy: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if strategy not in ("same", "negate"):
        raise ValueError(f"strategy must be 'same' or 'negate', got {strategy!r}")


def _guess_form(p: float, strategy: str) -> np.ndarray:
    """The guess from the share alone as the form diag(1/2, 0, 0, c) in f = (1, phi): with the hidden bits
    of the per-sample rule (``_guess_fidelity_samples`` in ``tests/reference.py``) averaged out, "same" scores
    1/2 - (1 - 2p) z^2 / 2."""
    _check_guess(p, strategy)
    c = (2.0 * p - 1.0) / 2.0 if strategy == "same" else (1.0 - 2.0 * p) / 2.0  # "negate": 1 - the "same" score
    return np.diag([0.5, 0.0, 0.0, c])


def dishonest_guess_fidelity(p: float, strategy: str, n_samples: int = 1_000_000, seed: int = 42) -> float:
    """Mean fidelity when the reconstructor guesses from its share alone (:func:`_guess_form`)."""
    return _sphere_mean(_guess_form(p, strategy), _direction_blocks(n_samples, seed))[0]


def classical_fidelities(p: float, strategy: str, n_samples: int = 1_000_000,
                         seed: int = 42) -> tuple[float, float]:
    """(:func:`classical_baseline`, :func:`dishonest_guess_fidelity`) to the bit, from one pass of
    the direction stream; p and strategy are checked before any draw."""
    forms = np.stack([_guess_form(1.0, "same"), _guess_form(p, strategy)])
    return tuple(_sphere_mean(forms, _direction_blocks(n_samples, seed))[0])
