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
"""

from __future__ import annotations

import operator
import threading
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


def _row_norms(v: np.ndarray, out: np.ndarray, square: np.ndarray) -> None:
    # np.linalg.norm(v, axis=1) to the bit: it adds the squared columns left to right, (x0^2 + x1^2) + x2^2
    np.multiply(v[:, 0], v[:, 0], out=out)
    for k in range(1, v.shape[1]):
        out += np.multiply(v[:, k], v[:, k], out=square)
    np.sqrt(out, out=out)


def _checked_count(n) -> int:
    """n as an int if it is a sample count: an integer (``operator.index``, so numpy's pass) of at least 1."""
    try:
        if (k := operator.index(n)) >= 1:
            return k
    except TypeError:
        raise ValueError(f"n_samples must be an integer, got {n}") from None
    raise ValueError(f"n_samples must be >= 1, got {n}")


def _sample_directions(rng: np.random.Generator, n: int, dim: int = 3) -> np.ndarray:
    """Uniform points on the unit sphere in R^dim via normalized Gaussians: :func:`_blocks` over ``rng``,
    collected into one new (n, dim) array."""
    out, start = np.empty((_checked_count(n), dim)), 0
    for block in _blocks(rng, n, dim):
        out[start:start + len(block)] = block
        start += len(block)
    return out


def _direction_blocks(n: int, seed: int, dim: int = 3) -> Iterator[np.ndarray]:
    """The n directions of one ``default_rng(seed)`` draw, :data:`_BLOCK` rows at a time (:func:`_blocks`:
    block k is overwritten by block k + 2); n is checked and ``default_rng(seed)`` opened here, at the call."""
    n = _checked_count(n)
    return _blocks(np.random.default_rng(seed), n, dim)


def _blocks(rng: np.random.Generator, n: int, dim: int) -> Iterator[np.ndarray]:
    """:func:`_literal_blocks` over ``rng``: past one block, the process's draw helper makes each next block
    while the caller reads the current one (:func:`_helped`).  ``rng`` is advanced by one thread at a time,
    in the literal order, so the bytes are those of a single-threaded run."""
    blocks = _literal_blocks(rng, n, dim)
    return blocks if n <= _BLOCK else _helped(blocks, n)


def _literal_blocks(rng: np.random.Generator, n: int, dim: int) -> Iterator[np.ndarray]:
    """The direction stream's rule: n rows from ``rng``, :data:`_BLOCK` at a time.  Each block is drawn
    (``standard_normal(out=)`` plus 0.0, the bytes of ``rng.normal``), its rows of norm below 1e-12 are redrawn
    from ``rng`` until none is, and each row is divided by its ``np.linalg.norm``.  Past one block, the blocks
    alternate between two buffers: block k is overwritten by block k + 2, so copy a block to keep it."""
    m = min(n, _BLOCK)
    buffers, work = np.empty((2 if n > _BLOCK else 1, m, dim)), np.empty((2, m))
    for k, start in enumerate(range(0, n, _BLOCK)):
        b = min(n - start, _BLOCK)
        block, norms, square = buffers[k % 2, :b], work[0, :b], work[1, :b]
        np.add(rng.standard_normal(out=block), 0.0, out=block)  # normal() returns 0 + 1 z: a -0.0 becomes +0.0
        _row_norms(block, norms, square)
        while norms.min() < 1e-12:
            bad = norms < 1e-12
            block[bad] = rng.normal(size=(int(bad.sum()), dim))
            _row_norms(block, norms, square)
        for i in range(dim):
            block[:, i] /= norms
        yield block


def _helped(blocks: Iterator[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """``blocks``, a stream of n > :data:`_BLOCK` rows, with every block after block 0 made by the draw helper.

    The caller makes block 0.  Before it yields block k, it hands the helper (:func:`_draw_jobs`) the step to
    block k + 1, ``next(blocks)``, and it collects that step when the next block is asked for.  A stream has
    at most one pending step and collects it exactly once on every exit: one that is closed, abandoned or
    ended by an exception leaves no queued work.
    """
    from queue import SimpleQueue

    block, done, pending = next(blocks), SimpleQueue(), False
    jobs = _draw_jobs()
    try:
        for _ in range(_BLOCK, n, _BLOCK):  # one step for each block after block 0
            jobs.put((blocks, done))
            pending = True
            yield block
            block = done.get()
            pending = False
            if isinstance(block, BaseException):
                raise block
        yield block
    finally:
        if pending:  # the stream ends before its next block: wait, so no step outlives it
            done.get()


#: The draw helper: (thread, job queue) once a stream of two or more blocks has started it in this process.
_helper: Optional[tuple] = None
_helper_lock = threading.Lock()


def _draw_jobs():
    """The helper's job queue, starting the helper if this process has none running (a forked child inherits
    a dead one).  A job ``(blocks, done)`` runs ``next(blocks)`` and puts the block it returns, or the
    exception it raised, on ``done``."""
    global _helper
    with _helper_lock:
        if _helper is None or not _helper[0].is_alive():
            from queue import SimpleQueue

            jobs = SimpleQueue()
            thread = threading.Thread(target=_serve_draws, args=(jobs,), name="qrecon-draws", daemon=True)
            thread.start()
            _helper = thread, jobs
        return _helper[1]


def _serve_draws(jobs) -> None:
    while True:
        blocks, done = jobs.get()
        try:
            done.put(next(blocks))
        except BaseException as error:  # re-raised by the stream waiting on done
            done.put(error)
        del blocks, done  # the idle helper keeps no reference to the last job's stream


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


def _sphere_mean(ys: np.ndarray, n_samples: int, seed: int) -> tuple[float | list, float | list, np.ndarray]:
    """Monte Carlo sphere averages of f^T y f, f = (1, phi), for ``ys`` one (4, 4) form y or a (k, 4, 4)
    stack, all on one pass of the direction stream: (mean, std_error, moments = sum f f^T), where
    mean and std_error are a float for one form and a list of k floats for a stack.  Each form's block
    two-pass mean and squared deviations merge into its running (count, mean, M2) (Chan et al.): one
    block gives the two-pass values, and a form's result does not depend on the forms beside it.

    One workspace, allocated per call, serves every block: the rows f (column 0 stays 1), phi's
    coordinates as contiguous rows for the quadratic form, and one row of values per form and scratch.
    """
    blocks = _direction_blocks(n_samples, seed)
    shape, ys = ys.shape[:-2], ys.reshape(-1, 4, 4)
    m = min(n_samples, _BLOCK)
    f, coords, values, work = np.ones((m, 4)), np.empty((3, m)), np.empty((len(ys), m)), np.empty((2, m))
    count, mean, m2 = 0, np.zeros(len(ys)), np.zeros(len(ys))
    moments = np.zeros((4, 4))
    for phis in blocks:
        b = len(phis)
        fb, p, totals = f[:b], coords[:, :b], values[:, :b]
        np.copyto(p, phis.T)
        for k in range(3):
            np.copyto(fb[:, 1 + k], p[k])
        for y, row in zip(ys, totals):
            _quadratic_form(y, p, row, work[:, :b])
        block_mean = totals.sum(axis=1) / b  # the bits of totals.mean(axis=1), without its overhead
        totals -= block_mean[:, None]
        totals *= totals
        count += b
        delta = block_mean - mean
        mean += delta * (b / count)
        m2 += totals.sum(axis=1) + delta * delta * ((count - b) * b / count)
        moments += fb.T @ fb
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
    the input, ``n_samples`` and ``seed`` alone."""

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
    n_samples = _checked_count(n_samples)  # before branch_maps: a bad count costs no state work
    p_map, q_map = branch_maps(rho, setting, rotations)
    mean, std_error, moments = _sphere_mean(q_map.sum(axis=1), n_samples, seed)
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
    lhs, se, _ = _sphere_mean(np.pad(y, ((1, 0), (1, 0))), n_samples, seed)
    return SphereAverageCheck(lhs=lhs, rhs=float(np.trace(y) / 3.0), std_error=se,
                              n_samples=n_samples, seed=seed)


def classical_baseline(n_samples: int = 1_000_000, seed: int = 42) -> float:
    """Monte Carlo mean fidelity of the best classical strategy
    (measure along z, resend the outcome state: fidelity (1 + z^2) / 2);
    averages to 2/3 over uniform inputs.  It is the guess of a share whose helper bit is always 0."""
    return _sphere_mean(_guess_form(1.0, "same"), n_samples, seed)[0]


def _check_guess(p: float, strategy: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if strategy not in ("same", "negate"):
        raise ValueError(f"strategy must be 'same' or 'negate', got {strategy!r}")


def _guess_fidelity_samples(p: float, strategy: str, n_samples: int, seed: int) -> np.ndarray:
    """Per-sample fidelity of a reconstructor guessing the dealer's bit.

    The dealer's share s1 = s XOR s2 hides the measured bit s behind a
    helper bit with P(s2 = 0) = p.  Strategy "same" guesses s1 itself,
    "negate" guesses its complement; means are (1 + p)/3 and (2 - p)/3.
    """
    _check_guess(p, strategy)
    rng = np.random.default_rng(seed)
    phis = _sample_directions(rng, n_samples)
    p_up = (1.0 + phis[:, 2]) / 2.0
    s = rng.random(n_samples) >= p_up        # True: measured the -z outcome
    s2 = rng.random(n_samples) >= p          # True with probability 1 - p
    s1 = s ^ s2
    guess = s1 if strategy == "same" else ~s1
    # resending |guess> scores cos^2 or sin^2 of the half-angle
    return np.where(guess, 1.0 - p_up, p_up)


def _guess_form(p: float, strategy: str) -> np.ndarray:
    """The guess from the share alone as the form diag(1/2, 0, 0, c) in f = (1, phi): with the hidden bits
    of :func:`_guess_fidelity_samples` averaged out, "same" scores 1/2 - (1 - 2p) z^2 / 2."""
    _check_guess(p, strategy)
    c = (2.0 * p - 1.0) / 2.0 if strategy == "same" else (1.0 - 2.0 * p) / 2.0  # "negate": 1 - the "same" score
    return np.diag([0.5, 0.0, 0.0, c])


def dishonest_guess_fidelity(p: float, strategy: str, n_samples: int = 1_000_000, seed: int = 42) -> float:
    """Mean fidelity when the reconstructor guesses from its share alone (:func:`_guess_form`)."""
    return _sphere_mean(_guess_form(p, strategy), n_samples, seed)[0]


def classical_fidelities(p: float, strategy: str, n_samples: int = 1_000_000,
                         seed: int = 42) -> tuple[float, float]:
    """(:func:`classical_baseline`, :func:`dishonest_guess_fidelity`) to the bit, from one pass of
    the direction stream; p and strategy are checked before any draw."""
    return tuple(_sphere_mean(np.stack([_guess_form(1.0, "same"), _guess_form(p, strategy)]), n_samples, seed)[0])
