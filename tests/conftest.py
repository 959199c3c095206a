import numpy as np


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state (Ginibre ensemble)."""
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = g @ g.conj().T
    return m / m.trace()


def random_pure(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    return v / np.linalg.norm(v)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish SO(3) element via QR with sign fixing."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def random_orthogonal(rng: np.random.Generator) -> np.ndarray:
    """O(3) element, either determinant sign."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q @ np.diag(np.sign(np.diag(r)))


def literal_directions(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """The sampler's rule written out: normal rows, rows of norm below 1e-12 redrawn, then each divided by its norm."""
    v = rng.normal(size=(n, dim))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        v[bad] = rng.normal(size=(int(bad.sum()), dim))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]
