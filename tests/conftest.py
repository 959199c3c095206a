import math

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
    """A Haar-random SO(3) element: the rotation of a uniform unit quaternion, 4 normals over their norm
    (K. Shoemake, Graphics Gems III, 1992).  Plain float arithmetic, with no BLAS or LAPACK call, so every
    kernel gives the same bits."""
    w, x, y, z = rng.normal(size=4).tolist()
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def random_orthogonal(rng: np.random.Generator) -> np.ndarray:
    """O(3) element, either determinant sign."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q @ np.diag(np.sign(np.diag(r)))


def literal_directions(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Marsaglia's rule (Ann. Math. Stat. 43, 1972) written out, 8192 rows at a time.

    A row takes its pairs (u, v) from :func:`marsaglia_pairs`: one from [-1, 1)^2 for the sphere S^2 (dim 3),
    (2 u sqrt(1 - s), 2 v sqrt(1 - s), 1 - 2 s); two from [0, 1)^2 for the nonnegative octant of S^3 (dim 4),
    (u1, u2, u3 c, u4 c) with c = sqrt((1 - s1) / s2), the block's first pairs before its second.
    """
    rows = []
    for start in range(0, n, 8192):
        b = min(8192, n - start)
        if dim == 3:
            u, v, s = marsaglia_pairs(rng, b, True)
            rows.append(np.column_stack([2 * u * np.sqrt(1 - s), 2 * v * np.sqrt(1 - s), 1 - 2 * s]))
        else:
            (u1, u2, s1), (u3, u4, s2) = marsaglia_pairs(rng, b, False), marsaglia_pairs(rng, b, False)
            c = np.sqrt((1 - s1) / s2)
            rows.append(np.column_stack([u1, u2, u3 * c, u4 * c]))
    return np.concatenate(rows)


def marsaglia_pairs(rng: np.random.Generator, b: int, signed: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, s = u^2 + v^2) of the first b pairs with 0 < s < 1, in draw order: each draw is
    rng.random((2, k)) for k = 21 w // 16 + 16 with w pairs still wanted, taken as 2 r - 1 when ``signed``."""
    us, vs = [], []
    wanted = b
    while wanted:
        r = rng.random((2, wanted * 21 // 16 + 16))
        u, v = 2 * r - 1 if signed else r
        s = u * u + v * v
        keep = (0 < s) & (s < 1)
        us.append(u[keep][:wanted])
        vs.append(v[keep][:wanted])
        wanted -= len(us[-1])
    u, v = np.concatenate(us), np.concatenate(vs)
    return u, v, u * u + v * v


def count_calls(monkeypatch, names, owners):
    """Wrap each function in ``names`` on every object of ``owners`` that has it, for the test's duration;
    returns the dict name -> number of calls so far, through any of the wrapped references."""
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for owner in owners:
        for name in names:
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return counts
