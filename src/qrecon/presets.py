"""Named resource states used by the CLI, examples and tests.

All presets return validated 8x8 density matrices.  Basis order: qubit
A is the most significant bit, so |100> sits at index 4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# numpy and the state modules load when a preset is built, not with the
# names: the CLI lists the presets before it needs numpy


def _pure(*indices_amplitudes: tuple[int, float]) -> np.ndarray:
    """|psi><psi| of the ket with these (basis index, amplitude) pairs, normalized here."""
    import numpy as np

    psi = np.zeros(8, dtype=complex)
    for idx, amp in indices_amplitudes:
        psi[idx] = amp
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def ghz_density() -> np.ndarray:
    """(|000> + |111>)/sqrt2: maximal correlations, theta = 3."""
    return _pure((0, 1), (7, 1))


def w_density() -> np.ndarray:
    """(|001> + |010> + |100>)/sqrt3: theta = 7/3, fails secret sharing
    because the dealer-reconstructor channel alone is too strong."""
    return _pure((1, 1), (2, 1), (4, 1))


def wexample3_density() -> np.ndarray:
    """W-family member whose pair channel stays classical while the
    assisted protocol beats the bound: lambda = (0.7, 0.11, 0.09, 0.7),
    renormalized (the raw squares sum to 1.0002)."""
    from .states import pure_to_density
    from .wclass import WClassParams, wclass_state  # here, so the other presets skip the scatter's modules

    params = WClassParams.normalized(0.7, 0.11, 0.09, 0.7)
    return pure_to_density(wclass_state(params))


def gamma_mix_density() -> np.ndarray:
    """Equal mixture of (|000> +- |100> +- |110> + |111>)/2.

    The dealer-reconstructor pair matrix vanishes, so the pair alone
    teleports at 1/2, yet the assisted protocol reaches 3/4: the
    advantage is entirely activation by the assistant (case 2).
    """
    plus = _pure((0, 1), (4, 1), (6, 1), (7, 1))
    minus = _pure((0, 1), (4, -1), (6, -1), (7, 1))
    return 0.5 * plus + 0.5 * minus


def beta_mix_density() -> np.ndarray:
    """Equal mixture of (|000> + |011> + |100> +- |111>)/2.

    Both dealer-side channels have trace norm exactly 1/2 while
    theta = (1 + sqrt5)/2 > 1: neither partner can reconstruct alone
    but together they beat the classical bound, the secret-sharing
    regime beyond GHZ.
    """
    plus = _pure((0, 1), (3, 1), (4, 1), (7, 1))
    minus = _pure((0, 1), (3, 1), (4, 1), (7, -1))
    return 0.5 * plus + 0.5 * minus


def maximally_mixed_density() -> np.ndarray:
    """I/8: no correlations at all, theta = 0."""
    import numpy as np

    return np.eye(8, dtype=complex) / 8.0


PRESETS = {
    "ghz": ghz_density,
    "w": w_density,
    "wexample3": wexample3_density,
    "gamma-mix": gamma_mix_density,
    # the two named exemplars share their defining kets: one mixture, two names
    "delta-mix": gamma_mix_density,
    "beta-mix": beta_mix_density,
    "mixed": maximally_mixed_density,
}


def preset_density(name: str) -> np.ndarray:
    """Build and validate a preset by name; KeyError lists the options."""
    try:
        builder = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    from .states import validate_state

    return validate_state(builder())
