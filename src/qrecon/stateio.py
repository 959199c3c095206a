"""JSON serialization of input states, and the one writer of command output.

A state file is a JSON object with exactly one of three keys:

* ``"pure"``: 8 amplitudes as [re, im] pairs;
* ``"dense"``: 8x8 matrix of [re, im] pairs;
* ``"bloch"``: the decomposition fields a, b, c (3-vectors),
  Q, R, S (3x3) and tau (3x3x3).

Loading always ends in full state validation, so a bloch block that
encodes a non-positive matrix is rejected.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .states import BlochDecomposition

# numpy and the state modules load inside the functions that convert arrays,
# so a file that fails to open or decode costs no numpy import


class StateFormatError(ValueError):
    """Structurally malformed state object."""


def _real_array(data, shape, what) -> np.ndarray:
    import numpy as np

    try:
        entries = np.array(data, dtype=object)
        arr = entries.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. an object, a word or 10**400
        raise StateFormatError(f"{what} must hold numbers only: {exc}") from exc
    # the cast reads a JSON null as NaN and true or "1" as 1.0
    bad = {t.__name__ for t in set(map(type, entries.flat)) if t is bool or not issubclass(t, (int, float, np.number))}
    if bad:
        raise StateFormatError(f"{what} must hold numbers only, got {', '.join(sorted(bad))}")
    if arr.shape != shape:
        raise StateFormatError(f"{what} must have shape {shape}, got {arr.shape}")
    return arr


def _complex_array(data, shape) -> np.ndarray:
    # a view of the C-ordered (..., 2) pairs, with no arithmetic: an infinite part sets no floating-point flag,
    # and a real part of -0.0 stays -0.0
    return _real_array(data, shape + (2,), "nested [re, im] pairs").view(complex)[..., 0]


def parse_state(obj: dict) -> np.ndarray:
    """Build a validated density matrix from a decoded state object."""
    if not isinstance(obj, dict):
        raise StateFormatError(f"state object must be a JSON object, got {type(obj).__name__}")
    keys = set(obj) & {"pure", "dense", "bloch"}
    if len(set(obj)) != 1 or len(keys) != 1:
        raise StateFormatError(f"state object must have exactly one of 'pure', 'dense', 'bloch'; got keys {sorted(obj)}")
    (kind,) = keys
    # by absolute name: a relative import resolves its package in Python on every call
    from qrecon.states import _SHAPES, BlochDecomposition, compose_state, pure_to_density, validate_state

    if kind == "pure":
        return validate_state(pure_to_density(_complex_array(obj["pure"], (8,))))
    if kind == "dense":
        return validate_state(_complex_array(obj["dense"], (8, 8)))
    block = obj["bloch"]
    if not isinstance(block, dict) or set(block) != set(_SHAPES):
        raise StateFormatError(f"bloch block must have exactly the fields {', '.join(_SHAPES)}")
    d = BlochDecomposition(**{name: _real_array(block[name], shape, f"bloch field {name!r}")
                              for name, shape in _SHAPES.items()})
    return validate_state(compose_state(d))


def load_state(path) -> np.ndarray:
    """Read and validate a state file.  I/O errors propagate as OSError;
    undecodable or malformed content raises ValueError subclasses."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise StateFormatError(f"not valid JSON: {exc}") from exc
    return parse_state(obj)


def _pairs(data, shape) -> list:
    import numpy as np

    arr = np.asarray(data, dtype=complex).reshape(shape)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def pure_to_json(amplitudes: np.ndarray) -> dict:
    return {"pure": _pairs(amplitudes, (8,))}


def density_to_json(rho: np.ndarray) -> dict:
    return {"dense": _pairs(rho, (8, 8))}


def bloch_to_json(d: BlochDecomposition) -> dict:
    from qrecon.states import _SHAPES  # by absolute name, as in parse_state

    return {"bloch": {name: getattr(d, name).tolist() for name in _SHAPES}}


def write_text(path, pieces) -> None:
    """Write the text ``pieces`` to ``path``.  An absent or regular ``path`` is written through a
    temporary file beside it, renamed into place at the end: after any failure no file is left and
    an existing ``path`` keeps its bytes.  Anything else (a symlink, a device, a FIFO) is
    written in place, as a plain open would."""
    path = os.fspath(path)
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)
        return
    for k in itertools.count():  # skip names a killed run left behind
        tmp = f"{path}.{os.getpid()}.{k}.tmp"
        try:
            fh = open(tmp, "x", newline="")  # a plain open: the mode follows the umask
            break
        except FileExistsError:
            continue
    try:
        with fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
