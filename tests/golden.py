"""The golden tables: every output the suite pins to the bit, one JSON file per pin in ``tests/golden/``.

Each table is the output of one producer function below, written by :func:`table_text`: floats as float.hex
strings, text as text, and a large buffer as its sha256 with its first and last row beside it
(:func:`digest`). A file also records the OpenBLAS kernel it was written on, since values that pass through
BLAS or LAPACK hold per kernel (ROADMAP item 9). ``test_golden.py`` checks each table against its producer,
byte for byte; a mismatch lists each differing value with its ulp distance.

Rewrite every table from the running code, then review and declare the diff::

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import re
import struct
from pathlib import Path

import numpy as np

from conftest import random_density, random_pure, random_rotation
from reference import _guess_fidelity_samples
from qrecon import fidelity
from qrecon.cli import main
from qrecon.presets import PRESETS, preset_density
from qrecon.protocol import (_sample_directions, classical_baseline, dishonest_guess_fidelity,
                             expected_fidelity_mc, sphere_average_identity_check)
from qrecon.states import decompose_state, pure_to_density
from qrecon.wclass import sample_wclass, scatter_csv_text

GOLDEN = Path(__file__).resolve().parent / "golden"
REWRITE = "PYTHONPATH=src python tests/golden.py"


def blas_kernel() -> str:
    """The configuration numpy's bundled OpenBLAS reports at run time, which names the kernel it chose for
    this CPU, or "unknown" where that library or its symbol is absent. (``np.show_config()`` gives the
    build host's kernel instead.)"""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for path in sorted(glob.glob(pattern)):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_char_p
        return get().decode()
    return "unknown"


def digest(buffer: bytes, first, last) -> dict:
    """A large buffer as a table holds it: its sha256, with its first and last row beside it."""
    return {"sha256": hashlib.sha256(buffer).hexdigest(), "first": first, "last": last}


def _stdout_payload(argv: list[str]):
    """The JSON ``qrecon argv`` prints, parsed. Its text must be that payload indented by 2, so the payload
    pins every byte of it."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    text = out.getvalue()
    payload = json.loads(text)
    assert (code, text) == (0, json.dumps(payload, indent=2) + "\n"), argv
    return payload


def _every_preset_and_setting(command: str, *flags: str) -> dict:
    return {f"{preset} {setting}": _stdout_payload([command, "--preset", preset, "--setting", str(setting), *flags])
            for preset in PRESETS for setting in fidelity.ALL_SETTINGS}


def analyze_stdout():
    """`qrecon analyze --preset P --setting S` for every preset and setting: the JSON it prints, whose
    text is that payload indented by 2."""
    return _every_preset_and_setting("analyze")


def oracle_stdout():
    """`qrecon oracle --preset P --setting S --samples 2000 --seed 7` for every preset and setting: the
    JSON it prints, whose text is that payload indented by 2."""
    return _every_preset_and_setting("oracle", "--samples", "2000", "--seed", "7")


def classical_stdout():
    """`qrecon classical --samples N --p P --strategy S --seed 42` for one row, one block plus one and three
    blocks of the direction stream: the JSON it prints, whose text is that payload indented by 2."""
    return {f"{n} {p} {strategy}": _stdout_payload(["classical", "--p", p, "--strategy", strategy,
                                                    "--samples", str(n), "--seed", "42"])
            for n in (1, 8193, 16389) for p in ("0", "0.25", "0.5", "1") for strategy in ("same", "negate")}


def closed_form_bounds():
    """closed_form_bounds(d, setting) for every setting of the presets and of 10 pure, then 10 mixed,
    random states drawn from default_rng(50)."""
    rng = np.random.default_rng(50)
    states = {name: preset_density(name) for name in sorted(PRESETS)}
    states |= {f"pure {i}": pure_to_density(random_pure(rng)) for i in range(10)}
    states |= {f"mixed {i}": random_density(rng) for i in range(10)}
    table = {}
    for name, rho in states.items():
        d = decompose_state(rho)
        for setting in fidelity.ALL_SETTINGS:
            bounds = fidelity.closed_form_bounds(d, setting)
            table[f"{name} {setting}"] = {"f_so3": bounds.f_so3, "f_trace_norm": bounds.f_trace_norm,
                                          "so3_gap": bounds.so3_gap}
    return table


def mc_values():
    """The Monte Carlo estimators on one block of the direction stream, on three blocks merged, and the
    sphere-average check on three blocks."""
    def bits(mc):
        return {"mean": mc.mean, "std_error": mc.std_error,
                "probability": [b.probability for b in mc.per_branch],
                "fidelity": [b.fidelity for b in mc.per_branch]}

    rho, n = preset_density("beta-mix"), 2 * 8192 + 5
    rng = np.random.default_rng(46)
    rotations = np.stack([random_rotation(rng) for _ in range(8)])
    single = expected_fidelity_mc(rho, n_samples=3000, seed=7)
    y = np.array([[2.0, 0.5, -0.25], [0.5, -1.0, 0.75], [-0.25, 0.75, 0.5]])
    check = sphere_average_identity_check(y, n_samples=2 * 8192 + 7, seed=11)
    return {
        "expected_fidelity_mc(beta-mix, 3000, seed=7)": {"mean": single.mean, "std_error": single.std_error},
        "classical_baseline(20000, seed=5)": classical_baseline(20_000, seed=5),
        "dishonest_guess_fidelity(0.25, negate, 20000, seed=5)": dishonest_guess_fidelity(0.25, "negate", 20_000,
                                                                                          seed=5),
        f"expected_fidelity_mc(beta-mix, {n}, seed=7)": bits(expected_fidelity_mc(rho, n_samples=n, seed=7)),
        f"expected_fidelity_mc(beta-mix, {n}, seed=7, rotations from default_rng(46))": bits(
            expected_fidelity_mc(rho, n_samples=n, seed=7, rotations=rotations)),
        f"sphere_average_identity_check(y, {2 * 8192 + 7}, seed=11)": {"lhs": check.lhs,
                                                                        "std_error": check.std_error},
    }


def guess_samples():
    """The per-sample guessing rule _guess_fidelity_samples(p, strategy, n, seed) over one, two, three and
    six blocks of directions: the sha256 of its samples' bytes, with its first and last sample."""
    table = {}
    for n in (1, 1000, 8192, 8193, 2 * 8192 + 5, 5 * 8192 + 17):
        for p, strategy, seed in ((0.25, "same", 42), (0.5, "negate", 3), (1.0, "same", 42), (0.0, "negate", 7)):
            samples = _guess_fidelity_samples(p, strategy, n, seed)
            table[f"{n} {p} {strategy} seed={seed}"] = digest(samples.tobytes(), *samples[[0, -1]].tolist())
    return table


def decomposition_reprs():
    """repr(decompose_state(preset_density(name))) per preset, line by line."""
    return {name: repr(decompose_state(preset_density(name))).split("\n") for name in sorted(PRESETS)}


def stream_digests():
    """The W scatter CSV and the sphere sampler's directions, fixed by seed: the sha256 of each, with its
    first and last row (of data, for the CSV)."""
    table = {}
    for n, seed in ((2000, 42), (1, 1), (5000, 7), (2 * 8192 + 1, 3)):
        text = scatter_csv_text(n, seed)
        lines = text.splitlines()
        table[f"scatter_csv_text({n}, seed={seed})"] = digest(text.encode(), lines[1], lines[-1])
    phis = _sample_directions(np.random.default_rng(42), 1000)
    table["_sample_directions(default_rng(42), 1000)"] = digest(phis.tobytes(), *phis[[0, -1]].tolist())
    lam = sample_wclass(2 * 8192 + 1, seed=8)
    table[f"sample_wclass({2 * 8192 + 1}, seed=8)"] = digest(lam.tobytes(), *lam[[0, -1]].tolist())
    return table


#: Every table by name, its file tests/golden/<name>.json, and the one function that produces it.
TABLES = {producer.__name__: producer for producer in (
    analyze_stdout, oracle_stdout, classical_stdout, closed_form_bounds, mc_values, guess_samples,
    decomposition_reprs, stream_digests)}


def _encoded(value):
    """``value`` as a table holds it: every float as its float.hex string, equal exactly when every bit is.
    Only Python's own scalar types pass, so a table also pins that no numpy scalar leaked into an output."""
    if type(value) is float:
        return value.hex()
    if type(value) in (str, int, bool) or value is None:
        return value
    if type(value) in (list, tuple):
        return [_encoded(v) for v in value]
    if type(value) is dict:
        return {key: _encoded(v) for key, v in value.items()}
    raise TypeError(f"a golden table holds no {type(value).__name__}: {value!r}")


def table_text(name: str, values, kernel: str) -> str:
    """The bytes of table ``name`` holding ``values``, written on ``kernel``."""
    about = " ".join(TABLES[name].__doc__.split())
    return json.dumps({"about": about, "kernel": kernel, "values": _encoded(values)}, indent=1) + "\n"


_FLOAT_HEX = re.compile(r"-?0x[01]\.[0-9a-f]+p[+-][0-9]+")


def _ordinal(text: str) -> int:
    """The place of a float.hex string's double in the order of all doubles: neighbours differ by 1."""
    (bits,) = struct.unpack("<q", struct.pack("<d", float.fromhex(text)))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _ulps(a, b):
    """How many doubles apart two float.hex strings are, or None if either is not one."""
    if all(isinstance(v, str) and _FLOAT_HEX.fullmatch(v) for v in (a, b)):
        return abs(_ordinal(a) - _ordinal(b))
    return None


def _differences(stored, running, where):
    """One line per value where a table's ``stored`` values and the ``running`` ones differ, named by path."""
    if isinstance(stored, dict) and isinstance(running, dict):
        for key in [*stored, *(key for key in running if key not in stored)]:
            path = f"{where}: {key}" if where else key
            if key not in running:
                yield f"{path}: extra in the table, not in the running output"
            elif key not in stored:
                yield f"{path}: missing from the table"
            else:
                yield from _differences(stored[key], running[key], path)
        return
    if isinstance(stored, list) and isinstance(running, list):
        for i, (s, r) in enumerate(zip(stored, running)):
            yield from _differences(s, r, f"{where}[{i}]")
        if len(stored) != len(running):
            yield f"{where}: {len(stored)} items in the table, {len(running)} in the running output"
        return
    if stored != running:
        ulps = _ulps(stored, running)
        distance = "" if ulps is None else f" ({ulps} ulp)"
        yield f"{where}: table {json.dumps(stored)}, running {json.dumps(running)}{distance}"


def check(name: str, directory: Path = GOLDEN) -> None:
    """Fail, naming every differing value, unless table ``name`` in ``directory`` is byte for byte what its
    producer gives now, written on the kernel the table records."""
    path = directory / f"{name}.json"
    stored = path.read_text()
    table = json.loads(stored)
    running = table_text(name, TABLES[name](), table["kernel"])
    if stored == running:
        return
    lines = list(_differences(table["values"], json.loads(running)["values"], ""))
    if not lines:
        lines = ["every value is equal; the file's other bytes differ"]
    raise AssertionError("\n".join([
        f"{path} does not hold what the running code gives:", *(f"  {line}" for line in lines),
        f"table written on: {table['kernel']}", f"running on:       {blas_kernel()}",
        f"If the change is intended, rewrite every table with `{REWRITE}` and declare the diff."]))


def write_tables(directory: Path = GOLDEN) -> None:
    """Rewrite every table in ``directory`` from the running code, recording the running kernel."""
    kernel = blas_kernel()
    for name, producer in TABLES.items():
        (directory / f"{name}.json").write_text(table_text(name, producer(), kernel))


if __name__ == "__main__":
    write_tables()
