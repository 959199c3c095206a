import json

import numpy as np
import pytest

from qrecon.presets import preset_density
from qrecon.states import NotPSDError, StateValidationError, decompose_state
from qrecon.stateio import (
    StateFormatError,
    bloch_to_json,
    density_to_json,
    load_state,
    parse_state,
    pure_to_json,
)


def w_amplitudes():
    psi = np.zeros(8, dtype=complex)
    psi[[1, 2, 4]] = 1 / np.sqrt(3)
    return psi


class TestParse:
    def test_pure_round_trip(self):
        rho = parse_state(pure_to_json(w_amplitudes()))
        np.testing.assert_allclose(rho, preset_density("w"), atol=1e-12)

    def test_dense_round_trip(self):
        original = preset_density("beta-mix")
        rho = parse_state(density_to_json(original))
        np.testing.assert_allclose(rho, original, atol=1e-12)

    def test_bloch_round_trip(self):
        original = preset_density("beta-mix")
        rho = parse_state(bloch_to_json(decompose_state(original)))
        np.testing.assert_allclose(rho, original, atol=1e-10)

    def test_complex_amplitudes_survive(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1 / np.sqrt(2)
        psi[7] = 1j / np.sqrt(2)
        rho = parse_state(pure_to_json(psi))
        np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)

    @pytest.mark.parametrize("obj", [
        {},
        {"pure": [[1, 0]] * 8, "dense": [[[0, 0]] * 8] * 8},
        {"foo": 1},
        {"pure": [[1, 0]] * 8, "note": "extra"},
        [1, 2, 3],
    ])
    def test_rejects_wrong_key_sets(self, obj):
        with pytest.raises(StateFormatError):
            parse_state(obj)

    def test_rejects_wrong_shapes(self):
        with pytest.raises(StateFormatError):
            parse_state({"pure": [[1, 0]] * 7})
        with pytest.raises(StateFormatError):
            parse_state({"dense": [[0.125] * 8] * 8})  # bare reals, not [re, im] pairs
        with pytest.raises(StateFormatError):
            parse_state({"bloch": {"a": [0, 0, 0]}})

    def test_bloch_must_encode_a_physical_state(self):
        block = bloch_to_json(decompose_state(np.eye(8) / 8))
        block["bloch"]["a"] = [0.0, 0.0, 1.0]
        block["bloch"]["R"] = [[0.0, 0, 0], [0, 0, 0], [0, 0, -1.0]]
        # <Z_A> = 1 with <Z_A Z_C> = -1 is impossible
        with pytest.raises(NotPSDError):
            parse_state(block)

    def test_parse_validates(self):
        bad = density_to_json(np.eye(8, dtype=complex) / 4)
        with pytest.raises(StateValidationError):
            parse_state(bad)


class TestFiles:
    def test_load_state(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(pure_to_json(w_amplitudes())))
        np.testing.assert_allclose(load_state(path), preset_density("w"), atol=1e-12)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_state(tmp_path / "absent.json")

    @pytest.mark.parametrize("kind", ["pure", "bloch"])
    def test_non_finite_entry(self, tmp_path, kind):
        obj = pure_to_json(w_amplitudes()) if kind == "pure" else bloch_to_json(decompose_state(preset_density("w")))
        if kind == "pure":
            obj["pure"][1][0] = float("nan")
        else:
            obj["bloch"]["a"][0] = float("nan")
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(obj))  # written as a bare NaN, which json.load accepts
        with pytest.raises(StateValidationError, match="non-finite"):
            load_state(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StateFormatError):
            load_state(path)
