import hashlib
import re

import numpy as np
import pytest

from qrecon.fidelity import CANONICAL_SETTING, full_report, pair_correlation_for_setting, t_matrix_for_setting
from qrecon.presets import preset_density
from qrecon.protocol import _sample_directions
from qrecon.states import decompose_state, pure_to_density
from qrecon.wclass import (
    CSV_HEADER,
    InvalidParamsError,
    WClassParams,
    record_for,
    region_for,
    sample_wclass,
    scatter_csv_text,
    scatter_experiment,
    wclass_rt_closed_form,
    wclass_state,
    write_scatter_csv,
)


class TestParams:
    def test_valid_tuple(self):
        p = WClassParams(1.0, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(p.as_array(), [1, 0, 0, 0])

    def test_rejects_negative(self):
        with pytest.raises(InvalidParamsError):
            WClassParams(0.9, -0.1, 0.3, 0.3)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidParamsError):
            WClassParams(0.9, 0.1, 0.1, 0.1)

    def test_normalized_constructor(self):
        p = WClassParams.normalized(0.7, 0.11, 0.09, 0.7)
        assert np.sum(p.as_array() ** 2) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(InvalidParamsError):
            WClassParams.normalized(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN amplitude used to build and then fail inside record_for's SVD
        with pytest.raises(InvalidParamsError):
            WClassParams(bad, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidParamsError):
            WClassParams.normalized(bad, 1.0, 0.0, 0.0)


class TestState:
    def test_amplitude_slots(self):
        p = WClassParams.normalized(1, 2, 3, 4)
        psi = wclass_state(p)
        np.testing.assert_allclose(psi[[0, 4, 5, 6]], p.as_array(), atol=1e-15)
        assert np.abs(psi[[1, 2, 3, 7]]).max() == 0

    def test_degenerate_member_is_product(self):
        psi = wclass_state(WClassParams(1.0, 0.0, 0.0, 0.0))
        rho = pure_to_density(psi)
        d = decompose_state(rho)
        np.testing.assert_allclose(d.R, np.diag([0.0, 0, 1]), atol=1e-12)
        np.testing.assert_allclose(t_matrix_for_setting(d, CANONICAL_SETTING), 0, atol=1e-12)


class TestClosedForm:
    def test_matches_decomposition(self):
        lams = sample_wclass(10_000, seed=51)
        for row in lams[:: len(lams) // 500]:
            params = WClassParams(*row)
            r_closed, t_closed = wclass_rt_closed_form(params)
            d = decompose_state(pure_to_density(wclass_state(params)))
            np.testing.assert_allclose(r_closed, pair_correlation_for_setting(d, CANONICAL_SETTING), atol=1e-12)
            np.testing.assert_allclose(t_closed, t_matrix_for_setting(d, CANONICAL_SETTING), atol=1e-12)

    def test_matches_decomposition_bulk(self):
        # the full 1e4-tuple sweep, against the general decomposition
        lams = sample_wclass(10_000, seed=52)
        for row in lams:
            params = WClassParams(*row)
            r_closed, t_closed = wclass_rt_closed_form(params)
            d = decompose_state(pure_to_density(wclass_state(params)))
            assert np.abs(r_closed - d.R).max() < 1e-12
            assert np.abs(t_closed - t_matrix_for_setting(d, CANONICAL_SETTING)).max() < 1e-12

    def test_standard_w_mapped_into_family(self):
        # flipping A maps the standard W state into this family
        mapped = WClassParams.normalized(1.0, 0.0, 1.0, 1.0)
        rec = record_for(mapped)
        w_report = full_report(preset_density("w"))
        assert rec.f_tele == pytest.approx(w_report.f_tele_dealer_reconstructor, abs=1e-12)
        assert rec.f_recon == pytest.approx(w_report.f_max, abs=1e-12)
        assert rec.f_tele == pytest.approx(7 / 9, abs=1e-12)
        assert rec.region == "blue"


class TestSampling:
    def test_shape_normalization_sign(self):
        lams = sample_wclass(500, seed=53)
        assert lams.shape == (500, 4)
        np.testing.assert_allclose(np.sum(lams ** 2, axis=1), 1.0, atol=1e-12)
        assert lams.min() >= 0

    def test_deterministic(self):
        np.testing.assert_array_equal(sample_wclass(100, seed=54), sample_wclass(100, seed=54))

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_wclass(0)

    def test_streams_are_frozen(self):
        # digests of the W scatter CSV and of the sphere sampler's directions, fixed by seed
        csv_digest = hashlib.sha256(scatter_csv_text(2000, 42).encode()).hexdigest()
        assert csv_digest == "83f39996878223e87f72def68bc03ae11cde67948ed2c461ae37a4ed03e6acde"
        phis = _sample_directions(np.random.default_rng(42), 1000)
        assert hashlib.sha256(phis.tobytes()).hexdigest() == (
            "c9ee1a136b5e1385aba654199626253f4c06bab49c73895bbc5f90f61bdb4f5d")


class TestScatter:
    def test_records_are_consistent(self):
        records = scatter_experiment(2000, seed=55)
        assert len(records) == 2000
        for rec in records[::97]:
            assert rec.region == region_for(rec.f_tele)
            report = full_report(pure_to_density(wclass_state(rec.params)))
            assert rec.f_recon == pytest.approx(report.f_max, abs=1e-12)
            assert rec.f_tele == pytest.approx(report.f_tele_dealer_reconstructor, abs=1e-12)

    def test_reconstruction_beats_classical(self):
        records = scatter_experiment(5000, seed=56)
        assert min(r.f_recon for r in records) >= 2 / 3 - 1e-9

    def test_example_state_lands_orange(self):
        rec = record_for(WClassParams.normalized(0.7, 0.11, 0.09, 0.7))
        assert rec.region == "orange"
        assert rec.f_tele <= 2 / 3
        assert rec.f_recon == pytest.approx(0.7086582683463307, abs=1e-12)

    def test_region_boundary_is_orange(self):
        assert region_for(2 / 3) == "orange"
        assert region_for(2 / 3 + 1e-9) == "blue"


class TestCSV:
    def test_header_and_shape(self, tmp_path):
        path = tmp_path / "scatter.csv"
        write_scatter_csv(path, 50, seed=57)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 51
        row = lines[1].split(",")
        assert len(row) == 7 and row[6] in ("orange", "blue")

    def test_twelve_significant_digits(self):
        text = scatter_csv_text(5, seed=58)
        for row in text.splitlines()[1:]:
            for field in row.split(",")[:6]:
                mantissa = re.sub(r"[-+.e]", "", field.split("e")[0]).lstrip("0")
                assert len(mantissa) <= 12

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scatter_csv(a, 200, seed=59)
        write_scatter_csv(b, 200, seed=59)
        assert a.read_bytes() == b.read_bytes()
        assert scatter_csv_text(200, seed=59).encode() == a.read_bytes()

    def test_seed_changes_content(self):
        assert scatter_csv_text(50, seed=60) != scatter_csv_text(50, seed=61)
