import copy
import dataclasses
import itertools
import os
import pickle
import re
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import literal_directions
from qrecon.cli import main
from qrecon.fidelity import (
    CANONICAL_SETTING,
    closed_form_bounds,
    f_max_from_theta,
    full_report,
    pair_correlation_for_setting,
    singlet_matrices,
    t_matrix_for_setting,
    theta_from_pair,
    trace_norms,
)
from qrecon.presets import preset_density
from qrecon.protocol import expected_fidelity_exact
from qrecon.states import decompose_state, pure_to_density
from qrecon import wclass
from qrecon.wclass import (
    CSV_HEADER,
    NORMALIZATION_TOL,
    InvalidParamsError,
    ScatterRecord,
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

    @pytest.mark.parametrize("row, expected", [
        ((1e-200, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),  # the squares underflow to a zero norm
        ((1e-320, 1e-320, 0.0, 0.0), (np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0)),
        ((1e200, 1e200, 0.0, 0.0), (np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0)),  # the squares overflow
        ((1e300, 0.0, 1e-300, 0.0), (1.0, 0.0, 0.0, 0.0)),
    ])
    def test_normalized_rescales_tuples_whose_norm_underflows_or_overflows(self, row, expected):
        assert WClassParams.normalized(*row).as_array() == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("row", [(0.7, 0.11, 0.09, 0.7), (1.0, 2.0, 3.0, 4.0), (1e-150, 2e-150, 0.0, 1e-151)])
    def test_normalized_keeps_the_plain_division_on_ordinary_tuples(self, row):
        lam = np.array(row)
        assert WClassParams.normalized(*row).as_array().tobytes() == (lam / np.linalg.norm(lam)).tobytes()

    @pytest.mark.parametrize("row", [(1, 2, 3, 4), (0.7, 0.11, 0.09, 0.7), (1e200, 1e200, 0.0, 0.0)])
    def test_normalized_stores_python_floats(self, row):
        # as scatter_experiment and WClassParams(*floats) do, not numpy scalars
        p = WClassParams.normalized(*row)
        assert all(type(getattr(p, f.name)) is float for f in dataclasses.fields(p))
        assert "np.float64" not in repr(p) and "np.float64" not in repr(record_for(p))

    @staticmethod
    def numpy_rule(row):
        """The earlier per-record check, on a numpy array."""
        lam = np.array(row, dtype=float)
        return bool(np.all(lam >= 0)) and abs(float(np.sum(lam ** 2)) - 1.0) <= NORMALIZATION_TOL

    @staticmethod
    def accepts(row):
        try:
            WClassParams(*row)
        except InvalidParamsError:
            return False
        return True

    @pytest.mark.parametrize("first", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300, 1.0])
    def test_plain_float_rule_matches_numpy_rule_on_special_values(self, first):
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300, 1.0]
        for rest in itertools.product(special, repeat=3):
            row = (first, *rest)
            assert self.accepts(row) == self.numpy_rule(row), row

    @pytest.mark.parametrize("seed", [0, 1])
    def test_plain_float_rule_matches_numpy_rule_near_the_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        rows = np.abs(rng.normal(size=(2000, 4)))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        # sum of squares moved by up to +-2e-12, twice the tolerance
        rows *= np.sqrt(1.0 + rng.uniform(-2e-12, 2e-12, size=(2000, 1)))
        decisions = [self.accepts(row) for row in rows.tolist()]
        assert decisions == [self.numpy_rule(row) for row in rows.tolist()]
        assert 0 < sum(decisions) < len(decisions)
        # scatter_experiment's rule on a whole block decides every row the same way
        assert wclass._valid_rows(rows).tolist() == decisions

    def test_block_rule_matches_the_constructor_on_special_values(self):
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, -1e-300, 1.0]
        rows = list(itertools.product(special, repeat=4))
        rows += [(1e200, 0.0, 0.0, 0.0), (1e-200, 0.0, 0.0, 1.0), (1e154, 1e154, 0.0, 0.0), (0.6, 0.8, 0.0, 1e-300)]
        assert wclass._valid_rows(np.array(rows)).tolist() == [self.accepts(row) for row in rows]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_block_rule_matches_the_constructor_within_ulps_of_the_tolerance(self, seed):
        # sums of squares a few ulps from 1 +- tol: any other summation order moves some decisions
        rng = np.random.default_rng(seed)
        rows = np.abs(rng.normal(size=(2000, 4)))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        edge = np.where(rng.random((2000, 1)) < 0.5, -NORMALIZATION_TOL, NORMALIZATION_TOL)
        rows *= np.sqrt(1.0 + edge + rng.uniform(-4e-16, 4e-16, size=(2000, 1)))
        decisions = [self.accepts(row) for row in rows.tolist()]
        assert 0 < sum(decisions) < len(decisions)
        assert wclass._valid_rows(rows).tolist() == decisions

    def test_slotted_types_copy_compare_and_stay_frozen(self):
        p = WClassParams.normalized(0.7, 0.11, 0.09, 0.7)
        (rec,) = scatter_experiment(1, 1)
        for obj in (p, rec, rec.params):
            assert not hasattr(obj, "__dict__")
            for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert twin == obj and hash(twin) == hash(obj) and type(twin) is type(obj)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, dataclasses.fields(obj)[0].name, 0.5)
        # == and hash compare the fields as a tuple, as for the unslotted classes
        assert hash(p) == hash((p.lambda0, p.lambda1, p.lambda2, p.lambda3))
        built = ScatterRecord(WClassParams(*rec.params.as_array().tolist()), rec.f_tele, rec.f_recon, rec.region)
        assert built == rec and hash(built) == hash(rec)
        assert hash(rec) == hash((rec.params, rec.f_tele, rec.f_recon, rec.region))


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


def wclass_decomposition(params):
    return decompose_state(pure_to_density(wclass_state(params)))


class TestNoSO3Gap:
    """The W family attains its trace-norm f_recon with unitary corrections: det(P + x T) = -4 l0^2 l2^2 (1 + 2x l1 l3)
    <= 0, so each singlet matrix M_{0,x} = -(P + x T) has det >= 0 and loses nothing to the SO(3) restriction."""

    @seed(55)
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(any))
    def test_singlet_determinants_and_gap_property(self, lam):
        d = wclass_decomposition(WClassParams.normalized(*lam))
        P, T = pair_correlation_for_setting(d, CANONICAL_SETTING), t_matrix_for_setting(d, CANONICAL_SETTING)
        assert (np.linalg.det(P + T) <= 0) and (np.linalg.det(P - T) <= 0)
        assert (np.linalg.det(singlet_matrices(P, T)) >= 0).all()
        assert closed_form_bounds(d).so3_gap == 0.0

    def test_no_gap_on_the_scatter_rows(self):
        gaps = [closed_form_bounds(wclass_decomposition(WClassParams(*row))).so3_gap
                for row in sample_wclass(2000, 42).tolist()]
        assert max(gaps) == 0.0 and min(gaps) == 0.0

    def test_the_simulator_attains_f_recon_on_the_scatter_rows(self):
        # the six-axis simulator at its default (optimal) corrections, against the scatter's 2x2 closed form
        records = scatter_experiment(2000, 42)[::10]
        deviations = [abs(expected_fidelity_exact(pure_to_density(wclass_state(rec.params))) - rec.f_recon)
                      for rec in records]
        assert len(deviations) == 200 and max(deviations) <= 1e-12


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

    @pytest.mark.parametrize("n, seed", [(1, 1), (8192, 3), (2 * 8192 + 1, 3), (100_000, 42)])
    def test_block_stream_is_one_draw(self, n, seed):
        # samples and records read the block stream; one draw of n rows is the reference
        lam = literal_directions(np.random.default_rng(seed), n, 4)
        np.testing.assert_array_equal(sample_wclass(n, seed), lam)
        assert scatter_experiment(n, seed) == [
            ScatterRecord(params=WClassParams(*row), f_tele=ft, f_recon=fr, region=region)
            for row, ft, fr, region in zip(lam.tolist(), *wclass._scatter_columns(lam))
        ]

    @pytest.mark.parametrize("bad", [(np.nan, 0.0, 1.0, 0.0), (0.6, 0.8, 0.0, 1e-5)], ids=["nan", "off-norm"])
    def test_bad_block_raises_the_constructor_error_for_its_first_bad_row(self, monkeypatch, bad):
        # the second block holds two bad rows with different messages; the first one's is raised
        good = sample_wclass(5, seed=1)
        other = (0.6, 0.8, 1e-3, 0.0) if np.isfinite(bad).all() else (0.6, -0.8, 0.0, 0.0)
        with pytest.raises(InvalidParamsError) as expected:
            WClassParams(*bad)
        blocks = [good, np.vstack([good[:2], [bad], [other], good[2:]])]
        monkeypatch.setattr(wclass, "_direction_blocks", lambda n, seed, dim: iter(blocks))
        with pytest.raises(InvalidParamsError) as raised:
            scatter_experiment(15, 1)
        assert str(raised.value) == str(expected.value)


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

    def test_columns_match_the_svd_route(self):
        # the 3x3 SVDs of the full (R, T) stacks are the reference for the 2x2 blocks the columns read
        h = np.sqrt(0.5)
        edges = np.array([
            [0.0, 1.0, 1.0, 1.0],  # lambda0 = 0
            [1.0, 1.0, 1.0, 0.0],  # lambda3 = 0, so T = 0
            [1.0, 0.0, 2.0, 0.0],  # lambda1 = lambda3 = 0
            [1.0, 1.0, 0.0, 1.0],  # lambda2 = 0: every block has det = 0
            [0.0, h, 0.0, h],  # R - T = 0, R + T of rank one
            [0.5, 0.0, 0.5, h],  # lambda3^2 = 1/2: the R block has det = 0 up to rounding
            [1.0, 0.0, 1.0, 0.0],  # R = diag(1, -1, 1), T = 0: equal singular values
            [1.0, 1.0, 1.0, 1.0],  # the R - T block is I / 2: equal singular values
            [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
        ])
        lam = np.concatenate([sample_wclass(100_000, seed=57), edges / np.linalg.norm(edges, axis=1, keepdims=True)])
        r, t = wclass._rt_closed_form_batch(lam)
        # the premise: outside the (x, z) block, R_yy is the only nonzero entry
        outside = np.ones((3, 3), dtype=bool)
        outside[::2, ::2] = False
        assert not t[:, outside].any()
        outside[1, 1] = False
        assert not r[:, outside].any()
        f_tele, f_recon, region = wclass._scatter_columns(lam)
        reference = f_max_from_theta(trace_norms(r))
        # the f map divides a norm's error by 6: 2e-15 on the norms, plus the last bit of f
        np.testing.assert_allclose(f_tele, reference, rtol=0, atol=4.5e-16)
        np.testing.assert_allclose(f_recon, f_max_from_theta(theta_from_pair(r, t)), rtol=0, atol=4.5e-16)
        assert region == [region_for(f) for f in reference]

    def test_scatter_takes_no_svd(self, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("the W scatter called numpy.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", svd)
        scatter_csv_text(2 * 8192 + 1, 3)
        scatter_experiment(2000, 42)
        record_for(WClassParams.normalized(0.7, 0.11, 0.09, 0.7))


def _writers(capsys, n, seed):
    """(write to a path, the bytes it must write) for the CSV writer and for ``analyze --out``."""
    assert main(["analyze", "--preset", "w"]) == 0
    report = capsys.readouterr().out

    def analyze(path):
        assert main(["analyze", "--preset", "w", "--out", str(path)]) == 0

    return [(lambda path: write_scatter_csv(path, n, seed=seed), scatter_csv_text(n, seed=seed).encode()),
            (analyze, report.encode())]


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

    @pytest.mark.parametrize("n, seed", [(1, 1), (300, 62)])
    def test_rows_are_the_records(self, n, seed):
        # the CSV and the record list are two views of the same columns
        lines = scatter_csv_text(n, seed).splitlines()[1:]
        records = scatter_experiment(n, seed)
        assert len(lines) == len(records) == n
        for line, rec in zip(lines, records):
            values = (*rec.params.as_array().tolist(), rec.f_tele, rec.f_recon)
            assert line == ",".join([f"{v:.12g}" for v in values] + [rec.region])

    def test_seed_changes_content(self):
        assert scatter_csv_text(50, seed=60) != scatter_csv_text(50, seed=61)

    def test_write_leaves_no_temporary_file_and_keeps_the_umask_mode(self, tmp_path):
        path, plain = tmp_path / "scatter.csv", tmp_path / "plain.csv"
        write_scatter_csv(path, 300, seed=63)
        with open(plain, "w"):
            pass
        assert path.read_bytes() == scatter_csv_text(300, seed=63).encode()
        assert list(tmp_path.glob("*.tmp")) == []
        assert os.stat(path).st_mode == os.stat(plain).st_mode

    @pytest.mark.parametrize("existing", [None, b"old bytes\n"])
    def test_failure_after_the_first_block_leaves_the_target_alone(self, tmp_path, monkeypatch, existing):
        path = tmp_path / "scatter.csv"
        if existing is not None:
            path.write_bytes(existing)
        real, calls = wclass._scatter_columns, []

        def fail_on_second_block(lam):
            calls.append(len(lam))
            if len(calls) == 2:
                raise RuntimeError("second block")
            return real(lam)

        monkeypatch.setattr(wclass, "_scatter_columns", fail_on_second_block)
        with pytest.raises(RuntimeError, match="second block"):
            write_scatter_csv(path, 2 * 8192, seed=64)
        assert calls == [8192, 8192]
        assert list(tmp_path.glob("*.tmp")) == []
        assert (path.read_bytes() if path.exists() else None) == existing

    def test_stale_temporary_file_is_skipped_and_kept(self, tmp_path):
        # a killed run with the same pid left its temporary file behind
        path = tmp_path / "scatter.csv"
        stale = tmp_path / f"scatter.csv.{os.getpid()}.0.tmp"
        stale.write_bytes(b"stale\n")
        write_scatter_csv(path, 40, seed=65)
        assert path.read_bytes() == scatter_csv_text(40, seed=65).encode()
        assert stale.read_bytes() == b"stale\n"
        assert sorted(tmp_path.iterdir()) == sorted([path, stale])

    def test_fifo_target_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "scatter.fifo"
        os.mkfifo(fifo)
        for write, expected in _writers(capsys, 300, seed=66):
            received = []
            reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
            reader.start()
            write(fifo)
            reader.join(timeout=30)
            assert not reader.is_alive()
            assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
            assert received == [expected]
            assert list(tmp_path.iterdir()) == [fifo]

    def test_symlink_target_is_written_through(self, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        for write, expected in _writers(capsys, 30, seed=67):
            target.write_bytes(b"old bytes\n")
            write(link)
            assert link.is_symlink()
            assert target.read_bytes() == expected
            assert sorted(tmp_path.iterdir()) == sorted([link, target])
