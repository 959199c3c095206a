"""Output checks.  Each returns None for a right output and a short
reason for a wrong one; the benchmark counts every reason as a failed
operation.  The tolerances are the ones the closed forms promise."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

CLOSED_FORM_TOL = 1e-12
ORACLE_TOL = 1e-9
#: Half-width of the MC acceptance band in standard errors.  A correct
#: estimate falls outside 6 sigma with probability ~2e-9 per call, so
#: no seed makes a correct program fail.
MC_BAND_SIGMAS = 6.0
CLASSICAL_FIDELITY = 2.0 / 3.0
CSV_HEADER = "lambda0,lambda1,lambda2,lambda3,f_tele,f_recon,region"
CSV_REL_TOL = 1e-11  # cells carry 12 significant digits


def check_loaded_state(rho, expected):
    if rho.shape != (8, 8):
        return f"loaded state has shape {rho.shape}"
    if not np.allclose(rho, expected, atol=ORACLE_TOL, rtol=0.0):
        return "loaded state differs from the state written"
    return None


def check_report(report, bounds, rotations, text):
    """One (state, setting) analysis: full_report, closed_form_bounds,
    optimal_rotations and the report's JSON text."""
    if abs(report.f_max - (1.0 + report.theta / 3.0) / 2.0) > CLOSED_FORM_TOL:
        return "f_max != (1 + theta/3)/2"
    if abs(bounds.f_trace_norm - report.f_max) > CLOSED_FORM_TOL:
        return "closed_form_bounds.f_trace_norm != f_max"
    if bounds.so3_gap < -CLOSED_FORM_TOL:
        return "negative so3_gap"
    if len(rotations) != 8:
        return f"{len(rotations)} rotations, expected 8"
    decoded = json.loads(text)
    if decoded.get("theta") != report.theta or decoded.get("setting") != str(report.setting):
        return "report JSON does not match the report"
    return None


def check_theta_symmetry(theta_abc, theta_cba):
    """T for (C, B, A) is the transpose of T for (A, B, C): same theta."""
    if abs(theta_abc - theta_cba) > CLOSED_FORM_TOL:
        return "theta(ABC) != theta(CBA)"
    return None


def check_mc(result, f_so3, n_samples):
    """The MC mean must land within the band around the SO(3) optimum."""
    if result.n_samples != n_samples:
        return f"n_samples {result.n_samples}, expected {n_samples}"
    if not (math.isfinite(result.mean) and math.isfinite(result.std_error) and result.std_error >= 0):
        return "non-finite MC mean or standard error"
    band = max(MC_BAND_SIGMAS * result.std_error, ORACLE_TOL)
    if abs(result.mean - f_so3) > band:
        return f"|mc_mean - f_so3| = {abs(result.mean - f_so3):.3g} > {band:.3g}"
    if len(result.per_branch) != 8:
        return f"{len(result.per_branch)} branches, expected 8"
    if abs(sum(b.probability for b in result.per_branch) - 1.0) > ORACLE_TOL:
        return "branch probabilities do not sum to 1"
    return None


def check_exact(value, f_so3):
    if abs(value - f_so3) > ORACLE_TOL:
        return f"|exact - f_so3| = {abs(value - f_so3):.3g}"
    return None


def check_sample(lam, n):
    if lam.shape != (n, 4):
        return f"sample shape {lam.shape}, expected {(n, 4)}"
    if np.any(lam < 0) or not np.allclose(np.sum(lam ** 2, axis=1), 1.0, atol=CLOSED_FORM_TOL, rtol=0.0):
        return "sampled tuples not nonnegative and unit norm"
    return None


def parse_scatter_csv(text, n):
    """(columns, problem): the numeric columns as an (n, 6) array and the
    region column, or None and the reason the text is malformed."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        return None, "CSV header differs"
    if len(lines) != n + 2 or lines[-1] != "":
        return None, f"{len(lines) - 2} CSV data rows, expected {n}"
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if any(len(row) != 7 for row in rows):
        return None, "CSV row without 7 cells"
    values = np.array([row[:6] for row in rows], dtype=float)
    regions = [row[6] for row in rows]
    return (values, regions), None


def check_scatter_csv(text, n):
    parsed, problem = parse_scatter_csv(text, n)
    if problem:
        return problem
    values, regions = parsed
    if np.any(values[:, 5] < CLASSICAL_FIDELITY - ORACLE_TOL):
        return "f_recon below 2/3"
    # a cell within rounding of 2/3 may sit on either side of it
    f_tele = values[:, 4]
    clear = np.abs(f_tele - CLASSICAL_FIDELITY) > CSV_REL_TOL
    blue = np.array(regions) == "blue"
    if np.any(blue[clear] != (f_tele[clear] > CLASSICAL_FIDELITY)):
        return "region does not follow f_tele"
    return None


def check_records_match_csv(records, text, n):
    """The object path and the CSV path describe the same rows."""
    if len(records) != n:
        return f"{len(records)} records, expected {n}"
    parsed, problem = parse_scatter_csv(text, n)
    if problem:
        return "records not compared: " + problem
    values, regions = parsed
    from_records = np.array([
        [r.params.lambda0, r.params.lambda1, r.params.lambda2, r.params.lambda3, r.f_tele, r.f_recon]
        for r in records
    ])
    if not np.allclose(values, from_records, rtol=CSV_REL_TOL, atol=CSV_REL_TOL):
        return "CSV cells differ from the records"
    if regions != [r.region for r in records]:
        return "CSV regions differ from the records"
    return None


def check_rederived(record, report):
    """A record against full_report on the same W-family state."""
    if abs(record.f_recon - report.f_max) > ORACLE_TOL:
        return "f_recon differs from full_report f_max"
    if abs(record.f_tele - report.f_tele_dealer_reconstructor) > ORACLE_TOL:
        return "f_tele differs from full_report"
    return None


def check_cli(code, expected_code, stdout, output):
    """Exit code as documented; on success the output parses."""
    if code != expected_code:
        return f"exit {code}, expected {expected_code}"
    if expected_code != 0:
        return None
    if output == "json":
        payload = json.loads(stdout)
        if "theta" in payload and abs(payload["f_max"] - (1.0 + payload["theta"] / 3.0) / 2.0) > CLOSED_FORM_TOL:
            return "analyze: f_max != (1 + theta/3)/2"
        if "mc_mean" in payload:
            band = max(MC_BAND_SIGMAS * payload["mc_std_error"], ORACLE_TOL)
            if abs(payload["mc_mean"] - payload["closed_form"]) > band:
                return "oracle: mc_mean outside the band"
    return None
