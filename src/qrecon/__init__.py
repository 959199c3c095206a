"""Controlled reconstruction of a qubit through three-qubit resource states.

Closed-form reconstruction and teleportation fidelities from the Bloch
tensor, advantage-source classification, secret-sharing eligibility, a
Monte Carlo protocol simulator with per-branch rotation optimization,
and a W-family scatter experiment.
"""

from .fidelity import (
    ALL_SETTINGS,
    CANONICAL_SETTING,
    CaseLabel,
    FidelityReport,
    QSSCheck,
    Setting,
    classify_case,
    f_max,
    f_max_from_theta,
    full_report,
    pair_correlation_for_setting,
    qss_check,
    report_from_decomposition,
    report_to_dict,
    t_matrix_for_setting,
    teleportation_fidelity,
    theta,
    trace_norm,
)
from .presets import PRESETS, preset_density
from .protocol import (
    BRANCHES,
    ClosedFormBounds,
    MCResult,
    classical_baseline,
    classical_fidelities,
    closed_form_bounds,
    dishonest_guess_fidelity,
    expected_fidelity_exact,
    expected_fidelity_mc,
    fixed_rotation_fidelity,
    optimal_rotation,
    optimal_rotations,
    permute_to_canonical,
    sphere_average_identity_check,
)
from .states import (
    BlochDecomposition,
    NonHermitianInputError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitTraceError,
    StateValidationError,
    compose_state,
    decompose_state,
    partial_trace,
    pure_to_density,
    purity,
    validate_state,
)
from .stateio import load_state, parse_state
from .wclass import (
    InvalidParamsError,
    ScatterRecord,
    WClassParams,
    record_for,
    sample_wclass,
    scatter_experiment,
    wclass_rt_closed_form,
    wclass_state,
    write_scatter_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
