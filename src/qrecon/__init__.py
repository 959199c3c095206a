"""Controlled reconstruction of a qubit through three-qubit resource states.

Closed-form reconstruction and teleportation fidelities from the Bloch
tensor, advantage-source classification, secret-sharing eligibility, a
Monte Carlo protocol simulator with per-branch rotation optimization,
and a W-family scatter experiment.

``import qrecon`` loads no submodule: each exported name imports its
defining module on first access (PEP 562), so a caller pays only for
the modules it uses.
"""

import importlib

#: Submodule -> the names the package exports from it.
_EXPORTS = {
    "fidelity": (
        "ALL_SETTINGS", "BRANCHES", "CANONICAL_SETTING", "CaseLabel", "ClosedFormBounds", "FidelityReport",
        "QSSCheck", "Setting", "classify_case", "closed_form_bounds", "f_max", "f_max_from_theta",
        "fixed_rotation_fidelity", "full_report", "optimal_rotation", "optimal_rotations",
        "pair_correlation_for_setting", "qss_check", "report_from_decomposition", "report_to_dict",
        "t_matrix_for_setting", "teleportation_fidelity", "theta", "trace_norm",
    ),
    "paulis": (),
    "presets": ("PRESETS", "preset_density"),
    "protocol": (
        "MCResult", "classical_baseline", "classical_fidelities", "dishonest_guess_fidelity",
        "expected_fidelity_exact", "expected_fidelity_mc", "permute_to_canonical",
        "sphere_average_identity_check",
    ),
    "states": (
        "BlochDecomposition", "NonHermitianInputError", "NotHermitianError", "NotNormalizedError",
        "NotPSDError", "NotUnitTraceError", "StateValidationError", "compose_state",
        "decompose_state", "partial_trace", "pure_to_density", "purity", "validate_state",
    ),
    "stateio": ("load_state", "parse_state"),
    "wclass": (
        "InvalidParamsError", "ScatterRecord", "WClassParams", "record_for", "sample_wclass",
        "scatter_experiment", "wclass_rt_closed_form", "wclass_state", "write_scatter_csv",
    ),
}

#: Exported name -> its defining submodule; a submodule maps to itself.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
