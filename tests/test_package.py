import importlib
import subprocess
import sys

import pytest

import qrecon

#: The package's exports: 58 names of its API and its 7 submodules.
EXPORTS = [
    "ALL_SETTINGS", "BRANCHES", "BlochDecomposition", "CANONICAL_SETTING", "CaseLabel", "ClosedFormBounds",
    "FidelityReport", "InvalidParamsError", "MCResult", "NonHermitianInputError", "NotHermitianError",
    "NotNormalizedError", "NotPSDError", "NotUnitTraceError", "PRESETS", "QSSCheck", "ScatterRecord",
    "Setting", "StateValidationError", "WClassParams", "classical_baseline", "classical_fidelities",
    "classify_case", "closed_form_bounds", "compose_state", "decompose_state", "dishonest_guess_fidelity",
    "expected_fidelity_exact", "expected_fidelity_mc", "f_max", "f_max_from_theta", "fidelity",
    "fixed_rotation_fidelity", "full_report", "load_state", "optimal_rotation", "optimal_rotations",
    "pair_correlation_for_setting", "parse_state", "partial_trace", "paulis", "permute_to_canonical",
    "preset_density", "presets", "protocol", "pure_to_density", "purity", "qss_check", "record_for",
    "report_from_decomposition", "report_to_dict", "sample_wclass", "scatter_experiment",
    "sphere_average_identity_check", "stateio", "states", "t_matrix_for_setting", "teleportation_fidelity",
    "theta", "trace_norm", "validate_state", "wclass", "wclass_rt_closed_form", "wclass_state",
    "write_scatter_csv",
]

SUBMODULES = ("fidelity", "paulis", "presets", "protocol", "stateio", "states", "wclass")


def fresh(script):
    """Stdout of ``script`` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_pinned():
    assert len(EXPORTS) == 65
    assert qrecon.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_export_is_the_object_its_module_defines(name):
    value = getattr(qrecon, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"qrecon.{name}")
        return
    homes = [module for module in SUBMODULES if vars(getattr(qrecon, module)).get(name) is value]
    assert homes, name
    home = getattr(value, "__module__", None)  # functions and classes name where they are defined
    if home is not None and home.startswith("qrecon."):
        assert getattr(sys.modules[home], name) is value


def test_import_loads_no_submodule():
    loaded = fresh("import sys, qrecon; print(*sys.modules)").split()
    assert [name for name in loaded if name.startswith(("qrecon.", "numpy"))] == []


def test_dir_lists_every_export_before_any_is_loaded():
    listed = fresh("import qrecon; print(*dir(qrecon))").split()
    assert "__all__" in listed and set(EXPORTS) <= set(listed)


def test_star_import_binds_every_export():
    script = ("import qrecon\n"
              "ns = {}\n"
              "exec('from qrecon import *', ns)\n"
              "print(all(ns[name] is getattr(qrecon, name) for name in qrecon.__all__), *sorted(ns))")
    same, *bound = fresh(script).split()
    assert same == "True" and set(bound) - {"__builtins__"} == set(EXPORTS)


@pytest.mark.parametrize("name", ["simulate_branches", "ProtocolOutcome", "_direction_blocks"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(qrecon, name)
    assert not hasattr(qrecon, name)
