"""The names the benchmark tracer wraps, and the package's exports, all exist.

The exports are pinned: a name joins or leaves the public surface only by a
deliberate edit of EXPORTS, for a use by the CLI, an acceptance criterion or
a documented workflow.
"""

import importlib
import importlib.util
from pathlib import Path

import patchtooth as pt

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

EXPORTS = {
    "AssembledOperator", "BranchSeparationError", "CouplingSpec",
    "DiffusivityProfile1D", "DiffusivityProfile2D", "ErrorTable",
    "HomogenisedCoefficients", "PatchGrid1D", "PatchGrid2D", "SpectrumReport",
    "StabilityError", "StateVector", "SymmetryPreconditionError",
    "SymmetryReport", "Trajectory", "assemble_patch_1d", "assemble_patch_2d",
    "assemble_wave", "build_grid_1d", "build_grid_2d", "build_permutations_2d",
    "conserved_mass", "convergence_slope", "eigen_general", "eigen_symmetric",
    "error_table", "evolve_exact", "evolve_rk4", "extract_coefficients",
    "full_lattice_operator_1d", "full_lattice_operator_2d",
    "predict_macroscale_eigenvalues", "random_lognormal_profile",
    "random_lognormal_profile_2d", "ratio_for_spacing", "slow_branch",
    "stability_limit", "symmetry_defect", "validate_compatibility",
    "validate_compatibility_2d", "weights_for",
}


def _layer_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


def test_traced_names_and_exports_resolve():
    for layer, names in _layer_functions().items():
        module = importlib.import_module(f"patchtooth.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"patchtooth.{layer}.{name}"
    for name in pt.__all__:
        assert hasattr(pt, name), name


def test_the_exports_are_the_pinned_set():
    assert len(pt.__all__) == len(EXPORTS) == 41
    assert set(pt.__all__) == EXPORTS
