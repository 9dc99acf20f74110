"""Self-adjoint patch scheme for heterogeneous diffusion on periodic lattices.

The package assembles patch (gap-tooth) discretisations of microscale
diffusion with periodic bond diffusivities, couples the patches through
spectral or Lagrangian interpolation of their edge values, and keeps the
resulting operator exactly symmetric, either directly (period divides patch
size) or through phase-shift ensembles.  Verification tools cover eigenvalue
spectra, full-lattice consistency, homogenised coefficients, and time
integration.

Typical use:

    from patchtooth import (
        DiffusivityProfile1D, build_grid_1d, CouplingSpec,
        assemble_patch_1d, eigen_symmetric,
    )

    profile = DiffusivityProfile1D([3.965, 2.531, 0.838, 0.331, 7.275])
    grid = build_grid_1d(L=2 * 3.141592653589793, N=9, n=5, r=0.3)
    op = assemble_patch_1d(grid, profile, CouplingSpec("spectral"))
    report = eigen_symmetric(op)
"""

from .assembly import (
    AssembledOperator,
    SymmetryReport,
    assemble_patch_1d,
    assemble_patch_2d,
    assemble_wave,
    symmetry_defect,
)
from .coupling import CouplingSpec, weights_for
from .ensemble import build_permutations_2d
from .geometry import (
    PatchGrid1D,
    PatchGrid2D,
    build_grid_1d,
    build_grid_2d,
    ratio_for_spacing,
    validate_compatibility,
    validate_compatibility_2d,
)
from .homogenize import (
    BranchSeparationError,
    HomogenisedCoefficients,
    extract_coefficients,
    predict_macroscale_eigenvalues,
    slow_branch,
)
from .microscale import (
    DiffusivityProfile1D,
    DiffusivityProfile2D,
    full_lattice_operator_1d,
    full_lattice_operator_2d,
    random_lognormal_profile,
    random_lognormal_profile_2d,
)
from .spectra import (
    ErrorTable,
    SpectrumReport,
    SymmetryPreconditionError,
    convergence_slope,
    eigen_general,
    eigen_symmetric,
    error_table,
)
from .timestep import (
    StabilityError,
    StateVector,
    Trajectory,
    conserved_mass,
    evolve_exact,
    evolve_rk4,
    stability_limit,
)

__version__ = "0.1.0"

__all__ = [
    "AssembledOperator",
    "BranchSeparationError",
    "CouplingSpec",
    "DiffusivityProfile1D",
    "DiffusivityProfile2D",
    "ErrorTable",
    "HomogenisedCoefficients",
    "PatchGrid1D",
    "PatchGrid2D",
    "SpectrumReport",
    "StabilityError",
    "StateVector",
    "SymmetryPreconditionError",
    "SymmetryReport",
    "Trajectory",
    "assemble_patch_1d",
    "assemble_patch_2d",
    "assemble_wave",
    "build_grid_1d",
    "build_grid_2d",
    "build_permutations_2d",
    "conserved_mass",
    "convergence_slope",
    "eigen_general",
    "eigen_symmetric",
    "error_table",
    "evolve_exact",
    "evolve_rk4",
    "extract_coefficients",
    "full_lattice_operator_1d",
    "full_lattice_operator_2d",
    "predict_macroscale_eigenvalues",
    "random_lognormal_profile",
    "random_lognormal_profile_2d",
    "ratio_for_spacing",
    "slow_branch",
    "stability_limit",
    "symmetry_defect",
    "validate_compatibility",
    "validate_compatibility_2d",
    "weights_for",
]
