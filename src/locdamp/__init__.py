"""Stripe-damped 1D transport laboratory.

Build a system (symmetric velocity matrix plus a partial damping block),
check its admissibility, compute how long characteristics dodge the
damping, get reference decay rates from the frequency side, and run the
exact-shift solver to test the delayed decay envelopes end to end.
"""

from locdamp.chartimes import (
    UndampedRegion,
    conservation_horizon,
    sharp_delay,
    sup_undamped_measure,
    residence_bound,
)
from locdamp.harness import (
    ProbeReport,
    Scenario,
    ScenarioError,
    calibrate,
    conservation_probe,
    load_scenario,
    run_scenario,
    verify_envelope,
)
from locdamp.model import (
    EigenStructure,
    HyperbolicSystem,
    diagonalize,
    coupling_check_eigvec,
    coupling_check_rank,
    source_matrix,
    validate_system,
)
from locdamp.solver import (
    BoundaryError,
    Bump,
    GridError,
    InitialDataSpec,
    Trajectory,
    build_grid,
    rational_shifts,
    run,
)
from locdamp.spectral import (
    MatrixExpError,
    NormSeries,
    SpectralScan,
    fullspace_evolve,
    gamma_estimate,
    matrix_exp,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryError",
    "Bump",
    "EigenStructure",
    "GridError",
    "HyperbolicSystem",
    "InitialDataSpec",
    "MatrixExpError",
    "NormSeries",
    "ProbeReport",
    "Scenario",
    "ScenarioError",
    "SpectralScan",
    "Trajectory",
    "UndampedRegion",
    "build_grid",
    "calibrate",
    "conservation_horizon",
    "conservation_probe",
    "diagonalize",
    "fullspace_evolve",
    "gamma_estimate",
    "load_scenario",
    "matrix_exp",
    "rational_shifts",
    "run",
    "run_scenario",
    "sharp_delay",
    "coupling_check_eigvec",
    "coupling_check_rank",
    "source_matrix",
    "sup_undamped_measure",
    "residence_bound",
    "validate_system",
    "verify_envelope",
]
