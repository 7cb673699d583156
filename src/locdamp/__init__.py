"""Stripe-damped 1D transport laboratory.

Build a system (symmetric velocity matrix plus a partial damping block),
check its admissibility, compute how long characteristics dodge the
damping, get reference decay rates from the frequency side, and run the
exact-shift solver to test the delayed decay envelopes end to end.
"""

from locdamp.chartimes import (
    CharacteristicWindow,
    ThreeSpeedGeometry,
    HorizonBounds,
    UndampedRegion,
    crossing_window,
    geometric_ratio_holds,
    residence_time,
    sharp_delay,
    sup_undamped_measure,
    residence_bound,
    horizon_bounds,
    three_speed_geometry,
    undamped_union,
)
from locdamp.harness import (
    ProbeReport,
    Scenario,
    ScenarioError,
    calibrate,
    conservation_probe,
    fit_decay_rate,
    fit_loglog_slope,
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
    symbol,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryError",
    "Bump",
    "CharacteristicWindow",
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
    "HorizonBounds",
    "ThreeSpeedGeometry",
    "Trajectory",
    "UndampedRegion",
    "build_grid",
    "calibrate",
    "conservation_probe",
    "crossing_window",
    "diagonalize",
    "fit_decay_rate",
    "fit_loglog_slope",
    "fullspace_evolve",
    "gamma_estimate",
    "geometric_ratio_holds",
    "load_scenario",
    "matrix_exp",
    "rational_shifts",
    "residence_time",
    "run",
    "run_scenario",
    "sharp_delay",
    "coupling_check_eigvec",
    "coupling_check_rank",
    "source_matrix",
    "sup_undamped_measure",
    "symbol",
    "residence_bound",
    "horizon_bounds",
    "three_speed_geometry",
    "undamped_union",
    "validate_system",
    "verify_envelope",
]
