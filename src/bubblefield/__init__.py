"""Numerical toolkit for the finite-dimensional reduction of multi-bubble dynamics.

Modules:
    config      bubble-center geometry and the interaction matrix
    groundstate ground state W, its scaling derivative, and the kappa identity
    equilibrium positive solutions of the reduced system and isolation spectra
    dynamics    rescaled modulation flow, Lyapunov diagnostics, integrator
    circulant   the ten-point two-circle configuration and its equilibrium curve
    cli         run-config ingestion and deterministic report emission
"""

from .config import (
    BadDimension,
    Configuration,
    DuplicatePoints,
    InteractionMatrix,
    TooFewPoints,
    build_configuration,
    interaction_matrix,
    kappa_closed_form,
)
from .groundstate import (
    KappaReport,
    QuadratureDiverged,
    QuadratureSpec,
    ground_state,
    lambda_w,
    verify_kappa,
)
from .equilibrium import (
    EquilibriumPoint,
    IsolationReport,
    NoSolutionFound,
    ReducedSolution,
    SolverOptions,
    isolation_check,
    k2_closed_form,
    lift,
    reduced_jacobian,
    reduced_residual,
    solve_equilibria,
    symmetrized_matrix,
)
from .dynamics import (
    AlphaCollapse,
    IntegratorOptions,
    PerturbationSchedule,
    StepUnderflow,
    Trajectory,
    TrajectoryState,
    distance_to_set,
    integrate,
    lyapunov,
    lyapunov_rate,
    omega_limit_estimate,
    to_physical,
    vector_field,
)
from .circulant import (
    CirculantFamily,
    build_family,
    circulant_eigenvalue,
    cube_expansion,
    family_coefficients,
    family_member,
    family_tangent,
    points_k10,
    sigma_sq,
    solve_b0,
)

__version__ = "0.1.0"
