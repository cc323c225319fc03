"""Numerical laboratory for classical statistical field models on phase
space and their projections onto complex quantum averages."""

from .symplectic import (
    BlockOperator,
    CheckResult,
    ComplexOperator,
    PhaseVector,
    complex_to_real,
    hermitian_product,
    is_j_commuting,
    j_commutation_defect,
    j_matrix,
    poisson_bracket,
    real_to_complex,
    symplectic_form,
)
from .gaussian import (
    DensityOperator,
    GaussianState,
    complex_covariance,
    dispersion,
    from_complex_covariance,
    is_j_invariant,
    pure_state_measure,
    pushforward,
    quadratic_average,
    sample,
)
from .variables import ClassicalVariable, QuadraticTerm, screen_variable
from .dynamics import (
    IntegrationError,
    NonquadraticHamiltonian,
    QuadraticHamiltonian,
    Trajectory,
    flow_oddness_defect,
    heisenberg_evolve,
    integrate,
    linear_flow,
    norm_preservation_defect,
    q_squared_p,
    schrodinger_flow,
)
from .bridge import (
    CorrespondenceReport,
    MonteCarloEstimate,
    alpha_scan,
    amplify,
    check_linearity,
    classical_average,
    project_state,
    project_variable,
    quantum_average,
    von_neumann_evolve,
)
from .fieldlab import (
    FieldGrid,
    FieldState,
    KernelOperator,
    field_energy,
    field_pure_state,
    fourier_transform,
    free_field_evolve,
    gaussian_field_average,
    gaussian_packet,
    hamiltonian_kernel,
    interacting_evolve,
    laplacian_matrix,
    momentum_average,
    plane_wave,
)
from .experiments import (
    ConfigError,
    ExperimentSpec,
    MetricRow,
    REGISTRY,
    ReportRecord,
    list_experiments,
    load_config,
    run_experiment,
)

__version__ = "0.1.0"
