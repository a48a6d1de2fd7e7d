"""Fourth-order finite-difference solver for the 2-D Cahn-Hilliard equation.

Long-stencil spatial operators, an energy-stable two-step implicit time
discretization, a Fourier-preconditioned conjugate-direction solver for the
implicit update, and a verification/experiment harness.
"""

__version__ = "0.1.0"

from .grid import (
    Field,
    GridMismatchError,
    GridSpec,
    field_from_fn,
    inner_l2,
    mean,
    norm_l2,
    norm_linf,
    norm_lp,
)
from .operators import (
    d1_long,
    d2_long,
    d2_std,
    grad_norm_sq_long,
    grad_norm_sq_std,
    laplace_long,
    laplace_std,
)
from .spectral import (
    SpectralPlan,
    hminus1_norm,
    invert_laplace_long,
    laplace_long_spectral,
    make_plan,
)
from .scheme import (
    SchemeParams,
    StepState,
    assemble_rhs,
    ghost_init,
    restart_flat,
    step,
)
from .psd import SolverError, SolveStats, UpdateOperator, solve
from .diagnostics import EnergyRecord, energy, fit_power_law, modified_energy
from .verification import (
    manufactured_solution,
    manufactured_source,
    manufactured_source_stencil,
)

__all__ = [
    "__version__",
    "Field",
    "GridMismatchError",
    "GridSpec",
    "field_from_fn",
    "inner_l2",
    "mean",
    "norm_l2",
    "norm_linf",
    "norm_lp",
    "d1_long",
    "d2_long",
    "d2_std",
    "grad_norm_sq_long",
    "grad_norm_sq_std",
    "laplace_long",
    "laplace_std",
    "SpectralPlan",
    "hminus1_norm",
    "invert_laplace_long",
    "laplace_long_spectral",
    "make_plan",
    "SchemeParams",
    "StepState",
    "assemble_rhs",
    "ghost_init",
    "manufactured_solution",
    "manufactured_source",
    "manufactured_source_stencil",
    "restart_flat",
    "step",
    "SolverError",
    "SolveStats",
    "UpdateOperator",
    "solve",
    "EnergyRecord",
    "energy",
    "fit_power_law",
    "modified_energy",
]
