"""Parallel-in-time ODE solving with a collocation-trained random-feature coarse propagator.

The package couples the Parareal predictor-corrector iteration with a cheap
coarse propagator built from a two-layer network whose inner weights are drawn
at random and frozen; only the outer layer is fitted, online, by collocation on
each time subinterval.  A-posteriori error certificates and a six-problem
benchmark suite round out the toolbox.
"""

from .problems import (
    BurgersDiscretization,
    OdeSystem,
    burgers_semidiscretize,
    make_benchmark,
)
from .integrators import (
    FineMethod,
    NewtonNonconvergence,
    NewtonOptions,
    SolverError,
    StepFailure,
    fine_propagate,
    implicit_euler_step,
    rk4_step,
    serial_solve,
)
from .collocation import (
    BurgersJacobianOperator,
    CollocationGrid,
    LmOptions,
    TrainReport,
    TrainingError,
    collocation_grid,
    collocation_nodes,
    levenberg_marquardt,
    quadrature_weights,
    residual,
    residual_jacobian,
    train_coarse,
)
from .rpnn import (
    BasisConditioningError,
    RpnnBasis,
    admissible_step_bound,
    eval_network,
    eval_network_derivative,
    sample_basis,
)
from .parareal import (
    PararealConfig,
    PararealResult,
    TimeMesh,
    correction_step,
    evaluate_piecewise,
    parareal_solve,
    stopping_error,
    zeroth_iterate,
)
from .certificates import (
    Certificate,
    defect,
    defect_error_bound,
    field_log_norm_bound,
    log_norm_2,
    quadrature_certificate,
    sensitivity_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BasisConditioningError",
    "BurgersDiscretization",
    "BurgersJacobianOperator",
    "Certificate",
    "CollocationGrid",
    "FineMethod",
    "LmOptions",
    "NewtonNonconvergence",
    "NewtonOptions",
    "OdeSystem",
    "PararealConfig",
    "PararealResult",
    "RpnnBasis",
    "SolverError",
    "StepFailure",
    "TimeMesh",
    "TrainReport",
    "TrainingError",
    "admissible_step_bound",
    "burgers_semidiscretize",
    "collocation_grid",
    "collocation_nodes",
    "correction_step",
    "defect",
    "defect_error_bound",
    "eval_network",
    "eval_network_derivative",
    "evaluate_piecewise",
    "field_log_norm_bound",
    "fine_propagate",
    "implicit_euler_step",
    "levenberg_marquardt",
    "log_norm_2",
    "make_benchmark",
    "parareal_solve",
    "quadrature_certificate",
    "quadrature_weights",
    "residual",
    "residual_jacobian",
    "rk4_step",
    "sample_basis",
    "sensitivity_bound",
    "serial_solve",
    "stopping_error",
    "train_coarse",
    "zeroth_iterate",
]
