"""Adaptive-stepsize stochastic optimization: Polyak-type steps, slack-learning
updates, projection primitives, and a benchmark harness."""

import types

from .bench import (
    BoundKind,
    BoundReport,
    RateConstants,
    ReferenceSolution,
    SensitivityTable,
    evaluate_bounds,
    export_csv,
    grid_search,
    rate_fit_slope,
    reference_solve,
)
from .dataio import (
    ParseError,
    SyntheticMode,
    SyntheticSpec,
    gen_synthetic,
    parse_libsvm,
    serialize_libsvm,
)
from .optimizers import (
    GD,
    SGD,
    SPS,
    ConfigurationError,
    Fuval,
    FuvalFullBatch,
    FuvalParams,
    ProxLinearAppC,
    RunConfig,
    ScalingScheme,
    SInit,
    SPSPlus,
    Trace,
    constant,
    inv_sqrt,
    resolve_scaling,
    run,
)
from .problems import (
    ContractViolation,
    LossKind,
    Problem,
    loss_grad,
    loss_value,
    objective,
    objective_and_grad,
    objective_grad,
    sample_constants,
)
from .projections import (
    HalfspaceSlackInstance,
    InfeasibleConstraint,
    brute_force_minimize,
    halfspace_project,
    halfspace_project_slack,
    max_linear_prox,
)
from .surrogate import SurrogateAnchor, grad_phi_i, penalty_value, phi_i

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
