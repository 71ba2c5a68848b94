"""Discrete solvers for optimal spatial pricing under transportation costs."""

from ._search import BudgetExceededError, SearchConfig, SearchMode
from .ctransform import NotCConcaveError, scale_tol
from .geometry import (
    CostKernel,
    CustomerMeasure,
    KernelKind,
    Mask,
    PricePattern,
    Region,
    build_grid_region,
    build_interval_region,
    eval_cost,
    step_cdf,
    uniform_cdf,
)
from .model_one import (
    quadratic_1d_reference,
    solve_general,
    solve_metric,
)
from .model_two import (
    PartitionContext,
    SolveReport,
    one_d_reduction,
    reformulate,
    solve_boundary_control,
    solve_w_search,
)
from .nash import (
    BestResponseResult,
    DynamicsTrace,
    EquilibriumReport,
    GameContext,
    NashSearchConfig,
    best_response,
    best_response_dynamics,
    payoffs,
    verify_equilibrium,
)

__version__ = "0.1.0"
