"""Scalar nonlinear-equation solvers built on a parameterized continuation
flow, with derivative-free difference-quotient variants, convergence-order
estimation, benchmarking, and basin-of-convergence mapping."""

from .problems import (
    DomainViolation,
    MissingDerivative,
    NonFiniteValue,
    ProblemSpec,
    builtin_problems,
    eval_f,
    eval_f_unchecked,
)
from .solvers import (
    BOOTSTRAPS,
    SCHEMES,
    STOP_RULES,
    DenominatorUnderflow,
    IterationTrace,
    RunOutcome,
    SolverConfig,
    TracePoint,
    euler_flow_step,
    newton_step,
    run,
    secant_dyn_step,
    secant_step,
    wu_step,
    zheng_step,
)
from .analysis import (
    ConvergenceReport,
    DerivativeZero,
    InsufficientData,
    OrderEstimate,
    estimate_order,
    predicted_constant,
    verify_quadratic_convergence,
)
from .harness import (
    BasinGrid,
    BenchmarkRow,
    basin_to_csv,
    basin_to_grid_text,
    benchmark_verdicts_match,
    default_x0_axis,
    map_basin,
    rows_to_csv,
    run_benchmark,
    sweep_h,
    sweep_mu,
)

__version__ = "0.1.0"

# Every public name the imports above bind, submodules aside, so each is stated once.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(problems))
)
