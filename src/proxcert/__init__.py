"""Inexact proximal gradient solvers with convergence-bound certification."""

from .problems import (
    CompositeProblem,
    L1Term,
    OracleError,
    QuadraticSmooth,
    StepsizePolicy,
    backtrack_stepsize,
    lqr_closed_form,
    max_constant_stepsize,
    problem_from_json,
    problem_to_json,
    prox_exact,
)
from .errors import (
    FixedPointFormat,
    GradientErrorSpec,
    ProxErrorSpec,
    approx_prox,
    draw_tape,
    quantized_gradient,
    sample_truncated_gaussian,
)
from .solvers import (
    RunTrace,
    SolverConfig,
    alpha_sequence,
    ergodic_average,
    reference_solution,
    run_accelerated,
    run_basic,
)
from .bounds import BoundParams, BoundSeries, check_bound_validity, evaluate_all_series

__version__ = "0.1.0"

__all__ = [
    "CompositeProblem",
    "L1Term",
    "OracleError",
    "QuadraticSmooth",
    "StepsizePolicy",
    "backtrack_stepsize",
    "lqr_closed_form",
    "max_constant_stepsize",
    "problem_from_json",
    "problem_to_json",
    "prox_exact",
    "FixedPointFormat",
    "GradientErrorSpec",
    "ProxErrorSpec",
    "approx_prox",
    "draw_tape",
    "quantized_gradient",
    "sample_truncated_gaussian",
    "RunTrace",
    "SolverConfig",
    "alpha_sequence",
    "ergodic_average",
    "reference_solution",
    "run_accelerated",
    "run_basic",
    "BoundParams",
    "BoundSeries",
    "check_bound_validity",
    "evaluate_all_series",
]
