from .mpc import (
    MpcSpec,
    StateSpaceModel,
    build_prediction_matrices,
    mpc_closed_loop,
    mpc_to_lasso,
    spacecraft_model,
    spacecraft_mpc,
)
from .lasso import gen_lasso
from .diagnostics import (
    DiagnosticReport,
    azuma_coverage,
    hoeffding_coverage,
    martingale_diagnostic,
)

__all__ = [
    "MpcSpec",
    "StateSpaceModel",
    "build_prediction_matrices",
    "mpc_closed_loop",
    "mpc_to_lasso",
    "spacecraft_model",
    "spacecraft_mpc",
    "gen_lasso",
    "DiagnosticReport",
    "azuma_coverage",
    "hoeffding_coverage",
    "martingale_diagnostic",
]
