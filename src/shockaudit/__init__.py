"""Exact 1D shock solutions, Rankine-Hugoniot audits, and energy balances."""

from .eos import FluidState, GasKind, GasModel
from .rh import (
    RhResidual,
    ShockJump,
    entropy_admissible,
    hugoniot_solve_barotropic,
    hugoniot_solve_full,
    rh_residuals,
    shock_speed_from_mass,
)
from .shock1d import (
    Domain1D,
    PiecewiseShockSolution,
    energy_rate,
    evaluate,
    length_rate,
    stationary_shock_example,
    volume_potential_mismatch,
)
from .lagrangian_maps import (
    FlowMap1D,
    augmented_energy_rate,
    calibrate_lambda,
    calibrated_flow_map,
)
from .weakcheck import BumpTestFunction, SpacetimeQuadrature, weak_residual, weak_residuals

__version__ = "0.1.0"

__all__ = [
    "FluidState",
    "GasKind",
    "GasModel",
    "RhResidual",
    "ShockJump",
    "entropy_admissible",
    "hugoniot_solve_barotropic",
    "hugoniot_solve_full",
    "rh_residuals",
    "shock_speed_from_mass",
    "Domain1D",
    "PiecewiseShockSolution",
    "energy_rate",
    "evaluate",
    "length_rate",
    "stationary_shock_example",
    "volume_potential_mismatch",
    "FlowMap1D",
    "augmented_energy_rate",
    "calibrate_lambda",
    "calibrated_flow_map",
    "BumpTestFunction",
    "SpacetimeQuadrature",
    "weak_residual",
    "weak_residuals",
    "__version__",
]
