"""Exact 1D shock solutions, Rankine-Hugoniot audits, and energy balances.

The weak-form checker's names are loaded from `weakcheck` on first use, so
importing the package does not import numpy.
"""

from .eos import FluidState, GasKind, GasModel
from .rh import (
    RhResidual,
    ShockJump,
    entropy_admissible,
    hugoniot_solve,
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

__version__ = "0.1.0"

_WEAKCHECK_NAMES = ("BumpTestFunction", "SpacetimeQuadrature", "weak_residuals")


def __getattr__(name):
    if name in _WEAKCHECK_NAMES:
        from . import weakcheck

        return getattr(weakcheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FluidState",
    "GasKind",
    "GasModel",
    "RhResidual",
    "ShockJump",
    "entropy_admissible",
    "hugoniot_solve",
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
    "weak_residuals",
    "__version__",
]
