"""Gas models and the thermodynamic functionals derived from them.

Two equation-of-state families are supported, both in dimensionless desk
units:

* barotropic polytrope, p = K rho**gamma, with the mechanical internal
  energy e(rho) defined by e'(rho) = p(rho) / rho**2;
* ideal gas carrying an entropy density s = rho * S, with specific internal
  energy e(rho, S) = e_ref * rho**(gamma - 1) * exp(S / c_v).

Every functional here is the Legendre side of the fluid Lagrangian density
l = 0.5 * rho * u**2 - eps(rho[, s]), so pressure and temperature can be
cross-checked by differentiating `lagrangian_density` directly.

This module also owns the conservation-law kernel shared by all three
oracles: the conserved variables U = (rho, rho u, E), the physical flux
F(U) = u U + p (0, 1, u), and the pressure and sound-speed closures.  The
closures take scalars or numpy arrays alike; Python scalars go through
`math`, arrays through numpy, so each caller keeps its own rounding.

This module never imports numpy: an array can reach it only from code that
imported numpy, in this package the array oracles `fv_solver` and
`weakcheck`.  The closed-form audits (`rh`, `shock1d`, `lagrangian_maps`)
pass scalars and run without numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidStateError, NumericalError, UnsupportedModelError


def require_finite(owner: str, **values) -> None:
    """Raise InvalidStateError naming the first non-finite value (None is skipped)."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise InvalidStateError(f"{owner} {name} must be finite, got {value}")


def _is_array(x) -> bool:
    """True for a numpy array; one can exist only once numpy has been imported."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def _lib(x):
    """numpy for arrays, math for Python scalars (numpy scalars included)."""
    return sys.modules["numpy"] if _is_array(x) else math


class GasKind(Enum):
    """Equation-of-state family tags."""

    BAROTROPIC_POLYTROPIC = "barotropic_polytropic"
    IDEAL_GAS_ENTROPY = "ideal_gas_entropy"


@dataclass(frozen=True)
class GasModel:
    """Immutable equation-of-state description.

    K is the polytropic pressure scale (barotropic family only); e_ref and
    c_v are the internal-energy reference scale and specific heat of the
    entropy-carrying family.
    """

    kind: GasKind
    K: float = 1.0
    gamma: float = 1.4
    e_ref: float = 1.0
    c_v: float = 1.0

    def __post_init__(self):
        require_finite("gas model", K=self.K, gamma=self.gamma, e_ref=self.e_ref, c_v=self.c_v)
        if not self.gamma > 1.0:
            raise InvalidStateError(f"adiabatic exponent must exceed 1, got {self.gamma}")
        if self.kind is GasKind.BAROTROPIC_POLYTROPIC and not self.K > 0.0:
            raise InvalidStateError(f"pressure scale K must be positive, got {self.K}")
        if self.kind is GasKind.IDEAL_GAS_ENTROPY:
            if not self.e_ref > 0.0:
                raise InvalidStateError(f"e_ref must be positive, got {self.e_ref}")
            if not self.c_v > 0.0:
                raise InvalidStateError(f"c_v must be positive, got {self.c_v}")

    @classmethod
    def barotropic(cls, K: float, gamma: float) -> "GasModel":
        return cls(GasKind.BAROTROPIC_POLYTROPIC, K=K, gamma=gamma)

    @classmethod
    def ideal_gas(cls, gamma: float, e_ref: float = 1.0, c_v: float = 1.0) -> "GasModel":
        return cls(GasKind.IDEAL_GAS_ENTROPY, gamma=gamma, e_ref=e_ref, c_v=c_v)

    @property
    def carries_entropy(self) -> bool:
        return self.kind is GasKind.IDEAL_GAS_ENTROPY


@dataclass(frozen=True)
class FluidState:
    """One-sided fluid state: density, velocity, optional entropy density."""

    rho: float
    u: float
    s: float | None = None

    def __post_init__(self):
        require_finite("state", rho=self.rho, u=self.u, s=self.s)
        if not self.rho > 0.0:
            raise InvalidStateError(f"density must be positive, got {self.rho}")


def require_valid(model: GasModel, state: FluidState) -> None:
    """Raise unless the state carries exactly the fields the model needs."""
    if model.carries_entropy and state.s is None:
        raise InvalidStateError("entropy density missing for an entropy-carrying model")
    if not model.carries_entropy and state.s is not None:
        raise InvalidStateError("entropy density supplied to a barotropic model")


def specific_entropy(state: FluidState) -> float:
    """S = s / rho."""
    if state.s is None:
        raise InvalidStateError("state carries no entropy density")
    return state.s / state.rho


def pressure_from(model: GasModel, rho, eps=None):
    """Pressure closure: K rho^gamma, or (gamma - 1) eps for the ideal gas."""
    if model.kind is GasKind.BAROTROPIC_POLYTROPIC:
        return model.K * rho ** model.gamma
    # p = rho**2 de/drho at fixed S = (gamma - 1) * eps(rho, s).
    return (model.gamma - 1.0) * eps


def sound_speed_from(model: GasModel, rho, p):
    """c = sqrt(dp/drho at fixed specific entropy) = sqrt(gamma p / rho).

    Both families share the formula: for the polytrope gamma p / rho is
    gamma K rho**(gamma - 1), with no second power to evaluate.
    """
    return _lib(p).sqrt(model.gamma * p / rho)


def pressure(model: GasModel, state: FluidState) -> float:
    """Pressure of the state, from the closed-form equation of state."""
    require_valid(model, state)
    eps = internal_energy_density(model, state) if model.carries_entropy else None
    return pressure_from(model, state.rho, eps)


def internal_energy_density(model: GasModel, state: FluidState) -> float:
    """Internal (or mechanical-internal) energy per unit volume, eps = rho * e."""
    require_valid(model, state)
    if model.kind is GasKind.BAROTROPIC_POLYTROPIC:
        return model.K / (model.gamma - 1.0) * state.rho ** model.gamma
    S = specific_entropy(state)
    return model.e_ref * state.rho ** model.gamma * math.exp(S / model.c_v)


def _kinetic_energy_density(state: FluidState) -> float:
    """0.5 rho u^2.

    u is squared as u * u, which is correctly rounded, so the energy of a
    state scales exactly with a power-of-2 velocity unit; libm's pow behind
    u ** 2 is not.  Past the double range it raises OverflowError, as
    u ** 2 does, instead of returning inf.
    """
    u2 = state.u * state.u
    if u2 == math.inf:
        raise OverflowError(f"velocity {state.u} squared is out of the double range")
    return 0.5 * state.rho * u2


def energy_density(model: GasModel, state: FluidState) -> float:
    """Total energy per unit volume, E = 0.5 rho u^2 + eps."""
    return _kinetic_energy_density(state) + internal_energy_density(model, state)


def temperature(model: GasModel, state: FluidState) -> float:
    """T = d eps / d s at fixed rho; defined for the entropy-carrying model only."""
    if not model.carries_entropy:
        raise UnsupportedModelError("temperature is undefined for a barotropic model")
    return internal_energy_density(model, state) / (state.rho * model.c_v)


def sound_speed(model: GasModel, state: FluidState) -> float:
    """c = sqrt(dp/drho at fixed specific entropy)."""
    return sound_speed_from(model, state.rho, pressure(model, state))


def conserved(model: GasModel, state: FluidState) -> tuple[float, float, float]:
    """Conserved variables U = (rho, rho u, E) of one state.

    For a barotropic model E is the mechanical energy, which shocks dissipate.
    """
    return (state.rho, state.rho * state.u, energy_density(model, state))


def physical_flux(U, u, p):
    """F = u U + p (0, 1, u) for 2 or 3 components, on scalars or arrays."""
    F = (U[1], U[1] * u + p)
    if len(U) == 3:
        F += ((U[2] + p) * u,)
    return F


def balance_terms(model: GasModel, state: FluidState):
    """(U, F) of the mass, momentum and energy laws for one state."""
    U = conserved(model, state)
    return U, physical_flux(U, state.u, pressure(model, state))


def lagrangian_density(model: GasModel, state: FluidState) -> float:
    """l = 0.5 rho u^2 - eps(rho[, s])."""
    return _kinetic_energy_density(state) - internal_energy_density(model, state)


def entropy_density_from_pressure(model: GasModel, rho, p):
    """Invert p = (gamma - 1) e_ref rho^gamma exp(S / c_v) for s = rho * S (scalars or arrays)."""
    if not model.carries_entropy:
        raise UnsupportedModelError("barotropic models carry no entropy variable")
    positive = (rho > 0.0) & (p > 0.0)
    if not (positive.all() if _is_array(positive) else positive):
        raise InvalidStateError(f"need positive rho and p, got rho={rho}, p={p}")
    scale = (model.gamma - 1.0) * model.e_ref * rho ** model.gamma
    # A scale or pressure below the normal range (a tiny e_ref, say) leaves the
    # logarithm too few significant bits: none at 0, a few in a subnormal.
    for what, value in (("(gamma - 1) e_ref rho**gamma", scale), ("pressure", p)):
        least = value.min() if _is_array(value) else value
        if least < sys.float_info.min:
            raise NumericalError(f"{what} underflows to {'a subnormal' if least else '0'} at rho={rho}")
    S = model.c_v * _lib(p).log(p / scale)
    return rho * S
