"""Gas models and the thermodynamic functionals derived from them.

Each equation-of-state family is one row of FAMILIES: its parameters,
whether it carries entropy, and its closures.  Two families are supported,
both in dimensionless desk units:

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
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, NamedTuple

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
    """Equation-of-state family tags, one per row of FAMILIES."""

    BAROTROPIC_POLYTROPIC = "barotropic_polytropic"
    IDEAL_GAS_ENTROPY = "ideal_gas_entropy"


class Family(NamedTuple):
    """One row of FAMILIES; each closure takes the model first."""

    parameters: dict  # name -> (default, None if required; bound it must exceed; error text)
    carries_entropy: bool
    pressure: Callable  # p(rho, eps)
    energy: Callable  # eps(rho, S) at specific entropy S (None without entropy)
    sound_speed2: Callable  # c**2(rho, p) = dp/drho at fixed S


def _gamma_p_over_rho(model, rho, p):
    return model.gamma * p / rho  # gamma K rho**(gamma - 1) for the polytrope, without a second power


_GAMMA = (None, 1.0, "adiabatic exponent must exceed 1")
FAMILIES = {
    GasKind.BAROTROPIC_POLYTROPIC: Family(
        parameters={"K": (None, 0.0, "pressure scale K must be positive"), "gamma": _GAMMA},
        carries_entropy=False,
        pressure=lambda model, rho, eps: model.K * rho ** model.gamma,
        energy=lambda model, rho, S: model.K / (model.gamma - 1.0) * rho ** model.gamma,
        sound_speed2=_gamma_p_over_rho,
    ),
    GasKind.IDEAL_GAS_ENTROPY: Family(
        parameters={"gamma": _GAMMA, "e_ref": (1.0, 0.0, "e_ref must be positive"),
                    "c_v": (1.0, 0.0, "c_v must be positive")},
        carries_entropy=True,
        pressure=lambda model, rho, eps: (model.gamma - 1.0) * eps,  # rho**2 de/drho at fixed S
        energy=lambda model, rho, S: model.e_ref * rho ** model.gamma * math.exp(S / model.c_v),
        sound_speed2=_gamma_p_over_rho,
    ),
}


@dataclass(frozen=True)
class GasModel:
    """Immutable equation-of-state description.

    A model sets the parameters its FAMILIES row lists, K and gamma for the
    polytrope (K its pressure scale), gamma, e_ref and c_v for the ideal gas
    (its reference energy scale and specific heat); the others are None.
    """

    kind: GasKind
    K: float | None = None
    gamma: float | None = None
    e_ref: float | None = None
    c_v: float | None = None

    def __post_init__(self):
        family = FAMILIES.get(self.kind)
        if family is None:
            raise InvalidStateError(f"unknown gas kind {self.kind!r}")
        unlisted = [f.name for f in fields(self)[1:] if f.name not in family.parameters]
        foreign = [name for name in unlisted if getattr(self, name) is not None]
        if foreign:
            raise InvalidStateError(f"a {self.kind.value} model takes no {foreign}")
        for name, (default, floor, rule) in family.parameters.items():
            value = default if getattr(self, name) is None else getattr(self, name)
            if value is None:
                raise InvalidStateError(f"a {self.kind.value} model needs {name}")
            require_finite("gas model", **{name: value})
            if not value > floor:
                raise InvalidStateError(f"{rule}, got {value}")
            object.__setattr__(self, name, value)

    @classmethod
    def barotropic(cls, K: float, gamma: float) -> "GasModel":
        return cls(GasKind.BAROTROPIC_POLYTROPIC, K=K, gamma=gamma)

    @classmethod
    def ideal_gas(cls, gamma: float, e_ref: float | None = None, c_v: float | None = None) -> "GasModel":
        return cls(GasKind.IDEAL_GAS_ENTROPY, gamma=gamma, e_ref=e_ref, c_v=c_v)

    @property
    def carries_entropy(self) -> bool:
        return FAMILIES[self.kind].carries_entropy


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
    """Raise unless the state carries an entropy density exactly when the model does."""
    if (state.s is None) == model.carries_entropy:
        raise InvalidStateError("entropy density missing for an entropy-carrying model" if state.s is None
                                else "entropy density supplied to a barotropic model")


def specific_entropy(state: FluidState) -> float:
    """S = s / rho."""
    if state.s is None:
        raise InvalidStateError("state carries no entropy density")
    return state.s / state.rho


def pressure_from(model: GasModel, rho, eps=None):
    """Pressure closure of the model's family."""
    return FAMILIES[model.kind].pressure(model, rho, eps)


def sound_speed_from(model: GasModel, rho, p):
    """c = sqrt(dp/drho at fixed specific entropy)."""
    return _lib(p).sqrt(FAMILIES[model.kind].sound_speed2(model, rho, p))


def pressure(model: GasModel, state: FluidState) -> float:
    """Pressure of the state, from the closed-form equation of state."""
    require_valid(model, state)
    eps = internal_energy_density(model, state) if model.carries_entropy else None
    return pressure_from(model, state.rho, eps)


def internal_energy_density(model: GasModel, state: FluidState) -> float:
    """Internal (or mechanical-internal) energy per unit volume, eps = rho * e."""
    require_valid(model, state)
    S = None if state.s is None else state.s / state.rho
    return FAMILIES[model.kind].energy(model, state.rho, S)


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
