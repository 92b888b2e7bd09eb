"""Rankine-Hugoniot residuals, the Hugoniot jump solver, and admissibility tests.

Conventions used throughout: the interface normal n is +1 or -1 and points
from the jump's `left` member toward its `right` member; jump brackets are
[[q]] = q_right - q_left; v_s is the interface speed measured along n.  A
residual component is v_s [[U]] - [[F]] . n, so the mechanical-energy
residual of a dissipative barotropic shock equals MINUS the energy
dissipation rate (e.g. +1/3 for the stationary reference shock at gamma=2,
whose energy decays at rate 1/3).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .eos import (
    FluidState,
    GasModel,
    balance_terms,
    entropy_density_from_pressure,
    pressure,
    pressure_from,
    require_finite,
    require_valid,
    specific_entropy,
)
from .errors import (
    DegenerateJumpError,
    InvalidJumpError,
    InvalidStateError,
    NoShockError,
    NumericalError,
)

#: Absolute residual level accepted as "satisfies the jump conditions": the default
#: of `tolerances.residual` (the config's jump gate, the rh-solve and shock-example audits).
RESIDUAL_TOL = 1e-10
#: Slack allowed when testing the entropy/dissipation inequality.
ADMISSIBILITY_TOL = 1e-12
#: Mass/momentum residual a jump must meet before its admissibility is tested.
ADMISSIBILITY_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class ShockJump:
    """A left/right state pair with its interface normal and speed."""

    left: FluidState
    right: FluidState
    n: float = 1.0
    v_s: float = 0.0

    def __post_init__(self):
        if abs(self.n) != 1.0:
            raise InvalidStateError(f"normal must be +1 or -1, got {self.n}")
        require_finite("jump", v_s=self.v_s)


@dataclass(frozen=True)
class RhResidual:
    """Per-conservation-law residual of a candidate jump (zero means satisfied)."""

    mass: float
    momentum: float
    energy: float

    def max_abs(self) -> float:
        return max(abs(self.mass), abs(self.momentum), abs(self.energy))

    def conserved_max_abs(self) -> float:
        """Max residual over mass and momentum only (the laws every model shares)."""
        return max(abs(self.mass), abs(self.momentum))

    def as_dict(self) -> dict:
        return {
            "mass": self.mass,
            "momentum": self.momentum,
            "energy": self.energy,
            "entropy_var": 0.0,  # always 0: kept for the fixed five-row residual CSV layout
        }


def jump_residual(v_s: float, n: float, q_l, q_r, f_l, f_r):
    """Jump-condition residual v_s [[q]] - [[f]] n of one conservation law."""
    return v_s * (q_r - q_l) - (f_r - f_l) * n


def rh_residuals(jump: ShockJump, model: GasModel) -> RhResidual:
    """Evaluate the mass, momentum and energy jump-condition residuals.

    A residual that is not finite (finite states whose flux overflows a
    double) is a NumericalError naming the first such law.
    """
    n, v_s = jump.n, jump.v_s
    U_l, F_l = balance_terms(model, jump.left)
    U_r, F_r = balance_terms(model, jump.right)
    res = RhResidual(*(
        jump_residual(v_s, n, q_l, q_r, f_l, f_r) for q_l, q_r, f_l, f_r in zip(U_l, U_r, F_l, F_r)
    ))
    for law, value in res.as_dict().items():
        if not math.isfinite(value):
            raise NumericalError(f"non-finite {law} jump residual {value}")
    return res


def gated_residual(res: RhResidual, model: GasModel) -> float:
    """The residual a jump is gated on against RESIDUAL_TOL (or its configured value).

    Every law for a model that carries entropy; mass and momentum only for a
    barotropic one, whose mechanical energy is legitimately dissipated at a shock.
    """
    return res.max_abs() if model.carries_entropy else res.conserved_max_abs()


def interface_energy_rate(jump: ShockJump, model: GasModel) -> float:
    """Energy production rate of the jump: -v_s [[E]] + [[(E+p)u]] . n.

    Negative for admissible barotropic shocks (dissipation); zero for exact
    full-Euler shocks.  Equals minus the energy component of rh_residuals.
    """
    return -rh_residuals(jump, model).energy


def shock_speed_from_mass(left: FluidState, right: FluidState, n: float = 1.0) -> float:
    """Interface speed forced by the mass jump condition, [[rho u]] . n / [[rho]]."""
    d_rho = right.rho - left.rho
    if d_rho == 0.0 or abs(d_rho) < 1e-14 * max(left.rho, right.rho):
        raise DegenerateJumpError(
            "equal densities: interface speed is not determined by the mass condition"
        )
    return (right.rho * right.u - left.rho * left.u) * n / d_rho


def _admissibility_margin(jump: ShockJump, model: GasModel) -> float:
    """Signed quantity that is <= 0 exactly for admissible jumps.

    Barotropic: the mechanical-energy production rate.  Entropy model: the
    specific-entropy DROP from upstream to downstream (upstream identified by
    the sign of the mass flux through the interface).
    """
    if not model.carries_entropy:
        return interface_energy_rate(jump, model)
    flux = jump.left.rho * (jump.left.u - jump.v_s * jump.n) * jump.n
    if abs(flux) < 1e-12:
        return 0.0
    if flux > 0.0:
        upstream, downstream = jump.left, jump.right
    else:
        upstream, downstream = jump.right, jump.left
    return specific_entropy(upstream) - specific_entropy(downstream)


def entropy_admissible(jump: ShockJump, model: GasModel) -> bool:
    """True iff the jump is the physically admissible branch.

    Barotropic: mechanical energy must not increase across the shock.
    Entropy model: downstream specific entropy must not be below upstream.
    Either margin may exceed zero by ADMISSIBILITY_TOL.
    The jump must already satisfy mass and momentum to within
    ADMISSIBILITY_RESIDUAL_TOL.
    """
    res = rh_residuals(jump, model)
    if res.conserved_max_abs() >= ADMISSIBILITY_RESIDUAL_TOL:
        raise InvalidJumpError(
            "admissibility queried on a jump violating mass/momentum conditions "
            f"(residual {res.conserved_max_abs():.3e} >= {ADMISSIBILITY_RESIDUAL_TOL:.1e})"
        )
    return _admissibility_margin(jump, model) <= ADMISSIBILITY_TOL


def hugoniot_solve(
    left: FluidState,
    rho_right: float,
    model: GasModel,
    branch: str = "admissible",
) -> ShockJump:
    """The jump from left to a state of density rho_right, on the requested branch.

    Mass and momentum reduce to the mass-flux relation
    m^2 = [[p]] / (tau_L - tau_R), whose two roots +-m are the two branches:
    branch selects the admissible (entropy-satisfying) root or the
    "inadmissible" companion.  The models differ only in the downstream
    pressure: the barotropic EOS at rho_right, or the ideal-gas
    internal-energy jump relation, which is linear in p_R.  The right state
    carries s exactly when the model does.  Raises NoShockError when the
    requested compression or expansion leaves the physical branch (for the
    ideal gas, a density ratio at or beyond (gamma+1)/(gamma-1)).
    """
    require_valid(model, left)
    if not rho_right > 0.0:
        raise InvalidStateError(f"rho_right must be positive, got {rho_right}")
    if rho_right == left.rho:
        raise DegenerateJumpError("rho_right equals the left density: no jump to solve")

    tau_l = 1.0 / left.rho
    tau_r = 1.0 / rho_right
    p_l = pressure(model, left)
    if model.carries_entropy:
        g = model.gamma
        denom = (g + 1.0) * tau_r - (g - 1.0) * tau_l
        numer = (g + 1.0) * tau_l - (g - 1.0) * tau_r
        # Both differences cancel terms of size up to (g + 1)(tau_l + tau_r);
        # within a few roundoffs of that the limiting density ratio is reached
        # and the sign, hence the shock, is not determined.
        floor = 8.0 * sys.float_info.epsilon * (g + 1.0) * (tau_l + tau_r)
        if denom <= floor or numer <= floor:
            raise NoShockError(
                f"density ratio {rho_right / left.rho:.4g} has no shock for gamma={g:.4g}"
            )
        p_r = p_l * numer / denom
        s_r = entropy_density_from_pressure(model, rho_right, p_r)
    else:
        p_r, s_r = pressure_from(model, rho_right), None
    msq = (p_r - p_l) / (tau_l - tau_r)
    if msq <= 0.0:
        raise NoShockError("no real mass flux connects the requested densities")
    m = math.sqrt(msq)

    candidates = []
    for flux in (m, -m):
        v_s = left.u - flux * tau_l
        u_r = left.u - flux * (tau_l - tau_r)
        right = FluidState(rho_right, u_r, s_r)
        candidates.append(ShockJump(left=left, right=right, n=1.0, v_s=v_s))
    candidates.sort(key=lambda jump: _admissibility_margin(jump, model))
    if branch == "admissible":
        return candidates[0]
    if branch == "inadmissible":
        return candidates[1]
    raise InvalidStateError(f"unknown branch {branch!r}")
