"""Exact piecewise-constant 1D shock solutions and their energy bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .eos import FluidState, GasModel, require_finite, require_valid
from .errors import DomainError, InvalidStateError
from .rh import ShockJump, interface_energy_rate

#: Safety margin subtracted from shock-collision times when fixing the horizon.
HORIZON_MARGIN = 1e-9


@dataclass(frozen=True)
class Domain1D:
    """Spatial domain with endpoint motion: fixed walls or material endpoints.

    Material endpoints advect with the local fluid velocity, so the domain is
    a moving control volume carrying the same particles.
    """

    x_min: float
    x_max: float
    motion: str = "fixed"

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise InvalidStateError(f"empty domain [{self.x_min}, {self.x_max}]")
        if self.motion not in ("fixed", "material"):
            raise InvalidStateError(f"unknown domain motion {self.motion!r}")


@dataclass(frozen=True)
class PiecewiseShockSolution:
    """Ordered constant states separated by straight-line shock trajectories.

    states holds m+1 states for m shocks; shock i sits at
    shock_positions_t0[i] + shock_speeds[i] * t and separates states[i]
    (left) from states[i+1] (right).  Construction checks structure only;
    whether the jumps hold is for the audits to say.
    """

    model: GasModel
    states: tuple[FluidState, ...]
    shock_positions_t0: tuple[float, ...]
    shock_speeds: tuple[float, ...]
    domain: Domain1D = Domain1D(-1.0, 1.0)
    horizon: tuple[float, float] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "shock_positions_t0", tuple(float(x) for x in self.shock_positions_t0))
        object.__setattr__(self, "shock_speeds", tuple(float(v) for v in self.shock_speeds))
        m = len(self.shock_positions_t0)
        if len(self.states) != m + 1:
            raise InvalidStateError(f"{m} shocks need {m + 1} states, got {len(self.states)}")
        if len(self.shock_speeds) != m:
            raise InvalidStateError("one speed per shock is required")
        if any(b <= a for a, b in zip(self.shock_positions_t0, self.shock_positions_t0[1:])):
            raise InvalidStateError("shock positions must be strictly increasing")
        if m and not (
            self.domain.x_min < self.shock_positions_t0[0]
            and self.shock_positions_t0[-1] < self.domain.x_max
        ):
            raise InvalidStateError("shocks must start strictly inside the domain")
        for i, (x, v_s) in enumerate(zip(self.shock_positions_t0, self.shock_speeds)):
            require_finite(f"shock {i}", position=x, v_s=v_s)
        for state in self.states:
            require_valid(self.model, state)
        object.__setattr__(self, "horizon", self._compute_horizon())

    def _compute_horizon(self):
        t_lo, t_hi = -math.inf, math.inf
        for i in range(len(self.shock_positions_t0) - 1):
            dx = self.shock_positions_t0[i + 1] - self.shock_positions_t0[i]
            dv = self.shock_speeds[i] - self.shock_speeds[i + 1]
            if dv > 0.0:
                t_hi = min(t_hi, dx / dv - HORIZON_MARGIN)
            elif dv < 0.0:
                t_lo = max(t_lo, dx / dv + HORIZON_MARGIN)
        return (t_lo, t_hi)

    def jumps(self) -> tuple[ShockJump, ...]:
        """Adjacent state pairs as jumps with n = +1 and the stored speeds."""
        return tuple(
            ShockJump(left=self.states[i], right=self.states[i + 1], n=1.0, v_s=self.shock_speeds[i])
            for i in range(len(self.shock_speeds))
        )

    def shock_position(self, i: int, t: float) -> float:
        return self.shock_positions_t0[i] + self.shock_speeds[i] * t

    def endpoints(self, t: float) -> tuple[float, float]:
        """Domain endpoints at time t, honoring the endpoint motion."""
        if self.domain.motion == "material":
            return (
                self.domain.x_min + self.states[0].u * t,
                self.domain.x_max + self.states[-1].u * t,
            )
        return (self.domain.x_min, self.domain.x_max)

    def region_bounds(self, t: float) -> list[float]:
        """Breakpoints [a(t), x_1(t), ..., x_m(t), b(t)] delimiting the regions."""
        a, b = self.endpoints(t)
        bounds = [a] + [self.shock_position(i, t) for i in range(len(self.shock_speeds))] + [b]
        if any(hi < lo for lo, hi in zip(bounds, bounds[1:])):
            raise DomainError(f"a shock has left the domain at t={t}")
        return bounds

    def require_in_horizon(self, t: float) -> None:
        if not (self.horizon[0] <= t <= self.horizon[1]):
            raise DomainError(f"t={t} outside the validity horizon {self.horizon}")

    def region_index(self, t: float, x: float) -> int:
        """Index of the region containing x at time t (on a shock: the left region)."""
        self.require_in_horizon(t)
        a, b = self.endpoints(t)
        if not (a <= x <= b):
            raise DomainError(f"x={x} outside the domain [{a}, {b}] at t={t}")
        idx = 0
        for i in range(len(self.shock_speeds)):
            if self.shock_position(i, t) < x:
                idx = i + 1
        return idx


def evaluate(sol: PiecewiseShockSolution, t: float, x: float) -> FluidState:
    """State at (t, x); points exactly on a shock trajectory report the left state."""
    return sol.states[sol.region_index(t, x)]


def stationary_shock_example(gamma: float, motion: str = "fixed") -> PiecewiseShockSolution:
    """Reference stationary-shock solution for the barotropic polytrope on [-1, 1].

    States (rho, u) = (1, 2) and (2, 1) form a compressive shock frozen at
    x = 0 exactly when the pressure scale is K = 2 / (2**gamma - 1); this is
    the unique K making both jump conditions hold with zero interface speed.
    """
    if not gamma > 1.0:
        raise InvalidStateError(f"adiabatic exponent must exceed 1, got {gamma}")
    K = 2.0 / (2.0 ** gamma - 1.0)
    model = GasModel.barotropic(K=K, gamma=gamma)
    states = (FluidState(1.0, 2.0), FluidState(2.0, 1.0))
    return PiecewiseShockSolution(
        model=model,
        states=states,
        shock_positions_t0=(0.0,),
        shock_speeds=(0.0,),
        domain=Domain1D(-1.0, 1.0, motion),
    )


def translated(sol: PiecewiseShockSolution, dx: float) -> PiecewiseShockSolution:
    """The same solution shifted by dx (shocks and domain move together)."""
    return PiecewiseShockSolution(
        model=sol.model,
        states=sol.states,
        shock_positions_t0=tuple(x + dx for x in sol.shock_positions_t0),
        shock_speeds=sol.shock_speeds,
        domain=Domain1D(sol.domain.x_min + dx, sol.domain.x_max + dx, sol.domain.motion),
    )


def energy_rate(sol: PiecewiseShockSolution) -> float:
    """Rate of change of total energy from the shock interfaces.

    Per shock the contribution is -v_s [[E]] + [[(E+p)u]] . n, the energy
    production of the interface (negative for dissipative barotropic shocks).
    Endpoint flux terms are left out: this is the pure interface budget.
    """
    return sum(interface_energy_rate(jump, sol.model) for jump in sol.jumps())


def length_rate(sol: PiecewiseShockSolution) -> float:
    """Rate of change of material length via the interface transport formula.

    With the unit reference density the per-shock term -v_s [[1]] + [[u]] . n
    reduces to the velocity jump, so the total telescopes to u_last - u_first.
    """
    return sum(jump.right.u - jump.left.u for jump in sol.jumps())


def volume_potential_mismatch(sol: PiecewiseShockSolution) -> tuple[float, float, float]:
    """(dEdt, neg_dVdt, gap) comparing energy decay against the volume rate.

    neg_dVdt is the rate of the occupied reference volume (unit reference
    density), i.e. the length rate.  A positive gap shows the energy budget
    is not reproduced by the volume functional alone.
    """
    dedt = energy_rate(sol)
    neg_dvdt = length_rate(sol)
    return (dedt, neg_dvdt, abs(dedt - neg_dvdt))
