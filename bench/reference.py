"""Closed-form reference values for checking shockaudit's CLI output.

Everything here is written from the formulas, not imported from shockaudit,
so a fault in the program cannot hide inside its own check.  Conventions
match the program: the normal points from left to right (n = +1), brackets
are right minus left, and a residual is v_s [[U]] - [[F]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Gas:
    """Barotropic polytrope (entropy=False) or ideal gas with entropy density."""

    gamma: float
    K: float = 1.0
    e_ref: float = 1.0
    c_v: float = 1.0
    entropy: bool = False

    def config(self) -> dict:
        if self.entropy:
            return {"kind": "ideal_gas_entropy", "gamma": self.gamma,
                    "e_ref": self.e_ref, "c_v": self.c_v}
        return {"kind": "barotropic_polytropic", "K": self.K, "gamma": self.gamma}

    def internal_energy(self, rho: float, s: float | None) -> float:
        if self.entropy:
            return self.e_ref * rho ** self.gamma * math.exp(s / (rho * self.c_v))
        return self.K / (self.gamma - 1.0) * rho ** self.gamma

    def pressure(self, rho: float, s: float | None) -> float:
        if self.entropy:
            return (self.gamma - 1.0) * self.internal_energy(rho, s)
        return self.K * rho ** self.gamma

    def entropy_density(self, rho: float, p: float) -> float:
        """s = rho S with p = (gamma - 1) e_ref rho^gamma exp(S / c_v)."""
        return rho * self.c_v * math.log(p / ((self.gamma - 1.0) * self.e_ref * rho ** self.gamma))


@dataclass(frozen=True)
class State:
    rho: float
    u: float
    s: float | None = None

    def config(self) -> dict:
        out = {"rho": self.rho, "u": self.u}
        if self.s is not None:
            out["s"] = self.s
        return out


def reference_K(gamma: float) -> float:
    """Pressure scale that freezes (1, 2)|(2, 1) at x = 0."""
    return 2.0 / (2.0 ** gamma - 1.0)


REFERENCE_LEFT = State(1.0, 2.0)
REFERENCE_RIGHT = State(2.0, 1.0)


def _terms(gas: Gas, st: State):
    """(U, F) per law: mass, momentum, total energy."""
    p = gas.pressure(st.rho, st.s)
    e = 0.5 * st.rho * st.u ** 2 + gas.internal_energy(st.rho, st.s)
    return (
        (st.rho, st.rho * st.u),
        (st.rho * st.u, st.rho * st.u ** 2 + p),
        (e, (e + p) * st.u),
    )


def jump_residuals(gas: Gas, left: State, right: State, v_s: float):
    """[(residual, scale)] for mass, momentum and energy.

    scale is the sum of the magnitudes the residual cancels, so a check can
    be relative to the size of the fluxes involved.
    """
    out = []
    for (u_l, f_l), (u_r, f_r) in zip(_terms(gas, left), _terms(gas, right)):
        res = v_s * (u_r - u_l) - (f_r - f_l)
        scale = abs(v_s) * (abs(u_r) + abs(u_l)) + abs(f_r) + abs(f_l)
        out.append((res, scale))
    return out


def energy_rate(gas: Gas, left: State, right: State, v_s: float) -> float:
    """Energy production of the interface, -v_s [[E]] + [[(E + p) u]]."""
    return -jump_residuals(gas, left, right, v_s)[2][0]


def hugoniot(gas: Gas, left: State, rho_right: float, branch: str = "admissible"):
    """Downstream State and v_s connecting left to rho_right.

    The mass flux m = rho_L (u_L - v_s) satisfies m^2 = [[p]] / (tau_L - tau_R);
    the ideal-gas downstream pressure follows from the Hugoniot energy
    relation.  The admissible root is the compressive one: fluid crosses
    from the thinner side into the denser side, so sign(m) is the sign of
    rho_right - rho_left.
    """
    g = gas.gamma
    tau_l, tau_r = 1.0 / left.rho, 1.0 / rho_right
    p_l = gas.pressure(left.rho, left.s)
    if gas.entropy:
        p_r = p_l * ((g + 1.0) * tau_l - (g - 1.0) * tau_r) / ((g + 1.0) * tau_r - (g - 1.0) * tau_l)
    else:
        p_r = gas.K * rho_right ** g
    m = math.sqrt((p_r - p_l) / (tau_l - tau_r))
    compressive = math.copysign(m, rho_right - left.rho)
    m = compressive if branch == "admissible" else -compressive
    s_r = gas.entropy_density(rho_right, p_r) if gas.entropy else None
    right = State(rho_right, left.u - m * (tau_l - tau_r), s_r)
    return right, left.u - m * tau_l


def close(value: float, expected: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return abs(value - expected) <= max(rel * abs(expected), abs_tol)
