"""Lagrangian flow maps, constant one-sided reference densities, and the
shock dissipation potential.

Each constant-state region carries the affine flow map phi(t, X) = X + u t
(unit Jacobian) and one constant reference density lambda_i, so the
transported field lambda(t, x) is lambda_i on region i.  The dissipation
potential V is defined by -V(t) = sum of lambda_i times the reference length
of the labels currently occupying region i; its rate decomposes into
per-shock interface terms -v_s [[lambda]] + [[lambda u]] . n plus endpoint
terms that vanish when the domain endpoints move with the fluid.  With
constant densities that rate does not depend on t.

calibrate_lambda fixes the two one-sided constants that close energy-audit's
augmented energy budget.  A non-constant Lambda(X) comes back only with a
check that reads one, such as the action-variation oracle in ROADMAP.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eos import balance_terms
from .errors import CalibrationError, InvalidStateError
from .rh import jump_residual
from .shock1d import PiecewiseShockSolution, energy_rate


@dataclass(frozen=True)
class FlowMap1D:
    """Per-region affine flow maps plus constant reference densities for one solution.

    reference_densities holds one constant per region.  The default
    lambda = 1 makes the potential the plain occupied reference volume.
    """

    solution: PiecewiseShockSolution
    reference_densities: tuple = ()

    def __post_init__(self):
        n_regions = len(self.solution.states)
        dens = self.reference_densities
        if not dens:
            dens = (1.0,) * n_regions
        if len(dens) != n_regions:
            raise InvalidStateError(
                f"need one reference density per region ({n_regions}), got {len(dens)}"
            )
        object.__setattr__(self, "reference_densities", tuple(float(d) for d in dens))

    def v_shock_rate(self) -> float:
        """d/dt of -V as per-shock interface terms -v_s [[lambda]] + [[lambda u]] . n.

        The interface sum equals the full rate when the domain endpoints move
        with the fluid; fixed endpoints add lambda_0 u_0 - lambda_m u_m, which
        this rate leaves out.
        """
        total = 0.0
        for i in range(len(self.solution.shock_speeds)):
            total -= lambda_jump_defect(self.solution, self, i)
        return total


def calibrate_lambda(sol: PiecewiseShockSolution) -> tuple[float, float]:
    """One-sided constants (lambda_left, lambda_right) reproducing the energy rate.

    Solves the single-shock identity
        -v_s [[lambda]] + [[lambda u]] . n = dE/dt
    for a two-state solution, pinned by the gauge lambda_left = 0 (the
    homogeneous jump relation leaves a one-parameter family; when the right
    state moves with the interface the gauge pins lambda_right = 0 instead).
    A relative speed u - v_s counts as zero when it is at most 1e-13 times
    the largest of |u_left|, |u_right| and |v_s|, so the gauge does not
    depend on the velocity unit.  With the calibrated pair, E - lambda
    satisfies a conservative jump condition and the augmented energy rate
    vanishes.
    """
    if len(sol.states) != 2:
        raise InvalidStateError("calibration is defined for two-state, single-shock solutions")
    left, right = sol.states
    v_s = sol.shock_speeds[0]
    target = energy_rate(sol)
    rel_l = left.u - v_s
    rel_r = right.u - v_s
    cut = 1e-13 * max(abs(left.u), abs(right.u), abs(v_s))
    # lambda_r * rel_r - lambda_l * rel_l = target
    if abs(rel_r) > cut:
        lam_l = 0.0
        lam_r = (target + lam_l * rel_l) / rel_r
        return (lam_l, lam_r)
    if abs(rel_l) > cut:
        lam_r = 0.0
        lam_l = (lam_r * rel_r - target) / rel_l
        return (lam_l, lam_r)
    raise CalibrationError(
        "both states move with the interface: the system fixes nothing beyond the gauge"
    )


def calibrated_flow_map(sol: PiecewiseShockSolution) -> FlowMap1D:
    """FlowMap1D whose constant reference densities carry the calibrated lambdas."""
    lam_l, lam_r = calibrate_lambda(sol)
    return FlowMap1D(sol, (lam_l, lam_r))


def augmented_energy_rate(sol: PiecewiseShockSolution, flow_map: FlowMap1D) -> float:
    """dE/dt + dV/dt for the solution and potential; ~0 after calibration.

    This is energy_rate minus the interface rate of -V; with the unit
    density it reproduces the energy-versus-volume mismatch instead.
    """
    return energy_rate(sol) - flow_map.v_shock_rate()


def lambda_jump_defect(sol: PiecewiseShockSolution, flow_map: FlowMap1D, i: int = 0) -> float:
    """v_s [[lambda]] - [[lambda u]] . n on shock i: nonzero means lambda is not conserved."""
    lam_l, lam_r = flow_map.reference_densities[i : i + 2]
    u_l = sol.states[i].u
    u_r = sol.states[i + 1].u
    return jump_residual(sol.shock_speeds[i], 1.0, lam_l, lam_r, lam_l * u_l, lam_r * u_r)


def augmented_jump_residual(sol: PiecewiseShockSolution, flow_map: FlowMap1D) -> float:
    """Conservative jump residual of E - lambda on the first shock.

    The conserved combination inherits E's flux (E + p) u, from
    eos.balance_terms, less lambda's transport lambda u:
    v_s [[E - lambda]] - [[(E + p) u - lambda u]] . n, which vanishes exactly
    for calibrated lambdas.
    """
    left, right = sol.states[0], sol.states[1]
    lam_l, lam_r = flow_map.reference_densities[:2]
    U_l, F_l = balance_terms(sol.model, left)
    U_r, F_r = balance_terms(sol.model, right)
    f_l = F_l[2] - lam_l * left.u
    f_r = F_r[2] - lam_r * right.u
    return jump_residual(sol.shock_speeds[0], 1.0, U_l[2] - lam_l, U_r[2] - lam_r, f_l, f_r)
