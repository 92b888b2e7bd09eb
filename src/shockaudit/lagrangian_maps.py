"""The shock dissipation potential, held as its constant reference densities.

Each constant-state region carries the affine flow map phi(t, X) = X + u t
(unit Jacobian) and one constant reference density lambda_i, so the
transported field lambda(t, x) is lambda_i on region i.  The dissipation
potential V is defined by -V(t) = sum of lambda_i times the reference length
of the labels currently occupying region i.  The potential is therefore its
lambda tuple, one value per region: shock1d.potential_rate turns that tuple
into the rate of -V, which does not depend on t.

calibrate_lambda fixes the two one-sided constants that close energy-audit's
augmented energy budget.  A non-constant Lambda(X) comes back only with a
check that reads one, such as the action-variation oracle in ROADMAP.md.
"""

from __future__ import annotations

from .eos import balance_terms
from .errors import CalibrationError, InvalidStateError
from .rh import jump_residual
from .shock1d import PiecewiseShockSolution, energy_rate, potential_rate


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


def augmented_energy_rate(sol: PiecewiseShockSolution, lambdas: tuple[float, ...]) -> float:
    """dE/dt + dV/dt for the solution and potential; ~0 after calibration.

    This is energy_rate minus the interface rate of -V; with unit densities
    it reproduces the energy-versus-volume mismatch instead.
    """
    return energy_rate(sol) - potential_rate(sol, lambdas)


def augmented_jump_residual(sol: PiecewiseShockSolution, lambdas: tuple[float, ...]) -> float:
    """Conservative jump residual of E - lambda on the shock of a two-state solution.

    The conserved combination inherits E's flux (E + p) u, from
    eos.balance_terms, less lambda's transport lambda u:
    v_s [[E - lambda]] - [[(E + p) u - lambda u]] . n, which vanishes exactly
    for calibrated lambdas.
    """
    if len(sol.states) != 2 or len(lambdas) != 2:
        raise InvalidStateError(
            "the augmented jump residual is defined for two-state, single-shock solutions "
            "and one lambda per side"
        )
    left, right = sol.states
    lam_l, lam_r = lambdas
    U_l, F_l = balance_terms(sol.model, left)
    U_r, F_r = balance_terms(sol.model, right)
    f_l = F_l[2] - lam_l * left.u
    f_r = F_r[2] - lam_r * right.u
    return jump_residual(sol.shock_speeds[0], 1.0, U_l[2] - lam_l, U_r[2] - lam_r, f_l, f_r)
