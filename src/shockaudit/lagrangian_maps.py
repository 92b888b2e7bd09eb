"""Lagrangian flow maps, the transported reference-density field, and the
shock dissipation potential.

Each constant-state region carries the affine flow map phi(t, X) = X + u t
(unit Jacobian), so the Eulerian reference-density field is
lambda(t, x) = Lambda(x - u t).  The dissipation potential V is defined by
-V(t) = sum of integrals of Lambda over the reference labels currently
occupying each region; its rate decomposes into per-shock interface terms
-v_s [[lambda]] + [[lambda u]] . n plus endpoint terms that vanish when the
domain endpoints move with the fluid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .eos import balance_terms
from .errors import CalibrationError, DomainError, InvalidStateError
from .rh import jump_residual
from .shock1d import PiecewiseShockSolution, energy_rate

ReferenceDensity = Callable[[float], float]


def _as_callable(val) -> ReferenceDensity:
    if callable(val):
        return val
    c = float(val)
    return lambda X: c


def _adaptive_simpson(f, a, b):
    """Adaptive Simpson quadrature with Richardson acceptance, to 1e-10 within 50 halvings."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl = f(lmid)
        fr = f(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if depth >= 50 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, fl, fmid, left, 0.5 * eps, depth + 1) + recurse(
            mid, hi, fmid, fr, fhi, right, 0.5 * eps, depth + 1
        )

    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, 1e-10, 0)


@dataclass(frozen=True)
class FlowMap1D:
    """Per-region affine flow maps plus reference densities for one solution.

    reference_densities holds one entry per region: a constant or a callable
    Lambda(X) on the region's label space.  The default Lambda = 1 makes the
    potential the plain occupied reference volume.
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
        object.__setattr__(self, "reference_densities", tuple(dens))

    def _lambda_fn(self, region: int) -> ReferenceDensity:
        return _as_callable(self.reference_densities[region])

    def lambda_field(self, t: float, x: float) -> float:
        """lambda(t, x) = Lambda(phi^{-1}(t, x)) / J phi; unit Jacobians here."""
        sol = self.solution
        sol.require_in_horizon(t)
        for i in range(len(sol.shock_speeds)):
            if x == sol.shock_position(i, t):
                raise DomainError(f"lambda is two-valued on the shock trajectory at x={x}")
        region = sol.region_index(t, x)
        u = sol.states[region].u
        return self._lambda_fn(region)(x - u * t)

    def lambda_at_shock(self, t: float, i: int) -> tuple[float, float]:
        """One-sided (left, right) lambda limits on shock i at time t."""
        sol = self.solution
        xs = sol.shock_position(i, t)
        u_l = sol.states[i].u
        u_r = sol.states[i + 1].u
        return (
            self._lambda_fn(i)(xs - u_l * t),
            self._lambda_fn(i + 1)(xs - u_r * t),
        )

    def v_shock(self, t: float) -> float:
        """-V(t): reference measure of the labels occupying each region.

        Constant reference densities short-circuit to closed form; general
        densities integrate by adaptive Simpson to 1e-10.
        """
        sol = self.solution
        sol.require_in_horizon(t)
        bounds = sol.region_bounds(t)
        total = 0.0
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            u = sol.states[i].u
            ref_lo, ref_hi = lo - u * t, hi - u * t
            dens = self.reference_densities[i]
            if callable(dens):
                total += _adaptive_simpson(dens, ref_lo, ref_hi)
            else:
                total += float(dens) * (ref_hi - ref_lo)
        return total

    def v_shock_rate(self, t: float, include_boundary: bool = False) -> float:
        """d/dt of -V as per-shock interface terms -v_s [[lambda]] + [[lambda u]] . n.

        The interface sum equals the full rate when the domain endpoints move
        with the fluid.  For fixed endpoints the relative-flux endpoint terms
        are added only when include_boundary is set, so the default always
        reports the interface bookkeeping.
        """
        sol = self.solution
        sol.require_in_horizon(t)
        total = 0.0
        for i in range(len(sol.shock_speeds)):
            total -= lambda_jump_defect(sol, self, i, t)
        if include_boundary and sol.domain.motion == "fixed":
            a, b = sol.endpoints(t)
            u_first = sol.states[0].u
            u_last = sol.states[-1].u
            lam_a = self._lambda_fn(0)(a - u_first * t)
            lam_b = self._lambda_fn(len(sol.states) - 1)(b - u_last * t)
            total += lam_a * u_first - lam_b * u_last
        return total


def calibrate_lambda(sol: PiecewiseShockSolution) -> tuple[float, float]:
    """One-sided constants (lambda_left, lambda_right) reproducing the energy rate.

    Solves the single-shock identity
        -v_s [[lambda]] + [[lambda u]] . n = dE/dt
    for a two-state solution, pinned by the gauge lambda_left = 0 (the
    homogeneous jump relation leaves a one-parameter family; when the right
    state moves with the interface the gauge pins lambda_right = 0 instead).
    With the calibrated pair, E - lambda satisfies a conservative jump
    condition and the augmented energy rate vanishes.
    """
    if len(sol.states) != 2:
        raise InvalidStateError("calibration is defined for two-state, single-shock solutions")
    left, right = sol.states
    v_s = sol.shock_speeds[0]
    target = energy_rate(sol)
    rel_l = left.u - v_s
    rel_r = right.u - v_s
    # lambda_r * rel_r - lambda_l * rel_l = target
    if abs(rel_r) > 1e-13:
        lam_l = 0.0
        lam_r = (target + lam_l * rel_l) / rel_r
        return (lam_l, lam_r)
    if abs(rel_l) > 1e-13:
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
    """dE/dt + dV/dt at t = 0 for the solution and potential; ~0 after calibration.

    Since v_shock tracks -V, this is energy_rate minus the interface rate of
    the potential.  With the unit reference density it reproduces the
    energy-versus-volume mismatch instead.
    """
    return energy_rate(sol) - flow_map.v_shock_rate(0.0)


def lambda_jump_defect(sol: PiecewiseShockSolution, flow_map: FlowMap1D, i: int = 0, t: float = 0.0) -> float:
    """v_s [[lambda]] - [[lambda u]] . n on shock i: nonzero means lambda is not conserved."""
    lam_l, lam_r = flow_map.lambda_at_shock(t, i)
    u_l = sol.states[i].u
    u_r = sol.states[i + 1].u
    return jump_residual(sol.shock_speeds[i], 1.0, lam_l, lam_r, lam_l * u_l, lam_r * u_r)


def augmented_jump_residual(sol: PiecewiseShockSolution, flow_map: FlowMap1D) -> float:
    """Conservative jump residual of E - lambda on the first shock at t = 0.

    The conserved combination inherits E's flux (E + p) u, from
    eos.balance_terms, less lambda's transport lambda u:
    v_s [[E - lambda]] - [[(E + p) u - lambda u]] . n, which vanishes exactly
    for calibrated lambdas.
    """
    left, right = sol.states[0], sol.states[1]
    lam_l, lam_r = flow_map.lambda_at_shock(0.0, 0)
    U_l, F_l = balance_terms(sol.model, left)
    U_r, F_r = balance_terms(sol.model, right)
    f_l = F_l[2] - lam_l * left.u
    f_r = F_r[2] - lam_r * right.u
    return jump_residual(sol.shock_speeds[0], 1.0, U_l[2] - lam_l, U_r[2] - lam_r, f_l, f_r)
