import numpy as np
import pytest

import oracles
from shockaudit.eos import FluidState, GasModel
from shockaudit.errors import CalibrationError, InvalidStateError
from shockaudit.lagrangian_maps import augmented_energy_rate, augmented_jump_residual, calibrate_lambda
from shockaudit.rh import hugoniot_solve
from shockaudit.shock1d import (
    Domain1D,
    PiecewiseShockSolution,
    energy_rate,
    potential_rate,
    stationary_shock_example,
)


def random_admissible_solution(rng, motion="fixed"):
    # Desk-scale draws: densities, speeds, and pressures all O(1), so the
    # absolute 1e-12 closure tolerances are meaningful.
    gamma = rng.uniform(1.15, 2.2)
    K = rng.uniform(0.4, 1.5)
    model = GasModel.barotropic(K=K, gamma=gamma)
    left = FluidState(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5))
    ratio = rng.uniform(1.1, 2.2) if rng.random() < 0.5 else rng.uniform(0.45, 0.9)
    rho_r = left.rho * ratio
    jump = hugoniot_solve(left, rho_r, model)
    span = 4.0 + 2.0 * abs(jump.v_s)
    return PiecewiseShockSolution(
        model=model,
        states=(left, jump.right),
        shock_positions_t0=(0.0,),
        shock_speeds=(jump.v_s,),
        domain=Domain1D(-span, span, motion),
    )


def scaled_reference_shock(s):
    # The gamma = 2 reference shock in another velocity unit: u and v_s
    # scaled by s, K by s**2, so lambda scales by s**2.
    model = GasModel.barotropic(K=2.0 / 3.0 * s * s, gamma=2.0)
    return PiecewiseShockSolution(
        model=model,
        states=(FluidState(1.0, 2.0 * s), FluidState(2.0, s)),
        shock_positions_t0=(0.0,),
        shock_speeds=(0.0,),
    )


class TestPotentialRate:
    def test_any_real_densities(self):
        sol = stationary_shock_example(2.0)
        assert potential_rate(sol, [np.float64(2.5), 3]) == potential_rate(sol, (2.5, 3.0))

    def test_one_density_per_region(self):
        with pytest.raises(InvalidStateError, match="one reference density per region"):
            potential_rate(stationary_shock_example(2.0), (1.0, 2.0, 3.0))

    def test_zero_jump(self):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        state = FluidState(1.0, 0.5)
        sol = PiecewiseShockSolution(
            model=model, states=(state, state), shock_positions_t0=(0.0,), shock_speeds=(0.2,)
        )
        assert potential_rate(sol, (1.0, 1.0)) == 0.0

    def test_unit_density_is_not_conserved(self):
        # With the unit reference density the transported field fails the
        # conservative jump condition: |v_s [[lambda]] - [[lambda u]]| = 1.
        sol = stationary_shock_example(2.0)
        assert abs(potential_rate(sol, (1.0, 1.0))) == pytest.approx(1.0, abs=1e-14)

    def test_calibrated_rate_equals_energy_rate(self):
        sol = stationary_shock_example(2.0)
        assert potential_rate(sol, calibrate_lambda(sol)) == pytest.approx(energy_rate(sol), abs=1e-13)

    @staticmethod
    def central_difference(sol, densities, rng):
        # -V is affine in t for constant densities, so the step size only
        # sets the roundoff of the difference quotient.
        t = rng.uniform(0.05, 0.2)
        h = 1e-3
        return (
            oracles.neg_potential(sol, densities, t + h) - oracles.neg_potential(sol, densities, t - h)
        ) / (2.0 * h)

    def test_matches_finite_difference_material(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            sol = random_admissible_solution(rng, motion="material")
            densities = tuple(rng.uniform(-2.0, 2.0, size=2))
            fd = self.central_difference(sol, densities, rng)
            assert potential_rate(sol, densities) == pytest.approx(fd, rel=1e-9, abs=1e-10)

    def test_fixed_endpoints_differ_by_endpoint_transport(self):
        # Fixed walls do not move with the fluid: the potential's rate gains
        # lambda_0 u_0 - lambda_m u_m, which the interface rate leaves out.
        rng = np.random.default_rng(31)
        for _ in range(20):
            sol = random_admissible_solution(rng, motion="fixed")
            densities = tuple(rng.uniform(-2.0, 2.0, size=2))
            fd = self.central_difference(sol, densities, rng)
            endpoints = densities[0] * sol.states[0].u - densities[-1] * sol.states[-1].u
            rate = potential_rate(sol, densities)
            assert fd - rate == pytest.approx(endpoints, rel=1e-9, abs=1e-10)


class TestCalibration:
    def test_reference_values(self):
        # Gauge lambda_left = 0; the interface identity
        # -v_s [[lambda]] + [[lambda u]] = dE/dt then pins lambda_right to
        # dE/dt / u_right = -1/3 at gamma = 2.
        sol = stationary_shock_example(2.0)
        lam_l, lam_r = calibrate_lambda(sol)
        assert lam_l == 0.0
        assert lam_r == pytest.approx(-1.0 / 3.0, abs=1e-13)

    @pytest.mark.parametrize("s", [1e-13, 1e-14, 2.0 ** -47])
    def test_gauge_does_not_depend_on_velocity_unit(self, s):
        # An absolute 1e-13 cut on u - v_s switched to the lambda_right = 0
        # gauge at s = 1e-13 and found no gauge at all at s = 1e-14.
        lam_l, lam_r = calibrate_lambda(scaled_reference_shock(s))
        assert lam_l == 0.0
        assert lam_r == pytest.approx(-s * s / 3.0, rel=1e-12)

    def test_zero_jump_keeps_gauge(self):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        state = FluidState(1.0, 0.5)
        sol = PiecewiseShockSolution(
            model=model, states=(state, state), shock_positions_t0=(0.0,), shock_speeds=(0.0,)
        )
        lam_l, lam_r = calibrate_lambda(sol)
        assert lam_l == 0.0
        assert lam_r == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_system_rejected(self):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        state = FluidState(1.0, 0.5)
        sol = PiecewiseShockSolution(
            model=model, states=(state, state), shock_positions_t0=(0.0,), shock_speeds=(0.5,)
        )
        with pytest.raises(CalibrationError):
            calibrate_lambda(sol)

    def test_conserved_combination_after_calibration(self):
        sol = stationary_shock_example(2.0)
        assert abs(augmented_jump_residual(sol, calibrate_lambda(sol))) < 1e-12

    def test_closure_on_random_admissible_shocks(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            sol = random_admissible_solution(rng)
            lam = calibrate_lambda(sol)
            assert abs(augmented_energy_rate(sol, lam)) < 1e-12
            assert abs(augmented_jump_residual(sol, lam)) < 1e-12


class TestAugmentedEnergyRate:
    def test_calibrated_rate_vanishes(self):
        sol = stationary_shock_example(2.0)
        assert abs(augmented_energy_rate(sol, calibrate_lambda(sol))) < 1e-12

    def test_unit_reference_density_shows_mismatch(self):
        sol = stationary_shock_example(2.0)
        assert augmented_energy_rate(sol, (1.0, 1.0)) == pytest.approx(2.0 / 3.0, abs=1e-13)

    def test_zero_jump(self):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        state = FluidState(1.0, 0.5)
        sol = PiecewiseShockSolution(
            model=model, states=(state, state), shock_positions_t0=(0.0,), shock_speeds=(0.0,)
        )
        assert augmented_energy_rate(sol, (1.0, 1.0)) == 0.0

