import numpy as np
import pytest

from shockaudit.eos import FluidState, GasModel
from shockaudit.errors import CalibrationError, DomainError
from shockaudit.lagrangian_maps import (
    FlowMap1D,
    augmented_energy_rate,
    augmented_jump_residual,
    calibrate_lambda,
    calibrated_flow_map,
    lambda_jump_defect,
)
from shockaudit.rh import hugoniot_solve
from shockaudit.shock1d import (
    Domain1D,
    PiecewiseShockSolution,
    energy_rate,
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


class TestLambdaField:
    def test_unit_reference_density(self):
        sol = stationary_shock_example(2.0)
        fm = FlowMap1D(sol)
        for t, x in [(0.0, -0.5), (0.3, 0.7), (0.9, -0.1)]:
            assert fm.lambda_field(t, x) == 1.0

    def test_constant_scaling(self):
        sol = stationary_shock_example(2.0)
        fm = FlowMap1D(sol, (2.0, 2.0))
        assert fm.lambda_field(0.2, 0.5) == 2.0

    def test_reference_density_composition(self):
        # Left piece advects at u = 2, so lambda(t, x) = Lambda(x - 2 t).
        sol = stationary_shock_example(2.0)
        profile = lambda X: 1.0 + X ** 2 / (1.0 + X ** 2)
        fm = FlowMap1D(sol, (profile, 1.0))
        t, x = 0.3, -0.4
        assert fm.lambda_field(t, x) == pytest.approx(profile(x - 2.0 * t), rel=1e-14)

    def test_on_shock_query_rejected(self):
        sol = stationary_shock_example(2.0)
        fm = FlowMap1D(sol)
        with pytest.raises(DomainError):
            fm.lambda_field(0.2, 0.0)


class TestVShock:
    def test_initial_reference_length(self):
        sol = stationary_shock_example(2.0)
        assert FlowMap1D(sol).v_shock(0.0) == pytest.approx(2.0, abs=1e-14)

    def test_material_endpoints_shrink_reference_measure(self):
        sol = stationary_shock_example(2.0, motion="material")
        assert FlowMap1D(sol).v_shock(0.1) == pytest.approx(1.9, abs=1e-12)

    def test_linearity_in_reference_density(self):
        sol = stationary_shock_example(2.0)
        base = FlowMap1D(sol).v_shock(0.25)
        scaled = FlowMap1D(sol, (3.0, 3.0)).v_shock(0.25)
        assert scaled == pytest.approx(3.0 * base, rel=1e-13)

    def test_quadrature_matches_closed_form(self):
        sol = stationary_shock_example(2.0)
        profile = lambda X: 2.0 + np.sin(X)
        fm = FlowMap1D(sol, (profile, profile))
        # Regions at t=0: [-1, 0] and [0, 1], both with unit Jacobian.
        exact = 2.0 * 2.0 + (np.cos(-1.0) - np.cos(0.0)) + (np.cos(0.0) - np.cos(1.0))
        assert fm.v_shock(0.0) == pytest.approx(exact, abs=1e-10)


class TestVShockRate:
    def test_reference_interface_rate(self):
        sol = stationary_shock_example(2.0)
        assert FlowMap1D(sol).v_shock_rate(0.0) == pytest.approx(-1.0, abs=1e-14)

    def test_zero_jump(self):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        state = FluidState(1.0, 0.5)
        sol = PiecewiseShockSolution(
            model=model, states=(state, state), shock_positions_t0=(0.0,), shock_speeds=(0.2,)
        )
        assert FlowMap1D(sol).v_shock_rate(0.0) == 0.0

    def test_matches_finite_difference_material(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            sol = random_admissible_solution(rng, motion="material")
            amp = rng.uniform(0.1, 0.9)
            profiles = (
                lambda X, a=amp: 1.0 + a * np.sin(0.7 * X),
                lambda X, a=amp: 1.5 + a * np.cos(0.4 * X),
            )
            fm = FlowMap1D(sol, profiles)
            t = rng.uniform(0.05, 0.2)
            h = 1e-5
            fd = (fm.v_shock(t + h) - fm.v_shock(t - h)) / (2.0 * h)
            rate = fm.v_shock_rate(t)
            assert rate == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_matches_finite_difference_fixed_with_boundary(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            sol = random_admissible_solution(rng, motion="fixed")
            fm = FlowMap1D(sol, (lambda X: 1.0 + 0.3 * np.sin(X), 2.0))
            t = rng.uniform(0.05, 0.2)
            h = 1e-5
            fd = (fm.v_shock(t + h) - fm.v_shock(t - h)) / (2.0 * h)
            rate = fm.v_shock_rate(t, include_boundary=True)
            assert rate == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestCalibration:
    def test_reference_values(self):
        # Gauge lambda_left = 0; the interface identity
        # -v_s [[lambda]] + [[lambda u]] = dE/dt then pins lambda_right to
        # dE/dt / u_right = -1/3 at gamma = 2.
        sol = stationary_shock_example(2.0)
        lam_l, lam_r = calibrate_lambda(sol)
        assert lam_l == 0.0
        assert lam_r == pytest.approx(-1.0 / 3.0, abs=1e-13)

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
        fm = calibrated_flow_map(sol)
        assert abs(augmented_jump_residual(sol, fm)) < 1e-12

    def test_closure_on_random_admissible_shocks(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            sol = random_admissible_solution(rng)
            fm = calibrated_flow_map(sol)
            assert abs(augmented_energy_rate(sol, fm)) < 1e-12
            assert abs(augmented_jump_residual(sol, fm)) < 1e-12


class TestAugmentedEnergyRate:
    def test_calibrated_rate_vanishes(self):
        sol = stationary_shock_example(2.0)
        assert abs(augmented_energy_rate(sol, calibrated_flow_map(sol))) < 1e-12

    def test_unit_reference_density_shows_mismatch(self):
        sol = stationary_shock_example(2.0)
        assert augmented_energy_rate(sol, FlowMap1D(sol)) == pytest.approx(2.0 / 3.0, abs=1e-13)

    def test_zero_jump(self):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        state = FluidState(1.0, 0.5)
        sol = PiecewiseShockSolution(
            model=model, states=(state, state), shock_positions_t0=(0.0,), shock_speeds=(0.0,)
        )
        assert augmented_energy_rate(sol, FlowMap1D(sol)) == 0.0


class TestLambdaJumpDefect:
    def test_unit_density_is_not_conserved(self):
        # With the unit reference density the transported field fails the
        # conservative jump condition: |v_s [[lambda]] - [[lambda u]]| = 1.
        sol = stationary_shock_example(2.0)
        assert abs(lambda_jump_defect(sol, FlowMap1D(sol))) == pytest.approx(1.0, abs=1e-14)

    def test_calibrated_defect_equals_minus_energy_rate(self):
        sol = stationary_shock_example(2.0)
        fm = calibrated_flow_map(sol)
        assert lambda_jump_defect(sol, fm) == pytest.approx(-energy_rate(sol), abs=1e-13)
