import numpy as np
import pytest

from shockaudit.eos import FluidState, GasModel
from shockaudit.errors import DomainError, InvalidStateError
from shockaudit.rh import entropy_admissible, gated_residual, hugoniot_solve, rh_residuals
from shockaudit.shock1d import (
    Domain1D,
    PiecewiseShockSolution,
    energy_rate,
    evaluate,
    length_rate,
    stationary_shock_example,
    translated,
    volume_potential_mismatch,
)


def gamma_sweep_energy_rate(gamma):
    """Closed-form interface energy rate of the reference shock."""
    return -3.0 + 2.0 * gamma / (gamma - 1.0) - 2.0 * gamma / ((gamma - 1.0) * (2.0 ** gamma - 1.0))


class TestExampleConstruction:
    def test_gamma_two(self):
        sol = stationary_shock_example(2.0)
        assert sol.model.K == pytest.approx(2.0 / 3.0, abs=1e-16)
        assert sol.shock_speeds == (0.0,)
        assert sol.domain.x_min == -1.0 and sol.domain.x_max == 1.0

    @pytest.mark.parametrize("gamma", [round(1.1 + 0.1 * k, 1) for k in range(20)])
    def test_gamma_14_residuals(self, gamma):
        # The closed-form K makes the reference jump exact to roundoff.
        sol = stationary_shock_example(gamma)
        assert sol.model.K == 2.0 / (2.0 ** gamma - 1.0)
        for jump in sol.jumps():
            assert gated_residual(rh_residuals(jump, sol.model), sol.model) <= 1e-12

    def test_gamma_one_rejected(self):
        with pytest.raises(InvalidStateError):
            stationary_shock_example(1.0)

    def test_constructor_accepts_inconsistent_claim(self):
        # A solution is data; whether its jumps hold is for the audits to say.
        model = GasModel.barotropic(K=2.0 / 3.0, gamma=2.0)
        sol = PiecewiseShockSolution(
            model=model,
            states=(FluidState(1.0, 2.0), FluidState(2.0, 1.5)),
            shock_positions_t0=(0.0,),
            shock_speeds=(0.0,),
        )
        assert gated_residual(rh_residuals(sol.jumps()[0], model), model) == pytest.approx(2.5)

    @pytest.mark.parametrize(
        "n_shocks, defect",
        [(n, d) for n in (1, 2, 3) for d in ("speed nan", "speed inf", "position nan", "position inf")]
        + [(n, d) for n in (0, 1, 2) for d in ("s on barotropic", "no s on ideal gas")],
    )
    def test_constructor_rejects_bad_structure(self, n_shocks, defect):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        states = [FluidState(1.0 + 0.5 * k, 0.1 * k) for k in range(n_shocks + 1)]
        positions = [-0.5 + k / n_shocks for k in range(n_shocks)]
        speeds = [0.1 * k for k in range(n_shocks)]
        what, _, how = defect.partition(" ")
        if what in ("speed", "position"):
            # The middle shock: with three shocks only the finiteness check sees it.
            values = speeds if what == "speed" else positions
            values[n_shocks // 2] = float(how)
        elif defect == "s on barotropic":
            states[-1] = FluidState(states[-1].rho, states[-1].u, 0.0)
        else:
            model = GasModel.ideal_gas(gamma=1.4)
            states = [FluidState(s.rho, s.u, 0.0) for s in states]
            states[0] = FluidState(states[0].rho, states[0].u)
        with pytest.raises(InvalidStateError):
            PiecewiseShockSolution(
                model=model,
                states=tuple(states),
                shock_positions_t0=tuple(positions),
                shock_speeds=tuple(speeds),
            )

    def test_positions_must_increase(self):
        sol = stationary_shock_example(2.0)
        with pytest.raises(InvalidStateError):
            PiecewiseShockSolution(
                model=sol.model,
                states=(FluidState(1.0, 2.0), FluidState(2.0, 1.0), FluidState(1.0, 2.0)),
                shock_positions_t0=(0.2, 0.2),
                shock_speeds=(0.0, 0.0),
            )

    def test_horizon_from_approaching_shocks(self):
        model = GasModel.barotropic(K=1.0, gamma=1.4)
        left = FluidState(1.0, 0.0)
        first = hugoniot_solve(left, 2.0, model)
        mid = first.right
        second = hugoniot_solve(mid, 3.0, model)
        v1, v2 = first.v_s, second.v_s
        sol = PiecewiseShockSolution(
            model=model,
            states=(left, mid, second.right),
            shock_positions_t0=(-0.3, 0.3),
            shock_speeds=(v1, v2),
            domain=Domain1D(-5.0, 5.0),
        )
        assert v1 > v2
        expected = 0.6 / (v1 - v2) - 1e-9  # collision time minus the safety margin
        assert sol.horizon[1] == pytest.approx(expected, abs=1e-12)
        with pytest.raises(DomainError):
            evaluate(sol, sol.horizon[1] + 0.1, 0.0)


class TestEvaluate:
    def test_left_region(self):
        sol = stationary_shock_example(2.0)
        assert evaluate(sol, 0.5, -0.3) == FluidState(1.0, 2.0)

    def test_right_region(self):
        sol = stationary_shock_example(2.0)
        assert evaluate(sol, 0.5, 0.3) == FluidState(2.0, 1.0)

    def test_on_shock_reports_left_state(self):
        sol = stationary_shock_example(2.0)
        assert evaluate(sol, 0.5, 0.0) == FluidState(1.0, 2.0)

    def test_out_of_domain(self):
        sol = stationary_shock_example(2.0)
        with pytest.raises(DomainError):
            evaluate(sol, 0.0, 1.5)

    def test_moving_shock_region_lookup(self):
        model = GasModel.barotropic(K=1.0, gamma=1.4)
        left = FluidState(1.0, 0.0)
        jump = hugoniot_solve(left, 2.0, model)
        v_s = jump.v_s
        sol = PiecewiseShockSolution(
            model=model,
            states=(left, jump.right),
            shock_positions_t0=(0.0,),
            shock_speeds=(v_s,),
            domain=Domain1D(-2.0, 1.0),
        )
        t = 0.25
        xs = v_s * t
        assert evaluate(sol, t, xs - 1e-9).u == 0.0
        assert evaluate(sol, t, xs + 1e-9).u == jump.right.u

    def test_translation_invariance(self):
        sol = stationary_shock_example(2.0)
        shifted = translated(sol, 0.4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = rng.uniform(0.0, 1.0)
            x = rng.uniform(-0.99, 0.99)
            assert evaluate(sol, t, x) == evaluate(shifted, t, x + 0.4)


class TestEnergyRate:
    def test_reference_value(self):
        assert energy_rate(stationary_shock_example(2.0)) == pytest.approx(-1.0 / 3.0, abs=1e-13)

    @pytest.mark.parametrize("gamma", [1.2, 1.4, 5.0 / 3.0, 2.0, 2.5, 3.0])
    def test_gamma_sweep_closed_form(self, gamma):
        assert energy_rate(stationary_shock_example(gamma)) == pytest.approx(
            gamma_sweep_energy_rate(gamma), abs=1e-12
        )

    def test_zero_jump(self):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        state = FluidState(1.0, 0.5)
        sol = PiecewiseShockSolution(
            model=model,
            states=(state, state),
            shock_positions_t0=(0.0,),
            shock_speeds=(0.2,),
        )
        assert energy_rate(sol) == 0.0


class TestLengthRate:
    @pytest.mark.parametrize("gamma", [1.2, 1.7, 2.0, 3.0])
    def test_reference_value(self, gamma):
        assert length_rate(stationary_shock_example(gamma)) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_jump(self):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        state = FluidState(1.0, 0.5)
        sol = PiecewiseShockSolution(
            model=model, states=(state, state), shock_positions_t0=(0.0,), shock_speeds=(0.0,)
        )
        assert length_rate(sol) == 0.0

    def test_velocity_jump_only(self):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        sol = PiecewiseShockSolution(
            model=model,
            states=(FluidState(1.0, 3.0), FluidState(2.0, 1.0)),
            shock_positions_t0=(0.0,),
            shock_speeds=(0.0,),
        )
        assert length_rate(sol) == pytest.approx(-2.0, abs=1e-15)


class TestVolumePotentialMismatch:
    def test_reference_values(self):
        dedt, neg_dvdt, gap = volume_potential_mismatch(stationary_shock_example(2.0))
        assert dedt == pytest.approx(-1.0 / 3.0, abs=1e-13)
        assert neg_dvdt == pytest.approx(-1.0, abs=1e-15)
        assert gap == pytest.approx(2.0 / 3.0, abs=1e-13)

    def test_gap_positive_across_gamma(self):
        for gamma in np.arange(1.1, 3.0001, 0.1):
            _, _, gap = volume_potential_mismatch(stationary_shock_example(float(gamma)))
            assert gap > 0.0

    def test_zero_jump_gap(self):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        state = FluidState(1.0, 0.5)
        sol = PiecewiseShockSolution(
            model=model, states=(state, state), shock_positions_t0=(0.0,), shock_speeds=(0.0,)
        )
        assert volume_potential_mismatch(sol) == (0.0, 0.0, 0.0)


class TestAdmissibilitySweep:
    def test_example_admissible_for_all_gamma(self):
        for gamma in np.arange(1.1, 3.0001, 0.1):
            sol = stationary_shock_example(float(gamma))
            assert entropy_admissible(sol.jumps()[0], sol.model)
            assert energy_rate(sol) <= 0.0


class TestWeakSolutionProperty:
    def test_standard_battery_below_tolerance(self):
        from shockaudit.weakcheck import standard_battery, weak_residuals

        sol = stationary_shock_example(2.0)
        for bump in standard_battery(sol, count=20, seed=0):
            for r in weak_residuals(sol, ("mass", "momentum"), bump):
                assert abs(r) < 1e-8
