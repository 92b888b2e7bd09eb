import math

import numpy as np
import pytest

import oracles

from shockaudit.eos import FluidState, GasModel, balance_terms, conserved, energy_density, pressure
from shockaudit.errors import InvalidStateError, NumericalError
from shockaudit.fv_solver import (
    ConservedField,
    Grid1D,
    entropy_density_cells,
    field_from_solution,
    flux,
    locate_shock,
    measure_shock,
    simulate,
    state_at_cell,
    step,
)
from shockaudit.rh import ShockJump, entropy_admissible, hugoniot_solve_barotropic
from shockaudit.shock1d import Domain1D, PiecewiseShockSolution, evaluate, stationary_shock_example

GAMMA2 = GasModel.barotropic(K=2.0 / 3.0, gamma=2.0)
IDEAL = GasModel.ideal_gas(gamma=1.4)


class TestGrid:
    def test_spacing(self):
        grid = Grid1D(-1.0, 1.0, 8)
        assert grid.dx == 0.25
        assert grid.centers()[0] == pytest.approx(-0.875)
        assert len(grid.interfaces()) == 9

    def test_minimum_cells(self):
        with pytest.raises(InvalidStateError):
            Grid1D(0.0, 1.0, 3)


class TestFlux:
    def test_barotropic_reference_cell(self):
        out = flux(GAMMA2, np.array([1.0, 2.0]))
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(4.0 + 2.0 / 3.0, abs=1e-14)

    def test_momentum_flux_is_pressure_at_rest(self):
        out = flux(GAMMA2, np.array([1.5, 0.0]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(pressure(GAMMA2, FluidState(1.5, 0.0)), abs=1e-14)

    def test_full_system_energy_flux(self):
        state = FluidState(1.0, 2.0, 0.3)
        E = energy_density(IDEAL, state)
        p = pressure(IDEAL, state)
        out = flux(IDEAL, np.array([1.0, 2.0, E]))
        assert out[2] == pytest.approx((E + p) * 2.0, rel=1e-14)

    def test_vacuum_rejected(self):
        with pytest.raises(NumericalError):
            flux(GAMMA2, np.array([-1.0, 0.0]))


class TestStep:
    def test_uniform_state_is_exact(self):
        grid = Grid1D(0.0, 1.0, 32)
        U = np.tile(np.array([[1.3], [0.52]]), (1, 32))
        fld, dt = step(GAMMA2, grid, ConservedField(U), cfl=0.5, bc="periodic")
        assert dt > 0.0
        assert np.max(np.abs(fld.data - U)) < 1e-15

    def test_periodic_conservation_per_step(self):
        grid = Grid1D(0.0, 1.0, 64)
        x = grid.centers()
        rho = 1.0 + 0.3 * np.sin(2.0 * np.pi * x)
        U = np.vstack([rho, rho * 0.2 * np.cos(2.0 * np.pi * x)])
        fld = ConservedField(U)
        before = fld.totals(grid)
        fld, _ = step(GAMMA2, grid, fld, cfl=0.5, bc="periodic")
        after = fld.totals(grid)
        assert np.all(np.abs(after - before) <= 1e-13 * np.maximum(np.abs(before), 1.0))

    def test_conservation_over_thousand_steps(self):
        grid = Grid1D(0.0, 1.0, 64)
        x = grid.centers()
        rho = 1.0 + 0.3 * np.sin(2.0 * np.pi * x)
        U = np.vstack([rho, rho * 0.2 * np.cos(2.0 * np.pi * x)])
        fld = ConservedField(U)
        before = fld.totals(grid)
        for _ in range(1000):
            fld, _ = step(GAMMA2, grid, fld, cfl=0.5, bc="periodic")
        drift = np.abs(fld.totals(grid) - before) / np.maximum(np.abs(before), 1.0)
        assert np.max(drift) < 1e-10

    def test_bad_cfl_rejected(self):
        grid = Grid1D(0.0, 1.0, 8)
        U = np.tile(np.array([[1.0], [0.0]]), (1, 8))
        with pytest.raises(InvalidStateError):
            step(GAMMA2, grid, ConservedField(U), cfl=1.5)

    def test_stationary_shock_stays_put_at_coarse_resolution(self):
        sol = stationary_shock_example(2.0)
        grid = Grid1D(-1.0, 1.0, 200)
        result = simulate(sol.model, grid, field_from_solution(sol.model, grid, sol), 0.5)
        _, position = locate_shock(grid, result.field)
        assert abs(position) < 2.0 * grid.dx


def random_block(model, n, seed):
    """(n_comp, n) conserved block of random states, and the states."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        rho, u = rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0)
        states.append(FluidState(rho, u, rho * rng.uniform(-0.5, 0.5) if model.carries_entropy else None))
    k = 3 if model.carries_entropy else 2
    return np.array([conserved(model, st)[:k] for st in states]).T, states


def loop_hll_step(model, grid, U, cfl, bc):
    """One HLL update written per interface, with its own EOS formulas."""
    n = U.shape[1]

    def cell(i):
        i = min(max(i, 0), n - 1) if bc == "outflow" else i % n
        rho, m = U[0, i], U[1, i]
        u = m / rho
        if U.shape[0] == 2:
            p = model.K * rho ** model.gamma
            F = np.array([m, m * u + p])
        else:
            p = (model.gamma - 1.0) * (U[2, i] - 0.5 * m * m / rho)
            F = np.array([m, m * u + p, (U[2, i] + p) * u])
        return U[:, i], F, u, math.sqrt(model.gamma * p / rho)

    speeds = [abs(cell(i)[2]) + cell(i)[3] for i in range(n)]
    dt = cfl * grid.dx / max(speeds)
    fluxes = []
    for j in range(n + 1):
        Ul, Fl, ul, cl = cell(j - 1)
        Ur, Fr, ur, cr = cell(j)
        sl, sr = min(ul - cl, ur - cr), max(ul + cl, ur + cr)
        if sl >= 0.0:
            fluxes.append(Fl)
        elif sr <= 0.0:
            fluxes.append(Fr)
        else:
            fluxes.append((sr * Fl - sl * Fr + sl * sr * (Ur - Ul)) / (sr - sl))
    return np.array([U[:, i] - dt / grid.dx * (fluxes[i + 1] - fluxes[i]) for i in range(n)]).T, dt


class TestKernelAgreement:
    @pytest.mark.parametrize("model", [GAMMA2, IDEAL], ids=["barotropic", "ideal"])
    def test_flux_matches_balance_terms_per_cell(self, model):
        U, states = random_block(model, 40, seed=5)
        F = flux(model, U)
        for i, state in enumerate(states):
            _, F_state = balance_terms(model, state)
            np.testing.assert_allclose(F[:, i], F_state[: U.shape[0]], rtol=1e-14, atol=1e-14)

    def test_entropy_cells_match_state_at_cell(self):
        U, states = random_block(IDEAL, 40, seed=6)
        fld = ConservedField(U)
        s = entropy_density_cells(IDEAL, U)
        for i, state in enumerate(states):
            # The array path uses numpy's pow/log, the cell path libm's: equal
            # to roundoff, not necessarily bit for bit.
            assert s[i] == pytest.approx(state_at_cell(IDEAL, fld, i).s, rel=1e-14, abs=1e-14)
            assert s[i] == pytest.approx(state.s, abs=1e-12)

    @pytest.mark.parametrize("bc", ["outflow", "periodic"])
    @pytest.mark.parametrize("model", [GAMMA2, IDEAL], ids=["barotropic", "ideal"])
    def test_step_matches_per_interface_loop(self, model, bc):
        grid = Grid1D(0.0, 1.0, 24)
        U, _ = random_block(model, 24, seed=7)
        fld, dt = step(model, grid, ConservedField(U), cfl=0.4, bc=bc)
        expected, dt_loop = loop_hll_step(model, grid, U, 0.4, bc)
        assert dt == pytest.approx(dt_loop, rel=1e-14)
        np.testing.assert_allclose(fld.data, expected, rtol=1e-13, atol=1e-13)

    def test_vacuum_reported_at_its_cell_under_periodic_bc(self):
        grid = Grid1D(0.0, 1.0, 8)
        U = np.tile(np.array([[1.0], [0.0]]), (1, 8))
        U[0, 7] = -1.0
        with pytest.raises(NumericalError, match="cell 7"):
            step(GAMMA2, grid, ConservedField(U), bc="periodic")

    def test_unknown_boundary_condition_rejected(self):
        grid = Grid1D(0.0, 1.0, 8)
        U = np.tile(np.array([[1.0], [0.0]]), (1, 8))
        with pytest.raises(InvalidStateError):
            step(GAMMA2, grid, ConservedField(U), bc="reflecting")
        # Before any work: a vacuum cell is not reached.
        U[0, 3] = -1.0
        with pytest.raises(InvalidStateError, match="boundary condition"):
            step(GAMMA2, grid, ConservedField(U), bc="reflecting")


def _uniform_block(model, n):
    """(n_comp, n) block of one subsonic state."""
    state = FluidState(1.2, 0.3, 0.1 if model.carries_entropy else None)
    k = 3 if model.carries_entropy else 2
    return np.tile(np.array(conserved(model, state)[:k])[:, None], (1, n))


class TestNonFiniteCells:
    """A NaN or infinite cell is refused by name, never marched into a NaN field or dt."""

    @pytest.mark.parametrize(
        "model, row, value",
        [
            (GAMMA2, 0, math.nan),
            (IDEAL, 0, math.nan),
            (GAMMA2, 1, math.inf),
            (IDEAL, 1, math.inf),
            (GAMMA2, 1, -math.inf),
            (IDEAL, 2, math.nan),
            (IDEAL, 2, math.inf),
            # u = 0 and c = sqrt(gamma p / rho) = 0: the wave speed alone misses it.
            (IDEAL, 0, math.inf),
            (GAMMA2, 0, math.inf),
        ],
        ids=[
            "barotropic-nan-density", "ideal-nan-density", "barotropic-inf-momentum",
            "ideal-inf-momentum", "barotropic-neg-inf-momentum", "ideal-nan-energy",
            "ideal-inf-energy", "ideal-inf-density", "barotropic-inf-density",
        ],
    )
    @pytest.mark.parametrize("bc", ["outflow", "periodic"])
    def test_rejected_at_first_bad_cell(self, model, row, value, bc):
        grid = Grid1D(0.0, 1.0, 8)
        U = _uniform_block(model, 8)
        U[row, 5:7] = value
        with pytest.raises(NumericalError, match=r"^non-finite [a-z ]+ in cell 5$"):
            step(model, grid, ConservedField(U), bc=bc)

    def test_simulate_stops_at_a_nan_cell(self):
        # Not one step into a NaN field that ends the run at t = nan.
        grid = Grid1D(0.0, 1.0, 8)
        U = _uniform_block(GAMMA2, 8)
        U[0, 2] = math.nan
        with pytest.raises(NumericalError, match="cell 2"):
            simulate(GAMMA2, grid, ConservedField(U), 0.1)


def _supersonic_left_block(n):
    """Density ripple on u = -3 < -c everywhere (gamma = 2 reference gas)."""
    x = (np.arange(n) + 0.5) / n
    rho = 1.0 + 0.1 * np.sin(2.0 * np.pi * x)
    return np.vstack([rho, -3.0 * rho])


def _reference_shock_block(n):
    sol = stationary_shock_example(2.0)
    return field_from_solution(sol.model, Grid1D(-1.0, 1.0, n), sol).data


class TestStepBitsMatchStackedStep:
    """The in-place step gives the stacked (vstack, ghost copy, nested where) step's bits."""

    CASES = {
        "barotropic-outflow": (GAMMA2, lambda: random_block(GAMMA2, 48, seed=11)[0], "outflow", (0.0, 1.0)),
        "barotropic-periodic": (GAMMA2, lambda: random_block(GAMMA2, 48, seed=12)[0], "periodic", (0.0, 1.0)),
        "ideal-outflow": (IDEAL, lambda: random_block(IDEAL, 48, seed=13)[0], "outflow", (0.0, 1.0)),
        "ideal-periodic": (IDEAL, lambda: random_block(IDEAL, 48, seed=14)[0], "periodic", (0.0, 1.0)),
        # Left of the shock u - c > 0, so S_L >= 0 there: the upwind-left branch.
        "reference-shock": (GAMMA2, lambda: _reference_shock_block(64), "outflow", (-1.0, 1.0)),
        # u + c < 0 everywhere, so S_R <= 0 at every interface: the upwind-right branch.
        "left-supersonic": (GAMMA2, lambda: _supersonic_left_block(48), "periodic", (0.0, 1.0)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_fifty_chained_steps_bit_identical(self, case):
        model, block, bc, (x_min, x_max) = self.CASES[case]
        U = block()
        grid = Grid1D(x_min, x_max, U.shape[1])
        new = old = ConservedField(U)
        for _ in range(50):
            new, dt_new = step(model, grid, new, cfl=0.45, bc=bc)
            old, dt_old = oracles.stacked_hll_step(model, grid, old, cfl=0.45, bc=bc)
            assert dt_new == dt_old
            assert np.array_equal(new.data, old.data)
            for f_new, f_old in zip(new.boundary_flux, old.boundary_flux):
                assert np.array_equal(f_new, f_old)

    def test_cases_reach_every_branch(self):
        # Davis speeds of the two barotropic branch cases, gamma = 2: c^2 = 2 K rho.
        K = GAMMA2.K
        for case, branch in (("reference-shock", "left"), ("left-supersonic", "right")):
            U = self.CASES[case][1]()
            u = U[1] / U[0]
            c = np.sqrt(2.0 * K * U[0])
            if branch == "left":
                assert np.any(u - c > 0.0) and np.any(u - c < 0.0)
            else:
                assert np.all(u + c < 0.0)


class TestFieldFromSolution:
    def test_cell_averages_preserve_totals(self):
        sol = stationary_shock_example(2.0)
        grid = Grid1D(-1.0, 1.0, 50)
        fld = field_from_solution(sol.model, grid, sol)
        exact_mass = 1.0 * 1.0 + 2.0 * 1.0
        assert fld.totals(grid)[0] == pytest.approx(exact_mass, rel=1e-14)

    def test_full_model_gets_three_components(self):
        model = IDEAL
        s0 = math.log(1.0 / 0.4)
        left = FluidState(1.0, 0.0, s0)
        from shockaudit.rh import hugoniot_solve_full

        u_r, s_r, v_s = hugoniot_solve_full(left, 2.0, model)
        sol = PiecewiseShockSolution(
            model=model,
            states=(left, FluidState(2.0, u_r, s_r)),
            shock_positions_t0=(0.0,),
            shock_speeds=(v_s,),
            domain=Domain1D(-2.0, 1.0),
        )
        grid = Grid1D(-2.0, 1.0, 30)
        fld = field_from_solution(model, grid, sol)
        assert fld.n_comp == 3
        back = state_at_cell(model, fld, 2)
        assert back.s == pytest.approx(s0, rel=1e-12)


class TestMeasureShock:
    def test_uniform_field_has_no_discontinuity(self):
        grid = Grid1D(0.0, 1.0, 32)
        U = np.tile(np.array([[1.0], [0.5]]), (1, 32))
        with pytest.raises(NumericalError):
            locate_shock(grid, ConservedField(U))

    def test_residuals_decrease_under_refinement(self):
        sol = stationary_shock_example(2.0)
        norms = []
        for n in (200, 800):
            grid = Grid1D(-1.0, 1.0, n)
            result = simulate(sol.model, grid, field_from_solution(sol.model, grid, sol), 0.25)
            meas = measure_shock(sol.model, grid, result.field)
            norms.append(meas.residual.conserved_max_abs())
        assert norms[1] < norms[0]

    def test_captured_shock_is_admissible(self):
        sol = stationary_shock_example(2.0)
        grid = Grid1D(-1.0, 1.0, 400)
        result = simulate(sol.model, grid, field_from_solution(sol.model, grid, sol), 0.25)
        meas = measure_shock(sol.model, grid, result.field)
        jump = ShockJump(left=meas.left_state, right=meas.right_state, n=1.0, v_s=meas.v_s)
        assert entropy_admissible(jump, sol.model, residual_tol=0.05)

    def test_moving_shock_speed_recovered(self):
        model = GasModel.barotropic(K=1.0, gamma=1.4)
        left = FluidState(1.0, 0.0)
        u_r, v_s = hugoniot_solve_barotropic(left, 2.0, model)
        sol = PiecewiseShockSolution(
            model=model,
            states=(left, FluidState(2.0, u_r)),
            shock_positions_t0=(0.0,),
            shock_speeds=(v_s,),
            domain=Domain1D(-1.6, 0.4),
        )
        grid = Grid1D(-1.6, 0.4, 800)
        result = simulate(model, grid, field_from_solution(model, grid, sol), 0.4, track_shock=True)
        meas = measure_shock(model, grid, result.field, trajectory=result.trajectory)
        assert meas.v_s == pytest.approx(v_s, rel=0.01)

    def test_l1_convergence_order(self):
        sol = stationary_shock_example(2.0)
        errors = []
        for n in (200, 800):
            grid = Grid1D(-1.0, 1.0, n)
            result = simulate(sol.model, grid, field_from_solution(sol.model, grid, sol), 0.25)
            exact = np.array([evaluate(sol, result.t, float(x)).rho for x in grid.centers()])
            errors.append(float(np.sum(np.abs(result.field.data[0] - exact)) * grid.dx))
        order = math.log(errors[0] / errors[1]) / math.log(4.0)
        assert order >= 0.8


class TestFullSystemRun:
    def test_full_euler_shock_capture(self):
        model = IDEAL
        s0 = math.log(1.0 / 0.4)
        left = FluidState(1.0, 0.0, s0)
        from shockaudit.rh import hugoniot_solve_full

        u_r, s_r, v_s = hugoniot_solve_full(left, 2.0, model)
        sol = PiecewiseShockSolution(
            model=model,
            states=(left, FluidState(2.0, u_r, s_r)),
            shock_positions_t0=(0.0,),
            shock_speeds=(v_s,),
            domain=Domain1D(-1.6, 0.4),
        )
        grid = Grid1D(-1.6, 0.4, 800)
        result = simulate(model, grid, field_from_solution(model, grid, sol), 0.3, track_shock=True)
        assert np.max(result.conservation_drift) < 1e-10
        meas = measure_shock(model, grid, result.field, trajectory=result.trajectory)
        assert meas.v_s == pytest.approx(v_s, rel=0.02)
        assert meas.residual.max_abs() < 0.05
