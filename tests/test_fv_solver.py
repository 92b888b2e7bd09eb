import math

import numpy as np
import pytest

import oracles

from shockaudit import fv_solver
from shockaudit.eos import FluidState, GasModel, balance_terms, conserved, energy_density, pressure
from shockaudit.errors import InvalidStateError, NumericalError
from shockaudit.fv_solver import (
    ConservedField,
    Grid1D,
    ShockTrack,
    Snapshots,
    cell_primitives,
    field_from_solution,
    locate_shock,
    measure_shock,
    simulate,
    step,
)
from shockaudit.rh import entropy_admissible, hugoniot_solve
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

    def test_vacuum_rejected(self):
        grid = Grid1D(0.0, 1.0, 8)
        U = np.tile(np.array([[1.0], [0.0]]), (1, 8))
        U[0, 4] = -1.0
        with pytest.raises(NumericalError, match="vacuum generated in cell 4") as info:
            step(GAMMA2, grid, ConservedField(U))
        assert (info.value.cell, info.value.step, info.value.t) == (4, None, None)

    def test_bad_cfl_rejected(self):
        grid = Grid1D(0.0, 1.0, 8)
        U = np.tile(np.array([[1.0], [0.0]]), (1, 8))
        with pytest.raises(InvalidStateError):
            step(GAMMA2, grid, ConservedField(U), cfl=1.5)

    def test_stationary_shock_stays_put_at_coarse_resolution(self):
        sol = stationary_shock_example(2.0)
        grid = Grid1D(-1.0, 1.0, 200)
        result = simulate(sol.model, grid, field_from_solution(sol.model, grid, sol), 0.5)
        _, _, position = locate_shock(grid, result.field)
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
        # The step's F(U) rows, on random cells plus the reference cell (1, 2)
        # and a cell at rest.
        U, states = random_block(model, 40, seed=5)
        k = U.shape[0]
        s = 0.3 if model.carries_entropy else None
        moving, at_rest = FluidState(1.0, 2.0, s), FluidState(1.5, 0.0, s)
        U = np.hstack([U, np.array([conserved(model, st)[:k] for st in (moving, at_rest)]).T])
        states += [moving, at_rest]
        cells, _, _ = fv_solver._cell_block(model, U)
        F = cells[k:2 * k, 1:-1]
        for i, state in enumerate(states):
            _, F_state = balance_terms(model, state)
            np.testing.assert_allclose(F[:, i], F_state[:k], rtol=1e-14, atol=1e-14)
        assert F[0, -1] == 0.0
        assert F[1, -1] == pytest.approx(pressure(model, at_rest), abs=1e-14)
        if model.carries_entropy:
            E, p = energy_density(model, moving), pressure(model, moving)
            assert F[2, -2] == pytest.approx((E + p) * 2.0, rel=1e-14)
        else:
            assert F[0, -2] == 2.0
            assert F[1, -2] == pytest.approx(4.0 + 2.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("model", [GAMMA2, IDEAL], ids=["barotropic", "ideal"])
    def test_decoded_cells_match_states(self, model):
        U, states = random_block(model, 40, seed=6)
        decoded = cell_primitives(model, U)
        assert len(decoded) == U.shape[0]
        for i, state in enumerate(states):
            assert decoded[0][i] == state.rho
            assert decoded[1][i] == pytest.approx(state.u, rel=1e-15, abs=1e-15)
            if model.carries_entropy:
                assert decoded[2][i] == pytest.approx(state.s, abs=1e-12)

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("rho_right", [2.0, 2.5, 3.5])
    def test_measured_states_are_the_decoded_plateau_cells(self, rho_right, n):
        # measure_shock reads its two plateau cells through the decoder, so
        # the jump's states carry the decoded values bit for bit.
        left = FluidState(1.0, 0.0, math.log(1.0 / 0.4))
        jump = hugoniot_solve(left, rho_right, IDEAL)
        grid = Grid1D(-1.6, 0.4, n)
        sol = PiecewiseShockSolution(
            model=IDEAL,
            states=(left, jump.right),
            shock_positions_t0=(0.0,),
            shock_speeds=(jump.v_s,),
            domain=Domain1D(grid.x_min, grid.x_max),
        )
        result = simulate(IDEAL, grid, field_from_solution(IDEAL, grid, sol), 0.3)
        meas = measure_shock(IDEAL, grid, result.field)
        i_l, i_r, _ = locate_shock(grid, result.field)
        rho, u, s = cell_primitives(IDEAL, result.field.data)
        for i, state in ((i_l, meas.jump.left), (i_r, meas.jump.right)):
            assert (state.rho, state.u, state.s) == (rho[i], u[i], s[i])
            assert all(type(v) is float for v in (state.rho, state.u, state.s))

    def test_decoder_names_the_first_cell_without_internal_energy(self):
        U = _uniform_block(IDEAL, 8)
        U[2, 5] = 0.5 * U[1, 5] ** 2 / U[0, 5]
        U[2, 6] = -1.0
        with pytest.raises(NumericalError, match="nonpositive internal energy in cell 5"):
            cell_primitives(IDEAL, U)

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
        with pytest.raises(NumericalError, match=r"^non-finite [a-z ]+ in cell 5$") as info:
            step(model, grid, ConservedField(U), bc=bc)
        assert info.value.cell == 5

    @pytest.mark.parametrize("bc", ["outflow", "periodic"])
    def test_overflowing_update_named_at_its_cell(self, bc):
        # Cell 9 is a valid state whose energy flux (E + p) u overflows, so
        # the update leaves cells 8-10 non-finite: the check after the update
        # names cell 8 of the grid, not the first cell of the active window.
        grid = Grid1D(0.0, 1.0, 16)
        U = _uniform_block(IDEAL, 16)
        U[:, 9] = conserved(IDEAL, FluidState(1.0, 1e103, 475.0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"^non-finite internal energy in cell 8$"):
                step(IDEAL, grid, ConservedField(U), bc=bc)

    def test_simulate_stops_at_a_nan_cell(self):
        # Not one step into a NaN field that ends the run at t = nan.
        grid = Grid1D(0.0, 1.0, 8)
        U = _uniform_block(GAMMA2, 8)
        U[0, 2] = math.nan
        with pytest.raises(NumericalError, match="cell 2"):
            simulate(GAMMA2, grid, ConservedField(U), 0.1)


class VacuumAfter:
    """Observer: empties one cell of the field it is handed after step n (and records t there)."""

    def __init__(self, n, cell):
        self.n = n
        self.cell = cell
        self.t = None

    def __call__(self, n, t, dt, field, last):
        if n == self.n:
            field.data[0, self.cell] = 0.0
            self.t = t


class TestErrorLocation:
    """NumericalError carries its cell, and from simulate its step and start time, as attributes."""

    def test_run_from_a_vacuum_fails_at_the_first_step(self):
        grid = Grid1D(0.0, 1.0, 8)
        U = np.tile(np.array([[1.0], [0.0]]), (1, 8))
        U[0, 6] = -1.0
        with pytest.raises(NumericalError) as info:
            simulate(GAMMA2, grid, ConservedField(U), 0.1)
        assert info.value.args == ("vacuum generated in cell 6",)
        assert (info.value.cell, info.value.step, info.value.t) == (6, 1, 0.0)

    @pytest.mark.parametrize("model", [GAMMA2, IDEAL], ids=["barotropic", "ideal"])
    def test_vacuum_during_a_run_names_step_and_time(self, model):
        # The field is uniform, so the step's active window is one cell until
        # the emptied cell joins it: the cell is named on the whole grid.
        grid = Grid1D(-1.0, 1.0, 40)
        vacuum = VacuumAfter(3, 17)
        with pytest.raises(NumericalError) as info:
            simulate(model, grid, ConservedField(_uniform_block(model, 40)), 0.5, observers=[vacuum])
        assert info.value.args == ("vacuum generated in cell 17",)
        assert vacuum.t > 0.0
        assert (info.value.cell, info.value.step, info.value.t) == (17, 4, vacuum.t)

    def test_errors_without_a_location_leave_it_unset(self):
        grid = Grid1D(0.0, 1.0, 32)
        with pytest.raises(NumericalError) as info:
            locate_shock(grid, ConservedField(np.tile(np.array([[1.0], [0.5]]), (1, 32))))
        assert (info.value.cell, info.value.step, info.value.t) == (None, None, None)


def _supersonic_left_block(n):
    """Density ripple on u = -3 < -c everywhere (gamma = 2 reference gas)."""
    x = (np.arange(n) + 0.5) / n
    rho = 1.0 + 0.1 * np.sin(2.0 * np.pi * x)
    return np.vstack([rho, -3.0 * rho])


def _plateau_block(model, grid, states, positions):
    """field_from_solution of constant states split at the given positions (no jump check)."""
    sol = PiecewiseShockSolution(
        model=model,
        states=states,
        shock_positions_t0=positions,
        shock_speeds=(0.0,) * len(positions),
        domain=Domain1D(grid.x_min, grid.x_max),
        validate=False,
    )
    return field_from_solution(model, grid, sol).data


def _euler_moving_shock(grid):
    left = FluidState(1.0, 0.0, math.log(1.0 / 0.4))
    jump = hugoniot_solve(left, 2.0, IDEAL)
    sol = PiecewiseShockSolution(
        model=IDEAL,
        states=(left, jump.right),
        shock_positions_t0=(0.0,),
        shock_speeds=(jump.v_s,),
        domain=Domain1D(grid.x_min, grid.x_max),
    )
    return field_from_solution(IDEAL, grid, sol).data


REF = stationary_shock_example(2.0)
# A density pulse riding on a uniform flow: the two end cells are equal.
PULSE_STATES = (FluidState(1.0, 0.5), FluidState(1.3, 0.5), FluidState(1.0, 0.5))


class TestStepBitsMatchStackedStep:
    """The windowed in-place step gives the full-grid stacked (vstack, ghost
    copy, nested where) step's bits."""

    # name: (model, grid, bc, initial block of the grid)
    CASES = {
        "barotropic-outflow": (GAMMA2, Grid1D(0.0, 1.0, 48), "outflow",
                               lambda g: random_block(GAMMA2, 48, seed=11)[0]),
        "barotropic-periodic": (GAMMA2, Grid1D(0.0, 1.0, 48), "periodic",
                                lambda g: random_block(GAMMA2, 48, seed=12)[0]),
        "ideal-outflow": (IDEAL, Grid1D(0.0, 1.0, 48), "outflow", lambda g: random_block(IDEAL, 48, seed=13)[0]),
        "ideal-periodic": (IDEAL, Grid1D(0.0, 1.0, 48), "periodic", lambda g: random_block(IDEAL, 48, seed=14)[0]),
        # Left of the shock u - c > 0, so S_L >= 0 there: the upwind-left branch.
        "reference-shock": (REF.model, Grid1D(-1.0, 1.0, 256), "outflow",
                            lambda g: field_from_solution(REF.model, g, REF).data),
        # u + c < 0 everywhere, so S_R <= 0 at every interface: the upwind-right branch.
        "left-supersonic": (GAMMA2, Grid1D(0.0, 1.0, 48), "periodic", lambda g: _supersonic_left_block(48)),
        "euler-moving-shock": (IDEAL, Grid1D(-1.6, 0.4, 128), "outflow", _euler_moving_shock),
        "uniform-outflow": (GAMMA2, Grid1D(0.0, 1.0, 64), "outflow", lambda g: _uniform_block(GAMMA2, 64)),
        "uniform-periodic": (IDEAL, Grid1D(0.0, 1.0, 64), "periodic", lambda g: _uniform_block(IDEAL, 64)),
        "left-boundary": (REF.model, Grid1D(-1.0, 1.0, 128), "outflow",
                          lambda g: _plateau_block(REF.model, g, REF.states, (g.x_min + 1.5 * g.dx,))),
        "right-boundary": (REF.model, Grid1D(-1.0, 1.0, 128), "outflow",
                           lambda g: _plateau_block(REF.model, g, REF.states, (g.x_max - 1.5 * g.dx,))),
        # The pulse reaches the seam after about 50 steps: equal end cells
        # first, then a wrapped whole-grid step.
        "periodic-uniform-seam": (GAMMA2, Grid1D(0.0, 1.0, 128), "periodic",
                                  lambda g: _plateau_block(GAMMA2, g, PULSE_STATES, (0.4, 0.6))),
        "periodic-nonuniform-seam": (REF.model, Grid1D(-1.0, 1.0, 128), "periodic",
                                     lambda g: field_from_solution(REF.model, g, REF).data),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_two_hundred_chained_steps_bit_identical(self, case):
        model, grid, bc, block = self.CASES[case]
        new = old = ConservedField(block(grid))
        for _ in range(200):
            new, dt_new = step(model, grid, new, cfl=0.45, bc=bc)
            old, dt_old = oracles.stacked_hll_step(model, grid, old, cfl=0.45, bc=bc)
            assert dt_new == dt_old
            assert np.array_equal(new.data, old.data)
            for f_new, f_old in zip(new.boundary_flux, old.boundary_flux):
                assert np.array_equal(f_new, f_old)

    @pytest.mark.parametrize("case, wrap", [("reference-shock", False), ("periodic-nonuniform-seam", True)])
    def test_step_leaves_its_input_unchanged(self, case, wrap):
        # Snapshots keeps the fields simulate passes it without copying them.
        model, grid, bc, block = self.CASES[case]
        fld = ConservedField(block(grid))
        assert fv_solver._active_window(fld.data, bc)[2] == wrap
        for _ in range(20):
            before = fld.data.copy()
            new, _ = step(model, grid, fld, bc=bc)
            assert np.array_equal(fld.data.view(np.int64), before.view(np.int64))
            assert not np.array_equal(new.data, before)
            fld = new

    def test_cases_reach_every_branch(self):
        # Davis speeds of the two barotropic branch cases, gamma = 2: c^2 = 2 K rho.
        for case, branch in (("reference-shock", "left"), ("left-supersonic", "right")):
            model, grid, _, block = self.CASES[case]
            U = block(grid)
            u = U[1] / U[0]
            c = np.sqrt(2.0 * model.K * U[0])
            if branch == "left":
                assert np.any(u - c > 0.0) and np.any(u - c < 0.0)
            else:
                assert np.all(u + c < 0.0)

    @pytest.mark.parametrize(
        "case, start, end",
        [
            ("reference-shock", (127, 129, False), None),
            ("uniform-outflow", (0, 1, False), (0, 1, False)),
            ("uniform-periodic", (0, 1, False), (0, 1, False)),
            ("left-boundary", (0, 3, False), None),
            ("right-boundary", (125, 128, False), None),
            ("periodic-uniform-seam", (50, 78, False), (0, 128, True)),
            ("periodic-nonuniform-seam", (0, 128, True), (0, 128, True)),
        ],
    )
    def test_cases_reach_their_window(self, case, start, end):
        # (lo, hi, wrap) before the first and after the last of 200 steps.
        model, grid, bc, block = self.CASES[case]
        fld = ConservedField(block(grid))
        assert fv_solver._active_window(fld.data, bc) == start
        for _ in range(200):
            fld, _ = step(model, grid, fld, bc=bc)
        if end is not None:
            assert fv_solver._active_window(fld.data, bc) == end

    def test_uniform_field_is_unchanged(self):
        grid = Grid1D(0.0, 1.0, 64)
        U = _uniform_block(IDEAL, 64)
        fld, _ = step(IDEAL, grid, ConservedField(U))
        assert np.array_equal(fld.data, U)

    def test_mid_run_step_passes_few_cells(self, monkeypatch):
        grid = Grid1D(-1.0, 1.0, 3200)
        fld = simulate(REF.model, grid, field_from_solution(REF.model, grid, REF), 0.025).field
        primitives = fv_solver._primitives
        widths = []

        def spy(model, U):
            widths.append(U.shape[1])
            return primitives(model, U)

        monkeypatch.setattr(fv_solver, "_primitives", spy)
        step(REF.model, grid, fld)
        assert len(widths) == 1
        assert widths[0] < 0.1 * grid.n_cells


class TestTinyRunLength:
    @pytest.mark.parametrize("t_final", [1e-15, 1e-20])
    def test_takes_a_step_and_reaches_t_final(self, t_final):
        # Absolute 1e-14 time tolerances used to end such a run at t = 0.
        grid = Grid1D(-1.0, 1.0, 64)
        snaps = [0.0, 0.5 * t_final, t_final]
        snapshots = Snapshots(snaps, t_final)
        result = simulate(REF.model, grid, field_from_solution(REF.model, grid, REF), t_final, observers=[snapshots])
        assert result.n_steps >= 1
        assert result.t == pytest.approx(t_final, rel=1e-12)
        assert [t for t, _ in snapshots.taken] == pytest.approx(snaps, rel=1e-12)


class Recorder:
    """Observer keeping every call's arguments."""

    def __init__(self):
        self.calls = []

    def __call__(self, n, t, dt, field, last):
        self.calls.append((n, t, dt, field, last))


class TestObservers:
    def run(self, t_final=0.05, observers=()):
        grid = Grid1D(-1.0, 1.0, 64)
        return simulate(REF.model, grid, field_from_solution(REF.model, grid, REF), t_final, observers=observers)

    def test_called_before_the_first_and_after_every_step(self):
        rec = Recorder()
        result = self.run(observers=[rec])
        assert result.n_steps > 1
        assert [c[0] for c in rec.calls] == list(range(result.n_steps + 1))
        assert rec.calls[0][2] == 0.0
        t = 0.0
        for call in rec.calls:
            t += call[2]
            assert call[1] == t
        assert t == result.t
        assert [c[4] for c in rec.calls] == [False] * result.n_steps + [True]
        assert rec.calls[-1][3] is result.field
        f_in, f_out = result.field.boundary_flux
        assert f_in.shape == f_out.shape == (2,)

    def test_observers_leave_the_run_unchanged(self):
        # Interior snapshot times would move step ends; 0 and t_final do not.
        grid = Grid1D(-1.0, 1.0, 64)
        snapshots, track = Snapshots([0.0, 0.05], 0.05), ShockTrack(grid)
        bare, observed = self.run(), self.run(observers=[snapshots, track])
        assert np.array_equal(bare.field.data.view(np.int64), observed.field.data.view(np.int64))
        assert np.array_equal(bare.conservation_drift.view(np.int64), observed.conservation_drift.view(np.int64))
        assert (bare.t, bare.n_steps) == (observed.t, observed.n_steps)
        assert [t for t, _ in snapshots.taken] == [0.0, observed.t]
        assert snapshots.taken[-1][1] is observed.field

    def test_shock_track_points(self):
        grid = Grid1D(-1.0, 1.0, 64)
        track, rec = ShockTrack(grid), Recorder()
        result = self.run(0.5, observers=[track, rec])
        assert result.n_steps > 40 and result.n_steps % 20 != 0
        expected = [t for n, t, _, _, _ in rec.calls if n % 20 == 0] + [result.t]
        assert [t for t, _ in track.points] == expected
        for (t, x), call in zip(track.points, [c for c in rec.calls if c[1] in expected]):
            assert x == locate_shock(grid, call[3], require_isolated=False)[-1]

    def test_shock_track_ends_once_on_a_multiple_of_twenty(self):
        grid = Grid1D(-1.0, 1.0, 64)
        rec = Recorder()
        self.run(0.5, observers=[rec])
        track = ShockTrack(grid)
        result = self.run(rec.calls[20][1], observers=[track])
        assert result.n_steps == 20
        assert [t for t, _ in track.points] == [0.0, result.t]

    def test_snapshot_times(self):
        t_final = 0.05
        tol = 1e-14 * t_final
        snapshots, rec = Snapshots([0.02, -1.0, 0.5 * tol, 0.02, 0.0, 0.03, 1.0], t_final), Recorder()
        self.run(t_final, observers=[snapshots, rec])
        taken = [t for t, _ in snapshots.taken]
        step_ends = [c[1] for c in rec.calls]
        # Every time up to tol at t = 0, with the field passed in.
        assert taken[:3] == [0.0, 0.0, 0.0]
        assert all(fld is rec.calls[0][3] for _, fld in snapshots.taken[:3])
        # A step ends at 0.02; it takes one of the two 0.02s, the next step the other.
        i = step_ends.index(taken[3])
        assert abs(taken[3] - 0.02) <= tol
        assert taken[4] == step_ends[i + 1] > 0.02 + tol
        assert abs(taken[5] - 0.03) <= tol
        # 1.0 lies beyond t_final.
        assert len(taken) == 6 and snapshots.times == [1.0]
        for t, fld in snapshots.taken[3:]:
            assert fld is rec.calls[step_ends.index(t)][3]


class TestFieldFromSolution:
    @pytest.mark.parametrize(
        "model, grid, states, x_s",
        [
            (REF.model, Grid1D(-1.0, 1.0, 50), REF.states, 0.123),
            # x_min + n dx overshoots x_max by one ulp on this grid.
            (IDEAL, Grid1D(-1.2, 0.4, 64), (FluidState(1.0, 0.0, 0.9), FluidState(2.0, -0.7, 1.1)), -0.3),
        ],
        ids=["two-components", "three-components"],
    )
    def test_plateaus_exact_and_cut_cell_weighted(self, model, grid, states, x_s):
        U = _plateau_block(model, grid, states, (x_s,))
        k = U.shape[0]
        values = [np.array(conserved(model, st)[:k]) for st in states]
        edges = grid.interfaces()
        cut = int(np.searchsorted(edges, x_s)) - 1
        assert edges[cut] < x_s < edges[cut + 1]
        for cells, value in ((slice(0, cut), values[0]), (slice(cut + 1, None), values[1])):
            assert np.array_equal(U[:, cells], np.broadcast_to(value[:, None], U[:, cells].shape))
        width = edges[cut + 1] - edges[cut]
        mixed = (x_s - edges[cut]) / width * values[0] + (edges[cut + 1] - x_s) / width * values[1]
        np.testing.assert_allclose(U[:, cut], mixed, rtol=1e-14)
        exact = (x_s - grid.x_min) * values[0] + (grid.x_max - x_s) * values[1]
        np.testing.assert_allclose(ConservedField(U).totals(grid), exact, rtol=1e-14)

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
        jump = hugoniot_solve(left, 2.0, model)
        sol = PiecewiseShockSolution(
            model=model,
            states=(left, jump.right),
            shock_positions_t0=(0.0,),
            shock_speeds=(jump.v_s,),
            domain=Domain1D(-2.0, 1.0),
        )
        grid = Grid1D(-2.0, 1.0, 30)
        fld = field_from_solution(model, grid, sol)
        assert fld.data.shape[0] == 3
        _, _, s = cell_primitives(model, fld.data)
        assert s[2] == pytest.approx(s0, rel=1e-12)


class TestMeasureShock:
    def test_uniform_field_has_no_discontinuity(self):
        grid = Grid1D(0.0, 1.0, 32)
        U = np.tile(np.array([[1.0], [0.5]]), (1, 32))
        with pytest.raises(NumericalError):
            locate_shock(grid, ConservedField(U))

    @pytest.mark.parametrize(
        "x_min, x_max, clamped",
        [
            (-0.05, 1.0, True),  # steep interface 4: left plateau cell -2
            (-1.0, 0.05, True),  # steep interface 94: right plateau cell 101
            (-0.06, 0.94, True),  # left plateau cell -1
            (-0.94, 0.06, True),  # right plateau cell 100
            (-0.07, 0.93, False),  # left plateau cell 0
            (-0.93, 0.07, False),  # right plateau cell 99
        ],
    )
    def test_plateau_cells_inside_the_grid(self, x_min, x_max, clamped):
        # The reference shock at x = 0, a few cells from one end of 100.
        grid = Grid1D(x_min, x_max, 100)
        fld = ConservedField(_plateau_block(REF.model, grid, REF.states, (0.0,)))
        # Clamped plateaus still place the shock, as ShockTrack needs.
        assert locate_shock(grid, fld, require_isolated=False)[-1] == pytest.approx(0.0, abs=1e-12)
        if clamped:
            with pytest.raises(NumericalError, match="too close to the boundary"):
                measure_shock(REF.model, grid, fld)
        else:
            meas = measure_shock(REF.model, grid, fld)
            assert (meas.jump.left, meas.jump.right) == REF.states

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
        assert entropy_admissible(meas.jump, sol.model, residual_tol=0.05)

    def test_moving_shock_speed_recovered(self):
        model = GasModel.barotropic(K=1.0, gamma=1.4)
        left = FluidState(1.0, 0.0)
        jump = hugoniot_solve(left, 2.0, model)
        sol = PiecewiseShockSolution(
            model=model,
            states=(left, jump.right),
            shock_positions_t0=(0.0,),
            shock_speeds=(jump.v_s,),
            domain=Domain1D(-1.6, 0.4),
        )
        grid = Grid1D(-1.6, 0.4, 800)
        track = ShockTrack(grid)
        result = simulate(model, grid, field_from_solution(model, grid, sol), 0.4, observers=[track])
        meas = measure_shock(model, grid, result.field, trajectory=track.points)
        assert meas.jump.v_s == pytest.approx(jump.v_s, rel=0.01)

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
        jump = hugoniot_solve(left, 2.0, model)
        sol = PiecewiseShockSolution(
            model=model,
            states=(left, jump.right),
            shock_positions_t0=(0.0,),
            shock_speeds=(jump.v_s,),
            domain=Domain1D(-1.6, 0.4),
        )
        grid = Grid1D(-1.6, 0.4, 800)
        track = ShockTrack(grid)
        result = simulate(model, grid, field_from_solution(model, grid, sol), 0.3, observers=[track])
        assert np.max(result.conservation_drift) < 1e-10
        meas = measure_shock(model, grid, result.field, trajectory=track.points)
        assert meas.jump.v_s == pytest.approx(jump.v_s, rel=0.02)
        assert meas.residual.max_abs() < 0.05
