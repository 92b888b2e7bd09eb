"""First-order HLL finite-volume solver for 1D barotropic and full Euler.

Serves as an independent oracle: it never consults the exact-solution
machinery beyond taking initial data, so captured shocks can be audited
against the algebraic jump conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eos import (
    FluidState, GasModel, conserved, entropy_density_from_pressure, physical_flux, pressure_from,
    sound_speed_from,
)
from .errors import InvalidStateError, NumericalError
from .rh import RhResidual, ShockJump, rh_residuals
from .shock1d import PiecewiseShockSolution

ISOLATION = 5.0  # locate_shock's gate on the steepest density gradient
PLATEAU_OFFSET = 6  # cells from the steep interface to the plateau cells locate_shock reads
MAX_STEPS = 2_000_000  # simulate's step budget
TIME_TOL = 1e-14  # simulate's time tolerance, relative to t_final


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [x_min, x_max]."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise InvalidStateError(f"empty grid extent [{self.x_min}, {self.x_max}]")
        if self.n_cells < 4:
            raise InvalidStateError(f"need at least 4 cells, got {self.n_cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def interfaces(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.dx


@dataclass
class ConservedField:
    """Per-cell conserved variables, shape (n_comp, n_cells).

    Components are (rho, rho u) for barotropic runs and (rho, rho u, E) for
    the full system.  boundary_flux records the (left, right) interface
    fluxes of the update that produced the field, for conservation budgets.
    """

    data: np.ndarray
    boundary_flux: tuple | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[0] not in (2, 3):
            raise InvalidStateError(f"expected (2 or 3, n_cells) data, got {self.data.shape}")

    def totals(self, grid: Grid1D) -> np.ndarray:
        return self.data.sum(axis=1) * grid.dx


def _n_comp(model: GasModel) -> int:
    return 3 if model.carries_entropy else 2


def _require_positive(values, nonpositive: str, quantity: str) -> None:
    """Raise NumericalError at the first cell where values is not > 0 or not finite.

    One min() reduction per call: it propagates NaN, so the cell index is
    looked up only on failure.
    """
    if values.min() > 0.0:
        return
    flat = np.ravel(values)
    i = int(np.flatnonzero(~(flat > 0.0))[0])
    problem = nonpositive if math.isfinite(flat[i]) else f"non-finite {quantity}"
    raise NumericalError(f"{problem} in cell {i}", cell=i)


def _check_positivity(U: np.ndarray):
    """Internal energy density of the block (None if barotropic), after checking
    that density and internal energy are positive in every cell."""
    rho = U[0]
    _require_positive(rho, "vacuum generated", "density")
    if U.shape[0] == 2:
        return None
    eint = U[2] - 0.5 * U[1] ** 2 / rho
    _require_positive(eint, "nonpositive internal energy", "internal energy")
    return eint


def _primitives(model: GasModel, U: np.ndarray):
    """(u, p, c) arrays of a conserved-variable block, after the positivity check."""
    rho = U[0]
    p = pressure_from(model, rho, _check_positivity(U))
    return U[1] / rho, p, sound_speed_from(model, rho, p)


def _active_window(U: np.ndarray, bc: str) -> tuple[int, int, bool]:
    """(lo, hi, wrap): the cells lo:hi a step can change, and whether their
    ghost cells wrap around.

    A three-point update leaves a cell's bits unchanged when both neighbours
    hold the same bits, so outside the window the field is two uniform
    blocks, each a copy of the window cell it touches.  A uniform field is
    stood for by its first cell.  A periodic field whose end cells differ is
    stepped whole, with wrapped ghosts; with equal end cells the wrapped
    ghosts are copies of the end cells, as under outflow.
    """
    bits = U.view(np.int64)
    n = bits.shape[1]
    if bc == "periodic" and (bits[:, 0] != bits[:, -1]).any():
        return 0, n, True
    differs = (bits[:, 1:] != bits[:, :-1]).any(axis=0)
    first = int(differs.argmax())
    if not differs[first]:
        return 0, 1, False
    last = n - 2 - int(differs[::-1].argmax())
    return first, last + 2, False


def _cell_block(model: GasModel, U: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(cells, slowest, fastest) of a conserved-variable block.

    cells holds U, F(U), u - c and u + c per cell, with an unset ghost column
    at each end; slowest and fastest are min(u - c) and max(u + c).  Raises
    NumericalError at the first cell that is not finite, or whose density or
    internal energy is not positive.
    """
    k, n = U.shape
    u, p, c = _primitives(model, U)

    cells = np.empty((2 * k + 2, n + 2))
    inner = cells[:, 1:-1]
    inner[:k] = U
    inner[k:2 * k] = physical_flux(U, u, p)
    np.subtract(u, c, out=inner[2 * k])
    np.add(u, c, out=inner[2 * k + 1])

    # max |u| + c is max(u + c, c - u) over the cells, and c - u rounds to
    # exactly -(u - c), so dt has the same bits as from |u| + c.  A NaN or
    # infinite momentum or energy that passed the positivity checks makes
    # the extreme speeds non-finite; an infinite ideal-gas density gives
    # u = c = 0, so the largest density is checked as well.
    slowest = float(inner[2 * k].min())
    fastest = float(inner[2 * k + 1].max())
    if not (math.isfinite(slowest) and math.isfinite(fastest) and math.isfinite(U[0].max())):
        i = int(np.flatnonzero(~np.isfinite(inner).all(axis=0))[0])
        raise NumericalError(f"non-finite state in cell {i}", cell=i)
    return cells, slowest, fastest


def step(
    model: GasModel,
    grid: Grid1D,
    field: ConservedField,
    cfl: float = 0.45,
    bc: str = "outflow",
    dt_max: float = np.inf,
) -> tuple[ConservedField, float]:
    """One conservative forward-Euler update with HLL interface fluxes.

    Wave-speed bounds are the Davis estimates S_L = min(u - c) and
    S_R = max(u + c) over the interface pair.  Returns the updated field and
    the time step actually taken.  A cell that is not finite, or whose
    density or internal energy is not positive, raises NumericalError naming
    the first such cell.

    Only the active window (see _active_window) is updated.  Every cell
    outside it holds the bits of a window end cell, so the ghost cells, the
    boundary fluxes, the extreme wave speeds and the checks are those of the
    whole grid: the result is bit for bit the full-grid update.
    """
    if not 0.0 < cfl <= 1.0:
        raise InvalidStateError(f"cfl must lie in (0, 1], got {cfl}")
    if bc not in ("outflow", "periodic"):
        raise InvalidStateError(f"unknown boundary condition {bc!r}")
    U = field.data
    k = U.shape[0]
    if k != _n_comp(model):
        raise InvalidStateError("field component count does not match the model")
    lo, hi, wrap = _active_window(U, bc)
    try:
        cells, slowest, fastest = _cell_block(model, U[:, lo:hi])
    except NumericalError:
        _cell_block(model, U)  # the whole field names the first bad cell
        raise
    dt = min(cfl * grid.dx / max(fastest, -slowest), dt_max)

    if wrap:
        cells[:, 0] = cells[:, -2]
        cells[:, -1] = cells[:, 1]
    else:
        cells[:, 0] = cells[:, 1]
        cells[:, -1] = cells[:, -2]
    L = cells[:, :-1]
    R = cells[:, 1:]
    UL, FL = L[:k], L[k:2 * k]
    UR, FR = R[:k], R[k:2 * k]
    SL = np.minimum(L[2 * k], R[2 * k])
    SR = np.maximum(L[2 * k + 1], R[2 * k + 1])

    # F = (SR FL - SL FR + SL SR (UR - UL)) / span, in that operation order,
    # then the upwind states where both waves move one way.
    span = SR - SL
    span[span == 0.0] = 1.0
    F = SR * FL
    tmp = SL * FR
    F -= tmp
    np.subtract(UR, UL, out=tmp)
    tmp *= SL * SR
    F += tmp
    F /= span
    np.copyto(F, FR, where=SR <= 0.0)
    np.copyto(F, FL, where=SL >= 0.0)

    dU = np.subtract(F[:, 1:], F[:, :-1])
    dU *= dt / grid.dx
    U_new = U.copy()
    window = U_new[:, lo:hi]
    np.subtract(window, dU, out=window)
    try:
        _check_positivity(window)
    except NumericalError:
        _check_positivity(U_new)
        raise
    return ConservedField(U_new, boundary_flux=(F[:, 0].copy(), F[:, -1].copy())), dt


def field_from_solution(model: GasModel, grid: Grid1D, sol: PiecewiseShockSolution) -> ConservedField:
    """Exact cell averages of a piecewise-constant solution at t = 0 (conservative init).

    Each region adds eos.conserved of its state weighted by the fraction of
    each cell it covers, the overlap over the cell's own width.  A cell
    wholly inside a region has an overlap of exactly its width, so it holds
    the region's values bit for bit; only cells cut by a shock are mixed.
    A cell of zero width (a grid finer than the float spacing of its
    coordinates) is left empty.
    """
    edges = grid.interfaces()
    left, right = edges[:-1], edges[1:]
    width = right - left
    k = _n_comp(model)
    U = np.zeros((k, grid.n_cells))
    breaks = [-np.inf, *sol.shock_positions_t0, np.inf]
    for i, state in enumerate(sol.states):
        overlap = np.minimum(right, breaks[i + 1]) - np.maximum(left, breaks[i])
        frac = np.divide(overlap, width, out=np.zeros_like(width), where=overlap > 0.0)
        U += np.multiply.outer(conserved(model, state)[:k], frac)
    return ConservedField(U)


def cell_primitives(model: GasModel, U: np.ndarray) -> tuple:
    """(rho, u) arrays of a conserved-variable block, and s for the full system.

    s is the EOS entropy density of the internal energy the step checks
    (_check_positivity), so a full-system block whose density or internal
    energy is not positive raises NumericalError naming its first such cell.
    """
    rho = U[0]
    u = U[1] / rho
    if U.shape[0] == 2:
        return rho, u
    p = pressure_from(model, rho, _check_positivity(U))
    return rho, u, entropy_density_from_pressure(model, rho, p)


def locate_shock(
    grid: Grid1D,
    field: ConservedField,
    require_isolated: bool = True,
) -> tuple[int, int, float]:
    """(left plateau cell, right plateau cell, subcell position) of the dominant discontinuity.

    With require_isolated the steepest density gradient must exceed every
    gradient outside its 3-cell neighborhood by the ISOLATION factor
    (trajectory tracking during start-up transients disables the gate).  The
    plateau cells lie PLATEAU_OFFSET cells either side of the steep interface,
    clamped to the grid; the subcell position is where their densities
    reproduce the conserved mass between them.
    """
    rho = field.data[0]
    g = np.abs(np.diff(rho))
    i_star = int(np.argmax(g))
    floor = 1e-8 * float(np.max(np.abs(rho)))
    if g[i_star] <= floor:
        raise NumericalError("no discontinuity: the field is uniform to tolerance")
    if require_isolated:
        mask = np.ones_like(g, dtype=bool)
        mask[max(0, i_star - 3): i_star + 4] = False
        if mask.any() and g[i_star] < ISOLATION * float(np.max(g[mask])):
            raise NumericalError("no isolated discontinuity dominates the density gradients")

    lo_cell = max(i_star - PLATEAU_OFFSET, 0)
    hi_cell = min(i_star + 1 + PLATEAU_OFFSET, grid.n_cells - 1)
    rho_l = rho[lo_cell]
    rho_r = rho[hi_cell]
    if rho_l == rho_r:
        raise NumericalError("plateaus are equal: cannot interpolate a position")
    x_lo = grid.x_min + lo_cell * grid.dx
    width = (hi_cell - lo_cell + 1) * grid.dx
    mass = float(np.sum(rho[lo_cell: hi_cell + 1])) * grid.dx
    x_s = x_lo + (mass - rho_r * width) / (rho_l - rho_r)
    return lo_cell, hi_cell, float(x_s)


@dataclass
class ShockMeasurement:
    position: float
    jump: ShockJump
    residual: RhResidual


def measure_shock(model: GasModel, grid: Grid1D, field: ConservedField, trajectory=()) -> ShockMeasurement:
    """Audit the captured shock from the plateau cells locate_shock reads.

    trajectory is a sequence of (t, position) pairs; the speed is its
    least-squares slope.  With fewer than two the shock is assumed stationary.
    """
    i_l, i_r, x_s = locate_shock(grid, field)
    if i_r - i_l < 2 * PLATEAU_OFFSET + 1:  # a plateau clamped to the grid
        raise NumericalError("discontinuity too close to the boundary to sample plateaus")
    cells = np.array(cell_primitives(model, field.data[:, [i_l, i_r]])).T.tolist()
    left, right = (FluidState(*cell) for cell in cells)
    v_s = 0.0
    if len(trajectory) >= 2:
        ts, xs = np.asarray(trajectory).T
        v_s = float(np.polyfit(ts, xs, 1)[0])
    jump = ShockJump(left=left, right=right, n=1.0, v_s=v_s)
    return ShockMeasurement(position=x_s, jump=jump, residual=rh_residuals(jump, model))


class ShockTrack:
    """Observer: (t, shock position) points at the start, every 20 steps and at the end."""

    def __init__(self, grid: Grid1D):
        self.grid = grid
        self.points = []

    def __call__(self, n, t, dt, field, last):
        if n % 20 == 0 or last:
            self.points.append((t, locate_shock(self.grid, field, require_isolated=False)[-1]))


class Snapshots:
    """Observer: (t, field) once t reaches each of times to within TIME_TOL t_final.

    times keeps the ones not yet taken, in order.  All times up to the
    tolerance are taken at t = 0; later a step takes at most one.
    """

    def __init__(self, times, t_final: float):
        self.times = sorted(times)
        self.tol = TIME_TOL * t_final
        self.taken = []

    def __call__(self, n, t, dt, field, last):
        while self.times and t >= self.times[0] - self.tol:
            self.taken.append((t, field))
            self.times.pop(0)
            if n > 0:
                break


@dataclass
class SimulationResult:
    field: ConservedField
    t: float
    n_steps: int
    conservation_drift: np.ndarray


def simulate(
    model: GasModel,
    grid: Grid1D,
    field0: ConservedField,
    t_final: float,
    cfl: float = 0.45,
    bc: str = "outflow",
    observers=(),
) -> SimulationResult:
    """March to t_final, recording a conservation budget and calling the observers.

    observer(n, t, dt, field, last) is called before the first step (n = 0,
    dt = 0) and after every step n; last is true after the final step.  An
    observer may keep field (step never modifies its input); the step's
    interface fluxes are field.boundary_flux.  A step ends exactly at
    observer.times[0] when that lies ahead.  Times within TIME_TOL t_final
    of each other count as equal, however small t_final is.  A
    NumericalError raised by a step leaves with its step number and start
    time set (NumericalError.step, .t).

    The drift per component is |total(t) - total(0) + accumulated boundary
    flux|, normalized by max(|total(0)|, 1); it stays at roundoff for any
    run, boundary type included.
    """
    fld = field0
    totals0 = fld.totals(grid)
    boundary_budget = np.zeros_like(totals0)
    stops = [obs for obs in observers if hasattr(obs, "times")]
    t = 0.0
    n = 0
    tol = TIME_TOL * t_final
    for observe in observers:
        observe(n, t, 0.0, fld, False)
    while t < t_final - tol:
        dt_cap = t_final - t
        for obs in stops:
            if obs.times and obs.times[0] > t + tol:
                dt_cap = min(dt_cap, obs.times[0] - t)
        try:
            fld, dt = step(model, grid, fld, cfl=cfl, bc=bc, dt_max=dt_cap)
        except NumericalError as exc:
            exc.step, exc.t = n + 1, t
            raise
        f_in, f_out = fld.boundary_flux
        boundary_budget += dt * (f_out - f_in)
        t += dt
        n += 1
        last = not t < t_final - tol
        for observe in observers:
            observe(n, t, dt, fld, last)
        if n >= MAX_STEPS:
            raise NumericalError(f"step budget exhausted at t={t}")
    drift = np.abs(fld.totals(grid) - totals0 + boundary_budget)
    drift /= np.maximum(np.abs(totals0), 1.0)
    return SimulationResult(field=fld, t=t, n_steps=n, conservation_drift=drift)
