"""Independent oracles used by the tests.

Everything here is written from the jump-condition definitions alone, with
its own residual formulas, so it shares no code path with the package
solvers it cross-checks.  The solvers are brute-force zoom scans: evaluate
the residual norm on a grid, shrink the box around the best cell, repeat.
The CSV writer is the exception: it keeps the package's float rendering
(`format_float`, 17 significant digits), because that rendering is the
artifact contract it checks the column writer against.  So is the stacked
HLL step: it is the package's earlier `fv_solver.step` kept verbatim, with
the package's EOS closures and flux, as the bit-for-bit reference for the
in-place step.
"""

import math

import numpy as np

from shockaudit.config import format_float
from shockaudit.eos import physical_flux, pressure_from, sound_speed_from
from shockaudit.errors import InvalidStateError, NumericalError
from shockaudit.fv_solver import ConservedField


def baro_pressure(K, gamma, rho):
    return K * rho ** gamma


def baro_energy_density(K, gamma, rho, u):
    return 0.5 * rho * u ** 2 + K / (gamma - 1.0) * rho ** gamma


def baro_jump_residuals(K, gamma, rho_l, u_l, rho_r, u_r, v_s):
    """(mass, momentum) residuals, brackets right minus left, n = +1."""
    mass = v_s * (rho_r - rho_l) - (rho_r * u_r - rho_l * u_l)
    mom = v_s * (rho_r * u_r - rho_l * u_l) - (
        (rho_r * u_r ** 2 + baro_pressure(K, gamma, rho_r))
        - (rho_l * u_l ** 2 + baro_pressure(K, gamma, rho_l))
    )
    return mass, mom


def baro_energy_rate(K, gamma, rho_l, u_l, rho_r, u_r, v_s):
    e_l = baro_energy_density(K, gamma, rho_l, u_l)
    e_r = baro_energy_density(K, gamma, rho_r, u_r)
    p_l = baro_pressure(K, gamma, rho_l)
    p_r = baro_pressure(K, gamma, rho_r)
    return -v_s * (e_r - e_l) + ((e_r + p_r) * u_r - (e_l + p_l) * u_l)


def ideal_specific_energy(e_ref, c_v, gamma, rho, S):
    return e_ref * rho ** (gamma - 1.0) * math.exp(S / c_v)


def ideal_pressure(e_ref, c_v, gamma, rho, S):
    # p = rho^2 * de/drho at fixed S
    return (gamma - 1.0) * rho * ideal_specific_energy(e_ref, c_v, gamma, rho, S)


def full_jump_residuals(model_params, left, right, v_s):
    """(mass, momentum, energy) residuals for the entropy-carrying gas.

    model_params = (gamma, e_ref, c_v); left/right = (rho, u, s).
    """
    gamma, e_ref, c_v = model_params
    rho_l, u_l, s_l = left
    rho_r, u_r, s_r = right
    p_l = ideal_pressure(e_ref, c_v, gamma, rho_l, s_l / rho_l)
    p_r = ideal_pressure(e_ref, c_v, gamma, rho_r, s_r / rho_r)
    E_l = 0.5 * rho_l * u_l ** 2 + rho_l * ideal_specific_energy(e_ref, c_v, gamma, rho_l, s_l / rho_l)
    E_r = 0.5 * rho_r * u_r ** 2 + rho_r * ideal_specific_energy(e_ref, c_v, gamma, rho_r, s_r / rho_r)
    mass = v_s * (rho_r - rho_l) - (rho_r * u_r - rho_l * u_l)
    mom = v_s * (rho_r * u_r - rho_l * u_l) - (
        (rho_r * u_r ** 2 + p_r) - (rho_l * u_l ** 2 + p_l)
    )
    energy = v_s * (E_r - E_l) - ((E_r + p_r) * u_r - (E_l + p_l) * u_l)
    return mass, mom, energy


def neg_potential(sol, densities, t):
    """-V(t) for constant reference densities: sum of lambda_i (b_i(t) - a_i(t)).

    Region i's labels X = x - u_i t have unit Jacobian, so their reference
    length is the region's current length.
    """
    bounds = sol.region_bounds(t)
    return sum(lam * (hi - lo) for lam, lo, hi in zip(densities, bounds, bounds[1:]))


def scan_barotropic(K, gamma, rho_l, u_l, rho_r, tol=1e-10):
    """All (u_r, v_s) roots of the barotropic jump system.

    Brute-force scan over v_s with u_r eliminated through the mass condition,
    bracketing sign changes of the momentum residual on a dense grid and
    bisecting each bracket until the combined residual norm drops below tol.
    """
    c = math.sqrt(K * gamma * max(rho_l, rho_r) ** (gamma - 1.0))
    width = 6.0 * c + 3.0 * abs(u_l) + 3.0

    def u_of_v(V):
        return (V * (rho_r - rho_l) + rho_l * u_l) / rho_r

    def mom_res(V):
        U = u_of_v(V)
        return V * (rho_r * U - rho_l * u_l) - (
            (rho_r * U ** 2 + baro_pressure(K, gamma, rho_r))
            - (rho_l * u_l ** 2 + baro_pressure(K, gamma, rho_l))
        )

    vs = np.linspace(u_l - width, u_l + width, 20001)
    fs = np.array([mom_res(v) for v in vs])
    roots = []
    for i in np.flatnonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0):
        lo, hi = vs[i], vs[i + 1]
        flo = mom_res(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = mom_res(mid)
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
            if hi - lo < 1e-15 * max(1.0, abs(lo)):
                break
        v_root = 0.5 * (lo + hi)
        u_root = u_of_v(v_root)
        if sum(abs(r) for r in baro_jump_residuals(K, gamma, rho_l, u_l, rho_r, u_root, v_root)) > tol:
            continue
        roots.append((u_root, v_root))
    return roots


def scan_full(gamma, e_ref, c_v, rho_l, u_l, s_l, rho_r, tol=1e-9):
    """All (u_r, s_r, v_s) shock roots of the three-law jump system.

    Brute-force scan over v_s with u_r eliminated through the mass condition
    and p_r through the momentum condition (linear in p_r once u_r is
    fixed), so the scanned function is the energy residual restricted to the
    mass+momentum solution curve.  Roots are bracketed on a dense grid and
    bisected; the zero-mass-flux contact root carries no shock and is
    dropped, as are unphysical brackets with nonpositive pressure.
    """
    S_l = s_l / rho_l
    p_l = ideal_pressure(e_ref, c_v, gamma, rho_l, S_l)
    c = math.sqrt(gamma * p_l / rho_l)
    width = 6.0 * c + 3.0 * abs(u_l) + 3.0
    E_l = 0.5 * rho_l * u_l ** 2 + rho_l * ideal_specific_energy(e_ref, c_v, gamma, rho_l, S_l)

    def u_of_v(V):
        return (V * (rho_r - rho_l) + rho_l * u_l) / rho_r

    def p_of_v(V):
        U = u_of_v(V)
        return p_l + V * (rho_r * U - rho_l * u_l) - (rho_r * U ** 2 - rho_l * u_l ** 2)

    def energy_res(V):
        U = u_of_v(V)
        P = p_of_v(V)
        E_r = 0.5 * rho_r * U ** 2 + P / (gamma - 1.0)
        return V * (E_r - E_l) - ((E_r + P) * U - (E_l + p_l) * u_l)

    vs = np.linspace(u_l - width, u_l + width, 20001)
    fs = np.array([energy_res(v) for v in vs])
    roots = []
    for i in np.flatnonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0):
        lo, hi = vs[i], vs[i + 1]
        flo = energy_res(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = energy_res(mid)
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
            if hi - lo < 1e-15 * max(1.0, abs(lo)):
                break
        v_root = 0.5 * (lo + hi)
        p_root = p_of_v(v_root)
        if p_root <= 0.0 or abs(rho_l * (u_l - v_root)) < 1e-3:
            continue
        if abs(energy_res(v_root)) > tol:
            continue
        s_root = rho_r * c_v * math.log(p_root / ((gamma - 1.0) * e_ref * rho_r ** gamma))
        roots.append((u_of_v(v_root), s_root, v_root))
    return roots


def baro_laws(K, gamma, rho, u):
    """{component: (U, F)} of the barotropic system for one constant state."""
    p = baro_pressure(K, gamma, rho)
    E = baro_energy_density(K, gamma, rho, u)
    return {"mass": (rho, rho * u), "momentum": (rho * u, rho * u ** 2 + p), "energy": (E, (E + p) * u)}


def ideal_laws(gamma, e_ref, c_v, rho, u, s):
    """{component: (U, F)} of the full Euler system for one constant state."""
    S = s / rho
    p = ideal_pressure(e_ref, c_v, gamma, rho, S)
    E = 0.5 * rho * u ** 2 + rho * ideal_specific_energy(e_ref, c_v, gamma, rho, S)
    return {"mass": (rho, rho * u), "momentum": (rho * u, rho * u ** 2 + p), "energy": (E, (E + p) * u)}


def mollifier(xi):
    """exp(1 - 1/(1 - xi^2)) on |xi| < 1, identically zero outside.

    Gather/scatter form: only the nodes inside the interval are evaluated,
    so no division by zero or overflow ever happens.  The bit-for-bit
    reference for weakcheck._mollifier.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    w = 1.0 - xi[inside] ** 2
    out[inside] = np.exp(1.0 - 1.0 / w)
    return out


def mollifier_prime(xi):
    """d/dxi of mollifier(xi), in the same gather/scatter form."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    w = 1.0 - xi[inside] ** 2
    out[inside] = np.exp(1.0 - 1.0 / w) * (-2.0 * xi[inside] / w ** 2)
    return out


def bump_value(bump, t, x):
    """h(t, x) = m(tau) m(xi) of a BumpTestFunction, from the reference mollifier."""
    return mollifier((np.asarray(t) - bump.t0) / bump.rt) * mollifier((np.asarray(x) - bump.x0) / bump.rx)


def bump_grad(bump, t, x):
    """(dh/dt, dh/dx) = (m'(tau) / rt) m(xi) and m(tau) (m'(xi) / rx) of a BumpTestFunction."""
    tau = (np.asarray(t) - bump.t0) / bump.rt
    xi = (np.asarray(x) - bump.x0) / bump.rx
    return mollifier_prime(tau) / bump.rt * mollifier(xi), mollifier(tau) * mollifier_prime(xi) / bump.rx


def graded_gauss(a, b, order, panels):
    """Composite Gauss rule on [a, b], panels graded as (1 - cos(pi k / panels)) / 2."""
    g, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for k in range(panels):
        e0 = a + (b - a) * (1.0 - math.cos(math.pi * k / panels)) / 2.0
        e1 = a + (b - a) * (1.0 - math.cos(math.pi * (k + 1) / panels)) / 2.0
        centre, radius = (e0 + e1) / 2.0, (e1 - e0) / 2.0
        nodes.extend(centre + radius * g)
        weights.extend(radius * w)
    return nodes, weights


def loop_weak_residual(regions, shock_x0, shock_v, h, order, panels):
    """Integral of U h_t + F h_x over the bump h's support box, one time node at a time.

    regions[k] = (U, F) holds left of shock k and right of shock k - 1;
    shock k sits at shock_x0[k] + shock_v[k] * t.  The time axis is cut
    where a shock crosses an x-edge of the box, and at every time node the
    x-axis is cut at the shocks inside the box, so the Gauss rules only ever
    see smooth integrands.  At each time node the full gradient of h is
    evaluated on the x-nodes (bump_grad).  U and F may be arrays (one entry
    per law), and the result then has their shape.
    """
    t_lo, t_hi, x_lo, x_hi = h.support()
    t_cuts = [t_lo, t_hi]
    for x0, v in zip(shock_x0, shock_v):
        for edge in (x_lo, x_hi):
            if v != 0.0 and t_lo < (edge - x0) / v < t_hi:
                t_cuts.append((edge - x0) / v)
    t_cuts.sort()
    total = 0.0
    for ta, tb in zip(t_cuts, t_cuts[1:]):
        for t, wt in zip(*graded_gauss(ta, tb, order, panels)):
            positions = [x0 + v * t for x0, v in zip(shock_x0, shock_v)]
            cuts = sorted([x_lo, x_hi, *(x for x in positions if x_lo < x < x_hi)])
            inner = 0.0
            for a, b in zip(cuts, cuts[1:]):
                centre = (a + b) / 2.0
                U, F = regions[sum(1 for x in positions if x < centre)]
                xs, ws = graded_gauss(a, b, order, panels)
                xs, ws = np.array(xs), np.array(ws)
                h_t, h_x = bump_grad(h, t, xs)
                inner += U * float(np.sum(ws * h_t)) + F * float(np.sum(ws * h_x))
            total += wt * inner
    return total


def csv_text_per_value(header, rows):
    """The row-by-row CSV writer: one format_float call per float cell."""
    def cell(v):
        if isinstance(v, float):
            return format_float(v)
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _stacked_check_positivity(U):
    rho = U[0]
    bad = np.flatnonzero(rho <= 0.0)
    if bad.size:
        raise NumericalError(f"vacuum generated in cell {int(bad[0])}")
    if U.shape[0] == 2:
        return None
    eint = U[2] - 0.5 * U[1] ** 2 / rho
    bad = np.flatnonzero(eint <= 0.0)
    if bad.size:
        raise NumericalError(f"nonpositive internal energy in cell {int(bad[0])}")
    return eint


def _stacked_primitives(model, U):
    rho = U[0]
    p = pressure_from(model, rho, _stacked_check_positivity(U))
    return U[1] / rho, p, sound_speed_from(model, rho, p)


def _ghost(cells, bc):
    """Copy of a (rows, n_cells) block with one ghost cell at each end."""
    if bc not in ("outflow", "periodic"):
        raise InvalidStateError(f"unknown boundary condition {bc!r}")
    out = np.empty((cells.shape[0], cells.shape[1] + 2))
    out[:, 1:-1] = cells
    out[:, [0, -1]] = cells[:, [0, -1] if bc == "outflow" else [-1, 0]]
    return out


def stacked_hll_step(model, grid, field, cfl=0.45, bc="outflow", dt_max=np.inf):
    """The HLL step built with vstack, a ghosted copy and a nested where."""
    if not 0.0 < cfl <= 1.0:
        raise InvalidStateError(f"cfl must lie in (0, 1], got {cfl}")
    U = field.data
    k = U.shape[0]
    if k != (3 if model.carries_entropy else 2):
        raise InvalidStateError("field component count does not match the model")
    u, p, c = _stacked_primitives(model, U)
    dt = min(cfl * grid.dx / float(np.max(np.abs(u) + c)), dt_max)

    cells = _ghost(np.vstack((U, *physical_flux(U, u, p), u - c, u + c)), bc)
    L = cells[:, :-1]
    R = cells[:, 1:]
    UL, FL = L[:k], L[k:2 * k]
    UR, FR = R[:k], R[k:2 * k]
    SL = np.minimum(L[2 * k], R[2 * k])
    SR = np.maximum(L[2 * k + 1], R[2 * k + 1])

    span = SR - SL
    span = np.where(span == 0.0, 1.0, span)
    F_mid = (SR * FL - SL * FR + SL * SR * (UR - UL)) / span
    F = np.where(SL >= 0.0, FL, np.where(SR <= 0.0, FR, F_mid))

    U_new = U - dt / grid.dx * (F[:, 1:] - F[:, :-1])
    _stacked_check_positivity(U_new)
    return ConservedField(U_new, boundary_flux=(F[:, 0].copy(), F[:, -1].copy())), dt
