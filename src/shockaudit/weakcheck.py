"""Weak-form residual verification and moving-domain conservation audits.

A candidate solution is a weak solution of a conservation law exactly when
the spacetime integral of U dh/dt + F(U) dh/dx vanishes for every smooth
compactly supported test function h.  For piecewise-constant candidates the
integrand is smooth per region, so shock-aligned subdivision plus composite
Gauss quadrature evaluates the residual to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eos import balance_terms
from .errors import DomainError, InvalidStateError, NumericalError
from .shock1d import PiecewiseShockSolution, evaluate

COMPONENTS = ("mass", "momentum", "energy")


def _mollifier(xi):
    """exp(1 - 1/(1 - xi^2)) on |xi| < 1, identically zero outside."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    w = 1.0 - xi[inside] ** 2
    out[inside] = np.exp(1.0 - 1.0 / w)
    return out


def _mollifier_prime(xi):
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    inside = np.abs(xi) < 1.0
    w = 1.0 - xi[inside] ** 2
    out[inside] = np.exp(1.0 - 1.0 / w) * (-2.0 * xi[inside] / w ** 2)
    return out


@dataclass(frozen=True)
class BumpTestFunction:
    """Tensorized compactly supported bump centered at (t0, x0) with radii (rt, rx).

    The profile peaks at 1 in the center and vanishes with all derivatives on
    the boundary of the centered box.
    """

    t0: float
    x0: float
    rt: float
    rx: float

    def __post_init__(self):
        if not (self.rt > 0.0 and self.rx > 0.0):
            raise InvalidStateError("bump radii must be positive")

    def support(self) -> tuple[float, float, float, float]:
        """(t_lo, t_hi, x_lo, x_hi) bounding box of the support."""
        return (self.t0 - self.rt, self.t0 + self.rt, self.x0 - self.rx, self.x0 + self.rx)

    def value(self, t, x):
        return _mollifier((np.asarray(t) - self.t0) / self.rt) * _mollifier(
            (np.asarray(x) - self.x0) / self.rx
        )

    def dt(self, t, x):
        return (
            _mollifier_prime((np.asarray(t) - self.t0) / self.rt)
            / self.rt
            * _mollifier((np.asarray(x) - self.x0) / self.rx)
        )

    def dx(self, t, x):
        return (
            _mollifier((np.asarray(t) - self.t0) / self.rt)
            * _mollifier_prime((np.asarray(x) - self.x0) / self.rx)
            / self.rx
        )


@dataclass(frozen=True)
class SpacetimeQuadrature:
    """Composite tensor-product Gauss rule, applied between shock-aligned splits.

    order is the Gauss-Legendre point count per panel; panels subdivides each
    smooth subinterval in both directions.  weak_residuals always splits the
    support at the shocks (in time where one crosses a box edge, in space at
    every shock inside the box), so kinks of the integrand lie on subcell
    boundaries, which Gauss rules need to hold their order.
    """

    order: int = 8
    panels: int = 16
    _gauss: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("order", "panels"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise InvalidStateError(f"quadrature {name} must be a positive integer, got {value!r}")

    def nodes(self):
        """Gauss-Legendre (nodes, weights) on [-1, 1], computed on first use and kept."""
        if self._gauss is None:
            object.__setattr__(self, "_gauss", np.polynomial.legendre.leggauss(self.order))
        return self._gauss


def _panel_nodes(lo, hi, panels, base_nodes, base_weights):
    """Composite Gauss nodes/weights on [lo, hi] with cosine-graded panels.

    lo and hi are scalars or same-shape arrays of interval ends; the nodes
    and weights get one trailing axis of panels * order points per interval.
    Panel edges cluster at both interval ends, where the mollifier profiles
    are flat but only root-exponentially so; grading restores fast
    convergence there at no cost in the interior.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    edges = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * np.arange(panels + 1) / panels))
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    shape = half.shape[:-1] + (-1,)
    xs = (mid[..., None] + half[..., None] * base_nodes).reshape(shape)
    ws = (half[..., None] * base_weights).reshape(shape)
    return xs, ws


def _component_values(sol, components):
    """Per-region (U, F) constants of each requested law, shape (laws, regions, 2)."""
    for component in components:
        if component not in COMPONENTS:
            raise InvalidStateError(f"unknown component {component!r}")
    terms = [balance_terms(sol.model, state) for state in sol.states]
    return np.array(
        [[(U[k], F[k]) for U, F in terms] for k in map(COMPONENTS.index, components)]
    )


def _require_support_inside(sol, box):
    t_lo, t_hi, x_lo, x_hi = box
    if not (sol.horizon[0] <= t_lo and t_hi <= sol.horizon[1]):
        raise DomainError("test-function support leaves the validity horizon")
    for t in (t_lo, t_hi):
        a, b = sol.endpoints(t)
        if not (a <= x_lo and x_hi <= b):
            raise DomainError("test-function support leaves the solution domain")


def _time_cuts(sol, box):
    """Times where a shock crosses the support box edges (integrand corners)."""
    t_lo, t_hi, x_lo, x_hi = box
    cuts = {t_lo, t_hi}
    for i, v in enumerate(sol.shock_speeds):
        x0 = sol.shock_positions_t0[i]
        if v != 0.0:
            for edge in (x_lo, x_hi):
                tc = (edge - x0) / v
                if t_lo < tc < t_hi:
                    cuts.add(tc)
    return sorted(cuts)


def weak_residuals(
    sol: PiecewiseShockSolution,
    components,
    h,
    quad: SpacetimeQuadrature = SpacetimeQuadrature(),
) -> list[float]:
    """Spacetime residuals of the requested conservation laws against the test function h.

    h needs dt/dx methods and a support() box (BumpTestFunction or any
    linear combination with the same surface).  dt and dx receive
    broadcastable arrays, t of shape (nt, 1) and x of shape (nt, nx), and
    must return values broadcastable to (nt, nx).  A residual is zero up to
    quadrature error iff the candidate satisfies both the bulk equation and
    the jump condition of its component wherever h is supported.

    Between consecutive time cuts the shocks inside the box are fixed, so
    every sub-region's x-breakpoints are linear in t and each (time slab,
    sub-region) pair is one (nt, nx) tensor evaluation of h.  Only the
    per-region constants (U, F) depend on the law, so the space integrals of
    h_t and h_x are formed once and shared by every component.
    """
    box = h.support()
    _require_support_inside(sol, box)
    consts = _component_values(sol, components)
    base_nodes, base_weights = quad.nodes()
    t_lo, t_hi, x_lo, x_hi = box
    x0 = np.array(sol.shock_positions_t0)
    speeds = np.array(sol.shock_speeds)

    totals = [0.0] * len(consts)
    cuts = _time_cuts(sol, box)
    for ta, tb in zip(cuts, cuts[1:]):
        ts, wts = _panel_nodes(ta, tb, quad.panels, base_nodes, base_weights)
        shock_xs = x0[:, None] + speeds[:, None] * ts
        at_mid = x0 + speeds * (0.5 * (ta + tb))
        inside = shock_xs[(x_lo < at_mid) & (at_mid < x_hi)]
        breaks = [np.full_like(ts, x_lo), *inside, np.full_like(ts, x_hi)]
        accs = [np.zeros_like(ts) for _ in consts]
        for lo, hi in zip(breaks, breaks[1:]):
            region = np.count_nonzero(shock_xs < 0.5 * (lo + hi), axis=0)
            xs, wxs = _panel_nodes(lo, hi, quad.panels, base_nodes, base_weights)
            a = (wxs * h.dt(ts[:, None], xs)).sum(axis=1)
            b = (wxs * h.dx(ts[:, None], xs)).sum(axis=1)
            for acc, law in zip(accs, consts):
                U, F = law[region].T
                acc += U * a
                acc += F * b
        for m, acc in enumerate(accs):
            totals[m] += float(np.dot(wts, acc))
    for component, total in zip(components, totals):
        if not math.isfinite(total):
            raise NumericalError(f"non-finite {component} weak residual {total}")
    return totals


def weak_residual(
    sol: PiecewiseShockSolution,
    component: str,
    h,
    quad: SpacetimeQuadrature = SpacetimeQuadrature(),
) -> float:
    """Spacetime residual of one conservation law against h (see weak_residuals)."""
    return weak_residuals(sol, (component,), h, quad)[0]


def standard_battery(
    sol: PiecewiseShockSolution, count: int = 20, seed: int = 0
) -> list[BumpTestFunction]:
    """Deterministic battery of bumps: half straddling shocks, half in the bulk."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidStateError(f"battery seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    t_lo = max(sol.horizon[0], 0.0)
    t_hi = min(sol.horizon[1], 0.5)
    bumps = []
    n_shocks = max(len(sol.shock_speeds), 1)
    for j in range(count):
        rt = 0.06 + 0.06 * rng.random()
        tc = rng.uniform(t_lo + rt * 1.05, t_hi - rt * 1.05)
        a, b = sol.endpoints(tc)
        if j % 2 == 0 and sol.shock_speeds:
            i = (j // 2) % n_shocks
            xc = sol.shock_position(i, tc) + rng.uniform(-0.02, 0.02)
            rx = 0.1 + 0.15 * rng.random()
        else:
            xc = rng.uniform(a + 0.35 * (b - a), a + 0.65 * (b - a))
            rx = 0.08 + 0.1 * rng.random()
        rx = min(rx, 0.95 * (xc - a), 0.95 * (b - xc))
        bumps.append(BumpTestFunction(t0=tc, x0=xc, rt=rt, rx=rx))
    return bumps


def mass_integral(sol: PiecewiseShockSolution, lo: float, hi: float, t: float) -> float:
    """Exact integral of the density over [lo, hi] at time t."""
    if hi < lo:
        raise InvalidStateError("empty integration interval")
    bounds = sol.region_bounds(t)
    total = 0.0
    for i, state in enumerate(sol.states):
        seg_lo = max(lo, bounds[i])
        seg_hi = min(hi, bounds[i + 1])
        if seg_hi > seg_lo:
            total += state.rho * (seg_hi - seg_lo)
    return total


def moving_domain_mass_rate(sol: PiecewiseShockSolution, a, b) -> float:
    """d/dt at t = 0 of the mass between material endpoint trajectories a(t) and b(t).

    Vanishes exactly when every interior shock satisfies the mass jump
    condition; a violated condition shows up as minus its residual.  The
    rate is a central difference over t = +-1e-5; the endpoints must move
    with the local fluid velocity and stay clear of the shocks over that
    window.
    """
    step = 1e-5
    for t in (-step, 0.0, step):
        sol.require_in_horizon(t)
        for endpoint in (a, b):
            xe = endpoint(t)
            dom_a, dom_b = sol.endpoints(t)
            if not (dom_a <= xe <= dom_b):
                raise DomainError(f"audit endpoint {xe} outside the domain at t={t}")
            for i in range(len(sol.shock_speeds)):
                if abs(xe - sol.shock_position(i, t)) < 10.0 * step:
                    raise DomainError("audit endpoint collides with a shock trajectory")
    for endpoint in (a, b):
        xe = endpoint(0.0)
        speed_fd = (endpoint(step) - endpoint(-step)) / (2.0 * step)
        u_local = evaluate(sol, 0.0, xe).u
        if abs(speed_fd - u_local) > 1e-6 * max(1.0, abs(u_local)):
            raise InvalidStateError(
                f"endpoint at {xe} moves at {speed_fd}, local fluid velocity is {u_local}"
            )
    above = mass_integral(sol, a(step), b(step), step)
    below = mass_integral(sol, a(-step), b(-step), -step)
    return (above - below) / (2.0 * step)
