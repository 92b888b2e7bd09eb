"""Weak-form residual verification and moving-domain conservation audits.

A candidate solution is a weak solution of a conservation law exactly when
the spacetime integral of U dh/dt + F(U) dh/dx vanishes for every smooth
compactly supported test function h.  For piecewise-constant candidates the
integrand is smooth per region, so shock-aligned subdivision plus composite
Gauss quadrature evaluates the residual to near machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .eos import balance_terms
from .errors import DomainError, InvalidStateError, NumericalError
from .shock1d import PiecewiseShockSolution, evaluate

COMPONENTS = ("mass", "momentum", "energy")

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _UniformStream:
    """The random()/uniform() draws of numpy's default_rng(seed), in pure Python.

    numpy's SeedSequence hashes the seed's 32-bit words into a pool of four
    and expands it into the 128-bit state and increment of a PCG64 (PCG
    XSL-RR 128/64) generator; a double is the top 53 bits of one output.
    The same stream, bit for bit, without loading numpy's random module
    (about 6 MiB per process) for a few dozen scalar draws.
    """

    def __init__(self, seed):
        seed = int(seed)
        words = [seed & _MASK32]
        while seed >> 32:
            seed >>= 32
            words.append(seed & _MASK32)
        hash_const = 0x43B0D7E5

        def hashmix(value):
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * 0x931E8875 & _MASK32
            value = value * hash_const & _MASK32
            return value ^ value >> 16

        def mix(x, y):
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight 32-bit words, little end first.
        hash_const, state = 0x8B51F9DD, 0
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * 0x58F38DED & _MASK32
            value = value * hash_const & _MASK32
            state |= (value ^ value >> 16) << (32 * i)
        words64 = [state >> (64 * k) & _MASK64 for k in range(4)]
        initstate, initseq = words64[0] << 64 | words64[1], words64[2] << 64 | words64[3]
        # pcg_setseq_128_srandom_r: step from 0, add initstate, step again.
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128

    def random(self) -> float:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        s = self._state
        word, rot = (s >> 64 ^ s) & _MASK64, s >> 122
        word = (word >> rot | word << (-rot & 63)) & _MASK64
        return (word >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        return low + span * self.random()


def _mollifier(xi):
    """(m, m') of m(xi) = exp(1 - 1/(1 - xi^2)) on |xi| < 1, both identically zero outside.

    One exp per node serves both values, computed in place in three node
    arrays.  Outside the interval w <= 0 makes the arithmetic overflow or
    divide by zero; only when some node lies there (or is NaN, or there are
    no nodes) are those nodes found and discarded.
    """
    xi = np.asarray(xi, dtype=float)
    w = np.empty_like(xi)
    e = np.empty_like(xi)
    e_prime = np.empty_like(xi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # w = 1 - xi^2
        np.square(xi, out=w)
        np.subtract(1.0, w, out=w)
        # w > 0 exactly when |xi| < 1; a NaN node compares false.
        all_inside = w.size > 0 and w.min() > 0.0
        # e = exp(1 - 1 / w)
        np.divide(1.0, w, out=e)
        np.subtract(1.0, e, out=e)
        np.exp(e, out=e)
        # e' = e * (-2 xi / w^2)
        np.multiply(-2.0, xi, out=e_prime)
        np.square(w, out=w)
        np.divide(e_prime, w, out=e_prime)
        np.multiply(e, e_prime, out=e_prime)
    if all_inside:
        return e, e_prime
    inside = np.abs(xi) < 1.0
    return np.where(inside, e, 0.0), np.where(inside, e_prime, 0.0)


@dataclass(frozen=True)
class BumpTestFunction:
    """Tensorized compactly supported bump centered at (t0, x0) with radii (rt, rx).

    h(t, x) = m((t - t0) / rt) m((x - x0) / rx) with the mollifier m of
    _mollifier: the profile peaks at 1 in the center and vanishes with all
    derivatives on the boundary of the centered box.
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

    def __post_init__(self):
        for name in ("order", "panels"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise InvalidStateError(f"quadrature {name} must be a positive integer, got {value!r}")

    def rule(self):
        """Graded composite (nodes, weights) on [0, 1], shared by every rule of this order and panel count."""
        return _graded_rule(int(self.order), int(self.panels))


@functools.cache
def _graded_rule(order, panels):
    """Read-only composite Gauss (nodes, weights) on [0, 1] with cosine-graded panels.

    Built once per (order, panels).  The rule on [lo, hi] has the nodes
    lo + (hi - lo) * nodes and the weights (hi - lo) * weights.  Panel edges
    cluster at both interval ends, where the mollifier profiles are flat but
    only root-exponentially so; grading restores fast convergence there at
    no cost in the interior.
    """
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)
    edges = 0.5 * (1.0 - np.cos(np.pi * np.arange(panels + 1) / panels))
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    rule = ((mid[:, None] + half[:, None] * base_nodes).ravel(), (half[:, None] * base_weights).ravel())
    for arr in rule:
        arr.flags.writeable = False
    return rule


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
    h: BumpTestFunction,
    quad: SpacetimeQuadrature = SpacetimeQuadrature(),
) -> list[float]:
    """Spacetime residuals of the requested conservation laws against the bump h.

    A residual is zero up to quadrature error iff the candidate satisfies
    both the bulk equation and the jump condition of its component wherever
    h is supported.

    The bump is the product h = m(tau) m(xi) of tau = (t - t0) / rt and
    xi = (x - x0) / rx, so h_t = m'(tau) m(xi) / rt and
    h_x = m(tau) m'(xi) / rx, and each integrand is summed one axis at a
    time over the same tensor-product nodes.  Between consecutive time cuts
    the shocks inside the box are fixed, so every sub-region's x-breakpoints
    are linear in t: the time factors are evaluated once per slab, and the
    space integrals A(t) of m(xi) and B(t) of m'(xi) once per sub-region.
    A sub-region between fixed breaks (box edges, zero-speed shocks) has A
    and B constant in t and needs one row of x-nodes; only one bounded by a
    moving shock needs a row per time node.  Only the per-region constants
    (U, F) depend on the law, so A and B are shared by every component.
    """
    box = h.support()
    _require_support_inside(sol, box)
    consts = _component_values(sol, components)
    nodes, weights = quad.rule()
    t_lo, t_hi, x_lo, x_hi = box
    x0 = np.array(sol.shock_positions_t0)
    speeds = np.array(sol.shock_speeds)

    totals = [0.0] * len(consts)
    cuts = _time_cuts(sol, box)
    for ta, tb in zip(cuts, cuts[1:]):
        ts = ta + (tb - ta) * nodes
        m_t, m_t_prime = _mollifier((ts - h.t0) / h.rt)
        shock_xs = x0[:, None] + speeds[:, None] * ts
        at_mid = x0 + speeds * (0.5 * (ta + tb))
        # Each break is one value when fixed, one per time node when moving.
        inside = np.flatnonzero((x_lo < at_mid) & (at_mid < x_hi))
        shocks = [shock_xs[i] if speeds[i] else x0[i:i + 1] for i in inside]
        breaks = [np.full(1, x_lo), *shocks, np.full(1, x_hi)]
        # One row per law; each row gathers U a + F b over the sub-regions.
        accs = np.zeros((len(consts), len(ts)))
        for lo, hi in zip(breaks, breaks[1:]):
            region = np.count_nonzero(shock_xs < 0.5 * (lo + hi), axis=0)
            length = hi - lo
            xi = (length / h.rx)[:, None] * nodes
            xi += ((lo - h.x0) / h.rx)[:, None]
            m_x, m_x_prime = _mollifier(xi)
            a = m_t_prime * (length * (m_x @ weights)) / h.rt
            b = m_t * (length * (m_x_prime @ weights)) / h.rx
            UF = consts[:, region]
            accs += UF[..., 0] * a
            accs += UF[..., 1] * b
        wts = (tb - ta) * weights
        # One dot per law: a matrix-vector product would not sum in the same order.
        for m, acc in enumerate(accs):
            totals[m] += float(np.dot(wts, acc))
    for component, total in zip(components, totals):
        if not math.isfinite(total):
            raise NumericalError(f"non-finite {component} weak residual {total}")
    return totals


def standard_battery(
    sol: PiecewiseShockSolution, count: int = 20, seed: int = 0
) -> list[BumpTestFunction]:
    """Deterministic battery of bumps: half straddling shocks, half in the bulk.

    The draws are those of numpy's default_rng(seed), so every seed gives
    the bumps it always gave.  A horizon too short for a drawn time support,
    or a domain that no interval stays inside over it, is a DomainError.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidStateError(f"battery seed must be a non-negative integer, got {seed!r}")
    rng = _UniformStream(seed)
    t_lo = max(sol.horizon[0], 0.0)
    t_hi = min(sol.horizon[1], 0.5)
    bumps = []
    n_shocks = max(len(sol.shock_speeds), 1)
    for j in range(count):
        rt = 0.06 + 0.06 * rng.random()
        lo, hi = t_lo + rt * 1.05, t_hi - rt * 1.05
        if hi < lo:
            raise DomainError(
                f"validity horizon [{t_lo}, {t_hi}] is shorter than a bump time support"
                f" of {2.1 * rt} (margins included)"
            )
        tc = rng.uniform(lo, hi)
        # The domain at both time edges of the box, so a material domain holds it too.
        (a0, b0), (a1, b1) = sol.endpoints(tc - rt), sol.endpoints(tc + rt)
        a, b = max(a0, a1), min(b0, b1)
        if not a < b:
            raise DomainError(
                "no interval stays inside the solution domain over the bump time support"
                f" [{tc - rt}, {tc + rt}]"
            )
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
